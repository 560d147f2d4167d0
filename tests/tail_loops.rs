//! Self tail calls as parameter-passing gotos (§2), and tail calls that
//! must not let a pdl number escape their frame (§6.3).
//!
//! A self tail call assigns its arguments to the parameters' homes and
//! jumps back past the prologue; any tail call reuses or replaces the
//! frame, so an argument boxed on the stack in that frame is certified
//! first.  Every program here runs on the S-1 simulator and on the
//! bytecode evaluator, each compiled for its own backend, and must
//! return what the reference interpreter returns.

use s1lisp::{BackendKind, Compiler, Machine, Value};
use s1lisp_suite::{fl, fx};
use s1lisp_trace::rng::SplitMix64;

/// Runs `entry` on both backends and the interpreter, asserts that all
/// three agree, and returns the S-1 machine for its counters.
fn agree(src: &str, entry: &str, args: &[Value]) -> Machine {
    let mut s1 = Compiler::new();
    s1.compile_str(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    let want = s1
        .interpreter()
        .call(entry, args)
        .unwrap_or_else(|e| panic!("interpreter: {src} {args:?}: {e}"));
    let mut m = s1.machine();
    let got = m.run(entry, args);
    assert_eq!(
        got.as_ref().ok(),
        Some(&want),
        "S-1: {src} {args:?}: {got:?}"
    );

    let mut bc = Compiler::new();
    bc.backend = BackendKind::Bytecode;
    bc.compile_str(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    let got = bc.evaluator().run(entry, args);
    assert_eq!(
        got.as_ref().ok(),
        Some(&want),
        "bytecode: {src} {args:?}: {got:?}"
    );
    m
}

/// A flonum boxed in the frame and passed to the next iteration, with
/// the parameter declared (a raw home: passed raw, never boxed) and
/// undeclared (a pointer home: the box is certified to the heap).
#[test]
fn a_self_tail_call_keeps_its_flonum_argument() {
    for decl in ["(declare (flonum x))", ""] {
        let src = format!("(defun f (n x) {decl} (if (zerop n) x (f (- n 1) (+$f x 1.0))))");
        let m = agree(&src, "f", &[fx(5), fl(0.5)]);
        assert_eq!(m.stats.tail_calls, 5, "{src}");
        assert_eq!(m.stats.max_call_depth, 0, "{src}");
    }
    // Through a `let`: the reference boxes in this frame too.
    let src = "(defun g (n x) (declare (flonum x))
                 (if (zerop n) x (let ((y (+$f x 1.0))) (g (- n 1) y))))";
    agree(src, "g", &[fx(4), fl(0.25)]);
}

/// A tail call to another function replaces the frame its argument
/// was boxed in.
#[test]
fn a_tail_call_to_another_function_keeps_its_flonum_argument() {
    let src = "(defun k (a b) a)
               (defun j (x) (declare (flonum x)) (k (+$f x 1.0) 7))";
    agree(src, "j", &[fl(0.5)]);
}

/// Arguments that read parameters assigned before them, including
/// swaps that form a cycle of moves.
#[test]
fn later_arguments_read_the_old_parameter_values() {
    let src = "(defun rot (n a b c) (if (zerop n) (list a b c) (rot (- n 1) b c (+ a n))))";
    let m = agree(src, "rot", &[fx(7), fx(1), fx(2), fx(3)]);
    assert_eq!(m.stats.tail_calls, 7);
    let src = "(defun swap (n x y) (declare (flonum x))
                 (if (zerop n) (list x y) (swap (- n 1) y x)))";
    agree(src, "swap", &[fx(3), fl(1.5), fl(-2.0)]);
    let src = "(defun cyc (n a b c) (if (zerop n) (list a b c) (cyc (- n 1) c a b)))";
    agree(src, "cyc", &[fx(4), fx(1), fx(2), fx(3)]);
    // The first argument may make a call: nothing waits across it.
    let src = "(defun id (x) x)
               (defun fa (n acc) (if (zerop n) acc (fa (id (- n 1)) (+ acc n))))";
    let m = agree(src, "fa", &[fx(6), fx(0)]);
    assert_eq!(m.stats.tail_calls, 6);
}

/// A pdl number passed into a self-tail loop escapes only as a heap
/// copy, and the loop copies it once per call, not once per iteration:
/// `collect` conses it (the loop certifies it on entry, before the loop
/// label) and `keep` returns it (certified on the way out).  In `swap`
/// it reaches the consed parameter through the other one, which is not
/// certified on entry, so the `cons` certifies it.  Each is called from
/// a non-tail position with an argument a `+$f` makes on the caller's
/// stack (E7's shape).
#[test]
fn a_pdl_number_entering_a_self_tail_loop_is_copied_once_per_call() {
    let src = "(defun collect (n p acc) (if (zerop n) acc (collect (- n 1) p (cons p acc))))
               (defun keep (n p) (if (zerop n) p (keep (- n 1) p)))
               (defun swap (n x y) (if (zerop n) (cons x '()) (swap (- n 1) y x)))
               (defun run-collect (n z) (cons (collect n (+$f z 1.0) '()) '()))
               (defun run-keep (n z) (cons (keep n (+$f z 1.0)) '()))
               (defun run-swap (n z) (cons (swap n '() (+$f z 1.0)) '()))";
    for entry in ["run-collect", "run-keep", "run-swap"] {
        let mut copies = Vec::new();
        for n in [1, 3, 11] {
            let m = agree(src, entry, &[fx(n), fl(0.5)]);
            assert_eq!(m.stats.pdl_numbers, 1, "{entry} {n}: one pdl number made");
            assert_eq!(m.stats.tail_calls, n as u64, "{entry} {n}");
            copies.push(m.stats.certify_copies);
        }
        assert_eq!(copies, [1, 1, 1], "{entry}: copies per call");
    }
}

/// The loop computes its arguments in dependency order, but not past
/// what the source order makes observable: a mutation stays before the
/// read it feeds, and of two arguments that can trap the first traps
/// first.
#[test]
fn reordered_arguments_keep_what_source_order_shows() {
    // `(cons n x)` reads `n`, so dependency order would compute it
    // before `n`'s argument; the `setq` there must still run first.
    let src = "(defun g (n x) (if (zerop n) x (g (progn (setq x 'a) (- n 1)) (cons n x))))";
    let m = agree(src, "g", &[fx(3), Value::Nil]);
    assert_eq!(m.stats.tail_calls, 3);
    // `(* a b)` reads `a`, so it would go first; `(+ a 1)` traps first.
    let src = "(defun h (n a b) (if (zerop n) (list a b) (h (- n 1) (+ a 1) (* a b))))";
    let foo = Value::Sym(s1lisp_reader::Interner::new().intern("foo"));
    let mut c = Compiler::new();
    c.compile_str(src).unwrap();
    let args = [fx(2), foo.clone(), foo];
    let want = c.interpreter().call("h", &args).expect_err("signals");
    let got = c.machine().run("h", &args).expect_err("traps");
    assert_eq!(
        got.cause(),
        &s1lisp::Trap::WrongType(want.message.clone()),
        "{}",
        c.disassemble("h").unwrap()
    );
}

/// `build-list`'s loop (gc-stress's inner loop) retires 4 instructions an
/// iteration: `JMPZ`, `%CONS`, `GENERIC -` and the `%TAILJMP`, with
/// `(cons n acc)` computed before `(- n 1)` overwrites `n`, and neither
/// parameter certified inside the loop.
#[test]
fn build_list_loops_in_four_instructions() {
    let mut c = Compiler::new();
    c.compile_str(s1lisp_bench::corpus::GC_STRESS).unwrap();
    let mut m = c.machine();
    let mut retired = |n: i64| {
        m.run("build-list", &[fx(n), Value::Nil]).unwrap();
        m.last_run_insns
    };
    let (short, long) = (retired(100), retired(300));
    assert_eq!((long - short) / 200, 4, "{short} then {long}");
    assert_eq!((long - short) % 200, 0, "{short} then {long}");
}

/// One seeded self-tail loop over a fixnum counter, two fixnum
/// parameters (one sometimes declared), a declared flonum and an
/// undeclared one, a loop-invariant flonum `p` and a list `acc` that
/// accumulates with `cons`, in a random parameter order.  Every argument
/// but the counter's and `p`'s is drawn from expressions over the old
/// parameter values.  `run` calls the loop from a non-tail position
/// with `p` made by a `+$f` on its own stack (E7's shape), so the loop
/// receives a pdl number: its uses of `p` (in `cons` and the result)
/// need the certify that entry to the loop makes.
fn random_loop(rng: &mut SplitMix64) -> String {
    const FIX: [&str; 7] = ["a", "b", "n", "(+ a b)", "(- b a)", "(+ a 1)", "(- b 2)"];
    const X: [&str; 6] = [
        "x",
        "y",
        "(+$f x 1.5)",
        "(*$f x 0.5)",
        "(+$f x y)",
        "(-$f y x)",
    ];
    const Y: [&str; 5] = ["y", "x", "(+$f y 0.25)", "(*$f y 0.5)", "(-$f x y)"];
    const ACC: [&str; 5] = [
        "acc",
        "(cons n acc)",
        "(cons p acc)",
        "(cons a acc)",
        "(cons y acc)",
    ];
    let mut params = ["n", "a", "b", "x", "y", "p", "acc"];
    for i in (1..params.len()).rev() {
        params.swap(i, rng.range_usize(0, i + 1));
    }
    let args: Vec<&str> = params
        .iter()
        .map(|&p| match p {
            "n" => "(- n 1)",
            "x" => *rng.pick(&X),
            "y" => *rng.pick(&Y),
            "p" => "p",
            "acc" => *rng.pick(&ACC),
            _ => *rng.pick(&FIX),
        })
        .collect();
    let entry: Vec<&str> = params
        .iter()
        .map(|&p| match p {
            "p" => "(+$f z 0.5)",
            "acc" => "'()",
            other => other,
        })
        .collect();
    let decl = if rng.below(2) == 0 {
        "(declare (flonum x) (fixnum a))"
    } else {
        "(declare (flonum x))"
    };
    format!(
        "(defun lp ({}) {decl} (if (zerop n) (list a b x y p acc) (lp {})))
         (defun run (n a b x y z) (cons (lp {}) '()))",
        params.join(" "),
        args.join(" "),
        entry.join(" ")
    )
}

#[test]
fn seeded_self_tail_loops_agree_on_both_backends() {
    let mut seeder = SplitMix64::new(0x5115_00a1);
    for _case in 0..48 {
        let seed = seeder.next_u64();
        let mut rng = SplitMix64::new(seed);
        let src = random_loop(&mut rng);
        let n = rng.range_i64(0, 8);
        let mut value = |p: &str| match p {
            "n" => fx(n),
            "x" | "y" | "z" => fl(rng.range_i64(-8, 8) as f64 / 4.0),
            _ => fx(rng.range_i64(-5, 5)),
        };
        let args: Vec<Value> = ["n", "a", "b", "x", "y", "z"]
            .into_iter()
            .map(&mut value)
            .collect();
        let m = agree(&src, "run", &args);
        assert_eq!(m.stats.tail_calls, n as u64, "seed {seed:#x}: {src}");
        assert_eq!(m.stats.max_call_depth, 1, "seed {seed:#x}: {src}");
        assert!(
            m.stats.certify_copies >= 1,
            "seed {seed:#x}: the pdl number was never certified: {src}"
        );
    }
}
