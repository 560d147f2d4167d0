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

/// One seeded self-tail loop over a fixnum counter, two fixnum
/// parameters (one sometimes declared), a declared flonum and an
/// undeclared one, in a random parameter order.  Every argument but
/// the counter's is drawn from expressions over the old parameter
/// values.
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
    let mut params = ["n", "a", "b", "x", "y"];
    for i in (1..params.len()).rev() {
        params.swap(i, rng.range_usize(0, i + 1));
    }
    let args: Vec<&str> = params
        .iter()
        .map(|&p| match p {
            "n" => "(- n 1)",
            "x" => *rng.pick(&X),
            "y" => *rng.pick(&Y),
            _ => *rng.pick(&FIX),
        })
        .collect();
    let decl = if rng.below(2) == 0 {
        "(declare (flonum x) (fixnum a))"
    } else {
        "(declare (flonum x))"
    };
    format!(
        "(defun lp ({}) {decl} (if (zerop n) (list a b x y) (lp {})))",
        params.join(" "),
        args.join(" ")
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
        let value = |p: &str, rng: &mut SplitMix64| match p {
            "n" => fx(n),
            "x" | "y" => fl(rng.range_i64(-8, 8) as f64 / 4.0),
            _ => fx(rng.range_i64(-5, 5)),
        };
        let params = src["(defun lp (".len()..]
            .split(')')
            .next()
            .expect("a parameter list");
        let args: Vec<Value> = params.split(' ').map(|p| value(p, &mut rng)).collect();
        let m = agree(&src, "lp", &args);
        assert_eq!(m.stats.tail_calls, n as u64, "seed {seed:#x}: {src}");
        assert_eq!(m.stats.max_call_depth, 0, "seed {seed:#x}: {src}");
    }
}
