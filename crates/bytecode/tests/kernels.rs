//! The bytecode backend against the reference interpreter: the
//! Gabriel-style kernels, the binding disciplines, and the non-local
//! control forms must all agree with `s1lisp-interp` exactly.

use s1lisp_annotate::Annotations;
use s1lisp_bytecode::{emit_unit, Evaluator, Module};
use s1lisp_frontend::Frontend;
use s1lisp_interp::{Interp, Value};
use s1lisp_reader::{read_all_str, Interner};

/// Compiles `src` for the bytecode evaluator and loads it into the
/// interpreter, propagating `defvar` initial values to both.
fn build(src: &str) -> (Evaluator, Interp) {
    let mut interner = Interner::new();
    let forms = read_all_str(src, &mut interner).expect("read");
    let mut fe = Frontend::new(&mut interner);
    let funcs = fe.convert_toplevel(&forms).expect("convert");
    let inits = std::mem::take(&mut fe.defvar_inits);
    let mut module = Module::new();
    let mut interp = Interp::new();
    for f in funcs {
        let ann = Annotations::compute(&f.tree, f.name.as_str());
        let protos = emit_unit(f.name.as_str(), &f.tree, &ann).expect("emit");
        module.define_unit(protos);
        interp.define(f);
    }
    let mut eval = Evaluator::new(module);
    for (name, init) in inits {
        let v = Value::from_datum(&init);
        eval.set_global(name.as_str(), v.clone());
        interp.set_global(name.as_str(), v);
    }
    (eval, interp)
}

/// Runs `entry(args)` on both engines and insists they agree: equal
/// values, or errors on both sides.
fn agree(src: &str, entry: &str, args: &[Value]) -> String {
    let (mut eval, interp) = build(src);
    let bc = eval.run(entry, args);
    let reference = interp.call(entry, args);
    match (&bc, &reference) {
        (Ok(b), Ok(r)) => {
            assert_eq!(
                b.to_string(),
                r.to_string(),
                "{entry}: bytecode {b} != interpreter {r}"
            );
            b.to_string()
        }
        (Err(_), Err(_)) => "trap".to_string(),
        (b, r) => panic!("{entry}: bytecode {b:?} vs interpreter {r:?}"),
    }
}

fn fx(n: i64) -> Value {
    Value::Fixnum(n)
}

fn fl(x: f64) -> Value {
    Value::Flonum(x)
}

const EXPTL: &str = "(defun exptl (x n a)
  (cond ((zerop n) a)
        ((oddp n) (exptl (* x x) (floor (/ n 2)) (* a x)))
        (t (exptl (* x x) (floor (/ n 2)) a))))";

#[test]
fn exptl_squares() {
    assert_eq!(agree(EXPTL, "exptl", &[fx(2), fx(10), fx(1)]), "1024");
    agree(EXPTL, "exptl", &[fx(3), fx(7), fx(1)]);
}

#[test]
fn loopn_runs_in_constant_frames() {
    let src = "(defun loopn (n) (if (= n 0) 'done (loopn (- n 1))))";
    let (mut eval, _) = build(src);
    // Deep enough that a frame per iteration would be absurd; the tail
    // call must replace the frame, not stack one.
    let v = eval.run("loopn", &[fx(200_000)]).expect("loopn");
    assert_eq!(v.to_string(), "done");
}

#[test]
fn tak_agrees() {
    assert_eq!(agree(TAK, "tak", &[fx(10), fx(6), fx(3)]), "4");
}

#[test]
fn horner_loop_agrees() {
    let src = "(defun horner (x c3 c2 c1 c0)
      (declare (flonum x c3 c2 c1 c0))
      (+$f (*$f (+$f (*$f (+$f (*$f c3 x) c2) x) c1) x) c0))
    (defun sum-horner (n)
      (declare (fixnum n))
      (prog (acc x)
        (setq acc 0.0 x 0.0)
        top
        (if (zerop n) (return acc))
        (setq acc (+$f acc (horner x 1.0 -2.0 3.0 -4.0)))
        (setq x (+$f x 0.001))
        (setq n (- n 1))
        (go top)))";
    agree(src, "sum-horner", &[fx(200)]);
}

#[test]
fn optional_defaults_see_earlier_parameters() {
    // §7's testfn: `b` defaults to a constant, `c` defaults to `a`.
    let src = "(defun frotz (a b c) '())
    (defun testfn (a &optional (b 3.0) (c a))
      (let ((d (+$f a b c)) (e (*$f a b c)))
        (let ((q (sin$f e)))
          (frotz d e (max$f d e))
          q)))";
    agree(src, "testfn", &[fl(2.0)]);
    agree(src, "testfn", &[fl(2.0), fl(4.0)]);
    agree(src, "testfn", &[fl(2.0), fl(4.0), fl(8.0)]);
}

#[test]
fn quadratic_agrees() {
    let src = "(defun quadratic (a b c)
      (let ((d (- (* b b) (* 4.0 a c))))
        (cond ((< d 0) '())
              ((= d 0) (list (/ (- b) (* 2.0 a))))
              (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))
                   (list (/ (+ (- b) sd) two-a)
                         (/ (- (- b) sd) two-a)))))))";
    assert_eq!(
        agree(src, "quadratic", &[fl(1.0), fl(-3.0), fl(2.0)]),
        "(2.0 1.0)"
    );
    agree(src, "quadratic", &[fl(1.0), fl(2.0), fl(3.0)]);
}

#[test]
fn catch_throw_across_frames() {
    let src = "(defun thrower (x) (throw 'esc (* x 10)))
    (defun catcher (x) (catch 'esc (+ 1 (thrower x))))
    (defun no-throw (x) (catch 'esc (+ 1 x)))
    (defun uncaught (x) (thrower x))";
    assert_eq!(agree(src, "catcher", &[fx(4)]), "40");
    assert_eq!(agree(src, "no-throw", &[fx(4)]), "5");
    // No catcher armed: both engines must reject.
    assert_eq!(agree(src, "uncaught", &[fx(4)]), "trap");
}

#[test]
fn prog_go_return_and_specials() {
    let src = "(proclaim '(special *step*))
    (defun accumulate (n)
      (prog (acc)
        (setq acc 0)
        top
        (if (zerop n) (return acc))
        (setq acc (+ acc *step*))
        (setq n (- n 1))
        (go top)))";
    let (mut eval, interp) = build(src);
    eval.set_global("*step*", fx(3));
    interp.set_global("*step*", fx(3));
    let b = eval.run("accumulate", &[fx(7)]).expect("bytecode");
    let r = interp.call("accumulate", &[fx(7)]).expect("interp");
    assert_eq!(b.to_string(), r.to_string());
    assert_eq!(b.to_string(), "21");
}

#[test]
fn special_rebinding_is_dynamic() {
    // A special parameter deep-binds around the callee and unwinds on
    // return — the callee reads the binding, not the global.
    let src = "(proclaim '(special *s*))
    (defun reader () *s*)
    (defun shadow (*s*) (reader))
    (defun both () (list (shadow 5) (reader)))";
    let (mut eval, interp) = build(src);
    eval.set_global("*s*", fx(1));
    interp.set_global("*s*", fx(1));
    let b = eval.run("both", &[]).expect("bytecode");
    let r = interp.call("both", &[]).expect("interp");
    assert_eq!(b.to_string(), r.to_string());
    assert_eq!(b.to_string(), "(5 1)");
}

#[test]
fn closures_capture_and_escape() {
    let src = "(defun make-adder (n) (lambda (x) (+ x n)))
    (defun escape-test (n) (let ((f (make-adder n))) (funcall f 10)))";
    assert_eq!(agree(src, "escape-test", &[fx(5)]), "15");
}

#[test]
fn closures_share_mutable_state() {
    let src = "(defun make-counter ()
      (let ((n 0))
        (lambda () (setq n (+ n 1)) n)))
    (defun count-three ()
      (let ((c (make-counter)))
        (funcall c)
        (funcall c)
        (funcall c)))";
    assert_eq!(agree(src, "count-three", &[]), "3");
}

#[test]
fn fib_iter_do_macro() {
    let src = "(defun fib-iter (n)
      (do ((a 0 b) (b 1 (+ a b)) (i 0 (+ i 1)))
          ((= i n) a)))";
    assert_eq!(agree(src, "fib-iter", &[fx(20)]), "6765");
}

#[test]
fn caseq_dispatches_on_eql() {
    let src = "(defun classify (x)
      (caseq x ((1 2) 'small) (3 'three) (t 'big)))";
    assert_eq!(agree(src, "classify", &[fx(1)]), "small");
    assert_eq!(agree(src, "classify", &[fx(3)]), "three");
    assert_eq!(agree(src, "classify", &[fx(9)]), "big");
}

#[test]
fn rest_parameters_collect() {
    let src = "(defun grab (a &rest r) (list a r))";
    assert_eq!(agree(src, "grab", &[fx(1), fx(2), fx(3)]), "(1 (2 3))");
    assert_eq!(agree(src, "grab", &[fx(1)]), "(1 ())");
}

#[test]
fn apply_spreads_its_last_argument() {
    let src = "(defun add3 (a b c) (+ a b c))
    (defun call-apply (x) (apply #'add3 x (list 2 3)))";
    assert_eq!(agree(src, "call-apply", &[fx(1)]), "6");
}

#[test]
fn deriv_symbolic_workload() {
    let src = "(defun deriv (e x)
      (cond ((numberp e) 0)
            ((symbolp e) (if (eq e x) 1 0))
            ((eq (car e) '+) (list '+ (deriv (cadr e) x) (deriv (caddr e) x)))
            ((eq (car e) '*)
             (list '+ (list '* (cadr e) (deriv (caddr e) x))
                      (list '* (caddr e) (deriv (cadr e) x))))
            (t (error 'unknown))))
    (defun build-expr (n x)
      (if (zerop n) x (list '* x (list '+ (build-expr (- n 1) x) 1))))
    (defun deriv-bench (n x) (deriv (build-expr n x) x))";
    agree(src, "deriv-bench", &[fx(4), Value::from_datum(&sym("v"))]);
}

fn sym(name: &str) -> s1lisp_reader::Datum {
    let mut i = Interner::new();
    s1lisp_reader::Datum::Sym(i.intern(name))
}

#[test]
fn fuel_exhaustion_traps() {
    let src = "(defun spin (n) (spin (+ n 1)))";
    let (mut eval, _) = build(src);
    eval.fuel_per_run = 10_000;
    let err = eval.run("spin", &[fx(0)]).unwrap_err();
    assert!(err.message.contains("fuel"), "{err}");
    assert!(eval.last_run_insns <= 10_000);
}

#[test]
fn arity_errors_trap_on_both_engines() {
    let src = "(defun two (a b) (+ a b))";
    assert_eq!(agree(src, "two", &[fx(1)]), "trap");
    assert_eq!(agree(src, "two", &[fx(1), fx(2), fx(3)]), "trap");
}

const TAK: &str = "(defun tak (x y z)
  (if (not (< y x))
      z
      (tak (tak (- x 1) y z)
           (tak (- y 1) z x)
           (tak (- z 1) x y))))";

#[test]
fn listing_compiles_tests_as_jumps() {
    // E3 on the bytecode: undeclared tak calls none of `<`, `not` or
    // `-`, and `(if (not (< y x)) …)` is one compare-and-branch op.  Its
    // operands need no code, so the op reads them in place, as the S-1
    // reads `(FP i)` and `(QUOTE 1)`: each `(- v 1)` is one `-` op.
    let (eval, _) = build(TAK);
    let listing = eval.module().listing("tak").expect("listing");
    let consts = listing.lines().nth(1).expect("consts line");
    for op in ["<", "not", "-"] {
        assert!(
            !consts
                .split_whitespace()
                .any(|c| c.trim_end_matches(')') == op),
            "tak still calls {op}:\n{listing}"
        );
    }
    let code: Vec<&str> = listing.lines().skip(2).collect();
    assert!(
        code[0].ends_with("(test.t < (slot 1) (slot 0) 3))"),
        "{listing}"
    );
    for slot in 0..3 {
        let sub = format!("(- (slot {slot}) (quote 1))");
        assert_eq!(
            code.iter().filter(|l| l.contains(&sub)).count(),
            1,
            "{listing}"
        );
    }
    assert_eq!(code.iter().filter(|l| l.contains("(- ")).count(), 3);
    assert!(!listing.contains("(const "), "{listing}");
}

#[test]
fn only_plain_slots_and_constants_are_addressed() {
    // A special, a variable an escaping closure writes (heap-allocated
    // in its frame, a capture in the closure) and the trailing operand after
    // one that needs code are pushed; the values agree either way.  (A
    // generic op in tail position is a `tcall`, hence the `list`s.)
    let src = "(defvar *k* 3)
    (defun spec (n) (list (- n *k*)))
    (defun heap (n)
      (let ((f (lambda () (setq n (- n 1)))))
        (apply f '())
        (list (cons 10 n))))
    (defun lead (n) (list (* (car (spec n)) 2)))
    (defun trail (n) (list (+ 2 (car (spec n)))))";
    let (eval, _) = build(src);
    let m = eval.module();
    let listing = |name: &str| m.listing(name).expect(name);
    let spec = listing("spec");
    assert!(spec.contains("(load.spec "), "{spec}");
    assert!(spec.contains("(- stack stack)"), "{spec}");
    let heap = listing("heap");
    assert!(heap.contains("(load.cell "), "{heap}");
    assert!(heap.contains("(cons stack stack)"), "{heap}");
    let closure = listing("heap::λ0");
    assert!(closure.contains("(load.cap 0 0)"), "{closure}");
    assert!(closure.contains("(- stack (quote 1))"), "{closure}");
    assert!(listing("lead").contains("(* stack (quote 2))"));
    assert!(listing("trail").contains("(+ stack stack)"));
    assert_eq!(agree(src, "spec", &[fx(5)]), "(2)");
    assert_eq!(agree(src, "heap", &[fx(5)]), "((10 . 4))");
    assert_eq!(agree(src, "lead", &[fx(5)]), "(4)");
    assert_eq!(agree(src, "trail", &[fx(5)]), "(4)");
}

/// `(defun NAME (x) (progn (f 0) (f 1) … (f N-1)) TAIL)`: each call
/// interns one more pool constant and emits three instructions.
fn wide(name: &str, n: usize, tail: &str) -> String {
    let calls: String = (0..n).map(|k| format!(" (f {k})")).collect();
    format!("(defun f (k) k) (defun {name} (x) (progn{calls}) {tail})")
}

#[test]
fn oversized_fields_take_the_stack_form_or_fail_to_emit() {
    // A constant whose pool index is past an address's field is pushed.
    let n = s1lisp_bytecode::Addr::MAX_INDEX as usize + 10;
    let src = wide("far", n, &format!("(list (- x 0) (- x {}))", n - 1));
    let (mut eval, _) = build(&src);
    let listing = eval.module().listing("far").expect("listing");
    assert!(
        listing.contains("(- (slot 0) (quote 0))"),
        "near constants stay addressed"
    );
    assert!(
        listing.contains("(- stack stack)"),
        "the far constant is pushed"
    );
    let got = eval.run("far", &[fx(n as i64)]).unwrap();
    assert_eq!(got, Value::list([fx(n as i64), fx(1)]));
    // A compare-and-branch whose target is past its 16-bit field does
    // not emit at all.
    let src = wide("long", 22_000, "");
    let src = src
        .replacen("(progn", "(if (< x 0) (progn", 1)
        .replacen(") )", ") x))", 1);
    let mut interner = Interner::new();
    let forms = read_all_str(&src, &mut interner).expect("read");
    let funcs = Frontend::new(&mut interner)
        .convert_toplevel(&forms)
        .expect("convert");
    let f = funcs
        .iter()
        .find(|f| f.name.as_str() == "long")
        .expect("long");
    let err = emit_unit("long", &f.tree, &Annotations::compute(&f.tree, "long")).unwrap_err();
    assert!(err.message.contains("16-bit jump target"), "{err}");
}

#[test]
fn gc_stress_allocation_churn() {
    // `build-list` is tail recursive, and its self tail call reuses its
    // frame.  The interpreter caps call depth at 150, so the shared run
    // stays under it; the bytecode alone then builds a longer list.
    let src = "(defun build-list (n acc)
      (if (zerop n) acc (build-list (- n 1) (cons n acc))))
    (defun gc-stress (m)
      (prog ()
        top
        (if (zerop m) (return 'done))
        (build-list 100 '())
        (setq m (- m 1))
        (go top)))";
    assert_eq!(agree(src, "gc-stress", &[fx(20)]), "done");
    let (mut eval, _) = build(src);
    let v = eval
        .run("build-list", &[fx(100_000), Value::Nil])
        .expect("build-list");
    assert!(v.to_string().starts_with("(1 2 3 "));
}

#[test]
fn self_tail_calls_off_the_fast_path_bind_as_before() {
    // The wrong argument count still traps, on both engines.
    let src = "(defun short (n) (if (zerop n) 'done (short)))
    (defun long (n) (if (zerop n) 'done (long (- n 1) n)))";
    assert_eq!(agree(src, "short", &[fx(1)]), "trap");
    assert_eq!(agree(src, "long", &[fx(1)]), "trap");
    assert_eq!(agree(src, "short", &[fx(0)]), "done");
    // Optional parameters default afresh on each self call, and a rest
    // parameter collects afresh.
    let src = "(defun opt (n &optional (acc n) (k 'unset))
      (if (zerop n) (list acc k) (opt (- n 1) (+ acc n))))
    (defun opt-all (n &optional (acc 0))
      (if (zerop n) acc (opt-all (- n 1) (+ acc n))))
    (defun opt-one (n &optional (acc 100))
      (if (zerop n) acc (opt-one (- n 1))))
    (defun rst (n &rest r)
      (if (zerop n) r (rst (- n 1) n r)))";
    assert_eq!(agree(src, "opt", &[fx(3)]), "(9 unset)");
    assert_eq!(agree(src, "opt-all", &[fx(4)]), "10");
    assert_eq!(agree(src, "opt-one", &[fx(3), fx(7)]), "100");
    assert_eq!(agree(src, "rst", &[fx(2)]), "(1 (2 ()))");
    // A closure's self call by name reaches the global, not the closure.
    let src =
        "(defun outer (n) (let ((f (lambda (k) (if (zerop k) n (outer (- k 1)))))) (funcall f n)))";
    assert_eq!(agree(src, "outer", &[fx(3)]), "0");
}

#[test]
fn linking_keeps_late_binding() {
    // A function naming a global nobody defines links without complaint
    // and traps only when the call is made.
    let (mut eval, _) = build("(defun f (x) (g x)) (defun h () 7)");
    assert_eq!(eval.run("h", &[]).unwrap(), fx(7));
    let err = eval.run("f", &[fx(1)]).unwrap_err();
    assert_eq!(err.message, "undefined function g");

    // Defined twice across units: calls go to the latest definition,
    // including calls linked from a unit between the two.
    let (mut eval, _) = build("(defun g () 1) (defun f () (g)) (defun g () 2)");
    assert_eq!(eval.run("f", &[]).unwrap(), fx(2));
    assert_eq!(eval.run("g", &[]).unwrap(), fx(2));

    // A special set before (and between) runs is what `LoadSpecial`
    // reads.
    let (mut eval, _) = build("(proclaim '(special *k*)) (defun rd () *k*)");
    eval.set_global("*k*", fx(5));
    assert_eq!(eval.run("rd", &[]).unwrap(), fx(5));
    eval.set_global("*k*", fx(6));
    assert_eq!(eval.run("rd", &[]).unwrap(), fx(6));

    // A store to a special with no binding creates its global.
    let (mut eval, _) = build(
        "(proclaim '(special *n*))
         (defun wr (v) (setq *n* v))
         (defun rd () *n*)",
    );
    let err = eval.run("rd", &[]).unwrap_err();
    assert_eq!(err.message, "unbound variable *n*");
    eval.run("wr", &[fx(3)]).unwrap();
    assert_eq!(eval.run("rd", &[]).unwrap(), fx(3));

    // `funcall`/`apply` on a global function value still resolve the
    // name when called: a proto, a builtin, or a trap.
    let (mut eval, _) = build(
        "(defun sq (x) (* x x))
         (defun call-it (f x) (funcall f x))
         (defun app (f x) (apply f (list x)))",
    );
    for entry in ["call-it", "app"] {
        let sq = Value::global_function("sq");
        assert_eq!(eval.run(entry, &[sq, fx(3)]).unwrap(), fx(9), "{entry}");
        let inc = Value::global_function("1+");
        assert_eq!(eval.run(entry, &[inc, fx(3)]).unwrap(), fx(4), "{entry}");
        let missing = Value::global_function("nonesuch");
        let err = eval.run(entry, &[missing, fx(3)]).unwrap_err();
        assert_eq!(err.message, "undefined function nonesuch", "{entry}");
    }
}
