//! Shared corpus and helpers for the `s1lisp` workspace's integration
//! tests, examples, and benchmarks.
//!
//! The corpus leans on the programs the paper itself uses (`exptl`,
//! `quadratic`, `testfn`) plus small Gabriel-benchmark-flavored kernels
//! (`tak`, iterative `fib`) from the same lineage — Richard Gabriel, a
//! co-author, later assembled the standard Lisp benchmark suite.

use s1lisp::{Compiler, Interp, Machine, Value};

/// §2's worked example: exponentiation by repeated squaring, fully
/// tail-recursive.
pub const EXPTL: &str = "(defun exptl (x n a)
  (cond ((zerop n) a)
        ((oddp n) (exptl (* x x) (floor (/ n 2)) (* a x)))
        (t (exptl (* x x) (floor (/ n 2)) a))))";

/// §4.1's worked example: real roots of a quadratic.
pub const QUADRATIC: &str = "(defun quadratic (a b c)
  (let ((d (- (* b b) (* 4.0 a c))))
    (cond ((< d 0) '())
          ((= d 0) (list (/ (- b) (* 2.0 a))))
          (t (let ((two-a (* 2.0 a)) (sd (sqrt d)))
               (list (/ (+ (- b) sd) two-a)
                     (/ (- (- b) sd) two-a)))))))";

/// §7's worked example, verbatim up to the undefined `frotz`.
pub const TESTFN: &str = "(defun frotz (a b c) '())
(defun testfn (a &optional (b 3.0) (c a))
  (let ((d (+$f a b c)) (e (*$f a b c)))
    (let ((q (sin$f e)))
      (frotz d e (max$f d e))
      q)))";

/// Takeuchi's function — the classic call-heavy kernel.
pub const TAK: &str = "(defun tak (x y z)
  (if (not (< y x))
      z
      (tak (tak (- x 1) y z)
           (tak (- y 1) z x)
           (tak (- z 1) x y))))";

/// Iterative Fibonacci via `do`.
pub const FIB_ITER: &str = "(defun fib-iter (n)
  (do ((a 0 b) (b 1 (+ a b)) (i 0 (+ i 1)))
      ((= i n) a)))";

/// Naive doubly recursive Fibonacci.
pub const FIB: &str = "(defun fib (n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))";

/// List reversal written with an accumulator (tail recursive).
pub const NREV: &str = "(defun revappend (l acc)
  (if (null l) acc (revappend (cdr l) (cons (car l) acc))))
(defun my-reverse (l) (revappend l '()))";

/// Polynomial evaluation by Horner's rule over typed floats.
pub const HORNER: &str = "(defun horner (x c3 c2 c1 c0)
  (declare (flonum x c3 c2 c1 c0))
  (+$f (*$f (+$f (*$f (+$f (*$f c3 x) c2) x) c1) x) c0))";

/// A counter factory: closures with shared mutable state.
pub const COUNTER: &str = "(defun make-counter ()
  (let ((n 0)) (lambda () (setq n (+ n 1)) n)))
(defun count-3 ()
  (let ((c (make-counter))) (c) (c) (c)))";

/// A special-variable-heavy loop for E10.
pub const SPECIALS_LOOP: &str = "(proclaim '(special *step*))
(defun accumulate (n)
  (prog (acc)
    (setq acc 0)
    top
    (if (zerop n) (return acc))
    (setq acc (+ acc *step*))
    (setq n (- n 1))
    (go top)))";

/// Gabriel's STAK: TAK with its arguments passed in deep-bound special
/// variables, rebound by parallel `let`s around self calls.
pub const STAK: &str = "(defvar x) (defvar y) (defvar z)
(defun stak (x y z) (stak-aux))
(defun stak-aux ()
  (if (not (< y x))
      z
      (let ((x (let ((x (- x 1)) (y y) (z z)) (stak-aux)))
            (y (let ((x (- y 1)) (y z) (z x)) (stak-aux)))
            (z (let ((x (- z 1)) (y x) (z y)) (stak-aux))))
        (stak-aux))))";

/// Gabriel's CTAK: TAK returning through `catch`/`throw`.
pub const CTAK: &str = "(defun ctak (x y z) (catch 'ctak (ctak-aux x y z)))
(defun ctak-aux (x y z)
  (cond ((not (< y x)) (throw 'ctak z))
        (t (ctak-aux (catch 'ctak (ctak-aux (- x 1) y z))
                     (catch 'ctak (ctak-aux (- y 1) z x))
                     (catch 'ctak (ctak-aux (- z 1) x y))))))";

/// Gabriel's DIV2: halving a list iteratively (`do`) and recursively.
pub const DIV2: &str = "(defun create-n (n)
  (do ((i n (- i 1)) (a '() (cons '() a)))
      ((= i 0) a)))
(defun iterative-div2 (l)
  (do ((l l (cddr l)) (a '() (cons (car l) a)))
      ((null l) a)))
(defun recursive-div2 (l)
  (cond ((null l) '())
        (t (cons (car l) (recursive-div2 (cddr l))))))
(defun test-div2 (n)
  (let ((l (create-n n)))
    (list (length (iterative-div2 l))
          (length (recursive-div2 l)))))";

/// DESTRUCTIVE-flavored list surgery: `rplacd` onto the last cons in a
/// `prog` loop.
pub const DESTRUCTIVE: &str = "(defun attach (x l) (rplacd (last l) (cons x '())) l)
(defun run (n)
  (let ((l (list 1)))
    (prog ()
      top
      (if (zerop n) (return l))
      (attach n l)
      (setq n (- n 1))
      (go top))))";

/// TAKL's `mas` over lists, with `shorterp` as the comparison.
pub const TRIANGLE: &str = "(defun listn (n) (if (zerop n) '() (cons n (listn (- n 1)))))
(defun mas (x y z)
  (if (not (shorterp y x))
      z
      (mas (mas (cdr x) y z)
           (mas (cdr y) z x)
           (mas (cdr z) x y))))
(defun shorterp (x y)
  (and y (or (null x) (shorterp (cdr x) (cdr y)))))
(defun run (a b c)
  (length (mas (listn a) (listn b) (listn c))))";

/// Tree flattening with an accumulator.
pub const FLATTEN: &str = "(defun flatten (x acc)
  (cond ((null x) acc)
        ((atom x) (cons x acc))
        (t (flatten (car x) (flatten (cdr x) acc)))))
(defun run (x) (flatten x '()))";

/// A fixnum puzzle loop: declared fixnums keep the arithmetic inline.
pub const COLLATZ: &str = "(defun collatz-steps (n)
  (declare (fixnum n))
  (prog (steps)
    (setq steps 0)
    top
    (if (= n 1) (return steps))
    (if (evenp n)
        (setq n (/ n 2))
        (setq n (+ (* 3 n) 1)))
    (setq steps (+ steps 1))
    (go top)))";

/// Every corpus entry, with a short id.
pub fn corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        ("exptl", EXPTL),
        ("quadratic", QUADRATIC),
        ("testfn", TESTFN),
        ("tak", TAK),
        ("fib-iter", FIB_ITER),
        ("fib", FIB),
        ("nrev", NREV),
        ("horner", HORNER),
        ("counter", COUNTER),
        ("specials", SPECIALS_LOOP),
    ]
}

/// Compiles `src` with default options and returns the machine plus the
/// reference interpreter.
///
/// # Panics
///
/// Panics on compile errors (tests feed known-good sources).
pub fn build(src: &str) -> (Machine, Interp) {
    let mut c = Compiler::new();
    c.compile_str(src)
        .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    (c.machine(), c.interpreter())
}

/// Compiles with a configured compiler.
///
/// # Panics
///
/// Panics on compile errors.
pub fn build_with(src: &str, mut c: Compiler) -> (Machine, Interp) {
    c.compile_str(src)
        .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    (c.machine(), c.interpreter())
}

/// Runs the same call on machine and interpreter and asserts agreement
/// (both values and error-ness).
///
/// # Panics
///
/// Panics on divergence.
pub fn check_agree(m: &mut Machine, i: &Interp, name: &str, args: &[Value]) {
    let got = m.run(name, args);
    let want = i.call(name, args);
    match (&want, &got) {
        (Ok(w), Ok(g)) => assert_eq!(g, w, "result mismatch for {name} {args:?}"),
        (Err(_), Err(_)) => {}
        _ => panic!("divergence for {name} {args:?}: interp={want:?} machine={got:?}"),
    }
}

/// Shorthand constructors.
pub fn fx(n: i64) -> Value {
    Value::Fixnum(n)
}

/// Shorthand flonum constructor.
pub fn fl(x: f64) -> Value {
    Value::Flonum(x)
}
