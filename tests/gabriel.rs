//! Gabriel-flavored kernels (Richard Gabriel, a co-author, later
//! assembled the standard Lisp benchmark suite) run differentially:
//! compiled-on-simulator vs the reference interpreter.

use s1lisp::{BackendKind, Compiler, Value};
use s1lisp_suite::{
    build, check_agree, fx, COLLATZ, CTAK, DESTRUCTIVE, DIV2, FLATTEN, STAK, TRIANGLE,
};

/// Runs `name` on `args` on the S-1 simulator (fully optimized and
/// naive), on the bytecode evaluator and on the interpreter: each must
/// return `want`.
fn returns_on_every_engine(src: &str, name: &str, args: &[Value], want: &Value) {
    const FUEL: u64 = 50_000_000;
    for (config, mut c) in [
        ("full", Compiler::new()),
        ("naive", Compiler::unoptimized()),
    ] {
        c.compile_str(src).unwrap();
        let interp = c.interpreter().call(name, args);
        assert_eq!(interp.as_ref().ok(), Some(want), "interpreter: {interp:?}");
        let mut m = c.machine();
        m.fuel_per_run = FUEL;
        let got = m.run(name, args);
        assert_eq!(got.as_ref().ok(), Some(want), "S-1 {config}: {got:?}");
    }
    let mut bc = Compiler::new();
    bc.backend = BackendKind::Bytecode;
    bc.compile_str(src).unwrap();
    let mut e = bc.evaluator();
    e.fuel_per_run = FUEL;
    let got = e.run(name, args);
    assert_eq!(got.as_ref().ok(), Some(want), "bytecode: {got:?}");
}

/// A `let` binds its specials in parallel: the inner `let` swaps `x`
/// and `y`, each initial value read from the outer bindings.
#[test]
fn parallel_let_binds_specials_after_every_argument() {
    returns_on_every_engine(
        "(defvar x 0) (defvar y 0)
         (defun f (a b) (let ((x a) (y b)) (let ((x y) (y x)) (list x y))))",
        "f",
        &[fx(1), fx(2)],
        &Value::list([fx(2), fx(1)]),
    );
}

/// A self call inside a special binding's extent is not a tail call:
/// each level's binding of `x` must be in force until the call returns.
#[test]
fn self_call_under_a_special_binding_keeps_the_binding() {
    returns_on_every_engine(
        "(defvar x 0)
         (defun h (n) (if (= n 0) x (let ((x n)) (h (- n 1)))))",
        "h",
        &[fx(3)],
        &fx(1),
    );
}

/// Gabriel's STAK: TAK with its arguments passed in deep-bound special
/// variables, rebound by parallel `let`s around self calls.
#[test]
fn stak_passes_arguments_in_specials() {
    returns_on_every_engine(STAK, "stak", &[fx(18), fx(12), fx(6)], &fx(7));
}

/// Gabriel's CTAK: TAK returning through `catch`/`throw`.
#[test]
fn ctak_returns_through_catch_and_throw() {
    returns_on_every_engine(CTAK, "ctak", &[fx(18), fx(12), fx(6)], &fx(7));
}

#[test]
fn div2_iterative_and_recursive() {
    let (mut m, i) = build(DIV2);
    for n in [0i64, 2, 10, 60] {
        check_agree(&mut m, &i, "test-div2", &[fx(n)]);
    }
}

#[test]
fn destructive_list_surgery() {
    let (mut m, i) = build(DESTRUCTIVE);
    for n in [0i64, 1, 5, 12] {
        check_agree(&mut m, &i, "run", &[fx(n)]);
    }
}

#[test]
fn triangle_style_counting() {
    let (mut m, i) = build(TRIANGLE);
    check_agree(&mut m, &i, "run", &[fx(7), fx(5), fx(3)]);
}

#[test]
fn flatten_with_accumulator() {
    let (mut m, i) = build(FLATTEN);
    let nested = Value::list([
        fx(1),
        Value::list([fx(2), Value::list([fx(3), fx(4)]), fx(5)]),
        Value::list([]),
        fx(6),
    ]);
    check_agree(&mut m, &i, "run", &[nested]);
    check_agree(&mut m, &i, "run", &[fx(9)]);
}

#[test]
fn fixnum_heavy_puzzle_kernel() {
    // A small constraint loop with declared fixnums: inference keeps the
    // arithmetic inline.
    let (mut m, i) = build(COLLATZ);
    for n in [1i64, 6, 27, 97] {
        check_agree(&mut m, &i, "collatz-steps", &[fx(n)]);
    }
}

#[test]
fn string_symbol_tables() {
    let (mut m, i) = build(
        "(defun count-matches (key l)
           (cond ((null l) 0)
                 ((equal (car l) key) (+ 1 (count-matches key (cdr l))))
                 (t (count-matches key (cdr l)))))",
    );
    let mut si = s1lisp_reader::Interner::new();
    let l = Value::list([
        Value::Sym(si.intern("a")),
        Value::Str("x".into()),
        Value::Sym(si.intern("a")),
        Value::Str("y".into()),
        Value::Str("x".into()),
    ]);
    check_agree(
        &mut m,
        &i,
        "count-matches",
        &[Value::Sym(si.intern("a")), l.clone()],
    );
    check_agree(&mut m, &i, "count-matches", &[Value::Str("x".into()), l]);
}
