//! Every row of the primitive table, called from a compiled `defun` with
//! one argument too few and one too many, traps on the S-1 simulator
//! (optimized and not), on the bytecode evaluator and in the reference
//! interpreter — and panics on none of them.
//!
//! The exhaustive `match` on `Prim` in each engine guarantees that every
//! row is dispatched; this test checks that the one arity check in front
//! of it holds for every row.

use std::panic::{catch_unwind, AssertUnwindSafe};

use s1lisp::{BackendKind, Compiler};
use s1lisp_ast::Prim;
use s1lisp_suite::fx;

/// Argument counts outside the row's arity: `min - 1` and `max + 1`.
fn bad_counts(p: Prim) -> Vec<usize> {
    let info = p.info();
    let mut counts = Vec::new();
    if info.min_args > 0 {
        counts.push(info.min_args - 1);
    }
    if let Some(max) = info.max_args {
        counts.push(max + 1);
    }
    counts
}

/// `(defun f (x) (NAME x … x))` with `n` arguments.
fn caller(p: Prim, n: usize) -> String {
    format!("(defun f (x) ({}{}))", p.name(), " x".repeat(n))
}

/// Runs `f` on each engine and describes every outcome that is not a
/// trap (a value, a panic, or a compile failure).
fn misbehaviours(src: &str) -> Vec<String> {
    let args = [fx(1)];
    let mut out = Vec::new();
    let mut check = |engine: &str, run: &mut dyn FnMut() -> Result<bool, String>| match catch_unwind(
        AssertUnwindSafe(run),
    ) {
        Ok(Ok(true)) => {}
        Ok(Ok(false)) => out.push(format!("{engine}: returned a value")),
        Ok(Err(e)) => out.push(format!("{engine}: {e}")),
        Err(_) => out.push(format!("{engine}: panicked")),
    };
    for (engine, mut c) in [
        ("s1 optimized", Compiler::new()),
        ("s1 unoptimized", Compiler::unoptimized()),
    ] {
        check(engine, &mut || {
            c.compile_str(src).map_err(|e| format!("compile: {e}"))?;
            Ok(c.machine().run("f", &args).is_err())
        });
        if engine == "s1 optimized" {
            check("interpreter", &mut || {
                Ok(c.interpreter().call("f", &args).is_err())
            });
        }
    }
    let mut c = Compiler::new();
    c.backend = BackendKind::Bytecode;
    check("bytecode", &mut || {
        c.compile_str(src).map_err(|e| format!("compile: {e}"))?;
        Ok(c.evaluator().run("f", &args).is_err())
    });
    out
}

#[test]
fn wrong_arity_primitive_calls_trap_on_every_engine() {
    let mut failures = Vec::new();
    let mut checked = 0;
    for &p in Prim::ALL {
        for n in bad_counts(p) {
            let src = caller(p, n);
            checked += 1;
            for m in misbehaviours(&src) {
                failures.push(format!("{src}: {m}"));
            }
        }
    }
    assert!(checked > 80, "only {checked} calls checked");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A `defun` of a primitive's name is refused at conversion, on both
/// backends: every layer (the optimizer's constant folds included) takes
/// the name to mean the primitive, so a redefinition could only be
/// honoured by some engines.
#[test]
fn primitives_cannot_be_redefined() {
    for backend in [BackendKind::S1, BackendKind::Bytecode] {
        for name in ["length", "last"] {
            let mut c = Compiler::new();
            c.backend = backend;
            let src = format!("(defun {name} (y) 42) (defun g (x) ({name} x))");
            let err = c.compile_str(&src).expect_err("redefinition refused");
            let want = format!("cannot redefine primitive {name}");
            assert!(err.to_string().contains(&want), "{backend:?}: {err}");
        }
    }
}

/// A run's printed value, or its trap.
fn shown<V: std::fmt::Display, E: std::fmt::Display>(r: Result<V, E>) -> String {
    match r {
        Ok(v) => v.to_string(),
        Err(e) => format!("trap: {e}"),
    }
}

/// Two fixnums compare as integers everywhere: on the S-1 (optimized and
/// not), on the bytecode, in the interpreter, and in the optimizer's
/// constant folds.  2^53 + 1 and 2^53 round to the same float, so a
/// comparison through `f64` would call them equal.
#[test]
fn big_fixnums_compare_exactly_on_every_engine() {
    const BIG: i64 = 1 << 53;
    let cases = [
        ("=", "x y", "()"),
        ("/=", "x y", "t"),
        ("<", "y x", "t"),
        (">", "x y", "t"),
        ("<=", "x y", "()"),
        (">=", "y x", "()"),
    ];
    let args = [fx(BIG + 1), fx(BIG)];
    let mut failures = Vec::new();
    for (op, operands, want) in cases {
        let literal = operands.replace('x', &(BIG + 1).to_string());
        let literal = literal.replace('y', &BIG.to_string());
        let src = format!("(defun f (x y) ({op} {operands})) (defun folded () ({op} {literal}))");
        let mut got = Vec::new();
        for (engine, mut c) in [
            ("s1 optimized", Compiler::new()),
            ("s1 unoptimized", Compiler::unoptimized()),
        ] {
            c.compile_str(&src).expect("compiles");
            let mut m = c.machine();
            got.push((engine, "f", shown(m.run("f", &args))));
            got.push((engine, "folded", shown(m.run("folded", &[]))));
        }
        let mut c = Compiler::new();
        c.compile_str(&src).expect("compiles");
        let i = c.interpreter();
        got.push(("interpreter", "f", shown(i.call("f", &args))));
        got.push(("interpreter", "folded", shown(i.call("folded", &[]))));
        let mut c = Compiler::new();
        c.backend = BackendKind::Bytecode;
        c.compile_str(&src).expect("compiles");
        let mut e = c.evaluator();
        got.push(("bytecode", "f", shown(e.run("f", &args))));
        got.push(("bytecode", "folded", shown(e.run("folded", &[]))));
        for (engine, entry, result) in got {
            if result != want {
                failures.push(format!("({op} {operands}) {entry} on {engine}: {result}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
