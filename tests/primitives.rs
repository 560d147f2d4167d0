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
