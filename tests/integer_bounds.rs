//! Integer arithmetic at the `i64` bounds.  A result that does not fit
//! is an error value, never a host panic, and every engine reports it
//! the same way: the reference interpreter, the bytecode evaluator, the
//! S-1 simulator (through its runtime routines and through the
//! declared-fixnum instructions) and the optimizer's constant folder.

use std::panic::{catch_unwind, AssertUnwindSafe};

use s1lisp::{BackendKind, Compiler, Trap, Value};
use s1lisp_reader::Interner;
use s1lisp_suite::fx;

const MIN: i64 = i64::MIN;
const MAX: i64 = i64::MAX;

/// What one engine made of one call.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    /// The printed value.
    Value(String),
    /// The error's message: a trap's own, or "division by zero" for a
    /// trap of that class.
    Error(String),
    /// The host panicked.
    Panic,
}

fn guarded(f: impl FnOnce() -> Outcome) -> Outcome {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or(Outcome::Panic)
}

fn compiled(src: &str, backend: BackendKind) -> Option<Compiler> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut c = Compiler::new();
        c.backend = backend;
        c.compile_str(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        c
    }))
    .ok()
}

/// The outcome of `entry` on `args` on each engine, labelled: the
/// interpreter, the bytecode evaluator and the S-1 simulator.
fn outcomes(src: &str, entry: &str, args: &[Value]) -> Vec<(&'static str, Outcome)> {
    let (Some(s1), Some(bc)) = (
        compiled(src, BackendKind::S1),
        compiled(src, BackendKind::Bytecode),
    ) else {
        return vec![("compile", Outcome::Panic)];
    };
    let interp = guarded(|| match s1.interpreter().call(entry, args) {
        Ok(v) => Outcome::Value(v.to_string()),
        Err(e) => Outcome::Error(e.message),
    });
    // The evaluator passes a builtin's error on as the error prints.
    let bytecode = guarded(|| match bc.evaluator().run(entry, args) {
        Ok(v) => Outcome::Value(v.to_string()),
        Err(t) => Outcome::Error(
            t.message
                .strip_prefix("lisp error: ")
                .unwrap_or(&t.message)
                .to_string(),
        ),
    });
    let machine = guarded(|| match s1.machine().run(entry, args) {
        Ok(v) => Outcome::Value(v.to_string()),
        Err(t) => Outcome::Error(match t.cause() {
            Trap::WrongType(m) => m.clone(),
            other => other.to_string(),
        }),
    });
    vec![
        ("interpreter", interp),
        ("bytecode", bytecode),
        ("S-1", machine),
    ]
}

/// The rows: an operator, its operands, and the overflow message it
/// must raise (`None` where the result fits).
fn rows() -> Vec<(&'static str, Vec<i64>, Option<&'static str>)> {
    let mut rows = Vec::new();
    for op in ["rem", "mod", "floor", "ceiling", "truncate", "round"] {
        rows.push((op, vec![MIN, -1], Some("fixnum overflow")));
        rows.push((op, vec![MIN, 1], None));
        rows.push((op, vec![MIN + 1, -1], None));
        rows.push((op, vec![7, -2], None));
        rows.push((op, vec![-7, 2], None));
    }
    rows.push(("/", vec![MIN, -1], Some("fixnum overflow")));
    rows.push(("abs", vec![MIN], Some("fixnum overflow")));
    rows.push(("abs", vec![MIN + 1], None));
    rows.push(("-", vec![MIN], Some("fixnum overflow")));
    rows.push(("1-", vec![MIN], Some("fixnum overflow")));
    rows.push(("1+", vec![MAX], Some("fixnum overflow")));
    rows.push(("expt", vec![MAX, 2], Some("fixnum overflow")));
    rows
}

/// Every row, compiled three ways — generic arithmetic on parameters,
/// declared-fixnum arithmetic on parameters, and arithmetic on
/// constants the folder sees — yields the same value, or the same
/// error with the same message, on every engine; an overflow reads
/// `<op>: fixnum overflow`.
#[test]
fn integer_bounds_agree_on_every_engine() {
    let mut failures = Vec::new();
    for (op, operands, overflow) in rows() {
        let params = ["x", "y"][..operands.len()].join(" ");
        let consts: Vec<String> = operands.iter().map(i64::to_string).collect();
        let args: Vec<Value> = operands.iter().map(|&n| fx(n)).collect();
        let programs = [
            (
                format!("(defun f ({params}) ({op} {params}))"),
                args.clone(),
            ),
            (
                format!("(defun f ({params}) (declare (fixnum {params})) ({op} {params}))"),
                args.clone(),
            ),
            (format!("(defun f () ({op} {}))", consts.join(" ")), vec![]),
        ];
        for (src, args) in programs {
            let seen = outcomes(&src, "f", &args);
            let first = seen[0].1.clone();
            if seen.iter().any(|(_, o)| *o != first) {
                failures.push(format!("{src} on {operands:?}: {seen:?}"));
                continue;
            }
            let want = overflow.map(|m| Outcome::Error(format!("{op}: {m}")));
            match (&want, &first) {
                (Some(w), got) if got != w => {
                    failures.push(format!("{src} on {operands:?}: {got:?}, wanted {w:?}"));
                }
                (None, Outcome::Error(_) | Outcome::Panic) => {
                    failures.push(format!("{src} on {operands:?}: {first:?}"));
                }
                _ => {}
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A non-number reaching a generic routine is named as the interpreter
/// names it, on every engine.
#[test]
fn a_non_number_is_reported_as_the_interpreter_reports_it() {
    let foo = Value::Sym(Interner::new().intern("foo"));
    for (src, args) in [
        ("(defun f (x y) (+ x y))", vec![fx(1), foo.clone()]),
        ("(defun f (x y) (* x y))", vec![foo.clone(), fx(2)]),
        ("(defun f (x) (1+ x))", vec![foo.clone()]),
        ("(defun f (x y) (max x y))", vec![fx(1), foo.clone()]),
    ] {
        let seen = outcomes(src, "f", &args);
        assert!(seen.iter().all(|(_, o)| *o == seen[0].1), "{src}: {seen:?}");
        assert!(
            matches!(&seen[0].1, Outcome::Error(m) if m.ends_with(": not a number: foo")),
            "{src}: {seen:?}"
        );
    }
}
