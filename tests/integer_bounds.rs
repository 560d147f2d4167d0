//! Numeric rows at the `i64` bounds and past them.  A result that does
//! not fit is an error value, never a host panic, and every engine
//! reports every numeric row the same way: the reference interpreter,
//! the bytecode evaluator, the S-1 simulator (at the call site the code
//! generator chooses, and through the runtime routine a `funcall`
//! reaches) and the optimizer's constant folder.

use std::panic::{catch_unwind, AssertUnwindSafe};

use s1lisp::{BackendKind, Compiler, Trap, Value};
use s1lisp_ast::num::{self, Num};
use s1lisp_ast::{Inline, NumKind, Prim};
use s1lisp_reader::Interner;
use s1lisp_suite::{fl, fx};

const MIN: i64 = i64::MIN;
const MAX: i64 = i64::MAX;

/// What one engine made of one call.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    /// The printed value.
    Value(String),
    /// The error's class and message.  The interpreter and the bytecode
    /// evaluator have one error class; their class is read from the
    /// message.  An S-1 trap's class is its kind, and a
    /// `DivisionByZero` trap, which carries no text, reads as the
    /// interpreter's message for the same operator.
    Error(&'static str, String),
    /// The host panicked.
    Panic,
}

const WRONG_TYPE: &str = "wrong type";
const DIVISION_BY_ZERO: &str = "division by zero";

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

/// An error message from an engine with one error class.
fn lisp_error(message: &str) -> Outcome {
    let class = if message.ends_with(": division by zero") {
        DIVISION_BY_ZERO
    } else {
        WRONG_TYPE
    };
    Outcome::Error(class, message.to_string())
}

fn interpreted(c: &Compiler, entry: &str, args: &[Value]) -> Outcome {
    guarded(|| match c.interpreter().call(entry, args) {
        Ok(v) => Outcome::Value(v.to_string()),
        Err(e) => lisp_error(&e.message),
    })
}

/// The evaluator passes a builtin's error on as the error prints.
fn evaluated(c: &Compiler, entry: &str, args: &[Value]) -> Outcome {
    guarded(|| match c.evaluator().run(entry, args) {
        Ok(v) => Outcome::Value(v.to_string()),
        Err(t) => lisp_error(t.message.strip_prefix("lisp error: ").unwrap_or(&t.message)),
    })
}

/// `op` names the operator a division by zero is reported against.
fn simulated(c: &Compiler, entry: &str, args: &[Value], op: &str) -> Outcome {
    guarded(|| match c.machine().run(entry, args) {
        Ok(v) => Outcome::Value(v.to_string()),
        Err(t) => match t.cause() {
            Trap::WrongType(m) => Outcome::Error(WRONG_TYPE, m.clone()),
            Trap::DivisionByZero => {
                Outcome::Error(DIVISION_BY_ZERO, format!("{op}: division by zero"))
            }
            other => Outcome::Error("other trap", other.to_string()),
        },
    })
}

/// The outcome of `entry` on `args` on each engine, labelled: the
/// interpreter, the bytecode evaluator and the S-1 simulator.
fn outcomes(src: &str, entry: &str, args: &[Value], op: &str) -> Vec<(&'static str, Outcome)> {
    let (Some(s1), Some(bc)) = (
        compiled(src, BackendKind::S1),
        compiled(src, BackendKind::Bytecode),
    ) else {
        return vec![("compile", Outcome::Panic)];
    };
    vec![
        ("interpreter", interpreted(&s1, entry, args)),
        ("bytecode", evaluated(&bc, entry, args)),
        ("S-1", simulated(&s1, entry, args, op)),
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
            let seen = outcomes(&src, "f", &args, op);
            let first = seen[0].1.clone();
            if seen.iter().any(|(_, o)| *o != first) {
                failures.push(format!("{src} on {operands:?}: {seen:?}"));
                continue;
            }
            let want = overflow.map(|m| Outcome::Error(WRONG_TYPE, format!("{op}: {m}")));
            match (&want, &first) {
                (Some(w), got) if got != w => {
                    failures.push(format!("{src} on {operands:?}: {got:?}, wanted {w:?}"));
                }
                (None, Outcome::Error(..) | Outcome::Panic) => {
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
    for (src, args, op) in [
        ("(defun f (x y) (+ x y))", vec![fx(1), foo.clone()], "+"),
        ("(defun f (x y) (* x y))", vec![foo.clone(), fx(2)], "*"),
        ("(defun f (x) (1+ x))", vec![foo.clone()], "1+"),
        ("(defun f (x y) (max x y))", vec![fx(1), foo.clone()], "max"),
    ] {
        let seen = outcomes(src, "f", &args, op);
        assert!(seen.iter().all(|(_, o)| *o == seen[0].1), "{src}: {seen:?}");
        assert!(
            matches!(&seen[0].1, Outcome::Error(_, m) if m.ends_with(": not a number: foo")),
            "{src}: {seen:?}"
        );
    }
}

// ------------------------------------------------------ the boundary table

/// The boundary operands.
fn boundary_operands() -> Vec<Value> {
    let mut out: Vec<Value> = [0, 1, -1, 2, -2, MIN, MIN + 1, MAX]
        .into_iter()
        .map(fx)
        .collect();
    out.extend([fl(1.5), fl(-0.0), fl(1e300), fl(f64::NAN)]);
    out.push(Value::Sym(Interner::new().intern("foo")));
    out
}

/// `v` as source text for the folder.
fn literal(v: &Value) -> String {
    match v {
        Value::Flonum(x) => format!("{x:?}"),
        Value::Sym(s) => format!("'{s}"),
        other => other.to_string(),
    }
}

/// The call of `op` on constant `args` as the folder answers it: the
/// call compiled on constants and interpreted after optimization.  NaN
/// has no literal, so a call with a NaN operand goes to the folder's
/// own evaluation (`eval_primop`) on the constants; `None` when it
/// declines, leaving the call to run time, where the interpreter
/// answers it.
fn folded(op: &str, args: &[Value]) -> Option<Outcome> {
    if args
        .iter()
        .any(|v| matches!(v, Value::Flonum(x) if x.is_nan()))
    {
        let datums: Vec<_> = args
            .iter()
            .map(|v| v.to_datum().expect("a datum"))
            .collect();
        let p = Prim::from_name(op).expect("a primitive");
        let folded = guarded(|| match s1lisp_interp::eval_primop(p, &datums) {
            Some(d) => Outcome::Value(Value::from_datum(&d).to_string()),
            None => Outcome::Error("declined", String::new()),
        });
        return (folded != Outcome::Error("declined", String::new())).then_some(folded);
    }
    let consts: Vec<String> = args.iter().map(literal).collect();
    let src = format!("(defun k () ({op} {}))", consts.join(" "));
    Some(match compiled(&src, BackendKind::S1) {
        Some(c) => interpreted(&c, "k", &[]),
        None => Outcome::Panic,
    })
}

/// Every row `s1lisp_ast::num` defines.
fn numeric_rows() -> Vec<Prim> {
    Prim::ALL
        .iter()
        .copied()
        .filter(|p| {
            let args = vec![Num::Int(1); p.info().min_args.max(1)];
            num::apply(*p, &args, |&n| Some(n)).is_some()
        })
        .collect()
}

/// Whether `got`, from a direct S-1 call site of `p`, is `want` up to
/// the two messages an instruction, not the routine, raises in its own
/// words.  Each keeps the error's class.  A comparison compiled to a
/// `JMPZ` names its source row, however the peephole pass inverted the
/// branch, so it is not among them.
fn same_at_call_site(p: Prim, want: &Outcome, got: &Outcome) -> bool {
    let (Outcome::Error(c, reference), Outcome::Error(d, s1)) = (want, got) else {
        return want == got;
    };
    let op = p.name();
    // A `$f` operator's flonum operand is unboxed by `UnboxFlo`, whose
    // check prints the machine word.
    let flonum_unbox = reference.contains("$f: not a flonum: ") && s1.starts_with("not a flonum: ");
    // The `&` operators compile to the declared-fixnum instructions,
    // whose operand check prints the machine word and whose overflow
    // names the generic operator (`*` for `*&`).
    let generic = op.trim_end_matches('&');
    let fixnum_insn = op.ends_with('&')
        && ((reference.starts_with(&format!("{op}: not a fixnum: "))
            && s1.starts_with("not an integer: "))
            || (reference == &format!("{op}: fixnum overflow")
                && s1 == &format!("{generic}: fixnum overflow")));
    c == d && (*reference == *s1 || flonum_unbox || fixnum_insn) || want == got
}

/// The rows whose direct call the optimizer rewrites into another
/// expression: §7's `(sin$f x)` ⇒ `(sinc$f (*$f x 1/2π))`, which rounds
/// differently and names `*$f` in a type error.  Their compiled call is
/// checked against the interpreter on the same rewritten tree, the
/// routine against the row itself, and the folder against either: it
/// folds the row on constants it can, and leaves the rewritten call to
/// run time when the row fails.
fn rewritten(p: Prim) -> bool {
    matches!(p, Prim::SinF | Prim::CosF)
}

/// Every numeric row, on every boundary operand (and every pair of
/// them for the rows that take two), gives one answer: the same value,
/// or the same error class and message, on the interpreter, the
/// bytecode evaluator, the folder, the S-1 at the direct call site and
/// the S-1 through the routine `(funcall (function op) …)` reaches.
/// The compiled call is checked against the interpreter's `(op x y)`,
/// the routine and the folder against its `(funcall (function op) x
/// y)`, and the two against each other.  The only differences allowed
/// are the instruction-level messages of [`same_at_call_site`] and the
/// rewritten rows of [`rewritten`].  No case may panic the host or the
/// compiler.
#[test]
fn every_numeric_row_agrees_at_the_bounds() {
    let operands = boundary_operands();
    let mut failures = Vec::new();
    let mut cases = 0;
    for p in numeric_rows() {
        let op = p.name();
        let info = p.info();
        let most = info.max_args.unwrap_or(2).min(2);
        for arity in info.min_args.max(1)..=most {
            let params = ["x", "y"][..arity].join(" ");
            let src = format!(
                "(defun f ({params}) ({op} {params}))
                 (defun g ({params}) (funcall (function {op}) {params}))"
            );
            let (Some(s1), Some(bc)) = (
                compiled(&src, BackendKind::S1),
                compiled(&src, BackendKind::Bytecode),
            ) else {
                failures.push(format!("{src}: the compiler panicked"));
                continue;
            };
            let mut tuples: Vec<Vec<usize>> = (0..operands.len()).map(|i| vec![i]).collect();
            if arity == 2 {
                tuples = (0..operands.len())
                    .flat_map(|i| (0..operands.len()).map(move |j| vec![i, j]))
                    .collect();
            }
            for tuple in tuples {
                cases += 1;
                let args: Vec<Value> = tuple.iter().map(|&i| operands[i].clone()).collect();
                let direct = interpreted(&s1, "f", &args);
                let routine = interpreted(&s1, "g", &args);
                let compiled_call = [
                    ("bytecode", evaluated(&bc, "f", &args)),
                    ("S-1 call site", simulated(&s1, "f", &args, op)),
                ];
                let mut through_routine = vec![("S-1 routine", simulated(&s1, "g", &args, op))];
                through_routine.extend(folded(op, &args).map(|o| ("folder", o)));
                let agreed = direct != Outcome::Panic
                    && (direct == routine || rewritten(p))
                    && evaluated(&bc, "g", &args) == routine
                    && compiled_call[0].1 == direct
                    && same_at_call_site(p, &direct, &compiled_call[1].1)
                    && through_routine.iter().all(|(engine, o)| {
                        *o == routine || (rewritten(p) && *engine == "folder" && *o == direct)
                    });
                if !agreed {
                    failures.push(format!(
                        "({op} {params}) on {args:?}: interpreter {direct:?} / \
                         {routine:?} through funcall, {compiled_call:?}, {through_routine:?}"
                    ));
                }
            }
        }
    }
    assert!(cases > 3000, "only {cases} cases");
    assert!(
        failures.is_empty(),
        "{} of {cases} cases disagree:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Every row the table compiles in line, and every Boolean numeric row,
/// on every boundary operand, `()` and a cons (and every pair of them):
/// a Boolean row in test position, `(if (op x y) 'yes 'no)` and `(if
/// (not (op x y)) 'yes 'no)`, and any other in value position, `(list
/// (op x y))`, gives the interpreter's answer — the same value, or the
/// same error class and message — on the bytecode, whose
/// compare-and-branch and `prim` ops answer these calls, and on the
/// S-1, whose `JMPZ` names the source row however the peephole pass
/// inverted it.
#[test]
fn every_boolean_row_agrees_in_test_position() {
    let mut operands = boundary_operands();
    operands.extend([Value::Nil, Value::list([fx(1), fx(2)])]);
    let rows = Prim::ALL.iter().copied().filter(|p| {
        let info = p.info();
        let in_line = !matches!(info.inline, Inline::Call | Inline::Flonum | Inline::Fixnum);
        in_line || info.result == NumKind::Boolean && numeric_rows().contains(p)
    });
    let mut failures = Vec::new();
    let mut cases = 0;
    for p in rows {
        let info = p.info();
        let op = p.name();
        let most = info.max_args.unwrap_or(2).min(2);
        for arity in info.min_args.max(1)..=most {
            let params = ["x", "y"][..arity].join(" ");
            let src = if info.result == NumKind::Boolean {
                format!(
                    "(defun f ({params}) (if ({op} {params}) 'yes 'no))
                     (defun g ({params}) (if (not ({op} {params})) 'yes 'no))"
                )
            } else {
                format!("(defun f ({params}) (list ({op} {params})))")
            };
            let entries: &[&str] = if info.result == NumKind::Boolean {
                &["f", "g"]
            } else {
                &["f"]
            };
            let (Some(s1), Some(bc)) = (
                compiled(&src, BackendKind::S1),
                compiled(&src, BackendKind::Bytecode),
            ) else {
                failures.push(format!("{src}: the compiler panicked"));
                continue;
            };
            let mut tuples: Vec<Vec<usize>> = (0..operands.len()).map(|i| vec![i]).collect();
            if arity == 2 {
                tuples = (0..operands.len())
                    .flat_map(|i| (0..operands.len()).map(move |j| vec![i, j]))
                    .collect();
            }
            for tuple in tuples {
                // Each argument its own object, as the S-1 receives it.
                let args: Vec<Value> = tuple
                    .iter()
                    .map(|&i| Value::from_datum(&operands[i].to_datum().expect("a datum")))
                    .collect();
                // The S-1 compares two flonums' boxes, where the
                // interpreter and the bytecode compare their bits: `eq`
                // on numbers is the implementation's, as in Common Lisp.
                let boxes = p == Prim::Eq && args.iter().all(|a| matches!(a, Value::Flonum(_)));
                for &entry in entries {
                    cases += 1;
                    let want = interpreted(&s1, entry, &args);
                    let seen = [
                        ("bytecode", evaluated(&bc, entry, &args)),
                        ("S-1", simulated(&s1, entry, &args, op)),
                    ];
                    let agreed = want != Outcome::Panic
                        && (same_at_call_site(p, &want, &seen[1].1)
                            || boxes && matches!(seen[1].1, Outcome::Value(_)))
                        && seen[0].1 == want;
                    if !agreed {
                        failures.push(format!(
                            "{entry}: ({op} {params}) on {args:?}: interpreter {want:?}, {seen:?}"
                        ));
                    }
                }
            }
        }
    }
    assert!(cases > 3000, "only {cases} cases");
    assert!(
        failures.is_empty(),
        "{} of {cases} cases disagree:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Calls whose answers once differed between engines, or were wrong on
/// all of them: each gives this one answer on every engine — the
/// interpreter, the bytecode evaluator and the S-1 both at the direct
/// call site and through the routine, and the folder.
#[test]
fn the_numeric_probe_cases_give_one_answer() {
    let foo = Value::Sym(Interner::new().intern("foo"));
    let nan = fl(f64::NAN);
    let error = |class: &'static str, m: &str| Outcome::Error(class, m.to_string());
    let cases = [
        (
            "<",
            vec![nan.clone(), fx(1)],
            error(WRONG_TYPE, "<: comparison with NaN"),
        ),
        (
            "=",
            vec![nan.clone(), fx(1)],
            error(WRONG_TYPE, "=: comparison with NaN"),
        ),
        (
            "/=",
            vec![nan.clone(), fx(1)],
            error(WRONG_TYPE, "/=: comparison with NaN"),
        ),
        (
            "/",
            vec![fx(6), fx(0), fl(1.5)],
            error(DIVISION_BY_ZERO, "/: division by zero"),
        ),
        (
            "floor",
            vec![fl(1e300)],
            error(WRONG_TYPE, "floor: fixnum overflow"),
        ),
        (
            "truncate",
            vec![fl(-1e30)],
            error(WRONG_TYPE, "truncate: fixnum overflow"),
        ),
        (
            "fix",
            vec![nan.clone()],
            error(WRONG_TYPE, "fix: fixnum overflow"),
        ),
        (
            "round",
            vec![fx(9_007_199_254_740_993), fx(1)],
            Outcome::Value("9007199254740993".to_string()),
        ),
        (
            "oddp",
            vec![fl(1.5)],
            error(WRONG_TYPE, "oddp: not a fixnum: 1.5"),
        ),
        (
            "oddp",
            vec![foo],
            error(WRONG_TYPE, "oddp: not a fixnum: foo"),
        ),
        (
            "+$f",
            vec![fx(1), fl(2.0)],
            error(WRONG_TYPE, "+$f: not a flonum: 1"),
        ),
    ];
    let mut failures = Vec::new();
    for (op, args, want) in cases {
        let p = Prim::from_name(op).expect("a primitive");
        let params = ["x", "y", "z"][..args.len()].join(" ");
        let src = format!(
            "(defun f ({params}) ({op} {params}))
             (defun g ({params}) (funcall (function {op}) {params}))"
        );
        let (Some(s1), Some(bc)) = (
            compiled(&src, BackendKind::S1),
            compiled(&src, BackendKind::Bytecode),
        ) else {
            failures.push(format!("{src}: the compiler panicked"));
            continue;
        };
        let mut seen = vec![
            ("interpreter", interpreted(&s1, "f", &args)),
            ("bytecode", evaluated(&bc, "f", &args)),
            ("S-1 routine", simulated(&s1, "g", &args, op)),
        ];
        // A folder that declines leaves the call to the engines above.
        seen.extend(folded(op, &args).map(|o| ("folder", o)));
        let direct = simulated(&s1, "f", &args, op);
        if seen.iter().any(|(_, o)| *o != want) || !same_at_call_site(p, &want, &direct) {
            failures.push(format!(
                "({op} …) on {args:?}: {seen:?}, S-1 call site {direct:?}, wanted {want:?}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
