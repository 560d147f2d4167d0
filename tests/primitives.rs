//! Every row of the primitive table, called from a compiled `defun` with
//! one argument too few and one too many, traps on the S-1 simulator
//! (optimized and not), on the bytecode evaluator and in the reference
//! interpreter — and panics on none of them.
//!
//! The exhaustive `match` on `Prim` in each engine guarantees that every
//! row is dispatched; this test checks that the one arity check in front
//! of it holds for every row.  The list rows, which `s1lisp_ast::lists`
//! defines once, give one answer on every engine, and every walk down a
//! list ends, a circular one included.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use s1lisp::{BackendKind, Compiler, Trap, Value};
use s1lisp_ast::lists;
use s1lisp_ast::Prim;
use s1lisp_interp::Values;
use s1lisp_reader::{read_str, Interner};
use s1lisp_suite::{fl, fx};

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

// ---- the list rows ----

/// The engines a list row runs on, each under `Compiler::new()` and
/// `Compiler::unoptimized()`: the bytecode evaluator, the S-1 at the
/// call site the code generator chooses (`f`), and the S-1 through the
/// routine `(funcall (function op) …)` reaches (`g`).  The reference is
/// the unoptimized interpreter's `f`.
struct Engines {
    reference: Compiler,
    s1: [Compiler; 2],
    bytecode: [Compiler; 2],
}

const CONFIGS: [&str; 2] = ["optimized", "unoptimized"];

fn configured(i: usize, backend: BackendKind) -> Compiler {
    let mut c = if i == 0 {
        Compiler::new()
    } else {
        Compiler::unoptimized()
    };
    c.backend = backend;
    c
}

impl Engines {
    /// `None` when a compiler panics or refuses `src`.
    fn compile(src: &str) -> Option<Engines> {
        let build = |i, backend| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut c = configured(i, backend);
                c.compile_str(src).ok().map(|_| c)
            }))
            .ok()
            .flatten()
        };
        Some(Engines {
            reference: build(1, BackendKind::S1)?,
            s1: [build(0, BackendKind::S1)?, build(1, BackendKind::S1)?],
            bytecode: [
                build(0, BackendKind::Bytecode)?,
                build(1, BackendKind::Bytecode)?,
            ],
        })
    }
}

/// What one engine made of one call: the printed value, or the error's
/// message without the engine's prefix.
type Outcome = Result<String, String>;

fn guarded(f: impl FnOnce() -> Outcome) -> Outcome {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("the host panicked".into()))
}

fn interpreted(c: &Compiler, entry: &str, args: &[Value]) -> Outcome {
    guarded(|| {
        c.interpreter()
            .call(entry, args)
            .map(|v| v.to_string())
            .map_err(|e| e.message)
    })
}

fn evaluated(c: &Compiler, entry: &str, args: &[Value]) -> Outcome {
    guarded(|| {
        c.evaluator()
            .run(entry, args)
            .map(|v| v.to_string())
            .map_err(|t| {
                let m = &t.message;
                m.strip_prefix("lisp error: ").unwrap_or(m).to_string()
            })
    })
}

fn simulated(c: &Compiler, entry: &str, args: &[Value]) -> Outcome {
    guarded(|| {
        c.machine()
            .run(entry, args)
            .map(|v| v.to_string())
            .map_err(|t| match t.cause() {
                Trap::WrongType(m) => m.clone(),
                other => other.to_string(),
            })
    })
}

/// Each argument its own object, as the S-1 receives it: a fresh copy
/// of every cons.  A string stays the one object it was (the S-1 interns
/// strings by their text).
fn fresh(args: &[Value]) -> Vec<Value> {
    args.iter()
        .map(|v| Value::from_datum(&v.to_datum().expect("a datum")))
        .collect()
}

/// `()`, `t`, a symbol, 0, 1.5, a string, a proper list, an improper
/// list, a nested list, and a 20,000-element list — two equal lists
/// wherever it fills both places of a call.  The string is one object
/// wherever it occurs, as the S-1, which interns strings, sees it.
fn list_operands() -> Vec<Value> {
    let mut names = Interner::new();
    let mut read = |src: &str| Value::from_datum(&read_str(src, &mut names).expect("a datum"));
    let a = read("a");
    let s = read("\"s\"");
    vec![
        read("()"),
        read("t"),
        a.clone(),
        fx(0),
        fl(1.5),
        s.clone(),
        Value::list([a.clone(), fl(1.5), s, Value::list([a])]),
        read("((a) b . c)"),
        read("((1.5 a) (b (c)) ((a)))"),
        Value::list((0..20_000).map(fx)),
    ]
}

/// Every row `s1lisp_ast::lists` answers.
fn list_rows() -> Vec<Prim> {
    Prim::ALL
        .iter()
        .copied()
        .filter(|&p| {
            let args = vec![Value::Nil; p.info().min_args.max(1)];
            !matches!(lists::apply(&mut Values, p, &args), Ok(None))
        })
        .collect()
}

/// The one exemption (`s1lisp_ast::lists`): the identity of two
/// flonums made separately is the engine's.  Where `eq`, `memq` or
/// `assq` looks for a flonum, the S-1, which compares boxes, may answer
/// as the interpreter does for a key that nothing is `eq` to.
fn flonum_key(p: Prim, args: &[Value]) -> bool {
    matches!(p, Prim::Eq | Prim::Memq | Prim::Assq) && matches!(args[0], Value::Flonum(_))
}

/// Every list row, on every operand (and every pair of them for the
/// rows that take two), gives one answer: the same value, or the same
/// message, on the interpreter, the bytecode evaluator, the S-1 at the
/// call site and the S-1 through the routine, each optimized and not.
/// No case may panic the host or the compiler.
#[test]
fn every_list_row_agrees_on_every_engine() {
    let operands = list_operands();
    let unmatched = Value::Sym(Interner::new().intern("unmatched"));
    let mut failures = Vec::new();
    let mut cases = 0;
    for p in list_rows() {
        let op = p.name();
        let info = p.info();
        for arity in info.min_args.max(1)..=info.max_args.unwrap_or(2).min(2) {
            let params = ["x", "y"][..arity].join(" ");
            let src = format!(
                "(defun f ({params}) ({op} {params}))
                 (defun g ({params}) (funcall (function {op}) {params}))"
            );
            let Some(e) = Engines::compile(&src) else {
                failures.push(format!("{src}: the compiler failed"));
                continue;
            };
            let mut tuples: Vec<Vec<&Value>> = operands.iter().map(|v| vec![v]).collect();
            if arity == 2 {
                tuples = operands
                    .iter()
                    .flat_map(|x| operands.iter().map(move |y| vec![x, y]))
                    .collect();
            }
            for tuple in tuples {
                cases += 1;
                let args: Vec<Value> = tuple.into_iter().cloned().collect();
                let want = interpreted(&e.reference, "f", &fresh(&args));
                let mut seen = Vec::new();
                for (i, config) in CONFIGS.iter().enumerate() {
                    seen.push((
                        config,
                        "bytecode",
                        evaluated(&e.bytecode[i], "f", &fresh(&args)),
                    ));
                    seen.push((
                        config,
                        "S-1 call site",
                        simulated(&e.s1[i], "f", &fresh(&args)),
                    ));
                    seen.push((
                        config,
                        "S-1 routine",
                        simulated(&e.s1[i], "g", &fresh(&args)),
                    ));
                }
                let unboxed = flonum_key(p, &args).then(|| {
                    let mut keyless = fresh(&args);
                    keyless[0] = unmatched.clone();
                    interpreted(&e.reference, "f", &keyless)
                });
                let agreed = |engine: &str, got: &Outcome| {
                    *got == want || engine != "bytecode" && unboxed.as_ref() == Some(got)
                };
                if want.as_ref().is_err_and(|m| m.contains("panicked"))
                    || seen.iter().any(|(_, engine, got)| !agreed(engine, got))
                {
                    let shown: Vec<String> = args.iter().map(|a| clip(&a.to_string())).collect();
                    failures.push(format!(
                        "({op} {}): interpreter {}, {}",
                        shown.join(" "),
                        clip(&format!("{want:?}")),
                        seen.iter()
                            .filter(|(_, engine, got)| !agreed(engine, got))
                            .map(|(config, engine, got)| {
                                format!("{engine} {config} {}", clip(&format!("{got:?}")))
                            })
                            .collect::<Vec<_>>()
                            .join(", ")
                    ));
                }
            }
        }
    }
    assert!(cases > 1000, "only {cases} cases");
    assert!(
        failures.is_empty(),
        "{} of {cases} cases disagree:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// A long printed value, cut for a failure message.
fn clip(s: &str) -> String {
    match s.char_indices().nth(60) {
        Some((i, _)) => format!("{}…", &s[..i]),
        None => s.to_string(),
    }
}

/// The lists the probe programs build at run time: `(upto n)` is the
/// list 1 … n, and `(nest n)` is () wrapped in n lists, a car nested n
/// deep.
const BUILDERS: &str = "
(defun upto (n) (prog (l) top (if (zerop n) (return l))
  (setq l (cons n l)) (setq n (- n 1)) (go top)))
(defun nest (n) (prog (x) top (if (zerop n) (return x))
  (setq x (list x)) (setq n (- n 1)) (go top)))";

/// Calls whose answers once differed between engines, or failed on
/// all of them: each gives this one answer on every engine — the
/// interpreter, and the bytecode evaluator and the S-1, optimized and
/// not.
#[test]
fn the_list_probe_cases_give_one_answer() {
    let cases: [(&str, &[&str], Outcome); 16] = [
        (
            "(length x)",
            &["(a . b)"],
            Err("length: improper tail: b".into()),
        ),
        (
            "(reverse x)",
            &["(a . b)"],
            Err("reverse: improper tail: b".into()),
        ),
        (
            "(nth 1 x)",
            &["(a . b)"],
            Err("nth: improper tail: b".into()),
        ),
        (
            "(assq 'z x)",
            &["((a) . b)"],
            Err("assq: improper tail: b".into()),
        ),
        ("(nth 0 x)", &["(a . b)"], Ok("a".into())),
        ("(assq 'a x)", &["((a) . b)"], Ok("(a)".into())),
        ("(rplaca x 1)", &["a"], Err("rplaca: not a cons: a".into())),
        (
            "(rplacd x 1)",
            &["\"s\""],
            Err("rplacd: not a cons: \"s\"".into()),
        ),
        ("(cadr x)", &["(a . b)"], Err("cadr: not a list: b".into())),
        ("(nth x '(a))", &["b"], Err("nth: not a fixnum: b".into())),
        (
            "(apply #'list x)",
            &["(1 . b)"],
            Err("apply: improper tail: b".into()),
        ),
        ("(apply #'list x)", &["(1 2)"], Ok("(1 2)".into())),
        ("(equal (upto 20000) (upto 20000))", &[], Ok("t".into())),
        (
            "(length (member (upto 20000) (list 1 (upto 20000))))",
            &[],
            Ok("1".into()),
        ),
        ("(equal (nest 10001) (nest 10001))", &[], Ok("t".into())),
        (
            "(equal (nest 10002) (nest 10002))",
            &[],
            Err("equal: structure too deep".into()),
        ),
    ];
    let mut failures = Vec::new();
    for (body, args, want) in cases {
        let mut names = Interner::new();
        let args: Vec<Value> = args
            .iter()
            .map(|a| Value::from_datum(&read_str(a, &mut names).expect("a datum")))
            .collect();
        let params = ["x"][..args.len()].join(" ");
        let src = format!("{BUILDERS} (defun f ({params}) {body})");
        let Some(e) = Engines::compile(&src) else {
            failures.push(format!("{body}: the compiler failed"));
            continue;
        };
        let mut seen = vec![("interpreter", interpreted(&e.reference, "f", &args))];
        for (i, config) in CONFIGS.into_iter().enumerate() {
            seen.push((config, evaluated(&e.bytecode[i], "f", &args)));
            seen.push((config, simulated(&e.s1[i], "f", &args)));
        }
        if seen.iter().any(|(_, got)| *got != want) {
            failures.push(format!("{body} on {args:?}: {seen:?}, wanted {want:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// How long one engine may take over one call of
/// [`every_walk_down_a_circular_list_ends`]; each answers in well under
/// a second.
const DEADLINE: Duration = Duration::from_secs(20);

/// Every walk down a list ends — on `()`, on an improper tail, or at a
/// cycle — so no list row runs without bound: each engine, on its own
/// thread, answers or traps within the deadline on a circular list.
/// `(ring)` is the list p a b c a b c …, its cycle three conses long
/// after one more; `(knot)` is a cons whose car is itself.  `nthcdr`
/// answers on a cycle (2^63 − 1 is 1 modulo 3), and stops early at `()`.
#[test]
fn every_walk_down_a_circular_list_ends() {
    let cases: [(&str, Outcome); 15] = [
        ("(last (ring))", Err("last: circular list".into())),
        ("(memq 'z (ring))", Err("memq: circular list".into())),
        ("(car (memq 'c (ring)))", Ok("c".into())),
        ("(nth 9223372036854775807 (ring))", Ok("a".into())),
        ("(car (nthcdr 9223372036854775807 (ring)))", Ok("a".into())),
        ("(nthcdr 9223372036854775807 (list 1 2))", Ok("()".into())),
        ("(length (ring))", Err("length: circular list".into())),
        ("(reverse (ring))", Err("reverse: circular list".into())),
        ("(append (ring) 1)", Err("append: circular list".into())),
        ("(assq 'z (ring))", Err("assq: circular list".into())),
        ("(member 'z (ring))", Err("member: circular list".into())),
        ("(equal (ring) (ring))", Err("equal: circular list".into())),
        (
            "(equal (knot) (knot))",
            Err("equal: structure too deep".into()),
        ),
        ("(apply #'list (ring))", Err("apply: circular list".into())),
        ("(apply #'+ (ring))", Err("apply: circular list".into())),
    ];
    let mut failures = Vec::new();
    for (body, want) in cases {
        let src = format!(
            "(defun ring () (let ((x (list 'a 'b 'c))) (rplacd (cddr x) x) (cons 'p x)))
             (defun knot () (let ((x (list 1))) (rplaca x x) x))
             (defun f () {body})"
        );
        for (engine, backend, config) in [
            ("interpreter", BackendKind::S1, 1),
            ("bytecode", BackendKind::Bytecode, 0),
            ("bytecode", BackendKind::Bytecode, 1),
            ("S-1", BackendKind::S1, 0),
            ("S-1", BackendKind::S1, 1),
        ] {
            let (tx, rx) = mpsc::channel();
            let src = src.clone();
            let run = std::thread::spawn(move || {
                let mut c = configured(config, backend);
                let got = match c.compile_str(&src) {
                    Err(e) => Err(format!("compile: {e}")),
                    Ok(_) if engine == "interpreter" => interpreted(&c, "f", &[]),
                    Ok(_) if backend == BackendKind::Bytecode => evaluated(&c, "f", &[]),
                    Ok(_) => simulated(&c, "f", &[]),
                };
                tx.send(got).expect("the test waits for the answer");
            });
            let engine = format!("{engine} {}", CONFIGS[config]);
            // A run past the deadline cannot be joined: it is left
            // running, and the test fails.
            match rx.recv_timeout(DEADLINE) {
                Ok(got) => {
                    run.join().expect("the run sent its answer");
                    if got != want {
                        failures.push(format!("{body} on {engine}: {got:?}, wanted {want:?}"));
                    }
                }
                Err(_) => failures.push(format!("{body} on {engine}: no answer in {DEADLINE:?}")),
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
