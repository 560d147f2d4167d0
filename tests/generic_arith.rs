//! Generic arithmetic on the S-1: `+`, `-`, `*` and `/` of two
//! operands, and `1+` and `1-` of one, compile to one `GENERIC`
//! instruction.  Its fixnum case retires as that one instruction; any
//! other operand runs the runtime routine `%CALLRT` would, at the price
//! `%CALLRT` pays.  Seeded operands at and around the `i64` bounds,
//! flonums, mixed pairs and non-numbers run on the full compiler, on
//! `Compiler::unoptimized` (which keeps the runtime calls) and in the
//! reference interpreter.

use s1lisp::{BackendKind, Compiler, Machine, Trap, Value};
use s1lisp_reader::Interner;
use s1lisp_s1sim::ExecProfile;
use s1lisp_suite::{fl, fx};
use s1lisp_trace::rng::SplitMix64;

/// What `%CALLRT` charges for a routine of `nargs` arguments:
/// `RT_CALL_COST` (8) plus 2 per argument.
fn rt_call_charge(nargs: usize) -> u64 {
    8 + 2 * nargs as u64
}

const BINARY: [&str; 4] = ["+", "-", "*", "/"];
const UNARY: [&str; 2] = ["1+", "1-"];

fn compiled(src: &str, full: bool) -> Compiler {
    let mut c = if full {
        Compiler::new()
    } else {
        Compiler::unoptimized()
    };
    c.compile_str(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    c
}

/// `(defun f (x y) (OP x y))`, or `(defun f (x) (OP x))` for `1+`/`1-`.
fn source(op: &str) -> String {
    if UNARY.contains(&op) {
        format!("(defun f (x) ({op} x))")
    } else {
        format!("(defun f (x y) ({op} x y))")
    }
}

/// Operands: fixnums at, next to and halfway to the `i64` bounds, small
/// and random fixnums, flonums, and four non-numbers.
fn operands(seed: u64) -> Vec<Value> {
    let mut names = Interner::new();
    let mut rng = SplitMix64::new(seed);
    let mut v: Vec<Value> = [
        0,
        1,
        -1,
        2,
        -2,
        7,
        i64::MAX,
        i64::MAX - 1,
        i64::MIN,
        i64::MIN + 1,
        1 << 62,
        -(1 << 62),
        1 << 32,
    ]
    .into_iter()
    .map(fx)
    .collect();
    for _ in 0..4 {
        v.push(fx(rng.range_i64(-1_000_000, 1_000_000)));
        v.push(fx(rng.next_u64() as i64));
        v.push(fl(rng.wide_f64()));
    }
    v.extend([fl(1.5), fl(-0.0), fl(0.0), fl(1e300)]);
    v.extend([
        Value::Nil,
        Value::Sym(names.intern("foo")),
        Value::Sym(names.intern("t")),
        Value::list([fx(1), fx(2)]),
    ]);
    v
}

/// A run's printed value, or its trap seen through the site annotation
/// (the two compiles trap at different program counters).
fn s1(m: &mut Machine, args: &[Value]) -> Result<String, Trap> {
    m.run("f", args)
        .map(|v| v.to_string())
        .map_err(|t| t.cause().clone())
}

/// The programs each operator is checked in: `f` applied to its
/// arguments, and, for the two-operand ones, a constant on either side
/// of an assignment (where targeting may swap `+` and `*` sources).
fn programs(op: &str) -> Vec<String> {
    if UNARY.contains(&op) {
        return vec![source(op)];
    }
    vec![
        source(op),
        format!("(defun f (x) (setq x ({op} 3 x)) x)"),
        format!("(defun f (x) (setq x ({op} x 3)) x)"),
    ]
}

/// Every program over every operand (pair): the full compile returns
/// exactly what the runtime calls of `Compiler::unoptimized` return, or
/// raises the same trap with the same message, and it traps exactly
/// where the interpreter signals an error, with the interpreter's value
/// everywhere else.  An overflow of `+`, `-` or `*` carries the
/// interpreter's message.
#[test]
fn generic_arithmetic_agrees_with_the_runtime_and_the_interpreter() {
    let values = operands(0x5eed_a417);
    let mut failures = Vec::new();
    let mut cases = 0;
    for src in BINARY.iter().chain(&UNARY).flat_map(|op| programs(op)) {
        let (full, naive) = (compiled(&src, true), compiled(&src, false));
        let (mut mf, mut mn, interp) = (full.machine(), naive.machine(), full.interpreter());
        let calls: Vec<Vec<Value>> = if src.starts_with("(defun f (x)") {
            values.iter().map(|x| vec![x.clone()]).collect()
        } else {
            values
                .iter()
                .flat_map(|x| values.iter().map(move |y| vec![x.clone(), y.clone()]))
                .collect()
        };
        for args in calls {
            cases += 1;
            let (got, want) = (s1(&mut mf, &args), s1(&mut mn, &args));
            let reference = interp.call("f", &args).map(|v| v.to_string());
            let shown = format!(
                "{src} on {}",
                args.iter()
                    .map(Value::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            if got != want {
                failures.push(format!("{shown}: full {got:?}, %CALLRT {want:?}"));
            }
            match (&got, &reference) {
                (Ok(a), Ok(b)) if a == b => {}
                (Err(Trap::WrongType(m)), Err(e))
                    if m.contains("fixnum overflow") && e.message != *m =>
                {
                    failures.push(format!(
                        "{shown}: message {m:?}, interpreter {:?}",
                        e.message
                    ));
                }
                (Err(_), Err(_)) => {}
                _ => failures.push(format!("{shown}: S-1 {got:?}, interpreter {reference:?}")),
            }
        }
    }
    assert!(cases > 4 * 1000, "only {cases} cases");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Runs `f` under a profile: `(retired instructions, synthetic
/// runtime-call charge, GENERIC instructions retired)`.
fn profiled(c: &Compiler, args: &[Value]) -> (u64, u64, u64) {
    let mut m = c.machine();
    m.profile = Some(Box::new(ExecProfile::default()));
    m.run("f", args).expect("runs");
    let p = m.profile.as_ref().expect("profile attached");
    assert_eq!(p.retired() + p.synthetic_cycles(), m.last_run_insns);
    let generic = p.opcodes.get("GENERIC").copied().unwrap_or(0);
    (p.retired(), p.synthetic_cycles(), generic)
}

/// A fixnum operation is one retired `GENERIC` with no runtime charge,
/// and the listing has no `%CALLRT` or argument pushes around it; a
/// flonum operand adds exactly what `%CALLRT` charges for the same call,
/// and no retired instruction.  The unoptimized compile keeps the
/// `%CALLRT`.
#[test]
fn the_fixnum_case_is_one_instruction_and_a_flonum_pays_one_runtime_call() {
    for op in BINARY.iter().chain(&UNARY) {
        let src = source(op);
        let (fixnums, flonum) = if UNARY.contains(op) {
            (vec![fx(12)], vec![fl(1.5)])
        } else {
            (vec![fx(12), fx(3)], vec![fl(1.5), fx(3)])
        };
        let charge = rt_call_charge(fixnums.len());
        let full = compiled(&src, true);
        let listing = full.disassemble("f").expect("f is defined");
        assert!(listing.contains(&format!("((GENERIC {op})")), "{listing}");
        assert!(
            !listing.contains("%CALLRT") && !listing.contains("PUSH"),
            "{listing}"
        );

        let (retired, charged, generic) = profiled(&full, &fixnums);
        assert_eq!((charged, generic), (0, 1), "{op} on fixnums");
        let (slow_retired, slow_charged, _) = profiled(&full, &flonum);
        assert_eq!(
            (slow_retired, slow_charged),
            (retired, charge),
            "{op} on a flonum"
        );

        // `Compiler::unoptimized` has no representation analysis, so it
        // keeps the runtime call (E12's naive column).
        let naive = compiled(&src, false);
        let listing = naive.disassemble("f").expect("f is defined");
        let call = format!("(%CALLRT {op} {} ", fixnums.len());
        assert!(listing.contains(&call), "{listing}");
        let (_, naive_charged, naive_generic) = profiled(&naive, &fixnums);
        assert_eq!(
            (naive_charged, naive_generic),
            (charge, 0),
            "{op} unoptimized"
        );
    }
}

/// Declared-fixnum arithmetic compiles to the machine's integer
/// instructions; an overflow there traps as the runtime and the
/// interpreter do (`+: fixnum overflow`), not as a division by zero,
/// which only a zero divisor raises.
#[test]
fn declared_fixnum_overflow_traps_as_the_interpreter_does() {
    const SRC: &str = "(defun twice (a) (declare (fixnum a)) (+ a a))
(defun less (a b) (declare (fixnum a b)) (- a b))
(defun times (a b) (declare (fixnum a b)) (* a b))
(defun quot (a b) (declare (fixnum a b)) (/ a b))";
    let c = compiled(SRC, true);
    for (name, op) in [
        ("twice", "ADD"),
        ("less", "SUB"),
        ("times", "MULT"),
        ("quot", "DIV"),
    ] {
        let listing = c.disassemble(name).expect("defined");
        assert!(listing.contains(&format!("({op} ")), "{listing}");
    }
    let big = 1 << 62;
    let cases: [(&str, Vec<Value>, &str); 5] = [
        ("twice", vec![fx(big)], "+: fixnum overflow"),
        ("less", vec![fx(i64::MIN), fx(1)], "-: fixnum overflow"),
        ("times", vec![fx(big), fx(4)], "*: fixnum overflow"),
        ("quot", vec![fx(i64::MIN), fx(-1)], "/: fixnum overflow"),
        ("quot", vec![fx(7), fx(0)], "/: division by zero"),
    ];
    let interp = c.interpreter();
    for (name, args, message) in cases {
        let trap = c.machine().run(name, &args).expect_err("traps");
        let want = if message.ends_with("division by zero") {
            Trap::DivisionByZero
        } else {
            Trap::WrongType(message.to_string())
        };
        assert_eq!(trap.cause(), &want, "{name} {args:?}");
        let err = interp.call(name, &args).expect_err("signals");
        assert_eq!(err.message, message, "{name} {args:?}");
    }
    assert_eq!(
        c.machine().run("twice", &[fx(big - 1)]).unwrap(),
        fx(2 * (big - 1))
    );
}

/// An operand's code may write a variable that a later operand reads.
/// The bytecode reads a trailing operand that needs no code in place
/// when the op runs, after every leading operand's code, so each engine
/// computes the source-order value: the interpreter's.
#[test]
fn operands_see_the_writes_of_earlier_operands_on_every_engine() {
    const SRC: &str = "(defun sub-after (n) (list (- (progn (setq n 5) n) n)))
(defun sub-before (n) (list (- n (progn (setq n 5) n))))
(defun cons-after (x) (list (cons (setq x 1) x)))
(defun cons-before (x) (list (cons x (setq x 1))))
(defun less-after (n) (if (< (progn (setq n 5) n) n) 'lt 'ge))
(defun eq-after (x) (if (eq (setq x 'a) x) 'same 'differ))
(defun inc-after (n) (list (1+ (progn (setq n 7) n)) n))";
    let cases = [
        ("sub-after", "(0)"),
        ("sub-before", "(5)"),
        ("cons-after", "((1 . 1))"),
        ("cons-before", "((10 . 1))"),
        ("less-after", "ge"),
        ("eq-after", "same"),
        ("inc-after", "(8 7)"),
    ];
    let mut engines = Vec::new();
    for backend in [BackendKind::S1, BackendKind::Bytecode] {
        for full in [true, false] {
            let mut c = if full {
                Compiler::new()
            } else {
                Compiler::unoptimized()
            };
            c.backend = backend;
            c.compile_str(SRC).expect("compiles");
            engines.push((format!("{} full={full}", backend.name()), c));
        }
    }
    // The naive bytecode reads the trailing `n` in place.
    let listing = engines[3].1.disassemble("sub-after").expect("defined");
    assert!(listing.contains("(sub stack (slot 0))"), "{listing}");
    let args = [fx(10)];
    for (name, want) in cases {
        let reference = engines[0].1.interpreter().call(name, &args);
        assert_eq!(
            reference.map(|v| v.to_string()).as_deref(),
            Ok(want),
            "{name}"
        );
        for (engine, c) in &engines {
            let got = match c.backend {
                BackendKind::S1 => c.machine().run(name, &args).map_err(|t| t.to_string()),
                BackendKind::Bytecode => c.evaluator().run(name, &args).map_err(|t| t.message),
            };
            assert_eq!(
                got.map(|v| v.to_string()).as_deref(),
                Ok(want),
                "{name} on {engine}"
            );
        }
    }
}
