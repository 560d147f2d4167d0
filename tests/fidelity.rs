//! Deeper fidelity properties: back-translation round trips, the §4.3
//! anti-thrashing design, and machine-level data round trips under GC.

use s1lisp::{Compiler, Value};
use s1lisp_suite as suite;
use s1lisp_suite::{corpus, fl, fx};
use s1lisp_trace::rng::SplitMix64;

/// §4.1: "the internal tree can always be back-translated into valid
/// source code, equivalent to, though not necessarily identical to, the
/// original source."  We re-read the back-translated *optimized* tree,
/// compile it as a fresh program, and require identical behavior.
#[test]
fn optimized_trees_recompile_from_their_back_translation() {
    let cases: Vec<(&str, &str, Vec<Vec<Value>>)> = vec![
        (
            suite::EXPTL,
            "exptl",
            vec![vec![fx(3), fx(10), fx(1)], vec![fx(2), fx(0), fx(7)]],
        ),
        (
            suite::QUADRATIC,
            "quadratic",
            vec![
                vec![fl(1.0), fl(-3.0), fl(2.0)],
                vec![fl(1.0), fl(0.0), fl(1.0)],
            ],
        ),
        (suite::FIB_ITER, "fib-iter", vec![vec![fx(25)]]),
        (suite::TAK, "tak", vec![vec![fx(10), fx(6), fx(3)]]),
    ];
    for (src, entry, argsets) in cases {
        let mut original = Compiler::new();
        original.compile_str(src).unwrap();
        // Rebuild the program from the back-translation of every
        // function's optimized tree.
        let mut round = Compiler::new();
        for f in &original.functions {
            let redefined = format!(
                "(defun {} {}",
                f.name,
                f.optimized
                    .trim()
                    .strip_prefix("(lambda ")
                    .expect("optimized form is a lambda"),
            );
            round
                .compile_str(&redefined)
                .unwrap_or_else(|e| panic!("round-trip of {} failed: {e}\n{redefined}", f.name));
        }
        let mut m1 = original.machine();
        let mut m2 = round.machine();
        for args in argsets {
            let v1 = m1.run(entry, &args).unwrap();
            let v2 = m2.run(entry, &args).unwrap();
            assert_eq!(v1, v2, "{entry} {args:?}");
        }
    }
}

/// §4.3: separating CSE from the source-level optimizer "avoids the
/// possibility of an endless cycle of introductions and eliminations."
/// Optimize → CSE → optimize again must be a fixpoint: the second
/// optimizer pass must not undo what CSE did.
#[test]
fn cse_and_optimizer_do_not_thrash() {
    let src = "(defun f (a b)
                 (list (+ (* a b) (* b b) 1)
                       (+ (* a b) (* b b) 2)))";
    let mut i = s1lisp_reader::Interner::new();
    let form = s1lisp_reader::read_str(src, &mut i).unwrap();
    let mut fe = s1lisp_frontend::Frontend::new(&mut i);
    let mut f = fe.convert_defun(&form).unwrap();
    let mut opt = s1lisp_opt::Optimizer::new();
    opt.optimize(&mut f.tree);
    let commoned = s1lisp_opt::cse::eliminate(&mut f.tree);
    assert!(commoned >= 1, "CSE found the duplicate");
    let after_cse = s1lisp_ast::unparse(&f.tree, f.tree.root).to_string();
    // A second optimizer run must not reintroduce the duplicates …
    let mut opt2 = s1lisp_opt::Optimizer::new();
    opt2.optimize(&mut f.tree);
    let after_second = s1lisp_ast::unparse(&f.tree, f.tree.root).to_string();
    assert_eq!(
        after_second.matches("(* a b)").count(),
        1,
        "thrash: optimizer undid CSE\nafter cse: {after_cse}\nafter opt: {after_second}"
    );
    // … and a second CSE run finds nothing new.
    assert_eq!(s1lisp_opt::cse::eliminate(&mut f.tree), 0);
}

/// Values survive injection into the machine, garbage collection, and
/// extraction.
#[test]
fn machine_data_round_trips_through_gc() {
    let mut c = Compiler::new();
    c.compile_str("(defun id (x) x) (defun churn (n) (if (zerop n) '() (cons n (churn (- n 1)))))")
        .unwrap();
    let mut m = s1lisp_s1sim::Machine::with_sizes(c.program().clone(), 1 << 16, 2000);
    let keep = Value::list([
        fx(1),
        Value::cons(fl(2.5), Value::Nil),
        Value::list([fx(3), fx(4)]),
    ]);
    let out = m.run("id", std::slice::from_ref(&keep)).unwrap();
    assert_eq!(out, keep);
    // Force collections with garbage churn; previously extracted data is
    // host-side and the machine's constants must survive.
    for _ in 0..50 {
        m.run("churn", &[fx(100)]).unwrap();
    }
    assert!(m.stats.heap.collections > 0);
    let again = m.run("id", std::slice::from_ref(&keep)).unwrap();
    assert_eq!(again, keep);
}

/// A collection triggered while the runtime holds a half-built list
/// (`list`, `list*`, `append`, `reverse`, rest arguments, injected
/// arguments) must not reclaim it.  deriv-bench conses its whole result
/// through `list`; on a small heap it collects mid-build within a few
/// runs.  Each run's result is compared with the interpreter's *inside*
/// the machine, by a compiled walk bounded by the reference tree, so a
/// corrupted or circular result fails the comparison instead of
/// overflowing the host stack on read-back.
#[test]
fn runtime_list_builders_survive_collection() {
    let mut c = Compiler::new();
    c.compile_str(s1lisp_bench::corpus::DERIV).unwrap();
    c.compile_str(
        "(defun same (a b)
           (cond ((consp a)
                  (and (consp b) (same (car a) (car b)) (same (cdr a) (cdr b))))
                 (t (eq a b))))
         (defun check (n x expected) (same (deriv-bench n x) expected))",
    )
    .unwrap();
    let x = Value::from_datum(&s1lisp_reader::read_str("x", &mut c.interner).unwrap());
    let expected = c
        .interpreter()
        .call("deriv-bench", &[fx(20), x.clone()])
        .unwrap();
    let t = Value::from_datum(&s1lisp_reader::read_str("t", &mut c.interner).unwrap());
    let mut m = s1lisp_s1sim::Machine::with_sizes(c.program().clone(), 1 << 16, 4096);
    m.fuel_per_run = 50_000_000;
    for run in 0..40 {
        let got = m.run("check", &[fx(20), x.clone(), expected.clone()]);
        assert_eq!(
            got,
            Ok(t.clone()),
            "run {run} after {} collections",
            m.stats.heap.collections
        );
    }
    assert!(
        m.stats.heap.collections > 3,
        "{} collections",
        m.stats.heap.collections
    );
}

/// inject ∘ extract is the identity on function-free values, even
/// with a heap small enough to collect mid-test.
#[test]
fn inject_extract_identity() {
    let mut rng = SplitMix64::new(0x5115_0009);
    for _case in 0..32 {
        let src = random_value(&mut rng, 3);
        let mut c = Compiler::new();
        c.compile_str("(defun id (x) x)").unwrap();
        let mut m = s1lisp_s1sim::Machine::with_sizes(c.program().clone(), 1 << 16, 4000);
        let mut i = s1lisp_reader::Interner::new();
        let d = s1lisp_reader::read_str(&src, &mut i).unwrap();
        let v = Value::from_datum(&d);
        let out = m.run("id", std::slice::from_ref(&v)).unwrap();
        assert_eq!(out, v, "{src}");
    }
}

fn random_value(rng: &mut SplitMix64, depth: u32) -> String {
    if depth > 0 && rng.below(3) == 0 {
        let n = rng.range_usize(0, 4);
        let items: Vec<String> = (0..n).map(|_| random_value(rng, depth - 1)).collect();
        return format!("({})", items.join(" "));
    }
    match rng.below(6) {
        0 => (rng.next_u64() as i32).to_string(),
        1 => format!("{}", f64::from(rng.range_i64(-1000, 1000) as i32) / 4.0),
        2 => {
            let mut s = String::new();
            s.push(*rng.pick(b"abcdefghijklmnopqrstuvwxyz") as char);
            for _ in 0..rng.range_usize(0, 6) {
                s.push(*rng.pick(b"abcdefghijklmnopqrstuvwxyz0123456789") as char);
            }
            s
        }
        3 => "()".to_string(),
        4 => "\"a string\"".to_string(),
        _ => "#\\q".to_string(),
    }
}

/// The paper's Table 2 claim in reverse: *no* program, however twisty,
/// produces a construct outside the set (differential fuzz over the
/// whole corpus re-parsed from its own back-translation).
#[test]
fn corpus_back_translations_reparse() {
    for (id, src) in corpus() {
        let mut c = Compiler::new();
        c.compile_str(src).unwrap();
        for f in &c.functions {
            let mut i = s1lisp_reader::Interner::new();
            let d = s1lisp_reader::read_str(&f.optimized, &mut i)
                .unwrap_or_else(|e| panic!("{id}/{}: unreadable back-translation: {e}", f.name));
            assert!(d.to_string().starts_with("(lambda"), "{id}/{}: {d}", f.name);
        }
    }
}
