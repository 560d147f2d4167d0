//! Whole-pipeline differential tests: for every corpus program and every
//! compiler configuration, the compiled code on the S-1 simulator must
//! agree with the reference interpreter.

use std::collections::BTreeSet;

use s1lisp::{BackendKind, CodegenOptions, Compiler, OptOptions, Value};
use s1lisp_suite::{build_with, check_agree, corpus, fl, fx};

/// The option grid: full, no source-level optimization, no codegen
/// niceties, and fully naive.
fn configurations() -> Vec<(&'static str, Compiler)> {
    let mut no_opt = Compiler::new();
    no_opt.opt_options = OptOptions::none();
    let mut no_codegen = Compiler::new();
    no_codegen.codegen_options = CodegenOptions {
        tail_calls: false,
        pdl_numbers: false,
        cache_specials: false,
        register_allocation: false,
        representation_analysis: false,
    };
    vec![
        ("full", Compiler::new()),
        ("no-source-opt", no_opt),
        ("no-codegen-opts", no_codegen),
        ("naive", Compiler::unoptimized()),
    ]
}

/// Calls exercised per corpus program (sizes kept within the
/// interpreter's conservative recursion budget).
fn calls_for(id: &str) -> Vec<(&'static str, Vec<Value>)> {
    match id {
        "exptl" => vec![
            ("exptl", vec![fx(3), fx(10), fx(1)]),
            ("exptl", vec![fx(2), fx(30), fx(1)]),
            ("exptl", vec![fx(5), fx(0), fx(1)]),
        ],
        "quadratic" => vec![
            ("quadratic", vec![fl(1.0), fl(-3.0), fl(2.0)]),
            ("quadratic", vec![fl(1.0), fl(0.0), fl(1.0)]),
            ("quadratic", vec![fl(1.0), fl(-2.0), fl(1.0)]),
            ("quadratic", vec![fl(2.0), fl(5.0), fl(-3.0)]),
        ],
        "testfn" => vec![
            ("testfn", vec![fl(1.5)]),
            ("testfn", vec![fl(1.5), fl(2.5)]),
            ("testfn", vec![fl(1.5), fl(2.5), fl(-0.5)]),
            ("testfn", vec![]),
        ],
        "tak" => vec![("tak", vec![fx(12), fx(8), fx(4)])],
        "fib-iter" => vec![
            ("fib-iter", vec![fx(0)]),
            ("fib-iter", vec![fx(1)]),
            ("fib-iter", vec![fx(30)]),
        ],
        "fib" => vec![("fib", vec![fx(12)])],
        "nrev" => vec![("my-reverse", vec![Value::list((0..20).map(fx))])],
        "horner" => vec![
            (
                "horner",
                vec![fl(2.0), fl(1.0), fl(-2.0), fl(3.0), fl(-4.0)],
            ),
            ("horner", vec![fl(0.0), fl(1.0), fl(1.0), fl(1.0), fl(1.0)]),
            // Wrong type: both engines must reject.
            ("horner", vec![fx(2), fl(1.0), fl(-2.0), fl(3.0), fl(-4.0)]),
        ],
        "counter" => vec![("count-3", vec![])],
        "specials" => vec![("accumulate", vec![fx(50)])],
        _ => vec![],
    }
}

#[test]
fn corpus_agrees_across_all_configurations() {
    for (cfg_name, compiler) in configurations() {
        for (id, src) in corpus() {
            let (mut m, interp) = build_with(src, clone_compiler(&compiler));
            if id == "specials" {
                interp.set_global("*step*", fx(3));
                m.set_global("*step*", &fx(3)).unwrap();
            }
            for (name, args) in calls_for(id) {
                check_agree(&mut m, &interp, name, &args);
            }
            let _ = cfg_name;
        }
    }
}

/// `Compiler` intentionally has no `Clone` (it owns interner state); the
/// grid rebuilds from options instead.
fn clone_compiler(c: &Compiler) -> Compiler {
    let mut fresh = Compiler::new();
    fresh.opt_options = c.opt_options.clone();
    fresh.codegen_options = c.codegen_options.clone();
    fresh.tension_branches = c.tension_branches;
    fresh
}

/// The artifact cache keys on `options_fingerprint()`, so every switch
/// that shapes emitted code must salt it: flipping any one alone gives
/// a key of its own, distinct from the default's and from every other
/// flip's.
#[test]
fn every_code_shaping_switch_salts_the_fingerprint() {
    let flipped = |flip: fn(&mut Compiler)| {
        let mut c = Compiler::new();
        flip(&mut c);
        c.options_fingerprint()
    };
    let flips = [
        (
            "tail_calls",
            flipped(|c| c.codegen_options.tail_calls ^= true),
        ),
        (
            "pdl_numbers",
            flipped(|c| c.codegen_options.pdl_numbers ^= true),
        ),
        (
            "cache_specials",
            flipped(|c| c.codegen_options.cache_specials ^= true),
        ),
        (
            "register_allocation",
            flipped(|c| c.codegen_options.register_allocation ^= true),
        ),
        (
            "representation_analysis",
            flipped(|c| c.codegen_options.representation_analysis ^= true),
        ),
        ("tension_branches", flipped(|c| c.tension_branches ^= true)),
        ("unroll", flipped(|c| c.opt_options.unroll ^= true)),
        ("max_rounds", flipped(|c| c.opt_options.max_rounds += 1)),
        ("backend", flipped(|c| c.backend = BackendKind::Bytecode)),
    ];
    let base = Compiler::new().options_fingerprint();
    let mut seen = BTreeSet::from([base]);
    for (name, fp) in flips {
        assert_ne!(fp, base, "{name} does not salt the fingerprint");
        assert!(seen.insert(fp), "{name} collides with another switch");
    }
}

#[test]
fn multi_function_programs_link_late() {
    // g is compiled after f but f calls it: late binding must resolve.
    let mut c = Compiler::new();
    c.compile_str("(defun f (x) (g (+ x 1)))").unwrap();
    let mut m = c.machine();
    assert!(m.run("f", &[fx(1)]).is_err(), "g is undefined so far");
    c.compile_str("(defun g (x) (* x 10))").unwrap();
    let mut m = c.machine();
    assert_eq!(m.run("f", &[fx(1)]).unwrap(), fx(20));
}

#[test]
fn quoted_literals_keep_their_identity_on_both_engines() {
    // A quoted list is one object, as an S-1 heap constant is: two
    // evaluations of the same literal are `eq`, and a destructive
    // update through one is seen by the next, on either engine.
    let src = "(defun lit () '(a b))
               (defun same () (eq (lit) (lit)))
               (defun poke () (rplaca (lit) 'z))
               (defun peek () (car (lit)))
               (defun poke-then-peek () (poke) (peek))";
    for backend in [BackendKind::S1, BackendKind::Bytecode] {
        let mut c = Compiler::new();
        c.backend = backend;
        c.compile_str(src).unwrap();
        assert_eq!(c.run_printed("same", &[], 10_000), "t", "{backend:?}");
        assert_eq!(
            c.run_printed("poke-then-peek", &[], 10_000),
            "z",
            "{backend:?}"
        );
    }
}

#[test]
fn random_arithmetic_agrees() {
    use s1lisp_trace::rng::SplitMix64;
    let mut rng = SplitMix64::new(0x0005_115b);
    let (mut m, interp) = s1lisp_suite::build(
        "(defun poly (a b c x) (+ (* a x x) (* b x) c))
         (defun fpoly (a b c x)
           (declare (flonum a b c x))
           (+$f (*$f a x x) (*$f b x) c))",
    );
    for _ in 0..50 {
        let args: Vec<Value> = (0..4).map(|_| fx(rng.range_i64(-50, 50))).collect();
        check_agree(&mut m, &interp, "poly", &args);
        let fargs: Vec<Value> = (0..4)
            .map(|_| fl(f64::from(rng.range_i64(-500, 500) as i32) / 10.0))
            .collect();
        check_agree(&mut m, &interp, "fpoly", &fargs);
    }
}

#[test]
fn wrong_arity_traps_everywhere() {
    let (mut m, interp) = s1lisp_suite::build("(defun f (a b) (+ a b))");
    for args in [vec![], vec![fx(1)], vec![fx(1), fx(2), fx(3)]] {
        let g = m.run("f", &args);
        let w = interp.call("f", &args);
        assert_eq!(g.is_err(), w.is_err(), "{args:?}");
    }
}

#[test]
fn stats_expose_the_headline_behaviours() {
    // Tail recursion: constant frames (E4's compiled half).
    let (mut m, _) = s1lisp_suite::build("(defun loopn (n) (if (= n 0) 'done (loopn (- n 1))))");
    m.run("loopn", &[fx(100_000)]).unwrap();
    assert_eq!(m.stats.max_call_depth, 0);
    assert_eq!(m.stats.tail_calls, 100_000);
}

/// On either backend, a traced compile records a span for exactly the
/// Table-1 rows its enabled passes claim, plus Preliminary: every
/// claimed row runs under its own span, and no span names a row the
/// schedule does not claim.
#[test]
fn traced_spans_are_exactly_the_rows_of_the_enabled_passes() {
    for backend in [BackendKind::S1, BackendKind::Bytecode] {
        let mut c = Compiler::new();
        c.backend = backend;
        c.guard = true;
        c.enable_trace();
        for (id, src) in corpus() {
            c.compile_str(src)
                .unwrap_or_else(|e| panic!("{id} on {backend:?}: {e}"));
        }
        let mut want: BTreeSet<&str> = c
            .pipeline()
            .into_iter()
            .filter(|&(_, enabled)| enabled)
            .flat_map(|(pass, _)| pass.table1().iter().copied())
            .collect();
        want.insert("Preliminary");
        let got: BTreeSet<&str> = c.trace().unwrap().spans().iter().map(|r| r.phase).collect();
        assert_eq!(got, want, "{backend:?}");
    }
}
