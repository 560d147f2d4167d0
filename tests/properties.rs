//! Property-based tests over the whole toolchain.
//!
//! Random programs are generated as source *text* from a small grammar,
//! then pushed through reader → frontend → optimizer → codegen →
//! simulator, with the reference interpreter as oracle at every level.

use s1lisp::{Compiler, Value};
use s1lisp_reader::{read_str, Interner};
use s1lisp_trace::rng::SplitMix64;

// ---------------------------------------------------------------- reader

/// print ∘ read is the identity on printed form (read-print
/// round-trip stability).
#[test]
fn reader_round_trips() {
    let mut rng = SplitMix64::new(0x5115_0006);
    for _case in 0..256 {
        let src = random_datum(&mut rng, 3);
        let mut i = Interner::new();
        let d1 = read_str(&src, &mut i).unwrap();
        let printed = d1.to_string();
        let d2 = read_str(&printed, &mut i).unwrap();
        assert!(d2.equal(&d1), "{src} → {printed}");
        assert_eq!(d2.to_string(), printed);
    }
}

/// Random datum source text.
fn random_datum(rng: &mut SplitMix64, depth: u32) -> String {
    if depth > 0 && rng.below(3) == 0 {
        let n = rng.range_usize(0, 4);
        let items: Vec<String> = (0..n).map(|_| random_datum(rng, depth - 1)).collect();
        return format!("({})", items.join(" "));
    }
    match rng.below(5) {
        0 => (rng.next_u64() as i32).to_string(),
        1 => format!("{}", f64::from(rng.range_i64(-1000, 1000) as i32) / 8.0),
        2 => {
            let mut s = String::new();
            s.push(*rng.pick(b"abcdefghijklmnopqrstuvwxyz") as char);
            for _ in 0..rng.range_usize(0, 7) {
                s.push(*rng.pick(b"abcdefghijklmnopqrstuvwxyz0123456789-") as char);
            }
            s
        }
        3 => "()".to_string(),
        _ => "\"str\"".to_string(),
    }
}

// ------------------------------------------------------------- pipeline

/// A random arithmetic/control expression over fixnum variables a, b, c
/// — including nonlocal exits (`catch`/`throw`, `prog`/`return`), so the
/// differential fuzz exercises the catcher and progbody paths.
fn random_expr(rng: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(2) {
            0 => rng.range_i64(-20, 20).to_string(),
            _ => (*rng.pick(&["a", "b", "c"])).to_string(),
        };
    }
    match rng.below(9) {
        0 => format!(
            "(+ {} {})",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
        1 => format!(
            "(- {} {})",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
        2 => format!(
            "(* {} {})",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
        3 => format!(
            "(if (< {} 3) {} {})",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
        4 => format!(
            "(let ((tmp {})) (+ tmp {}))",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
        5 => format!(
            "(if (and (< {} {y}) (oddp {y})) 1 0)",
            random_expr(rng, depth - 1),
            y = random_expr(rng, depth - 1)
        ),
        6 => format!(
            "(car (cons {} {}))",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
        7 => format!(
            "(catch 'esc (if (< {} 0) (throw 'esc {}) {}))",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
        _ => format!(
            "(prog (acc) (setq acc {}) (if (< acc {}) (return {})) (return (+ acc {})))",
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1),
            random_expr(rng, depth - 1)
        ),
    }
}

/// Compiled code and the interpreter agree on random expressions —
/// and the optimizer preserves that agreement.
#[test]
fn compiled_matches_interpreted() {
    let mut rng = SplitMix64::new(0x5115_0007);
    for _case in 0..64 {
        let body = random_expr(&mut rng, 3);
        let (a, b, c) = (
            rng.range_i64(-10, 10),
            rng.range_i64(-10, 10),
            rng.range_i64(-10, 10),
        );
        let src = format!("(defun f (a b c) {body})");
        let args = [Value::Fixnum(a), Value::Fixnum(b), Value::Fixnum(c)];
        for compiler in [Compiler::new(), Compiler::unoptimized()] {
            let mut comp = compiler;
            comp.compile_str(&src).unwrap();
            let interp = comp.interpreter();
            let mut m = comp.machine();
            let got = m.run("f", &args);
            let want = interp.call("f", &args);
            match (&want, &got) {
                (Ok(w), Ok(g)) => assert_eq!(g, w, "{src} {args:?}"),
                (Err(_), Err(_)) => {}
                _ => panic!("divergence on {src}: {want:?} vs {got:?}"),
            }
        }
    }
}

/// The two backends agree on random programs: the S-1 simulator and
/// the bytecode evaluator compute the same value (or both trap) for
/// every seeded case — including the grammar's nonlocal exits
/// (`catch`/`throw`, `prog`/`return`).  Each case draws its own seed,
/// printed on failure, so a divergence replays with
/// `SplitMix64::new(seed)` alone.
#[test]
fn backends_agree_on_random_programs() {
    use s1lisp::BackendKind;
    const FUEL: u64 = 1_000_000;
    let mut seeder = SplitMix64::new(0x5115_000d);
    for _case in 0..64 {
        let seed = seeder.next_u64();
        let mut rng = SplitMix64::new(seed);
        let body = random_expr(&mut rng, 3);
        let (a, b, c) = (
            rng.range_i64(-10, 10),
            rng.range_i64(-10, 10),
            rng.range_i64(-10, 10),
        );
        let src = format!("(defun f (a b c) {body})");
        let args = [Value::Fixnum(a), Value::Fixnum(b), Value::Fixnum(c)];

        let mut s1 = Compiler::new();
        s1.compile_str(&src).unwrap();
        let mut m = s1.machine();
        m.fuel_per_run = FUEL;
        let s1_r = m.run("f", &args);

        let mut bc = Compiler::new();
        bc.backend = BackendKind::Bytecode;
        bc.compile_str(&src).unwrap();
        let mut e = bc.evaluator();
        e.fuel_per_run = FUEL;
        let bc_r = e.run("f", &args);

        match (&s1_r, &bc_r) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "seed {seed:#x}: {src} {args:?}"),
            // Both trapping is agreement: trap wording and fuel
            // metering are backend-specific.
            (Err(_), Err(_)) => {}
            _ => panic!(
                "seed {seed:#x}: backends diverged on {src} {args:?}: \
                 s1 {s1_r:?} vs bytecode {bc_r:?}"
            ),
        }
    }
}

/// The optimizer never changes what a program denotes: optimized and
/// unoptimized *interpretations* agree (no simulator involved).  The
/// guarded optimizer, which checks Table-2 well-formedness between
/// rounds, rewrites exactly as the unguarded one does.
#[test]
fn optimizer_preserves_interpretation() {
    let mut rng = SplitMix64::new(0x5115_0008);
    for _case in 0..48 {
        let body = random_expr(&mut rng, 3);
        let (a, b) = (rng.range_i64(-10, 10), rng.range_i64(-10, 10));
        let src = format!("(defun f (a b c) {body})");
        let args = [Value::Fixnum(a), Value::Fixnum(b), Value::Fixnum(3)];
        let mut opt = Compiler::new();
        opt.compile_str(&src).unwrap();
        let mut guarded = Compiler::new();
        guarded.guard = true;
        guarded.compile_str(&src).unwrap();
        let (u, g) = (opt.function("f").unwrap(), guarded.function("f").unwrap());
        assert_eq!(g.transcript.entries, u.transcript.entries, "{src}");
        assert_eq!(g.optimized, u.optimized, "{src}");
        let mut plain = Compiler::unoptimized();
        plain.compile_str(&src).unwrap();
        let i1 = opt.interpreter(); // interprets the optimized tree
        let i2 = plain.interpreter(); // interprets the original tree
        let r1 = i1.call("f", &args);
        let r2 = i2.call("f", &args);
        match (&r1, &r2) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "{src}"),
            (Err(_), Err(_)) => {}
            _ => panic!("optimizer changed semantics of {src}: {r1:?} vs {r2:?}"),
        }
    }
}

// ---------------------------------------------------- pass commutation

/// The four analysis passes are pure observers of the tree: any
/// permutation of their schedule slots produces byte-identical
/// artifacts (assembly, back-translated sources, transcripts,
/// transformation counts) over a seeded fuzz corpus.
#[test]
fn analysis_passes_commute_under_any_permutation() {
    const QUARTET: [&str; 4] = [
        "Environment analysis",
        "Side-effects analysis",
        "Complexity analysis",
        "Tail-recursion analysis",
    ];

    fn permutations(items: &[&'static str]) -> Vec<Vec<&'static str>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for (i, &head) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut tail in permutations(&rest) {
                tail.insert(0, head);
                out.push(tail);
            }
        }
        out
    }

    let mut rng = SplitMix64::new(0x5115_000c);
    let programs: Vec<String> = (0..8)
        .map(|k| format!("(defun p{k} (a b c) {})", random_expr(&mut rng, 3)))
        .collect();

    // Compile the corpus through a pipeline with the quartet in the
    // given order and render every artifact the compiler records.
    let compile_with = |order: &[&'static str]| -> String {
        let mut c = Compiler::new();
        let mut pipeline = c.pipeline();
        assert!(pipeline.permute(order), "{order:?} did not resolve");
        let mut out = String::new();
        for src in &programs {
            for p in c.convert_str(src).unwrap() {
                let name = c.compile_pending_with(p, &pipeline).unwrap();
                out.push_str(&c.disassemble(&name).unwrap());
            }
        }
        for f in &c.functions {
            out.push_str(&f.converted);
            out.push_str(&f.optimized);
            out.push_str(&format!("{}{:?}", f.transformations, f.transcript));
        }
        out
    };

    let baseline = compile_with(&QUARTET);
    for order in permutations(&QUARTET) {
        assert_eq!(baseline, compile_with(&order), "{order:?} diverged");
    }
}

/// The compilation service is scheduling-invariant on random programs:
/// serial and parallel batches agree byte for byte, and each hermetic
/// job matches a classic single-function compile of the same form.
#[test]
fn driver_batches_are_jobs_invariant_on_random_programs() {
    use s1lisp_driver::{CompileService, ServiceConfig, SourceUnit};

    let mut rng = SplitMix64::new(0x5115_0009);
    for _round in 0..6 {
        let n = rng.range_usize(3, 8);
        let defuns: Vec<String> = (0..n)
            .map(|k| format!("(defun f{k} (a b c) {})", random_expr(&mut rng, 3)))
            .collect();
        let units = [SourceUnit::new("fuzz", defuns.join("\n"))];
        let serial = CompileService::new(ServiceConfig::with_jobs(1)).compile_batch(&units);
        let parallel = CompileService::new(ServiceConfig::with_jobs(4)).compile_batch(&units);
        assert!(serial.failures.is_empty(), "{:?}", serial.failures);
        assert_eq!(
            serial.render_artifacts(),
            parallel.render_artifacts(),
            "{units:?}"
        );
        // Hermetic jobs: the service's artifact for each function is the
        // classic compiler's output for that defun compiled alone.
        for (k, d) in defuns.iter().enumerate() {
            let mut classic = Compiler::new();
            classic.compile_str(d).unwrap();
            let name = format!("f{k}");
            assert_eq!(
                serial.artifact(&name).unwrap().assembly,
                classic.disassemble(&name).unwrap(),
                "{d}"
            );
        }
    }
}

/// Seeded fault storms never lose work and never perturb bystanders:
/// for random `FaultPlan` seeds arming phase panics across the corpus,
/// every batch still completes with zero failures, and every function
/// the storm did *not* touch is byte-identical to the clean baseline.
#[test]
fn driver_fault_storms_leave_untouched_functions_byte_identical() {
    use s1lisp_driver::{CompileService, FaultPlan, FaultSite, ServiceConfig};

    let units = s1lisp_bench::service_units();
    let baseline = CompileService::new(ServiceConfig::with_jobs(2)).compile_batch(&units);
    assert!(baseline.failures.is_empty(), "{:?}", baseline.failures);

    // The injected panics are the subject; keep their backtraces quiet.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut rng = SplitMix64::new(0x5115_000b);
    for _round in 0..4 {
        let seed = rng.next_u64();
        let cfg = ServiceConfig {
            jobs: 4,
            guard: true,
            fault_plan: Some(FaultPlan::new(seed).arm(FaultSite::PhasePanic, 35)),
            ..ServiceConfig::default()
        };
        let batch = CompileService::new(cfg).compile_batch(&units);
        assert!(
            batch.failures.is_empty(),
            "seed {seed}: {:?}",
            batch.failures
        );
        assert_eq!(
            batch.artifacts.len(),
            baseline.artifacts.len(),
            "seed {seed}"
        );
        assert!(
            batch.incidents.iter().all(|i| i.recovered),
            "seed {seed}: {:?}",
            batch.incidents
        );
        assert!(batch.guard.as_ref().is_some_and(|g| g.contained));
        let hit: std::collections::HashSet<&str> = batch
            .incidents
            .iter()
            .map(|i| i.function.as_str())
            .collect();
        for a in &batch.artifacts {
            if hit.contains(a.name.as_str()) {
                continue;
            }
            let clean = baseline.artifact(&a.name).unwrap();
            assert_eq!(a.dossier, clean.dossier, "seed {seed}: {}", a.name);
            assert!(!a.degraded, "seed {seed}: {}", a.name);
        }
    }
    std::panic::set_hook(prev);
}

// ------------------------------------------------------------ GC stress

#[test]
fn gc_preserves_live_structure_under_pressure() {
    // A tiny heap forces many collections while building and walking
    // lists; results must still match the interpreter.
    let src = "(defun build (n) (if (zerop n) '() (cons n (build (- n 1)))))
               (defun total (l) (if (null l) 0 (+ (car l) (total (cdr l)))))
               (defun churn (n reps)
                 (prog (acc)
                   (setq acc 0)
                   top
                   (if (zerop reps) (return acc))
                   (setq acc (+ acc (total (build n))))
                   (setq reps (- reps 1))
                   (go top)))";
    let mut c = Compiler::new();
    c.compile_str(src).unwrap();
    let mut m = s1lisp_s1sim::Machine::with_sizes(c.program().clone(), 1 << 16, 700);
    let v = m
        .run("churn", &[Value::Fixnum(30), Value::Fixnum(200)])
        .unwrap();
    // 200 × (30·31/2) = 93 000.
    assert_eq!(v, Value::Fixnum(93_000));
    assert!(
        m.stats.heap.collections > 3,
        "expected GC pressure, got {} collections",
        m.stats.heap.collections
    );
}

#[test]
fn heap_exhaustion_is_a_clean_trap() {
    let src = "(defun keep (n acc) (if (zerop n) acc (keep (- n 1) (cons n acc))))";
    let mut c = Compiler::new();
    c.compile_str(src).unwrap();
    let mut m = s1lisp_s1sim::Machine::with_sizes(c.program().clone(), 1 << 16, 256);
    let r = m.run("keep", &[Value::Fixnum(10_000), Value::Nil]);
    let err = r.unwrap_err();
    assert!(matches!(err.cause(), s1lisp_s1sim::Trap::HeapExhausted));
    // The trap names its source: the faulting function and PC.
    assert_eq!(err.site().map(|(f, _)| f), Some("keep"));
}
