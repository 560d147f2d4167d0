//! Property-based tests over the whole toolchain.
//!
//! Random programs are generated as source *text* from a small grammar,
//! then pushed through reader → frontend → optimizer → codegen →
//! simulator, with the reference interpreter as oracle at every level.

use std::collections::{BTreeSet, HashSet};

use s1lisp::{Compiler, Value};
use s1lisp_analysis::{complexity, effects, environment};
use s1lisp_ast::{subtree_nodes, NodeId, NodeKind, Tree, VarId};
use s1lisp_frontend::Frontend;
use s1lisp_opt::{OptOptions, Optimizer};
use s1lisp_reader::{read_all_str, read_str, Interner};
use s1lisp_suite::{COLLATZ, CTAK, DESTRUCTIVE, DIV2, FLATTEN, STAK, TRIANGLE};
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
/// differential fuzz exercises the catcher and progbody paths.  One leaf
/// in eight is a constant at or next to the fixnum bounds, so overflow
/// traps are drawn too.
fn random_expr(rng: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(8) {
            0 => rng
                .pick(&[i64::MIN, i64::MIN + 1, i64::MAX, -1, 0])
                .to_string(),
            1..=3 => rng.range_i64(-20, 20).to_string(),
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

/// An S-1 trap as the interpreter words the same error: a `WrongType`
/// carries the interpreter's message, and a `DivisionByZero` none.
fn machine_error(t: &s1lisp::Trap) -> String {
    match t.cause() {
        s1lisp::Trap::WrongType(m) => m.clone(),
        other => other.to_string(),
    }
}

/// An interpreter's error message, with the operator a division by zero
/// names dropped, as [`machine_error`] has none to give.
fn lisp_error(message: &str) -> String {
    match message.strip_suffix(": division by zero") {
        Some(_) => "division by zero".to_string(),
        None => message.to_string(),
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
                (Err(w), Err(g)) => {
                    assert_eq!(machine_error(g), lisp_error(&w.message), "{src} {args:?}")
                }
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
            (Err(x), Err(y)) => assert_eq!(
                machine_error(x),
                lisp_error(y.message.strip_prefix("lisp error: ").unwrap_or(&y.message)),
                "seed {seed:#x}: {src} {args:?}"
            ),
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
            (Err(x), Err(y)) => assert_eq!(x.message, y.message, "{src}"),
            _ => panic!("optimizer changed semantics of {src}: {r1:?} vs {r2:?}"),
        }
    }
}

// -------------------------------------------------- environment analysis

/// The free variables of `lambda` by definition, computed without the
/// analysis: the non-special variables referenced or assigned inside it
/// whose binding lambda lies outside it.
fn reference_free_vars(tree: &Tree, lambda: NodeId) -> BTreeSet<VarId> {
    let inside: HashSet<NodeId> = subtree_nodes(tree, lambda).into_iter().collect();
    inside
        .iter()
        .filter_map(|&n| match tree.kind(n) {
            NodeKind::VarRef(v) | NodeKind::Setq { var: v, .. } => Some(*v),
            _ => None,
        })
        .filter(|&v| {
            let var = tree.var(v);
            !var.special && !var.binder.is_some_and(|b| inside.contains(&b))
        })
        .collect()
}

/// For each function `src` defines, compiled by `c`: the names of each
/// lambda's free variables as `environment` finds them, lambdas in
/// preorder, after checking every set against [`reference_free_vars`].
fn checked_free_vars(src: &str, mut c: Compiler) -> Vec<Vec<Vec<String>>> {
    c.compile_str(src)
        .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let mut out = Vec::new();
    for f in &c.functions {
        let tree = &f.tree;
        let names = |set: &BTreeSet<VarId>| -> Vec<String> {
            set.iter()
                .map(|&v| tree.var(v).name.as_str().to_string())
                .collect()
        };
        let env = environment(tree);
        let mut lambdas = Vec::new();
        for l in subtree_nodes(tree, tree.root) {
            if !matches!(tree.kind(l), NodeKind::Lambda(_)) {
                continue;
            }
            let got: BTreeSet<VarId> = env.free_of(l).iter().copied().collect();
            let want = reference_free_vars(tree, l);
            let (got_names, want_names) = (names(&got), names(&want));
            assert!(
                got == want,
                "{}: {got_names:?} vs {want_names:?} in {src}",
                f.name
            );
            lambdas.push(got_names);
        }
        out.push(lambdas);
    }
    out
}

/// Environment analysis's free-variable sets — what binding annotation
/// reads to decide which variables closures capture — agree with their
/// definition for every lambda of the corpus, the Gabriel kernels and a
/// set of closure probes, both as converted and as optimized.
#[test]
fn free_variables_match_their_definition() {
    let probes = [
        "(defun make-adder (n) (lambda (x) (+ x n)))",
        "(defun f () (lambda () *level*))",
        "(defun make-add (a) (lambda (b) (lambda (c) (+ a b c))))
         (defun run (x y z) (funcall (funcall (make-add x) y) z))",
        "(defun make-pair ()
           (let ((n 0))
             (cons (lambda () (setq n (+ n 1)) n)
                   (lambda () n))))",
        "(defun make-getters (n)
           (prog (acc)
             top
             (if (zerop n) (return acc))
             (setq acc (cons (lambda () n) acc))
             (setq n (- n 1))
             (go top)))",
        "(proclaim '(special *scale*))
         (defun scaled (x) (* x *scale*))
         (defun with-scale (*scale* f x) (funcall f x))
         (defun run (x) (with-scale 10 #'scaled x))",
        "(defun all-constructs (x)
           (catch 'tag
             (prog (acc)
               top
               (setq acc (caseq x ((1) 'one) (t 'other)))
               (if (null acc) (go top))
               (return (progn (frotz (lambda () x)) acc)))))",
        s1lisp_bench::corpus::CLOSURES,
    ];
    let gabriel = [STAK, CTAK, DIV2, DESTRUCTIVE, TRIANGLE, FLATTEN, COLLATZ];
    let sources = s1lisp_suite::corpus()
        .into_iter()
        .map(|(_, src)| src)
        .chain(gabriel)
        .chain(probes);
    let mut closing = 0;
    for src in sources {
        for c in [Compiler::unoptimized(), Compiler::new()] {
            let sets = checked_free_vars(src, c);
            closing += sets.iter().flatten().filter(|s| !s.is_empty()).count();
        }
    }
    // The sweep is not vacuous: some lambdas close over variables.
    assert!(closing >= 10, "{closing} closing lambdas");
    // A closure over a parameter captures exactly it, and the defun
    // around it is closed; a closure that reads only a special
    // variable captures nothing, since specials are looked up
    // dynamically.
    let adder = checked_free_vars(probes[0], Compiler::unoptimized());
    assert_eq!(adder, [vec![vec![], vec!["n".to_string()]]]);
    let special = checked_free_vars(probes[1], Compiler::unoptimized());
    assert_eq!(special, [vec![Vec::<String>::new(), vec![]]]);
}

// ------------------------------------------------ incremental optimizer

/// The oracle the incremental optimizer is checked against: before
/// every rewrite, rebuild the backlinks, analyse the whole tree, and
/// apply the first rule that fits in preorder, canonicalizing rules
/// before beta rules.  Returns the number of rewrites.
fn full_rescan(opt: &mut Optimizer, tree: &mut Tree) -> usize {
    let mut applied = 0;
    while applied < opt.options.max_rounds {
        tree.rebuild_backlinks();
        let (fx, sizes) = (effects(tree), complexity(tree));
        let order = subtree_nodes(tree, tree.root);
        if !order.iter().any(|&n| opt.canonical_at(tree, n))
            && !order.iter().any(|&n| opt.beta_at(tree, n, &fx, &sizes))
        {
            break;
        }
        applied += 1;
    }
    tree.rebuild_backlinks();
    applied
}

/// Optimizes every function of `src` with [`Optimizer::fixpoint`] and
/// with [`full_rescan`] — plain, then unrolling by the function's own
/// name under the guard — and requires the same count, the same
/// transcript and the same final tree (every node, variable and
/// backlink, detached nodes included).
fn assert_incremental_matches_full_rescan(src: &str) {
    let mut i = Interner::new();
    let forms = read_all_str(src, &mut i).unwrap();
    let functions = Frontend::new(&mut i).convert_toplevel(&forms).unwrap();
    for f in functions {
        let name = f.name.as_str();
        for (unroll, guard) in [(false, false), (true, true)] {
            let options = OptOptions {
                unroll,
                ..OptOptions::default()
            };
            let mut fast_tree = f.tree.clone();
            let mut fast = Optimizer::with_options(options.clone());
            let applied = fast
                .fixpoint(&mut fast_tree, Some(name), guard)
                .unwrap_or_else(|e| panic!("{name}: {e}\n{src}"));

            // The unroll stage alone, then the reference rounds.
            let mut slow_tree = f.tree.clone();
            let mut slow = Optimizer::with_options(OptOptions {
                max_rounds: 0,
                ..options.clone()
            });
            let unrolled = slow.fixpoint(&mut slow_tree, Some(name), false).unwrap();
            slow.options.max_rounds = options.max_rounds;
            let rounds = full_rescan(&mut slow, &mut slow_tree);

            assert_eq!(
                fast.transcript.entries, slow.transcript.entries,
                "{name} (unroll {unroll}): {src}"
            );
            assert_eq!(applied, unrolled + rounds, "{name}: {src}");
            assert_eq!(
                format!("{fast_tree:?}"),
                format!("{slow_tree:?}"),
                "{name} (unroll {unroll}): {src}"
            );
        }
    }
}

/// [`random_expr`] plus what stresses the optimizer's invalidation:
/// assignments to the parameters, dead arms that assign them (deleting
/// the arm makes the parameter immutable again, far from where its
/// references sit), lets of a parameter tested by an inner `if`, and
/// self-calls for the unroller.  Kept apart from `random_expr` so the
/// other properties' seeded programs stay as they are.
fn random_assigning_expr(rng: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 {
        return random_expr(rng, 0);
    }
    let p = *rng.pick(&["a", "b", "c"]);
    let d = depth - 1;
    match rng.below(8) {
        0 => format!(
            "(progn (setq {p} {}) {})",
            random_assigning_expr(rng, d),
            random_assigning_expr(rng, d)
        ),
        1 => format!(
            "(if '() (setq {p} {}) {})",
            random_assigning_expr(rng, d),
            random_assigning_expr(rng, d)
        ),
        2 => format!(
            "(let ((k '())) (progn (if k (setq {p} {}) '()) {}))",
            random_assigning_expr(rng, d),
            random_assigning_expr(rng, d)
        ),
        3 => format!(
            "(let ((v {p})) (if v (+ v {}) (if v 1 {})))",
            random_assigning_expr(rng, d),
            random_assigning_expr(rng, d)
        ),
        4 => format!(
            "(if (< {} 0) {p} (f {} {p} {}))",
            random_assigning_expr(rng, d),
            random_assigning_expr(rng, d),
            random_assigning_expr(rng, d)
        ),
        5 => format!(
            "(let ((tmp {})) (+ tmp {}))",
            random_assigning_expr(rng, d),
            random_assigning_expr(rng, d)
        ),
        _ => random_expr(rng, depth),
    }
}

/// The incremental fixpoint driver rewrites exactly as a full rescan
/// with full re-analysis before every rewrite would: on every corpus
/// program, on the fuzz grammar, and on its assigning extension.
#[test]
fn incremental_optimizer_matches_full_rescan() {
    use s1lisp_bench::corpus as bench;
    for (_, src) in s1lisp_suite::corpus() {
        assert_incremental_matches_full_rescan(src);
    }
    for src in [
        bench::EXPTL,
        bench::LOOPN,
        bench::TESTFN,
        bench::QUADRATIC,
        bench::TAK,
        bench::FIB_ITER,
        bench::HORNER_LOOP,
        bench::PDL_KERNEL,
        bench::SPECIALS_LOOP,
        bench::CLOSURES,
        bench::DOT,
        bench::QUADRATIC_TYPED,
        bench::DERIV,
        bench::HORNER_INLINE,
        bench::GC_STRESS,
        bench::EXPTL_TYPED,
    ] {
        assert_incremental_matches_full_rescan(src);
    }
    let mut rng = SplitMix64::new(0x5115_0015);
    for _case in 0..48 {
        let body = random_expr(&mut rng, 4);
        assert_incremental_matches_full_rescan(&format!("(defun f (a b c) {body})"));
    }
    for _case in 0..96 {
        let depth = rng.range_usize(2, 5) as u32;
        let body = random_assigning_expr(&mut rng, depth);
        assert_incremental_matches_full_rescan(&format!("(defun f (a b c) {body})"));
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

// ------------------------------------------------------------- printer

/// The reference the one-walk printer is checked against: the
/// Datum-building back-translator and the quadratic layout that
/// re-renders every subtree at every depth, as they were before both
/// wrote text straight through `s1lisp_reader::Printer`.
mod reference_printer {
    use s1lisp_ast::{CallFunc, DeclaredType, Lambda, NodeId, NodeKind, ProgItem, Tree};
    use s1lisp_reader::{Datum, Interner, Symbol};

    /// Back-translates into a source datum.
    pub fn unparse(tree: &Tree, id: NodeId, declares: bool) -> Datum {
        let mut u = Unparser {
            tree,
            declares,
            interner: Interner::new(),
        };
        u.node(id)
    }

    struct Unparser<'a> {
        tree: &'a Tree,
        declares: bool,
        interner: Interner,
    }

    impl Unparser<'_> {
        fn sym(&self, name: &Symbol) -> Datum {
            Datum::Sym(name.clone())
        }

        fn word(&mut self, s: &str) -> Datum {
            Datum::Sym(self.interner.intern(s))
        }

        fn node(&mut self, id: NodeId) -> Datum {
            match self.tree.kind(id) {
                NodeKind::Constant(d) => {
                    // All constants are internally explicitly quoted for
                    // uniformity; we keep the quote so the output is exact.
                    Datum::list([self.word("quote"), d.clone()])
                }
                NodeKind::VarRef(v) => self.sym(&self.tree.var(*v).name),
                NodeKind::Setq { var, value } => Datum::list([
                    self.word("setq"),
                    self.sym(&self.tree.var(*var).name),
                    self.node(*value),
                ]),
                NodeKind::If { test, then, els } => Datum::list([
                    self.word("if"),
                    self.node(*test),
                    self.node(*then),
                    self.node(*els),
                ]),
                NodeKind::Progn(body) => {
                    let mut items = vec![self.word("progn")];
                    items.extend(body.iter().map(|&b| self.node(b)));
                    Datum::list(items)
                }
                NodeKind::Call { func, args } => {
                    let head = match func {
                        CallFunc::Global(g) => self.sym(g),
                        CallFunc::Expr(e) => self.node(*e),
                    };
                    let mut items = vec![head];
                    items.extend(args.iter().map(|&a| self.node(a)));
                    Datum::list(items)
                }
                NodeKind::Lambda(l) => {
                    let mut params: Vec<Datum> = l
                        .required
                        .iter()
                        .map(|v| self.sym(&self.tree.var(*v).name))
                        .collect();
                    if !l.optional.is_empty() {
                        params.push(self.word("&optional"));
                        for o in &l.optional {
                            params.push(Datum::list([
                                self.sym(&self.tree.var(o.var).name),
                                self.node(o.default),
                            ]));
                        }
                    }
                    if let Some(r) = l.rest {
                        params.push(self.word("&rest"));
                        params.push(self.sym(&self.tree.var(r).name));
                    }
                    let mut items = vec![self.word("lambda"), Datum::list(params)];
                    if self.declares {
                        if let Some(d) = self.declare_form(l) {
                            items.push(d);
                        }
                    }
                    items.push(self.node(l.body));
                    Datum::list(items)
                }
                NodeKind::Caseq {
                    key,
                    clauses,
                    default,
                } => {
                    let mut items = vec![self.word("caseq"), self.node(*key)];
                    for c in clauses {
                        items.push(Datum::list([
                            Datum::list(c.keys.iter().cloned()),
                            self.node(c.body),
                        ]));
                    }
                    items.push(Datum::list([self.word("t"), self.node(*default)]));
                    Datum::list(items)
                }
                NodeKind::Catcher { tag, body } => {
                    Datum::list([self.word("catch"), self.node(*tag), self.node(*body)])
                }
                NodeKind::Progbody(items) => {
                    let mut out = vec![self.word("progbody")];
                    for i in items {
                        out.push(match i {
                            ProgItem::Tag(t) => Datum::Sym(t.clone()),
                            ProgItem::Stmt(s) => {
                                let d = self.node(*s);
                                // In declare-preserving mode a bare symbol
                                // statement would re-read as a go-tag; keep
                                // it a statement with a `progn` wrapper
                                // (which re-converts to the plain node).
                                if self.declares && matches!(d, Datum::Sym(_)) {
                                    Datum::list([self.word("progn"), d])
                                } else {
                                    d
                                }
                            }
                        });
                    }
                    Datum::list(out)
                }
                NodeKind::Go(tag) => Datum::list([self.word("go"), Datum::Sym(tag.clone())]),
                NodeKind::Return(v) => Datum::list([self.word("return"), self.node(*v)]),
            }
        }

        /// The `(declare …)` form for a lambda's parameter annotations, or
        /// `None` when no parameter is special or type-declared.
        fn declare_form(&mut self, l: &Lambda) -> Option<Datum> {
            let mut specials = Vec::new();
            let mut fixnums = Vec::new();
            let mut flonums = Vec::new();
            for p in l.all_params() {
                let v = self.tree.var(p);
                if v.special {
                    specials.push(self.sym(&v.name));
                }
                match v.declared_type {
                    Some(DeclaredType::Fixnum) => fixnums.push(self.sym(&v.name)),
                    Some(DeclaredType::Flonum) => flonums.push(self.sym(&v.name)),
                    None => {}
                }
            }
            let mut clauses = Vec::new();
            for (head, names) in [
                ("special", specials),
                ("fixnum", fixnums),
                ("flonum", flonums),
            ] {
                if !names.is_empty() {
                    let mut c = vec![self.word(head)];
                    c.extend(names);
                    clauses.push(Datum::list(c));
                }
            }
            if clauses.is_empty() {
                return None;
            }
            let mut d = vec![self.word("declare")];
            d.extend(clauses);
            Some(Datum::list(d))
        }
    }

    /// Flat standard notation, written cell by cell.
    pub fn flat(d: &Datum) -> String {
        match d {
            Datum::Cons(c) => {
                if let Some(x) = quoted(d) {
                    return format!("'{}", flat(&x));
                }
                let mut out = format!("({}", flat(&c.car()));
                let mut cur = c.cdr();
                loop {
                    match cur {
                        Datum::Cons(c) => {
                            out.push(' ');
                            out.push_str(&flat(&c.car()));
                            cur = c.cdr();
                        }
                        Datum::Nil => break,
                        tail => {
                            out.push_str(" . ");
                            out.push_str(&flat(&tail));
                            break;
                        }
                    }
                }
                out.push(')');
                out
            }
            Datum::Str(s) => format!("{:?}", &**s),
            Datum::Char(c) => format!("#\\{c}"),
            Datum::Sym(s) => s.as_str().to_string(),
            Datum::Fixnum(n) => n.to_string(),
            Datum::Nil => "()".to_string(),
            // The flonum spelling is an atom's; the rule lives in the reader.
            Datum::Flonum(_) => d.to_string(),
        }
    }

    fn quoted(d: &Datum) -> Option<Datum> {
        let items = d.proper_list()?;
        match items.as_slice() {
            [q, x] if q.as_symbol().is_some_and(|s| s.as_str() == "quote") => Some(x.clone()),
            _ => None,
        }
    }

    /// The layout, re-rendering each subtree flat at every depth.
    pub fn pretty(d: &Datum, width: usize) -> String {
        let mut out = String::new();
        pp(&mut out, d, 0, width);
        out
    }

    fn pp(out: &mut String, d: &Datum, indent: usize, width: usize) {
        let flat = flat(d);
        if indent + flat.len() <= width || d.is_atom() || flat.starts_with('\'') {
            out.push_str(&flat);
            return;
        }
        let Some(items) = d.proper_list() else {
            out.push_str(&flat);
            return;
        };
        out.push('(');
        let head = items[0].as_symbol().map(|s| s.as_str());
        let hang = matches!(head, Some("defun" | "lambda" | "let" | "if" | "setq"));
        pp(out, &items[0], indent + 1, width);
        let mut written = 1;
        if hang && items.len() > 1 {
            out.push(' ');
            let col = indent + 1 + self::flat(&items[0]).len() + 1;
            pp(out, &items[1], col, width);
            written = 2;
        }
        for item in &items[written..] {
            out.push('\n');
            out.push_str(&" ".repeat(indent + 2));
            pp(out, item, indent + 2, width);
        }
        out.push(')');
    }

    /// The event-log rendering: flat, clipped to 48 characters.
    pub fn clip(d: &Datum) -> String {
        let s = flat(d);
        if s.chars().count() <= 48 {
            s
        } else {
            format!("{}…", s.chars().take(47).collect::<String>())
        }
    }
}

/// Widths the printer oracle lays every form out at.
const PRINT_WIDTHS: [usize; 4] = [20, 40, 78, 200];

/// Every back-translation of `tree` — flat, laid out at each width,
/// declare-preserving, and the clipped event-log form of every node —
/// matches the reference, and so does printing the reference's datum.
fn assert_printers_agree(tree: &Tree, what: &str, widths: &[usize]) {
    use s1lisp_ast::{clip_form, unparse, unparse_declared, unparse_pretty};
    let root = tree.root;
    let plain = reference_printer::unparse(tree, root, false);
    let declared = reference_printer::unparse(tree, root, true);
    assert_eq!(
        unparse(tree, root),
        reference_printer::flat(&plain),
        "{what}"
    );
    assert_eq!(
        unparse_declared(tree, root, usize::MAX),
        reference_printer::flat(&declared),
        "{what}"
    );
    for d in [&plain, &declared] {
        assert_eq!(d.to_string(), reference_printer::flat(d), "{what}");
    }
    for &w in widths {
        let want = reference_printer::pretty(&plain, w);
        assert_eq!(unparse_pretty(tree, root, w), want, "{what} at width {w}");
        assert_eq!(
            s1lisp_reader::pretty(&plain, w),
            want,
            "{what} at width {w}"
        );
        let want = reference_printer::pretty(&declared, w);
        assert_eq!(
            unparse_declared(tree, root, w),
            want,
            "{what} declared at width {w}"
        );
    }
    for n in subtree_nodes(tree, root) {
        let want = reference_printer::clip(&reference_printer::unparse(tree, n, false));
        assert_eq!(clip_form(tree, n), want, "{what}");
    }
}

/// Checks every function of `src`, as converted and as optimized.
fn assert_source_prints_agree(src: &str, widths: &[usize]) {
    let mut i = Interner::new();
    let forms = read_all_str(src, &mut i).unwrap();
    for f in Frontend::new(&mut i).convert_toplevel(&forms).unwrap() {
        let name = f.name.as_str();
        assert_printers_agree(&f.tree, &format!("{name} converted: {src}"), widths);
        let mut tree = f.tree.clone();
        Optimizer::new()
            .fixpoint(&mut tree, Some(name), false)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_printers_agree(&tree, &format!("{name} optimized: {src}"), widths);
    }
}

/// The one-walk printer writes every back-translation byte for byte as
/// the Datum-building reference does: on both corpora, on the fuzz
/// grammars, and on the shapes the corpora lack.
#[test]
fn printer_matches_the_datum_reference() {
    use s1lisp_bench::corpus as bench;
    for (_, src) in s1lisp_suite::corpus() {
        assert_source_prints_agree(src, &PRINT_WIDTHS);
    }
    for src in [
        bench::EXPTL,
        bench::LOOPN,
        bench::TESTFN,
        bench::QUADRATIC,
        bench::TAK,
        bench::FIB_ITER,
        bench::HORNER_LOOP,
        bench::PDL_KERNEL,
        bench::SPECIALS_LOOP,
        bench::CLOSURES,
        bench::DOT,
        bench::QUADRATIC_TYPED,
        bench::DERIV,
        bench::HORNER_INLINE,
        bench::GC_STRESS,
        bench::EXPTL_TYPED,
    ] {
        assert_source_prints_agree(src, &PRINT_WIDTHS);
    }
    for src in [
        // A constant that is itself a quote form.
        "(defun q (x) (list ''x '(quote y) '(quote . z) '(quote a b) x))",
        // String, character and flonum constants.
        r#"(defun s (x) (list "a \"b\" c" #\z #\space 2.5 -2.5e30 1e-7 0.0 x))"#,
        // A caseq key list that is itself `(quote a)`.
        "(defun k (x) (caseq x ((quote a) 1) ((b c) 2) (t 3)))",
        // &optional and &rest.
        "(defun o (a &optional (b 2.0) c &rest r) (list a b c r))",
        // Declarations, specials and a bare variable statement, for
        // the declare-preserving form.
        "(defvar *depth* 0)
         (defun d (n *depth*)
           (declare (fixnum n))
           (let ((acc 0.0)) (declare (flonum acc))
             (prog () top n (setq n (- n 1)) (if (> n 0) (go top)) (return acc))))",
    ] {
        assert_source_prints_agree(src, &PRINT_WIDTHS);
    }
    // A form exactly 78 columns wide prints on one line at 78 and
    // breaks at 77.
    let exact = (1..80)
        .map(|n| format!("(defun w (x) (list x '{}))", "a".repeat(n)))
        .find(|src| {
            let mut i = Interner::new();
            let forms = read_all_str(src, &mut i).unwrap();
            let f = &Frontend::new(&mut i).convert_toplevel(&forms).unwrap()[0];
            s1lisp_ast::unparse(&f.tree, f.tree.root).len() == 78
        })
        .expect("some padding makes the form 78 columns wide");
    assert_source_prints_agree(&exact, &[77, 78, 79]);
    let mut rng = SplitMix64::new(0x5115_0016);
    for _case in 0..48 {
        let body = random_expr(&mut rng, 4);
        assert_source_prints_agree(&format!("(defun f (a b c) {body})"), &PRINT_WIDTHS);
    }
    for _case in 0..48 {
        let depth = rng.range_usize(2, 5) as u32;
        let body = random_assigning_expr(&mut rng, depth);
        assert_source_prints_agree(&format!("(defun f (a b c) {body})"), &PRINT_WIDTHS);
    }
}
