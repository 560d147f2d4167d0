//! Tier-1 pins for guarded compilation (`ServiceConfig::guard`): the
//! phase validators, the seeded fault-injection facility, and the
//! differential execution oracle.
//!
//! The contracts pinned here:
//! * a guarded batch over the corpus is **byte-identical** to an
//!   unguarded one — the validators observe, they never perturb;
//! * a seeded storm arming *every* fault site completes with **zero
//!   lost functions**: each fault becomes a contained retry or a
//!   recovered `Incident`, and the same seed replays the same incident
//!   set;
//! * an injected miscompile is caught by the oracle, which ships the
//!   transformations-off reference artifact marked degraded — also when
//!   the cross-backend check judges the same batch;
//! * `BatchResult::load_globals` makes a batch directly runnable on a
//!   machine, `defvar` initializers included.

use std::path::PathBuf;
use std::time::Duration;

use s1lisp_bench::service_units;
use s1lisp_driver::{
    BatchResult, CompileService, FaultPlan, FaultSite, IncidentKind, OracleCase, Outcome,
    ServiceConfig, SourceUnit,
};

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s1lisp-guardtest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

fn storm_config(seed: u64, dir: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        jobs: 4,
        guard: true,
        time_budget: Some(Duration::from_millis(400)),
        fault_plan: Some(
            FaultPlan::new(seed)
                .arm(FaultSite::PhasePanic, 10)
                .arm(FaultSite::Overrun, 60)
                .arm(FaultSite::CacheRead, 500)
                .arm(FaultSite::CacheWrite, 500)
                .arm(FaultSite::CacheCorrupt, 500)
                .arm(FaultSite::SimTrap, 200)
                .arm(FaultSite::Miscompile, 200),
        ),
        // No disk eviction cap here: the replay assertion below needs
        // deterministic cache contents, and mtime-ordered sweeps under
        // parallel writes evict a scheduling-dependent subset — which
        // would turn fault-site hits (pure per key) into a race on
        // whether the key was still cached.  Eviction itself is pinned
        // by the cache unit tests.
        cache_dir: dir,
        oracle: vec![
            OracleCase::new("exptl", ["3", "10", "1"]),
            OracleCase::new("quadratic", ["1.0", "-3.0", "2.0"]),
            OracleCase::new("tak", ["10", "6", "3"]),
        ],
        ..ServiceConfig::default()
    }
}

fn storm_batch(seed: u64, dir: Option<PathBuf>) -> BatchResult {
    // Warm the disk tier with a clean pass so read-side faults have
    // bytes to fail on and corrupt.
    if let Some(d) = &dir {
        CompileService::new(ServiceConfig {
            jobs: 2,
            cache_dir: Some(d.clone()),
            ..ServiceConfig::default()
        })
        .compile_batch(&service_units());
    }
    CompileService::new(storm_config(seed, dir)).compile_batch(&service_units())
}

#[test]
fn guard_validators_do_not_perturb_artifacts() {
    let plain = CompileService::new(ServiceConfig::with_jobs(2)).compile_batch(&service_units());
    let guarded = CompileService::new(ServiceConfig {
        jobs: 2,
        guard: true,
        ..ServiceConfig::default()
    })
    .compile_batch(&service_units());
    assert!(guarded.failures.is_empty(), "{:?}", guarded.failures);
    assert!(guarded.incidents.is_empty(), "{:?}", guarded.incidents);
    assert_eq!(plain.render_artifacts(), guarded.render_artifacts());
    let report = guarded.guard.expect("guard report");
    assert!(report.contained);
    assert!(report.armed.is_empty());
}

#[test]
fn full_fault_storm_loses_no_functions_and_replays_from_its_seed() {
    let dir = tempdir("storm");
    let batch = quiet_panics(|| storm_batch(23, Some(dir.clone())));
    // Zero lost functions: one artifact per job, no failures, every
    // incident recovered.
    assert_eq!(batch.artifacts.len(), batch.stats.functions);
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    assert!(
        batch.incidents.iter().all(|i| i.recovered),
        "{:?}",
        batch.incidents
    );
    assert!(batch.records.iter().all(|r| r.outcome != Outcome::Failed));
    let report = batch.guard.as_ref().expect("guard report");
    assert!(report.contained);
    assert_eq!(report.seed, 23);
    assert_eq!(
        report.armed.len(),
        7,
        "every site armed: {:?}",
        report.armed
    );
    // The storm actually stormed: injection left visible traces.
    let cache = &batch.stats.cache;
    assert!(
        cache.io_retries + cache.io_errors + cache.corrupt_reads > 0,
        "{cache:?}"
    );
    // Replay: the same seed reproduces the same incident set.
    let dir2 = tempdir("storm-replay");
    let replay = quiet_panics(|| storm_batch(23, Some(dir2.clone())));
    let summary = |b: &BatchResult| {
        let mut v: Vec<(String, &'static str)> = b
            .incidents
            .iter()
            .map(|i| (i.function.clone(), i.kind.as_str()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(summary(&batch), summary(&replay));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn injected_miscompile_ships_the_reference_artifact() {
    let cfg = ServiceConfig {
        jobs: 2,
        guard: true,
        fault_plan: Some(FaultPlan::new(1).arm(FaultSite::Miscompile, 1000)),
        oracle: vec![OracleCase::new("exptl", ["3", "10", "1"])],
        ..ServiceConfig::default()
    };
    let batch = CompileService::new(cfg).compile_batch(&service_units());
    let incident = batch
        .incidents
        .iter()
        .find(|i| i.kind == IncidentKind::Miscompile)
        .expect("oracle flags the mismatch");
    assert_eq!(incident.function, "exptl");
    assert!(incident.recovered);
    // The shipped artifact is the transformations-off reference.
    let shipped = batch.artifact("exptl").expect("artifact still present");
    assert!(shipped.degraded);
    assert_eq!(shipped.transformations, 0);
    let report = batch.guard.expect("guard report");
    assert!(report.contained);
    let verdict = &report.oracle[0];
    assert!(!verdict.matched);
    assert!(verdict.injected);
    // The record reflects the downgrade.
    let record = batch
        .records
        .iter()
        .find(|r| r.function == "exptl")
        .unwrap();
    assert_eq!(record.outcome, Outcome::Degraded);
}

#[test]
fn clean_oracle_agrees_on_every_case() {
    let cfg = ServiceConfig {
        jobs: 2,
        guard: true,
        oracle: vec![
            OracleCase::new("exptl", ["3", "10", "1"]),
            OracleCase::new("quadratic", ["1.0", "-3.0", "2.0"]),
            OracleCase::new("loopn", ["1000"]),
            OracleCase::new("sum-horner", ["200"]),
            OracleCase::new("tak", ["10", "6", "3"]),
        ],
        ..ServiceConfig::default()
    };
    let batch = CompileService::new(cfg).compile_batch(&service_units());
    assert!(batch.incidents.is_empty(), "{:?}", batch.incidents);
    let report = batch.guard.expect("guard report");
    assert_eq!(report.oracle.len(), 5);
    for v in &report.oracle {
        assert!(v.matched, "{}: {} vs {}", v.entry, v.subject, v.reference);
        assert!(!v.injected);
    }
}

#[test]
fn load_globals_makes_a_batch_runnable() {
    use s1lisp::{Compiler, Machine, Value};

    let src = "(defvar *step* 2)
               (defvar *names* '(a b))
               (defun accumulate (n)
                 (prog ((i 0) (acc 0))
                  top (cond ((not (< i n)) (return acc)))
                  (setq acc (+ acc *step*))
                  (setq i (+ i 1))
                  (go top)))";
    let batch = CompileService::new(ServiceConfig::with_jobs(1))
        .compile_batch(&[SourceUnit::new("globals", src)]);
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    assert_eq!(batch.globals.len(), 2);

    // A program compiled elsewhere (same functions, no defvar values):
    // without the batch's globals the special is unbound; with them the
    // batch is directly runnable.
    let mut c = Compiler::new();
    c.proclaim_special("*step*");
    c.proclaim_special("*names*");
    c.compile_str(
        "(defun accumulate (n)
           (prog ((i 0) (acc 0))
            top (cond ((not (< i n)) (return acc)))
            (setq acc (+ acc *step*))
            (setq i (+ i 1))
            (go top)))",
    )
    .unwrap();
    let mut bare = Machine::new(c.program().clone());
    assert!(bare.run("accumulate", &[Value::Fixnum(3)]).is_err());

    let mut loaded = Machine::new(c.program().clone());
    let installed = batch.load_globals(&mut loaded).expect("globals install");
    assert_eq!(installed, 2);
    assert_eq!(
        loaded.run("accumulate", &[Value::Fixnum(3)]).unwrap(),
        Value::Fixnum(6)
    );
}

/// Both oracles on one batch: the guard's optimized-vs-reference check
/// and the cross-backend S-1-vs-bytecode check, with the miscompile
/// site armed on every case.  Each check flags each case once; the
/// guard ships the transformations-off reference (marked degraded),
/// the cross-backend check keeps the S-1 artifact it already ships,
/// and the batch stays contained.
#[test]
fn guard_and_cross_backend_oracles_judge_one_batch_together() {
    use s1lisp_driver::BackendSelect;

    let cfg = ServiceConfig {
        jobs: 2,
        guard: true,
        backend: BackendSelect::Both,
        fault_plan: Some(FaultPlan::new(5).arm(FaultSite::Miscompile, 1000)),
        oracle: vec![
            OracleCase::new("exptl", ["3", "10", "1"]),
            OracleCase::new("quadratic", ["1.0", "-3.0", "2.0"]),
        ],
        ..ServiceConfig::default()
    };
    let batch = CompileService::new(cfg).compile_batch(&service_units());
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    let json = batch.to_json();
    let field = |path: &[&str]| {
        let mut j = &json;
        for key in path {
            j = j.get(key).unwrap_or_else(|| panic!("no {key}"));
        }
        j.to_string()
    };
    assert_eq!(
        field(&["cross"]),
        concat!(
            r#"[{"entry":"exptl","matched":false,"s1":"59049","#,
            r#""bytecode":"59049 [injected miscompile]","injected":true},"#,
            r#"{"entry":"quadratic","matched":false,"s1":"(2.0 1.0)","#,
            r#""bytecode":"(2.0 1.0) [injected miscompile]","injected":true}]"#
        )
    );
    assert_eq!(
        field(&["guard", "oracle"]),
        concat!(
            r#"[{"entry":"exptl","matched":false,"#,
            r#""optimized":"59049 [injected miscompile]","reference":"59049","injected":true},"#,
            r#"{"entry":"quadratic","matched":false,"#,
            r#""optimized":"(2.0 1.0) [injected miscompile]","reference":"(2.0 1.0)","#,
            r#""injected":true}]"#
        )
    );
    // Cross-backend incidents first, then the guard's, each in case
    // order.
    assert_eq!(
        field(&["incidents"]),
        concat!(
            r#"[{"function":"exptl","unit":"e1","kind":"miscompile","#,
            r#""detail":"cross-backend mismatch: s1 gave 59049, "#,
            r#"bytecode gave 59049 [injected miscompile]","recovered":true},"#,
            r#"{"function":"quadratic","unit":"e2","kind":"miscompile","#,
            r#""detail":"cross-backend mismatch: s1 gave (2.0 1.0), "#,
            r#"bytecode gave (2.0 1.0) [injected miscompile]","recovered":true},"#,
            r#"{"function":"exptl","unit":"e1","kind":"miscompile","#,
            r#""detail":"oracle mismatch: optimized gave 59049 [injected miscompile], "#,
            r#"reference gave 59049","recovered":true},"#,
            r#"{"function":"quadratic","unit":"e2","kind":"miscompile","#,
            r#""detail":"oracle mismatch: optimized gave (2.0 1.0) [injected miscompile], "#,
            r#"reference gave (2.0 1.0)","recovered":true}]"#
        )
    );
    assert_eq!(field(&["guard", "contained"]), "true");
    for name in ["exptl", "quadratic"] {
        let shipped = batch.artifact(name).unwrap();
        assert!(shipped.degraded, "{name}");
        assert_eq!(shipped.transformations, 0, "{name}");
        assert_eq!(shipped.backend, "s1", "{name}");
        let record = batch.records.iter().find(|r| r.function == name).unwrap();
        assert_eq!(record.outcome, Outcome::Degraded, "{name}");
    }
}
