//! Tier-1 pins for the parallel compilation service (`crates/driver`):
//! scheduling invariance, cache soundness, and fault isolation.
//!
//! The contracts pinned here are the acceptance criteria of the
//! subsystem:
//! * batch compiles at `jobs ∈ {1, 2, 8}` are **byte-identical** —
//!   assembly and full dossier renders — over the whole experiment
//!   corpus;
//! * a warm-cache recompile is byte-identical too, and its job records
//!   show the Preliminary phase *alone* (cache hits skip every
//!   downstream phase);
//! * an injected optimizer panic (or budget overrun) degrades exactly
//!   the targeted function — recorded as an `Incident` — while every
//!   other artifact matches the clean run byte for byte.

use std::time::Duration;

use s1lisp_bench::service_units;
use s1lisp_driver::{
    BatchResult, CompileService, FaultInjection, FaultMode, IncidentKind, Outcome, Schedule,
    ServiceConfig, SourceUnit,
};

fn corpus_batch(jobs: usize) -> (CompileService, BatchResult) {
    let service = CompileService::new(ServiceConfig::with_jobs(jobs));
    let batch = service.compile_batch(&service_units());
    (service, batch)
}

#[test]
fn parallel_and_serial_corpus_compiles_are_byte_identical() {
    let (_, serial) = corpus_batch(1);
    assert!(serial.failures.is_empty(), "{:?}", serial.failures);
    assert!(serial.stats.functions >= 12);
    let serial_render = serial.render_artifacts();
    for jobs in [2, 8] {
        let (_, parallel) = corpus_batch(jobs);
        assert_eq!(
            serial_render,
            parallel.render_artifacts(),
            "jobs={jobs} diverged from serial"
        );
        // Assembly is inside the dossiers, but pin it explicitly too.
        for (a, b) in serial.artifacts.iter().zip(&parallel.artifacts) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.assembly, b.assembly, "assembly diverged for {}", a.name);
            assert_eq!(a.fingerprint, b.fingerprint);
        }
    }
}

#[test]
fn sorted_and_fifo_schedules_are_byte_identical() {
    // Size-sorted scheduling reorders only the queue; reassembly is by
    // source order, so FIFO and largest-first batches must agree byte
    // for byte at every worker count.
    let fifo_render = {
        let config = ServiceConfig {
            jobs: 1,
            schedule: Schedule::Fifo,
            ..ServiceConfig::default()
        };
        let batch = CompileService::new(config).compile_batch(&service_units());
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        assert_eq!(batch.stats.schedule, Schedule::Fifo);
        batch.render_artifacts()
    };
    for jobs in [1, 2, 8] {
        let config = ServiceConfig {
            jobs,
            schedule: Schedule::LargestFirst,
            ..ServiceConfig::default()
        };
        let batch = CompileService::new(config).compile_batch(&service_units());
        assert_eq!(batch.stats.schedule, Schedule::LargestFirst);
        // Records come back in source order regardless of queue order.
        let seqs: Vec<usize> = batch.records.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
        assert_eq!(
            fifo_render,
            batch.render_artifacts(),
            "sorted schedule at jobs={jobs} diverged from FIFO"
        );
    }
}

#[test]
fn warm_cache_recompile_is_identical_and_skips_all_phases() {
    let (service, cold) = corpus_batch(4);
    assert_eq!(cold.stats.cache.hits, 0);
    assert_eq!(cold.stats.cache.misses, cold.stats.functions as u64);
    let warm = service.compile_batch(&service_units());
    assert_eq!(cold.render_artifacts(), warm.render_artifacts());
    assert_eq!(warm.hit_rate_percent(), 100);
    assert_eq!(warm.stats.cache.misses, 0);
    for r in &warm.records {
        assert_eq!(r.outcome, Outcome::Hit, "{} was not a hit", r.function);
        // The pinned evidence that a hit skips every phase after
        // Preliminary: the job's trace saw exactly one phase.
        let phases: Vec<&str> = r.phase_spans.iter().map(|(p, _, _)| p.as_str()).collect();
        assert_eq!(
            phases,
            ["Preliminary"],
            "{} ran phases {phases:?}",
            r.function
        );
    }
}

#[test]
fn injected_panic_degrades_one_function_and_spares_the_rest() {
    let (_, clean) = corpus_batch(2);
    let config = ServiceConfig {
        jobs: 2,
        fault: Some(FaultInjection {
            function: "tak".to_string(),
            mode: FaultMode::Panic,
        }),
        ..ServiceConfig::default()
    };
    let faulted = CompileService::new(config).compile_batch(&service_units());
    // The batch still completed: every function has an artifact.
    assert_eq!(faulted.artifacts.len(), clean.artifacts.len());
    assert!(faulted.failures.is_empty(), "{:?}", faulted.failures);
    // Exactly one incident, recovered via the degraded path.
    assert_eq!(faulted.incidents.len(), 1);
    let incident = &faulted.incidents[0];
    assert_eq!(incident.function, "tak");
    assert_eq!(incident.kind, IncidentKind::Panic);
    assert!(incident.recovered);
    assert!(incident.detail.contains("injected"), "{}", incident.detail);
    // Exactly one degraded artifact; everything else is byte-equal to
    // the clean run.
    let mut degraded = 0;
    for (c, f) in clean.artifacts.iter().zip(&faulted.artifacts) {
        assert_eq!(c.name, f.name);
        if f.degraded {
            degraded += 1;
            assert_eq!(f.name, "tak");
            assert!(f.insns > 0);
        } else {
            assert_eq!(c.dossier, f.dossier, "{} was perturbed", c.name);
        }
    }
    assert_eq!(degraded, 1);
    let record = faulted
        .records
        .iter()
        .find(|r| r.function == "tak")
        .unwrap();
    assert_eq!(record.outcome, Outcome::Degraded);
    // Degraded output is never cached: recompiling misses again.
    // (A fresh service, same fault: still exactly one incident.)
}

#[test]
fn budget_overrun_times_out_and_recovers() {
    let config = ServiceConfig {
        jobs: 2,
        time_budget: Some(Duration::from_millis(50)),
        fault: Some(FaultInjection {
            function: "slowpoke".to_string(),
            mode: FaultMode::Hang(Duration::from_millis(400)),
        }),
        ..ServiceConfig::default()
    };
    let units = [SourceUnit::new(
        "u",
        "(defun slowpoke (x) (* x x)) (defun fine (x) (+ x 1))",
    )];
    let batch = CompileService::new(config).compile_batch(&units);
    assert_eq!(batch.incidents.len(), 1);
    assert_eq!(batch.incidents[0].kind, IncidentKind::Timeout);
    assert!(batch.incidents[0].recovered);
    assert!(batch.artifact("slowpoke").unwrap().degraded);
    assert!(!batch.artifact("fine").unwrap().degraded);
    assert_eq!(
        batch
            .records
            .iter()
            .find(|r| r.function == "fine")
            .unwrap()
            .outcome,
        Outcome::Compiled
    );
}

#[test]
fn watchdog_overrun_degrades_with_the_pass_named() {
    use s1lisp_driver::{FaultPlan, FaultSite};

    // An armed overrun stalls inside the pipeline's fault-injection
    // pass, just past the watchdog's budget.  The watchdog gives up on
    // every job, names the pass it caught each one in, and the service
    // routes both to the degraded path.
    let config = ServiceConfig {
        jobs: 2,
        time_budget: Some(Duration::from_millis(200)),
        fault_plan: Some(FaultPlan::new(3).arm(FaultSite::Overrun, 1000)),
        ..ServiceConfig::default()
    };
    let units = [SourceUnit::new(
        "u",
        "(defun sq (x) (* x x)) (defun inc (x) (+ x 1))",
    )];
    let batch = CompileService::new(config).compile_batch(&units);
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    assert_eq!(batch.incidents.len(), 2);
    let passes = s1lisp::Compiler::new().pipeline().pass_names();
    for i in &batch.incidents {
        assert_eq!(i.kind, IncidentKind::Timeout);
        assert!(i.recovered, "{} not recovered", i.function);
        let named = passes
            .iter()
            .find(|p| i.detail.ends_with(&format!("in pass {p}")));
        assert_eq!(named, Some(&"Fault injection"), "{}", i.detail);
    }
    // The degraded retries ran unwatched and produced artifacts.
    assert!(batch.artifact("sq").unwrap().degraded);
    assert!(batch.artifact("inc").unwrap().degraded);
    // A generous budget compiles everything cleanly.
    let config = ServiceConfig {
        jobs: 2,
        time_budget: Some(Duration::from_secs(60)),
        ..ServiceConfig::default()
    };
    let batch = CompileService::new(config).compile_batch(&units);
    assert!(batch.incidents.is_empty());
    assert!(!batch.artifact("sq").unwrap().degraded);
}

#[test]
fn disk_tier_warms_a_fresh_service() {
    let dir = std::env::temp_dir().join(format!("s1lisp-driver-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = |jobs| ServiceConfig {
        jobs,
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let cold = CompileService::new(config(4)).compile_batch(&service_units());
    assert_eq!(cold.stats.cache.disk_hits, 0);
    // A *different* service instance (cold memory) over the same
    // directory: every hit comes off disk.
    let warm = CompileService::new(config(4)).compile_batch(&service_units());
    assert_eq!(warm.hit_rate_percent(), 100);
    assert_eq!(warm.stats.cache.disk_hits, warm.stats.functions as u64);
    assert_eq!(cold.render_artifacts(), warm.render_artifacts());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backend_partitions_the_cache_on_disk_and_in_memory() {
    use s1lisp_driver::BackendSelect;

    // The backend salts the options fingerprint, which is folded into
    // every cache key — so an S-1 artifact must never satisfy a
    // bytecode request, across both the memory and disk tiers.
    let dir =
        std::env::temp_dir().join(format!("s1lisp-driver-backend-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = |backend| ServiceConfig {
        jobs: 2,
        backend,
        cache_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let s1 = CompileService::new(config(BackendSelect::S1)).compile_batch(&service_units());
    assert!(s1.failures.is_empty(), "{:?}", s1.failures);
    assert_eq!(s1.stats.cache.hits, 0);
    // A fresh service, same directory, other backend: the disk tier is
    // warm with S-1 artifacts, yet nothing may hit.
    let bc = CompileService::new(config(BackendSelect::Bytecode)).compile_batch(&service_units());
    assert!(bc.failures.is_empty(), "{:?}", bc.failures);
    assert_eq!(bc.hit_rate_percent(), 0, "bytecode hit the s1 cache");
    assert_eq!(bc.stats.cache.disk_hits, 0);
    assert!(bc.artifacts.iter().all(|a| a.backend == "bytecode"));
    assert!(s1.artifacts.iter().all(|a| a.backend == "s1"));
    // Each backend *does* hit its own entries on a rerun.
    let warm = CompileService::new(config(BackendSelect::S1)).compile_batch(&service_units());
    assert_eq!(warm.hit_rate_percent(), 100);
    assert_eq!(warm.render_artifacts(), s1.render_artifacts());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compile_failures_are_isolated_per_function() {
    let units = [SourceUnit::new(
        "u",
        "(defun ok (x) (+ x 1)) (defun bad (x) (undefined-special-form)) (defun ok2 (y) (* y 2))",
    )];
    let service = CompileService::new(ServiceConfig::with_jobs(2));
    let batch = service.compile_batch(&units);
    // `bad` calls an unknown global — that still compiles (late
    // binding); use a genuinely malformed body instead.
    let units = [SourceUnit::new(
        "u",
        "(defun ok (x) (+ x 1)) (defun bad (x) (setq x)) (defun ok2 (y) (* y 2))",
    )];
    let batch2 = service.compile_batch(&units);
    assert!(batch2.artifact("ok").is_some());
    assert!(batch2.artifact("ok2").is_some());
    assert!(batch2.artifact("bad").is_none());
    assert_eq!(batch2.failures.len(), 1);
    assert_eq!(batch2.failures[0].0, "bad");
    assert_eq!(
        batch2
            .records
            .iter()
            .find(|r| r.function == "bad")
            .unwrap()
            .outcome,
        Outcome::Failed
    );
    // The first batch had no failures at all.
    assert!(batch.failures.is_empty());
}

#[test]
fn split_preserves_unit_level_specials_ordering() {
    // `counter` is proclaimed special *between* the two defuns: `before`
    // must treat it lexical, `after` special — exactly like the serial
    // front end.
    let units = [SourceUnit::new(
        "u",
        "(defun before (counter) counter)
         (proclaim '(special counter))
         (defun after () counter)",
    )];
    let batch = CompileService::new(ServiceConfig::with_jobs(2)).compile_batch(&units);
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    let before = batch.artifact("before").unwrap();
    let after = batch.artifact("after").unwrap();
    assert!(!before.assembly.contains("%SPEC"), "{}", before.assembly);
    assert!(after.assembly.contains("%SPEC"), "{}", after.assembly);
}
