//! The `service` report: batch-compiling the experiment corpus through
//! the parallel compilation service (`report --jobs N [--cache-dir D]
//! service`).
//!
//! Four records share the machinery: the clean batch over every
//! experiment workload, a demonstration batch with an injected
//! optimizer panic showing the degraded path ([`service_fault_record`]),
//! a guarded batch under a seeded fault storm ([`guard_record`]), and a
//! guaranteed oracle miscompile ([`guard_miscompile_record`]).  All are
//! rows of the record table ([`crate::records()`]), schema-pinned by
//! their goldens.

use std::path::PathBuf;

use s1lisp_driver::{
    BackendSelect, BatchResult, CompileService, FaultPlan, FaultSite, OracleCase, ServiceConfig,
    SourceUnit,
};
use s1lisp_trace::json::Json;

use crate::json_report::workload;

/// One [`SourceUnit`] per experiment, named by experiment id.
pub fn service_units() -> Vec<SourceUnit> {
    crate::all_experiments()
        .iter()
        .filter_map(|e| workload(e.id).map(|wl| SourceUnit::new(e.id, wl.src)))
        .collect()
}

fn config(jobs: usize, cache_dir: Option<PathBuf>) -> ServiceConfig {
    ServiceConfig {
        jobs,
        cache_dir,
        ..ServiceConfig::default()
    }
}

/// Batch-compiles the corpus at the given worker count (with an
/// optional persistent cache directory).
pub fn service_batch(jobs: usize, cache_dir: Option<PathBuf>) -> BatchResult {
    service_batch_for(jobs, cache_dir, BackendSelect::S1)
}

/// [`service_batch`] with an explicit backend selection (`report
/// --backend s1|bytecode|both service`).  `Both` additionally runs the
/// cross-backend oracle over [`oracle_cases`].
pub fn service_batch_for(
    jobs: usize,
    cache_dir: Option<PathBuf>,
    backend: BackendSelect,
) -> BatchResult {
    let mut cfg = config(jobs, cache_dir);
    cfg.backend = backend;
    if backend.cross_checked() {
        cfg.oracle = oracle_cases();
    }
    CompileService::new(cfg).compile_batch(&service_units())
}

/// The machine-readable `service` record, at a worker count, an
/// optional persistent cache directory and a backend selection.
pub fn service_record_for(jobs: usize, cache_dir: Option<PathBuf>, backend: BackendSelect) -> Json {
    Json::obj(vec![
        ("id", Json::str("service")),
        (
            "title",
            Json::str("Compilation service batch over the experiment corpus"),
        ),
        (
            "batch",
            service_batch_for(jobs, cache_dir, backend).to_json(),
        ),
    ])
}

/// The `{id, title, batch}` record of a batch that injects panics.  The
/// panics are the record's subject, so the panic hook stays silent while
/// the batch runs and their backtraces stay off stderr.
fn quiet_batch_record(id: &str, title: &str, build: impl FnOnce() -> BatchResult) -> Json {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let batch = build();
    std::panic::set_hook(prev);
    Json::obj(vec![
        ("id", Json::str(id)),
        ("title", Json::str(title)),
        ("batch", batch.to_json()),
    ])
}

/// A demonstration record with a panic forced into one function's
/// source-level optimization, exercising the incident/degradation
/// surface: the batch completes, `quadratic` comes back degraded, and
/// every other function is untouched.
pub fn service_fault_record() -> Json {
    let cfg = ServiceConfig {
        jobs: 4,
        fault_plan: Some(
            FaultPlan::new(0).force(FaultSite::PhasePanic, "quadratic/Source-level optimization"),
        ),
        ..ServiceConfig::default()
    };
    quiet_batch_record(
        "service-fault",
        "Compilation service degraded-path demonstration",
        || CompileService::new(cfg).compile_batch(&service_units()),
    )
}

/// Differential-oracle cases over the corpus: call each entry with the
/// workload-shaped arguments (kept small so the oracle stays fast).
pub fn oracle_cases() -> Vec<OracleCase> {
    vec![
        OracleCase::new("exptl", ["3", "10", "1"]),
        OracleCase::new("quadratic", ["1.0", "-3.0", "2.0"]),
        OracleCase::new("loopn", ["1000"]),
        OracleCase::new("sum-horner", ["200"]),
        OracleCase::new("tak", ["10", "6", "3"]),
    ]
}

/// The seed behind the pinned `guard` record.  Chosen so the storm
/// deterministically produces at least one incident of each flavor the
/// schema pins (the decision function is pure, so it replays forever).
pub const GUARD_SEED: u64 = 13;

/// A guarded batch over the corpus under a seeded fault storm: phase
/// panics, cache I/O errors and corruption, simulator traps, and
/// miscompiles, all armed from one seed.  When `cache_dir` is given it
/// is first warmed by a clean pass so read-side faults have real bytes
/// to corrupt.
pub fn guard_batch(seed: u64, cache_dir: Option<PathBuf>) -> BatchResult {
    let units = service_units();
    if let Some(dir) = &cache_dir {
        CompileService::new(config(2, Some(dir.clone()))).compile_batch(&units);
    }
    let plan = FaultPlan::new(seed)
        .arm(FaultSite::PhasePanic, 8)
        .arm(FaultSite::CacheRead, 400)
        .arm(FaultSite::CacheWrite, 400)
        .arm(FaultSite::CacheCorrupt, 400)
        .arm(FaultSite::SimTrap, 150)
        .arm(FaultSite::Miscompile, 150);
    let cfg = ServiceConfig {
        jobs: 4,
        guard: true,
        fault_plan: Some(plan),
        cache_dir,
        disk_max_entries: Some(8),
        oracle: oracle_cases(),
        ..ServiceConfig::default()
    };
    CompileService::new(cfg).compile_batch(&units)
}

/// The machine-readable `guard` record: a seeded fault storm over the
/// corpus, with the containment verdict and oracle verdicts attached.
pub fn guard_record() -> Json {
    let dir = std::env::temp_dir().join(format!("s1lisp-guard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let record = quiet_batch_record(
        "guard",
        "Guarded batch under a seeded deterministic fault storm",
        || guard_batch(GUARD_SEED, Some(dir.clone())),
    );
    let _ = std::fs::remove_dir_all(&dir);
    record
}

/// The machine-readable `guard-miscompile` record: every oracle case's
/// optimized result is perturbed, so the differential oracle must flag
/// the mismatch and ship the reference (unoptimized) artifact.
pub fn guard_miscompile_record() -> Json {
    let cfg = ServiceConfig {
        jobs: 2,
        guard: true,
        fault_plan: Some(FaultPlan::new(7).arm(FaultSite::Miscompile, 1000)),
        oracle: vec![OracleCase::new("quadratic", ["1.0", "-3.0", "2.0"])],
        ..ServiceConfig::default()
    };
    quiet_batch_record(
        "guard-miscompile",
        "Differential oracle shipping the unoptimized artifact",
        || CompileService::new(cfg).compile_batch(&service_units()),
    )
}

/// The human-readable `service` report text.
pub fn service_report(jobs: usize, cache_dir: Option<PathBuf>) -> String {
    use std::fmt::Write as _;
    let batch = service_batch(jobs, cache_dir);
    let mut out = String::new();
    let s = &batch.stats;
    let _ = writeln!(out, "workers={} functions={}", s.workers_used, s.functions);
    let _ = writeln!(
        out,
        "hit_rate={}% hits={} misses={} evictions={} disk_hits={} \
         io_retries={} io_errors={} corrupt_reads={} disk_evictions={}",
        batch.hit_rate_percent(),
        s.cache.hits,
        s.cache.misses,
        s.cache.evictions,
        s.cache.disk_hits,
        s.cache.io_retries,
        s.cache.io_errors,
        s.cache.corrupt_reads,
        s.cache.disk_evictions
    );
    let _ = writeln!(
        out,
        "incidents={} failures={}",
        batch.incidents.len(),
        batch.failures.len()
    );
    for w in &s.workers {
        let _ = writeln!(
            out,
            "  worker {}: jobs={} wall_us={}",
            w.worker, w.jobs, w.wall_us
        );
    }
    let _ = writeln!(
        out,
        "{:<14} {:<10} {:>8} {:>9}",
        "function", "outcome", "insns", "wall_us"
    );
    for r in &batch.records {
        let insns = batch
            .artifacts
            .iter()
            .find(|a| a.name == r.function)
            .map_or(0, |a| a.insns);
        let _ = writeln!(
            out,
            "{:<14} {:<10} {:>8} {:>9}",
            r.function,
            r.outcome.as_str(),
            insns,
            r.wall_us
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_batch_compiles_cleanly() {
        let batch = service_batch(2, None);
        assert!(batch.stats.functions >= 12, "{}", batch.stats.functions);
        assert_eq!(batch.artifacts.len(), batch.stats.functions);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        assert!(batch.incidents.is_empty());
        // e10's proclaimed special must have reached its job.
        let acc = batch.artifact("accumulate").unwrap();
        assert!(acc.assembly.contains("%SPEC"), "{}", acc.assembly);
    }

    #[test]
    fn guard_storm_contains_every_fault() {
        let batch = guard_batch(GUARD_SEED, None);
        // Zero lost functions: every job produced an artifact.
        assert_eq!(batch.artifacts.len(), batch.stats.functions);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        let guard = batch.guard.as_ref().expect("guard report");
        assert!(guard.contained, "{:?}", batch.incidents);
        assert!(batch.incidents.iter().all(|i| i.recovered));
        // The pinned seed produces real incidents and oracle traffic.
        assert!(!batch.incidents.is_empty());
        assert!(!guard.oracle.is_empty());
    }

    #[test]
    fn miscompile_record_ships_the_reference_artifact() {
        let rec = guard_miscompile_record();
        let batch = rec.get("batch").unwrap();
        let incidents = batch.get("incidents").unwrap().as_arr().unwrap();
        assert!(incidents
            .iter()
            .any(|i| i.get("kind").unwrap().as_str() == Some("miscompile")
                && i.get("recovered").unwrap().as_bool() == Some(true)));
        let guard = batch.get("guard").unwrap();
        assert_eq!(guard.get("contained").unwrap().as_bool(), Some(true));
        let artifacts = batch.get("artifacts").unwrap().as_arr().unwrap();
        let quadratic = artifacts
            .iter()
            .find(|a| a.get("name").unwrap().as_str() == Some("quadratic"))
            .unwrap();
        assert_eq!(quadratic.get("degraded").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn fault_record_reports_one_degraded_function() {
        let rec = service_fault_record();
        let batch = rec.get("batch").unwrap();
        let incidents = batch.get("incidents").unwrap().as_arr().unwrap();
        assert_eq!(incidents.len(), 1);
        assert_eq!(
            incidents[0].get("function").unwrap().as_str(),
            Some("quadratic")
        );
        assert_eq!(incidents[0].get("recovered").unwrap().as_bool(), Some(true));
    }
}
