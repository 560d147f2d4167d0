//! The `metrics` report: one unified [`MetricsSnapshot`] spanning the
//! compiler pipeline, the simulator and its heap, the artifact cache,
//! and the compile service — rendered as a human table by
//! `report --metrics` and as a schema-pinned JSON record by
//! `report --json metrics`.
//!
//! The snapshot comes from a *pinned* workload so its shape (which
//! metrics exist) is stable: the tak kernel compiled with tracing and
//! run with a profile attached, plus one service batch over the
//! experiment corpus at `jobs = 2`.  Every subsystem reports into a
//! single registry — the service's — so the record is one surface, not
//! four stapled together.
//!
//! Determinism: with [`MetricsSnapshot::zero_time_metrics`] applied,
//! two runs of [`collect_metrics`] are byte-identical (pinned by test,
//! the PR-2 post-mortem discipline); the unzeroed snapshot is what the
//! human report shows.

use s1lisp::{Compiler, Value};
use s1lisp_driver::{CompileService, ServiceConfig};
use s1lisp_s1sim::ExecProfile;
use s1lisp_trace::json::Json;
use s1lisp_trace::metrics::MetricsSnapshot;

use crate::corpus;
use crate::service::service_units;

/// Runs the pinned metrics workload and returns the unified snapshot.
/// Host-time metrics (`*_ns`, `*_us`, `*_per_sec`) carry real wall
/// times; everything else is a pure function of the workload.
pub fn collect_metrics() -> MetricsSnapshot {
    // Simulator side: tak with tracing and an opcode profile.
    let mut c = Compiler::new();
    c.enable_trace();
    c.compile_str(corpus::TAK).expect("tak compiles");
    let mut m = c.machine();
    m.profile = Some(Box::new(ExecProfile::new()));
    m.run(
        "tak",
        &[Value::Fixnum(14), Value::Fixnum(10), Value::Fixnum(6)],
    )
    .expect("tak runs");
    // Service side: one batch over the corpus; the service and its
    // cache already share a registry, so export the compiler and the
    // machine into the same one.
    let service = CompileService::new(ServiceConfig {
        jobs: 2,
        ..ServiceConfig::default()
    });
    let batch = service.compile_batch(&service_units());
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    let reg = service.metrics();
    c.export_metrics(reg);
    m.export_metrics(reg); // includes the heap's telemetry
    reg.snapshot()
}

/// The machine-readable `metrics` record (schema-pinned by golden test).
pub fn metrics_record() -> Json {
    let snap = collect_metrics();
    Json::obj(vec![
        ("id", Json::str("metrics")),
        (
            "title",
            Json::str("Unified metrics snapshot over the pinned workload"),
        ),
        ("metrics", snap.to_json()),
    ])
}

/// The human-readable `metrics` report: the snapshot as an aligned
/// table, grouped by metric kind.
pub fn metrics_report() -> String {
    collect_metrics().render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_trace::json;

    #[test]
    fn snapshot_covers_every_subsystem() {
        let snap = collect_metrics();
        // One name from each layer proves the registry is shared.
        for name in [
            "sim.insns_retired",
            "sim.opclass.call",
            "heap.alloc.conses",
            "cache.hits",
            "service.jobs",
            "pipeline.code_generation.spans",
        ] {
            assert!(
                snap.counter(name).is_some(),
                "missing {name}; have {:?}",
                snap.counters.iter().map(|(n, _)| n).collect::<Vec<_>>()
            );
        }
        assert!(snap.histogram("heap.alloc_size_words").is_some());
        assert!(snap.histogram("service.job_wall_us").is_some());
    }

    #[test]
    fn two_runs_are_byte_identical_with_time_zeroed() {
        // Satellite: the determinism contract.  Same workload, same
        // seed, no shared state — after zeroing host-time metrics the
        // serialized snapshots must agree byte for byte.
        let mut a = collect_metrics();
        let mut b = collect_metrics();
        a.zero_time_metrics();
        b.zero_time_metrics();
        assert_eq!(a.to_json().to_string(), b.to_json().to_string());
    }

    #[test]
    fn record_parses_and_nests_the_snapshot_schema() {
        let rec = metrics_record();
        json::parse(&rec.to_string()).expect("well-formed");
        let metrics = rec.get("metrics").unwrap();
        assert!(json::schema(metrics).starts_with("{counters:map<int>"));
    }

    #[test]
    fn machine_stats_table_matches_the_registry_snapshot() {
        // Satellite: MachineStats/ExecProfile double-bookkeeping is
        // gone — after a tak run the Display table and the registry
        // snapshot are the same numbers, and the profile's retired
        // total agrees with the stats counter.
        let mut c = Compiler::new();
        c.compile_str(corpus::TAK).expect("tak compiles");
        let mut m = c.machine();
        m.profile = Some(Box::new(ExecProfile::new()));
        m.run(
            "tak",
            &[Value::Fixnum(14), Value::Fixnum(10), Value::Fixnum(6)],
        )
        .expect("tak runs");
        let reg = s1lisp_trace::metrics::MetricsRegistry::new();
        m.export_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim.insns_retired"), Some(m.stats.insns));
        for (label, value) in m.stats.counters() {
            // Every Display row reads back out of the snapshot under
            // the corresponding sim.* name with the same value.
            let metric = snap
                .counters
                .iter()
                .find(|(n, v)| n.starts_with("sim.") && *v == value)
                .map(|(n, _)| n.clone());
            assert!(metric.is_some(), "no sim.* metric carries {label}={value}");
        }
        // And the profile's cycle attribution accounts for the same
        // total the stats counter reports — one bookkeeping, two views.
        // (`retired()` excludes the synthetic runtime-call surcharge,
        // so it is bounded by `insns`; `per_fn` includes it and agrees
        // exactly.)
        let profile = m.profile.as_ref().unwrap();
        let attributed: u64 = profile.per_fn().iter().map(|&(_, c)| c).sum();
        assert_eq!(attributed, m.stats.insns);
        assert!(profile.retired() <= m.stats.insns);
        let class_total: u64 = profile.class_histogram().values().sum();
        assert_eq!(class_total, profile.retired());
    }
}
