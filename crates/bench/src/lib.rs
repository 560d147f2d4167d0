//! The experiment harness: one regenerator per table/figure/claim of the
//! paper (the experiment index lives in DESIGN.md; measured results in
//! EXPERIMENTS.md).
//!
//! Run everything with `cargo run -p s1lisp-bench --bin report`, or one
//! experiment with `… --bin report -- e4`.  Wall-clock timings of the
//! same workloads live in the Criterion bench (`cargo bench`).

pub mod backend;
pub mod corpus;
pub mod durability;
pub mod experiments;
pub mod explain;
pub mod flame;
pub mod json_report;
pub mod metrics_report;
pub mod passes;
pub mod perfbench;
pub mod records;
pub mod serve;
pub mod service;

pub use backend::{backend_batch, backend_record};
pub use durability::durability_record;
pub use experiments::{all_experiments, run_experiment, Experiment};
pub use explain::{corpus_functions, explain_function};
pub use flame::{batch_events, chrome_trace, flame_report};
pub use json_report::{json_record, trap_record};
pub use metrics_report::{collect_metrics, metrics_record, metrics_report};
pub use passes::{passes_record, passes_report};
pub use records::{check_golden, compare_golden, lookup, records, schema_of, Record};
pub use serve::serve_record;
pub use service::{
    guard_batch, guard_miscompile_record, guard_record, oracle_cases, service_batch,
    service_batch_for, service_fault_record, service_record_for, service_report, service_units,
    GUARD_SEED,
};
