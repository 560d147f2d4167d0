//! Observability for the s1lisp pipeline.
//!
//! The paper explains itself twice over: §7 reproduces the compiler's
//! own debugging transcript (";**** courtesy of META-EVALUATE-…"), and
//! §6 *measures* the optimizations it describes ("nearly all of the
//! time it is possible … to generate code … that requires no MOV
//! instructions").  Both are observability artifacts — the compiler
//! narrating its decisions, the machine proving they paid off.  This
//! crate is the shared instrument: a [`TraceSink`] span/event model the
//! whole pipeline reports into, covering every phase of Table 1.
//!
//! * [`TraceSink`] — the recording interface.  Phases open *spans*
//!   (named after Table 1 rows), attribute *counters* to the innermost
//!   open span, and may log free-form *events*.
//! * [`NullSink`] — the default, all methods no-ops: tracing disabled
//!   costs nothing beyond a dead-branch check at phase boundaries.
//! * [`MemorySink`] — aggregates spans per phase (call counts, wall
//!   time, counter totals) and retains every span, with its counters
//!   and events, as a [`SpanRec`] so per-unit (per-function) views can
//!   be rebuilt — the substrate of `Compiler::explain`'s compilation
//!   dossiers.
//! * [`json`] — a dependency-free JSON model with a stable field order
//!   and a schema extractor, so `report --json` output can be pinned by
//!   golden tests.
//! * [`rng`] — a tiny deterministic PRNG; the workspace's property
//!   tests run offline and reproducibly on top of it.
//! * [`fault`] — seeded, order-independent fault injection
//!   ([`fault::FaultPlan`]); the robustness counterpart of tracing,
//!   letting any failure scenario replay exactly from a seed.
//! * [`metrics`] — the unified registry of counters, gauges, and
//!   fixed-bucket histograms every subsystem (simulator, heap, cache,
//!   service, pipeline) reports into; snapshots serialize through
//!   [`json`] with the same schema-pinning discipline.
//! * [`chrome`] — renders [`MemorySink`] span trees (and any other
//!   span forest) as Chrome trace-event JSON loadable in
//!   about:tracing/Perfetto, on a deterministic synthetic timeline.

#![warn(missing_docs)]

pub mod chrome;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod rng;
mod sink;

pub use sink::{MemorySink, NullSink, PhaseAgg, SpanId, SpanRec, TraceSink};
