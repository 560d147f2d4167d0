//! The parallel compilation service.
//!
//! The paper's compiler (§4, Table 1) runs its phase pipeline one
//! function at a time; this crate lifts that per-function pipeline into
//! a batch service without touching phase semantics:
//!
//! * **Fan-out** — a [`CompileService`] splits compilation units into
//!   hermetic per-function jobs, reading each top-level form through
//!   the frontend's classifier (`s1lisp_frontend::declaration`, the
//!   dispatch `Compiler::compile_str` uses, so a unit fails the batch
//!   exactly when it fails a serial compile), and runs them on `jobs`
//!   worker threads
//!   (`std::thread` + `mpsc`; `jobs = 1` degenerates to the serial path
//!   on the caller's thread), largest function first.  Jobs compile
//!   with [`s1lisp::Compiler::new`]'s switches — the paper's full
//!   optimization — or, demoted or degraded, with transformations off;
//!   the service adds scheduling, caching and containment, not switches.
//! * **Memoization** — an [`ArtifactCache`] keyed by the converted
//!   tree's structural fingerprint mixed with an option fingerprint;
//!   LRU in memory, optionally persisted to disk as JSON.  A cache hit
//!   skips every phase after Preliminary.
//! * **Robustness** — per-function panic isolation (`catch_unwind`), an
//!   optional per-function time budget with a watchdog thread that
//!   names the pass it caught running over, and graceful degradation:
//!   a function whose pipeline panics or runs over budget is recompiled
//!   with transformations off and the fault is recorded as an
//!   [`Incident`].
//! * **Observability** — cache hit/miss/evict counters, queue wait,
//!   per-worker and per-phase totals, one [`JobRecord`] per function,
//!   all serializable for `report --json service`.
//! * **Guarded compilation** — with [`ServiceConfig::guard`] set, every
//!   job runs the phase validators (Table-2 well-formedness and the
//!   back-translation round trip) and the differential oracle runs each
//!   [`OracleCase`] on the batch's options and on a transformations-off
//!   reference compile (with [`BackendSelect::Both`], also on bytecode
//!   against S-1).
//! * **Fault injection** — [`ServiceConfig::fault_plan`] is the one
//!   injector: a seeded [`FaultPlan`] deterministically injects cache
//!   I/O errors, corrupt reads, phase panics, watchdog overruns, and
//!   miscompiles to drill the whole containment surface
//!   ([`GuardReport`]), and [`FaultPlan::force`] pins one exact
//!   `(site, key)` — say, a panic in `tak`'s source-level optimization —
//!   for a targeted drill.
//!
//! ```
//! use s1lisp_driver::{CompileService, ServiceConfig, SourceUnit};
//!
//! let service = CompileService::new(ServiceConfig::with_jobs(4));
//! let units = [SourceUnit::new("demo", "(defun sq (x) (* x x))")];
//! let batch = service.compile_batch(&units);
//! assert_eq!(batch.artifacts.len(), 1);
//! assert!(batch.artifact("sq").unwrap().assembly.contains("RET"));
//! // Recompiling the same unit is pure cache traffic.
//! let again = service.compile_batch(&units);
//! assert_eq!(again.hit_rate_percent(), 100);
//! ```

#![warn(missing_docs)]

mod cache;
pub mod fsio;
mod service;

pub use cache::{ArtifactCache, CacheStats};
pub use s1lisp::{BackendKind, FaultPlan, FaultSite};
pub use service::{
    BatchResult, BatchStats, CompileService, GuardReport, Incident, IncidentKind, JobRecord,
    OracleVerdict, Outcome, WorkerStats,
};

use std::path::PathBuf;
use std::time::Duration;

use s1lisp::Compiler;

/// One compilation unit: a named batch of top-level forms.
#[derive(Clone, Debug)]
pub struct SourceUnit {
    /// A label for reports (a file name, an experiment id, …).
    pub name: String,
    /// The top-level forms (`defun`/`defvar`/`proclaim`).
    pub source: String,
}

impl SourceUnit {
    /// Builds a unit from anything string-like.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> SourceUnit {
        SourceUnit {
            name: name.into(),
            source: source.into(),
        }
    }
}

/// One differential-oracle case: after a guarded (or
/// [`BackendSelect::Both`]) batch, call `entry` with the given
/// arguments on each witness of each check and demand that subject and
/// reference agree.  Arguments are printed datums (`"3"`, `"-1.5"`,
/// `"(1 2)"`) so the configuration stays plain cross-thread data.
#[derive(Clone, Debug)]
pub struct OracleCase {
    /// The function to call.
    pub entry: String,
    /// Printed-datum arguments.
    pub args: Vec<String>,
}

impl OracleCase {
    /// Builds a case from anything string-like.
    pub fn new(
        entry: impl Into<String>,
        args: impl IntoIterator<Item = impl Into<String>>,
    ) -> OracleCase {
        OracleCase {
            entry: entry.into(),
            args: args.into_iter().map(Into::into).collect(),
        }
    }
}

/// Per-batch adjustments a multi-tenant caller (the compile server)
/// threads through the shared worker pool without cloning the service.
///
/// The default is inert: [`CompileService::compile_batch`] is exactly
/// `compile_batch_with(units, BatchTuning::default())`, and a zero salt
/// leaves every cache key untouched, so single-tenant callers see
/// byte-identical behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchTuning {
    /// XORed into every artifact-cache key.  A tenant fingerprint here
    /// partitions the shared cache: two tenants compiling the same form
    /// under the same options get distinct keys, so neither can warm-hit
    /// (or even observe the existence of) the other's artifacts.
    pub key_salt: u64,
    /// Compile with every source-level transformation off — the
    /// configuration a tenant is demoted to once its incident budget is
    /// exhausted.  Unlike the per-job degraded *retry*, these are clean
    /// first-attempt compiles: they cache normally (under the
    /// transformations-off option fingerprint) and their artifacts are
    /// not marked degraded.
    pub transformations_off: bool,
}

/// Which code generator a batch compiles with.
///
/// [`BackendSelect::Both`] is the cross-backend oracle mode: jobs
/// compile (and cache, and ship) S-1 artifacts exactly as
/// [`BackendSelect::S1`] does, and the oracle gains one witness pair —
/// bytecode on the stack evaluator against S-1 on the simulator, both
/// with the batch's options, under the same fuel.  A disagreement is
/// an [`IncidentKind::Miscompile`]; the S-1 artifact is what ships
/// either way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendSelect {
    /// The paper's S-1 backend (code generation + peephole).
    #[default]
    S1,
    /// The portable bytecode backend.
    Bytecode,
    /// Compile S-1, cross-check every oracle case against bytecode.
    Both,
}

impl BackendSelect {
    /// Parses a report/CLI label (`"s1"`, `"bytecode"`/`"bc"`,
    /// `"both"`).
    pub fn parse(s: &str) -> Option<BackendSelect> {
        match s {
            "both" => Some(BackendSelect::Both),
            _ => BackendKind::parse(s).map(|k| match k {
                BackendKind::S1 => BackendSelect::S1,
                BackendKind::Bytecode => BackendSelect::Bytecode,
            }),
        }
    }

    /// Lower-case label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendSelect::S1 => "s1",
            BackendSelect::Bytecode => "bytecode",
            BackendSelect::Both => "both",
        }
    }

    /// The backend batch jobs compile with (what the artifacts carry).
    pub fn primary(self) -> BackendKind {
        match self {
            BackendSelect::Bytecode => BackendKind::Bytecode,
            BackendSelect::S1 | BackendSelect::Both => BackendKind::S1,
        }
    }

    /// True when the oracle checks bytecode against S-1.
    pub fn cross_checked(self) -> bool {
        self == BackendSelect::Both
    }
}

/// Service configuration: how batches are scheduled, cached, guarded
/// and drilled.  The compiler switches are not here: every job compiles
/// with [`Compiler::new`]'s (the paper's full optimization), on
/// `backend`, and a demoted or degraded job with transformations off
/// ([`ServiceConfig::compiler`]).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads (`1` = serial on the caller's thread).
    pub jobs: usize,
    /// Which backend jobs compile with, and whether the oracle checks
    /// bytecode against S-1 ([`BackendSelect::Both`]).  The backend
    /// salts the option fingerprint, so the artifact cache is
    /// partitioned per backend automatically.
    pub backend: BackendSelect,
    /// Per-function wall-clock budget, enforced by a watchdog thread;
    /// an overrun is an [`IncidentKind::Timeout`] naming the pass it
    /// caught, then a degraded recompile.  `None` disables it.
    pub time_budget: Option<Duration>,
    /// In-memory cache entries to keep (LRU beyond this).
    pub cache_capacity: usize,
    /// Directory for the persistent cache tier; `None` disables it.
    pub cache_dir: Option<PathBuf>,
    /// Bound on entries in the persistent tier (the oldest are swept
    /// after each write); `None` leaves on-disk growth unbounded.
    pub disk_max_entries: Option<usize>,
    /// Guarded compilation: run the phase validators (well-formedness +
    /// back-translation round trip) on every job, route violations to
    /// the degraded path, and have the oracle check the batch's options
    /// against the transformations-off reference.
    pub guard: bool,
    /// The fault injector: a seeded plan arming the cache, phase,
    /// overrun, and oracle sites, or forcing exact `(site, key)` pairs
    /// (one function's phase panic, one job's overrun); `None` injects
    /// nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Oracle cases, run after the batch on every witness pair that
    /// `guard` and [`BackendSelect::Both`] turn on.
    pub oracle: Vec<OracleCase>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            jobs: 1,
            backend: BackendSelect::S1,
            time_budget: None,
            cache_capacity: 512,
            cache_dir: None,
            disk_max_entries: None,
            guard: false,
            fault_plan: None,
            oracle: Vec::new(),
        }
    }
}

impl ServiceConfig {
    /// The default configuration at a given worker count.
    pub fn with_jobs(jobs: usize) -> ServiceConfig {
        ServiceConfig {
            jobs,
            ..ServiceConfig::default()
        }
    }

    /// The compiler batch jobs, oracle witnesses and the compile
    /// server's tenant images all start from: [`Compiler::new`] on this
    /// configuration's primary backend, with every source transformation
    /// off under `transformations_off` (tenant demotion, degraded retry,
    /// oracle reference).  Guard validators and the fault plan stay off;
    /// first-attempt jobs arm them.
    pub fn compiler(&self, transformations_off: bool) -> Compiler {
        let mut c = Compiler::new();
        if transformations_off {
            c.opt_options = s1lisp::OptOptions::none();
        }
        c.backend = self.backend.primary();
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_compilers_are_the_plain_compiler_configurations() {
        let config = ServiceConfig::default();
        assert_eq!(
            config.compiler(false).options_fingerprint(),
            Compiler::new().options_fingerprint()
        );
        let mut off = Compiler::new();
        off.opt_options = s1lisp::OptOptions::none();
        assert_eq!(
            config.compiler(true).options_fingerprint(),
            off.options_fingerprint()
        );
        assert_ne!(
            config.compiler(true).options_fingerprint(),
            config.compiler(false).options_fingerprint()
        );
    }
}
