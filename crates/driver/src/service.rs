//! Batch compilation: unit splitting, the worker pool, fault handling,
//! and result assembly.
//!
//! # Determinism
//!
//! Each job is *hermetic*: the worker receives the printed `defun` form,
//! the specials proclaimed before it in its unit, and the option set —
//! nothing else — and builds a private [`Compiler`] around them.  A
//! function's artifact therefore depends only on `(form, specials,
//! options)`, never on which worker ran it, in what order, or what else
//! was in the batch; results are reassembled in source order.  This is
//! also why the cache key is sound: the fingerprint covers exactly the
//! inputs the job can observe.
//!
//! One visible consequence: generated names (`or%3`, loop tags) restart
//! per function instead of counting across a whole
//! [`Compiler::compile_str`] unit, so service output can differ
//! cosmetically from the classic serial path in multi-`defun` units.
//! The pinned contract is jobs-invariance — `jobs = 1`, `2` and `8`
//! byte-identical — not equality with `compile_str`.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use s1lisp::{
    Artifact, BackendKind, CompileError, Compiler, FaultPlan, FaultSite, Machine, PassWatch, Value,
};
use s1lisp_ast::Fnv1a64;
use s1lisp_reader::{read_all_str, read_str, Datum, Interner};
use s1lisp_trace::json::Json;
use s1lisp_trace::metrics::{Histogram, MetricsRegistry, TIME_BUCKETS_US};

use crate::cache::{ArtifactCache, CacheStats};
use crate::{BatchTuning, FaultMode, OracleCase, Schedule, ServiceConfig, SourceUnit};

/// One function's worth of work: everything a worker needs, as plain
/// data that crosses threads freely.
#[derive(Clone, Debug)]
struct Job {
    seq: usize,
    unit: String,
    fn_name: String,
    /// The printed `defun` form (print∘read is the identity for the
    /// reader, pinned by property test).
    form: String,
    /// Special variables proclaimed (or `defvar`ed) before this form in
    /// its unit, in order.
    specials: Vec<String>,
    /// The batch's tuning: the cache-key salt (zero for plain batches,
    /// a tenant fingerprint under the compile server) and the tenant
    /// demotion.
    tuning: BatchTuning,
}

/// How one job was resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the artifact cache; only the Preliminary phase ran.
    Hit,
    /// Compiled through the full pipeline and cached.
    Compiled,
    /// Recompiled with transformations off after a panic or timeout.
    Degraded,
    /// No artifact: the function failed to convert or compile (and, if
    /// it panicked or timed out first, the degraded retry failed too).
    Failed,
}

impl Outcome {
    /// Lower-case label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Compiled => "compiled",
            Outcome::Degraded => "degraded",
            Outcome::Failed => "failed",
        }
    }
}

/// What went wrong before a degraded recompile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidentKind {
    /// The pipeline panicked.
    Panic,
    /// The pipeline exceeded the per-function time budget.
    Timeout,
    /// A guarded-compilation validator rejected the tree.
    Guard,
    /// The differential oracle caught the optimized artifact computing
    /// a different answer than the reference compile.
    Miscompile,
    /// A durable-state recovery fault: the compile server found a
    /// tenant's on-disk snapshot or journal corrupted mid-log and
    /// quarantined the tenant to a fresh namespace.
    Recovery,
}

impl IncidentKind {
    /// Lower-case label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            IncidentKind::Panic => "panic",
            IncidentKind::Timeout => "timeout",
            IncidentKind::Guard => "guard",
            IncidentKind::Miscompile => "miscompile",
            IncidentKind::Recovery => "recovery",
        }
    }
}

/// A recorded pipeline fault: one function panicked, ran over budget,
/// failed a guard validator, or miscompiled under the oracle; the
/// batch carried on, and a degraded recompile (or reference artifact)
/// was attempted.
#[derive(Clone, Debug)]
pub struct Incident {
    /// The function whose compilation faulted.
    pub function: String,
    /// The compilation unit it came from.
    pub unit: String,
    /// Panic, timeout, guard violation, or oracle mismatch.
    pub kind: IncidentKind,
    /// The panic message, or a description of the violated invariant.
    pub detail: String,
    /// True when the degraded recompile produced an artifact.
    pub recovered: bool,
}

/// Telemetry for one job: who ran it, how it resolved, and which phases
/// it went through (phase name, spans, wall microseconds).
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Source-order index across the whole batch.
    pub seq: usize,
    /// The compilation unit.
    pub unit: String,
    /// The function name.
    pub function: String,
    /// Which worker ran the job (scheduling-dependent).
    pub worker: usize,
    /// How the job resolved.
    pub outcome: Outcome,
    /// Wall time the worker spent on the job, in microseconds.
    pub wall_us: u64,
    /// Time the job sat in the queue before a worker picked it up, in
    /// microseconds (the per-job sample behind the
    /// `service.queue_wait_us` histogram).
    pub queue_us: u64,
    /// Phase spans recorded while resolving the job.  On a cache hit
    /// this is the Preliminary phase alone — the pinned evidence that
    /// hits skip every downstream phase.
    pub phase_spans: Vec<(String, u64, u64)>,
}

/// Per-worker totals.
#[derive(Clone, Debug)]
pub struct WorkerStats {
    /// Worker index, `0..workers_used`.
    pub worker: usize,
    /// Jobs this worker resolved.
    pub jobs: u64,
    /// Total wall time across its jobs, in microseconds.
    pub wall_us: u64,
}

/// Batch-level telemetry.
#[derive(Clone, Debug)]
pub struct BatchStats {
    /// Worker threads actually used (≤ the configured `jobs`).
    pub workers_used: usize,
    /// Queue order the batch ran with.
    pub schedule: Schedule,
    /// Functions fanned out.
    pub functions: usize,
    /// Cache traffic caused by this batch.
    pub cache: CacheStats,
    /// Jobs enqueued at the start (the queue only drains).
    pub queue_peak: usize,
    /// Per-worker totals, by worker index.
    pub workers: Vec<WorkerStats>,
    /// Phase spans merged across every job: (phase, spans, wall
    /// microseconds), in first-seen source order.
    pub phase_totals: Vec<(String, u64, u64)>,
}

/// One oracle verdict: the printed outcome (value or trap) of `entry`
/// on a check's subject and reference witnesses — the batch-configured
/// and transformations-off compiles in [`GuardReport::oracle`], the
/// bytecode and S-1 compiles in [`BatchResult::cross`].
#[derive(Clone, Debug)]
pub struct OracleVerdict {
    /// The function that was called.
    pub entry: String,
    /// True when subject and reference agreed.
    pub matched: bool,
    /// Printed outcome on the subject witness.
    pub subject: String,
    /// Printed outcome on the reference witness.
    pub reference: String,
    /// True when a fault-plan site (`SimTrap`/`Miscompile`) perturbed
    /// the subject.
    pub injected: bool,
}

/// The guarded-compilation summary attached to a batch when
/// [`ServiceConfig::guard`](crate::ServiceConfig::guard) is set.
#[derive(Clone, Debug)]
pub struct GuardReport {
    /// The fault plan's seed (0 when no plan was armed).
    pub seed: u64,
    /// Armed fault sites as `(site, permille)`.
    pub armed: Vec<(String, u16)>,
    /// Differential-oracle verdicts, in case order.
    pub oracle: Vec<OracleVerdict>,
    /// True when persistent disk failures demoted the cache to
    /// memory-only operation during the batch.
    pub disk_disabled: bool,
    /// The containment verdict: no function was lost — every fault
    /// became a recovered incident and the failure list is empty.
    pub contained: bool,
}

impl GuardReport {
    /// The machine-readable form embedded in `report --json guard`.
    pub fn to_json(&self) -> Json {
        let armed = self
            .armed
            .iter()
            .map(|(site, rate)| {
                Json::obj(vec![
                    ("site", Json::str(site)),
                    ("permille", Json::uint(u64::from(*rate))),
                ])
            })
            .collect();
        let oracle = self.oracle.iter().map(|v| Check::Guard.json(v)).collect();
        Json::obj(vec![
            ("seed", Json::uint(self.seed)),
            ("armed", Json::Arr(armed)),
            ("oracle", Json::Arr(oracle)),
            ("disk_disabled", Json::Bool(self.disk_disabled)),
            ("contained", Json::Bool(self.contained)),
        ])
    }
}

/// Everything a batch compile produced.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Artifacts in source order (degraded ones included, marked).
    pub artifacts: Vec<Artifact>,
    /// One record per job, in source order.
    pub records: Vec<JobRecord>,
    /// Pipeline faults, in source order.
    pub incidents: Vec<Incident>,
    /// Failures as `(scope, message)`, where scope is `unit <name>` for
    /// split failures and the function name for per-job ones.
    pub failures: Vec<(String, String)>,
    /// `defvar` globals seen while splitting: (name, printed initial
    /// value).
    pub globals: Vec<(String, String)>,
    /// Batch telemetry.
    pub stats: BatchStats,
    /// Guarded-compilation summary; `None` unless the batch ran with
    /// [`ServiceConfig::guard`](crate::ServiceConfig::guard).
    pub guard: Option<GuardReport>,
    /// Cross-backend oracle verdicts (subject bytecode, reference
    /// S-1), in case order; empty unless the batch ran with
    /// [`BackendSelect::Both`](crate::BackendSelect::Both).
    pub cross: Vec<OracleVerdict>,
}

impl BatchResult {
    /// The artifact for `name`, if the batch produced one (last
    /// definition wins, as in [`Compiler::function`]).
    pub fn artifact(&self, name: &str) -> Option<&Artifact> {
        self.artifacts.iter().rev().find(|a| a.name == name)
    }

    /// Every dossier, concatenated in source order — the byte-stable
    /// rendering the determinism tests pin across `jobs` settings.
    pub fn render_artifacts(&self) -> String {
        let mut out = String::new();
        for a in &self.artifacts {
            out.push_str(&a.dossier);
            out.push('\n');
        }
        out
    }

    /// Installs the batch's `defvar` globals into a machine, making a
    /// batch-compiled program directly runnable like a serial
    /// [`Compiler::machine`]: each printed initializer is re-read,
    /// converted to a value (one `quote` level stripped, as `defvar`
    /// does), and set as the global.  Returns the number installed.
    ///
    /// # Errors
    ///
    /// A string naming the global whose initializer failed to re-read
    /// or install.
    pub fn load_globals(&self, m: &mut Machine) -> Result<usize, String> {
        let mut interner = Interner::new();
        let mut installed = 0;
        for (name, init) in &self.globals {
            let datum = read_str(init, &mut interner).map_err(|e| format!("global {name}: {e}"))?;
            let quoted = datum
                .car()
                .and_then(|h| h.as_symbol().cloned())
                .is_some_and(|s| s.as_str() == "quote");
            let datum = if quoted {
                datum
                    .cdr()
                    .and_then(|d| d.car())
                    .ok_or_else(|| format!("global {name}: malformed quote"))?
            } else {
                datum
            };
            let value = Value::from_datum(&datum);
            m.set_global(name, &value)
                .map_err(|t| format!("global {name}: {t}"))?;
            installed += 1;
        }
        Ok(installed)
    }

    /// Cache hits as a percentage of functions, rounded down (100 ⇔
    /// every job was served from cache).
    pub fn hit_rate_percent(&self) -> u64 {
        if self.stats.functions == 0 {
            return 0;
        }
        self.stats.cache.hits * 100 / self.stats.functions as u64
    }

    /// The machine-readable form behind `report --json service`.
    pub fn to_json(&self) -> Json {
        let cache = Json::obj(vec![
            ("hits", Json::uint(self.stats.cache.hits)),
            ("misses", Json::uint(self.stats.cache.misses)),
            ("evictions", Json::uint(self.stats.cache.evictions)),
            ("disk_hits", Json::uint(self.stats.cache.disk_hits)),
            ("io_retries", Json::uint(self.stats.cache.io_retries)),
            ("io_errors", Json::uint(self.stats.cache.io_errors)),
            ("corrupt_reads", Json::uint(self.stats.cache.corrupt_reads)),
            (
                "disk_evictions",
                Json::uint(self.stats.cache.disk_evictions),
            ),
        ]);
        let workers = self
            .stats
            .workers
            .iter()
            .map(|w| {
                Json::obj(vec![
                    ("worker", Json::uint(w.worker as u64)),
                    ("jobs", Json::uint(w.jobs)),
                    ("wall_us", Json::uint(w.wall_us)),
                ])
            })
            .collect();
        let phases = self
            .stats
            .phase_totals
            .iter()
            .map(|(phase, spans, wall)| {
                Json::obj(vec![
                    ("phase", Json::str(phase)),
                    ("spans", Json::uint(*spans)),
                    ("wall_us", Json::uint(*wall)),
                ])
            })
            .collect();
        let records = self
            .records
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("seq", Json::uint(r.seq as u64)),
                    ("unit", Json::str(&r.unit)),
                    ("function", Json::str(&r.function)),
                    ("worker", Json::uint(r.worker as u64)),
                    ("outcome", Json::str(r.outcome.as_str())),
                    ("wall_us", Json::uint(r.wall_us)),
                    ("queue_us", Json::uint(r.queue_us)),
                    (
                        "phase_spans",
                        Json::Map(
                            r.phase_spans
                                .iter()
                                .map(|(p, spans, _)| (p.clone(), Json::uint(*spans)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let incidents = self
            .incidents
            .iter()
            .map(|i| {
                Json::obj(vec![
                    ("function", Json::str(&i.function)),
                    ("unit", Json::str(&i.unit)),
                    ("kind", Json::str(i.kind.as_str())),
                    ("detail", Json::str(&i.detail)),
                    ("recovered", Json::Bool(i.recovered)),
                ])
            })
            .collect();
        let failures = self
            .failures
            .iter()
            .map(|(scope, error)| {
                Json::obj(vec![
                    ("scope", Json::str(scope)),
                    ("error", Json::str(error)),
                ])
            })
            .collect();
        let globals = self
            .globals
            .iter()
            .map(|(name, init)| {
                Json::obj(vec![("name", Json::str(name)), ("init", Json::str(init))])
            })
            .collect();
        let cross = self
            .cross
            .iter()
            .map(|v| Check::CrossBackend.json(v))
            .collect();
        let artifacts = self.artifacts.iter().map(Artifact::to_json).collect();
        Json::obj(vec![
            ("workers_used", Json::uint(self.stats.workers_used as u64)),
            ("schedule", Json::str(self.stats.schedule.as_str())),
            ("functions", Json::uint(self.stats.functions as u64)),
            ("hit_rate_percent", Json::uint(self.hit_rate_percent())),
            ("queue_peak", Json::uint(self.stats.queue_peak as u64)),
            ("cache", cache),
            ("workers", Json::Arr(workers)),
            ("phases", Json::Arr(phases)),
            ("records", Json::Arr(records)),
            ("incidents", Json::Arr(incidents)),
            ("failures", Json::Arr(failures)),
            ("globals", Json::Arr(globals)),
            (
                "guard",
                self.guard.as_ref().map_or(Json::Null, GuardReport::to_json),
            ),
            ("cross", Json::Arr(cross)),
            ("artifacts", Json::Arr(artifacts)),
        ])
    }
}

/// The batch-compilation service: a worker pool over hermetic
/// per-function jobs, in front of a content-addressed [`ArtifactCache`]
/// that persists across [`CompileService::compile_batch`] calls.
///
/// The service and its cache share one [`MetricsRegistry`]
/// ([`CompileService::metrics`]): `service.*` covers queue wait, job
/// wall time, outcomes, and incidents by kind; `cache.*` the cache's
/// traffic and latency.
pub struct CompileService {
    config: ServiceConfig,
    cache: ArtifactCache,
    metrics: Arc<MetricsRegistry>,
    queue_wait_us: Histogram,
    job_wall_us: Histogram,
}

/// The cache key: the converted tree's structural fingerprint mixed
/// with the option fingerprint.
fn cache_key(tree_fp: u64, options_fp: u64) -> u64 {
    let mut h = Fnv1a64::new();
    h.write_u64(tree_fp);
    h.write_u64(options_fp);
    h.finish()
}

/// A compiler configured for one job: transformations off for a
/// demoted batch, and for the `degraded` retry after a fault — which
/// also drops the guard validators and injected faults, since the retry
/// must run clean.
fn job_compiler(config: &ServiceConfig, job: &Job, degraded: bool) -> Compiler {
    let mut c = config.compiler(job.tuning.transformations_off || degraded);
    if !degraded {
        c.guard = config.guard;
        c.fault_plan = config.fault_plan.clone();
    }
    c.enable_trace();
    for s in &job.specials {
        c.proclaim_special(s);
    }
    c
}

fn sink_phase_spans(c: &Compiler) -> Vec<(String, u64, u64)> {
    c.trace().map_or_else(Vec::new, |sink| {
        sink.phases()
            .iter()
            .map(|p| {
                (
                    p.phase.to_string(),
                    p.spans,
                    u64::try_from(p.wall.as_micros()).unwrap_or(u64::MAX),
                )
            })
            .collect()
    })
}

struct AttemptOk {
    artifact: Artifact,
    phase_spans: Vec<(String, u64, u64)>,
}

/// A failed attempt; `guard` marks validator rejections, which take
/// the degraded-recompile path instead of failing the function
/// outright.
struct AttemptErr {
    guard: bool,
    detail: String,
}

impl AttemptErr {
    fn plain(detail: impl Into<String>) -> AttemptErr {
        AttemptErr {
            guard: false,
            detail: detail.into(),
        }
    }
}

impl From<CompileError> for AttemptErr {
    fn from(e: CompileError) -> AttemptErr {
        AttemptErr {
            guard: matches!(e, CompileError::Guard(_)),
            detail: e.to_string(),
        }
    }
}

/// One self-contained compilation attempt: builds a private compiler,
/// converts, (optionally) trips the injected faults, and compiles.
/// Runs inline or on a watchdogged thread; owns no shared state.
fn attempt(job: &Job, config: &ServiceConfig, degraded: bool) -> Result<AttemptOk, AttemptErr> {
    let mut c = job_compiler(config, job, degraded);
    let mut pending = c.convert_str(&job.form)?;
    let Some(p) = pending.pop().filter(|_| pending.is_empty()) else {
        return Err(AttemptErr::plain(format!(
            "expected exactly one function in job {}",
            job.fn_name
        )));
    };
    if !degraded {
        if let Some(fault) = config.fault.as_ref().filter(|f| f.function == job.fn_name) {
            match fault.mode {
                FaultMode::Panic => {
                    panic!("injected optimizer fault in {}", job.fn_name)
                }
                FaultMode::Hang(d) => std::thread::sleep(d),
            }
        }
    }
    let name = c.compile_pending(p)?;
    let mut artifact = c
        .artifact(&name)
        .ok_or_else(|| AttemptErr::plain(format!("no artifact for {name}")))?;
    artifact.degraded = degraded;
    Ok(AttemptOk {
        artifact,
        phase_spans: sink_phase_spans(&c),
    })
}

enum AttemptOutcome {
    Ok(Box<AttemptOk>),
    CompileError(AttemptErr),
    Panicked(String),
    /// The watchdog gave up; carries the pass the attempt was in.
    TimedOut(Option<&'static str>),
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs an attempt with panic isolation, and — when a time budget is
/// configured — under a watchdog: the attempt runs on its own thread,
/// recording each pass it enters in a [`PassWatch`], and the worker
/// waits at most the budget.  A thread that runs over is abandoned
/// (threads cannot be killed); it owns only job-local state, so the
/// leak is bounded by process exit.
fn guarded_attempt(job: &Job, config: &ServiceConfig, degraded: bool) -> AttemptOutcome {
    match config.time_budget {
        None => match catch_unwind(AssertUnwindSafe(|| attempt(job, config, degraded))) {
            Ok(Ok(ok)) => AttemptOutcome::Ok(Box::new(ok)),
            Ok(Err(e)) => AttemptOutcome::CompileError(e),
            Err(payload) => AttemptOutcome::Panicked(panic_detail(payload.as_ref())),
        },
        Some(budget) => {
            let (tx, rx) = mpsc::channel();
            let job = job.clone();
            let config = config.clone();
            let watch = PassWatch::new(budget);
            let watched = watch.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("s1lisp-attempt-{}", job.fn_name))
                .spawn(move || {
                    watched.install();
                    let r = catch_unwind(AssertUnwindSafe(|| attempt(&job, &config, degraded)))
                        .map_err(|p| panic_detail(p.as_ref()));
                    let _ = tx.send(r);
                });
            if spawned.is_err() {
                return AttemptOutcome::CompileError(AttemptErr::plain(
                    "could not spawn attempt thread",
                ));
            }
            match rx.recv_timeout(budget) {
                Ok(Ok(Ok(ok))) => AttemptOutcome::Ok(Box::new(ok)),
                Ok(Ok(Err(e))) => AttemptOutcome::CompileError(e),
                Ok(Err(detail)) => AttemptOutcome::Panicked(detail),
                Err(mpsc::RecvTimeoutError::Timeout) => AttemptOutcome::TimedOut(watch.pass()),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    AttemptOutcome::Panicked("attempt thread died without reporting".into())
                }
            }
        }
    }
}

struct JobResult {
    record: JobRecord,
    artifact: Option<Artifact>,
    incident: Option<Incident>,
    failure: Option<(String, String)>,
}

/// Resolves one job end to end: probe the cache, compile on a miss,
/// degrade on a fault.
fn process_job(
    job: &Job,
    config: &ServiceConfig,
    cache: &ArtifactCache,
    worker: usize,
) -> JobResult {
    let start = Instant::now();
    let mut incident = None;
    let mut failure = None;
    let phase_spans;
    // The cache probe needs the converted tree; conversion is the
    // Preliminary phase and never optimizes, so it runs outside the
    // fault/budget guard.
    let mut probe = job_compiler(config, job, false);
    // The *cache* key carries the tenant salt (partitioning the shared
    // cache); the *reported* fingerprint stays unsalted so the same
    // function compiles to byte-identical artifacts for every tenant —
    // the server-vs-`compile_batch` equivalence contract.
    let (key, fingerprint) = match probe.convert_str(&job.form) {
        Ok(pending) if pending.len() == 1 => {
            let base = cache_key(pending[0].tree_fingerprint(), probe.options_fingerprint());
            (base ^ job.tuning.key_salt, base)
        }
        Ok(_) => (0, 0),
        Err(e) => {
            return JobResult {
                record: JobRecord {
                    seq: job.seq,
                    unit: job.unit.clone(),
                    function: job.fn_name.clone(),
                    worker,
                    outcome: Outcome::Failed,
                    wall_us: elapsed_us(start),
                    queue_us: 0,
                    phase_spans: sink_phase_spans(&probe),
                },
                artifact: None,
                incident: None,
                failure: Some((job.fn_name.clone(), e.to_string())),
            }
        }
    };
    let (outcome, artifact) = if let Some(mut hit) = cache.get(key) {
        hit.fingerprint = fingerprint;
        phase_spans = sink_phase_spans(&probe);
        (Outcome::Hit, Some(hit))
    } else {
        match guarded_attempt(job, config, false) {
            AttemptOutcome::Ok(mut ok) => {
                ok.artifact.fingerprint = fingerprint;
                cache.put(key, &ok.artifact);
                phase_spans = ok.phase_spans;
                (Outcome::Compiled, Some(ok.artifact))
            }
            AttemptOutcome::CompileError(e) if !e.guard => {
                failure = Some((job.fn_name.clone(), e.detail));
                phase_spans = Vec::new();
                (Outcome::Failed, None)
            }
            faulted => {
                let (kind, detail) = match faulted {
                    AttemptOutcome::TimedOut(pass) => {
                        let budget = config.time_budget.unwrap_or_default();
                        let during = pass.map_or_else(
                            || "before its first pass".to_string(),
                            |p| format!("in pass {p}"),
                        );
                        (
                            IncidentKind::Timeout,
                            format!("exceeded the {budget:?} per-function budget {during}"),
                        )
                    }
                    AttemptOutcome::Panicked(d) => (IncidentKind::Panic, d),
                    // Only guard rejections reach here; plain compile
                    // errors took the arm above.
                    AttemptOutcome::CompileError(e) => (IncidentKind::Guard, e.detail),
                    AttemptOutcome::Ok(_) => unreachable!("handled above"),
                };
                // Graceful degradation: transformations off, no fault
                // injection, no validators, panic-isolated.  Degraded
                // artifacts are never cached — the cache holds only
                // clean output.
                let retry = catch_unwind(AssertUnwindSafe(|| attempt(job, config, true)));
                let (outcome, artifact, recovered) = match retry {
                    Ok(Ok(mut ok)) => {
                        ok.artifact.fingerprint = fingerprint;
                        phase_spans = ok.phase_spans;
                        (Outcome::Degraded, Some(ok.artifact), true)
                    }
                    Ok(Err(e)) => {
                        failure = Some((job.fn_name.clone(), e.detail));
                        phase_spans = Vec::new();
                        (Outcome::Failed, None, false)
                    }
                    Err(payload) => {
                        failure = Some((job.fn_name.clone(), panic_detail(payload.as_ref())));
                        phase_spans = Vec::new();
                        (Outcome::Failed, None, false)
                    }
                };
                incident = Some(Incident {
                    function: job.fn_name.clone(),
                    unit: job.unit.clone(),
                    kind,
                    detail,
                    recovered,
                });
                (outcome, artifact)
            }
        }
    };
    JobResult {
        record: JobRecord {
            seq: job.seq,
            unit: job.unit.clone(),
            function: job.fn_name.clone(),
            worker,
            outcome,
            wall_us: elapsed_us(start),
            queue_us: 0,
            phase_spans,
        },
        artifact,
        incident,
        failure,
    }
}

fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The size estimate a job is scheduled by: convert the form with the
/// job's own option set and read the complexity analysis's
/// whole-function object-code estimate.  A form that fails to convert
/// estimates 0 — the job still runs (and records its failure) wherever
/// it lands in the queue.
fn size_estimate(job: &Job, config: &ServiceConfig) -> u32 {
    let mut probe = job_compiler(config, job, false);
    match probe.convert_str(&job.form) {
        Ok(pending) if pending.len() == 1 => pending[0].complexity_estimate(),
        _ => 0,
    }
}

/// The per-job metric handles a worker observes into: queue wait is the
/// time a job sat in the queue (from queue open to dequeue), job wall
/// the time the worker spent resolving it.
struct WorkerMetrics<'a> {
    queue_opened: Instant,
    queue_wait_us: &'a Histogram,
    job_wall_us: &'a Histogram,
}

fn worker_loop(
    worker: usize,
    queue: &Mutex<VecDeque<Job>>,
    config: &ServiceConfig,
    cache: &ArtifactCache,
    metrics: &WorkerMetrics<'_>,
    tx: &mpsc::Sender<JobResult>,
) {
    loop {
        let job = queue.lock().expect("job queue lock").pop_front();
        let Some(job) = job else { break };
        let queue_us = elapsed_us(metrics.queue_opened);
        metrics.queue_wait_us.observe(queue_us);
        let mut result = process_job(&job, config, cache, worker);
        result.record.queue_us = queue_us;
        metrics.job_wall_us.observe(result.record.wall_us);
        if tx.send(result).is_err() {
            break;
        }
    }
}

impl CompileService {
    /// A service over a fresh cache.
    pub fn new(config: ServiceConfig) -> CompileService {
        let metrics = Arc::new(MetricsRegistry::new());
        let cache = ArtifactCache::with_metrics(
            config.cache_capacity,
            config.cache_dir.clone(),
            config.disk_max_entries,
            config.fault_plan.clone(),
            Arc::clone(&metrics),
        );
        let queue_wait_us = metrics.histogram("service.queue_wait_us", TIME_BUCKETS_US);
        let job_wall_us = metrics.histogram("service.job_wall_us", TIME_BUCKETS_US);
        CompileService {
            config,
            cache,
            metrics,
            queue_wait_us,
            job_wall_us,
        }
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The registry this service (and its cache) report into.  Lifetime
    /// totals across every batch; snapshot it between batches for
    /// deltas.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Lifetime cache traffic (across every batch this service ran).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Splits `units` into per-function jobs, fans them across the
    /// worker pool, and reassembles results in source order.  The cache
    /// is consulted per function and persists across calls, so
    /// recompiling an unchanged batch is pure cache traffic.
    ///
    /// Unlike [`Compiler::compile_str`], failures are isolated: a
    /// function that fails to convert, compile, or recover is recorded
    /// in [`BatchResult::failures`] while the rest of the batch
    /// completes.
    pub fn compile_batch(&self, units: &[SourceUnit]) -> BatchResult {
        self.compile_batch_with(units, BatchTuning::default())
    }

    /// [`CompileService::compile_batch`] with per-batch [`BatchTuning`]:
    /// the compile server's entry point, where each request batch
    /// carries its tenant's cache-key salt and (once the tenant's
    /// incident budget is exhausted) the transformations-off demotion.
    /// `compile_batch` is exactly this call with the default (inert)
    /// tuning.
    pub fn compile_batch_with(&self, units: &[SourceUnit], tuning: BatchTuning) -> BatchResult {
        let config = &self.config;
        let before = self.cache.stats();
        let mut jobs = Vec::new();
        let mut globals = Vec::new();
        let mut failures = Vec::new();
        for unit in units {
            match split_unit(unit, jobs.len()) {
                Ok(split) => {
                    jobs.extend(split.jobs);
                    globals.extend(split.globals);
                }
                Err(e) => failures.push((format!("unit {}", unit.name), e)),
            }
        }
        for j in &mut jobs {
            j.tuning = tuning;
        }
        let functions = jobs.len();
        let queue_peak = functions;
        let workers_used = config.jobs.max(1).min(functions.max(1));
        if config.schedule == Schedule::LargestFirst && jobs.len() > 1 {
            // Largest first: the biggest compilations start before the
            // queue thins out.  Results are reassembled by `seq`, so
            // this affects wall-clock only, never output.
            let mut keyed: Vec<(u32, Job)> = jobs
                .into_iter()
                .map(|j| (size_estimate(&j, config), j))
                .collect();
            keyed.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.seq.cmp(&b.1.seq)));
            jobs = keyed.into_iter().map(|(_, j)| j).collect();
        }
        let queue = Mutex::new(jobs.into_iter().collect::<VecDeque<_>>());
        let worker_metrics = WorkerMetrics {
            queue_opened: Instant::now(),
            queue_wait_us: &self.queue_wait_us,
            job_wall_us: &self.job_wall_us,
        };
        let (tx, rx) = mpsc::channel();
        if workers_used == 1 {
            // The degenerate serial path: same worker loop, caller's
            // thread, no pool.
            worker_loop(0, &queue, config, &self.cache, &worker_metrics, &tx);
        } else {
            std::thread::scope(|s| {
                for worker in 0..workers_used {
                    let tx = tx.clone();
                    let queue = &queue;
                    let worker_metrics = &worker_metrics;
                    s.spawn(move || {
                        worker_loop(worker, queue, config, &self.cache, worker_metrics, &tx);
                    });
                }
            });
        }
        drop(tx);
        let mut results: Vec<JobResult> = rx.into_iter().collect();
        results.sort_by_key(|r| r.record.seq);

        let mut workers: Vec<WorkerStats> = (0..workers_used)
            .map(|worker| WorkerStats {
                worker,
                jobs: 0,
                wall_us: 0,
            })
            .collect();
        let mut phase_totals: Vec<(String, u64, u64)> = Vec::new();
        let mut artifacts = Vec::new();
        let mut records = Vec::new();
        let mut incidents = Vec::new();
        for r in results {
            self.metrics
                .counter(&format!("service.outcome.{}", r.record.outcome.as_str()))
                .inc();
            if let Some(i) = &r.incident {
                self.metrics
                    .counter(&format!("service.incident.{}", i.kind.as_str()))
                    .inc();
            }
            if let Some(w) = workers.get_mut(r.record.worker) {
                w.jobs += 1;
                w.wall_us += r.record.wall_us;
            }
            for (phase, spans, wall) in &r.record.phase_spans {
                match phase_totals.iter_mut().find(|(p, _, _)| p == phase) {
                    Some(slot) => {
                        slot.1 += spans;
                        slot.2 += wall;
                    }
                    None => phase_totals.push((phase.clone(), *spans, *wall)),
                }
            }
            artifacts.extend(r.artifact);
            incidents.extend(r.incident);
            failures.extend(r.failure);
            records.push(r.record);
        }
        let mut batch = BatchResult {
            artifacts,
            records,
            incidents,
            failures,
            globals,
            stats: BatchStats {
                workers_used,
                schedule: config.schedule,
                functions,
                cache: self.cache.stats().since(&before),
                queue_peak,
                workers,
                phase_totals,
            },
            guard: None,
            cross: Vec::new(),
        };
        if config.guard {
            let plan = config
                .fault_plan
                .clone()
                .unwrap_or_else(|| FaultPlan::new(0));
            batch.guard = Some(GuardReport {
                seed: plan.seed,
                armed: plan
                    .armed_sites()
                    .into_iter()
                    .map(|(site, rate)| (site.to_string(), rate))
                    .collect(),
                oracle: Vec::new(),
                disk_disabled: self.cache.disk_disabled(),
                contained: false,
            });
        }
        Oracle::new(config, units).judge(config, &mut batch);
        if let Some(guard) = &mut batch.guard {
            guard.contained =
                batch.failures.is_empty() && batch.incidents.iter().all(|i| i.recovered);
        }
        self.metrics.counter("service.batches").inc();
        self.metrics
            .counter("service.jobs")
            .add(batch.stats.functions as u64);
        self.metrics
            .gauge("service.queue_peak")
            .set(batch.stats.queue_peak as i64);
        self.metrics
            .gauge("cache.hit_rate_permille")
            .set(self.cache.stats().hit_rate_permille() as i64);
        batch
    }
}

/// A compile configuration an oracle case runs on: the batch's
/// compiler options or the transformations-off reference, closed by one
/// backend — which also picks the engine: S-1 code runs on the
/// simulator, bytecode on the stack evaluator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Witness {
    transformations_off: bool,
    backend: BackendKind,
}

impl Witness {
    fn new(transformations_off: bool, backend: BackendKind) -> Witness {
        Witness {
            transformations_off,
            backend,
        }
    }
}

/// A check the oracle makes: one (subject, reference) witness pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Check {
    /// [`ServiceConfig::guard`]: the batch's options against the
    /// transformations-off reference, on the primary backend.
    Guard,
    /// [`BackendSelect::Both`](crate::BackendSelect::Both): bytecode
    /// against S-1, both with the batch's options.
    CrossBackend,
}

impl Check {
    /// The check's (subject, reference) witnesses.
    fn witnesses(self, primary: BackendKind) -> (Witness, Witness) {
        match self {
            Check::Guard => (Witness::new(false, primary), Witness::new(true, primary)),
            Check::CrossBackend => (
                Witness::new(false, BackendKind::Bytecode),
                Witness::new(false, BackendKind::S1),
            ),
        }
    }

    /// Names the check in failure scopes and incident details.
    fn label(self) -> &'static str {
        match self {
            Check::Guard => "oracle",
            Check::CrossBackend => "cross-backend",
        }
    }

    /// A verdict's two outcomes under the check's report keys, in
    /// report order.
    fn sides(self, v: &OracleVerdict) -> [(&'static str, &str); 2] {
        match self {
            Check::Guard => [("optimized", &v.subject), ("reference", &v.reference)],
            Check::CrossBackend => [("s1", &v.reference), ("bytecode", &v.subject)],
        }
    }

    fn json(self, v: &OracleVerdict) -> Json {
        let [(k0, v0), (k1, v1)] = self.sides(v);
        Json::obj(vec![
            ("entry", Json::str(&v.entry)),
            ("matched", Json::Bool(v.matched)),
            (k0, Json::str(v0)),
            (k1, Json::str(v1)),
            ("injected", Json::Bool(v.injected)),
        ])
    }

    /// Where the check's verdicts are reported.
    fn verdicts(self, batch: &mut BatchResult) -> &mut Vec<OracleVerdict> {
        match self {
            Check::Guard => &mut batch.guard.as_mut().expect("guard report").oracle,
            Check::CrossBackend => &mut batch.cross,
        }
    }
}

/// The differential oracle: every check the configuration turns on,
/// and one serial compile of the batch's units per distinct witness.
///
/// The rules follow from the witnesses.  Witnesses on one engine must
/// print identical outcomes; on different engines two traps also agree,
/// since each engine words (and meters) its diagnostics its own way.  A
/// disagreement is an [`IncidentKind::Miscompile`] that ships the
/// reference witness's artifact, marked degraded — unless the batch
/// already ships the reference side.  Injected faults perturb only
/// subjects: `sim-trap` those on the simulator, `miscompile` all.
struct Oracle {
    checks: Vec<Check>,
    primary: BackendKind,
    compilers: Vec<(Witness, Compiler)>,
}

impl Oracle {
    fn new(config: &ServiceConfig, units: &[SourceUnit]) -> Oracle {
        // Cross-backend first: its incidents precede the guard's.
        let checks: Vec<Check> = [
            (config.backend.cross_checked(), Check::CrossBackend),
            (config.guard, Check::Guard),
        ]
        .into_iter()
        .filter_map(|(on, check)| on.then_some(check))
        .collect();
        let primary = config.backend.primary();
        let mut compilers: Vec<(Witness, Compiler)> = Vec::new();
        if !config.oracle.is_empty() {
            for &check in &checks {
                let (subject, reference) = check.witnesses(primary);
                for w in [subject, reference] {
                    if compilers.iter().any(|(seen, _)| *seen == w) {
                        continue;
                    }
                    let mut c = config.compiler(w.transformations_off);
                    c.backend = w.backend;
                    for u in units {
                        // A unit that fails here already failed in the
                        // batch; the oracle is best-effort over what
                        // compiled.
                        let _ =
                            catch_unwind(AssertUnwindSafe(|| c.compile_str(&u.source).map(drop)));
                    }
                    compilers.push((w, c));
                }
            }
        }
        Oracle {
            checks,
            primary,
            compilers,
        }
    }

    fn compiler(&self, w: Witness) -> &Compiler {
        &self
            .compilers
            .iter()
            .find(|(seen, _)| *seen == w)
            .expect("every witness is compiled")
            .1
    }

    /// Runs every configured case through every check, reporting each
    /// verdict where its check reports and recording any disagreement.
    fn judge(&self, config: &ServiceConfig, batch: &mut BatchResult) {
        let plan = config
            .fault_plan
            .clone()
            .unwrap_or_else(|| FaultPlan::new(0));
        for &check in &self.checks {
            for case in &config.oracle {
                match self.judge_case(check, case, config.oracle_fuel, &plan, batch) {
                    Ok(verdict) => check.verdicts(batch).push(verdict),
                    Err(e) => batch
                        .failures
                        .push((format!("{} {}", check.label(), case.entry), e)),
                }
            }
        }
    }

    fn judge_case(
        &self,
        check: Check,
        case: &OracleCase,
        fuel: u64,
        plan: &FaultPlan,
        batch: &mut BatchResult,
    ) -> Result<OracleVerdict, String> {
        let mut interner = Interner::new();
        let mut args = Vec::new();
        for a in &case.args {
            let d = read_str(a, &mut interner).map_err(|e| format!("argument {a}: {e}"))?;
            args.push(Value::from_datum(&d));
        }
        let (subject, reference) = check.witnesses(self.primary);
        let run = |w: Witness| self.compiler(w).run_printed(&case.entry, &args, fuel);
        let mut verdict = OracleVerdict {
            entry: case.entry.clone(),
            matched: false,
            reference: run(reference),
            subject: run(subject),
            injected: false,
        };
        if subject.backend == BackendKind::S1 && plan.fires(FaultSite::SimTrap, &case.entry) {
            verdict.subject = "trap: injected simulator fault".to_string();
            verdict.injected = true;
        }
        if plan.fires(FaultSite::Miscompile, &case.entry) {
            verdict.subject.push_str(" [injected miscompile]");
            verdict.injected = true;
        }
        let both_trap =
            verdict.subject.starts_with("trap:") && verdict.reference.starts_with("trap:");
        verdict.matched = verdict.subject == verdict.reference
            || (subject.backend != reference.backend && both_trap);
        if !verdict.matched {
            let recovered = self.ship_reference(reference, &case.entry, batch);
            let unit = batch
                .records
                .iter()
                .find(|r| r.function == case.entry)
                .map_or_else(|| check.label().to_string(), |r| r.unit.clone());
            let [(k0, v0), (k1, v1)] = check.sides(&verdict);
            batch.incidents.push(Incident {
                function: case.entry.clone(),
                unit,
                kind: IncidentKind::Miscompile,
                detail: format!("{} mismatch: {k0} gave {v0}, {k1} gave {v1}", check.label()),
                recovered,
            });
        }
        Ok(verdict)
    }

    /// Makes the batch ship `entry` as compiled by the `reference`
    /// witness.  Returns whether it now does.
    fn ship_reference(&self, reference: Witness, entry: &str, batch: &mut BatchResult) -> bool {
        if reference == Witness::new(false, self.primary) {
            return batch.artifact(entry).is_some();
        }
        // Replace the suspect artifact, marked degraded — the same
        // contract as the panic/timeout recovery path.
        if let Some(r) = batch.records.iter_mut().find(|r| r.function == entry) {
            r.outcome = Outcome::Degraded;
        }
        let slot = batch.artifacts.iter_mut().rev().find(|a| a.name == entry);
        match (self.compiler(reference).artifact(entry), slot) {
            (Some(mut a), Some(slot)) => {
                a.degraded = true;
                a.fingerprint = slot.fingerprint;
                *slot = a;
                true
            }
            _ => false,
        }
    }
}

struct SplitUnit {
    jobs: Vec<Job>,
    globals: Vec<(String, String)>,
    /// Every special proclaimed (or `defvar`ed) anywhere in the unit,
    /// in declaration order.
    specials: Vec<String>,
}

/// The declarations one unit contributes to a long-lived session: the
/// specials it proclaims (or `defvar`s), in order, and its `defvar`
/// globals as `(name, printed constant initializer)` pairs.
pub type UnitDecls = (Vec<String>, Vec<(String, String)>);

/// Extracts the [`UnitDecls`] of one unit.
///
/// This is the compile server's linking hook: after serving a tenant's
/// unit, the tenant's namespace absorbs these so every *subsequent*
/// request compiles against them — the load-link-on-demand shape, with
/// exactly the dispatch rules of the batch splitter.
///
/// # Errors
///
/// A description of the first malformed or unsupported top-level form.
pub fn unit_decls(source: &str) -> Result<UnitDecls, String> {
    let unit = SourceUnit::new("decls", source);
    let split = split_unit(&unit, 0)?;
    Ok((split.specials, split.globals))
}

/// Splits one unit into hermetic jobs, mirroring the top-level dispatch
/// of `Frontend::convert_toplevel`: `defun`s become jobs; `proclaim`ed
/// and `defvar`ed names accumulate into the specials every *subsequent*
/// job carries; `defvar` constant initializers are recorded as globals.
fn split_unit(unit: &SourceUnit, first_seq: usize) -> Result<SplitUnit, String> {
    let mut interner = Interner::new();
    let forms = read_all_str(&unit.source, &mut interner).map_err(|e| e.to_string())?;
    let mut specials: Vec<String> = Vec::new();
    let mut jobs = Vec::new();
    let mut globals = Vec::new();
    for form in &forms {
        let head = form.car().and_then(|h| h.as_symbol().cloned());
        match head.as_ref().map(|s| s.as_str()) {
            Some("defun") => {
                let fn_name = form
                    .cdr()
                    .and_then(|d| d.car())
                    .and_then(|d| d.as_symbol().cloned())
                    .ok_or("malformed defun")?;
                jobs.push(Job {
                    seq: first_seq + jobs.len(),
                    unit: unit.name.clone(),
                    fn_name: fn_name.as_str().to_string(),
                    form: form.to_string(),
                    specials: specials.clone(),
                    tuning: BatchTuning::default(),
                });
            }
            Some("defvar") => {
                let rest = form.cdr().unwrap_or(Datum::Nil);
                let name = rest
                    .car()
                    .and_then(|d| d.as_symbol().cloned())
                    .ok_or("malformed defvar")?;
                specials.push(name.as_str().to_string());
                if let Some(init) = rest.cdr().and_then(|d| d.car()) {
                    let constant = init.is_self_evaluating()
                        || init.is_nil()
                        || init.as_symbol().is_some_and(|s| s.as_str() == "t")
                        || init
                            .car()
                            .and_then(|h| h.as_symbol().cloned())
                            .is_some_and(|s| s.as_str() == "quote");
                    if !constant {
                        return Err(format!("defvar initializer must be a constant: {form}"));
                    }
                    globals.push((name.as_str().to_string(), init.to_string()));
                }
            }
            Some("proclaim") => {
                let spec = form
                    .cdr()
                    .and_then(|d| d.car())
                    .and_then(|d| d.cdr()?.car())
                    .ok_or("malformed proclaim")?;
                let items = spec.proper_list().ok_or("malformed proclaim")?;
                if items
                    .first()
                    .and_then(|h| h.as_symbol().map(|s| s.as_str()))
                    == Some("special")
                {
                    for s in &items[1..] {
                        if let Some(sym) = s.as_symbol() {
                            specials.push(sym.as_str().to_string());
                        }
                    }
                }
            }
            _ => {
                return Err(format!(
                    "unsupported top-level form (want defun/defvar/proclaim): {form}"
                ))
            }
        }
    }
    Ok(SplitUnit {
        jobs,
        globals,
        specials,
    })
}
