//! The perf-trajectory harness behind the `perfbench` binary.
//!
//! The ROADMAP's throughput work is gated on measurement: before any
//! dispatch-loop optimization lands, there must be a durable,
//! machine-readable record of what the simulator and the compile
//! service do *today*.  This module runs a pinned workload matrix —
//! Gabriel-style simulator kernels (tak, exptl, loopn, horner),
//! service batches at `jobs = 1/2/8`, and compile-server bursts at
//! `clients = 1/4/16` — with warmup + N timed trials,
//! reduces each series to median and p90 by nearest rank, and appends
//! one entry per invocation to `BENCH_sim.json` and
//! `BENCH_service.json` at the repo root:
//!
//! ```text
//! [ { schema, rev, date, unix_time, warmup, trials, workloads|batches: [...] }, ... ]
//! ```
//!
//! The files are *append-only trajectories*: one entry per commit, so
//! `git log` plus the JSON gives retired-instructions/sec and
//! functions/sec over the repo's history.  Entry shapes are pinned by
//! schema goldens (`tests/golden_json.rs`); `perfbench --check` runs a
//! 1-trial smoke of the smallest workload and validates shapes without
//! touching the trajectory files.

use std::path::{Path, PathBuf};
use std::time::Instant;

use s1lisp::{Compiler, Value};
use s1lisp_driver::{CompileService, ServiceConfig};
use s1lisp_server::{CompileServer, ServeClient, ServerConfig};
use s1lisp_trace::json::{self, Json};

use crate::corpus;
use crate::service::service_units;

/// One simulator kernel in the pinned matrix.
pub struct SimKernel {
    /// Stable name the trajectory (and `report --flame`) is keyed by.
    pub id: &'static str,
    /// Corpus source text.
    pub src: &'static str,
    /// Entry function name.
    pub entry: &'static str,
    /// Entry arguments.
    pub args: Vec<Value>,
}

fn fx(n: i64) -> Value {
    Value::Fixnum(n)
}

/// The pinned kernel matrix.  Order is the file order; ids are stable
/// names the trajectory is keyed by.
pub fn sim_kernels() -> Vec<SimKernel> {
    vec![
        SimKernel {
            id: "tak",
            src: corpus::TAK,
            entry: "tak",
            args: vec![fx(14), fx(10), fx(6)],
        },
        SimKernel {
            id: "exptl",
            src: corpus::EXPTL,
            entry: "exptl",
            args: vec![fx(3), fx(10), fx(1)],
        },
        SimKernel {
            id: "loopn",
            src: corpus::LOOPN,
            entry: "loopn",
            args: vec![fx(100_000)],
        },
        SimKernel {
            id: "horner",
            src: corpus::HORNER_LOOP,
            entry: "sum-horner",
            args: vec![fx(2_000)],
        },
        // 1200 iterations × 500 conses overruns the 1Mi-word heap, so
        // every trial drives at least one collection and the heap.*
        // telemetry gets a trajectory signal.
        SimKernel {
            id: "gc-stress",
            src: corpus::GC_STRESS,
            entry: "gc-stress",
            args: vec![fx(1_200)],
        },
    ]
}

/// The smallest kernel, for `--check`.
fn smoke_kernel() -> SimKernel {
    SimKernel {
        id: "exptl",
        src: corpus::EXPTL,
        entry: "exptl",
        args: vec![fx(3), fx(10), fx(1)],
    }
}

/// Nearest-rank percentile of an unsorted series (p in 0..=100).
fn percentile(series: &[u64], p: u64) -> u64 {
    assert!(!series.is_empty());
    let mut sorted = series.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
    sorted[rank - 1]
}

/// `(median, p90)` of a series.
fn stats(series: &[u64]) -> (u64, u64) {
    (percentile(series, 50), percentile(series, 90))
}

/// Times `trials` runs of one kernel (after `warmup` untimed runs) and
/// returns its workload object.
fn run_sim_kernel(k: &SimKernel, warmup: usize, trials: usize) -> Json {
    let mut c = Compiler::new();
    c.compile_str(k.src)
        .unwrap_or_else(|e| panic!("{} compiles: {e}", k.id));
    let mut m = c.machine();
    for _ in 0..warmup {
        m.run(k.entry, &k.args)
            .unwrap_or_else(|e| panic!("{} warms up: {e}", k.id));
    }
    let mut wall_ns = Vec::with_capacity(trials);
    let mut per_sec = Vec::with_capacity(trials);
    let mut insns = 0;
    for _ in 0..trials {
        m.run(k.entry, &k.args)
            .unwrap_or_else(|e| panic!("{} runs: {e}", k.id));
        // Per-trial delta, not the machine's cumulative counter — the
        // warmup runs above already retired instructions on `m`.
        insns = m.last_run_insns;
        let ns = m.last_run_wall_ns.max(1);
        wall_ns.push(ns);
        per_sec.push((insns as u128 * 1_000_000_000 / ns as u128) as u64);
    }
    let (median_ps, p90_ps) = stats(&per_sec);
    let (median_ns, p90_ns) = stats(&wall_ns);
    // GC signal for the trajectory: collections are cumulative over the
    // entry's warmup + trials (the machine persists across runs, as the
    // heap would in a long-lived image); live words are the last
    // collection's live-set sample, 0 if the kernel never collected.
    let gc_collections = m.stats.heap.collections;
    let gc_live_words = m
        .heap
        .telemetry()
        .live_samples
        .last()
        .map_or(0, |s| s.live_words);
    Json::obj(vec![
        ("id", Json::str(k.id)),
        ("entry", Json::str(k.entry)),
        ("insns", Json::uint(insns)),
        ("median_insns_per_sec", Json::uint(median_ps)),
        ("p90_insns_per_sec", Json::uint(p90_ps)),
        ("median_wall_us", Json::uint(median_ns / 1_000)),
        ("p90_wall_us", Json::uint(p90_ns / 1_000)),
        ("gc_collections", Json::uint(gc_collections)),
        ("gc_live_words", Json::uint(gc_live_words)),
    ])
}

/// Times `trials` runs of one kernel compiled by the *bytecode* backend
/// and run on the stack evaluator.  The row shape matches
/// [`run_sim_kernel`]'s (ids are prefixed `bc-`, and the GC columns are
/// zero) so the trajectory schema stays uniform and `--compare` keys
/// the rows the same way.
fn run_bc_kernel(k: &SimKernel, warmup: usize, trials: usize) -> Json {
    let mut c = Compiler::new();
    c.backend = s1lisp::BackendKind::Bytecode;
    c.compile_str(k.src)
        .unwrap_or_else(|e| panic!("{} compiles to bytecode: {e}", k.id));
    let mut e = c.evaluator();
    for _ in 0..warmup {
        e.run(k.entry, &k.args)
            .unwrap_or_else(|t| panic!("{} warms up: {t}", k.id));
    }
    let mut wall_ns = Vec::with_capacity(trials);
    let mut per_sec = Vec::with_capacity(trials);
    let mut insns = 0;
    for _ in 0..trials {
        let start = Instant::now();
        e.run(k.entry, &k.args)
            .unwrap_or_else(|t| panic!("{} runs: {t}", k.id));
        let ns = u64::try_from(start.elapsed().as_nanos())
            .unwrap_or(u64::MAX)
            .max(1);
        insns = e.last_run_insns;
        wall_ns.push(ns);
        per_sec.push((insns as u128 * 1_000_000_000 / ns as u128) as u64);
    }
    let (median_ps, p90_ps) = stats(&per_sec);
    let (median_ns, p90_ns) = stats(&wall_ns);
    Json::obj(vec![
        ("id", Json::str(format!("bc-{}", k.id))),
        ("entry", Json::str(k.entry)),
        ("insns", Json::uint(insns)),
        ("median_insns_per_sec", Json::uint(median_ps)),
        ("p90_insns_per_sec", Json::uint(p90_ps)),
        ("median_wall_us", Json::uint(median_ns / 1_000)),
        ("p90_wall_us", Json::uint(p90_ns / 1_000)),
        ("gc_collections", Json::uint(0)),
        ("gc_live_words", Json::uint(0)),
    ])
}

/// Times `trials` cold batches (fresh service each, so every trial is
/// real compilation) at one worker count, plus one warm re-batch on the
/// last service to record the cache-served hit rate.
fn run_service_batch(jobs: usize, warmup: usize, trials: usize) -> Json {
    let units = service_units();
    let run_cold = || {
        let service = CompileService::new(ServiceConfig {
            jobs,
            ..ServiceConfig::default()
        });
        let start = std::time::Instant::now();
        let batch = service.compile_batch(&units);
        let wall_us = u64::try_from(start.elapsed().as_micros())
            .unwrap_or(u64::MAX)
            .max(1);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        (service, batch, wall_us)
    };
    for _ in 0..warmup {
        run_cold();
    }
    let mut wall_us_series = Vec::with_capacity(trials);
    let mut per_sec = Vec::with_capacity(trials);
    let mut last = None;
    for _ in 0..trials {
        let (service, batch, wall_us) = run_cold();
        wall_us_series.push(wall_us);
        per_sec.push(batch.stats.functions as u64 * 1_000_000 / wall_us);
        last = Some((service, batch));
    }
    let (service, batch) = last.expect("at least one trial");
    // A warm re-batch on the same service: every function is served
    // from cache, which is the hit-rate half of the throughput story.
    let warm = service.compile_batch(&units);
    let (median_ps, p90_ps) = stats(&per_sec);
    let (median_us, p90_us) = stats(&wall_us_series);
    Json::obj(vec![
        ("jobs", Json::uint(jobs as u64)),
        ("functions", Json::uint(batch.stats.functions as u64)),
        ("median_functions_per_sec", Json::uint(median_ps)),
        ("p90_functions_per_sec", Json::uint(p90_ps)),
        ("median_wall_us", Json::uint(median_us)),
        ("p90_wall_us", Json::uint(p90_us)),
        ("incidents", Json::uint(batch.incidents.len() as u64)),
        (
            "cold_hit_rate_permille",
            Json::uint(batch.stats.cache.hit_rate_permille()),
        ),
        (
            "warm_hit_rate_permille",
            Json::uint(warm.stats.cache.hit_rate_permille()),
        ),
    ])
}

/// The unit every load client compiles into its tenant at session
/// start; the timed requests then `run` it through the full admission
/// queue → worker → tenant-image path.
const SERVE_UNIT: &str = "(defun poke (x) (* (+ x 3) 2))";

/// Timed `run` requests per client in one serve burst.
const SERVE_REQUESTS_PER_CLIENT: usize = 16;

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros())
        .unwrap_or(u64::MAX)
        .max(1)
}

/// One burst against a live server: `clients` concurrent connections,
/// each joining its own tenant, compiling [`SERVE_UNIT`] once, then
/// issuing `per_client` timed `run` requests.  Returns the burst wall
/// time, every request latency, and the backpressure-rejection count
/// (rejections are first-class responses, so nothing is dropped).
fn serve_burst(port: u16, clients: usize, per_client: usize) -> (u64, Vec<u64>, u64) {
    let start = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(&format!("127.0.0.1:{port}"))
                    .expect("connect load client");
                assert!(c.hello(&format!("load{i}"), None).expect("hello").ok);
                assert!(c.compile("load-unit", SERVE_UNIT).expect("compile").ok);
                let mut latencies = Vec::with_capacity(per_client);
                let mut rejected = 0u64;
                for _ in 0..per_client {
                    let t = Instant::now();
                    let resp = c.run("poke", &["4"]).expect("run");
                    latencies.push(elapsed_us(t));
                    if resp.retry_after_ms > 0 {
                        rejected += 1;
                    } else {
                        assert!(resp.ok, "{:?}", resp.error);
                    }
                }
                (latencies, rejected)
            })
        })
        .collect();
    let mut latencies = Vec::new();
    let mut rejected = 0;
    for t in threads {
        let (lat, rej) = t.join().expect("load client thread");
        latencies.extend(lat);
        rejected += rej;
    }
    (elapsed_us(start), latencies, rejected)
}

/// Nearest-rank p90 over a merged `(bound, count)` histogram; an
/// observation that fell past the last bound reports that bound (the
/// histogram cannot resolve further).
fn histogram_p90(buckets: &[(u64, u64)], overflow: u64) -> u64 {
    let total: u64 = buckets.iter().map(|&(_, n)| n).sum::<u64>() + overflow;
    if total == 0 {
        return 0;
    }
    let rank = (90 * total).div_ceil(100).max(1);
    let mut cum = 0;
    for &(bound, n) in buckets {
        cum += n;
        if cum >= rank {
            return bound;
        }
    }
    buckets.last().map_or(0, |&(b, _)| b)
}

/// Times `trials` serve bursts (a fresh *durable* daemon each, after
/// `warmup` untimed bursts) at one client count and returns the serve
/// row: sustained requests/sec over the burst, per-request p90 latency,
/// and the write-ahead-journal overhead columns (every client's
/// namespace compile is journaled + fsynced before its ack).
fn run_serve_load(clients: usize, warmup: usize, trials: usize) -> Json {
    let per_client = SERVE_REQUESTS_PER_CLIENT;
    let requests = (clients * per_client) as u64;
    let mut per_sec = Vec::with_capacity(trials);
    let mut latencies = Vec::new();
    let mut rejected = 0;
    let mut journal_appends = 0u64;
    let mut append_buckets: Vec<(u64, u64)> = Vec::new();
    let mut append_overflow = 0u64;
    for phase in 0..warmup + trials {
        let state_dir = std::env::temp_dir().join(format!(
            "s1lisp-perfserve-{}-c{clients}-p{phase}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&state_dir);
        let handle = CompileServer::new(ServerConfig {
            state_dir: Some(state_dir.clone()),
            ..ServerConfig::default()
        })
        .serve_tcp(0)
        .expect("bind an ephemeral port");
        let (wall_us, lat, rej) = serve_burst(handle.port(), clients, per_client);
        let snapshot = handle.metrics_snapshot();
        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&state_dir);
        if phase < warmup {
            continue;
        }
        per_sec.push(requests * 1_000_000 / wall_us);
        latencies.extend(lat);
        rejected += rej;
        journal_appends += snapshot.counter("server.journal.appends").unwrap_or(0);
        if let Some(h) = snapshot.histogram("server.journal.append_us") {
            if append_buckets.is_empty() {
                append_buckets = h.buckets.clone();
            } else {
                for (acc, fresh) in append_buckets.iter_mut().zip(&h.buckets) {
                    acc.1 += fresh.1;
                }
            }
            append_overflow += h.overflow;
        }
    }
    let (median_ps, _) = stats(&per_sec);
    Json::obj(vec![
        ("clients", Json::uint(clients as u64)),
        ("requests", Json::uint(requests)),
        ("median_requests_per_sec", Json::uint(median_ps)),
        ("p90_latency_us", Json::uint(percentile(&latencies, 90))),
        ("rejected", Json::uint(rejected)),
        ("journal_appends", Json::uint(journal_appends)),
        (
            "journal_append_p90_us",
            Json::uint(histogram_p90(&append_buckets, append_overflow)),
        ),
    ])
}

/// Days-from-epoch → `YYYY-MM-DD` (civil-from-days, Hinnant's
/// algorithm), so the trajectory stamps dates without a time crate.
fn civil_date(unix_time: u64) -> String {
    let days = (unix_time / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// `git rev-parse HEAD` in `repo_root`, labelled by [`rev_label`], or
/// `"unknown"` outside a checkout (the harness must run anywhere the
/// crate builds).
fn git_rev(repo_root: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(repo_root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(rev) if !rev.trim().is_empty() => {
            let changed = git(&["diff", "--name-only", "HEAD"]).unwrap_or_default();
            rev_label(rev.trim(), &changed)
        }
        _ => "unknown".to_string(),
    }
}

/// The `rev` an entry records: `rev`, plus `+dirty` when `changed` (the
/// paths `git diff --name-only HEAD` prints, one per line) names a file
/// other than a `BENCH_*.json` log, so an entry measured on an
/// uncommitted tree never passes for its parent commit.
fn rev_label(rev: &str, changed: &str) -> String {
    let is_log = |file: &str| file.starts_with("BENCH_") && file.ends_with(".json");
    let dirty = changed
        .lines()
        .filter_map(|path| path.rsplit('/').next())
        .any(|file| !file.is_empty() && !is_log(file));
    if dirty {
        format!("{rev}+dirty")
    } else {
        rev.to_string()
    }
}

fn entry_header(repo_root: &Path, warmup: usize, trials: usize) -> Vec<(&'static str, Json)> {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    vec![
        ("schema", Json::uint(1)),
        ("rev", Json::str(git_rev(repo_root))),
        ("date", Json::str(civil_date(unix_time))),
        ("unix_time", Json::uint(unix_time)),
        ("warmup", Json::uint(warmup as u64)),
        ("trials", Json::uint(trials as u64)),
    ]
}

/// One `BENCH_sim.json` entry: the full kernel matrix on the S-1
/// simulator, then the same kernels as `bc-*` rows on the bytecode
/// evaluator (`bc-gc-stress` included: the evaluator conses on the host
/// heap, so its GC columns are zero, but its wall time is the engine's
/// allocation path).
pub fn sim_entry(repo_root: &Path, warmup: usize, trials: usize) -> Json {
    let kernels = sim_kernels();
    let mut workloads: Vec<Json> = kernels
        .iter()
        .map(|k| run_sim_kernel(k, warmup, trials))
        .collect();
    workloads.extend(kernels.iter().map(|k| run_bc_kernel(k, warmup, trials)));
    let mut fields = entry_header(repo_root, warmup, trials);
    fields.push(("workloads", Json::Arr(workloads)));
    Json::obj(fields)
}

/// One `BENCH_service.json` entry: batches at `jobs = 1/2/8`, plus
/// compile-server bursts at `clients = 1/4/16`.
pub fn service_entry(repo_root: &Path, warmup: usize, trials: usize) -> Json {
    let batches = [1usize, 2, 8]
        .iter()
        .map(|&jobs| run_service_batch(jobs, warmup, trials))
        .collect();
    let serves = [1usize, 4, 16]
        .iter()
        .map(|&clients| run_serve_load(clients, warmup, trials))
        .collect();
    let mut fields = entry_header(repo_root, warmup, trials);
    fields.push(("batches", Json::Arr(batches)));
    fields.push(("serves", Json::Arr(serves)));
    Json::obj(fields)
}

/// A 1-trial smoke entry over the smallest kernel on both backends —
/// the `--check` workload.  Same entry schema as [`sim_entry`].
pub fn smoke_sim_entry(repo_root: &Path) -> Json {
    let workloads = vec![
        run_sim_kernel(&smoke_kernel(), 0, 1),
        run_bc_kernel(&smoke_kernel(), 0, 1),
    ];
    let mut fields = entry_header(repo_root, 0, 1);
    fields.push(("workloads", Json::Arr(workloads)));
    Json::obj(fields)
}

/// A 1-trial smoke entry with a single `jobs = 1` batch and a single
/// 1-client serve burst — the `--check` workload.  Same entry schema
/// as [`service_entry`].
pub fn smoke_service_entry(repo_root: &Path) -> Json {
    let batches = vec![run_service_batch(1, 0, 1)];
    let serves = vec![run_serve_load(1, 0, 1)];
    let mut fields = entry_header(repo_root, 0, 1);
    fields.push(("batches", Json::Arr(batches)));
    fields.push(("serves", Json::Arr(serves)));
    Json::obj(fields)
}

/// The repo root this workspace builds from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Appends `entry` to the JSON-array trajectory at `path` (created as a
/// one-entry array when absent).  Existing entries are preserved
/// verbatim-modulo-reserialization; a file that fails to parse is an
/// error — the trajectory is history and must never be clobbered.
pub fn append_trajectory(path: &Path, entry: Json) -> Result<usize, String> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => match json::parse(&text)? {
            Json::Arr(entries) => entries,
            _ => return Err(format!("{}: expected a JSON array", path.display())),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    entries.push(entry);
    let count = entries.len();
    let mut body = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        body.push_str(&e.to_string());
        if i + 1 < entries.len() {
            body.push(',');
        }
        body.push('\n');
    }
    body.push_str("]\n");
    // Write-then-rename so a crash mid-write can never truncate the
    // history: the original file is replaced atomically or not at all.
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, body).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(count)
}

/// Reads a trajectory file (a JSON array of entries) without modifying
/// it.  A missing file is an empty trajectory, not an error — a fresh
/// checkout has baselines only after the first `perfbench` run.
///
/// # Errors
///
/// Returns a description when the file exists but is unreadable or is
/// not a JSON array.
pub fn load_trajectory(path: &Path) -> Result<Vec<Json>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => match json::parse(&text)? {
            Json::Arr(entries) => Ok(entries),
            _ => Err(format!("{}: expected a JSON array", path.display())),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Default `--compare` tolerance, percent worse than the best baseline.
pub const DEFAULT_COMPARE_TOLERANCE: u64 = 20;

/// One workload's fresh-vs-baseline verdict from [`compare_entry`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comparison {
    /// Workload key (`"tak"`, …, or `"jobs=8"`).
    pub workload: String,
    /// The column compared.
    pub metric: &'static str,
    /// Freshly measured value.
    pub measured: u64,
    /// For a timed column, the best median for this workload across the
    /// baseline trajectory (the lowest wall time, the highest
    /// throughput); for an exact column, the value in the latest entry
    /// measured with the same warmup and trials.
    pub baseline: u64,
    /// The pass limit: at most `(baseline + 1) * (100 + tolerance) / 100`
    /// for a wall time in whole microseconds, at least `baseline * (100 -
    /// tolerance) / 100` for a throughput, the baseline itself for an
    /// exact column.
    pub limit: u64,
    /// Whether the column is an exact count, which must equal its
    /// baseline.
    pub exact: bool,
    /// Whether `measured` is past `limit` (timed) or differs from
    /// `baseline` (exact).
    pub regressed: bool,
}

/// Deterministic columns: a change in any of them is a change in the
/// work done, never noise, so `--compare` requires them to equal the
/// latest entry's.
pub const EXACT_COLUMNS: [&str; 3] = ["insns", "gc_collections", "journal_appends"];

/// How a trajectory row is judged: its workload key, its timed column,
/// and whether lower is better in that column.
struct Timed {
    key: String,
    metric: &'static str,
    lower_is_better: bool,
}

/// The [`Timed`] verdict a trajectory row gets.  Engine rows (the S-1
/// kernels and their `bc-` twins) are keyed by `id` and judged by
/// `median_wall_us`: a change that deletes cheap instructions at equal
/// wall time lowers instructions per second, so throughput in
/// instructions would call it a regression.  Service rows (`jobs=N`)
/// and serve rows (`clients=N`) are judged by their throughput.
fn row_timed(row: &Json) -> Option<Timed> {
    let (key, metric, lower_is_better) = if let Some(id) = row.get("id").and_then(Json::as_str) {
        (id.to_string(), "median_wall_us", true)
    } else if let Some(clients) = row.get("clients").and_then(Json::as_int) {
        (
            format!("clients={clients}"),
            "median_requests_per_sec",
            false,
        )
    } else {
        let jobs = row.get("jobs").and_then(Json::as_int)?;
        (format!("jobs={jobs}"), "median_functions_per_sec", false)
    };
    Some(Timed {
        key,
        metric,
        lower_is_better,
    })
}

fn entry_rows(entry: &Json) -> Vec<&Json> {
    ["workloads", "batches", "serves"]
        .iter()
        .filter_map(|key| entry.get(key).and_then(Json::as_arr))
        .flat_map(|rows| rows.iter())
        .collect()
}

/// The row keyed `workload` in `entry`, if it has one.
fn row_for<'a>(entry: &'a Json, workload: &str) -> Option<&'a Json> {
    entry_rows(entry)
        .into_iter()
        .find(|r| row_timed(r).is_some_and(|t| t.key == workload))
}

/// An entry's `(warmup, trials)`: cumulative exact columns (collections
/// over every run, journal appends over every burst) depend on them.
fn run_shape(entry: &Json) -> (Option<i64>, Option<i64>) {
    let field = |name| entry.get(name).and_then(Json::as_int);
    (field("warmup"), field("trials"))
}

/// Compares a freshly measured entry against a baseline trajectory.
///
/// Timing: for every workload row in `fresh`, the baseline is the
/// *best* median recorded for that workload anywhere in `baselines` —
/// the lowest `median_wall_us` of an engine row, the highest throughput
/// of a service or serve row.  Comparing against the best ever, not the
/// latest, keeps a slow regression from ratcheting the bar one
/// tolerable step at a time.  An engine row passes while its measured
/// median stays at or below `baseline * (100 + tolerance_percent) /
/// 100`, a throughput row while it stays at or above `baseline * (100 -
/// tolerance_percent) / 100`.
///
/// Exact columns ([`EXACT_COLUMNS`]): each must equal its value in the
/// *latest* baseline entry measured with the same warmup and trials
/// that has a row for the workload.  An intended change appends its new
/// entry in the same commit.
///
/// Workloads with no baseline row (new kernels) are skipped, not
/// failed.
pub fn compare_entry(fresh: &Json, baselines: &[Json], tolerance_percent: u64) -> Vec<Comparison> {
    let tolerance = tolerance_percent.min(100);
    let int = |row: &Json, column: &str| row.get(column).and_then(Json::as_int);
    let mut out = Vec::new();
    for row in entry_rows(fresh) {
        let Some(Timed {
            key: workload,
            metric,
            lower_is_better,
        }) = row_timed(row)
        else {
            continue;
        };
        let measured = int(row, metric).unwrap_or(0).max(0) as u64;
        let recorded = baselines
            .iter()
            .filter_map(|e| row_for(e, &workload))
            .filter_map(|r| int(r, metric));
        let best = if lower_is_better {
            recorded.min()
        } else {
            recorded.max()
        };
        let Some(baseline) = best else {
            continue; // New workload: nothing to regress against.
        };
        let baseline = baseline.max(0) as u64;
        let (limit, regressed) = if lower_is_better {
            // Wall times are recorded in whole microseconds, truncated:
            // the best run may have taken up to 1 µs more than it reads,
            // which matters for a kernel that runs in 1 or 2 µs.
            let ceiling = (baseline + 1) * (100 + tolerance) / 100;
            (ceiling, measured > ceiling)
        } else {
            let floor = baseline * (100 - tolerance) / 100;
            (floor, measured < floor)
        };
        out.push(Comparison {
            workload: workload.clone(),
            metric,
            measured,
            baseline,
            limit,
            exact: false,
            regressed,
        });
        let latest = baselines
            .iter()
            .rev()
            .filter(|e| run_shape(e) == run_shape(fresh))
            .find_map(|e| row_for(e, &workload));
        for column in EXACT_COLUMNS {
            let (Some(measured), Some(baseline)) =
                (int(row, column), latest.and_then(|r| int(r, column)))
            else {
                continue;
            };
            let (measured, baseline) = (measured.max(0) as u64, baseline.max(0) as u64);
            out.push(Comparison {
                workload: workload.clone(),
                metric: column,
                measured,
                baseline,
                limit: baseline,
                exact: true,
                regressed: measured != baseline,
            });
        }
    }
    out
}

/// Renders [`compare_entry`] verdicts as one aligned line each.
pub fn format_comparisons(comparisons: &[Comparison]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for c in comparisons {
        let verdict = match (c.regressed, c.exact) {
            (false, _) => "ok",
            (true, false) => "REGRESSED",
            (true, true) => "CHANGED",
        };
        let against = if c.exact {
            "latest-exact"
        } else {
            "best-baseline"
        };
        let _ = writeln!(
            out,
            "  {:<10} {:<24} measured={:>12} {against}={:>12} limit={:>12}  {}",
            c.workload, c.metric, c.measured, c.baseline, c.limit, verdict
        );
    }
    out
}

/// A short human summary of one entry, for the binary's stdout.
pub fn summarize_entry(entry: &Json) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let rev = entry.get("rev").and_then(Json::as_str).unwrap_or("?");
    let date = entry.get("date").and_then(Json::as_str).unwrap_or("?");
    let _ = writeln!(out, "rev {} date {date}", &rev[..rev.len().min(12)]);
    for row in entry_rows(entry) {
        if let Some(id) = row.get("id").and_then(Json::as_str) {
            let _ = writeln!(
                out,
                "  {id:<8} insns={} median_insns_per_sec={} p90={}",
                row.get("insns").and_then(Json::as_int).unwrap_or(0),
                row.get("median_insns_per_sec")
                    .and_then(Json::as_int)
                    .unwrap_or(0),
                row.get("p90_insns_per_sec")
                    .and_then(Json::as_int)
                    .unwrap_or(0),
            );
        } else if let Some(clients) = row.get("clients").and_then(Json::as_int) {
            let _ = writeln!(
                out,
                "  clients={clients} requests={} median_requests_per_sec={} \
                 p90_latency_us={} rejected={} journal_appends={} \
                 journal_append_p90_us={}",
                row.get("requests").and_then(Json::as_int).unwrap_or(0),
                row.get("median_requests_per_sec")
                    .and_then(Json::as_int)
                    .unwrap_or(0),
                row.get("p90_latency_us")
                    .and_then(Json::as_int)
                    .unwrap_or(0),
                row.get("rejected").and_then(Json::as_int).unwrap_or(0),
                row.get("journal_appends")
                    .and_then(Json::as_int)
                    .unwrap_or(0),
                row.get("journal_append_p90_us")
                    .and_then(Json::as_int)
                    .unwrap_or(0),
            );
        } else {
            let _ = writeln!(
                out,
                "  jobs={} functions={} median_functions_per_sec={} p90={} \
                 incidents={} warm_hit_rate={}‰",
                row.get("jobs").and_then(Json::as_int).unwrap_or(0),
                row.get("functions").and_then(Json::as_int).unwrap_or(0),
                row.get("median_functions_per_sec")
                    .and_then(Json::as_int)
                    .unwrap_or(0),
                row.get("p90_functions_per_sec")
                    .and_then(Json::as_int)
                    .unwrap_or(0),
                row.get("incidents").and_then(Json::as_int).unwrap_or(0),
                row.get("warm_hit_rate_permille")
                    .and_then(Json::as_int)
                    .unwrap_or(0),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rev_label_marks_trees_with_changes_beyond_the_logs() {
        assert_eq!(rev_label("abc", ""), "abc");
        assert_eq!(
            rev_label("abc", "BENCH_sim.json\nBENCH_service.json\n"),
            "abc"
        );
        assert_eq!(
            rev_label("abc", "crates/bench/src/perfbench.rs\n"),
            "abc+dirty"
        );
        assert_eq!(
            rev_label("abc", "BENCH_sim.json\nROADMAP.md\n"),
            "abc+dirty"
        );
        assert_eq!(rev_label("abc", "BENCH_notes.md\n"), "abc+dirty");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let series = [50, 10, 40, 20, 30];
        assert_eq!(percentile(&series, 50), 30);
        assert_eq!(percentile(&series, 90), 50);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[7], 90), 7);
    }

    #[test]
    fn histogram_p90_walks_merged_buckets() {
        assert_eq!(histogram_p90(&[], 0), 0);
        assert_eq!(histogram_p90(&[(10, 10)], 0), 10);
        assert_eq!(histogram_p90(&[(10, 1), (100, 9)], 0), 100);
        assert_eq!(histogram_p90(&[(10, 9), (100, 1)], 0), 10);
        // A p90 that lands in the overflow reports the last bound the
        // histogram can resolve.
        assert_eq!(histogram_p90(&[(10, 1)], 99), 10);
    }

    #[test]
    fn civil_date_round_trips_known_days() {
        assert_eq!(civil_date(0), "1970-01-01");
        assert_eq!(civil_date(86_400), "1970-01-02");
        // 2026-08-08 00:00:00 UTC.
        assert_eq!(civil_date(1_786_147_200), "2026-08-08");
        // Leap day.
        assert_eq!(civil_date(951_782_400), "2000-02-29");
    }

    #[test]
    fn smoke_entries_share_schema_with_full_entries() {
        // The --check smoke and the real harness must emit the same
        // shape, or the schema goldens would only cover the smoke.
        let root = repo_root();
        let smoke = smoke_sim_entry(&root);
        let full = sim_entry(&root, 0, 1);
        assert_eq!(json::schema(&smoke), json::schema(&full));
        let smoke = smoke_service_entry(&root);
        let full = service_entry(&root, 0, 1);
        assert_eq!(json::schema(&smoke), json::schema(&full));
    }

    /// A fabricated sim-style entry with one `tak` row at the given
    /// median wall time.
    fn fab_sim(median_us: u64) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::uint(1)),
            (
                "workloads".to_string(),
                Json::Arr(vec![Json::obj(vec![
                    ("id", Json::str("tak")),
                    ("median_wall_us", Json::uint(median_us)),
                ])]),
            ),
        ])
    }

    fn fab_service(jobs: u64, median: u64) -> Json {
        Json::Obj(vec![
            ("schema".to_string(), Json::uint(1)),
            (
                "batches".to_string(),
                Json::Arr(vec![Json::obj(vec![
                    ("jobs", Json::uint(jobs)),
                    ("median_functions_per_sec", Json::uint(median)),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_passes_within_tolerance_and_fails_above_the_ceiling() {
        // Best baseline is the fastest, 1000 µs (not the later 1100):
        // the ceiling at 20%, allowing the 1 µs the recorded value may
        // have been truncated by, is 1001 * 1.2 = 1201.
        let baselines = [fab_sim(1000), fab_sim(1100)];
        let pass = compare_entry(&fab_sim(1201), &baselines, 20);
        assert_eq!(pass.len(), 1);
        assert_eq!(pass[0].workload, "tak");
        assert_eq!(pass[0].metric, "median_wall_us");
        assert_eq!(pass[0].baseline, 1000);
        assert_eq!(pass[0].limit, 1201);
        assert!(!pass[0].regressed);
        // A synthetic regression one unit above the ceiling is caught.
        let fail = compare_entry(&fab_sim(1202), &baselines, 20);
        assert!(fail[0].regressed);
        let rendered = format_comparisons(&fail);
        assert!(rendered.contains("REGRESSED"), "{rendered}");
    }

    #[test]
    fn compare_keys_service_rows_by_job_count() {
        let baselines = [fab_service(8, 5000)];
        // jobs=8 matches its baseline; jobs=2 has none and is skipped.
        let fresh = Json::Obj(vec![(
            "batches".to_string(),
            Json::Arr(vec![
                Json::obj(vec![
                    ("jobs", Json::uint(8)),
                    ("median_functions_per_sec", Json::uint(100)),
                ]),
                Json::obj(vec![
                    ("jobs", Json::uint(2)),
                    ("median_functions_per_sec", Json::uint(100)),
                ]),
            ]),
        )]);
        let got = compare_entry(&fresh, &baselines, 50);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].workload, "jobs=8");
        assert_eq!(got[0].limit, 2500);
        assert!(got[0].regressed);
    }

    #[test]
    fn compare_keys_serve_rows_by_client_count() {
        let baseline = Json::Obj(vec![(
            "serves".to_string(),
            Json::Arr(vec![Json::obj(vec![
                ("clients", Json::uint(4)),
                ("median_requests_per_sec", Json::uint(1000)),
            ])]),
        )]);
        let fresh = Json::Obj(vec![(
            "serves".to_string(),
            Json::Arr(vec![Json::obj(vec![
                ("clients", Json::uint(4)),
                ("median_requests_per_sec", Json::uint(900)),
            ])]),
        )]);
        let got = compare_entry(&fresh, &[baseline], 20);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].workload, "clients=4");
        assert_eq!(got[0].metric, "median_requests_per_sec");
        assert!(!got[0].regressed);
    }

    /// A sim-style entry with one `tak` row: median wall time, retired
    /// instructions and collections, measured with `trials` trials.
    fn fab_exact(median_us: u64, insns: u64, collections: u64, trials: u64) -> Json {
        Json::Obj(vec![
            ("warmup".to_string(), Json::uint(1)),
            ("trials".to_string(), Json::uint(trials)),
            (
                "workloads".to_string(),
                Json::Arr(vec![Json::obj(vec![
                    ("id", Json::str("tak")),
                    ("insns", Json::uint(insns)),
                    ("median_wall_us", Json::uint(median_us)),
                    ("gc_collections", Json::uint(collections)),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_fails_any_change_in_an_exact_column_from_the_latest_entry() {
        let baselines = [fab_exact(1000, 500, 3, 5), fab_exact(1100, 400, 3, 5)];
        // Wall time within tolerance, exact columns equal to the latest
        // entry's (not the first's): all pass.
        let got = compare_entry(&fab_exact(1050, 400, 3, 5), &baselines, 20);
        let columns: Vec<_> = got.iter().map(|c| (c.metric, c.exact)).collect();
        assert_eq!(
            columns,
            [
                ("median_wall_us", false),
                ("insns", true),
                ("gc_collections", true)
            ]
        );
        assert!(got.iter().all(|c| !c.regressed), "{got:?}");
        // One more instruction, or one fewer collection, fails however
        // fast the run was.
        for fresh in [fab_exact(500, 401, 3, 5), fab_exact(500, 400, 2, 5)] {
            let got = compare_entry(&fresh, &baselines, 50);
            assert_eq!(got.iter().filter(|c| c.regressed).count(), 1, "{got:?}");
            assert!(got.iter().all(|c| c.exact || !c.regressed));
            assert!(format_comparisons(&got).contains("CHANGED"));
        }
    }

    #[test]
    fn compare_checks_exact_columns_only_against_entries_of_the_same_shape() {
        // Collections accumulate over warmup + trials: a 9-trial run is
        // not comparable with the 5-trial baseline's count.
        let baselines = [fab_exact(1000, 400, 3, 5)];
        let got = compare_entry(&fab_exact(1000, 400, 6, 9), &baselines, 20);
        assert_eq!(got.len(), 1);
        assert!(!got[0].exact && !got[0].regressed);
    }

    #[test]
    fn compare_skips_workloads_with_no_baseline() {
        assert!(compare_entry(&fab_sim(1), &[], 20).is_empty());
        // Zero tolerance means any slowdown past the recording's 1 µs
        // resolution regresses; full tolerance allows twice the best.
        let baselines = [fab_sim(1000)];
        assert!(!compare_entry(&fab_sim(1001), &baselines, 0)[0].regressed);
        assert!(compare_entry(&fab_sim(1002), &baselines, 0)[0].regressed);
        assert!(!compare_entry(&fab_sim(2002), &baselines, 100)[0].regressed);
        assert!(compare_entry(&fab_sim(2003), &baselines, 100)[0].regressed);
        // A 1 µs kernel may read 3 µs without regressing at 50%.
        assert!(!compare_entry(&fab_sim(3), &[fab_sim(1)], 50)[0].regressed);
    }

    #[test]
    fn trajectory_appends_and_preserves_history() {
        let path = std::env::temp_dir().join(format!("s1lisp-traj-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let entry = |n: u64| {
            Json::Obj(vec![
                ("schema".to_string(), Json::uint(1)),
                ("n".to_string(), Json::uint(n)),
            ])
        };
        assert_eq!(append_trajectory(&path, entry(1)), Ok(1));
        assert_eq!(append_trajectory(&path, entry(2)), Ok(2));
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = json::parse(&text).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("n").unwrap().as_int(), Some(1));
        assert_eq!(arr[1].get("n").unwrap().as_int(), Some(2));
        // A corrupt trajectory is refused, never clobbered.
        std::fs::write(&path, "{not an array").unwrap();
        assert!(append_trajectory(&path, entry(3)).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{not an array");
        let _ = std::fs::remove_file(&path);
    }
}
