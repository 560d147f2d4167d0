//! `compile-batch`: a closed loop of cold batches, each on a fresh
//! `CompileService` at `jobs = 2`, each drawing 64 units by seed from
//! the pool.  Every pipeline pass and the driver's scheduler do the
//! work; the engines are idle and the cache is cold, so this workload
//! bypasses both.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use s1lisp::BackendKind;
use s1lisp_driver::{BatchResult, CompileService, ServiceConfig, SourceUnit};
use s1lisp_reader::{read_all_str, Interner};

use crate::inputs::{self, Draws, Epochs};
use crate::measure::{
    compile, end_to_end, exact_counts, timed_setup, Config, Metrics, Ops, Outcome,
};
use crate::spans::Spans;
use crate::speed::Speed;
use crate::stats::percentile;

/// Units per batch.
const BATCH: usize = 64;

/// Worker threads per service: one per core of the reference machine.
const JOBS: usize = 2;

/// Table-1 phase (as the pipeline names its spans) → the per-layer
/// metric of its mean time per compiled function.
pub const PHASES: [(&str, &str); 13] = [
    ("Preliminary", "frontend.preliminary_us"),
    ("Environment analysis", "analysis.environment_us"),
    ("Side-effects analysis", "analysis.effects_us"),
    ("Complexity analysis", "analysis.complexity_us"),
    ("Tail-recursion analysis", "analysis.tails_us"),
    ("Special variable lookups", "analysis.specials_us"),
    ("Source-level optimization", "opt.source_us"),
    ("Binding annotation", "annotate.binding_us"),
    ("Representation annotation", "annotate.rep_us"),
    ("Pdl number annotation", "annotate.pdl_us"),
    ("Target annotation", "tnbind.target_us"),
    ("Code generation", "codegen.emit_us"),
    ("Peephole optimizer", "codegen.peephole_us"),
];

/// Driver-side totals over every measured batch.
#[derive(Default)]
struct Driver {
    functions: u64,
    job_us: Vec<f64>,
    queue_us: Vec<f64>,
    /// Worker wall time summed, and the worker time available
    /// (`workers × batch wall`), in microseconds.
    busy_us: f64,
    capacity_us: f64,
    phase_us: BTreeMap<String, f64>,
}

/// Checks a batch against the hermetic compile of each drawn unit.
fn check(
    batch: &BatchResult,
    drawn: &[usize],
    expected: &[Vec<(String, String)>],
) -> Result<(), String> {
    if let Some((scope, e)) = batch.failures.first() {
        return Err(format!("batch failure in {scope}: {e}"));
    }
    if let Some(i) = batch.incidents.first() {
        return Err(format!("batch incident in {}: {}", i.function, i.detail));
    }
    let want: usize = drawn.iter().map(|&u| expected[u].len()).sum();
    if batch.artifacts.len() != want {
        return Err(format!(
            "{} artifacts for {want} functions",
            batch.artifacts.len()
        ));
    }
    for (name, assembly) in drawn.iter().flat_map(|&u| &expected[u]) {
        match batch.artifact(name) {
            Some(a) if a.assembly == *assembly && !a.degraded => {}
            Some(_) => {
                return Err(format!(
                    "{name}: batch artifact differs from a serial compile"
                ))
            }
            None => return Err(format!("{name}: no artifact")),
        }
    }
    Ok(())
}

/// Each function of a unit compiled alone, after the unit's `proclaim`s —
/// what the service's hermetic per-function jobs must reproduce — as
/// `(name, assembly)`.
fn hermetic(source: &str) -> Result<Vec<(String, String)>, String> {
    let mut interner = Interner::new();
    let forms = read_all_str(source, &mut interner).map_err(|e| e.to_string())?;
    let mut proclaims = String::new();
    let mut out = Vec::new();
    for form in forms {
        let text = form.to_string();
        match form
            .car()
            .and_then(|h| h.as_symbol().cloned())
            .as_ref()
            .map(|s| s.as_str())
        {
            Some("defun") => {
                let c = compile(&format!("{proclaims}{text}"), BackendKind::S1)?;
                let f = c
                    .functions
                    .last()
                    .ok_or_else(|| format!("no function in {text}"))?;
                let asm = c
                    .disassemble(&f.name)
                    .ok_or_else(|| format!("{}: no code", f.name))?;
                out.push((f.name.clone(), asm));
            }
            _ => proclaims.push_str(&text),
        }
    }
    Ok(out)
}

/// Lays a traced batch out as spans: the batch, each job on its
/// worker's lane after its queue wait, and each job's passes in order.
fn batch_spans(spans: &mut Spans, start: Instant, batch: &BatchResult, id: u64) {
    let at = spans.offset_us(start);
    let Some(parent) = spans.timed("driver.batch", start, None, id, 0) else {
        return;
    };
    for r in &batch.records {
        let job_start = at + r.queue_us as f64;
        let lane = r.worker as u64 + 1;
        let job = spans.record(
            "driver.job",
            job_start,
            r.wall_us as f64,
            Some(parent),
            id,
            lane,
        );
        let mut cursor = job_start;
        for (phase, _, wall) in &r.phase_spans {
            let name = PHASES
                .iter()
                .find(|(p, _)| p == phase)
                .map_or(phase.as_str(), |(_, m)| m);
            spans.record(
                name.trim_end_matches("_us"),
                cursor,
                *wall as f64,
                job,
                id,
                lane,
            );
            cursor += *wall as f64;
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let pool = inputs::pool()?;
    // Set-up: the serial compiles every batch artifact is checked against.
    let (expected, setup_s) = timed_setup(cfg.setups, true, || {
        pool.iter()
            .map(|p| hermetic(&p.source))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let mut speed = Speed::new(JOBS);
    let units: Vec<SourceUnit> = pool
        .iter()
        .map(|p| SourceUnit::new(&p.name, &p.source))
        .collect();

    let mut ops = Ops::default();
    let mut spans = Spans::new(Instant::now());
    let mut epochs = Epochs::new(Draws::new(cfg.seed, 0), units.len());
    let mut driver = Driver::default();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut n = 0u64;
    let mut busy_s = 0.0;
    while Instant::now() < deadline {
        speed.sample();
        let drawn = epochs.batch(BATCH);
        let batch_units: Vec<SourceUnit> = drawn.iter().map(|&u| units[u].clone()).collect();
        let service = CompileService::new(ServiceConfig::with_jobs(JOBS));
        let traced = cfg.traced && n.is_multiple_of(2);
        let t = Instant::now();
        let batch = service.compile_batch(&batch_units);
        let raw_us = t.elapsed().as_secs_f64() * 1e6;
        let factor = speed.factor();
        let us = raw_us * factor;
        busy_s += us / 1e6;
        ops.record("batch", us, traced);
        if let Err(e) = check(&batch, &drawn, &expected) {
            ops.fail(e);
        }
        if traced {
            batch_spans(&mut spans, t, &batch, n);
        }
        driver.functions += batch.stats.functions as u64;
        driver.busy_us += batch
            .stats
            .workers
            .iter()
            .map(|w| w.wall_us as f64)
            .sum::<f64>();
        driver.capacity_us += batch.stats.workers_used as f64 * raw_us;
        for r in &batch.records {
            driver.job_us.push(r.wall_us as f64 * factor);
            driver.queue_us.push(r.queue_us as f64 * factor);
        }
        for (phase, _, wall) in &batch.stats.phase_totals {
            *driver.phase_us.entry(phase.clone()).or_default() += *wall as f64 * factor;
        }
        n += 1;
    }

    let exact = exact_counts(&pool, &mut ops)?;
    let mut m = Metrics::new();
    end_to_end(&mut m, setup_s, &ops, busy_s, exact)?;
    let functions = driver.functions.max(1) as f64;
    let job_total: f64 = driver.job_us.iter().sum();
    let pass_total: f64 = driver.phase_us.values().sum();
    m.insert(
        "driver.batch_us_p50".into(),
        percentile(ops.latencies("batch"), 50),
    );
    m.insert("driver.job_us_p50".into(), percentile(&driver.job_us, 50));
    m.insert(
        "driver.queue_wait_us_p50".into(),
        percentile(&driver.queue_us, 50),
    );
    m.insert(
        "driver.worker_busy_permille".into(),
        1000.0 * driver.busy_us / driver.capacity_us.max(1.0),
    );
    m.insert(
        "driver.functions_per_sec".into(),
        driver.functions as f64 / busy_s,
    );
    m.insert(
        "driver.pass_share_permille".into(),
        1000.0 * pass_total / job_total.max(1.0),
    );
    for (phase, metric) in PHASES {
        let us = driver.phase_us.get(phase).copied().unwrap_or(0.0);
        m.insert(metric.into(), us / functions);
    }
    Ok(ops.outcome(m, spans))
}
