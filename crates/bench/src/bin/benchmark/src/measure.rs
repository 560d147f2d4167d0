//! What every workload shares: run settings, operation accounting, the
//! timed set-up, and the exact counts over a workload's program set.

use std::collections::BTreeMap;
use std::time::Instant;

use s1lisp::{BackendKind, Compiler};

use crate::inputs::{value, Program};
use crate::spans::Spans;
use crate::speed::Speed;
use crate::stats::{geomean, median, percentile};

/// How one run is measured.
#[derive(Clone, Debug)]
pub struct Config {
    /// Picks the draws from the fixed program sets.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and turn on the simulator's execution profile on
    /// every other operation, and report per-layer metrics.
    pub traced: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

/// What one workload run measured.
pub struct Outcome {
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// Every metric the workload produces, end-to-end and per-layer.
    pub metrics: Metrics,
    /// The traced run's spans.
    pub spans: Spans,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

/// Operation outcomes, with latencies by operation kind.
#[derive(Debug, Default)]
pub struct Ops {
    plain: BTreeMap<String, Vec<f64>>,
    traced: BTreeMap<String, Vec<f64>>,
    /// Measured operations that completed.
    pub completed: u64,
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Ops {
    /// Records one completed measured operation of `kind` taking `us`.
    pub fn record(&mut self, kind: &str, us: f64, traced: bool) {
        let by_kind = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        by_kind.entry(kind.to_string()).or_default().push(us);
        self.completed += 1;
        self.attempted += 1;
    }

    /// Counts one check that passed (outside the measured operations).
    pub fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.fail(e);
        }
    }

    /// Counts a failure of an already-recorded operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Folds another client's operations into these.
    pub fn merge(&mut self, other: Ops) {
        for (mine, theirs) in [
            (&mut self.plain, other.plain),
            (&mut self.traced, other.traced),
        ] {
            for (kind, mut us) in theirs {
                mine.entry(kind).or_default().append(&mut us);
            }
        }
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }

    /// The run's outcome, with these operations' counts and failures.
    pub fn outcome(self, metrics: Metrics, spans: Spans) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            spans,
            failures: self.failures,
        }
    }

    /// Latencies of untraced operations of one kind.
    pub fn latencies(&self, kind: &str) -> &[f64] {
        self.plain.get(kind).map_or(&[], Vec::as_slice)
    }

    /// The `p`th percentile latency over operation kinds of different
    /// cost (untraced operations only): the geometric mean of the kinds'
    /// medians, times the `p`th percentile of every operation's latency
    /// relative to its kind's median.  Pooling the relative latencies
    /// keeps ten samples beyond p90 even when each kind has only fifteen
    /// (run-kernels); with one kind it is that kind's percentile.
    pub fn latency_us(&self, p: u32) -> f64 {
        let medians: Vec<f64> = self.plain.values().map(|us| median(us)).collect();
        let relative: Vec<f64> = self
            .plain
            .values()
            .zip(&medians)
            .flat_map(|(us, m)| us.iter().map(move |u| u / m))
            .collect();
        geomean(&medians) * percentile(&relative, p)
    }

    /// Tracing's cost: the geometric mean over kinds of traced median
    /// latency over untraced median latency, less one, in permille.
    pub fn trace_overhead_permille(&self) -> f64 {
        let ratios: Vec<f64> = self
            .traced
            .iter()
            .filter_map(|(kind, traced)| {
                let plain = self.plain.get(kind)?;
                Some(median(traced) / median(plain))
            })
            .collect();
        (geomean(&ratios) - 1.0) * 1000.0
    }
}

/// Runs `setup` `n` times, timing each; keeps the last result (earlier
/// ones are dropped, untimed, before the next starts) and returns it
/// with the median set-up time in seconds.  A compute-bound set-up
/// (`at_nominal_speed`) runs on one thread: the machine's single-thread
/// speed is sampled afresh (untimed) before each, and each time is
/// reported at the nominal speed.
pub fn timed_setup<T>(
    n: usize,
    at_nominal_speed: bool,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut speed = Speed::new(1);
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let factor = if at_nominal_speed {
            speed.refresh();
            speed.factor()
        } else {
            1.0
        };
        let t = Instant::now();
        let built = setup()?;
        times.push(t.elapsed().as_secs_f64() * factor);
        last = Some(built);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Exact counts over a program set: each program compiled alone for
/// both backends, each call run once on a fresh simulator and evaluator
/// and checked against its reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Exact {
    /// S-1 code size, in 36-bit words.
    pub code_words: u64,
    /// Instructions the simulator retired.
    pub sim_insns: u64,
    /// Instructions the bytecode evaluator retired.
    pub bc_insns: u64,
    /// Heap words the simulated programs allocated.
    pub heap_alloc_words: u64,
    /// Source-level rewrites the optimizer applied.
    pub rewrites: u64,
}

/// Compiles `source` for `backend` with the default (full) optimization.
pub fn compile(source: &str, backend: BackendKind) -> Result<Compiler, String> {
    let mut c = Compiler::new();
    c.backend = backend;
    c.compile_str(source).map_err(|e| format!("compile: {e}"))?;
    Ok(c)
}

/// Measures [`Exact`] over `programs`, counting each call's check on
/// each engine in `ops`.
pub fn exact_counts(programs: &[Program], ops: &mut Ops) -> Result<Exact, String> {
    let mut x = Exact::default();
    for p in programs {
        let s1 = compile(&p.source, BackendKind::S1)?;
        let bc = compile(&p.source, BackendKind::Bytecode)?;
        x.code_words += s1.code_size_words() as u64;
        x.rewrites += s1
            .functions
            .iter()
            .map(|f| f.transformations as u64)
            .sum::<u64>();
        let mut m = s1.machine();
        let mut e = bc.evaluator();
        for (name, v) in &p.globals {
            let v = value(v)?;
            m.set_global(name, &v).map_err(|t| format!("{name}: {t}"))?;
            e.set_global(name, v);
        }
        for call in &p.calls {
            let args = call
                .args
                .iter()
                .map(|a| value(a))
                .collect::<Result<Vec<_>, _>>()?;
            let words = m.stats.heap.words;
            let got = m.run(&call.entry, &args).map(|v| v.to_string());
            x.sim_insns += m.last_run_insns;
            x.heap_alloc_words += m.stats.heap.words - words;
            ops.check(expect(&p.name, "s1", call, got.map_err(|t| t.to_string())));
            let got = e.run(&call.entry, &args).map(|v| v.to_string());
            x.bc_insns += e.last_run_insns;
            ops.check(expect(
                &p.name,
                "bytecode",
                call,
                got.map_err(|t| t.to_string()),
            ));
        }
    }
    Ok(x)
}

/// Compares an engine's printed result with the call's reference.
pub fn expect(
    program: &str,
    engine: &str,
    call: &crate::inputs::Call,
    got: Result<String, String>,
) -> Result<(), String> {
    match got {
        Ok(v) if crate::inputs::agrees(&v, &call.expected) => Ok(()),
        Ok(v) => Err(format!(
            "{program}: {engine} {} returned {v}, expected {}",
            call.entry, call.expected
        )),
        Err(e) => Err(format!("{program}: {engine} {} trapped: {e}", call.entry)),
    }
}

/// The end-to-end metrics every workload reports, and the per-layer
/// ones measured the same way on every workload.  Throughput is
/// operations completed per second of `busy_s`: the measured phase for
/// the serve workloads, the operations' own time at nominal speed for
/// the compute-bound ones.
pub fn end_to_end(
    m: &mut Metrics,
    setup_s: f64,
    ops: &Ops,
    busy_s: f64,
    exact: Exact,
) -> Result<(), String> {
    m.insert("setup_s".into(), setup_s);
    m.insert("ops_per_sec".into(), ops.completed as f64 / busy_s);
    m.insert("latency_p50_us".into(), ops.latency_us(50));
    m.insert("latency_p90_us".into(), ops.latency_us(90));
    m.insert("code_words".into(), exact.code_words as f64);
    m.insert("sim_insns".into(), exact.sim_insns as f64);
    m.insert("bc_insns".into(), exact.bc_insns as f64);
    m.insert("heap_alloc_words".into(), exact.heap_alloc_words as f64);
    m.insert("opt.rewrites".into(), exact.rewrites as f64);
    m.insert(
        "trace.overhead_permille".into(),
        ops.trace_overhead_permille(),
    );
    m.insert("peak_rss_mb".into(), crate::stats::peak_rss_mb()?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_a_geomean_over_kinds_and_overhead_compares_medians() {
        let mut ops = Ops::default();
        for us in [10.0, 20.0, 30.0] {
            ops.record("a", us, false);
            ops.record("b", us * 4.0, false);
            ops.record("a", us * 1.1, true);
            ops.record("b", us * 4.4, true);
        }
        assert_eq!(ops.completed, 12);
        assert!((ops.latency_us(50) - 40.0).abs() < 1e-9);
        // Relative latencies 0.5, 1, 1.5 in both kinds: p90 is 1.5 × 40.
        assert!((ops.latency_us(90) - 60.0).abs() < 1e-9);
        assert!((ops.trace_overhead_permille() - 100.0).abs() < 1e-6);
        let mut other = Ops::default();
        other.record("a", 1.0, false);
        other.check(Err("wrong".into()));
        ops.merge(other);
        assert_eq!((ops.completed, ops.attempted, ops.failed), (13, 14, 1));
        assert_eq!(ops.latencies("a").len(), 4);
    }

    #[test]
    fn timed_setup_keeps_the_last_build() {
        let mut n = 0;
        let (last, s) = timed_setup(3, true, || {
            n += 1;
            Ok(n)
        })
        .unwrap();
        assert_eq!(last, 3);
        assert!(s >= 0.0);
    }
}
