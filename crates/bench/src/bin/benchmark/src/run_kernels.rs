//! `run-kernels`: each kernel compiled once per backend during set-up,
//! then rounds of the seven kernels on the S-1 simulator and the
//! bytecode evaluator, in seeded order.  The engines, the heap and its
//! collector, and the quality of the generated code do the work; the
//! compiler is idle.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use s1lisp::{BackendKind, Evaluator, Machine, Value};
use s1lisp_s1sim::ExecProfile;

use crate::inputs::{self, value, Draws, Program};
use crate::measure::{
    compile, end_to_end, exact_counts, expect, timed_setup, Config, Metrics, Ops, Outcome,
};
use crate::spans::Spans;
use crate::speed::Speed;
use crate::stats::{geomean, median};

/// The instruction classes of the simulator's execution profile
/// (`s1lisp_s1sim::opcode_class`), each reported per profiled round,
/// zero when no kernel retires one.
const OPCLASSES: [&str; 10] = [
    "move",
    "int_arith",
    "float_arith",
    "branch",
    "call",
    "stack",
    "heap",
    "special",
    "control",
    "other",
];

/// Both engines, loaded with one kernel.
struct Loaded {
    sim: Machine,
    bc: Evaluator,
    args: Vec<Value>,
}

fn load(k: &Program) -> Result<Loaded, String> {
    let mut sim = compile(&k.source, BackendKind::S1)?.machine();
    let mut bc = compile(&k.source, BackendKind::Bytecode)?.evaluator();
    for (name, v) in &k.globals {
        let v = value(v)?;
        sim.set_global(name, &v)
            .map_err(|t| format!("{name}: {t}"))?;
        bc.set_global(name, v);
    }
    let args = k.calls[0]
        .args
        .iter()
        .map(|a| value(a))
        .collect::<Result<_, _>>()?;
    Ok(Loaded { sim, bc, args })
}

/// Per-engine totals over the untraced runs.
#[derive(Default)]
struct Engine {
    /// Instructions retired by each kernel's first run; every later run
    /// must retire the same number.
    insns: BTreeMap<String, u64>,
    total_insns: u64,
    total_s: f64,
}

impl Engine {
    /// Records a run; a run whose instruction count differs from the
    /// kernel's first is an error (the engines are deterministic).
    fn retired(&mut self, kernel: &str, insns: u64, secs: f64, traced: bool) -> Result<(), String> {
        let first = *self.insns.entry(kernel.to_string()).or_insert(insns);
        if !traced {
            self.total_insns += insns;
            self.total_s += secs;
        }
        if first == insns {
            Ok(())
        } else {
            Err(format!(
                "{kernel}: retired {insns} instructions, {first} on its first run"
            ))
        }
    }
}

/// Runs the workload on a thread with a large stack.  The simulator reads
/// a result back into a host value recursively, refusing only past a
/// depth of 100 000; a corrupt (circular) result must come back as that
/// refusal, a failed operation, not overflow the host stack and abort the
/// run.  Such a result is not hypothetical: on one machine, the 145th
/// run of deriv-bench(200) — the first after a collection — returns one,
/// and refusing it takes the process's peak memory to about 6 GB.  A
/// 15-second run makes about 16 rounds, far short of that.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let cfg = cfg.clone();
    inputs::on_big_stack(move || run_here(&cfg))
}

fn run_here(cfg: &Config) -> Result<Outcome, String> {
    let kernels = inputs::kernels()?;
    let (mut loaded, setup_s) = timed_setup(cfg.setups, true, || {
        kernels.iter().map(load).collect::<Result<Vec<_>, _>>()
    })?;
    let mut speed = Speed::new(1);

    let mut ops = Ops::default();
    let mut spans = Spans::new(Instant::now());
    let mut draws = Draws::new(cfg.seed, 0);
    let (mut sim, mut bc) = (Engine::default(), Engine::default());
    let mut opclass: BTreeMap<&'static str, u64> = OPCLASSES.iter().map(|&c| (c, 0)).collect();
    let mut profiled_rounds = 0u64;
    let heap_before: Vec<(u64, u64)> = loaded.iter().map(|l| heap_state(&l.sim)).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut rounds = 0u64;
    let mut busy_s = 0.0;
    // Whole rounds only, so every kernel is sampled equally often.
    while Instant::now() < deadline {
        let traced = cfg.traced && rounds.is_multiple_of(2);
        let round = if traced {
            spans.begin("run.round", None, rounds, 0)
        } else {
            None
        };
        for slot in draws.distinct(2 * kernels.len(), 2 * kernels.len()) {
            let (k, on_sim) = (slot / 2, slot % 2 == 0);
            let (kernel, l) = (&kernels[k], &mut loaded[k]);
            let call = &kernel.calls[0];
            let layer = if on_sim { "s1sim" } else { "bytecode" };
            let kind = format!("{layer}.{}", kernel.name);
            speed.sample();
            if traced && on_sim {
                l.sim.profile = Some(Box::new(ExecProfile::new()));
            }
            let t = Instant::now();
            let got = if on_sim {
                l.sim.run(&call.entry, &l.args).map_err(|e| e.to_string())
            } else {
                l.bc.run(&call.entry, &l.args).map_err(|e| e.to_string())
            };
            let secs = t.elapsed().as_secs_f64() * speed.factor();
            busy_s += secs;
            ops.record(&kind, secs * 1e6, traced);
            if traced {
                spans.timed(&kind, t, round, rounds, 0);
            }
            let result = expect(&kernel.name, layer, call, got.map(|v| v.to_string()));
            let engine = if on_sim { &mut sim } else { &mut bc };
            let insns = if on_sim {
                l.sim.last_run_insns
            } else {
                l.bc.last_run_insns
            };
            if let Some(profile) = l.sim.profile.take() {
                for (class, n) in profile.class_histogram() {
                    *opclass.entry(class).or_default() += n;
                }
            }
            if let Err(e) = result.and(engine.retired(&kernel.name, insns, secs, traced)) {
                ops.fail(e);
            }
        }
        spans.end(round);
        profiled_rounds += u64::from(traced);
        rounds += 1;
    }

    let exact = exact_counts(&kernels, &mut ops)?;
    let mut m = Metrics::new();
    end_to_end(&mut m, setup_s, &ops, busy_s, exact)?;
    for (layer, engine) in [("s1sim", &sim), ("bytecode", &bc)] {
        let mut medians = Vec::new();
        for k in &kernels {
            let us = median(ops.latencies(&format!("{layer}.{}", k.name)));
            medians.push(us);
            m.insert(format!("{layer}.{}.us", k.name), us);
            m.insert(
                format!("{layer}.{}.insns", k.name),
                engine.insns.get(&k.name).copied().unwrap_or(0) as f64,
            );
        }
        m.insert(format!("{layer}.kernel_us_geomean"), geomean(&medians));
        m.insert(
            format!("{layer}.insns_per_sec"),
            engine.total_insns as f64 / engine.total_s.max(1e-9),
        );
    }
    for (class, n) in opclass {
        m.insert(
            format!("s1sim.opclass.{class}"),
            n as f64 / profiled_rounds.max(1) as f64,
        );
    }
    let (mut collections, mut pause_ns) = (0, 0);
    for (l, before) in loaded.iter().zip(heap_before) {
        let after = heap_state(&l.sim);
        collections += after.0 - before.0;
        pause_ns += after.1 - before.1;
    }
    let rounds = rounds.max(1) as f64;
    m.insert("heap.collections".into(), collections as f64 / rounds);
    m.insert(
        "heap.pause_us".into(),
        pause_ns as f64 / 1e3 / rounds * speed.factor(),
    );
    Ok(ops.outcome(m, spans))
}

/// A machine's collections so far and its total collector pause.
fn heap_state(m: &Machine) -> (u64, u64) {
    let t = m.heap.telemetry();
    (m.stats.heap.collections, t.mark_pause_ns + t.sweep_pause_ns)
}
