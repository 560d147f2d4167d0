//! The repository's benchmark: four workloads, each run in its own
//! process, printing every metric by name and unit as one JSON line.
//!
//! ```text
//! benchmark --workload <compile-batch|run-kernels|serve-run|serve-mixed>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --check
//! ```
//!
//! Untraced (`--trace 0`, the default) the line carries the end-to-end
//! metrics; traced, the per-layer ones, and a Chrome trace of the run's
//! spans is written under `.bench_build/bench-traces/`.  The metric names
//! and units are those `BENCHMARK.json` at the repository root declares:
//! a run that would print an undeclared metric, or miss a declared
//! end-to-end one, fails instead.  `--check` runs every workload for a
//! second in both modes and fails on any failed operation or metric
//! mismatch.  See `README.md` beside this file for the workloads and
//! metrics.

mod compile_batch;
mod inputs;
mod measure;
mod run_kernels;
mod serve;
mod spans;
mod speed;
mod stats;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use s1lisp_trace::json::{self, Json};

use crate::measure::{Config, Outcome};

/// The benchmark's declaration: workloads, metrics, units, run length.
const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// The seed used when none is given.
const DEFAULT_SEED: u64 = 11;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = ["compile-batch", "run-kernels", "serve-run", "serve-mixed"];

/// The declared metrics, as `(name, unit)` in declaration order.
struct Declared {
    run_seconds: f64,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

fn declared() -> Result<Declared, String> {
    let j = json::parse(BENCHMARK_JSON)?;
    let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
        j.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or_else(|| format!("a {key} metric without a name or unit"))
            })
            .collect()
    };
    let run_seconds = j
        .get("run_seconds")
        .and_then(Json::as_int)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    Ok(Declared {
        run_seconds: run_seconds as f64,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

fn run_workload(name: &str, cfg: &Config) -> Result<Outcome, String> {
    match name {
        "compile-batch" => compile_batch::run(cfg),
        "run-kernels" => run_kernels::run(cfg),
        "serve-run" => serve::run(serve::Mix::Run, cfg),
        "serve-mixed" => serve::run(serve::Mix::Mixed, cfg),
        other => Err(format!(
            "unknown workload {other}; expected one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// A metric value as JSON: whole numbers without a fraction.
fn number(v: f64) -> Json {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        Json::Int(v as i64)
    } else {
        Json::Float(v)
    }
}

/// The result line for one mode.  Every metric the run produced must be
/// declared; every declared end-to-end metric must be produced, finite
/// and nonzero.  A per-layer metric of a layer the workload does not
/// exercise reads zero.
fn result_line(outcome: &Outcome, declared: &Declared, traced: bool) -> Result<Json, String> {
    let is_declared = |name: &String| {
        declared
            .end_to_end
            .iter()
            .chain(&declared.per_layer)
            .any(|(n, _)| n == name)
    };
    if let Some(name) = outcome.metrics.keys().find(|n| !is_declared(n)) {
        return Err(format!("metric {name} is not declared in BENCHMARK.json"));
    }
    let list = if traced {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    let mut metrics = Vec::new();
    for (name, unit) in list {
        let v = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !v.is_finite() || (!traced && v == 0.0) {
            return Err(format!("metric {name} measured {v}"));
        }
        let value = Json::Obj(vec![
            ("value".into(), number(v)),
            ("unit".into(), Json::str(unit)),
        ]);
        metrics.push((name.clone(), value));
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::uint(outcome.attempted.max(1))),
        ("failed".into(), Json::uint(outcome.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]))
}

/// Logs a run's failures and, when traced, writes its Chrome trace and
/// logs each span's self time.
fn log_run(workload: &str, cfg: &Config, outcome: &Outcome) -> Result<(), String> {
    for f in &outcome.failures {
        eprintln!("{workload}: FAILED {f}");
    }
    if !cfg.traced {
        return Ok(());
    }
    let dir = PathBuf::from(".bench_build").join("bench-traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{}.json", cfg.seed));
    std::fs::write(&path, outcome.spans.chrome().to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{workload}: {} spans ({} dropped) written to {}",
        outcome.spans.len(),
        outcome.spans.dropped(),
        path.display()
    );
    eprintln!("{workload}: self time by span, ms:");
    for (name, us) in outcome.spans.self_time_us() {
        eprintln!("  {name:<28} {:>12.3}", us / 1e3);
    }
    Ok(())
}

/// Runs every workload briefly, untraced and traced, and checks that no
/// operation failed and that the metrics match the declaration.
fn check() -> Result<(), String> {
    let declared = declared()?;
    let mut produced = BTreeSet::new();
    for workload in WORKLOADS {
        for traced in [false, true] {
            let cfg = Config {
                seed: DEFAULT_SEED,
                seconds: 1.0,
                traced,
                setups: 1,
            };
            let outcome = run_workload(workload, &cfg)?;
            log_run(workload, &cfg, &outcome)?;
            if outcome.failed > 0 {
                return Err(format!(
                    "{workload}: {} of {} operations failed",
                    outcome.failed, outcome.attempted
                ));
            }
            result_line(&outcome, &declared, traced).map_err(|e| format!("{workload}: {e}"))?;
            // A job's passes run inside it: their time cannot exceed it.
            if let Some(&share) = outcome.metrics.get("driver.pass_share_permille") {
                if share > 1000.0 {
                    return Err(format!(
                        "{workload}: pass time is {share} permille of job time"
                    ));
                }
            }
            produced.extend(outcome.metrics.into_keys());
        }
    }
    match declared
        .per_layer
        .iter()
        .find(|(name, _)| !produced.contains(name))
    {
        Some((name, _)) => Err(format!(
            "per-layer metric {name} is measured on no workload"
        )),
        None => Ok(()),
    }
}

/// Command-line settings of one run.
fn parse(args: &[String], declared: &Declared) -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: DEFAULT_SEED,
        seconds: declared.run_seconds,
        traced: false,
        setups: SETUPS,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} wants a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cfg.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args == ["--check"] {
        check().map(|()| eprintln!("check: every workload passed"))
    } else {
        declared().and_then(|declared| {
            let (workload, cfg) = parse(&args, &declared)?;
            let outcome = run_workload(&workload, &cfg)?;
            log_run(&workload, &cfg, &outcome)?;
            println!("{}", result_line(&outcome, &declared, cfg.traced)?);
            Ok(())
        })
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--check` smoke run, so `cargo test` covers every workload.
    #[test]
    fn check_passes() {
        check().unwrap();
    }

    #[test]
    fn the_declaration_lists_what_the_workloads_measure() {
        let d = declared().unwrap();
        assert_eq!(d.end_to_end.len(), 9);
        assert!(d.end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
        assert!(d
            .per_layer
            .iter()
            .any(|(n, _)| n == "server.transport_us_p50"));
    }

    #[test]
    fn arguments_parse_and_refuse_nonsense() {
        let d = declared().unwrap();
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (w, cfg) = parse(
            &args("--workload serve-run --seed 5 --seconds 2.5 --trace 1"),
            &d,
        )
        .unwrap();
        assert_eq!(
            (w.as_str(), cfg.seed, cfg.seconds, cfg.traced),
            ("serve-run", 5, 2.5, true)
        );
        let (_, cfg) = parse(&args("--workload run-kernels"), &d).unwrap();
        assert_eq!(
            (cfg.seed, cfg.seconds, cfg.traced),
            (DEFAULT_SEED, d.run_seconds, false)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload run-kernels --trace 2",
            "--workload run-kernels --seconds 0",
            "--bogus 1",
        ] {
            assert!(parse(&args(bad), &d).is_err(), "{bad}");
        }
    }
}
