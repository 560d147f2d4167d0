//! Prints the experiment reports (all of them, or those named on the
//! command line).
//!
//! ```sh
//! cargo run -p s1lisp-bench --bin report                   # everything
//! cargo run -p s1lisp-bench --bin report -- e4 e7          # selected
//! cargo run -p s1lisp-bench --bin report -- --json         # JSON array
//! cargo run -p s1lisp-bench --bin report -- --json e1 e12  # selected
//! cargo run -p s1lisp-bench --bin report -- --jobs 4 service
//! cargo run -p s1lisp-bench --bin report -- --passes       # schedule
//! cargo run -p s1lisp-bench --bin report -- --metrics      # unified metrics
//! cargo run -p s1lisp-bench --bin report -- --flame tak    # folded stacks
//! cargo run -p s1lisp-bench --bin report -- --chrome-trace # trace JSON
//! ```
//!
//! `--json` emits one machine-readable record per id instead of the
//! human-readable text.  The ids are the rows of the record table
//! (`s1lisp_bench::records`), each with its schema pinned by a golden
//! file; an unknown id prints the full list to stderr and is skipped.
//! Besides e1..e12: `trap` selects the trap post-mortem demonstration
//! record; `service` batch-compiles the whole corpus through the
//! parallel compilation service (`--jobs N` workers, `--cache-dir D`
//! for a persistent artifact cache — run it twice with the same
//! directory and the second run reports `hit_rate=100%`);
//! `backend` reports the bytecode backend's per-function code footprint
//! and the cross-backend oracle verdicts (S-1 on the simulator vs
//! bytecode on the evaluator; `--backend s1|bytecode|both` selects the
//! service batch's code generator);
//! `serve` runs a scripted two-tenant session against an in-process
//! compile-server daemon and records every wire response;
//! `durability` runs a scripted crash drill — a durable burst, a torn
//! journal tail, a mid-log bit flip — and records the recovery verdict;
//! `service-fault` demonstrates the degraded path with an injected
//! optimizer panic; `guard` runs the guarded batch under a seeded
//! deterministic fault storm (phase validators, cache fault injection,
//! differential oracle); and `guard-miscompile` shows the oracle
//! catching a miscompile and shipping the unoptimized artifact.
//!
//! `--metrics` (or the `metrics` id under `--json`) runs the pinned
//! metrics workload — tak plus one service batch — and renders the
//! unified registry snapshot: simulator, heap/GC, pipeline, cache, and
//! service metrics in one table (or one schema-pinned record).
//!
//! `--flame <workload>` runs one perfbench kernel (tak, exptl, loopn,
//! horner, gc-stress) under the calling-context profiler and prints
//! folded stacks (`caller;callee cycles`) — pipe into `flamegraph.pl`
//! or load in speedscope.  `--chrome-trace` prints a Chrome trace-event
//! JSON array (a traced compile plus a 2-worker batch timeline) for
//! `chrome://tracing` / Perfetto.

use std::path::PathBuf;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let passes = args.iter().any(|a| a == "--passes");
    args.retain(|a| a != "--passes");
    let metrics = args.iter().any(|a| a == "--metrics");
    args.retain(|a| a != "--metrics");
    let chrome = args.iter().any(|a| a == "--chrome-trace");
    args.retain(|a| a != "--chrome-trace");
    if let Some(i) = args.iter().position(|a| a == "--flame") {
        args.remove(i);
        let Some(entry) = args.get(i).cloned() else {
            eprintln!("--flame wants a workload id (try tak)");
            std::process::exit(2);
        };
        match s1lisp_bench::flame_report(&entry) {
            Ok(folded) => print!("{folded}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        return;
    }
    if chrome {
        println!("{}", s1lisp_bench::chrome_trace());
        return;
    }
    if metrics || passes {
        if !json {
            let text = if metrics {
                s1lisp_bench::metrics_report()
            } else {
                s1lisp_bench::passes_report()
            };
            print!("{text}");
            return;
        }
        // Under --json these are the record table's rows of the same name.
        args = vec![if metrics { "metrics" } else { "passes" }.to_string()];
    }
    let mut jobs = 1usize;
    let mut cache_dir: Option<PathBuf> = None;
    let mut backend = s1lisp_driver::BackendSelect::S1;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => jobs = n,
                None => {
                    eprintln!("--jobs wants a number");
                    std::process::exit(2);
                }
            },
            "--cache-dir" => match it.next() {
                Some(d) => cache_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--cache-dir wants a path");
                    std::process::exit(2);
                }
            },
            "--backend" => match it
                .next()
                .and_then(|v| s1lisp_driver::BackendSelect::parse(&v))
            {
                Some(b) => backend = b,
                None => {
                    eprintln!("--backend wants s1, bytecode, or both");
                    std::process::exit(2);
                }
            },
            _ => rest.push(a),
        }
    }
    let selected: Vec<String> = if rest.is_empty() {
        s1lisp_bench::all_experiments()
            .iter()
            .map(|e| e.id.to_string())
            .collect()
    } else {
        rest
    };
    if json {
        let cfg = s1lisp_driver::ServiceConfig {
            jobs,
            cache_dir,
            backend,
            ..s1lisp_driver::ServiceConfig::default()
        };
        let records = selected
            .iter()
            .filter_map(|id| match s1lisp_bench::lookup(id) {
                Ok(row) => Some(row.build(&cfg)),
                Err(unknown) => {
                    eprintln!("{unknown}");
                    None
                }
            })
            .collect();
        println!("{}", s1lisp_trace::json::Json::Arr(records));
        return;
    }
    for id in selected {
        if id == "service" {
            println!("==================================================================");
            println!("SERVICE — parallel batch compile of the experiment corpus");
            println!("==================================================================");
            print!("{}", s1lisp_bench::service_report(jobs, cache_dir.clone()));
            continue;
        }
        match s1lisp_bench::run_experiment(&id) {
            Some(report) => {
                let title = s1lisp_bench::all_experiments()
                    .into_iter()
                    .find(|e| e.id == id)
                    .map(|e| e.title)
                    .unwrap_or("");
                println!("==================================================================");
                println!("{} — {}", id.to_uppercase(), title);
                println!("==================================================================");
                println!("{report}");
            }
            None => eprintln!("unknown experiment {id} (want e1..e12 or service)"),
        }
    }
}
