//! The perf-trajectory harness: pinned simulator kernels and service
//! batches, appended to `BENCH_sim.json` / `BENCH_service.json` at the
//! repo root (one entry per invocation — run it once per commit of
//! interest and the files become the project's performance history).
//!
//! ```sh
//! cargo run --release -p s1lisp-bench --bin perfbench            # append both
//! cargo run --release -p s1lisp-bench --bin perfbench -- --trials 9
//! cargo run --release -p s1lisp-bench --bin perfbench -- --check # CI smoke
//! ```
//!
//! `--check` builds the record table's two perfbench smoke entries (one
//! trial of the smallest workload on each side), validates them against
//! their committed schema goldens
//! (`crates/bench/tests/golden/perfbench_*_schema.txt`), and exits
//! nonzero on any mismatch — without touching the trajectory files.
//! No thresholds are gated: the trajectory records, it does not judge.
//!
//! `--compare [--tolerance N]` is the judging mode: measure the full
//! matrix fresh, compare each workload's median throughput against the
//! *best* entry in the committed trajectory, and exit nonzero listing
//! every workload that fell more than N percent (default 20) below its
//! best baseline.  The trajectory files are never modified.

use s1lisp_bench::{compare_golden, lookup, perfbench, schema_of};
use s1lisp_trace::json::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let compare = args.iter().any(|a| a == "--compare");
    let mut warmup = 1usize;
    let mut trials = 5usize;
    let mut tolerance = perfbench::DEFAULT_COMPARE_TOLERANCE;
    let mut it = args.iter().filter(|a| *a != "--check" && *a != "--compare");
    while let Some(a) = it.next() {
        let mut grab = |name: &str| match it.next().and_then(|v| v.parse().ok()) {
            Some(n) => n,
            None => {
                eprintln!("{name} wants a number");
                std::process::exit(2);
            }
        };
        match a.as_str() {
            "--warmup" => warmup = grab("--warmup"),
            "--trials" => trials = grab("--trials"),
            "--tolerance" => tolerance = grab("--tolerance") as u64,
            other => {
                eprintln!(
                    "unknown argument {other} \
                     (want --check, --compare, --warmup N, --trials N, --tolerance N)"
                );
                std::process::exit(2);
            }
        }
    }
    let root = perfbench::repo_root();
    if compare {
        let trials = trials.max(1);
        println!("perfbench --compare: tolerance {tolerance}% below best baseline");
        let mut regressed = false;
        for (file, entry) in [
            (
                "BENCH_sim.json",
                perfbench::sim_entry(&root, warmup, trials),
            ),
            (
                "BENCH_service.json",
                perfbench::service_entry(&root, warmup, trials),
            ),
        ] {
            let baselines = match perfbench::load_trajectory(&root.join(file)) {
                Ok(entries) => entries,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            };
            let comparisons = perfbench::compare_entry(&entry, &baselines, tolerance);
            println!("{file}:");
            if comparisons.is_empty() {
                println!("  (no baselines — run perfbench once to record them)");
            } else {
                print!("{}", perfbench::format_comparisons(&comparisons));
            }
            regressed |= comparisons.iter().any(|c| c.regressed);
        }
        std::process::exit(i32::from(regressed));
    }
    if check {
        let mut ok = true;
        for id in ["perfbench-sim", "perfbench-service"] {
            let row = lookup(id).expect("the smoke entries are record-table rows");
            let entry = row.build(&Default::default());
            let empty_rows = ["workloads", "batches", "serves"]
                .iter()
                .filter_map(|key| entry.get(key))
                .any(|rows| rows.as_arr().is_none_or(<[Json]>::is_empty));
            if empty_rows {
                eprintln!("perfbench --check: {id} has empty workload rows");
                ok = false;
            }
            match compare_golden(row.golden, &format!("{}\n", schema_of(&entry))) {
                Ok(()) => println!("perfbench --check: {id} schema ok"),
                Err(e) => {
                    eprintln!("perfbench --check: {id} schema mismatch: {e}");
                    ok = false;
                }
            }
        }
        std::process::exit(i32::from(!ok));
    }
    let trials = trials.max(1);
    println!("perfbench: sim kernels ({warmup} warmup + {trials} trials each)");
    let sim = perfbench::sim_entry(&root, warmup, trials);
    print!("{}", perfbench::summarize_entry(&sim));
    println!("perfbench: service batches at jobs=1/2/8, serve bursts at clients=1/4/16");
    let service = perfbench::service_entry(&root, warmup, trials);
    print!("{}", perfbench::summarize_entry(&service));
    for (file, entry) in [("BENCH_sim.json", sim), ("BENCH_service.json", service)] {
        let path = root.join(file);
        match perfbench::append_trajectory(&path, entry) {
            Ok(n) => println!("appended entry {n} to {file}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    }
}
