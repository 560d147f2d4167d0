//! Golden tests for the machine-readable records: every row of the
//! record table (`s1lisp_bench::records`) — e1..e12, the demonstration
//! records, the perfbench smoke entries and the chrome trace — built
//! through the lookup `report --json` uses and compared with its schema
//! golden; plus the bit-identical trap post-mortem and the
//! zero-overhead guarantee for execution profiling.
//!
//! A schema golden holds a record's canonical type signature
//! (`s1lisp_bench::schema_of`).  Measured *values* are free to vary run
//! to run; renaming a field, changing a counter's type, or
//! restructuring a record breaks the golden and must be a deliberate
//! schema bump: `UPDATE_GOLDEN=1 cargo test -p s1lisp-bench --tests`
//! regenerates every golden.

use s1lisp_bench::{check_golden, lookup, records, schema_of, trap_record};
use s1lisp_trace::json::{self, Json};

#[test]
fn every_record_schema_matches_its_golden() {
    let cfg = Default::default();
    let mut drifted = Vec::new();
    for row in records() {
        let rec = lookup(row.id).expect("a table id resolves").build(&cfg);
        json::parse(&rec.to_string()).expect("a record is well-formed JSON");
        if let Err(e) = check_golden(row.golden, &format!("{}\n", schema_of(&rec))) {
            drifted.push(format!("{}: {e}", row.id));
        }
        if row.id == "e8" {
            // e8 (testfn) fires optimizer rules, so its `rules` map is
            // populated: the pinned schema is not an artifact of padding.
            let rules = rec.get("compile").and_then(|c| c.get("rules"));
            assert!(
                rules.and_then(Json::entries).is_some_and(|m| !m.is_empty()),
                "testfn should fire rules"
            );
        }
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}

#[test]
fn report_looks_up_every_table_id() {
    for row in records() {
        let found = lookup(row.id).expect("a table id resolves");
        assert_eq!((found.id, found.golden), (row.id, row.golden));
    }
    // The binary routes through the same lookup: `passes` builds (it
    // once fell outside a hand-written id list), and an unknown id's
    // message names every id in the table.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["--json", "passes", "nonesuch"])
        .output()
        .expect("report runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let built = json::parse(&stdout).expect("a JSON array");
    let ids: Vec<&str> = built
        .as_arr()
        .expect("an array")
        .iter()
        .filter_map(|r| r.get("id").and_then(Json::as_str))
        .collect();
    assert_eq!(ids, ["passes"]);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    let words: Vec<&str> = stderr
        .split(|c: char| c.is_whitespace() || ",:()".contains(c))
        .collect();
    assert!(words.contains(&"nonesuch"), "{stderr}");
    for row in records() {
        assert!(words.contains(&row.id), "{} missing from: {stderr}", row.id);
    }
}

#[test]
fn trap_post_mortem_is_bit_identical_across_runs() {
    // Everything in the post-mortem is simulated-machine state, so two
    // independent compile+run cycles must agree byte for byte.  (The
    // compile section carries wall times, so compare runs only.)
    let run_of = |rec: Json| match rec {
        Json::Obj(fields) => fields
            .into_iter()
            .find(|(k, _)| k == "run")
            .expect("record has a run section")
            .1
            .to_string(),
        other => panic!("unexpected record shape: {other}"),
    };
    let a = run_of(trap_record());
    let b = run_of(trap_record());
    assert_eq!(a, b);
    // And the post-mortem is populated, not null.
    assert!(a.contains("\"post_mortem\":{"), "{a}");
    assert!(a.contains("\"last_retired\":[{"), "{a}");
    assert!(a.contains("\"registers\":{"), "{a}");
}

#[test]
fn profiling_does_not_perturb_the_simulation() {
    use s1lisp::{Compiler, Value};
    use s1lisp_s1sim::ExecProfile;

    let src = "(defun tak (x y z)
                 (if (not (< y x)) z
                     (tak (tak (- x 1) y z)
                          (tak (- y 1) z x)
                          (tak (- z 1) x y))))";
    let mut c = Compiler::new();
    c.compile_str(src).unwrap();
    let args = [Value::Fixnum(12), Value::Fixnum(8), Value::Fixnum(4)];

    let mut plain = c.machine();
    let v1 = plain.run("tak", &args).unwrap();

    let mut profiled = c.machine();
    profiled.profile = Some(Box::new(ExecProfile::with_ring(64)));
    let v2 = profiled.run("tak", &args).unwrap();

    assert_eq!(v1, v2);
    // The profile is host-side bookkeeping: every simulated counter is
    // bit-identical with and without it.
    assert_eq!(plain.stats.insns, profiled.stats.insns);
    assert_eq!(plain.stats.moves, profiled.stats.moves);
    assert_eq!(plain.stats.calls, profiled.stats.calls);
    assert_eq!(plain.stats.tail_calls, profiled.stats.tail_calls);
    assert_eq!(plain.stats.max_call_depth, profiled.stats.max_call_depth);
    assert_eq!(plain.stats.max_stack_words, profiled.stats.max_stack_words);
    assert_eq!(plain.stats.heap.words, profiled.stats.heap.words);
    assert_eq!(plain.stats.heap.objects(), profiled.stats.heap.objects());
    // And the profile itself accounts for every retired instruction
    // plus the runtime-call surcharges.
    let folded = profiled.folded_stacks().expect("profiled run folds");
    assert!(plain.folded_stacks().is_none(), "no profile, no stacks");
    let p = profiled.profile.take().unwrap();
    assert!(p.retired() > 0);
    let attributed: u64 = p.per_fn().iter().map(|&(_, c)| c).sum();
    assert_eq!(attributed, profiled.stats.insns);
    // The stack tracker rides the same Option check: its folded view
    // accounts for the same total, so enabling it costs the simulation
    // nothing and loses no cycles.
    let folded_total: u64 = folded
        .lines()
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    assert_eq!(folded_total, profiled.stats.insns);
}
