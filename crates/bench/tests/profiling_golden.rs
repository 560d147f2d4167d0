//! Golden tests for the profiling layer: the folded-stack text for the
//! pinned tak kernel (byte-golden through `s1lisp_bench::check_golden`
//! — it is pure simulated-machine state, so two runs must agree
//! exactly) and the self/cumulative reconciliation contract.  The
//! chrome-trace event schema is a row of the record table, checked by
//! `golden_json.rs`.

use s1lisp_bench::{check_golden, flame_report};

#[test]
fn tak_folded_stacks_match_golden_byte_for_byte() {
    // Folded stacks are calling-context cycle attribution of a
    // deterministic simulation: no wall times, no host state.  The
    // golden pins both the format (caller;callee cycles) and the exact
    // counts; a codegen change that shifts cycles is a deliberate bump.
    let folded = flame_report("tak").unwrap();
    assert_eq!(folded, flame_report("tak").unwrap(), "byte-deterministic");
    check_golden("tak_folded.txt", &folded).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn folded_cycles_reconcile_with_retired_and_per_fn() {
    use s1lisp::{Compiler, Value};
    use s1lisp_s1sim::ExecProfile;

    let mut c = Compiler::new();
    c.compile_str(s1lisp_bench::corpus::TAK).unwrap();
    let mut m = c.machine();
    m.profile = Some(Box::new(ExecProfile::default()));
    m.run(
        "tak",
        &[Value::Fixnum(12), Value::Fixnum(8), Value::Fixnum(4)],
    )
    .unwrap();
    let folded = m.folded_stacks().unwrap();
    let folded_total: u64 = folded
        .lines()
        .map(|l| {
            l.rsplit_once(' ')
                .expect("line is `path cycles`")
                .1
                .parse::<u64>()
                .expect("cycle count")
        })
        .sum();
    let p = m.profile.take().unwrap();
    let per_fn_total: u64 = p.per_fn().iter().map(|&(_, cy)| cy).sum();
    // The reconciliation contract: every attributed cycle is a retired
    // instruction or a runtime-call surcharge, and the stack view, the
    // flat per-function view, and the machine counter all agree.
    assert_eq!(folded_total, p.retired() + p.synthetic_cycles());
    assert_eq!(folded_total, per_fn_total);
    // `stats.insns` already counts the synthetic runtime-call cost, so
    // all three views and the machine counter are the same number.
    assert_eq!(folded_total, m.stats.insns);
    assert_eq!(p.stack_truncated(), 0, "tak(12,8,4) fits the depth cap");
}
