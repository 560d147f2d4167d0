//! Machine-readable experiment records (`report --json`).
//!
//! Every experiment gets a record of the *same shape*, built by compiling
//! a representative workload with tracing enabled and running it on a
//! machine with an execution profile attached:
//!
//! ```text
//! { id, title,
//!   compile: { phases: [{phase, spans, wall_us, counters}], rules,
//!              code_size_words },
//!   run:     { entry, value, stats, opcodes, per_function } }
//! ```
//!
//! Fixed keys are [`Json::Obj`] fields (schema); histograms keyed by rule
//! or opcode name are [`Json::Map`]s (only the value type is schema).
//! Every experiment's record is a row of the record table
//! ([`crate::records()`]), all pinned to one schema golden, so the surface
//! stays machine-stable while measured values vary.
//!
//! The run section carries a `post_mortem` field: `null` on success,
//! and the machine's [`PostMortem`](s1lisp_s1sim::PostMortem) JSON when
//! the workload trapped — see [`trap_record`] for the demonstration
//! record `report --json trap` emits.

use s1lisp::{Compiler, Value};
use s1lisp_s1sim::ExecProfile;
use s1lisp_trace::json::Json;

use crate::corpus;

/// The representative workload behind one experiment's JSON record.
pub(crate) struct Workload {
    pub(crate) src: &'static str,
    pub(crate) entry: &'static str,
    pub(crate) args: Vec<Value>,
    pub(crate) globals: Vec<(&'static str, Value)>,
}

fn fx(n: i64) -> Value {
    Value::Fixnum(n)
}

fn fl(x: f64) -> Value {
    Value::Flonum(x)
}

pub(crate) fn workload(id: &str) -> Option<Workload> {
    let w = |src, entry, args| Workload {
        src,
        entry,
        args,
        globals: Vec::new(),
    };
    Some(match id {
        "e1" => w(corpus::EXPTL, "exptl", vec![fx(3), fx(10), fx(1)]),
        "e2" => w(
            corpus::QUADRATIC,
            "quadratic",
            vec![fl(1.0), fl(-3.0), fl(2.0)],
        ),
        "e3" => w(
            "(defun f (a b c) (if (and a (or b c)) (e1) (e2)))
             (defun e1 () 1) (defun e2 () 2)",
            "f",
            vec![fx(1), Value::Nil, fx(1)],
        ),
        "e4" => w(corpus::LOOPN, "loopn", vec![fx(100_000)]),
        "e5" => w(corpus::DOT, "dot-loop", vec![fx(2_000)]),
        "e6" => w(
            corpus::QUADRATIC_TYPED,
            "quadratic-typed",
            vec![fl(1.0), fl(-3.0), fl(2.0)],
        ),
        "e7" => w(
            corpus::PDL_KERNEL,
            "pdl-loop",
            vec![fx(2_000), fl(1.5), fl(2.5)],
        ),
        "e8" => w(corpus::TESTFN, "testfn", vec![fl(1.5), fl(2.5), fl(0.5)]),
        "e9" => w(corpus::HORNER_LOOP, "sum-horner", vec![fx(2_000)]),
        "e10" => Workload {
            src: corpus::SPECIALS_LOOP,
            entry: "accumulate",
            args: vec![fx(5_000)],
            globals: vec![("*step*", fx(2))],
        },
        "e11" => w(corpus::CLOSURES, "escape-test", vec![fx(5)]),
        "e12" => w(corpus::TAK, "tak", vec![fx(14), fx(10), fx(6)]),
        _ => return None,
    })
}

fn compile_section(c: &Compiler) -> Json {
    let sink = c.trace().expect("tracing was enabled");
    let phases = sink
        .phases()
        .iter()
        .map(|p| {
            let counters = Json::Map(
                p.counters
                    .iter()
                    .map(|&(n, v)| (n.to_string(), Json::uint(v)))
                    .collect(),
            );
            Json::obj(vec![
                ("phase", Json::str(p.phase)),
                ("spans", Json::uint(p.spans)),
                (
                    "wall_us",
                    Json::uint(p.wall.as_micros().try_into().unwrap_or(u64::MAX)),
                ),
                ("counters", counters),
            ])
        })
        .collect();
    let rules = Json::Map(
        c.rule_histogram()
            .into_iter()
            .map(|(r, n)| (r.to_string(), Json::uint(n)))
            .collect(),
    );
    Json::obj(vec![
        ("phases", Json::Arr(phases)),
        ("rules", rules),
        ("code_size_words", Json::uint(c.code_size_words() as u64)),
    ])
}

fn run_section(c: &Compiler, wl: &Workload) -> Json {
    let mut m = c.machine();
    for (name, v) in &wl.globals {
        m.set_global(name, v).expect("global installs");
    }
    // A ring buffer on the profile means a trapping workload yields a
    // post-mortem with its last retired instructions.
    m.profile = Some(Box::new(ExecProfile::with_ring(32)));
    let (value, post_mortem) = match m.run(wl.entry, &wl.args) {
        Ok(v) => (format!("{v}"), Json::Null),
        Err(trap) => (
            format!("{trap}"),
            m.post_mortem.as_ref().map_or(Json::Null, |pm| pm.to_json()),
        ),
    };
    let stats = Json::Map(
        m.stats
            .counters()
            .into_iter()
            .map(|(label, v)| (label.to_string(), Json::uint(v)))
            .collect(),
    );
    let profile = m.profile.take().expect("profile survives the run");
    let opcodes = Json::Map(
        profile
            .opcodes
            .iter()
            .map(|(&op, &n)| (op.to_string(), Json::uint(n)))
            .collect(),
    );
    let names = c.program().names();
    let per_function = profile
        .per_fn()
        .into_iter()
        .map(|(fnid, cycles)| {
            let name = names.resolve(fnid);
            Json::obj(vec![
                ("function", Json::str(&*name)),
                ("cycles", Json::uint(cycles)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("entry", Json::str(wl.entry)),
        ("value", Json::str(value)),
        ("stats", stats),
        ("opcodes", opcodes),
        ("per_function", Json::Arr(per_function)),
        ("post_mortem", post_mortem),
    ])
}

/// Compiles a workload with tracing, runs it with a profile attached,
/// and renders the record.
fn record(id: &str, title: &str, wl: &Workload) -> Json {
    let mut c = Compiler::new();
    c.enable_trace();
    c.compile_str(wl.src).expect("workload compiles");
    Json::obj(vec![
        ("id", Json::str(id)),
        ("title", Json::str(title)),
        ("compile", compile_section(&c)),
        ("run", run_section(&c, wl)),
    ])
}

/// The JSON record for one experiment, or `None` for an unknown id.
pub fn json_record(id: &str) -> Option<Json> {
    let title = crate::all_experiments()
        .into_iter()
        .find(|e| e.id == id)?
        .title;
    Some(record(id, title, &workload(id)?))
}

/// A demonstration record whose workload deliberately traps (`car` of a
/// fixnum two frames deep), exercising the post-mortem surface: the run
/// section's `value` is the trap message and `post_mortem` carries the
/// fault site, last retired instructions, register file, and pending
/// frames.  Everything in it is simulator state, so the record is
/// bit-identical across runs (pinned by test).
pub fn trap_record() -> Json {
    let wl = Workload {
        src: "(defun boom (x) (car x))
              (defun outer (x) (+ 1 (boom x)))",
        entry: "outer",
        args: vec![fx(5)],
        globals: Vec::new(),
    };
    record("trap", "Trap post-mortem demonstration", &wl)
}
