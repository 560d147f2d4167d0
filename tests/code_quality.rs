//! Code-quality pins for both back ends.
//!
//! §6.1 promises loops with "no MOV instructions … required" and §4.5
//! leaves only branch tensioning to a peephole pass.  These tests hold
//! the code generators to what they reached: no program may retire more
//! instructions (S-1 or bytecode) or occupy more code words than the
//! recorded tables, no allocation may move, E9's inline Horner loop is
//! as short as the hand-written one, and the peephole pass leaves
//! nothing for a second run to tension.

use s1lisp::{BackendKind, Compiler, Value};
use s1lisp_bench::corpus;
use s1lisp_suite::{fl, fx, COLLATZ, CTAK, DESTRUCTIVE, DIV2, FLATTEN, STAK, TRIANGLE};

/// One measured program: a source, the globals it reads and the calls
/// that exercise it.
struct Case {
    id: &'static str,
    src: &'static str,
    globals: &'static [(&'static str, i64)],
    calls: Vec<(&'static str, Vec<Value>)>,
}

fn case(id: &'static str, src: &'static str, calls: Vec<(&'static str, Vec<Value>)>) -> Case {
    Case {
        id,
        src,
        globals: &[],
        calls,
    }
}

fn sym(name: &str) -> Value {
    Value::Sym(s1lisp_reader::Interner::new().intern(name))
}

/// The bench corpus (`corpus-*`), the benchmark's run-kernels set with
/// its arguments (`kernel-*`) and the Gabriel programs (`gabriel-*`).
fn cases() -> Vec<Case> {
    let quad = || vec![fl(1.0), fl(-3.0), fl(2.0)];
    vec![
        case(
            "corpus-exptl",
            corpus::EXPTL,
            vec![("exptl", vec![fx(3), fx(30), fx(1)])],
        ),
        case(
            "corpus-exptl-typed",
            corpus::EXPTL_TYPED,
            vec![("exptl-typed", vec![fx(3), fx(30), fx(1)])],
        ),
        case(
            "corpus-loopn",
            corpus::LOOPN,
            vec![("loopn", vec![fx(100_000)])],
        ),
        case(
            "corpus-testfn",
            corpus::TESTFN,
            vec![
                ("testfn", vec![fl(1.5), fl(2.5), fl(0.5)]),
                ("testfn", vec![fl(1.5)]),
            ],
        ),
        case(
            "corpus-quadratic",
            corpus::QUADRATIC,
            vec![("quadratic", quad())],
        ),
        case(
            "corpus-quadratic-typed",
            corpus::QUADRATIC_TYPED,
            vec![("quadratic-typed", quad())],
        ),
        case(
            "corpus-tak",
            corpus::TAK,
            vec![("tak", vec![fx(14), fx(10), fx(6)])],
        ),
        case(
            "corpus-fib-iter",
            corpus::FIB_ITER,
            vec![("fib-iter", vec![fx(60)])],
        ),
        case(
            "corpus-sum-horner",
            corpus::HORNER_LOOP,
            vec![("sum-horner", vec![fx(2_000)])],
        ),
        case(
            "corpus-pdl-loop",
            corpus::PDL_KERNEL,
            vec![("pdl-loop", vec![fx(2_000), fl(1.5), fl(2.5)])],
        ),
        Case {
            id: "corpus-accumulate",
            src: corpus::SPECIALS_LOOP,
            globals: &[("*step*", 2)],
            calls: vec![("accumulate", vec![fx(1_000)])],
        },
        case(
            "corpus-closures",
            corpus::CLOSURES,
            vec![
                ("use-let", vec![fx(7)]),
                ("use-join", vec![fx(3)]),
                ("use-join", vec![Value::Nil]),
                ("escape-test", vec![fx(5)]),
            ],
        ),
        case(
            "corpus-dot-loop",
            corpus::DOT,
            vec![("dot-loop", vec![fx(2_000)])],
        ),
        case(
            "corpus-deriv",
            corpus::DERIV,
            vec![("deriv-bench", vec![fx(8), sym("x")])],
        ),
        case(
            "corpus-sum-horner-inline",
            corpus::HORNER_INLINE,
            vec![("sum-horner-inline", vec![fx(10_000)])],
        ),
        case(
            "corpus-gc-stress",
            corpus::GC_STRESS,
            vec![("gc-stress", vec![fx(20)])],
        ),
        case(
            "kernel-tak",
            corpus::TAK,
            vec![("tak", vec![fx(18), fx(12), fx(6)])],
        ),
        case(
            "kernel-loopn",
            corpus::LOOPN,
            vec![("loopn", vec![fx(200_000)])],
        ),
        case(
            "kernel-sum-horner",
            corpus::HORNER_LOOP,
            vec![("sum-horner", vec![fx(20_000)])],
        ),
        case(
            "kernel-pdl-loop",
            corpus::PDL_KERNEL,
            vec![("pdl-loop", vec![fx(20_000), fl(1.5), fl(2.5)])],
        ),
        Case {
            id: "kernel-accumulate",
            src: corpus::SPECIALS_LOOP,
            globals: &[("*step*", 2)],
            calls: vec![("accumulate", vec![fx(50_000)])],
        },
        case(
            "kernel-deriv-bench",
            corpus::DERIV,
            vec![("deriv-bench", vec![fx(200), sym("x")])],
        ),
        case(
            "kernel-gc-stress",
            corpus::GC_STRESS,
            vec![("gc-stress", vec![fx(1_200)])],
        ),
        case(
            "gabriel-stak",
            STAK,
            vec![("stak", vec![fx(18), fx(12), fx(6)])],
        ),
        case(
            "gabriel-ctak",
            CTAK,
            vec![("ctak", vec![fx(18), fx(12), fx(6)])],
        ),
        case("gabriel-div2", DIV2, vec![("test-div2", vec![fx(60)])]),
        case(
            "gabriel-destructive",
            DESTRUCTIVE,
            vec![("run", vec![fx(12)])],
        ),
        case(
            "gabriel-triangle",
            TRIANGLE,
            vec![("run", vec![fx(7), fx(5), fx(3)])],
        ),
        case("gabriel-flatten", FLATTEN, vec![("run", vec![fx(9)])]),
        case(
            "gabriel-collatz",
            COLLATZ,
            vec![("collatz-steps", vec![fx(97)])],
        ),
    ]
}

/// `(sim_insns, code_words, heap_alloc_words, (tail_calls,
/// max_call_depth))` of a case under the full compiler.
fn measure(c: &Case) -> (u64, u64, u64, (u64, usize)) {
    let mut comp = Compiler::new();
    comp.compile_str(c.src)
        .unwrap_or_else(|e| panic!("{}: {e}", c.id));
    let mut m = comp.machine();
    for &(name, v) in c.globals {
        m.set_global(name, &fx(v)).unwrap();
    }
    let (mut insns, mut heap) = (0, 0);
    for (entry, args) in &c.calls {
        let words = m.stats.heap.words;
        m.run(entry, args)
            .unwrap_or_else(|t| panic!("{} {entry}: {t}", c.id));
        insns += m.last_run_insns;
        heap += m.stats.heap.words - words;
    }
    (
        insns,
        comp.code_size_words() as u64,
        heap,
        (m.stats.tail_calls, m.stats.max_call_depth),
    )
}

/// `(id, sim_insns, code_words, heap_alloc_words)` as the compiler
/// stands with generic `+ - * / 1+ 1-` compiled as one `GENERIC`
/// instruction each, and a `JMPZ` on a boxed flonum charged as the
/// runtime comparison it runs (which is why quadratic's row rose from
/// 207); then with a self-tail loop's pdl-free parameters certified on
/// entry and its arguments assigned in dependency order, a shared
/// flonum unboxed once per `let`, raw values boxed from their own
/// slots, constant arguments pushed by one instruction and parameters
/// kept in their slots unless read in a loop (gc-stress 4,214,404 →
/// 2,414,404).  A row may only fall (instructions, words) or hold
/// (heap).
const TABLE: &[(&str, u64, u64, u64)] = &[
    ("corpus-exptl", 160, 24, 0),
    ("corpus-exptl-typed", 160, 24, 0),
    ("corpus-loopn", 300_005, 9, 0),
    ("corpus-testfn", 61, 43, 7),
    ("corpus-quadratic", 211, 39, 22),
    ("corpus-quadratic-typed", 38, 40, 9),
    ("corpus-tak", 13_860, 25, 0),
    ("corpus-fib-iter", 608, 19, 0),
    ("corpus-sum-horner", 60_007, 41, 2_006),
    ("corpus-pdl-loop", 48_005, 34, 2_002),
    ("corpus-accumulate", 5_009, 15, 0),
    ("corpus-closures", 38, 48, 4),
    ("corpus-dot-loop", 44_006, 31, 2_006),
    ("corpus-deriv", 2_513, 97, 288),
    ("corpus-sum-horner-inline", 100_007, 24, 1),
    ("corpus-gc-stress", 40_244, 23, 20_000),
    ("kernel-tak", 508_868, 25, 0),
    ("kernel-loopn", 600_005, 9, 0),
    ("kernel-sum-horner", 600_007, 41, 20_006),
    ("kernel-pdl-loop", 480_005, 34, 20_002),
    ("kernel-accumulate", 250_009, 15, 0),
    ("kernel-deriv-bench", 61_841, 97, 7_200),
    ("kernel-gc-stress", 2_414_404, 23, 1_200_000),
    ("gabriel-stak", 1_033_644, 57, 0),
    ("gabriel-ctak", 604_289, 54, 0),
    ("gabriel-div2", 1_716, 64, 244),
    ("gabriel-destructive", 473, 26, 26),
    ("gabriel-triangle", 2_028, 75, 30),
    ("gabriel-flatten", 11, 25, 2),
    ("gabriel-collatz", 2_131, 18, 0),
];

/// `(id, tail_calls, max_call_depth)` of every case: a self tail call
/// that became a goto still counts as a tail call, and none of them
/// pushes a frame (E4's loopn makes one tail call per iteration at
/// depth 0).  Instruction selection never moves a row.
const TAIL_CALLS: &[(&str, u64, usize)] = &[
    ("corpus-exptl", 5, 0),
    ("corpus-exptl-typed", 5, 0),
    ("corpus-loopn", 100_000, 0),
    ("corpus-testfn", 0, 1),
    ("corpus-quadratic", 0, 0),
    ("corpus-quadratic-typed", 0, 0),
    ("corpus-tak", 433, 10),
    ("corpus-fib-iter", 0, 0),
    ("corpus-sum-horner", 0, 1),
    ("corpus-pdl-loop", 0, 2),
    ("corpus-accumulate", 0, 0),
    ("corpus-closures", 1, 1),
    ("corpus-dot-loop", 0, 1),
    ("corpus-deriv", 1, 16),
    ("corpus-sum-horner-inline", 0, 0),
    ("corpus-gc-stress", 10_000, 1),
    ("kernel-tak", 15_902, 16),
    ("kernel-loopn", 200_000, 0),
    ("kernel-sum-horner", 0, 1),
    ("kernel-pdl-loop", 0, 2),
    ("kernel-accumulate", 0, 0),
    ("kernel-deriv-bench", 1, 400),
    ("kernel-gc-stress", 600_000, 1),
    ("gabriel-stak", 0, 18),
    ("gabriel-ctak", 15_902, 17),
    ("gabriel-div2", 0, 31),
    ("gabriel-destructive", 0, 1),
    ("gabriel-triangle", 194, 8),
    ("gabriel-flatten", 1, 0),
    ("gabriel-collatz", 0, 0),
];

/// `(id, bc_insns)`: the instructions the bytecode evaluator retires
/// over a case's calls under the full compiler, as it stands with tests
/// compiled as jumps, one op per generic operator, statements compiled
/// for effect, self tail calls made in place (kernel-gc-stress
/// 6,027,607 → 5,418,005) and trailing operands that need no code read
/// in place (5,418,005 → 2,413,204).  A row may only fall.
const BYTECODE: &[(&str, u64)] = &[
    ("corpus-exptl", 48),
    ("corpus-exptl-typed", 48),
    ("corpus-loopn", 300_003),
    ("corpus-testfn", 58),
    ("corpus-quadratic", 23),
    ("corpus-quadratic-typed", 23),
    ("corpus-tak", 9_962),
    ("corpus-fib-iter", 970),
    ("corpus-sum-horner", 60_012),
    ("corpus-pdl-loop", 50_006),
    ("corpus-accumulate", 8_008),
    ("corpus-closures", 37),
    ("corpus-dot-loop", 38_008),
    ("corpus-deriv", 601),
    ("corpus-sum-horner-inline", 220_008),
    ("corpus-gc-stress", 40_224),
    ("kernel-tak", 365_749),
    ("kernel-loopn", 600_003),
    ("kernel-sum-horner", 600_012),
    ("kernel-pdl-loop", 500_006),
    ("kernel-accumulate", 400_008),
    ("kernel-deriv-bench", 14_617),
    ("kernel-gc-stress", 2_413_204),
    ("gabriel-stak", 1_192_663),
    ("gabriel-ctak", 508_875),
    ("gabriel-div2", 1_471),
    ("gabriel-destructive", 187),
    ("gabriel-triangle", 2_459),
    ("gabriel-flatten", 11),
    ("gabriel-collatz", 1_231),
];

/// Instructions the bytecode evaluator retires over a case's calls.
fn measure_bytecode(c: &Case) -> u64 {
    let mut comp = Compiler::new();
    comp.backend = BackendKind::Bytecode;
    comp.compile_str(c.src)
        .unwrap_or_else(|e| panic!("{}: {e}", c.id));
    let mut e = comp.evaluator();
    for &(name, v) in c.globals {
        e.set_global(name, fx(v));
    }
    let mut insns = 0;
    for (entry, args) in &c.calls {
        e.run(entry, args)
            .unwrap_or_else(|t| panic!("{} {entry}: {t}", c.id));
        insns += e.last_run_insns;
    }
    insns
}

#[test]
fn no_program_retires_more_bytecode_than_the_recorded_table() {
    let mut report = String::new();
    let mut worse = Vec::new();
    for c in cases() {
        let insns = measure_bytecode(&c);
        report.push_str(&format!("    (\"{}\", {insns}),\n", c.id));
        match BYTECODE.iter().find(|r| r.0 == c.id) {
            None => worse.push(format!("{}: no row in the table", c.id)),
            Some(&(_, t)) if insns > t => {
                worse.push(format!("{}: bc_insns {insns} (table {t})", c.id));
            }
            Some(_) => {}
        }
    }
    assert!(
        worse.is_empty(),
        "{}\nmeasured rows:\n{report}",
        worse.join("\n")
    );
}

#[test]
fn no_program_is_slower_or_larger_than_the_recorded_table() {
    let mut report = String::new();
    let mut worse = Vec::new();
    for c in cases() {
        let (insns, words, heap, _) = measure(&c);
        report.push_str(&format!("    (\"{}\", {insns}, {words}, {heap}),\n", c.id));
        let Some(&(_, t_insns, t_words, t_heap)) = TABLE.iter().find(|r| r.0 == c.id) else {
            worse.push(format!("{}: no row in the table", c.id));
            continue;
        };
        if insns > t_insns || words > t_words || heap != t_heap {
            worse.push(format!(
                "{}: insns {insns} (table {t_insns}), words {words} (table {t_words}), \
                 heap {heap} (table {t_heap})",
                c.id
            ));
        }
    }
    assert!(
        worse.is_empty(),
        "{}\nmeasured rows:\n{report}",
        worse.join("\n")
    );
}

#[test]
fn tail_calls_and_call_depth_hold_the_recorded_table() {
    for c in cases() {
        let Some(&(_, calls, depth)) = TAIL_CALLS.iter().find(|r| r.0 == c.id) else {
            panic!("{}: no row in the table", c.id);
        };
        let (_, _, _, measured) = measure(&c);
        assert_eq!(
            measured,
            (calls, depth),
            "{}: (tail_calls, max_call_depth)",
            c.id
        );
    }
}

/// E9's inline Horner loop retires no more instructions than the same
/// loop written by hand in S-1 assembly.
#[test]
fn e9_inline_horner_is_as_short_as_hand_code() {
    let n = 10_000;
    let (_, hand) = s1lisp_bench::experiments::hand_horner(n);
    let mut c = Compiler::new();
    c.compile_str(corpus::HORNER_INLINE).unwrap();
    let mut m = c.machine();
    m.run("sum-horner-inline", &[fx(n)]).unwrap();
    let ratio = m.last_run_insns as f64 / hand as f64;
    assert!(
        ratio <= 1.0,
        "inline {} vs hand {hand}: ratio {ratio:.2}",
        m.last_run_insns
    );
}

/// A closure whose short-circuit test leaves a label on a jump until
/// the peephole pass tensions it.
const CLAMP: &str = "(defun make-clamp (lo hi)
  (lambda (x) (if (and (< lo x) (< x hi)) x lo)))";

/// For each function `src` defines: the labels one more
/// `tension_branches` pass would retarget.
fn retargetable(src: &str, tension: bool) -> Vec<(String, usize)> {
    let mut comp = Compiler::new();
    comp.tension_branches = tension;
    comp.compile_str(src).unwrap();
    let program = comp.program();
    let mut out = Vec::new();
    for (id, name) in program.fn_names.iter().enumerate() {
        if let Some(code) = program.func(id as u32) {
            let mut again = (**code).clone();
            let t = s1lisp_codegen::tension_branches(&mut again);
            out.push((name.clone(), t.retargeted));
        }
    }
    out
}

/// The peephole pass runs on every function a unit defines, closure
/// bodies included, and one run leaves no label pointing at a jump.
#[test]
fn a_second_peephole_pass_retargets_no_label() {
    let untensioned: usize = retargetable(CLAMP, false)
        .iter()
        .filter(|(name, _)| name.contains("%closure"))
        .map(|&(_, n)| n)
        .sum();
    assert!(untensioned > 0, "the closure body has labels to tension");
    let sources = cases().into_iter().map(|c| (c.id, c.src));
    for (id, src) in sources.chain([("clamp", CLAMP)]) {
        for (name, n) in retargetable(src, true) {
            assert_eq!(n, 0, "{id}: {name}");
        }
    }
}
