//! What a served run shares and what it grows.
//!
//! The simulator's data stack grows on demand up to the machine's stack
//! size, which stays the point where a push traps: a recursion that fits
//! retires the same instructions to the same depth as on a stack
//! allocated whole, and one that does not traps at the same site.  A
//! machine shares its image's `Program`, copying it only when a run
//! interns a name the program lacks, so runs never see each other's
//! names and concurrent runs of one image print what serial runs print.

use s1lisp::{Compiler, Image, Machine, Trap, Value};
use s1lisp_bench::service_units;
use s1lisp_reader::Interner;

/// A non-tail recursion: one frame per level.
const DEPTH: &str = "(defun depth (n) (if (= n 0) 0 (+ 1 (depth (- n 1)))))";

fn depth_machine(c: &Compiler) -> Machine {
    Machine::with_sizes(c.program().clone(), 4096, 1 << 16)
}

fn compiled(src: &str) -> Compiler {
    let mut c = Compiler::new();
    c.compile_str(src).expect("compiles");
    c
}

/// A recursion that fits the 4096-word stack returns the value, the
/// instruction count and the stack depth it did on a stack allocated
/// whole; one that does not traps at the same site and call depth.
#[test]
fn the_stack_limit_traps_where_a_whole_stack_did() {
    let c = compiled(DEPTH);

    let mut m = depth_machine(&c);
    let v = m.run("depth", &[Value::Fixnum(2000)]).expect("fits");
    assert_eq!(v.to_string(), "2000");
    assert_eq!(m.stats.insns, 14_004);
    assert_eq!(m.stats.max_stack_words, 2_001);

    let mut m = depth_machine(&c);
    let trap = m
        .run("depth", &[Value::Fixnum(5000)])
        .expect_err("overflows");
    assert_eq!(trap.cause(), &Trap::StackOverflow);
    assert_eq!(trap.site(), Some(("depth", 6)));
    assert_eq!(m.stats.insns, 20_479);
    assert_eq!(m.stats.max_call_depth, 4_095);
    assert_eq!(m.stats.max_stack_words, 4_096);
}

/// A run after an overflow starts from an empty stack: it returns what a
/// fresh machine returns, in as many instructions.
#[test]
fn a_run_after_an_overflow_agrees_with_a_fresh_machine() {
    let c = compiled(DEPTH);
    let mut deep = depth_machine(&c);
    deep.run("depth", &[Value::Fixnum(5000)])
        .expect_err("overflows");
    let before = deep.stats.insns;
    let again = deep.run("depth", &[Value::Fixnum(700)]);

    let mut fresh = depth_machine(&c);
    assert_eq!(again, fresh.run("depth", &[Value::Fixnum(700)]));
    assert_eq!(deep.stats.insns - before, fresh.stats.insns);
}

/// A symbol the program never interned goes into the run's own copy of
/// the program: the run prints it, and the compiler's program, which the
/// image shares, keeps its symbol table.
#[test]
fn a_new_symbol_leaves_the_shared_program_unchanged() {
    let c = compiled("(defun both (x) (list x x))");
    let symbols = c.program().symbols.clone();
    let sym = Value::Sym(Interner::new().intern("never-interned"));

    let printed = c
        .image()
        .run_printed("both", std::slice::from_ref(&sym), 1_000);
    assert_eq!(printed, "(never-interned never-interned)");
    assert_eq!(c.program().symbols, symbols);

    let mut m = c.machine();
    assert_eq!(
        m.run("both", &[sym]).map(|v| v.to_string()),
        Ok("(never-interned never-interned)".to_string())
    );
    assert!(m.program.symbols.iter().any(|s| s == "never-interned"));
    assert_eq!(c.program().symbols, symbols);
}

/// The corpus entries a served run calls, with their arguments.
fn corpus_calls() -> Vec<(&'static str, Vec<Value>)> {
    let fx = Value::Fixnum;
    vec![
        ("exptl", vec![fx(3), fx(5), fx(1)]),
        ("tak", vec![fx(6), fx(4), fx(2)]),
        ("loopn", vec![fx(500)]),
        ("testfn", vec![Value::Flonum(0.25)]),
        (
            "quadratic",
            vec![Value::Flonum(1.0), Value::Flonum(-3.0), Value::Flonum(2.0)],
        ),
        ("fib-iter", vec![fx(20)]),
        ("nonesuch", vec![]),
    ]
}

fn run_all(image: &Image, calls: &[(&str, Vec<Value>)]) -> Vec<String> {
    calls
        .iter()
        .map(|(entry, args)| image.run_printed(entry, args, 1_000_000))
        .collect()
}

/// Four threads running one image at once print exactly what serial
/// runs print.
#[test]
fn concurrent_runs_of_one_image_print_what_serial_runs_print() {
    let mut c = Compiler::new();
    for unit in service_units() {
        c.compile_str(&unit.source).expect("corpus compiles");
    }
    let image = c.image();
    let calls = corpus_calls();
    let serial = run_all(&image, &calls);
    assert!(
        serial[0] == "243" && serial[6].starts_with("trap: "),
        "{serial:?}"
    );

    // `Value` is not `Send`: each thread builds its own arguments.
    let parallel: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let calls = corpus_calls();
                    (0..8).flat_map(|_| run_all(&image, &calls)).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for printed in parallel {
        for round in printed.chunks(calls.len()) {
            assert_eq!(round, &serial[..]);
        }
    }
}
