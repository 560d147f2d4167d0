//! The benchmark's inputs and their reference values.
//!
//! Programs are source text; the system under test receives only that
//! text and printed-datum arguments.  Every expected result comes from
//! the interpreter (`s1lisp-interp`) running the front end's conversion
//! of the same source — never from the optimizer, a code generator, or
//! an engine under test.
//!
//! The program sets are fixed: the run's `--seed` only draws from them
//! (which functions go into a batch, the kernel order, the request mix).
//! So the exact counts measured over a whole set — code words, retired
//! instructions, heap words — are the same for every seed.

use s1lisp_bench::corpus;
use s1lisp_interp::{Interp, Value};
use s1lisp_reader::{read_all_str, read_str, Interner};
use s1lisp_trace::rng::SplitMix64;

/// Seed of the generated half of the compile-batch pool.
const POOL_SEED: u64 = 0x5115_b0b0;

/// Generated functions in the compile-batch pool.
const GENERATED: usize = 400;

/// One call of a compiled function, with printed-datum arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Call {
    /// The function called.
    pub entry: String,
    /// Printed-datum arguments (`"3"`, `"1.5"`, `"x"`).
    pub args: Vec<String>,
    /// The interpreter's printed result.
    pub expected: String,
}

/// A unit of source text and the calls that exercise it.
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// A label (experiment id, kernel name, generated name).
    pub name: String,
    /// The top-level forms.
    pub source: String,
    /// Global values the calls need, as `(special, printed datum)`.
    pub globals: Vec<(String, String)>,
    /// The calls, with their reference results.
    pub calls: Vec<Call>,
}

/// Whether an engine's printed result agrees with the reference.  Two
/// flonums agree to a relative 1e-6: the optimizer's §7 rewrite of
/// `sin$f` into the S-1's cycle-based sine rounds differently from the
/// interpreter's direct call.  Everything else must print identically.
pub fn agrees(got: &str, expected: &str) -> bool {
    if got == expected {
        return true;
    }
    let float = |s: &str| s.contains('.').then(|| s.parse::<f64>().ok()).flatten();
    match (float(got), float(expected)) {
        (Some(g), Some(e)) => (g - e).abs() <= 1e-6 * e.abs().max(1.0),
        _ => false,
    }
}

/// Parses a printed datum into a value.
pub fn value(printed: &str) -> Result<Value, String> {
    let mut interner = Interner::new();
    read_str(printed, &mut interner)
        .map(|d| Value::from_datum(&d))
        .map_err(|e| format!("{printed}: {e}"))
}

/// A program whose calls still need their reference results.
fn program(
    name: &str,
    source: &str,
    globals: &[(&str, &str)],
    calls: &[(&str, &[&str])],
) -> Program {
    Program {
        name: name.to_string(),
        source: source.to_string(),
        globals: globals
            .iter()
            .map(|&(g, v)| (g.to_string(), v.to_string()))
            .collect(),
        calls: calls
            .iter()
            .map(|&(entry, args)| Call {
                entry: entry.to_string(),
                args: args.iter().map(|a| a.to_string()).collect(),
                expected: String::new(),
            })
            .collect(),
    }
}

/// The interpreter's printed result of each call of `p`, on the front
/// end's conversion of its source.  Tail calls are trampolined so the
/// loop kernels run in constant host stack.
fn interpret(p: &Program) -> Result<Vec<String>, String> {
    let mut interner = Interner::new();
    let forms = read_all_str(&p.source, &mut interner).map_err(|e| e.to_string())?;
    let mut fe = s1lisp_frontend::Frontend::new(&mut interner);
    let functions = fe.convert_toplevel(&forms).map_err(|e| e.to_string())?;
    let mut interp = Interp::new();
    interp.tco = true;
    interp.max_depth = 100_000;
    for f in functions {
        interp.define(f);
    }
    for (name, v) in &p.globals {
        interp.set_global(name, value(v)?);
    }
    p.calls
        .iter()
        .map(|c| {
            let args = c
                .args
                .iter()
                .map(|a| value(a))
                .collect::<Result<Vec<_>, _>>()?;
            interp
                .call(&c.entry, &args)
                .map(|v| v.to_string())
                .map_err(|e| format!("{}: {e}", c.entry))
        })
        .collect()
}

/// Fills in every call's expected result.
fn with_references(mut programs: Vec<Program>) -> Result<Vec<Program>, String> {
    for p in &mut programs {
        let results = interpret(p)?;
        for (call, expected) in p.calls.iter_mut().zip(results) {
            call.expected = expected;
        }
    }
    Ok(programs)
}

/// Runs `f` on a thread with a large stack: the interpreter recurses on
/// the host stack for every non-tail Lisp call, and the engines when they
/// read a result back into a host value.
pub fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .name("reference".into())
        .stack_size(512 << 20)
        .spawn(f)
        .expect("spawn the reference thread")
        .join()
        .expect("the reference thread panicked")
}

/// Global values a unit's calls need, as `(special, printed datum)`.
type Globals = &'static [(&'static str, &'static str)];

/// Calls into a unit, as `(entry, printed-datum arguments)`.
type Calls = &'static [(&'static str, &'static [&'static str])];

/// The calls that exercise one unit of the paper corpus, by experiment
/// id.  Cheap by design: the serve workloads time the server, not these.
fn corpus_calls(id: &str) -> (Globals, Calls) {
    match id {
        "e1" => (&[], &[("exptl", &["3", "10", "1"])]),
        "e2" => (&[], &[("quadratic", &["1.0", "-3.0", "2.0"])]),
        "e3" => (&[], &[("f", &["1", "()", "1"])]),
        "e4" => (&[], &[("loopn", &["1000"])]),
        "e5" => (&[], &[("dot-loop", &["200"])]),
        "e6" => (&[], &[("quadratic-typed", &["1.0", "-3.0", "2.0"])]),
        "e7" => (&[], &[("pdl-loop", &["200", "1.5", "2.5"])]),
        "e8" => (&[], &[("testfn", &["1.5", "2.5", "0.5"])]),
        "e9" => (&[], &[("sum-horner", &["200"])]),
        "e10" => (&[("*step*", "2")], &[("accumulate", &["500"])]),
        "e11" => (&[], &[("escape-test", &["5"])]),
        "e12" => (&[], &[("tak", &["10", "6", "3"])]),
        _ => (&[], &[]),
    }
}

/// The 12-unit paper corpus (one unit per experiment), with references.
pub fn corpus() -> Result<Vec<Program>, String> {
    let units: Vec<(String, String)> = s1lisp_bench::service_units()
        .into_iter()
        .map(|u| (u.name, u.source))
        .collect();
    on_big_stack(move || {
        let programs = units
            .iter()
            .map(|(id, source)| {
                let (globals, calls) = corpus_calls(id);
                if calls.is_empty() {
                    return Err(format!("corpus unit {id} has no benchmark calls"));
                }
                Ok(program(id, source, globals, calls))
            })
            .collect::<Result<Vec<_>, _>>()?;
        with_references(programs)
    })
}

/// A random arithmetic/control expression over fixnum variables a, b, c
/// — the fuzz grammar of the workspace's property tests, including
/// nonlocal exits (`catch`/`throw`, `prog`/`return`).
fn random_expr(rng: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(2) {
            0 => rng.range_i64(-20, 20).to_string(),
            _ => (*rng.pick(&["a", "b", "c"])).to_string(),
        };
    }
    let choice = rng.below(9);
    let mut e = || random_expr(rng, depth - 1);
    match choice {
        0 => format!("(+ {} {})", e(), e()),
        1 => format!("(- {} {})", e(), e()),
        2 => format!("(* {} {})", e(), e()),
        3 => format!("(if (< {} 3) {} {})", e(), e(), e()),
        4 => format!("(let ((tmp {})) (+ tmp {}))", e(), e()),
        5 => format!("(if (and (< {} {y}) (oddp {y})) 1 0)", e(), y = e()),
        6 => format!("(car (cons {} {}))", e(), e()),
        7 => format!(
            "(catch 'esc (if (< {} 0) (throw 'esc {}) {}))",
            e(),
            e(),
            e()
        ),
        _ => format!(
            "(prog (acc) (setq acc {}) (if (< acc {}) (return {})) (return (+ acc {})))",
            e(),
            e(),
            e(),
            e()
        ),
    }
}

/// The compile-batch pool: the paper corpus plus [`GENERATED`]
/// single-function units from the fuzz grammar at depth 2–6, so function
/// size spans about two orders of magnitude.  A generated function is
/// kept only if the interpreter computes a value for its call (fixnum
/// overflow is an error there, and on the engines).  Bodies are
/// distinct: the service's cache keys a function by its converted tree
/// without its name, so two same-bodied functions in one batch would
/// share the first one's artifact, name included.
pub fn pool() -> Result<Vec<Program>, String> {
    let mut programs = corpus()?;
    let generated = on_big_stack(|| {
        let mut rng = SplitMix64::new(POOL_SEED);
        let mut kept = Vec::new();
        let mut bodies = std::collections::HashSet::new();
        for k in 0.. {
            if kept.len() == GENERATED {
                break;
            }
            let depth = rng.range_i64(2, 7) as u32;
            let name = format!("g{k}");
            let body = random_expr(&mut rng, depth);
            let args: Vec<String> = (0..3).map(|_| rng.range_i64(-10, 10).to_string()).collect();
            if !bodies.insert(body.clone()) {
                continue;
            }
            let source = format!("(defun {name} (a b c) {body})");
            let mut p = program(&name, &source, &[], &[]);
            p.calls.push(Call {
                entry: name,
                args,
                expected: String::new(),
            });
            if let Ok(mut expected) = interpret(&p) {
                p.calls[0].expected = expected.remove(0);
                kept.push(p);
            }
        }
        kept
    });
    programs.extend(generated);
    Ok(programs)
}

/// The run-kernels set: one kernel per paper feature — calls (tak),
/// tail-call jumps (loopn), flonum representations (sum-horner), pdl
/// numbers (pdl-loop), deep-bound specials (accumulate), list allocation
/// (deriv-bench) and collection (gc-stress).
pub fn kernels() -> Result<Vec<Program>, String> {
    let kernels = vec![
        program("tak", corpus::TAK, &[], &[("tak", &["18", "12", "6"])]),
        program("loopn", corpus::LOOPN, &[], &[("loopn", &["200000"])]),
        program(
            "sum-horner",
            corpus::HORNER_LOOP,
            &[],
            &[("sum-horner", &["20000"])],
        ),
        program(
            "pdl-loop",
            corpus::PDL_KERNEL,
            &[],
            &[("pdl-loop", &["20000", "1.5", "2.5"])],
        ),
        program(
            "accumulate",
            corpus::SPECIALS_LOOP,
            &[("*step*", "2")],
            &[("accumulate", &["50000"])],
        ),
        program(
            "deriv-bench",
            corpus::DERIV,
            &[],
            &[("deriv-bench", &["200", "x"])],
        ),
        program(
            "gc-stress",
            corpus::GC_STRESS,
            &[],
            &[("gc-stress", &["1200"])],
        ),
    ];
    on_big_stack(move || with_references(kernels))
}

/// The eight redefinitions of `poly` the serve-mixed sessions compile,
/// each with its call.
pub fn variants() -> Result<Vec<Program>, String> {
    const BODIES: [&str; 8] = [
        "(+ (* x x) 1)",
        "(- (* 3 x) 2)",
        "(if (< x 0) (- x) x)",
        "(let ((y (* x x))) (+ y (* 2 y)))",
        "(* (+ x 1) (- x 1))",
        "(prog (acc) (setq acc 0) top (if (zerop x) (return acc)) (setq acc (+ acc x)) (setq x (- x 1)) (go top))",
        "(car (list (+ x 4) x))",
        "(max x 10)",
    ];
    let variants = BODIES
        .iter()
        .enumerate()
        .map(|(k, body)| {
            program(
                &format!("poly{k}"),
                &format!("(defun poly (x) {body})"),
                &[],
                &[("poly", &["7"])],
            )
        })
        .collect();
    on_big_stack(move || with_references(variants))
}

/// Seeded draws from the fixed program sets.  Each client of a run
/// draws from its own stream, so the sequence one connection sends does
/// not depend on how the other's requests interleave with it.
pub struct Draws(SplitMix64);

impl Draws {
    /// The draw stream `stream` of a run seeded with `seed`.
    pub fn new(seed: u64, stream: u64) -> Draws {
        Draws(SplitMix64::new(
            seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ))
    }

    /// An index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        self.0.below(n as u64) as usize
    }

    /// `k` distinct indices in `0..n` (a partial Fisher–Yates shuffle).
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k.min(n));
        all
    }
}

/// Batches of distinct pool indices that walk seeded permutations of the
/// pool, so over a run every unit is drawn equally often (to within one)
/// whatever the seed — a pool unit far larger than the rest cannot
/// weigh more in one run than in another.
pub struct Epochs {
    draws: Draws,
    n: usize,
    queue: std::collections::VecDeque<usize>,
}

impl Epochs {
    /// Batches over `0..n`, drawn from `draws`.
    pub fn new(draws: Draws, n: usize) -> Epochs {
        Epochs {
            draws,
            n,
            queue: Default::default(),
        }
    }

    /// The next `k` distinct indices (`k` at most `n`).
    pub fn batch(&mut self, k: usize) -> Vec<usize> {
        assert!(k <= self.n, "a batch of {k} from {} units", self.n);
        let mut batch = Vec::with_capacity(k);
        while batch.len() < k {
            match self.queue.iter().position(|i| !batch.contains(i)) {
                Some(p) => batch.push(self.queue.remove(p).expect("a queued index")),
                None => {
                    let next = self.draws.distinct(self.n, self.n);
                    self.queue.extend(next);
                }
            }
        }
        batch
    }
}

/// One request of a serve-mixed session after its opening compiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionRequest {
    /// Run call `call` of the session's unit `unit` (an index into the
    /// session's units).
    Run { unit: usize, call: usize },
    /// Redefine `poly` as variant `variant`.
    Redefine { variant: usize },
    /// Run `poly` as last redefined.
    RunVariant,
}

/// Requests per serve-mixed session after its opening compiles.
pub const SESSION_REQUESTS: usize = 32;

/// Corpus units each serve-mixed session compiles before its requests.
pub const SESSION_UNITS: usize = 3;

/// One serve-mixed session: the corpus units it compiles first (indices
/// into `corpus`), then [`SESSION_REQUESTS`] requests, one in four a
/// redefinition.  Units whose calls need globals are never drawn: a
/// served `run` cannot set them.
pub fn session(
    draws: &mut Draws,
    corpus: &[Program],
    variants: usize,
) -> (Vec<usize>, Vec<SessionRequest>) {
    let servable: Vec<usize> = (0..corpus.len())
        .filter(|&i| corpus[i].globals.is_empty())
        .collect();
    let units: Vec<usize> = draws
        .distinct(servable.len(), SESSION_UNITS)
        .into_iter()
        .map(|i| servable[i])
        .collect();
    let mut requests = Vec::with_capacity(SESSION_REQUESTS);
    let mut defined = false;
    for _ in 0..SESSION_REQUESTS / 4 {
        let redefine_at = draws.below(4);
        for slot in 0..4 {
            if slot == redefine_at {
                requests.push(SessionRequest::Redefine {
                    variant: draws.below(variants),
                });
                defined = true;
                continue;
            }
            let choices = units.len() + usize::from(defined);
            let pick = draws.below(choices);
            requests.push(match units.get(pick) {
                Some(&u) => SessionRequest::Run {
                    unit: u,
                    call: draws.below(corpus[u].calls.len()),
                },
                None => SessionRequest::RunVariant,
            });
        }
    }
    (units, requests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn references_come_from_the_interpreter() {
        let kernels = kernels().unwrap();
        let by_name = |n: &str| {
            kernels.iter().find(|k| k.name == n).unwrap().calls[0]
                .expected
                .clone()
        };
        assert_eq!(by_name("tak"), "7");
        assert_eq!(by_name("loopn"), "done");
        assert_eq!(by_name("accumulate"), "100000");
        assert_eq!(by_name("gc-stress"), "done");
        let variants = variants().unwrap();
        assert_eq!(variants[0].calls[0].expected, "50");
        assert_eq!(variants[5].calls[0].expected, "28");
    }

    #[test]
    fn the_pool_is_fixed_and_spans_sizes() {
        let pool = pool().unwrap();
        assert_eq!(pool.len(), 12 + GENERATED);
        assert_eq!(pool, super::pool().unwrap());
        let sizes: Vec<usize> = pool.iter().map(|p| p.source.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max / min >= 50, "sizes {min}..{max}");
    }

    #[test]
    fn the_same_seed_draws_the_same_requests() {
        let corpus = corpus().unwrap();
        let sequence = |seed: u64| {
            let mut epochs = Epochs::new(Draws::new(seed, 0), 412);
            let batches: Vec<_> = (0..8).map(|_| epochs.batch(64)).collect();
            let mut d = Draws::new(seed, 1);
            let order = d.distinct(14, 14);
            let sessions: Vec<_> = (0..4).map(|_| session(&mut d, &corpus, 8)).collect();
            format!("{batches:?}{order:?}{sessions:?}")
        };
        assert_eq!(sequence(11), sequence(11));
        assert_ne!(sequence(11), sequence(12));
        assert_ne!(
            format!("{:?}", Draws::new(11, 0).distinct(100, 10)),
            format!("{:?}", Draws::new(11, 1).distinct(100, 10))
        );
    }

    #[test]
    fn epochs_draw_every_unit_equally_often() {
        let mut epochs = Epochs::new(Draws::new(3, 0), 10);
        let mut counts = [0; 10];
        for _ in 0..7 {
            let batch = epochs.batch(4);
            let mut distinct = batch.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), 4, "{batch:?}");
            for i in batch {
                counts[i] += 1;
            }
        }
        // 28 draws over 10 units: every unit two or three times.
        assert!(counts.iter().all(|&c| c == 2 || c == 3), "{counts:?}");
    }

    #[test]
    fn sessions_redefine_one_request_in_four_and_run_only_what_is_defined() {
        let corpus = corpus().unwrap();
        let mut d = Draws::new(5, 0);
        for _ in 0..50 {
            let (units, requests) = session(&mut d, &corpus, 8);
            assert_eq!(units.len(), SESSION_UNITS);
            assert_eq!(requests.len(), SESSION_REQUESTS);
            let mut defined = false;
            for chunk in requests.chunks(4) {
                let redefinitions = chunk
                    .iter()
                    .filter(|r| matches!(r, SessionRequest::Redefine { .. }))
                    .count();
                assert_eq!(redefinitions, 1);
            }
            for r in &requests {
                match *r {
                    SessionRequest::Redefine { .. } => defined = true,
                    SessionRequest::RunVariant => assert!(defined),
                    SessionRequest::Run { unit, .. } => {
                        assert!(units.contains(&unit));
                        assert!(corpus[unit].globals.is_empty());
                    }
                }
            }
        }
    }
}
