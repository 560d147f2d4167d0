//! A guided tour of the compiler on the paper's §7 worked example
//! (`testfn`): phase table, back-translation, transformation transcript,
//! the generated parenthesized assembly — the full Table 1 → Table 4
//! journey — and the observability surfaces (phase telemetry, execution
//! statistics, opcode profile, the per-function compilation dossier,
//! a trap post-mortem, and the batch compilation service with its
//! artifact cache and fault isolation), closing with the same function
//! compiled for both backends — S-1 and portable bytecode — and run to
//! the same answer on both engines.
//!
//! ```sh
//! cargo run --example compiler_tour
//! ```

use s1lisp::{phases, Compiler, PhaseStatus, Value};
use s1lisp_s1sim::ExecProfile;

const TESTFN: &str = "
(defun frotz (a b c) '())
(defun testfn (a &optional (b 3.0) (c a))
  (let ((d (+$f a b c)) (e (*$f a b c)))
    (let ((q (sin$f e)))
      (frotz d e (max$f d e))
      q)))";

fn main() {
    println!("=== Phase structure (Table 1) ===\n");
    for p in phases() {
        let mark = match p.status {
            PhaseStatus::Implemented => " ",
            PhaseStatus::OptionalExtension => "+",
            PhaseStatus::Subsumed => "~",
            PhaseStatus::NotBuilt => "-",
        };
        let bracket = if p.bracketed_in_paper {
            "[bracketed in 1982]"
        } else {
            ""
        };
        println!("{mark} {:<36} {:<20} {}", p.name, bracket, p.module);
    }

    let mut compiler = Compiler::new();
    compiler.enable_trace();
    compiler.compile_str(TESTFN).expect("compiles");
    let f = compiler.function("testfn").expect("compiled");

    println!("\n=== testfn, converted to the internal tree (back-translated) ===\n");
    println!("{}", f.converted);

    println!("\n=== source-level transformation transcript (§7 style) ===\n");
    println!("{}", f.transcript);

    println!(
        "=== after optimization ({} transformations) ===\n",
        f.transformations
    );
    println!("{}", f.optimized);

    println!("\n=== generated S-1 code (parenthesized assembly, Table 4 style) ===\n");
    println!("{}", compiler.disassemble("testfn").expect("defined"));

    println!(
        "total code size: {} thirty-six-bit words across {} instructions",
        compiler.code_size_words(),
        compiler.program().total_insns()
    );

    println!("\n=== compilation telemetry (per-phase spans, wall time, counters) ===\n");
    print!("{}", compiler.trace_report());

    println!("\n=== one profiled run of (testfn 1.5 2.5 0.5) ===\n");
    let mut m = compiler.machine();
    m.profile = Some(Box::new(ExecProfile::new()));
    let v = m
        .run(
            "testfn",
            &[Value::Flonum(1.5), Value::Flonum(2.5), Value::Flonum(0.5)],
        )
        .expect("runs");
    println!("value: {v}\n");
    print!("{}", m.stats);
    if let Some(p) = m.profile.take() {
        println!("\nretired opcodes:");
        let mut ops: Vec<(&str, u64)> = p.opcodes.iter().map(|(&k, &v)| (k, v)).collect();
        ops.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (op, n) in ops {
            println!("  {op:<14} {n:>8}");
        }
    }

    // Everything above, joined into one report: the compilation dossier.
    // (The `explain` bin renders these for any experiment-corpus
    // function: `cargo run -p s1lisp-bench --bin explain -- testfn`.)
    println!("\n=== the same story as one dossier: explain(\"testfn\") ===\n");
    let dossier = compiler.explain("testfn").expect("testfn was compiled");
    print!("{dossier}");

    // And the failure side: run a function on an argument it cannot
    // handle, with a post-mortem ring attached, and read the wreckage.
    println!("\n=== trap post-mortem: (car 5) deep in a call chain ===\n");
    let mut c2 = Compiler::new();
    c2.compile_str(
        "(defun boom (x) (car x))
         (defun outer (x) (+ 1 (boom x)))",
    )
    .expect("compiles");
    let mut crash = c2.machine();
    crash.enable_post_mortem(16);
    let trap = crash
        .run("outer", &[Value::Fixnum(5)])
        .expect_err("CAR of a fixnum traps");
    println!("trap: {trap}");
    println!("fault site: {:?}\n", trap.site());
    let pm = crash.post_mortem.as_ref().expect("post-mortem captured");
    print!("{pm}");

    // Scale out: the same pipeline as a batch service.  Compile a unit
    // twice through one service — the second batch is answered entirely
    // from the content-addressed artifact cache.
    println!("\n=== the compilation service: batch compile, then a warm recompile ===\n");
    use s1lisp_driver::{CompileService, FaultPlan, FaultSite, ServiceConfig, SourceUnit};
    let units = [SourceUnit::new(
        "tour",
        "(defun square (x) (* x x))
         (defun cube (x) (* x (square x)))
         (defun poly (x) (+ (cube x) (square x) x 1))",
    )];
    let service = CompileService::new(ServiceConfig::with_jobs(2));
    let cold = service.compile_batch(&units);
    let warm = service.compile_batch(&units);
    for (label, batch) in [("cold", &cold), ("warm", &warm)] {
        println!(
            "{label}: workers={} functions={} hit_rate={}% (hits={} misses={})",
            batch.stats.workers_used,
            batch.stats.functions,
            batch.hit_rate_percent(),
            batch.stats.cache.hits,
            batch.stats.cache.misses
        );
    }
    assert_eq!(cold.render_artifacts(), warm.render_artifacts());

    // And its failure side: a fault plan forces a panic into one
    // function's source-level optimization.  The batch completes; the
    // victim is recompiled with transformations off and the incident is
    // on the record.
    println!("\n=== fault isolation: a panic injected into cube's optimizer ===\n");
    let cfg = ServiceConfig {
        jobs: 2,
        fault_plan: Some(
            FaultPlan::new(0).force(FaultSite::PhasePanic, "cube/Source-level optimization"),
        ),
        ..ServiceConfig::default()
    };
    // Quiet the default panic hook for the demo — the injected panic is
    // the point, not the backtrace.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let faulted = CompileService::new(cfg).compile_batch(&units);
    std::panic::set_hook(prev_hook);
    for i in &faulted.incidents {
        println!(
            "incident: function={} kind={} recovered={} ({})",
            i.function,
            i.kind.as_str(),
            i.recovered,
            i.detail
        );
    }
    for r in &faulted.records {
        println!("  {:<8} {}", r.function, r.outcome.as_str());
    }
    assert!(faulted.artifact("cube").expect("still compiled").degraded);

    // The closing act: where did the cycles go?  A healthy run folded
    // into flamegraph.pl/speedscope stacks, the same view of a trapping
    // run (the stack tracker survives the trap — the folded output shows
    // exactly which call path burned cycles before the fault), and the
    // whole pipeline + batch timeline as a Chrome trace.
    println!("\n=== profiling: folded stacks of a healthy run (exptl) ===\n");
    let mut c3 = Compiler::new();
    c3.compile_str(
        "(defun exptl (x n a)
                      (cond ((zerop n) a)
                            ((oddp n) (exptl (* x x) (floor (/ n 2)) (* a x)))
                            (t (exptl (* x x) (floor (/ n 2)) a))))",
    )
    .expect("compiles");
    let mut prof = c3.machine();
    prof.profile = Some(Box::new(ExecProfile::new()));
    prof.run(
        "exptl",
        &[Value::Fixnum(3), Value::Fixnum(10), Value::Fixnum(1)],
    )
    .expect("runs");
    print!("{}", prof.folded_stacks().expect("profile attached"));
    println!("\n{}", prof.stats_report());

    println!("=== profiling: folded stacks of the trapping run (outer -> boom) ===\n");
    let mut crash2 = c2.machine();
    crash2.profile = Some(Box::new(ExecProfile::new()));
    crash2
        .run("outer", &[Value::Fixnum(5)])
        .expect_err("still traps");
    print!("{}", crash2.folded_stacks().expect("profile attached"));

    println!("\n=== chrome trace: load this JSON in chrome://tracing or Perfetto ===\n");
    let trace = s1lisp_bench::chrome_trace();
    let events = s1lisp_trace::chrome::validate_trace(&trace).expect("valid trace-event JSON");
    let text = trace.to_string();
    println!("{} events, {} bytes; first 200 bytes:", events, text.len());
    println!("{}…", &text[..text.len().min(200)]);

    // The closing act: the whole pipeline as a resident service.  An
    // in-process daemon, two tenants whose namespaces disagree about
    // whether `cell` is special, and an SLO verdict on every response.
    println!("\n=== the compile server: two tenants, one daemon ===\n");
    use s1lisp_server::{CompileServer, ServeClient, ServerConfig};
    let handle = CompileServer::new(ServerConfig::default())
        .serve_tcp(0)
        .expect("bind an ephemeral port");
    let addr = format!("127.0.0.1:{}", handle.port());
    let shared = "(defun poke (x) (let ((cell (+ x 21))) (* cell 2)))";

    let mut alpha = ServeClient::connect(&addr).expect("connect");
    alpha.hello("alpha", None).expect("hello");
    alpha
        .compile("decls", "(proclaim (quote (special cell)))")
        .expect("compile the declaration");
    let a = alpha.compile("lib", shared).expect("compile");

    let mut beta = ServeClient::connect(&addr).expect("connect");
    beta.hello("beta", None).expect("hello");
    let b = beta.compile("lib", shared).expect("compile");

    for (who, resp) in [("alpha", &a), ("beta", &b)] {
        println!(
            "{who}: ok={} degraded={} queue_wait_us={} wall_us={}",
            resp.ok, resp.slo.degraded, resp.slo.queue_wait_us, resp.slo.wall_us
        );
    }
    let assembly = |r: &s1lisp_server::Response| match &r.body {
        s1lisp_server::Body::Compile { artifacts, .. } => artifacts[0].assembly.clone(),
        _ => unreachable!("compile response"),
    };
    assert_ne!(
        assembly(&a),
        assembly(&b),
        "alpha proclaimed cell special; its poke deep-binds where beta's is lexical"
    );
    let run = alpha.run("poke", &["0"]).expect("run");
    println!(
        "alpha (run poke 0) => {:?}  [same value from beta: {:?}]",
        run.body,
        beta.run("poke", &["0"]).expect("run").body
    );
    handle.shutdown();
    handle.join();
    println!("daemon drained and joined cleanly");

    // The closing act: the same function through both backends.  The
    // 13-pass middle end is shared; only the emission tail differs —
    // S-1 registers and TNs on one side, a flat bytecode frame on the
    // other — and the two engines must agree on every value.
    println!("\n=== two backends, one middle end: exptl for S-1 and bytecode ===\n");
    let exptl = "(defun exptl (base exp acc)
                   (if (zerop exp) acc
                       (exptl base (- exp 1) (* acc base))))";
    let mut s1_c = Compiler::new();
    s1_c.compile_str(exptl).expect("compile for S-1");
    let mut bc_c = Compiler::new();
    bc_c.backend = s1lisp::BackendKind::Bytecode;
    bc_c.compile_str(exptl).expect("compile for bytecode");

    println!("--- S-1 backend (registers, TNs, tensioned branches) ---");
    print!("{}", s1_c.disassemble("exptl").expect("s1 listing"));
    println!("\n--- bytecode backend (fixed-width ops, constant pool) ---");
    print!("{}", bc_c.disassemble("exptl").expect("bytecode listing"));

    let s1_a = s1_c.artifact("exptl").expect("s1 artifact");
    let bc_a = bc_c.artifact("exptl").expect("bytecode artifact");
    println!(
        "\ndossier diff: backend {} vs {}, {} vs {} insns; salted option \
         fingerprints {:016x} vs {:016x} (the cache partition key)",
        s1_a.backend,
        bc_a.backend,
        s1_a.insns,
        bc_a.insns,
        s1_c.options_fingerprint(),
        bc_c.options_fingerprint(),
    );
    let args = [Value::Fixnum(2), Value::Fixnum(10), Value::Fixnum(1)];
    let on_s1 = s1_c.machine().run("exptl", &args).expect("s1 run");
    let on_bc = bc_c.evaluator().run("exptl", &args).expect("bytecode run");
    assert_eq!(on_s1, on_bc, "the cross-backend oracle's contract");
    println!("(exptl 2 10 1) => {on_s1} on the simulator, {on_bc} on the evaluator — agreed");
}
