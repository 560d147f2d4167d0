//! `serve-run` and `serve-mixed`: an in-process `CompileServer` (default
//! settings plus a state directory) over TCP, driven by two closed-loop
//! clients on one connection and one tenant each.
//!
//! * `serve-run` sends only `run` requests, each an (entry, arguments)
//!   pair drawn from cheap calls into the paper corpus every tenant
//!   compiled during set-up.  It exercises framing, admission, the
//!   per-run world rebuild and a short engine run; it writes nothing,
//!   so it bypasses the journal and the cache.
//! * `serve-mixed` runs repeated sessions on the same connections: a
//!   `hello` to a fresh tenant, compiles of three corpus units, then 32
//!   requests, one in four a `compile` that redefines `poly` as one of
//!   eight variants (so tenant-salted cache hits and misses both occur)
//!   and the rest `run`s.  It adds the journal's fsync-before-ack and
//!   the cache tiers.  Bounding a session keeps every tenant's replay
//!   log the same length whatever the server's speed.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use s1lisp::Compiler;
use s1lisp_server::{Body, CompileServer, Response, ServeClient, ServerConfig, ServerHandle};
use s1lisp_trace::metrics::MetricsSnapshot;

use crate::inputs::{self, Call, Draws, Program, SessionRequest};
use crate::measure::{end_to_end, exact_counts, timed_setup, Config, Metrics, Ops, Outcome};
use crate::spans::Spans;
use crate::stats::{median, percentile, transport_us};

/// Which request mix the clients send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// `serve-run`.
    Run,
    /// `serve-mixed`.
    Mixed,
}

/// Client threads, each with one connection: one per core of the
/// reference machine.
const CLIENTS: usize = 2;

/// Repetitions of the in-process world-rebuild probe.
const REBUILDS: usize = 16;

/// Where servers keep their state: under the benchmark's build
/// directory, inside the checkout it runs from.
fn state_root() -> PathBuf {
    PathBuf::from(".bench_build").join("bench-state")
}

/// A running server and its connected, set-up clients.  Dropping it
/// closes the connections, drains and joins the server, and removes its
/// state directory.
struct Fixture {
    handle: Option<ServerHandle>,
    clients: Vec<ServeClient>,
    state_dir: PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(h) = self.handle.take() {
            h.shutdown();
            h.join();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

/// A response that is not a success, as a failure description.
fn refused(what: &str, resp: &Response) -> Option<String> {
    if resp.retry_after_ms > 0 {
        Some(format!(
            "{what}: refused, retry after {} ms",
            resp.retry_after_ms
        ))
    } else if !resp.ok {
        Some(format!(
            "{what}: {}",
            resp.error.as_deref().unwrap_or("failed")
        ))
    } else {
        None
    }
}

/// Checks a served compile: clean, undegraded, and producing code.
fn check_compile(unit: &str, resp: &Response) -> Result<(), String> {
    if let Some(e) = refused(unit, resp) {
        return Err(e);
    }
    match &resp.body {
        Body::Compile {
            artifacts,
            incidents,
            failures,
        } if !artifacts.is_empty()
            && incidents.is_empty()
            && failures.is_empty()
            && !resp.slo.degraded =>
        {
            Ok(())
        }
        _ => Err(format!(
            "{unit}: compile served degraded or without artifacts"
        )),
    }
}

/// Checks a served run against the call's reference.
fn check_run(call: &Call, resp: &Response) -> Result<(), String> {
    if let Some(e) = refused(&call.entry, resp) {
        return Err(e);
    }
    match &resp.body {
        Body::Run { value } if inputs::agrees(value, &call.expected) => Ok(()),
        Body::Run { value } => Err(format!(
            "{} returned {value}, expected {}",
            call.entry, call.expected
        )),
        _ => Err(format!("{}: run response without a value", call.entry)),
    }
}

/// Starts a server and sets up both clients: each says `hello` to its
/// own tenant and compiles the whole corpus into it.
fn start(corpus: &[Program], n: usize) -> Result<Fixture, String> {
    let state_dir = state_root().join(format!("serve-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let handle = CompileServer::new(ServerConfig {
        state_dir: Some(state_dir.clone()),
        ..ServerConfig::default()
    })
    .serve_tcp(0)
    .map_err(|e| format!("bind: {e}"))?;
    let addr = format!("127.0.0.1:{}", handle.port());
    let mut fixture = Fixture {
        handle: Some(handle),
        clients: Vec::new(),
        state_dir,
    };
    let clients: Result<Vec<ServeClient>, String> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = &addr;
                s.spawn(move || {
                    let mut client =
                        ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let hello = client
                        .hello(&format!("t{c}"), None)
                        .map_err(|e| format!("hello: {e}"))?;
                    if let Some(e) = refused("hello", &hello) {
                        return Err(e);
                    }
                    for p in corpus {
                        let resp = client
                            .compile(&p.name, &p.source)
                            .map_err(|e| format!("{}: {e}", p.name))?;
                        check_compile(&p.name, &resp)?;
                    }
                    Ok(client)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a set-up client panicked"))
            .collect()
    });
    fixture.clients = clients?;
    Ok(fixture)
}

/// One client's measurements.
struct Client {
    lane: u64,
    traced: bool,
    sent: u64,
    ops: Ops,
    spans: Spans,
    transport_us: Vec<f64>,
    queue_us: Vec<f64>,
    work_us: BTreeMap<&'static str, Vec<f64>>,
}

impl Client {
    /// Sends one request of `kind` (`"run"` or `"compile"`), records its
    /// round trip and the server's split of it, and returns the response
    /// (`None` after a transport failure, which is counted).
    fn request(
        &mut self,
        kind: &'static str,
        client: &mut ServeClient,
        send: impl FnOnce(&mut ServeClient) -> io::Result<Response>,
    ) -> Option<Response> {
        let traced = self.traced && self.sent.is_multiple_of(2);
        self.sent += 1;
        let t = Instant::now();
        let resp = match send(client) {
            Ok(resp) => resp,
            Err(e) => {
                self.ops.check(Err(format!("{kind}: {e}")));
                return None;
            }
        };
        let rtt = t.elapsed().as_secs_f64() * 1e6;
        self.ops.record(kind, rtt, traced);
        let (queue, work) = (resp.slo.queue_wait_us, resp.slo.wall_us);
        let transport = transport_us(rtt, queue, work);
        self.transport_us.push(transport);
        self.queue_us.push(queue as f64);
        self.work_us.entry(kind).or_default().push(work as f64);
        if traced {
            // The server reports how long the request queued and worked,
            // not when: place both after the sending half of transport.
            let at = self.spans.offset_us(t) + transport / 2.0;
            let parent = self
                .spans
                .timed(&format!("client.{kind}"), t, None, resp.id, self.lane);
            self.spans
                .record("server.queue", at, queue as f64, parent, resp.id, self.lane);
            let work_name = format!("server.{kind}_work");
            self.spans.record(
                work_name,
                at + queue as f64,
                work as f64,
                parent,
                resp.id,
                self.lane,
            );
        }
        Some(resp)
    }

    fn run(&mut self, client: &mut ServeClient, call: &Call) {
        let args: Vec<&str> = call.args.iter().map(String::as_str).collect();
        if let Some(resp) = self.request("run", client, |c| c.run(&call.entry, &args)) {
            if let Err(e) = check_run(call, &resp) {
                self.ops.fail(e);
            }
        }
    }

    fn compile(&mut self, client: &mut ServeClient, p: &Program) {
        if let Some(resp) = self.request("compile", client, |c| c.compile(&p.name, &p.source)) {
            if let Err(e) = check_compile(&p.name, &resp) {
                self.ops.fail(e);
            }
        }
    }
}

/// The calls a served `run` can make: every corpus call that needs no
/// global value (a request cannot set one).
fn servable(corpus: &[Program]) -> Vec<&Call> {
    corpus
        .iter()
        .filter(|p| p.globals.is_empty())
        .flat_map(|p| &p.calls)
        .collect()
}

/// One client's closed loop until the deadline.
fn client_loop(
    mix: Mix,
    c: usize,
    client: &mut ServeClient,
    cfg: &Config,
    deadline: Instant,
    origin: Instant,
    (corpus, variants): (&[Program], &[Program]),
) -> Client {
    let mut me = Client {
        lane: c as u64,
        traced: cfg.traced,
        sent: 0,
        ops: Ops::default(),
        spans: Spans::new(origin),
        transport_us: Vec::new(),
        queue_us: Vec::new(),
        work_us: BTreeMap::new(),
    };
    let mut draws = Draws::new(cfg.seed, c as u64);
    let calls = servable(corpus);
    let live = || Instant::now() < deadline;
    match mix {
        Mix::Run => {
            while live() {
                let call = calls[draws.below(calls.len())];
                me.run(client, call);
            }
        }
        Mix::Mixed => {
            let mut session = 0;
            'sessions: while live() {
                let tenant = format!("s{c}-{session}");
                session += 1;
                let hello = client
                    .hello(&tenant, None)
                    .map_err(|e| format!("hello: {e}"));
                me.ops
                    .check(hello.and_then(|r| refused("hello", &r).map_or(Ok(()), Err)));
                let (units, requests) = inputs::session(&mut draws, corpus, variants.len());
                for u in units {
                    if !live() {
                        break 'sessions;
                    }
                    me.compile(client, &corpus[u]);
                }
                let mut defined = None;
                for r in requests {
                    if !live() {
                        break 'sessions;
                    }
                    match r {
                        SessionRequest::Run { unit, call } => {
                            me.run(client, &corpus[unit].calls[call])
                        }
                        SessionRequest::Redefine { variant } => {
                            me.compile(client, &variants[variant]);
                            defined = Some(variant);
                        }
                        SessionRequest::RunVariant => {
                            let v = defined.expect("sessions run poly only once it is defined");
                            me.run(client, &variants[v].calls[0]);
                        }
                    }
                }
            }
        }
    }
    me
}

/// The server's counters that change during the measured phase.
fn counter(s: &MetricsSnapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

/// Mean of a histogram's observations between two snapshots.
fn histogram_mean_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let (c0, s0) = before.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let (c1, s1) = after.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    if c1 > c0 {
        (s1 - s0) as f64 / (c1 - c0) as f64
    } else {
        0.0
    }
}

/// The per-`run` world rebuild the server does, repeated in-process:
/// medians of compiling one tenant's namespace (the whole corpus) and of
/// building a machine from it, in microseconds.
fn rebuild_probe(corpus: &[Program]) -> Result<(f64, f64), String> {
    let (mut compile_us, mut machine_us) = (Vec::new(), Vec::new());
    for _ in 0..REBUILDS {
        let t = Instant::now();
        let mut c = Compiler::new();
        for p in corpus {
            c.compile_str(&p.source)
                .map_err(|e| format!("{}: {e}", p.name))?;
        }
        compile_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let m = c.machine();
        machine_us.push(t.elapsed().as_secs_f64() * 1e6);
        drop(std::hint::black_box(m));
    }
    Ok((median(&compile_us), median(&machine_us)))
}

/// Runs one of the serve workloads.
pub fn run(mix: Mix, cfg: &Config) -> Result<Outcome, String> {
    let corpus = inputs::corpus()?;
    let variants = if mix == Mix::Mixed {
        inputs::variants()?
    } else {
        Vec::new()
    };
    let mut n = 0;
    let (mut fixture, setup_s) = timed_setup(cfg.setups, false, || {
        n += 1;
        start(&corpus, n)
    })?;

    let handle = fixture.handle.as_ref().expect("a started server");
    let before = handle.metrics_snapshot();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(cfg.seconds);
    let clients: Vec<Client> = std::thread::scope(|s| {
        let threads: Vec<_> = fixture
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let sets = (corpus.as_slice(), variants.as_slice());
                s.spawn(move || client_loop(mix, c, client, cfg, deadline, origin, sets))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a client thread panicked"))
            .collect()
    });
    let window_s = origin.elapsed().as_secs_f64();
    let after = fixture
        .handle
        .as_ref()
        .expect("a started server")
        .metrics_snapshot();
    drop(fixture);

    let mut ops = Ops::default();
    let mut spans = Spans::new(origin);
    let (mut transport, mut queue) = (Vec::new(), Vec::new());
    let mut work: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for c in clients {
        ops.merge(c.ops);
        spans.merge(c.spans);
        transport.extend(c.transport_us);
        queue.extend(c.queue_us);
        for (kind, mut us) in c.work_us {
            work.entry(kind).or_default().append(&mut us);
        }
    }
    let programs: Vec<Program> = corpus.iter().chain(&variants).cloned().collect();
    let exact = exact_counts(&programs, &mut ops)?;
    let (namespace_us, machine_us) = rebuild_probe(&corpus)?;

    let mut m = Metrics::new();
    // Raw times: a served request's time is mostly socket waits, which do
    // not scale with the machine's compute speed.
    end_to_end(&mut m, setup_s, &ops, window_s, exact)?;
    let empty = Vec::new();
    for (name, sample) in [
        ("server.transport_us", &transport),
        ("server.queue_wait_us", &queue),
        ("server.run_work_us", work.get("run").unwrap_or(&empty)),
        (
            "server.compile_work_us",
            work.get("compile").unwrap_or(&empty),
        ),
    ] {
        m.insert(format!("{name}_p50"), percentile(sample, 50));
        m.insert(format!("{name}_p90"), percentile(sample, 90));
    }
    for kind in ["run", "compile"] {
        m.insert(
            format!("client.{kind}_us_p50"),
            percentile(ops.latencies(kind), 50),
        );
        m.insert(
            format!("client.{kind}_us_p90"),
            percentile(ops.latencies(kind), 90),
        );
    }
    let delta = |name: &str| (counter(&after, name) - counter(&before, name)) as f64;
    m.insert(
        "server.journal.appends".into(),
        delta("server.journal.appends"),
    );
    m.insert(
        "server.journal.append_us_mean".into(),
        histogram_mean_delta(&before, &after, "server.journal.append_us"),
    );
    m.insert("server.rejected".into(), delta("server.rejected"));
    let (hits, misses) = (delta("cache.hits"), delta("cache.misses"));
    let probes = hits + misses;
    m.insert(
        "driver.cache_hit_permille".into(),
        if probes > 0.0 {
            1000.0 * hits / probes
        } else {
            0.0
        },
    );
    m.insert("core.namespace_compile_us".into(), namespace_us);
    m.insert("s1sim.machine_new_us".into(), machine_us);
    Ok(ops.outcome(m, spans))
}
