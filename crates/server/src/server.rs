//! The daemon: transports, connection handling, the worker pool, and
//! request processing with per-request SLOs.
//!
//! # Threading model
//!
//! * One **acceptor** thread (TCP mode) owns the listener and spawns a
//!   thread per connection.
//! * **Connection** threads parse frames, answer `hello`/`shutdown`
//!   and backpressure rejections inline, and enqueue everything else.
//! * [`ServerConfig::workers`] **worker** threads drain the admission
//!   queue, serve requests through the shared
//!   [`CompileService`], and write responses straight to the owning
//!   connection (a mutex-guarded writer — responses may interleave
//!   across a connection's pipelined requests, matched by id).
//!
//! A worker panic is contained per request (`catch_unwind`): the client
//! gets an `ok = false` response with `incident_kind = "panic"` and the
//! worker returns to the queue — the fault-storm test hammers this.
//!
//! # SLO accounting
//!
//! `queue_wait_us` is enqueue → claim; `wall_us` is claim → response
//! built.  `degraded` is true when the tenant is demoted *or* any
//! artifact in the response came from a degraded recompile, so a client
//! can always tell whether it got full-strength optimization.
//! Incidents (compile faults, injected simulator traps) accrue against
//! the tenant's [`ServerConfig::incident_budget`]; once exhausted the
//! tenant compiles with transformations off until the server restarts.

use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use s1lisp::{FaultSite, Value};
use s1lisp_driver::{CompileService, IncidentKind, ServiceConfig};
use s1lisp_reader::{read_str, Interner};
use s1lisp_trace::json;
use s1lisp_trace::metrics::{MetricsRegistry, TIME_BUCKETS_US};

use crate::journal::{scan_journal, TenantJournal};
use crate::proto::{read_frame, write_frame, Body, Op, Request, Response, Slo, WireIncident};
use crate::queue::{AdmissionQueue, QueueConfig};
use crate::tenant::{tenant_fingerprint, TenantRegistry, TenantState};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// The compilation service every request serves through.  Its
    /// `fault_plan` also arms the server's `run`-time injection site.
    pub service: ServiceConfig,
    /// Admission-queue bounds and fairness quantum.
    pub queue: QueueConfig,
    /// The hint sent with a backpressure rejection.
    pub retry_after_ms: u64,
    /// Incidents a tenant may accrue before it is demoted to
    /// transformations-off compilation.
    pub incident_budget: u64,
    /// Instruction budget per `run` request, so a runaway program traps
    /// instead of pinning a worker.
    pub run_fuel: u64,
    /// Tenant allowlist as `(name, token)`; `None` is open enrollment
    /// (any tenant name, no token check).
    pub tenants: Option<Vec<(String, String)>>,
    /// Root of the durable state tree (`<state_dir>/<tenant_fp>/…`).
    /// `None` runs the server memory-only: no journals, no recovery,
    /// every response `durable: false`.
    pub state_dir: Option<PathBuf>,
    /// Journaled mutations between automatic snapshots (an explicit
    /// `sync` request snapshots immediately).  Clamped to at least 1.
    pub snapshot_every: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            service: ServiceConfig::default(),
            queue: QueueConfig::default(),
            retry_after_ms: 25,
            incident_budget: 8,
            run_fuel: 100_000_000,
            tenants: None,
            state_dir: None,
            snapshot_every: 8,
        }
    }
}

/// A writer shared between the connection thread (inline responses)
/// and whichever worker serves the connection's queued requests.
type Reply = Arc<Mutex<Box<dyn Write + Send>>>;

/// One queued request with everything a worker needs to serve it.
struct Work {
    req: Request,
    tenant: Arc<Mutex<TenantState>>,
    reply: Reply,
    enqueued: Instant,
}

struct Shared {
    config: ServerConfig,
    service: CompileService,
    registry: TenantRegistry,
    queue: AdmissionQueue<Work>,
    metrics: Arc<MetricsRegistry>,
    shutdown: AtomicBool,
    /// The bound TCP port, for the shutdown self-connect that unblocks
    /// the acceptor; zero in stdio mode.
    port: AtomicU16,
}

/// The compile server, ready to serve one transport.
pub struct CompileServer {
    shared: Arc<Shared>,
}

impl CompileServer {
    /// Builds a server; serve it with [`CompileServer::serve_tcp`] or
    /// [`CompileServer::serve_stdio`].  With
    /// [`ServerConfig::state_dir`] set, every tenant found under it is
    /// recovered — snapshot loaded, journal tail replayed through the
    /// compiler, torn tails dropped, corrupted tenants quarantined —
    /// before this returns, so the server never serves a request
    /// against half-recovered state.
    pub fn new(config: ServerConfig) -> CompileServer {
        let service = CompileService::new(config.service.clone());
        let metrics = Arc::clone(service.metrics());
        let queue = AdmissionQueue::new(config.queue);
        let registry = TenantRegistry::new();
        if let Some(state_dir) = &config.state_dir {
            recover_tenants(state_dir, &config, &service, &registry, &metrics);
        }
        CompileServer {
            shared: Arc::new(Shared {
                config,
                service,
                registry,
                queue,
                metrics,
                shutdown: AtomicBool::new(false),
                port: AtomicU16::new(0),
            }),
        }
    }

    /// The state for a tenant, or `None` if it is unknown — recovery
    /// drills inspect recovered namespaces through this without (or
    /// before) serving a transport.
    pub fn tenant(&self, name: &str) -> Option<Arc<Mutex<TenantState>>> {
        self.shared.registry.get(name)
    }

    /// Known (including just-recovered) tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        self.shared.registry.names()
    }

    /// A point-in-time metrics snapshot (the `server.recovery.*`
    /// counters land here during [`CompileServer::new`]).
    pub fn metrics_snapshot(&self) -> s1lisp_trace::metrics::MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Binds `127.0.0.1:port` (`0` for an ephemeral port), starts the
    /// worker pool and the acceptor, and returns a handle.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn serve_tcp(self, port: u16) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let port = listener.local_addr()?.port();
        self.shared.port.store(port, Ordering::SeqCst);
        let mut threads = spawn_workers(&self.shared);
        let shared = Arc::clone(&self.shared);
        threads.push(
            thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || {
                    for conn in listener.incoming() {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = conn else { continue };
                        let shared = Arc::clone(&shared);
                        // Connection threads are detached: they exit on
                        // client EOF, and at process level on shutdown.
                        let _ = thread::Builder::new()
                            .name("serve-conn".into())
                            .spawn(move || {
                                let _ = handle_conn(&shared, stream);
                            });
                    }
                })
                .expect("spawn acceptor"),
        );
        Ok(ServerHandle {
            port,
            shared: self.shared,
            threads,
        })
    }

    /// Serves frames on stdin/stdout on the calling thread until EOF or
    /// a `shutdown` request, then drains the queue and joins the
    /// workers.  This is the hermetic transport tests and CI use: no
    /// ports, one process, deterministic teardown.
    ///
    /// # Errors
    ///
    /// Propagates transport I/O failures (EOF is a clean return).
    pub fn serve_stdio(self) -> io::Result<()> {
        let workers = spawn_workers(&self.shared);
        let stdout: Reply = Arc::new(Mutex::new(Box::new(io::stdout())));
        let result = serve_frames(&self.shared, &mut io::stdin().lock(), &stdout);
        self.shared.queue.close();
        for t in workers {
            let _ = t.join();
        }
        result
    }
}

/// A running TCP server.
pub struct ServerHandle {
    port: u16,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

/// A cloneable handle that can stop a running server from any thread.
/// The `serve` binary's signal monitor holds one so SIGTERM/SIGINT
/// route through the same graceful drain as a `shutdown` request.
#[derive(Clone)]
pub struct Stopper {
    shared: Arc<Shared>,
}

impl Stopper {
    /// Stops admissions, unblocks the acceptor, and lets workers drain.
    pub fn stop(&self) {
        initiate_shutdown(&self.shared);
    }
}

impl ServerHandle {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// A detached stop handle (see [`Stopper`]).
    pub fn stopper(&self) -> Stopper {
        Stopper {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The state for a tenant of the running server, or `None` if it
    /// is unknown.
    pub fn tenant(&self, name: &str) -> Option<Arc<Mutex<TenantState>>> {
        self.shared.registry.get(name)
    }

    /// Initiates shutdown without a client: stops admissions, unblocks
    /// the acceptor, and lets workers drain.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Renders the server's metrics registry (service and server
    /// families together).
    pub fn render_metrics(&self) -> String {
        self.metrics_snapshot().render()
    }

    /// A point-in-time snapshot of the shared registry — the isolation
    /// tests read the cache counters off this to prove tenants never
    /// warm-hit each other's artifacts.
    pub fn metrics_snapshot(&self) -> s1lisp_trace::metrics::MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Waits for the acceptor and workers to exit and returns the final
    /// rendered metrics.  Call [`ServerHandle::shutdown`] first (or
    /// have a client send `shutdown`) or this blocks forever.
    pub fn join(self) -> String {
        for t in self.threads {
            let _ = t.join();
        }
        self.shared.metrics.snapshot().render()
    }
}

fn initiate_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    shared.queue.close();
    let port = shared.port.load(Ordering::SeqCst);
    if port != 0 {
        // Unblock the acceptor's accept(2); it re-checks the flag.
        let _ = TcpStream::connect(("127.0.0.1", port));
    }
}

fn spawn_workers(shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    (0..shared.config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(shared);
            thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect()
}

fn handle_conn(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let reply: Reply = Arc::new(Mutex::new(Box::new(stream.try_clone()?)));
    serve_frames(shared, &mut BufReader::new(stream), &reply)
}

fn send(reply: &Reply, resp: &Response) {
    let payload = resp.to_json().to_string();
    let mut w = reply.lock().expect("reply writer poisoned");
    let _ = write_frame(&mut *w, payload.as_bytes());
}

/// A minimal response for inline paths (hello, rejections, protocol
/// errors): no queue wait, no wall time, no body.
fn inline_response(id: u64, op: &str, tenant: &str, result: Result<(), String>) -> Response {
    Response {
        id,
        op: op.to_string(),
        tenant: tenant.to_string(),
        ok: result.is_ok(),
        error: result.err(),
        retry_after_ms: 0,
        durable: false,
        slo: Slo::default(),
        body: Body::None,
    }
}

/// The per-connection frame loop, shared by both transports.
fn serve_frames(shared: &Arc<Shared>, r: &mut impl Read, reply: &Reply) -> io::Result<()> {
    let mut session: Option<(String, Arc<Mutex<TenantState>>)> = None;
    while let Some(frame) = read_frame(r)? {
        let req = String::from_utf8(frame)
            .map_err(|e| e.to_string())
            .and_then(|text| json::parse(&text))
            .and_then(|j| Request::from_json(&j));
        let req = match req {
            Ok(req) => req,
            Err(e) => {
                send(reply, &inline_response(0, "error", "", Err(e)));
                continue;
            }
        };
        match &req.op {
            Op::Hello { tenant, token } => {
                let verdict = authenticate(&shared.config, tenant, token.as_deref());
                if verdict.is_ok() {
                    let state = shared.registry.get_or_create(tenant);
                    attach_journal(shared, &state);
                    session = Some((tenant.clone(), state));
                }
                send(reply, &inline_response(req.id, "hello", tenant, verdict));
            }
            Op::Shutdown => {
                let tenant = session.as_ref().map(|(n, _)| n.as_str()).unwrap_or("");
                send(reply, &inline_response(req.id, "shutdown", tenant, Ok(())));
                initiate_shutdown(shared);
                break;
            }
            _ => {
                let Some((name, state)) = &session else {
                    send(
                        reply,
                        &inline_response(
                            req.id,
                            req.op.as_str(),
                            "",
                            Err("say hello first".to_string()),
                        ),
                    );
                    continue;
                };
                state.lock().expect("tenant poisoned").requests += 1;
                let (id, op_label) = (req.id, req.op.as_str());
                let cost = request_cost(&req.op);
                let work = Work {
                    req,
                    tenant: Arc::clone(state),
                    reply: Arc::clone(reply),
                    enqueued: Instant::now(),
                };
                if shared.queue.submit(name, cost, work).is_err() {
                    shared.metrics.counter("server.rejected").inc();
                    let mut rejection =
                        inline_response(id, op_label, name, Err("queue full".to_string()));
                    rejection.retry_after_ms = shared.config.retry_after_ms.max(1);
                    send(reply, &rejection);
                }
                shared
                    .metrics
                    .gauge("server.queue_depth")
                    .set(shared.queue.depth() as i64);
            }
        }
    }
    Ok(())
}

/// Fairness cost: compiles scale with source size so one tenant's big
/// units cannot starve another's small ones; everything else costs 1.
fn request_cost(op: &Op) -> u64 {
    match op {
        Op::Compile { source, .. } => 1 + source.len() as u64 / 512,
        _ => 1,
    }
}

fn authenticate(config: &ServerConfig, tenant: &str, token: Option<&str>) -> Result<(), String> {
    if tenant.is_empty() {
        return Err("tenant name must be nonempty".to_string());
    }
    match &config.tenants {
        None => Ok(()),
        Some(allow) => {
            let known = allow.iter().find(|(name, _)| name == tenant);
            match known {
                Some((_, expected)) if token == Some(expected.as_str()) => Ok(()),
                _ => Err(format!("authentication failed for tenant {tenant}")),
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some((tenant_name, work)) = shared.queue.next() {
        let queue_wait_us = elapsed_us(work.enqueued);
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| process(shared, &work)));
        let mut resp = outcome.unwrap_or_else(|payload| {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic".to_string());
            charge_incident(shared, &work.tenant);
            Response {
                id: work.req.id,
                op: work.req.op.as_str().to_string(),
                tenant: tenant_name.clone(),
                ok: false,
                error: Some(format!("request panicked: {detail}")),
                retry_after_ms: 0,
                durable: false,
                slo: Slo {
                    incident_kind: Some("panic".to_string()),
                    ..Slo::default()
                },
                body: Body::None,
            }
        });
        resp.slo.queue_wait_us = queue_wait_us;
        resp.slo.wall_us = elapsed_us(start);
        send(&work.reply, &resp);
        shared.queue.done(&tenant_name);
        record_metrics(shared, &tenant_name, &resp);
    }
}

fn record_metrics(shared: &Shared, tenant: &str, resp: &Response) {
    let m = &shared.metrics;
    m.counter("server.requests").inc();
    m.counter(&format!("server.requests.{}", resp.op)).inc();
    if !resp.ok {
        m.counter("server.errors").inc();
    }
    if resp.slo.degraded {
        m.counter("server.degraded_responses").inc();
    }
    if resp.slo.incident_kind.is_some() {
        m.counter("server.incidents").inc();
    }
    m.histogram("server.queue_wait_us", TIME_BUCKETS_US)
        .observe(resp.slo.queue_wait_us);
    m.histogram("server.wall_us", TIME_BUCKETS_US)
        .observe(resp.slo.wall_us);
    m.scoped(&format!("server.tenant.{tenant}"))
        .counter("requests")
        .inc();
    m.gauge("server.queue_depth")
        .set(shared.queue.depth() as i64);
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Charges one incident to the tenant.  Returns whether it is (now)
/// demoted.
fn charge_incident(shared: &Shared, tenant: &Mutex<TenantState>) -> bool {
    let budget = shared.config.incident_budget;
    tenant.lock().expect("tenant poisoned").charge(1, budget)
}

/// Serves one queued request.  SLO timings are filled in by the caller.
fn process(shared: &Shared, work: &Work) -> Response {
    let mut resp = Response {
        id: work.req.id,
        op: work.req.op.as_str().to_string(),
        tenant: String::new(),
        ok: true,
        error: None,
        retry_after_ms: 0,
        durable: false,
        slo: Slo::default(),
        body: Body::None,
    };
    // A quarantined-at-recovery tenant surfaces the loss on its first
    // response after the restart.
    let pending_incident = work
        .tenant
        .lock()
        .expect("tenant poisoned")
        .pending_incident
        .take();
    match &work.req.op {
        Op::Ping => {
            let st = work.tenant.lock().expect("tenant poisoned");
            resp.tenant = st.name.clone();
            resp.slo.degraded = st.degraded;
        }
        Op::Sync => {
            let mut st = work.tenant.lock().expect("tenant poisoned");
            resp.tenant = st.name.clone();
            resp.slo.degraded = st.degraded;
            resp.durable = snapshot_tenant(&shared.metrics, &mut st);
        }
        Op::Compile { unit, source } => serve_compile(shared, work, unit, source, &mut resp),
        Op::Run { entry, args } => serve_run(shared, work, entry, args, &mut resp),
        Op::Explain { name } => {
            let st = work.tenant.lock().expect("tenant poisoned");
            resp.tenant = st.name.clone();
            resp.slo.degraded = st.degraded;
            match st.artifacts.get(name) {
                Some(a) => {
                    resp.body = Body::Explain {
                        dossier: a.dossier.clone(),
                    }
                }
                None => {
                    resp.ok = false;
                    resp.error = Some(format!("unknown function {name}"));
                }
            }
        }
        Op::Hello { .. } | Op::Shutdown => {
            resp.ok = false;
            resp.error = Some("connection-level op reached the queue".to_string());
        }
    }
    if resp.slo.incident_kind.is_none() {
        resp.slo.incident_kind = pending_incident;
    }
    resp
}

fn serve_compile(shared: &Shared, work: &Work, unit: &str, source: &str, resp: &mut Response) {
    // The mutation's journal record is fsynced in `commit`, before the
    // worker can frame the success response — the heart of the
    // durability contract.
    let batch = TenantState::compile_unit(
        &work.tenant,
        &shared.service,
        unit,
        source,
        shared.config.incident_budget,
        |st| resp.durable = journal_mutation(shared, st, unit, source),
    );
    let incidents: Vec<WireIncident> = batch
        .incidents
        .iter()
        .map(|i| WireIncident {
            function: i.function.clone(),
            kind: i.kind.as_str().to_string(),
            recovered: i.recovered,
        })
        .collect();
    let st = work.tenant.lock().expect("tenant poisoned");
    resp.tenant = st.name.clone();
    resp.slo.degraded = st.degraded || batch.artifacts.iter().any(|a| a.degraded);
    drop(st);
    resp.ok = batch.failures.is_empty();
    resp.error = batch
        .failures
        .first()
        .map(|(scope, e)| format!("{scope}: {e}"));
    resp.slo.incident_kind = incidents.first().map(|i| i.kind.clone());
    resp.body = Body::Compile {
        artifacts: batch.artifacts,
        incidents,
        failures: batch.failures,
    };
}

fn serve_run(shared: &Shared, work: &Work, entry: &str, args: &[String], resp: &mut Response) {
    {
        let st = work.tenant.lock().expect("tenant poisoned");
        resp.tenant = st.name.clone();
        resp.slo.degraded = st.degraded;
    }
    // The seeded fault plan's simulator-trap site fires here too, so a
    // fault storm exercises the run path; the trap is contained to this
    // request and accrues against the tenant's budget like any other
    // incident.
    if let Some(plan) = &shared.config.service.fault_plan {
        if plan.fires(FaultSite::SimTrap, entry) {
            resp.slo.degraded = charge_incident(shared, &work.tenant);
            resp.slo.incident_kind = Some("sim-trap".to_string());
            resp.body = Body::Run {
                value: "trap: injected simulator fault".to_string(),
            };
            return;
        }
    }
    let image = match TenantState::image(&work.tenant, &shared.config.service) {
        Ok(image) => image,
        Err(e) => {
            resp.ok = false;
            resp.error = Some(format!("tenant replay failed: {e}"));
            return;
        }
    };
    let mut interner = Interner::new();
    let mut values = Vec::new();
    for a in args {
        match read_str(a, &mut interner) {
            Ok(d) => values.push(Value::from_datum(&d)),
            Err(e) => {
                resp.ok = false;
                resp.error = Some(format!("argument {a}: {e}"));
                return;
            }
        }
    }
    resp.body = Body::Run {
        value: image.run_printed(entry, &values, shared.config.run_fuel),
    };
}

/// Gives a tenant its journal on first contact (recovered tenants
/// already carry one).  A fresh tenant immediately writes an initial
/// snapshot so its state directory is self-describing from birth.
fn attach_journal(shared: &Shared, tenant: &Arc<Mutex<TenantState>>) {
    let Some(state_dir) = &shared.config.state_dir else {
        return;
    };
    let mut st = tenant.lock().expect("tenant poisoned");
    if st.journal.is_some() {
        return;
    }
    let plan = shared.config.service.fault_plan.clone();
    match TenantJournal::open(state_dir, st.fingerprint, plan) {
        Ok(journal) => {
            let fresh = !journal.snapshot_path().exists();
            st.journal = Some(journal);
            if fresh {
                snapshot_tenant(&shared.metrics, &mut st);
            }
        }
        Err(_) => {
            shared.metrics.counter("server.journal.open_errors").inc();
        }
    }
}

/// Appends one acknowledged mutation to the tenant's journal — fsynced
/// before the caller can frame its success response — and takes a
/// periodic snapshot.  Returns whether the mutation reached stable
/// storage (`false` on memory-only servers and after an exhausted
/// append: the in-memory serve still succeeded, just non-durably).
fn journal_mutation(shared: &Shared, st: &mut TenantState, unit: &str, source: &str) -> bool {
    let name = st.name.clone();
    let appended = {
        let Some(journal) = st.journal.as_mut() else {
            return false;
        };
        if journal.disabled() {
            return false;
        }
        let start = Instant::now();
        match journal.append(&name, unit, source) {
            Ok((_seq, bytes)) => {
                let m = &shared.metrics;
                m.counter("server.journal.appends").inc();
                m.counter("server.journal.bytes").add(bytes as u64);
                m.histogram("server.journal.append_us", TIME_BUCKETS_US)
                    .observe(elapsed_us(start));
                true
            }
            Err(_) => {
                shared.metrics.counter("server.journal.io_errors").inc();
                false
            }
        }
    };
    let due = st
        .journal
        .as_ref()
        .is_some_and(|j| j.pending() >= shared.config.snapshot_every.max(1));
    if appended && due {
        snapshot_tenant(&shared.metrics, st);
    }
    appended
}

/// Writes the tenant's current state as a durable snapshot and
/// truncates the journal it absorbs.  Returns success (`false` without
/// a journal, with a struck-out one, or on a failed write).
fn snapshot_tenant(metrics: &MetricsRegistry, st: &mut TenantState) -> bool {
    let Some(journal) = st.journal.as_ref() else {
        return false;
    };
    if journal.disabled() {
        return false;
    }
    let body = st.snapshot_json(journal.next_seq() - 1).to_string();
    let journal = st.journal.as_mut().expect("present above");
    match journal.write_snapshot(&body) {
        Ok(()) => {
            metrics.counter("server.journal.snapshots").inc();
            true
        }
        Err(_) => {
            metrics.counter("server.journal.snapshot_errors").inc();
            false
        }
    }
}

/// Recovers every tenant directory under `state_dir`, in sorted order
/// so recovery work (and its metrics) replays deterministically.
fn recover_tenants(
    state_dir: &Path,
    config: &ServerConfig,
    service: &CompileService,
    registry: &TenantRegistry,
    metrics: &MetricsRegistry,
) {
    let _ = std::fs::create_dir_all(state_dir);
    let Ok(listing) = std::fs::read_dir(state_dir) else {
        return;
    };
    let mut dirs: Vec<PathBuf> = listing
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        recover_one(&dir, state_dir, config, service, registry, metrics);
    }
}

/// Recovers one tenant directory: snapshot load, journal-tail replay
/// through the same batch service a live `compile` uses (so recovered
/// artifacts are byte-identical), then a compacting snapshot.  Torn
/// tails are dropped and counted; mid-log corruption or an unreadable
/// snapshot quarantines the tenant.
fn recover_one(
    dir: &Path,
    state_dir: &Path,
    config: &ServerConfig,
    service: &CompileService,
    registry: &TenantRegistry,
    metrics: &MetricsRegistry,
) {
    let plan = config.service.fault_plan.clone();
    let snapshot = std::fs::read_to_string(dir.join("snapshot.json"))
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|j| TenantState::from_snapshot(&j));
    let journal_bytes = std::fs::read(dir.join("journal.log")).unwrap_or_default();
    let Some((st, applied_seq)) = snapshot else {
        // Unreadable or missing snapshot.  Journal records carry the
        // tenant name; with one we can quarantine to a fresh namespace,
        // without one the directory is inert and left untouched.
        let scan = scan_journal(&journal_bytes, 0, |_| false);
        match scan.records.first().map(|r| r.tenant.clone()) {
            Some(name) => quarantine_tenant(dir, &name, config, registry, metrics),
            None => {
                metrics.counter("server.recovery.skipped").inc();
            }
        }
        return;
    };
    let fp = st.fingerprint;
    let scan = scan_journal(&journal_bytes, applied_seq, |idx| {
        plan.as_ref()
            .is_some_and(|p| p.fires(FaultSite::JournalCorrupt, &format!("{fp:016x}:{idx}")))
    });
    if scan.corrupt {
        metrics.counter("server.recovery.corrupt_journals").inc();
        quarantine_tenant(dir, &st.name, config, registry, metrics);
        return;
    }
    if scan.torn_tail {
        metrics.counter("server.recovery.torn_tails").inc();
    }
    metrics
        .counter("server.recovery.stale_records")
        .add(scan.stale);
    // Replay the tail exactly as serve_compile would have (the journal
    // is attached afterwards, so nothing is re-journaled).
    let tenant = Mutex::new(st);
    let mut last_seq = applied_seq;
    for rec in &scan.records {
        last_seq = rec.seq;
        let batch = TenantState::compile_unit(
            &tenant,
            service,
            &rec.unit,
            &rec.source,
            config.incident_budget,
            |_| {},
        );
        if batch.failures.is_empty() {
            metrics.counter("server.recovery.replayed_records").inc();
        } else {
            // The record was acknowledged, so this should not happen
            // outside a fault storm; count it and keep the rest.
            metrics.counter("server.recovery.replay_failures").inc();
        }
    }
    let mut st = tenant.into_inner().expect("tenant poisoned");
    // Re-attach the journal and compact what was just replayed into a
    // fresh snapshot, so the next crash recovers from here.
    match TenantJournal::open(state_dir, fp, plan) {
        Ok(mut journal) => {
            journal.set_next_seq(last_seq + 1);
            st.journal = Some(journal);
            snapshot_tenant(metrics, &mut st);
        }
        Err(_) => {
            metrics.counter("server.journal.open_errors").inc();
        }
    }
    metrics.counter("server.recovery.tenants").inc();
    registry.install(st);
}

/// Quarantines a tenant whose durable state cannot be trusted: the
/// evidence files are renamed aside (never deleted), the tenant
/// restarts as a fresh namespace with one `recovery` incident on its
/// ledger, and its next response carries `incident_kind = "recovery"`.
fn quarantine_tenant(
    dir: &Path,
    name: &str,
    config: &ServerConfig,
    registry: &TenantRegistry,
    metrics: &MetricsRegistry,
) {
    for file in ["journal.log", "snapshot.json"] {
        let src = dir.join(file);
        if !src.exists() {
            continue;
        }
        for n in 0u32.. {
            let dst = dir.join(format!("{file}.quarantined-{n}"));
            if !dst.exists() {
                let _ = std::fs::rename(&src, &dst);
                break;
            }
        }
    }
    let mut st = TenantState {
        name: name.to_string(),
        fingerprint: tenant_fingerprint(name),
        incidents: 1,
        pending_incident: Some(IncidentKind::Recovery.as_str().to_string()),
        ..TenantState::default()
    };
    if let Some(state_dir) = dir.parent() {
        let plan = config.service.fault_plan.clone();
        if let Ok(journal) = TenantJournal::open(state_dir, st.fingerprint, plan) {
            st.journal = Some(journal);
            snapshot_tenant(metrics, &mut st);
        }
    }
    metrics.counter("server.recovery.quarantined").inc();
    metrics.counter("server.recovery.tenants").inc();
    registry.install(st);
}
