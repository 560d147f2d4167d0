//! Transport-level integration: TCP pipelining, the stdio child
//! process, tenant authentication, backpressure retries, and the
//! signal-driven graceful drain.

use s1lisp_server::{
    Body, CompileServer, Op, QueueConfig, RetryPolicy, ServeClient, ServerConfig, ServerHandle,
};

fn start(config: ServerConfig) -> ServerHandle {
    CompileServer::new(config)
        .serve_tcp(0)
        .expect("bind an ephemeral port")
}

fn connect(handle: &ServerHandle) -> ServeClient {
    ServeClient::connect(&format!("127.0.0.1:{}", handle.port())).expect("connect")
}

#[test]
fn tcp_pipelines_and_matches_out_of_order_responses() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);
    assert!(client.hello("alice", None).unwrap().ok);
    // Pipeline three requests, then collect them newest-first: the
    // client must match by id, not arrival order.
    let c1 = client
        .send(Op::Compile {
            unit: "u1".into(),
            source: "(defun inc (x) (+ x 1))".into(),
        })
        .unwrap();
    let c2 = client
        .send(Op::Run {
            entry: "inc".into(),
            args: vec!["41".into()],
        })
        .unwrap();
    let c3 = client.send(Op::Ping).unwrap();
    let ping = client.recv_id(c3).unwrap();
    let run = client.recv_id(c2).unwrap();
    let compile = client.recv_id(c1).unwrap();
    assert!(ping.ok && run.ok && compile.ok);
    assert_eq!(run.body, Body::Run { value: "42".into() });
    let Body::Compile { artifacts, .. } = &compile.body else {
        panic!("compile body expected, got {compile:?}");
    };
    assert_eq!(artifacts.len(), 1);
    assert_eq!(artifacts[0].name, "inc");
    // Every response carries the SLO surface.
    for resp in [&ping, &run, &compile] {
        assert!(!resp.slo.degraded);
        assert!(resp.slo.incident_kind.is_none());
    }
    handle.shutdown();
    handle.join();
}

/// Request/response round trips on one connection cost their work, not
/// a delayed-ack timer: a frame leaves in one write and neither side
/// waits on Nagle's algorithm, so 50 sequential pings finish in well
/// under a second (about four seconds when each frame was two writes).
#[test]
fn sequential_pings_on_one_connection_are_not_held_back() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);
    assert!(client.hello("alice", None).unwrap().ok);
    let start = std::time::Instant::now();
    for _ in 0..50 {
        assert!(client.ping().unwrap().ok);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "50 pings took {elapsed:?}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn tcp_serves_two_connections_concurrently() {
    let handle = start(ServerConfig::default());
    let port = handle.port();
    let threads: Vec<_> = ["alice", "bob"]
        .into_iter()
        .map(|tenant| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&format!("127.0.0.1:{port}")).unwrap();
                assert!(client.hello(tenant, None).unwrap().ok);
                for i in 0..4 {
                    let resp = client
                        .compile(
                            &format!("{tenant}-{i}"),
                            &format!("(defun f{i} (x) (* x {i}))"),
                        )
                        .unwrap();
                    assert!(resp.ok, "{tenant} unit {i}: {:?}", resp.error);
                    assert_eq!(resp.tenant, tenant);
                }
                let resp = client.run("f3", &["5"]).unwrap();
                assert_eq!(resp.body, Body::Run { value: "15".into() });
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn allowlist_rejects_bad_tokens_and_unknown_tenants() {
    let handle = start(ServerConfig {
        tenants: Some(vec![("alice".into(), "s3cret".into())]),
        ..ServerConfig::default()
    });
    let mut client = connect(&handle);
    assert!(!client.hello("alice", None).unwrap().ok, "missing token");
    assert!(!client.hello("alice", Some("wrong")).unwrap().ok);
    assert!(!client.hello("mallory", Some("s3cret")).unwrap().ok);
    // Unauthenticated requests are refused at the connection.
    let refused = client.ping().unwrap();
    assert!(!refused.ok);
    assert_eq!(refused.error.as_deref(), Some("say hello first"));
    assert!(client.hello("alice", Some("s3cret")).unwrap().ok);
    assert!(client.ping().unwrap().ok);
    handle.shutdown();
    handle.join();
}

#[test]
fn backoff_retries_absorb_backpressure_without_starving_anyone() {
    // A deliberately tiny queue and one worker: four call-style
    // clients hammering it WILL be rejected with retry hints.  The
    // client's seeded backoff must absorb every rejection — no caller
    // sees a raw `queue full` — and fairness means every tenant
    // finishes its full burst.
    let handle = start(ServerConfig {
        workers: 1,
        queue: QueueConfig {
            total: 2,
            per_tenant: 2,
            ..QueueConfig::default()
        },
        retry_after_ms: 1,
        ..ServerConfig::default()
    });
    let port = handle.port();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&format!("127.0.0.1:{port}")).unwrap();
                client.set_retry_policy(Some(RetryPolicy {
                    budget: 64,
                    cap_ms: 20,
                    seed: 0xFA15 + t,
                }));
                assert!(client.hello(&format!("tenant{t}"), None).unwrap().ok);
                for i in 0..8 {
                    let resp = client
                        .compile(
                            &format!("t{t}u{i}"),
                            &format!("(defun t{t}f{i} (x) (* x {i}))"),
                        )
                        .unwrap();
                    assert!(resp.ok, "tenant{t} unit {i}: {:?}", resp.error);
                    assert_eq!(resp.retry_after_ms, 0, "a rejection leaked through");
                }
                client.retries()
            })
        })
        .collect();
    let total_retries: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
    assert!(
        total_retries > 0,
        "a 2-slot queue under 4 clients must reject at least once"
    );
    handle.shutdown();
    handle.join();
}

#[test]
#[cfg(unix)]
fn sigterm_drains_the_daemon_to_a_clean_exit() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--port", "0"])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let announce = lines
        .next()
        .expect("an announce line")
        .expect("readable stderr");
    let port: u16 = announce
        .rsplit(':')
        .next()
        .and_then(|p| p.trim().parse().ok())
        .unwrap_or_else(|| panic!("unparseable announce: {announce}"));
    // Prove it serves, then deliver SIGTERM mid-life.
    let mut client = ServeClient::connect(&format!("127.0.0.1:{port}")).unwrap();
    assert!(client.hello("ci", None).unwrap().ok);
    assert!(client.compile("u0", "(defun f (x) x)").unwrap().ok);
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill -TERM");
    assert!(status.success());
    let exit = child.wait().expect("wait");
    assert!(exit.success(), "SIGTERM must drain to exit 0, got {exit:?}");
}

#[test]
fn stdio_child_round_trips_and_exits_cleanly() {
    let mut client =
        ServeClient::spawn_stdio(env!("CARGO_BIN_EXE_serve"), &[]).expect("spawn serve --stdio");
    assert!(client.hello("ci", None).unwrap().ok);
    let compile = client.compile("smoke", "(defun dbl (x) (+ x x))").unwrap();
    assert!(compile.ok);
    let run = client.run("dbl", &["21"]).unwrap();
    assert_eq!(run.body, Body::Run { value: "42".into() });
    let explain = client.explain("dbl").unwrap();
    let Body::Explain { dossier } = &explain.body else {
        panic!("explain body expected");
    };
    assert!(dossier.contains("dbl"));
    assert!(client.shutdown().unwrap().ok);
    assert!(client.wait_exit().unwrap(), "server exited nonzero");
}
