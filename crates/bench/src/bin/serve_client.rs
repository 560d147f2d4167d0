//! A command-line client for the compile-server daemon, and the CI
//! smoke behind `--selftest`.
//!
//! ```sh
//! # CI smoke: concurrent tenants against an in-process daemon must be
//! # byte-identical to a plain service batch, and a unit the frontend
//! # rejects must be refused without breaking runs; with --serve-bin,
//! # also drive a spawned `serve --stdio` child and check clean shutdown.
//! cargo run -p s1lisp-bench --bin serve_client -- --selftest
//! cargo run -p s1lisp-bench --bin serve_client -- --selftest \
//!     --serve-bin target/release/serve
//!
//! # Ad-hoc client: one op against a running daemon, response as JSON.
//! cargo run -p s1lisp-bench --bin serve_client -- \
//!     --connect 127.0.0.1:7777 --tenant alice compile lib.lisp
//! cargo run -p s1lisp-bench --bin serve_client -- \
//!     --connect 127.0.0.1:7777 --tenant alice run poke 4
//! ```

use std::collections::HashMap;

use s1lisp_bench::service_units;
use s1lisp_driver::{CompileService, ServiceConfig};
use s1lisp_server::{Body, CompileServer, Response, ServeClient, ServerConfig};

fn fail(msg: &str) -> ! {
    eprintln!("serve_client: {msg}");
    std::process::exit(1);
}

/// The corpus artifacts a plain (non-server) service batch produces,
/// keyed by function name — the byte-identity baseline.
fn baseline_artifacts() -> HashMap<String, String> {
    let service = CompileService::new(ServiceConfig::default());
    let batch = service.compile_batch(&service_units());
    if !batch.failures.is_empty() {
        fail(&format!("baseline batch failed: {:?}", batch.failures));
    }
    batch
        .artifacts
        .iter()
        .map(|a| (a.name.clone(), a.to_json().to_string()))
        .collect()
}

/// Compiles every corpus unit through `client`, one fresh tenant per
/// unit (mirroring the batch contract that declarations do not leak
/// across units), and checks each artifact byte-for-byte against the
/// baseline.  Returns the number of artifacts compared.
fn compile_corpus_and_compare(
    client: &mut ServeClient,
    tenant_prefix: &str,
    baseline: &HashMap<String, String>,
) -> usize {
    let mut compared = 0;
    for (i, unit) in service_units().iter().enumerate() {
        let hello = client
            .hello(&format!("{tenant_prefix}{i}"), None)
            .unwrap_or_else(|e| fail(&format!("hello: {e}")));
        if !hello.ok {
            fail(&format!("hello refused: {:?}", hello.error));
        }
        let resp = client
            .compile(&unit.name, &unit.source)
            .unwrap_or_else(|e| fail(&format!("compile {}: {e}", unit.name)));
        let Body::Compile { artifacts, .. } = &resp.body else {
            fail(&format!("{}: no compile body", unit.name));
        };
        if !resp.ok {
            fail(&format!("{}: {:?}", unit.name, resp.error));
        }
        for a in artifacts {
            let want = baseline
                .get(&a.name)
                .unwrap_or_else(|| fail(&format!("{}: not in the baseline", a.name)));
            if a.to_json().to_string() != *want {
                fail(&format!("{}: artifact differs from compile_batch", a.name));
            }
            compared += 1;
        }
    }
    compared
}

/// The namespace smoke, on a fresh tenant: a unit the frontend rejects
/// (`(quote)` denotes no constant) is refused with `ok:false`, and a
/// function defined before it still runs.
fn rejected_unit_leaves_runs_working(client: &mut ServeClient, tenant: &str) {
    let answer = |resp: std::io::Result<Response>| {
        resp.unwrap_or_else(|e| fail(&format!("{tenant}: transport: {e}")))
    };
    if !answer(client.hello(tenant, None)).ok
        || !answer(client.compile("smoke", "(defun dbl (x) (+ x x))")).ok
    {
        fail(&format!("{tenant}: hello or compile refused"));
    }
    if answer(client.compile("bad", "(defvar *x* (quote)) (defun f () *x*)")).ok {
        fail(&format!(
            "{tenant}: a unit the frontend rejects was acknowledged"
        ));
    }
    let run = answer(client.run("dbl", &["21"]));
    if run.body != (Body::Run { value: "42".into() }) {
        fail(&format!("{tenant}: run after the rejected unit: {run:?}"));
    }
}

/// The CI smoke: an in-process TCP daemon serving two concurrent
/// tenants byte-identically to `compile_batch`, and (with `serve_bin`)
/// a spawned `serve --stdio` child doing the same plus a clean exit;
/// both also pass the namespace smoke.
fn selftest(serve_bin: Option<&str>) {
    let baseline = baseline_artifacts();

    let handle = CompileServer::new(ServerConfig::default())
        .serve_tcp(0)
        .unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let port = handle.port();
    let threads: Vec<_> = ["a", "b"]
        .into_iter()
        .map(|who| {
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&format!("127.0.0.1:{port}"))
                    .unwrap_or_else(|e| fail(&format!("connect: {e}")));
                compile_corpus_and_compare(&mut client, who, &baseline)
            })
        })
        .collect();
    let compared: usize = threads
        .into_iter()
        .map(|t| t.join().unwrap_or_else(|_| fail("client thread panicked")))
        .sum();
    let mut client = ServeClient::connect(&format!("127.0.0.1:{port}"))
        .unwrap_or_else(|e| fail(&format!("connect: {e}")));
    rejected_unit_leaves_runs_working(&mut client, "tcp-run");
    handle.shutdown();
    handle.join();
    println!("serve_client --selftest: tcp ok, {compared} artifacts byte-identical across 2 concurrent tenants, rejected unit refused");

    if let Some(bin) = serve_bin {
        let mut client = ServeClient::spawn_stdio(bin, &[])
            .unwrap_or_else(|e| fail(&format!("spawn {bin}: {e}")));
        let compared = compile_corpus_and_compare(&mut client, "stdio", &baseline);
        rejected_unit_leaves_runs_working(&mut client, "stdio-run");
        let bye = client.shutdown().expect("shutdown");
        assert!(bye.ok);
        match client.wait_exit() {
            Ok(true) => {}
            Ok(false) => fail("stdio daemon exited nonzero"),
            Err(e) => fail(&format!("wait: {e}")),
        }
        println!(
            "serve_client --selftest: stdio ok, {compared} artifacts byte-identical, rejected unit refused, clean exit"
        );
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--selftest") {
        args.retain(|a| a != "--selftest");
        let serve_bin = match args.iter().position(|a| a == "--serve-bin") {
            Some(i) => {
                args.remove(i);
                Some(args.remove(i))
            }
            None => None,
        };
        selftest(serve_bin.as_deref());
        return;
    }

    let mut connect = None;
    let mut tenant = None;
    let mut token = None;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = it.next(),
            "--tenant" => tenant = it.next(),
            "--token" => token = it.next(),
            _ => rest.push(a),
        }
    }
    let (Some(addr), Some(tenant)) = (connect, tenant) else {
        fail("want --selftest, or --connect ADDR --tenant NAME <compile FILE | run ENTRY ARGS... | explain NAME | ping | shutdown>");
    };
    let mut client =
        ServeClient::connect(&addr).unwrap_or_else(|e| fail(&format!("connect {addr}: {e}")));
    let hello = client
        .hello(&tenant, token.as_deref())
        .unwrap_or_else(|e| fail(&format!("hello: {e}")));
    if !hello.ok {
        fail(&format!("hello refused: {:?}", hello.error));
    }
    let resp = match rest.first().map(String::as_str) {
        Some("compile") => {
            let path = rest.get(1).unwrap_or_else(|| fail("compile wants a file"));
            let source =
                std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
            client.compile(path, &source)
        }
        Some("run") => {
            let entry = rest.get(1).unwrap_or_else(|| fail("run wants an entry"));
            let args: Vec<&str> = rest[2..].iter().map(String::as_str).collect();
            client.run(entry, &args)
        }
        Some("explain") => {
            let name = rest.get(1).unwrap_or_else(|| fail("explain wants a name"));
            client.explain(name)
        }
        Some("ping") => client.ping(),
        Some("shutdown") => client.shutdown(),
        _ => fail("want compile FILE | run ENTRY ARGS... | explain NAME | ping | shutdown"),
    };
    let resp = resp.unwrap_or_else(|e| fail(&format!("transport: {e}")));
    println!("{}", resp.to_json());
    std::process::exit(i32::from(!resp.ok));
}
