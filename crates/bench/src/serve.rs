//! The compile-server demonstration record (`report --json serve`).
//!
//! One scripted session against an in-process daemon: two tenants join,
//! one proclaims a special that the other does not, both compile the
//! same source into their own namespaces, and the record captures every
//! response — success, auth rejection, unknown-function error — in the
//! fixed wire shape (`tests/golden_json.rs` pins the schema).  The
//! script is deterministic, so the record's *shape* never varies; only
//! the SLO timings do.

use s1lisp_server::{CompileServer, Response, ServeClient, ServerConfig};
use s1lisp_trace::json::Json;

/// The source both tenants compile.  `cell` is a plain (unstarred)
/// name: the tenant that proclaims it special gets deep-binding code,
/// the other gets an ordinary lexical `let` — same value, different
/// artifacts, one namespace apart.
const SHARED_SRC: &str = "(defun poke (x) (let ((cell (+ x 21))) (* cell 2)))";

/// Builds the `serve` record: a scripted two-tenant session against a
/// live in-process server, every response in wire form, plus the
/// server-side request counters.
///
/// # Panics
///
/// Panics when the in-process server cannot bind or a transport call
/// fails — the record is a demonstration, not a fault drill.
pub fn serve_record() -> Json {
    let handle = CompileServer::new(ServerConfig::default())
        .serve_tcp(0)
        .expect("bind an ephemeral port");
    let addr = format!("127.0.0.1:{}", handle.port());
    let mut responses: Vec<Json> = Vec::new();
    let mut record = |resp: std::io::Result<Response>| {
        let resp = resp.expect("serve transport");
        responses.push(resp.to_json());
        resp
    };

    let mut alpha = ServeClient::connect(&addr).expect("connect alpha");
    record(alpha.hello("alpha", None));
    // An invalid hello is a first-class refusal, not a dropped frame.
    record(alpha.hello("", None));
    record(alpha.compile("decls", "(proclaim (quote (special cell)))"));
    record(alpha.compile("lib", SHARED_SRC));
    record(alpha.run("poke", &["0"]));
    record(alpha.explain("poke"));
    record(alpha.explain("nope"));
    record(alpha.ping());

    let mut beta = ServeClient::connect(&addr).expect("connect beta");
    record(beta.hello("beta", None));
    record(beta.compile("lib", SHARED_SRC));
    record(beta.run("poke", &["0"]));
    record(beta.ping());

    record(alpha.shutdown());
    let snapshot = handle.metrics_snapshot();
    handle.join();
    Json::obj(vec![
        ("id", Json::str("serve")),
        (
            "title",
            Json::str("compile server: one session across two tenant namespaces"),
        ),
        (
            "tenants",
            Json::Arr(vec![Json::str("alpha"), Json::str("beta")]),
        ),
        ("responses", Json::Arr(responses)),
        (
            "server",
            snapshot.counters_obj(
                "server.",
                &[
                    "requests",
                    "errors",
                    "rejected",
                    "incidents",
                    "degraded_responses",
                ],
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_record_demonstrates_namespace_isolation() {
        let rec = serve_record();
        let responses = rec.get("responses").and_then(Json::as_arr).unwrap();
        assert_eq!(responses.len(), 13);
        // The two `lib` compiles produced byte-different artifacts:
        // alpha's `cell` is special, beta's is lexical.
        let artifact_of = |i: usize| {
            responses[i]
                .get("compile")
                .and_then(|c| c.get("artifacts"))
                .and_then(Json::as_arr)
                .map(|a| a[0].to_string())
                .unwrap()
        };
        let (alpha_lib, beta_lib) = (artifact_of(3), artifact_of(9));
        assert_ne!(alpha_lib, beta_lib, "the proclaim must isolate alpha");
        // Same observable value on both sides.
        assert_eq!(responses[4].get("value"), responses[10].get("value"));
        // The invalid hello and the unknown explain were refused, not
        // dropped.
        assert_eq!(responses[1].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(responses[6].get("ok"), Some(&Json::Bool(false)));
    }
}
