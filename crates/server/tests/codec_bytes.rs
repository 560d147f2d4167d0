//! Byte pins for the JSON the server persists and speaks: the
//! `snapshot.json` body, a journal frame, one request per op, a
//! compile response, and an artifact.  Each expected string is a
//! literal, so any change to field order, escaping, number formatting
//! or the fingerprint encoding fails here.  The decoders' refusals are
//! pinned the same way: the same malformed input is still rejected,
//! with the same error text.

use s1lisp::Artifact;
use s1lisp_server::journal::{crc32, encode_record, scan_journal, JournalRecord};
use s1lisp_server::{
    tenant_fingerprint, Body, Op, Request, Response, Slo, TenantState, WireIncident,
};
use s1lisp_trace::json::{self, Json};

fn snapshot_body(st: &TenantState, applied_seq: u64) -> String {
    st.snapshot_json(applied_seq).to_string()
}

fn snapshot_reads(j: &Json) -> bool {
    TenantState::from_snapshot(j).is_some()
}

const ARTIFACT: &str = r#"{"name":"norm","backend":"s1","fingerprint":"0123456789abcdef","converted":"(lambda (x) (* x x))","optimized":"(lambda (x) (* x x))","transformations":2,"rules":{"META-SUBSTITUTE":2},"phase_spans":{"Preliminary":1,"Code generation":1},"tn_map":["x = TN0 (register)"],"coercions":["unbox flonum"],"assembly":"(MULT R1 R1)\n(RET)","insns":2,"dossier":"==== norm ====\n\t\"λ\" line","degraded":false}"#;

fn artifact() -> Artifact {
    Artifact {
        name: "norm".into(),
        backend: "s1".into(),
        fingerprint: 0x0123_4567_89ab_cdef,
        converted: "(lambda (x) (* x x))".into(),
        optimized: "(lambda (x) (* x x))".into(),
        transformations: 2,
        rules: vec![("META-SUBSTITUTE".into(), 2)],
        phase_spans: vec![("Preliminary".into(), 1), ("Code generation".into(), 1)],
        tn_map: vec!["x = TN0 (register)".into()],
        coercions: vec!["unbox flonum".into()],
        assembly: "(MULT R1 R1)\n(RET)".into(),
        insns: 2,
        dossier: "==== norm ====\n\t\"λ\" line".into(),
        degraded: false,
    }
}

fn tenant() -> TenantState {
    let mut st = TenantState {
        name: "alice".into(),
        fingerprint: tenant_fingerprint("alice"),
        specials: vec!["*a*".into(), "*b*".into()],
        globals: vec![
            ("*a*".into(), "7".into()),
            ("*b*".into(), "(quote (1 \"two\"))".into()),
        ],
        sources: vec!["(defvar *a* 7)".into(), "(defun norm (x) (* x x))".into()],
        incidents: 3,
        degraded: true,
        ..TenantState::default()
    };
    st.artifacts.insert("norm".into(), artifact());
    st
}

#[test]
fn artifact_bytes_are_pinned() {
    assert_eq!(artifact().to_json().to_string(), ARTIFACT);
    let back = Artifact::from_json(&json::parse(ARTIFACT).expect("well-formed"));
    assert_eq!(back, Some(artifact()));
}

#[test]
fn snapshot_bytes_are_pinned_and_refusals_hold() {
    let body = snapshot_body(&tenant(), 7);
    let want = [
        r#"{"tenant":"alice","fingerprint":"2b1699dade936773","applied_seq":7,"specials":["*a*","*b*"],"globals":[["*a*","7"],["*b*","(quote (1 \"two\"))"]],"sources":["(defvar *a* 7)","(defun norm (x) (* x x))"],"incidents":3,"degraded":true,"artifacts":["#,
        ARTIFACT,
        "]}",
    ]
    .concat();
    assert_eq!(body, want);
    let good = json::parse(&body).expect("well-formed");
    assert!(snapshot_reads(&good));
    // Each damaged copy fails closed, as a corrupt snapshot must.
    let damaged = |key: &str, v: Option<Json>| {
        let mut j = good.clone();
        if let Json::Obj(fields) = &mut j {
            match v {
                Some(v) => fields
                    .iter_mut()
                    .filter(|(k, _)| k == key)
                    .for_each(|f| f.1 = v.clone()),
                None => fields.retain(|(k, _)| k != key),
            }
        }
        j
    };
    for key in [
        "tenant",
        "fingerprint",
        "applied_seq",
        "specials",
        "globals",
        "sources",
        "incidents",
        "degraded",
        "artifacts",
    ] {
        assert!(!snapshot_reads(&damaged(key, None)), "missing {key}");
    }
    for (key, bad) in [
        ("fingerprint", Json::str("not-hex")),
        ("fingerprint", Json::Int(7)),
        ("applied_seq", Json::Int(-1)),
        ("incidents", Json::str("3")),
        ("degraded", Json::Int(1)),
        ("specials", Json::Arr(vec![Json::Int(1)])),
        (
            "globals",
            Json::Arr(vec![Json::Arr(vec![Json::str("*a*")])]),
        ),
        ("sources", Json::str("(defun f ())")),
        ("artifacts", Json::Arr(vec![Json::Obj(Vec::new())])),
    ] {
        assert!(!snapshot_reads(&damaged(key, Some(bad))), "mistyped {key}");
    }
}

#[test]
fn journal_frame_bytes_are_pinned_and_refusals_hold() {
    let frame = encode_record(&JournalRecord {
        seq: 4,
        tenant: "alice".into(),
        unit: "u4".into(),
        source: "(defun f (x) \"x\")".into(),
    });
    assert_eq!(frame[..8], [69, 0, 0, 0, 115, 51, 184, 213]);
    assert_eq!(
        std::str::from_utf8(&frame[8..]).unwrap(),
        r#"{"seq":4,"tenant":"alice","unit":"u4","source":"(defun f (x) \"x\")"}"#
    );
    // A well-framed record whose payload misses or mistypes a field is
    // not a record: at the tail it reads as a torn write.
    for payload in [
        r#"{"seq":4,"tenant":"alice","unit":"u4"}"#,
        r#"{"seq":-4,"tenant":"alice","unit":"u4","source":"s"}"#,
        r#"{"seq":4,"tenant":7,"unit":"u4","source":"s"}"#,
    ] {
        let mut bytes = (payload.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
        bytes.extend_from_slice(payload.as_bytes());
        let scan = scan_journal(&bytes, 0, |_| false);
        assert!(scan.records.is_empty() && scan.torn_tail, "{payload}");
    }
}

#[test]
fn request_bytes_are_pinned_per_op() {
    let ops = vec![
        Op::Hello {
            tenant: "alice".into(),
            token: Some("s3cret".into()),
        },
        Op::Hello {
            tenant: "bob".into(),
            token: None,
        },
        Op::Compile {
            unit: "u1".into(),
            source: "(defun f (x) \"x\")".into(),
        },
        Op::Run {
            entry: "f".into(),
            args: vec!["1".into(), "(2 3)".into()],
        },
        Op::Explain { name: "f".into() },
        Op::Sync,
        Op::Ping,
        Op::Shutdown,
    ];
    let want = [
        r#"{"id":1,"op":"hello","tenant":"alice","token":"s3cret"}"#,
        r#"{"id":2,"op":"hello","tenant":"bob","token":null}"#,
        r#"{"id":3,"op":"compile","unit":"u1","source":"(defun f (x) \"x\")"}"#,
        r#"{"id":4,"op":"run","entry":"f","args":["1","(2 3)"]}"#,
        r#"{"id":5,"op":"explain","name":"f"}"#,
        r#"{"id":6,"op":"sync"}"#,
        r#"{"id":7,"op":"ping"}"#,
        r#"{"id":8,"op":"shutdown"}"#,
    ];
    for ((op, id), want) in ops.into_iter().zip(1..).zip(want) {
        let req = Request { id, op };
        assert_eq!(req.to_json().to_string(), want);
        assert_eq!(Request::from_json(&json::parse(want).unwrap()), Ok(req));
    }
}

#[test]
fn request_refusals_keep_their_text() {
    for (text, err) in [
        (r#"{}"#, "request wants an integer id"),
        (r#"{"id":-1,"op":"ping"}"#, "request wants an integer id"),
        (r#"{"id":"1","op":"ping"}"#, "request wants an integer id"),
        (r#"{"id":1}"#, "request wants an op string"),
        (r#"{"id":1,"op":7}"#, "request wants an op string"),
        (r#"{"id":1,"op":"hello"}"#, "hello wants a tenant string"),
        (
            r#"{"id":1,"op":"compile","unit":"u"}"#,
            "compile wants a source string",
        ),
        (
            r#"{"id":1,"op":"compile","unit":3,"source":"s"}"#,
            "compile wants a unit string",
        ),
        (
            r#"{"id":1,"op":"run","entry":"f"}"#,
            "run wants an args array",
        ),
        (
            r#"{"id":1,"op":"run","entry":"f","args":[1]}"#,
            "run args must be printed-datum strings",
        ),
        (r#"{"id":1,"op":"explain"}"#, "explain wants a name string"),
        (r#"{"id":1,"op":"frob"}"#, "unknown op frob"),
    ] {
        let got = Request::from_json(&json::parse(text).unwrap());
        assert_eq!(got, Err(err.to_string()), "{text}");
    }
}

#[test]
fn compile_response_bytes_are_pinned() {
    let resp = Response {
        id: 12,
        op: "compile".into(),
        tenant: "alice".into(),
        ok: true,
        error: None,
        retry_after_ms: 0,
        durable: true,
        slo: Slo {
            degraded: true,
            incident_kind: Some("panic".into()),
            queue_wait_us: 31,
            wall_us: 4096,
        },
        body: Body::Compile {
            artifacts: vec![artifact()],
            incidents: vec![WireIncident {
                function: "norm".into(),
                kind: "panic".into(),
                recovered: true,
            }],
            failures: vec![("unit u2".into(), "unbalanced \"(\"".into())],
        },
    };
    let want = [
        r#"{"id":12,"op":"compile","tenant":"alice","ok":true,"error":null,"retry_after_ms":0,"durable":true,"slo":{"degraded":true,"incident_kind":"panic","queue_wait_us":31,"wall_us":4096},"compile":{"artifacts":["#,
        ARTIFACT,
        r#"],"incidents":[{"function":"norm","kind":"panic","recovered":true}],"failures":[{"scope":"unit u2","error":"unbalanced \"(\""}]},"value":null,"dossier":null}"#,
    ]
    .concat();
    assert_eq!(resp.to_json().to_string(), want);
    assert_eq!(Response::from_json(&json::parse(&want).unwrap()), Ok(resp));
}

#[test]
fn response_refusals_keep_their_text() {
    let slo = r#""slo":{"degraded":false,"incident_kind":null,"queue_wait_us":0,"wall_us":0}"#;
    for (text, err) in [
        (r#"{}"#.to_string(), "response wants an integer id"),
        (r#"{"id":-1}"#.to_string(), "response wants an integer id"),
        (r#"{"id":1}"#.to_string(), "response wants an op"),
        (r#"{"id":1,"op":"ping"}"#.to_string(), "response wants ok"),
        (
            r#"{"id":1,"op":"ping","ok":true}"#.to_string(),
            "response wants an slo block",
        ),
        (
            r#"{"id":1,"op":"ping","ok":true,"slo":{"degraded":false,"queue_wait_us":-1,"wall_us":0}}"#
                .to_string(),
            "response wants an slo block",
        ),
        (
            r#"{"id":1,"op":"ping","ok":true,"slo":{"queue_wait_us":0,"wall_us":0}}"#.to_string(),
            "response wants an slo block",
        ),
        (
            format!(r#"{{"id":1,"op":"compile","ok":true,{slo},"compile":{{}}}}"#),
            "compile body wants artifacts",
        ),
        (
            format!(r#"{{"id":1,"op":"compile","ok":true,{slo},"compile":{{"artifacts":[{{}}]}}}}"#),
            "malformed artifact",
        ),
        (
            format!(r#"{{"id":1,"op":"compile","ok":true,{slo},"compile":{{"artifacts":[]}}}}"#),
            "compile body wants incidents",
        ),
        (
            format!(
                r#"{{"id":1,"op":"compile","ok":true,{slo},"compile":{{"artifacts":[],"incidents":[{{"function":"f"}}]}}}}"#
            ),
            "malformed incident",
        ),
        (
            format!(
                r#"{{"id":1,"op":"compile","ok":true,{slo},"compile":{{"artifacts":[],"incidents":[]}}}}"#
            ),
            "compile body wants failures",
        ),
        (
            format!(
                r#"{{"id":1,"op":"compile","ok":true,{slo},"compile":{{"artifacts":[],"incidents":[],"failures":[{{"scope":"s"}}]}}}}"#
            ),
            "malformed failure",
        ),
    ] {
        let got = Response::from_json(&json::parse(&text).unwrap());
        assert_eq!(got, Err(err.to_string()), "{text}");
    }
}
