//! The wire protocol: length-prefixed JSON frames, and the request /
//! response vocabulary both transports (TCP and stdio) speak.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON.  Requests carry a client-chosen `id`; responses
//! echo it, and because the server dispatches requests to a worker pool
//! they may come back **out of order** — pipelining clients match
//! responses to requests by id, never by arrival position.
//!
//! Every response — success, failure, or backpressure rejection —
//! carries the same fixed surface: `ok`, `error`, `retry_after_ms`, and
//! the per-request SLO block `{degraded, incident_kind, queue_wait_us,
//! wall_us}`.  There is no response without an SLO verdict.

use std::io::{self, Read, Write};

use s1lisp::Artifact;
use s1lisp_trace::json::Json;

/// Refuse frames above this size (16 MiB): a corrupt length prefix must
/// not look like an allocation request.
pub const MAX_FRAME: usize = 16 << 20;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O errors; refuses payloads above [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    let len = u32::try_from(payload.len()).expect("bounded above");
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame.  `Ok(None)` is clean end-of-stream
/// (EOF exactly at a frame boundary); EOF mid-frame is an error.
///
/// # Errors
///
/// Propagates I/O errors; refuses frames above [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// What a request asks the server to do.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Bind this connection to a tenant (must be the first request).
    Hello {
        /// The tenant namespace to join.
        tenant: String,
        /// Shared secret, checked against the server's allowlist when
        /// one is configured; ignored under open enrollment.
        token: Option<String>,
    },
    /// Compile a unit of top-level forms into the tenant's namespace.
    Compile {
        /// A label for reports (a file name, a request tag, …).
        unit: String,
        /// The top-level forms (`defun`/`defvar`/`proclaim`).
        source: String,
    },
    /// Call a function the tenant has compiled, with printed-datum
    /// arguments (`"3"`, `"-1.5"`, `"(1 2)"`).
    Run {
        /// The function to call.
        entry: String,
        /// Printed-datum arguments.
        args: Vec<String>,
    },
    /// Fetch the compilation dossier of a tenant function.
    Explain {
        /// The function name.
        name: String,
    },
    /// Force a durable snapshot of the tenant's state right now
    /// (normally snapshots happen every `snapshot_every` journaled
    /// mutations).  The response's `durable` flag reports whether the
    /// snapshot reached stable storage; on a server without a state
    /// dir it is simply `false`.
    Sync,
    /// Liveness probe; serves through the queue like any request.
    Ping,
    /// Stop the server: drain in-flight requests, then exit.
    Shutdown,
}

impl Op {
    /// Lower-case label for dispatch, responses, and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            Op::Hello { .. } => "hello",
            Op::Compile { .. } => "compile",
            Op::Run { .. } => "run",
            Op::Explain { .. } => "explain",
            Op::Sync => "sync",
            Op::Ping => "ping",
            Op::Shutdown => "shutdown",
        }
    }
}

/// One request frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
}

impl Request {
    /// The wire form.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", Json::uint(self.id)),
            ("op", Json::str(self.op.as_str())),
        ];
        match &self.op {
            Op::Hello { tenant, token } => {
                fields.push(("tenant", Json::str(tenant)));
                fields.push(("token", token.as_ref().map_or(Json::Null, Json::str)));
            }
            Op::Compile { unit, source } => {
                fields.push(("unit", Json::str(unit)));
                fields.push(("source", Json::str(source)));
            }
            Op::Run { entry, args } => {
                fields.push(("entry", Json::str(entry)));
                fields.push(("args", Json::strs(args)));
            }
            Op::Explain { name } => fields.push(("name", Json::str(name))),
            Op::Sync | Op::Ping | Op::Shutdown => {}
        }
        Json::obj(fields)
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Request, String> {
        let id = j.get_u64("id").ok_or("request wants an integer id")?;
        let op = j.get_str("op").ok_or("request wants an op string")?;
        let s = |key: &str| {
            j.get_str(key)
                .ok_or_else(|| format!("{op} wants a {key} string"))
        };
        let op = match op.as_str() {
            "hello" => Op::Hello {
                tenant: s("tenant")?,
                token: j.get_str("token"),
            },
            "compile" => Op::Compile {
                unit: s("unit")?,
                source: s("source")?,
            },
            "run" => Op::Run {
                entry: s("entry")?,
                args: {
                    j.get("args")
                        .and_then(Json::as_arr)
                        .ok_or("run wants an args array")?;
                    j.get_strs("args")
                        .ok_or("run args must be printed-datum strings")?
                },
            },
            "explain" => Op::Explain { name: s("name")? },
            "sync" => Op::Sync,
            "ping" => Op::Ping,
            "shutdown" => Op::Shutdown,
            other => return Err(format!("unknown op {other}")),
        };
        Ok(Request { id, op })
    }
}

/// The per-request service-level verdict every response carries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Slo {
    /// True when the tenant is in degraded mode (incident budget
    /// exhausted — transformations off) or any artifact in the response
    /// came from a degraded recompile.
    pub degraded: bool,
    /// The first incident this request accrued (`panic`, `timeout`,
    /// `guard`, `miscompile`, `sim-trap`), or `None` for a clean serve.
    pub incident_kind: Option<String>,
    /// Time the request sat in the admission queue, in microseconds.
    pub queue_wait_us: u64,
    /// Time a worker spent serving it, in microseconds.
    pub wall_us: u64,
}

impl Slo {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("degraded", Json::Bool(self.degraded)),
            (
                "incident_kind",
                self.incident_kind.as_ref().map_or(Json::Null, Json::str),
            ),
            ("queue_wait_us", Json::uint(self.queue_wait_us)),
            ("wall_us", Json::uint(self.wall_us)),
        ])
    }

    fn from_json(j: &Json) -> Option<Slo> {
        Some(Slo {
            degraded: j.get("degraded")?.as_bool()?,
            incident_kind: j.get_str("incident_kind"),
            queue_wait_us: j.get_u64("queue_wait_us")?,
            wall_us: j.get_u64("wall_us")?,
        })
    }
}

/// One compile incident as surfaced to the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireIncident {
    /// The function whose compilation faulted.
    pub function: String,
    /// Panic, timeout, guard violation, or oracle mismatch.
    pub kind: String,
    /// True when the degraded recompile salvaged an artifact.
    pub recovered: bool,
}

/// The op-specific payload of a response.
#[derive(Clone, Debug, PartialEq)]
pub enum Body {
    /// `hello`, `ping`, `shutdown`, and every rejection.
    None,
    /// A served `compile`.
    Compile {
        /// Artifacts in source order, exactly as
        /// [`CompileService::compile_batch`](s1lisp_driver::CompileService::compile_batch)
        /// would produce them for the same unit (pinned by test).
        artifacts: Vec<Artifact>,
        /// Contained faults this request accrued.
        incidents: Vec<WireIncident>,
        /// Failures as `(scope, message)`.
        failures: Vec<(String, String)>,
    },
    /// A served `run`: the printed outcome (a value, or `trap: …`).
    Run {
        /// Printed value or trap.
        value: String,
    },
    /// A served `explain`.
    Explain {
        /// The rendered dossier.
        dossier: String,
    },
}

/// One response frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request's correlation id.
    pub id: u64,
    /// The request's op label (`"compile"`, …).
    pub op: String,
    /// The tenant served.
    pub tenant: String,
    /// False on errors and rejections.
    pub ok: bool,
    /// The error description when `ok` is false.
    pub error: Option<String>,
    /// Nonzero only on a backpressure rejection: retry no sooner than
    /// this many milliseconds from now.  A rejection is a first-class
    /// response — the queue never drops a request silently.
    pub retry_after_ms: u64,
    /// True when the request's namespace mutation (or an explicit
    /// `sync`) reached stable storage before this response was framed.
    /// Always false on a server running without `--state-dir`, on
    /// non-mutating ops, and when the journal append failed (the
    /// in-memory serve still succeeded).
    pub durable: bool,
    /// The per-request SLO verdict.
    pub slo: Slo,
    /// The op-specific payload.
    pub body: Body,
}

impl Response {
    /// The wire form.  Fixed keys only — `compile`, `value`, and
    /// `dossier` are always present (null when inapplicable) so the
    /// response schema is one shape per op, pinned by the serve-record
    /// golden.
    pub fn to_json(&self) -> Json {
        let (compile, value, dossier) = match &self.body {
            Body::None => (Json::Null, Json::Null, Json::Null),
            Body::Compile {
                artifacts,
                incidents,
                failures,
            } => {
                let artifacts = artifacts.iter().map(Artifact::to_json).collect();
                let incidents = incidents
                    .iter()
                    .map(|i| {
                        Json::obj(vec![
                            ("function", Json::str(&i.function)),
                            ("kind", Json::str(&i.kind)),
                            ("recovered", Json::Bool(i.recovered)),
                        ])
                    })
                    .collect();
                let failures = failures
                    .iter()
                    .map(|(scope, error)| {
                        Json::obj(vec![
                            ("scope", Json::str(scope)),
                            ("error", Json::str(error)),
                        ])
                    })
                    .collect();
                (
                    Json::obj(vec![
                        ("artifacts", Json::Arr(artifacts)),
                        ("incidents", Json::Arr(incidents)),
                        ("failures", Json::Arr(failures)),
                    ]),
                    Json::Null,
                    Json::Null,
                )
            }
            Body::Run { value } => (Json::Null, Json::str(value), Json::Null),
            Body::Explain { dossier } => (Json::Null, Json::Null, Json::str(dossier)),
        };
        Json::obj(vec![
            ("id", Json::uint(self.id)),
            ("op", Json::str(&self.op)),
            ("tenant", Json::str(&self.tenant)),
            ("ok", Json::Bool(self.ok)),
            ("error", self.error.as_ref().map_or(Json::Null, Json::str)),
            ("retry_after_ms", Json::uint(self.retry_after_ms)),
            ("durable", Json::Bool(self.durable)),
            ("slo", self.slo.to_json()),
            ("compile", compile),
            ("value", value),
            ("dossier", dossier),
        ])
    }

    /// Parses a response frame.
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_json(j: &Json) -> Result<Response, String> {
        let id = j.get_u64("id").ok_or("response wants an integer id")?;
        let op = j.get_str("op").ok_or("response wants an op")?;
        let body = if let Some(c) = j.get("compile").filter(|c| **c != Json::Null) {
            let artifacts = c
                .get("artifacts")
                .and_then(Json::as_arr)
                .ok_or("compile body wants artifacts")?
                .iter()
                .map(|a| Artifact::from_json(a).ok_or("malformed artifact"))
                .collect::<Result<Vec<_>, _>>()?;
            let incidents = c
                .get("incidents")
                .and_then(Json::as_arr)
                .ok_or("compile body wants incidents")?
                .iter()
                .map(|i| {
                    Some(WireIncident {
                        function: i.get_str("function")?,
                        kind: i.get_str("kind")?,
                        recovered: i.get("recovered")?.as_bool()?,
                    })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or("malformed incident")?;
            let failures = c
                .get("failures")
                .and_then(Json::as_arr)
                .ok_or("compile body wants failures")?
                .iter()
                .map(|f| Some((f.get_str("scope")?, f.get_str("error")?)))
                .collect::<Option<Vec<_>>>()
                .ok_or("malformed failure")?;
            Body::Compile {
                artifacts,
                incidents,
                failures,
            }
        } else if let Some(value) = j.get_str("value") {
            Body::Run { value }
        } else if let Some(dossier) = j.get_str("dossier") {
            Body::Explain { dossier }
        } else {
            Body::None
        };
        Ok(Response {
            id,
            op,
            tenant: j.get_str("tenant").unwrap_or_default(),
            ok: j
                .get("ok")
                .and_then(Json::as_bool)
                .ok_or("response wants ok")?,
            error: j.get_str("error"),
            retry_after_ms: j.get_u64("retry_after_ms").unwrap_or(0),
            durable: j.get("durable").and_then(Json::as_bool).unwrap_or(false),
            slo: j
                .get("slo")
                .and_then(Slo::from_json)
                .ok_or("response wants an slo block")?,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s1lisp_trace::json;

    #[test]
    fn frames_round_trip_and_eof_is_clean_only_at_boundaries() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None);
        // EOF inside a header is an error, not a clean close.
        let mut torn = &buf[..2];
        assert!(read_frame(&mut torn).is_err());
        // A hostile length prefix is refused before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert!(read_frame(&mut &huge[..]).is_err());
    }

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        let cases = vec![
            Request {
                id: 1,
                op: Op::Hello {
                    tenant: "alice".into(),
                    token: Some("s3cret".into()),
                },
            },
            Request {
                id: 2,
                op: Op::Compile {
                    unit: "u1".into(),
                    source: "(defun f (x) x)".into(),
                },
            },
            Request {
                id: 3,
                op: Op::Run {
                    entry: "f".into(),
                    args: vec!["1".into(), "(2 3)".into()],
                },
            },
            Request {
                id: 4,
                op: Op::Explain { name: "f".into() },
            },
            Request {
                id: 5,
                op: Op::Ping,
            },
            Request {
                id: 7,
                op: Op::Sync,
            },
            Request {
                id: 6,
                op: Op::Shutdown,
            },
        ];
        for req in cases {
            let text = req.to_json().to_string();
            let parsed = json::parse(&text).expect("well-formed JSON");
            assert_eq!(Request::from_json(&parsed), Ok(req.clone()), "{text}");
        }
    }

    #[test]
    fn responses_round_trip_including_rejections() {
        let resp = Response {
            id: 9,
            op: "compile".into(),
            tenant: "alice".into(),
            ok: false,
            error: Some("queue full".into()),
            retry_after_ms: 25,
            durable: false,
            slo: Slo {
                degraded: true,
                incident_kind: Some("panic".into()),
                queue_wait_us: 0,
                wall_us: 0,
            },
            body: Body::None,
        };
        let text = resp.to_json().to_string();
        let parsed = json::parse(&text).expect("well-formed JSON");
        assert_eq!(Response::from_json(&parsed), Ok(resp));
        // The durability flag survives the wire, and an old-style frame
        // without it parses as non-durable.
        let durable = Response {
            id: 10,
            op: "sync".into(),
            tenant: "alice".into(),
            ok: true,
            error: None,
            retry_after_ms: 0,
            durable: true,
            slo: Slo::default(),
            body: Body::None,
        };
        let text = durable.to_json().to_string();
        let parsed = json::parse(&text).expect("well-formed JSON");
        assert_eq!(Response::from_json(&parsed), Ok(durable));
        let legacy = text.replace("\"durable\":true,", "");
        let parsed = json::parse(&legacy).expect("well-formed JSON");
        assert!(!Response::from_json(&parsed).unwrap().durable);
    }
}
