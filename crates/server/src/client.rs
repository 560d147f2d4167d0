//! A blocking client for the compile server, over either transport.
//!
//! The client assigns monotonically increasing request ids and matches
//! responses by id, buffering any that arrive out of order — so the
//! simple `call`-style methods compose with explicit pipelining
//! ([`ServeClient::send`] many, then [`ServeClient::recv_id`] each).
//!
//! The `call`-style methods honor the server's backpressure hints: a
//! rejection with `retry_after_ms` is retried with capped exponential
//! backoff and seeded jitter (so a burst of rejected clients
//! decorrelates instead of stampeding back in lockstep) until a
//! bounded [`RetryPolicy::budget`] is exhausted, and only then
//! surfaced.  The raw [`ServeClient::send`]/[`ServeClient::recv_id`]
//! pipelining API never retries — backpressure tests watch rejections
//! through it.

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use s1lisp_trace::json;
use s1lisp_trace::rng::SplitMix64;

use crate::proto::{read_frame, write_frame, Op, Request, Response};

/// How `call`-style methods respond to backpressure rejections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries before a rejection is surfaced to the caller.
    pub budget: u32,
    /// Ceiling on any single backoff sleep, in milliseconds.
    pub cap_ms: u64,
    /// Seed for the jitter stream — same seed, same backoff schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            budget: 6,
            cap_ms: 400,
            seed: 0x5eed_c11e,
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry `attempt` (0-based) of a request the
    /// server asked to delay by `hint_ms`: exponential growth from the
    /// hint, capped, then jittered into `[base/2, base]` so rejected
    /// clients decorrelate.  Pure — the schedule replays from the seed.
    pub fn backoff_ms(&self, attempt: u32, hint_ms: u64, rng: &mut SplitMix64) -> u64 {
        let base = hint_ms
            .max(1)
            .saturating_mul(1 << attempt.min(10))
            .min(self.cap_ms.max(1));
        base / 2 + rng.below(base / 2 + 1)
    }
}

/// A connected client.
pub struct ServeClient {
    r: Box<dyn Read + Send>,
    w: Box<dyn Write + Send>,
    child: Option<Child>,
    next_id: u64,
    pending: HashMap<u64, Response>,
    retry: Option<RetryPolicy>,
    rng: SplitMix64,
    retries: u64,
}

fn protocol_error(detail: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.into())
}

impl ServeClient {
    /// Connects to a TCP server at `addr` (`"127.0.0.1:PORT"`).
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: &str) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let r = BufReader::new(stream.try_clone()?);
        Ok(ServeClient::from_parts(Box::new(r), Box::new(stream), None))
    }

    /// Spawns `cmd args... --stdio` as a child process and speaks the
    /// protocol over its stdin/stdout.
    ///
    /// # Errors
    ///
    /// Propagates the spawn failure.
    pub fn spawn_stdio(cmd: &str, args: &[&str]) -> io::Result<ServeClient> {
        let mut child = Command::new(cmd)
            .args(args)
            .arg("--stdio")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let w = child
            .stdin
            .take()
            .ok_or_else(|| protocol_error("no stdin"))?;
        let r = child
            .stdout
            .take()
            .ok_or_else(|| protocol_error("no stdout"))?;
        Ok(ServeClient::from_parts(
            Box::new(BufReader::new(r)),
            Box::new(w),
            Some(child),
        ))
    }

    fn from_parts(
        r: Box<dyn Read + Send>,
        w: Box<dyn Write + Send>,
        child: Option<Child>,
    ) -> ServeClient {
        let retry = RetryPolicy::default();
        ServeClient {
            r,
            w,
            child,
            next_id: 0,
            pending: HashMap::new(),
            rng: SplitMix64::new(retry.seed),
            retry: Some(retry),
            retries: 0,
        }
    }

    /// Replaces the backpressure retry policy (`None` surfaces raw
    /// rejections, the pre-durability behavior).  Reseeds the jitter
    /// stream.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        if let Some(p) = &policy {
            self.rng = SplitMix64::new(p.seed);
        }
        self.retry = policy;
    }

    /// Backoff retries performed so far (for fairness tests).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Sends a request without waiting; returns its id for
    /// [`ServeClient::recv_id`].
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn send(&mut self, op: Op) -> io::Result<u64> {
        self.next_id += 1;
        let id = self.next_id;
        let req = Request { id, op };
        write_frame(&mut self.w, req.to_json().to_string().as_bytes())?;
        Ok(id)
    }

    /// Reads the next response off the wire, whatever its id.
    ///
    /// # Errors
    ///
    /// EOF or a malformed frame.
    pub fn recv(&mut self) -> io::Result<Response> {
        let frame = read_frame(&mut self.r)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let text = String::from_utf8(frame).map_err(|e| protocol_error(e.to_string()))?;
        let parsed = json::parse(&text).map_err(protocol_error)?;
        Response::from_json(&parsed).map_err(protocol_error)
    }

    /// The response to request `id`, buffering out-of-order arrivals.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeClient::recv`] failures.
    pub fn recv_id(&mut self, id: u64) -> io::Result<Response> {
        if let Some(resp) = self.pending.remove(&id) {
            return Ok(resp);
        }
        loop {
            let resp = self.recv()?;
            if resp.id == id {
                return Ok(resp);
            }
            self.pending.insert(resp.id, resp);
        }
    }

    fn call(&mut self, op: Op) -> io::Result<Response> {
        let mut attempt = 0u32;
        loop {
            let id = self.send(op.clone())?;
            let resp = self.recv_id(id)?;
            let retriable = !resp.ok && resp.retry_after_ms > 0;
            let Some(policy) = self.retry.filter(|p| retriable && attempt < p.budget) else {
                return Ok(resp);
            };
            let sleep_ms = policy.backoff_ms(attempt, resp.retry_after_ms, &mut self.rng);
            self.retries += 1;
            std::thread::sleep(Duration::from_millis(sleep_ms));
            attempt += 1;
        }
    }

    /// Authenticates this connection to a tenant.
    ///
    /// # Errors
    ///
    /// Transport failures; an auth rejection comes back as a normal
    /// `ok = false` response.
    pub fn hello(&mut self, tenant: &str, token: Option<&str>) -> io::Result<Response> {
        self.call(Op::Hello {
            tenant: tenant.to_string(),
            token: token.map(str::to_string),
        })
    }

    /// Compiles a unit into the tenant's namespace.
    ///
    /// # Errors
    ///
    /// Transport failures only; compile failures come back in the
    /// response.
    pub fn compile(&mut self, unit: &str, source: &str) -> io::Result<Response> {
        self.call(Op::Compile {
            unit: unit.to_string(),
            source: source.to_string(),
        })
    }

    /// Runs a compiled function with printed-datum arguments.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn run(&mut self, entry: &str, args: &[&str]) -> io::Result<Response> {
        self.call(Op::Run {
            entry: entry.to_string(),
            args: args.iter().map(|a| (*a).to_string()).collect(),
        })
    }

    /// Fetches a function's compilation dossier.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn explain(&mut self, name: &str) -> io::Result<Response> {
        self.call(Op::Explain {
            name: name.to_string(),
        })
    }

    /// Liveness probe through the full queue path.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn ping(&mut self) -> io::Result<Response> {
        self.call(Op::Ping)
    }

    /// Forces a durable snapshot of the tenant's state; the response's
    /// `durable` flag reports whether it reached stable storage.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn sync(&mut self) -> io::Result<Response> {
        self.call(Op::Sync)
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn shutdown(&mut self) -> io::Result<Response> {
        self.call(Op::Shutdown)
    }

    /// Waits for a spawned stdio server to exit; `Ok(true)` when the
    /// child exited cleanly, `Ok(false)` for TCP clients (nothing to
    /// wait for).
    ///
    /// # Errors
    ///
    /// Propagates `wait(2)` failures.
    pub fn wait_exit(&mut self) -> io::Result<bool> {
        match self.child.take() {
            Some(mut child) => {
                drop(std::mem::replace(&mut self.w, Box::new(io::sink()))); // close the child's stdin so EOF reaches its frame loop
                let status = child.wait()?;
                Ok(status.success())
            }
            None => Ok(false),
        }
    }
}
