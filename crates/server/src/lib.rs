//! The compile server: a long-lived, multi-tenant daemon over the
//! [`s1lisp_driver::CompileService`].
//!
//! The paper's compiler is a batch program: read a file, compile it,
//! exit.  This crate keeps the same pipeline resident and serves it to
//! many concurrent clients, the way a Lisp machine's compiler lived
//! inside the running image:
//!
//! * **Transport** ([`proto`]) — length-prefixed JSON frames over
//!   either a TCP socket or stdin/stdout (for tests and CI), with
//!   pipelined, out-of-order responses matched by request id.
//! * **Tenancy** ([`tenant`]) — each connection authenticates to a
//!   tenant namespace with its own specials ordering, globals, and
//!   compiled functions; cache keys are salted by a tenant fingerprint
//!   so tenants never observe each other's artifacts.
//! * **Backpressure** ([`queue`]) — a bounded admission queue with
//!   deficit-round-robin fairness between tenants; when full, requests
//!   are *rejected with a retry hint*, never dropped silently.
//! * **Per-request SLOs** ([`server`]) — every response reports
//!   `{degraded, incident_kind, queue_wait_us, wall_us}`; tenants
//!   accrue an incident budget and are demoted to transformations-off
//!   compilation once it is exhausted.
//! * **Durability** ([`journal`]) — with `--state-dir`, every
//!   namespace mutation is fsynced to a per-tenant write-ahead journal
//!   before it is acknowledged, snapshots compact the journal, and a
//!   restarted server recovers every tenant — tolerating torn tails
//!   and quarantining mid-log corruption — before accepting requests.
//!
//! ```no_run
//! use s1lisp_server::{CompileServer, ServeClient, ServerConfig};
//!
//! let handle = CompileServer::new(ServerConfig::default()).serve_tcp(0).unwrap();
//! let mut client = ServeClient::connect(&format!("127.0.0.1:{}", handle.port())).unwrap();
//! client.hello("alice", None).unwrap();
//! let resp = client.compile("u1", "(defun sq (x) (* x x))").unwrap();
//! assert!(resp.ok);
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod journal;
pub mod proto;
pub mod queue;
pub mod server;
pub mod tenant;

pub use client::{RetryPolicy, ServeClient};
pub use journal::{scan_journal, JournalRecord, JournalScan, TenantJournal};
pub use proto::{read_frame, write_frame, Body, Op, Request, Response, Slo, WireIncident};
pub use queue::{AdmissionQueue, QueueConfig, QueueFull};
pub use server::{CompileServer, ServerConfig, ServerHandle, Stopper};
pub use tenant::{tenant_fingerprint, TenantRegistry, TenantState};
