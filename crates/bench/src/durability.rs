//! The durability demonstration record (`report --json durability`).
//!
//! One scripted crash drill against real on-disk state: a durable
//! server acknowledges a burst of mutations for two tenants, the
//! process "dies", and the journal files are damaged the two ways the
//! recovery ladder distinguishes — a torn tail (the fsync raced the
//! crash) for one tenant, a bit flip *inside* the log for the other.
//! A second server recovers the directory and the record reports what
//! survived: the torn tenant keeps every record before the tear with
//! byte-identical artifacts, the corrupt tenant is quarantined with a
//! pending `recovery` incident.  The script is deterministic, so the
//! record's *shape* never varies (`tests/golden_json.rs` pins it);
//! only byte counts and timings do.

use std::path::PathBuf;

use s1lisp_server::{tenant_fingerprint, Body, CompileServer, ServeClient, ServerConfig};
use s1lisp_trace::json::Json;

/// Mutations acknowledged per tenant before the simulated crash.
const MUTATIONS: usize = 6;

fn unit_source(i: usize) -> String {
    format!("(defun f{i} (x) (+ x {i}))")
}

fn journal_path(state_dir: &std::path::Path, tenant: &str) -> PathBuf {
    state_dir
        .join(format!("{:016x}", tenant_fingerprint(tenant)))
        .join("journal.log")
}

/// Builds the `durability` record: a durable burst, a simulated crash
/// with a torn tail and a mid-log corruption, and the recovery verdict
/// with the journal/recovery counters from both server lifetimes.
///
/// # Panics
///
/// Panics when the in-process server cannot bind, a transport call
/// fails, or the scripted damage cannot be applied — the record is a
/// demonstration, not a fault drill.
pub fn durability_record() -> Json {
    let state_dir = std::env::temp_dir().join(format!(
        "s1lisp-durability-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&state_dir);

    // Life one: a durable server acks a burst for two tenants.
    // `snapshot_every` is effectively off so every mutation is still in
    // the journal when the "crash" damages it.
    let config = || ServerConfig {
        state_dir: Some(state_dir.clone()),
        snapshot_every: u64::MAX,
        ..ServerConfig::default()
    };
    let handle = CompileServer::new(config())
        .serve_tcp(0)
        .expect("bind an ephemeral port");
    let addr = format!("127.0.0.1:{}", handle.port());
    let mut durable_acks = 0u64;
    let mut acked_artifacts: Vec<(String, String)> = Vec::new();
    for tenant in ["torn", "flipped"] {
        let mut client = ServeClient::connect(&addr).expect("connect");
        assert!(client.hello(tenant, None).expect("hello").ok);
        for i in 0..MUTATIONS {
            let resp = client
                .compile(&format!("u{i}"), &unit_source(i))
                .expect("compile");
            assert!(resp.ok, "{:?}", resp.error);
            if resp.durable {
                durable_acks += 1;
            }
            if tenant == "torn" {
                let Body::Compile { artifacts, .. } = &resp.body else {
                    panic!("compile body expected");
                };
                acked_artifacts.extend(
                    artifacts
                        .iter()
                        .map(|a| (a.name.clone(), a.to_json().to_string())),
                );
            }
        }
    }
    handle.shutdown();
    let life_one = handle.metrics_snapshot();
    handle.join();

    // The crash: tear the last journal record off one tenant's log and
    // flip a payload bit inside the other's.
    let torn_log = journal_path(&state_dir, "torn");
    let bytes = std::fs::read(&torn_log).expect("read torn journal");
    std::fs::write(&torn_log, &bytes[..bytes.len() - 3]).expect("tear the tail");
    let flipped_log = journal_path(&state_dir, "flipped");
    let mut bytes = std::fs::read(&flipped_log).expect("read flipped journal");
    bytes[8] ^= 0x80; // first payload byte of record 0: CRC breaks mid-log
    std::fs::write(&flipped_log, bytes).expect("flip a bit");

    // Life two: recovery walks the ladder before any request is served.
    let recovered = CompileServer::new(config());
    let recovery = recovered.metrics_snapshot();
    let torn_state = recovered.tenant("torn").expect("torn tenant recovered");
    let torn = torn_state.lock().expect("tenant lock");
    assert_eq!(torn.sources.len(), MUTATIONS - 1, "tail record torn off");
    let byte_identical = acked_artifacts
        .iter()
        .take(MUTATIONS - 1)
        .all(|(name, acked)| {
            torn.artifacts
                .get(name)
                .is_some_and(|got| &got.to_json().to_string() == acked)
        });
    let flipped_state = recovered.tenant("flipped").expect("quarantined tenant");
    let flipped = flipped_state.lock().expect("tenant lock");

    let record = Json::obj(vec![
        ("id", Json::str("durability")),
        (
            "title",
            Json::str("write-ahead journal: torn-tail recovery and mid-log quarantine"),
        ),
        (
            "tenants",
            Json::Arr(vec![Json::str("torn"), Json::str("flipped")]),
        ),
        ("acked_mutations", Json::uint(2 * MUTATIONS as u64)),
        ("durable_acks", Json::uint(durable_acks)),
        (
            "torn",
            Json::obj(vec![
                ("recovered_sources", Json::uint(torn.sources.len() as u64)),
                ("byte_identical_artifacts", Json::Bool(byte_identical)),
                ("incidents", Json::uint(torn.incidents)),
            ]),
        ),
        (
            "flipped",
            Json::obj(vec![
                (
                    "recovered_sources",
                    Json::uint(flipped.sources.len() as u64),
                ),
                ("incidents", Json::uint(flipped.incidents)),
                (
                    "pending_incident",
                    Json::str(flipped.pending_incident.as_deref().unwrap_or("")),
                ),
            ]),
        ),
        (
            "journal",
            life_one.counters_obj(
                "server.journal.",
                &["appends", "bytes", "snapshots", "io_errors"],
            ),
        ),
        (
            "recovery",
            recovery.counters_obj(
                "server.recovery.",
                &[
                    "tenants",
                    "replayed_records",
                    "torn_tails",
                    "corrupt_journals",
                    "stale_records",
                    "quarantined",
                    "replay_failures",
                ],
            ),
        ),
    ]);
    drop(torn);
    drop(flipped);
    drop(recovered);
    let _ = std::fs::remove_dir_all(&state_dir);
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_record_walks_both_ladder_rungs() {
        let rec = durability_record();
        // Every mutation was acknowledged durable before the crash.
        assert_eq!(
            rec.get("durable_acks").and_then(Json::as_int),
            Some(2 * MUTATIONS as i64)
        );
        // The torn tenant kept the acked prefix, byte for byte.
        let torn = rec.get("torn").unwrap();
        assert_eq!(
            torn.get("recovered_sources").and_then(Json::as_int),
            Some(MUTATIONS as i64 - 1)
        );
        assert_eq!(
            torn.get("byte_identical_artifacts"),
            Some(&Json::Bool(true))
        );
        // The mid-log flip quarantined its tenant with one pending
        // recovery incident and no surviving sources.
        let flipped = rec.get("flipped").unwrap();
        assert_eq!(
            flipped.get("recovered_sources").and_then(Json::as_int),
            Some(0)
        );
        assert_eq!(flipped.get("incidents").and_then(Json::as_int), Some(1));
        assert_eq!(
            flipped.get("pending_incident").and_then(Json::as_str),
            Some("recovery")
        );
        // The ladder counters agree with the story.
        let recovery = rec.get("recovery").unwrap();
        assert_eq!(recovery.get("torn_tails").and_then(Json::as_int), Some(1));
        assert_eq!(
            recovery.get("corrupt_journals").and_then(Json::as_int),
            Some(1)
        );
        assert_eq!(recovery.get("quarantined").and_then(Json::as_int), Some(1));
    }
}
