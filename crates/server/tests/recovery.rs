//! Crash-recovery edges: the durability contract under clean
//! restarts, randomized kill points, adversarial journals, and the
//! seeded journal fault sites.
//!
//! The contract under test: an acknowledged-durable mutation survives
//! any crash; a mutation never acknowledged durable is cleanly absent
//! after recovery (never half-applied); and recovered state equals
//! the acknowledged prefix, byte for byte.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use s1lisp_driver::{CompileService, FaultPlan, FaultSite, ServiceConfig, SourceUnit};
use s1lisp_server::{
    tenant_fingerprint, Body, CompileServer, ServeClient, ServerConfig, ServerHandle,
};
use s1lisp_trace::rng::SplitMix64;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn state_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::SeqCst);
    let dir =
        std::env::temp_dir().join(format!("s1lisp-recovery-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        state_dir: Some(dir.to_path_buf()),
        // Keep every record in the journal so tests can truncate it at
        // arbitrary byte offsets; snapshot cadence has its own test.
        snapshot_every: u64::MAX,
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> ServerHandle {
    CompileServer::new(config)
        .serve_tcp(0)
        .expect("bind an ephemeral port")
}

fn connect(handle: &ServerHandle) -> ServeClient {
    ServeClient::connect(&format!("127.0.0.1:{}", handle.port())).expect("connect")
}

fn unit_source(i: usize) -> String {
    format!("(defun f{i} (x) (+ x {i}))")
}

fn tenant_dir(state_dir: &Path, tenant: &str) -> PathBuf {
    state_dir.join(format!("{:016x}", tenant_fingerprint(tenant)))
}

/// Byte boundaries after each complete journal record.
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut off = 0;
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let end = off + 8 + len;
        if end > bytes.len() {
            break;
        }
        ends.push(end);
        off = end;
    }
    ends
}

fn sources_of(server: &CompileServer, tenant: &str) -> Vec<String> {
    let state = server.tenant(tenant).expect("tenant recovered");
    let st = state.lock().unwrap();
    st.sources.clone()
}

#[test]
fn clean_restart_recovers_sources_artifacts_and_runs() {
    let dir = state_dir("clean");
    let handle = start(durable_config(&dir));
    let mut client = connect(&handle);
    assert!(client.hello("alice", None).unwrap().ok);
    let mut acked_artifacts = Vec::new();
    for i in 0..5 {
        let resp = client.compile(&format!("u{i}"), &unit_source(i)).unwrap();
        assert!(resp.ok && resp.durable, "compile {i} must ack durable");
        let Body::Compile { artifacts, .. } = &resp.body else {
            panic!("compile body expected");
        };
        acked_artifacts.extend(artifacts.iter().map(|a| a.to_json().to_string()));
    }
    // Specials flow through the journal too.
    let resp = client
        .compile(
            "decl",
            "(proclaim (quote (special *mode*)))\n(defvar *mode* 7)",
        )
        .unwrap();
    assert!(resp.ok && resp.durable);
    handle.shutdown();
    handle.join();

    // Restart on the same state dir: everything is back before any
    // request is served.
    let recovered = CompileServer::new(durable_config(&dir));
    assert_eq!(recovered.tenant_names(), ["alice"]);
    {
        let state = recovered.tenant("alice").expect("alice recovered");
        let st = state.lock().unwrap();
        assert_eq!(st.sources.len(), 6);
        assert_eq!(st.sources[2], unit_source(2));
        assert_eq!(st.specials, ["*mode*"]);
        assert_eq!(st.globals, [("*mode*".to_string(), "7".to_string())]);
        assert_eq!(st.incidents, 0);
        assert!(st.pending_incident.is_none());
        // Recovered artifacts are byte-identical to the acknowledged
        // ones.
        for acked in &acked_artifacts {
            let name = acked
                .split("\"name\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .unwrap();
            let got = st.artifacts.get(name).expect("artifact recovered");
            assert_eq!(&got.to_json().to_string(), acked, "artifact {name}");
        }
        // ... and to a cold compile_batch of the same units (the
        // chaos-drill contract, checked here in-process).
        let cold = CompileService::new(ServiceConfig::default())
            .compile_batch(&[SourceUnit::new("u3", unit_source(3))]);
        assert_eq!(
            st.artifacts.get("f3").unwrap().to_json().to_string(),
            cold.artifacts[0].to_json().to_string()
        );
    }
    // A recovered server serves: run replays the recovered sources.
    let handle = recovered.serve_tcp(0).expect("bind");
    let mut client = connect(&handle);
    assert!(client.hello("alice", None).unwrap().ok);
    let run = client.run("f4", &["38"]).unwrap();
    assert_eq!(run.body, Body::Run { value: "42".into() });
    handle.shutdown();
    handle.join();

    // Recovery is idempotent: a third cold start sees the same world.
    let again = CompileServer::new(durable_config(&dir));
    assert_eq!(sources_of(&again, "alice").len(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_kill_point_recovers_exactly_the_acknowledged_prefix() {
    // Build a journal of 6 acknowledged mutations, then simulate
    // kill -9 at seeded random byte offsets by truncating a copy of
    // the journal.  Each cut must recover a clean prefix: whole
    // records survive, the torn one vanishes, nothing else appears.
    let dir = state_dir("killpoints");
    let handle = start(durable_config(&dir));
    let mut client = connect(&handle);
    assert!(client.hello("alice", None).unwrap().ok);
    let sources: Vec<String> = (0..6).map(unit_source).collect();
    for (i, src) in sources.iter().enumerate() {
        let resp = client.compile(&format!("u{i}"), src).unwrap();
        assert!(resp.ok && resp.durable);
    }
    handle.shutdown();
    handle.join();

    let alice_dir = tenant_dir(&dir, "alice");
    let journal = std::fs::read(alice_dir.join("journal.log")).unwrap();
    let snapshot = std::fs::read(alice_dir.join("snapshot.json")).unwrap();
    let ends = record_ends(&journal);
    assert_eq!(ends.len(), 6, "all six mutations journaled");

    let mut rng = SplitMix64::new(0x5EED_0C75);
    let mut cuts: Vec<usize> = (0..24).map(|_| rng.range_usize(0, journal.len())).collect();
    cuts.push(0); // the zero-length journal
    cuts.push(journal.len()); // the uncut journal
    for cut in cuts {
        let trial = state_dir("killpoint-trial");
        let trial_tenant = tenant_dir(&trial, "alice");
        std::fs::create_dir_all(&trial_tenant).unwrap();
        std::fs::write(trial_tenant.join("snapshot.json"), &snapshot).unwrap();
        std::fs::write(trial_tenant.join("journal.log"), &journal[..cut]).unwrap();
        let recovered = CompileServer::new(durable_config(&trial));
        let whole = ends.iter().filter(|&&e| e <= cut).count();
        let got = sources_of(&recovered, "alice");
        assert_eq!(got, &sources[..whole], "cut at byte {cut}");
        // A kill is never misread as corruption.
        let state = recovered.tenant("alice").unwrap();
        let st = state.lock().unwrap();
        assert_eq!(st.incidents, 0, "cut at byte {cut} quarantined");
        assert!(st.pending_incident.is_none());
        drop(st);
        let _ = std::fs::remove_dir_all(&trial);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adversarial_journals_follow_the_recovery_ladder() {
    // One clean run to get authentic on-disk state to corrupt.
    let dir = state_dir("adversarial");
    let handle = start(durable_config(&dir));
    let mut client = connect(&handle);
    assert!(client.hello("alice", None).unwrap().ok);
    let sources: Vec<String> = (0..4).map(unit_source).collect();
    for (i, src) in sources.iter().enumerate() {
        assert!(client.compile(&format!("u{i}"), src).unwrap().ok);
    }
    handle.shutdown();
    handle.join();
    let alice_dir = tenant_dir(&dir, "alice");
    let journal = std::fs::read(alice_dir.join("journal.log")).unwrap();
    let snapshot = std::fs::read(alice_dir.join("snapshot.json")).unwrap();
    let ends = record_ends(&journal);

    let trial = |name: &str, journal_bytes: &[u8], snapshot_bytes: &[u8]| {
        let t = state_dir(name);
        let td = tenant_dir(&t, "alice");
        std::fs::create_dir_all(&td).unwrap();
        std::fs::write(td.join("snapshot.json"), snapshot_bytes).unwrap();
        std::fs::write(td.join("journal.log"), journal_bytes).unwrap();
        t
    };

    // Bit-flipped CRC in the FINAL record: a torn tail, not
    // corruption — the prefix survives.
    let mut torn = journal.clone();
    let last_payload = ends[2] + 8;
    torn[last_payload] ^= 0x40;
    let t = trial("torn", &torn, &snapshot);
    let server = CompileServer::new(durable_config(&t));
    assert_eq!(sources_of(&server, "alice"), &sources[..3]);
    assert_eq!(
        server
            .metrics_snapshot()
            .counter("server.recovery.torn_tails"),
        Some(1)
    );
    let _ = std::fs::remove_dir_all(&t);

    // Bit-flipped CRC MID-LOG: acknowledged history is gone — the
    // tenant is quarantined to a fresh namespace with a recovery
    // incident, and the evidence is renamed aside, not deleted.
    let mut corrupt = journal.clone();
    corrupt[ends[0] + 8] ^= 0x40; // inside record 1 of 4
    let t = trial("corrupt", &corrupt, &snapshot);
    let server = CompileServer::new(durable_config(&t));
    {
        let state = server.tenant("alice").expect("quarantined, not dropped");
        let st = state.lock().unwrap();
        assert!(st.sources.is_empty());
        assert_eq!(st.incidents, 1);
        assert_eq!(st.pending_incident.as_deref(), Some("recovery"));
    }
    let td = tenant_dir(&t, "alice");
    assert!(td.join("journal.log.quarantined-0").exists());
    assert!(td.join("snapshot.json.quarantined-0").exists());
    assert_eq!(
        server
            .metrics_snapshot()
            .counter("server.recovery.quarantined"),
        Some(1)
    );
    // The recovery incident is surfaced on the tenant's first
    // response after the restart, then cleared.
    let handle = server.serve_tcp(0).expect("bind");
    let mut client = connect(&handle);
    assert!(client.hello("alice", None).unwrap().ok);
    let first = client.ping().unwrap();
    assert_eq!(first.slo.incident_kind.as_deref(), Some("recovery"));
    assert!(client.ping().unwrap().slo.incident_kind.is_none());
    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&t);

    // Zero-length SNAPSHOT with an intact journal: the snapshot cannot
    // be trusted, so the tenant (named by its journal records) is
    // quarantined rather than half-loaded.
    let t = trial("zerosnap", &journal, b"");
    let server = CompileServer::new(durable_config(&t));
    {
        let state = server.tenant("alice").expect("named by the journal");
        let st = state.lock().unwrap();
        assert!(st.sources.is_empty());
        assert_eq!(st.pending_incident.as_deref(), Some("recovery"));
    }
    let _ = std::fs::remove_dir_all(&t);

    // Duplicate record ids: a replayed-once record is applied once.
    let mut duped = journal.clone();
    duped.extend_from_slice(&journal[..ends[0]]); // re-append record 1
    let t = trial("dupes", &duped, &snapshot);
    let server = CompileServer::new(durable_config(&t));
    assert_eq!(sources_of(&server, "alice"), sources);
    assert_eq!(
        server
            .metrics_snapshot()
            .counter("server.recovery.stale_records"),
        Some(1)
    );
    let _ = std::fs::remove_dir_all(&t);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_write_faults_make_responses_nondurable_and_recovery_honest() {
    // Arm only the journal-write site: compiles still succeed in
    // memory, but some appends exhaust their retries and the response
    // says durable: false.  After a restart, exactly the durable
    // acknowledgements are back — the flag is the contract.
    let dir = state_dir("writefault");
    let mut config = durable_config(&dir);
    config.service.fault_plan = Some(FaultPlan::new(0xD06).arm(FaultSite::JournalWrite, 500));
    let handle = start(config);
    let mut client = connect(&handle);
    assert!(client.hello("alice", None).unwrap().ok);
    let mut durable_sources = Vec::new();
    let mut nondurable = 0;
    for i in 0..12 {
        let src = unit_source(i);
        let resp = client.compile(&format!("u{i}"), &src).unwrap();
        assert!(resp.ok, "compile {i} still serves from memory");
        if resp.durable {
            durable_sources.push(src);
        } else {
            nondurable += 1;
        }
    }
    assert!(nondurable > 0, "seed 0xD06 at 500 permille must doom some");
    assert!(!durable_sources.is_empty(), "and not all");
    handle.shutdown();
    handle.join();

    let recovered = CompileServer::new(durable_config(&dir));
    assert_eq!(sources_of(&recovered, "alice"), durable_sources);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_corrupt_fault_site_quarantines_from_its_seed() {
    // A clean on-disk state plus an armed journal-corrupt site: the
    // injected read-time corruption quarantines the tenant while the
    // disk stays intact — rerunning recovery without the plan gets
    // everything back.
    let dir = state_dir("corruptsite");
    let handle = start(durable_config(&dir));
    let mut client = connect(&handle);
    assert!(client.hello("alice", None).unwrap().ok);
    for i in 0..3 {
        assert!(
            client
                .compile(&format!("u{i}"), &unit_source(i))
                .unwrap()
                .ok
        );
    }
    handle.shutdown();
    handle.join();

    // Copy the state aside first: quarantine renames the real files.
    let drill = state_dir("corruptsite-drill");
    let src_td = tenant_dir(&dir, "alice");
    let dst_td = tenant_dir(&drill, "alice");
    std::fs::create_dir_all(&dst_td).unwrap();
    for f in ["journal.log", "snapshot.json"] {
        std::fs::copy(src_td.join(f), dst_td.join(f)).unwrap();
    }
    let mut config = durable_config(&drill);
    config.service.fault_plan = Some(FaultPlan::new(7).arm(FaultSite::JournalCorrupt, 1000));
    let server = CompileServer::new(config);
    {
        let state = server.tenant("alice").expect("quarantined");
        let st = state.lock().unwrap();
        assert!(st.sources.is_empty());
        assert_eq!(st.pending_incident.as_deref(), Some("recovery"));
    }
    // The original, uninjected state dir still recovers fully.
    let clean = CompileServer::new(durable_config(&dir));
    assert_eq!(sources_of(&clean, "alice").len(), 3);
    let _ = std::fs::remove_dir_all(&drill);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshots_compact_the_journal_and_sync_forces_one() {
    let dir = state_dir("snapshots");
    let mut config = durable_config(&dir);
    config.snapshot_every = 2;
    let handle = start(config);
    let mut client = connect(&handle);
    assert!(client.hello("alice", None).unwrap().ok);
    for i in 0..5 {
        assert!(
            client
                .compile(&format!("u{i}"), &unit_source(i))
                .unwrap()
                .ok
        );
    }
    // 5 appends at cadence 2: snapshots after #2 and #4, one record
    // left in the journal.
    let alice_dir = tenant_dir(&dir, "alice");
    let journal = std::fs::read(alice_dir.join("journal.log")).unwrap();
    assert_eq!(
        record_ends(&journal).len(),
        1,
        "journal holds only the tail"
    );
    // An explicit sync absorbs the rest.
    let synced = client.sync().unwrap();
    assert!(synced.ok && synced.durable);
    assert_eq!(
        std::fs::read(alice_dir.join("journal.log")).unwrap().len(),
        0
    );
    handle.shutdown();
    handle.join();
    // Snapshot-only recovery (no journal replay) still has everything.
    let recovered = CompileServer::new(durable_config(&dir));
    assert_eq!(sources_of(&recovered, "alice").len(), 5);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot taken while acknowledging a unit holds that unit's
/// artifacts: recovered from snapshots alone (cadence 1, no sync), the
/// tenant still has every function it was acknowledged for.
#[test]
fn a_snapshot_holds_the_artifacts_of_the_unit_that_took_it() {
    let dir = state_dir("snapshot-artifacts");
    let mut config = durable_config(&dir);
    config.snapshot_every = 1;
    let handle = start(config);
    let mut client = connect(&handle);
    assert!(client.hello("alice", None).unwrap().ok);
    for i in 0..2 {
        let resp = client.compile(&format!("u{i}"), &unit_source(i)).unwrap();
        assert!(resp.ok && resp.durable);
    }
    handle.shutdown();
    handle.join();
    let recovered = CompileServer::new(durable_config(&dir));
    let state = recovered.tenant("alice").expect("tenant recovered");
    let mut names: Vec<String> = state.lock().unwrap().artifacts.keys().cloned().collect();
    names.sort();
    assert_eq!(names, ["f0", "f1"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn memory_only_servers_never_claim_durability() {
    let handle = start(ServerConfig::default());
    let mut client = connect(&handle);
    assert!(client.hello("alice", None).unwrap().ok);
    let resp = client.compile("u0", &unit_source(0)).unwrap();
    assert!(resp.ok && !resp.durable);
    let synced = client.sync().unwrap();
    assert!(synced.ok && !synced.durable);
    handle.shutdown();
    handle.join();
}
