//! The per-tenant write-ahead journal and snapshot machinery.
//!
//! # Durability contract
//!
//! Every namespace-mutating request (a successful `compile` of
//! `defun`s/`defvar`s/`proclaim`s) is appended to
//! `<state_dir>/<tenant_fp>/journal.log` and fsynced **before** the
//! success response is framed.  An acknowledged mutation therefore
//! survives `kill -9`; a mutation whose record never reached stable
//! storage was never acknowledged as durable.  Periodic snapshots
//! (`snapshot.json`, temp-then-rename + fsync via the shared
//! [`fsio`] discipline) absorb the journal and truncate it, so recovery
//! replays a short tail instead of the tenant's whole history.
//!
//! # Record format
//!
//! ```text
//! [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes of JSON]
//! payload = {"seq":N,"tenant":"...","unit":"...","source":"..."}
//! ```
//!
//! `seq` increases strictly per tenant; `applied_seq` in the snapshot
//! names the last record the snapshot absorbed, so records at or below
//! it (a crash between snapshot write and journal truncation, or an
//! adversarially duplicated record) are recognized as stale and
//! skipped.
//!
//! # Recovery ladder
//!
//! [`scan_journal`] classifies a journal into exactly one of:
//!
//! 1. **Clean** — every record frames, checks, and parses.
//! 2. **Torn tail** — the *final* record is incomplete or fails its
//!    CRC: the write was interrupted mid-append.  The torn record was
//!    never acknowledged; it is dropped, counted, and recovery keeps
//!    the intact prefix.
//! 3. **Corrupt** — a record *before* the end fails: bytes that were
//!    once acknowledged are gone.  The tenant cannot be trusted
//!    piecemeal; the caller quarantines it to a fresh namespace (an
//!    `IncidentKind::Recovery` incident) rather than poisoning the
//!    process or silently serving a hole in history.
//!
//! The seeded fault plan's `journal-write` site dooms append attempts
//! (retried and strike-counted like cache I/O); `journal-corrupt`
//! flips a payload byte at *scan* time, deterministically per record,
//! so recovery drills replay exactly from their seed while the on-disk
//! log stays intact.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use s1lisp::Artifact;
use s1lisp_driver::fsio::{self, IO_ATTEMPTS};
use s1lisp_driver::{FaultPlan, FaultSite};
use s1lisp_trace::json::{self, Json};

use crate::tenant::TenantState;

/// Refuse journal records above this size (matches the wire frame cap:
/// a corrupt length prefix must not look like an allocation request).
pub const MAX_RECORD: usize = 16 << 20;

/// Consecutive exhausted-retry append failures that disable a tenant's
/// journal for the rest of the process (responses turn non-durable;
/// the namespace keeps serving from memory).
pub const JOURNAL_STRIKE_LIMIT: u64 = 4;

/// CRC-32 (IEEE) over `bytes` — the frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc_table();
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// One journaled mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// Strictly increasing per-tenant sequence number.
    pub seq: u64,
    /// The tenant name (kept in every record so a tenant directory is
    /// self-describing even when its snapshot is unreadable).
    pub tenant: String,
    /// The compile request's unit label.
    pub unit: String,
    /// The compiled source.
    pub source: String,
}

impl JournalRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seq", Json::uint(self.seq)),
            ("tenant", Json::str(&self.tenant)),
            ("unit", Json::str(&self.unit)),
            ("source", Json::str(&self.source)),
        ])
    }

    fn from_json(j: &Json) -> Option<JournalRecord> {
        Some(JournalRecord {
            seq: j.get_u64("seq")?,
            tenant: j.get_str("tenant")?,
            unit: j.get_str("unit")?,
            source: j.get_str("source")?,
        })
    }
}

/// Encodes one record as a CRC-framed, length-prefixed journal entry.
pub fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let payload = rec.to_json().to_string().into_bytes();
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("record bounded")
            .to_le_bytes(),
    );
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// The verdict of scanning one journal file.  See the module docs for
/// the recovery ladder the fields encode.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalScan {
    /// Valid records in order, stale sequence numbers skipped.
    pub records: Vec<JournalRecord>,
    /// A torn (incomplete or CRC-failing) final record was dropped.
    pub torn_tail: bool,
    /// A record *before* the end failed: acknowledged history is gone
    /// and the tenant must be quarantined.
    pub corrupt: bool,
    /// Records skipped because their `seq` was not past the newest
    /// already seen (duplicates, or a pre-truncation remnant at or
    /// below the snapshot's `applied_seq`).
    pub stale: u64,
}

/// Scans raw journal bytes.  Records with `seq <= min_seq` (already in
/// the snapshot) are counted as stale and skipped.  `corrupt_probe`
/// is the seeded `journal-corrupt` injection hook: given a record's
/// ordinal index, returning `true` flips a payload byte before the CRC
/// check — the on-disk bytes are never touched.
pub fn scan_journal(
    bytes: &[u8],
    min_seq: u64,
    corrupt_probe: impl Fn(usize) -> bool,
) -> JournalScan {
    let mut scan = JournalScan::default();
    let mut off = 0usize;
    let mut idx = 0usize;
    let mut last_seq = min_seq;
    while off < bytes.len() {
        if bytes.len() - off < 8 {
            scan.torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        let framable = len <= MAX_RECORD && bytes.len() - off - 8 >= len;
        if !framable {
            // An unframable length at the end of the file is an
            // interrupted append; anywhere else we cannot even find
            // the next record boundary.
            if len > MAX_RECORD && bytes.len() - off - 8 >= len.min(MAX_RECORD) {
                scan.corrupt = true;
            } else {
                scan.torn_tail = true;
            }
            break;
        }
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        let end = off + 8 + len;
        let mut payload = bytes[off + 8..end].to_vec();
        if corrupt_probe(idx) && !payload.is_empty() {
            let mid = payload.len() / 2;
            payload[mid] ^= 0x80;
        }
        let record = if crc32(&payload) == crc {
            std::str::from_utf8(&payload)
                .ok()
                .and_then(|t| json::parse(t).ok())
                .and_then(|j| JournalRecord::from_json(&j))
        } else {
            None
        };
        let Some(record) = record else {
            // A bad record that reaches EOF is a torn tail; one with
            // more journal after it means acknowledged history is gone.
            if end >= bytes.len() {
                scan.torn_tail = true;
            } else {
                scan.corrupt = true;
            }
            break;
        };
        if record.seq > last_seq {
            last_seq = record.seq;
            scan.records.push(record);
        } else {
            scan.stale += 1;
        }
        off = end;
        idx += 1;
    }
    scan
}

/// `snapshot.json` is the persisted form of [`TenantState`]: its
/// durable fields plus the journal sequence number the snapshot has
/// absorbed (`applied_seq`; recovery skips journal records at or below
/// it).  Artifacts are written sorted by name, for determinism.
impl TenantState {
    /// The `snapshot.json` body for this state as of journal position
    /// `applied_seq`.
    pub fn snapshot_json(&self, applied_seq: u64) -> Json {
        let mut artifacts: Vec<&Artifact> = self.artifacts.values().collect();
        artifacts.sort_by(|a, b| a.name.cmp(&b.name));
        let globals = self
            .globals
            .iter()
            .map(|(n, v)| Json::Arr(vec![Json::str(n), Json::str(v)]))
            .collect();
        Json::obj(vec![
            ("tenant", Json::str(&self.name)),
            ("fingerprint", Json::fingerprint(self.fingerprint)),
            ("applied_seq", Json::uint(applied_seq)),
            ("specials", Json::strs(&self.specials)),
            ("globals", Json::Arr(globals)),
            ("sources", Json::strs(&self.sources)),
            ("incidents", Json::uint(self.incidents)),
            ("degraded", Json::Bool(self.degraded)),
            (
                "artifacts",
                Json::Arr(artifacts.into_iter().map(Artifact::to_json).collect()),
            ),
        ])
    }

    /// Reads a [`TenantState::snapshot_json`] body back as the state
    /// and its `applied_seq`.  `None` on any missing or mistyped field
    /// — a corrupt snapshot quarantines the tenant rather than
    /// half-loading it.
    pub fn from_snapshot(j: &Json) -> Option<(TenantState, u64)> {
        let globals = j
            .get("globals")?
            .as_arr()?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr()?;
                Some((
                    pair.first()?.as_str()?.to_string(),
                    pair.get(1)?.as_str()?.to_string(),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        let artifacts = j
            .get("artifacts")?
            .as_arr()?
            .iter()
            .map(|a| Artifact::from_json(a).map(|a| (a.name.clone(), a)))
            .collect::<Option<HashMap<_, _>>>()?;
        let st = TenantState {
            name: j.get_str("tenant")?,
            fingerprint: j.get_fingerprint("fingerprint")?,
            specials: j.get_strs("specials")?,
            globals,
            sources: j.get_strs("sources")?,
            incidents: j.get_u64("incidents")?,
            degraded: j.get("degraded")?.as_bool()?,
            artifacts,
            ..TenantState::default()
        };
        Some((st, j.get_u64("applied_seq")?))
    }
}

/// The tenant's state directory under a server state dir.
pub fn tenant_dir(state_dir: &Path, fingerprint: u64) -> PathBuf {
    state_dir.join(format!("{fingerprint:016x}"))
}

/// One tenant's open journal: an append handle plus snapshot plumbing.
#[derive(Debug)]
pub struct TenantJournal {
    dir: PathBuf,
    file: File,
    fingerprint: u64,
    next_seq: u64,
    appended_since_snapshot: u64,
    fault_plan: Option<FaultPlan>,
    strikes: u64,
    disabled: bool,
}

impl TenantJournal {
    /// Opens (creating as needed) the journal for a tenant under
    /// `state_dir`.  The caller seeds `next_seq` via
    /// [`TenantJournal::set_next_seq`] after recovery; a fresh tenant
    /// starts at 1.
    ///
    /// # Errors
    ///
    /// Directory creation or open failures.
    pub fn open(
        state_dir: &Path,
        fingerprint: u64,
        fault_plan: Option<FaultPlan>,
    ) -> io::Result<TenantJournal> {
        let dir = tenant_dir(state_dir, fingerprint);
        std::fs::create_dir_all(&dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("journal.log"))?;
        Ok(TenantJournal {
            dir,
            file,
            fingerprint,
            next_seq: 1,
            appended_since_snapshot: 0,
            fault_plan,
            strikes: 0,
            disabled: false,
        })
    }

    /// The tenant's state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The journal file path.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.log")
    }

    /// The snapshot file path.
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.json")
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Seeds the sequence counter after recovery.
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq.max(1);
    }

    /// Records appended since the last snapshot (drives the periodic
    /// snapshot cadence).
    pub fn pending(&self) -> u64 {
        self.appended_since_snapshot
    }

    /// True once persistent append failures have struck the journal
    /// out: the tenant keeps serving, non-durably.
    pub fn disabled(&self) -> bool {
        self.disabled
    }

    /// Appends one mutation record and fsyncs it to stable storage.
    /// Returns the record's sequence number and encoded size.  The
    /// seeded `journal-write` site dooms a deterministic prefix of the
    /// retry attempts; [`JOURNAL_STRIKE_LIMIT`] consecutive exhausted
    /// appends disable the journal.
    ///
    /// # Errors
    ///
    /// The final attempt's failure once retries are exhausted (the
    /// response then reports `durable: false`).
    pub fn append(&mut self, tenant: &str, unit: &str, source: &str) -> io::Result<(u64, usize)> {
        if self.disabled {
            return Err(io::Error::other("journal disabled after repeated failures"));
        }
        let seq = self.next_seq;
        let frame = encode_record(&JournalRecord {
            seq,
            tenant: tenant.to_string(),
            unit: unit.to_string(),
            source: source.to_string(),
        });
        let doomed = self.fault_plan.as_ref().map_or(0, |p| {
            p.failure_count(
                FaultSite::JournalWrite,
                &format!("{:016x}:{seq}", self.fingerprint),
                IO_ATTEMPTS,
            )
        });
        // A failed attempt may have written part of the frame; truncate
        // back so a retry cannot leave mid-log garbage (which recovery
        // would rightly treat as corruption, not a torn tail).
        let base = self.file.metadata()?.len();
        let file = &mut self.file;
        let wrote = fsio::with_io_retries(
            IO_ATTEMPTS,
            || {},
            |attempt| {
                if attempt < doomed {
                    let _ = file.set_len(base);
                    return Err(io::Error::other("injected fault: journal write I/O error"));
                }
                let append = file.write_all(&frame).and_then(|()| file.sync_data());
                if append.is_err() {
                    let _ = file.set_len(base);
                }
                append
            },
        );
        // The sequence number is consumed either way: a failed append
        // wrote nothing (attempts truncate back to `base`), and giving
        // the *next* mutation a fresh seq keeps its fault-plan draw
        // independent.  Recovery only needs seqs strictly increasing,
        // not dense.
        self.next_seq += 1;
        match wrote {
            Ok(()) => {
                self.strikes = 0;
                self.appended_since_snapshot += 1;
                Ok((seq, frame.len()))
            }
            Err(e) => {
                self.strikes += 1;
                if self.strikes >= JOURNAL_STRIKE_LIMIT {
                    self.disabled = true;
                }
                Err(e)
            }
        }
    }

    /// Writes a snapshot body (see [`TenantState::snapshot_json`])
    /// atomically and durably, then truncates the journal it absorbs.
    /// A crash between the two steps is safe: the truncated-away
    /// records are at or below the snapshot's `applied_seq` and
    /// recovery skips them as stale.
    ///
    /// # Errors
    ///
    /// The snapshot write or journal truncation failure.
    pub fn write_snapshot(&mut self, body: &str) -> io::Result<()> {
        fsio::atomic_write(&self.snapshot_path(), body.as_bytes(), true)?;
        self.file.set_len(0)?;
        self.file.sync_data()?;
        self.appended_since_snapshot = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64) -> JournalRecord {
        JournalRecord {
            seq,
            tenant: "alice".into(),
            unit: format!("u{seq}"),
            source: format!("(defun f{seq} (x) (+ x {seq}))"),
        }
    }

    fn journal_of(seqs: &[u64]) -> Vec<u8> {
        seqs.iter().flat_map(|&s| encode_record(&rec(s))).collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn clean_journals_scan_completely() {
        let bytes = journal_of(&[1, 2, 3]);
        let scan = scan_journal(&bytes, 0, |_| false);
        assert_eq!(scan.records.len(), 3);
        assert!(!scan.torn_tail && !scan.corrupt);
        assert_eq!(scan.stale, 0);
        assert_eq!(scan.records[2], rec(3));
        // An empty journal is clean, not torn.
        let empty = scan_journal(&[], 0, |_| false);
        assert_eq!(empty, JournalScan::default());
    }

    #[test]
    fn every_truncation_point_is_a_clean_prefix_or_a_torn_tail() {
        let bytes = journal_of(&[1, 2, 3]);
        let r1 = encode_record(&rec(1)).len();
        let r2 = r1 + encode_record(&rec(2)).len();
        for cut in 0..bytes.len() {
            let scan = scan_journal(&bytes[..cut], 0, |_| false);
            assert!(!scan.corrupt, "cut at {cut} misread as mid-log corruption");
            let whole = usize::from(cut >= r1) + usize::from(cut >= r2);
            assert_eq!(scan.records.len(), whole, "cut at {cut}");
            assert_eq!(scan.torn_tail, cut != 0 && cut != r1 && cut != r2);
        }
    }

    #[test]
    fn bit_flips_are_torn_at_the_tail_and_corrupt_mid_log() {
        let bytes = journal_of(&[1, 2]);
        let r1 = encode_record(&rec(1)).len();
        // Flip a payload byte in the *last* record: torn tail, record 1
        // survives.
        let mut tail_flipped = bytes.clone();
        let last = bytes.len() - 4;
        tail_flipped[last] ^= 0x01;
        let scan = scan_journal(&tail_flipped, 0, |_| false);
        assert!(scan.torn_tail && !scan.corrupt);
        assert_eq!(scan.records.len(), 1);
        // Flip a payload byte in the *first* record: corruption.
        let mut mid_flipped = bytes;
        mid_flipped[r1 - 4] ^= 0x01;
        let scan = scan_journal(&mid_flipped, 0, |_| false);
        assert!(scan.corrupt && !scan.torn_tail);
        assert!(scan.records.is_empty());
    }

    #[test]
    fn stale_and_duplicate_seqs_are_skipped() {
        let bytes = journal_of(&[1, 2, 2, 1, 3]);
        let scan = scan_journal(&bytes, 0, |_| false);
        assert_eq!(
            scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert_eq!(scan.stale, 2);
        // min_seq hides the snapshot-absorbed prefix.
        let scan = scan_journal(&bytes, 2, |_| false);
        assert_eq!(scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(), [3]);
        assert_eq!(scan.stale, 4);
    }

    #[test]
    fn corrupt_probe_injects_without_touching_bytes() {
        let bytes = journal_of(&[1, 2, 3]);
        let scan = scan_journal(&bytes, 0, |idx| idx == 1);
        assert!(scan.corrupt, "record 1 is mid-log");
        assert_eq!(scan.records.len(), 1);
        let scan = scan_journal(&bytes, 0, |idx| idx == 2);
        assert!(scan.torn_tail && !scan.corrupt, "record 2 is the tail");
        assert_eq!(scan.records.len(), 2);
        // The bytes themselves were never modified.
        let clean = scan_journal(&bytes, 0, |_| false);
        assert_eq!(clean.records.len(), 3);
    }

    #[test]
    fn snapshots_round_trip() {
        let mut st = TenantState {
            name: "alice".into(),
            fingerprint: 0xfeed_beef,
            specials: vec!["*a*".into(), "*b*".into()],
            globals: vec![("*a*".into(), "7".into())],
            sources: vec!["(defun f (x) x)".into()],
            incidents: 2,
            degraded: false,
            ..TenantState::default()
        };
        st.artifacts.insert(
            "f".into(),
            Artifact {
                name: "f".into(),
                backend: "s1".into(),
                fingerprint: 1,
                converted: "(lambda (x) x)".into(),
                optimized: "(lambda (x) x)".into(),
                transformations: 0,
                rules: Vec::new(),
                phase_spans: vec![("Code generation".into(), 1)],
                tn_map: Vec::new(),
                coercions: Vec::new(),
                assembly: "(RET)".into(),
                insns: 1,
                dossier: "d".into(),
                degraded: false,
            },
        );
        let text = st.snapshot_json(5).to_string();
        let parsed = json::parse(&text).expect("well-formed");
        let (back, applied_seq) = TenantState::from_snapshot(&parsed).expect("snapshot reads");
        assert_eq!(applied_seq, 5);
        assert_eq!(back.snapshot_json(5).to_string(), text);
        // A truncated snapshot fails closed.
        assert!(json::parse(&text[..text.len() / 2]).is_err());
    }

    #[test]
    fn journal_appends_fsync_and_snapshot_truncates() {
        let state_dir = std::env::temp_dir().join(format!("s1lisp-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let mut j = TenantJournal::open(&state_dir, 0xabcd, None).unwrap();
        let (seq, bytes) = j.append("alice", "u1", "(defun f (x) x)").unwrap();
        assert_eq!(seq, 1);
        assert!(bytes > 8);
        j.append("alice", "u2", "(defun g (x) x)").unwrap();
        assert_eq!(j.pending(), 2);
        let on_disk = std::fs::read(j.journal_path()).unwrap();
        let scan = scan_journal(&on_disk, 0, |_| false);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[1].unit, "u2");
        j.write_snapshot("{}").unwrap();
        assert_eq!(j.pending(), 0);
        assert_eq!(std::fs::read(j.journal_path()).unwrap().len(), 0);
        assert_eq!(std::fs::read_to_string(j.snapshot_path()).unwrap(), "{}");
        // Sequence numbers keep climbing across snapshots.
        let (seq, _) = j.append("alice", "u3", "(defun h (x) x)").unwrap();
        assert_eq!(seq, 3);
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    #[test]
    fn doomed_appends_strike_the_journal_out() {
        let state_dir =
            std::env::temp_dir().join(format!("s1lisp-journal-doom-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let plan = FaultPlan::new(9).arm(FaultSite::JournalWrite, 1000);
        let mut j = TenantJournal::open(&state_dir, 0x77, Some(plan.clone())).unwrap();
        let mut failures = 0;
        for i in 0..32 {
            if j.append("bob", &format!("u{i}"), "(defun f (x) x)")
                .is_err()
            {
                failures += 1;
            }
            if j.disabled() {
                break;
            }
        }
        // Rate 1000 arms every key; whether each append survives depends
        // on its deterministic doomed-attempt count, and enough
        // exhausted appends in a row disable the journal.
        assert!(failures > 0, "seed 9 must doom at least one append");
        // Whatever did land is a clean, scannable prefix.
        let on_disk = std::fs::read(j.journal_path()).unwrap();
        let scan = scan_journal(&on_disk, 0, |_| false);
        assert!(!scan.corrupt && !scan.torn_tail);
        let _ = std::fs::remove_dir_all(&state_dir);
    }
}
