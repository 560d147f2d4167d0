//! The content-addressed artifact cache.
//!
//! Two tiers.  The in-memory tier is an LRU map from cache key to
//! [`Artifact`], bounded by `capacity`; the optional on-disk tier
//! serializes each artifact to `<dir>/<key as 16 hex digits>.json` via
//! the `s1lisp-trace` JSON layer, so a cold process (or a second
//! service) can reuse a previous run's work.
//!
//! # A cache must never fail a batch
//!
//! Every disk failure mode degrades, none propagates:
//!
//! * Transient I/O errors on read or write are retried up to
//!   [`IO_ATTEMPTS`] times with a short deterministic backoff
//!   (`io_retries` counts the retries, `io_errors` the operations that
//!   exhausted them).
//! * Entries that read back but fail to parse — truncated writes,
//!   hand-edited files, version skew, injected corruption — count as
//!   `corrupt_reads` and degrade to misses.
//! * [`DISK_STRIKE_LIMIT`] *consecutive* exhausted-retry failures
//!   disable the disk tier for the rest of the cache's life; the
//!   memory tier keeps serving alone.
//! * When `disk_max_entries` is set, each successful write sweeps the
//!   directory oldest-first (modification time, then file name) so
//!   on-disk growth stays bounded (`disk_evictions`).
//!
//! A seeded [`FaultPlan`] can arm the `CacheRead`/`CacheWrite`/
//! `CacheCorrupt` sites to inject exactly these failures,
//! deterministically per function name, as every other driver fault
//! site is keyed: a storm's cache faults depend on its seed and the
//! functions, never on what the cache key hashes (a tenant salt, the
//! options).
//!
//! All methods take `&self`: the cache is shared across worker threads
//! behind one mutex (held only for map bookkeeping, never during
//! compilation or disk I/O on the read path's miss side).

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use s1lisp::Artifact;
use s1lisp_trace::fault::{FaultPlan, FaultSite};
use s1lisp_trace::json;
use s1lisp_trace::metrics::{Counter, Histogram, MetricsRegistry, TIME_BUCKETS_US};

use crate::fsio::{self, IO_ATTEMPTS};

/// Consecutive exhausted-retry failures that disable the disk tier.
pub const DISK_STRIKE_LIMIT: u64 = 4;

/// Monotonic counters describing cache traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from either tier.
    pub hits: u64,
    /// Lookups answered by neither tier.
    pub misses: u64,
    /// In-memory entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// The subset of `hits` that came from the disk tier.
    pub disk_hits: u64,
    /// Disk I/O attempts retried after a transient failure.
    pub io_retries: u64,
    /// Disk I/O operations abandoned after exhausting every retry.
    pub io_errors: u64,
    /// Disk entries that read back but failed to parse.
    pub corrupt_reads: u64,
    /// On-disk entries removed by the max-entries sweep.
    pub disk_evictions: u64,
}

impl CacheStats {
    /// Hit ratio in permille (hits per 1000 lookups); 0 with no traffic.
    pub fn hit_rate_permille(&self) -> u64 {
        (self.hits * 1000)
            .checked_div(self.hits + self.misses)
            .unwrap_or(0)
    }

    /// Counter-wise difference (`self - earlier`), for per-batch deltas.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            disk_hits: self.disk_hits - earlier.disk_hits,
            io_retries: self.io_retries - earlier.io_retries,
            io_errors: self.io_errors - earlier.io_errors,
            corrupt_reads: self.corrupt_reads - earlier.corrupt_reads,
            disk_evictions: self.disk_evictions - earlier.disk_evictions,
        }
    }
}

struct Tier {
    map: HashMap<u64, Artifact>,
    /// Keys from least- to most-recently used.
    order: VecDeque<u64>,
}

/// The two-tier cache.  See the module docs.
///
/// Traffic counters live in a [`MetricsRegistry`] (the cache holds
/// registry handles, not its own atomics), so [`ArtifactCache::stats`]
/// and a registry snapshot are the same numbers by construction.  Pass a
/// shared registry via [`ArtifactCache::with_metrics`] to aggregate the
/// cache's `cache.*` metrics alongside a service's; the plain
/// constructors use a private registry.
pub struct ArtifactCache {
    capacity: usize,
    dir: Option<PathBuf>,
    disk_max_entries: Option<usize>,
    fault_plan: Option<FaultPlan>,
    disk_disabled: AtomicBool,
    /// Consecutive exhausted-retry failures (reset by any completed
    /// disk operation).
    disk_strikes: AtomicU64,
    mem: Mutex<Tier>,
    metrics: Arc<MetricsRegistry>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    disk_hits: Counter,
    io_retries: Counter,
    io_errors: Counter,
    corrupt_reads: Counter,
    disk_evictions: Counter,
    /// Memory-tier probe latency (lock + map lookup), microseconds.
    mem_get_us: Histogram,
    /// Disk-tier read latency (only when the probe reaches disk).
    disk_get_us: Histogram,
    /// Full `put` latency (both tiers), microseconds.
    put_us: Histogram,
}

impl ArtifactCache {
    /// A cache bounded at `capacity` in-memory entries, with an on-disk
    /// tier under `dir` when given (the directory is created eagerly;
    /// creation failure silently disables the disk tier rather than
    /// failing compilation).
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> ArtifactCache {
        ArtifactCache::tuned(capacity, dir, None, None)
    }

    /// [`ArtifactCache::new`] with the robustness knobs: a bound on
    /// on-disk entries (swept oldest-first after each write) and a
    /// seeded fault plan arming the cache's injection sites.
    pub fn tuned(
        capacity: usize,
        dir: Option<PathBuf>,
        disk_max_entries: Option<usize>,
        fault_plan: Option<FaultPlan>,
    ) -> ArtifactCache {
        ArtifactCache::with_metrics(
            capacity,
            dir,
            disk_max_entries,
            fault_plan,
            Arc::new(MetricsRegistry::new()),
        )
    }

    /// [`ArtifactCache::tuned`] reporting into a caller-supplied
    /// registry, so cache traffic lands in the same snapshot as the
    /// surrounding service's metrics.
    pub fn with_metrics(
        capacity: usize,
        dir: Option<PathBuf>,
        disk_max_entries: Option<usize>,
        fault_plan: Option<FaultPlan>,
        metrics: Arc<MetricsRegistry>,
    ) -> ArtifactCache {
        let dir = dir.filter(|d| std::fs::create_dir_all(d).is_ok());
        ArtifactCache {
            capacity: capacity.max(1),
            dir,
            disk_max_entries,
            fault_plan,
            disk_disabled: AtomicBool::new(false),
            disk_strikes: AtomicU64::new(0),
            mem: Mutex::new(Tier {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            hits: metrics.counter("cache.hits"),
            misses: metrics.counter("cache.misses"),
            evictions: metrics.counter("cache.evictions"),
            disk_hits: metrics.counter("cache.disk_hits"),
            io_retries: metrics.counter("cache.io_retries"),
            io_errors: metrics.counter("cache.io_errors"),
            corrupt_reads: metrics.counter("cache.corrupt_reads"),
            disk_evictions: metrics.counter("cache.disk_evictions"),
            mem_get_us: metrics.histogram("cache.mem_get_us", TIME_BUCKETS_US),
            disk_get_us: metrics.histogram("cache.disk_get_us", TIME_BUCKETS_US),
            put_us: metrics.histogram("cache.put_us", TIME_BUCKETS_US),
            metrics,
        }
    }

    /// The registry this cache reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// True once persistent disk failures have demoted the cache to
    /// memory-only operation.
    pub fn disk_disabled(&self) -> bool {
        self.disk_disabled.load(Ordering::Relaxed)
    }

    fn disk_path(&self, key: u64) -> Option<PathBuf> {
        if self.disk_disabled() {
            return None;
        }
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{key:016x}.json")))
    }

    /// How many attempts the fault plan dooms for `function` at `site`.
    fn injected_failures(&self, site: FaultSite, function: &str) -> u32 {
        self.fault_plan
            .as_ref()
            .map_or(0, |p| p.failure_count(site, function, IO_ATTEMPTS))
    }

    /// A completed disk operation (success or clean not-found) clears
    /// the strike count.
    fn note_disk_ok(&self) {
        self.disk_strikes.store(0, Ordering::Relaxed);
    }

    /// An operation that exhausted its retries; enough in a row disable
    /// the tier.
    fn note_disk_error(&self) {
        self.io_errors.inc();
        let strikes = self.disk_strikes.fetch_add(1, Ordering::Relaxed) + 1;
        if strikes >= DISK_STRIKE_LIMIT {
            self.disk_disabled.store(true, Ordering::Relaxed);
        }
    }

    /// Looks `key` up in memory, then on disk.  A memory hit refreshes
    /// recency; a disk hit is promoted into the memory tier.  `function`
    /// names the artifact sought; it keys the read-side fault sites.
    pub fn get(&self, key: u64, function: &str) -> Option<Artifact> {
        let mem_start = Instant::now();
        let mem_probe = {
            let mut tier = self.mem.lock().expect("cache lock");
            if let Some(a) = tier.map.get(&key).cloned() {
                tier.order.retain(|&k| k != key);
                tier.order.push_back(key);
                Some(a)
            } else {
                None
            }
        };
        self.mem_get_us
            .observe(mem_start.elapsed().as_micros() as u64);
        if let Some(a) = mem_probe {
            self.hits.inc();
            return Some(a);
        }
        // Decide before probing: disk_get itself can flip disk_disabled
        // (crossing DISK_STRIKE_LIMIT), and that slowest, retry-heavy
        // probe belongs in the same distribution as the earlier failures.
        let disk_timed = self.dir.is_some() && !self.disk_disabled();
        let disk_start = Instant::now();
        let disk_probe = self.disk_get(key, function);
        if disk_timed {
            self.disk_get_us
                .observe(disk_start.elapsed().as_micros() as u64);
        }
        if let Some(a) = disk_probe {
            self.insert_mem(key, a.clone());
            self.hits.inc();
            self.disk_hits.inc();
            return Some(a);
        }
        self.misses.inc();
        None
    }

    fn disk_get(&self, key: u64, function: &str) -> Option<Artifact> {
        let path = self.disk_path(key)?;
        let doomed = self.injected_failures(FaultSite::CacheRead, function);
        // An absent entry maps to `Ok(None)` — a clean miss is not a
        // failure and must not burn retries.
        let read = fsio::with_io_retries(
            IO_ATTEMPTS,
            || self.io_retries.inc(),
            |attempt| {
                if attempt < doomed {
                    return Err(io::Error::other("injected fault: cache read I/O error"));
                }
                match std::fs::read_to_string(&path) {
                    Ok(t) => Ok(Some(t)),
                    Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
                    Err(e) => Err(e),
                }
            },
        );
        let text = match read {
            Ok(t) => {
                self.note_disk_ok();
                t
            }
            Err(_) => {
                self.note_disk_error();
                return None;
            }
        };
        let mut text = text?;
        if let Some(plan) = &self.fault_plan {
            if plan.fires(FaultSite::CacheCorrupt, function) {
                // Truncation always unbalances the JSON object, so the
                // parse below must fail and be counted.
                text.truncate(text.len() / 2);
            }
        }
        match json::parse(&text)
            .ok()
            .and_then(|p| Artifact::from_json(&p))
        {
            Some(a) => Some(a),
            None => {
                self.corrupt_reads.inc();
                None
            }
        }
    }

    /// Stores a clean artifact under `key` in both tiers; the artifact's
    /// name keys the write-side fault site.
    pub fn put(&self, key: u64, artifact: &Artifact) {
        let start = Instant::now();
        self.insert_mem(key, artifact.clone());
        self.disk_put(key, artifact);
        self.put_us.observe(start.elapsed().as_micros() as u64);
    }

    fn disk_put(&self, key: u64, artifact: &Artifact) {
        let Some(path) = self.disk_path(key) else {
            return;
        };
        let body = artifact.to_json().to_string();
        let doomed = self.injected_failures(FaultSite::CacheWrite, &artifact.name);
        // Temp-then-rename (via the shared discipline) keeps a
        // concurrent reader (or a second process warming from the same
        // directory) from ever seeing a half-written entry.  No fsync:
        // a cache entry lost to a crash is just a future miss.
        let wrote = fsio::with_io_retries(
            IO_ATTEMPTS,
            || self.io_retries.inc(),
            |attempt| {
                if attempt < doomed {
                    return Err(io::Error::other("injected fault: cache write I/O error"));
                }
                fsio::atomic_write(&path, body.as_bytes(), false)
            },
        );
        match wrote {
            Ok(()) => {
                self.note_disk_ok();
                self.sweep_disk();
            }
            Err(_) => self.note_disk_error(),
        }
    }

    /// Removes the oldest on-disk entries (by modification time, file
    /// name as tie-break) until at most `disk_max_entries` remain.
    fn sweep_disk(&self) {
        let Some(max) = self.disk_max_entries else {
            return;
        };
        let Some(dir) = &self.dir else { return };
        let Ok(listing) = std::fs::read_dir(dir) else {
            return;
        };
        let mut entries: Vec<(std::time::SystemTime, PathBuf)> = listing
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .filter_map(|p| {
                let mtime = std::fs::metadata(&p).ok()?.modified().ok()?;
                Some((mtime, p))
            })
            .collect();
        if entries.len() <= max {
            return;
        }
        entries.sort();
        let excess = entries.len() - max;
        for (_, path) in entries.into_iter().take(excess) {
            if std::fs::remove_file(&path).is_ok() {
                self.disk_evictions.inc();
            }
        }
    }

    fn insert_mem(&self, key: u64, artifact: Artifact) {
        let mut tier = self.mem.lock().expect("cache lock");
        if tier.map.insert(key, artifact).is_none() {
            tier.order.push_back(key);
        } else {
            tier.order.retain(|&k| k != key);
            tier.order.push_back(key);
        }
        while tier.map.len() > self.capacity {
            if let Some(old) = tier.order.pop_front() {
                tier.map.remove(&old);
                self.evictions.inc();
            }
        }
    }

    /// Number of in-memory entries.
    pub fn len(&self) -> usize {
        self.mem.lock().expect("cache lock").map.len()
    }

    /// True when the memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the traffic counters, read back from the registry
    /// handles (the registry is the only bookkeeping).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            disk_hits: self.disk_hits.get(),
            io_retries: self.io_retries.get(),
            io_errors: self.io_errors.get(),
            corrupt_reads: self.corrupt_reads.get(),
            disk_evictions: self.disk_evictions.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn art(name: &str) -> Artifact {
        Artifact {
            name: name.into(),
            backend: "s1".into(),
            fingerprint: 1,
            converted: "(lambda () 'nil)".into(),
            optimized: "(lambda () 'nil)".into(),
            transformations: 0,
            rules: Vec::new(),
            phase_spans: vec![("Code generation".into(), 1)],
            tn_map: Vec::new(),
            coercions: Vec::new(),
            assembly: "(RET)".into(),
            insns: 1,
            dossier: format!("dossier for {name}"),
            degraded: false,
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("s1lisp-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ArtifactCache::new(2, None);
        cache.put(1, &art("a"));
        cache.put(2, &art("b"));
        assert!(cache.get(1, "a").is_some()); // refresh 1; 2 is now coldest
        cache.put(3, &art("c"));
        assert!(cache.get(2, "b").is_none());
        assert!(cache.get(1, "a").is_some());
        assert!(cache.get(3, "c").is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 3);
    }

    #[test]
    fn disk_tier_round_trips_and_survives_corruption() {
        let dir = tempdir("roundtrip");
        {
            let cache = ArtifactCache::new(4, Some(dir.clone()));
            cache.put(7, &art("seven"));
        }
        // A fresh cache (cold memory) warms from disk.
        let cache = ArtifactCache::new(4, Some(dir.clone()));
        let got = cache.get(7, "seven").expect("disk hit");
        assert_eq!(got.name, "seven");
        assert_eq!(cache.stats().disk_hits, 1);
        // Corrupt entries degrade to misses and are counted.
        std::fs::write(dir.join(format!("{:016x}.json", 9u64)), "{not json").unwrap();
        let fresh = ArtifactCache::new(4, Some(dir.clone()));
        assert!(fresh.get(9, "nine").is_none());
        assert_eq!(fresh.stats().misses, 1);
        assert_eq!(fresh.stats().corrupt_reads, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_faults_retry_then_recover_or_miss() {
        let dir = tempdir("readfault");
        {
            let clean = ArtifactCache::new(4, Some(dir.clone()));
            for key in 0..8u64 {
                clean.put(key, &art(&format!("fn{key}")));
            }
        }
        let plan = FaultPlan::new(21).arm(FaultSite::CacheRead, 1000);
        let cache = ArtifactCache::tuned(16, Some(dir.clone()), None, Some(plan.clone()));
        for key in 0..8u64 {
            let name = format!("fn{key}");
            let doomed = plan.failure_count(FaultSite::CacheRead, &name, 3);
            let before = cache.stats();
            let got = cache.get(key, &name);
            let after = cache.stats();
            if doomed < IO_ATTEMPTS {
                // Retried past the transient failures and hit.
                assert!(got.is_some(), "key {key}");
                assert_eq!(after.io_retries - before.io_retries, u64::from(doomed));
            } else {
                // All attempts doomed: a contained error, a miss.
                assert!(got.is_none(), "key {key}");
                assert_eq!(after.io_errors - before.io_errors, 1);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_write_failures_disable_the_disk_tier() {
        // Pick a seed whose plan dooms all IO_ATTEMPTS for at least
        // DISK_STRIKE_LIMIT consecutive put keys — the decision function
        // is pure, so the search is deterministic and the found seed
        // replays forever.
        let seed = (0..1000u64)
            .find(|&s| {
                let plan = FaultPlan::new(s).arm(FaultSite::CacheWrite, 1000);
                let mut run = 0u64;
                (0..64u64).any(|key| {
                    let doomed = plan.failure_count(FaultSite::CacheWrite, &format!("fn{key}"), 3);
                    run = if doomed >= IO_ATTEMPTS { run + 1 } else { 0 };
                    run >= DISK_STRIKE_LIMIT
                })
            })
            .expect("some small seed dooms a long enough run");
        let dir = tempdir("writefault");
        let plan = FaultPlan::new(seed).arm(FaultSite::CacheWrite, 1000);
        let cache = ArtifactCache::tuned(128, Some(dir.clone()), None, Some(plan));
        for key in 0..64u64 {
            cache.put(key, &art(&format!("fn{key}")));
        }
        assert!(cache.disk_disabled());
        assert!(cache.stats().io_errors >= DISK_STRIKE_LIMIT);
        // The memory tier still serves every entry: no batch fails.
        for key in 0..64u64 {
            assert!(cache.get(key, &format!("fn{key}")).is_some(), "key {key}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_corruption_counts_and_misses() {
        let dir = tempdir("corrupt");
        {
            let clean = ArtifactCache::new(4, Some(dir.clone()));
            clean.put(3, &art("three"));
        }
        let plan = FaultPlan::new(1).arm(FaultSite::CacheCorrupt, 1000);
        let cache = ArtifactCache::tuned(4, Some(dir.clone()), None, Some(plan));
        assert!(cache.get(3, "three").is_none());
        let s = cache.stats();
        assert_eq!(s.corrupt_reads, 1);
        assert_eq!(s.misses, 1);
        // The on-disk entry itself is untouched: corruption is injected
        // on the read path, and a clean reader still hits.
        let clean = ArtifactCache::new(4, Some(dir.clone()));
        assert!(cache.disk_path(3).is_some());
        assert!(clean.get(3, "three").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_and_registry_snapshot_are_the_same_numbers() {
        let reg = Arc::new(MetricsRegistry::new());
        let cache = ArtifactCache::with_metrics(2, None, None, None, Arc::clone(&reg));
        cache.put(1, &art("a"));
        cache.put(2, &art("b"));
        cache.put(3, &art("c")); // evicts 1
        assert!(cache.get(2, "b").is_some());
        assert!(cache.get(1, "a").is_none());
        let s = cache.stats();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cache.hits"), Some(s.hits));
        assert_eq!(snap.counter("cache.misses"), Some(s.misses));
        assert_eq!(snap.counter("cache.evictions"), Some(s.evictions));
        assert_eq!(s.hit_rate_permille(), 500);
        // Latency histograms saw every lookup and store.
        let mem = snap.histogram("cache.mem_get_us").unwrap();
        assert_eq!(mem.count, 2);
        assert_eq!(snap.histogram("cache.put_us").unwrap().count, 3);
        // No disk tier: the disk histogram exists but stays empty.
        assert_eq!(snap.histogram("cache.disk_get_us").unwrap().count, 0);
    }

    #[test]
    fn disk_sweep_bounds_on_disk_entries() {
        let dir = tempdir("sweep");
        let cache = ArtifactCache::tuned(64, Some(dir.clone()), Some(3), None);
        for key in 0..9u64 {
            cache.put(key, &art(&format!("fn{key}")));
        }
        let on_disk = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count();
        assert_eq!(on_disk, 3);
        assert_eq!(cache.stats().disk_evictions, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
