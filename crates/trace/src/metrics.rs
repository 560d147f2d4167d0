//! A unified metrics registry: counters, gauges, and fixed-bucket
//! histograms, snapshotable to the schema-signed JSON layer.
//!
//! The paper's methodology (§6, Tables 1–2) is cost *attribution*: every
//! claim is a counter compared across configurations.  This module is
//! the workspace-wide instrument for that discipline — one registry type
//! the simulator, the heap, the compiler pipeline, the artifact cache,
//! and the compile service all report into, so `report --metrics` and
//! the `perfbench` trajectory harness read a single surface.
//!
//! # Model
//!
//! * [`Counter`] — a monotonically increasing `u64`.
//! * [`Gauge`] — a point-in-time `i64` (last write wins).
//! * [`Histogram`] — a fixed-bucket distribution of `u64` observations
//!   (bounds chosen at registration; observations above the last bound
//!   land in an overflow bucket).  Buckets are *not* cumulative.
//!
//! Handles are cheap `Arc`-backed clones over atomics, so one registry
//! can be shared across the service's worker threads while the
//! simulator's single-threaded hot loop pays only a relaxed atomic add.
//!
//! # Determinism convention
//!
//! Metric names ending in `_ns`, `_us`, or `_per_sec` are *host-time*
//! metrics: their values (and, for histograms, their bucket counts)
//! depend on wall-clock scheduling, not on simulated behavior.
//! [`MetricsSnapshot::zero_time_metrics`] zeroes exactly these, leaving
//! a byte-deterministic snapshot for golden pinning — the same
//! discipline the PR-2 post-mortem goldens use.  Everything else in a
//! snapshot must be a pure function of (workload, seed, options).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// Default bucket bounds (microseconds) for latency histograms.
pub const TIME_BUCKETS_US: &[u64] = &[
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 1_000_000,
];

/// Default bucket bounds (words) for size histograms.
pub const SIZE_BUCKETS_WORDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256];

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time value; the last `set` wins.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds (inclusive), strictly increasing.
    bounds: Vec<u64>,
    /// One count per bound, plus one overflow bucket at the end.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A fixed-bucket histogram of `u64` observations.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn with_bounds(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .0
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.0.bounds.len());
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Bulk-merges counts that were already bucketed elsewhere (e.g. the
    /// heap's plain, clone-safe allocation-size table).  `counts` must
    /// have one entry per bound, in bound order.
    pub fn record_prebucketed(&self, counts: &[u64], overflow: u64, sum: u64) {
        assert_eq!(
            counts.len(),
            self.0.bounds.len(),
            "prebucketed counts must match the bound count"
        );
        for (slot, &n) in self.0.counts.iter().zip(counts.iter().chain([&overflow])) {
            slot.fetch_add(n, Ordering::Relaxed);
        }
        let total = counts.iter().sum::<u64>() + overflow;
        self.0.count.fetch_add(total, Ordering::Relaxed);
        self.0.sum.fetch_add(sum, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets: self
                .0
                .bounds
                .iter()
                .zip(&self.0.counts)
                .map(|(&le, n)| (le, n.load(Ordering::Relaxed)))
                .collect(),
            overflow: self.0.counts[self.0.bounds.len()].load(Ordering::Relaxed),
        }
    }
}

/// The frozen state of one [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// `(upper bound, observations ≤ bound)` per bucket (not
    /// cumulative), in bound order.
    pub buckets: Vec<(u64, u64)>,
    /// Observations above the last bound.
    pub overflow: u64,
}

impl HistogramSnapshot {
    fn zeroed(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: self.buckets.iter().map(|&(le, _)| (le, 0)).collect(),
            overflow: 0,
        }
    }
}

#[derive(Default)]
struct Registered {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The registry: named metric handles, one namespace per kind.
///
/// Registration is get-or-create, so independent subsystems can reach
/// for the same metric by name; a histogram re-registered with
/// different bounds keeps its original bounds.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Registered>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created with `bounds` on first use.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut inner = self.inner.lock().expect("metrics lock");
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// A name-prefixing view: `scoped("server.tenant.alice")` hands out
    /// the same get-or-create handles as the registry itself, with every
    /// name spelled `<prefix>.<name>`.  This is how per-entity metric
    /// families (the compile server's per-tenant request counters) stay
    /// on one registry without every call site re-assembling names.
    pub fn scoped(&self, prefix: &str) -> ScopedMetrics<'_> {
        ScopedMetrics {
            registry: self,
            prefix: prefix.to_string(),
        }
    }

    /// Freezes every registered metric, names sorted within each kind.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics lock");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A registry view that prefixes every metric name (see
/// [`MetricsRegistry::scoped`]).  Handles are the registry's own; the
/// view adds nothing but the spelling.
pub struct ScopedMetrics<'a> {
    registry: &'a MetricsRegistry,
    prefix: String,
}

impl ScopedMetrics<'_> {
    /// The counter named `<prefix>.<name>`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(&format!("{}.{name}", self.prefix))
    }

    /// The gauge named `<prefix>.<name>`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(&format!("{}.{name}", self.prefix))
    }

    /// The histogram named `<prefix>.<name>`, created with `bounds` on
    /// first use.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.registry
            .histogram(&format!("{}.{name}", self.prefix), bounds)
    }
}

/// True when `name` follows the host-time naming convention (see the
/// module docs): such metrics are zeroed for deterministic goldens.
pub fn is_time_metric(name: &str) -> bool {
    name.ends_with("_ns") || name.ends_with("_us") || name.ends_with("_per_sec")
}

/// A frozen, ordered view of a registry — the unit `report --metrics`
/// renders and the golden tests pin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, state)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Counters `<prefix><name>` for each of `names`, as a fixed-field
    /// object keyed by `name` (0 for a counter never registered).
    pub fn counters_obj(&self, prefix: &str, names: &[&str]) -> Json {
        let value = |name: &str| self.counter(&format!("{prefix}{name}")).unwrap_or(0);
        Json::obj(names.iter().map(|&n| (n, Json::uint(value(n)))).collect())
    }

    /// The value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The state of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Inserts (or overwrites) a counter, keeping name order.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self
            .counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(i) => self.counters[i].1 = value,
            Err(i) => self.counters.insert(i, (name.to_string(), value)),
        }
    }

    /// Inserts (or overwrites) a gauge, keeping name order.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        match self.gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.gauges[i].1 = value,
            Err(i) => self.gauges.insert(i, (name.to_string(), value)),
        }
    }

    /// Zeroes every host-time metric (see [`is_time_metric`]): counters
    /// and gauges to 0, histograms to empty (bucket structure kept).
    /// What remains is a pure function of workload, seed, and options —
    /// two identical runs must agree byte for byte.
    pub fn zero_time_metrics(&mut self) {
        for (name, v) in &mut self.counters {
            if is_time_metric(name) {
                *v = 0;
            }
        }
        for (name, v) in &mut self.gauges {
            if is_time_metric(name) {
                *v = 0;
            }
        }
        for (name, h) in &mut self.histograms {
            if is_time_metric(name) {
                *h = h.zeroed();
            }
        }
    }

    /// The machine-readable form: fixed kind sections, dynamic metric
    /// names as [`Json::Map`] keys (names are data, value types are
    /// schema).
    pub fn to_json(&self) -> Json {
        let counters = Json::Map(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), Json::uint(*v)))
                .collect(),
        );
        let gauges = Json::Map(
            self.gauges
                .iter()
                .map(|(n, v)| (n.clone(), Json::Int(*v)))
                .collect(),
        );
        let histograms = Json::Map(
            self.histograms
                .iter()
                .map(|(n, h)| {
                    let buckets = h
                        .buckets
                        .iter()
                        .map(|&(le, count)| {
                            Json::obj(vec![("le", Json::uint(le)), ("n", Json::uint(count))])
                        })
                        .collect();
                    (
                        n.clone(),
                        Json::obj(vec![
                            ("count", Json::uint(h.count)),
                            ("sum", Json::uint(h.sum)),
                            ("overflow", Json::uint(h.overflow)),
                            ("buckets", Json::Arr(buckets)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    /// An aligned human-readable table, one metric per line, grouped by
    /// kind.  Histograms render as `count/sum` plus the nonzero buckets.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (n, v) in &self.counters {
                let _ = writeln!(out, "  {n:<width$}  {v:>14}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "gauges:");
            for (n, v) in &self.gauges {
                let _ = writeln!(out, "  {n:<width$}  {v:>14}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (n, h) in &self.histograms {
                let _ = writeln!(out, "  {n:<width$}  count={} sum={}", h.count, h.sum);
                for &(le, count) in h.buckets.iter().filter(|&&(_, c)| c > 0) {
                    let _ = writeln!(out, "  {:<width$}    ≤{le}: {count}", "");
                }
                if h.overflow > 0 {
                    let _ = writeln!(out, "  {:<width$}    >max: {}", "", h.overflow);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("sim.insns_retired");
        c.add(5);
        reg.counter("sim.insns_retired").inc();
        reg.gauge("heap.live_words").set(42);
        let h = reg.histogram("cache.get_us", &[10, 100]);
        h.observe(3);
        h.observe(50);
        h.observe(5_000);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim.insns_retired"), Some(6));
        assert_eq!(snap.gauge("heap.live_words"), Some(42));
        let hs = snap.histogram("cache.get_us").unwrap();
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum, 5_053);
        assert_eq!(hs.buckets, vec![(10, 1), (100, 1)]);
        assert_eq!(hs.overflow, 1);
    }

    #[test]
    fn histogram_boundary_values_land_in_the_inclusive_bucket() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("edges", &[10, 20, 30]);
        // Bounds are inclusive upper edges: a value equal to a bound
        // belongs to that bound's bucket, one more spills to the next.
        for v in [0, 10, 11, 20, 21, 30, 31] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("edges").unwrap();
        assert_eq!(hs.buckets, vec![(10, 2), (20, 2), (30, 2)]);
        assert_eq!(hs.overflow, 1);
        assert_eq!(hs.count, 7);
        assert_eq!(hs.sum, 123);
    }

    #[test]
    fn histogram_overflow_accounting_is_complete() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("over", &[5]);
        h.observe(5); // last in-range value
        h.observe(6); // first overflow value
        h.observe(u64::MAX / 2); // far overflow
        let snap = reg.snapshot();
        let hs = snap.histogram("over").unwrap();
        // Overflow observations are not dropped: they appear in the
        // overflow bucket AND in count and sum.
        assert_eq!(hs.overflow, 2);
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum, 5 + 6 + u64::MAX / 2);
        let bucketed: u64 = hs.buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(bucketed + hs.overflow, hs.count);
    }

    #[test]
    fn quarantine_zeroes_exactly_the_time_suffixed_names() {
        // Register counters, gauges, and histograms under every time
        // suffix the convention quarantines, plus non-time controls,
        // then check zero_time_metrics() touches exactly the time set.
        let reg = MetricsRegistry::new();
        for name in ["a_ns", "b_us", "c_per_sec", "d_words", "e_rate"] {
            reg.counter(&format!("c.{name}")).add(41);
            reg.gauge(&format!("g.{name}")).set(-7);
            reg.histogram(&format!("h.{name}"), &[1, 2]).observe(9);
        }
        let before = reg.snapshot();
        let mut snap = reg.snapshot();
        snap.zero_time_metrics();
        for ((name, v), (_, orig)) in snap.counters.iter().zip(before.counters.iter()) {
            assert_eq!(*v == 0, is_time_metric(name), "counter {name}");
            assert!(is_time_metric(name) || v == orig);
        }
        for ((name, v), (_, orig)) in snap.gauges.iter().zip(before.gauges.iter()) {
            assert_eq!(*v == 0, is_time_metric(name), "gauge {name}");
            assert!(is_time_metric(name) || v == orig);
        }
        for ((name, h), (_, orig)) in snap.histograms.iter().zip(before.histograms.iter()) {
            assert_eq!(h.count == 0, is_time_metric(name), "histogram {name}");
            assert!(is_time_metric(name) || h == orig);
            // Zeroed histograms keep their bucket structure.
            assert_eq!(h.buckets.len(), orig.buckets.len());
        }
    }

    #[test]
    fn snapshot_is_name_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta").inc();
        reg.counter("alpha").inc();
        reg.counter("mid").inc();
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn prebucketed_merge_matches_observations() {
        let bounds = [2, 4, 8];
        let reg = MetricsRegistry::new();
        let a = reg.histogram("a", &bounds);
        for v in [1, 2, 3, 9, 100] {
            a.observe(v);
        }
        let b = reg.histogram("b", &bounds);
        b.record_prebucketed(&[2, 1, 0], 2, 115);
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("a"), snap.histogram("b"));
    }

    #[test]
    fn zeroing_strips_host_time_but_keeps_structure() {
        let reg = MetricsRegistry::new();
        reg.counter("sim.run_wall_ns").add(999);
        reg.counter("sim.insns_retired").add(7);
        reg.gauge("sim.insns_per_sec").set(123_456);
        reg.histogram("service.job_wall_us", TIME_BUCKETS_US)
            .observe(40);
        reg.histogram("heap.alloc_size_words", SIZE_BUCKETS_WORDS)
            .observe(2);
        let mut snap = reg.snapshot();
        snap.zero_time_metrics();
        assert_eq!(snap.counter("sim.run_wall_ns"), Some(0));
        assert_eq!(snap.counter("sim.insns_retired"), Some(7));
        assert_eq!(snap.gauge("sim.insns_per_sec"), Some(0));
        let wall = snap.histogram("service.job_wall_us").unwrap();
        assert_eq!(wall.count, 0);
        assert_eq!(wall.buckets.len(), TIME_BUCKETS_US.len());
        assert!(wall.buckets.iter().all(|&(_, c)| c == 0));
        // Non-time histograms keep their observations.
        assert_eq!(snap.histogram("heap.alloc_size_words").unwrap().count, 1);
    }

    #[test]
    fn handles_are_shared_across_threads() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("jobs");
        let h = reg.histogram("lat_us", TIME_BUCKETS_US);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1_000 {
                        c.inc();
                        h.observe(i);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("jobs"), Some(4_000));
        assert_eq!(snap.histogram("lat_us").unwrap().count, 4_000);
    }

    #[test]
    fn scoped_metrics_prefix_and_share_the_registry() {
        let reg = MetricsRegistry::new();
        let tenant = reg.scoped("server.tenant.alice");
        tenant.counter("requests").add(2);
        tenant.gauge("depth").set(7);
        tenant.histogram("wait_us", &[10, 100]).observe(50);
        // The scoped handles are the same instruments as the fully
        // qualified names — not a parallel family.
        reg.counter("server.tenant.alice.requests").inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("server.tenant.alice.requests"), Some(3));
        assert_eq!(snap.gauge("server.tenant.alice.depth"), Some(7));
        assert_eq!(
            snap.histogram("server.tenant.alice.wait_us").unwrap().count,
            1
        );
        assert_eq!(snap.counter("requests"), None, "no unprefixed leak");
    }

    #[test]
    fn snapshot_json_is_well_formed_and_schema_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("c1").add(1);
        reg.gauge("g1").set(-3);
        reg.histogram("h1", &[1, 2]).observe(1);
        let v = reg.snapshot().to_json();
        json::parse(&v.to_string()).expect("well-formed");
        assert_eq!(
            json::schema(&v),
            "{counters:map<int>,gauges:map<int>,histograms:map<{count:int,sum:int,overflow:int,buckets:[{le:int,n:int}]}>}"
        );
    }
}
