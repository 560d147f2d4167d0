//! Deterministic fault injection.
//!
//! A [`FaultPlan`] arms named fault sites across the pipeline — cache
//! I/O, per-phase panics, watchdog overruns, simulator traps — from a
//! single seed.  The plan is a *pure decision function*: whether a
//! fault fires at `(site, key)` depends only on the seed, the site, and
//! the key, never on how many decisions were made before or in what
//! order.  Worker pools schedule jobs nondeterministically, so a
//! stateful RNG stream would make fault scenarios unreplayable; here
//! every scenario replays exactly from its seed regardless of thread
//! interleaving.
//!
//! A plan can also *force* exact `(site, key)` pairs — a panic in one
//! named function's phase, an overrun of one named job — which fire
//! whatever the seed and the site's rate: the targeted drills the tests
//! and demos use, through the same trip points as a seeded storm.

use crate::rng::SplitMix64;

/// A named place where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A disk-cache read fails with an I/O error.
    CacheRead,
    /// A disk-cache write fails with an I/O error.
    CacheWrite,
    /// A disk-cache read succeeds but returns corrupted bytes.
    CacheCorrupt,
    /// A compiler phase panics mid-function.
    PhasePanic,
    /// A compile job overruns its time budget.
    Overrun,
    /// The simulator traps while running an oracle case.
    SimTrap,
    /// The optimized artifact computes a wrong answer (exercises the
    /// differential oracle).
    Miscompile,
    /// A write-ahead-journal append fails with an I/O error.
    JournalWrite,
    /// A journal record reads back with corrupted bytes during
    /// recovery (the on-disk log itself stays intact, mirroring
    /// [`FaultSite::CacheCorrupt`]).
    JournalCorrupt,
}

impl FaultSite {
    /// All sites, for arming sweeps and reports.
    pub const ALL: [FaultSite; 9] = [
        FaultSite::CacheRead,
        FaultSite::CacheWrite,
        FaultSite::CacheCorrupt,
        FaultSite::PhasePanic,
        FaultSite::Overrun,
        FaultSite::SimTrap,
        FaultSite::Miscompile,
        FaultSite::JournalWrite,
        FaultSite::JournalCorrupt,
    ];

    /// Stable name used in keys, reports, and JSON.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CacheRead => "cache-read",
            FaultSite::CacheWrite => "cache-write",
            FaultSite::CacheCorrupt => "cache-corrupt",
            FaultSite::PhasePanic => "phase-panic",
            FaultSite::Overrun => "overrun",
            FaultSite::SimTrap => "sim-trap",
            FaultSite::Miscompile => "miscompile",
            FaultSite::JournalWrite => "journal-write",
            FaultSite::JournalCorrupt => "journal-corrupt",
        }
    }

    /// A per-site salt so the same key draws independently at each site.
    fn salt(self) -> u64 {
        // Arbitrary odd constants; fixed forever so seeds stay replayable.
        match self {
            FaultSite::CacheRead => 0x9c9e_4f1d_0b35_7a11,
            FaultSite::CacheWrite => 0x51ab_72c3_9d0e_6f2b,
            FaultSite::CacheCorrupt => 0xe3d1_08b7_44c5_2a39,
            FaultSite::PhasePanic => 0x27f8_b1a5_c04d_9e53,
            FaultSite::Overrun => 0x8b64_d90f_1e72_c467,
            FaultSite::SimTrap => 0x40c2_e6a9_7b18_f58d,
            FaultSite::Miscompile => 0xf517_3c8e_a2d0_649f,
            FaultSite::JournalWrite => 0x6d2b_91c4_5a8f_e073,
            FaultSite::JournalCorrupt => 0x1f84_c6d2_39b7_0ae5,
        }
    }
}

/// A seeded plan deciding which faults fire where.
///
/// Rates are in permille (0–1000).  A site with rate 0 is disarmed;
/// rate 1000 fires on every key.  Retryable I/O sites additionally
/// decide a deterministic *failure count* — how many consecutive
/// attempts fail before one succeeds — so bounded retry loops have
/// reproducible outcomes too.  Forced `(site, key)` pairs
/// ([`FaultPlan::force`]) fire on top of the rates.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The seed every decision derives from.
    pub seed: u64,
    rates: [u16; FaultSite::ALL.len()],
    forced: Vec<(FaultSite, String)>,
}

impl FaultPlan {
    /// A plan with every site disarmed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0; FaultSite::ALL.len()],
            forced: Vec::new(),
        }
    }

    /// A fault storm: every site armed at the given permille rate.
    pub fn storm(seed: u64, permille: u16) -> FaultPlan {
        let mut p = FaultPlan::new(seed);
        for site in FaultSite::ALL {
            p = p.arm(site, permille);
        }
        p
    }

    /// Arms one site at the given permille rate (builder style).
    pub fn arm(mut self, site: FaultSite, permille: u16) -> FaultPlan {
        self.rates[Self::index(site)] = permille.min(1000);
        self
    }

    /// Makes the fault at `site` fire for exactly `key`, whatever the
    /// seed and the site's rate (builder style).
    pub fn force(mut self, site: FaultSite, key: impl Into<String>) -> FaultPlan {
        self.forced.push((site, key.into()));
        self
    }

    /// The armed rate of a site, in permille.
    pub fn rate(&self, site: FaultSite) -> u16 {
        self.rates[Self::index(site)]
    }

    /// Whether any site is armed at all.
    pub fn is_armed(&self) -> bool {
        !self.forced.is_empty() || self.rates.iter().any(|&r| r > 0)
    }

    /// Whether the fault at `site` fires for `key`: a forced pair always
    /// does; otherwise the seeded draw decides.  Pure: independent of
    /// call order and of every other `(site, key)` decision.
    pub fn fires(&self, site: FaultSite, key: &str) -> bool {
        if self.forced.iter().any(|(s, k)| *s == site && k == key) {
            return true;
        }
        let rate = self.rate(site);
        rate > 0 && self.draw(site, key).below(1000) < u64::from(rate)
    }

    /// For retryable I/O sites: how many consecutive attempts fail
    /// before one succeeds.  Zero when the fault does not fire; when it
    /// does, between 1 and `max_failures` inclusive (deterministic per
    /// key).
    pub fn failure_count(&self, site: FaultSite, key: &str, max_failures: u32) -> u32 {
        if max_failures == 0 || !self.fires(site, key) {
            return 0;
        }
        let mut r = self.draw(site, key);
        r.next_u64(); // skip the word `fires` consumed
        1 + r.below(u64::from(max_failures)) as u32
    }

    /// Summary of armed sites as `site:rate` pairs (for reports); a site
    /// with only forced keys is listed at its rate, 0.
    pub fn armed_sites(&self) -> Vec<(&'static str, u16)> {
        FaultSite::ALL
            .iter()
            .filter(|&&s| self.rate(s) > 0 || self.forced.iter().any(|(f, _)| *f == s))
            .map(|s| (s.name(), self.rate(*s)))
            .collect()
    }

    fn draw(&self, site: FaultSite, key: &str) -> SplitMix64 {
        SplitMix64::new(self.seed ^ site.salt() ^ fnv1a(key.as_bytes()))
    }

    fn index(site: FaultSite) -> usize {
        FaultSite::ALL.iter().position(|s| *s == site).unwrap()
    }
}

/// FNV-1a over raw bytes (local copy; `trace` sits below the AST crate
/// that hosts the tree fingerprint).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_order_independent() {
        let p = FaultPlan::storm(42, 500);
        let keys = ["alpha", "beta", "gamma", "delta"];
        let forward: Vec<bool> = keys
            .iter()
            .map(|k| p.fires(FaultSite::PhasePanic, k))
            .collect();
        let backward: Vec<bool> = keys
            .iter()
            .rev()
            .map(|k| p.fires(FaultSite::PhasePanic, k))
            .collect();
        let mut backward = backward;
        backward.reverse();
        assert_eq!(forward, backward);
        // Replaying from the same seed gives the same decisions.
        let q = FaultPlan::storm(42, 500);
        for k in keys {
            assert_eq!(
                p.fires(FaultSite::CacheRead, k),
                q.fires(FaultSite::CacheRead, k)
            );
        }
    }

    #[test]
    fn sites_draw_independently() {
        // With a 50% rate over many keys, the per-site decision vectors
        // must differ (they share keys but not salts).
        let p = FaultPlan::storm(7, 500);
        let keys: Vec<String> = (0..64).map(|i| format!("fn{i}")).collect();
        let reads: Vec<bool> = keys
            .iter()
            .map(|k| p.fires(FaultSite::CacheRead, k))
            .collect();
        let writes: Vec<bool> = keys
            .iter()
            .map(|k| p.fires(FaultSite::CacheWrite, k))
            .collect();
        assert_ne!(reads, writes);
        assert!(reads.iter().any(|&b| b) && reads.iter().any(|&b| !b));
    }

    #[test]
    fn rates_bound_firing() {
        let p = FaultPlan::new(3);
        assert!(!p.is_armed());
        for i in 0..100 {
            assert!(!p.fires(FaultSite::Overrun, &format!("k{i}")));
        }
        let full = FaultPlan::new(3).arm(FaultSite::Overrun, 1000);
        for i in 0..100 {
            assert!(full.fires(FaultSite::Overrun, &format!("k{i}")));
        }
    }

    #[test]
    fn failure_counts_are_bounded_and_deterministic() {
        let p = FaultPlan::storm(11, 1000);
        for i in 0..50 {
            let k = format!("entry{i}");
            let n = p.failure_count(FaultSite::CacheRead, &k, 3);
            assert!((1..=3).contains(&n), "{n}");
            assert_eq!(n, p.failure_count(FaultSite::CacheRead, &k, 3));
        }
        let off = FaultPlan::new(11);
        assert_eq!(off.failure_count(FaultSite::CacheRead, "x", 3), 0);
    }

    #[test]
    fn armed_sites_report() {
        let p = FaultPlan::new(1)
            .arm(FaultSite::PhasePanic, 250)
            .arm(FaultSite::Miscompile, 1000);
        assert_eq!(
            p.armed_sites(),
            vec![("phase-panic", 250), ("miscompile", 1000)]
        );
    }

    #[test]
    fn forced_pairs_fire_for_every_seed_and_nothing_else() {
        for seed in 0..64 {
            let p =
                FaultPlan::new(seed).force(FaultSite::PhasePanic, "tak/Source-level optimization");
            assert!(p.is_armed());
            assert!(p.fires(FaultSite::PhasePanic, "tak/Source-level optimization"));
            assert!(!p.fires(FaultSite::PhasePanic, "tak/Code generation"));
            assert!(!p.fires(FaultSite::PhasePanic, "tak"));
            for site in FaultSite::ALL {
                if site != FaultSite::PhasePanic {
                    assert!(!p.fires(site, "tak/Source-level optimization"), "{site:?}");
                }
            }
            assert_eq!(p.armed_sites(), vec![("phase-panic", 0)]);
        }
    }
}
