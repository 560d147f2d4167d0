//! TNBIND: global storage allocation by temporary names (§6.1).
//!
//! "In the TNBIND technique a TN (this term means 'temporary name', and
//! refers to a small data structure) is assigned to every computational
//! quantity in the program, both user variables and intermediate
//! results.  Each TN is annotated on the basis of the context of its use
//! as to the costs associated with allocating it to one or another kind
//! of storage location … After all TNs have been annotated, a global
//! packing process assigns each TN to a specific run-time storage
//! location."
//!
//! By "register allocation" the paper means "the compile-time
//! determination of storage locations for all computational quantities,
//! whether such storage locations be in registers, static memory, stack
//! frames, or the heap" — this crate does the same: every TN ends up in a
//! [`Location`]: a register or a stack-frame slot.
//!
//! The S-1-specific wrinkle is the RT registers: "many (though not all)
//! arithmetic operations must pass through one of the two special
//! registers RTA and RTB … for the best code a clever dance is often
//! needed."  TNs can declare an RT preference; the packer weighs it.
//!
//! "Compilation time can be traded for run-time efficiency here by
//! making the packing process more or less clever; for example, a
//! packing method that backtracks can potentially produce better packings
//! than one that does not."  [`pack`] is greedy: a backtracking packer
//! that retried rotated priority orders was measured to change no corpus
//! program and was removed.  [`pack_naive`] is the all-in-memory baseline
//! for the ablation experiments.
//!
//! # Examples
//!
//! ```
//! use s1lisp_tnbind::{Packing, PackRequest, TnPool, Location};
//!
//! let mut pool = TnPool::new();
//! let x = pool.new_tn("x");
//! pool.record_use(x, 0);
//! pool.record_use(x, 4);
//! let y = pool.new_tn("y");
//! pool.record_use(y, 1);
//! pool.record_use(y, 2);
//! let packing = s1lisp_tnbind::pack(&pool, &PackRequest::default());
//! // Both fit in registers (no calls intervene).
//! assert!(matches!(packing.location(x), Location::Reg(_)));
//! assert!(matches!(packing.location(y), Location::Reg(_)));
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;

/// Identifier of a temporary name.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TnId(u32);

impl TnId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for TnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tn{}", self.0)
    }
}

/// A run-time storage location.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Location {
    /// A machine register (by register number).
    Reg(u8),
    /// A stack-frame slot (by frame index).
    Slot(u16),
}

/// Storage-class constraints a TN may carry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StorageClass {
    /// Register or slot, packer's choice.
    #[default]
    Any,
    /// Must live in memory (e.g. pdl-number slots: "it must be allocated
    /// to the scratch (non-pointer) region of the stack, not to a
    /// register", §6.3).
    SlotOnly,
    /// Must live in a register.
    RegOnly,
}

/// One temporary name.
#[derive(Clone, Debug)]
pub struct Tn {
    /// Debugging label.
    pub name: String,
    /// First use position (in the linearized code order).
    pub first: u32,
    /// Last use position.
    pub last: u32,
    /// Number of uses (priority weight).
    pub uses: u32,
    /// Constraint.
    pub class: StorageClass,
    /// Prefers an RT register (operand of 2½-address arithmetic).
    pub rt_preference: bool,
    /// Affinity edges: TNs that would like the same location ("two
    /// others might desirably be allocated to the same place because one
    /// is logically copied to the other at some point").
    pub affinities: Vec<TnId>,
}

impl Tn {
    /// Do two TNs' live ranges intersect (so they may not share a
    /// location)?
    pub fn overlaps(&self, other: &Tn) -> bool {
        // Live ranges are inclusive: two TNs conflict when their ranges
        // intersect ("two TNs might be forbidden to occupy the same place
        // because their lifetimes overlap").
        self.first <= other.last && other.first <= self.last
    }
}

/// The collection of TNs for one function, plus the call sites that
/// clobber registers.
#[derive(Clone, Debug, Default)]
pub struct TnPool {
    tns: Vec<Tn>,
    /// Positions of full procedure calls ("calls to other procedures by
    /// convention may destroy nearly all registers", §7).
    pub call_positions: Vec<u32>,
    /// Loop regions `(start, end)`: control may jump from `end` back to
    /// `start`, so any lifetime touching the region effectively spans it.
    pub loop_regions: Vec<(u32, u32)>,
}

impl TnPool {
    /// An empty pool.
    pub fn new() -> TnPool {
        TnPool::default()
    }

    /// Creates a TN.
    pub fn new_tn(&mut self, name: &str) -> TnId {
        let id = TnId(self.tns.len() as u32);
        self.tns.push(Tn {
            name: name.to_string(),
            first: u32::MAX,
            last: 0,
            uses: 0,
            class: StorageClass::Any,
            rt_preference: false,
            affinities: Vec::new(),
        });
        id
    }

    /// Records a use of `tn` at code position `pos`.
    pub fn record_use(&mut self, tn: TnId, pos: u32) {
        let t = &mut self.tns[tn.index()];
        t.first = t.first.min(pos);
        t.last = t.last.max(pos);
        t.uses += 1;
    }

    /// Records a register-clobbering call at `pos`.
    pub fn record_call(&mut self, pos: u32) {
        self.call_positions.push(pos);
    }

    /// Records a loop region (a backward branch from `end` to `start`).
    pub fn record_loop(&mut self, start: u32, end: u32) {
        if start < end {
            self.loop_regions.push((start, end));
        }
    }

    /// The lifetime of `tn` extended across every loop it touches: a
    /// value live anywhere inside a loop is live for the whole loop,
    /// because the backward branch re-enters the region.
    pub fn effective_range(&self, tn: TnId) -> (u32, u32) {
        let t = &self.tns[tn.index()];
        let (mut f, mut l) = (t.first, t.last);
        loop {
            let mut changed = false;
            for &(rs, re) in &self.loop_regions {
                if f <= re && rs <= l && (rs < f || re > l) {
                    f = f.min(rs);
                    l = l.max(re);
                    changed = true;
                }
            }
            if !changed {
                return (f, l);
            }
        }
    }

    /// Constrains the TN's storage class.
    pub fn set_class(&mut self, tn: TnId, class: StorageClass) {
        self.tns[tn.index()].class = class;
    }

    /// Marks an RT-register preference.
    pub fn prefer_rt(&mut self, tn: TnId) {
        self.tns[tn.index()].rt_preference = true;
    }

    /// Declares that `a` and `b` would like the same location.
    pub fn add_affinity(&mut self, a: TnId, b: TnId) {
        self.tns[a.index()].affinities.push(b);
        self.tns[b.index()].affinities.push(a);
    }

    /// Access to a TN.
    pub fn tn(&self, id: TnId) -> &Tn {
        &self.tns[id.index()]
    }

    /// Number of TNs.
    pub fn len(&self) -> usize {
        self.tns.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.tns.is_empty()
    }

    /// All TN ids.
    pub fn ids(&self) -> impl Iterator<Item = TnId> {
        (0..self.tns.len() as u32).map(TnId)
    }

    /// Does the TN's lifetime cross a call (so a register would be
    /// clobbered)?  Matches §7's commentary on `testfn`: "TNBIND
    /// determined that e must survive the call to frotz … calls to other
    /// procedures by convention may destroy nearly all registers."
    pub fn crosses_call(&self, tn: TnId) -> bool {
        let (first, last) = self.effective_range(tn);
        self.call_positions.iter().any(|&c| first < c && c < last)
    }

    /// Number of edges in the TN conflict graph: unordered pairs of TNs
    /// whose lifetimes overlap.  O(n²) — telemetry only; the packers
    /// never materialize the graph.
    pub fn conflict_edges(&self) -> u64 {
        let ids: Vec<TnId> = self.ids().collect();
        let mut edges = 0u64;
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                if self.tn(a).overlaps(self.tn(b)) {
                    edges += 1;
                }
            }
        }
        edges
    }
}

/// Packing parameters.
#[derive(Clone, Debug)]
pub struct PackRequest {
    /// General-purpose register numbers available for allocation.
    pub registers: Vec<u8>,
    /// The RT (arithmetic bottleneck) register numbers.
    pub rt_registers: Vec<u8>,
    /// First frame slot index available for spills.
    pub first_slot: u16,
}

impl Default for PackRequest {
    fn default() -> PackRequest {
        PackRequest {
            // R9..R15 general, matching the codegen conventions.
            registers: (9..=15).collect(),
            rt_registers: vec![4, 6], // RTA, RTB
            first_slot: 0,
        }
    }
}

/// The result of packing.
#[derive(Clone, Debug)]
pub struct Packing {
    locations: Vec<Location>,
    /// Number of frame slots consumed.
    pub slots_used: u16,
    /// TNs that got registers.
    pub in_registers: usize,
}

impl Packing {
    /// The location assigned to `tn`.
    pub fn location(&self, tn: TnId) -> Location {
        self.locations[tn.index()]
    }
}

/// Greedy interval packing: highest-priority TNs get registers first;
/// RT-preferring TNs try the RT registers first; lifetimes crossing a
/// call are forced to memory.
pub fn pack(pool: &TnPool, req: &PackRequest) -> Packing {
    let mut order: Vec<TnId> = pool.ids().filter(|&t| pool.tn(t).uses > 0).collect();
    order.sort_by_key(|&t| {
        let tn = pool.tn(t);
        (std::cmp::Reverse(tn.uses), tn.last - tn.first, t)
    });
    pack_in_order(pool, req, &order)
}

/// The all-in-memory baseline (what a compiler without TNBIND would do);
/// used by the ablation experiments E5/E12.
pub fn pack_naive(pool: &TnPool, req: &PackRequest) -> Packing {
    let mut locations = vec![Location::Slot(0); pool.len()];
    let mut next = req.first_slot;
    for id in pool.ids() {
        if pool.tn(id).uses == 0 {
            continue;
        }
        locations[id.index()] = Location::Slot(next);
        next += 1;
    }
    Packing {
        locations,
        slots_used: next - req.first_slot,
        in_registers: 0,
    }
}

fn pack_in_order(pool: &TnPool, req: &PackRequest, order: &[TnId]) -> Packing {
    let mut locations = vec![Location::Slot(u16::MAX); pool.len()];
    let mut assigned: HashMap<TnId, Location> = HashMap::new();
    let mut reg_intervals: HashMap<u8, Vec<(u32, u32)>> = HashMap::new();
    let mut slot_intervals: Vec<Vec<(u32, u32)>> = Vec::new();

    let fits = |intervals: &[(u32, u32)], range: (u32, u32)| {
        intervals
            .iter()
            .all(|&(f, l)| !(f <= range.1 && range.0 <= l))
    };

    for &id in order {
        let tn = pool.tn(id);
        let range = pool.effective_range(id);
        let reg_ok = tn.class != StorageClass::SlotOnly && !pool.crosses_call(id);

        // Affinity first: inherit a partner's location when legal.
        let mut chosen: Option<Location> = None;
        for &buddy in &tn.affinities {
            if let Some(&loc) = assigned.get(&buddy) {
                let legal = match loc {
                    Location::Reg(r) => {
                        reg_ok && fits(reg_intervals.get(&r).map_or(&[][..], |v| v), range)
                    }
                    Location::Slot(s) => fits(&slot_intervals[s as usize], range),
                };
                if legal {
                    chosen = Some(loc);
                    break;
                }
            }
        }
        // RT preference, then general registers.
        if chosen.is_none() && reg_ok {
            let pools: Vec<&[u8]> = if tn.rt_preference {
                vec![&req.rt_registers, &req.registers]
            } else {
                vec![&req.registers, &req.rt_registers]
            };
            'outer: for regs in pools {
                for &r in regs {
                    if fits(reg_intervals.get(&r).map_or(&[][..], |v| v), range) {
                        chosen = Some(Location::Reg(r));
                        break 'outer;
                    }
                }
            }
        }
        // Fall back to a frame slot, reusing dead ones.
        let loc = chosen.unwrap_or_else(|| {
            for (s, intervals) in slot_intervals.iter().enumerate() {
                if fits(intervals, range) {
                    return Location::Slot(req.first_slot + s as u16);
                }
            }
            slot_intervals.push(Vec::new());
            Location::Slot(req.first_slot + (slot_intervals.len() - 1) as u16)
        });
        if tn.class == StorageClass::RegOnly {
            assert!(
                matches!(loc, Location::Reg(_)),
                "TN {} requires a register but none fits",
                tn.name
            );
        }
        match loc {
            Location::Reg(r) => reg_intervals.entry(r).or_default().push(range),
            Location::Slot(s) => {
                let idx = (s - req.first_slot) as usize;
                slot_intervals[idx].push(range);
            }
        }
        locations[id.index()] = loc;
        assigned.insert(id, loc);
    }

    let in_registers = assigned
        .values()
        .filter(|l| matches!(l, Location::Reg(_)))
        .count();
    Packing {
        locations,
        slots_used: slot_intervals.len() as u16,
        in_registers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tn_with_range(pool: &mut TnPool, name: &str, first: u32, last: u32) -> TnId {
        let t = pool.new_tn(name);
        pool.record_use(t, first);
        pool.record_use(t, last);
        t
    }

    #[test]
    fn disjoint_lifetimes_share_a_register() {
        let mut pool = TnPool::new();
        let a = tn_with_range(&mut pool, "a", 0, 3);
        let b = tn_with_range(&mut pool, "b", 4, 7);
        let req = PackRequest {
            registers: vec![9],
            ..PackRequest::default()
        };
        let p = pack(&pool, &req);
        assert_eq!(p.location(a), p.location(b));
        assert!(matches!(p.location(a), Location::Reg(9)));
    }

    #[test]
    fn overlapping_lifetimes_conflict() {
        let mut pool = TnPool::new();
        let a = tn_with_range(&mut pool, "a", 0, 5);
        let b = tn_with_range(&mut pool, "b", 3, 8);
        let req = PackRequest {
            registers: vec![9],
            rt_registers: vec![],
            ..PackRequest::default()
        };
        let p = pack(&pool, &req);
        assert_ne!(p.location(a), p.location(b));
        // One spilled to a slot.
        let slots = [a, b]
            .iter()
            .filter(|&&t| matches!(p.location(t), Location::Slot(_)))
            .count();
        assert_eq!(slots, 1);
    }

    #[test]
    fn call_crossing_forces_memory() {
        // §7: e survives the call to frotz and therefore lives on the
        // stack; d does not and may have a register.
        let mut pool = TnPool::new();
        let d = tn_with_range(&mut pool, "d", 0, 4);
        let e = tn_with_range(&mut pool, "e", 1, 9);
        pool.record_call(5);
        let p = pack(&pool, &PackRequest::default());
        assert!(matches!(p.location(d), Location::Reg(_)));
        assert!(matches!(p.location(e), Location::Slot(_)));
        assert!(pool.crosses_call(e));
        assert!(!pool.crosses_call(d));
    }

    #[test]
    fn rt_preference_wins_rt_registers() {
        let mut pool = TnPool::new();
        let x = tn_with_range(&mut pool, "x", 0, 2);
        pool.prefer_rt(x);
        let p = pack(&pool, &PackRequest::default());
        assert!(matches!(p.location(x), Location::Reg(4 | 6)));
    }

    #[test]
    fn slot_only_class_is_respected() {
        // Pdl-number TNs must be stack slots.
        let mut pool = TnPool::new();
        let x = tn_with_range(&mut pool, "pdl", 0, 2);
        pool.set_class(x, StorageClass::SlotOnly);
        let p = pack(&pool, &PackRequest::default());
        assert!(matches!(p.location(x), Location::Slot(_)));
    }

    #[test]
    fn affinity_merges_locations() {
        let mut pool = TnPool::new();
        let a = tn_with_range(&mut pool, "a", 0, 3);
        let b = tn_with_range(&mut pool, "b", 4, 6);
        pool.add_affinity(a, b);
        let p = pack(&pool, &PackRequest::default());
        assert_eq!(p.location(a), p.location(b), "copy elimination");
    }

    #[test]
    fn naive_packing_uses_only_slots() {
        let mut pool = TnPool::new();
        let a = tn_with_range(&mut pool, "a", 0, 1);
        let b = tn_with_range(&mut pool, "b", 2, 3);
        let p = pack_naive(&pool, &PackRequest::default());
        assert!(matches!(p.location(a), Location::Slot(_)));
        assert!(matches!(p.location(b), Location::Slot(_)));
        assert_eq!(p.in_registers, 0);
        assert_eq!(p.slots_used, 2);
    }

    #[test]
    fn loop_regions_extend_lifetimes() {
        // n is read at position 2 inside a loop [1, 10]; p is written at
        // 8 and read at 9.  Linearly disjoint, but the backedge makes n
        // live at 8–9 too: they must not share a register.
        let mut pool = TnPool::new();
        let n = tn_with_range(&mut pool, "n", 2, 2);
        let p = tn_with_range(&mut pool, "p", 8, 9);
        pool.record_loop(1, 10);
        assert_eq!(pool.effective_range(n), (1, 10));
        let q = pack(&pool, &PackRequest::default());
        assert_ne!(q.location(n), q.location(p));
        // A TN entirely outside the loop is unaffected.
        let o = tn_with_range(&mut pool, "o", 12, 14);
        assert_eq!(pool.effective_range(o), (12, 14));
    }

    #[test]
    fn slots_are_reused_after_death() {
        let mut pool = TnPool::new();
        pool.record_call(100); // force everything to memory
        let mut ids = Vec::new();
        for i in 0..6 {
            let t = tn_with_range(&mut pool, &format!("t{i}"), i * 10, i * 10 + 5);
            pool.record_use(t, 99);
            ids.push(t);
        }
        // All cross the call at 100? No: last use 99 < 100, so they
        // don't cross; force with class instead.
        for &t in &ids {
            pool.set_class(t, StorageClass::SlotOnly);
        }
        let p = pack(&pool, &PackRequest::default());
        // All overlap at 99 … so all need distinct slots.
        assert_eq!(p.slots_used, 6);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use s1lisp_trace::rng::SplitMix64;

    /// Packing invariant: TNs with overlapping lifetimes never share
    /// a location.
    #[test]
    fn no_overlapping_tns_share_locations() {
        let mut rng = SplitMix64::new(0x5115_0005);
        for _case in 0..256 {
            let ranges: Vec<(u32, u32)> = (0..rng.range_usize(1, 24))
                .map(|_| (rng.below(64) as u32, rng.below(16) as u32))
                .collect();
            let calls: Vec<u32> = (0..rng.range_usize(0, 4))
                .map(|_| rng.below(64) as u32)
                .collect();
            let mut pool = TnPool::new();
            let mut ids = Vec::new();
            for (i, &(start, len)) in ranges.iter().enumerate() {
                let t = pool.new_tn(&format!("t{i}"));
                pool.record_use(t, start);
                pool.record_use(t, start + len);
                ids.push(t);
            }
            for &c in &calls {
                pool.record_call(c);
            }
            let p = pack(&pool, &PackRequest::default());
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    if pool.tn(a).overlaps(pool.tn(b)) {
                        assert_ne!(p.location(a), p.location(b));
                    }
                }
            }
            // And register TNs never cross calls.
            for &t in &ids {
                if matches!(p.location(t), Location::Reg(_)) {
                    assert!(!pool.crosses_call(t));
                }
            }
        }
    }
}
