//! The tagged heap with mark–sweep garbage collection.
//!
//! "The run-time system, and especially the garbage collector, has been
//! written with multiprocessing in mind" (§3) — our reproduction is
//! single-threaded, but the collector is real: allocation failure
//! triggers a mark–sweep over the roots the machine supplies, and the
//! statistics it produces (allocations by kind, collections, live words)
//! feed the pdl-number experiment (E7), whose whole point is *avoiding*
//! "consequent garbage-collection overhead" (§6.2).

use crate::word::{Tag, Word, STACK_BASE};

/// Kinds of heap objects, for allocation statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// A boxed flonum (1 word).
    Flonum,
    /// A cons cell (2 words).
    Cons,
    /// A value cell (1 word).
    Cell,
    /// A closure (2 + n words: length, code id, captured cells).
    Closure,
    /// A raw word block (untagged data, e.g. the E5 demo's float
    /// matrices).  Not scanned by the collector — callers must keep such
    /// blocks alive by not collecting while they are in use.
    Block,
}

/// The contents of a never-written or swept word.
const UNUSED: Word = Word::Ptr(Tag::Gc, 0);

/// The word array grows in whole steps of this many words.
const MIN_GROWTH: usize = 1024;

/// The heap: a word array with a bump/free-list allocator.
///
/// The capacity fixes when a collection runs; the word array and its
/// mark bits are only as long as the bump frontier has reached (rounded
/// up to whole 1024-word steps), and grow with it towards the capacity.
/// A heap of 2^20 words that a run touches 300 words of costs 1024
/// words.
#[derive(Clone, Debug)]
pub struct Heap {
    words: Vec<Word>,
    /// Words the heap may hand out before an allocation must collect.
    capacity: usize,
    /// Next never-used address (bump frontier).
    frontier: usize,
    /// Free blocks from previous collections: (address, size).
    free: Vec<(usize, usize)>,
    /// Mark bits, one per word of `words` (object marks live on the
    /// header word).
    marks: Vec<bool>,
    /// Allocation counters by kind.
    pub allocs: AllocStats,
    telemetry: HeapTelemetry,
}

/// Allocation-size histogram bounds, in words (must match
/// `s1lisp_trace::metrics::SIZE_BUCKETS_WORDS` so the heap's plain
/// counters merge into a registry histogram loss-free; pinned by test).
pub const ALLOC_SIZE_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// One live-set sample, taken at the end of every collection — the
/// "live-set curve" the GC-stress experiments plot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveSample {
    /// Which collection this sample closed (1-based, equals
    /// [`AllocStats::collections`] at sample time).
    pub collection: u64,
    /// Words found live (marked) below the frontier.
    pub live_words: u64,
    /// Words swept onto the free list.
    pub reclaimed_words: u64,
    /// Free-list fragments left after the sweep.
    pub free_blocks: u64,
}

/// Heap telemetry beyond the plain [`AllocStats`] counters: the
/// allocation-size distribution, the live-set curve, and mark/sweep
/// pause attribution.  All fields are plain values (no interior
/// mutability), so cloning a [`Heap`] clones its telemetry rather than
/// sharing it.
#[derive(Clone, Debug, Default)]
pub struct HeapTelemetry {
    /// Successful allocations per size bucket (bounds are
    /// [`ALLOC_SIZE_BOUNDS`], inclusive upper bounds).
    pub alloc_size_counts: [u64; ALLOC_SIZE_BOUNDS.len()],
    /// Allocations larger than the last bound.
    pub alloc_size_overflow: u64,
    /// Total words across all successful allocations (histogram sum).
    pub alloc_size_sum: u64,
    /// One sample per collection, in collection order.
    pub live_samples: Vec<LiveSample>,
    /// Host nanoseconds spent in the mark phase, summed over
    /// collections.  Host-time: zeroed for deterministic snapshots.
    pub mark_pause_ns: u64,
    /// Host nanoseconds spent in the sweep phase, summed over
    /// collections.  Host-time: zeroed for deterministic snapshots.
    pub sweep_pause_ns: u64,
}

impl HeapTelemetry {
    fn record_alloc(&mut self, size: usize) {
        let size = size as u64;
        match ALLOC_SIZE_BOUNDS.iter().position(|&b| size <= b) {
            Some(i) => self.alloc_size_counts[i] += 1,
            None => self.alloc_size_overflow += 1,
        }
        self.alloc_size_sum += size;
    }

    /// Total successful allocations recorded by the size histogram.
    pub fn alloc_count(&self) -> u64 {
        self.alloc_size_counts.iter().sum::<u64>() + self.alloc_size_overflow
    }
}

/// Allocation statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Boxed flonums allocated (the number the pdl-number machinery
    /// tries to minimize).
    pub flonums: u64,
    /// Cons cells allocated.
    pub conses: u64,
    /// Value cells allocated.
    pub cells: u64,
    /// Closures allocated.
    pub closures: u64,
    /// Raw blocks allocated.
    pub blocks: u64,
    /// Total heap words handed out.
    pub words: u64,
    /// Garbage collections run.
    pub collections: u64,
}

impl AllocStats {
    /// Total objects allocated.
    pub fn objects(&self) -> u64 {
        self.flonums + self.conses + self.cells + self.closures
    }
}

impl Heap {
    /// A heap of `capacity` words.
    pub fn new(capacity: usize) -> Heap {
        assert!((capacity as u64) < STACK_BASE, "heap too large");
        Heap {
            words: Vec::new(),
            capacity,
            frontier: 1, // address 0 is reserved (nil's address)
            free: Vec::new(),
            marks: Vec::new(),
            allocs: AllocStats::default(),
            telemetry: HeapTelemetry::default(),
        }
    }

    /// The heap's accumulated telemetry (size histogram, live-set curve,
    /// pause attribution).
    pub fn telemetry(&self) -> &HeapTelemetry {
        &self.telemetry
    }

    /// Free-list fragmentation in permille: the share of reclaimed-but-
    /// unreused space that sits in blocks too small to hold a closure
    /// header (< 3 words).  0 when the free list is empty.
    pub fn fragmentation_permille(&self) -> u64 {
        let total: usize = self.free.iter().map(|&(_, s)| s).sum();
        if total == 0 {
            return 0;
        }
        let slivers: usize = self.free.iter().map(|&(_, s)| s).filter(|&s| s < 3).sum();
        (slivers as u64 * 1000) / total as u64
    }

    /// Exports the heap's telemetry into `reg` under `heap.*` metric
    /// names.  Bulk-merges the plain counters, so exporting twice
    /// double-counts — callers export once per finished run.
    pub fn export_metrics(&self, reg: &s1lisp_trace::metrics::MetricsRegistry) {
        use s1lisp_trace::metrics::SIZE_BUCKETS_WORDS;
        let t = &self.telemetry;
        reg.counter("heap.alloc.flonums").add(self.allocs.flonums);
        reg.counter("heap.alloc.conses").add(self.allocs.conses);
        reg.counter("heap.alloc.cells").add(self.allocs.cells);
        reg.counter("heap.alloc.closures").add(self.allocs.closures);
        reg.counter("heap.alloc.blocks").add(self.allocs.blocks);
        reg.counter("heap.alloc.words").add(self.allocs.words);
        reg.counter("heap.collections").add(self.allocs.collections);
        reg.counter("heap.gc.mark_pause_ns").add(t.mark_pause_ns);
        reg.counter("heap.gc.sweep_pause_ns").add(t.sweep_pause_ns);
        reg.histogram("heap.alloc_size_words", SIZE_BUCKETS_WORDS)
            .record_prebucketed(
                &t.alloc_size_counts,
                t.alloc_size_overflow,
                t.alloc_size_sum,
            );
        reg.gauge("heap.fragmentation_permille")
            .set(self.fragmentation_permille() as i64);
        if let Some(last) = t.live_samples.last() {
            reg.gauge("heap.live_words").set(last.live_words as i64);
            reg.gauge("heap.free_blocks").set(last.free_blocks as i64);
        }
    }

    /// Words still available without collecting.
    pub fn headroom(&self) -> usize {
        (self.capacity - self.frontier) + self.free.iter().map(|&(_, s)| s).sum::<usize>()
    }

    /// Grows the word array (and its marks) to `len` words rounded up to
    /// a multiple of [`MIN_GROWTH`], never past the capacity.  Only the
    /// words up to the frontier are written; `Vec` keeps its amortised
    /// capacity, so growing stays cheap and memory the run never reached
    /// is never touched.  Cold and out of line: inlined into the
    /// allocation fast path, it slowed the benchmark's run-kernels
    /// rounds by about a tenth.
    #[cold]
    #[inline(never)]
    fn grow_to(&mut self, len: usize) {
        assert!(len <= self.capacity, "heap address {len} beyond capacity");
        let len = len.next_multiple_of(MIN_GROWTH).min(self.capacity);
        self.words.resize(len, UNUSED);
        self.marks.resize(len, false);
    }

    /// Attempts to allocate `size` words, returning the base address, or
    /// `None` when a collection is needed.  The machine wraps this with
    /// GC-and-retry.
    pub fn try_alloc(&mut self, size: usize, kind: ObjKind) -> Option<u64> {
        // Prefer an exact-size free block; otherwise split a larger one;
        // otherwise bump the frontier.
        let addr = if let Some(pos) = self.free.iter().position(|&(_, s)| s == size) {
            let (addr, _) = self.free.swap_remove(pos);
            addr
        } else if let Some(pos) = self.free.iter().position(|&(_, s)| s > size) {
            let (addr, s) = self.free.swap_remove(pos);
            self.free.push((addr + size, s - size));
            addr
        } else if self.frontier + size <= self.capacity {
            let addr = self.frontier;
            self.frontier += size;
            if self.frontier > self.words.len() {
                self.grow_to(self.frontier);
            }
            addr
        } else {
            return None;
        };
        self.telemetry.record_alloc(size);
        self.allocs.words += size as u64;
        match kind {
            ObjKind::Flonum => self.allocs.flonums += 1,
            ObjKind::Cons => self.allocs.conses += 1,
            ObjKind::Cell => self.allocs.cells += 1,
            ObjKind::Closure => self.allocs.closures += 1,
            ObjKind::Block => self.allocs.blocks += 1,
        }
        Some(addr as u64)
    }

    /// Reads heap word `addr` (never-written words read as unused).
    pub fn read(&self, addr: u64) -> Word {
        match self.words.get(addr as usize) {
            Some(&w) => w,
            None => {
                assert!((addr as usize) < self.capacity, "heap read at {addr}");
                UNUSED
            }
        }
    }

    /// Writes heap word `addr`.
    pub fn write(&mut self, addr: u64, w: Word) {
        let a = addr as usize;
        if a >= self.words.len() {
            self.grow_to(a + 1);
        }
        self.words[a] = w;
    }

    /// Runs a mark–sweep collection.  `roots` yields every word the
    /// mutator can reach directly (registers, stack, special bindings,
    /// globals).  Returns the number of words reclaimed.
    pub fn collect(&mut self, roots: &[Word]) -> usize {
        self.allocs.collections += 1;
        let mark_start = std::time::Instant::now();
        self.marks.iter_mut().for_each(|m| *m = false);
        let mut work: Vec<(u64, usize)> = roots
            .iter()
            .filter_map(|&r| object_extent(self, r))
            .collect();
        // Mark.  Words past the grown length were never written, so
        // they hold no object and reference nothing.
        while let Some((addr, size)) = work.pop() {
            let (addr, end) = (addr as usize, (addr as usize + size).min(self.words.len()));
            if addr >= end || self.marks[addr] {
                continue;
            }
            for i in addr..end {
                self.marks[i] = true;
            }
            for i in addr..end {
                if let Some((child, csize)) = object_extent(self, self.words[i]) {
                    if self.marks.get(child as usize) == Some(&false) {
                        work.push((child, csize));
                    }
                }
            }
        }
        self.telemetry.mark_pause_ns += mark_start.elapsed().as_nanos() as u64;
        let sweep_start = std::time::Instant::now();
        // Sweep: coalesce unmarked spans below the frontier into the free
        // list (simple span accounting; spans are reused only for
        // same-size requests, which is fine for our small object zoo).
        self.free.clear();
        let mut reclaimed = 0;
        let mut i = 1usize;
        while i < self.frontier {
            if self.marks[i] {
                i += 1;
                continue;
            }
            let start = i;
            while i < self.frontier && !self.marks[i] {
                self.words[i] = UNUSED;
                i += 1;
            }
            let len = i - start;
            reclaimed += len;
            // Whole spans go on the free list; the allocator splits them
            // on demand.
            self.free.push((start, len));
        }
        self.telemetry.sweep_pause_ns += sweep_start.elapsed().as_nanos() as u64;
        // Live-set sample: everything below the frontier that survived.
        let live_words = (self.frontier - 1 - reclaimed) as u64;
        self.telemetry.live_samples.push(LiveSample {
            collection: self.allocs.collections,
            live_words,
            reclaimed_words: reclaimed as u64,
            free_blocks: self.free.len() as u64,
        });
        reclaimed
    }
}

/// If `w` references a heap object, its base address and size.
fn object_extent(heap: &Heap, w: Word) -> Option<(u64, usize)> {
    match w {
        Word::Ptr(tag, addr) if tag.is_reference() && addr < STACK_BASE => {
            let size = match tag {
                Tag::SingleFlonum | Tag::Cell => 1,
                Tag::Cons => 2,
                Tag::Closure => match heap.words.get(addr as usize) {
                    Some(Word::Raw(n)) => *n as usize,
                    _ => 1,
                },
                _ => return None,
            };
            Some((addr, size))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_counts() {
        let mut h = Heap::new(64);
        let a = h.try_alloc(2, ObjKind::Cons).unwrap();
        let b = h.try_alloc(1, ObjKind::Flonum).unwrap();
        assert_ne!(a, b);
        assert_eq!(h.allocs.conses, 1);
        assert_eq!(h.allocs.flonums, 1);
        assert_eq!(h.allocs.words, 3);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut h = Heap::new(8);
        while h.try_alloc(2, ObjKind::Cons).is_some() {}
        assert!(h.try_alloc(2, ObjKind::Cons).is_none());
    }

    #[test]
    fn collection_reclaims_garbage_and_keeps_live_data() {
        let mut h = Heap::new(32);
        // live cons → (flonum . nil)
        let f = h.try_alloc(1, ObjKind::Flonum).unwrap();
        h.write(f, Word::F(2.5));
        let live = h.try_alloc(2, ObjKind::Cons).unwrap();
        h.write(live, Word::Ptr(Tag::SingleFlonum, f));
        h.write(live + 1, Word::NIL);
        // garbage conses
        for _ in 0..5 {
            let g = h.try_alloc(2, ObjKind::Cons).unwrap();
            h.write(g, Word::fixnum(0));
            h.write(g + 1, Word::NIL);
        }
        let root = Word::Ptr(Tag::Cons, live);
        let reclaimed = h.collect(&[root]);
        assert!(reclaimed >= 10, "reclaimed {reclaimed}");
        // Live data survives.
        assert_eq!(h.read(live), Word::Ptr(Tag::SingleFlonum, f));
        assert_eq!(h.read(f), Word::F(2.5));
        // And the freed space is reusable.
        assert!(h.try_alloc(2, ObjKind::Cons).is_some());
        assert_eq!(h.allocs.collections, 1);
    }

    #[test]
    fn telemetry_tracks_sizes_and_live_set_across_collections() {
        // Same shape as the churn test, but small enough to force several
        // collections, and we audit the telemetry after each one.
        let mut h = Heap::new(96);
        let mut root = Word::NIL;
        let mut live_len = 0usize;
        for i in 0..300 {
            if i % 7 == 0 {
                // Periodically drop the list so the live set shrinks.
                root = Word::NIL;
                live_len = 0;
            }
            let addr = match h.try_alloc(2, ObjKind::Cons) {
                Some(a) => a,
                None => {
                    h.collect(&[root]);
                    h.try_alloc(2, ObjKind::Cons).expect("post-gc alloc")
                }
            };
            h.write(addr, Word::fixnum(i));
            h.write(addr + 1, root);
            root = Word::Ptr(Tag::Cons, addr);
            live_len += 1;
            // The live-set sample taken by the most recent collection can
            // never exceed what the list held at that point.
            if let Some(s) = h.telemetry().live_samples.last() {
                assert!(s.live_words <= h.allocs.words);
            }
            let _ = live_len;
        }
        let t = h.telemetry().clone();
        assert!(
            h.allocs.collections >= 2,
            "workload too small: {} collections",
            h.allocs.collections
        );
        // One sample per collection, in collection order (monotone ids).
        assert_eq!(t.live_samples.len() as u64, h.allocs.collections);
        for (i, s) in t.live_samples.iter().enumerate() {
            assert_eq!(s.collection, i as u64 + 1);
            // live + reclaimed is exactly the allocated span below the
            // frontier at collection time, so it can never exceed the
            // words AllocStats says were ever handed out.
            assert!(s.live_words + s.reclaimed_words <= h.allocs.words);
        }
        // The size histogram saw every allocation AllocStats counted.
        assert_eq!(t.alloc_count(), h.allocs.objects() + h.allocs.blocks);
        assert_eq!(t.alloc_size_sum, h.allocs.words);
        // All conses: every size lands in the 2-word bucket.
        assert_eq!(t.alloc_size_counts[1], t.alloc_count());
    }

    #[test]
    fn heap_size_bounds_match_registry_buckets() {
        // export_metrics merges the plain bucket table into a registry
        // histogram positionally — the bounds must agree exactly.
        assert_eq!(
            ALLOC_SIZE_BOUNDS.as_slice(),
            s1lisp_trace::metrics::SIZE_BUCKETS_WORDS
        );
    }

    #[test]
    fn export_metrics_round_trips_through_registry() {
        let mut h = Heap::new(64);
        for _ in 0..5 {
            h.try_alloc(2, ObjKind::Cons).unwrap();
        }
        h.try_alloc(1, ObjKind::Flonum).unwrap();
        h.collect(&[]);
        let reg = s1lisp_trace::metrics::MetricsRegistry::new();
        h.export_metrics(&reg);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("heap.alloc.conses"), Some(5));
        assert_eq!(snap.counter("heap.alloc.flonums"), Some(1));
        assert_eq!(snap.counter("heap.collections"), Some(1));
        let hist = snap.histogram("heap.alloc_size_words").unwrap();
        assert_eq!(hist.count, 6);
        assert_eq!(hist.sum, 11);
        // Everything was garbage, so the whole span is one free block.
        assert_eq!(snap.gauge("heap.live_words"), Some(0));
    }

    #[test]
    fn gc_then_alloc_cycle_sustains() {
        let mut h = Heap::new(64);
        let mut root = Word::NIL;
        for i in 0..200 {
            // Keep a 3-cons list live; everything older is garbage.
            let addr = match h.try_alloc(2, ObjKind::Cons) {
                Some(a) => a,
                None => {
                    h.collect(&[root]);
                    h.try_alloc(2, ObjKind::Cons).expect("post-gc alloc")
                }
            };
            h.write(addr, Word::fixnum(i));
            h.write(addr + 1, Word::NIL);
            root = Word::Ptr(Tag::Cons, addr);
        }
        assert!(h.allocs.collections > 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use s1lisp_trace::rng::SplitMix64;

    /// Random alternating allocate/collect cycles never corrupt live
    /// list structure.
    #[test]
    fn live_lists_survive_random_churn() {
        let mut rng = SplitMix64::new(0x5115_0001);
        for _case in 0..64 {
            let ops: Vec<(u8, i64)> = (0..rng.range_usize(1, 60))
                .map(|_| (rng.below(4) as u8, rng.range_i64(1, 100)))
                .collect();
            let mut h = Heap::new(256);
            // The live list we must preserve (addresses of its conses).
            let mut live: Vec<(u64, i64)> = Vec::new();
            let mut head = Word::NIL;
            for (op, n) in ops {
                match op {
                    // Extend the live list.
                    0 => {
                        let addr = match h.try_alloc(2, ObjKind::Cons) {
                            Some(a) => a,
                            None => {
                                h.collect(&[head]);
                                match h.try_alloc(2, ObjKind::Cons) {
                                    Some(a) => a,
                                    None => continue, // genuinely full of live data
                                }
                            }
                        };
                        h.write(addr, Word::fixnum(n));
                        h.write(addr + 1, head);
                        head = Word::Ptr(Tag::Cons, addr);
                        live.push((addr, n));
                    }
                    // Drop the whole live list (becomes garbage).
                    1 => {
                        head = Word::NIL;
                        live.clear();
                    }
                    // Allocate garbage.
                    2 => {
                        if let Some(a) = h.try_alloc(1, ObjKind::Flonum) {
                            h.write(a, Word::F(n as f64));
                        }
                    }
                    // Collect.
                    _ => {
                        h.collect(&[head]);
                    }
                }
                // Verify the live chain after every step (mark–sweep
                // never moves objects, so addresses must be stable).
                let mut cur = head;
                for &(addr, n) in live.iter().rev() {
                    match cur {
                        Word::Ptr(Tag::Cons, a) => {
                            assert_eq!(a, addr);
                            assert_eq!(h.read(a), Word::fixnum(n));
                            cur = h.read(a + 1);
                        }
                        other => panic!("chain broken at {other}"),
                    }
                }
                assert_eq!(cur, Word::NIL);
            }
        }
    }
}
