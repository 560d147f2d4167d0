//! Execution statistics.
//!
//! These counters are the measurement surface of the reproduction: the
//! experiments compare instruction counts, allocation counts, stack
//! depths, and special-variable search costs across compiler
//! configurations.
//!
//! The struct fields are the *accumulation* surface (the machine's hot
//! loop bumps plain `u64`s); the [`MetricsRegistry`] is the *reporting*
//! surface.  A single `(metric, label, value)` table drives both
//! [`MachineStats::export`] and [`MachineStats::counters`] — and
//! `counters()` reads its values back through a registry snapshot, so
//! the Display table and the metrics a snapshot reports cannot drift
//! (a workspace test pins this after a tak run).

use s1lisp_trace::metrics::{MetricsRegistry, MetricsSnapshot};

use crate::heap::AllocStats;

/// Counters accumulated while a [`Machine`](crate::Machine) runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct MachineStats {
    /// Instructions retired.
    pub insns: u64,
    /// `Mov`/`Movp` data-movement instructions retired (§6.1 measures
    /// "reduction of data movement" — "nearly all of the time it is
    /// possible … to generate code … that requires no MOV instructions").
    pub moves: u64,
    /// Function calls (full frames pushed).
    pub calls: u64,
    /// Tail calls / tail self-jumps (frames *reused*).
    pub tail_calls: u64,
    /// Deepest control-stack nesting reached.
    pub max_call_depth: usize,
    /// Deepest data-stack extent reached, in words.
    pub max_stack_words: usize,
    /// Deep-binding searches performed (`SpecLookup`/`SpecRead`).
    pub special_searches: u64,
    /// Constant-time reads/writes through cached special pointers.
    pub special_cached: u64,
    /// Pdl numbers created (flonums boxed into stack slots).
    pub pdl_numbers: u64,
    /// Certifications that found a safe (heap) pointer.
    pub certify_safe: u64,
    /// Certifications that had to copy a stack object to the heap.
    pub certify_copies: u64,
    /// Closures constructed at run time.
    pub closures_made: u64,
    /// Heap allocation counters, mirrored from the heap when
    /// `Machine::run` or `Machine::inject` returns.
    pub heap: AllocStats,
}

/// The one table every `MachineStats` view is derived from:
/// `(registry metric name, display label)` in display order.
const STAT_TABLE: &[(&str, &str)] = &[
    ("sim.insns_retired", "instructions retired"),
    ("sim.moves", "data moves (MOV/MOVP)"),
    ("sim.calls", "calls (frames pushed)"),
    ("sim.tail_calls", "tail calls (frames reused)"),
    ("sim.max_call_depth", "max call depth"),
    ("sim.max_stack_words", "max stack words"),
    ("sim.special_searches", "special deep searches"),
    ("sim.special_cached", "special cached accesses"),
    ("sim.pdl_numbers", "pdl numbers created"),
    ("sim.certify_safe", "certify: safe pointers"),
    ("sim.certify_copies", "certify: stack copies"),
    ("sim.closures_made", "closures made"),
    ("sim.heap_objects", "heap objects allocated"),
    ("sim.heap_words", "heap words allocated"),
    ("sim.heap_flonums", "heap flonums boxed"),
    ("sim.collections", "garbage collections"),
];

impl MachineStats {
    /// Resets every counter.
    pub fn reset(&mut self) {
        *self = MachineStats::default();
    }

    /// The raw value for one `STAT_TABLE` metric name.
    fn value_of(&self, metric: &str) -> u64 {
        match metric {
            "sim.insns_retired" => self.insns,
            "sim.moves" => self.moves,
            "sim.calls" => self.calls,
            "sim.tail_calls" => self.tail_calls,
            "sim.max_call_depth" => self.max_call_depth as u64,
            "sim.max_stack_words" => self.max_stack_words as u64,
            "sim.special_searches" => self.special_searches,
            "sim.special_cached" => self.special_cached,
            "sim.pdl_numbers" => self.pdl_numbers,
            "sim.certify_safe" => self.certify_safe,
            "sim.certify_copies" => self.certify_copies,
            "sim.closures_made" => self.closures_made,
            "sim.heap_objects" => self.heap.objects(),
            "sim.heap_words" => self.heap.words,
            "sim.heap_flonums" => self.heap.flonums,
            "sim.collections" => self.heap.collections,
            other => unreachable!("unknown stat metric {other}"),
        }
    }

    /// Exports every counter into `reg` under its `sim.*` metric name.
    /// `add`s rather than `set`s, so a registry can aggregate several
    /// runs; export once per finished run.
    pub fn export(&self, reg: &MetricsRegistry) {
        for &(metric, _) in STAT_TABLE {
            reg.counter(metric).add(self.value_of(metric));
        }
    }

    /// Every counter as `(label, value)`, in display order — derived by
    /// round-tripping through a metrics registry snapshot, so this table
    /// and an exported snapshot are the same numbers by construction.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let reg = MetricsRegistry::new();
        self.export(&reg);
        let snap = reg.snapshot();
        self.labeled_from(&snap)
    }

    /// The display table read out of `snap` (which must contain this
    /// stats object's export).  Exposed so reports can render a table
    /// from an already-taken snapshot without re-exporting.
    pub fn labeled_from(&self, snap: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
        STAT_TABLE
            .iter()
            .map(|&(metric, label)| (label, snap.counter(metric).unwrap_or(0)))
            .collect()
    }
}

/// An aligned counter table, one counter per line.
impl std::fmt::Display for MachineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let counters = self.counters();
        let width = counters.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (label, value) in counters {
            writeln!(f, "{label:<width$}  {value:>12}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_zeroes() {
        let mut s = MachineStats {
            insns: 5,
            ..MachineStats::default()
        };
        s.reset();
        assert_eq!(s.insns, 0);
    }

    #[test]
    fn display_is_an_aligned_table() {
        let s = MachineStats {
            insns: 1234,
            tail_calls: 7,
            ..MachineStats::default()
        };
        let text = s.to_string();
        assert!(text.contains("instructions retired"));
        assert!(text.contains("1234"));
        // Every line has the same total width (label padded + value).
        let widths: Vec<usize> = text.lines().map(str::len).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{widths:?}");
    }

    #[test]
    fn counters_round_trip_through_the_registry() {
        let s = MachineStats {
            insns: 99,
            moves: 3,
            max_call_depth: 12,
            heap: AllocStats {
                flonums: 2,
                words: 40,
                ..AllocStats::default()
            },
            ..MachineStats::default()
        };
        let reg = MetricsRegistry::new();
        s.export(&reg);
        let snap = reg.snapshot();
        // The snapshot and the display table agree entry for entry.
        assert_eq!(snap.counter("sim.insns_retired"), Some(99));
        assert_eq!(snap.counter("sim.max_call_depth"), Some(12));
        assert_eq!(snap.counter("sim.heap_flonums"), Some(2));
        let table = s.counters();
        assert_eq!(table.len(), STAT_TABLE.len());
        for (&(metric, label), &(got_label, got_value)) in STAT_TABLE.iter().zip(table.iter()) {
            assert_eq!(label, got_label);
            assert_eq!(snap.counter(metric), Some(got_value));
        }
    }
}
