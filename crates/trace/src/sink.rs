//! The span/event recording model.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Identifier of an open span, returned by [`TraceSink::span_begin`]
/// and consumed by [`TraceSink::span_end`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(pub(crate) u32);

impl SpanId {
    /// The id handed out by sinks that record nothing.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// A recording surface for compilation telemetry.
///
/// Phases open a span per unit of work (usually one function), counters
/// attribute to the phase of the innermost open span, and events carry
/// free-form detail (rule firings, packing decisions).  Implementations
/// must tolerate arbitrary nesting and unbalanced counters-outside-spans.
pub trait TraceSink {
    /// Whether this sink records anything.  Phases use this to skip
    /// computing expensive metrics (e.g. conflict-graph edge counts)
    /// when tracing is off.
    fn enabled(&self) -> bool;

    /// Opens a span for `phase` (a Table 1 phase name) over `unit`
    /// (usually a function name).
    fn span_begin(&mut self, phase: &'static str, unit: &str) -> SpanId;

    /// Closes a span, attributing its wall time to the phase.
    fn span_end(&mut self, span: SpanId);

    /// Adds `delta` to the named counter of the innermost open span's
    /// phase.
    fn add(&mut self, counter: &'static str, delta: u64);

    /// Records a free-form event on the innermost open span; every
    /// caller records inside one, and a [`MemorySink`] drops an event
    /// recorded outside any span.
    fn event(&mut self, name: &'static str, detail: &str);
}

/// The default sink: records nothing, costs nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn span_begin(&mut self, _phase: &'static str, _unit: &str) -> SpanId {
        SpanId::NONE
    }

    fn span_end(&mut self, _span: SpanId) {}

    fn add(&mut self, _counter: &'static str, _delta: u64) {}

    fn event(&mut self, _name: &'static str, _detail: &str) {}
}

/// Aggregated telemetry for one phase: how many spans ran, their total
/// wall time, and the counter totals attributed to the phase.
#[derive(Clone, Debug)]
pub struct PhaseAgg {
    /// The Table 1 phase name.
    pub phase: &'static str,
    /// Number of spans (units of work, usually functions).
    pub spans: u64,
    /// Total wall time across spans.
    pub wall: Duration,
    /// Counter totals, in first-recorded order.
    pub counters: Vec<(&'static str, u64)>,
}

impl PhaseAgg {
    fn new(phase: &'static str) -> PhaseAgg {
        PhaseAgg {
            phase,
            spans: 0,
            wall: Duration::ZERO,
            counters: Vec::new(),
        }
    }

    /// The value of a counter (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    fn bump(&mut self, name: &'static str, delta: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 += delta,
            None => self.counters.push((name, delta)),
        }
    }
}

/// One recorded span: phase, unit, tree position, wall time, and the
/// counters and events attributed to it while it was innermost.
///
/// Unlike [`PhaseAgg`] (which aggregates across every unit), span
/// records keep the per-unit story, so a [`MemorySink`] can answer
/// "Table-1 timing for function F" — the paper's §7 per-function
/// transcript view — instead of only whole-run totals.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// The Table 1 phase name.
    pub phase: &'static str,
    /// The unit of work (usually a function name).
    pub unit: String,
    /// Index of the enclosing span in [`MemorySink::spans`], if nested.
    pub parent: Option<u32>,
    /// Wall time between begin and end (zero while still open).
    pub wall: Duration,
    /// Counters attributed while this span was innermost.
    pub counters: Vec<(&'static str, u64)>,
    /// Events attributed while this span was innermost.
    pub events: Vec<(&'static str, String)>,
    /// Whether the span was closed.
    pub closed: bool,
}

impl SpanRec {
    /// The value of a counter on this span (0 if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

struct OpenSpan {
    phase_idx: usize,
    start: Instant,
}

impl fmt::Debug for OpenSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OpenSpan(phase {})", self.phase_idx)
    }
}

/// A sink that aggregates spans per phase and retains every span as a
/// [`SpanRec`] — its counters and events included — for per-unit
/// queries.
#[derive(Debug, Default)]
pub struct MemorySink {
    phases: Vec<PhaseAgg>,
    index: HashMap<&'static str, usize>,
    arena: Vec<OpenSpan>,
    records: Vec<SpanRec>,
    open: Vec<u32>,
}

/// Counters recorded outside any span land on this pseudo-phase.
pub(crate) const TOPLEVEL: &str = "(toplevel)";

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    fn phase_idx(&mut self, phase: &'static str) -> usize {
        if let Some(&i) = self.index.get(phase) {
            return i;
        }
        let i = self.phases.len();
        self.phases.push(PhaseAgg::new(phase));
        self.index.insert(phase, i);
        i
    }

    fn innermost(&mut self) -> usize {
        match self.open.last() {
            Some(&s) => self.arena[s as usize].phase_idx,
            None => self.phase_idx(TOPLEVEL),
        }
    }

    /// All phase aggregates, in first-seen (pipeline) order.
    pub fn phases(&self) -> &[PhaseAgg] {
        &self.phases
    }

    /// The aggregate for one phase, if any span of it ran.
    pub fn phase(&self, name: &str) -> Option<&PhaseAgg> {
        self.index.get(name).map(|&i| &self.phases[i])
    }

    /// The total of `counter` under `phase` (0 if absent).
    pub fn counter(&self, phase: &str, counter: &str) -> u64 {
        self.phase(phase).map_or(0, |p| p.counter(counter))
    }

    /// Every recorded span, in begin order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.records
    }

    /// The distinct units spans were opened over, in first-seen order.
    pub fn units(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for r in &self.records {
            if !out.contains(&r.unit.as_str()) {
                out.push(&r.unit);
            }
        }
        out
    }

    /// Per-phase aggregates restricted to the spans of one unit, in the
    /// unit's own pipeline order — the Table-1 timing table for a single
    /// function.
    pub fn unit_phases(&self, unit: &str) -> Vec<PhaseAgg> {
        let mut out: Vec<PhaseAgg> = Vec::new();
        for r in self.records.iter().filter(|r| r.unit == unit) {
            let agg = match out.iter_mut().find(|p| p.phase == r.phase) {
                Some(a) => a,
                None => {
                    out.push(PhaseAgg::new(r.phase));
                    out.last_mut().expect("just pushed")
                }
            };
            agg.spans += 1;
            agg.wall += r.wall;
            for &(name, delta) in &r.counters {
                agg.bump(name, delta);
            }
        }
        out
    }

    /// Event details named `name` recorded under any span of `unit`, in
    /// record order.
    pub fn unit_events(&self, unit: &str, name: &str) -> Vec<&str> {
        let mut out = Vec::new();
        for r in self.records.iter().filter(|r| r.unit == unit) {
            for (n, detail) in &r.events {
                if *n == name {
                    out.push(detail.as_str());
                }
            }
        }
        out
    }
}

impl TraceSink for MemorySink {
    fn enabled(&self) -> bool {
        true
    }

    fn span_begin(&mut self, phase: &'static str, unit: &str) -> SpanId {
        let phase_idx = self.phase_idx(phase);
        let id = self.arena.len() as u32;
        self.arena.push(OpenSpan {
            phase_idx,
            start: Instant::now(),
        });
        self.records.push(SpanRec {
            phase,
            unit: unit.to_string(),
            parent: self.open.last().copied(),
            wall: Duration::ZERO,
            counters: Vec::new(),
            events: Vec::new(),
            closed: false,
        });
        self.open.push(id);
        SpanId(id)
    }

    fn span_end(&mut self, span: SpanId) {
        if span == SpanId::NONE {
            return;
        }
        let elapsed = self.arena[span.0 as usize].start.elapsed();
        let idx = self.arena[span.0 as usize].phase_idx;
        self.phases[idx].spans += 1;
        self.phases[idx].wall += elapsed;
        let rec = &mut self.records[span.0 as usize];
        rec.wall = elapsed;
        rec.closed = true;
        // Tolerate out-of-order ends: drop the span wherever it sits.
        if let Some(pos) = self.open.iter().rposition(|&s| s == span.0) {
            self.open.remove(pos);
        }
    }

    fn add(&mut self, counter: &'static str, delta: u64) {
        let idx = self.innermost();
        self.phases[idx].bump(counter, delta);
        if let Some(&s) = self.open.last() {
            let rec = &mut self.records[s as usize];
            match rec.counters.iter_mut().find(|(n, _)| *n == counter) {
                Some(slot) => slot.1 += delta,
                None => rec.counters.push((counter, delta)),
            }
        }
    }

    fn event(&mut self, name: &'static str, detail: &str) {
        if let Some(&s) = self.open.last() {
            self.records[s as usize]
                .events
                .push((name, detail.to_string()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_inert() {
        let mut s = NullSink;
        assert!(!s.enabled());
        let sp = s.span_begin("Code generation", "f");
        assert_eq!(sp, SpanId::NONE);
        s.add("tns", 3);
        s.event("note", "nothing");
        s.span_end(sp);
    }

    #[test]
    fn memory_sink_aggregates_spans_and_counters() {
        let mut s = MemorySink::new();
        assert!(s.enabled());
        for unit in ["f", "g"] {
            let sp = s.span_begin("Target annotation", unit);
            s.add("tns", 4);
            s.add("in_registers", 2);
            s.span_end(sp);
        }
        let agg = s.phase("Target annotation").unwrap();
        assert_eq!(agg.spans, 2);
        assert_eq!(agg.counter("tns"), 8);
        assert_eq!(agg.counter("in_registers"), 4);
        assert_eq!(agg.counter("missing"), 0);
        assert_eq!(s.counter("Target annotation", "tns"), 8);
    }

    #[test]
    fn counters_attribute_to_innermost_span() {
        let mut s = MemorySink::new();
        let outer = s.span_begin("Code generation", "f");
        let inner = s.span_begin("Target annotation", "f");
        s.add("tns", 1);
        s.span_end(inner);
        s.add("coercions", 5);
        s.span_end(outer);
        assert_eq!(s.counter("Target annotation", "tns"), 1);
        assert_eq!(s.counter("Code generation", "coercions"), 5);
        // Outside any span: the toplevel pseudo-phase.
        s.add("stray", 7);
        assert_eq!(s.counter(TOPLEVEL, "stray"), 7);
    }

    #[test]
    fn events_carry_their_phase() {
        let mut s = MemorySink::new();
        let sp = s.span_begin("Source-level optimization", "f");
        s.event("rule", "META-SUBSTITUTE");
        s.span_end(sp);
        let [span] = s.spans() else {
            panic!("one span expected");
        };
        assert_eq!(span.phase, "Source-level optimization");
        assert_eq!(span.unit, "f");
        assert_eq!(span.events, [("rule", "META-SUBSTITUTE".to_string())]);
    }

    #[test]
    fn span_records_keep_the_per_unit_story() {
        let mut s = MemorySink::new();
        for unit in ["f", "g"] {
            let sp = s.span_begin("Source-level optimization", unit);
            s.add("transformations", 3);
            s.span_end(sp);
            let sp = s.span_begin("Code generation", unit);
            s.add("insns_emitted", 10);
            s.event("coercion", "Swflo->Pointer");
            s.span_end(sp);
        }
        // Whole-run aggregates still sum across units...
        assert_eq!(s.counter("Code generation", "insns_emitted"), 20);
        // ...while the per-unit view keeps them separate.
        assert_eq!(s.units(), vec!["f", "g"]);
        let f = s.unit_phases("f");
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].phase, "Source-level optimization");
        assert_eq!(f[0].counter("transformations"), 3);
        assert_eq!(f[1].counter("insns_emitted"), 10);
        assert_eq!(s.unit_events("g", "coercion"), vec!["Swflo->Pointer"]);
        assert!(s.unit_events("g", "missing").is_empty());
        assert!(s.unit_phases("h").is_empty());
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut s = MemorySink::new();
        let outer = s.span_begin("Code generation", "f");
        let inner = s.span_begin("Target annotation", "f");
        s.span_end(inner);
        s.span_end(outer);
        let spans = s.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].closed && spans[1].closed);
        // Same-phase spans of one unit aggregate in unit_phases.
        let sp2 = s.span_begin("Code generation", "f");
        s.add("insns_emitted", 4);
        s.span_end(sp2);
        let phases = s.unit_phases("f");
        assert_eq!(phases[0].spans, 2);
        assert_eq!(phases[0].counter("insns_emitted"), 4);
    }
}
