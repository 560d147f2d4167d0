//! Spans recorded by the benchmark around each call into a layer, kept
//! in memory and written out at exit as a Chrome trace.
//!
//! A span has a name (`<layer>.<what>`), a start and duration relative
//! to the run's origin, the span that caused it, the operation id it
//! belongs to (a served request's protocol id, a batch or kernel-run
//! number), and a lane (the client or worker it ran on).  Children the
//! benchmark cannot time itself — a job inside a batch, the queue wait
//! and work inside a served request — are placed from the durations the
//! program reports.

use std::collections::BTreeMap;
use std::time::Instant;

use s1lisp_trace::chrome::{trace_json, TraceEvent};
use s1lisp_trace::json::Json;

/// Spans kept per run; later ones are counted but dropped, which bounds
/// the trace's memory on long runs.
const MAX_SPANS: usize = 200_000;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: String,
    /// Start, microseconds after the run's origin.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub id: u64,
    /// Client or worker lane.
    pub lane: u64,
}

/// The spans of one run (or of one client thread, merged at the end).
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    /// An empty recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Microseconds from the origin to `t`.
    pub fn offset_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a span; returns its index (`None` once the cap is hit).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start_us: f64,
        dur_us: f64,
        parent: Option<usize>,
        id: u64,
        lane: u64,
    ) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name: name.into(),
            start_us,
            dur_us,
            parent,
            id,
            lane,
        });
        Some(self.spans.len() - 1)
    }

    /// Records a span the benchmark timed itself, from `start` to now.
    pub fn timed(
        &mut self,
        name: &str,
        start: Instant,
        parent: Option<usize>,
        id: u64,
        lane: u64,
    ) -> Option<usize> {
        let start_us = self.offset_us(start);
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        self.record(name, start_us, dur_us, parent, id, lane)
    }

    /// Opens a span starting now, for a parent recorded before its
    /// children; close it with [`Spans::end`].
    pub fn begin(
        &mut self,
        name: &str,
        parent: Option<usize>,
        id: u64,
        lane: u64,
    ) -> Option<usize> {
        let start_us = self.offset_us(Instant::now());
        self.record(name, start_us, 0.0, parent, id, lane)
    }

    /// Closes a span opened with [`Spans::begin`].
    pub fn end(&mut self, span: Option<usize>) {
        let now = self.offset_us(Instant::now());
        if let Some(s) = span.and_then(|ix| self.spans.get_mut(ix)) {
            s.dur_us = now - s.start_us;
        }
    }

    /// Appends another recorder's spans (same origin), re-indexing their
    /// parents.
    pub fn merge(&mut self, other: Spans) {
        let base = self.spans.len();
        self.dropped += other.dropped;
        for mut s in other.spans {
            if self.spans.len() >= MAX_SPANS {
                self.dropped += 1;
                continue;
            }
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name, in microseconds: each span's duration
    /// less the part its children cover (children on parallel lanes can
    /// cover more than the parent's wall time; self time then is zero).
    pub fn self_time_us(&self) -> BTreeMap<String, f64> {
        let mut child_sum = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.dur_us;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_sum) {
            *out.entry(s.name.clone()).or_insert(0.0) += (s.dur_us - covered).max(0.0);
        }
        out
    }

    /// The spans as a Chrome trace-event array (one process, one thread
    /// lane per client or worker); each event's `args` carry the
    /// operation id and the parent's index.
    pub fn chrome(&self) -> Json {
        let events: Vec<TraceEvent> = self
            .spans
            .iter()
            .map(|s| TraceEvent {
                name: s.name.clone(),
                ts_us: s.start_us.max(0.0).round() as u64,
                dur_us: s.dur_us.max(0.0).round() as u64,
                pid: 1,
                tid: s.lane,
                unit: format!("op {}", s.id),
                counters: vec![
                    ("id".to_string(), s.id),
                    (
                        "parent".to_string(),
                        s.parent.map_or(u64::MAX, |p| p as u64),
                    ),
                ],
            })
            .collect();
        trace_json(&events)
    }

    /// Spans dropped past the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_merge_reindexes() {
        let origin = Instant::now();
        let mut a = Spans::new(origin);
        let req = a.record("client.request", 0.0, 100.0, None, 7, 0);
        a.record("server.queue", 10.0, 20.0, req, 7, 0);
        a.record("server.work", 30.0, 50.0, req, 7, 0);
        let mut b = Spans::new(origin);
        let batch = b.record("driver.batch", 0.0, 10.0, None, 1, 1);
        b.record("driver.job", 0.0, 8.0, batch, 1, 1);
        b.record("driver.job", 0.0, 8.0, batch, 1, 2);
        a.merge(b);
        assert_eq!(a.len(), 6);
        let st = a.self_time_us();
        assert_eq!(st["client.request"], 30.0);
        assert_eq!(st["server.queue"], 20.0);
        assert_eq!(st["server.work"], 50.0);
        // Two 8 us jobs on parallel lanes cover more than the 10 us batch.
        assert_eq!(st["driver.batch"], 0.0);
        assert_eq!(st["driver.job"], 16.0);
        let trace = a.chrome();
        assert_eq!(s1lisp_trace::chrome::validate_trace(&trace), Ok(6));
        let events = trace.as_arr().unwrap();
        let parent = |i: usize| {
            events[i]
                .get("args")
                .unwrap()
                .get("counters")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_int()
        };
        assert_eq!(parent(4), Some(3));
    }
}
