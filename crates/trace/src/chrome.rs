//! Chrome trace-event export: renders span trees as the JSON array
//! form of the [trace-event format] that `chrome://tracing`, Perfetto,
//! and speedscope all load.
//!
//! Every event is a *complete* event (`"ph":"X"`) with the six required
//! fields `name`/`ph`/`ts`/`dur`/`pid`/`tid` plus an `args` object
//! carrying the unit and the span's counters.  A [`MemorySink`] records
//! relative wall durations but no absolute timestamps, so the exporter
//! *synthesizes* a deterministic timeline: sibling spans are laid out
//! sequentially starting at their parent's timestamp (roots start at
//! zero), and a parent's rendered duration is stretched to contain its
//! children when timing jitter makes the recorded spans overlap.  Two
//! exports of the same span tree therefore produce identical ids and
//! identical ordering — only the durations vary with the host clock.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::Json;
use crate::sink::MemorySink;

/// One complete (`"ph":"X"`) trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (a phase or job label).
    pub name: String,
    /// Synthesized start timestamp, microseconds.
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Process id lane (one per exported subsystem).
    pub pid: u64,
    /// Thread id lane (0 for the single-threaded pipeline; worker index
    /// for driver timelines).
    pub tid: u64,
    /// The unit of work (usually a function name), carried in `args`.
    pub unit: String,
    /// Counters attributed to the span, carried in `args`.
    pub counters: Vec<(String, u64)>,
}

impl TraceEvent {
    /// The event as a trace-event JSON object with the fixed field set
    /// `name`/`ph`/`ts`/`dur`/`pid`/`tid`/`args`.
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), Json::uint(*value)))
            .collect();
        let args = Json::obj(vec![
            ("unit", Json::str(&self.unit)),
            ("counters", Json::Map(counters)),
        ]);
        Json::obj(vec![
            ("name", Json::str(&self.name)),
            ("ph", Json::str("X")),
            ("ts", Json::uint(self.ts_us)),
            ("dur", Json::uint(self.dur_us)),
            ("pid", Json::uint(self.pid)),
            ("tid", Json::uint(self.tid)),
            ("args", args),
        ])
    }
}

/// Renders `events` as the trace-event JSON array (the form
/// about:tracing and Perfetto open directly).
pub fn trace_json(events: &[TraceEvent]) -> Json {
    Json::Arr(events.iter().map(TraceEvent::to_json).collect())
}

/// Lays a span forest out on a synthetic timeline.
///
/// `spans` is `(parent index, wall microseconds)` in begin order (every
/// parent precedes its children, as [`MemorySink::spans`] guarantees).
/// Returns `(ts, dur)` per span: siblings are placed sequentially from
/// their parent's start (roots from zero), and each span's rendered
/// duration is `max(own wall, sum of child durations)` so nesting stays
/// containment-valid even when recorded child times exceed the parent's.
pub fn layout_spans(spans: &[(Option<u32>, u64)]) -> Vec<(u64, u64)> {
    let n = spans.len();
    // Rendered durations, children first (parents precede children, so
    // a reverse scan sees every child before its parent).
    let mut dur: Vec<u64> = spans.iter().map(|&(_, wall)| wall).collect();
    let mut child_sum = vec![0u64; n];
    for i in (0..n).rev() {
        dur[i] = dur[i].max(child_sum[i]);
        if let Some(p) = spans[i].0 {
            child_sum[p as usize] += dur[i];
        }
    }
    // Timestamps, parents first: each node advances its parent's child
    // cursor (roots advance a shared toplevel cursor).
    let mut ts = vec![0u64; n];
    let mut cursor = vec![0u64; n];
    let mut root_cursor = 0u64;
    for i in 0..n {
        match spans[i].0 {
            Some(p) => {
                ts[i] = cursor[p as usize];
                cursor[p as usize] += dur[i];
            }
            None => {
                ts[i] = root_cursor;
                root_cursor += dur[i];
            }
        }
        cursor[i] = ts[i];
    }
    ts.into_iter().zip(dur).collect()
}

/// Renders a [`MemorySink`]'s span tree as complete events on `pid`
/// lane `tid`, one event per recorded span in begin order, named by
/// phase, with the unit and counters in `args`.
pub fn sink_events(sink: &MemorySink, pid: u64, tid: u64) -> Vec<TraceEvent> {
    let spans = sink.spans();
    let shape: Vec<(Option<u32>, u64)> = spans
        .iter()
        .map(|s| (s.parent, s.wall.as_micros() as u64))
        .collect();
    let placed = layout_spans(&shape);
    spans
        .iter()
        .zip(placed)
        .map(|(s, (ts_us, dur_us))| TraceEvent {
            name: s.phase.to_string(),
            ts_us,
            dur_us,
            pid,
            tid,
            unit: s.unit.clone(),
            counters: s
                .counters
                .iter()
                .map(|&(name, value)| (name.to_string(), value))
                .collect(),
        })
        .collect()
}

/// Validates that `json` is a trace-event array: every element must
/// carry the six required fields (`name`, `ph`, `ts`, `dur`, `pid`,
/// `tid`).  Returns the event count.
///
/// # Errors
///
/// Returns a description of the first malformed event.
pub fn validate_trace(json: &Json) -> Result<usize, String> {
    let Json::Arr(events) = json else {
        return Err("trace is not a JSON array".to_string());
    };
    for (i, event) in events.iter().enumerate() {
        for field in ["name", "ph", "ts", "dur", "pid", "tid"] {
            if event.get(field).is_none() {
                return Err(format!("event {i} is missing required field {field:?}"));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;

    #[test]
    fn layout_places_siblings_sequentially_inside_their_parent() {
        // root(10) { a(3), b(4) }, root2(5)
        let spans = [(None, 10), (Some(0), 3), (Some(0), 4), (None, 5)];
        let placed = layout_spans(&spans);
        assert_eq!(placed, vec![(0, 10), (0, 3), (3, 4), (10, 5)]);
    }

    #[test]
    fn layout_stretches_parents_to_contain_their_children() {
        // Parent recorded 2us but its children total 9us.
        let spans = [(None, 2), (Some(0), 4), (Some(0), 5), (None, 1)];
        let placed = layout_spans(&spans);
        assert_eq!(placed[0], (0, 9));
        assert_eq!(placed[3], (9, 1));
    }

    #[test]
    fn sink_export_is_deterministic_and_valid() {
        let mut s = MemorySink::new();
        let outer = s.span_begin("Code generation", "f");
        let inner = s.span_begin("Target annotation", "f");
        s.add("tns", 3);
        s.span_end(inner);
        s.span_end(outer);
        let events = sink_events(&s, 1, 0);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "Code generation");
        assert_eq!(events[1].name, "Target annotation");
        assert_eq!(events[1].counters, vec![("tns".to_string(), 3)]);
        // Exporting twice yields identical structure.
        assert_eq!(events, sink_events(&s, 1, 0));
        let json = trace_json(&events);
        assert_eq!(validate_trace(&json).unwrap(), 2);
    }

    #[test]
    fn validate_rejects_missing_fields() {
        let json = Json::Arr(vec![Json::Obj(vec![("name".to_string(), Json::str("x"))])]);
        let err = validate_trace(&json).unwrap_err();
        assert!(err.contains("missing required field"), "{err}");
        assert!(validate_trace(&Json::Int(3)).is_err());
    }
}
