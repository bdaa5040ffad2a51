//! In-memory span recorder for the traced run.
//!
//! Each span is a closed interval on one track (a thread or a twin
//! replay), tagged with the layer it measures, the tick it belongs to
//! and, optionally, the span that contains it. At exit the spans are
//! written as Chrome trace-event JSON (loadable in Perfetto) and folded
//! into a per-layer self-time summary: a span's self time is its
//! duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (e.g. `Kernel::tick`).
    pub name: &'static str,
    /// The layer the span is charged to.
    pub layer: &'static str,
    /// Track (Chrome `tid`): 0 is the driving thread, others are actors
    /// and twin replays.
    pub track: u32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Tick (or frame / cycle) id the span belongs to.
    pub tick: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A shareable span sink. Cloning shares the same buffer, so actors on
/// other threads record into the run's one trace.
#[derive(Clone)]
pub struct Recorder {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a closed span and returns its index (for children).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        track: u32,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        tick: u64,
    ) -> usize {
        let span = Span {
            name,
            layer,
            track,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            tick,
        };
        let mut spans = self.spans.lock().expect("span buffer");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span that starts now; children may name it as parent
    /// before [`Recorder::close`] ends it.
    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        track: u32,
        parent: Option<usize>,
        tick: u64,
    ) -> usize {
        let now = Instant::now();
        self.record(name, layer, track, now, now, parent, tick)
    }

    /// Ends a span opened with [`Recorder::open`] now.
    pub fn close(&self, index: usize) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span buffer")[index].end_ns = end;
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        track: u32,
        tick: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, layer, track, start, Instant::now(), None, tick);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer").clone()
    }
}

/// Tracing overhead, percent: `pairs` untraced and traced runs of the
/// same fixed work, alternating, compared by median wall time. `run`
/// gets `rec` when it should trace and returns its wall seconds.
pub fn overhead_pct(
    pairs: usize,
    rec: &Recorder,
    mut run: impl FnMut(Option<&Recorder>) -> f64,
) -> f64 {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        plain.push(run(None));
        traced.push(run(Some(rec)));
    }
    (crate::stats::median(&traced) / crate::stats::median(&plain) - 1.0) * 100.0
}

/// Self time per layer, nanoseconds: span durations minus their direct
/// children's durations.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
/// timestamps in microseconds, the layer as category and the tick and
/// parent as arguments.
pub fn chrome_trace(spans: &[Span], process: &str) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 128);
    out.push_str("{\"traceEvents\":[");
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"{process}\"}}}}"
    ));
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            ",{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"tick\":{},\"parent\":{}}}}}",
            s.name,
            s.layer,
            s.track,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.tick,
            s.parent.map_or(-1, |p| p as i64),
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let r = Recorder::new();
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let outer = r.record("outer", "a", 0, ms(0), ms(10), None, 1);
        let inner = r.record("inner", "b", 0, ms(2), ms(6), Some(outer), 1);
        r.record("leaf", "c", 0, ms(3), ms(4), Some(inner), 1);
        let by = self_time_by_layer(&r.spans());
        assert_eq!(by["a"], 6_000_000);
        assert_eq!(by["b"], 3_000_000);
        assert_eq!(by["c"], 1_000_000);
    }

    #[test]
    fn chrome_trace_is_parseable_json() {
        let r = Recorder::new();
        let now = Instant::now();
        r.record("x", "kernel", 0, now, now, None, 7);
        let text = chrome_trace(&r.spans(), "perfbench");
        let json = powerapi::telemetry::export::parse_json(&text).expect("valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(powerapi::telemetry::export::Json::as_array)
            .expect("events");
        assert_eq!(events.len(), 2);
    }
}
