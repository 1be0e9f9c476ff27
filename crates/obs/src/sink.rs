//! Event sinks: where emitted [`Event`]s go.
//!
//! Every producer (episode simulator, Monte-Carlo harness, farm master) is
//! written against the [`EventSink`] trait, and the sink is strictly
//! **pass-through**: it never feeds anything back into the producer, so a
//! seeded run is bit-identical in results whichever sink is attached. The
//! [`NoopSink`] is the default and must cost nothing measurable.

use crate::event::Event;
use crate::metrics::MetricsRegistry;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Receives the event stream of a run.
///
/// Implementations must be pass-through (no effect on the producer) and
/// cheap: `emit` sits inside simulation loops.
pub trait EventSink {
    /// Receives one event. Sinks may keep it, so its span name must be
    /// `'static`, as every producer's is.
    fn emit(&mut self, event: &Event<'static>);

    /// Flushes buffered output (no-op for unbuffered sinks).
    fn flush_sink(&mut self) {}

    /// True when emitted events are actually observed. Producers may query
    /// this once per hot-loop iteration and skip building [`Event`]s
    /// entirely when it returns `false`; correctness must not depend on the
    /// skipped emissions (sinks are pass-through). Defaults to `true`;
    /// only sinks that provably discard everything return `false`.
    fn wants_events(&self) -> bool {
        true
    }
}

/// Every `&mut` sink is itself a sink, so generic producers accept both
/// concrete sinks and `&mut dyn EventSink`.
impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn emit(&mut self, event: &Event<'static>) {
        (**self).emit(event);
    }
    fn flush_sink(&mut self) {
        (**self).flush_sink();
    }
    fn wants_events(&self) -> bool {
        (**self).wants_events()
    }
}

/// Discards every event. The default sink; optimizes to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl EventSink for NoopSink {
    #[inline(always)]
    fn emit(&mut self, _event: &Event<'static>) {}

    #[inline(always)]
    fn wants_events(&self) -> bool {
        false
    }
}

/// Buffers every event in memory, in emission order.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    /// The captured events.
    pub events: Vec<Event<'static>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for MemorySink {
    fn emit(&mut self, event: &Event<'static>) {
        self.events.push(*event);
    }
}

/// Writes each event as one JSON line through a buffered file writer.
///
/// Rendering is **lazy**: `emit` only copies the compact binary [`Event`]
/// into an in-memory buffer, and the JSONL text is produced in batches at
/// the sink boundary — when the buffer fills, on [`JsonlSink::flush_sink`],
/// [`JsonlSink::finish`] or drop. This keeps the producer's hot loop free
/// of string formatting; the rendered byte stream is identical to eager
/// per-event rendering.
///
/// I/O discipline: `emit` stays infallible (pass-through contract — the
/// simulation must not branch on sink health), so the first write error is
/// *latched* and surfaced by [`JsonlSink::finish`]. Dropping the sink
/// without calling `finish` still renders and flushes the buffer (so traces
/// are never silently truncated) and reports any failure on stderr, but
/// callers that care about trace integrity should call `finish` and check
/// the result.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Option<BufWriter<File>>,
    /// Events emitted but not yet rendered to text.
    buffer: Vec<Event<'static>>,
    lines: u64,
    error: Option<std::io::Error>,
    /// Live-tail mode: render *and flush to the OS* every this many
    /// events instead of batching [`JSONL_BATCH`] (see
    /// [`JsonlSink::flush_every`]).
    flush_every: Option<u64>,
}

/// Render-and-write batch size: bounds `JsonlSink` memory while keeping
/// string formatting off the per-event path.
const JSONL_BATCH: usize = 4096;

impl JsonlSink {
    /// Creates (truncating) `path` and returns a sink writing to it.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::from_file(File::create(path)?))
    }

    /// Wraps an already-open file: the seam through which a test hands in
    /// a handle that fails its writes.
    fn from_file(file: File) -> Self {
        Self {
            writer: Some(BufWriter::new(file)),
            buffer: Vec::new(),
            lines: 0,
            error: None,
            flush_every: None,
        }
    }

    /// Switches the sink into live-tail mode: render and flush to the OS
    /// every `every` events (min 1) instead of batching 4096 at a time,
    /// so `tail -f` on the trace file sees lines promptly. The rendered
    /// byte stream is identical to batched mode — only flush timing
    /// changes. The CLI enables this automatically when a heartbeat
    /// (`--progress-every`) is active: a run being watched live should
    /// have a watchable trace.
    pub fn flush_every(mut self, every: u64) -> Self {
        self.flush_every = Some(every.max(1));
        self
    }

    /// Lines successfully rendered and handed to the writer so far
    /// (buffered-but-unrendered events are not yet counted).
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Renders every buffered event to JSONL and hands it to the writer.
    /// Stops at (and latches) the first write error; later events are
    /// dropped rather than spamming syscalls against a broken file.
    fn render_buffer(&mut self) {
        if self.error.is_some() {
            self.buffer.clear();
            return;
        }
        let Some(w) = self.writer.as_mut() else {
            self.buffer.clear();
            return;
        };
        let mut line = String::new();
        for event in self.buffer.drain(..) {
            line.clear();
            line.push_str(&event.to_jsonl());
            line.push('\n');
            match w.write_all(line.as_bytes()) {
                Ok(()) => self.lines += 1,
                Err(e) => {
                    self.error = Some(e);
                    break;
                }
            }
        }
        self.buffer.clear();
    }

    /// Renders any buffered events, flushes and surfaces the first deferred
    /// I/O error (errors inside `emit`/rendering are latched so the hot
    /// path stays infallible). Returns the number of lines written.
    pub fn finish(mut self) -> std::io::Result<u64> {
        self.render_buffer();
        if let Some(mut w) = self.writer.take() {
            if self.error.is_none() {
                if let Err(e) = w.flush() {
                    self.error = Some(e);
                }
            }
        }
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(self.lines),
        }
    }
}

impl EventSink for JsonlSink {
    fn emit(&mut self, event: &Event<'static>) {
        // After the first failure the sink goes quiet: the error is latched
        // for `finish`.
        if self.error.is_some() || self.writer.is_none() {
            return;
        }
        self.buffer.push(*event);
        match self.flush_every {
            Some(every) => {
                if self.buffer.len() as u64 >= every {
                    self.flush_sink();
                }
            }
            None => {
                if self.buffer.len() >= JSONL_BATCH {
                    self.render_buffer();
                }
            }
        }
    }

    fn flush_sink(&mut self) {
        self.render_buffer();
        if self.error.is_some() {
            return;
        }
        if let Some(w) = self.writer.as_mut() {
            if let Err(e) = w.flush() {
                self.error = Some(e);
            }
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        // `finish` already took the writer on the happy path; this only
        // runs for sinks dropped early (panics, error returns). Render and
        // flush so the tail of the trace survives, and fail loudly — stderr
        // is the only channel left in a destructor.
        self.render_buffer();
        if let Some(mut w) = self.writer.take() {
            let flush_err = w.flush().err();
            if let Some(e) = self.error.take().or(flush_err) {
                eprintln!(
                    "warning: trace file incomplete ({} lines kept): {e}",
                    self.lines
                );
            }
        }
    }
}

/// Fans each event out to several sinks (e.g. JSONL file + metrics).
#[derive(Default)]
pub struct TeeSink<'a> {
    sinks: Vec<&'a mut dyn EventSink>,
}

impl<'a> TeeSink<'a> {
    /// An empty tee (behaves like [`NoopSink`]).
    pub fn new() -> Self {
        Self { sinks: Vec::new() }
    }

    /// Adds a downstream sink.
    pub fn push(&mut self, sink: &'a mut dyn EventSink) {
        self.sinks.push(sink);
    }
}

impl EventSink for TeeSink<'_> {
    fn emit(&mut self, event: &Event<'static>) {
        for s in &mut self.sinks {
            s.emit(event);
        }
    }

    fn flush_sink(&mut self) {
        for s in &mut self.sinks {
            s.flush_sink();
        }
    }

    fn wants_events(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_events())
    }
}

/// Folds the event stream into a [`MetricsRegistry`]: one counter per event
/// class, gauges for run outcomes, histograms for the interesting
/// distributions (chunk sizes, banked work, backoff delays, lost work).
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    /// The registry being populated.
    pub registry: MetricsRegistry,
}

impl MetricsSink {
    /// A sink over a fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event into the registry. Unlike [`EventSink::emit`] this
    /// takes any event, so the analyzer folds decoded traces through it.
    pub fn record(&mut self, event: &Event<'_>) {
        use crate::event::EventKind as K;
        let r = &mut self.registry;
        match event.kind {
            K::RunStart {
                workstations,
                tasks,
                ..
            } => {
                r.gauge_set("workstations", workstations as f64);
                r.gauge_set("tasks", tasks as f64);
            }
            K::EpisodeStart { .. } => r.counter_add("episodes", 1),
            K::PeriodStart { ws: _, len } => {
                r.counter_add("periods", 1);
                r.observe("period_len", len);
            }
            K::PeriodCommit { ws: _, work } => {
                r.counter_add("periods_committed", 1);
                r.observe("period_work", work);
            }
            K::PeriodInterrupt { ws: _, lost } => {
                r.counter_add("periods_interrupted", 1);
                r.observe("period_lost", lost);
            }
            K::Dispatch { ws: _, tasks, work } => {
                r.counter_add("dispatches", 1);
                r.counter_add("tasks_dispatched", tasks);
                r.observe("chunk_work", work);
            }
            K::Bank {
                ws: _,
                work,
                duplicate,
            } => {
                r.counter_add("chunks_banked", 1);
                r.gauge_add("banked_work", work);
                r.gauge_add("duplicate_work", duplicate);
                r.observe("bank_work", work);
            }
            K::LeaseTimeout { .. } => r.counter_add("lease_timeouts", 1),
            K::Requeue { ws: _, tasks } => {
                r.counter_add("requeues", 1);
                r.counter_add("tasks_requeued", tasks);
            }
            K::Backoff { ws: _, delay } => {
                r.counter_add("backoff_delays", 1);
                r.observe("backoff_delay", delay);
            }
            K::Quarantine { .. } => r.counter_add("quarantines", 1),
            K::StormKill { .. } => r.counter_add("storm_kills", 1),
            K::Crash { .. } => r.counter_add("crashes", 1),
            K::MessageLost { .. } => r.counter_add("messages_lost", 1),
            K::Straggle { .. } => r.counter_add("straggled_chunks", 1),
            K::Replica { ws: _, tasks } => {
                r.counter_add("replicas_dispatched", 1);
                r.counter_add("replica_tasks", tasks);
            }
            K::McProgress { done, total } => {
                r.gauge_set("mc_done", done as f64);
                r.gauge_set("mc_total", total as f64);
            }
            K::RunEnd {
                banked,
                lost,
                drained,
            } => {
                r.gauge_set("run_banked", banked);
                r.gauge_set("run_lost", lost);
                r.gauge_set("run_drained", if drained { 1.0 } else { 0.0 });
                r.gauge_set("run_end_time", event.time);
            }
            K::SpanStart { .. } => r.counter_add("spans_opened", 1),
            K::SpanEnd { name, dur_ns, .. } => {
                r.counter_add("spans_closed", 1);
                r.observe(&format!("span_ns.{name}"), dur_ns);
            }
        }
    }
}

impl EventSink for MetricsSink {
    fn emit(&mut self, event: &Event<'static>) {
        self.record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(kind: EventKind<'static>) -> Event<'static> {
        Event { time: 1.0, kind }
    }

    #[test]
    fn memory_sink_preserves_order() {
        let mut s = MemorySink::new();
        s.emit(&ev(EventKind::EpisodeStart { ws: 0 }));
        s.emit(&ev(EventKind::Crash { ws: 1 }));
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[1].kind, EventKind::Crash { ws: 1 });
    }

    #[test]
    fn tee_fans_out() {
        let mut a = MemorySink::new();
        let mut b = MetricsSink::new();
        {
            let mut tee = TeeSink::new();
            tee.push(&mut a);
            tee.push(&mut b);
            tee.emit(&ev(EventKind::LeaseTimeout { ws: 0, lease: 3 }));
            tee.flush_sink();
        }
        assert_eq!(a.events.len(), 1);
        assert_eq!(b.registry.counter("lease_timeouts"), 1);
    }

    #[test]
    fn metrics_sink_folds_counters_and_gauges() {
        let mut s = MetricsSink::new();
        s.emit(&ev(EventKind::Bank {
            ws: 0,
            work: 5.0,
            duplicate: 1.0,
        }));
        s.emit(&ev(EventKind::Bank {
            ws: 1,
            work: 3.0,
            duplicate: 0.0,
        }));
        s.emit(&ev(EventKind::RunEnd {
            banked: 8.0,
            lost: 0.0,
            drained: true,
        }));
        let r = &s.registry;
        assert_eq!(r.counter("chunks_banked"), 2);
        assert_eq!(r.gauge("banked_work"), Some(8.0));
        assert_eq!(r.gauge("duplicate_work"), Some(1.0));
        assert_eq!(r.gauge("run_drained"), Some(1.0));
        assert_eq!(r.histogram("bank_work").unwrap().count(), 2);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir().join("cs_obs_sink_test.jsonl");
        let mut s = JsonlSink::create(&path).unwrap();
        s.emit(&ev(EventKind::Crash { ws: 2 }));
        s.emit(&ev(EventKind::Requeue { ws: 2, tasks: 4 }));
        let n = s.finish().unwrap();
        assert_eq!(n, 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        let path = std::env::temp_dir().join("cs_obs_sink_drop_test.jsonl");
        {
            let mut s = JsonlSink::create(&path).unwrap();
            // Well under BufWriter's default buffer size, so without the
            // Drop flush these lines would be lost.
            s.emit(&ev(EventKind::Crash { ws: 7 }));
            // Dropped without finish() — e.g. the caller returned early.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_surfaces_write_errors_at_finish() {
        // A read-only handle makes every write fail deterministically.
        let path = std::env::temp_dir().join("cs_obs_sink_err_test.jsonl");
        std::fs::write(&path, b"").unwrap();
        let file = File::open(&path).unwrap(); // read-only
        let mut s = JsonlSink::from_file(file);
        // BufWriter defers the failure to flush time; emit must not panic.
        for _ in 0..4 {
            s.emit(&ev(EventKind::Crash { ws: 0 }));
        }
        s.flush_sink();
        assert!(s.finish().is_err(), "write to read-only file must surface");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn metrics_sink_folds_span_events() {
        let mut s = MetricsSink::new();
        s.emit(&ev(EventKind::SpanStart {
            id: 1,
            parent: 0,
            name: "farm.dispatch",
        }));
        s.emit(&ev(EventKind::SpanEnd {
            id: 1,
            parent: 0,
            name: "farm.dispatch",
            dur_ns: 250.0,
        }));
        assert_eq!(s.registry.counter("spans_opened"), 1);
        assert_eq!(s.registry.counter("spans_closed"), 1);
        let h = s.registry.histogram("span_ns.farm.dispatch").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 250.0);
    }

    #[test]
    fn wants_events_reflects_observability() {
        assert!(!NoopSink.wants_events());
        assert!(MemorySink::new().wants_events());
        assert!(MetricsSink::new().wants_events());
        // &mut delegates to the underlying sink.
        let mut noop = NoopSink;
        let as_ref: &mut dyn EventSink = &mut noop;
        assert!(!as_ref.wants_events());
        // A tee wants events iff any downstream sink does.
        let empty = TeeSink::new();
        assert!(!empty.wants_events());
        let mut n = NoopSink;
        let mut m = MemorySink::new();
        let mut tee = TeeSink::new();
        tee.push(&mut n);
        assert!(!tee.wants_events());
        tee.push(&mut m);
        assert!(tee.wants_events());
    }

    #[test]
    fn jsonl_sink_renders_lazily_but_identically() {
        let path = std::env::temp_dir().join("cs_obs_sink_lazy_test.jsonl");
        let mut s = JsonlSink::create(&path).unwrap();
        s.emit(&ev(EventKind::Crash { ws: 2 }));
        // Nothing rendered yet: emission buffers the compact event.
        assert_eq!(s.lines(), 0);
        s.flush_sink();
        assert_eq!(s.lines(), 1);
        let eager = ev(EventKind::Crash { ws: 2 }).to_jsonl() + "\n";
        assert_eq!(std::fs::read_to_string(&path).unwrap(), eager);
        s.emit(&ev(EventKind::Requeue { ws: 2, tasks: 4 }));
        assert_eq!(s.finish().unwrap(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jsonl_sink_flush_every_makes_lines_promptly_visible() {
        let path = std::env::temp_dir().join("cs_obs_sink_live_test.jsonl");
        let mut s = JsonlSink::create(&path).unwrap().flush_every(1);
        s.emit(&ev(EventKind::Crash { ws: 2 }));
        // Live-tail mode: the line is on disk without any explicit flush,
        // far below the 4096-event batch that would otherwise gate it.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1, "{text:?}");
        s.emit(&ev(EventKind::Requeue { ws: 2, tasks: 4 }));
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "{text:?}");
        // Byte stream identical to batched mode.
        let eager = ev(EventKind::Crash { ws: 2 }).to_jsonl()
            + "\n"
            + &ev(EventKind::Requeue { ws: 2, tasks: 4 }).to_jsonl()
            + "\n";
        assert_eq!(text, eager);
        assert_eq!(s.finish().unwrap(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mut_ref_is_a_sink() {
        fn generic<S: EventSink>(mut s: S) {
            s.emit(&ev(EventKind::Crash { ws: 0 }));
        }
        let mut m = MemorySink::new();
        generic(&mut m);
        let dyn_ref: &mut dyn EventSink = &mut m;
        generic(dyn_ref);
        assert_eq!(m.events.len(), 2);
    }
}
