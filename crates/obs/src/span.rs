//! The span profiler: where does wall-clock time go inside a run?
//!
//! A [`SpanProfiler`] hands out hierarchical spans — named, nested
//! wall-clock intervals measured with [`Instant`] — and records them two
//! ways at once:
//!
//! * into its own [`MetricsRegistry`] as `span_ns.<name>` duration
//!   histograms (so p50/p90/p99 are one [`crate::Histogram::quantile`]
//!   call away), plus per-span counters via [`SpanProfiler::bump`];
//! * into the run's [`EventSink`] as schema-v2 `span_start`/`span_end`
//!   events, so a `--trace-out` JSONL file carries the timing tree
//!   alongside the simulation facts and `cyclesteal obs report` can
//!   rebuild it offline.
//!
//! Profiling is strictly **pass-through**: the profiler only ever reads
//! the wall clock, never the simulation's RNG or state, so a seeded run is
//! bit-identical in results with profiling on or off (regression-tested in
//! `tests/observability.rs`). A profiler built with
//! [`SpanProfiler::disabled`] is inert — every call is a cheap no-op — so
//! instrumented hot paths pay one branch when profiling is off.
//!
//! Two usage styles:
//!
//! * [`SpanProfiler::scope`] — RAII: the returned [`SpanGuard`] closes the
//!   span when dropped. Ergonomic for straight-line sections, but the
//!   guard borrows both the profiler and the sink for its lifetime.
//! * [`SpanProfiler::start`] / [`SpanProfiler::end`] — explicit pairing
//!   for loops that must keep using the sink inside the span (the farm
//!   event loop, the Monte-Carlo trial loop). Ending a span implicitly
//!   closes any children left open, keeping the emitted tree balanced
//!   even on early exits.

use crate::event::{Event, EventKind};
use crate::metrics::MetricsRegistry;
use crate::sink::EventSink;
use std::time::Instant;

/// Handle to an open span. The zero id is inert: returned by a disabled
/// profiler, and safe to pass to [`SpanProfiler::end`] (no-op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The inert id (no span).
    pub const NONE: SpanId = SpanId(0);

    /// True for the inert id.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

#[derive(Debug)]
struct Frame {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

/// A hierarchical wall-clock span profiler (see the module docs).
#[derive(Debug)]
pub struct SpanProfiler {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<Frame>,
    registry: MetricsRegistry,
}

impl SpanProfiler {
    /// An enabled profiler with its epoch at "now". Span event times are
    /// wall-clock seconds since this epoch (*not* virtual time).
    pub fn new() -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            registry: MetricsRegistry::new(),
        }
    }

    /// An inert profiler: every call is a no-op. This is what
    /// un-profiled code paths thread through instrumented internals.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// True when spans are actually being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span named `name` under the innermost open span (or as a
    /// root), emitting a `span_start` event. Returns the id to pass to
    /// [`SpanProfiler::end`].
    pub fn start(&mut self, name: &'static str, sink: &mut dyn EventSink) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let now = Instant::now();
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map_or(0, |f| f.id);
        sink.emit(&Event {
            time: now.duration_since(self.epoch).as_secs_f64(),
            kind: EventKind::SpanStart { id, parent, name },
        });
        self.stack.push(Frame {
            id,
            parent,
            name,
            start: now,
        });
        SpanId(id)
    }

    /// Closes the span `id` (and, if the caller left any of its children
    /// open, those first — the emitted tree stays balanced). Records the
    /// duration into the `span_ns.<name>` histogram and emits `span_end`.
    /// No-op for [`SpanId::NONE`] or an id that is no longer open.
    pub fn end(&mut self, id: SpanId, sink: &mut dyn EventSink) {
        if id.is_none() || !self.enabled {
            return;
        }
        let Some(pos) = self.stack.iter().rposition(|f| f.id == id.0) else {
            self.registry.counter_add("span_end_mismatches", 1);
            return;
        };
        let now = Instant::now();
        while self.stack.len() > pos {
            let frame = self.stack.pop().expect("pos < len");
            let dur_ns = now.duration_since(frame.start).as_nanos() as f64;
            self.registry
                .observe(&format!("span_ns.{}", frame.name), dur_ns);
            sink.emit(&Event {
                time: now.duration_since(self.epoch).as_secs_f64(),
                kind: EventKind::SpanEnd {
                    id: frame.id,
                    parent: frame.parent,
                    name: frame.name,
                    dur_ns,
                },
            });
        }
    }

    /// Opens a RAII-scoped span: the returned guard closes it on drop.
    /// The guard borrows the profiler *and* the sink, so use
    /// [`SpanProfiler::start`]/[`SpanProfiler::end`] where the body needs
    /// the sink.
    pub fn scope<'a>(
        &'a mut self,
        name: &'static str,
        sink: &'a mut dyn EventSink,
    ) -> SpanGuard<'a> {
        let id = self.start(name, &mut *sink);
        SpanGuard {
            prof: self,
            sink,
            id,
        }
    }

    /// Adds `by` to the counter `span.<innermost-open-span>.<key>`
    /// (`span.root.<key>` outside any span): cheap per-span counters for
    /// things like events handled or trials run.
    pub fn bump(&mut self, key: &str, by: u64) {
        if !self.enabled {
            return;
        }
        let scope = self.stack.last().map_or("root", |f| f.name);
        self.registry
            .counter_add(&format!("span.{scope}.{key}"), by);
    }

    /// Number of spans still open (0 after balanced use).
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// The duration histograms and counters recorded so far.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Takes the recorded registry out of the profiler, leaving it empty.
    pub fn take_registry(&mut self) -> MetricsRegistry {
        std::mem::take(&mut self.registry)
    }
}

impl Default for SpanProfiler {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII guard from [`SpanProfiler::scope`]: closes its span when dropped.
pub struct SpanGuard<'a> {
    prof: &'a mut SpanProfiler,
    sink: &'a mut dyn EventSink,
    id: SpanId,
}

impl SpanGuard<'_> {
    /// The guarded span's id.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.prof.end(self.id, &mut *self.sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    fn names(events: &[Event<'static>]) -> Vec<(&'static str, &'static str)> {
        events
            .iter()
            .map(|e| match e.kind {
                EventKind::SpanStart { name, .. } => ("start", name),
                EventKind::SpanEnd { name, .. } => ("end", name),
                _ => panic!("unexpected kind"),
            })
            .collect()
    }

    #[test]
    fn nested_spans_emit_balanced_events_and_histograms() {
        let mut prof = SpanProfiler::new();
        let mut sink = MemorySink::new();
        let outer = prof.start("outer", &mut sink);
        let inner = prof.start("inner", &mut sink);
        prof.end(inner, &mut sink);
        prof.end(outer, &mut sink);
        assert_eq!(prof.open_spans(), 0);
        assert_eq!(
            names(&sink.events),
            vec![
                ("start", "outer"),
                ("start", "inner"),
                ("end", "inner"),
                ("end", "outer"),
            ]
        );
        // Parent/child linkage.
        let EventKind::SpanStart {
            id: outer_id,
            parent: 0,
            ..
        } = sink.events[0].kind
        else {
            panic!("outer should be a root span");
        };
        let EventKind::SpanStart { parent, .. } = sink.events[1].kind else {
            panic!();
        };
        assert_eq!(parent, outer_id);
        // Histograms recorded one duration per span name.
        assert_eq!(
            prof.registry().histogram("span_ns.outer").unwrap().count(),
            1
        );
        assert_eq!(
            prof.registry().histogram("span_ns.inner").unwrap().count(),
            1
        );
        // Inclusive timing: outer covers inner.
        let outer_ns = prof.registry().histogram("span_ns.outer").unwrap().sum();
        let inner_ns = prof.registry().histogram("span_ns.inner").unwrap().sum();
        assert!(outer_ns >= inner_ns, "{outer_ns} < {inner_ns}");
    }

    #[test]
    fn disabled_profiler_is_inert() {
        let mut prof = SpanProfiler::disabled();
        let mut sink = MemorySink::new();
        let id = prof.start("anything", &mut sink);
        assert!(id.is_none());
        prof.bump("ticks", 5);
        prof.end(id, &mut sink);
        assert!(sink.events.is_empty());
        assert!(prof.registry().is_empty());
        assert!(!prof.is_enabled());
    }

    #[test]
    fn ending_a_parent_closes_open_children() {
        let mut prof = SpanProfiler::new();
        let mut sink = MemorySink::new();
        let outer = prof.start("outer", &mut sink);
        let _leaked = prof.start("leaked", &mut sink);
        prof.end(outer, &mut sink);
        assert_eq!(prof.open_spans(), 0);
        assert_eq!(
            names(&sink.events),
            vec![
                ("start", "outer"),
                ("start", "leaked"),
                ("end", "leaked"),
                ("end", "outer"),
            ]
        );
    }

    #[test]
    fn double_end_is_a_counted_no_op() {
        let mut prof = SpanProfiler::new();
        let mut sink = MemorySink::new();
        let id = prof.start("s", &mut sink);
        prof.end(id, &mut sink);
        prof.end(id, &mut sink);
        assert_eq!(sink.events.len(), 2);
        assert_eq!(prof.registry().counter("span_end_mismatches"), 1);
    }

    #[test]
    fn scope_guard_closes_on_drop() {
        let mut prof = SpanProfiler::new();
        let mut sink = MemorySink::new();
        {
            let guard = prof.scope("scoped", &mut sink);
            assert!(!guard.id().is_none());
        }
        assert_eq!(prof.open_spans(), 0);
        assert_eq!(
            names(&sink.events),
            vec![("start", "scoped"), ("end", "scoped")]
        );
        // Emitted lines decode back to the same events.
        for e in &sink.events {
            assert_eq!(crate::Event::from_jsonl(&e.to_jsonl()).as_ref(), Ok(e));
        }
    }

    #[test]
    fn bump_namespaces_counters_by_open_span() {
        let mut prof = SpanProfiler::new();
        let mut sink = MemorySink::new();
        prof.bump("loose", 1);
        let id = prof.start("phase", &mut sink);
        prof.bump("events", 2);
        prof.bump("events", 3);
        prof.end(id, &mut sink);
        assert_eq!(prof.registry().counter("span.root.loose"), 1);
        assert_eq!(prof.registry().counter("span.phase.events"), 5);
    }
}
