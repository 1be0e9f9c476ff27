//! # cs-obs
//!
//! Zero-dependency observability substrate for the cycle-stealing
//! workspace: the machine-readable window into simulator, farm and CLI
//! runs that hand-formatted stdout tables cannot give.
//!
//! * [`event`] — a **stable, versioned event schema** ([`SCHEMA_VERSION`])
//!   covering episode lifecycle (period start/commit/interrupt), farm
//!   master actions (dispatch, bank, lease timeout, requeue, backoff,
//!   quarantine, storm, crash, message loss, straggle, replica) and
//!   Monte-Carlo progress, with hand-rolled JSONL serialization.
//! * [`sink`] — the [`EventSink`] trait plus sinks: [`NoopSink`] (default,
//!   free), [`MemorySink`] (tests), [`JsonlSink`] (buffered file),
//!   [`TeeSink`] (fan-out) and [`MetricsSink`] (folds the stream into a
//!   registry).
//! * [`metrics`] — [`MetricsRegistry`] of counters, gauges and streaming
//!   power-of-two-bucket [`Histogram`]s.
//! * [`schema`] / [`json`] — the one typed trace decoder,
//!   [`Event::from_jsonl`] (the inverse of [`Event::to_jsonl`], decoding
//!   straight into [`EventKind`] in one pass), with [`decode_lines`] over
//!   a whole trace; and a minimal JSON reader ([`parse_json`]) for
//!   `BENCH.json`, sharing the decoder's tokenizer.
//! * [`journal`] — a **durable write-ahead journal** over the same event
//!   schema: [`JournalWriter`] (fsync-on-commit [`EventSink`]) and
//!   [`read_journal`] (torn-tail-tolerant reader), the substrate for
//!   `cs-now`'s crash-recovery (`Farm::run_journaled` / `Farm::resume`).
//! * [`span`] — the **span profiler** ([`SpanProfiler`]): hierarchical
//!   wall-clock spans recorded as `span_ns.*` histograms and emitted as
//!   v2 `span_start`/`span_end` events.
//! * [`analyze`] — the **trace analyzer** behind `cyclesteal obs`:
//!   [`analyze_trace`] (report), [`check_text`] (invariant gate,
//!   including chunk conservation for farm traces) and
//!   [`diff_registries`]/[`diff_bench`] (regression flagging).
//! * [`lineage`] — **causal chunk lineage**: [`analyze_lineage`]
//!   replays a decoded farm trace into per-chunk waterfall records, a
//!   wall-time phase attribution that sums to `workstations × makespan`, a
//!   bitwise lost-work reconciliation and the makespan critical path (behind
//!   `cyclesteal obs path` / `obs chunks`).
//! * [`flight`] — **live telemetry** for runs still in flight:
//!   [`ProgressSink`] (wall-clock-cadenced `RUN-PROGRESS` heartbeat lines).
//! * [`summary`] — the shared `RUN-SUMMARY` JSON emitter for `exp_*`
//!   binaries.
//! * [`vfs`] — the **injectable filesystem** under the durability layer:
//!   [`Vfs`]/[`VfsFile`] traits, the production [`StdVfs`], and the
//!   seeded fault injector [`FaultyVfs`] (failed/short writes, fsync
//!   errors, rename failures, ENOSPC at chosen operation indices).
//!
//! **Pass-through contract:** sinks never feed back into producers, and
//! the span profiler only reads the wall clock. A seeded simulation run
//! with tracing and/or profiling enabled is bit-identical in results to
//! the same run with both disabled. The no-op sink's cost against a
//! recording one is measured by the `kernels.spans.farm.noop_sink` and
//! `kernels.spans.farm.memory_sink` rows of `BENCH.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod event;
pub mod flight;
pub mod journal;
pub mod json;
pub mod lineage;
pub mod metrics;
pub mod schema;
pub mod sink;
pub mod span;
pub mod summary;
pub mod vfs;

pub use analyze::{
    analyze_trace, check_text, diff_bench, diff_registries, CheckSummary, DiffRow, TraceAnalysis,
};
pub use event::{Event, EventKind, ALL_KINDS, MIN_SCHEMA_VERSION, SCHEMA_VERSION};
pub use flight::ProgressSink;
pub use journal::{
    read_journal, FsyncPolicy, JournalContents, JournalReadError, JournalStats, JournalWriter,
};
pub use json::{parse_json, Json};
pub use lineage::{analyze_lineage, ChunkFate, ChunkRecord, LineageAnalysis, PhaseAttribution};
pub use metrics::{Histogram, MetricsRegistry};
pub use schema::decode_lines;
pub use sink::{EventSink, JsonlSink, MemorySink, MetricsSink, NoopSink, TeeSink};
pub use span::{SpanId, SpanProfiler};
pub use summary::RunSummary;
pub use vfs::{
    injected_kind, FaultAt, FaultKind, FaultyVfs, StdVfs, Vfs, VfsFile, ALL_FAULT_KINDS,
};
