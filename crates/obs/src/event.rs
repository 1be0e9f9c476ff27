//! The versioned event schema.
//!
//! One [`Event`] is one fact about a run, stamped with the virtual time at
//! which it happened (Monte-Carlo progress events use the trial count as
//! their clock). The set of event types is closed and versioned: a JSONL
//! consumer checks `"v"` against [`SCHEMA_VERSION`] and `"type"` against
//! [`ALL_KINDS`], and any extension bumps the version.
//!
//! Serialization is hand-rolled JSON — one flat object per line — so the
//! crate stays dependency-free. Non-finite floats serialize as `null`
//! (JSON has no NaN) and parse back as NaN.

/// Version stamped into every emitted line as `"v"`. Bump on any change to
/// an existing event's fields; adding a new event type is also a bump.
///
/// History: v1 = the original 18 kinds (PR 2); v2 adds the span profiler
/// kinds `span_start`/`span_end`. The decoder ([`Event::from_jsonl`])
/// accepts every version from [`MIN_SCHEMA_VERSION`] up, rejecting only
/// kinds newer than the line's declared version.
pub const SCHEMA_VERSION: u32 = 2;

/// Oldest schema version consumers still accept. v1 traces (no span
/// events) validate unchanged.
pub const MIN_SCHEMA_VERSION: u32 = 1;

/// Every event type name the schema admits, in declaration order. JSONL
/// validation checks membership against this list.
pub const ALL_KINDS: &[&str] = &[
    "run_start",
    "episode_start",
    "period_start",
    "period_commit",
    "period_interrupt",
    "dispatch",
    "bank",
    "lease_timeout",
    "requeue",
    "backoff",
    "quarantine",
    "storm_kill",
    "crash",
    "message_lost",
    "straggle",
    "replica",
    "mc_progress",
    "run_end",
    "span_start",
    "span_end",
];

/// One observable fact about a run.
///
/// The lifetime is that of a span name: producers name spans with string
/// literals (`Event<'static>`), and a decoded event borrows the name from
/// its line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event<'a> {
    /// Virtual time of the fact (trials completed, for Monte-Carlo
    /// progress).
    pub time: f64,
    /// What happened.
    pub kind: EventKind<'a>,
}

/// The closed set of event types.
///
/// Three groups: *episode lifecycle* (`EpisodeStart`, `PeriodStart`,
/// `PeriodCommit`, `PeriodInterrupt`), *farm master actions* (`Dispatch`,
/// `Bank`, `LeaseTimeout`, `Requeue`, `Backoff`, `Quarantine`, `StormKill`,
/// `Crash`, `MessageLost`, `Straggle`, `Replica`) and *run bookkeeping*
/// (`RunStart`, `McProgress`, `RunEnd`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind<'a> {
    /// A run began.
    RunStart {
        /// Master RNG seed.
        seed: u64,
        /// Number of workstations (0 for single-episode runs).
        workstations: u64,
        /// Number of tasks in the bag (0 when fluid).
        tasks: u64,
    },
    /// A workstation's owner left and an episode began.
    EpisodeStart {
        /// Workstation index.
        ws: u64,
    },
    /// An episode period of length `len` started.
    PeriodStart {
        /// Workstation index.
        ws: u64,
        /// Period length (including the overhead `c`).
        len: f64,
    },
    /// A period completed and banked `work`.
    PeriodCommit {
        /// Workstation index.
        ws: u64,
        /// Work banked by the period.
        work: f64,
    },
    /// The owner reclaimed mid-period, destroying `lost` work.
    PeriodInterrupt {
        /// Workstation index.
        ws: u64,
        /// Work destroyed with the period.
        lost: f64,
    },
    /// The master checked a chunk out of the bag and shipped it.
    Dispatch {
        /// Workstation index.
        ws: u64,
        /// Tasks in the chunk.
        tasks: u64,
        /// Total task time in the chunk.
        work: f64,
    },
    /// A chunk's results reached the master and banked.
    Bank {
        /// Workstation index.
        ws: u64,
        /// Newly banked task time (first bank wins).
        work: f64,
        /// Task time discarded because another copy banked first.
        duplicate: f64,
    },
    /// A dispatched chunk's lease expired before its results arrived.
    LeaseTimeout {
        /// Workstation index holding the lease.
        ws: u64,
        /// Lease id.
        lease: u64,
    },
    /// Unbanked tasks of a timed-out lease returned to the bag.
    Requeue {
        /// Workstation index whose lease was abandoned.
        ws: u64,
        /// Tasks returned to the bag.
        tasks: u64,
    },
    /// The master delayed a dispatch by exponential backoff.
    Backoff {
        /// Workstation index.
        ws: u64,
        /// Length of the delay.
        delay: f64,
    },
    /// The master quarantined a repeat offender.
    Quarantine {
        /// Workstation index.
        ws: u64,
        /// Virtual time probation ends.
        until: f64,
    },
    /// A correlated reclaim storm cut an episode short.
    StormKill {
        /// Workstation index.
        ws: u64,
    },
    /// A workstation crashed permanently.
    Crash {
        /// Workstation index.
        ws: u64,
    },
    /// A dispatch or its result was lost in transit.
    MessageLost {
        /// Workstation index.
        ws: u64,
    },
    /// A chunk's completion overran its lease (result will arrive late).
    Straggle {
        /// Workstation index.
        ws: u64,
    },
    /// An end-game replica of an outstanding chunk was dispatched.
    Replica {
        /// Workstation index executing the replica.
        ws: u64,
        /// Tasks in the replica chunk.
        tasks: u64,
    },
    /// Monte-Carlo progress tick.
    McProgress {
        /// Trials completed so far.
        done: u64,
        /// Trials requested.
        total: u64,
    },
    /// A run ended.
    RunEnd {
        /// Total task time banked.
        banked: f64,
        /// Total task time destroyed.
        lost: f64,
        /// True when every task banked before the horizon.
        drained: bool,
    },
    /// A profiler span opened (v2). Span times are wall-clock seconds
    /// since the profiler's epoch, not virtual time.
    SpanStart {
        /// Span id, unique within the emitting profiler (never 0).
        id: u64,
        /// Enclosing span's id, or 0 for a root span.
        parent: u64,
        /// Span name (an identifier such as `farm.dispatch`).
        name: &'a str,
    },
    /// A profiler span closed (v2).
    SpanEnd {
        /// Span id matching the corresponding [`EventKind::SpanStart`].
        id: u64,
        /// Enclosing span's id, or 0 for a root span.
        parent: u64,
        /// Span name (same as the start event's).
        name: &'a str,
        /// Inclusive wall-clock duration in nanoseconds.
        dur_ns: f64,
    },
}

impl EventKind<'_> {
    /// The event's `"type"` string (member of [`ALL_KINDS`]).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::RunStart { .. } => "run_start",
            EventKind::EpisodeStart { .. } => "episode_start",
            EventKind::PeriodStart { .. } => "period_start",
            EventKind::PeriodCommit { .. } => "period_commit",
            EventKind::PeriodInterrupt { .. } => "period_interrupt",
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::Bank { .. } => "bank",
            EventKind::LeaseTimeout { .. } => "lease_timeout",
            EventKind::Requeue { .. } => "requeue",
            EventKind::Backoff { .. } => "backoff",
            EventKind::Quarantine { .. } => "quarantine",
            EventKind::StormKill { .. } => "storm_kill",
            EventKind::Crash { .. } => "crash",
            EventKind::MessageLost { .. } => "message_lost",
            EventKind::Straggle { .. } => "straggle",
            EventKind::Replica { .. } => "replica",
            EventKind::McProgress { .. } => "mc_progress",
            EventKind::RunEnd { .. } => "run_end",
            EventKind::SpanStart { .. } => "span_start",
            EventKind::SpanEnd { .. } => "span_end",
        }
    }
}

/// Appends a float as JSON: shortest round-trip decimal, `null` when not
/// finite (JSON has no NaN/Infinity).
pub(crate) fn push_json_f64(out: &mut String, v: f64) {
    use std::fmt::Write;
    if v.is_finite() {
        write!(out, "{v}").expect("write to String");
    } else {
        out.push_str("null");
    }
}

impl Event<'_> {
    /// Serializes to one JSONL line (no trailing newline):
    /// `{"v":1,"t":12.5,"type":"bank","ws":0,"work":18,"duplicate":0}`.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(96);
        write!(s, "{{\"v\":{SCHEMA_VERSION},\"t\":").expect("write to String");
        push_json_f64(&mut s, self.time);
        write!(s, ",\"type\":\"{}\"", self.kind.name()).expect("write to String");
        let num = |s: &mut String, key: &str, v: f64| {
            write!(s, ",\"{key}\":").expect("write to String");
            push_json_f64(s, v);
        };
        let int = |s: &mut String, key: &str, v: u64| {
            write!(s, ",\"{key}\":{v}").expect("write to String");
        };
        match self.kind {
            EventKind::RunStart {
                seed,
                workstations,
                tasks,
            } => {
                int(&mut s, "seed", seed);
                int(&mut s, "workstations", workstations);
                int(&mut s, "tasks", tasks);
            }
            EventKind::EpisodeStart { ws }
            | EventKind::StormKill { ws }
            | EventKind::Crash { ws }
            | EventKind::MessageLost { ws }
            | EventKind::Straggle { ws } => int(&mut s, "ws", ws),
            EventKind::PeriodStart { ws, len } => {
                int(&mut s, "ws", ws);
                num(&mut s, "len", len);
            }
            EventKind::PeriodCommit { ws, work } => {
                int(&mut s, "ws", ws);
                num(&mut s, "work", work);
            }
            EventKind::PeriodInterrupt { ws, lost } => {
                int(&mut s, "ws", ws);
                num(&mut s, "lost", lost);
            }
            EventKind::Dispatch { ws, tasks, work } => {
                int(&mut s, "ws", ws);
                int(&mut s, "tasks", tasks);
                num(&mut s, "work", work);
            }
            EventKind::Bank {
                ws,
                work,
                duplicate,
            } => {
                int(&mut s, "ws", ws);
                num(&mut s, "work", work);
                num(&mut s, "duplicate", duplicate);
            }
            EventKind::LeaseTimeout { ws, lease } => {
                int(&mut s, "ws", ws);
                int(&mut s, "lease", lease);
            }
            EventKind::Requeue { ws, tasks } | EventKind::Replica { ws, tasks } => {
                int(&mut s, "ws", ws);
                int(&mut s, "tasks", tasks);
            }
            EventKind::Backoff { ws, delay } => {
                int(&mut s, "ws", ws);
                num(&mut s, "delay", delay);
            }
            EventKind::Quarantine { ws, until } => {
                int(&mut s, "ws", ws);
                num(&mut s, "until", until);
            }
            EventKind::McProgress { done, total } => {
                int(&mut s, "done", done);
                int(&mut s, "total", total);
            }
            EventKind::RunEnd {
                banked,
                lost,
                drained,
            } => {
                num(&mut s, "banked", banked);
                num(&mut s, "lost", lost);
                write!(s, ",\"drained\":{drained}").expect("write to String");
            }
            EventKind::SpanStart { id, parent, name } => {
                int(&mut s, "id", id);
                int(&mut s, "parent", parent);
                debug_assert!(span_name_is_plain(name), "span name {name:?}");
                write!(s, ",\"name\":\"{name}\"").expect("write to String");
            }
            EventKind::SpanEnd {
                id,
                parent,
                name,
                dur_ns,
            } => {
                int(&mut s, "id", id);
                int(&mut s, "parent", parent);
                debug_assert!(span_name_is_plain(name), "span name {name:?}");
                write!(s, ",\"name\":\"{name}\"").expect("write to String");
                num(&mut s, "dur_ns", dur_ns);
            }
        }
        s.push('}');
        s
    }
}

/// Span names are static identifiers chosen in code; they must not need
/// JSON escaping (checked in debug builds at serialization time).
pub(crate) fn span_name_is_plain(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_name_is_in_all_kinds() {
        let kinds = [
            EventKind::RunStart {
                seed: 1,
                workstations: 2,
                tasks: 3,
            },
            EventKind::EpisodeStart { ws: 0 },
            EventKind::PeriodStart { ws: 0, len: 1.0 },
            EventKind::PeriodCommit { ws: 0, work: 1.0 },
            EventKind::PeriodInterrupt { ws: 0, lost: 1.0 },
            EventKind::Dispatch {
                ws: 0,
                tasks: 4,
                work: 4.0,
            },
            EventKind::Bank {
                ws: 0,
                work: 4.0,
                duplicate: 0.0,
            },
            EventKind::LeaseTimeout { ws: 0, lease: 9 },
            EventKind::Requeue { ws: 0, tasks: 4 },
            EventKind::Backoff { ws: 0, delay: 2.0 },
            EventKind::Quarantine { ws: 0, until: 99.0 },
            EventKind::StormKill { ws: 0 },
            EventKind::Crash { ws: 0 },
            EventKind::MessageLost { ws: 0 },
            EventKind::Straggle { ws: 0 },
            EventKind::Replica { ws: 0, tasks: 2 },
            EventKind::McProgress { done: 5, total: 10 },
            EventKind::RunEnd {
                banked: 10.0,
                lost: 1.0,
                drained: true,
            },
            EventKind::SpanStart {
                id: 1,
                parent: 0,
                name: "farm.run",
            },
            EventKind::SpanEnd {
                id: 1,
                parent: 0,
                name: "farm.run",
                dur_ns: 1500.0,
            },
        ];
        assert_eq!(kinds.len(), ALL_KINDS.len());
        for k in kinds {
            assert!(ALL_KINDS.contains(&k.name()), "{} missing", k.name());
        }
    }

    #[test]
    fn jsonl_shape() {
        let e = Event {
            time: 12.5,
            kind: EventKind::Bank {
                ws: 3,
                work: 18.0,
                duplicate: 0.5,
            },
        };
        assert_eq!(
            e.to_jsonl(),
            r#"{"v":2,"t":12.5,"type":"bank","ws":3,"work":18,"duplicate":0.5}"#
        );
    }

    #[test]
    fn span_jsonl_shape() {
        let e = Event {
            time: 0.25,
            kind: EventKind::SpanEnd {
                id: 7,
                parent: 2,
                name: "mc.trial_batch",
                dur_ns: 12000.0,
            },
        };
        assert_eq!(
            e.to_jsonl(),
            r#"{"v":2,"t":0.25,"type":"span_end","id":7,"parent":2,"name":"mc.trial_batch","dur_ns":12000}"#
        );
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let e = Event {
            time: f64::NAN,
            kind: EventKind::RunEnd {
                banked: f64::INFINITY,
                lost: 0.0,
                drained: false,
            },
        };
        let line = e.to_jsonl();
        assert!(line.contains("\"t\":null"), "{line}");
        assert!(line.contains("\"banked\":null"), "{line}");
        assert!(!line.contains("NaN") && !line.contains("inf"), "{line}");
    }

    #[test]
    fn f64_round_trips_through_display() {
        // The decoder relies on shortest-round-trip Display formatting.
        for v in [0.1, 1.0 / 3.0, 435.8123456789, 1e-300, 123456789.123456] {
            let mut s = String::new();
            push_json_f64(&mut s, v);
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
    }
}
