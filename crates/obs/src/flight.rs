//! Live telemetry for runs still in flight: the heartbeat progress sink.
//!
//! [`ProgressSink`] exists for runs that are *in trouble while still
//! running* — the multi-minute chaos sweep that seems stuck, the mega-farm
//! run that will be killed before its trace is written. It is strictly
//! pass-through like every [`EventSink`]: attaching it changes nothing
//! about a seeded run's results. It folds the stream into a handful of
//! running counters and writes one `RUN-PROGRESS {json}` line every
//! `every` wall-clock seconds. The heartbeat goes to its own writer
//! (stderr in the CLI), never into the trace, so traced output stays
//! byte-identical whether heartbeats are on or off.

use crate::event::{Event, EventKind};
use crate::sink::EventSink;
use std::io::Write;
use std::time::Instant;

/// Running totals a heartbeat line reports.
#[derive(Debug, Clone, Copy, Default)]
struct ProgressCounters {
    events: u64,
    dispatches: u64,
    banks: u64,
    banked_work: f64,
    reclaims: u64,
    lost_work: f64,
    requeues: u64,
    crashes: u64,
    replicas: u64,
    mc_done: u64,
    mc_total: u64,
    /// Latest *virtual* timestamp seen (farm time or trial count).
    last_time: f64,
}

/// Emits a `RUN-PROGRESS {json}` heartbeat line at a wall-clock cadence.
///
/// The sink folds the stream into running counters and, at most once
/// per `every` seconds (measured with [`Instant`], so virtual-time runs
/// heartbeat in real time), writes one line to its writer. `every == 0`
/// emits on every event — useful in tests and for `tail`-speed debugging.
/// Write errors are silently dropped: a broken stderr must never damage
/// the run.
#[derive(Debug)]
pub struct ProgressSink<W: Write> {
    out: W,
    every: f64,
    last_emit: Option<Instant>,
    counters: ProgressCounters,
}

impl<W: Write> ProgressSink<W> {
    /// A heartbeat sink writing to `out` every `every` wall-clock seconds.
    pub fn new(out: W, every: f64) -> Self {
        Self {
            out,
            every: every.max(0.0),
            last_emit: None,
            counters: ProgressCounters::default(),
        }
    }

    /// Heartbeat lines emitted are prefixed with this tag.
    pub const TAG: &'static str = "RUN-PROGRESS";

    fn due(&self) -> bool {
        if self.every == 0.0 {
            return true;
        }
        match self.last_emit {
            None => true,
            Some(at) => at.elapsed().as_secs_f64() >= self.every,
        }
    }

    fn render(&self) -> String {
        use std::fmt::Write as _;
        let c = &self.counters;
        let mut s = format!("{} {{\"t\":", Self::TAG);
        crate::event::push_json_f64(&mut s, c.last_time);
        write!(
            s,
            ",\"events\":{},\"dispatches\":{},\"banks\":{},\"banked_work\":",
            c.events, c.dispatches, c.banks
        )
        .expect("write to String");
        crate::event::push_json_f64(&mut s, c.banked_work);
        write!(s, ",\"reclaims\":{},\"lost_work\":", c.reclaims).expect("write to String");
        crate::event::push_json_f64(&mut s, c.lost_work);
        write!(
            s,
            ",\"requeues\":{},\"crashes\":{},\"replicas\":{}",
            c.requeues, c.crashes, c.replicas
        )
        .expect("write to String");
        if c.mc_total > 0 {
            write!(s, ",\"mc_done\":{},\"mc_total\":{}", c.mc_done, c.mc_total)
                .expect("write to String");
        }
        s.push('}');
        s
    }

    /// Writes a heartbeat line now, regardless of cadence.
    pub fn emit_heartbeat(&mut self) {
        let line = self.render();
        let _ = writeln!(self.out, "{line}");
        let _ = self.out.flush();
        self.last_emit = Some(Instant::now());
    }
}

impl<W: Write> EventSink for ProgressSink<W> {
    fn emit(&mut self, event: &Event<'static>) {
        let c = &mut self.counters;
        c.events += 1;
        match event.kind {
            EventKind::Dispatch { .. } => c.dispatches += 1,
            EventKind::Bank { work, .. } => {
                c.banks += 1;
                c.banked_work += work;
            }
            EventKind::PeriodInterrupt { lost, .. } => {
                c.reclaims += 1;
                c.lost_work += lost;
            }
            EventKind::Requeue { .. } => c.requeues += 1,
            EventKind::Crash { .. } => c.crashes += 1,
            EventKind::Replica { .. } => c.replicas += 1,
            EventKind::McProgress { done, total } => {
                c.mc_done = done;
                c.mc_total = total;
            }
            _ => {}
        }
        // Span events carry wall-clock-since-epoch times; keep the
        // heartbeat's `t` on the run's virtual clock.
        if !matches!(
            event.kind,
            EventKind::SpanStart { .. } | EventKind::SpanEnd { .. }
        ) {
            c.last_time = c.last_time.max(event.time);
        }
        if self.due() {
            self.emit_heartbeat();
        }
    }

    fn flush_sink(&mut self) {
        let _ = self.out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, kind: EventKind<'static>) -> Event<'static> {
        Event { time, kind }
    }

    #[test]
    fn progress_sink_counts_and_heartbeats() {
        // every == 0: one heartbeat per event.
        let mut out = Vec::new();
        {
            let mut ps = ProgressSink::new(&mut out, 0.0);
            ps.emit(&ev(
                1.0,
                EventKind::Dispatch {
                    ws: 0,
                    tasks: 4,
                    work: 4.0,
                },
            ));
            ps.emit(&ev(
                5.0,
                EventKind::Bank {
                    ws: 0,
                    work: 4.0,
                    duplicate: 0.0,
                },
            ));
            ps.emit(&ev(6.0, EventKind::PeriodInterrupt { ws: 1, lost: 2.5 }));
        }
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.starts_with("RUN-PROGRESS {")));
        let last = lines[2];
        assert!(last.contains("\"events\":3"), "{last}");
        assert!(last.contains("\"banked_work\":4"), "{last}");
        assert!(last.contains("\"reclaims\":1"), "{last}");
        assert!(last.contains("\"lost_work\":2.5"), "{last}");
        assert!(last.contains("\"t\":6"), "{last}");
    }

    #[test]
    fn progress_sink_throttles_on_wall_clock() {
        // A large cadence: the first event heartbeats (nothing emitted
        // yet), the rest are throttled.
        let mut out = Vec::new();
        {
            let mut ps = ProgressSink::new(&mut out, 3600.0);
            for i in 0..100u64 {
                ps.emit(&ev(i as f64, EventKind::EpisodeStart { ws: 0 }));
            }
        }
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
    }

    #[test]
    fn progress_sink_reports_mc_progress() {
        let mut out = Vec::new();
        {
            let mut ps = ProgressSink::new(&mut out, 0.0);
            ps.emit(&ev(
                50.0,
                EventKind::McProgress {
                    done: 50,
                    total: 100,
                },
            ));
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"mc_done\":50,\"mc_total\":100"), "{text}");
    }

    #[test]
    fn progress_sink_ignores_span_wall_times() {
        let mut out = Vec::new();
        {
            let mut ps = ProgressSink::new(&mut out, 0.0);
            ps.emit(&ev(
                1e9, // wall-clock-ish span timestamp
                EventKind::SpanStart {
                    id: 1,
                    parent: 0,
                    name: "farm.run",
                },
            ));
            ps.emit(&ev(2.0, EventKind::EpisodeStart { ws: 0 }));
        }
        let text = String::from_utf8(out).unwrap();
        let last = text.lines().last().unwrap();
        assert!(last.contains("\"t\":2"), "{last}");
    }
}
