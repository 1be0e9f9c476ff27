//! Live telemetry: the flight recorder and heartbeat progress sink.
//!
//! Both sinks exist for runs that are *in trouble while still running* —
//! the multi-minute chaos sweep that seems stuck, the mega-farm run that
//! will be killed before its trace is written. They are strictly
//! pass-through like every [`EventSink`]: attaching them changes nothing
//! about a seeded run's results.
//!
//! * [`FlightRecorder`] keeps the last `capacity` events in a fixed-size
//!   ring (drop-oldest) and can dump them as JSONL on demand — or
//!   automatically when the thread is panicking, so a crashed run leaves
//!   its final seconds of evidence behind even with tracing off.
//! * [`ProgressSink`] folds the stream into a handful of running counters
//!   and writes one `RUN-PROGRESS {json}` line every `every` wall-clock
//!   seconds. The heartbeat goes to its own writer (stderr in the CLI),
//!   never into the trace, so traced output stays byte-identical whether
//!   heartbeats are on or off.

use crate::event::{Event, EventKind};
use crate::sink::EventSink;
use std::collections::VecDeque;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// A bounded ring-buffer sink holding the most recent events.
///
/// `emit` is O(1): once the ring is full the oldest event is dropped and
/// counted. [`FlightRecorder::dump_to`] renders the retained window
/// oldest-first as schema-v2 JSONL (the same bytes a [`crate::JsonlSink`]
/// would have written for those events). With
/// [`FlightRecorder::with_dump_path`] the recorder also dumps itself when
/// dropped during a panic — the black-box use case.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: VecDeque<Event<'static>>,
    capacity: usize,
    dropped: u64,
    dump_path: Option<PathBuf>,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: VecDeque::with_capacity(capacity.max(1)),
            capacity: capacity.max(1),
            dropped: 0,
            dump_path: None,
        }
    }

    /// Dump the retained window to `path` if this recorder is dropped
    /// while the thread is panicking (black-box crash dump).
    pub fn with_dump_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.dump_path = Some(path.into());
        self
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Events dropped off the old end of the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the retained window, oldest first, as JSONL. Returns the
    /// number of lines written. The ring is left intact (dump-on-demand
    /// must not disturb an ongoing recording).
    pub fn dump_to(&self, out: &mut dyn Write) -> std::io::Result<u64> {
        let mut n = 0u64;
        for ev in &self.ring {
            out.write_all(ev.to_jsonl().as_bytes())?;
            out.write_all(b"\n")?;
            n += 1;
        }
        out.flush()?;
        Ok(n)
    }
}

impl EventSink for FlightRecorder {
    fn emit(&mut self, event: &Event<'static>) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(*event);
    }
}

impl Drop for FlightRecorder {
    fn drop(&mut self) {
        // Only the black-box case: a configured dump path and a panic in
        // flight. A normal drop stays silent.
        let Some(path) = self.dump_path.take() else {
            return;
        };
        if !std::thread::panicking() {
            return;
        }
        match std::fs::File::create(&path) {
            Ok(mut f) => match self.dump_to(&mut f) {
                Ok(n) => eprintln!(
                    "flight recorder: dumped {n} events ({} dropped) to {}",
                    self.dropped,
                    path.display()
                ),
                Err(e) => eprintln!("flight recorder: dump to {} failed: {e}", path.display()),
            },
            Err(e) => eprintln!("flight recorder: cannot create {}: {e}", path.display()),
        }
    }
}

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
    fn recorder_keeps_the_newest_window() {
        let mut fr = FlightRecorder::new(3);
        assert!(fr.is_empty());
        for ws in 0..5u64 {
            fr.emit(&ev(ws as f64, EventKind::EpisodeStart { ws }));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.dropped(), 2);
        let mut out = Vec::new();
        let n = fr.dump_to(&mut out).unwrap();
        assert_eq!(n, 3);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        // Oldest-first window over the last three events (ws 2, 3, 4).
        assert!(lines[0].contains("\"ws\":2"), "{}", lines[0]);
        assert!(lines[2].contains("\"ws\":4"), "{}", lines[2]);
        // Dumping twice yields the same bytes (ring left intact).
        let mut again = Vec::new();
        fr.dump_to(&mut again).unwrap();
        assert_eq!(text.as_bytes(), &again[..]);
        // Each line decodes back to the event it recorded.
        for (l, ws) in lines.into_iter().zip(2..) {
            let want = ev(ws as f64, EventKind::EpisodeStart { ws });
            assert_eq!(Event::from_jsonl(l), Ok(want));
        }
    }

    #[test]
    fn recorder_capacity_floor_is_one() {
        let mut fr = FlightRecorder::new(0);
        fr.emit(&ev(0.0, EventKind::EpisodeStart { ws: 0 }));
        fr.emit(&ev(1.0, EventKind::EpisodeStart { ws: 1 }));
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.dropped(), 1);
    }

    #[test]
    fn recorder_dumps_on_panic_when_configured() {
        let path = std::env::temp_dir().join("cs_obs_flight_panic_dump.jsonl");
        std::fs::remove_file(&path).ok();
        let path2 = path.clone();
        let res = std::panic::catch_unwind(move || {
            let mut fr = FlightRecorder::new(8).with_dump_path(&path2);
            fr.emit(&ev(1.0, EventKind::Crash { ws: 3 }));
            panic!("boom");
        });
        assert!(res.is_err());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"crash\""), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recorder_stays_silent_on_clean_drop() {
        let path = std::env::temp_dir().join("cs_obs_flight_clean_drop.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let mut fr = FlightRecorder::new(8).with_dump_path(&path);
            fr.emit(&ev(1.0, EventKind::Crash { ws: 3 }));
        }
        assert!(!path.exists(), "clean drop must not dump");
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
