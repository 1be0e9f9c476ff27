//! Durable write-ahead journal over the v2 event schema.
//!
//! A journal is an ordinary JSONL event trace (same lines [`JsonlSink`]
//! writes, same [`Event::from_jsonl`] contract) with two extra
//! guarantees that turn it into a WAL:
//!
//! * **fsync-on-commit** — [`JournalWriter`] writes every record straight
//!   to the file (no userspace buffer) and calls `fdatasync` per its
//!   [`FsyncPolicy`], so a committed record survives not just a killed
//!   process but a killed machine.
//! * **torn-tail-tolerant reads** — a crash can land mid-write, leaving a
//!   final partial line. [`read_journal`] truncates at the last complete,
//!   schema-valid record instead of erroring; only damage *before* the
//!   tail is corruption.
//!
//! The journal records master state transitions by value (every dispatch,
//! bank, requeue, quarantine, …), so a deterministic producer can replay
//! the prefix against its own regenerated stream and continue appending —
//! see `cs-now`'s `Farm::resume` for the consumer side.
//!
//! [`JsonlSink`]: crate::JsonlSink

use crate::event::{Event, EventKind};
use crate::sink::EventSink;
use crate::vfs::{Vfs, VfsFile};
use std::path::Path;

/// When [`JournalWriter`] forces records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record: maximal durability, one syscall per
    /// event.
    EveryRecord,
    /// Group commit on the virtual clock: sync whenever the event stream's
    /// high-water time has advanced by at least this many virtual time
    /// units since the last sync (plus a final sync at `finish`). The
    /// cadence is the checkpoint-interval question of the paper's §4.2
    /// Remark; `cs-saves::guideline_interval` computes a principled value.
    Interval(f64),
}

/// Durability counters reported by [`JournalWriter::finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records written (journal lines).
    pub records: u64,
    /// `fdatasync` calls issued.
    pub syncs: u64,
}

/// Fsync-on-commit JSONL event writer ([`EventSink`]).
///
/// I/O discipline follows [`crate::JsonlSink`]: `emit` stays infallible
/// (the pass-through contract — producers must not branch on sink health),
/// the first I/O error is latched and surfaced by
/// [`JournalWriter::finish`], and later emits go quiet. Unlike
/// `JsonlSink` there is no userspace buffer: a record is in the OS page
/// cache as soon as `emit` returns and on stable storage per the
/// [`FsyncPolicy`].
#[derive(Debug)]
pub struct JournalWriter {
    file: Option<Box<dyn VfsFile>>,
    policy: FsyncPolicy,
    stats: JournalStats,
    error: Option<std::io::Error>,
    /// Virtual-time high-water mark at the last sync (Interval policy).
    synced_mark: f64,
    /// Largest finite event time seen so far.
    high_water: f64,
    /// Bytes reached the file, or were cut from it, since the last sync:
    /// a sync of a clean writer is skipped.
    dirty: bool,
}

impl JournalWriter {
    /// Creates (truncating) `path` through `vfs` and returns a journal
    /// writing to it.
    pub fn create(vfs: &dyn Vfs, path: &Path, policy: FsyncPolicy) -> std::io::Result<Self> {
        Ok(Self::from_handle(vfs.create(path)?, policy))
    }

    /// Reopens an existing journal for appending, first truncating it to
    /// `valid_len` bytes (the [`read_journal`] `complete_bytes` — this is
    /// how a resuming master discards a torn tail). A cut leaves the
    /// writer owing a sync; a file already `valid_len` long does not.
    pub fn append_at(
        vfs: &dyn Vfs,
        path: &Path,
        valid_len: u64,
        policy: FsyncPolicy,
    ) -> std::io::Result<Self> {
        let (file, cut) = vfs.open_append(path, valid_len)?;
        let mut writer = Self::from_handle(file, policy);
        writer.dirty = cut;
        Ok(writer)
    }

    /// Wraps an already-open [`VfsFile`] handle.
    fn from_handle(file: Box<dyn VfsFile>, policy: FsyncPolicy) -> Self {
        Self {
            file: Some(file),
            policy,
            stats: JournalStats::default(),
            error: None,
            synced_mark: 0.0,
            high_water: 0.0,
            dirty: false,
        }
    }

    /// Records written so far.
    pub fn records(&self) -> u64 {
        self.stats.records
    }

    /// The first latched I/O error, if any. `emit` is infallible by
    /// contract, so a caller that wants to *react* to a dying disk
    /// mid-run (fail-stop or degrade, rather than discovering the
    /// failure at [`JournalWriter::finish`]) polls this at its own
    /// commit points.
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Writes raw bytes outside record accounting, after syncing committed
    /// records. This is the chaos/test hook behind deterministic torn-tail
    /// injection (`--kill-after` writes a partial record and aborts);
    /// production code never needs it.
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.sync();
        if self.error.is_some() {
            return;
        }
        if let Some(f) = self.file.as_mut() {
            if let Err(e) = f.write_all(bytes).and_then(|()| f.sync_data()) {
                self.error = Some(e);
            }
        }
    }

    fn sync(&mut self) {
        if self.error.is_some() || !self.dirty {
            return;
        }
        if let Some(f) = self.file.as_mut() {
            match f.sync_data() {
                Ok(()) => {
                    self.stats.syncs += 1;
                    self.synced_mark = self.high_water;
                    self.dirty = false;
                }
                Err(e) => self.error = Some(e),
            }
        }
    }

    /// Final sync (if anything is unsynced), then surfaces the first
    /// latched I/O error. Returns the durability counters on success.
    pub fn finish(mut self) -> std::io::Result<JournalStats> {
        let (stats, err) = self.finish_parts();
        match err {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }

    /// Like [`JournalWriter::finish`], but always returns the counters
    /// alongside the error — for callers (degraded-mode runs, journal
    /// segment rotation) that must keep accounting even when the disk
    /// died.
    pub fn finish_parts(&mut self) -> (JournalStats, Option<std::io::Error>) {
        if self.file.is_some() {
            self.sync();
            self.file = None;
        }
        (self.stats, self.error.take())
    }

    /// [`EventSink::emit`] for a caller that has already encoded the
    /// record: `line` must be `event.to_jsonl()` followed by `\n`.
    pub fn emit_line(&mut self, event: &Event<'_>, line: &str) {
        if self.error.is_some() {
            return;
        }
        let Some(f) = self.file.as_mut() else {
            return;
        };
        if let Err(e) = f.write_all(line.as_bytes()) {
            self.error = Some(e);
            return;
        }
        self.dirty = true;
        self.stats.records += 1;
        if event.time.is_finite() && event.time > self.high_water {
            self.high_water = event.time;
        }
        let due = match self.policy {
            FsyncPolicy::EveryRecord => true,
            // Commit points also land on run boundaries so a completed run
            // is never left unsynced behind a long cadence.
            FsyncPolicy::Interval(dt) => {
                self.high_water - self.synced_mark >= dt
                    || matches!(event.kind, EventKind::RunEnd { .. })
            }
        };
        if due {
            self.sync();
        }
    }
}

impl EventSink for JournalWriter {
    fn emit(&mut self, event: &Event<'static>) {
        let mut line = event.to_jsonl();
        line.push('\n');
        self.emit_line(event, &line);
    }

    fn flush_sink(&mut self) {
        self.sync();
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        // `finish` already took the file on the happy path; this runs for
        // journals dropped early (panics, error returns). Records were
        // written unbuffered, so only the final sync can still fail.
        if let Some(mut f) = self.file.take() {
            let sync_err = self.dirty.then(|| f.sync_data().err()).flatten();
            if let Some(e) = self.error.take().or(sync_err) {
                eprintln!(
                    "warning: journal incomplete ({} records committed): {e}",
                    self.stats.records
                );
            }
        }
    }
}

/// What [`read_journal`] recovered from a journal file.
#[derive(Debug, Clone, Default)]
pub struct JournalContents {
    /// The complete, schema-valid records, in file order.
    pub records: Vec<String>,
    /// Byte length of the valid prefix (each record plus its newline).
    /// Truncating the file to this length discards exactly the torn tail.
    pub complete_bytes: u64,
    /// Bytes after the valid prefix that were discarded as a torn final
    /// record (`0` for a cleanly closed journal).
    pub torn_bytes: u64,
}

impl JournalContents {
    /// True when the file ended mid-record.
    pub fn is_torn(&self) -> bool {
        self.torn_bytes > 0
    }
}

/// Why a journal could not be read.
#[derive(Debug)]
pub enum JournalReadError {
    /// The file could not be read at all.
    Io(std::io::Error),
    /// A record *before* the final one is invalid — damage inside the
    /// committed prefix is corruption, not a torn tail, and recovery must
    /// not guess its way past it.
    Corrupt {
        /// 1-based line number of the bad record.
        line: usize,
        /// Why the decoder rejected it.
        reason: String,
    },
}

impl std::fmt::Display for JournalReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalReadError::Io(e) => write!(f, "journal read failed: {e}"),
            JournalReadError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalReadError {}

impl From<std::io::Error> for JournalReadError {
    fn from(e: std::io::Error) -> Self {
        JournalReadError::Io(e)
    }
}

/// Reads a journal, tolerating a torn final record.
///
/// A record is *complete* when it is newline-terminated and decodes with
/// [`Event::from_jsonl`]. The scan stops at the first incomplete record:
///
/// * trailing bytes with no newline → torn tail (discarded, reported);
/// * a final newline-terminated line that does not decode → also treated
///   as torn (a kernel may persist the newline of a partially synced
///   write);
/// * an invalid line *followed by* further records → hard
///   [`JournalReadError::Corrupt`].
pub fn read_journal(vfs: &dyn Vfs, path: &Path) -> Result<JournalContents, JournalReadError> {
    let bytes = vfs.read(path)?;
    let mut out = JournalContents::default();
    let mut offset = 0usize;
    let mut lineno = 0usize;
    while offset < bytes.len() {
        lineno += 1;
        let Some(nl) = bytes[offset..].iter().position(|&b| b == b'\n') else {
            break; // unterminated tail
        };
        let line = &bytes[offset..offset + nl];
        let parsed = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(|s| Event::from_jsonl(s).map(|_| s));
        match parsed {
            Ok(s) => {
                out.records.push(s.to_string());
                offset += nl + 1;
            }
            Err(reason) => {
                // Valid records after this line mean mid-file corruption.
                let rest = &bytes[offset + nl + 1..];
                let has_later_record = rest
                    .split(|&b| b == b'\n')
                    .any(|l| std::str::from_utf8(l).is_ok_and(|s| Event::from_jsonl(s).is_ok()));
                if has_later_record {
                    return Err(JournalReadError::Corrupt {
                        line: lineno,
                        reason,
                    });
                }
                break; // torn tail
            }
        }
    }
    out.complete_bytes = offset as u64;
    out.torn_bytes = (bytes.len() - offset) as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::vfs::{StdVfs, StdVfsFile};
    use std::fs::File;

    fn ev(time: f64, kind: EventKind<'static>) -> Event<'static> {
        Event { time, kind }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "cs_obs_journal_{name}_{}.jsonl",
            std::process::id()
        ))
    }

    fn sample_events() -> Vec<Event<'static>> {
        vec![
            ev(
                0.0,
                EventKind::RunStart {
                    seed: 9,
                    workstations: 1,
                    tasks: 4,
                },
            ),
            ev(
                1.0,
                EventKind::Dispatch {
                    ws: 0,
                    tasks: 4,
                    work: 4.0,
                },
            ),
            ev(
                5.0,
                EventKind::Bank {
                    ws: 0,
                    work: 4.0,
                    duplicate: 0.0,
                },
            ),
            ev(
                5.0,
                EventKind::RunEnd {
                    banked: 4.0,
                    lost: 0.0,
                    drained: true,
                },
            ),
        ]
    }

    #[test]
    fn writes_and_reads_round_trip() {
        let path = tmp("roundtrip");
        let mut w = JournalWriter::create(&StdVfs, &path, FsyncPolicy::EveryRecord).unwrap();
        for e in sample_events() {
            w.emit(&e);
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.records, 4);
        assert!(stats.syncs >= 4, "{stats:?}");
        let j = read_journal(&StdVfs, &path).unwrap();
        assert_eq!(j.records.len(), 4);
        assert!(!j.is_torn());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(j.complete_bytes, text.len() as u64);
        assert_eq!(
            j.records,
            sample_events()
                .iter()
                .map(Event::to_jsonl)
                .collect::<Vec<_>>()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interval_policy_syncs_less_often() {
        let path = tmp("interval");
        let mut w = JournalWriter::create(&StdVfs, &path, FsyncPolicy::Interval(100.0)).unwrap();
        for i in 0..50u64 {
            w.emit(&ev(i as f64, EventKind::EpisodeStart { ws: 0 }));
        }
        let lazy = w.finish().unwrap();
        assert_eq!(lazy.records, 50);
        // 49 time units of progress never crosses the 100-unit cadence:
        // only the finish sync fires.
        assert_eq!(lazy.syncs, 1, "{lazy:?}");

        let mut w = JournalWriter::create(&StdVfs, &path, FsyncPolicy::Interval(10.0)).unwrap();
        for i in 0..50u64 {
            w.emit(&ev(i as f64, EventKind::EpisodeStart { ws: 0 }));
        }
        let eager = w.finish().unwrap();
        assert!(eager.syncs > lazy.syncs, "{eager:?} vs {lazy:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_end_forces_a_commit_under_interval_policy() {
        let path = tmp("runend");
        let mut w = JournalWriter::create(&StdVfs, &path, FsyncPolicy::Interval(1e12)).unwrap();
        for e in sample_events() {
            w.emit(&e);
        }
        assert_eq!(w.stats.syncs, 1, "run_end must sync despite the cadence");
        w.finish().unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_clean_writer_skips_its_syncs() {
        let path = tmp("clean");
        let mut w = JournalWriter::create(&StdVfs, &path, FsyncPolicy::Interval(1e12)).unwrap();
        w.flush_sink();
        assert_eq!(w.stats.syncs, 0, "nothing written yet");
        w.emit(&sample_events()[0]);
        w.flush_sink();
        w.flush_sink();
        assert_eq!(w.finish().unwrap().syncs, 1, "one write, one sync");

        // Reopening at the file's own length cuts nothing: no sync owed.
        let len = std::fs::metadata(&path).unwrap().len();
        let w = JournalWriter::append_at(&StdVfs, &path, len, FsyncPolicy::EveryRecord).unwrap();
        assert_eq!(w.finish().unwrap().syncs, 0);
        // Cutting a torn tail is a change the disk must see.
        std::fs::write(
            &path,
            [&std::fs::read(&path).unwrap()[..], b"{\"v\""].concat(),
        )
        .unwrap();
        let w = JournalWriter::append_at(&StdVfs, &path, len, FsyncPolicy::EveryRecord).unwrap();
        assert_eq!(w.finish().unwrap().syncs, 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = tmp("torn");
        let mut w = JournalWriter::create(&StdVfs, &path, FsyncPolicy::EveryRecord).unwrap();
        for e in sample_events() {
            w.emit(&e);
        }
        let clean_len = std::fs::metadata(&path).unwrap().len();
        w.write_raw(b"{\"v\":2,\"t\":12.5,\"ty");
        drop(w);
        let j = read_journal(&StdVfs, &path).unwrap();
        assert_eq!(j.records.len(), 4);
        assert!(j.is_torn());
        assert_eq!(j.complete_bytes, clean_len);
        assert_eq!(j.torn_bytes, 19);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn newline_terminated_garbage_tail_is_torn_too() {
        let path = tmp("garbage_tail");
        let mut w = JournalWriter::create(&StdVfs, &path, FsyncPolicy::EveryRecord).unwrap();
        for e in sample_events() {
            w.emit(&e);
        }
        w.write_raw(b"{\"v\":2,\"t\":\n");
        drop(w);
        let j = read_journal(&StdVfs, &path).unwrap();
        assert_eq!(j.records.len(), 4);
        assert!(j.is_torn());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_damage_is_corruption() {
        let path = tmp("corrupt");
        let mut w = JournalWriter::create(&StdVfs, &path, FsyncPolicy::EveryRecord).unwrap();
        for e in sample_events() {
            w.emit(&e);
        }
        w.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"type\":\"dispatch\"", "\"type\":\"disptach\"", 1);
        std::fs::write(&path, tampered).unwrap();
        match read_journal(&StdVfs, &path) {
            Err(JournalReadError::Corrupt { line: 2, reason }) => {
                assert!(reason.contains("disptach"), "{reason}");
            }
            other => panic!("expected Corrupt at line 2, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_at_truncates_the_torn_tail_and_continues() {
        let path = tmp("append");
        let mut w = JournalWriter::create(&StdVfs, &path, FsyncPolicy::EveryRecord).unwrap();
        let events = sample_events();
        w.emit(&events[0]);
        w.emit(&events[1]);
        w.write_raw(b"{\"v\":2,\"t");
        drop(w);
        let j = read_journal(&StdVfs, &path).unwrap();
        assert_eq!(j.records.len(), 2);
        let mut w =
            JournalWriter::append_at(&StdVfs, &path, j.complete_bytes, FsyncPolicy::EveryRecord)
                .unwrap();
        w.emit(&events[2]);
        w.emit(&events[3]);
        w.finish().unwrap();
        let j = read_journal(&StdVfs, &path).unwrap();
        assert!(!j.is_torn());
        assert_eq!(
            j.records,
            events.iter().map(Event::to_jsonl).collect::<Vec<_>>()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_journal_reads_empty() {
        let path = tmp("empty");
        std::fs::write(&path, b"").unwrap();
        let j = read_journal(&StdVfs, &path).unwrap();
        assert!(j.records.is_empty());
        assert!(!j.is_torn());
        assert_eq!(j.complete_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn write_errors_latch_and_surface_at_finish() {
        let path = tmp("readonly");
        std::fs::write(&path, b"").unwrap();
        let file = File::open(&path).unwrap(); // read-only handle
        let mut w =
            JournalWriter::from_handle(Box::new(StdVfsFile(file)), FsyncPolicy::EveryRecord);
        for e in sample_events() {
            w.emit(&e);
        }
        assert!(w.finish().is_err());
        std::fs::remove_file(&path).ok();
    }
}
