//! Durable episodes: journaled farm runs and crash recovery.
//!
//! [`Farm::run_journaled`] runs the virtual-time farm with every master
//! state transition written to a [`cs_obs::JournalWriter`] — the same v2
//! JSONL stream [`Farm::run`] emits, made durable with
//! fsync-on-commit. If the master dies (power cut, OOM kill, `--kill-after`
//! in the chaos harness), [`Farm::resume`] picks the episode back up from
//! the journal and the final [`FarmReport`] is **bitwise identical** to the
//! uninterrupted run.
//!
//! # Redo is the ground truth; snapshots shortcut it
//!
//! The farm is a deterministic function of `(FarmConfig, TaskBag)`: the
//! seed fixes the master RNG and every per-workstation fault stream, and
//! the event queue breaks ties totally. Recovery therefore **re-runs the
//! seeded engine** and string-compares each regenerated event with the
//! journal record it must reproduce; once the committed prefix is
//! exhausted, the sink switches to appending (and fsyncing) new records.
//! Any divergence — wrong config, seed or task bag, a corrupted journal —
//! is a typed [`JournalError`], never a silently different answer. A torn
//! final record is discarded and the file truncated to the last complete
//! record before appending resumes.
//!
//! Redo from record zero costs the whole run, so journaled runs also write
//! snapshot sidecars ([`crate::snapshot`]) holding the engine's complete
//! state — lease table, policy state, RNG cursors and all. Recovery
//! restores the newest sidecar that binds to the surviving journal and
//! verifies only the records after it: O(snapshot interval). Sidecars are
//! advisory: a missing, corrupt, foreign or unbound one is a typed
//! [`SnapshotOutcome::Fallback`] toward older generations and finally full
//! redo — slower, never wrong — and a failed snapshot *write* only stops
//! snapshotting. Once journal GC has cut the prefix, redo history is gone
//! and a retained generation is the only way back in.
//! [`Farm::resume`] and [`Farm::replay_to`] share one recovery front end
//! and one verifier; only resume writes.
//!
//! # The paper picks its own checkpoint period
//!
//! How often should the journal fsync? This is exactly the question the
//! paper's §4.2 Remark poses for *scheduling saves in a fault-prone
//! system*: committing state costs overhead `c` (here: an `fdatasync`),
//! faults arrive at rate λ, and the optimal save interval is the same
//! geometric-decreasing guideline as cycle-stealing chunk sizing.
//! [`guideline_fsync_policy`] reuses `cs_saves::guideline_interval` with
//! the farm's own parameters — `c` as the mean workstation overhead and λ
//! as the mean owner-interruption rate `1 / gap_mean`, the farm's
//! observable interruption intensity (the episode life functions expose no
//! closed-form mean) — so the flush cadence in virtual time is the
//! theory's own answer.
//!
//! Snapshots weigh the same two things with their own costs: by default
//! ([`SnapshotCadence::Priced`]) one is taken once replaying the records
//! since the last would cost as much as writing the next. Both sides are
//! priced from counts — records, and the sidecar's size estimated from
//! the bag — so snapshots fall rarely while the bag is full and its
//! sidecar large, often as it drains, and always at the same records for
//! the same seed.

use crate::farm::{Farm, FarmConfig, FarmConfigError, FarmReport, FarmRun};
use crate::snapshot::{
    fnv1a64, ring_snapshot_path, segment_meta_path, tmp_path, write_atomic_bytes, FarmSnapshot,
    SegmentMeta, SnapshotError, SnapshotErrorKind, SnapshotMeta, SnapshotOutcome, FNV_OFFSET,
};
use cs_obs::vfs::{StdVfs, Vfs};
use cs_obs::{
    read_journal, Event, EventKind, EventSink, FsyncPolicy, JournalContents, JournalReadError,
    JournalWriter, NoopSink, SpanProfiler,
};
use std::path::{Path, PathBuf};

/// The largest snapshot ring: [`JournalOptions::snapshot_ring`] is
/// clamped to it, and recovery probes generations `0..MAX_SNAPSHOT_RING`.
pub const MAX_SNAPSHOT_RING: u32 = 64;

/// What a journaled run does when the journal's disk dies mid-run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IoErrorPolicy {
    /// Abort the run with a typed [`JournalError::Io`] at the next event
    /// boundary: no answer is better than an answer the journal cannot
    /// vouch for.
    #[default]
    FailStop,
    /// Keep computing: journaling and snapshotting stop, a warning lands
    /// on stderr once, and the run is flagged degraded
    /// ([`DurableStats::degraded`] / [`RecoveryInfo::degraded`]). The
    /// report is still bitwise exact — only durability is lost.
    Degrade,
}

impl std::fmt::Display for IoErrorPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoErrorPolicy::FailStop => "fail-stop",
            IoErrorPolicy::Degrade => "degrade",
        })
    }
}

/// When a journaled run writes a state snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum SnapshotCadence {
    /// No snapshots: recovery is full redo replay.
    #[default]
    Off,
    /// Whenever virtual time has advanced this far past the last snapshot.
    Every(f64),
    /// Whenever replaying the records since the last snapshot would cost
    /// as much as writing the next one, both priced from counts alone:
    /// `records × 2700 ≥ 14000 + its estimated bytes` (DESIGN, "Cadence").
    Priced,
}

/// Knobs for [`Farm::run_journaled`] and [`Farm::resume`].
#[derive(Debug, Clone, Copy)]
pub struct JournalOptions {
    /// When committed records are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// Chaos hook: after this many records are committed, write a torn
    /// record fragment and `abort()` the process — a deterministic stand-in
    /// for SIGKILL used by `cyclesteal farm --kill-after` and CI.
    pub kill_after: Option<u64>,
    /// When state snapshots are written next to the journal
    /// ([`ring_snapshot_path`]). With snapshots, resume re-executes
    /// only the journal tail after the last snapshot — O(snapshot
    /// interval) instead of O(run length).
    pub snapshot_every: SnapshotCadence,
    /// Wall-clock cadence (seconds) for `RUN-PROGRESS` heartbeat lines on
    /// stderr while the run is in flight; `None` disables them, `Some(0.0)`
    /// emits one per event step (tests). Heartbeats never touch the journal
    /// itself, so journaled bytes stay identical with or without them.
    pub progress_every: Option<f64>,
    /// Size of the snapshot generation ring: snapshots cycle checksummed
    /// generations `<journal>.snap.0 .. .snap.N-1`. `1` (the default)
    /// keeps generation 0 alone; `N ≥ 2` gives resume several restore
    /// points to walk newest→oldest.
    pub snapshot_ring: u32,
    /// Journal-prefix garbage collection: once every ring generation
    /// exists, records the *oldest retained* snapshot makes redundant are
    /// truncated from the front of the journal (atomic segment rotation,
    /// see [`SegmentMeta`]), bounding the journal's disk footprint at
    /// roughly N snapshot intervals. Requires `snapshot_ring ≥ 2`; after
    /// GC, resume must restore through the ring (redo-from-zero history is
    /// gone by design).
    pub gc: bool,
    /// What to do when journal I/O starts failing mid-run.
    pub on_io_error: IoErrorPolicy,
}

impl Default for JournalOptions {
    fn default() -> Self {
        Self {
            fsync: FsyncPolicy::EveryRecord,
            kill_after: None,
            snapshot_every: SnapshotCadence::Off,
            progress_every: None,
            snapshot_ring: 1,
            gc: false,
            on_io_error: IoErrorPolicy::FailStop,
        }
    }
}

impl JournalOptions {
    /// The default durability cadence for `config`: the §4.2-guideline
    /// fsync policy ([`guideline_fsync_policy`]) and priced snapshots,
    /// everything else at defaults. A farm whose guideline says sync every
    /// record (zero overhead: saving is free) takes no snapshots, since
    /// redo replay is already exact.
    pub fn guideline(config: &FarmConfig) -> Self {
        let fsync = guideline_fsync_policy(config);
        let snapshot_every = match fsync {
            FsyncPolicy::Interval(_) => SnapshotCadence::Priced,
            FsyncPolicy::EveryRecord => SnapshotCadence::Off,
        };
        Self {
            fsync,
            snapshot_every,
            ..Self::default()
        }
    }
}

/// Durability counters reported by [`Farm::run_journaled`] — the
/// journal-level [`cs_obs::JournalStats`] extended with snapshot-ring and
/// GC accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Records written (journal lines), across GC segment rotations.
    pub records: u64,
    /// `fdatasync` calls issued.
    pub syncs: u64,
    /// Snapshot sidecars successfully written.
    pub snapshots_written: u64,
    /// Total bytes of those sidecars.
    pub snapshot_bytes: u64,
    /// Journal records truncated by prefix GC.
    pub gc_truncated_records: u64,
    /// Journal bytes truncated by prefix GC.
    pub gc_truncated_bytes: u64,
    /// True when the disk died mid-run under [`IoErrorPolicy::Degrade`]:
    /// the report is exact but the journal tail is missing.
    pub degraded: bool,
}

/// What [`Farm::resume`] did to finish the episode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Committed records replayed and verified against the journal (when a
    /// snapshot restored, only the tail after it).
    pub records_replayed: u64,
    /// New records appended after the prefix was exhausted.
    pub records_appended: u64,
    /// Bytes of torn final record discarded before appending.
    pub torn_bytes_discarded: u64,
    /// Whether the snapshot sidecar restored, was absent, or was rejected
    /// (and recovery fell back to full redo replay).
    pub snapshot: SnapshotOutcome,
    /// Bit `g` is set when `<journal>.snap.<g>` was on disk when recovery
    /// began: the sidecars a [`SnapshotOutcome::Fallback`] gave up on.
    pub ring_on_disk: u64,
    /// Records truncated by GC before this journal segment (0 for a
    /// whole, un-GC'd journal).
    pub segment_base: u64,
    /// True when the disk died mid-resume under [`IoErrorPolicy::Degrade`].
    pub degraded: bool,
}

/// Why a journaled run or a resume failed.
#[derive(Debug)]
pub enum JournalError {
    /// The farm configuration itself is invalid.
    Config(FarmConfigError),
    /// The journal file could not be read or is corrupt mid-file.
    Read(JournalReadError),
    /// Creating, syncing or appending the journal failed.
    Io(std::io::Error),
    /// The journal's `run_start` does not match this farm (wrong seed,
    /// workstation count, or task bag).
    HeaderMismatch {
        /// The `run_start` record this farm would write.
        expected: String,
        /// The `run_start` record found in the journal.
        found: String,
    },
    /// Replay regenerated a different event than the journal holds — the
    /// config/bag do not reproduce the journaled run.
    Diverged {
        /// 1-based index of the mismatching record.
        record: u64,
        /// The journal's version.
        journal: String,
        /// The replay's version.
        replayed: String,
    },
    /// The journal holds more committed records than the replay produced —
    /// it belongs to a longer run than this configuration generates.
    JournalAhead {
        /// Committed records in the journal.
        journal_records: u64,
        /// Records the replay produced.
        replayed: u64,
    },
    /// The `.seg` metadata and the snapshot ring are inconsistent with the
    /// journal on disk — the GC'd prefix cannot be reconstructed safely.
    SegmentCorrupt {
        /// What failed to line up.
        reason: String,
    },
    /// The journal is a GC'd segment (its prefix was truncated behind the
    /// snapshot ring) but no retained generation could restore — and redo
    /// replay from record zero is impossible by design once GC has run.
    SegmentUnrecoverable {
        /// Records truncated before the surviving segment.
        base: u64,
        /// Why every retained generation was rejected.
        reason: String,
    },
    /// An explicitly requested snapshot generation could not be loaded,
    /// does not bind to this journal, or failed to restore.
    Generation {
        /// The requested ring generation.
        generation: u32,
        /// Why it was unusable.
        reason: String,
    },
    /// The sidecar [`Farm::fork_from_snapshot`] forks could not be
    /// loaded, does not bind to the journal
    /// ([`SnapshotError::JournalAhead`], [`SnapshotError::JournalMismatch`]),
    /// or failed to restore.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Config(e) => write!(f, "invalid farm config: {e}"),
            JournalError::Read(e) => write!(f, "{e}"),
            JournalError::Io(e) => write!(f, "journal I/O failed: {e}"),
            JournalError::HeaderMismatch { expected, found } => write!(
                f,
                "journal belongs to a different run: expected header {expected}, found {found}"
            ),
            JournalError::Diverged {
                record,
                journal,
                replayed,
            } => write!(
                f,
                "replay diverged from journal at record {record}: journal has {journal}, \
                 replay produced {replayed}"
            ),
            JournalError::JournalAhead {
                journal_records,
                replayed,
            } => write!(
                f,
                "journal has {journal_records} committed records but the replay produced only \
                 {replayed}: the journal belongs to a longer run"
            ),
            JournalError::SegmentCorrupt { reason } => {
                write!(f, "journal segment metadata is unusable: {reason}")
            }
            JournalError::SegmentUnrecoverable { base, reason } => write!(
                f,
                "journal is a GC'd segment ({base} records truncated) and cannot be recovered: \
                 {reason}"
            ),
            JournalError::Generation { generation, reason } => {
                write!(f, "snapshot generation {generation} unusable: {reason}")
            }
            JournalError::Snapshot(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Config(e) => Some(e),
            JournalError::Read(e) => Some(e),
            JournalError::Io(e) => Some(e),
            JournalError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FarmConfigError> for JournalError {
    fn from(e: FarmConfigError) -> Self {
        JournalError::Config(e)
    }
}

impl From<SnapshotError> for JournalError {
    fn from(e: SnapshotError) -> Self {
        JournalError::Snapshot(e)
    }
}

impl From<JournalReadError> for JournalError {
    fn from(e: JournalReadError) -> Self {
        JournalError::Read(e)
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// The §4.2-guideline fsync cadence for this farm: group-commit every
/// `guideline_interval(c̄, λ̄)` virtual time units, with `c̄` the mean
/// workstation overhead and `λ̄ = 1 / mean(gap_mean)` the mean
/// owner-interruption rate (see the module docs for why this stands in
/// for the fault rate). Falls back to [`FsyncPolicy::EveryRecord`] when
/// the guideline has no finite answer (e.g. a zero-overhead farm, where
/// saving is free and the theory says save constantly).
pub fn guideline_fsync_policy(config: &FarmConfig) -> FsyncPolicy {
    let n = config.workstations.len();
    if n == 0 {
        return FsyncPolicy::EveryRecord;
    }
    let c_bar = config.workstations.iter().map(|w| w.c).sum::<f64>() / n as f64;
    let gap_bar = config.workstations.iter().map(|w| w.gap_mean).sum::<f64>() / n as f64;
    let lambda = 1.0 / gap_bar;
    match cs_saves::guideline_interval(c_bar, lambda) {
        Ok(dt) if dt.is_finite() && dt > 0.0 => FsyncPolicy::Interval(dt),
        _ => FsyncPolicy::EveryRecord,
    }
}

/// The priced cadence's constants (DESIGN, "Cadence"), calibrated once.
/// Prices are in snapshot bytes; they set only where snapshots fall,
/// never what a run computes. Replaying one journal record after a
/// restore costs as much as writing this many snapshot bytes:
const RECORD_PRICE: u64 = 2_700;
/// What a snapshot costs on top of its bytes: the journal fsync, the
/// sidecar's create, `fdatasync` and rename, and the GC rotation.
const SNAPSHOT_PRICE: u64 = 14_000;

impl FarmRun {
    /// What snapshotting this state costs, in snapshot bytes: the price
    /// [`SnapshotCadence::Priced`] weighs against the records since the
    /// last snapshot.
    fn snapshot_price(&self) -> u64 {
        SNAPSHOT_PRICE + self.snapshot_bytes_estimate()
    }
}

/// Checks regenerated events against the journal's committed records, one
/// record at a time. It is the sink of the read-only [`Farm::replay_to`];
/// [`JournalSink`] wraps it with the writer that takes over once every
/// committed record has matched.
struct Verifier {
    /// The journal's surviving records.
    records: Vec<String>,
    /// Index into `records` of the next record to match.
    next: usize,
    /// Records truncated by GC before `records[0]`.
    base: u64,
    /// First mismatch as (1-based record, journal line, replayed line),
    /// latched: the run cannot be stopped mid-flight, so the caller turns
    /// it into an error afterwards.
    diverged: Option<(u64, String, String)>,
}

impl Verifier {
    /// A verifier over `records` (which start at record `base`) that
    /// begins matching at record `from`: zero, or the record count a
    /// restored snapshot covers.
    fn new(records: Vec<String>, base: u64, from: u64) -> Self {
        Self {
            records,
            next: (from - base) as usize,
            base,
            diverged: None,
        }
    }

    /// Committed records accounted for so far: skipped by a snapshot,
    /// truncated by GC, or matched.
    fn position(&self) -> u64 {
        self.base + self.next as u64
    }

    /// Committed records in the journal, counting the GC'd prefix.
    fn total(&self) -> u64 {
        self.base + self.records.len() as u64
    }

    /// True once no committed record is left to match.
    fn exhausted(&self) -> bool {
        self.next >= self.records.len()
    }

    /// Matches `line` against the next committed record, latching the
    /// first mismatch. Returns whether it matched.
    fn check(&mut self, line: &str) -> bool {
        let expected = &self.records[self.next];
        if expected != line {
            self.diverged = Some((self.position() + 1, expected.clone(), line.to_owned()));
            return false;
        }
        self.next += 1;
        true
    }

    /// Ends verification: the latched mismatch is [`JournalError::Diverged`],
    /// a replay that stopped short of record `target` is
    /// [`JournalError::JournalAhead`]; otherwise the records accounted for.
    fn finish(&mut self, target: u64) -> Result<u64, JournalError> {
        if let Some((record, journal, replayed)) = self.diverged.take() {
            return Err(JournalError::Diverged {
                record,
                journal,
                replayed,
            });
        }
        let replayed = self.position();
        if replayed < target {
            return Err(JournalError::JournalAhead {
                journal_records: target,
                replayed,
            });
        }
        Ok(replayed)
    }
}

impl EventSink for Verifier {
    fn emit(&mut self, event: &Event<'static>) {
        if self.diverged.is_none() && !self.exhausted() {
            self.check(&event.to_jsonl());
        }
    }
}

/// The sink driving a journaled (or resuming) run: verifies replayed
/// events against the committed prefix, then appends; optionally pulls the
/// kill switch for the chaos harness.
struct JournalSink {
    /// The committed prefix (empty for a fresh run).
    verifier: Verifier,
    writer: JournalWriter,
    /// Running FNV-1a 64 over every committed record's bytes (line + `\n`),
    /// from the start of the journal; snapshots bind to it.
    hash: u64,
    kill_after: Option<u64>,
    /// Records / syncs written by writers retired across GC segment
    /// rotations (the live `writer` only counts its own).
    flushed_records: u64,
    flushed_syncs: u64,
}

impl JournalSink {
    fn new(verifier: Verifier, writer: JournalWriter, hash: u64, opts: &JournalOptions) -> Self {
        Self {
            verifier,
            writer,
            hash,
            kill_after: opts.kill_after,
            flushed_records: 0,
            flushed_syncs: 0,
        }
    }

    fn committed(&self) -> u64 {
        self.verifier.position() + self.flushed_records + self.writer.records()
    }
}

impl EventSink for JournalSink {
    fn emit(&mut self, event: &Event<'static>) {
        if self.verifier.diverged.is_some() {
            return;
        }
        let mut line = event.to_jsonl();
        let appending = self.verifier.exhausted();
        if !appending && !self.verifier.check(&line) {
            return;
        }
        line.push('\n');
        if appending {
            self.writer.emit_line(event, &line);
        }
        self.hash = fnv1a64(self.hash, line.as_bytes());
        if let Some(kill_at) = self.kill_after {
            if self.committed() >= kill_at {
                // Deterministic SIGKILL stand-in: make sure every committed
                // record is on stable storage, leave a genuine torn tail,
                // and die without unwinding.
                self.writer.flush_sink();
                self.writer.write_raw(b"{\"v\":2,\"t\":");
                die();
            }
        }
    }

    fn flush_sink(&mut self) {
        self.writer.flush_sink();
    }
}

/// The kill switch's last act: die without unwinding. This crate's unit
/// tests unwind with a [`tests::Killed`] panic instead, which leaves the
/// same files behind (the writer is synced and holds nothing), so one
/// test process can kill and resume many runs.
fn die() -> ! {
    #[cfg(test)]
    std::panic::panic_any(tests::Killed);
    #[cfg(not(test))]
    std::process::abort()
}

impl Farm {
    /// [`Farm::run`] with the event stream written as a durable
    /// write-ahead journal at `path` through `vfs`: fsync policy, snapshot
    /// cadence and ring, prefix GC, I/O-error policy and the chaos kill
    /// switch all come from `opts` ([`JournalOptions::guideline`] is the
    /// default: §4.2 fsync and priced snapshots). Pass [`StdVfs`] for the
    /// real filesystem; the disk-fault chaos harness injects
    /// [`cs_obs::FaultyVfs`]. The journal
    /// is strictly pass-through: the returned [`FarmReport`] is
    /// bit-identical to [`Farm::run`] for the same configuration. If the
    /// process dies mid-run, [`Farm::resume`] with the same `(config, bag)`
    /// finishes the episode.
    pub fn run_journaled(
        self,
        path: impl AsRef<Path>,
        opts: JournalOptions,
        vfs: &dyn Vfs,
    ) -> Result<(FarmReport, DurableStats), JournalError> {
        let path = path.as_ref();
        sweep_stale(vfs, path, true);
        let writer = JournalWriter::create(vfs, path, opts.fsync)?;
        let mut sink = JournalSink::new(Verifier::new(Vec::new(), 0, 0), writer, FNV_OFFSET, &opts);
        let mut ctx = DriveCtx::new(vfs, path, &opts);
        let mut prof = SpanProfiler::disabled();
        let run = FarmRun::start(self, &mut sink, &mut prof);
        ctx.mark_snapshot(&run, sink.committed());
        let report = drive(run, &mut sink, &mut prof, &mut ctx, opts.progress_every)?;
        let stats = finish_stats(sink, ctx)?;
        Ok((report, stats))
    }

    /// Resumes a journaled run that died mid-episode.
    ///
    /// `config` and `bag` must be exactly what the original
    /// [`Farm::run_journaled`] was given — the journal records the run's
    /// transitions, not its inputs, and recovery replays the seeded engine
    /// against the committed prefix (see the module docs). A torn final
    /// record is discarded; the journal is then extended in place, ending
    /// with the same bytes an uninterrupted journaled run would have
    /// written, and the returned [`FarmReport`] is bitwise identical to
    /// that run's. Resuming a journal that already holds a complete run
    /// verifies it end to end and appends nothing. `opts` sets the
    /// cadences for the rest of the run; its `kill_after` counts total
    /// committed records (skipped + replayed + appended), so a chaos run
    /// can kill the master again at a later boundary.
    ///
    /// Recovery walks the snapshot generation ring newest→oldest: the
    /// first sidecar that both binds to the surviving journal (record
    /// count + running FNV-1a hash, extended from the segment base when GC
    /// has truncated the prefix) and restores wins. A whole journal whose
    /// ring is entirely unusable falls back to full redo replay; a GC'd
    /// segment in the same situation is a typed
    /// [`JournalError::SegmentUnrecoverable`] — redo history is gone by
    /// design, and no answer beats a silently wrong one.
    ///
    /// Mismatched inputs surface as [`JournalError::HeaderMismatch`] (seed,
    /// workstation count or task count differ) or
    /// [`JournalError::Diverged`] / [`JournalError::JournalAhead`] (anything
    /// subtler).
    pub fn resume(
        config: FarmConfig,
        bag: cs_tasks::TaskBag,
        path: impl AsRef<Path>,
        opts: JournalOptions,
        vfs: &dyn Vfs,
    ) -> Result<(FarmReport, RecoveryInfo), JournalError> {
        let path = path.as_ref();
        sweep_stale(vfs, path, false);
        let rec = recover(config, bag, path, vfs, Start::Newest)?;
        if let Some(meta) = rec.repair {
            if meta.store(vfs, &segment_meta_path(path)).is_ok() {
                eprintln!(
                    "note: repaired stale segment metadata ({} records truncated)",
                    rec.base
                );
            }
        }
        let writer = JournalWriter::append_at(vfs, path, rec.journal.complete_bytes, opts.fsync)?;
        let mut ctx = DriveCtx::new(vfs, path, &opts);
        ctx.seg_base = rec.base;
        ctx.ring_meta = rec.ring_meta;
        ctx.unread = Some((rec.shape, rec.base_hash));
        ctx.next_gen = rec.newest.map_or(0, |g| (g + 1) % ctx.ring);
        let from = rec.verifier.position();
        let mut sink = JournalSink::new(rec.verifier, writer, rec.hash, &opts);
        let mut prof = SpanProfiler::disabled();
        let run = rec.origin.start(&mut sink, &mut prof);
        ctx.mark_snapshot(&run, sink.committed());
        let report = drive(run, &mut sink, &mut prof, &mut ctx, opts.progress_every)?;
        let total = sink.verifier.total();
        sink.verifier.finish(total)?;
        let stats = finish_stats(sink, ctx)?;
        Ok((
            report,
            RecoveryInfo {
                records_replayed: total - from,
                records_appended: stats.records,
                torn_bytes_discarded: rec.journal.torn_bytes,
                snapshot: rec.outcome,
                ring_on_disk: rec.ring_on_disk,
                segment_base: rec.base,
                degraded: stats.degraded,
            },
        ))
    }

    /// Time travel for post-mortems: reconstructs the master's state as of
    /// committed record `to` by verified replay, and summarizes it.
    /// `config` and `bag` must be the journaled run's inputs, exactly as
    /// for [`Farm::resume`]. The journal is only read, never written.
    ///
    /// Replay stops at the first event boundary at or past `to` — a single
    /// queue event can emit several records, and the engine's state is only
    /// meaningful between events. `to` is clamped to the journal's length.
    ///
    /// `generation` picks the starting point: `Some(g)` restores
    /// `<journal>.snap.<g>` and verifies only the tail after it, while
    /// `None` replays from record zero on a whole journal and auto-selects
    /// the oldest retained generation once GC has truncated the prefix.
    /// `to` is clamped up to the starting snapshot's record count — state
    /// earlier than a retained generation is only reachable while the
    /// un-GC'd prefix exists.
    pub fn replay_to(
        config: FarmConfig,
        bag: cs_tasks::TaskBag,
        path: impl AsRef<Path>,
        to: u64,
        generation: Option<u32>,
    ) -> Result<ReplayState, JournalError> {
        let start = generation.map_or(Start::Earliest, Start::Generation);
        let rec = recover(config, bag, path.as_ref(), &StdVfs, start)?;
        let mut sink = rec.verifier;
        let total = sink.total();
        let to = to.min(total).max(sink.position());
        let mut prof = SpanProfiler::disabled();
        let mut run = rec.origin.start(&mut sink, &mut prof);
        let mut live = true;
        while live && sink.position() < to {
            live = run.step(&mut sink, &mut prof);
        }
        // Summarize before `finish` consumes the run; the trailing
        // `run_end` record is only emitted by `finish`, so a replay to the
        // journal's end still needs it for verification.
        let state = ReplayState::of(&run, 0, total);
        if !live && sink.position() < to {
            run.finish(&mut sink, &mut prof);
        }
        Ok(ReplayState {
            records: sink.finish(to)?,
            ..state
        })
    }

    /// Time-travel forking: restores ring generation `generation` of the
    /// journal at `journal` under `config` — the original scenario, or one
    /// with a **perturbed** [`crate::FaultPlan`] — and plays the rest of the
    /// run to completion as a what-if. With the original configuration the
    /// returned report is bitwise identical to the run the snapshot was
    /// taken from; with a perturbed one it answers "how would the rest of
    /// this very run have gone under different faults?" from the exact
    /// captured state (bag, leases, RNG cursors and all).
    ///
    /// The sidecar must bind to the journal's surviving records, as a
    /// resume's must: one that claims records the journal does not hold is
    /// [`SnapshotError::JournalAhead`], one whose prefix hashes differently
    /// [`SnapshotError::JournalMismatch`]. The farm *shape* must match
    /// (workstation count, and the same believed life functions if reports
    /// are to be comparable); seed and fault plans are free to differ.
    /// Nothing is journaled.
    pub fn fork_from_snapshot(
        config: FarmConfig,
        journal: impl AsRef<Path>,
        generation: u32,
    ) -> Result<(FarmReport, SnapshotMeta), JournalError> {
        let path = journal.as_ref();
        let snap = FarmSnapshot::load_with(&StdVfs, &ring_snapshot_path(path, generation))?;
        let records = read_journal(&StdVfs, path)?.records;
        // The journal belongs to the run the sidecar describes, whatever
        // `config` says. Binding checks that, header included, so any
        // `run_start` first line marks a whole journal.
        let shape = Shape {
            seed: snap.seed,
            workstations: snap.workstations,
            tasks: snap.tasks,
        };
        let header = (records.first())
            .filter(|l| {
                Event::from_jsonl(l).is_ok_and(|e| matches!(e.kind, EventKind::RunStart { .. }))
            })
            .map_or_else(|| shape.header_line(), String::clone);
        let mut ring = Ring::scan(&StdVfs, path, shape);
        let (base, base_hash, _) = segment_base(&StdVfs, path, &records, header, &mut ring)?;
        if let Err((kind, _)) = bind(&snap, &records, base, base_hash) {
            let snapshot_records = snap.journal_records;
            return Err(JournalError::Snapshot(match kind {
                SnapshotErrorKind::JournalAhead => SnapshotError::JournalAhead {
                    snapshot_records,
                    journal_records: base + records.len() as u64,
                },
                _ => SnapshotError::JournalMismatch {
                    records: snapshot_records,
                },
            }));
        }
        let meta = snap.meta();
        let mut run = snap.restore(config)?;
        let mut sink = NoopSink;
        let mut prof = SpanProfiler::disabled();
        while run.step(&mut sink, &mut prof) {}
        Ok((run.finish(&mut sink, &mut prof), meta))
    }
}

/// A journaled run's master state reconstructed at a record boundary by
/// [`Farm::replay_to`]: "what did the farm look like when record N was
/// written?".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayState {
    /// Committed records reproduced (== the requested record, unless the
    /// covering event emitted a few more, or the request exceeded the
    /// journal).
    pub records: u64,
    /// Committed records in the journal.
    pub total_records: u64,
    /// Virtual time of the last handled event.
    pub virtual_time: f64,
    /// Tasks still waiting in the bag.
    pub pending_tasks: u64,
    /// Distinct tasks banked so far.
    pub banked_tasks: u64,
    /// Chunks dispatched and not yet accounted for.
    pub in_flight_chunks: u64,
    /// Task time banked across the farm so far.
    pub completed_work: f64,
    /// Task time destroyed so far.
    pub lost_work: f64,
    /// Episodes begun across all workstations.
    pub episodes: u64,
}

impl ReplayState {
    /// Summarizes `run` between two events: the one place the run's
    /// banked, pending, in-flight and lost counts are read, for replay and
    /// for the `RUN-PROGRESS` heartbeat alike.
    fn of(run: &FarmRun, records: u64, total_records: u64) -> Self {
        let stats = || run.states.iter().map(|st| &st.stats);
        ReplayState {
            records,
            total_records,
            virtual_time: run.now,
            pending_tasks: run.eng.bag.pending_count() as u64,
            banked_tasks: run.eng.banked.len() as u64,
            in_flight_chunks: run.eng.in_flight.len() as u64,
            completed_work: stats().map(|s| s.completed_work).sum(),
            lost_work: stats().map(|s| s.lost_work).sum(),
            episodes: stats().map(|s| s.episodes).sum(),
        }
    }
}

/// Emits `RUN-PROGRESS` heartbeat lines to stderr at a wall-clock cadence
/// while a journaled run is in flight. Strictly an observer of the run's
/// state between steps — the journal bytes and the [`FarmReport`] are
/// identical with heartbeats on or off.
struct Heartbeat {
    every: Option<f64>,
    last: std::time::Instant,
}

impl Heartbeat {
    fn tick(&mut self, run: &FarmRun, committed: u64) {
        let Some(every) = self.every else { return };
        if every > 0.0 && self.last.elapsed().as_secs_f64() < every {
            return;
        }
        self.last = std::time::Instant::now();
        let s = ReplayState::of(run, committed, committed);
        eprintln!(
            "RUN-PROGRESS {{\"t\":{},\"records\":{},\"banked_tasks\":{},\
             \"pending_tasks\":{},\"in_flight\":{},\"lost_work\":{}}}",
            s.virtual_time,
            s.records,
            s.banked_tasks,
            s.pending_tasks,
            s.in_flight_chunks,
            s.lost_work,
        );
    }
}

/// The mutable durability state threaded through [`drive`]: where the
/// snapshot ring stands, where the journal segment starts, and what the
/// disk has done to us so far.
struct DriveCtx<'v> {
    vfs: &'v dyn Vfs,
    path: PathBuf,
    fsync: FsyncPolicy,
    cadence: SnapshotCadence,
    /// Virtual time and committed record count of the last snapshot, or
    /// of where the run started.
    last_snapshot: f64,
    last_snapshot_records: u64,
    /// Ring size.
    ring: u32,
    /// Ring slot the next snapshot lands in.
    next_gen: u32,
    /// What is known of each ring slot.
    ring_meta: Vec<Slot>,
    /// How a resumed run loads and binds a [`Slot::Unread`]: the run's
    /// shape and the journal hash where its verifier's records start.
    unread: Option<(Shape, u64)>,
    gc: bool,
    on_io_error: IoErrorPolicy,
    /// Records truncated by GC before the journal file's first line.
    seg_base: u64,
    stats: DurableStats,
    /// An I/O failure detected outside the writer (GC rotation, reopen),
    /// waiting for the policy check.
    pending_error: Option<std::io::Error>,
}

impl<'v> DriveCtx<'v> {
    /// The context of a run journaling from record zero; resume then
    /// moves the segment base and ring to where it starts.
    fn new(vfs: &'v dyn Vfs, path: &Path, opts: &JournalOptions) -> Self {
        Self {
            vfs,
            path: path.to_path_buf(),
            fsync: opts.fsync,
            cadence: opts.snapshot_every,
            last_snapshot: 0.0,
            last_snapshot_records: 0,
            ring: opts.snapshot_ring.clamp(1, MAX_SNAPSHOT_RING),
            next_gen: 0,
            ring_meta: vec![Slot::Empty; MAX_SNAPSHOT_RING as usize],
            unread: None,
            gc: opts.gc,
            on_io_error: opts.on_io_error,
            seg_base: 0,
            stats: DurableStats::default(),
            pending_error: None,
        }
    }

    /// Starts both snapshot clocks at `run` with `committed` records: at
    /// each snapshot, and where a run or a resume begins. A fresh run
    /// thus never counts its setup records (`run_start` and one
    /// `episode_start` per workstation): replaying them costs next to
    /// nothing, so they buy no snapshot.
    fn mark_snapshot(&mut self, run: &FarmRun, committed: u64) {
        self.last_snapshot = run.now;
        self.last_snapshot_records = committed;
    }

    /// Whether the cadence wants a snapshot of `run` now, with `committed`
    /// records in the journal.
    fn snapshot_due(&self, run: &FarmRun, committed: u64) -> bool {
        match self.cadence {
            SnapshotCadence::Off => false,
            SnapshotCadence::Every(dt) => run.now - self.last_snapshot >= dt,
            SnapshotCadence::Priced => {
                (committed - self.last_snapshot_records) * RECORD_PRICE >= run.snapshot_price()
            }
        }
    }

    /// The one place the [`IoErrorPolicy`] is applied to a journal I/O
    /// failure: fail-stop returns it as a typed [`JournalError::Io`];
    /// degrade warns once (`fate` says how the run goes on), flags the run,
    /// stops snapshots and GC, and keeps computing.
    fn io_failed(&mut self, err: std::io::Error, fate: &str) -> Result<(), JournalError> {
        if self.on_io_error == IoErrorPolicy::FailStop {
            return Err(JournalError::Io(err));
        }
        if !self.stats.degraded {
            eprintln!("warning: journal I/O failed ({err}); {fate}");
            self.stats.degraded = true;
            self.cadence = SnapshotCadence::Off;
            self.gc = false;
        }
        Ok(())
    }
}

/// The journaled-run event loop: step the farm to completion, capturing a
/// state snapshot into the next ring slot whenever the [`SnapshotCadence`]
/// says one is due, GC'ing the journal prefix behind the ring when asked.
/// Snapshot writes are advisory — a failed write stops snapshotting but
/// never kills the run — while journal write failures go through the
/// [`IoErrorPolicy`].
fn drive(
    mut run: FarmRun,
    sink: &mut JournalSink,
    prof: &mut SpanProfiler,
    ctx: &mut DriveCtx<'_>,
    progress_every: Option<f64>,
) -> Result<FarmReport, JournalError> {
    let mut heartbeat = Heartbeat {
        every: progress_every,
        last: std::time::Instant::now(),
    };
    loop {
        check_io(sink, ctx)?;
        if ctx.snapshot_due(&run, sink.committed()) {
            snapshot(&run, sink, ctx);
        }
        heartbeat.tick(&run, sink.committed());
        if !run.step(sink, prof) {
            break;
        }
    }
    check_io(sink, ctx)?;
    Ok(run.finish(sink, prof))
}

/// Captures a state snapshot into the next ring slot, then GCs the
/// journal prefix behind the ring when asked. A failed write stops
/// snapshotting for the rest of the run.
fn snapshot(run: &FarmRun, sink: &mut JournalSink, ctx: &mut DriveCtx<'_>) {
    ctx.mark_snapshot(run, sink.committed());
    // The snapshot binds to the committed prefix: make it durable first so
    // the sidecar never describes records the journal does not hold — and
    // never snapshot over a disk that is already failing.
    sink.flush_sink();
    if sink.writer.io_error().is_some() || ctx.pending_error.is_some() {
        return;
    }
    let mut snap = run.save_state(sink.committed(), sink.hash);
    let gen = ctx.next_gen;
    let bytes = snap.encode();
    match write_atomic_bytes(ctx.vfs, &ring_snapshot_path(&ctx.path, gen), &bytes) {
        Ok(()) => {
            ctx.stats.snapshots_written += 1;
            ctx.stats.snapshot_bytes += bytes.len() as u64;
            ctx.ring_meta[gen as usize] = Slot::Bound(snap.journal_records, snap.journal_hash);
            ctx.next_gen = (gen + 1) % ctx.ring;
            if ctx.gc {
                gc_rotate(sink, ctx);
            }
        }
        Err(e) => {
            eprintln!(
                "warning: snapshot write failed ({e}); snapshots disabled for the rest of the \
                 run"
            );
            ctx.cadence = SnapshotCadence::Off;
        }
    }
}

/// Hands any latched writer (or GC rotation) failure to the I/O-error
/// policy at this event boundary.
fn check_io(sink: &mut JournalSink, ctx: &mut DriveCtx<'_>) -> Result<(), JournalError> {
    let latched = ctx.pending_error.take().or_else(|| {
        sink.writer.io_error()?;
        sink.writer.finish_parts().1
    });
    match latched {
        Some(err) => ctx.io_failed(
            err,
            "continuing degraded — in-memory only, no further journaling or snapshots",
        ),
        None => Ok(()),
    }
}

/// Folds the final writer stats into [`DurableStats`], handing anything
/// surfacing only at flush/close time to the I/O-error policy — errors
/// latched while heartbeats held the sink in line-buffered mode must not
/// be swallowed by a clean-looking exit.
fn finish_stats(
    mut sink: JournalSink,
    mut ctx: DriveCtx<'_>,
) -> Result<DurableStats, JournalError> {
    let (wstats, werr) = sink.writer.finish_parts();
    if let Some(e) = ctx.pending_error.take().or(werr) {
        ctx.io_failed(e, "run completed degraded — the journal tail is missing")?;
    }
    Ok(DurableStats {
        records: sink.flushed_records + wstats.records,
        syncs: sink.flushed_syncs + wstats.syncs,
        ..ctx.stats
    })
}

/// Journal-prefix GC: truncates the records the *oldest retained* ring
/// generation makes redundant, via an atomic segment rotation — suffix to
/// `<journal>.tmp`, fsync, rename over the journal, then store the `.seg`
/// metadata. Cutting exactly at the oldest retained generation keeps every
/// retained generation restorable from the surviving suffix, and a crash
/// between the two renames is recoverable by inferring the base from the
/// ring ([`infer_segment_base`]). GC failures are advisory: the journal is
/// left whole and the run carries on.
fn gc_rotate(sink: &mut JournalSink, ctx: &mut DriveCtx<'_>) {
    if ctx.ring < 2 || !sink.verifier.exhausted() {
        return; // never GC while replaying an unverified prefix
    }
    // The slot the next snapshot overwrites holds the oldest retained
    // generation; its record count is the cut. GC cuts only at a
    // generation fully decoded and bound, so one that recovery left
    // unread is decoded and bound now.
    let slot = ctx.next_gen as usize;
    if let (Slot::Unread, Some((shape, base_hash))) = (ctx.ring_meta[slot], ctx.unread) {
        ctx.ring_meta[slot] = late_bind(
            ctx.vfs,
            &ctx.path,
            ctx.next_gen,
            shape,
            &sink.verifier,
            base_hash,
        );
    }
    let Slot::Bound(cut_records, cut_hash) = ctx.ring_meta[slot] else {
        return; // ring not full yet, or the slot is unusable
    };
    if cut_records <= ctx.seg_base || cut_records > sink.committed() {
        return;
    }
    sink.flush_sink();
    if sink.writer.io_error().is_some() {
        return; // the policy check at the loop top deals with it
    }
    let bytes = match ctx.vfs.read(&ctx.path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("warning: journal GC skipped ({e})");
            return;
        }
    };
    let drop_lines = (cut_records - ctx.seg_base) as usize;
    let Some(offset) = byte_offset_of_line(&bytes, drop_lines) else {
        eprintln!("warning: journal GC skipped (journal shorter than the snapshot binding)");
        return;
    };
    let suffix = bytes[offset..].to_vec();
    // Retire the live writer before the rename: on POSIX it would keep
    // appending to the unlinked old inode.
    let (wstats, werr) = sink.writer.finish_parts();
    sink.flushed_records += wstats.records;
    sink.flushed_syncs += wstats.syncs;
    if let Some(e) = werr {
        ctx.pending_error = Some(e);
    }
    let reopen_len = match write_atomic_bytes(ctx.vfs, &ctx.path, &suffix) {
        Ok(()) => {
            let first = suffix
                .split(|&b| b == b'\n')
                .next()
                .filter(|l| !l.is_empty())
                .and_then(|l| std::str::from_utf8(l).ok());
            let meta = SegmentMeta::for_cut(cut_records, cut_hash, first);
            if let Err(e) = meta.store(ctx.vfs, &segment_meta_path(&ctx.path)) {
                eprintln!(
                    "warning: segment metadata write failed ({e}); a crash before the next GC \
                     will infer the base from the snapshot ring"
                );
            }
            ctx.stats.gc_truncated_records += cut_records - ctx.seg_base;
            ctx.stats.gc_truncated_bytes += offset as u64;
            ctx.seg_base = cut_records;
            suffix.len() as u64
        }
        Err(e) => {
            eprintln!("warning: journal GC rotation failed ({e}); journal left whole");
            bytes.len() as u64
        }
    };
    match JournalWriter::append_at(ctx.vfs, &ctx.path, reopen_len, ctx.fsync) {
        Ok(w) => sink.writer = w,
        Err(e) => {
            // The retired writer stays in place (it swallows further
            // emits); the policy check decides fail-stop vs degrade.
            if ctx.pending_error.is_none() {
                ctx.pending_error = Some(e);
            }
        }
    }
}

/// Byte offset of the start of 0-based line `n`, or `None` if `bytes`
/// holds fewer than `n` complete lines.
fn byte_offset_of_line(bytes: &[u8], n: usize) -> Option<usize> {
    let mut offset = 0usize;
    for _ in 0..n {
        let nl = bytes[offset..].iter().position(|&b| b == b'\n')?;
        offset += nl + 1;
    }
    Some(offset)
}

/// Sweeps stale `*.tmp` files left by a crash mid-snapshot or mid-GC
/// (with a stderr note); a fresh run additionally clears sidecars from
/// any previous incarnation of this journal path, so resume never sees
/// another run's ring.
fn sweep_stale(vfs: &dyn Vfs, path: &Path, fresh: bool) {
    let seg = segment_meta_path(path);
    let mut tmps = vec![tmp_path(path), tmp_path(&seg)];
    let mut sidecars = vec![seg];
    for g in 0..MAX_SNAPSHOT_RING {
        let p = ring_snapshot_path(path, g);
        tmps.push(tmp_path(&p));
        sidecars.push(p);
    }
    for p in tmps {
        if vfs.exists(&p) && vfs.remove(&p).is_ok() {
            eprintln!("note: removed stale temp file {}", p.display());
        }
    }
    if fresh {
        for p in sidecars {
            if vfs.exists(&p) {
                let _ = vfs.remove(&p);
            }
        }
    }
}

/// The run a journal and its sidecars belong to: seed, workstation count
/// and task count, as its `run_start` header and every sidecar's `meta`
/// line record them.
#[derive(Debug, Clone, Copy)]
struct Shape {
    seed: u64,
    workstations: u64,
    tasks: u64,
}

impl Shape {
    fn of(farm: &Farm) -> Self {
        Shape {
            seed: farm.config.seed,
            workstations: farm.config.workstations.len() as u64,
            tasks: farm.bag.pending_count() as u64,
        }
    }

    /// The `run_start` record this run writes as its first journal line.
    fn header_line(self) -> String {
        Event {
            time: 0.0,
            kind: EventKind::RunStart {
                seed: self.seed,
                workstations: self.workstations,
                tasks: self.tasks,
            },
        }
        .to_jsonl()
    }
}

/// Where the journal file starts in the run's record stream: the records
/// GC truncated before its first line, the running hash over them, and
/// whether they had to be inferred from the ring. A whole journal (no, or
/// ignorable, `.seg` metadata) must open with `header`. A GC'd segment
/// takes its base from the metadata unless that is stale — a crash
/// between the journal rotation and the metadata store, detected by
/// hashing the journal's actual first line against the recorded one.
fn segment_base(
    vfs: &dyn Vfs,
    path: &Path,
    records: &[String],
    header: String,
    ring: &mut Ring<'_>,
) -> Result<(u64, u64, bool), JournalError> {
    let seg_path = segment_meta_path(path);
    let first = records.first().map(String::as_str);
    let whole = first == Some(header.as_str());
    let stale = vfs.exists(&seg_path)
        && match SegmentMeta::load(vfs, &seg_path) {
            Ok(meta) if meta.matches_first(first) => {
                return Ok((meta.base_records, meta.base_hash, false));
            }
            Ok(_) if whole => {
                // The journal was rewritten from scratch after the metadata
                // was stored (GC rotation that never renamed).
                eprintln!(
                    "warning: ignoring stale segment metadata (journal starts at its header)"
                );
                false
            }
            // A corrupt sidecar next to a whole journal is ignorable noise;
            // next to a headerless segment the base is unknown.
            Err(e) if whole || first.is_none() => {
                eprintln!("warning: ignoring corrupt segment metadata ({e})");
                false
            }
            _ => true,
        };
    if stale {
        let (base, hash) =
            infer_segment_base(ring, records).ok_or_else(|| JournalError::SegmentCorrupt {
                reason: "segment metadata is stale and no retained snapshot generation binds \
                         to the surviving journal"
                    .into(),
            })?;
        return Ok((base, hash, true));
    }
    match first {
        Some(found) if found != header => Err(JournalError::HeaderMismatch {
            expected: header,
            found: found.into(),
        }),
        _ => Ok((0, FNV_OFFSET, false)),
    }
}

/// Where verified replay starts. [`recover`] takes it from its caller.
#[derive(Clone, Copy)]
enum Start {
    /// The newest sidecar that binds and restores, else record zero on a
    /// whole journal: [`Farm::resume`].
    Newest,
    /// One named ring generation: [`Farm::replay_to`] with a generation.
    Generation(u32),
    /// Record zero on a whole journal, else the oldest generation that
    /// binds: [`Farm::replay_to`] without one.
    Earliest,
}

/// The engine where verified replay begins.
enum Origin {
    /// Record zero: the farm still has to start.
    Zero(Farm),
    /// A run restored from a snapshot.
    Restored(Box<FarmRun>),
}

impl Origin {
    /// The run, paused where replay begins; from record zero, its setup
    /// records go to `sink` first.
    fn start(self, sink: &mut dyn EventSink, prof: &mut SpanProfiler) -> FarmRun {
        match self {
            Origin::Zero(farm) => FarmRun::start(farm, sink, prof),
            Origin::Restored(run) => *run,
        }
    }
}

/// What a resumed run knows of one ring slot, for the GC cut at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// No usable generation: none on disk, or one that failed to load,
    /// farm-check or bind.
    Empty,
    /// A generation fully decoded and bound at `(records, hash)`.
    Bound(u64, u64),
    /// A sidecar recovery did not need to decode. The first GC that cuts
    /// here decodes and binds it ([`late_bind`]).
    Unread,
}

/// What [`recover`] found on disk, and where verified replay begins.
struct Recovery {
    /// The journal's byte counts (its records are in `verifier`).
    journal: JournalContents,
    /// Records truncated by GC before the journal's first line.
    base: u64,
    /// The running journal hash at `base`.
    base_hash: u64,
    /// Fresh `.seg` metadata when the stored one was stale and `base` was
    /// inferred from the ring; resume stores it.
    repair: Option<SegmentMeta>,
    /// The run the journal belongs to.
    shape: Shape,
    /// What is known of each ring slot, and the newest slot whose sidecar
    /// binds: where the resumed ring picks up.
    ring_meta: Vec<Slot>,
    newest: Option<u32>,
    /// Bit `g` set when `<journal>.snap.<g>` was on disk.
    ring_on_disk: u64,
    outcome: SnapshotOutcome,
    /// The running journal hash where replay begins.
    hash: u64,
    /// The surviving records, positioned where replay begins.
    verifier: Verifier,
    origin: Origin,
}

/// The recovery front end of [`Farm::resume`] and [`Farm::replay_to`]. It
/// reads the journal, resolves where its segment starts (whole, from the
/// `.seg` metadata, or inferred from the ring), and picks the start:
/// [`Start::Newest`] decodes, binds and restores the ring's sidecars
/// newest first and stops at the first that restores, the other starts
/// decode every sidecar they weigh. It only reads: cutting the torn tail
/// and repairing stale `.seg` metadata are resume's.
fn recover(
    config: FarmConfig,
    bag: cs_tasks::TaskBag,
    path: &Path,
    vfs: &dyn Vfs,
    start: Start,
) -> Result<Recovery, JournalError> {
    let restore_config = config.clone();
    let farm = Farm::new(config, bag)?;
    let shape = Shape::of(&farm);
    let mut journal = read_journal(vfs, path)?;
    let records = std::mem::take(&mut journal.records);
    let mut ring = Ring::scan(vfs, path, shape);
    let (base, base_hash, inferred) =
        segment_base(vfs, path, &records, shape.header_line(), &mut ring)?;
    let repair = inferred
        .then(|| SegmentMeta::for_cut(base, base_hash, records.first().map(String::as_str)));
    let restore = |snap: FarmSnapshot, generation| {
        let (records, hash) = (snap.journal_records, snap.journal_hash);
        Ok::<_, SnapshotError>((
            snap.restore(restore_config.clone())?,
            records,
            hash,
            generation,
        ))
    };
    let ring_on_disk = ring.slots.iter().fold(0, |m, s| m | 1 << s.generation);
    let mut ring_meta = vec![Slot::Empty; MAX_SNAPSHOT_RING as usize];
    let (mut newest, mut reject) = (None, None);
    let restored = match start {
        Start::Generation(g) => {
            let unusable = |reason| JournalError::Generation {
                generation: g,
                reason,
            };
            // A generation the scan did not find still reports the
            // loader's own error.
            let snap = match ring.slots.iter().position(|s| s.generation == g) {
                Some(i) => ring.take(i),
                None => load_snapshot(vfs, &ring_snapshot_path(path, g), shape),
            }
            .map_err(|e| unusable(e.to_string()))?;
            bind(&snap, &records, base, base_hash).map_err(|(_, reason)| unusable(reason))?;
            Some(restore(snap, g).map_err(|e| unusable(e.to_string()))?)
        }
        Start::Earliest if base > 0 => {
            let unrecoverable = |reason| JournalError::SegmentUnrecoverable { base, reason };
            let (snap, g) = (0..ring.slots.len())
                .filter_map(|i| {
                    let g = ring.slots[i].generation;
                    Some((ring.take(i).ok()?, g))
                })
                .filter(|(s, _)| bind(s, &records, base, base_hash).is_ok())
                .min_by_key(|(s, _)| s.journal_records)
                .ok_or_else(|| {
                    unrecoverable(
                        "no retained snapshot generation binds to the surviving journal".into(),
                    )
                })?;
            Some(restore(snap, g).map_err(|e| unrecoverable(e.to_string()))?)
        }
        Start::Earliest => None,
        Start::Newest => {
            // Newest first: by the record count each header claims (a
            // sidecar that decodes claims exactly what it decodes to), then
            // by generation. The first that loads, binds and restores wins;
            // the rest stay unread unless a GC cut needs one.
            let mut order: Vec<(Option<u64>, u32, usize)> = (ring.slots.iter().enumerate())
                .map(|(i, s)| (s.claim, s.generation, i))
                .collect();
            order.sort_unstable_by(|a, b| b.cmp(a));
            // Why the tried sidecars failed: the highest generation's load
            // and bind failures, and the last restore failure.
            let (mut load_fail, mut bind_fail) = (None, None);
            let (mut restored, mut tried) = (None, 0);
            for &(_, g, i) in &order {
                tried += 1;
                let snap = match ring.take(i) {
                    Ok(snap) => snap,
                    Err(e) => {
                        load_fail = load_fail.max(Some((g, e.kind())));
                        continue;
                    }
                };
                if let Err((kind, _)) = bind(&snap, &records, base, base_hash) {
                    bind_fail = bind_fail.max(Some((g, kind)));
                    continue;
                }
                ring_meta[g as usize] = Slot::Bound(snap.journal_records, snap.journal_hash);
                newest.get_or_insert(g);
                match restore(snap, g) {
                    Ok(r) => {
                        restored = Some(r);
                        break;
                    }
                    Err(e) => reject = Some(e.kind()),
                }
            }
            for &(_, g, _) in &order[tried..] {
                ring_meta[g as usize] = Slot::Unread;
            }
            reject = reject.or(bind_fail.or(load_fail).map(|(_, kind)| kind));
            if restored.is_none() && base > 0 {
                let reason = match reject {
                    Some(kind) => {
                        format!("every retained snapshot generation was rejected (last: {kind})")
                    }
                    None => "no snapshot generation survives".into(),
                };
                return Err(JournalError::SegmentUnrecoverable { base, reason });
            }
            restored
        }
    };
    let outcome = match &restored {
        Some((_, from, _, g)) => SnapshotOutcome::Used {
            records_skipped: *from,
            generation: *g,
        },
        None => reject.map_or(SnapshotOutcome::None, SnapshotOutcome::Fallback),
    };
    let (origin, from, hash) = match restored {
        Some((run, from, hash, _)) => (Origin::Restored(Box::new(run)), from, hash),
        None => (Origin::Zero(farm), 0, FNV_OFFSET),
    };
    Ok(Recovery {
        journal,
        base,
        base_hash,
        repair,
        shape,
        ring_meta,
        newest,
        ring_on_disk,
        outcome,
        hash,
        verifier: Verifier::new(records, base, from),
        origin,
    })
}

/// A snapshot sidecar found next to the journal.
struct Candidate {
    /// Ring generation.
    generation: u32,
    /// The `journal records` count its header claims, read without
    /// decoding the sidecar; `None` when the header does not parse.
    claim: Option<u64>,
    /// The sidecar, loaded and checked against the run, once something
    /// needed it and until [`Ring::take`] takes it.
    snap: Option<Result<FarmSnapshot, SnapshotError>>,
}

/// The snapshot sidecars next to a journal — ring generations
/// `.snap.0..` — each read whole and decoded only when recovery needs it.
struct Ring<'v> {
    vfs: &'v dyn Vfs,
    path: &'v Path,
    shape: Shape,
    /// The generations on disk, ascending.
    slots: Vec<Candidate>,
}

/// Bytes at the start of a sidecar that hold its `meta` and `journal`
/// lines (at most about 200 bytes).
const HEAD_BYTES: usize = 256;

impl<'v> Ring<'v> {
    /// Finds the sidecars on disk and reads the record count each header
    /// claims.
    fn scan(vfs: &'v dyn Vfs, path: &'v Path, shape: Shape) -> Self {
        let slots = (0..MAX_SNAPSHOT_RING)
            .map(|g| (ring_snapshot_path(path, g), g))
            .filter(|(p, _)| vfs.exists(p))
            .map(|(p, generation)| Candidate {
                generation,
                claim: vfs
                    .read_head(&p, HEAD_BYTES)
                    .ok()
                    .and_then(|head| FarmSnapshot::claimed_records(&head)),
                snap: None,
            })
            .collect();
        Ring {
            vfs,
            path,
            shape,
            slots,
        }
    }

    /// Slot `i`'s sidecar, loaded and farm-checked; moved out of the ring.
    fn take(&mut self, i: usize) -> Result<FarmSnapshot, SnapshotError> {
        let slot = &mut self.slots[i];
        slot.snap.take().unwrap_or_else(|| {
            load_snapshot(
                self.vfs,
                &ring_snapshot_path(self.path, slot.generation),
                self.shape,
            )
        })
    }

    /// Every sidecar that loads and farm-checks.
    fn load_all(&mut self) -> impl Iterator<Item = &FarmSnapshot> {
        for slot in &mut self.slots {
            if slot.snap.is_none() {
                let p = ring_snapshot_path(self.path, slot.generation);
                slot.snap = Some(load_snapshot(self.vfs, &p, self.shape));
            }
        }
        self.slots
            .iter()
            .filter_map(|s| s.snap.as_ref()?.as_ref().ok())
    }
}

/// Loads a sidecar and verifies it describes this run (seed, workstation
/// count, task count). Journal binding happens later, against the
/// segment base.
fn load_snapshot(
    vfs: &dyn Vfs,
    snap_path: &Path,
    shape: Shape,
) -> Result<FarmSnapshot, SnapshotError> {
    let snap = FarmSnapshot::load_with(vfs, snap_path)?;
    let Shape {
        seed,
        workstations: ws,
        tasks,
    } = shape;
    if snap.seed != seed || snap.workstations != ws || snap.tasks != tasks {
        return Err(SnapshotError::FarmMismatch {
            reason: format!(
                "snapshot is for seed {} / {} workstations / {} tasks; resume was given seed \
                 {seed} / {ws} / {tasks}",
                snap.seed, snap.workstations, snap.tasks
            ),
        });
    }
    Ok(snap)
}

/// Loads and binds generation `g`, which recovery left [`Slot::Unread`],
/// against the records `verifier` holds, which start with journal hash
/// `base_hash`: the same test recovery makes.
fn late_bind(
    vfs: &dyn Vfs,
    path: &Path,
    g: u32,
    shape: Shape,
    verifier: &Verifier,
    base_hash: u64,
) -> Slot {
    match load_snapshot(vfs, &ring_snapshot_path(path, g), shape) {
        Ok(s) if bind(&s, &verifier.records, verifier.base, base_hash).is_ok() => {
            Slot::Bound(s.journal_records, s.journal_hash)
        }
        _ => Slot::Empty,
    }
}

/// Binds a snapshot to the surviving journal `records`, which start at
/// record `base` with running hash `base_hash`: its record count must lie
/// inside the segment, and the hash extended to it must match. A failure
/// comes with its [`SnapshotErrorKind`] and a reason.
fn bind(
    snap: &FarmSnapshot,
    records: &[String],
    base: u64,
    base_hash: u64,
) -> Result<(), (SnapshotErrorKind, String)> {
    let (r, total) = (snap.journal_records, base + records.len() as u64);
    let outside = |kind| {
        let reason = format!(
            "snapshot at record {r} does not lie inside the journal segment ({base}..{total})"
        );
        Err((kind, reason))
    };
    if r < base {
        return outside(SnapshotErrorKind::JournalMismatch);
    }
    if r > total {
        return outside(SnapshotErrorKind::JournalAhead);
    }
    if extend_hash(base_hash, &records[..(r - base) as usize]) != snap.journal_hash {
        let reason = format!("snapshot does not bind to the journal at record {r}");
        return Err((SnapshotErrorKind::JournalMismatch, reason));
    }
    Ok(())
}

/// Extends a running FNV-1a 64 journal hash over `records` (line + `\n`
/// each), exactly as [`JournalSink::emit`] does.
fn extend_hash(mut hash: u64, records: &[String]) -> u64 {
    for line in records {
        hash = fnv1a64(hash, line.as_bytes());
        hash = fnv1a64(hash, b"\n");
    }
    hash
}

/// Infers a stale segment's base from the snapshot ring: the oldest
/// loaded generation must sit exactly at the segment start (GC always
/// cuts there), and every other one must bind from it. Any inconsistency
/// returns `None` — the caller fails typed rather than guessing.
fn infer_segment_base(ring: &mut Ring<'_>, records: &[String]) -> Option<(u64, u64)> {
    let oldest = ring.load_all().min_by_key(|s| s.journal_records)?;
    let (base, hash) = (oldest.journal_records, oldest.journal_hash);
    ring.load_all()
        .all(|s| bind(s, records, base, hash).is_ok())
        .then_some((base, hash))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::farm::{PolicySpec, WorkstationConfig};
    use crate::faults::FaultPlan;
    use cs_life::{ArcLife, Uniform};
    use cs_obs::NoopSink;
    use cs_tasks::workloads;
    use std::sync::Arc;

    /// The panic payload [`die`] unwinds with under test.
    pub(crate) struct Killed;

    pub(super) fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "cs_now_journal_{name}_{}.jsonl",
            std::process::id()
        ))
    }

    /// A small faulty farm exercising loss, stragglers, requeues and
    /// end-game replication — the full journal vocabulary.
    pub(super) fn faulty_config(seed: u64) -> FarmConfig {
        let life: ArcLife = Arc::new(Uniform::new(200.0).unwrap());
        let ws = |faults: FaultPlan| WorkstationConfig {
            life: life.clone(),
            believed: life.clone(),
            c: 2.0,
            policy: PolicySpec::FixedSize(20.0),
            gap_mean: 5.0,
            faults,
        };
        let mut lossy = FaultPlan::none();
        lossy.loss_prob = 0.4;
        lossy.slowdown = 1.5;
        let mut config = FarmConfig::new(
            vec![ws(lossy), ws(FaultPlan::none()), ws(FaultPlan::none())],
            1e6,
            seed,
        );
        config.storms = vec![100.0, 250.0];
        config
    }

    pub(super) fn bag() -> cs_tasks::TaskBag {
        workloads::uniform(120, 1.0).unwrap()
    }

    pub(crate) fn assert_reports_bitwise_equal(a: &FarmReport, b: &FarmReport) {
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.completed_work.to_bits(), b.completed_work.to_bits());
        assert_eq!(a.lost_work.to_bits(), b.lost_work.to_bits());
        assert_eq!(a.remaining_work.to_bits(), b.remaining_work.to_bits());
        assert_eq!(a.drained, b.drained);
        assert_eq!(a.robustness, b.robustness);
        assert_eq!(a.per_workstation.len(), b.per_workstation.len());
        for (x, y) in a.per_workstation.iter().zip(&b.per_workstation) {
            assert_eq!(x.completed_work.to_bits(), y.completed_work.to_bits());
            assert_eq!(x.lost_work.to_bits(), y.lost_work.to_bits());
            assert_eq!(x.chunks_completed, y.chunks_completed);
            assert_eq!(x.episodes, y.episodes);
            assert_eq!(x.lease_timeouts, y.lease_timeouts);
            assert_eq!(x.duplicate_work.to_bits(), y.duplicate_work.to_bits());
        }
    }

    #[test]
    fn journaled_run_is_passthrough_and_matches_observed_trace() {
        let path = tmp("passthrough");
        let plain = Farm::new(faulty_config(13), bag())
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        let (journaled, stats) = Farm::new(faulty_config(13), bag())
            .unwrap()
            .run_journaled(
                &path,
                JournalOptions::guideline(&faulty_config(13)),
                &StdVfs,
            )
            .unwrap();
        assert_reports_bitwise_equal(&plain, &journaled);
        assert!(stats.records > 0 && stats.syncs > 0, "{stats:?}");

        // The journal is byte-for-byte the traced `Farm::run` stream.
        let mut mem = cs_obs::MemorySink::new();
        Farm::new(faulty_config(13), bag())
            .unwrap()
            .run(&mut mem, &mut SpanProfiler::disabled());
        let expected: String = mem.events.iter().map(|e| e.to_jsonl() + "\n").collect();
        let actual = std::fs::read_to_string(&path).unwrap();
        assert_eq!(actual, expected);

        // And it reads back clean and passes the invariant gate.
        let j = read_journal(&StdVfs, &path).unwrap();
        assert!(!j.is_torn());
        assert_eq!(j.records.len() as u64, stats.records);
        let check = cs_obs::check_text(&actual, true);
        assert!(check.ok(), "{:?}", check.violations);
        std::fs::remove_file(ring_snapshot_path(&path, 0)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_from_torn_prefix_is_bitwise_identical() {
        let ref_path = tmp("resume_ref");
        let (full_report, _) = Farm::new(faulty_config(29), bag())
            .unwrap()
            .run_journaled(
                &ref_path,
                JournalOptions::guideline(&faulty_config(29)),
                &StdVfs,
            )
            .unwrap();
        let full_bytes = std::fs::read(&ref_path).unwrap();
        let records: Vec<&[u8]> = full_bytes.split_inclusive(|&b| b == b'\n').collect();
        assert!(records.len() > 20, "want a non-trivial journal");

        for kill_at in [1, records.len() / 3, records.len() / 2, records.len() - 1] {
            let path = tmp(&format!("resume_{kill_at}"));
            // Crash the master after `kill_at` records, mid-write of the
            // next one.
            let mut torn: Vec<u8> = records[..kill_at].concat();
            torn.extend_from_slice(b"{\"v\":2,\"t\":9");
            std::fs::write(&path, &torn).unwrap();

            let (resumed, info) = Farm::resume(
                faulty_config(29),
                bag(),
                &path,
                JournalOptions::guideline(&faulty_config(29)),
                &StdVfs,
            )
            .unwrap();
            assert_reports_bitwise_equal(&full_report, &resumed);
            // No sidecar next to this journal: recovery is full redo.
            assert_eq!(info.snapshot, SnapshotOutcome::None);
            assert_eq!(info.records_replayed, kill_at as u64);
            assert!(info.records_appended > 0);
            assert!(info.torn_bytes_discarded > 0);
            // The stitched journal is byte-identical to the uninterrupted
            // one.
            assert_eq!(std::fs::read(&path).unwrap(), full_bytes);
            std::fs::remove_file(ring_snapshot_path(&path, 0)).ok();
            std::fs::remove_file(&path).ok();
        }
        std::fs::remove_file(ring_snapshot_path(&ref_path, 0)).ok();
        std::fs::remove_file(&ref_path).ok();
    }

    #[test]
    fn resume_of_a_complete_journal_verifies_and_appends_nothing() {
        let path = tmp("complete");
        let (report, stats) = Farm::new(faulty_config(7), bag())
            .unwrap()
            .run_journaled(&path, JournalOptions::guideline(&faulty_config(7)), &StdVfs)
            .unwrap();
        let (resumed, info) = Farm::resume(
            faulty_config(7),
            bag(),
            &path,
            JournalOptions::guideline(&faulty_config(7)),
            &StdVfs,
        )
        .unwrap();
        assert_reports_bitwise_equal(&report, &resumed);
        // With the sidecar the run left behind, resume skips its prefix;
        // either way every committed record is accounted for and nothing
        // new is written.
        let skipped = match info.snapshot {
            SnapshotOutcome::Used {
                records_skipped, ..
            } => records_skipped,
            SnapshotOutcome::None => 0,
            other => panic!("unexpected snapshot outcome {other:?}"),
        };
        assert_eq!(skipped + info.records_replayed, stats.records);
        assert_eq!(info.records_appended, 0);
        assert_eq!(info.torn_bytes_discarded, 0);
        std::fs::remove_file(ring_snapshot_path(&path, 0)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn progress_heartbeats_leave_journal_and_report_bit_identical() {
        let quiet = tmp("hb_quiet");
        let (base, _) = Farm::new(faulty_config(11), bag())
            .unwrap()
            .run_journaled(
                &quiet,
                JournalOptions::guideline(&faulty_config(11)),
                &StdVfs,
            )
            .unwrap();
        let noisy = tmp("hb_noisy");
        // `Some(0.0)` emits a heartbeat before every step — the loudest
        // possible setting; the journal bytes and report must not notice.
        let opts = JournalOptions {
            progress_every: Some(0.0),
            ..JournalOptions::guideline(&faulty_config(11))
        };
        let (report, _) = Farm::new(faulty_config(11), bag())
            .unwrap()
            .run_journaled(&noisy, opts, &StdVfs)
            .unwrap();
        assert_reports_bitwise_equal(&base, &report);
        assert_eq!(
            std::fs::read(&quiet).unwrap(),
            std::fs::read(&noisy).unwrap()
        );
        for p in [&quiet, &noisy] {
            std::fs::remove_file(ring_snapshot_path(p, 0)).ok();
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn resume_rejects_a_foreign_journal() {
        let path = tmp("foreign");
        Farm::new(faulty_config(1), bag())
            .unwrap()
            .run_journaled(&path, JournalOptions::guideline(&faulty_config(1)), &StdVfs)
            .unwrap();
        // Wrong seed → different run_start → header mismatch.
        match Farm::resume(
            faulty_config(2),
            bag(),
            &path,
            JournalOptions::guideline(&faulty_config(2)),
            &StdVfs,
        ) {
            Err(JournalError::HeaderMismatch { expected, found }) => {
                assert_ne!(expected, found);
            }
            other => panic!("expected HeaderMismatch, got {other:?}"),
        }
        // Same header but a doctored interior record → divergence.
        let text = std::fs::read_to_string(&path).unwrap();
        let doctored = text.replacen("\"duplicate\":0}", "\"duplicate\":0.125}", 1);
        assert_ne!(text, doctored, "fixture must contain a bank record");
        std::fs::write(&path, doctored).unwrap();
        match Farm::resume(
            faulty_config(1),
            bag(),
            &path,
            JournalOptions::guideline(&faulty_config(1)),
            &StdVfs,
        ) {
            Err(JournalError::Diverged { record, .. }) => assert!(record > 1),
            other => panic!("expected Diverged, got {other:?}"),
        }
        std::fs::remove_file(ring_snapshot_path(&path, 0)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_a_journal_from_a_longer_run() {
        let path = tmp("ahead");
        Farm::new(faulty_config(5), bag())
            .unwrap()
            .run_journaled(&path, JournalOptions::guideline(&faulty_config(5)), &StdVfs)
            .unwrap();
        // A journal strictly longer than what replay regenerates: append a
        // copy of the final run_end record.
        let text = std::fs::read_to_string(&path).unwrap();
        let last = text.lines().last().unwrap().to_string();
        std::fs::write(&path, format!("{text}{last}\n")).unwrap();
        match Farm::resume(
            faulty_config(5),
            bag(),
            &path,
            JournalOptions::guideline(&faulty_config(5)),
            &StdVfs,
        ) {
            Err(JournalError::JournalAhead {
                journal_records,
                replayed,
            }) => assert_eq!(journal_records, replayed + 1),
            other => panic!("expected JournalAhead, got {other:?}"),
        }
        std::fs::remove_file(ring_snapshot_path(&path, 0)).ok();
        std::fs::remove_file(&path).ok();
    }

    /// Sets up the snapshot-resume fixture: a full journaled run with an
    /// aggressive snapshot cadence, its bytes, and the sidecar's bound
    /// record count. The journal is then truncated to `kill_at` records.
    fn snapshot_fixture(name: &str, seed: u64) -> (std::path::PathBuf, Vec<u8>, FarmReport, u64) {
        let path = tmp(name);
        let opts = JournalOptions {
            fsync: guideline_fsync_policy(&faulty_config(seed)),
            snapshot_every: SnapshotCadence::Every(2.0),
            ..Default::default()
        };
        let (report, _) = Farm::new(faulty_config(seed), bag())
            .unwrap()
            .run_journaled(&path, opts, &StdVfs)
            .unwrap();
        let full = std::fs::read(&path).unwrap();
        let meta = crate::snapshot::inspect_snapshot(ring_snapshot_path(&path, 0)).unwrap();
        assert!(meta.journal_records > 0, "fixture needs a real snapshot");
        (path, full, report, meta.journal_records)
    }

    pub(super) fn truncate_to(path: &std::path::Path, full: &[u8], records: usize) {
        let offsets: Vec<usize> = full
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
            .collect();
        std::fs::write(path, &full[..offsets[records - 1]]).unwrap();
    }

    #[test]
    fn snapshot_resume_skips_the_prefix_and_stitches_exactly() {
        let (path, full, report, snap_records) = snapshot_fixture("snap_skip", 31);
        let n = full.iter().filter(|&&b| b == b'\n').count();
        assert!(snap_records < n as u64);
        // Kill after the snapshot point: the sidecar applies.
        let kill_at = n - 1;
        truncate_to(&path, &full, kill_at);
        let (resumed, info) = Farm::resume(
            faulty_config(31),
            bag(),
            &path,
            JournalOptions::guideline(&faulty_config(31)),
            &StdVfs,
        )
        .unwrap();
        assert_reports_bitwise_equal(&report, &resumed);
        assert_eq!(
            info.snapshot,
            SnapshotOutcome::Used {
                records_skipped: snap_records,
                generation: 0,
            }
        );
        assert_eq!(info.records_replayed, kill_at as u64 - snap_records);
        assert!(info.records_appended > 0);
        assert_eq!(std::fs::read(&path).unwrap(), full);
        std::fs::remove_file(ring_snapshot_path(&path, 0)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_full_redo() {
        let (path, full, report, _) = snapshot_fixture("snap_corrupt", 37);
        let n = full.iter().filter(|&&b| b == b'\n').count();
        truncate_to(&path, &full, n - 1);
        // Flip one byte in the sidecar body.
        let snap_path = ring_snapshot_path(&path, 0);
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&snap_path, &bytes).unwrap();

        let (resumed, info) = Farm::resume(
            faulty_config(37),
            bag(),
            &path,
            JournalOptions::guideline(&faulty_config(37)),
            &StdVfs,
        )
        .unwrap();
        assert_reports_bitwise_equal(&report, &resumed);
        assert!(
            matches!(info.snapshot, SnapshotOutcome::Fallback(_)),
            "corrupt sidecar must fall back, got {:?}",
            info.snapshot
        );
        assert_eq!(info.records_replayed, n as u64 - 1);
        assert_eq!(std::fs::read(&path).unwrap(), full);
        std::fs::remove_file(snap_path).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_ahead_of_truncated_journal_falls_back() {
        let (path, full, report, snap_records) = snapshot_fixture("snap_ahead", 41);
        // Kill *before* the snapshot point: the sidecar describes records
        // the journal no longer holds and must be rejected.
        assert!(snap_records > 1);
        truncate_to(&path, &full, snap_records as usize - 1);
        let (resumed, info) = Farm::resume(
            faulty_config(41),
            bag(),
            &path,
            JournalOptions::guideline(&faulty_config(41)),
            &StdVfs,
        )
        .unwrap();
        assert_reports_bitwise_equal(&report, &resumed);
        assert_eq!(
            info.snapshot,
            SnapshotOutcome::Fallback(crate::snapshot::SnapshotErrorKind::JournalAhead)
        );
        assert_eq!(info.records_replayed, snap_records - 1);
        assert_eq!(std::fs::read(&path).unwrap(), full);
        std::fs::remove_file(ring_snapshot_path(&path, 0)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_to_reconstructs_intermediate_state() {
        let (path, full, report, _) = snapshot_fixture("replay_to", 43);
        let n = full.iter().filter(|&&b| b == b'\n').count() as u64;

        // Record 1 is the run_start header. Setup (header + one
        // episode_start per workstation) is atomic, so the replay lands
        // just past it: nothing dispatched, nothing banked.
        let at_start = Farm::replay_to(faulty_config(43), bag(), &path, 1, None).unwrap();
        assert_eq!(at_start.records, 4, "run_start + 3 episode_start");
        assert_eq!(at_start.total_records, n);
        assert_eq!(at_start.banked_tasks, 0);
        assert_eq!(at_start.pending_tasks, 120);

        // Midway: progress is strictly between start and end.
        let mid = Farm::replay_to(faulty_config(43), bag(), &path, n / 2, None).unwrap();
        assert!(mid.records >= n / 2 && mid.records < n, "{mid:?}");
        assert!(mid.virtual_time > 0.0);
        assert!(mid.banked_tasks > 0 || mid.in_flight_chunks > 0, "{mid:?}");
        assert!(mid.banked_tasks < 120);

        // The full journal replays to the final report's totals (clamped
        // even when asked for more records than exist).
        let end = Farm::replay_to(faulty_config(43), bag(), &path, n + 500, None).unwrap();
        assert_eq!(end.records, n);
        assert_eq!(end.banked_tasks, 120);
        // (pending/in-flight need not be zero at the end: a requeued or
        // replicated copy of an already-banked task can still be out.)
        assert_eq!(
            end.completed_work.to_bits(),
            report.completed_work.to_bits()
        );
        assert_eq!(end.lost_work.to_bits(), report.lost_work.to_bits());

        // Replay is read-only.
        assert_eq!(std::fs::read(&path).unwrap(), full);
        // And it rejects foreign inputs like resume does.
        assert!(matches!(
            Farm::replay_to(faulty_config(44), bag(), &path, 5, None),
            Err(JournalError::HeaderMismatch { .. })
        ));
        std::fs::remove_file(ring_snapshot_path(&path, 0)).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn guideline_policy_has_a_finite_cadence_for_real_farms() {
        let opts = JournalOptions::guideline(&faulty_config(1));
        match opts.fsync {
            FsyncPolicy::Interval(dt) => assert!(dt.is_finite() && dt > 0.0, "dt = {dt}"),
            p => panic!("expected an interval cadence, got {p:?}"),
        }
        assert_eq!(opts.snapshot_every, SnapshotCadence::Priced);
        // Zero overhead: saving is free, sync every record — and redo
        // replay is already exact, so no snapshots.
        let mut free = faulty_config(1);
        for w in &mut free.workstations {
            w.c = 0.0;
        }
        let opts = JournalOptions::guideline(&free);
        assert_eq!(opts.fsync, FsyncPolicy::EveryRecord);
        assert_eq!(opts.snapshot_every, SnapshotCadence::Off);
    }

    #[test]
    fn journal_errors_render() {
        for e in [
            JournalError::Config(FarmConfigError::NoWorkstations),
            JournalError::HeaderMismatch {
                expected: "a".into(),
                found: "b".into(),
            },
            JournalError::Diverged {
                record: 3,
                journal: "x".into(),
                replayed: "y".into(),
            },
            JournalError::JournalAhead {
                journal_records: 9,
                replayed: 4,
            },
            JournalError::SegmentCorrupt {
                reason: "stale".into(),
            },
            JournalError::SegmentUnrecoverable {
                base: 12,
                reason: "ring gone".into(),
            },
            JournalError::Generation {
                generation: 2,
                reason: "checksum".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    /// Builds a ring fixture: a full journaled run with `ring` snapshot
    /// generations at an aggressive cadence, optionally GC'ing the journal
    /// prefix behind the ring.
    pub(super) fn ring_fixture(
        name: &str,
        seed: u64,
        ring: u32,
        gc: bool,
    ) -> (std::path::PathBuf, FarmReport, JournalOptions, DurableStats) {
        let path = tmp(name);
        let opts = JournalOptions {
            fsync: guideline_fsync_policy(&faulty_config(seed)),
            snapshot_every: SnapshotCadence::Every(2.0),
            snapshot_ring: ring,
            gc,
            ..Default::default()
        };
        let (report, stats) = Farm::new(faulty_config(seed), bag())
            .unwrap()
            .run_journaled(&path, opts, &StdVfs)
            .unwrap();
        (path, report, opts, stats)
    }

    pub(super) fn cleanup(path: &std::path::Path) {
        std::fs::remove_file(segment_meta_path(path)).ok();
        for g in 0..MAX_SNAPSHOT_RING {
            std::fs::remove_file(ring_snapshot_path(path, g)).ok();
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn ring_run_writes_generations_and_resume_restores_one() {
        let (path, report, opts, stats) = ring_fixture("ring_resume", 47, 3, false);
        assert!(stats.snapshots_written >= 3, "{stats:?}");
        assert_eq!(stats.gc_truncated_records, 0);
        // The retained generations are the last sidecars written, so their
        // sizes are part of the byte total.
        let mut retained = 0;
        for g in 0..3 {
            let len = std::fs::metadata(ring_snapshot_path(&path, g))
                .unwrap_or_else(|_| panic!("generation {g} missing"))
                .len();
            retained += len;
        }
        assert!(retained <= stats.snapshot_bytes, "{stats:?}");
        let full = std::fs::read(&path).unwrap();
        let n = full.iter().filter(|&&b| b == b'\n').count();
        truncate_to(&path, &full, n - 1);
        let (resumed, info) = Farm::resume(faulty_config(47), bag(), &path, opts, &StdVfs).unwrap();
        assert_reports_bitwise_equal(&report, &resumed);
        assert!(
            matches!(info.snapshot, SnapshotOutcome::Used { .. }),
            "{info:?}"
        );
        assert_eq!(info.segment_base, 0);
        assert_eq!(std::fs::read(&path).unwrap(), full);
        cleanup(&path);
    }

    #[test]
    fn gc_bounds_the_journal_and_every_generation_still_replays() {
        let (path, report, opts, stats) = ring_fixture("gc_bounded", 53, 3, true);
        assert!(
            stats.gc_truncated_records > 0,
            "GC must truncate: {stats:?}"
        );
        assert!(stats.gc_truncated_bytes > 0, "{stats:?}");
        let seg = SegmentMeta::load(&StdVfs, &segment_meta_path(&path)).unwrap();
        assert!(seg.base_records > 0);
        // The file really is a bounded suffix of the full record stream.
        let n = std::fs::read(&path)
            .unwrap()
            .iter()
            .filter(|&&b| b == b'\n')
            .count() as u64;
        assert_eq!(seg.base_records + n, stats.records);
        assert_eq!(seg.base_records, stats.gc_truncated_records);

        // A complete GC'd journal still verifies end to end.
        let (resumed, info) = Farm::resume(faulty_config(53), bag(), &path, opts, &StdVfs).unwrap();
        assert_reports_bitwise_equal(&report, &resumed);
        assert!(info.segment_base > 0, "{info:?}");
        assert_eq!(info.records_appended, 0);

        // Every retained generation is a usable replay start, and the
        // whole surviving segment replays through the end.
        for g in 0..3 {
            let st = Farm::replay_to(faulty_config(53), bag(), &path, u64::MAX, Some(g)).unwrap();
            assert_eq!(st.records, st.total_records, "generation {g}");
            assert_eq!(st.banked_tasks, 120, "generation {g}");
        }
        // `replay_to` without a generation auto-picks one when record zero
        // is gone.
        let seg = SegmentMeta::load(&StdVfs, &segment_meta_path(&path)).unwrap();
        let st =
            Farm::replay_to(faulty_config(53), bag(), &path, seg.base_records + 1, None).unwrap();
        assert!(st.records > seg.base_records);
        cleanup(&path);
    }

    #[test]
    fn gc_segment_resumes_bitwise_from_a_torn_kill_point() {
        let (path, report, opts, _) = ring_fixture("gc_kill", 59, 3, true);
        let full = std::fs::read(&path).unwrap();
        let offsets: Vec<usize> = full
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
            .collect();
        let n = offsets.len();
        assert!(n > 4, "need a non-trivial surviving segment");
        let mut torn = full[..offsets[n - 3]].to_vec();
        torn.extend_from_slice(b"{\"v\":2,\"t\":1");
        std::fs::write(&path, &torn).unwrap();
        let (resumed, info) = Farm::resume(faulty_config(59), bag(), &path, opts, &StdVfs).unwrap();
        assert_reports_bitwise_equal(&report, &resumed);
        assert!(info.torn_bytes_discarded > 0, "{info:?}");
        assert!(info.segment_base > 0, "{info:?}");
        assert!(
            matches!(info.snapshot, SnapshotOutcome::Used { .. }),
            "{info:?}"
        );
        cleanup(&path);
    }

    #[test]
    fn stale_segment_metadata_is_inferred_from_the_ring() {
        let (path, report, opts, _) = ring_fixture("gc_stale_seg", 61, 3, true);
        let seg_path = segment_meta_path(&path);
        let real = SegmentMeta::load(&StdVfs, &seg_path).unwrap();
        // Simulate a crash between the journal rotation and the metadata
        // store: the sidecar still describes an older, smaller cut.
        let stale = SegmentMeta::for_cut(
            real.base_records.saturating_sub(3),
            0xDEAD_BEEF,
            Some("{\"v\":2,\"stale\":true}"),
        );
        stale.store(&StdVfs, &seg_path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let n = full.iter().filter(|&&b| b == b'\n').count();
        truncate_to(&path, &full, n - 1);
        let (resumed, info) = Farm::resume(faulty_config(61), bag(), &path, opts, &StdVfs).unwrap();
        assert_reports_bitwise_equal(&report, &resumed);
        assert_eq!(info.segment_base, real.base_records, "{info:?}");
        // The metadata was repaired on the way through.
        let repaired = SegmentMeta::load(&StdVfs, &seg_path).unwrap();
        assert!(repaired.base_records >= real.base_records);
        cleanup(&path);
    }

    #[test]
    fn gc_segment_without_usable_generations_fails_typed() {
        let (path, _, opts, _) = ring_fixture("gc_stranded", 67, 3, true);
        for g in 0..3 {
            std::fs::remove_file(ring_snapshot_path(&path, g)).unwrap();
        }
        match Farm::resume(faulty_config(67), bag(), &path, opts, &StdVfs) {
            Err(JournalError::SegmentUnrecoverable { base, .. }) => assert!(base > 0),
            other => panic!("expected SegmentUnrecoverable, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn fail_stop_surfaces_injected_write_errors() {
        use cs_obs::{injected_kind, FaultAt, FaultKind, FaultyVfs};
        let path = tmp("failstop");
        let opts = JournalOptions {
            fsync: guideline_fsync_policy(&faulty_config(71)),
            progress_every: Some(1e9),
            ..Default::default()
        };
        let vfs = FaultyVfs::with_plan(&[FaultAt {
            kind: FaultKind::FailedWrite,
            index: 3,
        }]);
        match Farm::new(faulty_config(71), bag())
            .unwrap()
            .run_journaled(&path, opts, &vfs)
        {
            Err(JournalError::Io(e)) => {
                assert_eq!(injected_kind(&e), Some(FaultKind::FailedWrite), "{e:?}")
            }
            other => panic!("expected a typed Io error, got {other:?}"),
        }
        cleanup(&path);
    }

    #[test]
    fn degrade_mode_completes_bitwise_and_flags_the_run() {
        use cs_obs::{FaultAt, FaultKind, FaultyVfs};
        let path = tmp("degrade");
        let reference = Farm::new(faulty_config(73), bag())
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        let opts = JournalOptions {
            fsync: guideline_fsync_policy(&faulty_config(73)),
            snapshot_every: SnapshotCadence::Every(2.0),
            on_io_error: IoErrorPolicy::Degrade,
            ..Default::default()
        };
        let vfs = FaultyVfs::with_plan(&[FaultAt {
            kind: FaultKind::NoSpace,
            index: 3,
        }]);
        let (report, stats) = Farm::new(faulty_config(73), bag())
            .unwrap()
            .run_journaled(&path, opts, &vfs)
            .unwrap();
        assert_reports_bitwise_equal(&reference, &report);
        assert!(stats.degraded, "{stats:?}");
        // What made it to disk is a valid prefix: a later resume on a
        // healthy disk finishes the episode exactly.
        let (resumed, info) = Farm::resume(
            faulty_config(73),
            bag(),
            &path,
            JournalOptions::guideline(&faulty_config(73)),
            &StdVfs,
        )
        .unwrap();
        assert_reports_bitwise_equal(&reference, &resumed);
        assert!(!info.degraded);
        cleanup(&path);
    }

    /// A bag checked out before `Farm::new` keeps ids past its task count,
    /// so its `next_id` exceeds the snapshot's `tasks`: such snapshots
    /// still restore, and resume through one is bitwise exact.
    #[test]
    fn a_bag_with_ids_past_its_task_count_resumes_through_a_snapshot() {
        let mk_bag = || {
            let mut bag = workloads::uniform(150, 1.0).unwrap();
            let _ = bag.check_out(30.0);
            bag
        };
        assert_eq!(mk_bag().pending_count(), 120);
        let path = tmp("checked_out");
        let opts = JournalOptions {
            fsync: guideline_fsync_policy(&faulty_config(97)),
            snapshot_every: SnapshotCadence::Every(2.0),
            ..Default::default()
        };
        let (report, _) = Farm::new(faulty_config(97), mk_bag())
            .unwrap()
            .run_journaled(&path, opts, &StdVfs)
            .unwrap();
        let full = std::fs::read(&path).unwrap();
        let n = full.iter().filter(|&&b| b == b'\n').count();
        truncate_to(&path, &full, n - 1);
        let (resumed, info) =
            Farm::resume(faulty_config(97), mk_bag(), &path, opts, &StdVfs).unwrap();
        assert_reports_bitwise_equal(&report, &resumed);
        assert!(
            matches!(info.snapshot, SnapshotOutcome::Used { .. }),
            "{info:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), full);
        cleanup(&path);
    }

    /// The priced cadence's fixture: a 1000-task faulty farm under the
    /// default options, with a `ring` and optional GC.
    fn priced_opts(seed: u64, ring: u32, gc: bool) -> JournalOptions {
        JournalOptions {
            snapshot_ring: ring,
            gc,
            ..JournalOptions::guideline(&faulty_config(seed))
        }
    }

    fn priced_bag() -> cs_tasks::TaskBag {
        workloads::uniform(1000, 1.0).unwrap()
    }

    /// Every file a journaled run leaves at `path`, by name.
    fn artifacts(path: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut files = vec![path.to_path_buf(), segment_meta_path(path)];
        files.extend((0..MAX_SNAPSHOT_RING).map(|g| ring_snapshot_path(path, g)));
        files
            .into_iter()
            .filter_map(|p| {
                let bytes = std::fs::read(&p).ok()?;
                let name = p.file_name()?.to_string_lossy();
                Some((name.rsplit('.').next()?.to_string(), bytes))
            })
            .collect()
    }

    /// Snapshot placement is a function of the seed and the engine's
    /// counts: two runs of the same farm, one of them heartbeating on the
    /// wall clock before every step, leave the same journal, segment
    /// metadata and sidecars, byte for byte, and the same counters.
    #[test]
    fn priced_snapshots_fall_at_the_same_records_every_run() {
        let (a, b) = (tmp("priced_a"), tmp("priced_b"));
        let (report_a, stats_a) = Farm::new(faulty_config(101), priced_bag())
            .unwrap()
            .run_journaled(&a, priced_opts(101, 3, true), &StdVfs)
            .unwrap();
        let noisy = JournalOptions {
            progress_every: Some(0.0),
            ..priced_opts(101, 3, true)
        };
        let (report_b, stats_b) = Farm::new(faulty_config(101), priced_bag())
            .unwrap()
            .run_journaled(&b, noisy, &StdVfs)
            .unwrap();
        assert_reports_bitwise_equal(&report_a, &report_b);
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.snapshots_written > 3, "{stats_a:?}");
        assert!(stats_a.gc_truncated_records > 0, "{stats_a:?}");
        let files = artifacts(&a);
        assert_eq!(files.len(), 5, "journal, .seg and three generations");
        assert!(files == artifacts(&b), "the two runs' files differ");
        cleanup(&a);
        cleanup(&b);
    }

    /// The priced rule, checked against what a 64-generation ring holds:
    /// every sidecar sits at an event boundary whose records since the
    /// previous sidecar pay for it, and the boundary before it did not —
    /// so no gap overshoots the threshold by more than one event step.
    #[test]
    fn priced_gaps_meet_the_threshold_by_at_most_one_step() {
        let path = tmp("priced_ring64");
        let (_, stats) = Farm::new(faulty_config(103), priced_bag())
            .unwrap()
            .run_journaled(&path, priced_opts(103, 64, false), &StdVfs)
            .unwrap();
        assert!(stats.snapshots_written > 8, "{stats:?}");
        let mut sidecars: Vec<u64> = (0..MAX_SNAPSHOT_RING)
            .filter_map(|g| crate::snapshot::inspect_snapshot(ring_snapshot_path(&path, g)).ok())
            .map(|m| m.journal_records)
            .collect();
        sidecars.sort_unstable();
        assert_eq!(
            sidecars.len() as u64,
            stats.snapshots_written.min(u64::from(MAX_SNAPSHOT_RING))
        );

        // Every event boundary of the same farm, with the price the rule
        // sees there; the size estimate stays close to the encoded size.
        let farm = Farm::new(faulty_config(103), priced_bag()).unwrap();
        let (mut sink, mut prof) = (cs_obs::MemorySink::new(), SpanProfiler::disabled());
        let mut run = FarmRun::start(farm, &mut sink, &mut prof);
        let (mut boundaries, mut worst) = (Vec::new(), 0.0f64);
        loop {
            let (estimate, actual) = (
                run.snapshot_bytes_estimate() as f64,
                run.save_state(0, 0).encode().len() as f64,
            );
            worst = worst.max((estimate / actual - 1.0).abs());
            boundaries.push((sink.events.len() as u64, run.snapshot_price()));
            if !run.step(&mut sink, &mut prof) {
                break;
            }
        }
        // The per-item sizes assume 4-digit ids; this bag's are shorter.
        assert!(worst < 0.25, "estimate off by {worst}");
        // With the whole run retained, its start is the first gap's floor.
        if stats.snapshots_written <= u64::from(MAX_SNAPSHOT_RING) {
            sidecars.insert(0, boundaries[0].0);
        }
        for pair in sidecars.windows(2) {
            let (from, at) = (pair[0], pair[1]);
            let i = boundaries
                .iter()
                .position(|&(records, _)| records == at)
                .unwrap_or_else(|| panic!("sidecar at record {at} is not an event boundary"));
            let (_, price) = boundaries[i];
            assert!(
                (at - from) * RECORD_PRICE >= price,
                "gap {from}..{at} is below its price {price}"
            );
            let (before, price_before) = boundaries[i - 1];
            assert!(
                before <= from || (before - from) * RECORD_PRICE < price_before,
                "gap {from}..{at} overshoots: {before} already paid {price_before}"
            );
        }
        cleanup(&path);
    }

    /// Resumed ≡ uninterrupted under the default priced cadence with a
    /// 3-generation ring and GC: killed at several record counts, each run
    /// resumes to the uninterrupted report and leaves the same journal,
    /// segment metadata and sidecars, byte for byte.
    #[test]
    fn priced_ring_with_gc_resumes_bitwise_from_every_kill_point() {
        let reference = tmp("priced_ref");
        let opts = priced_opts(107, 3, true);
        let (report, stats) = Farm::new(faulty_config(107), priced_bag())
            .unwrap()
            .run_journaled(&reference, opts, &StdVfs)
            .unwrap();
        let expected = artifacts(&reference);
        let n = stats.records;
        for kill_after in [5, n / 5, n / 3, n / 2, 2 * n / 3, n - 2] {
            let path = tmp(&format!("priced_kill_{kill_after}"));
            let killed = JournalOptions {
                kill_after: Some(kill_after),
                ..opts
            };
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Farm::new(faulty_config(107), priced_bag())
                    .unwrap()
                    .run_journaled(&path, killed, &StdVfs)
            }));
            match died {
                Err(payload) => assert!(payload.is::<Killed>(), "kill at {kill_after}"),
                Ok(_) => panic!("the run outlived its kill at {kill_after}"),
            }
            let (resumed, info) =
                Farm::resume(faulty_config(107), priced_bag(), &path, opts, &StdVfs).unwrap();
            assert_reports_bitwise_equal(&report, &resumed);
            assert!(info.torn_bytes_discarded > 0, "{info:?}");
            assert!(
                artifacts(&path) == expected,
                "kill at {kill_after}: the resumed run's files differ"
            );
            cleanup(&path);
        }
        cleanup(&reference);
    }

    #[test]
    fn stale_tmp_files_are_swept_on_start_and_resume() {
        let path = tmp("sweep");
        let stale = crate::snapshot::tmp_path(&ring_snapshot_path(&path, 0));
        std::fs::write(&stale, b"half-written").unwrap();
        Farm::new(faulty_config(79), bag())
            .unwrap()
            .run_journaled(
                &path,
                JournalOptions::guideline(&faulty_config(79)),
                &StdVfs,
            )
            .unwrap();
        assert!(!stale.exists(), "fresh run must sweep stale tmp files");
        std::fs::write(&stale, b"half-written").unwrap();
        Farm::resume(
            faulty_config(79),
            bag(),
            &path,
            JournalOptions::guideline(&faulty_config(79)),
            &StdVfs,
        )
        .unwrap();
        assert!(!stale.exists(), "resume must sweep stale tmp files");
        cleanup(&path);
    }

    /// A [`Vfs`] over the real filesystem that counts whole-file reads of
    /// snapshot sidecars.
    #[derive(Debug, Default)]
    struct CountingVfs {
        sidecar_reads: std::sync::atomic::AtomicUsize,
    }

    impl Vfs for CountingVfs {
        fn create(&self, path: &Path) -> std::io::Result<Box<dyn cs_obs::vfs::VfsFile>> {
            StdVfs.create(path)
        }

        fn open_append(
            &self,
            path: &Path,
            valid_len: u64,
        ) -> std::io::Result<(Box<dyn cs_obs::vfs::VfsFile>, bool)> {
            StdVfs.open_append(path, valid_len)
        }

        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            if path.to_string_lossy().contains(".snap.") {
                self.sidecar_reads
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            StdVfs.read(path)
        }

        fn read_head(&self, path: &Path, len: usize) -> std::io::Result<Vec<u8>> {
            StdVfs.read_head(path, len)
        }

        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            StdVfs.rename(from, to)
        }

        fn remove(&self, path: &Path) -> std::io::Result<()> {
            StdVfs.remove(path)
        }

        fn exists(&self, path: &Path) -> bool {
            StdVfs.exists(path)
        }
    }

    /// A healthy resume of a ring-3 GC'd journal reads and decodes the one
    /// sidecar it restores; the older generations stay unread.
    #[test]
    fn a_healthy_resume_decodes_only_the_generation_it_restores() {
        let (path, report, opts, _) = ring_fixture("lazy_decode", 61, 3, true);
        for g in 0..3 {
            assert!(ring_snapshot_path(&path, g).exists(), "generation {g}");
        }
        let full = std::fs::read(&path).unwrap();
        let n = full.iter().filter(|&&b| b == b'\n').count();
        truncate_to(&path, &full, n - 1);
        let vfs = CountingVfs::default();
        let (resumed, info) = Farm::resume(faulty_config(61), bag(), &path, opts, &vfs).unwrap();
        assert_reports_bitwise_equal(&report, &resumed);
        assert!(
            matches!(info.snapshot, SnapshotOutcome::Used { .. }),
            "{info:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), full);
        assert_eq!(
            vfs.sidecar_reads.load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        cleanup(&path);
    }
}

#[cfg(test)]
mod properties {
    use super::tests::{
        assert_reports_bitwise_equal, bag, cleanup, faulty_config, ring_fixture, tmp, truncate_to,
    };
    use super::*;
    use crate::farm::{Event as QueueEvent, EventKind as QueueKind};
    use crate::farm::{PolicySpec, WorkstationConfig};
    use crate::faults::FaultPlan;
    use crate::snapshot::LeaseSnap;
    use cs_life::{ArcLife, Uniform};
    use cs_tasks::workloads;
    use cs_tasks::Task;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use std::sync::Arc;

    /// A farm shaped by the proptest case: mild heterogeneity, the whole
    /// fault vocabulary scaled by `intensity`, two reclaim storms.
    fn prop_config(seed: u64, intensity: f64, workstations: usize) -> FarmConfig {
        let workstations = (0..workstations)
            .map(|i| {
                let life: ArcLife = Arc::new(Uniform::new(150.0 + 25.0 * (i % 3) as f64).unwrap());
                WorkstationConfig {
                    life: life.clone(),
                    believed: life,
                    c: 2.0,
                    policy: PolicySpec::Guideline,
                    gap_mean: 8.0,
                    faults: FaultPlan::scaled(intensity),
                }
            })
            .collect();
        let mut config = FarmConfig::new(workstations, 1e6, seed);
        config.storms = vec![150.0, 400.0];
        config
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The kill-anywhere guarantee, property-tested: for any seed,
        /// fault intensity, farm size, workload size and kill point,
        /// resuming a journal truncated at that record boundary
        /// (optionally with a torn half-record appended) reproduces the
        /// uninterrupted report bitwise and re-creates the journal
        /// byte-for-byte.
        #[test]
        fn resume_from_any_kill_point_is_bitwise_identical(
            seed in 0u64..10_000,
            intensity in 0.0f64..1.5,
            workstations in 2usize..5,
            tasks in 30usize..110,
            kill_frac in 0.0f64..1.0,
            torn_bit in 0u8..2,
        ) {
            let torn = torn_bit == 1;
            let path = tmp(&format!("prop_{seed}_{tasks}_{}", intensity.to_bits()));
            let mk_bag = || workloads::uniform(tasks, 1.0).unwrap();
            let (reference, _) = Farm::new(prop_config(seed, intensity, workstations), mk_bag())
                .unwrap()
                .run_journaled(&path, JournalOptions::guideline(&prop_config(seed, intensity, workstations)), &StdVfs)
                .unwrap();
            let full = std::fs::read(&path).unwrap();
            let offsets: Vec<usize> = full
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
                .collect();
            let n = offsets.len();
            prop_assume!(n >= 3);
            // Keep k in 1 ..= n-1: always at least the run_start header,
            // always at least one record to regenerate.
            let k = 1 + ((kill_frac * (n - 2) as f64) as usize).min(n - 2);
            let mut prefix = full[..offsets[k - 1]].to_vec();
            if torn {
                prefix.extend_from_slice(b"{\"v\":2,\"t\":33.5,\"ty");
            }
            std::fs::write(&path, &prefix).unwrap();
            let (resumed, info) =
                Farm::resume(prop_config(seed, intensity, workstations), mk_bag(), &path, JournalOptions::guideline(&prop_config(seed, intensity, workstations)), &StdVfs).unwrap();
            // The reference run's sidecar is still next to the journal: when
            // the kill point is past the snapshot, resume restores it and
            // skips the covered records; otherwise it falls back to full
            // redo. Either way, every committed record is accounted for.
            let skipped = match info.snapshot {
                SnapshotOutcome::Used { records_skipped, .. } => records_skipped,
                _ => 0,
            };
            prop_assert_eq!(skipped + info.records_replayed, k as u64);
            prop_assert_eq!(info.torn_bytes_discarded > 0, torn);
            let stitched = std::fs::read(&path).unwrap();
            prop_assert!(stitched == full, "stitched journal differs from the reference");
            assert_reports_bitwise_equal(&reference, &resumed);
            let _ = std::fs::remove_file(ring_snapshot_path(&path, 0));
            let _ = std::fs::remove_file(&path);
        }

        /// The tentpole guarantee, property-tested end to end: for any
        /// seed, fault intensity, farm size, workload, kill point, snapshot
        /// cadence and sidecar corruption, resuming reproduces the
        /// uninterrupted report bitwise and re-creates the journal
        /// byte-for-byte — through the snapshot fast path *and* through
        /// every graceful-fallback path.
        #[test]
        fn snapshot_resume_is_bitwise_identical(
            seed in 0u64..10_000,
            intensity in 0.0f64..1.5,
            workstations in 2usize..5,
            tasks in 30usize..110,
            kill_frac in 0.0f64..1.0,
            snap_every in 1.0f64..40.0,
            corrupt_bit in 0u8..2,
        ) {
            let corrupt = corrupt_bit == 1;
            let path = tmp(&format!("snapprop_{seed}_{tasks}_{}", intensity.to_bits()));
            let snap_path = ring_snapshot_path(&path, 0);
            let mk_bag = || workloads::uniform(tasks, 1.0).unwrap();
            let mk_cfg = || prop_config(seed, intensity, workstations);
            let opts = JournalOptions {
                fsync: guideline_fsync_policy(&mk_cfg()),
                snapshot_every: SnapshotCadence::Every(snap_every),
                ..Default::default()
            };
            let (reference, _) = Farm::new(mk_cfg(), mk_bag())
                .unwrap()
                .run_journaled(&path, opts, &StdVfs)
                .unwrap();
            let full = std::fs::read(&path).unwrap();
            let meta = snap_path
                .exists()
                .then(|| crate::snapshot::inspect_snapshot(&snap_path).unwrap());

            let offsets: Vec<usize> = full
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
                .collect();
            let n = offsets.len();
            prop_assume!(n >= 3);
            let k = 1 + ((kill_frac * (n - 2) as f64) as usize).min(n - 2);
            std::fs::write(&path, &full[..offsets[k - 1]]).unwrap();
            if corrupt {
                if let Ok(mut bytes) = std::fs::read(&snap_path) {
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x01;
                    std::fs::write(&snap_path, &bytes).unwrap();
                }
            }

            let (resumed, info) = Farm::resume(mk_cfg(), mk_bag(), &path, opts, &StdVfs).unwrap();
            assert_reports_bitwise_equal(&reference, &resumed);
            let stitched = std::fs::read(&path).unwrap();
            prop_assert!(stitched == full, "stitched journal differs from the reference");
            let skipped = match info.snapshot {
                SnapshotOutcome::Used { records_skipped, .. } => {
                    prop_assert!(!corrupt, "a corrupted sidecar must never restore");
                    records_skipped
                }
                _ => 0,
            };
            prop_assert_eq!(skipped + info.records_replayed, k as u64);
            // The outcome is fully determined by the trial's shape.
            match (corrupt, &meta) {
                (true, Some(_)) => prop_assert!(
                    matches!(info.snapshot, SnapshotOutcome::Fallback(_)),
                    "corrupt sidecar: got {:?}", info.snapshot
                ),
                (false, Some(m)) if m.journal_records <= k as u64 => prop_assert!(
                    matches!(info.snapshot, SnapshotOutcome::Used { .. }),
                    "valid sidecar behind the kill point: got {:?}", info.snapshot
                ),
                (false, Some(_)) => prop_assert!(
                    matches!(
                        info.snapshot,
                        SnapshotOutcome::Fallback(
                            crate::snapshot::SnapshotErrorKind::JournalAhead
                        )
                    ),
                    "sidecar past the kill point: got {:?}", info.snapshot
                ),
                (_, None) => prop_assert!(
                    matches!(info.snapshot, SnapshotOutcome::None),
                    "no sidecar: got {:?}", info.snapshot
                ),
            }
            let _ = std::fs::remove_file(&snap_path);
            let _ = std::fs::remove_file(&path);
        }

        /// The GC safety argument, property-tested: for any seed, fault
        /// intensity, farm size, workload, snapshot cadence, ring size and
        /// kill point, journal-prefix GC never strands a retained
        /// snapshot — every generation surviving inside the kill point
        /// seeds a verified replay of the whole surviving segment, and
        /// resume is bitwise identical to the uninterrupted run.
        #[test]
        fn gc_never_strands_a_retained_snapshot(
            seed in 0u64..10_000,
            intensity in 0.0f64..1.2,
            workstations in 2usize..5,
            tasks in 30usize..90,
            ring in 2u32..5,
            snap_every in 1.0f64..6.0,
            kill_frac in 0.0f64..1.0,
        ) {
            let path = tmp(&format!("gcprop_{seed}_{tasks}_{ring}_{}", snap_every.to_bits()));
            let mk_bag = || workloads::uniform(tasks, 1.0).unwrap();
            let mk_cfg = || prop_config(seed, intensity, workstations);
            let opts = JournalOptions {
                fsync: guideline_fsync_policy(&mk_cfg()),
                snapshot_every: SnapshotCadence::Every(snap_every),
                snapshot_ring: ring,
                gc: true,
                ..Default::default()
            };
            let (reference, stats) = Farm::new(mk_cfg(), mk_bag())
                .unwrap()
                .run_journaled(&path, opts, &StdVfs)
                .unwrap();
            prop_assume!(stats.gc_truncated_records > 0);
            let full = std::fs::read(&path).unwrap();
            let offsets: Vec<usize> = full
                .iter()
                .enumerate()
                .filter_map(|(i, &b)| (b == b'\n').then_some(i + 1))
                .collect();
            let n = offsets.len();
            prop_assume!(n >= 2);
            // Kill anywhere in the surviving segment (≥ 1 record).
            let k = 1 + ((kill_frac * (n - 1) as f64) as usize).min(n - 1);
            std::fs::write(&path, &full[..offsets[k - 1]]).unwrap();

            let seg =
                SegmentMeta::load(&StdVfs, &segment_meta_path(&path)).unwrap();
            prop_assert_eq!(seg.base_records, stats.gc_truncated_records);
            // Every retained generation inside the kill point replays the
            // whole surviving segment with verification.
            let mut usable = 0;
            for g in 0..ring {
                let p = ring_snapshot_path(&path, g);
                if !p.exists() {
                    continue;
                }
                let meta = crate::snapshot::inspect_snapshot(&p).unwrap();
                if meta.journal_records > seg.base_records + k as u64 {
                    continue; // ahead of the kill point; resume rejects it
                }
                let st = Farm::replay_to(mk_cfg(), mk_bag(), &path, u64::MAX, Some(g))
                    .unwrap();
                prop_assert_eq!(st.records, seg.base_records + k as u64);
                usable += 1;
            }
            // The oldest retained generation sits exactly at the segment
            // start, so at least one generation always survives any kill.
            prop_assert!(usable > 0, "no usable generation at kill point {k}/{n}");

            let (resumed, info) = Farm::resume(mk_cfg(), mk_bag(), &path, opts, &StdVfs).unwrap();
            assert_reports_bitwise_equal(&reference, &resumed);
            prop_assert!(
                matches!(info.snapshot, SnapshotOutcome::Used { .. }),
                "GC'd segment must resume through the ring: {:?}", info
            );
            prop_assert!(info.segment_base > 0);
            cleanup(&path);
        }
    }

    // -- the sidecar codec ----------------------------------------------------

    /// Every field of a snapshot as raw words, floats by `to_bits` and each
    /// variable-length section behind its length: equal words mean
    /// bitwise-equal snapshots, field by field.
    fn snapshot_words(s: &FarmSnapshot) -> Vec<u64> {
        let b = &s.bag;
        let mut w = vec![
            s.seed,
            s.workstations,
            s.tasks,
            s.journal_records,
            s.journal_hash,
        ];
        w.extend([s.now, s.makespan, b.completed_work, b.lost_work].map(f64::to_bits));
        w.extend(s.rng);
        w.extend([
            s.next_lease,
            b.next_id,
            b.completed_tasks,
            b.pending.len() as u64,
        ]);
        w.extend(b.pending.iter().flat_map(|t| [t.id, t.duration.to_bits()]));
        w.push(s.banked.len() as u64);
        w.extend(&s.banked);
        w.push(s.queue.len() as u64);
        w.extend(s.queue.iter().flat_map(|e| {
            let (tag, id) = e.kind.rank();
            [e.time.to_bits(), tag.into(), id]
        }));
        w.push(s.leases.len() as u64);
        for l in &s.leases {
            w.extend([l.lease, l.ws, l.expiry.to_bits(), l.replicas.into()]);
            w.extend([l.arrives, l.expired].map(u64::from));
            w.push(l.tasks.len() as u64);
            w.extend(l.tasks.iter().flat_map(|t| [t.id, t.duration.to_bits()]));
        }
        w.push(s.ws.len() as u64);
        for ws in &s.ws {
            let st = &ws.stats;
            w.extend(
                [
                    ws.episode_start,
                    ws.reclaim_at,
                    ws.crash_at,
                    ws.quarantined_until,
                ]
                .map(f64::to_bits),
            );
            w.extend([st.completed_work, st.lost_work, st.duplicate_work].map(f64::to_bits));
            w.extend(ws.fault_rng);
            w.extend([ws.crashed, ws.backoff_pending].map(u64::from));
            w.extend([u64::from(ws.fail_streak), ws.policy_state.len() as u64]);
            w.extend(ws.policy_state.iter().map(|&b| u64::from(b)));
            w.extend([
                st.chunks_completed,
                st.chunks_lost,
                st.episodes,
                st.idle_periods,
                st.messages_lost,
                st.straggled_chunks,
                st.crashes,
                st.storm_kills,
                st.lease_timeouts,
                st.backoff_delays,
                st.quarantines,
                st.replicas_dispatched,
                st.late_banks,
            ]);
        }
        w
    }

    /// `decode(encode(s))` is `s` bitwise, and re-encodes to the same bytes.
    fn assert_codec_round_trips(s: &FarmSnapshot) {
        let bytes = s.clone().encode();
        let mut back = FarmSnapshot::decode(&bytes).unwrap();
        assert_eq!(snapshot_words(&back), snapshot_words(s));
        assert_eq!(back.encode(), bytes);
    }

    /// Runs a farm to completion, round-tripping a snapshot every `every`
    /// steps and at the end. Returns which sections the captures covered:
    /// empty and non-empty pending, empty and non-empty banked, a lease
    /// holding tasks, and a quarantined workstation.
    fn round_trip_run(
        seed: u64,
        intensity: f64,
        workstations: usize,
        tasks: usize,
        every: u64,
    ) -> [bool; 6] {
        let bag = workloads::uniform(tasks, 1.0).unwrap();
        let farm = Farm::new(prop_config(seed, intensity, workstations), bag).unwrap();
        let (mut sink, mut prof) = (cs_obs::NoopSink, SpanProfiler::disabled());
        let mut run = FarmRun::start(farm, &mut sink, &mut prof);
        let mut seen = [false; 6];
        let mut capture = |run: &FarmRun, step: u64| {
            let s = run.save_state(step, seed ^ step);
            assert_codec_round_trips(&s);
            for (flag, hit) in seen.iter_mut().zip([
                s.bag.pending.is_empty(),
                !s.bag.pending.is_empty(),
                s.banked.is_empty(),
                !s.banked.is_empty(),
                s.leases.iter().any(|l| !l.tasks.is_empty()),
                s.ws.iter().any(|w| w.quarantined_until > s.now),
            ]) {
                *flag |= hit;
            }
        };
        for step in 0u64.. {
            if step % every == 0 {
                capture(&run, step);
            }
            if !run.step(&mut sink, &mut prof) {
                capture(&run, step + 1);
                break;
            }
        }
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The sidecar codec over real engine states: snapshots captured
        /// along random faulty farms decode to the captured state bitwise
        /// and re-encode to the same bytes.
        #[test]
        fn snapshot_codec_round_trips_real_farms(
            seed in 0u64..10_000,
            intensity in 0.0f64..1.5,
            workstations in 2usize..5,
            tasks in 30usize..110,
            every in 1u64..9,
        ) {
            let seen = round_trip_run(seed, intensity, workstations, tasks, every);
            // The first capture precedes any bank and the last follows the
            // last one.
            prop_assert!(seen[2] && seen[3], "{:?}", seen);
        }
    }

    #[test]
    fn snapshot_codec_covers_every_section() {
        let seen = round_trip_run(3, 1.4, 4, 200, 1);
        assert_eq!(seen, [true; 6], "a faulty farm should fill every section");
    }

    #[test]
    fn edge_values_round_trip_bitwise() {
        let bag = workloads::uniform(60, 1.0).unwrap();
        let farm = Farm::new(prop_config(9, 0.8, 3), bag).unwrap();
        let (mut sink, mut prof) = (cs_obs::NoopSink, SpanProfiler::disabled());
        let mut run = FarmRun::start(farm, &mut sink, &mut prof);
        for _ in 0..20 {
            run.step(&mut sink, &mut prof);
        }
        let mut s = run.save_state(u64::MAX, u64::MAX);
        let nan = f64::from_bits(0xfff8_dead_beef_0001);
        let subnormal = f64::from_bits(1);
        s.seed = u64::MAX;
        s.now = -0.0;
        s.makespan = nan;
        s.next_lease = u64::MAX;
        s.bag.lost_work = subnormal;
        s.bag.pending.push(Task {
            id: u64::MAX,
            duration: -subnormal,
        });
        s.banked.push(u64::MAX);
        s.queue.push(QueueEvent {
            time: f64::NEG_INFINITY,
            kind: QueueKind::LeaseExpiry(u64::MAX),
        });
        s.leases.push(LeaseSnap {
            lease: u64::MAX - 1,
            ws: 2,
            expiry: -0.0,
            arrives: true,
            expired: true,
            replicas: u32::MAX,
            tasks: vec![Task {
                id: u64::MAX,
                duration: nan,
            }],
        });
        let w = &mut s.ws[1];
        w.fail_streak = u32::MAX;
        w.policy_state = vec![0x00, 0xff, 0x5a];
        w.stats.duplicate_work = -nan;
        w.stats.late_banks = u64::MAX;
        assert_codec_round_trips(&s);
    }

    const SNAPSHOT_FIXTURE: &[u8] =
        include_bytes!("../../../tests/fixtures/farm_faulty.snapshot.txt");

    /// `body` followed by its checksum trailer.
    fn with_checksum(body: &[u8]) -> Vec<u8> {
        let trailer = format!("checksum {:016x}\n", fnv1a64(FNV_OFFSET, body));
        [body, trailer.as_bytes()].concat()
    }

    /// The body of a sidecar: everything before its `checksum` line.
    fn body(sidecar: &[u8]) -> &[u8] {
        &sidecar[..sidecar.len() - "checksum 0123456789abcdef\n".len()]
    }

    /// Decodes `text` as a snapshot or as segment metadata and re-encodes it.
    fn decode_either(text: &[u8], snapshot: bool) -> Result<Vec<u8>, SnapshotError> {
        if snapshot {
            FarmSnapshot::decode(text).map(|mut s| s.encode())
        } else {
            SegmentMeta::decode(text).map(|m| m.encode())
        }
    }

    /// The decoder bugs a forged sidecar with a valid checksum used to
    /// reach: unbounded preallocation from a count (a `capacity overflow`
    /// panic) and silent `as` narrowing. Each is a typed `Malformed` now,
    /// as is every non-canonical spelling the encoder never writes.
    #[test]
    fn forged_sidecars_are_malformed() {
        let good = std::str::from_utf8(SNAPSHOT_FIXTURE).unwrap();
        for (from, to) in [
            ("pending 16\n", "pending 1152921504606846975\n"),
            ("banked 284\n", "banked 1152921504606846975\n"),
            ("queue ", "queue 1152921504606846975"),
            ("leases 4\n", "leases 1152921504606846975\n"),
            (" tasks 21 ", " tasks 1152921504606846975 "),
            (" workstations 8 ", " workstations 1152921504606846975 "),
            ("event 4061c5449a99c368 1 4", "event 4061c5449a99c368 258 4"),
            (" fail_streak 1 ", " fail_streak 4294967297 "),
            (" replicas 2 ", " replicas 4294967298 "),
            ("pending 16\n", "pending +16\n"),
            ("pending 16\n", "pending 016\n"),
            ("task 86 3ff0000000000000", "task 86 3ff"),
            ("task 86 3ff0000000000000", "task 86 3FF0000000000000"),
            ("meta seed 42 workstations", "meta workstations seed 42"),
            ("lease 4 ws 4", "lease 4 ws 9"),
            ("ids 0 1 2", "ids 0 2 1"),
        ] {
            assert!(good.contains(from), "{from:?} not in the fixture");
            let forged = with_checksum(body(good.replacen(from, to, 1).as_bytes()));
            match FarmSnapshot::decode(&forged) {
                Err(SnapshotError::Malformed { .. }) => {}
                other => panic!("{to:?}: expected Malformed, got {other:?}"),
            }
        }
    }

    /// Forged counts and task ids that parse but contradict the snapshot's
    /// contents: restore used to size the lease table and banked set from
    /// them (a `capacity overflow` panic and an allocation abort). Each is
    /// a typed `Inconsistent` from restore now, while the unforged fixture
    /// passes. A banked, pending or leased id must be below the bag's
    /// `next_id`, a counter that journals a record per increment must not
    /// pass the journal records (summed over workstations: finishing the
    /// run adds them up), and a `fail_streak` must not pass its lease
    /// timeouts.
    #[test]
    fn forged_counts_are_inconsistent_on_restore() {
        let good = std::str::from_utf8(SNAPSHOT_FIXTURE).unwrap();
        let restore = |text: &[u8]| {
            FarmSnapshot::decode(text)
                .unwrap()
                .restore(prop_config(42, 0.6, 8))
        };
        assert!(!matches!(
            restore(SNAPSHOT_FIXTURE),
            Err(SnapshotError::Inconsistent { .. })
        ));
        for (from, to) in [
            (" next_lease 8\n", " next_lease 1152921504606846975\n"),
            (" tasks 300\n", " tasks 1152921504606846975\n"),
            ("298 299\n", "298 1152921504606846975\n"),
            ("task 86 ", "task 1152921504606846975 "),
            (" 264:", " 1152921504606846975:"),
            ("298 299\n", "298 300\n"),
            // ws 0's `messages_lost`, then its `episodes`: one counter past
            // u64 and one whose sum passes the 139 journal records.
            (
                "0000000000000000 3 1 2 0 2 ",
                "0000000000000000 3 1 2 0 18446744073709551615 ",
            ),
            (
                "0000000000000000 3 1 2 0 2 ",
                "0000000000000000 3 1 139 0 2 ",
            ),
            // ws 0 has one lease timeout.
            (" fail_streak 1 ", " fail_streak 2 "),
        ] {
            assert!(good.contains(from), "{from:?} not in the fixture");
            let forged = with_checksum(body(good.replacen(from, to, 1).as_bytes()));
            match restore(&forged) {
                Err(SnapshotError::Inconsistent { .. }) => {}
                Err(e) => panic!("{to:?}: expected Inconsistent, got {e:?}"),
                Ok(_) => panic!("{to:?}: expected Inconsistent, got a restored run"),
            }
        }
    }

    /// Resume treats a sidecar with a forged `next_lease` like any other
    /// unusable sidecar: a typed fallback to full redo, bitwise exact.
    #[test]
    fn resume_falls_back_past_a_forged_next_lease() {
        let (path, report, opts, _) = ring_fixture("forged_lease", 83, 1, false);
        let snap_path = ring_snapshot_path(&path, 0);
        let text = String::from_utf8(std::fs::read(&snap_path).unwrap()).unwrap();
        let at = text.find(" next_lease ").unwrap() + " next_lease ".len();
        let end = at + text[at..].find('\n').unwrap();
        let forged = format!("{}1152921504606846975{}", &text[..at], &text[end..]);
        std::fs::write(&snap_path, with_checksum(body(forged.as_bytes()))).unwrap();
        let (resumed, info) = Farm::resume(faulty_config(83), bag(), &path, opts, &StdVfs).unwrap();
        assert_reports_bitwise_equal(&report, &resumed);
        assert_eq!(
            info.snapshot,
            SnapshotOutcome::Fallback(SnapshotErrorKind::Inconsistent)
        );
        cleanup(&path);
    }

    /// A forged `next_id` admits a huge id, but sizes nothing: the banked
    /// set keys ids past the run's task count sparsely, so the restored run
    /// plays to the end instead of aborting on an allocation.
    #[test]
    fn huge_ids_below_a_forged_next_id_allocate_nothing() {
        let good = std::str::from_utf8(SNAPSHOT_FIXTURE).unwrap();
        let forged = good
            .replacen("bag next_id 300 ", "bag next_id 1152921504606846976 ", 1)
            .replacen("298 299\n", "298 1152921504606846975\n", 1)
            .replacen("task 86 ", "task 1152921504606846974 ", 1);
        let forged = with_checksum(body(forged.as_bytes()));
        let mut run = FarmSnapshot::decode(&forged)
            .unwrap()
            .restore(prop_config(42, 0.6, 8))
            .unwrap();
        assert!(run.eng.banked.contains(1152921504606846975));
        let (mut sink, mut prof) = (cs_obs::NoopSink, SpanProfiler::disabled());
        while run.step(&mut sink, &mut prof) {}
        assert!(run.eng.banked.contains(1152921504606846974));
        run.finish(&mut sink, &mut prof);
    }

    /// Resume treats a sidecar with a forged task id like any other
    /// unusable sidecar: a typed fallback to full redo on a whole journal,
    /// bitwise exact, and a typed `SegmentUnrecoverable` on a GC'd segment
    /// with no other generation left.
    #[test]
    fn resume_falls_back_past_a_forged_task_id() {
        let forge = |snap_path: &std::path::Path| {
            let text = String::from_utf8(std::fs::read(snap_path).unwrap()).unwrap();
            let at = text.rfind("\nids ").unwrap() + 1;
            let end = at + text[at..].find('\n').unwrap();
            let last = at + text[at..end].rfind(' ').unwrap() + 1;
            let forged = format!("{}1152921504606846975{}", &text[..last], &text[end..]);
            std::fs::write(snap_path, with_checksum(body(forged.as_bytes()))).unwrap();
        };
        let (path, report, opts, _) = ring_fixture("forged_id", 89, 1, false);
        forge(&ring_snapshot_path(&path, 0));
        let (resumed, info) = Farm::resume(faulty_config(89), bag(), &path, opts, &StdVfs).unwrap();
        assert_reports_bitwise_equal(&report, &resumed);
        assert_eq!(
            info.snapshot,
            SnapshotOutcome::Fallback(SnapshotErrorKind::Inconsistent)
        );
        cleanup(&path);

        let (path, _, opts, _) = ring_fixture("forged_id_gc", 89, 3, true);
        forge(&ring_snapshot_path(&path, 0));
        for g in 1..3 {
            std::fs::remove_file(ring_snapshot_path(&path, g)).unwrap();
        }
        match Farm::resume(faulty_config(89), bag(), &path, opts, &StdVfs) {
            Err(e @ JournalError::SegmentUnrecoverable { .. }) => {
                assert!(e.to_string().contains("(last: inconsistent)"), "{e}")
            }
            other => panic!("expected SegmentUnrecoverable, got {other:?}"),
        }
        cleanup(&path);
    }

    /// Replacements for one token of a sidecar: canonical values, values
    /// just out of range and spellings the encoder never writes.
    const TOKEN_EDITS: [&str; 18] = [
        "0",
        "1",
        "2",
        "+5",
        "05",
        "3ff",
        "258",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "ffffffffffffffff",
        "3FF0000000000000",
        "-",
        "",
        "x",
        "ids",
        "task",
        "  ",
    ];

    /// One seeded mutation of a sidecar body: a bit flip, a truncation, a
    /// token edit or a duplicated line.
    fn mutate(body: &mut Vec<u8>, rng: &mut StdRng) {
        let mut pick = |n: usize| (rng.next_u64() % n.max(1) as u64) as usize;
        let starts = |b: &[u8], sep: &[u8]| -> Vec<usize> {
            std::iter::once(0)
                .chain((0..b.len()).filter(|&i| sep.contains(&b[i])).map(|i| i + 1))
                .filter(|&i| i < b.len())
                .collect()
        };
        if body.is_empty() {
            return;
        }
        match pick(4) {
            0 => {
                let i = pick(body.len());
                body[i] ^= 1 << pick(8);
            }
            1 => body.truncate(pick(body.len())),
            2 => {
                let tokens = starts(body, b" \n:");
                let at = tokens[pick(tokens.len())];
                let len = body[at..]
                    .iter()
                    .take_while(|b| !b" \n:".contains(b))
                    .count();
                let edit = TOKEN_EDITS[pick(TOKEN_EDITS.len())];
                body.splice(at..at + len, edit.bytes());
            }
            _ => {
                let lines = starts(body, b"\n");
                let at = lines[pick(lines.len())];
                let len = body[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(0, |n| n + 1);
                let line = body[at..at + len].to_vec();
                body.splice(at..at, line);
            }
        }
    }

    /// The mutation property for `.snap.N` and `.seg` sidecars: starting
    /// from valid ones, seeded bit flips, truncations, token edits and
    /// duplicated lines behind a recomputed checksum never panic the
    /// decoder, every rejection is a typed parse or version error, and
    /// every accepted input re-encodes to exactly its own bytes.
    #[test]
    fn mutated_sidecars_are_rejected_typed_or_canonical() {
        let segments = [
            SegmentMeta::for_cut(139, 0x467e_4470_9830_dd72, Some("{\"v\":2}")).encode(),
            SegmentMeta::for_cut(0, FNV_OFFSET, None).encode(),
        ];
        let mut rng = StdRng::seed_from_u64(0x5eed_5eed);
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..6_000u32 {
            let snapshot = case % 3 != 0;
            let base = if snapshot {
                SNAPSHOT_FIXTURE
            } else {
                &segments[case as usize % 2][..]
            };
            let mut mutated = body(base).to_vec();
            for _ in 0..1 + rng.next_u64() % 3 {
                mutate(&mut mutated, &mut rng);
            }
            let mutated = with_checksum(&mutated);
            match decode_either(&mutated, snapshot) {
                Ok(re_encoded) => {
                    assert!(
                        re_encoded == mutated,
                        "case {case}: accepted input is not canonical"
                    );
                    accepted += 1;
                }
                Err(SnapshotError::Malformed { .. } | SnapshotError::Version { .. }) => {
                    rejected += 1
                }
                Err(e) => panic!("case {case}: unexpected rejection {e:?}"),
            }
        }
        // Neither outcome may be vacuous: digit flips stay valid, most
        // edits do not.
        assert!(
            accepted > 100 && rejected > 3_000,
            "{accepted} / {rejected}"
        );
    }

    /// What resume decided: the outcome and the newest bound generation,
    /// and each ring slot as the GC cut sees it, or the error.
    type Selection = Result<(SnapshotOutcome, Option<u32>, Vec<Slot>), String>;

    /// The selection as made before decoding was lazy: every sidecar
    /// loaded and bound up front, then restored newest first.
    fn eager_selection(config: FarmConfig, path: &Path) -> Selection {
        let farm = Farm::new(config.clone(), bag()).unwrap();
        let shape = Shape::of(&farm);
        let records = read_journal(&StdVfs, path)
            .map_err(|e| e.to_string())?
            .records;
        let mut ring = Ring::scan(&StdVfs, path, shape);
        ring.load_all().count();
        let (base, base_hash, _) =
            segment_base(&StdVfs, path, &records, shape.header_line(), &mut ring)
                .map_err(|e| e.to_string())?;
        let candidates: Vec<_> = (ring.slots.into_iter())
            .map(|s| (s.generation, s.snap.unwrap()))
            .collect();
        let mut reject = (candidates.iter())
            .filter_map(|(_, s)| s.as_ref().err())
            .next_back()
            .map(SnapshotError::kind);
        let mut bound = Vec::new();
        for (g, snap) in candidates {
            if let Ok(snap) = snap {
                match bind(&snap, &records, base, base_hash) {
                    Ok(()) => bound.push((snap, g)),
                    Err((kind, _)) => reject = Some(kind),
                }
            }
        }
        let mut slots = vec![Slot::Empty; MAX_SNAPSHOT_RING as usize];
        for (snap, g) in &bound {
            slots[*g as usize] = Slot::Bound(snap.journal_records, snap.journal_hash);
        }
        let newest = (bound.iter())
            .map(|(s, g)| (s.journal_records, *g))
            .max()
            .map(|(_, g)| g);
        bound.sort_by(|(a, ga), (b, gb)| (b.journal_records, gb).cmp(&(a.journal_records, ga)));
        let restored = bound.into_iter().find_map(|(snap, g)| {
            let records_skipped = snap.journal_records;
            match snap.restore(config.clone()) {
                Ok(_) => Some((records_skipped, g)),
                Err(e) => {
                    reject = Some(e.kind());
                    None
                }
            }
        });
        if restored.is_none() && base > 0 {
            let reason = match reject {
                Some(kind) => {
                    format!("every retained snapshot generation was rejected (last: {kind})")
                }
                None => "no snapshot generation survives".into(),
            };
            return Err(JournalError::SegmentUnrecoverable { base, reason }.to_string());
        }
        let outcome = match restored {
            Some((records_skipped, generation)) => SnapshotOutcome::Used {
                records_skipped,
                generation,
            },
            None => reject.map_or(SnapshotOutcome::None, SnapshotOutcome::Fallback),
        };
        Ok((outcome, newest, slots))
    }

    /// [`recover`]'s lazy selection, with every slot it left unread
    /// decoded and bound the way the first GC cut there would.
    fn lazy_selection(config: FarmConfig, path: &Path) -> Selection {
        let rec =
            recover(config, bag(), path, &StdVfs, Start::Newest).map_err(|e| e.to_string())?;
        let slots = (rec.ring_meta.iter().enumerate())
            .map(|(g, slot)| match slot {
                Slot::Unread => late_bind(
                    &StdVfs,
                    path,
                    g as u32,
                    rec.shape,
                    &rec.verifier,
                    rec.base_hash,
                ),
                known => *known,
            })
            .collect();
        Ok((rec.outcome, rec.newest, slots))
    }

    /// Lazy decoding changes what recovery reads, never what it decides.
    /// Over the seeded sidecar mutations (bit flips, truncations, token
    /// edits, duplicated lines, behind a recomputed checksum or not), the
    /// forged counts and ids of the forged-sidecar drills, swapped and
    /// deleted generations and truncated journals, on a whole journal and a
    /// GC'd segment, the lazy selection gives today's eager one's outcome,
    /// restored generation, newest bound generation, per-slot GC view and
    /// error.
    #[test]
    fn lazy_selection_decides_what_the_eager_one_did() {
        // Forged values the drills use, each behind a fresh checksum.
        const FORGERIES: [(&str, &str); 4] = [
            ("\njournal records ", "18446744073709551615"),
            (" next_lease ", "1152921504606846975"),
            ("\ntask ", "1152921504606846975"),
            (" tasks ", "1152921504606846975"),
        ];
        // The body of a sidecar an earlier edit may have cut short.
        let strip = |text: &[u8]| text[..text.len().saturating_sub(26)].to_vec();
        let forge = |text: &[u8], key: &str, value: &str| -> Option<Vec<u8>> {
            let text = String::from_utf8(strip(text)).ok()?;
            let at = text.find(key)? + key.len();
            let end = at + text[at..].find([' ', '\n'])?;
            Some(with_checksum(
                format!("{}{value}{}", &text[..at], &text[end..]).as_bytes(),
            ))
        };
        let mut rng = StdRng::seed_from_u64(0x1a2e_5eed);
        let (mut used, mut fallback, mut failed) = (0, 0, 0);
        for (name, seed, gc) in [("lazy_whole", 67, false), ("lazy_gc", 71, true)] {
            let (path, _, _, _) = ring_fixture(name, seed, 3, gc);
            let journal = std::fs::read(&path).unwrap();
            let pristine: Vec<Vec<u8>> = (0..3)
                .map(|g| std::fs::read(ring_snapshot_path(&path, g)).unwrap())
                .collect();
            let records = journal.iter().filter(|&&b| b == b'\n').count();
            for case in 0..150u64 {
                let mut ring = pristine.clone();
                if case % 5 == 1 {
                    ring.swap(0, 1 + (rng.next_u64() % 2) as usize);
                }
                for sidecar in &mut ring {
                    match rng.next_u64() % 10 {
                        8 | 9 => {}
                        0..=3 => {
                            let mut mutated = strip(sidecar);
                            mutate(&mut mutated, &mut rng);
                            *sidecar = with_checksum(&mutated);
                        }
                        4 => mutate(sidecar, &mut rng),
                        5 => sidecar.clear(),
                        _ => {
                            let (key, value) = FORGERIES[(rng.next_u64() % 4) as usize];
                            if let Some(forged) = forge(sidecar, key, value) {
                                *sidecar = forged;
                            }
                        }
                    }
                }
                for (g, bytes) in ring.iter().enumerate() {
                    let p = ring_snapshot_path(&path, g as u32);
                    if bytes.is_empty() {
                        std::fs::remove_file(&p).ok();
                    } else {
                        std::fs::write(&p, bytes).unwrap();
                    }
                }
                if case % 4 == 3 {
                    let keep = records - 1 - (rng.next_u64() % (records as u64 / 2)) as usize;
                    truncate_to(&path, &journal, keep);
                } else {
                    std::fs::write(&path, &journal).unwrap();
                }
                let eager = eager_selection(faulty_config(seed), &path);
                let lazy = lazy_selection(faulty_config(seed), &path);
                assert_eq!(lazy, eager, "{name} case {case}");
                match eager {
                    Ok((SnapshotOutcome::Used { .. }, ..)) => used += 1,
                    Ok(_) => fallback += 1,
                    Err(_) => failed += 1,
                }
            }
            cleanup(&path);
        }
        // No outcome may be vacuous.
        assert!(
            used > 50 && fallback > 10 && failed > 10,
            "{used} used / {fallback} fallback / {failed} failed"
        );
    }
}
