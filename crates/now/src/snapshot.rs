//! Periodic state snapshots: the shortcut past redo replay that makes
//! crash recovery O(snapshot interval), and the fork points of time travel.
//!
//! # What a snapshot holds
//!
//! Everything the steppable engine (`FarmRun`) owns that the configuration
//! does not fix: the master and per-workstation fault RNG streams (raw
//! xoshiro256** words), the event queue as `farm::Event`s in pop order,
//! the task bag's raw parts, the lease table, the banked ids, and each
//! workstation's episode/quarantine/backoff/crash cursors, policy state
//! ([`cs_sim::policy::ChunkPolicy::save_state`]) and stats. Floats are
//! written as `f64::to_bits` hex, so a restored run continues the exact
//! event and RNG trajectory of the original. `FarmSnapshot` is plain
//! data: it decodes without a [`FarmConfig`], so [`inspect_snapshot`] and
//! the farm check before restore read it as it is on disk.
//!
//! # Format, versioning, integrity
//!
//! A sidecar (`<journal>.snap` or ring generation `<journal>.snap.<g>`)
//! is a line-oriented text file opening with the banner
//! `cs-now-snapshot v1` and closing with an FNV-1a 64 checksum of the
//! bytes before it. Its `journal` line binds it to a committed journal
//! prefix (record count plus a running FNV-1a hash of those records), so
//! it is never applied to a journal it does not describe. Every failure —
//! version, parse, checksum, binding, foreign farm, a count or id its own
//! contents contradict — is a typed [`SnapshotError`], which recovery
//! reports as [`SnapshotOutcome::Fallback`]. One writer and one strict
//! parser serve this file and the `.seg` segment metadata: the parser
//! accepts exactly the bytes the writer writes. Sidecars are published
//! atomically (temp file, fsync, rename).
//!
//! A snapshot is also a fork point: [`Farm::fork_from_snapshot`] restores
//! it under a perturbed configuration (say another [`crate::FaultPlan`])
//! and plays the rest of the run as a what-if.

use crate::equeue::{cmp_events, EventQueue};
use crate::farm::{
    BankedSet, Engine, Event, EventKind, Farm, FarmConfig, FarmReport, FarmRun, Lease, LeaseTable,
    WorkstationState, WorkstationStats, WsTable,
};
use cs_obs::vfs::{StdVfs, Vfs};
use cs_obs::{NoopSink, SpanId, SpanProfiler};
use cs_tasks::{Chunk, Task, TaskBag, TaskBagState};
use rand::rngs::StdRng;
use std::fmt;
use std::path::{Path, PathBuf};

/// Version banner every snapshot opens with; restore refuses others.
pub const SNAPSHOT_VERSION: &str = "cs-now-snapshot v1";

/// FNV-1a 64 offset basis — the hash of the empty byte string.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Extends a running FNV-1a 64 hash with `bytes`. Seed with
/// [`FNV_OFFSET`].
pub(crate) fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The sidecar path for a journal: `<journal>.snap` next to the journal
/// file.
pub fn default_snapshot_path(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_os_string();
    name.push(".snap");
    PathBuf::from(name)
}

/// The sidecar path of ring generation `g`: `<journal>.snap.<g>`. A
/// snapshot ring of size N cycles generations `0..N`; ring size 1 uses
/// the legacy un-numbered [`default_snapshot_path`].
pub fn ring_snapshot_path(journal: &Path, generation: u32) -> PathBuf {
    let mut name = journal.as_os_str().to_os_string();
    name.push(format!(".snap.{generation}"));
    PathBuf::from(name)
}

/// The segment-metadata path for a journal: `<journal>.seg`. Present only
/// after journal-prefix GC has rotated the journal into a segment; records
/// how many records were truncated and the running hash at the cut.
pub fn segment_meta_path(journal: &Path) -> PathBuf {
    let mut name = journal.as_os_str().to_os_string();
    name.push(".seg");
    PathBuf::from(name)
}

/// The temp path a given sidecar/segment file is staged at before its
/// atomic rename (`<path>.tmp`).
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Why a snapshot could not be written, read or applied. Resume treats
/// every variant as a *soft* failure: it logs the typed reason and falls
/// back to full redo replay (see [`SnapshotOutcome::Fallback`]).
#[derive(Debug)]
pub enum SnapshotError {
    /// Reading or writing the sidecar failed.
    Io(std::io::Error),
    /// The file does not open with [`SNAPSHOT_VERSION`].
    Version {
        /// The banner actually found (truncated for display).
        found: String,
    },
    /// A line failed to parse.
    Malformed {
        /// 1-based line number.
        line: u64,
        /// What was wrong.
        reason: String,
    },
    /// The snapshot parses, but a count it would be restored from
    /// contradicts the snapshot's own contents (a forged `tasks` or
    /// `next_lease`).
    Inconsistent {
        /// Which count, and what bounds it.
        reason: String,
    },
    /// The trailing FNV-1a checksum does not match the body.
    Checksum {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
    /// The snapshot describes a different farm (seed, workstation count or
    /// task count disagree with the resuming configuration).
    FarmMismatch {
        /// Which field disagreed.
        reason: String,
    },
    /// The snapshot binds to more journal records than the journal holds —
    /// the journal was truncated behind the snapshot's back (e.g. a crash
    /// discarded fsync-pending records the snapshot had already seen).
    JournalAhead {
        /// Records the snapshot binds to.
        snapshot_records: u64,
        /// Committed records actually in the journal.
        journal_records: u64,
    },
    /// The journal prefix the snapshot binds to hashes differently — the
    /// sidecar belongs to some other journal with the same length.
    JournalMismatch {
        /// Length of the mismatching prefix.
        records: u64,
    },
}

/// [`SnapshotError`] collapsed to a `Copy` discriminant, carried in
/// [`SnapshotOutcome::Fallback`] so [`crate::RecoveryInfo`] stays `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotErrorKind {
    /// Sidecar I/O failed.
    Io,
    /// Unknown version banner.
    Version,
    /// Parse failure.
    Malformed,
    /// A count contradicts the snapshot's contents.
    Inconsistent,
    /// Body checksum mismatch.
    Checksum,
    /// Snapshot belongs to a different farm.
    FarmMismatch,
    /// Snapshot ahead of the (truncated) journal.
    JournalAhead,
    /// Journal-prefix hash mismatch.
    JournalMismatch,
}

impl SnapshotError {
    /// The `Copy` discriminant of this error.
    pub fn kind(&self) -> SnapshotErrorKind {
        match self {
            SnapshotError::Io(_) => SnapshotErrorKind::Io,
            SnapshotError::Version { .. } => SnapshotErrorKind::Version,
            SnapshotError::Malformed { .. } => SnapshotErrorKind::Malformed,
            SnapshotError::Inconsistent { .. } => SnapshotErrorKind::Inconsistent,
            SnapshotError::Checksum { .. } => SnapshotErrorKind::Checksum,
            SnapshotError::FarmMismatch { .. } => SnapshotErrorKind::FarmMismatch,
            SnapshotError::JournalAhead { .. } => SnapshotErrorKind::JournalAhead,
            SnapshotError::JournalMismatch { .. } => SnapshotErrorKind::JournalMismatch,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::Version { found } => write!(
                f,
                "unknown snapshot version: expected {SNAPSHOT_VERSION:?}, found {found:?}"
            ),
            SnapshotError::Malformed { line, reason } => {
                write!(f, "malformed snapshot at line {line}: {reason}")
            }
            SnapshotError::Inconsistent { reason } => {
                write!(f, "inconsistent snapshot: {reason}")
            }
            SnapshotError::Checksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch: recorded {expected:016x}, body hashes to {found:016x}"
            ),
            SnapshotError::FarmMismatch { reason } => {
                write!(f, "snapshot belongs to a different farm: {reason}")
            }
            SnapshotError::JournalAhead {
                snapshot_records,
                journal_records,
            } => write!(
                f,
                "snapshot binds to {snapshot_records} journal records but the journal holds only \
                 {journal_records}"
            ),
            SnapshotError::JournalMismatch { records } => write!(
                f,
                "snapshot does not bind to this journal: the {records}-record prefix hashes \
                 differently"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl fmt::Display for SnapshotErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SnapshotErrorKind::Io => "io",
            SnapshotErrorKind::Version => "version",
            SnapshotErrorKind::Malformed => "malformed",
            SnapshotErrorKind::Inconsistent => "inconsistent",
            SnapshotErrorKind::Checksum => "checksum",
            SnapshotErrorKind::FarmMismatch => "farm-mismatch",
            SnapshotErrorKind::JournalAhead => "journal-ahead",
            SnapshotErrorKind::JournalMismatch => "journal-mismatch",
        };
        f.write_str(s)
    }
}

/// How [`Farm::resume`] used (or failed to use) the snapshot sidecar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SnapshotOutcome {
    /// No sidecar was present: recovery was full redo replay.
    #[default]
    None,
    /// The snapshot restored cleanly; this many committed records were
    /// skipped instead of re-executed.
    Used {
        /// Journal records covered by the snapshot (not replayed).
        records_skipped: u64,
    },
    /// A sidecar was present but rejected for the given reason; recovery
    /// fell back to full redo replay. The run still finishes bitwise-exact.
    Fallback(SnapshotErrorKind),
}

/// Summary of a snapshot sidecar: the farm it belongs to and where in the
/// run it was taken. Returned by [`inspect_snapshot`] and
/// [`Farm::fork_from_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotMeta {
    /// Seed of the snapshotted run.
    pub seed: u64,
    /// Workstation count.
    pub workstations: u64,
    /// Initial task count.
    pub tasks: u64,
    /// Committed journal records the snapshot covers.
    pub journal_records: u64,
    /// Virtual time of the last event handled before the snapshot.
    pub virtual_time: f64,
}

/// Reads and validates (version, parse, checksum) a sidecar, returning its
/// metadata without restoring anything.
pub fn inspect_snapshot(path: impl AsRef<Path>) -> Result<SnapshotMeta, SnapshotError> {
    let snap = FarmSnapshot::decode(&std::fs::read(path)?)?;
    Ok(snap.meta())
}

// ---------------------------------------------------------------------------
// The structured snapshot
// ---------------------------------------------------------------------------

/// One serialized lease-table entry.
#[derive(Debug, Clone)]
pub(crate) struct LeaseSnap {
    pub(crate) lease: u64,
    pub(crate) ws: u64,
    pub(crate) expiry: f64,
    pub(crate) arrives: bool,
    pub(crate) expired: bool,
    pub(crate) replicas: u32,
    pub(crate) tasks: Vec<Task>,
}

/// One serialized workstation: cursors, fault stream, policy state, stats.
#[derive(Debug, Clone)]
pub(crate) struct WsSnap {
    pub(crate) episode_start: f64,
    pub(crate) reclaim_at: f64,
    pub(crate) crash_at: f64,
    pub(crate) quarantined_until: f64,
    pub(crate) fault_rng: [u64; 4],
    pub(crate) crashed: bool,
    pub(crate) fail_streak: u32,
    pub(crate) backoff_pending: bool,
    pub(crate) policy_state: Vec<u8>,
    pub(crate) stats: WorkstationStats,
}

/// The complete captured state of a [`FarmRun`] between two queue events,
/// in the [aero `virtual_time`] `save_state`/`restore_state` shape: a plain
/// data struct the engine can be rebuilt from.
///
/// [aero `virtual_time`]: https://github.com/wilsonzlin/aero
#[derive(Debug, Clone)]
pub(crate) struct FarmSnapshot {
    pub(crate) seed: u64,
    pub(crate) workstations: u64,
    pub(crate) tasks: u64,
    /// Committed journal records this snapshot covers.
    pub(crate) journal_records: u64,
    /// FNV-1a 64 over those records' bytes (each line plus `\n`).
    pub(crate) journal_hash: u64,
    /// Virtual time of the last handled event.
    pub(crate) now: f64,
    pub(crate) rng: [u64; 4],
    pub(crate) makespan: f64,
    pub(crate) next_lease: u64,
    pub(crate) bag: TaskBagState,
    pub(crate) banked: Vec<u64>,
    /// The pending events in ascending `(time, rank)` pop order.
    pub(crate) queue: Vec<Event>,
    pub(crate) leases: Vec<LeaseSnap>,
    pub(crate) ws: Vec<WsSnap>,
}

impl FarmSnapshot {
    pub(crate) fn meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            seed: self.seed,
            workstations: self.workstations,
            tasks: self.tasks,
            journal_records: self.journal_records,
            virtual_time: self.now,
        }
    }
}

impl FarmRun {
    /// Captures the run's complete state, bound to the journal prefix of
    /// `journal_records` records hashing to `journal_hash`.
    pub(crate) fn save_state(&self, journal_records: u64, journal_hash: u64) -> FarmSnapshot {
        // The heap serializes as its ascending pop order. The event order
        // is total and ties are content-identical, so rebuilding a heap
        // from this list pops the exact same event sequence.
        let mut queue: Vec<Event> = self.eng.queue.iter().copied().collect();
        queue.sort_by(cmp_events);
        // The banked set iterates ascending already, which keeps identical
        // states producing identical bytes (it is only ever
        // membership-tested at runtime).
        let banked: Vec<u64> = self.eng.banked.iter().collect();
        let leases = self
            .eng
            .in_flight
            .iter()
            .map(|(lease, l)| LeaseSnap {
                lease,
                ws: l.ws as u64,
                expiry: l.expiry,
                arrives: l.arrives,
                expired: l.expired,
                replicas: l.replicas,
                tasks: l.chunk.tasks().to_vec(),
            })
            .collect();
        let ws = (0..self.states.len())
            .map(|i| WsSnap {
                episode_start: self.states.episode_start[i],
                reclaim_at: self.states.reclaim_at[i],
                crash_at: self.states.crash_at[i],
                quarantined_until: self.states.quarantined_until[i],
                fault_rng: self.states.fault_rng[i].state(),
                crashed: self.states.crashed[i],
                fail_streak: self.states.fail_streak[i],
                backoff_pending: self.states.backoff_pending[i],
                policy_state: self.states.policy[i].save_state(),
                stats: self.states.stats[i],
            })
            .collect();
        FarmSnapshot {
            seed: self.config.seed,
            workstations: self.config.workstations.len() as u64,
            tasks: self.initial_tasks as u64,
            journal_records,
            journal_hash,
            now: self.now,
            rng: self.eng.rng.state(),
            makespan: self.eng.makespan,
            next_lease: self.eng.in_flight.next_id(),
            bag: self.eng.bag.save_state(),
            banked,
            queue,
            leases,
            ws,
        }
    }
}

impl FarmSnapshot {
    /// Rebuilds a paused [`FarmRun`] under `config`. The configuration must
    /// describe the same farm *shape* (workstation count); everything else
    /// — including the fault plans, for what-if forking — is taken from
    /// `config`, while all captured state comes from the snapshot.
    pub(crate) fn restore(self, config: FarmConfig) -> Result<FarmRun, SnapshotError> {
        config.validate().map_err(|e| SnapshotError::FarmMismatch {
            reason: format!("restore configuration is invalid: {e}"),
        })?;
        if config.workstations.len() as u64 != self.workstations {
            return Err(SnapshotError::FarmMismatch {
                reason: format!(
                    "snapshot has {} workstations, configuration has {}",
                    self.workstations,
                    config.workstations.len()
                ),
            });
        }
        self.check_counts()?;
        let mut storms = config.storms.clone();
        storms.sort_by(f64::total_cmp);
        let queue: EventQueue = self.queue.into_iter().collect();
        // Tombstones first so already-retired lease ids stay retired, then
        // place each live lease back at its captured id.
        let mut in_flight = LeaseTable::with_tombstones(self.next_lease);
        for l in self.leases {
            in_flight.place(
                l.lease,
                Lease {
                    ws: l.ws as usize,
                    chunk: Chunk::from_tasks(l.tasks),
                    expiry: l.expiry,
                    arrives: l.arrives,
                    expired: l.expired,
                    replicas: l.replicas,
                },
            );
        }
        let mut banked = BankedSet::with_bits(self.tasks);
        for id in self.banked {
            banked.insert(id);
        }
        let eng = Engine {
            bag: TaskBag::restore_state(self.bag),
            queue,
            rng: StdRng::from_state(self.rng),
            storms,
            in_flight,
            banked,
            makespan: self.makespan,
            free_bufs: Vec::new(),
        };
        let mut caches = cs_scenarios::PolicyCaches::new();
        let mut states = WsTable::with_capacity(self.ws.len());
        for (w, wc) in self.ws.into_iter().zip(&config.workstations) {
            let mut policy = wc
                .policy
                .build_shared(wc.believed.clone(), wc.c, &mut caches);
            policy.restore_state(&w.policy_state);
            states.push(WorkstationState {
                policy,
                episode_start: w.episode_start,
                reclaim_at: w.reclaim_at,
                fault_rng: StdRng::from_state(w.fault_rng),
                crash_at: w.crash_at,
                crashed: w.crashed,
                fail_streak: w.fail_streak,
                backoff_pending: w.backoff_pending,
                quarantined_until: w.quarantined_until,
                stats: w.stats,
            });
        }
        Ok(FarmRun {
            initial_tasks: self.tasks as usize,
            config,
            eng,
            states,
            now: self.now,
            root_span: SpanId::NONE,
        })
    }

    /// Checks the counts and ids `restore` sizes allocations from against
    /// bounds the snapshot itself implies, so a forged value is a typed
    /// error instead of an allocation failure:
    /// - every task of the run is pending, leased or banked, so `tasks` is
    ///   at most the task entries the snapshot holds;
    /// - the bag assigns ids below its `next_id`, so every pending, leased
    ///   and banked id is below it (`next_id` itself sizes nothing: the
    ///   banked set keys ids past the run's task count sparsely);
    /// - every lease is issued for a chunk its workstation counts as lost
    ///   in transit, lost to a crash or straggling, so `next_lease` is at
    ///   most the sum of those counters.
    fn check_counts(&self) -> Result<(), SnapshotError> {
        let held = self.bag.pending.len()
            + self.leases.iter().map(|l| l.tasks.len()).sum::<usize>()
            + self.banked.len();
        if self.tasks > held as u64 {
            return Err(SnapshotError::Inconsistent {
                reason: format!(
                    "tasks {} exceeds the {held} pending, leased and banked tasks it holds",
                    self.tasks
                ),
            });
        }
        let next_id = self.bag.next_id;
        let leased = self.leases.iter().flat_map(|l| &l.tasks);
        let ids = self.bag.pending.iter().chain(leased).map(|t| t.id);
        if let Some(id) = ids
            .chain(self.banked.iter().copied())
            .find(|&id| id >= next_id)
        {
            return Err(SnapshotError::Inconsistent {
                reason: format!("task id {id} is not below the bag's next_id {next_id}"),
            });
        }
        let issued = self
            .ws
            .iter()
            .flat_map(|w| {
                let s = &w.stats;
                [s.messages_lost, s.chunks_lost, s.straggled_chunks]
            })
            .fold(0u64, u64::saturating_add);
        if self.next_lease > issued {
            return Err(SnapshotError::Inconsistent {
                reason: format!(
                    "next_lease {} exceeds the {issued} chunks its workstations lost or \
                     straggled",
                    self.next_lease
                ),
            });
        }
        Ok(())
    }

    // -- text encoding ------------------------------------------------------

    /// Serializes to the versioned, checksummed line format: one pass, every
    /// token written straight into one buffer.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(SNAPSHOT_VERSION);
        w.dec("meta seed ", self.seed)
            .dec(" workstations ", self.workstations)
            .dec(" tasks ", self.tasks)
            .dec("\njournal records ", self.journal_records)
            .hex(" hash ", self.journal_hash)
            .bits("\nclock now ", self.now)
            .bits(" makespan ", self.makespan)
            .lit("\nrng");
        for word in self.rng {
            w.hex(" ", word);
        }
        let bag = &self.bag;
        w.dec("\nbag next_id ", bag.next_id)
            .dec(" completed_tasks ", bag.completed_tasks)
            .bits(" completed_work ", bag.completed_work)
            .bits(" lost_work ", bag.lost_work)
            .dec(" pending ", bag.pending.len() as u64);
        for t in &bag.pending {
            w.dec("\ntask ", t.id).bits(" ", t.duration);
        }
        w.dec("\nbanked ", self.banked.len() as u64);
        for line in self.banked.chunks(IDS_PER_LINE) {
            w.lit("\nids");
            for &id in line {
                w.dec(" ", id);
            }
        }
        w.dec("\nqueue ", self.queue.len() as u64)
            .dec(" next_lease ", self.next_lease);
        for e in &self.queue {
            let (tag, id) = e.kind.rank();
            w.bits("\nevent ", e.time).dec(" ", tag.into()).dec(" ", id);
        }
        w.dec("\nleases ", self.leases.len() as u64);
        for l in &self.leases {
            w.dec("\nlease ", l.lease)
                .dec(" ws ", l.ws)
                .bits(" expiry ", l.expiry)
                .flag(" arrives ", l.arrives)
                .flag(" expired ", l.expired)
                .dec(" replicas ", l.replicas.into())
                .dec(" tasks ", l.tasks.len() as u64);
            for t in &l.tasks {
                w.dec(" ", t.id).bits(":", t.duration);
            }
        }
        for (i, ws) in self.ws.iter().enumerate() {
            w.dec("\nws ", i as u64)
                .bits(" episode_start ", ws.episode_start)
                .bits(" reclaim_at ", ws.reclaim_at)
                .bits(" crash_at ", ws.crash_at)
                .bits(" quarantined_until ", ws.quarantined_until)
                .flag(" crashed ", ws.crashed)
                .dec(" fail_streak ", ws.fail_streak.into())
                .flag(" backoff ", ws.backoff_pending)
                .lit(" frng");
            for word in ws.fault_rng {
                w.hex(" ", word);
            }
            w.bytes(" policy ", &ws.policy_state);
            let st = &ws.stats;
            w.dec("\nstats ", i as u64);
            for v in [st.completed_work, st.lost_work, st.duplicate_work] {
                w.bits(" ", v);
            }
            for v in [
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
            ] {
                w.dec(" ", v);
            }
        }
        w.finish()
    }

    /// Parses and integrity-checks the line format. The parser is strict:
    /// it accepts exactly the bytes [`FarmSnapshot::encode`] writes, and
    /// every count is checked against the input before it sizes anything.
    pub(crate) fn decode(text: &[u8]) -> Result<Self, SnapshotError> {
        let mut p = Parser::framed(text, SNAPSHOT_VERSION)?;
        let seed = p.dec("meta seed ")?;
        let workstations = p.dec(" workstations ")?;
        let tasks = p.dec(" tasks ")?;
        let journal_records = p.dec("\njournal records ")?;
        let journal_hash = p.hex(" hash ")?;
        let now = p.bits("\nclock now ")?;
        let makespan = p.bits(" makespan ")?;
        let rng = [p.hex("\nrng ")?, p.hex(" ")?, p.hex(" ")?, p.hex(" ")?];
        let next_id = p.dec("\nbag next_id ")?;
        let completed_tasks = p.dec(" completed_tasks ")?;
        let completed_work = p.bits(" completed_work ")?;
        let lost_work = p.bits(" lost_work ")?;
        let (n_pending, mut pending) = p.vec(" pending ")?;
        for _ in 0..n_pending {
            pending.push(Task {
                id: p.dec("\ntask ")?,
                duration: p.bits(" ")?,
            });
        }
        let (n_banked, mut banked) = p.vec::<u64>("\nbanked ")?;
        while banked.len() < n_banked {
            p.lit("\nids")?;
            for _ in 0..IDS_PER_LINE.min(n_banked - banked.len()) {
                let id = p.dec(" ")?;
                if banked.last().is_some_and(|&prev| id <= prev) {
                    return Err(p.malformed("banked ids not strictly ascending"));
                }
                banked.push(id);
            }
        }
        let (n_queue, mut queue) = p.vec("\nqueue ")?;
        let next_lease = p.dec(" next_lease ")?;
        for _ in 0..n_queue {
            let time = p.bits("\nevent ")?;
            let tag: u8 = p.narrow(" ")?;
            let id = p.dec(" ")?;
            let kind = match tag {
                0 => EventKind::Arrival(id),
                1 => EventKind::LeaseExpiry(id),
                2 if id < workstations => EventKind::Dispatch(id as usize),
                _ => return Err(p.malformed("event tag or workstation out of range")),
            };
            queue.push(Event { time, kind });
        }
        let (n_leases, mut leases) = p.vec::<LeaseSnap>("\nleases ")?;
        for _ in 0..n_leases {
            let lease = p.below("\nlease ", next_lease)?;
            if leases.last().is_some_and(|prev| lease <= prev.lease) {
                return Err(p.malformed("lease ids not strictly ascending"));
            }
            leases.push(LeaseSnap {
                lease,
                ws: p.below(" ws ", workstations)?,
                expiry: p.bits(" expiry ")?,
                arrives: p.flag(" arrives ")?,
                expired: p.flag(" expired ")?,
                replicas: p.narrow(" replicas ")?,
                tasks: {
                    let (n_tasks, mut tasks) = p.vec(" tasks ")?;
                    for _ in 0..n_tasks {
                        tasks.push(Task {
                            id: p.dec(" ")?,
                            duration: p.bits(":")?,
                        });
                    }
                    tasks
                },
            });
        }
        let mut ws = p.alloc(workstations);
        for i in 0..workstations {
            p.index("\nws ", i)?;
            ws.push(WsSnap {
                episode_start: p.bits(" episode_start ")?,
                reclaim_at: p.bits(" reclaim_at ")?,
                crash_at: p.bits(" crash_at ")?,
                quarantined_until: p.bits(" quarantined_until ")?,
                crashed: p.flag(" crashed ")?,
                fail_streak: p.narrow(" fail_streak ")?,
                backoff_pending: p.flag(" backoff ")?,
                fault_rng: [p.hex(" frng ")?, p.hex(" ")?, p.hex(" ")?, p.hex(" ")?],
                policy_state: p.bytes(" policy ")?,
                stats: {
                    p.index("\nstats ", i)?;
                    WorkstationStats {
                        completed_work: p.bits(" ")?,
                        lost_work: p.bits(" ")?,
                        duplicate_work: p.bits(" ")?,
                        chunks_completed: p.dec(" ")?,
                        chunks_lost: p.dec(" ")?,
                        episodes: p.dec(" ")?,
                        idle_periods: p.dec(" ")?,
                        messages_lost: p.dec(" ")?,
                        straggled_chunks: p.dec(" ")?,
                        crashes: p.dec(" ")?,
                        storm_kills: p.dec(" ")?,
                        lease_timeouts: p.dec(" ")?,
                        backoff_delays: p.dec(" ")?,
                        quarantines: p.dec(" ")?,
                        replicas_dispatched: p.dec(" ")?,
                        late_banks: p.dec(" ")?,
                    }
                },
            });
        }
        p.finish()?;
        Ok(FarmSnapshot {
            seed,
            workstations,
            tasks,
            journal_records,
            journal_hash,
            now,
            rng,
            makespan,
            next_lease,
            bag: TaskBagState {
                pending,
                next_id,
                completed_tasks,
                completed_work,
                lost_work,
            },
            banked,
            queue,
            leases,
            ws,
        })
    }

    /// Reads and fully validates a sidecar file through `vfs`.
    pub(crate) fn load_with(vfs: &dyn Vfs, path: &Path) -> Result<Self, SnapshotError> {
        Self::decode(&vfs.read(path)?)
    }
}

/// Stages `bytes` at `<path>.tmp`, fsyncs, then renames over `path`. The
/// shared atomic-publish primitive for snapshot sidecars and segment
/// metadata.
pub(crate) fn write_atomic_bytes(
    vfs: &dyn Vfs,
    path: &Path,
    bytes: &[u8],
) -> Result<(), SnapshotError> {
    let tmp = tmp_path(path);
    {
        let mut f = vfs.create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    vfs.rename(&tmp, path)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Segment metadata: the journal's GC cut point
// ---------------------------------------------------------------------------

/// Version banner of the segment-metadata sidecar.
pub const SEGMENT_VERSION: &str = "cs-now-segment v1";

/// Where a GC'd journal *segment* starts in the full record stream.
///
/// After journal-prefix GC the journal file no longer begins at record 1:
/// the records a retained snapshot makes redundant have been truncated,
/// and this tiny checksummed sidecar (`<journal>.seg`, see
/// [`segment_meta_path`]) records the cut — how many records were
/// dropped, the running journal FNV hash at the cut (so ring generations
/// still bind by hash extension), and the hash of the segment's first
/// surviving record line (so a stale sidecar from a crash between the two
/// GC renames is *detected*, never silently trusted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Records truncated before the segment (the absolute index of the
    /// segment's first record).
    pub base_records: u64,
    /// Running FNV-1a 64 journal hash over the truncated prefix (each
    /// record line plus `\n`), i.e. the hash a snapshot at the cut binds
    /// to.
    pub base_hash: u64,
    /// FNV-1a 64 (from the standard offset basis) of the segment's first
    /// record line plus `\n`, or `None` when the segment was empty at the
    /// cut.
    pub first_record_hash: Option<u64>,
}

impl SegmentMeta {
    /// Serializes to the versioned, checksummed line format.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(SEGMENT_VERSION);
        w.dec("base records ", self.base_records)
            .hex(" hash ", self.base_hash);
        match self.first_record_hash {
            Some(h) => w.hex("\nfirst ", h),
            None => w.lit("\nfirst -"),
        };
        w.finish()
    }

    /// Parses and integrity-checks the line format, accepting exactly the
    /// bytes [`SegmentMeta::encode`] writes.
    pub(crate) fn decode(text: &[u8]) -> Result<Self, SnapshotError> {
        let mut p = Parser::framed(text, SEGMENT_VERSION)?;
        let base_records = p.dec("base records ")?;
        let base_hash = p.hex(" hash ")?;
        let first_record_hash = if p.eat("\nfirst -") {
            None
        } else {
            Some(p.hex("\nfirst ")?)
        };
        p.finish()?;
        Ok(SegmentMeta {
            base_records,
            base_hash,
            first_record_hash,
        })
    }

    /// Atomically publishes the metadata at `path`.
    pub(crate) fn store(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), SnapshotError> {
        write_atomic_bytes(vfs, path, &self.encode())
    }

    /// Loads and validates the metadata at `path`.
    pub(crate) fn load(vfs: &dyn Vfs, path: &Path) -> Result<Self, SnapshotError> {
        Self::decode(&vfs.read(path)?)
    }

    /// True when `record` (the segment's actual first line, without the
    /// newline) matches the recorded first-record hash — the staleness
    /// check that detects a crash between the journal rename and the
    /// metadata rename.
    pub(crate) fn matches_first(&self, record: Option<&str>) -> bool {
        match (self.first_record_hash, record) {
            (None, None) => true,
            (Some(expected), Some(line)) => {
                let h = fnv1a64(fnv1a64(FNV_OFFSET, line.as_bytes()), b"\n");
                h == expected
            }
            _ => false,
        }
    }

    /// Builds the metadata for a cut at `base_records`/`base_hash` with
    /// the given first surviving record line (if any).
    pub(crate) fn for_cut(base_records: u64, base_hash: u64, first_record: Option<&str>) -> Self {
        SegmentMeta {
            base_records,
            base_hash,
            first_record_hash: first_record
                .map(|line| fnv1a64(fnv1a64(FNV_OFFSET, line.as_bytes()), b"\n")),
        }
    }
}

impl Farm {
    /// Time-travel forking: restores the snapshot at `snap_path` under
    /// `config` — the original scenario, or one with a **perturbed**
    /// [`crate::FaultPlan`] — and plays the rest of the run to completion as
    /// a what-if. With the original configuration the returned report is
    /// bitwise identical to the run the snapshot was taken from; with a
    /// perturbed one it answers "how would the rest of this very run have
    /// gone under different faults?" from the exact captured state (bag,
    /// leases, RNG cursors and all).
    ///
    /// The farm *shape* must match (workstation count, and the same
    /// believed life functions if reports are to be comparable); seed and
    /// fault plans are free to differ. Nothing is journaled.
    pub fn fork_from_snapshot(
        config: FarmConfig,
        snap_path: impl AsRef<Path>,
    ) -> Result<(FarmReport, SnapshotMeta), SnapshotError> {
        let snap = FarmSnapshot::load_with(&StdVfs, snap_path.as_ref())?;
        let meta = snap.meta();
        let mut run = snap.restore(config)?;
        let mut sink = NoopSink;
        let mut prof = SpanProfiler::disabled();
        while run.step(&mut sink, &mut prof) {}
        Ok((run.finish(&mut sink, &mut prof), meta))
    }
}

// -- the codec: one writer, one strict parser ------------------------------

/// Banked ids per `ids` line.
const IDS_PER_LINE: usize = 64;

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// One-pass writer for the sidecar line formats. Every value is written
/// with the literal key that precedes it, straight into one buffer; the
/// [`Parser`] reads the same `(key, value)` sequence back.
struct Writer(Vec<u8>);

impl Writer {
    /// Starts a file with its version banner line.
    fn new(banner: &str) -> Self {
        let mut w = Writer(Vec::with_capacity(4096));
        w.lit(banner).lit("\n");
        w
    }

    fn lit(&mut self, s: &str) -> &mut Self {
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    /// `key`, then `v` in decimal.
    fn dec(&mut self, key: &str, mut v: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut i = digits.len();
        loop {
            i -= 1;
            digits[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.lit(key).0.extend_from_slice(&digits[i..]);
        self
    }

    /// `key`, then `v` as 16 lowercase hex digits.
    fn hex(&mut self, key: &str, v: u64) -> &mut Self {
        let mut digits = [0u8; 16];
        for (i, d) in digits.iter_mut().enumerate() {
            *d = HEX_DIGITS[(v >> (60 - 4 * i)) as usize & 0xf];
        }
        self.lit(key).0.extend_from_slice(&digits);
        self
    }

    /// Bitwise-exact float: `key`, then `f64::to_bits` as 16 hex digits.
    fn bits(&mut self, key: &str, v: f64) -> &mut Self {
        self.hex(key, v.to_bits())
    }

    fn flag(&mut self, key: &str, b: bool) -> &mut Self {
        self.lit(key).lit(if b { "1" } else { "0" })
    }

    /// `key`, then the bytes as hex pairs, or `-` when empty.
    fn bytes(&mut self, key: &str, bytes: &[u8]) -> &mut Self {
        self.lit(key);
        if bytes.is_empty() {
            self.lit("-");
        }
        for &b in bytes {
            self.0.push(HEX_DIGITS[usize::from(b >> 4)]);
            self.0.push(HEX_DIGITS[usize::from(b & 0xf)]);
        }
        self
    }

    /// Ends the last line and appends the FNV-1a checksum trailer.
    fn finish(mut self) -> Vec<u8> {
        self.lit("\n");
        let checksum = fnv1a64(FNV_OFFSET, &self.0);
        self.hex("checksum ", checksum).lit("\n");
        self.0
    }
}

/// Streaming, strict parser for what [`Writer`] writes: every key must
/// match byte for byte, decimals are canonical (no sign, no leading zero,
/// no overflow) and hex fields are exactly 16 lowercase digits.
struct Parser<'a> {
    text: &'a [u8],
    pos: usize,
    /// End of the checksummed body.
    end: usize,
}

/// `checksum <16 hex digits>\n`.
const TRAILER_LEN: usize = 26;

impl<'a> Parser<'a> {
    /// Verifies the checksum trailer and the version banner, returning a
    /// parser positioned at the first body line.
    fn framed(text: &'a [u8], banner: &str) -> Result<Self, SnapshotError> {
        let mut p = Parser {
            text,
            pos: text.len(),
            end: text.len(),
        };
        let body_end = text
            .len()
            .checked_sub(TRAILER_LEN)
            .filter(|&e| e > 0 && text[e - 1] == b'\n')
            .ok_or_else(|| p.malformed("missing trailing checksum line"))?;
        p.pos = body_end;
        let expected = p.hex("checksum ")?;
        p.lit("\n")?;
        let found = fnv1a64(FNV_OFFSET, &text[..body_end]);
        if expected != found {
            return Err(SnapshotError::Checksum { expected, found });
        }
        let first = text.iter().position(|&b| b == b'\n').unwrap_or(0);
        if &text[..first] != banner.as_bytes() {
            return Err(SnapshotError::Version {
                found: String::from_utf8_lossy(&text[..first])
                    .chars()
                    .take(40)
                    .collect(),
            });
        }
        p.pos = first + 1;
        p.end = body_end;
        Ok(p)
    }

    /// A typed parse error at the current position (1-based line).
    fn malformed(&self, reason: &str) -> SnapshotError {
        let line = 1 + self.text[..self.pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        SnapshotError::Malformed {
            line: line as u64,
            reason: reason.into(),
        }
    }

    fn rest(&self) -> &'a [u8] {
        &self.text[self.pos..self.end]
    }

    /// Consumes `s` if the input continues with it.
    fn eat(&mut self, s: &str) -> bool {
        let found = self.rest().starts_with(s.as_bytes());
        if found {
            self.pos += s.len();
        }
        found
    }

    fn lit(&mut self, s: &str) -> Result<(), SnapshotError> {
        if self.eat(s) {
            return Ok(());
        }
        // Point the error at the first differing byte.
        self.pos += s
            .bytes()
            .zip(self.rest())
            .take_while(|(a, b)| a == *b)
            .count();
        Err(self.malformed(&format!("expected {s:?}")))
    }

    /// `key`, then a canonical decimal `u64`.
    fn dec(&mut self, key: &str) -> Result<u64, SnapshotError> {
        self.lit(key)?;
        let digits = self
            .rest()
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let tok = &self.rest()[..digits];
        if digits == 0 || (tok[0] == b'0' && digits > 1) {
            return Err(self.malformed("expected a canonical decimal"));
        }
        let v = tok.iter().try_fold(0u64, |v, &d| {
            v.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        });
        let v = v.ok_or_else(|| self.malformed("decimal overflows u64"))?;
        self.pos += digits;
        Ok(v)
    }

    /// `key`, then a decimal checked to fit `T`.
    fn narrow<T: TryFrom<u64>>(&mut self, key: &str) -> Result<T, SnapshotError> {
        let v = self.dec(key)?;
        T::try_from(v).map_err(|_| self.malformed("value out of range"))
    }

    /// `key`, then a decimal below `bound`.
    fn below(&mut self, key: &str, bound: u64) -> Result<u64, SnapshotError> {
        let v = self.dec(key)?;
        if v >= bound {
            return Err(self.malformed("value out of range"));
        }
        Ok(v)
    }

    /// `key`, then the decimal index `i` of a per-workstation line.
    fn index(&mut self, key: &str, i: u64) -> Result<(), SnapshotError> {
        if self.dec(key)? != i {
            return Err(self.malformed("workstation lines out of order"));
        }
        Ok(())
    }

    /// `key`, then an item count, with a vector for the items. The
    /// preallocation is bounded by the bytes left, so a forged count can
    /// only fail to parse, never exhaust memory.
    fn vec<T>(&mut self, key: &str) -> Result<(usize, Vec<T>), SnapshotError> {
        let n: usize = self.narrow(key)?;
        Ok((n, self.alloc(n as u64)))
    }

    fn alloc<T>(&self, n: u64) -> Vec<T> {
        Vec::with_capacity(n.min(self.rest().len() as u64) as usize)
    }

    /// `key`, then exactly 16 lowercase hex digits.
    fn hex(&mut self, key: &str) -> Result<u64, SnapshotError> {
        self.lit(key)?;
        let v = self.rest().get(..16).and_then(|tok| {
            tok.iter()
                .try_fold(0u64, |v, &c| Some(v << 4 | u64::from(nibble(c)?)))
        });
        let v = v.ok_or_else(|| self.malformed("expected 16 lowercase hex digits"))?;
        self.pos += 16;
        Ok(v)
    }

    fn bits(&mut self, key: &str) -> Result<f64, SnapshotError> {
        self.hex(key).map(f64::from_bits)
    }

    fn flag(&mut self, key: &str) -> Result<bool, SnapshotError> {
        self.lit(key)?;
        let b = match self.rest().first() {
            Some(b'0') => false,
            Some(b'1') => true,
            _ => return Err(self.malformed("expected 0 or 1")),
        };
        self.pos += 1;
        Ok(b)
    }

    /// `key`, then `-` for no bytes or one or more hex pairs.
    fn bytes(&mut self, key: &str) -> Result<Vec<u8>, SnapshotError> {
        self.lit(key)?;
        if self.eat("-") {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        while let Some(&[hi, lo]) = self.rest().get(..2) {
            let Some(byte) = nibble(hi).zip(nibble(lo)).map(|(h, l)| h << 4 | l) else {
                break;
            };
            out.push(byte);
            self.pos += 2;
        }
        if out.is_empty() {
            return Err(self.malformed("expected hex bytes"));
        }
        Ok(out)
    }

    /// Ends the last line and requires the body to be fully consumed.
    fn finish(mut self) -> Result<(), SnapshotError> {
        self.lit("\n")?;
        if self.pos != self.end {
            return Err(self.malformed("unexpected data before the checksum"));
        }
        Ok(())
    }
}

fn nibble(c: u8) -> Option<u8> {
    match c {
        b'0'..=b'9' => Some(c - b'0'),
        b'a'..=b'f' => Some(c - b'a' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::{PolicySpec, WorkstationConfig};
    use crate::faults::FaultPlan;
    use cs_life::{ArcLife, Uniform};
    use cs_obs::MemorySink;
    use cs_tasks::workloads;
    use std::sync::Arc;

    fn config(seed: u64, intensity: f64) -> FarmConfig {
        let workstations = (0..3)
            .map(|i| {
                let life: ArcLife = Arc::new(Uniform::new(150.0 + 25.0 * (i % 3) as f64).unwrap());
                WorkstationConfig {
                    life: life.clone(),
                    believed: life,
                    c: 2.0,
                    policy: PolicySpec::FixedSize(18.0),
                    gap_mean: 8.0,
                    faults: FaultPlan::scaled(intensity),
                }
            })
            .collect();
        let mut config = FarmConfig::new(workstations, 1e6, seed);
        config.storms = vec![150.0, 400.0];
        config
    }

    fn bag() -> cs_tasks::TaskBag {
        workloads::uniform(90, 1.0).unwrap()
    }

    /// Steps a run `k` times, snapshots, and finishes both the original and
    /// the restored run side by side: both reports must be bitwise equal
    /// and both tails must emit identical events.
    #[test]
    fn mid_run_snapshot_restores_bitwise() {
        for k in [0usize, 1, 17, 100, 400] {
            let mut sink = MemorySink::new();
            let mut prof = SpanProfiler::disabled();
            let farm = Farm::new(config(11, 0.8), bag()).unwrap();
            let mut run = FarmRun::start(farm, &mut sink, &mut prof);
            for _ in 0..k {
                if !run.step(&mut sink, &mut prof) {
                    break;
                }
            }
            let snap = run.save_state(sink.events.len() as u64, 0);
            let encoded = snap.encode();
            let decoded = FarmSnapshot::decode(&encoded).unwrap();
            assert_eq!(
                decoded.encode(),
                encoded,
                "decode(encode) must round-trip, k={k}"
            );

            let mut restored = decoded.restore(config(11, 0.8)).unwrap();
            let mut tail_a = MemorySink::new();
            let mut tail_b = MemorySink::new();
            while run.step(&mut tail_a, &mut prof) {}
            while restored.step(&mut tail_b, &mut prof) {}
            let a = run.finish(&mut tail_a, &mut prof);
            let b = restored.finish(&mut tail_b, &mut prof);
            let lines_a: Vec<String> = tail_a.events.iter().map(|e| e.to_jsonl()).collect();
            let lines_b: Vec<String> = tail_b.events.iter().map(|e| e.to_jsonl()).collect();
            assert_eq!(lines_a, lines_b, "tails diverged after restore, k={k}");
            crate::journal::tests::assert_reports_bitwise_equal(&a, &b);
        }
    }

    #[test]
    fn snapshot_rejects_corruption_and_foreign_farms() {
        let mut sink = MemorySink::new();
        let mut prof = SpanProfiler::disabled();
        let farm = Farm::new(config(5, 0.5), bag()).unwrap();
        let mut run = FarmRun::start(farm, &mut sink, &mut prof);
        for _ in 0..50 {
            run.step(&mut sink, &mut prof);
        }
        let snap = run.save_state(40, 0xDEAD);
        let good = snap.encode();

        // Version gate.
        let vs = String::from_utf8(good.clone())
            .unwrap()
            .replacen("v1", "v9", 1);
        // (checksum now wrong too; fix it so the version check is what fires)
        let vs_fixed = refresh_checksum(vs.as_bytes());
        assert!(matches!(
            FarmSnapshot::decode(&vs_fixed),
            Err(SnapshotError::Version { .. })
        ));

        // A flipped byte anywhere in the body fails the checksum.
        let mut corrupt = good.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        match FarmSnapshot::decode(&corrupt) {
            Err(SnapshotError::Checksum { .. }) | Err(SnapshotError::Malformed { .. }) => {}
            other => panic!("expected Checksum/Malformed, got {other:?}"),
        }

        // Garbage is Malformed, not a panic.
        assert!(matches!(
            FarmSnapshot::decode(b"not a snapshot at all\n"),
            Err(SnapshotError::Malformed { .. })
        ));

        // Wrong workstation count at restore.
        let decoded = FarmSnapshot::decode(&good).unwrap();
        let mut small = config(5, 0.5);
        small.workstations.pop();
        assert!(matches!(
            decoded.restore(small),
            Err(SnapshotError::FarmMismatch { .. })
        ));

        // Errors render.
        for e in [
            SnapshotError::Version { found: "x".into() },
            SnapshotError::Checksum {
                expected: 1,
                found: 2,
            },
            SnapshotError::FarmMismatch { reason: "x".into() },
            SnapshotError::JournalAhead {
                snapshot_records: 9,
                journal_records: 3,
            },
            SnapshotError::JournalMismatch { records: 4 },
            SnapshotError::Malformed {
                line: 2,
                reason: "x".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
            assert!(!e.kind().to_string().is_empty());
        }
    }

    /// Rewrites the trailing checksum line to match the (possibly edited)
    /// body, so tests can target validation stages past the checksum.
    fn refresh_checksum(text: &[u8]) -> Vec<u8> {
        let body = &text[..text.len() - TRAILER_LEN];
        let trailer = format!("checksum {:016x}\n", fnv1a64(FNV_OFFSET, body));
        [body, trailer.as_bytes()].concat()
    }

    #[test]
    fn fork_with_original_config_reproduces_the_run() {
        let path =
            std::env::temp_dir().join(format!("cs_now_snapshot_fork_{}.snap", std::process::id()));
        let mut sink = MemorySink::new();
        let mut prof = SpanProfiler::disabled();
        // A long run (many chunks), snapshotted early: plenty of dispatches
        // and fault rolls remain in the tail.
        let farm = Farm::new(config(23, 0.9), workloads::uniform(400, 1.0).unwrap()).unwrap();
        let mut run = FarmRun::start(farm, &mut sink, &mut prof);
        for _ in 0..30 {
            run.step(&mut sink, &mut prof);
        }
        write_atomic_bytes(&StdVfs, &path, &run.save_state(0, 0).encode()).unwrap();
        while run.step(&mut sink, &mut prof) {}
        let reference = run.finish(&mut sink, &mut prof);

        let (forked, meta) = Farm::fork_from_snapshot(config(23, 0.9), &path).unwrap();
        crate::journal::tests::assert_reports_bitwise_equal(&reference, &forked);
        assert_eq!(meta.seed, 23);
        assert_eq!(meta.workstations, 3);

        // A perturbed FaultPlan is a genuine what-if: same captured state,
        // different tail. Turning every fault *off* must change the rest of
        // a heavily-faulty run.
        let mut perturbed = config(23, 0.9);
        for w in &mut perturbed.workstations {
            w.faults = FaultPlan::none();
        }
        let (what_if, _) = Farm::fork_from_snapshot(perturbed, &path).unwrap();
        assert!(
            what_if.makespan.to_bits() != reference.makespan.to_bits()
                || what_if.lost_work.to_bits() != reference.lost_work.to_bits(),
            "perturbed fork should diverge"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_reports_snapshot_metadata() {
        let path = std::env::temp_dir().join(format!(
            "cs_now_snapshot_inspect_{}.snap",
            std::process::id()
        ));
        let mut sink = MemorySink::new();
        let mut prof = SpanProfiler::disabled();
        let farm = Farm::new(config(7, 0.0), bag()).unwrap();
        let mut run = FarmRun::start(farm, &mut sink, &mut prof);
        for _ in 0..30 {
            run.step(&mut sink, &mut prof);
        }
        write_atomic_bytes(&StdVfs, &path, &run.save_state(29, 0xBEEF).encode()).unwrap();
        let meta = inspect_snapshot(&path).unwrap();
        assert_eq!(meta.seed, 7);
        assert_eq!(meta.workstations, 3);
        assert_eq!(meta.tasks, 90);
        assert_eq!(meta.journal_records, 29);
        assert!(meta.virtual_time >= 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn segment_meta_roundtrips_and_rejects_corruption() {
        for first in [Some("{\"v\":2,\"t\":3.5,\"type\":\"bank\"}"), None] {
            let meta = SegmentMeta::for_cut(42, 0xDEAD_BEEF_CAFE, first);
            let decoded = SegmentMeta::decode(&meta.encode()).unwrap();
            assert_eq!(decoded.base_records, 42);
            assert_eq!(decoded.base_hash, 0xDEAD_BEEF_CAFE);
            assert_eq!(decoded.first_record_hash, meta.first_record_hash);
            assert!(decoded.matches_first(first));
            // The staleness probe: any other first line must not match.
            assert!(!decoded.matches_first(Some("{\"v\":2,\"other\":1}")));
            assert_eq!(decoded.matches_first(None), first.is_none());
        }
        // Any flipped body byte trips the trailing checksum.
        let text = SegmentMeta::for_cut(7, 0x1234, Some("line")).encode();
        let mut corrupt = text.clone();
        corrupt[10] ^= 0x04;
        let err = SegmentMeta::decode(&corrupt).unwrap_err();
        assert_eq!(err.kind(), SnapshotErrorKind::Checksum);
        // A foreign banner (with a fixed-up checksum) is a version error.
        let other = String::from_utf8(text)
            .unwrap()
            .replace(SEGMENT_VERSION, "cs-now-segment v99");
        let other = refresh_checksum(other.as_bytes());
        assert_eq!(
            SegmentMeta::decode(&other).unwrap_err().kind(),
            SnapshotErrorKind::Version
        );
    }

    #[test]
    fn segment_meta_stores_and_loads_through_the_vfs() {
        let path =
            std::env::temp_dir().join(format!("cs_now_segment_meta_{}.seg", std::process::id()));
        let meta = SegmentMeta::for_cut(99, 0xABCD, Some("{\"v\":2}"));
        meta.store(&StdVfs, &path).unwrap();
        let loaded = SegmentMeta::load(&StdVfs, &path).unwrap();
        assert_eq!(loaded.base_records, 99);
        assert_eq!(loaded.base_hash, 0xABCD);
        assert!(loaded.matches_first(Some("{\"v\":2}")));
        // The staging temp file was renamed away, not left behind.
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }
}
