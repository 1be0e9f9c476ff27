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
//! A sidecar (ring generation `<journal>.snap.<g>`) is a line-oriented
//! text file opening with the banner `cs-now-snapshot v1` and closing
//! with an FNV-1a 64 checksum of the bytes before it. Its `journal` line
//! binds it to a committed journal prefix (record count plus a running
//! FNV-1a hash of those records), so it is never applied to a journal it
//! does not describe. Every failure — version, parse, checksum, binding,
//! foreign farm, a count or id its own contents contradict — is a typed
//! [`SnapshotError`], which recovery reports as
//! [`SnapshotOutcome::Fallback`]. Each format — this file and the `.seg`
//! segment metadata — is described once, by a field walk that one
//! `Codec` runs to write and, strictly, to read: the reader accepts
//! exactly the bytes the writer writes. Sidecars are published atomically
//! (temp file, fsync, rename).
//!
//! A snapshot is also a fork point: [`crate::Farm::fork_from_snapshot`]
//! binds it to its journal, restores it under a perturbed configuration
//! (say another [`crate::FaultPlan`]) and plays the rest of the run as a
//! what-if.

use crate::farm::{
    BankedSet, Engine, Event, EventKind, FarmConfig, FarmRun, Lease, WorkstationState,
    WorkstationStats,
};
use cs_obs::vfs::Vfs;
use cs_obs::SpanId;
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

/// The sidecar path of ring generation `g`: `<journal>.snap.<g>`. A
/// snapshot ring of size N cycles generations `0..N`.
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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

/// How [`crate::Farm::resume`] used (or failed to use) the snapshot sidecar.
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
        /// Ring generation the snapshot came from.
        generation: u32,
    },
    /// A sidecar was present but rejected for the given reason; recovery
    /// fell back to full redo replay. The run still finishes bitwise-exact.
    Fallback(SnapshotErrorKind),
}

/// Summary of a snapshot sidecar: the farm it belongs to and where in the
/// run it was taken. Returned by [`inspect_snapshot`] and
/// [`crate::Farm::fork_from_snapshot`].
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
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
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
        // The heap serializes as its ascending pop order (`Event`'s `Ord`
        // is reversed, so this sorts descending). The event order is total
        // and ties are content-identical, so rebuilding a heap from this
        // list pops the exact same event sequence.
        let mut queue: Vec<Event> = self.eng.queue.iter().copied().collect();
        queue.sort_by(|a, b| b.cmp(a));
        // The banked set iterates ascending already, which keeps identical
        // states producing identical bytes (it is only ever
        // membership-tested at runtime).
        let banked: Vec<u64> = self.eng.banked.iter().collect();
        let leases = self
            .eng
            .in_flight
            .iter()
            .map(|(&lease, l)| LeaseSnap {
                lease,
                ws: l.ws as u64,
                expiry: l.expiry,
                arrives: l.arrives,
                expired: l.expired,
                replicas: l.replicas,
                tasks: l.chunk.tasks().collect(),
            })
            .collect();
        let ws = self
            .states
            .iter()
            .map(|st| WsSnap {
                episode_start: st.episode_start,
                reclaim_at: st.reclaim_at,
                crash_at: st.crash_at,
                quarantined_until: st.quarantined_until,
                fault_rng: st.fault_rng.state(),
                crashed: st.crashed,
                fail_streak: st.fail_streak,
                backoff_pending: st.backoff_pending,
                policy_state: st.policy.save_state(),
                stats: st.stats,
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
            next_lease: self.eng.next_lease,
            bag: self.eng.bag.save_state(),
            banked,
            queue,
            leases,
            ws,
        }
    }

    /// The size of this state's snapshot sidecar, estimated in O(1) from
    /// counts, so that snapshot placement is a function of the seed.
    pub(crate) fn snapshot_bytes_estimate(&self) -> u64 {
        HEADER_BYTES
            + PENDING_TASK_BYTES * self.eng.bag.pending_count() as u64
            + BANKED_ID_BYTES * self.eng.banked.len() as u64
            + EVENT_BYTES * self.eng.queue.len() as u64
            + LEASE_BYTES * self.eng.in_flight.len() as u64
            + WORKSTATION_BYTES * self.states.len() as u64
    }
}

/// A named [`WorkstationStats`] counter.
type Counter = (&'static str, fn(&WorkstationStats) -> u64);

/// The [`WorkstationStats`] counters that journal one record per
/// increment. `idle_periods` journals nothing, so no record count bounds
/// it; its increment saturates instead.
const RECORDED_COUNTERS: [Counter; 12] = [
    ("chunks_completed", |s| s.chunks_completed),
    ("chunks_lost", |s| s.chunks_lost),
    ("episodes", |s| s.episodes),
    ("messages_lost", |s| s.messages_lost),
    ("straggled_chunks", |s| s.straggled_chunks),
    ("crashes", |s| s.crashes),
    ("storm_kills", |s| s.storm_kills),
    ("lease_timeouts", |s| s.lease_timeouts),
    ("backoff_delays", |s| s.backoff_delays),
    ("quarantines", |s| s.quarantines),
    ("replicas_dispatched", |s| s.replicas_dispatched),
    ("late_banks", |s| s.late_banks),
];

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
        let in_flight = self
            .leases
            .into_iter()
            .map(|l| {
                let lease = Lease {
                    ws: l.ws as usize,
                    chunk: Chunk::from_tasks(l.tasks),
                    expiry: l.expiry,
                    arrives: l.arrives,
                    expired: l.expired,
                    replicas: l.replicas,
                };
                (l.lease, lease)
            })
            .collect();
        let mut banked = BankedSet::with_bits(self.tasks);
        for id in self.banked {
            banked.insert(id);
        }
        let eng = Engine {
            bag: TaskBag::restore_state(self.bag),
            queue: self.queue.into_iter().collect(),
            rng: StdRng::from_state(self.rng),
            storms,
            in_flight,
            next_lease: self.next_lease,
            banked,
            makespan: self.makespan,
            free_bufs: Vec::new(),
        };
        let mut caches = cs_scenarios::PolicyCaches::new();
        let mut states = Vec::with_capacity(self.ws.len());
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

    /// Checks the counts and ids a snapshot restores against bounds the
    /// snapshot itself implies, so a forged value is a typed error:
    /// - every task of the run is pending, leased or banked, so `tasks` is
    ///   at most the task entries the snapshot holds (`tasks` sizes the
    ///   banked set's bitset, so this also guards an allocation);
    /// - the bag assigns ids below its `next_id`, so every pending, leased
    ///   and banked id is below it (`next_id` itself sizes nothing: the
    ///   banked set keys ids past the run's task count sparsely);
    /// - every increment of a [`RECORDED_COUNTERS`] counter journals one
    ///   record, so each counter, summed over the workstations, is at most
    ///   `journal_records`; this also keeps the run's final sums of them
    ///   from overflowing;
    /// - a workstation's `fail_streak` grows only with its lease timeouts,
    ///   so it is at most its `lease_timeouts`;
    /// - every lease is issued for a chunk its workstation counts as lost
    ///   in transit, lost to a crash or straggling, so `next_lease` is at
    ///   most the sum of those counters. This is a consistency check only:
    ///   `next_lease` is a counter and sizes nothing.
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
        for (name, counter) in RECORDED_COUNTERS {
            let total = self
                .ws
                .iter()
                .try_fold(0u64, |sum, w| sum.checked_add(counter(&w.stats)));
            if total.is_none_or(|t| t > self.journal_records) {
                return Err(SnapshotError::Inconsistent {
                    reason: format!(
                        "{name} summed over the workstations exceeds the {} journal records",
                        self.journal_records
                    ),
                });
            }
        }
        let over = |(_, w): &(usize, &WsSnap)| u64::from(w.fail_streak) > w.stats.lease_timeouts;
        if let Some((i, w)) = self.ws.iter().enumerate().find(over) {
            return Err(SnapshotError::Inconsistent {
                reason: format!(
                    "ws {i} fail_streak {} exceeds its {} lease timeouts",
                    w.fail_streak, w.stats.lease_timeouts
                ),
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

    /// The sidecar format, field by field in file order: the one
    /// description that [`FarmSnapshot::encode`] writes and
    /// [`FarmSnapshot::decode`] reads.
    fn walk(&mut self, c: &mut Codec<'_>) {
        self.walk_header(c);
        c.bits("\nclock now ", &mut self.now);
        c.bits(" makespan ", &mut self.makespan);
        c.words("\nrng", &mut self.rng);
        let bag = &mut self.bag;
        c.dec("\nbag next_id ", &mut bag.next_id);
        c.dec(" completed_tasks ", &mut bag.completed_tasks);
        c.bits(" completed_work ", &mut bag.completed_work);
        c.bits(" lost_work ", &mut bag.lost_work);
        c.list(" pending ", &mut bag.pending, |c, _, t| {
            c.dec("\ntask ", &mut t.id);
            c.bits(" ", &mut t.duration);
        });
        c.list("\nbanked ", &mut self.banked, |c, done, id| {
            if done.len() % IDS_PER_LINE == 0 {
                c.lit("\nids");
            }
            c.dec(" ", id);
            let ascending = done.last().is_none_or(|&prev| prev < *id);
            c.check(ascending, "banked ids not strictly ascending");
        });
        let queued = c.len("\nqueue ", self.queue.len());
        c.dec(" next_lease ", &mut self.next_lease);
        let (workstations, next_lease) = (self.workstations, self.next_lease);
        c.items(&mut self.queue, queued, |c, _, e| {
            c.bits("\nevent ", &mut e.time);
            let (tag, mut id) = e.kind.rank();
            let mut tag = u64::from(tag);
            c.dec(" ", &mut tag);
            c.dec(" ", &mut id);
            e.kind = match tag {
                0 => EventKind::Arrival(id),
                1 => EventKind::LeaseExpiry(id),
                2 if id < workstations => EventKind::Dispatch(id as usize),
                _ => {
                    c.fail("event tag or workstation out of range");
                    e.kind
                }
            };
        });
        c.list("\nleases ", &mut self.leases, |c, done, l| {
            c.below("\nlease ", &mut l.lease, next_lease);
            let ascending = done.last().is_none_or(|prev| prev.lease < l.lease);
            c.check(ascending, "lease ids not strictly ascending");
            c.below(" ws ", &mut l.ws, workstations);
            c.bits(" expiry ", &mut l.expiry);
            c.flag(" arrives ", &mut l.arrives);
            c.flag(" expired ", &mut l.expired);
            c.dec32(" replicas ", &mut l.replicas);
            c.list(" tasks ", &mut l.tasks, |c, _, t| {
                c.dec(" ", &mut t.id);
                c.bits(":", &mut t.duration);
            });
        });
        c.items(&mut self.ws, workstations, |c, done, w| {
            let i = done.len() as u64;
            c.index("\nws ", i);
            c.bits(" episode_start ", &mut w.episode_start);
            c.bits(" reclaim_at ", &mut w.reclaim_at);
            c.bits(" crash_at ", &mut w.crash_at);
            c.bits(" quarantined_until ", &mut w.quarantined_until);
            c.flag(" crashed ", &mut w.crashed);
            c.dec32(" fail_streak ", &mut w.fail_streak);
            c.flag(" backoff ", &mut w.backoff_pending);
            c.words(" frng", &mut w.fault_rng);
            c.bytes(" policy ", &mut w.policy_state);
            c.index("\nstats ", i);
            let st = &mut w.stats;
            for v in [
                &mut st.completed_work,
                &mut st.lost_work,
                &mut st.duplicate_work,
            ] {
                c.bits(" ", v);
            }
            for v in [
                &mut st.chunks_completed,
                &mut st.chunks_lost,
                &mut st.episodes,
                &mut st.idle_periods,
                &mut st.messages_lost,
                &mut st.straggled_chunks,
                &mut st.crashes,
                &mut st.storm_kills,
                &mut st.lease_timeouts,
                &mut st.backoff_delays,
                &mut st.quarantines,
                &mut st.replicas_dispatched,
                &mut st.late_banks,
            ] {
                c.dec(" ", v);
            }
        });
    }

    /// The `meta` and `journal` lines: the run the sidecar belongs to and
    /// the journal prefix it binds to.
    fn walk_header(&mut self, c: &mut Codec<'_>) {
        c.dec("meta seed ", &mut self.seed);
        c.dec(" workstations ", &mut self.workstations);
        c.dec(" tasks ", &mut self.tasks);
        c.dec("\njournal records ", &mut self.journal_records);
        c.hex(" hash ", &mut self.journal_hash);
    }

    /// The `journal records` count that the header at the start of a
    /// sidecar claims, read without the checksum or the body: what
    /// recovery orders the ring by before it decodes anything. A sidecar
    /// that decodes claims exactly the count it decodes to.
    pub(crate) fn claimed_records(head: &[u8]) -> Option<u64> {
        let mut c = Codec {
            reading: true,
            out: Vec::new(),
            text: head,
            pos: 0,
            end: head.len(),
            err: None,
        };
        c.lit(SNAPSHOT_VERSION);
        c.lit("\n");
        let mut header = FarmSnapshot::default();
        header.walk_header(&mut c);
        c.err.is_none().then_some(header.journal_records)
    }

    /// Serializes to the versioned, checksummed line format.
    pub(crate) fn encode(&mut self) -> Vec<u8> {
        Codec::write(SNAPSHOT_VERSION, |c| self.walk(c))
    }

    /// Parses and integrity-checks the line format, accepting exactly the
    /// bytes [`FarmSnapshot::encode`] writes.
    pub(crate) fn decode(text: &[u8]) -> Result<Self, SnapshotError> {
        Codec::read(text, SNAPSHOT_VERSION, Self::walk)
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// The `.seg` format, field by field: the one description that
    /// [`SegmentMeta::encode`] writes and [`SegmentMeta::decode`] reads.
    fn walk(&mut self, c: &mut Codec<'_>) {
        c.dec("base records ", &mut self.base_records);
        c.hex(" hash ", &mut self.base_hash);
        if !c.opt_lit("\nfirst -", self.first_record_hash.is_none()) {
            c.hex("\nfirst ", self.first_record_hash.get_or_insert(0));
        }
    }

    /// Serializes to the versioned, checksummed line format.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut meta = *self;
        Codec::write(SEGMENT_VERSION, |c| meta.walk(c))
    }

    /// Parses and integrity-checks the line format, accepting exactly the
    /// bytes [`SegmentMeta::encode`] writes.
    pub(crate) fn decode(text: &[u8]) -> Result<Self, SnapshotError> {
        Codec::read(text, SEGMENT_VERSION, Self::walk)
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

// -- the codec: one field walk per format, run to write and to read -------

/// Banked ids per `ids` line.
const IDS_PER_LINE: usize = 64;

/// Encoded sidecar bytes per item, from the format [`FarmSnapshot::walk`]
/// describes with 4-digit task ids: the fixed lines, a pending `task`
/// line, a banked id, a queued `event` line, a `lease` line with a typical
/// chunk, and a workstation's `ws` and `stats` lines. They price snapshots
/// (DESIGN, "Cadence"), so they set only where snapshots fall.
const HEADER_BYTES: u64 = 400;
const PENDING_TASK_BYTES: u64 = 28;
const BANKED_ID_BYTES: u64 = 5;
const EVENT_BYTES: u64 = 28;
const LEASE_BYTES: u64 = 480;
const WORKSTATION_BYTES: u64 = 330;

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// `checksum <16 hex digits>\n`.
const TRAILER_LEN: usize = 26;

/// The blank event a read fills in.
impl Default for Event {
    fn default() -> Self {
        Event {
            time: 0.0,
            kind: EventKind::Arrival(0),
        }
    }
}

/// Runs a format's field walk in one of two directions. Writing, each
/// call appends its literal key, then the field's value. Reading, each
/// call requires its key byte for byte and parses the value strictly into
/// the field: decimals canonical (no sign, no leading zero, no overflow),
/// hex exactly 16 lowercase digits. The first read failure is latched and
/// turns every later call into a no-op, so a walk needs no error plumbing
/// and a forged count cannot read past the input.
struct Codec<'a> {
    reading: bool,
    /// The bytes written.
    out: Vec<u8>,
    /// The input, the read position, and the end of the checksummed body.
    text: &'a [u8],
    pos: usize,
    end: usize,
    /// The first read failure.
    err: Option<SnapshotError>,
}

impl<'a> Codec<'a> {
    /// Writes one file: the version banner line, `walk`'s fields, then the
    /// FNV-1a checksum trailer.
    fn write(banner: &str, walk: impl FnOnce(&mut Self)) -> Vec<u8> {
        let mut c = Codec {
            reading: false,
            out: Vec::with_capacity(4096),
            text: &[],
            pos: 0,
            end: 0,
            err: None,
        };
        c.lit(banner);
        c.lit("\n");
        walk(&mut c);
        c.lit("\n");
        let mut checksum = fnv1a64(FNV_OFFSET, &c.out);
        c.hex("checksum ", &mut checksum);
        c.lit("\n");
        c.out
    }

    /// Reads what [`Codec::write`] writes with the same banner and walk:
    /// verifies the checksum trailer and the banner, walks the fields into
    /// a blank value, and requires the body to be fully consumed.
    fn read<T: Default>(
        text: &'a [u8],
        banner: &str,
        walk: impl FnOnce(&mut T, &mut Self),
    ) -> Result<T, SnapshotError> {
        let mut c = Codec {
            reading: true,
            out: Vec::new(),
            text,
            pos: text.len(),
            end: text.len(),
            err: None,
        };
        let body_end = text
            .len()
            .checked_sub(TRAILER_LEN)
            .filter(|&e| e > 0 && text[e - 1] == b'\n')
            .ok_or_else(|| c.malformed("missing trailing checksum line"))?;
        c.pos = body_end;
        let mut expected = 0;
        c.hex("checksum ", &mut expected);
        c.lit("\n");
        if let Some(e) = c.err.take() {
            return Err(e);
        }
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
        c.pos = first + 1;
        c.end = body_end;
        let mut value = T::default();
        walk(&mut value, &mut c);
        c.lit("\n");
        let consumed = c.pos == c.end;
        c.check(consumed, "unexpected data before the checksum");
        c.err.map_or(Ok(value), Err)
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

    /// Latches a read failure at the current position; the first one wins.
    /// Writing, does nothing.
    fn fail(&mut self, reason: &str) {
        if self.reading && self.err.is_none() {
            self.err = Some(self.malformed(reason));
        }
    }

    fn check(&mut self, ok: bool, reason: &str) {
        if !ok {
            self.fail(reason);
        }
    }

    fn rest(&self) -> &'a [u8] {
        &self.text[self.pos..self.end]
    }

    /// The literal `s`, written or required. Returns whether the value
    /// after it is still to be written or read.
    fn lit(&mut self, s: &str) -> bool {
        if !self.reading {
            self.out.extend_from_slice(s.as_bytes());
            return true;
        }
        if self.err.is_some() {
            return false;
        }
        if self.rest().starts_with(s.as_bytes()) {
            self.pos += s.len();
            return true;
        }
        // Point the error at the first differing byte.
        self.pos += s
            .bytes()
            .zip(self.rest())
            .take_while(|(a, b)| a == *b)
            .count();
        self.fail(&format!("expected {s:?}"));
        false
    }

    /// The optional literal `s`: written when `present`, consumed when the
    /// input continues with it. Returns whether it is there.
    fn opt_lit(&mut self, s: &str, present: bool) -> bool {
        if !self.reading {
            if present {
                self.lit(s);
            }
            return present;
        }
        let found = self.err.is_none() && self.rest().starts_with(s.as_bytes());
        if found {
            self.pos += s.len();
        }
        found
    }

    /// `key`, then `v` in decimal.
    fn dec(&mut self, key: &str, v: &mut u64) {
        if !self.lit(key) {
            return;
        }
        if !self.reading {
            let (mut x, mut digits, mut i) = (*v, [0u8; 20], 20);
            loop {
                i -= 1;
                digits[i] = b'0' + (x % 10) as u8;
                x /= 10;
                if x == 0 {
                    break;
                }
            }
            self.out.extend_from_slice(&digits[i..]);
            return;
        }
        let rest = self.rest();
        let n = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        if n == 0 || (rest[0] == b'0' && n > 1) {
            return self.fail("expected a canonical decimal");
        }
        let parsed = rest[..n].iter().try_fold(0u64, |x, &d| {
            x.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        });
        match parsed {
            Some(x) => {
                *v = x;
                self.pos += n;
            }
            None => self.fail("decimal overflows u64"),
        }
    }

    /// `key`, then a decimal that fits `u32`.
    fn dec32(&mut self, key: &str, v: &mut u32) {
        let mut x = u64::from(*v);
        self.dec(key, &mut x);
        match u32::try_from(x) {
            Ok(x) => *v = x,
            Err(_) => self.fail("value out of range"),
        }
    }

    /// `key`, then a decimal below `bound`.
    fn below(&mut self, key: &str, v: &mut u64, bound: u64) {
        self.dec(key, v);
        self.check(*v < bound, "value out of range");
    }

    /// `key`, then the decimal index `i` of a per-workstation line.
    fn index(&mut self, key: &str, i: u64) {
        let mut found = i;
        self.dec(key, &mut found);
        self.check(found == i, "workstation lines out of order");
    }

    /// `key`, then `v` as exactly 16 lowercase hex digits.
    fn hex(&mut self, key: &str, v: &mut u64) {
        if !self.lit(key) {
            return;
        }
        if !self.reading {
            let mut digits = [0u8; 16];
            for (pair, b) in digits.chunks_exact_mut(2).zip(v.to_be_bytes()) {
                pair[0] = HEX_DIGITS[usize::from(b >> 4)];
                pair[1] = HEX_DIGITS[usize::from(b & 0xf)];
            }
            self.out.extend_from_slice(&digits);
            return;
        }
        let parsed = self.rest().get(..16).and_then(|tok| {
            tok.iter()
                .try_fold(0u64, |x, &c| Some(x << 4 | u64::from(nibble(c)?)))
        });
        match parsed {
            Some(x) => {
                *v = x;
                self.pos += 16;
            }
            None => self.fail("expected 16 lowercase hex digits"),
        }
    }

    /// Bitwise-exact float: `key`, then `f64::to_bits` as hex.
    fn bits(&mut self, key: &str, v: &mut f64) {
        let mut bits = v.to_bits();
        self.hex(key, &mut bits);
        *v = f64::from_bits(bits);
    }

    /// `key`, then four hex words: an RNG state.
    fn words(&mut self, key: &str, words: &mut [u64; 4]) {
        self.lit(key);
        for w in words {
            self.hex(" ", w);
        }
    }

    /// `key`, then `0` or `1`.
    fn flag(&mut self, key: &str, v: &mut bool) {
        if !self.lit(key) {
            return;
        }
        if !self.reading {
            self.out.push(if *v { b'1' } else { b'0' });
            return;
        }
        match self.rest().first() {
            Some(b'0') => *v = false,
            Some(b'1') => *v = true,
            _ => return self.fail("expected 0 or 1"),
        }
        self.pos += 1;
    }

    /// `key`, then the bytes as hex pairs, or `-` when there are none.
    fn bytes(&mut self, key: &str, v: &mut Vec<u8>) {
        if !self.lit(key) || self.opt_lit("-", v.is_empty()) {
            return;
        }
        if !self.reading {
            for &b in v.iter() {
                self.out.push(HEX_DIGITS[usize::from(b >> 4)]);
                self.out.push(HEX_DIGITS[usize::from(b & 0xf)]);
            }
            return;
        }
        while let Some(&[hi, lo]) = self.rest().get(..2) {
            let Some(byte) = nibble(hi).zip(nibble(lo)).map(|(h, l)| h << 4 | l) else {
                break;
            };
            v.push(byte);
            self.pos += 2;
        }
        self.check(!v.is_empty(), "expected hex bytes");
    }

    /// `key`, then an item count: `n` written, or the count read.
    fn len(&mut self, key: &str, n: usize) -> u64 {
        let mut n = n as u64;
        self.dec(key, &mut n);
        n
    }

    /// The items of `v`, each through `walk`, which also sees the items
    /// before it. Reading, `n` items are parsed and each is kept only once
    /// it parses, with room reserved for no more items than bytes left: a
    /// forged count can only fail to parse, never exhaust memory.
    fn items<T: Default>(
        &mut self,
        v: &mut Vec<T>,
        n: u64,
        mut walk: impl FnMut(&mut Self, &[T], &mut T),
    ) {
        if !self.reading {
            for i in 0..v.len() {
                let (done, rest) = v.split_at_mut(i);
                walk(self, done, &mut rest[0]);
            }
            return;
        }
        v.reserve(n.min(self.rest().len() as u64) as usize);
        for _ in 0..n {
            let mut item = T::default();
            walk(self, v, &mut item);
            if self.err.is_some() {
                return;
            }
            v.push(item);
        }
    }

    /// `key`, the item count, then the items.
    fn list<T: Default>(
        &mut self,
        key: &str,
        v: &mut Vec<T>,
        walk: impl FnMut(&mut Self, &[T], &mut T),
    ) {
        let n = self.len(key, v.len());
        self.items(v, n, walk);
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
    use crate::farm::{Farm, PolicySpec, WorkstationConfig};
    use crate::faults::FaultPlan;
    use cs_life::{ArcLife, Uniform};
    use cs_obs::vfs::StdVfs;
    use cs_obs::{MemorySink, SpanProfiler};
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
            let mut snap = run.save_state(sink.events.len() as u64, 0);
            let encoded = snap.encode();
            let mut decoded = FarmSnapshot::decode(&encoded).unwrap();
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
        let mut snap = run.save_state(40, 0xDEAD);
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

    /// `next_lease` is a counter, not a size: a sidecar whose `next_lease`
    /// is huge but still within its workstations' lost-chunk counters (and
    /// those within its journal records) restores without allocating by
    /// it, keeps the count, and plays to the end.
    #[test]
    fn restore_keeps_a_huge_next_lease_without_allocating() {
        let mut sink = MemorySink::new();
        let mut prof = SpanProfiler::disabled();
        let farm = Farm::new(config(5, 0.5), bag()).unwrap();
        let mut run = FarmRun::start(farm, &mut sink, &mut prof);
        for _ in 0..50 {
            run.step(&mut sink, &mut prof);
        }
        let huge = 1u64 << 40;
        let text = String::from_utf8(run.save_state(huge, 0xDEAD).encode()).unwrap();
        let at = text.find(" next_lease ").unwrap() + " next_lease ".len();
        let end = at + text[at..].find('\n').unwrap();
        let text = format!("{}{huge}{}", &text[..at], &text[end..]);
        // `stats 0`, three work totals, then chunks_completed, chunks_lost,
        // episodes, idle_periods and messages_lost, which bounds `next_lease`.
        let stats = text.find("\nstats 0 ").unwrap() + 1;
        let line = &text[stats..stats + text[stats..].find('\n').unwrap()];
        let mut fields: Vec<String> = line.split(' ').map(str::to_owned).collect();
        fields[9] = huge.to_string();
        let text = text.replacen(line, &fields.join(" "), 1);
        let decoded = FarmSnapshot::decode(&refresh_checksum(text.as_bytes())).unwrap();
        assert_eq!(decoded.ws[0].stats.messages_lost, huge);
        let mut restored = decoded.restore(config(5, 0.5)).unwrap();
        assert_eq!(restored.eng.next_lease, huge);
        assert_eq!(restored.save_state(40, 0xDEAD).next_lease, huge);
        while restored.step(&mut sink, &mut prof) {}
        assert!(restored.finish(&mut sink, &mut prof).drained);
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
        let journal =
            std::env::temp_dir().join(format!("cs_now_snapshot_fork_{}.jsonl", std::process::id()));
        let path = ring_snapshot_path(&journal, 0);
        let mut sink = MemorySink::new();
        let mut prof = SpanProfiler::disabled();
        // A long run (many chunks), snapshotted early: plenty of dispatches
        // and fault rolls remain in the tail.
        let farm = Farm::new(config(23, 0.9), workloads::uniform(400, 1.0).unwrap()).unwrap();
        let mut run = FarmRun::start(farm, &mut sink, &mut prof);
        for _ in 0..30 {
            run.step(&mut sink, &mut prof);
        }
        // The journal the snapshot binds to: the records so far.
        let prefix: String = sink.events.iter().map(|e| e.to_jsonl() + "\n").collect();
        std::fs::write(&journal, &prefix).unwrap();
        let (records, hash) = (
            sink.events.len() as u64,
            fnv1a64(FNV_OFFSET, prefix.as_bytes()),
        );
        write_atomic_bytes(&StdVfs, &path, &run.save_state(records, hash).encode()).unwrap();
        while run.step(&mut sink, &mut prof) {}
        let reference = run.finish(&mut sink, &mut prof);

        let (forked, meta) = Farm::fork_from_snapshot(config(23, 0.9), &journal, 0).unwrap();
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
        let (what_if, _) = Farm::fork_from_snapshot(perturbed, &journal, 0).unwrap();
        assert!(
            what_if.makespan.to_bits() != reference.makespan.to_bits()
                || what_if.lost_work.to_bits() != reference.lost_work.to_bits(),
            "perturbed fork should diverge"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&journal).ok();
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
