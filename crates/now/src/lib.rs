//! # cs-now
//!
//! The *network of workstations* the paper's title promises: data-parallel
//! cycle-stealing across many borrowed workstations at once.
//!
//! A master (workstation A) owns a [`cs_tasks::TaskBag`] of independent
//! tasks. Each borrowed workstation alternates owner-absence episodes
//! (killable, per the §2.1 draconian contract) with owner-presence gaps.
//! During an episode, A parcels chunks sized by a [`cs_sim::ChunkPolicy`] —
//! guideline (the paper's contribution), greedy, or fixed-size.
//!
//! Two execution engines:
//!
//! * [`farm`] — a deterministic **virtual-time farm simulator**: chunk
//!   requests from all workstations are served in global virtual-time order
//!   from the shared bag, so results are exactly reproducible and policy
//!   comparisons are apples-to-apples. This is the engine the experiments
//!   use.
//! * [`live`] — a **real threaded executor**: one scoped thread per
//!   borrowed workstation, all sharing the master's bag behind one mutex,
//!   each checking its owner's reclaim deadline at task boundaries, with
//!   real (synthetic-compute) task execution. This demonstrates the library
//!   driving actual concurrent workers; the virtual→wall-clock scale is
//!   configurable.
//! * [`replicate`] — parallel Monte-Carlo replication of farm simulations
//!   across seeds (scoped threads) with merged summary statistics.
//! * [`faults`] — deterministic fault injection (message loss, stragglers,
//!   crashes, reclaim storms, belief drift) plus the resilient master's
//!   countermeasure knobs (leases, backoff, quarantine, tail replication).
//! * [`journal`] — **durable episodes**: [`farm::Farm::run_journaled`]
//!   writes every master transition to a fsync-on-commit write-ahead
//!   journal ([`cs_obs::journal`]) and [`farm::Farm::resume`] finishes a
//!   crashed run with a [`farm::FarmReport`] bitwise identical to the
//!   uninterrupted one, the flush cadence chosen by the paper's own §4.2
//!   save-scheduling guideline ([`guideline_fsync_policy`]).
//! * [`snapshot`] — **O(1) crash recovery**: journaled runs periodically
//!   capture the farm's complete state (RNG streams, event queue, leases,
//!   bag, fault cursors) to a versioned, checksummed sidecar on the same
//!   guideline cadence; resume restores the latest snapshot and replays
//!   only the journal tail, falling back gracefully to full redo replay
//!   when the sidecar is missing or damaged
//!   ([`snapshot::SnapshotOutcome`]). A snapshot is also a time-travel
//!   fork point ([`farm::Farm::fork_from_snapshot`],
//!   [`farm::Farm::replay_to`]). **Bounded disk**: snapshots can rotate
//!   through an N-generation ring ([`JournalOptions::snapshot_ring`])
//!   with journal-prefix GC ([`JournalOptions::gc`]) pruning records the
//!   oldest retained generation makes redundant — disk usage is then
//!   bounded by the ring plus one snapshot interval of journal,
//!   independent of run length. All durable I/O goes through an
//!   injectable filesystem ([`cs_obs::vfs`]), and
//!   [`JournalOptions::on_io_error`] picks the failure policy:
//!   fail-stop (typed [`JournalError::Io`]) or degrade (finish
//!   in-memory with [`DurableStats::degraded`] set).
//!
//! Each engine operation has one entry point: [`farm::Farm::run`],
//! [`farm::Farm::run_journaled`], [`farm::Farm::resume`] and
//! [`farm::Farm::replay_to`] (plus [`farm::Farm::fork_from_snapshot`]).
//!
//! Every master action can be traced through [`cs_obs`]: pass
//! [`farm::Farm::run`] any [`cs_obs::EventSink`] to get a
//! schema-versioned event stream (JSONL, in-memory, or folded into a
//! [`cs_obs::MetricsRegistry`]) whose tallies reconcile exactly with the
//! returned [`farm::FarmReport`]. Sinks are strictly pass-through: a traced
//! run is bit-identical to an untraced one for the same seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod equeue;
pub mod farm;
pub mod faults;
pub mod journal;
pub mod live;
pub mod replicate;
pub mod snapshot;

pub use farm::{
    Farm, FarmConfig, FarmConfigError, FarmReport, PolicyKind, PolicySpec, RobustnessTotals,
    WorkstationConfig, WorkstationStats,
};
pub use faults::{BeliefDrift, FaultPlan, FaultPlanError, ResilienceConfig};
pub use journal::{
    guideline_fsync_policy, guideline_snapshot_interval, DurableStats, IoErrorPolicy, JournalError,
    JournalOptions, RecoveryInfo, ReplayState, MAX_SNAPSHOT_RING,
};
pub use replicate::{replicate_farm, ReplicationReport};
pub use snapshot::{
    default_snapshot_path, inspect_snapshot, ring_snapshot_path, segment_meta_path, SegmentMeta,
    SnapshotError, SnapshotErrorKind, SnapshotMeta, SnapshotOutcome,
};
