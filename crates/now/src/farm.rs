//! Virtual-time NOW farm simulator with fault injection and a resilient
//! master.
//!
//! All workstations share one global virtual clock. Every chunk dispatch,
//! lease timeout and straggler arrival is an event in a priority queue keyed
//! by virtual time, so the shared task bag is consumed in exactly the order
//! a real master would see requests — the property that makes policy
//! comparisons fair and runs reproducible.
//!
//! Per-workstation timeline:
//!
//! ```text
//! [episode: absent, killable] -> reclaimed -> [gap: owner present] -> ...
//! ```
//!
//! Episode durations are drawn from the workstation's life function
//! (inverse transform), presence gaps from an exponential with configurable
//! mean. Within an episode the workstation's policy proposes periods; each
//! period checks a chunk out of the shared bag, and the §2.1 kill semantics
//! decide whether the chunk banks or returns.
//!
//! # Faults and resilience
//!
//! Each workstation additionally carries a [`FaultPlan`]
//! (see [`crate::faults`]): message loss, stragglers, silent crashes,
//! correlated reclaim storms and belief drift. The master counters them per
//! its [`ResilienceConfig`]:
//!
//! * every dispatched chunk gets a **lease** (`lease_factor × period`);
//!   on expiry its unbanked tasks are requeued,
//! * workstations with consecutive timeouts suffer **capped exponential
//!   backoff** and eventually **quarantine**,
//! * in the end game (bag drained, chunks still in flight) idle
//!   workstations **replicate** outstanding chunks — the first result to
//!   bank wins and later duplicates are discarded and counted.
//!
//! Fault decisions draw from per-workstation RNG streams kept separate from
//! the episode stream, so a zero-intensity plan leaves a run **bit-identical**
//! to the fault-free simulator for the same seed.

use crate::faults::{FaultPlan, ResilienceConfig};
use cs_life::{ArcLife, LifeFunction};
use cs_obs::{Event as ObsEvent, EventKind as ObsKind, EventSink, SpanId, SpanProfiler};
use cs_sim::policy::{ChunkPolicy, PeriodOutcome};
use cs_tasks::{Chunk, TaskBag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

pub use cs_scenarios::PolicySpec;

/// Configuration of one borrowed workstation.
#[derive(Clone)]
pub struct WorkstationConfig {
    /// Ground-truth life function governing its episodes.
    pub life: ArcLife,
    /// Believed life function handed to the policy (normally the same; set
    /// differently for robustness experiments).
    pub believed: ArcLife,
    /// Communication overhead `c` for this workstation.
    pub c: f64,
    /// Chunk-sizing policy.
    pub policy: PolicySpec,
    /// Mean of the exponential owner-presence gap between episodes.
    pub gap_mean: f64,
    /// Injected faults ([`FaultPlan::none`] leaves the workstation
    /// well-behaved).
    pub faults: FaultPlan,
}

/// Farm-level configuration.
#[derive(Clone)]
pub struct FarmConfig {
    /// The workstations.
    pub workstations: Vec<WorkstationConfig>,
    /// Stop the simulation at this virtual time even if work remains.
    pub max_virtual_time: f64,
    /// RNG seed (reclamations, gaps and fault draws are deterministic given
    /// it).
    pub seed: u64,
    /// Virtual times of correlated reclaim storms: at each, every
    /// workstation mid-episode is reclaimed with its own
    /// [`FaultPlan::storm_hit_prob`].
    pub storms: Vec<f64>,
    /// The master's fault countermeasures.
    pub resilience: ResilienceConfig,
}

impl FarmConfig {
    /// A fault-free configuration: no storms, default resilience.
    pub fn new(workstations: Vec<WorkstationConfig>, max_virtual_time: f64, seed: u64) -> Self {
        Self {
            workstations,
            max_virtual_time,
            seed,
            storms: Vec::new(),
            resilience: ResilienceConfig::default(),
        }
    }

    /// Checks the configuration; [`Farm::new`] refuses invalid ones.
    pub fn validate(&self) -> Result<(), FarmConfigError> {
        if self.workstations.is_empty() {
            return Err(FarmConfigError::NoWorkstations);
        }
        if !(self.max_virtual_time.is_finite() && self.max_virtual_time > 0.0) {
            return Err(FarmConfigError::InvalidHorizon {
                max_virtual_time: self.max_virtual_time,
            });
        }
        for (ws, w) in self.workstations.iter().enumerate() {
            if !(w.c.is_finite() && w.c >= 0.0) {
                return Err(FarmConfigError::InvalidOverhead { ws, c: w.c });
            }
            if !(w.gap_mean.is_finite() && w.gap_mean > 0.0) {
                return Err(FarmConfigError::InvalidGapMean {
                    ws,
                    gap_mean: w.gap_mean,
                });
            }
            w.faults
                .validate()
                .map_err(|source| FarmConfigError::InvalidFaultPlan { ws, source })?;
        }
        self.resilience
            .validate()
            .map_err(|reason| FarmConfigError::InvalidResilience { reason })?;
        for &time in &self.storms {
            if !(time.is_finite() && time >= 0.0) {
                return Err(FarmConfigError::InvalidStorm { time });
            }
        }
        Ok(())
    }
}

/// Why a [`FarmConfig`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum FarmConfigError {
    /// The workstation list is empty.
    NoWorkstations,
    /// `max_virtual_time` is not finite and positive.
    InvalidHorizon {
        /// The offending horizon.
        max_virtual_time: f64,
    },
    /// A workstation's overhead `c` is negative or not finite.
    InvalidOverhead {
        /// Index of the offending workstation.
        ws: usize,
        /// The offending overhead.
        c: f64,
    },
    /// A workstation's `gap_mean` is not finite and positive.
    InvalidGapMean {
        /// Index of the offending workstation.
        ws: usize,
        /// The offending gap mean.
        gap_mean: f64,
    },
    /// A workstation's fault plan has an out-of-range parameter.
    InvalidFaultPlan {
        /// Index of the offending workstation.
        ws: usize,
        /// The typed per-field error from [`FaultPlan::validate`].
        source: crate::faults::FaultPlanError,
    },
    /// The resilience configuration has an out-of-range parameter.
    InvalidResilience {
        /// What is wrong with the configuration.
        reason: &'static str,
    },
    /// A storm time is negative or not finite.
    InvalidStorm {
        /// The offending storm time.
        time: f64,
    },
}

impl std::fmt::Display for FarmConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FarmConfigError::NoWorkstations => {
                write!(f, "farm needs at least one workstation")
            }
            FarmConfigError::InvalidHorizon { max_virtual_time } => {
                write!(
                    f,
                    "max_virtual_time must be finite and positive, got {max_virtual_time}"
                )
            }
            FarmConfigError::InvalidOverhead { ws, c } => {
                write!(
                    f,
                    "workstation {ws}: overhead c must be finite and >= 0, got {c}"
                )
            }
            FarmConfigError::InvalidGapMean { ws, gap_mean } => {
                write!(
                    f,
                    "workstation {ws}: gap_mean must be finite and positive, got {gap_mean}"
                )
            }
            FarmConfigError::InvalidFaultPlan { ws, source } => {
                write!(f, "workstation {ws}: invalid fault plan: {source}")
            }
            FarmConfigError::InvalidResilience { reason } => {
                write!(f, "invalid resilience config: {reason}")
            }
            FarmConfigError::InvalidStorm { time } => {
                write!(f, "storm times must be finite and >= 0, got {time}")
            }
        }
    }
}

impl std::error::Error for FarmConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FarmConfigError::InvalidFaultPlan { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Per-workstation outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkstationStats {
    /// Task time banked by this workstation.
    pub completed_work: f64,
    /// Task time executed but destroyed (reclamations and crashes).
    pub lost_work: f64,
    /// Chunks banked.
    pub chunks_completed: u64,
    /// Chunks destroyed.
    pub chunks_lost: u64,
    /// Episodes begun.
    pub episodes: u64,
    /// Periods that elapsed with an empty chunk (bag drained or head task
    /// larger than the period budget).
    pub idle_periods: u64,
    /// Dispatches (or their results) lost in transit.
    pub messages_lost: u64,
    /// Chunks whose stretched period overran their lease; their results
    /// arrived after the master had requeued the tasks.
    pub straggled_chunks: u64,
    /// 1 if this workstation crashed permanently during the run.
    pub crashes: u64,
    /// Episodes cut short by a correlated reclaim storm.
    pub storm_kills: u64,
    /// Leases on this workstation's chunks that expired (master gave up and
    /// requeued).
    pub lease_timeouts: u64,
    /// Dispatches delayed by the master's exponential backoff.
    pub backoff_delays: u64,
    /// Quarantine (probation) periods served.
    pub quarantines: u64,
    /// End-game replica chunks this workstation executed.
    pub replicas_dispatched: u64,
    /// Straggler results that still banked first despite their expired
    /// lease.
    pub late_banks: u64,
    /// Task time this workstation computed that was discarded because
    /// another copy banked first.
    pub duplicate_work: f64,
}

/// Farm-wide sums of the robustness counters in [`WorkstationStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RobustnessTotals {
    /// Dispatches (or results) lost in transit.
    pub messages_lost: u64,
    /// Chunks whose results arrived after their lease expired.
    pub straggled_chunks: u64,
    /// Workstations that crashed permanently.
    pub crashes: u64,
    /// Episodes cut short by reclaim storms.
    pub storm_kills: u64,
    /// Leases that expired and were requeued.
    pub lease_timeouts: u64,
    /// Dispatches delayed by exponential backoff.
    pub backoff_delays: u64,
    /// Quarantine periods served.
    pub quarantines: u64,
    /// End-game replica chunks dispatched.
    pub replicas_dispatched: u64,
    /// Straggler results that still banked first.
    pub late_banks: u64,
    /// Task time discarded because another copy banked first.
    pub duplicate_work: f64,
}

/// Outcome of one farm run.
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// Virtual time at which the last chunk was banked (NaN if none).
    pub makespan: f64,
    /// Total task time banked across the farm (each task counted once;
    /// duplicates discarded).
    pub completed_work: f64,
    /// Total task time destroyed by reclamations and crashes.
    pub lost_work: f64,
    /// Task time never banked (pending or in flight at the horizon).
    pub remaining_work: f64,
    /// True when every task was banked before `max_virtual_time`.
    pub drained: bool,
    /// Per-workstation breakdown.
    pub per_workstation: Vec<WorkstationStats>,
    /// Farm-wide robustness counters (all zero for zero-intensity plans).
    pub robustness: RobustnessTotals,
}

/// An event in the farm's virtual-time queue.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// A completed straggler chunk's results reach the master (lease id).
    Arrival(u64),
    /// A dispatched chunk's lease times out (lease id).
    LeaseExpiry(u64),
    /// Workstation `ws` asks for its next period.
    Dispatch(usize),
}

impl EventKind {
    /// Tie-break rank at equal times: arrivals first (a result arriving
    /// exactly at its lease expiry still banks), then expiries (freed tasks
    /// are requeued before dispatches look at the bag), then dispatches in
    /// workstation order.
    pub(crate) fn rank(&self) -> (u8, u64) {
        match *self {
            EventKind::Arrival(id) => (0, id),
            EventKind::LeaseExpiry(id) => (1, id),
            EventKind::Dispatch(ws) => (2, ws as u64),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) time: f64,
    pub(crate) kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap pops the maximum, so reverse every component: pops come
        // in ascending (time, rank) order. `total_cmp` keeps the order total
        // — a NaN time sorts after every finite time instead of comparing
        // `Equal` to everything and scrambling the heap.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.kind.rank().cmp(&self.kind.rank()))
    }
}

/// An outstanding chunk the master has not yet accounted for: dispatched,
/// but neither banked nor abandoned.
pub(crate) struct Lease {
    pub(crate) ws: usize,
    pub(crate) chunk: Chunk,
    pub(crate) expiry: f64,
    /// A straggler arrival will still deliver this lease's results.
    pub(crate) arrives: bool,
    /// The lease timed out (tasks requeued); kept only to receive a late
    /// arrival.
    pub(crate) expired: bool,
    /// End-game replicas dispatched against this chunk.
    pub(crate) replicas: u32,
}

/// One borrowed workstation's run state, indexed by workstation in
/// [`FarmRun`]'s `states`; the snapshot format serializes it field by
/// field.
pub(crate) struct WorkstationState {
    pub(crate) policy: Box<dyn ChunkPolicy>,
    /// Virtual time the current episode started.
    pub(crate) episode_start: f64,
    /// Absolute virtual time the owner reclaims in the current episode
    /// (already truncated by any storm hit).
    pub(crate) reclaim_at: f64,
    /// Fault stream, separate from the episode stream so zero-intensity
    /// plans stay bit-identical.
    pub(crate) fault_rng: StdRng,
    /// Absolute virtual time of the permanent crash (infinity if none).
    pub(crate) crash_at: f64,
    pub(crate) crashed: bool,
    /// Consecutive lease timeouts; reset by a successful bank or
    /// quarantine.
    pub(crate) fail_streak: u32,
    /// The next dispatch must first serve a backoff delay.
    pub(crate) backoff_pending: bool,
    /// The master refuses this workstation work until this time.
    pub(crate) quarantined_until: f64,
    pub(crate) stats: WorkstationStats,
}

/// The set of banked task ids: a flat bitset over the ids below the run's
/// task count ([`TaskBag`] assigns ids densely from zero, so id-indexed
/// words stay compact), and an ordered set for any id past it. A bag
/// checked out from before [`Farm::new`] holds such ids; keying them
/// sparsely means no id's value, however large, sizes an allocation.
pub(crate) struct BankedSet {
    words: Vec<u64>,
    beyond: BTreeSet<u64>,
    count: usize,
}

impl BankedSet {
    /// An empty set with a bitset for the ids below `bits`.
    pub(crate) fn with_bits(bits: u64) -> Self {
        Self {
            words: vec![0; (bits as usize).div_ceil(64)],
            beyond: BTreeSet::new(),
            count: 0,
        }
    }

    /// Inserts `id`; returns `true` when it was not already present
    /// (first-bank-wins).
    pub(crate) fn insert(&mut self, id: u64) -> bool {
        let (w, mask) = ((id / 64) as usize, 1u64 << (id % 64));
        let new = match self.words.get_mut(w) {
            Some(word) => std::mem::replace(word, *word | mask) & mask == 0,
            None => self.beyond.insert(id),
        };
        self.count += usize::from(new);
        new
    }

    #[inline]
    pub(crate) fn contains(&self, id: u64) -> bool {
        let (w, mask) = ((id / 64) as usize, 1u64 << (id % 64));
        match self.words.get(w) {
            Some(word) => word & mask != 0,
            None => self.beyond.contains(&id),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.count
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The banked ids in ascending order (what the snapshot serializes).
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let bits = self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let base = wi as u64 * 64;
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| base + b)
        });
        bits.chain(self.beyond.iter().copied())
    }
}

/// The master's run state: the bag, the live leases, the set of banked task
/// ids (first bank wins) and the event queue.
pub(crate) struct Engine {
    pub(crate) bag: TaskBag,
    /// Pending events; `Event`'s reversed `Ord` makes the max-heap pop in
    /// ascending `(time, rank)` order.
    pub(crate) queue: BinaryHeap<Event>,
    pub(crate) rng: StdRng,
    pub(crate) storms: Vec<f64>,
    /// Live leases by id; iteration in id order pins the snapshot bytes.
    pub(crate) in_flight: BTreeMap<u64, Lease>,
    /// The id the next lease gets: ids are issued once and never reused.
    pub(crate) next_lease: u64,
    pub(crate) banked: BankedSet,
    pub(crate) makespan: f64,
    /// Recycled chunk storage: banked chunks, reused by the next check-out
    /// so the steady-state dispatch loop allocates nothing.
    pub(crate) free_bufs: Vec<Chunk>,
}

impl Engine {
    /// Registers an outstanding chunk and schedules its lease expiry. Every
    /// caller also counts the chunk as lost in transit, lost to a crash or
    /// straggling, which bounds the lease ids a snapshot may claim.
    fn lease(&mut self, ws: usize, chunk: Chunk, expiry: f64, arrives: bool) -> u64 {
        let id = self.next_lease;
        self.next_lease += 1;
        self.in_flight.insert(
            id,
            Lease {
                ws,
                chunk,
                expiry,
                arrives,
                expired: false,
                replicas: 0,
            },
        );
        self.queue.push(Event {
            time: expiry,
            kind: EventKind::LeaseExpiry(id),
        });
        id
    }

    /// Banks a chunk's results at time `end`: first bank wins, duplicates
    /// are discarded and charged to the delivering workstation. Returns the
    /// newly banked task time.
    fn bank(&mut self, chunk: Chunk, stats: &mut WorkstationStats, end: f64) -> f64 {
        let mut new_work = 0.0;
        let mut any = false;
        for task in chunk.tasks() {
            if self.banked.insert(task.id) {
                new_work += task.duration;
                any = true;
            } else {
                stats.duplicate_work += task.duration;
            }
        }
        self.free_bufs.push(chunk);
        stats.completed_work += new_work;
        if any {
            self.makespan = if self.makespan.is_nan() {
                end
            } else {
                self.makespan.max(end)
            };
        }
        new_work
    }

    /// Returns a killed chunk's unbanked tasks to the bag as lost work.
    fn abandon_unbanked(&mut self, mut chunk: Chunk) {
        chunk.retain(|t| !self.banked.contains(t.id));
        self.bag.abandon(chunk);
    }

    /// Drops tasks the master already banked elsewhere from a freshly
    /// checked-out chunk (they can re-enter the bag via lease requeues).
    fn prune_banked(&self, chunk: &mut Chunk) {
        if chunk.is_empty() || self.banked.is_empty() {
            return;
        }
        chunk.retain(|t| !self.banked.contains(t.id));
    }

    /// End-game replication: packs a copy of the most urgent outstanding
    /// chunk's unbanked tasks into `budget`, if any candidate remains.
    fn pack_replica(&mut self, budget: f64, max_replicas: u32) -> Option<Chunk> {
        if budget <= 0.0 {
            return None;
        }
        let mut candidates: Vec<(f64, u64)> = self
            .in_flight
            .iter()
            .filter(|(_, l)| !l.expired && l.replicas < max_replicas)
            .map(|(&id, l)| (l.expiry, id))
            .collect();
        // Most urgent first: the lease that will time out soonest. Only the
        // minimum is usually consumed, so select it with a single arg-min
        // pass instead of sorting; the (expiry, id) comparison matches the
        // old full sort exactly, including the id tie-break.
        while !candidates.is_empty() {
            let mut best = 0;
            for i in 1..candidates.len() {
                let (be, bid) = candidates[best];
                let (ce, cid) = candidates[i];
                if ce.total_cmp(&be).then(cid.cmp(&bid)) == Ordering::Less {
                    best = i;
                }
            }
            let (_, id) = candidates.swap_remove(best);
            let lease = &self.in_flight[&id];
            let mut used = 0.0;
            let mut tasks = Vec::new();
            for task in lease.chunk.tasks() {
                if self.banked.contains(task.id) {
                    continue;
                }
                if used + task.duration > budget + 1e-12 {
                    break;
                }
                used += task.duration;
                tasks.push(task);
            }
            if tasks.is_empty() {
                continue;
            }
            self.in_flight
                .get_mut(&id)
                .expect("candidate lease exists")
                .replicas += 1;
            return Some(Chunk::from_tasks(tasks));
        }
        None
    }
}

/// The farm simulator. Construct with [`Farm::new`], then [`Farm::run`]
/// (or the durable [`Farm::run_journaled`] / [`Farm::resume`] pair in
/// [`crate::journal`]).
pub struct Farm {
    pub(crate) config: FarmConfig,
    pub(crate) bag: TaskBag,
    /// Sorted copy of `config.storms`.
    pub(crate) storms: Vec<f64>,
}

impl Farm {
    /// Creates a farm over the given task bag, rejecting invalid
    /// configurations.
    pub fn new(config: FarmConfig, bag: TaskBag) -> Result<Self, FarmConfigError> {
        config.validate()?;
        let mut storms = config.storms.clone();
        storms.sort_by(f64::total_cmp);
        Ok(Self {
            config,
            bag,
            storms,
        })
    }

    /// Runs the simulation to drain or horizon, consuming the farm.
    ///
    /// Every master action goes to `sink` as a [`cs_obs`] event:
    /// `run_start`, per-workstation `episode_start`,
    /// `dispatch`/`bank`/`lease_timeout`/`requeue` and the whole fault and
    /// countermeasure vocabulary (`message_lost`, `period_interrupt`,
    /// `crash`, `straggle`, `backoff`, `quarantine`, `storm_kill`,
    /// `replica`), closed by `run_end`. `bank` events reconcile exactly
    /// with the report: per workstation, the sum of `work` fields in
    /// emission order equals that workstation's `completed_work` bit for
    /// bit, and `run_end.banked` equals the report's `completed_work`.
    ///
    /// `prof` times the master's own hot path: setup, then one phase span
    /// per event-queue pop — `farm.dispatch` (or `farm.end_game` once the
    /// bag is drained and only outstanding leases remain), `farm.wait` for
    /// result arrivals, `farm.requeue` for lease expiries — and
    /// `farm.account` for the final reconciliation, all under a `farm.run`
    /// root span. Durations land in `prof`'s `span_ns.*` histograms and the
    /// span events go to `sink` strictly between `run_start` and `run_end`.
    ///
    /// Sink and profiler are strictly pass-through — neither feeds back
    /// into the RNG, the bag or the event queue — so the returned
    /// [`FarmReport`] is bit-identical with `&mut NoopSink` and
    /// [`SpanProfiler::disabled`] or with any other observers.
    pub fn run(self, sink: &mut dyn EventSink, prof: &mut SpanProfiler) -> FarmReport {
        let mut run = FarmRun::start(self, sink, prof);
        while run.step(sink, prof) {}
        run.finish(sink, prof)
    }
}

/// A farm run paused between virtual-time events: the steppable core behind
/// [`Farm::run`] and the unit of state the snapshot subsystem
/// ([`crate::snapshot`]) captures. [`FarmRun::start`] emits `run_start` and
/// seeds the engine, each [`FarmRun::step`] pops and handles one queue
/// event, [`FarmRun::finish`] reconciles and emits `run_end`. Driving the
/// three in sequence is byte-for-byte the monolithic loop this replaced.
pub(crate) struct FarmRun {
    pub(crate) config: FarmConfig,
    pub(crate) initial_tasks: usize,
    pub(crate) eng: Engine,
    pub(crate) states: Vec<WorkstationState>,
    /// Virtual time of the last handled event.
    pub(crate) now: f64,
    /// The `farm.run` root span. [`SpanId::NONE`] for snapshot-restored
    /// runs: their profiler never opened one, and ending NONE is a no-op.
    pub(crate) root_span: SpanId,
}

impl FarmRun {
    /// Emits `run_start`, seeds the engine and schedules the initial
    /// dispatches — everything up to the first queue pop.
    pub(crate) fn start(farm: Farm, sink: &mut dyn EventSink, prof: &mut SpanProfiler) -> Self {
        let Farm {
            config,
            bag,
            storms,
        } = farm;
        let observe = sink.wants_events();
        let initial_tasks = bag.pending_count();
        if observe {
            sink.emit(&ObsEvent {
                time: 0.0,
                kind: ObsKind::RunStart {
                    seed: config.seed,
                    workstations: config.workstations.len() as u64,
                    tasks: initial_tasks as u64,
                },
            });
        }
        let root_span = prof.start("farm.run", &mut *sink);
        let setup_span = prof.start("farm.setup", &mut *sink);
        let n = config.workstations.len();
        let mut eng = Engine {
            bag,
            queue: BinaryHeap::with_capacity(4 * n + 16),
            rng: StdRng::seed_from_u64(config.seed),
            storms,
            in_flight: BTreeMap::new(),
            next_lease: 0,
            banked: BankedSet::with_bits(initial_tasks as u64),
            makespan: f64::NAN,
            free_bufs: Vec::new(),
        };
        let mut caches = cs_scenarios::PolicyCaches::new();
        let mut states = Vec::with_capacity(n);
        for (i, wc) in config.workstations.iter().enumerate() {
            let policy = wc
                .policy
                .build_shared(wc.believed.clone(), wc.c, &mut caches);
            let reclaim_at = draw_reclaim(episode_life(wc, 0.0), &mut eng.rng);
            let mut fault_rng = StdRng::seed_from_u64(
                config.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let crash_at = if wc.faults.crash_rate > 0.0 {
                let u = fault_rng.random::<f64>().clamp(1e-12, 1.0 - 1e-12);
                -u.ln() / wc.faults.crash_rate
            } else {
                f64::INFINITY
            };
            let mut st = WorkstationState {
                policy,
                episode_start: 0.0,
                reclaim_at,
                fault_rng,
                crash_at,
                crashed: false,
                fail_streak: 0,
                backoff_pending: false,
                quarantined_until: 0.0,
                stats: WorkstationStats {
                    episodes: 1,
                    ..Default::default()
                },
            };
            if observe {
                sink.emit(&ObsEvent {
                    time: 0.0,
                    kind: ObsKind::EpisodeStart { ws: i as u64 },
                });
            }
            apply_storms(&mut st, i, wc, &eng.storms, sink, observe);
            states.push(st);
            eng.queue.push(Event {
                time: 0.0,
                kind: EventKind::Dispatch(i),
            });
        }
        prof.end(setup_span, &mut *sink);
        Self {
            config,
            initial_tasks,
            eng,
            states,
            now: 0.0,
            root_span,
        }
    }

    /// Pops and handles the next queue event. Returns `false` once the run
    /// is over (queue empty, or every task banked); the caller then calls
    /// [`FarmRun::finish`].
    pub(crate) fn step(&mut self, sink: &mut dyn EventSink, prof: &mut SpanProfiler) -> bool {
        let Some(Event { time, kind }) = self.eng.queue.pop() else {
            return false;
        };
        if time > self.config.max_virtual_time {
            return true;
        }
        if self.eng.banked.len() == self.initial_tasks {
            // Every task banked; outstanding leases carry only duplicates.
            return false;
        }
        let observe = sink.wants_events();
        self.now = time;
        match kind {
            EventKind::Dispatch(ws) => {
                // Once the bag is empty but leases are still out, a
                // dispatch opportunity is end-game territory (tail
                // replication) rather than ordinary parceling.
                let phase = if self.eng.bag.is_drained() && !self.eng.in_flight.is_empty() {
                    "farm.end_game"
                } else {
                    "farm.dispatch"
                };
                let span = prof.start(phase, &mut *sink);
                dispatch(
                    &mut self.eng,
                    &self.config,
                    &mut self.states[ws],
                    ws,
                    time,
                    sink,
                    observe,
                );
                prof.end(span, &mut *sink);
            }
            EventKind::LeaseExpiry(id) => {
                let span = prof.start("farm.requeue", &mut *sink);
                expire_lease(
                    &mut self.eng,
                    &self.config,
                    &mut self.states,
                    id,
                    time,
                    sink,
                    observe,
                );
                prof.end(span, &mut *sink);
            }
            EventKind::Arrival(id) => {
                let span = prof.start("farm.wait", &mut *sink);
                if let Some(lease) = self.eng.in_flight.remove(&id) {
                    let stats = &mut self.states[lease.ws].stats;
                    let total = lease.chunk.total_duration();
                    let work = self.eng.bank(lease.chunk, stats, time);
                    if observe {
                        sink.emit(&ObsEvent {
                            time,
                            kind: ObsKind::Bank {
                                ws: lease.ws as u64,
                                work,
                                duplicate: total - work,
                            },
                        });
                    }
                    stats.chunks_completed += 1;
                    if work > 0.0 {
                        stats.late_banks += 1;
                    }
                }
                prof.end(span, &mut *sink);
            }
        }
        true
    }

    /// Reconciles the final accounts, closes the root span and emits
    /// `run_end`.
    pub(crate) fn finish(self, sink: &mut dyn EventSink, prof: &mut SpanProfiler) -> FarmReport {
        let FarmRun {
            initial_tasks,
            eng,
            states,
            root_span,
            ..
        } = self;
        let account_span = prof.start("farm.account", &mut *sink);
        let stats: Vec<WorkstationStats> = states.into_iter().map(|s| s.stats).collect();
        let completed_work: f64 = stats.iter().map(|s| s.completed_work).sum();
        let lost_work: f64 = stats.iter().map(|s| s.lost_work).sum();
        let remaining_work = if eng.in_flight.is_empty() {
            eng.bag
                .pending_tasks()
                .filter(|t| !eng.banked.contains(t.id))
                .map(|t| t.duration)
                .sum()
        } else {
            // Unique unbanked tasks across the bag and every outstanding
            // lease (requeues can leave copies in both places).
            let mut remaining: BTreeMap<u64, f64> = BTreeMap::new();
            for task in eng.bag.pending_tasks() {
                if !eng.banked.contains(task.id) {
                    remaining.insert(task.id, task.duration);
                }
            }
            for lease in eng.in_flight.values() {
                for task in lease.chunk.tasks() {
                    if !eng.banked.contains(task.id) {
                        remaining.insert(task.id, task.duration);
                    }
                }
            }
            remaining.values().sum()
        };
        let mut robustness = RobustnessTotals::default();
        for s in &stats {
            robustness.messages_lost += s.messages_lost;
            robustness.straggled_chunks += s.straggled_chunks;
            robustness.crashes += s.crashes;
            robustness.storm_kills += s.storm_kills;
            robustness.lease_timeouts += s.lease_timeouts;
            robustness.backoff_delays += s.backoff_delays;
            robustness.quarantines += s.quarantines;
            robustness.replicas_dispatched += s.replicas_dispatched;
            robustness.late_banks += s.late_banks;
            robustness.duplicate_work += s.duplicate_work;
        }
        let drained = eng.banked.len() == initial_tasks;
        prof.end(account_span, &mut *sink);
        prof.end(root_span, &mut *sink);
        if sink.wants_events() {
            sink.emit(&ObsEvent {
                time: eng.makespan,
                kind: ObsKind::RunEnd {
                    banked: completed_work,
                    lost: lost_work,
                    drained,
                },
            });
        }
        FarmReport {
            makespan: eng.makespan,
            completed_work,
            lost_work,
            remaining_work,
            drained,
            per_workstation: stats,
            robustness,
        }
    }
}

/// Handles one dispatch opportunity for workstation `ws` at `time`.
fn dispatch(
    eng: &mut Engine,
    config: &FarmConfig,
    st: &mut WorkstationState,
    ws: usize,
    time: f64,
    sink: &mut dyn EventSink,
    observe: bool,
) {
    let wc = &config.workstations[ws];
    if st.crashed {
        return;
    }
    if time >= st.crash_at {
        st.crashed = true;
        st.stats.crashes = 1;
        st.policy.observe(&PeriodOutcome::Crashed);
        if observe {
            sink.emit(&ObsEvent {
                time,
                kind: ObsKind::Crash { ws: ws as u64 },
            });
        }
        return;
    }
    if time < st.quarantined_until {
        // Quarantine subsumes any pending backoff.
        st.backoff_pending = false;
        eng.queue.push(Event {
            time: st.quarantined_until,
            kind: EventKind::Dispatch(ws),
        });
        return;
    }
    if st.backoff_pending {
        st.backoff_pending = false;
        let delay = backoff_delay(&config.resilience, st.fail_streak);
        if delay > 0.0 {
            st.stats.backoff_delays += 1;
            if observe {
                sink.emit(&ObsEvent {
                    time,
                    kind: ObsKind::Backoff {
                        ws: ws as u64,
                        delay,
                    },
                });
            }
            eng.queue.push(Event {
                time: time + delay,
                kind: EventKind::Dispatch(ws),
            });
            return;
        }
    }
    let elapsed = time - st.episode_start;
    match st.policy.next_period(elapsed) {
        Some(t) if t.is_finite() && t > 0.0 => {
            let mut chunk = eng.free_bufs.pop().unwrap_or_default();
            cs_tasks::pack_chunk_into(&mut eng.bag, t, wc.c, &mut chunk);
            eng.prune_banked(&mut chunk);
            if chunk.is_empty() {
                if config.resilience.replicate_tail
                    && eng.bag.is_drained()
                    && !eng.in_flight.is_empty()
                {
                    if let Some(replica) =
                        eng.pack_replica((t - wc.c).max(0.0), config.resilience.max_replicas)
                    {
                        // The empty check-out goes back to the pool.
                        eng.free_bufs.push(chunk);
                        st.stats.replicas_dispatched += 1;
                        if observe {
                            sink.emit(&ObsEvent {
                                time,
                                kind: ObsKind::Replica {
                                    ws: ws as u64,
                                    tasks: replica.len() as u64,
                                },
                            });
                        }
                        resolve_chunk(eng, config, st, ws, time, t, replica, sink, observe);
                        return;
                    }
                }
                eng.free_bufs.push(chunk);
                // Idle periods journal nothing, so restore cannot bound a
                // forged count by the journal: saturate, never overflow.
                st.stats.idle_periods = st.stats.idle_periods.saturating_add(1);
                // Nothing dispatchable this period; try again later.
                eng.queue.push(Event {
                    time: time + t * wc.faults.slowdown,
                    kind: EventKind::Dispatch(ws),
                });
            } else {
                resolve_chunk(eng, config, st, ws, time, t, chunk, sink, observe);
            }
        }
        _ => {
            // Policy declined (no productive period left in this episode):
            // wait out the owner and start a new episode.
            start_next_episode(eng, st, ws, wc, sink, observe);
        }
    }
}

/// Decides the fate of a dispatched, non-empty chunk: lost in transit,
/// killed by the owner, dead with a crashed workstation, straggling past its
/// lease, or banked.
#[allow(clippy::too_many_arguments)]
fn resolve_chunk(
    eng: &mut Engine,
    config: &FarmConfig,
    st: &mut WorkstationState,
    ws: usize,
    time: f64,
    t: f64,
    chunk: Chunk,
    sink: &mut dyn EventSink,
    observe: bool,
) {
    let wc = &config.workstations[ws];
    let res = &config.resilience;
    let end = time + t * wc.faults.slowdown;
    if observe {
        sink.emit(&ObsEvent {
            time,
            kind: ObsKind::Dispatch {
                ws: ws as u64,
                tasks: chunk.len() as u64,
                work: chunk.total_duration(),
            },
        });
    }
    // (a) The dispatch or its result vanishes in transit: the period burns
    // its overhead, nothing executes as far as the master can tell, and the
    // chunk's tasks come back only when the lease expires.
    if wc.faults.loss_prob > 0.0 && st.fault_rng.random::<f64>() < wc.faults.loss_prob {
        st.stats.messages_lost += 1;
        st.policy.observe(&PeriodOutcome::Lost);
        if observe {
            sink.emit(&ObsEvent {
                time,
                kind: ObsKind::MessageLost { ws: ws as u64 },
            });
        }
        eng.lease(ws, chunk, time + res.lease_factor * t, false);
        if end >= st.reclaim_at {
            start_next_episode(eng, st, ws, wc, sink, observe);
        } else {
            eng.queue.push(Event {
                time: end,
                kind: EventKind::Dispatch(ws),
            });
        }
        return;
    }
    // (b) §2.1 kill: the owner reclaims mid-period (storms are already
    // folded into `reclaim_at`), before any crash.
    if end >= st.reclaim_at && st.reclaim_at <= st.crash_at {
        let lost = chunk.total_duration();
        st.stats.chunks_lost += 1;
        st.stats.lost_work += lost;
        st.policy.observe(&PeriodOutcome::Killed { lost });
        if observe {
            sink.emit(&ObsEvent {
                time: st.reclaim_at,
                kind: ObsKind::PeriodInterrupt {
                    ws: ws as u64,
                    lost,
                },
            });
        }
        eng.abandon_unbanked(chunk);
        start_next_episode(eng, st, ws, wc, sink, observe);
        return;
    }
    // (c) Silent crash mid-period: the work dies with the workstation and
    // the master learns only from the lease timeout.
    if end > st.crash_at {
        let lost = chunk.total_duration();
        st.crashed = true;
        st.stats.crashes = 1;
        st.stats.chunks_lost += 1;
        st.stats.lost_work += lost;
        st.policy.observe(&PeriodOutcome::Crashed);
        if observe {
            sink.emit(&ObsEvent {
                time: st.crash_at,
                kind: ObsKind::Crash { ws: ws as u64 },
            });
        }
        eng.lease(ws, chunk, time + res.lease_factor * t, false);
        return;
    }
    // The chunk completes at `end`.
    let lease_expiry = time + res.lease_factor * t;
    if end > lease_expiry {
        // (d) Straggler: the result will arrive after the master's lease
        // gave up on it. First bank still wins when it lands.
        st.stats.straggled_chunks += 1;
        st.policy.observe(&PeriodOutcome::Straggled);
        if observe {
            sink.emit(&ObsEvent {
                time,
                kind: ObsKind::Straggle { ws: ws as u64 },
            });
        }
        let id = eng.lease(ws, chunk, lease_expiry, true);
        eng.queue.push(Event {
            time: end,
            kind: EventKind::Arrival(id),
        });
        eng.queue.push(Event {
            time: end,
            kind: EventKind::Dispatch(ws),
        });
    } else {
        let total = chunk.total_duration();
        let work = eng.bank(chunk, &mut st.stats, end);
        if observe {
            sink.emit(&ObsEvent {
                time: end,
                kind: ObsKind::Bank {
                    ws: ws as u64,
                    work,
                    duplicate: total - work,
                },
            });
        }
        st.stats.chunks_completed += 1;
        st.fail_streak = 0;
        st.policy.observe(&PeriodOutcome::Banked { work });
        eng.queue.push(Event {
            time: end,
            kind: EventKind::Dispatch(ws),
        });
    }
}

/// Handles a lease timeout: requeues the chunk's unbanked tasks and
/// penalizes the workstation (backoff, then quarantine).
#[allow(clippy::too_many_arguments)]
fn expire_lease(
    eng: &mut Engine,
    config: &FarmConfig,
    states: &mut [WorkstationState],
    id: u64,
    time: f64,
    sink: &mut dyn EventSink,
    observe: bool,
) {
    let (lease_ws, keep) = {
        let Some(lease) = eng.in_flight.get_mut(&id) else {
            return;
        };
        if lease.expired {
            return;
        }
        lease.expired = true;
        (lease.ws, lease.arrives)
    };
    if observe {
        sink.emit(&ObsEvent {
            time,
            kind: ObsKind::LeaseTimeout {
                ws: lease_ws as u64,
                lease: id,
            },
        });
    }
    // Requeue the chunk's unbanked tasks (nothing executed and was
    // destroyed, so no lost work). A lease kept for a late arrival retains
    // its chunk, so the requeued tasks are fresh copies; a dead lease hands
    // its chunk over outright.
    let requeued = if keep {
        let mut fresh = eng.in_flight[&id].chunk.clone();
        fresh.retain(|t| !eng.banked.contains(t.id));
        let n = fresh.len() as u64;
        eng.bag.requeue(fresh);
        n
    } else {
        let mut chunk = eng
            .in_flight
            .remove(&id)
            .expect("lease just marked expired")
            .chunk;
        chunk.retain(|t| !eng.banked.contains(t.id));
        let n = chunk.len() as u64;
        eng.bag.requeue(chunk);
        n
    };
    if observe {
        sink.emit(&ObsEvent {
            time,
            kind: ObsKind::Requeue {
                ws: lease_ws as u64,
                tasks: requeued,
            },
        });
    }
    let st = &mut states[lease_ws];
    st.stats.lease_timeouts += 1;
    if !st.crashed {
        st.fail_streak += 1;
        st.backoff_pending = true;
        let res = &config.resilience;
        if res.quarantine_threshold > 0 && st.fail_streak >= res.quarantine_threshold {
            st.fail_streak = 0;
            st.backoff_pending = false;
            st.stats.quarantines += 1;
            st.quarantined_until = time + res.quarantine_duration;
            if observe {
                sink.emit(&ObsEvent {
                    time,
                    kind: ObsKind::Quarantine {
                        ws: lease_ws as u64,
                        until: st.quarantined_until,
                    },
                });
            }
        }
    }
}

/// Capped exponential backoff after `streak` consecutive timeouts.
fn backoff_delay(res: &ResilienceConfig, streak: u32) -> f64 {
    if res.backoff_base <= 0.0 || streak == 0 {
        return 0.0;
    }
    let doubled = res.backoff_base * 2f64.powi((streak - 1).min(62) as i32);
    doubled.min(res.backoff_cap)
}

/// Draws an episode's reclamation *duration* from the life function.
fn draw_reclaim(life: &ArcLife, rng: &mut StdRng) -> f64 {
    let u = rng.random::<f64>().clamp(1e-12, 1.0 - 1e-12);
    life.inverse_survival(u)
}

/// The life function actually governing an episode starting at
/// `episode_start` — the drifted one once belief drift has kicked in.
fn episode_life(wc: &WorkstationConfig, episode_start: f64) -> &ArcLife {
    match &wc.faults.drift {
        Some(d) if episode_start >= d.at => &d.new_life,
        _ => &wc.life,
    }
}

/// Truncates the episode at the first reclaim storm that hits this
/// workstation (correlated reclamation).
fn apply_storms(
    st: &mut WorkstationState,
    ws: usize,
    wc: &WorkstationConfig,
    storms: &[f64],
    sink: &mut dyn EventSink,
    observe: bool,
) {
    if wc.faults.storm_hit_prob <= 0.0 {
        return;
    }
    for &s in storms {
        if s < st.episode_start {
            continue;
        }
        if s >= st.reclaim_at {
            break;
        }
        if st.fault_rng.random::<f64>() < wc.faults.storm_hit_prob {
            st.reclaim_at = s;
            st.stats.storm_kills += 1;
            if observe {
                sink.emit(&ObsEvent {
                    time: s,
                    kind: ObsKind::StormKill { ws: ws as u64 },
                });
            }
            break;
        }
    }
}

/// Ends the current episode: the owner is present for an exponential gap,
/// then a new episode (with a fresh reclamation draw) begins.
fn start_next_episode(
    eng: &mut Engine,
    st: &mut WorkstationState,
    ws: usize,
    wc: &WorkstationConfig,
    sink: &mut dyn EventSink,
    observe: bool,
) {
    let u = eng.rng.random::<f64>().clamp(1e-12, 1.0 - 1e-12);
    let gap = -wc.gap_mean * u.ln();
    let next_start = st.reclaim_at + gap;
    st.episode_start = next_start;
    st.reclaim_at = next_start + draw_reclaim(episode_life(wc, next_start), &mut eng.rng);
    if observe {
        sink.emit(&ObsEvent {
            time: next_start,
            kind: ObsKind::EpisodeStart { ws: ws as u64 },
        });
    }
    apply_storms(st, ws, wc, &eng.storms, sink, observe);
    st.stats.episodes += 1;
    st.policy.reset();
    eng.queue.push(Event {
        time: next_start,
        kind: EventKind::Dispatch(ws),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_life::Uniform;
    use cs_obs::NoopSink;
    use cs_tasks::workloads;
    use std::sync::Arc;

    fn uniform_ws(l: f64, c: f64, policy: PolicySpec) -> WorkstationConfig {
        let life: ArcLife = Arc::new(Uniform::new(l).unwrap());
        WorkstationConfig {
            life: life.clone(),
            believed: life,
            c,
            policy,
            gap_mean: 5.0,
            faults: FaultPlan::none(),
        }
    }

    fn run_farm(n_ws: usize, policy: PolicySpec, tasks: usize, seed: u64) -> FarmReport {
        let bag = workloads::uniform(tasks, 1.0).unwrap();
        let config = FarmConfig::new(
            (0..n_ws).map(|_| uniform_ws(200.0, 2.0, policy)).collect(),
            1e6,
            seed,
        );
        Farm::new(config, bag)
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled())
    }

    #[test]
    fn farm_drains_the_bag() {
        let r = run_farm(4, PolicySpec::FixedSize(20.0), 500, 7);
        assert!(r.drained, "remaining = {}", r.remaining_work);
        assert!((r.completed_work - 500.0).abs() < 1e-9);
        assert!(r.makespan.is_finite() && r.makespan > 0.0);
    }

    #[test]
    fn farm_is_deterministic_per_seed() {
        let a = run_farm(3, PolicySpec::Greedy, 300, 11);
        let b = run_farm(3, PolicySpec::Greedy, 300, 11);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.lost_work, b.lost_work);
        let c = run_farm(3, PolicySpec::Greedy, 300, 12);
        // Different seed, almost surely different outcome.
        assert!(a.makespan != c.makespan || a.lost_work != c.lost_work);
    }

    #[test]
    fn more_workstations_finish_sooner() {
        let slow = run_farm(2, PolicySpec::FixedSize(20.0), 800, 3);
        let fast = run_farm(8, PolicySpec::FixedSize(20.0), 800, 3);
        assert!(slow.drained && fast.drained);
        assert!(
            fast.makespan < slow.makespan,
            "8 ws: {}, 2 ws: {}",
            fast.makespan,
            slow.makespan
        );
    }

    #[test]
    fn reclamations_cause_lost_work() {
        // Short lifespans and long fixed chunks: plenty of kills.
        let bag = workloads::uniform(400, 1.0).unwrap();
        let config = FarmConfig::new(
            (0..4)
                .map(|_| uniform_ws(30.0, 2.0, PolicySpec::FixedSize(15.0)))
                .collect(),
            1e6,
            21,
        );
        let r = Farm::new(config, bag)
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        assert!(r.lost_work > 0.0, "expected some kills");
        // Conservation: banked + remaining = initial work.
        assert!((r.completed_work + r.remaining_work - 400.0).abs() < 1e-9);
    }

    #[test]
    fn horizon_stops_unfinished_farm() {
        let bag = workloads::uniform(100_000, 1.0).unwrap();
        let config = FarmConfig::new(
            vec![uniform_ws(100.0, 2.0, PolicySpec::FixedSize(10.0))],
            50.0,
            5,
        );
        let r = Farm::new(config, bag)
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        assert!(!r.drained);
        assert!(r.remaining_work > 0.0);
    }

    #[test]
    fn guideline_policy_beats_bad_fixed_sizes_on_uniform_now() {
        // The headline end-to-end claim: guideline chunk-sizing banks work
        // faster than badly-sized fixed chunks on the same NOW.
        let tasks = 600;
        let guideline = run_farm(4, PolicySpec::Guideline, tasks, 17);
        let tiny = run_farm(4, PolicySpec::FixedSize(4.0), tasks, 17);
        let huge = run_farm(4, PolicySpec::FixedSize(190.0), tasks, 17);
        assert!(guideline.drained);
        assert!(
            guideline.makespan < tiny.makespan,
            "guideline {} vs tiny-chunks {}",
            guideline.makespan,
            tiny.makespan
        );
        assert!(
            !huge.drained || guideline.makespan < huge.makespan,
            "guideline {} vs huge-chunks {} (drained={})",
            guideline.makespan,
            huge.makespan,
            huge.drained
        );
    }

    #[test]
    fn run_profiled_is_passthrough_with_phase_spans() {
        let mk = || {
            let bag = workloads::uniform(300, 1.0).unwrap();
            let config = FarmConfig::new(
                (0..3)
                    .map(|_| uniform_ws(200.0, 2.0, PolicySpec::Guideline))
                    .collect(),
                1e6,
                11,
            );
            Farm::new(config, bag).unwrap()
        };
        let plain = mk().run(&mut NoopSink, &mut SpanProfiler::disabled());
        let mut sink = cs_obs::MemorySink::new();
        let mut prof = SpanProfiler::new();
        let profiled = mk().run(&mut sink, &mut prof);
        // Pass-through: profiling must not perturb a single bit.
        assert_eq!(plain.makespan.to_bits(), profiled.makespan.to_bits());
        assert_eq!(
            plain.completed_work.to_bits(),
            profiled.completed_work.to_bits()
        );
        assert_eq!(plain.lost_work.to_bits(), profiled.lost_work.to_bits());
        assert_eq!(plain.per_workstation.len(), profiled.per_workstation.len());
        // Phase spans recorded: setup/account/run once, dispatch and wait
        // once per queue event of that class.
        assert_eq!(prof.open_spans(), 0);
        let reg = prof.registry();
        assert_eq!(reg.histogram("span_ns.farm.run").unwrap().count(), 1);
        assert_eq!(reg.histogram("span_ns.farm.setup").unwrap().count(), 1);
        assert_eq!(reg.histogram("span_ns.farm.account").unwrap().count(), 1);
        // Waits/requeues need stragglers or faults; a clean run may have
        // none, but it always dispatches.
        let dispatches = reg.histogram("span_ns.farm.dispatch").unwrap().count();
        assert!(dispatches > 0, "no dispatch spans recorded");
        // Trace layout: run bookkeeping brackets the span stream, and every
        // line (span events included) validates under the v2 schema.
        use cs_obs::EventKind as K;
        assert!(matches!(
            sink.events.first().unwrap().kind,
            K::RunStart { .. }
        ));
        assert!(matches!(sink.events.last().unwrap().kind, K::RunEnd { .. }));
        let starts = sink
            .events
            .iter()
            .filter(|e| matches!(e.kind, K::SpanStart { .. }))
            .count();
        let ends = sink
            .events
            .iter()
            .filter(|e| matches!(e.kind, K::SpanEnd { .. }))
            .count();
        assert!(starts > 0 && starts == ends, "{starts} starts, {ends} ends");
        for e in sink.events.iter().take(50) {
            assert_eq!(ObsEvent::from_jsonl(&e.to_jsonl()).as_ref(), Ok(e));
        }
    }

    #[test]
    fn per_workstation_stats_consistent() {
        let r = run_farm(3, PolicySpec::FixedSize(20.0), 300, 9);
        let sum: f64 = r.per_workstation.iter().map(|w| w.completed_work).sum();
        assert!((sum - r.completed_work).abs() < 1e-9);
        for w in &r.per_workstation {
            assert!(w.episodes >= 1);
        }
    }

    #[test]
    fn policy_kind_labels() {
        assert_eq!(PolicySpec::Guideline.label(), "guideline");
        assert_eq!(PolicySpec::Greedy.label(), "greedy");
        assert!(PolicySpec::FixedSize(3.0).label().contains("3"));
    }

    #[test]
    fn event_ordering_is_total_even_for_nan_times() {
        // Regression: the queue used to order by `partial_cmp(..).unwrap_or(
        // Equal)`, so a NaN time compared Equal to everything and could
        // scramble heap invariants. `total_cmp` keeps the order total, so
        // the engine's `BinaryHeap` pops NaN times last.
        let mk = |time, ws| Event {
            time,
            kind: EventKind::Dispatch(ws),
        };
        let nan = mk(f64::NAN, 0);
        let one = mk(1.0, 1);
        assert_eq!(nan.cmp(&one), one.cmp(&nan).reverse());
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        let mut queue = BinaryHeap::new();
        for e in [
            mk(f64::NAN, 0),
            mk(2.0, 1),
            mk(0.5, 2),
            mk(f64::NAN, 3),
            mk(1.0, 4),
        ] {
            queue.push(e);
        }
        let order: Vec<f64> = std::iter::from_fn(|| queue.pop().map(|e| e.time)).collect();
        // Finite times pop ascending; NaNs sort after every finite time.
        assert_eq!(&order[..3], &[0.5, 1.0, 2.0]);
        assert!(order[3].is_nan() && order[4].is_nan());
    }

    #[test]
    fn simultaneous_events_pop_in_arrival_expiry_dispatch_order() {
        let mut queue = BinaryHeap::new();
        queue.push(Event {
            time: 5.0,
            kind: EventKind::Dispatch(1),
        });
        queue.push(Event {
            time: 5.0,
            kind: EventKind::Dispatch(0),
        });
        queue.push(Event {
            time: 5.0,
            kind: EventKind::LeaseExpiry(7),
        });
        queue.push(Event {
            time: 5.0,
            kind: EventKind::Arrival(3),
        });
        let kinds: Vec<(u8, u64)> =
            std::iter::from_fn(|| queue.pop().map(|e| e.kind.rank())).collect();
        assert_eq!(kinds, vec![(0, 3), (1, 7), (2, 0), (2, 1)]);
    }

    #[test]
    fn banked_set_matches_hash_set_semantics() {
        let mut set = BankedSet::with_bits(0);
        assert!(set.is_empty());
        assert!(!set.contains(0));
        assert!(set.insert(5));
        assert!(!set.insert(5), "second insert reports already-present");
        assert!(set.insert(0));
        assert!(set.insert(200));
        assert_eq!(set.len(), 3);
        assert!(set.contains(200) && !set.contains(199));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 5, 200]);
        let mut pre = BankedSet::with_bits(128);
        assert!(pre.is_empty() && !pre.contains(127));
        // Ids past the bitset are keyed sparsely, in order after it: the
        // largest id allocates nothing by its value.
        for id in [u64::MAX, 127, 300, 3] {
            assert!(pre.insert(id));
        }
        assert!(!pre.insert(u64::MAX) && pre.contains(300) && !pre.contains(128));
        assert_eq!(pre.iter().collect::<Vec<_>>(), vec![3, 127, 300, u64::MAX]);
        assert_eq!(pre.len(), 4);
    }

    #[test]
    fn farm_config_validation_rejects_bad_inputs() {
        let bag = || workloads::uniform(10, 1.0).unwrap();
        let good = || FarmConfig::new(vec![uniform_ws(100.0, 2.0, PolicySpec::Greedy)], 1e4, 1);

        let empty = FarmConfig::new(vec![], 1e4, 1);
        assert_eq!(
            Farm::new(empty, bag()).err(),
            Some(FarmConfigError::NoWorkstations)
        );

        let mut bad_c = good();
        bad_c.workstations[0].c = -1.0;
        assert!(matches!(
            Farm::new(bad_c, bag()).err(),
            Some(FarmConfigError::InvalidOverhead { ws: 0, .. })
        ));
        let mut nan_c = good();
        nan_c.workstations[0].c = f64::NAN;
        assert!(nan_c.validate().is_err());

        let mut bad_gap = good();
        bad_gap.workstations[0].gap_mean = 0.0;
        assert!(matches!(
            bad_gap.validate().err(),
            Some(FarmConfigError::InvalidGapMean { ws: 0, .. })
        ));

        let mut bad_horizon = good();
        bad_horizon.max_virtual_time = 0.0;
        assert!(matches!(
            bad_horizon.validate().err(),
            Some(FarmConfigError::InvalidHorizon { .. })
        ));

        let mut bad_plan = good();
        bad_plan.workstations[0].faults.loss_prob = 2.0;
        assert!(matches!(
            bad_plan.validate().err(),
            Some(FarmConfigError::InvalidFaultPlan { ws: 0, .. })
        ));

        let mut bad_res = good();
        bad_res.resilience.lease_factor = 0.5;
        assert!(matches!(
            bad_res.validate().err(),
            Some(FarmConfigError::InvalidResilience { .. })
        ));

        let mut bad_storm = good();
        bad_storm.storms = vec![10.0, f64::NAN];
        assert!(matches!(
            bad_storm.validate().err(),
            Some(FarmConfigError::InvalidStorm { .. })
        ));

        // Errors render as human-readable messages.
        for err in [
            FarmConfigError::NoWorkstations,
            FarmConfigError::InvalidOverhead { ws: 3, c: -1.0 },
            FarmConfigError::InvalidResilience { reason: "x" },
        ] {
            assert!(!err.to_string().is_empty());
        }

        assert!(good().validate().is_ok());
    }

    #[test]
    fn zero_intensity_faults_are_bit_identical() {
        // The fault layer must be invisible at zero intensity: storms that
        // nothing is susceptible to and a different resilience config leave
        // every report field bit-identical.
        let base = run_farm(3, PolicySpec::Greedy, 300, 11);
        let bag = workloads::uniform(300, 1.0).unwrap();
        let mut config = FarmConfig::new(
            (0..3)
                .map(|_| uniform_ws(200.0, 2.0, PolicySpec::Greedy))
                .collect(),
            1e6,
            11,
        );
        config.storms = vec![50.0, 100.0, 150.0];
        config.resilience.lease_factor = 7.0;
        config.resilience.backoff_base = 10.0;
        let faulty = Farm::new(config, bag)
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        assert_eq!(base.makespan.to_bits(), faulty.makespan.to_bits());
        assert_eq!(
            base.completed_work.to_bits(),
            faulty.completed_work.to_bits()
        );
        assert_eq!(base.lost_work.to_bits(), faulty.lost_work.to_bits());
        assert_eq!(
            base.remaining_work.to_bits(),
            faulty.remaining_work.to_bits()
        );
        assert_eq!(base.drained, faulty.drained);
        assert_eq!(faulty.robustness, RobustnessTotals::default());
        for (a, b) in base.per_workstation.iter().zip(&faulty.per_workstation) {
            assert_eq!(a.completed_work.to_bits(), b.completed_work.to_bits());
            assert_eq!(a.episodes, b.episodes);
            assert_eq!(a.chunks_completed, b.chunks_completed);
        }
    }

    #[test]
    fn message_loss_is_survived_and_counted() {
        let bag = workloads::uniform(200, 1.0).unwrap();
        let mut lossy = uniform_ws(200.0, 2.0, PolicySpec::FixedSize(20.0));
        lossy.faults.loss_prob = 1.0;
        let healthy = uniform_ws(200.0, 2.0, PolicySpec::FixedSize(20.0));
        let config = FarmConfig::new(vec![lossy, healthy], 1e6, 13);
        let r = Farm::new(config, bag)
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        assert!(r.drained, "healthy workstation should drain the bag");
        assert!((r.completed_work - 200.0).abs() < 1e-9);
        assert_eq!(r.per_workstation[0].completed_work, 0.0);
        assert!(r.robustness.messages_lost > 0);
        assert!(r.robustness.lease_timeouts > 0);
        assert!(r.robustness.backoff_delays > 0);
        assert!(r.robustness.quarantines > 0);
    }

    #[test]
    fn farm_drains_when_one_workstation_survives_crashes() {
        let bag = workloads::uniform(150, 1.0).unwrap();
        let mut workstations: Vec<WorkstationConfig> = (0..3)
            .map(|_| {
                let mut w = uniform_ws(200.0, 2.0, PolicySpec::FixedSize(15.0));
                w.faults.crash_rate = 0.05; // mean crash time 20
                w
            })
            .collect();
        workstations.push(uniform_ws(200.0, 2.0, PolicySpec::FixedSize(15.0)));
        let config = FarmConfig::new(workstations, 1e6, 29);
        let r = Farm::new(config, bag)
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        assert!(
            r.drained,
            "survivor should finish; remaining = {}",
            r.remaining_work
        );
        assert!((r.completed_work + r.remaining_work - 150.0).abs() < 1e-9);
        assert!(r.robustness.crashes >= 1);
    }

    #[test]
    fn stragglers_bank_late_or_get_replicated() {
        let bag = workloads::uniform(200, 1.0).unwrap();
        let mut slow = uniform_ws(500.0, 2.0, PolicySpec::FixedSize(20.0));
        slow.faults.slowdown = 5.0; // stretches past the 3x lease factor
        let healthy = uniform_ws(500.0, 2.0, PolicySpec::FixedSize(20.0));
        let config = FarmConfig::new(vec![slow, healthy], 1e6, 37);
        let r = Farm::new(config, bag)
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        assert!(r.drained);
        assert!((r.completed_work - 200.0).abs() < 1e-9);
        assert!(r.robustness.straggled_chunks > 0);
        // Stragglers either banked late or their re-dispatched tasks created
        // discarded duplicates — both are first-bank-wins outcomes.
        assert!(r.robustness.late_banks > 0 || r.robustness.duplicate_work > 0.0);
    }

    #[test]
    fn reclaim_storms_correlate_episode_ends() {
        let bag = workloads::uniform(300, 1.0).unwrap();
        let mut config = FarmConfig::new(
            (0..3)
                .map(|_| {
                    let mut w = uniform_ws(200.0, 2.0, PolicySpec::FixedSize(10.0));
                    w.faults.storm_hit_prob = 1.0;
                    w
                })
                .collect(),
            1e6,
            41,
        );
        config.storms = vec![25.0, 300.0];
        let r = Farm::new(config, bag)
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        assert!(r.drained);
        assert!(r.robustness.storm_kills >= 1);
        assert!((r.completed_work + r.remaining_work - 300.0).abs() < 1e-9);
    }

    #[test]
    fn belief_drift_swaps_the_true_life_function() {
        // Policy believes in 200-long episodes; the truth drifts to 30 from
        // the start. Expect plenty of kills but correct accounting.
        let bag = workloads::uniform(200, 1.0).unwrap();
        let short: ArcLife = Arc::new(Uniform::new(30.0).unwrap());
        let mut w = uniform_ws(200.0, 2.0, PolicySpec::FixedSize(20.0));
        w.faults.drift = Some(crate::faults::BeliefDrift {
            at: 0.0,
            new_life: short,
        });
        let config = FarmConfig::new(vec![w.clone(), w], 1e6, 43);
        let r = Farm::new(config, bag)
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        assert!(r.drained);
        assert!(r.lost_work > 0.0, "short true episodes should kill chunks");
        assert!((r.completed_work + r.remaining_work - 200.0).abs() < 1e-9);
    }

    #[test]
    fn end_game_replication_duplicates_tail_chunks() {
        // ws0 loses every dispatch; near the end ws1 goes idle while ws0
        // holds the last tasks under lease, so ws1 replicates them.
        let bag = workloads::uniform(120, 1.0).unwrap();
        let mut lossy = uniform_ws(400.0, 2.0, PolicySpec::FixedSize(25.0));
        lossy.faults.loss_prob = 1.0;
        let healthy = uniform_ws(400.0, 2.0, PolicySpec::FixedSize(25.0));
        let config = FarmConfig::new(vec![lossy, healthy], 1e6, 47);
        let r = Farm::new(config, bag)
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        assert!(r.drained);
        assert!(
            r.robustness.replicas_dispatched > 0,
            "expected end-game replication: {:?}",
            r.robustness
        );
        let sum_counters: u64 = r
            .per_workstation
            .iter()
            .map(|w| w.replicas_dispatched)
            .sum();
        assert_eq!(sum_counters, r.robustness.replicas_dispatched);
    }

    #[test]
    fn replication_can_be_disabled() {
        let bag = workloads::uniform(120, 1.0).unwrap();
        let mut lossy = uniform_ws(400.0, 2.0, PolicySpec::FixedSize(25.0));
        lossy.faults.loss_prob = 1.0;
        let healthy = uniform_ws(400.0, 2.0, PolicySpec::FixedSize(25.0));
        let mut config = FarmConfig::new(vec![lossy, healthy], 1e6, 47);
        config.resilience.replicate_tail = false;
        let r = Farm::new(config, bag)
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        assert_eq!(r.robustness.replicas_dispatched, 0);
        assert!(r.drained, "lease requeues alone must still drain the bag");
    }

    #[test]
    fn observed_run_is_passthrough_and_reconciles() {
        use cs_obs::{EventKind as K, MemorySink};
        // A faulty farm exercises the whole event vocabulary.
        let mk = || {
            let bag = workloads::uniform(200, 1.0).unwrap();
            let mut lossy = uniform_ws(200.0, 2.0, PolicySpec::FixedSize(20.0));
            lossy.faults.loss_prob = 0.5;
            let healthy = uniform_ws(200.0, 2.0, PolicySpec::FixedSize(20.0));
            Farm::new(FarmConfig::new(vec![lossy, healthy], 1e6, 13), bag).unwrap()
        };
        let plain = mk().run(&mut NoopSink, &mut SpanProfiler::disabled());
        let mut sink = MemorySink::new();
        let traced = mk().run(&mut sink, &mut SpanProfiler::disabled());
        // Pass-through: tracing must not perturb the simulation.
        assert_eq!(plain.makespan.to_bits(), traced.makespan.to_bits());
        assert_eq!(
            plain.completed_work.to_bits(),
            traced.completed_work.to_bits()
        );
        assert_eq!(plain.robustness, traced.robustness);
        // Reconciliation: event tallies equal the report's counters, and
        // per-workstation bank sums are bitwise identical to the stats.
        let mut bank_sum = [0.0f64; 2];
        let mut timeouts = 0u64;
        let mut requeued_tasks = 0u64;
        for e in &sink.events {
            match e.kind {
                K::Bank { ws, work, .. } => bank_sum[ws as usize] += work,
                K::LeaseTimeout { .. } => timeouts += 1,
                K::Requeue { tasks, .. } => requeued_tasks += tasks,
                _ => {}
            }
        }
        for (ws, st) in traced.per_workstation.iter().enumerate() {
            assert_eq!(bank_sum[ws].to_bits(), st.completed_work.to_bits());
        }
        assert_eq!(timeouts, traced.robustness.lease_timeouts);
        assert!(requeued_tasks > 0, "lossy ws should force requeues");
        assert!(matches!(
            sink.events.first().unwrap().kind,
            K::RunStart {
                seed: 13,
                workstations: 2,
                tasks: 200,
            }
        ));
        match sink.events.last().unwrap().kind {
            K::RunEnd {
                banked,
                lost,
                drained,
            } => {
                assert_eq!(banked.to_bits(), traced.completed_work.to_bits());
                assert_eq!(lost.to_bits(), traced.lost_work.to_bits());
                assert_eq!(drained, traced.drained);
            }
            other => panic!("last event should be run_end, got {other:?}"),
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]
            /// Work conservation and sane accounting hold for arbitrary farm
            /// configurations under the fixed-size policy.
            #[test]
            fn prop_farm_conserves_work(
                n_ws in 1usize..5,
                tasks in 10usize..150,
                seed in proptest::num::u64::ANY,
                l in 30.0f64..300.0,
                c in 0.5f64..5.0,
                chunk in 3.0f64..40.0,
            ) {
                prop_assume!(chunk > c + 1.0);
                let total = tasks as f64;
                let bag = workloads::uniform(tasks, 1.0).unwrap();
                let life: ArcLife = Arc::new(Uniform::new(l).unwrap());
                let config = FarmConfig::new(
                    (0..n_ws)
                        .map(|_| WorkstationConfig {
                            life: life.clone(),
                            believed: life.clone(),
                            c,
                            policy: PolicySpec::FixedSize(chunk),
                            gap_mean: 5.0,
                            faults: FaultPlan::none(),
                        })
                        .collect(),
                    1e5,
                    seed,
                );
                let r = Farm::new(config, bag).unwrap().run(&mut NoopSink, &mut SpanProfiler::disabled());
                // Conservation: banked + pending = initial.
                prop_assert!((r.completed_work + r.remaining_work - total).abs() < 1e-9);
                // Per-workstation totals match farm totals.
                let sum: f64 = r.per_workstation.iter().map(|w| w.completed_work).sum();
                prop_assert!((sum - r.completed_work).abs() < 1e-9);
                let lost: f64 = r.per_workstation.iter().map(|w| w.lost_work).sum();
                prop_assert!((lost - r.lost_work).abs() < 1e-9);
                // Drained implies everything banked and a finite makespan.
                if r.drained {
                    prop_assert!((r.completed_work - total).abs() < 1e-9);
                    prop_assert!(r.makespan.is_finite());
                }
            }

            /// Conservation survives every fault mix: no task is lost, none
            /// is double-banked, whatever combination of loss, slowdown,
            /// crashes and storms is injected.
            #[test]
            fn prop_farm_conserves_work_under_faults(
                n_ws in 1usize..4,
                tasks in 10usize..80,
                seed in proptest::num::u64::ANY,
                l in 30.0f64..200.0,
                loss in 0.0f64..0.6,
                slowdown in 1.0f64..5.0,
                crash in 0.0f64..0.02,
                storm_p in 0.0f64..1.0,
                lease_factor in 1.0f64..4.0,
            ) {
                let total = tasks as f64;
                let bag = workloads::uniform(tasks, 1.0).unwrap();
                let life: ArcLife = Arc::new(Uniform::new(l).unwrap());
                let mut config = FarmConfig::new(
                    (0..n_ws)
                        .map(|_| WorkstationConfig {
                            life: life.clone(),
                            believed: life.clone(),
                            c: 1.0,
                            policy: PolicySpec::FixedSize(8.0),
                            gap_mean: 5.0,
                            faults: FaultPlan {
                                loss_prob: loss,
                                slowdown,
                                crash_rate: crash,
                                storm_hit_prob: storm_p,
                                drift: None,
                            },
                        })
                        .collect(),
                    2e4,
                    seed,
                );
                config.storms = vec![40.0, 90.0];
                config.resilience.lease_factor = lease_factor;
                let r = Farm::new(config, bag).unwrap().run(&mut NoopSink, &mut SpanProfiler::disabled());
                // No task lost, none double-banked.
                prop_assert!(
                    (r.completed_work + r.remaining_work - total).abs() < 1e-6,
                    "completed {} + remaining {} != {total}",
                    r.completed_work,
                    r.remaining_work
                );
                prop_assert!(r.completed_work <= total + 1e-6);
                let sum: f64 = r.per_workstation.iter().map(|w| w.completed_work).sum();
                prop_assert!((sum - r.completed_work).abs() < 1e-9);
                if r.drained {
                    prop_assert!((r.completed_work - total).abs() < 1e-6);
                    prop_assert!(r.makespan.is_finite());
                }
            }
        }
    }
}
