//! One episode of draconian cycle-stealing, simulated exactly per the
//! paper's §2.1 semantics.
//!
//! Workstation A partitions B's availability into periods. Period `k` spans
//! `[τ_k, τ_k + t_k)`: A ships work sized to fill the period (net of the
//! communication overhead `c`), B computes, B ships results back. If the
//! owner reclaims B at time `r ≤ T_k`, the period's work is destroyed and
//! the episode ends; work banked in *earlier* periods survives.

use cs_core::Schedule;
use cs_obs::{Event, EventKind, EventSink, NoopSink};
use cs_tasks::TaskBag;

/// What happened in one simulated episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeOutcome {
    /// Work banked by completed periods (the paper's `Σ (t_i ⊖ c)`).
    pub work: f64,
    /// Number of periods that completed before the reclamation.
    pub periods_completed: usize,
    /// Time at which the episode ended: the reclamation time, or the end of
    /// the schedule if the owner never returned during it.
    pub ended_at: f64,
    /// True when the owner reclaimed B mid-schedule (some work was lost).
    pub interrupted: bool,
    /// Work that was in progress (or committed to the interrupted period)
    /// and destroyed by the reclamation.
    pub lost: f64,
}

/// Simulates one episode in **fluid** mode: each period of length `t`
/// carries exactly `t ⊖ c` work. `reclaim` is the owner's return time
/// (`+∞` for "never during this episode").
///
/// A period ending exactly at the reclamation instant counts as interrupted,
/// matching `p(t) = P(R > t)` in the expectation (2.1).
///
/// Episode-lifecycle events (`episode_start`, `period_start`,
/// `period_commit`, `period_interrupt`) go to `sink`, at within-episode
/// virtual times (the episode starts at 0). The sink is pass-through, so
/// the outcome is bit-identical with any sink; pass [`cs_obs::NoopSink`]
/// for the untraced hot path, which then pays nothing.
pub fn run_episode<S: EventSink>(
    schedule: &Schedule,
    c: f64,
    reclaim: f64,
    mut sink: S,
) -> EpisodeOutcome {
    sink.emit(&Event {
        time: 0.0,
        kind: EventKind::EpisodeStart { ws: 0 },
    });
    let mut work = 0.0;
    let mut completed = 0usize;
    let mut t_end = 0.0;
    for &t in schedule.periods() {
        let start = t_end;
        t_end = start + t;
        let gain = (t - c).max(0.0);
        sink.emit(&Event {
            time: start,
            kind: EventKind::PeriodStart { ws: 0, len: t },
        });
        if t_end >= reclaim {
            sink.emit(&Event {
                time: reclaim,
                kind: EventKind::PeriodInterrupt { ws: 0, lost: gain },
            });
            return EpisodeOutcome {
                work,
                periods_completed: completed,
                ended_at: reclaim,
                interrupted: true,
                lost: gain,
            };
        }
        sink.emit(&Event {
            time: t_end,
            kind: EventKind::PeriodCommit { ws: 0, work: gain },
        });
        work += gain;
        completed += 1;
    }
    EpisodeOutcome {
        work,
        periods_completed: completed,
        ended_at: t_end,
        interrupted: false,
        lost: 0.0,
    }
}

/// The Monte-Carlo kernel: [`run_episode`] precomputed for one
/// `(schedule, c)`, so a trial costs an O(1) bucket lookup instead of a
/// walk.
///
/// Under the kill semantics an episode is decided by the first period end
/// `T_k ≥ R`: it banks the prefix `W_k = Σ_{i<k} (t_i ⊖ c)`, completes `k`
/// periods and is interrupted iff `k < m`. The table stores `T_k` and `W_k`
/// accumulated with the walk's exact float operations in the walk's order,
/// so `work`, `periods_completed` and `interrupted` are bit-identical to
/// [`run_episode`] by construction. Traced episodes still walk through
/// [`run_episode`]: the table emits no events, only their count.
///
/// `k` is found through a bucket index over `[0, T_m]` (see
/// [`EpisodeTable::interrupted_period`]).
///
/// Cache-line aligned: pooled workers reload its fields on every trial
/// (the life function's dynamic call keeps them from being hoisted), so
/// the table must not share a line with state the master writes per
/// trial, such as the merge accumulator beside it on the stack. Sharing
/// one measurably slowed the master's merge.
#[derive(Debug, Clone)]
#[repr(align(64))]
pub struct EpisodeTable {
    /// Period end times `T_k` (`t_end = start + t`, as the walk adds them).
    ends: Vec<f64>,
    /// Banked prefixes `W_0 = 0, …, W_m` (`work += gain`, as the walk adds
    /// them); `W_k` is what an episode interrupted in period `k` keeps.
    banked: Vec<f64>,
    /// `first[b] = #{j : bucket(T_j) < b}` for `b` in `0..=B`, where `B`
    /// is the last bucket.
    first: Vec<u32>,
    /// `B / T_m`, or 0 when that is not finite (see [`Self::bucket`]).
    scale: f64,
}

impl EpisodeTable {
    /// Tabulates `schedule` under overhead `c` in O(m).
    ///
    /// # Panics
    ///
    /// If the schedule has `2^32` periods or more.
    pub fn new(schedule: &Schedule, c: f64) -> Self {
        let m = schedule.len();
        let mut ends = Vec::with_capacity(m);
        let mut banked = Vec::with_capacity(m + 1);
        let mut t_end = 0.0;
        let mut work = 0.0;
        banked.push(work);
        for &t in schedule.periods() {
            let start = t_end;
            t_end = start + t;
            work += (t - c).max(0.0);
            ends.push(t_end);
            banked.push(work);
        }
        // About four buckets per end, so a bucket holds few ends.
        let last = (4 * m).next_power_of_two().max(64);
        let scale = last as f64 / t_end;
        let mut table = Self {
            ends,
            banked,
            first: vec![0; last + 1],
            scale: if scale.is_finite() { scale } else { 0.0 },
        };
        // One merge pass over ends and buckets: `bucket` is monotone and
        // the ends are sorted, so `bucket(T_j)` is too.
        let mut j = 0;
        for b in 0..=last {
            while j < m && table.bucket(table.ends[j]) < b {
                j += 1;
            }
            table.first[b] = u32::try_from(j).expect("fewer than 2^32 periods");
        }
        table
    }

    /// Number of periods `m`.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the schedule has no periods.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The bucket of a non-NaN time `r`: `min(B, ⌊fl(r · scale)⌋)`. Each
    /// step is monotone in `r` (float multiplication by a constant
    /// `scale ≥ 0` rounds monotonically, truncation is monotone, the cast
    /// saturates negatives to 0 and `+∞` to the maximum), so `r ≤ r'`
    /// implies `bucket(r) ≤ bucket(r')`. That alone makes the lookup
    /// exact; `scale` only decides how evenly the ends spread.
    #[inline]
    fn bucket(&self, r: f64) -> usize {
        ((r * self.scale) as usize).min(self.first.len() - 1)
    }

    /// The period a reclamation at `reclaim` interrupts: the first `k` with
    /// `T_k ≥ reclaim`, or `m` when the episode runs to completion. This is
    /// `ends.partition_point(|&e| e < reclaim)`, exactly.
    ///
    /// The lookup starts at `first[bucket(reclaim)]` and steps forward
    /// while `T_k < reclaim`. Since `bucket` is monotone, every end in a
    /// lower bucket is `< reclaim`, so the start never overshoots; every
    /// end in a higher bucket is `> reclaim`, so the steps stay inside
    /// `reclaim`'s bucket. No assumption about rounding beyond its
    /// monotonicity is needed.
    ///
    /// Edge cases: a reclaim `≤ 0` (`-0.0` included) lands in bucket 0 and
    /// interrupts period 0; `+∞` lands in the last bucket and steps to
    /// `m`. An empty table answers 0. When `B / T_m` is not finite (`T_m`
    /// subnormal enough to overflow it, or the ends summing to `+∞`), the
    /// scale is 0, every reclaim lands in bucket 0, and the lookup is a
    /// linear scan: slower, still exact.
    ///
    /// A NaN reclaim compares false with every end, so the walk never
    /// interrupts it; neither does the table. (The NaN test sits outside
    /// the lookup: folded into the predicate it measurably slowed the
    /// pooled Monte-Carlo.)
    #[inline]
    pub fn interrupted_period(&self, reclaim: f64) -> usize {
        if reclaim.is_nan() {
            return self.len();
        }
        let mut k = self.first[self.bucket(reclaim)] as usize;
        while k < self.ends.len() && self.ends[k] < reclaim {
            k += 1;
        }
        k
    }

    /// Work banked by an episode interrupted in period `k` (`W_k`; with
    /// `k == m`, the whole schedule's work).
    #[inline]
    pub fn banked(&self, k: usize) -> f64 {
        self.banked[k]
    }
}

/// Outcome of a task-level episode (fluid outcome plus task accounting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskEpisodeOutcome {
    /// The fluid-level outcome of the same episode.
    pub fluid: EpisodeOutcome,
    /// Task-time banked (sum of completed chunks' durations).
    pub task_work: f64,
    /// Number of tasks whose results were banked.
    pub tasks_completed: u64,
}

/// Simulates one episode in **task** mode: each period checks a chunk out of
/// `bag` sized to `t − c`; a completed period banks the chunk, an
/// interrupted one abandons it (tasks return to the bag for later retry).
/// Periods whose chunk is empty (bag drained, or grain too coarse) still
/// elapse — A cannot fill them.
pub fn run_episode_tasks(
    schedule: &Schedule,
    c: f64,
    reclaim: f64,
    bag: &mut TaskBag,
) -> TaskEpisodeOutcome {
    let fluid = run_episode(schedule, c, reclaim, NoopSink);
    let mut task_work = 0.0;
    let mut tasks_completed = 0u64;
    let mut t_end = 0.0;
    for &t in schedule.periods() {
        t_end += t;
        if bag.is_drained() {
            break;
        }
        let chunk = cs_tasks::pack_chunk(bag, t, c);
        if t_end >= reclaim {
            bag.abandon(chunk);
            break;
        }
        task_work += chunk.total_duration();
        tasks_completed += chunk.len() as u64;
        bag.complete(chunk);
    }
    TaskEpisodeOutcome {
        fluid,
        task_work,
        tasks_completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_tasks::workloads;

    fn sched(v: &[f64]) -> Schedule {
        Schedule::new(v.to_vec()).unwrap()
    }

    #[test]
    fn uninterrupted_banks_everything() {
        let s = sched(&[5.0, 4.0, 3.0]);
        let out = run_episode(&s, 1.0, f64::INFINITY, NoopSink);
        assert_eq!(out.work, 4.0 + 3.0 + 2.0);
        assert_eq!(out.periods_completed, 3);
        assert!(!out.interrupted);
        assert_eq!(out.ended_at, 12.0);
        assert_eq!(out.lost, 0.0);
    }

    #[test]
    fn reclaim_mid_period_loses_that_period() {
        let s = sched(&[5.0, 4.0, 3.0]);
        // Reclaim at 7: period 0 done (T_0 = 5), period 1 in flight.
        let out = run_episode(&s, 1.0, 7.0, NoopSink);
        assert_eq!(out.work, 4.0);
        assert_eq!(out.periods_completed, 1);
        assert!(out.interrupted);
        assert_eq!(out.ended_at, 7.0);
        assert_eq!(out.lost, 3.0);
    }

    #[test]
    fn reclaim_exactly_at_period_end_counts_as_interrupted() {
        let s = sched(&[5.0, 4.0]);
        let out = run_episode(&s, 1.0, 5.0, NoopSink);
        assert_eq!(out.work, 0.0);
        assert_eq!(out.periods_completed, 0);
        assert!(out.interrupted);
    }

    #[test]
    fn reclaim_before_first_period_yields_nothing() {
        let s = sched(&[5.0]);
        let out = run_episode(&s, 1.0, 0.5, NoopSink);
        assert_eq!(out.work, 0.0);
        assert!(out.interrupted);
        assert_eq!(out.ended_at, 0.5);
    }

    #[test]
    fn matches_schedule_work_if_reclaimed_at() {
        let s = sched(&[7.0, 6.0, 2.0, 5.0]);
        let c = 1.5;
        for &r in &[0.0, 3.0, 7.0, 7.1, 13.0, 15.0, 100.0] {
            let out = run_episode(&s, c, r, NoopSink);
            assert_eq!(out.work, s.work_if_reclaimed_at(r, c), "r = {r}");
        }
    }

    #[test]
    fn unproductive_period_banks_zero_but_elapses() {
        let s = sched(&[0.5, 5.0]);
        let out = run_episode(&s, 1.0, f64::INFINITY, NoopSink);
        assert_eq!(out.work, 4.0);
        assert_eq!(out.periods_completed, 2);
    }

    #[test]
    fn task_mode_banks_completed_chunks() {
        let s = sched(&[5.0, 5.0]);
        let mut bag = workloads::uniform(100, 1.0).unwrap();
        let out = run_episode_tasks(&s, 1.0, f64::INFINITY, &mut bag);
        // Each period packs 4 unit tasks.
        assert_eq!(out.tasks_completed, 8);
        assert_eq!(out.task_work, 8.0);
        assert_eq!(bag.completed_count(), 8);
        assert_eq!(out.fluid.work, 8.0);
    }

    #[test]
    fn task_mode_interrupted_chunk_returns_to_bag() {
        let s = sched(&[5.0, 5.0]);
        let mut bag = workloads::uniform(10, 1.0).unwrap();
        // Reclaim during the second period.
        let out = run_episode_tasks(&s, 1.0, 7.0, &mut bag);
        assert_eq!(out.tasks_completed, 4);
        assert_eq!(bag.completed_count(), 4);
        // The second chunk's 4 tasks went back to pending.
        assert_eq!(bag.pending_count(), 6);
        assert_eq!(bag.lost_work(), 4.0);
        assert!(out.fluid.interrupted);
    }

    #[test]
    fn task_mode_drained_bag_stops_packing() {
        let s = sched(&[5.0, 5.0, 5.0]);
        let mut bag = workloads::uniform(5, 1.0).unwrap();
        let out = run_episode_tasks(&s, 1.0, f64::INFINITY, &mut bag);
        assert_eq!(out.tasks_completed, 5);
        assert!(bag.is_drained());
    }

    #[test]
    fn task_mode_coarse_grain_underfills() {
        let s = sched(&[5.0]);
        let mut bag = workloads::uniform(10, 3.0).unwrap();
        let out = run_episode_tasks(&s, 1.0, f64::INFINITY, &mut bag);
        // Budget 4 fits one 3.0 task.
        assert_eq!(out.tasks_completed, 1);
        assert_eq!(out.task_work, 3.0);
        assert!(out.task_work < out.fluid.work);
    }
}
