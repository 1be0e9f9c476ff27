//! Parallel replication of farm simulations.
//!
//! A single farm run is one sample of a stochastic system; policy
//! comparisons need distributions. [`replicate_farm`] runs `n` independent
//! replications (differing only in seed) as four fixed shards on a
//! [`cs_pool::map_indexed`] sweep and merges the per-shard outcomes in
//! shard order into summary statistics, bit-identical for a fixed master
//! seed at every thread count.

use crate::farm::{Farm, FarmConfig, FarmConfigError, PolicySpec, WorkstationConfig};
use cs_obs::{NoopSink, SpanProfiler};
use cs_sim::Summary;
use cs_tasks::TaskBag;

/// Replications are cut into this many contiguous shards whatever the
/// thread count, and the shards' summaries merge in shard order, so the
/// floating-point merge sees the same operands at every thread count.
/// Four is the thread count every caller passes (`exp_now_farm`,
/// `exp_fault_tolerance`, the `farm_end_to_end` test and the
/// `farm.replicate_8x4` kernel), and a shard per thread was the cut at that
/// count, so their fixtures and summaries keep their bits.
const SHARDS: u64 = 4;

/// Aggregated outcomes across replications.
#[derive(Debug, Clone)]
pub struct ReplicationReport {
    /// Policy the replications ran.
    pub policy: String,
    /// Makespan distribution over the replications that drained.
    pub makespan: Summary,
    /// Completed (banked) work distribution over all replications.
    pub completed_work: Summary,
    /// Lost-work distribution.
    pub lost_work: Summary,
    /// Discarded duplicate work (late straggler banks and replica
    /// re-executions losing the first-bank-wins race) per replication.
    pub duplicate_work: Summary,
    /// Lease timeouts per replication.
    pub lease_timeouts: Summary,
    /// Fraction of replications that drained the bag before the horizon.
    pub drained_fraction: f64,
}

/// Runs `replications` independent farm simulations as four shards on up
/// to `threads` threads, the caller included, through
/// [`cs_pool::map_indexed`]. The summaries are bit-identical for every
/// `threads`.
///
/// `template` supplies the workstations (with their fault plans), storms,
/// resilience knobs, horizon and base seed; replication `r` runs with seed
/// `template.seed + r`. `make_bag` builds a fresh identical task bag per
/// replication. **Every workstation's `policy` field is overridden by the
/// `policy` argument** so that one call measures exactly one policy; clone
/// the configs yourself and call [`Farm`] directly to replicate a
/// mixed-policy farm.
///
/// Fails fast with the template's [`FarmConfigError`] instead of panicking
/// inside a worker thread.
pub fn replicate_farm(
    template: &FarmConfig,
    policy: PolicySpec,
    make_bag: &(dyn Fn() -> TaskBag + Sync),
    replications: u64,
    threads: usize,
) -> Result<ReplicationReport, FarmConfigError> {
    template.validate()?;

    struct Shard {
        makespan: Summary,
        completed: Summary,
        lost: Summary,
        duplicate: Summary,
        timeouts: Summary,
        drained: u64,
    }

    let run_range = |lo: u64, hi: u64| -> Shard {
        let mut shard = Shard {
            makespan: Summary::new(),
            completed: Summary::new(),
            lost: Summary::new(),
            duplicate: Summary::new(),
            timeouts: Summary::new(),
            drained: 0,
        };
        for r in lo..hi {
            let mut config = template.clone();
            config.seed = template.seed.wrapping_add(r);
            for w in &mut config.workstations {
                *w = WorkstationConfig {
                    policy,
                    ..w.clone()
                };
            }
            let report = Farm::new(config, make_bag())
                .expect("template validated above")
                .run(&mut NoopSink, &mut SpanProfiler::disabled());
            if report.drained {
                shard.drained += 1;
                shard.makespan.push(report.makespan);
            }
            shard.completed.push(report.completed_work);
            shard.lost.push(report.lost_work);
            shard.duplicate.push(report.robustness.duplicate_work);
            shard.timeouts.push(report.robustness.lease_timeouts as f64);
        }
        shard
    };

    // Shard `i` runs replications `[lo(i), lo(i + 1))`; the first
    // `replications % SHARDS` shards take one extra.
    let lo = |i: u64| i * (replications / SHARDS) + i.min(replications % SHARDS);
    // Shards merge in index order, so the summaries do not depend on
    // which worker ran which shard.
    let (results, _) = cs_pool::map_indexed(threads, SHARDS as usize, |i| {
        let i = i as u64;
        run_range(lo(i), lo(i + 1))
    });

    let mut makespan = Summary::new();
    let mut completed = Summary::new();
    let mut lost = Summary::new();
    let mut duplicate = Summary::new();
    let mut timeouts = Summary::new();
    let mut drained = 0u64;
    for s in results {
        makespan.merge(&s.makespan);
        completed.merge(&s.completed);
        lost.merge(&s.lost);
        duplicate.merge(&s.duplicate);
        timeouts.merge(&s.timeouts);
        drained += s.drained;
    }
    Ok(ReplicationReport {
        policy: policy.label(),
        makespan,
        completed_work: completed,
        lost_work: lost,
        duplicate_work: duplicate,
        lease_timeouts: timeouts,
        drained_fraction: drained as f64 / replications.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;
    use cs_life::{ArcLife, Uniform};
    use cs_tasks::workloads;
    use std::sync::Arc;

    fn template(n: usize, seed: u64) -> FarmConfig {
        let workstations = (0..n)
            .map(|_| {
                let life: ArcLife = Arc::new(Uniform::new(150.0).unwrap());
                WorkstationConfig {
                    life: life.clone(),
                    believed: life,
                    c: 2.0,
                    policy: PolicySpec::FixedSize(15.0),
                    gap_mean: 5.0,
                    faults: FaultPlan::none(),
                }
            })
            .collect();
        FarmConfig::new(workstations, 1e6, seed)
    }

    #[test]
    fn replication_aggregates() {
        let make_bag = || workloads::uniform(200, 1.0).unwrap();
        let rep = replicate_farm(
            &template(4, 42),
            PolicySpec::FixedSize(15.0),
            &make_bag,
            16,
            4,
        )
        .unwrap();
        assert_eq!(rep.makespan.count() as f64, 16.0 * rep.drained_fraction);
        assert!(rep.drained_fraction > 0.9);
        assert!(rep.makespan.mean() > 0.0);
        assert_eq!(rep.completed_work.count(), 16);
        assert_eq!(rep.policy, "fixed(15)");
    }

    #[test]
    fn reproducible_across_thread_counts() {
        // Summary merges are floating-point, so the bits hold only if
        // every thread count merges the same shards in the same order.
        let make_bag = || workloads::uniform(120, 1.0).unwrap();
        let mut t = template(4, 11);
        for w in &mut t.workstations {
            w.faults = FaultPlan::scaled(0.6);
        }
        let bits = |threads| {
            let rep = replicate_farm(&t, PolicySpec::Guideline, &make_bag, 12, threads).unwrap();
            let summaries = [
                rep.makespan,
                rep.completed_work,
                rep.lost_work,
                rep.duplicate_work,
                rep.lease_timeouts,
            ];
            let moments =
                summaries.map(|s| (s.count(), s.mean().to_bits(), s.variance().to_bits()));
            (moments, rep.drained_fraction.to_bits())
        };
        let serial = bits(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(bits(threads), serial, "{threads} threads");
        }
    }

    #[test]
    fn policy_override_applied() {
        let make_bag = || workloads::uniform(50, 1.0).unwrap();
        let rep = replicate_farm(&template(2, 3), PolicySpec::Greedy, &make_bag, 2, 1).unwrap();
        assert_eq!(rep.policy, "greedy");
    }

    #[test]
    fn invalid_template_is_rejected_up_front() {
        let make_bag = || workloads::uniform(10, 1.0).unwrap();
        let mut bad = template(2, 1);
        bad.max_virtual_time = -5.0;
        let err = replicate_farm(&bad, PolicySpec::Greedy, &make_bag, 2, 1).err();
        assert!(matches!(err, Some(FarmConfigError::InvalidHorizon { .. })));
    }

    #[test]
    fn faulty_template_reports_robustness_summaries() {
        let make_bag = || workloads::uniform(80, 1.0).unwrap();
        let mut t = template(3, 19);
        t.workstations[0].faults.loss_prob = 0.8;
        let rep = replicate_farm(&t, PolicySpec::FixedSize(15.0), &make_bag, 6, 2).unwrap();
        assert!(rep.drained_fraction > 0.0, "healthy peers should drain");
        assert!(rep.lease_timeouts.mean() > 0.0);
    }
}
