//! Parallel replication of farm simulations.
//!
//! A single farm run is one sample of a stochastic system; policy
//! comparisons need distributions. [`replicate_farm`] runs `n` independent
//! replications (differing only in seed) across scoped threads
//! and merges the per-replication outcomes into summary statistics —
//! reproducible for a fixed master seed regardless of thread count.

use crate::farm::{Farm, FarmConfig, FarmConfigError, PolicySpec, WorkstationConfig};
use cs_obs::{NoopSink, SpanProfiler};
use cs_sim::Summary;
use cs_tasks::TaskBag;

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

/// Runs `replications` independent farm simulations over `threads` scoped
/// threads.
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
    let threads = threads.max(1);

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

    let shards: Vec<(u64, u64)> = {
        let base = replications / threads as u64;
        let rem = replications % threads as u64;
        let mut out = Vec::new();
        let mut lo = 0u64;
        for i in 0..threads as u64 {
            let len = base + u64::from(i < rem);
            out.push((lo, lo + len));
            lo += len;
        }
        out
    };

    let results: Vec<Shard> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|&(lo, hi)| scope.spawn(move || run_range(lo, hi)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replication shard panicked"))
            .collect()
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
        let make_bag = || workloads::uniform(100, 1.0).unwrap();
        let a = replicate_farm(&template(2, 7), PolicySpec::Greedy, &make_bag, 8, 1).unwrap();
        let b = replicate_farm(&template(2, 7), PolicySpec::Greedy, &make_bag, 8, 4).unwrap();
        assert_eq!(a.makespan.count(), b.makespan.count());
        assert!((a.makespan.mean() - b.makespan.mean()).abs() < 1e-12);
        assert!((a.lost_work.mean() - b.lost_work.mean()).abs() < 1e-12);
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
