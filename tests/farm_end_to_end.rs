//! End-to-end NOW farm: task bag + policies + virtual-time farm + live
//! threaded executor, spanning cs-tasks, cs-sim and cs-now.

use cs_core::{search, Schedule};
use cs_life::{ArcLife, GeometricDecreasing, Uniform};
use cs_now::farm::{Farm, FarmConfig, PolicyKind, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_now::live::{run_live, LiveWorker};
use cs_now::replicate::replicate_farm;
use cs_obs::{NoopSink, SpanProfiler};
use cs_tasks::workloads;
use std::sync::Arc;
use std::time::Duration;

fn homogeneous(n: usize, l: f64, c: f64, policy: PolicyKind) -> Vec<WorkstationConfig> {
    (0..n)
        .map(|_| {
            let life: ArcLife = Arc::new(Uniform::new(l).unwrap());
            WorkstationConfig {
                life: life.clone(),
                believed: life,
                c,
                policy,
                gap_mean: 8.0,
                faults: FaultPlan::none(),
            }
        })
        .collect()
}

#[test]
fn farm_conserves_work_across_policies() {
    for policy in [
        PolicyKind::Guideline,
        PolicyKind::Greedy,
        PolicyKind::FixedSize(12.0),
    ] {
        let total = 400.0;
        let bag = workloads::uniform(400, 1.0).unwrap();
        let config = FarmConfig::new(homogeneous(4, 120.0, 2.0, policy), 1e5, 99);
        let r = Farm::new(config, bag)
            .unwrap()
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        assert!(
            (r.completed_work + r.remaining_work - total).abs() < 1e-9,
            "{}: conservation violated",
            policy.label()
        );
        assert!(r.drained, "{}: farm did not drain", policy.label());
    }
}

#[test]
fn guideline_policy_dominates_extreme_fixed_sizes_in_replication() {
    // Replicated comparison (16 farms each): the guideline policy's mean
    // makespan beats both extremes of fixed-size chunking.
    let template = FarmConfig::new(homogeneous(4, 150.0, 3.0, PolicyKind::Guideline), 1e6, 2024);
    let make_bag = || workloads::uniform(500, 1.0).unwrap();
    let reps = 16;
    let guide = replicate_farm(&template, PolicyKind::Guideline, &make_bag, reps, 4).unwrap();
    let tiny = replicate_farm(&template, PolicyKind::FixedSize(4.5), &make_bag, reps, 4).unwrap();
    let huge = replicate_farm(&template, PolicyKind::FixedSize(140.0), &make_bag, reps, 4).unwrap();
    assert!(guide.drained_fraction > 0.9);
    assert!(
        guide.makespan.mean() < tiny.makespan.mean(),
        "guideline {} vs tiny {}",
        guide.makespan.mean(),
        tiny.makespan.mean()
    );
    if huge.drained_fraction > 0.5 {
        assert!(
            guide.makespan.mean() < huge.makespan.mean(),
            "guideline {} vs huge {}",
            guide.makespan.mean(),
            huge.makespan.mean()
        );
    }
}

#[test]
fn heterogeneous_workstations_all_contribute() {
    let mut ws = homogeneous(2, 200.0, 2.0, PolicyKind::Guideline);
    let laptop: ArcLife = Arc::new(GeometricDecreasing::from_half_life(30.0).unwrap());
    ws.push(WorkstationConfig {
        life: laptop.clone(),
        believed: laptop,
        c: 2.0,
        policy: PolicyKind::Guideline,
        gap_mean: 8.0,
        faults: FaultPlan::none(),
    });
    let bag = workloads::uniform(600, 1.0).unwrap();
    let config = FarmConfig::new(ws, 1e6, 5);
    let r = Farm::new(config, bag)
        .unwrap()
        .run(&mut NoopSink, &mut SpanProfiler::disabled());
    assert!(r.drained);
    for (i, w) in r.per_workstation.iter().enumerate() {
        assert!(w.completed_work > 0.0, "workstation {i} banked nothing");
    }
}

#[test]
fn hostile_now_still_drains_with_one_healthy_workstation() {
    // Three workstations under the canonical intensity-1 fault mix (25%
    // message loss, 2x slowdown, crashes, full storm susceptibility) plus
    // one healthy one: the resilient master must still bank every task.
    let mut ws = homogeneous(4, 150.0, 2.0, PolicyKind::FixedSize(12.0));
    for w in ws.iter_mut().take(3) {
        w.faults = FaultPlan::scaled(1.0);
        w.faults.storm_hit_prob = 1.0;
    }
    let total = 300.0;
    let bag = workloads::uniform(300, 1.0).unwrap();
    let mut config = FarmConfig::new(ws, 1e6, 77);
    config.storms = vec![60.0, 200.0, 500.0];
    let r = Farm::new(config, bag)
        .unwrap()
        .run(&mut NoopSink, &mut SpanProfiler::disabled());
    assert!(r.drained, "remaining = {}", r.remaining_work);
    assert!((r.completed_work - total).abs() < 1e-9);
    // The fault layer actually fired and was accounted.
    let rb = &r.robustness;
    assert!(rb.messages_lost > 0, "{rb:?}");
    assert!(rb.lease_timeouts > 0, "{rb:?}");
}

#[test]
fn live_executor_agrees_with_bag_accounting() {
    let mut bag = workloads::jittered(
        120,
        1.0,
        0.3,
        &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(8),
    )
    .unwrap();
    let initial = bag.pending_work();
    let life = Uniform::new(150.0).unwrap();
    let plan = search::best_guideline_schedule(&life, 2.0).unwrap();
    let workers = vec![
        LiveWorker {
            schedule: plan.schedule.clone(),
            c: 2.0,
            reclaim_at: 70.0,
        },
        LiveWorker {
            schedule: plan.schedule,
            c: 2.0,
            reclaim_at: 1e9,
        },
        LiveWorker {
            schedule: Schedule::new(vec![40.0, 40.0]).unwrap(),
            c: 2.0,
            reclaim_at: 55.0,
        },
    ];
    let out = run_live(&mut bag, &workers, Duration::from_micros(30));
    assert!((bag.completed_work() + bag.pending_work() - initial).abs() < 1e-9);
    assert!((out.completed_work - bag.completed_work()).abs() < 1e-9);
    assert!(out.tasks_completed > 0);
}
