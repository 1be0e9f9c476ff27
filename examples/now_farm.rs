//! A data-parallel task farm over a network of workstations — the paper's
//! motivating deployment.
//!
//! Eight borrowed workstations with heterogeneous owner behaviour chew
//! through a bag of 2,000 independent tasks. The same farm runs under three
//! chunk-sizing policies (the paper's guideline scheduler, myopic greedy,
//! fixed-size chunks) in the deterministic virtual-time simulator.
//!
//! Run with: `cargo run --release --example now_farm`

use cs_apps::{fmt, Table};
use cs_life::{ArcLife, GeometricDecreasing, Polynomial, Uniform};
use cs_now::farm::{Farm, FarmConfig, PolicySpec, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_obs::{NoopSink, SpanProfiler};
use cs_tasks::workloads;
use std::sync::Arc;

/// A heterogeneous NOW: uniform-risk desktops, a half-life laptop dock, and
/// slow-decay polynomial machines.
fn workstations(policy: PolicySpec) -> Vec<WorkstationConfig> {
    let mut out = Vec::new();
    for i in 0..8 {
        let life: ArcLife = match i % 3 {
            0 => Arc::new(Uniform::new(150.0 + 25.0 * i as f64).expect("uniform")),
            1 => Arc::new(GeometricDecreasing::from_half_life(40.0).expect("geometric")),
            _ => Arc::new(Polynomial::new(2, 200.0).expect("polynomial")),
        };
        out.push(WorkstationConfig {
            life: life.clone(),
            believed: life,
            c: 2.0,
            policy,
            gap_mean: 10.0,
            faults: FaultPlan::none(),
        });
    }
    out
}

fn main() {
    let tasks = 2_000usize;
    println!("NOW farm: 8 heterogeneous borrowed workstations, {tasks} unit tasks, c = 2\n");

    let mut table = Table::new(&["policy", "makespan", "banked", "lost", "loss ratio"]);
    for policy in [
        PolicySpec::Guideline,
        PolicySpec::Greedy,
        PolicySpec::FixedSize(10.0),
        PolicySpec::FixedSize(60.0),
    ] {
        let bag = workloads::uniform(tasks, 1.0).expect("bag");
        let config = FarmConfig::new(workstations(policy), 1e6, 7);
        let report = Farm::new(config, bag)
            .expect("valid farm config")
            .run(&mut NoopSink, &mut SpanProfiler::disabled());
        table.row(&[
            policy.label(),
            fmt(report.makespan, 1),
            fmt(report.completed_work, 0),
            fmt(report.lost_work, 0),
            fmt(
                report.lost_work / (report.completed_work + report.lost_work),
                3,
            ),
        ]);
    }
    println!("Virtual-time farm simulator (identical seeds per policy):");
    println!("{}", table.render());
}
