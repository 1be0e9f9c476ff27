//! Criterion benches for EXP-FAULT: the farm simulator's cost under fault
//! injection and the resilient master's overhead relative to the fault-free
//! fast path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cs_life::{ArcLife, Uniform};
use cs_now::farm::{Farm, FarmConfig, PolicyKind, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_obs::{NoopSink, SpanProfiler};
use cs_tasks::workloads;
use std::sync::Arc;

fn faulty_config(policy: PolicyKind, intensity: f64) -> FarmConfig {
    let workstations = (0..8)
        .map(|_| {
            let life: ArcLife = Arc::new(Uniform::new(150.0).unwrap());
            WorkstationConfig {
                life: life.clone(),
                believed: life,
                c: 2.0,
                policy,
                gap_mean: 8.0,
                faults: FaultPlan::scaled(intensity),
            }
        })
        .collect();
    let mut config = FarmConfig::new(workstations, 1e6, 7);
    if intensity > 0.0 {
        config.storms = (1..=5).map(|k| 300.0 * k as f64).collect();
    }
    config
}

/// One farm run per policy under escalating fault intensity. Intensity 0 is
/// the fault-free fast path (no fault RNG draws, no lease bookkeeping
/// beyond registration) and doubles as the regression baseline for the
/// resilience layer's overhead.
fn bench_fault_injection(cr: &mut Criterion) {
    let mut g = cr.benchmark_group("bench_faults/farm");
    g.sample_size(20);
    for policy in [
        PolicyKind::Guideline,
        PolicyKind::Greedy,
        PolicyKind::FixedSize(15.0),
    ] {
        for intensity in [0.0, 0.5, 2.0] {
            let id = BenchmarkId::new(policy.label(), intensity);
            g.bench_with_input(id, &intensity, |b, &intensity| {
                b.iter(|| {
                    let bag = workloads::uniform(600, 1.0).unwrap();
                    Farm::new(faulty_config(policy, intensity), bag)
                        .unwrap()
                        .run(&mut NoopSink, &mut SpanProfiler::disabled())
                })
            });
        }
    }
    g.finish();
}

criterion_group!(faults, bench_fault_injection);
criterion_main!(faults);
