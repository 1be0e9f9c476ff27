//! Criterion benches for EXP-NOW and EXP-DISC kernels: the virtual-time
//! farm, replication scaling, task packing and quantization accounting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cs_core::{search, Schedule};
use cs_life::{ArcLife, Uniform};
use cs_now::farm::{Farm, FarmConfig, PolicyKind, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_now::replicate::replicate_farm;
use cs_obs::{MemorySink, NoopSink, SpanProfiler};
use cs_tasks::quantization::fluid_vs_packed;
use cs_tasks::{workloads, TaskBag};
use std::hint::black_box;
use std::sync::Arc;

fn workstations(n: usize, policy: PolicyKind) -> Vec<WorkstationConfig> {
    (0..n)
        .map(|_| {
            let life: ArcLife = Arc::new(Uniform::new(150.0).unwrap());
            WorkstationConfig {
                life: life.clone(),
                believed: life,
                c: 2.0,
                policy,
                gap_mean: 8.0,
                faults: FaultPlan::none(),
            }
        })
        .collect()
}

/// EXP-NOW kernel: one farm run (fixed-size policy keeps the measurement
/// focused on the simulator, not on the guideline search).
fn bench_now_farm(cr: &mut Criterion) {
    let mut g = cr.benchmark_group("bench_now/farm");
    g.sample_size(20);
    for n_ws in [4usize, 16] {
        g.bench_with_input(BenchmarkId::new("fixed_policy", n_ws), &n_ws, |b, &n_ws| {
            b.iter(|| {
                let bag = workloads::uniform(1_000, 1.0).unwrap();
                let config =
                    FarmConfig::new(workstations(n_ws, PolicyKind::FixedSize(15.0)), 1e6, 7);
                Farm::new(config, bag)
                    .unwrap()
                    .run(&mut NoopSink, &mut SpanProfiler::disabled())
            })
        });
    }
    // The observability overhead: `noop_sink` is the untraced run,
    // `memory_sink` shows the cost of actually recording every event.
    for (name, sink_kind) in [("noop_sink", 0u8), ("memory_sink", 1)] {
        g.bench_function(BenchmarkId::new("sink_overhead", name), |b| {
            b.iter(|| {
                let bag = workloads::uniform(1_000, 1.0).unwrap();
                let config = FarmConfig::new(workstations(4, PolicyKind::FixedSize(15.0)), 1e6, 7);
                let farm = Farm::new(config, bag).unwrap();
                match sink_kind {
                    0 => farm.run(&mut NoopSink, &mut SpanProfiler::disabled()),
                    _ => farm.run(&mut MemorySink::new(), &mut SpanProfiler::disabled()),
                }
            })
        });
    }
    g.sample_size(10);
    g.bench_function("replicate_8x_4threads", |b| {
        let template = FarmConfig::new(workstations(4, PolicyKind::FixedSize(15.0)), 1e6, 1);
        let make_bag = || workloads::uniform(400, 1.0).unwrap();
        b.iter(|| replicate_farm(&template, PolicyKind::FixedSize(15.0), &make_bag, 8, 4).unwrap())
    });
    g.finish();
}

/// EXP-DISC kernel: chunk packing throughput and quantization accounting.
fn bench_discrete(cr: &mut Criterion) {
    let mut g = cr.benchmark_group("bench_discrete/packing");
    let n_tasks = 100_000usize;
    g.throughput(Throughput::Elements(n_tasks as u64));
    g.bench_function("check_out_100k_tasks", |b| {
        b.iter_batched(
            || workloads::uniform(n_tasks, 1.0).unwrap(),
            |mut bag: TaskBag| {
                let mut total = 0.0;
                while !bag.is_drained() {
                    let chunk = bag.check_out(black_box(64.0));
                    total += chunk.total_duration();
                    bag.complete(chunk);
                }
                total
            },
            criterion::BatchSize::LargeInput,
        )
    });
    let p = Uniform::new(1_000.0).unwrap();
    let plan = search::best_guideline_schedule(&p, 5.0).unwrap();
    let schedule: Schedule = plan.schedule;
    g.bench_function("fluid_vs_packed", |b| {
        b.iter_batched(
            || workloads::uniform(10_000, 0.5).unwrap(),
            |mut bag| fluid_vs_packed(black_box(&schedule), &mut bag, 5.0),
            criterion::BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(now, bench_now_farm, bench_discrete);
criterion_main!(now);
