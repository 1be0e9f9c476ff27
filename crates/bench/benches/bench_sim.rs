//! Criterion benches for EXP-SIM and EXP-TRACE kernels: episode execution,
//! Monte-Carlo throughput (serial vs parallel), expected-work evaluation,
//! and the trace-estimation pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cs_core::{search, Schedule};
use cs_life::Uniform;
use cs_obs::{NoopSink, SpanProfiler};
use cs_sim::{run_episode, simulate};
use cs_trace::estimate::estimate_life;
use cs_trace::fit::fit_best;
use cs_trace::owner::sample_absences;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn fixture() -> (Uniform, f64, Schedule) {
    let p = Uniform::new(1_000.0).unwrap();
    let c = 5.0;
    let plan = search::best_guideline_schedule(&p, c).unwrap();
    (p, c, plan.schedule)
}

fn bench_sim_episode(cr: &mut Criterion) {
    let (p, c, s) = fixture();
    let mut g = cr.benchmark_group("bench_sim/episode");
    g.bench_function("run_episode", |b| {
        b.iter(|| run_episode(black_box(&s), black_box(c), black_box(550.0), NoopSink))
    });
    g.bench_function("expected_work_eval", |b| {
        b.iter(|| black_box(&s).expected_work(black_box(&p), black_box(c)))
    });
    g.finish();
}

fn bench_sim_montecarlo(cr: &mut Criterion) {
    let (p, c, s) = fixture();
    let mut g = cr.benchmark_group("bench_sim/montecarlo");
    g.sample_size(10);
    let trials = 400_000u64;
    g.throughput(Throughput::Elements(trials));
    g.bench_function("serial_400k", |b| {
        b.iter(|| {
            simulate(
                black_box(&s),
                &p,
                c,
                trials,
                42,
                1,
                NoopSink,
                &mut SpanProfiler::disabled(),
            )
        })
    });
    for threads in [2usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("parallel_400k", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    simulate(
                        black_box(&s),
                        &p,
                        c,
                        trials,
                        42,
                        threads,
                        NoopSink,
                        &mut SpanProfiler::disabled(),
                    )
                })
            },
        );
    }
    g.finish();
}

fn bench_trace_pipeline(cr: &mut Criterion) {
    let truth = Uniform::new(50.0).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let samples = sample_absences(&truth, 10_000, &mut rng).unwrap();
    let mut g = cr.benchmark_group("bench_trace/pipeline");
    g.bench_function("estimate_life_10k", |b| {
        b.iter(|| estimate_life(black_box(&samples), 24).unwrap())
    });
    g.sample_size(10);
    g.bench_function("fit_best_10k", |b| {
        b.iter(|| fit_best(black_box(&samples)).unwrap())
    });
    g.finish();
}

criterion_group!(
    sim,
    bench_sim_episode,
    bench_sim_montecarlo,
    bench_trace_pipeline
);
criterion_main!(sim);
