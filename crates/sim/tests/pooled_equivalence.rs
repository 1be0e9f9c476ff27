//! Property test for the pooled Monte-Carlo path (ISSUE 8): for random
//! `(schedule, life, c, trials, seed, threads)`, the pooled pipeline driver
//! must return results **bit-identical** to the serial path. The pooled
//! path replays the serial RNG stream and merge order, so this property is
//! exact — any deviation means batch decomposition leaked into the
//! numbers, which would invalidate every golden fixture downstream.

use cs_core::Schedule;
use cs_life::{GeometricDecreasing, GeometricIncreasing, LifeFunction, Polynomial, Uniform};
use cs_obs::{Event, EventKind, EventSink, MemorySink, NoopSink, SpanProfiler};
use cs_sim::{simulate, MC_WINDOW};
use proptest::prelude::*;

/// Builds one of the four paper life functions from drawn parameters.
fn life(kind: u8, a: f64, degree: u32) -> Box<dyn LifeFunction> {
    match kind % 4 {
        0 => Box::new(Uniform::new(20.0 + a).unwrap()),
        1 => Box::new(Polynomial::new(1 + degree, 20.0 + a).unwrap()),
        2 => Box::new(GeometricDecreasing::new(1.05 + a / 40.0).unwrap()),
        _ => Box::new(GeometricIncreasing::new(4.0 + a).unwrap()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn pooled_mc_is_bit_identical_to_serial(
        periods in proptest::collection::vec(0.5f64..30.0, 1..10),
        kind in 0u8..4,
        a in 1.0f64..80.0,
        degree in 1u32..4,
        c in 0.0f64..6.0,
        trials in 2u64..3000,
        seed in proptest::num::u64::ANY,
        threads in 2usize..9,
    ) {
        let schedule = Schedule::new(periods).unwrap();
        let p = life(kind, a, degree);
        let serial = simulate(&schedule, p.as_ref(), c, trials, seed, 1, NoopSink, &mut SpanProfiler::disabled());
        let pooled =
            simulate(&schedule, p.as_ref(), c, trials, seed, threads, NoopSink, &mut SpanProfiler::disabled());
        prop_assert_eq!(
            serial.work.mean().to_bits(),
            pooled.work.mean().to_bits(),
            "mean differs at {} threads", threads
        );
        prop_assert_eq!(serial.work.count(), pooled.work.count());
        prop_assert_eq!(serial.work.min().to_bits(), pooled.work.min().to_bits());
        prop_assert_eq!(serial.work.max().to_bits(), pooled.work.max().to_bits());
        prop_assert_eq!(
            serial.work.std_error().to_bits(),
            pooled.work.std_error().to_bits()
        );
        prop_assert_eq!(
            serial.interrupted_fraction.to_bits(),
            pooled.interrupted_fraction.to_bits()
        );
        prop_assert_eq!(serial.mean_periods.to_bits(), pooled.mean_periods.to_bits());
    }
}

/// Keeps a run's `mc_progress` events.
#[derive(Default)]
struct Progress {
    ticks: Vec<(u64, u64)>,
}

impl EventSink for Progress {
    fn emit(&mut self, e: &Event<'static>) {
        if let EventKind::McProgress { done, total } = e.kind {
            self.ticks.push((done, total));
        }
    }
}

/// Pooled ≡ serial at every window edge: a pooled run of 2, W − 1, W,
/// W + 1 and 2W + 3 trials (W = `MC_WINDOW`) matches the serial run in
/// every field but `pool` and ticks the same `mc_progress` milestones;
/// its per-thread task counts cover exactly `threads` threads, the
/// master's included.
#[test]
fn pooled_matches_serial_at_every_window_edge() {
    let schedule = Schedule::new(vec![30.0, 20.0, 15.0]).unwrap();
    let p = Uniform::new(80.0).unwrap();
    let (c, seed) = (2.0, 7919);
    for trials in [
        2,
        MC_WINDOW - 1,
        MC_WINDOW,
        MC_WINDOW + 1,
        2 * MC_WINDOW + 3,
    ] {
        let mut traced = Progress::default();
        simulate(
            &schedule,
            &p,
            c,
            trials,
            seed,
            1,
            &mut traced,
            &mut SpanProfiler::disabled(),
        );
        let serial = simulate(
            &schedule,
            &p,
            c,
            trials,
            seed,
            1,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        assert!(serial.pool.is_none());
        for threads in [2, 3, 5] {
            let mut sink = MemorySink::new();
            let pooled = simulate(
                &schedule,
                &p,
                c,
                trials,
                seed,
                threads,
                &mut sink,
                &mut SpanProfiler::disabled(),
            );
            let at = format!("{trials} trials, {threads} threads");
            let bits = |mc: &cs_sim::MonteCarlo| {
                let w = &mc.work;
                (
                    w.count(),
                    [
                        w.mean(),
                        w.variance(),
                        w.min(),
                        w.max(),
                        mc.interrupted_fraction,
                        mc.mean_periods,
                    ]
                    .map(f64::to_bits),
                )
            };
            assert_eq!(bits(&pooled), bits(&serial), "{at}");
            let ticks: Vec<_> = sink
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::McProgress { done, total } => Some((done, total)),
                    _ => None,
                })
                .collect();
            assert_eq!(ticks, traced.ticks, "{at}");
            let pm = pooled.pool.expect("a pooled run reports its pool");
            assert_eq!(pm.threads, threads, "{at}");
            assert_eq!(pm.per_worker_tasks.len(), threads, "{at}");
            assert_eq!(pm.per_worker_tasks.iter().sum::<u64>(), pm.tasks, "{at}");
        }
    }
}
