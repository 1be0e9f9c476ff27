//! Property test for the pooled Monte-Carlo path (ISSUE 8): for random
//! `(schedule, life, c, trials, seed, threads)`, the work-stealing driver
//! must return results **bit-identical** to the serial path. The pooled
//! path replays the serial RNG stream and merge order, so this property is
//! exact — any deviation means batch decomposition leaked into the
//! numbers, which would invalidate every golden fixture downstream.

use cs_core::Schedule;
use cs_life::{GeometricDecreasing, GeometricIncreasing, LifeFunction, Polynomial, Uniform};
use cs_obs::{NoopSink, SpanProfiler};
use cs_sim::simulate;
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
