//! Property tests for the Monte-Carlo episode kernel: [`EpisodeTable`]
//! bucket lookups must reproduce the period walk of [`run_episode`]
//! bit for bit — banked work, completed periods and the interrupted flag.
//! Both Monte-Carlo drivers run the table, so
//! the pooled ≡ serial property alone cannot catch a drift from the walk;
//! these tests pin the table to it directly.

use cs_core::Schedule;
use cs_life::Uniform;
use cs_obs::{MemorySink, NoopSink, SpanProfiler};
use cs_sim::{run_episode, simulate, EpisodeTable};
use proptest::prelude::*;

/// The next representable `f64` above a finite, non-negative `x`.
fn next_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

/// The next representable `f64` below a finite, positive `x`.
fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

/// Runs one reclaim through the traced walk and the table, and compares.
fn check(schedule: &Schedule, table: &EpisodeTable, c: f64, r: f64) {
    let walk = run_episode(schedule, c, r, NoopSink);
    let k = table.interrupted_period(r);
    assert_eq!(k, walk.periods_completed, "r = {r}");
    assert_eq!(table.banked(k).to_bits(), walk.work.to_bits(), "r = {r}");
    assert_eq!(k < table.len(), walk.interrupted, "r = {r}");
}

/// Probes `table` at every end `T_k` and the floats on either side of it,
/// at signed zeros, infinities, NaN, negative and subnormal reclaims,
/// reclaims past `T_m`, and at `extra`.
fn check_all(schedule: &Schedule, c: f64, extra: &[f64]) {
    let table = EpisodeTable::new(schedule, c);
    assert_eq!(table.len(), schedule.len());
    let mut probes = vec![
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -1.0,
        -1e300,
        -f64::MIN_POSITIVE,
        f64::from_bits(1),
        -f64::from_bits(1),
        1e-310,
        f64::MIN_POSITIVE,
        f64::MAX,
    ];
    let ends = schedule.end_times();
    for &end in &ends {
        probes.extend([next_down(end), end, next_up(end)]);
    }
    if let Some(&t_m) = ends.last() {
        probes.extend([1.5 * t_m, 2.0 * t_m + 1.0]);
        probes.extend(extra.iter().map(|f| f * t_m));
    }
    for r in probes {
        check(schedule, &table, c, r);
    }
}

/// A period length from a drawn kind and magnitude in `[0, 1)`: mostly
/// moderate, some long (so runs of short periods after them crowd
/// several ends into one bucket), and some too short to move
/// `fl(start + t)` at all (so ends repeat).
fn period(kind: u8, mag: f64) -> f64 {
    match kind {
        0..=5 => 0.05 + 9.95 * mag,
        6 => 100.0 + 900.0 * mag,
        _ => 10f64.powf(-300.0 + 284.0 * mag),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn table_matches_the_period_walk_bitwise(
        short_kinds in proptest::collection::vec(0u8..8, 0..12),
        long_kinds in proptest::collection::vec(0u8..8, 200..600),
        long in 0u8..2,
        mags in proptest::collection::vec(0.0f64..1.0, 600..601),
        c_pick in 0usize..16,
        c_drawn in 0.0f64..6.0,
        reclaims in proptest::collection::vec(-0.1f64..1.2, 0..8),
    ) {
        // Half the cases run schedules of several hundred periods.
        let kinds = if long == 1 { long_kinds } else { short_kinds };
        let periods: Vec<f64> = kinds.iter().zip(&mags).map(|(&k, &m)| period(k, m)).collect();
        // Some cases set c exactly to one period's length (a period that
        // banks exactly 0); c_drawn alone already yields periods with t < c.
        let c = periods.get(c_pick).copied().unwrap_or(c_drawn);
        // `reclaims` are fractions of T_m.
        check_all(&Schedule::new(periods).unwrap(), c, &reclaims);
    }

    /// A traced serial run walks every episode; an untraced one looks
    /// each up in the table. Their summaries must be the same bits.
    #[test]
    fn traced_serial_run_matches_the_table_run(
        periods in proptest::collection::vec(0.5f64..30.0, 1..8),
        c in 0.0f64..5.0,
        seed in proptest::num::u64::ANY,
    ) {
        let schedule = Schedule::new(periods).unwrap();
        let p = Uniform::new(schedule.total_length() * 1.2).unwrap();
        let plain = simulate(&schedule, &p, c, 300, seed, 1, NoopSink, &mut SpanProfiler::disabled());
        let traced =
            simulate(&schedule, &p, c, 300, seed, 1, MemorySink::new(), &mut SpanProfiler::disabled());
        prop_assert_eq!(plain.work.mean().to_bits(), traced.work.mean().to_bits());
        prop_assert_eq!(plain.work.std_error().to_bits(), traced.work.std_error().to_bits());
        prop_assert_eq!(plain.interrupted_fraction.to_bits(), traced.interrupted_fraction.to_bits());
        prop_assert_eq!(plain.mean_periods.to_bits(), traced.mean_periods.to_bits());
    }
}

/// Schedules whose bucket scale `B / T_m` is not finite: an empty one, one
/// whose `T_m` is subnormal (the scale overflows), and one whose ends sum
/// to `+∞` (the scale is 0). The lookup degrades to a scan and stays
/// exact.
#[test]
fn table_is_exact_when_the_bucket_scale_is_not_finite() {
    check_all(&Schedule::empty(), 1.0, &[]);
    let tiny = f64::from_bits(1);
    check_all(&Schedule::new(vec![tiny; 5]).unwrap(), 0.0, &[0.5]);
    check_all(
        &Schedule::new(vec![tiny, 2.0 * tiny, 1e-310]).unwrap(),
        0.0,
        &[0.3],
    );
    check_all(
        &Schedule::new(vec![1.0, 1e308, 1e308, 5.0]).unwrap(),
        0.5,
        &[],
    );
}
