//! Property tests for the Monte-Carlo episode kernel: [`EpisodeTable`]
//! lookups must reproduce the period walk of [`run_episode`]
//! bit for bit — banked work, completed periods, the interrupted flag and
//! the closed-form event count. Both Monte-Carlo drivers run the table, so
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

/// Runs one reclaim through the traced walk and the table, and compares.
fn check(schedule: &Schedule, table: &EpisodeTable, c: f64, r: f64) {
    let mut walk_sink = MemorySink::new();
    let walk = run_episode(schedule, c, r, &mut walk_sink);
    let k = table.interrupted_period(r);
    assert_eq!(k, walk.periods_completed, "r = {r}");
    assert_eq!(table.banked(k).to_bits(), walk.work.to_bits(), "r = {r}");
    assert_eq!(k < table.len(), walk.interrupted, "r = {r}");
    assert_eq!(
        table.event_count(k),
        walk_sink.events.len() as u64,
        "r = {r}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn table_matches_the_period_walk_bitwise(
        periods in proptest::collection::vec(0.05f64..10.0, 0..12),
        c_pick in 0usize..16,
        c_drawn in 0.0f64..6.0,
        reclaims in proptest::collection::vec(-1.0f64..80.0, 0..8),
    ) {
        // Some cases set c exactly to one period's length (a period that
        // banks exactly 0); c_drawn alone already yields periods with t < c.
        let c = periods.get(c_pick).copied().unwrap_or(c_drawn);
        let schedule = Schedule::new(periods).unwrap();
        let table = EpisodeTable::new(&schedule, c);
        prop_assert_eq!(table.len(), schedule.len());
        let mut probes = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for end in schedule.end_times() {
            probes.extend([end, next_up(end)]);
        }
        probes.extend(reclaims);
        for r in probes {
            check(&schedule, &table, c, r);
        }
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
