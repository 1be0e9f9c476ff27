//! Model validation across crates: the analytic expected work of eq (2.1)
//! must be the mean of the simulated episode process, for arbitrary
//! schedules and every life-function family — including the task-level
//! execution path.

use cs_core::Schedule;
use cs_life::{
    ArcLife, Conditional, GeometricDecreasing, GeometricIncreasing, LifeFunction, Pareto,
    Polynomial, Uniform, Weibull,
};
use cs_obs::{NoopSink, SpanProfiler};
use cs_sim::simulate;
use cs_tasks::workloads;
use proptest::prelude::*;
use std::sync::Arc;

fn check(p: &dyn LifeFunction, s: &Schedule, c: f64, trials: u64) {
    let analytic = s.expected_work(p, c);
    let mc = simulate(
        s,
        p,
        c,
        trials,
        0xC0FFEE,
        1,
        NoopSink,
        &mut SpanProfiler::disabled(),
    );
    let err = (mc.work.mean() - analytic).abs();
    let tol = 4.5 * mc.work.std_error() + 1e-9;
    assert!(
        err <= tol,
        "{}: MC {} vs analytic {analytic} (err {err} > tol {tol})",
        p.describe(),
        mc.work.mean()
    );
}

#[test]
fn every_family_validates() {
    let c = 1.5;
    let s = Schedule::new(vec![12.0, 9.0, 6.0, 4.0]).unwrap();
    check(&Uniform::new(60.0).unwrap(), &s, c, 40_000);
    check(&Polynomial::new(3, 60.0).unwrap(), &s, c, 40_000);
    check(&GeometricDecreasing::new(1.2).unwrap(), &s, c, 40_000);
    check(&GeometricIncreasing::new(40.0).unwrap(), &s, c, 40_000);
    check(&Pareto::new(2.0).unwrap(), &s, c, 40_000);
    check(&Weibull::new(1.5, 20.0).unwrap(), &s, c, 40_000);
}

#[test]
fn conditional_life_function_validates() {
    let base: ArcLife = Arc::new(Polynomial::new(2, 80.0).unwrap());
    let q = Conditional::new(base, 20.0).unwrap();
    let s = Schedule::new(vec![15.0, 10.0, 5.0]).unwrap();
    check(&q, &s, 2.0, 40_000);
}

#[test]
fn parallel_and_serial_agree_with_analytic() {
    let p = Polynomial::new(2, 100.0).unwrap();
    let s = Schedule::new(vec![30.0, 22.0, 15.0]).unwrap();
    let c = 3.0;
    let analytic = s.expected_work(&p, c);
    let par = simulate(
        &s,
        &p,
        c,
        120_000,
        5,
        6,
        NoopSink,
        &mut SpanProfiler::disabled(),
    );
    let err = (par.work.mean() - analytic).abs();
    assert!(err <= 4.5 * par.work.std_error() + 1e-9);
}

#[test]
fn task_level_execution_matches_fluid_when_grain_divides() {
    // With unit tasks and integer-budget periods, the task-level episode
    // banks exactly the fluid amount.
    let p = Uniform::new(100.0).unwrap();
    let c = 2.0;
    let s = Schedule::new(vec![12.0, 7.0, 5.0]).unwrap();
    for reclaim in [3.0, 12.5, 20.0, 1000.0] {
        let mut bag = workloads::uniform(100, 1.0).unwrap();
        let out = cs_sim::run_episode_tasks(&s, c, reclaim, &mut bag);
        assert_eq!(
            out.task_work, out.fluid.work,
            "reclaim={reclaim}: task {} vs fluid {}",
            out.task_work, out.fluid.work
        );
    }
    let _ = p;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Random schedules on the uniform family: analytic and Monte-Carlo
    /// agree within confidence bounds.
    #[test]
    fn prop_random_schedules_validate(
        periods in proptest::collection::vec(1.0f64..25.0, 1..6),
        c in 0.5f64..4.0,
    ) {
        let p = Uniform::new(70.0).unwrap();
        let s = Schedule::new(periods).unwrap();
        let analytic = s.expected_work(&p, c);
        let mc = simulate(&s, &p, c, 25_000, 99, 1, NoopSink, &mut SpanProfiler::disabled());
        let err = (mc.work.mean() - analytic).abs();
        // 5 sigma + slack: keeps the flake rate negligible across cases.
        prop_assert!(err <= 5.0 * mc.work.std_error() + 1e-6);
    }
}
