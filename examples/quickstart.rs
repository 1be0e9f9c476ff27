//! Quickstart: schedule one episode of cycle-stealing with the paper's
//! guidelines and compare against the provably optimal schedule.
//!
//! Scenario: workstation B's owner is away for at most `L = 1000` time
//! units with uniform reclamation risk; every work/result exchange costs
//! `c = 5`. How should workstation A chop the episode into periods?
//!
//! Run with: `cargo run --example quickstart`

use cs_apps::{fmt, Table};
use cs_core::{dp, optimal};
use cs_life::Uniform;
use cs_obs::{NoopSink, SpanProfiler};
use cs_sim::simulate;

fn main() {
    let l = 1000.0;
    let c = 5.0;
    let p = Uniform::new(l).expect("valid lifespan");

    println!("Episode: uniform risk, L = {l}, overhead c = {c}\n");

    // 1. The guidelines: bracket t0 (Thms 3.2/3.3), generate the rest of
    //    the schedule by the recurrence (3.6), pick the best t0 in the
    //    bracket.
    let plan = cs_core::search::best_guideline_schedule(&p, c).expect("guideline search");
    println!(
        "Guideline bracket for t0 (Thm 3.2 / Thm 3.3): [{:.2}, {:.2}]",
        plan.bracket.lower, plan.bracket.upper
    );
    println!("Chosen t0 = {:.2}; schedule = {}", plan.t0, plan.schedule);
    println!(
        "Paper's closed forms: sqrt(cL) = {:.2} <= t0 <= 2 sqrt(cL)+1 = {:.2}; optimal ~ sqrt(2cL) = {:.2}\n",
        (c * l).sqrt(),
        2.0 * (c * l).sqrt() + 1.0,
        (2.0 * c * l).sqrt()
    );

    // 2. Baselines: the provably optimal schedule of [3] and the DP oracle.
    let opt = optimal::uniform_optimal(l, c).expect("uniform optimal");
    let oracle = dp::solve_auto(&p, c, 4000).expect("dp oracle");

    // 3. Validate the expected-work model by Monte-Carlo simulation.
    let mc = simulate(
        &plan.schedule,
        &p,
        c,
        200_000,
        42,
        1,
        NoopSink,
        &mut SpanProfiler::disabled(),
    );

    let mut table = Table::new(&["schedule", "periods", "t0", "E(S;p)", "vs optimal"]);
    let e_opt = opt.expected_work(&p, c);
    for (name, schedule) in [("guideline", &plan.schedule), ("optimal [3]", &opt)] {
        let e = schedule.expected_work(&p, c);
        table.row(&[
            name.into(),
            schedule.len().to_string(),
            fmt(schedule.periods()[0], 2),
            fmt(e, 3),
            fmt(e / e_opt, 5),
        ]);
    }
    table.row(&[
        "dp oracle".into(),
        oracle.schedule.len().to_string(),
        fmt(
            oracle
                .schedule
                .periods()
                .first()
                .copied()
                .unwrap_or(f64::NAN),
            2,
        ),
        fmt(oracle.expected_work, 3),
        fmt(oracle.expected_work / e_opt, 5),
    ]);
    println!("{}", table.render());

    println!(
        "Monte-Carlo check of E(S;p): analytic {:.3} vs simulated {:.3} ± {:.3} (95% CI)",
        plan.expected_work,
        mc.work.mean(),
        mc.work.ci95_half_width()
    );
    println!(
        "Episodes interrupted mid-schedule: {:.1}%",
        100.0 * mc.interrupted_fraction
    );
}
