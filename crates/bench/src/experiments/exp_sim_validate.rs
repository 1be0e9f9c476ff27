//! EXP-SIM — model validation: the Monte-Carlo mean episode work converges
//! to the analytic `E(S; p)` of eq (2.1), for every family and for both the
//! serial and the parallel simulator.

use crate::harness::{ExpContext, Experiment};
use crate::{canonical_scenarios, outln};
use cs_apps::{fmt, fmt_opt, Table};
use cs_core::search;
use cs_obs::{NoopSink, RunSummary, SpanProfiler};
use cs_sim::simulate;

/// Registration for `exp_sim_validate`.
pub struct Exp;

impl Experiment for Exp {
    fn id(&self) -> &'static str {
        "exp_sim_validate"
    }

    fn paper(&self) -> &'static str {
        "eq (2.1)"
    }

    fn title(&self) -> &'static str {
        "Monte-Carlo validation of the expected-work functional E(S;p)"
    }

    fn run(&self, ctx: &mut ExpContext<'_>) -> Result<(), String> {
        outln!(
            ctx,
            "EXP-SIM: Monte-Carlo validation of E(S;p) — eq (2.1)\n"
        );
        let trial_grid = ctx.budget([1u64, 1_000, 10_000, 100_000], [1u64, 500, 2_000, 10_000]);
        let parallel_trials = ctx.budget(200_000u64, 20_000);
        let mut t = Table::new(&[
            "scenario",
            "trials",
            "analytic E",
            "MC mean",
            "95% CI",
            "|err|/CI",
            "interrupted",
        ]);
        for s in canonical_scenarios() {
            let p = s.life.as_ref();
            let plan = search::best_guideline_schedule(p, s.c).expect("plan");
            let analytic = plan.expected_work;
            // The single-trial row exercises the undefined-CI path: it must
            // render "n/a", never NaN.
            for trials in trial_grid {
                let mc = simulate(
                    &plan.schedule,
                    p,
                    s.c,
                    trials,
                    7_777,
                    1,
                    NoopSink,
                    &mut SpanProfiler::disabled(),
                );
                let ci = mc.work.ci95();
                t.row(&[
                    s.name.clone(),
                    trials.to_string(),
                    fmt(analytic, 4),
                    fmt(mc.work.mean(), 4),
                    fmt_opt(ci, 4),
                    fmt_opt(
                        ci.map(|h| (mc.work.mean() - analytic).abs() / h.max(1e-12)),
                        2,
                    ),
                    fmt(mc.interrupted_fraction, 3),
                ]);
            }
        }
        outln!(ctx, "{}", t.render());
        outln!(
            ctx,
            "Shape: |err| stays within ~1-2 CI half-widths and the CI shrinks like 1/sqrt(n).\n"
        );

        // Parallel determinism and agreement.
        let scenarios = canonical_scenarios();
        let s = &scenarios[0];
        let plan = search::best_guideline_schedule(s.life.as_ref(), s.c).expect("plan");
        let a = simulate(
            &plan.schedule,
            s.life.as_ref(),
            s.c,
            parallel_trials,
            99,
            8,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        let b = simulate(
            &plan.schedule,
            s.life.as_ref(),
            s.c,
            parallel_trials,
            99,
            8,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        let reproducible = a.work.mean() == b.work.mean();
        outln!(
            ctx,
            "Parallel simulator ({}, 8 threads, {}k trials): mean {} (run-to-run identical: {})",
            s.name,
            parallel_trials / 1_000,
            fmt(a.work.mean(), 4),
            reproducible
        );
        // A NaN CI would make this comparison silently false; ci95() separates
        // "insufficient samples" from a genuine disagreement.
        let agreement = match a.work.ci95() {
            Some(half) => {
                let inside = (a.work.mean() - plan.expected_work).abs() <= half;
                format!("inside CI: {inside}")
            }
            None => "insufficient samples for a CI".to_string(),
        };
        outln!(
            ctx,
            "  analytic {} — {}",
            fmt(plan.expected_work, 4),
            agreement
        );

        RunSummary::new("exp_sim_validate")
            .num("parallel_mean", a.work.mean())
            .num("analytic", plan.expected_work)
            .flag("reproducible", reproducible)
            .flag(
                "inside_ci",
                a.work
                    .ci95()
                    .is_some_and(|h| (a.work.mean() - plan.expected_work).abs() <= h),
            )
            .emit_to(ctx.out)
            .map_err(|e| e.to_string())?;
        Ok(())
    }
}
