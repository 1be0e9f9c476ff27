//! EXP-NOW — end-to-end NOW farm: aggregate work by chunk-sizing policy
//! across heterogeneous borrowed workstations (the paper's §1 deployment,
//! replicated and summarized).

use crate::harness::{ExpContext, Experiment};
use crate::outln;
use cs_apps::{fmt, fmt_opt, Table};
use cs_life::{ArcLife, GeometricDecreasing, Polynomial, Uniform};
use cs_now::farm::{Farm, FarmConfig, PolicySpec, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_now::replicate::replicate_farm;
use cs_obs::{RunSummary, SpanProfiler};
use cs_tasks::workloads;
use std::sync::Arc;

fn heterogeneous_now(n: usize, c: f64) -> Vec<WorkstationConfig> {
    (0..n)
        .map(|i| {
            let life: ArcLife = match i % 3 {
                0 => Arc::new(Uniform::new(120.0 + 30.0 * (i % 4) as f64).unwrap()),
                1 => Arc::new(GeometricDecreasing::from_half_life(35.0).unwrap()),
                _ => Arc::new(Polynomial::new(2, 180.0).unwrap()),
            };
            WorkstationConfig {
                life: life.clone(),
                believed: life,
                c,
                policy: PolicySpec::Guideline,
                gap_mean: 12.0,
                faults: FaultPlan::none(),
            }
        })
        .collect()
}

/// Registration for `exp_now_farm`.
pub struct Exp;

impl Experiment for Exp {
    fn id(&self) -> &'static str {
        "exp_now_farm"
    }

    fn paper(&self) -> &'static str {
        "§1 deployment"
    }

    fn title(&self) -> &'static str {
        "Multi-workstation NOW farm: policy comparison under replication"
    }

    fn run(&self, ctx: &mut ExpContext<'_>) -> Result<(), String> {
        outln!(
            ctx,
            "EXP-NOW: multi-workstation farm, policy comparison (replicated)\n"
        );
        let c = 2.0;
        let reps = ctx.budget(12u64, 3);
        let threads = 4;
        for (n_ws, tasks) in [(4usize, 600usize), (16, 2400)] {
            outln!(
                ctx,
                "{n_ws} workstations, {tasks} unit tasks, c = {c}, {reps} replications:"
            );
            let template = FarmConfig::new(heterogeneous_now(n_ws, c), 1e6, 31_337);
            let make_bag = move || workloads::uniform(tasks, 1.0).unwrap();
            let mut t = Table::new(&[
                "policy",
                "drained",
                "makespan mean",
                "makespan ci95",
                "lost work mean",
            ]);
            for policy in [
                PolicySpec::Guideline,
                PolicySpec::Greedy,
                PolicySpec::FixedSize(5.0),
                PolicySpec::FixedSize(25.0),
                PolicySpec::FixedSize(100.0),
            ] {
                let rep = replicate_farm(&template, policy, &make_bag, reps, threads)
                    .expect("valid farm template");
                t.row(&[
                    rep.policy.clone(),
                    fmt(rep.drained_fraction, 2),
                    fmt(rep.makespan.mean(), 1),
                    // ci95() is None (rendered "n/a") when fewer than two
                    // replications drained — never NaN in the table.
                    fmt_opt(rep.makespan.ci95(), 1),
                    fmt(rep.lost_work.mean(), 1),
                ]);
                if n_ws == 16 && policy == PolicySpec::Guideline {
                    RunSummary::new("exp_now_farm")
                        .text("policy", &rep.policy)
                        .int("workstations", n_ws as u64)
                        .int("replications", reps)
                        .num("drained_fraction", rep.drained_fraction)
                        .num("makespan_mean", rep.makespan.mean())
                        .num("makespan_ci95", rep.makespan.ci95().unwrap_or(f64::NAN))
                        .num("lost_work_mean", rep.lost_work.mean())
                        .emit_to(ctx.out)
                        .map_err(|e| e.to_string())?;
                }
            }
            outln!(ctx, "{}", t.render());
        }
        // One representative guideline run goes through the harness event
        // sink, so `--trace-out` captures a real master action stream.
        // Nothing is written to `out`: the report tables stay byte-identical.
        let obs = FarmConfig::new(heterogeneous_now(4, c), 1e6, 31_337);
        Farm::new(obs, workloads::uniform(600, 1.0).unwrap())
            .map_err(|e| e.to_string())?
            .run(&mut *ctx.sink, &mut SpanProfiler::disabled());
        outln!(
            ctx,
            "Shape: guideline chunk-sizing drains the bag fastest (or ties the best fixed"
        );
        outln!(
            ctx,
            "size, which must be hand-tuned per NOW); too-small chunks pay overhead, too-"
        );
        outln!(
            ctx,
            "large chunks pay reclamation losses — the paper's central tension, end to end."
        );
        Ok(())
    }
}
