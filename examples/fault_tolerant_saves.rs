//! Checkpointing a fault-prone computation with the cycle-stealing
//! machinery — the application the paper's Remark points at (ref \[7\]).
//!
//! A 500-unit job runs on a machine that faults every ~30 time units on
//! average (Poisson, λ = 1/30). Saving a checkpoint costs c = 0.4. Where
//! should the saves go?
//!
//! Run with: `cargo run --release --example fault_tolerant_saves`

use cs_apps::{fmt, Table};
use cs_saves::{
    expected_makespan, guideline_interval, optimal_interval, optimal_schedule, simulate_makespan,
    young_interval,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let w = 500.0;
    let c = 0.4;
    let lambda = 1.0 / 30.0;
    println!("Job: {w} units of work; faults ~ Poisson(1/30); save cost c = {c}\n");

    let s_opt = optimal_interval(c, lambda).expect("optimal interval");
    let s_young = young_interval(c, lambda);
    let s_guide = guideline_interval(c, lambda).expect("guideline interval");
    println!("Save-interval candidates:");
    println!("  exact optimum            : {s_opt:.3}");
    println!("  Young's sqrt(2c/lambda)  : {s_young:.3}");
    println!("  cycle-stealing guideline : {s_guide:.3}   (optimal period of p = e^(-lambda t))\n");

    let (n_opt, _) = optimal_schedule(w, c, lambda).expect("schedule");
    let mut table = Table::new(&["strategy", "saves", "E[makespan]", "simulated", "overhead"]);
    let mut rng = StdRng::seed_from_u64(7);
    for (name, n) in [
        ("no checkpoints", 1usize),
        ("every 100 units", 5),
        ("optimal", n_opt),
        ("guideline-derived", (w / s_guide).round().max(1.0) as usize),
        ("too eager (every 1)", 500),
    ] {
        let intervals = vec![w / n as f64; n];
        let analytic = expected_makespan(&intervals, c, lambda).expect("makespan");
        // A simulated trial replays every fault, so its cost grows with
        // the makespan: the uncheckpointed job (E ≈ 5×10⁸) would restart
        // ~10⁷ times per trial. Such rows keep only the analytic value.
        let simulated = if analytic < 1e3 * w {
            let trials = 3000;
            let mut acc = 0.0;
            for _ in 0..trials {
                acc += simulate_makespan(&intervals, c, lambda, &mut rng).expect("sim");
            }
            fmt(acc / trials as f64, 1)
        } else {
            "—".into()
        };
        table.row(&[
            name.into(),
            n.to_string(),
            fmt(analytic, 1),
            simulated,
            format!("{:.1}%", 100.0 * (analytic / w - 1.0)),
        ]);
    }
    println!("{}", table.render());
    println!("The guideline-derived interval (transplanted from the memoryless cycle-");
    println!("stealing scenario) is within a whisker of the true optimum — the formal");
    println!("similarity the paper's Remark promises, demonstrated end to end.");
}
