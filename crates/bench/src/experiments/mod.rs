//! The experiment registry: every `exp_*` study in the repo, one module
//! each, all implementing [`crate::harness::Experiment`].
//!
//! The `cyclesteal exp` subcommand runs them by id from [`all`]. Registration order follows the paper: §3
//! existence, §4 closed forms, §5 robustness, §6 open questions, then the
//! extensions (simulation, NOW farm, fault tolerance, observability).

pub mod exp_3_2_existence;
pub mod exp_4_1_t0_bounds;
pub mod exp_4_1_uniform;
pub mod exp_4_2_geometric;
pub mod exp_4_3_increasing;
pub mod exp_5_1_perturb;
pub mod exp_5_2_growth;
pub mod exp_6_adaptive;
pub mod exp_6_greedy;
pub mod exp_ablation;
pub mod exp_chaos;
pub mod exp_competitive;
pub mod exp_discrete;
pub mod exp_fault_tolerance;
pub mod exp_now_farm;
pub mod exp_obs_validate;
pub mod exp_online;
pub mod exp_saves;
pub mod exp_sim_validate;
pub mod exp_trace_robust;
pub mod exp_uniqueness;
pub mod exp_utilization;

use crate::harness::Experiment;

/// Every registered experiment, in paper order.
pub fn all() -> Vec<&'static dyn Experiment> {
    vec![
        &exp_3_2_existence::Exp,
        &exp_4_1_t0_bounds::Exp,
        &exp_4_1_uniform::Exp,
        &exp_4_2_geometric::Exp,
        &exp_4_3_increasing::Exp,
        &exp_5_1_perturb::Exp,
        &exp_5_2_growth::Exp,
        &exp_6_greedy::Exp,
        &exp_6_adaptive::Exp,
        &exp_uniqueness::Exp,
        &exp_discrete::Exp,
        &exp_competitive::Exp,
        &exp_ablation::Exp,
        &exp_sim_validate::Exp,
        &exp_utilization::Exp,
        &exp_online::Exp,
        &exp_trace_robust::Exp,
        &exp_saves::Exp,
        &exp_now_farm::Exp,
        &exp_fault_tolerance::Exp,
        &exp_chaos::Exp,
        &exp_obs_validate::Exp,
    ]
}
