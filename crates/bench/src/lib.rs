//! # cs-bench
//!
//! Experiment harness for the reproduction. Every experiment (one
//! comparison or claim from the paper; see DESIGN.md §5 for the index and
//! EXPERIMENTS.md for paper-vs-measured) lives in [`experiments`] as an
//! implementation of [`harness::Experiment`], registered in
//! [`experiments::all`] and run by id with `cyclesteal exp --id`; the
//! `kernels` row of [`profile`] times the computational kernels behind
//! each experiment.
//!
//! Scenario definitions (life-function specs, policies, the canonical
//! named scenarios, parameter grids) come from `cs-scenarios`, so
//! experiments, benches and the CLI stay in lockstep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod harness;
pub mod profile;

pub use cs_scenarios::{grids, Scenario, ScenarioSpec};

/// The canonical trio of \[3\] scenarios (plus a concave polynomial), at
/// representative parameters — used by the §5/§6 experiments. Realized
/// from the `cs-scenarios` registry.
pub fn canonical_scenarios() -> Vec<Scenario> {
    cs_scenarios::registry::canonical_scenarios()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_scenarios_are_valid() {
        let scenarios = canonical_scenarios();
        assert_eq!(scenarios.len(), 4);
        for s in &scenarios {
            assert_eq!(s.life.survival(0.0), 1.0);
            assert!(s.c > 0.0);
            cs_life::validate::check(s.life.as_ref()).unwrap();
        }
    }
}
