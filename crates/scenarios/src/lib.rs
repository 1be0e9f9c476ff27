//! # cs-scenarios
//!
//! The shared scenario/spec layer for the reproduction. The paper's
//! evaluation is a matrix of (life-function scenario × schedule policy ×
//! experiment); this crate owns the typed descriptions of the first two
//! axes so the CLI, the NOW farm and the experiment harness all speak the
//! same language:
//!
//! * [`LifeSpec`] — every CLI-constructible life-function family, read
//!   from `--key value` lookups ([`LifeSpec::from_lookup`]) through one
//!   per-family table, with a builder onto [`cs_life::ArcLife`].
//! * [`PolicySpec`] — the chunk-sizing policies (`guideline`, `greedy`,
//!   `fixed:<t>`), with parsing, display, the canonical report
//!   [`label`](PolicySpec::label) and construction onto
//!   [`cs_sim::policy::ChunkPolicy`]. `PolicySpec::parse` reads the CLI's
//!   `--policy` and satisfies `parse(display(spec)) == spec` (see the
//!   proptests under `tests/`).
//! * [`ScenarioSpec`] — a named (life, overhead) pair, plus the
//!   [`registry`] of canonical named scenarios used across DESIGN §5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod life;
mod policy;
mod scenario;

pub use life::{LifeSpec, LIFE_OPTS};
pub use policy::{PolicyCaches, PolicyParseError, PolicySpec};
pub use scenario::{registry, Scenario, ScenarioSpec};

/// The standard parameter grid the Section-4 experiments sweep.
pub mod grids {
    /// Lifespans for the polynomial/uniform sweeps.
    pub const LIFESPANS: [f64; 4] = [100.0, 1_000.0, 10_000.0, 100_000.0];
    /// Overheads for the polynomial/uniform sweeps.
    pub const OVERHEADS: [f64; 3] = [1.0, 5.0, 20.0];
    /// Degrees for the §4.1 polynomial family.
    pub const DEGREES: [u32; 4] = [1, 2, 3, 4];
    /// Risk factors for the §4.2 geometric family.
    pub const RISK_FACTORS: [f64; 4] = [2.0, std::f64::consts::E, 4.0, 10.0];
    /// Lifespans for the §4.3 geometric-increasing family.
    pub const GEO_INC_LIFESPANS: [f64; 4] = [16.0, 64.0, 256.0, 1024.0];
}
