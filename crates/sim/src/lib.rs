//! # cs-sim
//!
//! Simulation substrate for the cycle-stealing model (paper §2.1).
//!
//! The paper is an analytical study; there is no hardware to run on, and
//! none is needed — the object of study is the episode semantics itself.
//! This crate implements those semantics exactly and uses them to validate
//! the analysis:
//!
//! * [`episode`] — one episode of draconian cycle-stealing: workstation A
//!   feeds periods to workstation B; a reclamation mid-period kills the
//!   period's work and ends the episode. Fluid mode reproduces eq (2.1)'s
//!   accounting; task mode executes a real [`cs_tasks::TaskBag`] chunk by
//!   chunk. [`EpisodeTable`] precomputes a fixed schedule's episode as a
//!   function of the reclaim time, so a trial is an O(1) bucket lookup.
//! * [`montecarlo`] — [`simulate`] estimates `E[work]` by simulating many
//!   episodes with reclamation times drawn from the life function (inverse
//!   transform), serially or on a `cs-pool` pipeline (bit-identical to
//!   serial at every thread count), with one optional event sink and span
//!   profiler. `exp_sim_validate` shows the
//!   Monte-Carlo mean converging to the analytic `E(S; p)`.
//! * [`policy`] — chunk-sizing policies as a trait, so the same simulator
//!   drives guideline, fixed-size, greedy and adaptive scheduling (used by
//!   `cs-now` for the multi-workstation farm).
//! * [`stats`] — summary statistics with confidence intervals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod episode;
pub mod montecarlo;
pub mod policy;
pub mod stats;

pub use episode::{run_episode, run_episode_tasks, EpisodeOutcome, EpisodeTable};
pub use montecarlo::{simulate, MonteCarlo, MC_WINDOW};
pub use policy::{
    run_policy_episode, ChunkPolicy, FixedSchedulePolicy, FixedSizePolicy, GreedyPolicy,
    GuidelineCache, GuidelinePolicy, PeriodOutcome,
};
pub use stats::Summary;
