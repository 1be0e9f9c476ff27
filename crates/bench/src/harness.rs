//! The registry-driven experiment harness.
//!
//! Every `exp_*` experiment is a [`Experiment`] implementation registered
//! in [`crate::experiments::all`]. The `cyclesteal exp` subcommand runs
//! experiments through this module, so a new experiment is a ~50-line
//! registration in `crates/bench/src/experiments/` instead of a new binary
//! with its own plumbing.
//!
//! Experiments are report writers: they never print directly, they write
//! through [`ExpContext::out`] (see the [`outln!`](crate::outln) macro),
//! which is a capture buffer for the golden-output tests and stdout behind
//! a header line for `cyclesteal exp`. No experiment records a trace; a
//! farm trace comes from `cyclesteal farm --trace-out`.

use std::io::Write;

/// Options for one experiment run.
#[derive(Debug, Clone, Default)]
pub struct ExpOptions {
    /// Shrink Monte-Carlo budgets for a fast smoke run (CI). Tables keep
    /// their shape; the numbers are noisier.
    pub quick: bool,
    /// Input file (used by `exp_obs_validate` to validate a trace
    /// file instead of running its self-test).
    pub input: Option<String>,
}

/// Execution context handed to [`Experiment::run`].
pub struct ExpContext<'a> {
    /// Where all report text goes (never print directly).
    pub out: &'a mut dyn Write,
    /// The run options.
    pub opts: &'a ExpOptions,
}

impl ExpContext<'_> {
    /// The Monte-Carlo budget scale: picks `quick` in smoke runs, `full`
    /// otherwise. Keeps the quick-mode branches in experiment bodies
    /// one-liners.
    pub fn budget<T>(&self, full: T, quick: T) -> T {
        if self.opts.quick {
            quick
        } else {
            full
        }
    }
}

/// Writes one line to the experiment context (the harness `println!`).
///
/// Usable only inside functions returning `Result<_, String>`.
#[macro_export]
macro_rules! outln {
    ($ctx:expr) => {
        writeln!($ctx.out).map_err(|e| e.to_string())?
    };
    ($ctx:expr, $($arg:tt)*) => {
        writeln!($ctx.out, $($arg)*).map_err(|e| e.to_string())?
    };
}

/// One registered experiment: a paper table/claim reproduced by `run`.
pub trait Experiment: Sync {
    /// Stable identifier (`exp_4_2_geometric`), the `exp --id` argument.
    fn id(&self) -> &'static str;
    /// Where in the paper the claim lives (e.g. `§4.2`).
    fn paper(&self) -> &'static str;
    /// One-line description for `exp --list`.
    fn title(&self) -> &'static str;
    /// Produces the report tables on `ctx.out`.
    fn run(&self, ctx: &mut ExpContext<'_>) -> Result<(), String>;
}

/// Looks up a registered experiment by id.
pub fn by_id(id: &str) -> Option<&'static dyn Experiment> {
    crate::experiments::all().into_iter().find(|e| e.id() == id)
}

/// One sweep entry: an experiment paired with its buffered report bytes
/// (or the error that stopped it).
pub type SweepEntry = (&'static dyn Experiment, Result<Vec<u8>, String>);

/// Runs every registered experiment, rendering each report into its own
/// byte buffer, and returns one [`SweepEntry`] per experiment in registry
/// order. The experiments run concurrently on `threads` threads, the
/// caller included, through [`cs_pool::map_indexed`]; because each report
/// is buffered whole and returned in registry order, the concatenated
/// output is byte-identical for every thread count.
///
/// Also hands back the sweep's scheduling snapshot, so the caller can
/// surface thread utilization — the `cyclesteal exp --all` sweep turns it
/// into a `RUN-SUMMARY` line.
pub fn run_all_buffered_metrics(
    opts: &ExpOptions,
    threads: usize,
) -> (Vec<SweepEntry>, cs_pool::PoolMetrics) {
    let all = crate::experiments::all();
    let (results, metrics) = cs_pool::map_indexed(threads, all.len(), |i| {
        let mut buf = Vec::new();
        all[i]
            .run(&mut ExpContext {
                out: &mut buf,
                opts,
            })
            .map(|()| buf)
    });
    (all.into_iter().zip(results).collect(), metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_listable() {
        let all = crate::experiments::all();
        assert_eq!(all.len(), 22, "all 22 experiments registered");
        let mut ids: Vec<&str> = all.iter().map(|e| e.id()).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate experiment id");
        for e in &all {
            assert!(e.id().starts_with("exp_"), "{}", e.id());
            assert!(!e.title().is_empty(), "{}", e.id());
            assert!(!e.paper().is_empty(), "{}", e.id());
            assert!(by_id(e.id()).is_some());
        }
        assert!(by_id("exp_nope").is_none());
    }
}
