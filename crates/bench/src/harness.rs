//! The registry-driven experiment harness.
//!
//! Every `exp_*` experiment is a [`Experiment`] implementation registered
//! in [`crate::experiments::all`]. The `cyclesteal exp` subcommand runs
//! experiments through this module, so a new experiment is a ~50-line
//! registration in `crates/bench/src/experiments/` instead of a new binary
//! with its own plumbing.
//!
//! Output discipline: experiments never print directly — they write through
//! [`ExpContext::out`] (see the [`outln!`](crate::outln) macro), which is
//! a capture buffer for the golden-output tests and stdout behind a header
//! line for `cyclesteal exp`. Observable runs (the
//! farm and episode simulators) should route through [`ExpContext::sink`]
//! so `--trace-out` captures an event stream; the observation layer's
//! pass-through guarantee keeps the printed numbers bit-identical either
//! way.

use cs_obs::{
    EventSink, JsonlSink, MetricsRegistry, NoopSink, ProgressSink, SpanProfiler, TeeSink,
};
use std::io::Write;

/// Options for one experiment run.
#[derive(Debug, Clone, Default)]
pub struct ExpOptions {
    /// Shrink Monte-Carlo budgets for a fast smoke run (CI). Tables keep
    /// their shape; the numbers are noisier.
    pub quick: bool,
    /// Write the run's event stream to this JSONL path.
    pub trace_out: Option<String>,
    /// Input file (used by `exp_obs_validate` to validate a trace
    /// file instead of running its self-test).
    pub input: Option<String>,
    /// Wall-clock cadence for `RUN-PROGRESS` heartbeats on stderr while an
    /// experiment's observed runs are in flight (`None` = silent,
    /// `Some(0.0)` = every event). Strictly pass-through: report text and
    /// trace bytes are identical with heartbeats on or off.
    pub progress_every: Option<f64>,
}

/// Execution context handed to [`Experiment::run`].
pub struct ExpContext<'a> {
    /// Where all report text goes (never print directly).
    pub out: &'a mut dyn Write,
    /// Event sink for observable runs (`NoopSink` unless `--trace-out`).
    pub sink: &'a mut dyn EventSink,
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

/// Runs one experiment with the given options, writing the report to
/// `out`. Builds the event sink from `opts.trace_out`.
pub fn run_to_writer(
    exp: &dyn Experiment,
    opts: &ExpOptions,
    out: &mut dyn Write,
) -> Result<(), String> {
    run_to_writer_profiled(exp, opts, out).map(drop)
}

/// Like [`run_to_writer`], but times the experiment under a span named
/// after `exp.id()` and returns the profiler's registry (one
/// `span_ns.<id>` histogram sample) — the raw material for
/// `bench_profile`'s BENCH.json. The span's events go to a local
/// [`NoopSink`], not the trace: an on-disk trace keeps its
/// `run_start`-first / `run_end`-last layout, which `exp_obs_validate`
/// and `cyclesteal obs check` both enforce.
pub fn run_to_writer_profiled(
    exp: &dyn Experiment,
    opts: &ExpOptions,
    out: &mut dyn Write,
) -> Result<MetricsRegistry, String> {
    let mut prof = SpanProfiler::new();
    let mut span_sink = NoopSink;
    let mut progress = opts
        .progress_every
        .map(|every| ProgressSink::new(std::io::stderr(), every));
    let mut jsonl = match &opts.trace_out {
        None => None,
        Some(path) => {
            let mut sink =
                JsonlSink::create(path).map_err(|e| format!("--trace-out {path}: {e}"))?;
            if progress.is_some() {
                // A heartbeating sweep is being watched live: line-buffer
                // the trace so `tail -f` sees events as they happen.
                sink = sink.flush_every(1);
            }
            Some(sink)
        }
    };
    {
        let mut tee = TeeSink::new();
        if let Some(sink) = jsonl.as_mut() {
            tee.push(sink);
        }
        if let Some(sink) = progress.as_mut() {
            tee.push(sink);
        }
        let span = prof.start(exp.id(), &mut span_sink);
        let result = exp.run(&mut ExpContext {
            out,
            sink: &mut tee,
            opts,
        });
        prof.end(span, &mut span_sink);
        result?;
    }
    if let Some(sink) = jsonl {
        let path = opts.trace_out.as_deref().unwrap_or_default();
        let lines = sink
            .finish()
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
        prof.bump("trace_events", lines);
        writeln!(out, "trace-out: {lines} events -> {path}").map_err(|e| e.to_string())?;
    }
    Ok(prof.take_registry())
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
///
/// `opts.trace_out` is not supported here (a single trace file cannot
/// carry interleaved event streams) — callers run traced sweeps serially
/// through [`run_to_writer`].
pub fn run_all_buffered_metrics(
    opts: &ExpOptions,
    threads: usize,
) -> (Vec<SweepEntry>, cs_pool::PoolMetrics) {
    assert!(
        opts.trace_out.is_none(),
        "run_all_buffered_metrics cannot multiplex --trace-out"
    );
    let all = crate::experiments::all();
    let (results, metrics) = cs_pool::map_indexed(threads, all.len(), |i| {
        let mut buf = Vec::new();
        run_to_writer(all[i], opts, &mut buf).map(|()| buf)
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

    #[test]
    fn profiled_run_records_an_experiment_span() {
        let exp = by_id("exp_3_2_existence").unwrap();
        let opts = ExpOptions {
            quick: true,
            ..Default::default()
        };
        let mut out = Vec::new();
        let reg = run_to_writer_profiled(exp, &opts, &mut out).unwrap();
        let hist = reg
            .histogram(&format!("span_ns.{}", exp.id()))
            .expect("experiment span histogram");
        assert_eq!(hist.count(), 1);
        assert!(hist.sum() > 0.0);
        assert!(!out.is_empty(), "report text captured");
        // Profiling must not change the report text.
        let mut plain = Vec::new();
        run_to_writer(exp, &opts, &mut plain).unwrap();
        assert_eq!(out, plain);
    }
}
