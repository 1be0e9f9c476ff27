//! `cyclesteal` — command-line planner for data-parallel cycle-stealing.
//!
//! ```text
//! cyclesteal plan     --family uniform --l 1000 --c 5
//! cyclesteal simulate --family geometric --a 2 --c 1 --trials 100000 --threads 4
//! cyclesteal fit      --input absences.txt --c 1
//! cyclesteal fit      --synthetic diurnal --days 60 --c 0.05
//! cyclesteal farm     --workstations 8 --tasks 2000 --l 150 --c 2 --policy guideline
//! cyclesteal exp      --id exp_4_2_geometric --quick
//! ```
//!
//! See `cyclesteal help` for the full option list.

mod args;
mod obs_cmd;

use args::Args;
use cs_apps::{fmt, pct, Table};
use cs_bench::harness::{by_id, run_to_writer, ExpOptions};
use cs_core::{dp, search};
use cs_life::LifeFunction;
use cs_now::farm::{Farm, FarmConfig, PolicySpec, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_now::{IoErrorPolicy, JournalOptions, SnapshotOutcome, MAX_SNAPSHOT_RING};
use cs_obs::vfs::StdVfs;
use cs_obs::{JsonlSink, MetricsSink, NoopSink, ProgressSink, RunSummary, SpanProfiler, TeeSink};
use cs_scenarios::{LifeSpec, PolicyParseError, LIFE_OPTS};
use cs_tasks::{workloads, TaskBag};
use cs_trace::{estimate::estimate_life, fit::fit_all, owner::DiurnalOwner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

const HELP: &str = "\
cyclesteal — scheduling guidelines for data-parallel cycle-stealing
(Rosenberg, IPPS'98 reproduction)

USAGE:
    cyclesteal <command> [--option value ...]

COMMANDS:
    plan       Compute the guideline schedule for one episode.
               --family uniform|poly|geometric|increasing|pareto|weibull
               family params: --l, --d, --a, --half-life, --k, --lambda
               --c <overhead>           communication overhead (required)
               --oracle                 also run the DP oracle for comparison
    simulate   Monte-Carlo validation of the planned schedule.
               (plan options) --trials <n> --threads <k> --seed <s>
                                        (--threads default: available
                                        parallelism; 1 = serial, results
                                        bit-identical either way; the
                                        --trace-out shape is not: 1 thread
                                        traces every episode, more trace
                                        progress only, so pass --threads
                                        for traces that match across hosts)
               --trace-out <file>       write the event stream as JSONL
               --metrics                print the folded metrics registry
               --profile                time internal phases (span profiler)
               --progress-every <s>     RUN-PROGRESS heartbeats on stderr
                                        every s wall-clock seconds (0 = every
                                        event); pass-through, output identical
    fit        Fit life functions to absence durations.
               --input <file>           one duration per line
               --synthetic diurnal --days <n> [--seed <s>]
               --c <overhead>           also plan on the best fit
    farm       Run the virtual-time NOW farm.
               --workstations <n> --tasks <m> --l <lifespan> --c <overhead>
               --policy guideline|greedy|fixed:<t> --gap <mean> --seed <s>
               fault injection (all optional, applied to every workstation):
               --faults <intensity>     canonical escalation of every class
               --loss <p>               dispatch/result loss probability
               --slowdown <f>           multiplicative straggler factor (>= 1)
               --crash <rate>           permanent-crash hazard rate
               --storms <t1,t2,...>     correlated reclaim-storm times
               --trace-out <file>       write the event stream as JSONL
               --metrics                print the folded metrics registry
               --profile                time master phases (span profiler)
               durability (journal and resume are mutually exclusive, and
               neither combines with --trace-out/--metrics/--profile):
               --journal <file>         run with a durable write-ahead journal
               --resume <file>          recover an interrupted journaled run
                                        (restores <file>.snap when present;
                                        falls back to full replay with a
                                        warning when missing or corrupt)
               --kill-after <n>         crash drill: abort the process after
                                        n committed journal records
               --snapshot-every <dt>    state-snapshot cadence in virtual
                                        time (needs --journal or --resume;
                                        default: the saves guideline)
               --snapshot-ring <n>      keep n snapshot generations
                                        (<file>.snap.0..n-1) instead of one
                                        sidecar (needs --journal/--resume;
                                        default 1 = legacy <file>.snap)
               --journal-gc             prune journal records the oldest
                                        retained generation makes redundant
                                        (bounded disk; needs
                                        --snapshot-ring >= 2)
               --on-io-error <policy>   fail-stop (default: any journal I/O
                                        error aborts with a non-zero exit)
                                        or degrade (finish the run in-memory
                                        with a warning and a flagged
                                        RUN-SUMMARY)
               --progress-every <s>     RUN-PROGRESS heartbeats on stderr
                                        (journaled runs heartbeat from the
                                        journal driver; pass-through either
                                        way)
    chaos      Kill-anywhere proof: journal a faulty farm, kill the master
               at record boundaries, resume — through the snapshot fast
               path, a corrupted sidecar, and full redo — and demand
               bitwise-identical reports and a byte-identical stitched
               journal.
               --workstations <n> --tasks <m> --seed <s>
               --faults <intensity>     canonical escalation (as farm)
               --sample <k>             kill at k spread boundaries (default:
                                        every record boundary)
               --snapshot-every <dt>    reference-run snapshot cadence in
                                        virtual time (default 10)
               --quick                  small farm + sampled kills (CI smoke)
               --disk-faults            additionally resume each kill point
                                        through a seeded faulty filesystem
                                        (failed/short writes, fsync errors,
                                        rename failures, ENOSPC; fail-stop
                                        and degrade policies) and demand a
                                        bitwise report or the typed injected
                                        error
               --threads <n>            run kill/resume trials on the
                                        work-stealing pool (default: available
                                        parallelism; 1 = serial, identical
                                        outcome either way)
               --progress-every <s>     heartbeat the reference journaled run
                                        (trials stay quiet)
    saves      Checkpoint-interval planning under Poisson faults.
               --work <w> --c <save cost> --lambda <fault rate>
    exp        Run registered paper experiments (crates/bench registry).
               --list                   show every experiment id
               --id <exp_id>            run one experiment by id
               --all                    run every experiment in paper order
               --quick                  shrink Monte-Carlo budgets (CI smoke)
               --trace-out <file>       write the event stream as JSONL
               --input <file>           experiment input (exp_obs_validate)
               --threads <n>            with --all: run experiments
                                        concurrently on the work-stealing
                                        pool, output buffered per experiment
                                        (bytes identical to serial; default:
                                        available parallelism; forced serial
                                        with --trace-out)
               --progress-every <s>     RUN-PROGRESS heartbeats on stderr for
                                        observed runs; with --trace-out also
                                        line-buffers the trace for tail -f
    obs        Analyze recorded traces and perf baselines.
               report <trace.jsonl>     event counts, span tree, attribution,
                                        pool counters, phase summary
               path [--l <L>] [--c <c>] <trace.jsonl>
                                        critical-path chain + wall-time phase
                                        attribution for a farm trace, with
                                        bitwise lost-work reconciliation and
                                        an expected-work side-by-side
               chunks [--top <k>] <trace.jsonl>
                                        per-chunk waterfall: top-k slowest,
                                        stragglers, waste by fate
               check [--strict] <trace.jsonl>
                                        invariant gate (non-zero exit on fail);
                                        a torn final record is a warning
                                        unless --strict
               diff [--threshold <rel>] [--bench] <a> <b>
                                        flag metric/baseline regressions
               replay --journal <file> --to <record> [farm scenario flags]
                                        time travel: reconstruct the farm's
                                        state as of a journal record
               replay --journal <file> --fork [farm scenario flags]
                                        what-if: restore <file>.snap under a
                                        (possibly perturbed) fault plan and
                                        run the rest of the episode
               replay ... --generation <g>
                                        pin --to/--fork to ring generation
                                        <file>.snap.<g> instead of the
                                        newest usable snapshot
    help       Show this message.
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `obs` takes positional file arguments, which the `--key value`
    // grammar of Args rejects — dispatch it on the raw argv.
    if raw.first().map(String::as_str) == Some("obs") {
        return match obs_cmd::run(&raw[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_deref() {
        Some("plan") => cmd_plan(&args),
        Some("simulate") => cmd_simulate(&args),
        Some("fit") => cmd_fit(&args),
        Some("farm") => cmd_farm(&args),
        Some("chaos") => cmd_chaos(&args),
        Some("saves") => cmd_saves(&args),
        Some("exp") => cmd_exp(&args),
        Some("help") | None => {
            println!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{HELP}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds a life function from `--family` + parameter flags. The grammar,
/// defaults and error messages live in [`cs_scenarios::LifeSpec`] now; this
/// wrapper just feeds it the argument table.
fn parse_life(args: &Args) -> Result<cs_life::ArcLife, String> {
    LifeSpec::from_lookup(|key| args.get(key))?.build()
}

/// Rejects unknown options, allowing the life-spec options plus `extra`.
fn check_known_with_life(args: &Args, extra: &[&str]) -> Result<(), String> {
    let mut allowed: Vec<&str> = LIFE_OPTS.to_vec();
    allowed.extend_from_slice(extra);
    args.check_known(&allowed)
}

/// Renders an optional 95% CI half-width ([`cs_sim::Summary::ci95`]):
/// `"n/a"` when fewer than two samples make the CI undefined, so a
/// single-trial run prints `± n/a` instead of `± NaN`.
fn ci_display(ci: Option<f64>) -> String {
    match ci {
        Some(half) => format!("{half:.4}"),
        None => "n/a".to_string(),
    }
}

/// The `model agrees` verdict. With fewer than two samples the standard
/// error is NaN and every comparison is false, so the old code reported a
/// spurious `NO`; that case now reports its own line.
fn agreement_verdict(mean: f64, expected: f64, std_error: f64, n: u64) -> &'static str {
    if n < 2 {
        "insufficient samples (need >= 2 episodes)"
    } else if (mean - expected).abs() <= 3.0 * std_error + 1e-9 {
        "yes (within 3 s.e.)"
    } else {
        "NO"
    }
}

/// Parses the `--progress-every <seconds>` heartbeat cadence (`0` = every
/// event; `None` = heartbeats off).
fn progress_every_from_args(args: &Args) -> Result<Option<f64>, String> {
    match args.get("progress-every") {
        None => Ok(None),
        Some(_) => {
            let every = args.f64_or("progress-every", 0.0)?;
            if !every.is_finite() || every < 0.0 {
                return Err(
                    "--progress-every: cadence must be a finite non-negative number of seconds"
                        .into(),
                );
            }
            Ok(Some(every))
        }
    }
}

/// The JSONL / metrics / heartbeat sinks behind `--trace-out`,
/// `--metrics` and `--progress-every`.
struct TraceOutputs {
    jsonl: Option<(String, JsonlSink)>,
    metrics: Option<MetricsSink>,
    progress: Option<ProgressSink<std::io::Stderr>>,
}

impl TraceOutputs {
    fn from_args(args: &Args) -> Result<Self, String> {
        let progress_every = progress_every_from_args(args)?;
        let jsonl = match args.get("trace-out") {
            Some(path) => {
                let mut sink =
                    JsonlSink::create(path).map_err(|e| format!("--trace-out {path}: {e}"))?;
                if progress_every.is_some() {
                    // A heartbeating run is being watched live: switch the
                    // trace to line-buffered writes so `tail -f` sees
                    // events as they happen instead of 4096-line batches.
                    sink = sink.flush_every(1);
                }
                Some((path.to_string(), sink))
            }
            None => None,
        };
        let metrics = args.flag("metrics").then(MetricsSink::new);
        let progress = progress_every.map(|every| ProgressSink::new(std::io::stderr(), every));
        Ok(Self {
            jsonl,
            metrics,
            progress,
        })
    }

    /// A tee over whichever sinks were requested (empty tee = no-op).
    fn tee(&mut self) -> TeeSink<'_> {
        let mut tee = TeeSink::new();
        if let Some((_, sink)) = self.jsonl.as_mut() {
            tee.push(sink);
        }
        if let Some(sink) = self.metrics.as_mut() {
            tee.push(sink);
        }
        if let Some(sink) = self.progress.as_mut() {
            tee.push(sink);
        }
        tee
    }

    /// Closes the JSONL file (surfacing deferred I/O errors), prints the
    /// metrics registry, and emits a closing heartbeat.
    fn finish(self) -> Result<(), String> {
        if let Some((path, sink)) = self.jsonl {
            let lines = sink
                .finish()
                .map_err(|e| format!("--trace-out {path}: {e}"))?;
            println!("trace written : {lines} events -> {path}");
        }
        if let Some(metrics) = self.metrics {
            print!("{}", metrics.registry.render());
        }
        if let Some(mut progress) = self.progress {
            // The final totals, so even a sub-cadence run reports once.
            progress.emit_heartbeat();
        }
        Ok(())
    }
}

/// The span profiler behind `--profile` (inert when the flag is absent).
fn profiler_from_args(args: &Args) -> SpanProfiler {
    if args.flag("profile") {
        SpanProfiler::new()
    } else {
        SpanProfiler::disabled()
    }
}

/// Prints the `--profile` span registry (no-op for a disabled profiler).
fn print_profile(mut prof: SpanProfiler) {
    if prof.is_enabled() {
        print!(
            "-- span profile (wall clock) --\n{}",
            prof.take_registry().render()
        );
    }
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    check_known_with_life(args, &["c", "oracle"])?;
    let life = parse_life(args)?;
    let c: f64 = args.require_f64("c")?;
    let plan = search::best_guideline_schedule(&life, c).map_err(|e| e.to_string())?;
    println!("life function : {}", life.describe());
    println!("overhead c    : {c}");
    println!(
        "t0 bracket    : [{:.4}, {:.4}]  ({})",
        plan.bracket.lower,
        plan.bracket.upper,
        if plan.bracket.upper_from_shape {
            "Thm 3.2 / Thm 3.3"
        } else {
            "Thm 3.2 / horizon"
        }
    );
    println!("chosen t0     : {:.4}", plan.t0);
    println!("schedule      : {}", plan.schedule);
    println!("periods       : {}", plan.schedule.len());
    println!("expected work : {:.4}", plan.expected_work);
    if args.flag("oracle") {
        let oracle = dp::solve_auto(&life, c, 4000).map_err(|e| e.to_string())?;
        println!(
            "dp oracle     : E = {:.4} (guideline efficiency {})",
            oracle.expected_work,
            pct(plan.expected_work / oracle.expected_work.max(1e-300))
        );
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    check_known_with_life(
        args,
        &[
            "c",
            "trials",
            "threads",
            "seed",
            "trace-out",
            "metrics",
            "profile",
            "progress-every",
        ],
    )?;
    let life = parse_life(args)?;
    let c: f64 = args.require_f64("c")?;
    let trials = args.u64_or("trials", 100_000)?;
    if trials == 0 {
        return Err("--trials: need at least 1 trial".into());
    }
    let threads = threads_from_args(args)?;
    let seed = args.u64_or("seed", 42)?;
    let plan = search::best_guideline_schedule(&life, c).map_err(|e| e.to_string())?;
    let mut trace = TraceOutputs::from_args(args)?;
    let mut prof = profiler_from_args(args);
    let mc = cs_sim::simulate(
        &plan.schedule,
        &life,
        c,
        trials,
        seed,
        threads,
        trace.tee(),
        &mut prof,
    );
    if let Some(pm) = &mc.pool {
        if let Some(metrics) = trace.metrics.as_mut() {
            pm.fold_into(&mut metrics.registry);
        }
    }
    println!("life function  : {}", life.describe());
    println!("schedule       : {}", plan.schedule);
    println!("analytic E     : {:.4}", plan.expected_work);
    println!(
        "simulated mean : {:.4} ± {} (95% CI, {} episodes, {} threads)",
        mc.work.mean(),
        ci_display(mc.work.ci95()),
        trials,
        threads
    );
    println!("interrupted    : {}", pct(mc.interrupted_fraction));
    println!("mean periods   : {:.2}", mc.mean_periods);
    if let Some(pm) = &mc.pool {
        println!(
            "worker pool    : {} threads, {} tasks run, {} steals ({} tasks stolen), \
             {} parks",
            pm.threads, pm.tasks, pm.steals, pm.stolen_tasks, pm.parks
        );
    }
    println!(
        "model agrees   : {}",
        agreement_verdict(
            mc.work.mean(),
            plan.expected_work,
            mc.work.std_error(),
            mc.work.count()
        )
    );
    print_profile(prof);
    trace.finish()
}

fn cmd_fit(args: &Args) -> Result<(), String> {
    args.check_known(&["input", "synthetic", "days", "seed", "c"])?;
    let samples: Vec<f64> = if let Some(path) = args.get("input") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("--input {path}: {e}"))?;
        let mut out = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            out.push(
                line.parse::<f64>()
                    .map_err(|_| format!("{path}:{}: not a number: {line:?}", lineno + 1))?,
            );
        }
        out
    } else if args.get("synthetic") == Some("diurnal") {
        let days = args.usize_or("days", 60)?;
        let seed = args.u64_or("seed", 1)?;
        let mut rng = StdRng::seed_from_u64(seed);
        DiurnalOwner::default()
            .absence_durations(days, &mut rng)
            .map_err(|e| e.to_string())?
    } else {
        return Err("fit needs --input <file> or --synthetic diurnal".into());
    };
    println!("{} absence durations", samples.len());
    let est = estimate_life(&samples, 24).map_err(|e| e.to_string())?;
    println!("empirical estimate: {}", est.describe());
    let mut table = Table::new(&["family", "KS distance", "description"]);
    let fits = fit_all(&samples).map_err(|e| e.to_string())?;
    for cand in &fits {
        table.row(&[cand.family.clone(), fmt(cand.ks, 4), cand.life.describe()]);
    }
    println!("{}", table.render());
    if let Some(c) = args.get("c") {
        let c: f64 = c.parse().map_err(|_| "--c: bad number".to_string())?;
        let plan = search::best_guideline_schedule(&est, c).map_err(|e| e.to_string())?;
        println!("guideline plan on the empirical estimate (c = {c}):");
        println!("  schedule      : {}", plan.schedule);
        println!("  expected work : {:.4}", plan.expected_work);
    }
    Ok(())
}

fn cmd_saves(args: &Args) -> Result<(), String> {
    args.check_known(&["work", "c", "lambda"])?;
    let w = args.f64_or("work", 100.0)?;
    let c: f64 = args.require_f64("c")?;
    let lambda: f64 = args.require_f64("lambda")?;
    let s_opt = cs_saves::optimal_interval(c, lambda).map_err(|e| e.to_string())?;
    let s_young = cs_saves::young_interval(c, lambda);
    let s_guide = cs_saves::guideline_interval(c, lambda).map_err(|e| e.to_string())?;
    let (n, makespan) = cs_saves::optimal_schedule(w, c, lambda).map_err(|e| e.to_string())?;
    println!("job work          : {w}");
    println!("save cost         : {c}");
    println!(
        "fault rate lambda : {lambda} (mean time between faults {:.2})",
        1.0 / lambda
    );
    println!("optimal interval  : {s_opt:.4}");
    println!("young sqrt(2c/l)  : {s_young:.4}");
    println!("cycle-steal guide : {s_guide:.4}");
    println!("optimal schedule  : {n} saves, expected makespan {makespan:.2}");
    println!(
        "no-checkpoint     : expected makespan {:.2}",
        cs_saves::uniform_makespan(w, 1, c, lambda).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// The farm-scenario options shared by `farm` and `obs replay` (a journal
/// header pins the scenario, so replaying or forking one needs the same
/// flags that produced it).
pub(crate) const FARM_SCENARIO_OPTS: &[&str] = &[
    "workstations",
    "tasks",
    "l",
    "c",
    "gap",
    "seed",
    "policy",
    "faults",
    "loss",
    "slowdown",
    "crash",
    "storms",
];

/// A fully built farm scenario plus the display facts the CLI prints.
pub(crate) struct FarmScenario {
    pub config: FarmConfig,
    pub bag: TaskBag,
    pub policy: PolicySpec,
    pub n_ws: usize,
    pub tasks: usize,
    pub l: f64,
    pub c: f64,
    pub gap: f64,
    pub injecting: bool,
}

/// Builds the farm scenario from [`FARM_SCENARIO_OPTS`] flags — identical
/// defaults and error messages wherever the scenario grammar appears.
pub(crate) fn farm_scenario_from_args(args: &Args) -> Result<FarmScenario, String> {
    let n_ws = args.usize_or("workstations", 4)?;
    let tasks = args.usize_or("tasks", 1000)?;
    let l = args.f64_or("l", 150.0)?;
    let c = args.f64_or("c", 2.0)?;
    let gap = args.f64_or("gap", 10.0)?;
    let seed = args.u64_or("seed", 7)?;
    let mut faults = FaultPlan::scaled(args.f64_or("faults", 0.0)?);
    if let Some(p) = args.get("loss") {
        faults.loss_prob = p.parse().map_err(|_| "--loss: bad number".to_string())?;
    }
    if let Some(f) = args.get("slowdown") {
        faults.slowdown = f
            .parse()
            .map_err(|_| "--slowdown: bad number".to_string())?;
    }
    if let Some(r) = args.get("crash") {
        faults.crash_rate = r.parse().map_err(|_| "--crash: bad number".to_string())?;
    }
    let storms: Vec<f64> = match args.get("storms") {
        None => Vec::new(),
        Some(list) => {
            // Storms only matter if something is susceptible to them.
            if faults.storm_hit_prob == 0.0 {
                faults.storm_hit_prob = 1.0;
            }
            list.split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .map_err(|_| format!("--storms: bad time {t:?}"))
                })
                .collect::<Result<_, _>>()?
        }
    };
    // Surface the typed per-field diagnosis now, before the plan is cloned
    // into every workstation and re-validated behind FarmConfigError.
    faults
        .validate()
        .map_err(|e| format!("invalid fault plan: {e}"))?;
    let policy = PolicySpec::parse(args.get("policy").unwrap_or("guideline")).map_err(
        // Reconstruct the exact option-prefixed messages this command has
        // always printed.
        |e| match e {
            PolicyParseError::Unknown(_) => format!("--policy: {e}"),
            PolicyParseError::BadNumber(t) => format!("--policy fixed: bad number {t:?}"),
        },
    )?;
    let life: cs_life::ArcLife =
        std::sync::Arc::new(cs_life::Uniform::new(l).map_err(|e| e.to_string())?);
    let workstations = (0..n_ws)
        .map(|_| WorkstationConfig {
            life: life.clone(),
            believed: life.clone(),
            c,
            policy,
            gap_mean: gap,
            faults: faults.clone(),
        })
        .collect();
    let bag = workloads::uniform(tasks, 1.0).map_err(|e| e.to_string())?;
    let mut config = FarmConfig::new(workstations, 1e7, seed);
    config.storms = storms;
    config.validate().map_err(|e| e.to_string())?;
    let injecting = !faults.is_zero() || !config.storms.is_empty();
    Ok(FarmScenario {
        config,
        bag,
        policy,
        n_ws,
        tasks,
        l,
        c,
        gap,
        injecting,
    })
}

fn cmd_farm(args: &Args) -> Result<(), String> {
    let mut allowed: Vec<&str> = FARM_SCENARIO_OPTS.to_vec();
    allowed.extend_from_slice(&[
        "trace-out",
        "metrics",
        "profile",
        "progress-every",
        "journal",
        "resume",
        "kill-after",
        "snapshot-every",
        "snapshot-ring",
        "journal-gc",
        "on-io-error",
    ]);
    args.check_known(&allowed)?;
    let journal = args.get("journal").map(String::from);
    let resume = args.get("resume").map(String::from);
    if journal.is_some() && resume.is_some() {
        return Err("--journal and --resume are mutually exclusive".into());
    }
    let kill_after = match args.get("kill-after") {
        None => None,
        Some(_) => Some(args.u64_or("kill-after", 0)?),
    };
    let snapshot_every = match args.get("snapshot-every") {
        None => None,
        Some(_) => {
            let dt = args.f64_or("snapshot-every", 0.0)?;
            if !dt.is_finite() || dt <= 0.0 {
                return Err("--snapshot-every: cadence must be a finite positive time".into());
            }
            Some(dt)
        }
    };
    let snapshot_ring = match args.get("snapshot-ring") {
        None => 1u32,
        Some(_) => {
            let n = args.u64_or("snapshot-ring", 1)?;
            if !(1..=u64::from(MAX_SNAPSHOT_RING)).contains(&n) {
                return Err(format!(
                    "--snapshot-ring: ring size must be between 1 and {MAX_SNAPSHOT_RING}"
                ));
            }
            n as u32
        }
    };
    let journal_gc = args.flag("journal-gc");
    if journal_gc && snapshot_ring < 2 {
        return Err(
            "--journal-gc needs --snapshot-ring >= 2 (pruning the journal prefix is only \
             safe with at least one older generation retained)"
                .into(),
        );
    }
    let on_io_error = match args.get("on-io-error") {
        None | Some("fail-stop") => IoErrorPolicy::FailStop,
        Some("degrade") => IoErrorPolicy::Degrade,
        Some(other) => {
            return Err(format!(
                "--on-io-error: unknown policy {other:?} (expected fail-stop or degrade)"
            ))
        }
    };
    if journal.is_some() || resume.is_some() {
        // Journaled runs must replay deterministically on resume; the span
        // profiler stamps wall-clock events and the tee sinks would observe
        // a second, unjournaled copy of the stream.
        for opt in ["trace-out", "metrics", "profile"] {
            if args.get(opt).is_some() {
                return Err(format!(
                    "--{opt} cannot be combined with --journal/--resume \
                     (the journal itself is the trace; replay must be \
                     deterministic)"
                ));
            }
        }
    } else if kill_after.is_some() {
        return Err("--kill-after needs --journal or --resume".into());
    } else if snapshot_every.is_some() {
        return Err("--snapshot-every needs --journal or --resume".into());
    } else if args.get("snapshot-ring").is_some() {
        return Err("--snapshot-ring needs --journal or --resume".into());
    } else if journal_gc {
        return Err("--journal-gc needs --journal or --resume".into());
    } else if args.get("on-io-error").is_some() {
        return Err("--on-io-error needs --journal or --resume".into());
    }
    // The scenario (task bag included) is built under its own root span,
    // before the trace opens, so its event goes nowhere: the trace starts
    // at `run_start`.
    let mut prof = profiler_from_args(args);
    let scenario_span = prof.start("farm.scenario", &mut NoopSink);
    let FarmScenario {
        config,
        bag,
        policy,
        n_ws,
        tasks,
        l,
        c,
        gap,
        injecting,
    } = farm_scenario_from_args(args)?;
    prof.end(scenario_span, &mut NoopSink);
    let progress_every = progress_every_from_args(args)?;
    let mut trace = TraceOutputs::from_args(args)?;
    if journal.is_some() || resume.is_some() {
        // Durable runs heartbeat from inside the journal driver (the tee
        // never sees their events); drop the CLI-side sink so it cannot
        // emit a misleading all-zero closing line.
        trace.progress = None;
    }
    // `durable_lines` carries the journal/recovery stats printed after the
    // standard report (empty for plain runs).
    let mut durable_lines: Vec<String> = Vec::new();
    // The §4.2 cadence, overridden by the durability flags.
    let durable_opts = |config: &FarmConfig| {
        let guideline = JournalOptions::guideline(config);
        JournalOptions {
            kill_after,
            snapshot_every: snapshot_every.or(guideline.snapshot_every),
            progress_every,
            snapshot_ring,
            gc: journal_gc,
            on_io_error,
            ..guideline
        }
    };
    let report = if let Some(path) = resume {
        let opts = durable_opts(&config);
        let (report, info) =
            Farm::resume(config, bag, &path, opts, &StdVfs).map_err(|e| e.to_string())?;
        let mut summary = RunSummary::new("farm_resume")
            .int("records_replayed", info.records_replayed)
            .int("records_appended", info.records_appended)
            .int("segment_base", info.segment_base)
            .flag("degraded", info.degraded);
        match info.snapshot {
            SnapshotOutcome::Used { records_skipped } => {
                let sidecar = match info.generation {
                    Some(g) => format!("{path}.snap.{g} (generation {g})"),
                    None => format!("{path}.snap"),
                };
                durable_lines.push(format!(
                    "snapshot      : restored {sidecar}, {records_skipped} records skipped"
                ));
                summary = summary
                    .text("snapshot", "used")
                    .int("records_skipped", records_skipped);
                if let Some(g) = info.generation {
                    summary = summary.int("generation", u64::from(g));
                }
            }
            SnapshotOutcome::Fallback(kind) => {
                eprintln!(
                    "warning: snapshot {path}.snap unusable ({kind}); \
                     falling back to full redo replay"
                );
                summary = summary.text("snapshot", &format!("fallback:{kind}"));
            }
            SnapshotOutcome::None => {
                summary = summary.text("snapshot", "none");
            }
        }
        if info.segment_base > 0 {
            durable_lines.push(format!(
                "journal gc    : {} records pruned before the journal's first surviving line",
                info.segment_base
            ));
        }
        durable_lines.push(format!(
            "resumed       : {} records replayed, {} appended -> {path}",
            info.records_replayed, info.records_appended
        ));
        if info.torn_bytes_discarded > 0 {
            durable_lines.push(format!(
                "torn tail     : {} bytes of a half-written record discarded",
                info.torn_bytes_discarded
            ));
        }
        if info.degraded {
            durable_lines.push(
                "degraded      : journal I/O failed mid-run; results completed in-memory only"
                    .to_string(),
            );
        }
        durable_lines.push(format!("RUN-SUMMARY {}", summary.to_json()));
        report
    } else if let Some(path) = journal {
        let opts = durable_opts(&config);
        let cadence = match opts.fsync {
            cs_obs::FsyncPolicy::EveryRecord => "every record".to_string(),
            cs_obs::FsyncPolicy::Interval(dt) => format!("cadence {dt:.2} virtual time"),
        };
        let snap_line = match opts.snapshot_every {
            Some(dt) if snapshot_ring > 1 => format!(
                "snapshots     : every {dt:.2} virtual time -> {path}.snap.0..{} \
                 ({snapshot_ring}-generation ring{})",
                snapshot_ring - 1,
                if journal_gc { ", journal gc" } else { "" }
            ),
            Some(dt) => format!("snapshots     : every {dt:.2} virtual time -> {path}.snap"),
            None => "snapshots     : disabled (fsync-every-record farms)".to_string(),
        };
        let (report, stats) = Farm::new(config, bag)
            .map_err(|e| e.to_string())?
            .run_journaled(&path, opts, &StdVfs)
            .map_err(|e| e.to_string())?;
        durable_lines.push(format!(
            "journal       : {} records, {} fsyncs ({cadence}) -> {path}",
            stats.records, stats.syncs
        ));
        durable_lines.push(snap_line);
        if stats.gc_truncated_records > 0 {
            durable_lines.push(format!(
                "journal gc    : {} records / {} bytes pruned from the journal prefix",
                stats.gc_truncated_records, stats.gc_truncated_bytes
            ));
        }
        if stats.degraded {
            durable_lines.push(
                "degraded      : journal I/O failed mid-run; results completed in-memory only"
                    .to_string(),
            );
        }
        let summary = RunSummary::new("farm_journal")
            .int("records", stats.records)
            .int("syncs", stats.syncs)
            .int("snapshots_written", stats.snapshots_written)
            .int("snapshot_bytes", stats.snapshot_bytes)
            .int("ring", u64::from(snapshot_ring))
            .int("gc_truncated_records", stats.gc_truncated_records)
            .int("gc_truncated_bytes", stats.gc_truncated_bytes)
            .flag("degraded", stats.degraded);
        durable_lines.push(format!("RUN-SUMMARY {}", summary.to_json()));
        report
    } else {
        let mut tee = trace.tee();
        Farm::new(config, bag)
            .map_err(|e| e.to_string())?
            .run(&mut tee, &mut prof)
    };
    println!("policy        : {}", policy.label());
    println!("workstations  : {n_ws} (uniform L = {l}, c = {c}, gap mean = {gap})");
    println!("tasks         : {tasks}");
    println!("drained       : {}", report.drained);
    println!("makespan      : {:.2}", report.makespan);
    println!("banked work   : {:.1}", report.completed_work);
    println!("lost work     : {:.1}", report.lost_work);
    if injecting {
        let rb = &report.robustness;
        println!(
            "faults        : {} lost msgs, {} stragglers, {} crashes, {} storm kills",
            rb.messages_lost, rb.straggled_chunks, rb.crashes, rb.storm_kills
        );
        println!(
            "resilience    : {} lease timeouts, {} backoffs, {} quarantines, \
             {} replicas, {:.1} duplicate work discarded",
            rb.lease_timeouts,
            rb.backoff_delays,
            rb.quarantines,
            rb.replicas_dispatched,
            rb.duplicate_work
        );
    }
    let mut table = Table::new(&["ws", "banked", "lost", "chunks", "killed", "episodes"]);
    for (i, w) in report.per_workstation.iter().enumerate() {
        table.row(&[
            i.to_string(),
            fmt(w.completed_work, 1),
            fmt(w.lost_work, 1),
            w.chunks_completed.to_string(),
            w.chunks_lost.to_string(),
            w.episodes.to_string(),
        ]);
    }
    println!("{}", table.render());
    for line in &durable_lines {
        println!("{line}");
    }
    print_profile(prof);
    trace.finish()
}

fn cmd_chaos(args: &Args) -> Result<(), String> {
    args.check_known(&[
        "workstations",
        "tasks",
        "seed",
        "faults",
        "sample",
        "quick",
        "snapshot-every",
        "threads",
        "progress-every",
        "disk-faults",
    ])?;
    let quick = args.flag("quick");
    let snapshot_every = args.f64_or("snapshot-every", 10.0)?;
    if !snapshot_every.is_finite() || snapshot_every <= 0.0 {
        return Err("--snapshot-every: cadence must be a finite positive time".into());
    }
    let cfg = cs_bench::chaos::ChaosConfig {
        workstations: args.usize_or("workstations", if quick { 2 } else { 4 })?,
        tasks: args.usize_or("tasks", if quick { 60 } else { 200 })?,
        seed: args.u64_or("seed", 4242)?,
        intensity: args.f64_or("faults", 0.6)?,
        sample: match args.get("sample") {
            Some(_) => Some(args.usize_or("sample", 0)?),
            None if quick => Some(16),
            None => None,
        },
        snapshot_every,
        threads: threads_from_args(args)?,
        progress_every: progress_every_from_args(args)?,
        disk_faults: args.flag("disk-faults"),
    };
    let out = cs_bench::chaos::run_chaos(&cfg)?;
    println!(
        "farm          : {} workstations, {} tasks, seed {}, fault intensity {}",
        cfg.workstations, cfg.tasks, cfg.seed, cfg.intensity
    );
    if cfg.threads > 1 {
        println!(
            "threads       : {} (kill/resume trials on the work-stealing pool; \
             outcome identical to serial)",
            cfg.threads
        );
    }
    println!(
        "journal       : {} records in the uninterrupted reference",
        out.records
    );
    println!(
        "kill points   : {} exercised ({} with a torn half-record, \
         {} with a corrupted snapshot sidecar)",
        out.kill_points, out.torn_trials, out.corrupt_trials
    );
    println!(
        "snapshots     : {} fast-path resumes, {} graceful fallbacks to full redo",
        out.snapshot_resumes, out.snapshot_fallbacks
    );
    if cfg.disk_faults {
        let kinds: Vec<String> = out
            .fault_kinds_fired
            .iter()
            .map(|k| k.to_string())
            .collect();
        println!(
            "disk faults   : {} faulted resumes; fired kinds: {}",
            out.disk_fault_trials,
            if kinds.is_empty() {
                "none".to_string()
            } else {
                kinds.join(", ")
            }
        );
        println!(
            "io policies   : {} degraded completions (bitwise, in-memory), \
             {} fail-stop errors (typed, recovered bitwise)",
            out.degraded_completions, out.fail_stop_errors
        );
    }
    println!("exact resumes : {}", out.resumed_ok);
    for m in &out.mismatches {
        println!("MISMATCH: {m}");
    }
    if out.ok() {
        println!("PASS: every kill point recovered bitwise-identically");
        Ok(())
    } else {
        Err(format!(
            "{} mismatch(es) across {} kill points",
            out.mismatches.len(),
            out.kill_points
        ))
    }
}

/// `--threads` for pooled subcommands: the machine's available
/// parallelism by default (serial when it cannot be determined); 0 is
/// rejected rather than silently run serial.
fn threads_from_args(args: &Args) -> Result<usize, String> {
    let default = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match args.usize_or("threads", default)? {
        0 => Err("--threads: need at least 1 thread".into()),
        threads => Ok(threads),
    }
}

fn cmd_exp(args: &Args) -> Result<(), String> {
    args.check_known(&[
        "list",
        "id",
        "all",
        "quick",
        "trace-out",
        "input",
        "threads",
        "progress-every",
    ])?;
    let registry = cs_bench::experiments::all();
    if args.flag("list") {
        let mut table = Table::new(&["id", "paper", "title"]);
        for e in &registry {
            table.row(&[
                e.id().to_string(),
                e.paper().to_string(),
                e.title().to_string(),
            ]);
        }
        println!("{}", table.render());
        println!(
            "{} experiments; run one with `cyclesteal exp --id <id>`",
            registry.len()
        );
        return Ok(());
    }
    let opts = ExpOptions {
        quick: args.flag("quick"),
        trace_out: args.get("trace-out").map(String::from),
        input: args.get("input").map(String::from),
        progress_every: progress_every_from_args(args)?,
    };
    if args.flag("all") {
        let threads = threads_from_args(args)?;
        if opts.trace_out.is_some() {
            // A single trace file cannot carry interleaved event streams:
            // a traced sweep stays on the serial in-place path.
            let stdout = std::io::stdout();
            for exp in registry {
                println!("== {} [{}] {}", exp.id(), exp.paper(), exp.title());
                let mut out = stdout.lock();
                run_to_writer(exp, &opts, &mut out).map_err(|e| format!("{}: {e}", exp.id()))?;
            }
            return Ok(());
        }
        // Experiments render concurrently into per-experiment buffers that
        // are printed in registry order — bytes identical to serial for
        // any thread count.
        let (entries, pool) = cs_bench::harness::run_all_buffered_metrics(&opts, threads);
        for (exp, result) in entries {
            // One header line per experiment; everything below it is the
            // experiment's own report, byte-identical to `exp --id`.
            println!("== {} [{}] {}", exp.id(), exp.paper(), exp.title());
            let buf = result.map_err(|e| format!("{}: {e}", exp.id()))?;
            use std::io::Write;
            std::io::stdout()
                .write_all(&buf)
                .map_err(|e| e.to_string())?;
        }
        if let Some(pm) = pool {
            // Worker-pool utilization for the sweep itself, greppable like
            // the per-experiment summaries — on stderr, because steal
            // counts are scheduling-dependent and stdout is promised
            // byte-identical to the serial sweep.
            cs_obs::RunSummary::new("exp_sweep_pool")
                .int("threads", pm.threads as u64)
                .int("tasks", pm.tasks)
                .int("steals", pm.steals)
                .int("stolen_tasks", pm.stolen_tasks)
                .int("parks", pm.parks)
                .emit_to(&mut std::io::stderr())
                .ok();
        }
        return Ok(());
    }
    let id = args
        .get("id")
        .ok_or("exp needs --list, --all or --id <experiment>")?;
    let exp = by_id(id).ok_or_else(|| {
        format!("unknown experiment {id:?}; `cyclesteal exp --list` shows the registry")
    })?;
    println!("== {} [{}] {}", exp.id(), exp.paper(), exp.title());
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    run_to_writer(exp, &opts, &mut out).map_err(|e| format!("{}: {e}", exp.id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ci_display_handles_undefined_ci() {
        // Regression: `simulate --trials 1` used to print `± NaN`.
        assert_eq!(ci_display(None), "n/a");
        assert_eq!(ci_display(Some(0.25)), "0.2500");
        assert!(!ci_display(None).contains("NaN"));
    }

    #[test]
    fn agreement_verdict_needs_two_samples() {
        // Regression: with n = 1 the standard error is NaN, the `<=`
        // comparison is false, and the CLI claimed `model agrees : NO`.
        let v = agreement_verdict(5.0, 5.0, f64::NAN, 1);
        assert!(v.contains("insufficient samples"), "{v}");
        assert_eq!(agreement_verdict(5.0, 5.0, 0.1, 100), "yes (within 3 s.e.)");
        assert_eq!(agreement_verdict(5.0, 9.0, 0.1, 100), "NO");
    }

    fn farm_args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn farm_rejects_contradictory_durability_flags() {
        let err = cmd_farm(&farm_args("farm --journal a.jsonl --resume b.jsonl")).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        for opt in ["--trace-out t.jsonl", "--metrics", "--profile"] {
            let err = cmd_farm(&farm_args(&format!("farm --journal a.jsonl {opt}"))).unwrap_err();
            assert!(err.contains("--journal/--resume"), "{err}");
            let err = cmd_farm(&farm_args(&format!("farm --resume a.jsonl {opt}"))).unwrap_err();
            assert!(err.contains("--journal/--resume"), "{err}");
        }
        let err = cmd_farm(&farm_args("farm --kill-after 5")).unwrap_err();
        assert!(err.contains("needs --journal or --resume"), "{err}");
    }

    #[test]
    fn farm_validates_the_ring_and_io_policy_flags() {
        for opt in [
            "--snapshot-ring 3",
            "--snapshot-ring 2 --journal-gc",
            "--on-io-error degrade",
        ] {
            let err = cmd_farm(&farm_args(&format!("farm {opt}"))).unwrap_err();
            assert!(err.contains("needs --journal or --resume"), "{err}");
        }
        let err = cmd_farm(&farm_args("farm --journal a.jsonl --snapshot-ring 0")).unwrap_err();
        assert!(err.contains("between 1 and 64"), "{err}");
        let err = cmd_farm(&farm_args("farm --journal a.jsonl --snapshot-ring 65")).unwrap_err();
        assert!(err.contains("between 1 and 64"), "{err}");
        let err = cmd_farm(&farm_args("farm --journal a.jsonl --journal-gc")).unwrap_err();
        assert!(err.contains("--snapshot-ring >= 2"), "{err}");
        let err =
            cmd_farm(&farm_args("farm --journal a.jsonl --on-io-error sometimes")).unwrap_err();
        assert!(err.contains("expected fail-stop or degrade"), "{err}");
    }

    #[test]
    fn farm_surfaces_the_typed_fault_plan_error() {
        let err = cmd_farm(&farm_args("farm --loss 1.5")).unwrap_err();
        assert!(err.contains("invalid fault plan"), "{err}");
        assert!(err.contains("loss_prob"), "{err}");
        assert!(err.contains("1.5"), "{err}");
        let err = cmd_farm(&farm_args("farm --slowdown 0.5")).unwrap_err();
        assert!(err.contains("slowdown"), "{err}");
    }

    #[test]
    fn subcommand_allowlists_cover_documented_options() {
        // Every `--option` named in HELP must be accepted by its command's
        // allowlist (via check_known), so the typo guard can never reject a
        // documented flag.
        let probe = |opts: &[&str], extra: &[&str]| {
            let args = Args::parse(opts.iter().map(|o| format!("--{o}"))).unwrap();
            check_known_with_life(&args, extra)
        };
        probe(LIFE_OPTS, &[]).unwrap();
        probe(&["c", "oracle"], &["c", "oracle"]).unwrap();
        probe(
            &[
                "trials",
                "threads",
                "seed",
                "trace-out",
                "metrics",
                "progress-every",
            ],
            &[
                "c",
                "trials",
                "threads",
                "seed",
                "trace-out",
                "metrics",
                "progress-every",
            ],
        )
        .unwrap();
        assert!(probe(&["trails"], &["c", "trials", "threads", "seed"])
            .unwrap_err()
            .contains("did you mean --trials?"));
    }
}
