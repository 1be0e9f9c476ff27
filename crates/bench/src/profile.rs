//! The perf-baseline harness behind the `bench_profile` binary.
//!
//! Runs a pinned grid of scenarios — serial/parallel Monte-Carlo, a clean
//! and a faulty farm, crash-recovery latency at three journaled run
//! lengths (snapshot fast path vs full redo replay), and the trace
//! analyzer itself — under the span profiler, and renders the result as
//! `BENCH.json`: a machine-readable baseline
//! (`{commit, date, scenarios: [...]}`) that `cyclesteal obs diff --bench
//! old.json new.json` compares across commits, flagging only regressions
//! (wall time up, throughput down).
//!
//! `e2e_farm_durable` is the journaled, snapshotted and GC'd farm end to
//! end, the path the `farm_journaled` benchmark workload runs.
//!
//! The `recovery_snapshot_*` / `recovery_redo_*` pairs document the O(1)
//! recovery claim: snapshot-path resume cost stays flat as the run length
//! grows (it replays only the records after the last sidecar), while redo
//! resume cost scales with the whole journal.
//!
//! `kernels` times the analytic, simulator and farm kernels behind the
//! experiments, one span per kernel, so a speed claim about any of them
//! rests on a `BENCH.json` row too.
//!
//! Each scenario is one timed pass (the kernels a fixed number of
//! batches): coarse numbers, but cheap enough for CI and stable enough
//! for a >20% regression gate.

use cs_core::adaptive::AdaptiveScheduler;
use cs_core::competitive::{best_geometric, competitive_ratio, geometric_schedule};
use cs_core::existence::{cor_3_2_test, horizon_sweep};
use cs_core::greedy::{greedy_schedule, GreedyOptions};
use cs_core::optimal::{geometric_decreasing_optimal, geometric_increasing_optimal};
use cs_core::recurrence::{guideline_schedule, GuidelineOptions};
use cs_core::structure::{check_growth_law, check_strictly_decreasing};
use cs_core::{bounds, dp, perturb, search};
use cs_life::{ArcLife, GeometricDecreasing, GeometricIncreasing, LifeFunction};
use cs_life::{Pareto, Polynomial, Shape, Uniform};
use cs_now::farm::{Farm, FarmConfig, PolicySpec, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_now::replicate::replicate_farm;
use cs_now::{default_snapshot_path, JournalOptions, SnapshotOutcome};
use cs_now::{ring_snapshot_path, segment_meta_path};
use cs_obs::vfs::StdVfs;
use cs_obs::{check_text, Event, EventSink, MemorySink, MetricsRegistry, NoopSink, SpanProfiler};
use cs_sim::{run_episode, simulate};
use cs_tasks::quantization::fluid_vs_packed;
use cs_tasks::{workloads, TaskBag};
use cs_trace::{estimate::estimate_life, fit::fit_best, owner::sample_absences};
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Options for one baseline run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProfileOptions {
    /// Shrink workloads for a CI smoke pass (numbers are noisier; the
    /// JSON shape is identical).
    pub quick: bool,
}

/// Counts events without storing them (throughput denominator).
#[derive(Debug, Default)]
struct CountingSink {
    events: u64,
}

impl EventSink for CountingSink {
    fn emit(&mut self, _event: &Event) {
        self.events += 1;
    }
}

/// Per-span timing summary inside one scenario.
#[derive(Debug, Clone)]
pub struct SpanStat {
    /// Span name (`mc.trial_batch`, `farm.dispatch`, …).
    pub name: String,
    /// Spans recorded under this name.
    pub count: u64,
    /// Total nanoseconds across all spans of this name.
    pub total_ns: f64,
    /// Mean duration (ns).
    pub mean_ns: f64,
    /// Median duration (ns).
    pub p50_ns: f64,
    /// 99th-percentile duration (ns).
    pub p99_ns: f64,
}

/// One scenario's measured baseline numbers.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Stable scenario id (the diff key).
    pub id: &'static str,
    /// Wall-clock nanoseconds for the whole scenario.
    pub wall_ns: u64,
    /// Events emitted per second (`None` where no stream is produced).
    pub events_per_sec: Option<f64>,
    /// Monte-Carlo trials per second (`None` for non-MC scenarios).
    pub mc_trials_per_sec: Option<f64>,
    /// Wall-clock speedup over this scenario's 1-thread row (`None`
    /// outside the `mc_scaling_*` ladder).
    pub speedup: Option<f64>,
    /// Parallel efficiency: speedup divided by the thread count (`None`
    /// outside the `mc_scaling_*` ladder).
    pub efficiency: Option<f64>,
    /// Span timing summaries from the profiler registry.
    pub spans: Vec<SpanStat>,
}

fn span_stats(registry: &MetricsRegistry) -> Vec<SpanStat> {
    registry
        .histograms()
        .filter_map(|(name, h)| {
            let short = name.strip_prefix("span_ns.")?;
            Some(SpanStat {
                name: short.to_string(),
                count: h.count(),
                total_ns: h.sum(),
                mean_ns: h.mean().unwrap_or(0.0),
                p50_ns: h.quantile(0.5).unwrap_or(0.0),
                p99_ns: h.quantile(0.99).unwrap_or(0.0),
            })
        })
        .collect()
}

/// A row without the Monte-Carlo and scaling columns.
fn row(
    id: &'static str,
    wall_ns: u64,
    events_per_sec: Option<f64>,
    spans: Vec<SpanStat>,
) -> ScenarioResult {
    ScenarioResult {
        id,
        wall_ns,
        events_per_sec,
        mc_trials_per_sec: None,
        speedup: None,
        efficiency: None,
        spans,
    }
}

fn per_sec(n: u64, wall_ns: u64) -> Option<f64> {
    (wall_ns > 0).then(|| n as f64 * 1e9 / wall_ns as f64)
}

fn mc_scenario(
    id: &'static str,
    trials: u64,
    life: ArcLife,
    c: f64,
    threads: Option<usize>,
) -> Result<ScenarioResult, String> {
    let schedule = cs_core::search::best_guideline_schedule(&life, c)
        .map_err(|e| e.to_string())?
        .schedule;
    let mut sink = CountingSink::default();
    let mut prof = SpanProfiler::new();
    let start = Instant::now();
    let threads = threads.unwrap_or(1);
    let mc = simulate(
        &schedule, &life, c, trials, 42, threads, &mut sink, &mut prof,
    );
    let wall_ns = start.elapsed().as_nanos() as u64;
    // Parallel shards count their events instead of emitting them; fold
    // them into the denominator or the parallel scenario under-reports its
    // event throughput by ~the shard count × trials.
    let events = sink.events + mc.shard_events;
    Ok(ScenarioResult {
        mc_trials_per_sec: per_sec(trials, wall_ns),
        ..row(
            id,
            wall_ns,
            per_sec(events, wall_ns),
            span_stats(prof.registry()),
        )
    })
}

fn farm_scenario(
    id: &'static str,
    tasks: usize,
    faults: FaultPlan,
) -> Result<(ScenarioResult, Vec<String>), String> {
    let (config, bag) = uniform_farm(8, PolicySpec::Guideline, faults, tasks, 42)?;
    let farm = Farm::new(config, bag).map_err(|e| e.to_string())?;
    let mut sink = MemorySink::new();
    let mut prof = SpanProfiler::new();
    let start = Instant::now();
    farm.run(&mut sink, &mut prof);
    let wall_ns = start.elapsed().as_nanos() as u64;
    let lines: Vec<String> = sink.events.iter().map(Event::to_jsonl).collect();
    Ok((
        row(
            id,
            wall_ns,
            per_sec(lines.len() as u64, wall_ns),
            span_stats(prof.registry()),
        ),
        lines,
    ))
}

/// The farm the CLI's `farm` command builds: `workstations` identical
/// `policy` workstations (uniform life L = 150, c = 2, gap mean 10) under
/// `faults`, and `tasks` unit tasks.
fn uniform_farm(
    workstations: usize,
    policy: PolicySpec,
    faults: FaultPlan,
    tasks: usize,
    seed: u64,
) -> Result<(FarmConfig, TaskBag), String> {
    let life: ArcLife = Arc::new(Uniform::new(150.0).map_err(|e| e.to_string())?);
    let workstations = (0..workstations)
        .map(|_| WorkstationConfig {
            life: life.clone(),
            believed: life.clone(),
            c: 2.0,
            policy,
            gap_mean: 10.0,
            faults: faults.clone(),
        })
        .collect();
    let bag = workloads::uniform(tasks, 1.0).map_err(|e| e.to_string())?;
    Ok((FarmConfig::new(workstations, 1e7, seed), bag))
}

/// The recovery-latency farm: the `farm_faulty` shape at a configurable
/// run length, rebuilt per resume (resuming consumes the config).
fn recovery_farm(tasks: usize) -> Result<(FarmConfig, TaskBag), String> {
    uniform_farm(8, PolicySpec::Guideline, FaultPlan::scaled(0.5), tasks, 42)
}

/// Times one resume of a complete journal. With the journal already
/// complete there is nothing to append, so the wall clock is pure
/// recovery cost; `records_replayed` is the throughput denominator.
fn time_resume(
    id: &'static str,
    tasks: usize,
    path: &Path,
    expect_snapshot: bool,
) -> Result<ScenarioResult, String> {
    let (config, bag) = recovery_farm(tasks)?;
    let opts = JournalOptions {
        // Writing fresh sidecars during the timed replay would charge
        // snapshot *production* to recovery; measure restoration only.
        snapshot_every: None,
        ..JournalOptions::guideline(&config)
    };
    let start = Instant::now();
    let (_report, info) =
        Farm::resume(config, bag, path, opts, &StdVfs).map_err(|e| format!("{id}: {e}"))?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    let outcome_ok = match info.snapshot {
        SnapshotOutcome::Used { .. } => expect_snapshot,
        SnapshotOutcome::None => !expect_snapshot,
        SnapshotOutcome::Fallback(_) => false,
    };
    if !outcome_ok {
        return Err(format!(
            "{id}: unexpected snapshot outcome {:?} (expected {})",
            info.snapshot,
            if expect_snapshot { "fast path" } else { "redo" }
        ));
    }
    Ok(row(
        id,
        wall_ns,
        per_sec(info.records_replayed, wall_ns),
        Vec::new(),
    ))
}

/// One recovery-latency pair at a given run length: journal a reference
/// run with guideline-cadence snapshots, then time resuming the complete
/// journal through the sidecar fast path and through full redo replay.
fn recovery_pair(
    id_snapshot: &'static str,
    id_redo: &'static str,
    tasks: usize,
) -> Result<(ScenarioResult, ScenarioResult), String> {
    let path = std::env::temp_dir().join(format!(
        "cs_bench_recovery_{tasks}_{}.jsonl",
        std::process::id()
    ));
    let snap = default_snapshot_path(&path);
    let (config, bag) = recovery_farm(tasks)?;
    let opts = JournalOptions::guideline(&config);
    Farm::new(config, bag)
        .map_err(|e| e.to_string())?
        .run_journaled(&path, opts, &StdVfs)
        .map_err(|e| format!("{id_snapshot}: reference journaled run: {e}"))?;
    std::fs::metadata(&snap)
        .map_err(|e| format!("{id_snapshot}: reference run left no sidecar: {e}"))?;
    let fast = time_resume(id_snapshot, tasks, &path, true);
    // Redo: same journal, sidecar deleted.
    std::fs::remove_file(&snap).ok();
    let redo = time_resume(id_redo, tasks, &path, false);
    std::fs::remove_file(&path).ok();
    Ok((fast?, redo?))
}

/// Times resuming a ring-snapshotted, GC-truncated journal (the
/// bounded-disk durability row): the reference run keeps three snapshot
/// generations and prunes the journal prefix the oldest one covers, so
/// recovery restores the newest generation and replays only the
/// surviving segment tail. Wall time should track `recovery_snapshot_*`
/// — the ring walk and segment stitching must not make bounded-disk
/// recovery meaningfully slower than single-sidecar recovery.
fn ring_scenario(tasks: usize) -> Result<ScenarioResult, String> {
    let id = "recovery_ring";
    let path = std::env::temp_dir().join(format!(
        "cs_bench_ring_{tasks}_{}.jsonl",
        std::process::id()
    ));
    let (config, bag) = recovery_farm(tasks)?;
    let opts = JournalOptions {
        snapshot_ring: 3,
        gc: true,
        ..JournalOptions::guideline(&config)
    };
    let (_report, stats) = Farm::new(config, bag)
        .map_err(|e| e.to_string())?
        .run_journaled(&path, opts, &StdVfs)
        .map_err(|e| format!("{id}: reference journaled run: {e}"))?;
    if stats.gc_truncated_records == 0 {
        return Err(format!(
            "{id}: reference run never GC'd the journal ({} snapshots written)",
            stats.snapshots_written
        ));
    }
    let (config, bag) = recovery_farm(tasks)?;
    let resume_opts = JournalOptions {
        snapshot_every: None,
        snapshot_ring: 3,
        ..JournalOptions::guideline(&config)
    };
    let start = Instant::now();
    let (_report, info) =
        Farm::resume(config, bag, &path, resume_opts, &StdVfs).map_err(|e| format!("{id}: {e}"))?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(segment_meta_path(&path)).ok();
    for g in 0..3 {
        std::fs::remove_file(ring_snapshot_path(&path, g)).ok();
    }
    if !matches!(info.snapshot, SnapshotOutcome::Used { .. }) || info.segment_base == 0 {
        return Err(format!(
            "{id}: expected a generation restore over a GC'd segment, got {:?} \
             (segment base {})",
            info.snapshot, info.segment_base
        ));
    }
    Ok(row(
        id,
        wall_ns,
        per_sec(info.records_replayed, wall_ns),
        Vec::new(),
    ))
}

/// The end-to-end durable farm (`e2e_farm_durable`): the straggler farm
/// users run with `farm --workstations 16 --loss 0.05 --slowdown 2`, at
/// 5000 tasks, journaled in a temp dir with guideline-cadence fsyncs and
/// snapshots, a three-generation ring and journal GC. Throughput is
/// journal records per wall second, so it covers event serialization,
/// journal writes, `fsync`, snapshot encoding and ring/GC renames.
fn durable_scenario() -> Result<ScenarioResult, String> {
    let id = "e2e_farm_durable";
    let faults = FaultPlan {
        loss_prob: 0.05,
        slowdown: 2.0,
        ..FaultPlan::none()
    };
    let (config, bag) = uniform_farm(16, PolicySpec::Guideline, faults, 5_000, 1)?;
    let opts = JournalOptions {
        snapshot_ring: 3,
        gc: true,
        ..JournalOptions::guideline(&config)
    };
    let dir = std::env::temp_dir().join(format!("cs_bench_durable_{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{id}: {e}"))?;
    let farm = Farm::new(config, bag).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let run = farm.run_journaled(dir.join("j.jsonl"), opts, &StdVfs);
    let wall_ns = start.elapsed().as_nanos() as u64;
    std::fs::remove_dir_all(&dir).ok();
    let (_report, stats) = run.map_err(|e| format!("{id}: {e}"))?;
    if stats.gc_truncated_records == 0 || stats.degraded {
        return Err(format!(
            "{id}: expected a GC'd, non-degraded run: {stats:?}"
        ));
    }
    Ok(row(
        id,
        wall_ns,
        per_sec(stats.records, wall_ns),
        Vec::new(),
    ))
}

/// Times [`check_text`] over a recorded trace (the analyzer is itself a
/// perf surface: `obs check` gates CI).
fn analyzer_scenario(lines: &[String]) -> ScenarioResult {
    let text = lines.join("\n");
    let start = Instant::now();
    let summary = check_text(&text, true);
    let wall_ns = start.elapsed().as_nanos() as u64;
    row(
        "analyzer_check",
        wall_ns,
        per_sec(summary.lines as u64, wall_ns),
        Vec::new(),
    )
}

/// Times decoding the same faulty farm trace and folding it with
/// [`cs_obs::analyze_lineage`]: the lineage reconstruction behind
/// `obs path` / `obs chunks` walks every event and runs the critical-path
/// extraction, so it gets its own throughput row next to the checker's.
fn lineage_scenario(lines: &[String]) -> Result<ScenarioResult, String> {
    let start = Instant::now();
    let analysis = cs_obs::decode_lines(lines.iter().map(String::as_str))
        .and_then(|events| cs_obs::analyze_lineage(&events))
        .map_err(|e| format!("analyze_lineage: {e}"))?;
    let wall_ns = start.elapsed().as_nanos() as u64;
    if analysis.chunks.is_empty() {
        return Err("analyze_lineage: faulty trace reconstructed no chunks".into());
    }
    Ok(row(
        "analyze_lineage",
        wall_ns,
        per_sec(lines.len() as u64, wall_ns),
        Vec::new(),
    ))
}

/// One call of a timed kernel; [`kernel`] passes its result through
/// [`black_box`] so the optimizer cannot drop the work.
type Kernel<'a> = Box<dyn FnMut() + 'a>;

fn kernel<'a, T>(mut f: impl FnMut() -> T + 'a) -> Kernel<'a> {
    Box::new(move || {
        black_box(f());
    })
}

/// The `kernels` row: each kernel runs `batches` batches of `calls`
/// calls, and the per-call nanoseconds of every batch land in the span
/// `<name>`. The inputs are pinned, so an `unwrap` failing here is a bug
/// in the kernel. Kernels that drain a task bag or run a farm build it
/// inside the call, and their spans include that setup.
fn kernels_scenario(batches: usize) -> ScenarioResult {
    let pareto = Pareto::new(2.0).unwrap();
    let geo_dec = GeometricDecreasing::new(2.0).unwrap();
    let geo_inc = GeometricIncreasing::new(64.0).unwrap();
    let poly4 = Polynomial::new(4, 10_000.0).unwrap();
    let wide = Uniform::new(100_000.0).unwrap();
    let wide_t0 = (2.0f64 * 5.0 * 100_000.0).sqrt();
    let plan = |p: &dyn LifeFunction, c| search::best_guideline_schedule(p, c).unwrap();
    let u1000 = Uniform::new(1_000.0).unwrap();
    let u_plan = plan(&u1000, 5.0).schedule;
    let poly2 = Polynomial::new(2, 1_000.0).unwrap();
    let p_plan = plan(&poly2, 5.0).schedule;
    let greedy_50 = GreedyOptions {
        max_periods: 50,
        min_gain: 1e-12,
    };
    let u400: ArcLife = Arc::new(Uniform::new(400.0).unwrap());
    let adaptive = AdaptiveScheduler::new(u400.clone(), 4.0).unwrap();
    let geometric = geometric_schedule(5.0, 1.05, 1000.0).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let absences = sample_absences(&Uniform::new(50.0).unwrap(), 10_000, &mut rng).unwrap();
    let (fixed, guideline) = (PolicySpec::FixedSize(15.0), PolicySpec::Guideline);
    // `n` workstations over `tasks` unit tasks; a faulty farm also gets
    // five reclaim storms.
    let farm = |n, policy, intensity: f64, tasks| {
        let faults = FaultPlan::scaled(intensity);
        let (mut config, bag) = uniform_farm(n, policy, faults, tasks, 7).unwrap();
        if intensity > 0.0 {
            config.storms = (1..=5).map(|k| 300.0 * k as f64).collect();
        }
        Farm::new(config, bag).unwrap()
    };
    let untraced = |farm: Farm| farm.run(&mut NoopSink, &mut SpanProfiler::disabled());
    let traced = |farm: Farm| farm.run(&mut MemorySink::new(), &mut SpanProfiler::disabled());
    let (template, _) = uniform_farm(4, fixed, FaultPlan::none(), 0, 1).unwrap();
    let bag_400 = || workloads::uniform(400, 1.0).unwrap();
    let drain = |mut bag: TaskBag| {
        while !bag.is_drained() {
            let chunk = bag.check_out(black_box(64.0));
            bag.complete(chunk);
        }
    };
    let (guide_opts, greedy_opts) = (GuidelineOptions::default(), GreedyOptions::default());
    let horizons = [20.0, 40.0, 80.0];
    // `calls` keeps each batch near a millisecond on a 2-vCPU x86-64 host.
    #[rustfmt::skip]
    let mut table: Vec<(&str, u32, Kernel)> = vec![
        ("cor_3_2_test", 30, kernel(|| cor_3_2_test(black_box(&pareto), 1.0).unwrap())),
        ("horizon_sweep", 1, kernel(|| horizon_sweep(&geo_dec, 1.0, &horizons, 800).unwrap())),
        ("dp_solve", 1, kernel(|| dp::solve(&pareto, 1.0, 100.0, 2_000).unwrap())),
        ("t0_bracket", 200, kernel(|| bounds::t0_bracket(black_box(&poly4), 5.0).unwrap())),
        ("guideline_schedule", 20, kernel(|| {
            guideline_schedule(&wide, 5.0, wide_t0, &guide_opts).unwrap()
        })),
        ("guideline_search.uniform", 1, kernel(|| plan(&u1000, 5.0))),
        ("guideline_search.geo_dec", 3, kernel(|| plan(&geo_dec, 1.0))),
        ("guideline_search.geo_inc", 4, kernel(|| plan(&geo_inc, 1.0))),
        ("optimal.geo_dec", 3000, kernel(|| geometric_decreasing_optimal(2.0, 1.0).unwrap())),
        ("optimal.geo_inc", 1, kernel(|| geometric_increasing_optimal(64.0, 1.0).unwrap())),
        ("local_optimality_margin", 50, kernel(|| {
            perturb::local_optimality_margin(black_box(&p_plan), &poly2, 5.0, &[0.01, 0.1, 1.0])
        })),
        ("perturb_eval", 5000, kernel(|| {
            perturb::perturb(black_box(&p_plan), 0, 0.1).unwrap().expected_work(&poly2, 5.0)
        })),
        ("growth_law", 10000, kernel(|| check_growth_law(black_box(&p_plan), Shape::Concave, 5.0))),
        ("strictly_decreasing", 10000, kernel(|| check_strictly_decreasing(black_box(&p_plan)))),
        ("greedy.uniform", 100, kernel(|| greedy_schedule(&u1000, 5.0, &greedy_opts).unwrap())),
        ("greedy.geo_dec_50", 20, kernel(|| greedy_schedule(&geo_dec, 1.0, &greedy_50).unwrap())),
        ("adaptive.next_period", 1, kernel(|| black_box(&adaptive).next_period())),
        ("adaptive.episode", 1, kernel(|| {
            AdaptiveScheduler::new(u400.clone(), 4.0).unwrap().run_to_completion(100).unwrap()
        })),
        ("competitive.ratio", 500, kernel(|| {
            competitive_ratio(black_box(&geometric), 1.0, 10.0, 1000.0).unwrap()
        })),
        ("competitive.best_geometric", 1, kernel(|| best_geometric(1.0, 10.0, 1000.0).unwrap())),
        ("run_episode", 10000, kernel(|| run_episode(black_box(&u_plan), 5.0, 550.0, NoopSink))),
        ("expected_work", 10000, kernel(|| black_box(&u_plan).expected_work(&u1000, 5.0))),
        ("estimate_life", 2, kernel(|| estimate_life(black_box(&absences), 24).unwrap())),
        ("fit_best", 1, kernel(|| fit_best(black_box(&absences)).unwrap())),
        ("farm.fixed_16ws", 20, kernel(|| untraced(farm(16, fixed, 0.0, 1_000)))),
        ("farm.noop_sink", 20, kernel(|| untraced(farm(4, fixed, 0.0, 1_000)))),
        ("farm.memory_sink", 20, kernel(|| traced(farm(4, fixed, 0.0, 1_000)))),
        ("farm.replicate_8x4", 2, kernel(|| {
            replicate_farm(&template, fixed, &bag_400, 8, 4).unwrap()
        })),
        ("bag.check_out_100k", 1, kernel(|| drain(workloads::uniform(100_000, 1.0).unwrap()))),
        ("bag.fluid_vs_packed", 50, kernel(|| {
            fluid_vs_packed(&u_plan, &mut workloads::uniform(10_000, 0.5).unwrap(), 5.0)
        })),
        ("farm.guideline_faults2", 1, kernel(|| untraced(farm(8, guideline, 2.0, 600)))),
        ("farm.greedy_faults2", 3, kernel(|| untraced(farm(8, PolicySpec::Greedy, 2.0, 600)))),
        ("farm.fixed_faults2", 10, kernel(|| untraced(farm(8, fixed, 2.0, 600)))),
    ];
    let mut registry = MetricsRegistry::new();
    let start = Instant::now();
    for (name, calls, call) in &mut table {
        let span = format!("span_ns.{name}");
        for _ in 0..batches {
            let batch = Instant::now();
            for _ in 0..*calls {
                call();
            }
            registry.observe(&span, batch.elapsed().as_nanos() as f64 / f64::from(*calls));
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    row("kernels", wall_ns, None, span_stats(&registry))
}

/// Runs the pinned scenario grid and returns the measured baselines, in
/// grid order.
pub fn run_profile(opts: ProfileOptions) -> Result<Vec<ScenarioResult>, String> {
    let trials = if opts.quick { 5_000 } else { 100_000 };
    // Large enough that the farm's steady-state dispatch loop dominates
    // one-time per-run costs (policy searches on fresh elapsed times); the
    // throughput numbers then measure the hot path, not the warmup.
    let tasks = if opts.quick { 20_000 } else { 100_000 };
    let uniform: ArcLife = Arc::new(Uniform::new(1000.0).map_err(|e| e.to_string())?);
    let mut out = Vec::new();
    out.push(mc_scenario(
        "mc_serial_uniform",
        trials,
        uniform.clone(),
        5.0,
        None,
    )?);
    // The scaling ladder on the work-stealing pool. `mc_scaling_1` takes
    // the parallel API's serial fallback and anchors the speedup column;
    // efficiency = speedup / threads, so a perfectly scaling pool holds
    // 1.0 down the ladder. Rows past the machine's core count measure
    // oversubscription, not scaling — `bench_profile` records the core
    // count in the `cpus` field so a diff can tell the two apart.
    //
    // The ladder deliberately differs from `mc_serial_uniform`:
    //  - Polynomial life at c = 0.5 makes each trial heavy (a `powf` per
    //    inverse-survival draw, ~50 schedule periods per episode), so the
    //    master's irreducible serial sections (RNG pre-draw, ordered
    //    merge — the price of bit-identity) stay a small fraction of a
    //    trial and Amdahl does not cap the ladder below the CI floor.
    //  - A fixed trial budget (no --quick shrink): 5k-trial windows are
    //    dominated by pool spin-up, which would measure thread creation,
    //    not scaling. The budget is small enough to keep quick runs quick.
    let poly: ArcLife = Arc::new(Polynomial::new(3, 1000.0).map_err(|e| e.to_string())?);
    let ladder: [(&'static str, usize); 4] = [
        ("mc_scaling_1", 1),
        ("mc_scaling_2", 2),
        ("mc_scaling_4", 4),
        ("mc_scaling_8", 8),
    ];
    let mut scaling = Vec::new();
    for (id, threads) in ladder {
        scaling.push(mc_scenario(id, 200_000, poly.clone(), 0.5, Some(threads))?);
    }
    let base_wall = scaling[0].wall_ns as f64;
    for (row, (_, threads)) in scaling.iter_mut().zip(ladder) {
        let speedup = (row.wall_ns > 0).then(|| base_wall / row.wall_ns as f64);
        row.speedup = speedup;
        row.efficiency = speedup.map(|s| s / threads as f64);
    }
    out.extend(scaling);
    let (clean, _) = farm_scenario("farm_clean", tasks, FaultPlan::none())?;
    out.push(clean);
    let (faulty, trace) = farm_scenario("farm_faulty", tasks, FaultPlan::scaled(0.5))?;
    out.push(faulty);
    out.push(analyzer_scenario(&trace));
    out.push(lineage_scenario(&trace)?);
    // Crash-recovery latency at three run lengths: the snapshot column
    // should stay flat while the redo column scales with the journal.
    let recovery: [(usize, &'static str, &'static str); 3] = if opts.quick {
        [
            (150, "recovery_snapshot_short", "recovery_redo_short"),
            (400, "recovery_snapshot_medium", "recovery_redo_medium"),
            (900, "recovery_snapshot_long", "recovery_redo_long"),
        ]
    } else {
        [
            (1_000, "recovery_snapshot_short", "recovery_redo_short"),
            (4_000, "recovery_snapshot_medium", "recovery_redo_medium"),
            (12_000, "recovery_snapshot_long", "recovery_redo_long"),
        ]
    };
    for (len, id_snapshot, id_redo) in recovery {
        let (fast, redo) = recovery_pair(id_snapshot, id_redo, len)?;
        out.push(fast);
        out.push(redo);
    }
    // Bounded-disk recovery: a three-generation ring with journal GC; the
    // medium run length keeps the scenario comparable to
    // recovery_snapshot_medium.
    out.push(ring_scenario(recovery[1].0)?);
    out.push(durable_scenario()?);
    out.push(kernels_scenario(if opts.quick { 2 } else { 20 }));
    Ok(out)
}

fn json_f64(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x:.3}"),
        _ => "null".to_string(),
    }
}

/// Renders results as the `BENCH.json` document (parseable back by
/// `cs_obs::parse_json`, diffable by `cyclesteal obs diff --bench`).
/// `cpus` records the machine's available parallelism so the
/// `mc_scaling_*` rows can be read honestly: a 1-core box cannot show a
/// 4-thread speedup no matter how good the pool is.
pub fn render_bench_json(
    results: &[ScenarioResult],
    commit: &str,
    date: &str,
    quick: bool,
    cpus: usize,
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"commit\": \"{}\",\n  \"date\": \"{}\",\n  \"quick\": {},\n  \"cpus\": {},\n  \
         \"scenarios\": [\n",
        commit.replace(['"', '\\'], "?"),
        date.replace(['"', '\\'], "?"),
        quick,
        cpus
    ));
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"wall_ns\": {}, \"events_per_sec\": {}, \
             \"mc_trials_per_sec\": {}, \"speedup\": {}, \"efficiency\": {}, \"spans\": {{",
            r.id,
            r.wall_ns,
            json_f64(r.events_per_sec),
            json_f64(r.mc_trials_per_sec),
            json_f64(r.speedup),
            json_f64(r.efficiency)
        ));
        for (j, sp) in r.spans.iter().enumerate() {
            s.push_str(&format!(
                "{}\"{}\": {{\"count\": {}, \"total_ns\": {}, \"mean_ns\": {}, \
                 \"p50_ns\": {}, \"p99_ns\": {}}}",
                if j == 0 { "" } else { ", " },
                sp.name,
                sp.count,
                json_f64(Some(sp.total_ns)),
                json_f64(Some(sp.mean_ns)),
                json_f64(Some(sp.p50_ns)),
                json_f64(Some(sp.p99_ns))
            ));
        }
        s.push_str(if i + 1 == results.len() {
            "}}\n"
        } else {
            "}},\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_obs::{diff_bench, parse_json, Json};

    fn tiny_results() -> Vec<ScenarioResult> {
        vec![
            ScenarioResult {
                id: "s1",
                wall_ns: 1_000_000,
                events_per_sec: Some(123456.789),
                mc_trials_per_sec: None,
                speedup: None,
                efficiency: None,
                spans: vec![SpanStat {
                    name: "mc.trials".into(),
                    count: 1,
                    total_ns: 900000.0,
                    mean_ns: 900000.0,
                    p50_ns: 900000.0,
                    p99_ns: 900000.0,
                }],
            },
            ScenarioResult {
                id: "s2",
                wall_ns: 2_000_000,
                events_per_sec: None,
                mc_trials_per_sec: Some(5000.0),
                speedup: Some(1.8),
                efficiency: Some(0.9),
                spans: Vec::new(),
            },
        ]
    }

    #[test]
    fn bench_json_round_trips_through_the_parser() {
        let text = render_bench_json(&tiny_results(), "abc1234", "2026-08-06", false, 4);
        let doc = parse_json(&text).unwrap();
        assert_eq!(doc.get("commit").and_then(Json::as_str), Some("abc1234"));
        assert_eq!(doc.get("cpus").and_then(Json::as_f64), Some(4.0));
        let scenarios = doc.get("scenarios").and_then(Json::as_arr).unwrap();
        assert_eq!(scenarios.len(), 2);
        let s1 = &scenarios[0];
        assert_eq!(s1.get("id").and_then(Json::as_str), Some("s1"));
        assert_eq!(s1.get("wall_ns").and_then(Json::as_f64), Some(1_000_000.0));
        // null -> NaN through the parser's as_f64.
        assert!(s1
            .get("mc_trials_per_sec")
            .and_then(Json::as_f64)
            .unwrap()
            .is_nan());
        assert!(s1.get("speedup").and_then(Json::as_f64).unwrap().is_nan());
        let s2 = &scenarios[1];
        assert_eq!(s2.get("speedup").and_then(Json::as_f64), Some(1.8));
        assert_eq!(s2.get("efficiency").and_then(Json::as_f64), Some(0.9));
        let spans = s1.get("spans").and_then(Json::as_obj).unwrap();
        assert!(spans.contains_key("mc.trials"));
    }

    #[test]
    fn bench_json_diffs_against_itself_clean() {
        let a = render_bench_json(&tiny_results(), "aaa", "2026-08-05", false, 1);
        let mut worse = tiny_results();
        worse[0].wall_ns *= 2; // 2x wall regression on s1
        worse[1].speedup = Some(0.9); // speedup collapse on s2
        worse[1].efficiency = Some(0.45);
        let b = render_bench_json(&worse, "bbb", "2026-08-06", false, 1);
        let same = diff_bench(&a, &a, 0.2).unwrap();
        assert!(same.iter().all(|r| !r.flagged), "{same:?}");
        let rows = diff_bench(&a, &b, 0.2).unwrap();
        assert!(rows.iter().any(|r| r.name == "s1.wall_ns" && r.flagged));
        // A speedup drop is a throughput-style regression (down is bad).
        assert!(rows.iter().any(|r| r.name == "s2.speedup" && r.flagged));
        assert!(rows.iter().any(|r| r.name == "s2.efficiency" && r.flagged));
    }

    #[test]
    fn quick_profile_produces_the_pinned_grid() {
        let results = run_profile(ProfileOptions { quick: true }).unwrap();
        let ids: Vec<&str> = results.iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            vec![
                "mc_serial_uniform",
                "mc_scaling_1",
                "mc_scaling_2",
                "mc_scaling_4",
                "mc_scaling_8",
                "farm_clean",
                "farm_faulty",
                "analyzer_check",
                "analyze_lineage",
                "recovery_snapshot_short",
                "recovery_redo_short",
                "recovery_snapshot_medium",
                "recovery_redo_medium",
                "recovery_snapshot_long",
                "recovery_redo_long",
                "recovery_ring",
                "e2e_farm_durable",
                "kernels",
            ]
        );
        for r in &results {
            assert!(r.wall_ns > 0, "{}: zero wall time", r.id);
        }
        // MC scenarios report trial throughput; farm scenarios event
        // throughput; both MC and farm carry spans.
        assert!(results[0].mc_trials_per_sec.unwrap() > 0.0);
        assert!(results[5].events_per_sec.unwrap() > 0.0);
        assert!(results[0].spans.iter().any(|s| s.name == "mc.trial_batch"));
        assert!(results[6].spans.iter().any(|s| s.name == "farm.dispatch"));
        // The scaling ladder: only mc_scaling_* rows carry speedup and
        // efficiency; the 1-thread anchor is exactly 1.0 on both, and the
        // pooled rows run the work-stealing deques (mc.pool span).
        assert!(results[0].speedup.is_none());
        assert_eq!(results[1].speedup, Some(1.0));
        assert_eq!(results[1].efficiency, Some(1.0));
        for (i, threads) in [(2usize, 2.0f64), (3, 4.0), (4, 8.0)] {
            let r = &results[i];
            let s = r.speedup.unwrap();
            assert!(s > 0.0, "{}: speedup {s}", r.id);
            let e = r.efficiency.unwrap();
            assert!(
                (e - s / threads).abs() < 1e-12,
                "{}: efficiency {e} != speedup/{threads}",
                r.id
            );
            assert!(r.spans.iter().any(|sp| sp.name == "mc.pool"), "{}", r.id);
        }
        // The trace analyzers report line throughput over the faulty
        // farm trace.
        assert!(results[7].events_per_sec.unwrap() > 0.0);
        assert!(results[8].events_per_sec.unwrap() > 0.0);
        // Recovery scenarios report replayed-record throughput; the redo
        // path replays the whole journal so it can never be faster than
        // the snapshot path on replayed records.
        assert!(results[9].events_per_sec.unwrap() > 0.0);
        assert!(results[10].events_per_sec.unwrap() > 0.0);
        // The durable farm reports journal records per second.
        assert!(results[16].events_per_sec.unwrap() > 0.0);
        // One span per kernel, each with a real per-call time.
        let kernels = &results[17].spans;
        let names = "cor_3_2_test horizon_sweep dp_solve t0_bracket guideline_schedule \
            guideline_search.uniform guideline_search.geo_dec guideline_search.geo_inc \
            optimal.geo_dec optimal.geo_inc local_optimality_margin perturb_eval growth_law \
            strictly_decreasing greedy.uniform greedy.geo_dec_50 adaptive.next_period \
            adaptive.episode competitive.ratio competitive.best_geometric run_episode \
            expected_work estimate_life fit_best farm.fixed_16ws farm.noop_sink \
            farm.memory_sink farm.replicate_8x4 bag.check_out_100k bag.fluid_vs_packed \
            farm.guideline_faults2 farm.greedy_faults2 farm.fixed_faults2";
        for name in names.split_whitespace() {
            let span = kernels.iter().find(|s| s.name == name);
            let span = span.unwrap_or_else(|| panic!("kernels: no {name} span"));
            assert!(span.count >= 1, "{name}: count {}", span.count);
            assert!(span.p50_ns.is_finite(), "{name}: p50 {}", span.p50_ns);
        }
        assert_eq!(kernels.len(), 33, "one span per kernel");
    }
}
