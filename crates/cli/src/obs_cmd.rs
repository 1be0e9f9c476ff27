//! The `cyclesteal obs` subcommand: trace reports, invariant checks,
//! regression diffs over `--trace-out` JSONL files and `BENCH.json`
//! baselines, and time-travel replay over journals. Thin shell over
//! `cs_obs::{decode_lines, analyze_trace, analyze_lineage, check_text,
//! diff_registries, diff_bench}`
//! and `cs_now::{Farm::replay_to, Farm::fork_from_snapshot}`; all the
//! logic (and its tests) lives in the libraries.

use crate::args::Args;
use crate::{farm_scenario_from_args, FarmScenario, FARM_SCENARIO_OPTS};
use cs_apps::{fmt, fmt_opt, Table};
use cs_now::farm::Farm;
use cs_now::{default_snapshot_path, ring_snapshot_path, MAX_SNAPSHOT_RING};
use cs_obs::{
    analyze_lineage, analyze_trace, check_text, decode_lines, diff_bench, diff_registries, DiffRow,
    Event, LineageAnalysis, PhaseAttribution, TraceAnalysis,
};
use std::path::Path;

const USAGE: &str = "\
usage:
    cyclesteal obs report <trace.jsonl>
        Event counts, span timing tree (p50/p90/p99), per-workstation
        bank/loss attribution, worker-pool counters (when folded into the
        trace's registry) and — for farm traces — the wall-time phase
        attribution summary.
    cyclesteal obs path [--l <lifespan>] [--c <overhead>] <trace.jsonl>
        Causal makespan analysis of one farm trace: the critical-path
        chunk chain, the phase attribution table (phases sum to
        workstations x makespan), the bitwise lost-work reconciliation,
        and a side-by-side of observed banked work per episode against
        the paper's expected-work prediction for the scenario's uniform
        life function (--l, default 150) and overhead (--c, default 2 —
        pass the values the farm ran with).
    cyclesteal obs chunks [--top <k>] <trace.jsonl>
        Per-chunk waterfall for one farm trace: the top-k chunks by
        service time (default 10) with queue wait, retries and waste,
        plus straggler and per-fate waste attribution tables.
    cyclesteal obs check [--strict] <trace.jsonl>
        Schema + invariant gate: run bracketing, balanced spans, monotone
        span/progress stamps, bitwise bank reconciliation. Non-zero exit
        on any violation. A torn final record (a crash mid-write, e.g. a
        killed journaled run) is reported as a warning and the rest of the
        trace is checked as an interrupted prefix; --strict makes the torn
        tail itself a failure.
    cyclesteal obs diff [--threshold <rel>] [--bench] [--only <substr>]
                        [--min <row>=<value>] <a> <b>
        Compare two traces' folded metrics (or, with --bench, two
        BENCH.json baselines, flagging only regressions). --only keeps
        just the rows whose metric name contains <substr> (repeatable;
        a row is kept when any filter matches) — the CI perf gate uses
        this to pin workload-independent rows like
        'farm_clean.events_per_sec' and 'spans.farm.dispatch.mean_ns'.
        --min asserts an absolute floor on the candidate side of the
        named row (repeatable, exact name, checked before --only
        filtering) — e.g. --min mc_scaling_4.speedup=2.5 is the
        parallel-efficiency gate. Non-zero exit when a kept change
        beyond the threshold (default 0.2) is flagged or a floor is
        missed.
    cyclesteal obs replay --journal <file> --to <record> [scenario flags]
        Time travel: deterministically re-execute the journaled run up to
        (and including) record <record>, verifying every record against
        the journal, and print the farm's reconstructed state there. The
        scenario flags (--workstations, --tasks, --seed, --faults, ...)
        must match the run that wrote the journal.
    cyclesteal obs replay --journal <file> --fork [scenario flags]
        What-if fork: restore <file>.snap and run the rest of the episode
        under the scenario the flags describe. Pass the original flags to
        reproduce the recorded outcome bitwise; perturb the fault flags
        (--faults, --loss, --slowdown, --crash) to ask what the same
        mid-run state would have done under different conditions.
        Both replay forms accept --generation <g> to pin the snapshot to
        ring generation <file>.snap.<g> (runs journaled with
        --snapshot-ring) instead of the newest usable snapshot; a
        GC-truncated journal replays from a retained generation
        automatically.";

/// Entry point: `args` is everything after the `obs` token. Returns
/// `Err` (non-zero exit) on usage errors, check violations, and flagged
/// diffs.
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("report") => cmd_report(one_path(&args[1..], "obs report")?),
        Some("path") => cmd_path(&args[1..]),
        Some("chunks") => cmd_chunks(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => Err(USAGE.to_string()),
    }
}

fn cmd_replay(rest: &[String]) -> Result<(), String> {
    let args = Args::parse(rest.iter().cloned()).map_err(|e| format!("obs replay: {e}"))?;
    if args.command.is_some() {
        return Err(format!(
            "obs replay takes only --key value options\n\n{USAGE}"
        ));
    }
    let mut allowed: Vec<&str> = FARM_SCENARIO_OPTS.to_vec();
    allowed.extend_from_slice(&["journal", "to", "fork", "generation"]);
    args.check_known(&allowed)?;
    let journal = args.require("journal")?.to_string();
    let fork = args.flag("fork");
    let to = match args.get("to") {
        None => None,
        Some(_) => Some(args.u64_or("to", 0)?),
    };
    if fork == to.is_some() {
        return Err(format!(
            "obs replay needs exactly one of --to <record> or --fork\n\n{USAGE}"
        ));
    }
    let generation = match args.get("generation") {
        None => None,
        Some(_) => {
            let g = args.u64_or("generation", 0)?;
            if g >= u64::from(MAX_SNAPSHOT_RING) {
                return Err(format!(
                    "obs replay: --generation must be between 0 and {}",
                    MAX_SNAPSHOT_RING - 1
                ));
            }
            Some(g as u32)
        }
    };
    let FarmScenario {
        config,
        bag,
        policy,
        ..
    } = farm_scenario_from_args(&args)?;
    if let Some(to) = to {
        let state = Farm::replay_to(config, bag, Path::new(&journal), to, generation)
            .map_err(|e| format!("obs replay: {e}"))?;
        println!(
            "journal       : {journal} ({} records)",
            state.total_records
        );
        println!("policy        : {}", policy.label());
        println!(
            "replayed to   : record {} (virtual time {:.2})",
            state.records, state.virtual_time
        );
        println!("episodes      : {} started", state.episodes);
        println!(
            "task bag      : {} pending, {} banked, {} chunks in flight",
            state.pending_tasks, state.banked_tasks, state.in_flight_chunks
        );
        println!(
            "work          : {:.1} banked, {:.1} lost",
            state.completed_work, state.lost_work
        );
    } else {
        let snap = match generation {
            Some(g) => ring_snapshot_path(Path::new(&journal), g),
            None => default_snapshot_path(Path::new(&journal)),
        };
        let (report, meta) =
            Farm::fork_from_snapshot(config, &snap).map_err(|e| format!("obs replay: {e}"))?;
        match generation {
            Some(g) => println!(
                "fork point    : {} (generation {g}, virtual time {:.2})",
                snap.display(),
                meta.virtual_time
            ),
            None => println!(
                "fork point    : {} (virtual time {:.2})",
                snap.display(),
                meta.virtual_time
            ),
        }
        println!(
            "snapshot      : seed {}, {} workstations, {} tasks, {} journal records",
            meta.seed, meta.workstations, meta.tasks, meta.journal_records
        );
        println!("policy        : {}", policy.label());
        println!("drained       : {}", report.drained);
        println!("makespan      : {:.2}", report.makespan);
        println!("banked work   : {:.1}", report.completed_work);
        println!("lost work     : {:.1}", report.lost_work);
        let rb = &report.robustness;
        println!(
            "faults        : {} lost msgs, {} stragglers, {} crashes, {} storm kills",
            rb.messages_lost, rb.straggled_chunks, rb.crashes, rb.storm_kills
        );
    }
    Ok(())
}

fn one_path<'a>(rest: &'a [String], what: &str) -> Result<&'a str, String> {
    match rest {
        [path] if !path.starts_with("--") => Ok(path),
        _ => Err(format!("{what} takes exactly one trace file\n\n{USAGE}")),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Decodes every line of a trace file's text once.
fn decode<'a>(path: &str, text: &'a str) -> Result<Vec<(usize, Event<'a>)>, String> {
    decode_lines(text.lines()).map_err(|e| format!("{path}: {e}"))
}

fn analyze_file(path: &str) -> Result<TraceAnalysis, String> {
    Ok(analyze_trace(&decode(path, &read(path)?)?))
}

fn lineage_file(path: &str) -> Result<LineageAnalysis, String> {
    analyze_lineage(&decode(path, &read(path)?)?).map_err(|e| format!("{path}: {e}"))
}

/// The wall-time phase attribution table shared by `obs path` and
/// `obs report`: one row per phase, a TOTAL row, and each phase's share
/// of `workstations × makespan`. The totals sum to the wall by
/// construction — [`cs_obs::lineage`]'s invariant, re-rendered here.
fn phase_table(p: &PhaseAttribution) -> Table {
    let mut table = Table::new(&["phase", "time", "share"]);
    let wall = p.wall.max(f64::MIN_POSITIVE);
    for (label, v) in p.rows() {
        table.row(&[label.to_string(), fmt(v, 2), pct_of(v, wall)]);
    }
    table.row(&["TOTAL".to_string(), fmt(p.sum(), 2), pct_of(p.sum(), wall)]);
    table
}

fn pct_of(v: f64, of: f64) -> String {
    format!("{:.1}%", 100.0 * v / of)
}

/// Renders one chunk as a `[#id ws.. fate]` link for the critical-path
/// chain line.
fn chain_link(c: &cs_obs::ChunkRecord) -> String {
    format!("#{} (ws {}, {})", c.id, c.ws, c.fate.label())
}

fn cmd_path(rest: &[String]) -> Result<(), String> {
    let (flags, path) = flags_and_path(rest, "obs path", &["l", "c"])?;
    let l = parse_flag(&flags, "l", 150.0, "bad number")?;
    let c = parse_flag(&flags, "c", 2.0, "bad number")?;
    // The paper's prediction for the scenario's uniform life function,
    // planned first so a bad --l or --c fails before any analysis prints.
    let life = cs_life::Uniform::new(l).map_err(|e| format!("--l: {e}"))?;
    let plan = cs_core::search::best_guideline_schedule(&life, c)
        .map_err(|e| format!("guideline plan (L={l}, c={c}): {e}"))?;
    let a = lineage_file(path)?;
    println!("trace         : {path}");
    println!(
        "scenario      : {} workstations, {} tasks, seed {}",
        a.workstations, a.tasks, a.seed
    );
    for w in &a.warnings {
        println!("WARNING: {w}");
    }
    println!(
        "makespan      : {:.2} ({} chunks, {} episodes, run {})",
        a.phases.makespan,
        a.chunks.len(),
        a.episodes,
        if a.run_complete { "complete" } else { "torn" }
    );
    println!(
        "wall time     : {:.2} ({} workstations x makespan)",
        a.phases.wall, a.workstations
    );

    // The causal chain, earliest hop first: each step either waits on the
    // same workstation's previous chunk or rides a requeue from another
    // workstation's loss.
    println!("critical path : {} hops", a.critical_path.len());
    let mut chain = Table::new(&[
        "hop",
        "chunk",
        "ws",
        "dispatched",
        "resolved",
        "fate",
        "queue",
        "service",
        "retries",
    ]);
    for (hop, &id) in a.critical_path.iter().enumerate() {
        let c = &a.chunks[id];
        chain.row(&[
            hop.to_string(),
            format!("#{id}"),
            c.ws.to_string(),
            fmt(c.dispatched_at, 2),
            fmt(c.resolved_at, 2),
            c.fate.label().to_string(),
            fmt(c.queue_wait, 2),
            fmt(c.service, 2),
            c.retries.to_string(),
        ]);
    }
    println!("{}", chain.render());
    if let Some((first, last)) = a
        .critical_path
        .first()
        .zip(a.critical_path.last())
        .filter(|(f, l)| f != l)
    {
        println!(
            "chain         : {} -> ... -> {}",
            chain_link(&a.chunks[*first]),
            chain_link(&a.chunks[*last])
        );
    }

    println!("phase attribution (sums to wall time):");
    println!("{}", phase_table(&a.phases).render());
    if let Some(tail) = a.phases.end_game_tail {
        println!(
            "end-game tail : {:.2} from the first replica to the end of the run \
             (informational; contained in the phases above)",
            tail
        );
    }

    // Bitwise loss reconciliation against what the farm itself reported.
    match a.run_end_lost {
        Some(lost) => println!(
            "lost work     : {:.4} reconstructed vs {:.4} in run_end -> bitwise {}",
            a.lost_work,
            lost,
            if a.loss_reconciles() {
                "IDENTICAL"
            } else {
                "MISMATCH"
            }
        ),
        None => println!(
            "lost work     : {:.4} reconstructed (no run_end in a torn trace)",
            a.lost_work
        ),
    }

    // Side-by-side: expected banked work per episode from the guideline
    // schedule vs what the trace actually banked per episode.
    let observed = a.banked / (a.episodes.max(1) as f64);
    println!(
        "model         : uniform L = {l}, c = {c} -> expected work/episode {:.4}",
        plan.expected_work
    );
    println!(
        "observed      : {:.1} banked over {} episodes -> {:.4}/episode ({} of model)",
        a.banked,
        a.episodes,
        observed,
        pct_of(observed, plan.expected_work.max(f64::MIN_POSITIVE))
    );
    if !a.loss_reconciles() {
        return Err(format!(
            "{path}: reconstructed lost work does not reconcile bitwise with run_end"
        ));
    }
    Ok(())
}

fn cmd_chunks(rest: &[String]) -> Result<(), String> {
    let (flags, path) = flags_and_path(rest, "obs chunks", &["top"])?;
    let top = parse_flag(&flags, "top", 10, "expected an integer, got")?;
    let a = lineage_file(path)?;
    println!("trace         : {path}");
    println!(
        "scenario      : {} workstations, {} tasks, seed {} ({} chunks)",
        a.workstations,
        a.tasks,
        a.seed,
        a.chunks.len()
    );
    for w in &a.warnings {
        println!("WARNING: {w}");
    }

    // Top-k slowest chunks by service time: where the makespan's minutes
    // actually went.
    let mut by_service: Vec<&cs_obs::ChunkRecord> = a.chunks.iter().collect();
    by_service.sort_by(|x, y| {
        y.service
            .partial_cmp(&x.service)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.id.cmp(&y.id))
    });
    let shown = top.min(by_service.len());
    let mut slow = Table::new(&[
        "chunk",
        "ws",
        "tasks",
        "dispatched",
        "queue",
        "service",
        "fate",
        "retries",
        "banked",
        "wasted",
    ]);
    for c in &by_service[..shown] {
        slow.row(&[
            format!("#{}", c.id),
            c.ws.to_string(),
            c.tasks.to_string(),
            fmt(c.dispatched_at, 2),
            fmt(c.queue_wait, 2),
            fmt(c.service, 2),
            c.fate.label().to_string(),
            c.retries.to_string(),
            fmt(c.banked, 1),
            fmt(c.wasted, 1),
        ]);
    }
    println!("top {shown} chunks by service time:\n{}", slow.render());

    // Waste attribution by fate: every chunk lands in exactly one row, so
    // the work column sums to the total dispatched work.
    let mut fates: std::collections::BTreeMap<&'static str, (u64, f64, f64, f64)> =
        std::collections::BTreeMap::new();
    for c in &a.chunks {
        let e = fates.entry(c.fate.label()).or_default();
        e.0 += 1;
        e.1 += c.work;
        e.2 += c.banked;
        e.3 += c.wasted;
    }
    let mut waste = Table::new(&["fate", "chunks", "work", "banked", "wasted"]);
    for (label, (n, work, banked, wasted)) in &fates {
        waste.row(&[
            label.to_string(),
            n.to_string(),
            fmt(*work, 1),
            fmt(*banked, 1),
            fmt(*wasted, 1),
        ]);
    }
    println!("waste attribution by fate:\n{}", waste.render());

    // Stragglers and retries: the chunks that needed more than one try.
    let stragglers: Vec<&cs_obs::ChunkRecord> = a
        .chunks
        .iter()
        .filter(|ch| ch.retries > 0 || ch.timed_out || ch.replica || ch.winning_replica)
        .collect();
    if stragglers.is_empty() {
        println!("stragglers    : none (no retries, timeouts or replicas)");
    } else {
        let mut tbl = Table::new(&["chunk", "ws", "retries", "timed out", "replica", "fate"]);
        for ch in &stragglers {
            tbl.row(&[
                format!("#{}", ch.id),
                ch.ws.to_string(),
                ch.retries.to_string(),
                if ch.timed_out { "yes" } else { "-" }.to_string(),
                match (ch.winning_replica, ch.replica) {
                    (true, _) => "won",
                    (false, true) => "yes",
                    (false, false) => "-",
                }
                .to_string(),
                ch.fate.label().to_string(),
            ]);
        }
        println!(
            "stragglers    : {} chunk(s) needed retries, timed out, or raced a replica\n{}",
            stragglers.len(),
            tbl.render()
        );
    }
    println!(
        "totals        : {} requeues, {} replicas, {} dispatch-time crashes",
        a.requeues, a.replicas, a.dispatch_crashes
    );
    Ok(())
}

/// `--key value` pairs parsed ahead of a lineage subcommand's positional
/// trace path.
type ParsedFlags = Vec<(String, String)>;

/// Parses `[--key value ...] <trace>` for the lineage subcommands: only
/// the listed keys are legal, each at most once, and exactly one
/// positional path is required.
fn flags_and_path<'a>(
    rest: &'a [String],
    what: &str,
    keys: &[&str],
) -> Result<(ParsedFlags, &'a str), String> {
    let mut flags = Vec::new();
    let mut path: Option<&str> = None;
    let mut it = rest.iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            flag if flag.starts_with("--") => {
                let key = &flag[2..];
                if !keys.contains(&key) {
                    return Err(format!("{what}: unknown option {flag}\n\n{USAGE}"));
                }
                if flags.iter().any(|(k, _)| k == key) {
                    return Err(format!("{what}: duplicate option: {flag}"));
                }
                let v = it
                    .next()
                    .ok_or_else(|| format!("{what}: {flag} needs a value"))?;
                flags.push((key.to_string(), v.clone()));
            }
            p if path.is_none() => path = Some(p),
            _ => return Err(format!("{what} takes exactly one trace file\n\n{USAGE}")),
        }
    }
    let path = path.ok_or_else(|| format!("{what} takes exactly one trace file\n\n{USAGE}"))?;
    Ok((flags, path))
}

/// The value of `--key`, or `default` when it is absent; a value that
/// does not parse fails as `--key: <complaint> "<value>"`.
fn parse_flag<T: std::str::FromStr>(
    flags: &ParsedFlags,
    key: &str,
    default: T,
    complaint: &str,
) -> Result<T, String> {
    match flags.iter().find(|(k, _)| k == key) {
        None => Ok(default),
        Some((_, v)) => v.parse().map_err(|_| format!("--{key}: {complaint} {v:?}")),
    }
}

fn cmd_report(path: &str) -> Result<(), String> {
    let text = read(path)?;
    // One decode feeds both the analysis and the lineage fold.
    let events = decode(path, &text)?;
    let a = analyze_trace(&events);
    println!("trace         : {path}");
    println!(
        "events        : {} lines, {} complete runs (schema v{})",
        a.lines,
        a.runs,
        cs_obs::SCHEMA_VERSION
    );
    let mut kinds = Table::new(&["event kind", "count"]);
    for (kind, n) in &a.kind_counts {
        kinds.row(&[kind.to_string(), n.to_string()]);
    }
    println!("{}", kinds.render());
    if !a.per_ws.is_empty() {
        let mut ws = Table::new(&["ws", "banked", "duplicate", "lost", "banks", "dispatches"]);
        for (id, row) in &a.per_ws {
            ws.row(&[
                id.to_string(),
                fmt(row.banked, 1),
                fmt(row.duplicate, 1),
                fmt(row.lost, 1),
                row.banks.to_string(),
                row.dispatches.to_string(),
            ]);
        }
        println!("per-workstation attribution:\n{}", ws.render());
    }
    if !a.span_tree.is_empty() {
        let mut spans = Table::new(&[
            "span", "count", "total ms", "mean ms", "p50 ms", "p90 ms", "p99 ms",
        ]);
        for node in &a.span_tree {
            let h = &node.hist;
            let ms = |v: Option<f64>| fmt_opt(v.map(|ns| ns / 1e6), 3);
            spans.row(&[
                format!("{}{}", "  ".repeat(node.depth), node.name),
                h.count().to_string(),
                fmt(h.sum() / 1e6, 3),
                ms(h.mean()),
                ms(h.quantile(0.50)),
                ms(h.quantile(0.90)),
                ms(h.quantile(0.99)),
            ]);
        }
        println!("span timing tree (wall clock):\n{}", spans.render());
    }
    if let Some(pool) = pool_table(&a.registry) {
        println!("worker pool (from the trace's folded registry):\n{pool}");
    }
    // Farm traces also get the lineage phase summary; other trace shapes
    // (episode sims, Monte-Carlo sweeps) simply don't reconstruct.
    if let Ok(lin) = analyze_lineage(&events) {
        println!(
            "phase attribution ({} chunks; run `obs path` for the critical path):\n{}",
            lin.chunks.len(),
            phase_table(&lin.phases).render()
        );
    }
    Ok(())
}

/// Renders the `pool.*` scheduling counters when the trace's folded
/// registry carries them (a pooled run that folded the work-stealing
/// pool's `PoolMetrics` into its metrics). Returns `None` — and
/// `obs report` prints nothing — for the common single-threaded trace.
fn pool_table(reg: &cs_obs::MetricsRegistry) -> Option<String> {
    let mut rows: Vec<(String, String)> = reg
        .counters()
        .filter(|(k, _)| k.starts_with("pool."))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    rows.extend(
        reg.gauges()
            .filter(|(k, _)| k.starts_with("pool."))
            .map(|(k, v)| (k.to_string(), fmt(v, 0))),
    );
    rows.extend(
        reg.histograms()
            .filter(|(k, _)| k.starts_with("pool."))
            .map(|(k, h)| {
                (
                    k.to_string(),
                    format!(
                        "{} samples, mean {}, max {}",
                        h.count(),
                        fmt_opt(h.mean(), 2),
                        fmt_opt(h.max(), 0)
                    ),
                )
            }),
    );
    if rows.is_empty() {
        return None;
    }
    rows.sort();
    let mut table = Table::new(&["pool metric", "value"]);
    for (k, v) in rows {
        table.row(&[k, v]);
    }
    Some(table.render())
}

fn cmd_check(rest: &[String]) -> Result<(), String> {
    let mut strict = false;
    let mut path: Option<&str> = None;
    for tok in rest {
        match tok.as_str() {
            "--strict" => strict = true,
            p if p.starts_with("--") => {
                return Err(format!("obs check: unknown option {p}\n\n{USAGE}"))
            }
            p if path.is_none() => path = Some(p),
            _ => return Err(format!("obs check takes exactly one trace file\n\n{USAGE}")),
        }
    }
    let path = path.ok_or_else(|| format!("obs check takes exactly one trace file\n\n{USAGE}"))?;
    let text = read(path)?;
    let s = check_text(&text, strict);
    println!(
        "checked       : {} events, {} runs ({} bank-reconciled), {} spans",
        s.lines, s.runs, s.reconciled_runs, s.spans
    );
    if let Some(warn) = &s.torn_tail {
        println!("WARNING: {warn} (interrupted-run prefix tolerated; --strict fails)");
    }
    if s.ok() {
        println!("PASS: every invariant holds");
        Ok(())
    } else {
        for v in &s.violations {
            println!("VIOLATION: {v}");
        }
        Err(format!(
            "{path}: {} invariant violation(s)",
            s.violations.len()
        ))
    }
}

fn cmd_diff(rest: &[String]) -> Result<(), String> {
    let mut threshold = 0.2f64;
    let mut bench = false;
    let mut only: Vec<String> = Vec::new();
    let mut mins: Vec<(String, f64)> = Vec::new();
    let mut paths: Vec<&str> = Vec::new();
    let mut it = rest.iter();
    while let Some(tok) = it.next() {
        match tok.as_str() {
            "--bench" => bench = true,
            "--threshold" => {
                let v = it.next().ok_or("--threshold needs a value")?;
                threshold = v
                    .parse()
                    .map_err(|_| format!("--threshold: bad number {v:?}"))?;
            }
            "--only" => {
                let v = it.next().ok_or("--only needs a substring")?;
                only.push(v.clone());
            }
            "--min" => {
                let v = it.next().ok_or("--min needs <row>=<value>")?;
                let (name, floor) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--min: expected <row>=<value>, got {v:?}"))?;
                let floor: f64 = floor
                    .parse()
                    .map_err(|_| format!("--min {name}: bad number {floor:?}"))?;
                mins.push((name.to_string(), floor));
            }
            p if !p.starts_with("--") => paths.push(p),
            other => return Err(format!("obs diff: unknown option {other}\n\n{USAGE}")),
        }
    }
    let [a, b] = paths[..] else {
        return Err(format!("obs diff takes exactly two files\n\n{USAGE}"));
    };
    let mut rows = if bench {
        diff_bench(&read(a)?, &read(b)?, threshold)?
    } else {
        diff_registries(
            &analyze_file(a)?.registry,
            &analyze_file(b)?.registry,
            threshold,
        )
    };
    // Absolute floors run against the full row set (before --only
    // filtering) and look at the candidate side only: a gate like
    // `--min mc_scaling_4.speedup=2.5` must fail loudly when the row is
    // missing, not silently pass.
    let mut floor_misses = Vec::new();
    for (name, floor) in &mins {
        match rows.iter().find(|r| &r.name == name) {
            None => floor_misses.push(format!("--min {name}: no such row in the diff")),
            Some(r) if r.b.is_nan() || r.b < *floor => floor_misses.push(format!(
                "--min {name}: candidate {} below floor {floor}",
                fmt(r.b, 4)
            )),
            Some(r) => println!("min ok: {name} = {} (floor {floor})", fmt(r.b, 4)),
        }
    }
    if !only.is_empty() {
        rows.retain(|r| only.iter().any(|f| r.name.contains(f.as_str())));
        if rows.is_empty() {
            return Err(format!(
                "obs diff: no metric matched --only {:?} (check the row names)",
                only
            ));
        }
    }
    let flagged = rows.iter().filter(|r| r.flagged).count();
    if flagged > 0 {
        let mut table = Table::new(&["metric", "baseline", "candidate", "change"]);
        for row in rows.iter().filter(|r| r.flagged) {
            table.row(&[
                row.name.clone(),
                fmt(row.a, 4),
                fmt(row.b, 4),
                rel_display(row),
            ]);
        }
        println!("flagged changes:\n{}", table.render());
    }
    if !floor_misses.is_empty() {
        return Err(format!(
            "floor violations:\n  {}",
            floor_misses.join("\n  ")
        ));
    }
    if flagged == 0 {
        println!(
            "PASS: {} metrics compared, none beyond threshold {threshold}",
            rows.len()
        );
        Ok(())
    } else {
        Err(format!(
            "{flagged} of {} metrics beyond threshold {threshold}",
            rows.len()
        ))
    }
}

fn rel_display(row: &DiffRow) -> String {
    if row.rel.is_nan() {
        "n/a".to_string()
    } else if row.rel.is_infinite() {
        format!("{}inf", if row.rel > 0.0 { "+" } else { "-" })
    } else {
        format!("{:+.1}%", row.rel * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_errors_name_the_subcommand() {
        let err = run(&[]).unwrap_err();
        assert!(err.contains("obs report"), "{err}");
        let err = run(&["report".to_string()]).unwrap_err();
        assert!(err.contains("exactly one trace file"), "{err}");
        let err = run(&["diff".to_string(), "a".to_string()]).unwrap_err();
        assert!(err.contains("exactly two files"), "{err}");
    }

    #[test]
    fn check_parses_strict_and_rejects_extras() {
        let err = run(&["check".to_string()]).unwrap_err();
        assert!(err.contains("exactly one trace file"), "{err}");
        let err = run(&[
            "check".to_string(),
            "a.jsonl".to_string(),
            "b.jsonl".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("exactly one trace file"), "{err}");
        let err = run(&[
            "check".to_string(),
            "--struct".to_string(),
            "a.jsonl".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("unknown option --struct"), "{err}");
        // --strict itself parses; the error is then the missing file.
        let err = run(&[
            "check".to_string(),
            "--strict".to_string(),
            "/no/such/trace.jsonl".to_string(),
        ])
        .unwrap_err();
        assert!(err.contains("/no/such/trace.jsonl"), "{err}");
    }

    #[test]
    fn path_and_chunks_validate_their_flag_grammar() {
        let to_args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let err = run(&to_args("path")).unwrap_err();
        assert!(
            err.contains("obs path takes exactly one trace file"),
            "{err}"
        );
        let err = run(&to_args("path a.jsonl b.jsonl")).unwrap_err();
        assert!(err.contains("exactly one trace file"), "{err}");
        let err = run(&to_args("path --lifespans 10 a.jsonl")).unwrap_err();
        assert!(err.contains("unknown option --lifespans"), "{err}");
        let err = run(&to_args("path --l a.jsonl")).unwrap_err();
        assert!(err.contains("exactly one trace file"), "{err}");
        let err = run(&to_args("path --l nope a.jsonl")).unwrap_err();
        assert!(err.contains("--l: bad number"), "{err}");
        let err = run(&to_args("path --l 150 --c 2 /no/such/trace.jsonl")).unwrap_err();
        assert!(err.contains("/no/such/trace.jsonl"), "{err}");
        // `--top` is a chunk count: no sign, fraction or NaN.
        for top in ["k", "-5", "NaN", "2.7"] {
            let err = run(&to_args(&format!("chunks --top {top} a.jsonl"))).unwrap_err();
            let want = format!("--top: expected an integer, got \"{top}\"");
            assert!(err.contains(&want), "{err}");
        }
        let err = run(&to_args("chunks --top 3 --top 1 a.jsonl")).unwrap_err();
        assert!(err.contains("duplicate option: --top"), "{err}");
        let err = run(&to_args("path --c 2 --c 3 a.jsonl")).unwrap_err();
        assert!(err.contains("duplicate option: --c"), "{err}");
        // The model is planned before the trace is read.
        let err = run(&to_args("path --l -3 /no/such/trace.jsonl")).unwrap_err();
        assert!(err.contains("--l: ") && err.contains("lifespan"), "{err}");
        let err = run(&to_args("chunks --strict a.jsonl")).unwrap_err();
        assert!(err.contains("unknown option --strict"), "{err}");
        let err = run(&to_args("chunks /no/such/trace.jsonl")).unwrap_err();
        assert!(err.contains("/no/such/trace.jsonl"), "{err}");
    }

    #[test]
    fn pool_table_is_presence_keyed() {
        let mut reg = cs_obs::MetricsRegistry::new();
        reg.counter_add("farm.dispatches", 3);
        assert!(pool_table(&reg).is_none(), "no pool rows -> no section");
        reg.counter_add("pool.tasks", 22);
        reg.counter_add("pool.steals", 4);
        reg.gauge_set("pool.threads", 4.0);
        reg.observe("pool.steal_batch", 2.0);
        let table = pool_table(&reg).expect("pool rows render");
        assert!(table.contains("pool.tasks"), "{table}");
        assert!(table.contains("pool.threads"), "{table}");
        assert!(table.contains("pool.steal_batch"), "{table}");
        assert!(!table.contains("farm.dispatches"), "{table}");
    }

    #[test]
    fn replay_validates_its_flag_grammar() {
        let to_args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let err = run(&to_args("replay")).unwrap_err();
        assert!(err.contains("--journal"), "{err}");
        let err = run(&to_args("replay --journal j.jsonl")).unwrap_err();
        assert!(
            err.contains("exactly one of --to <record> or --fork"),
            "{err}"
        );
        let err = run(&to_args("replay --journal j.jsonl --to 3 --fork")).unwrap_err();
        assert!(
            err.contains("exactly one of --to <record> or --fork"),
            "{err}"
        );
        // Scenario flags get the same did-you-mean treatment as `farm`.
        let err = run(&to_args("replay --journal j.jsonl --to 3 --taskss 50")).unwrap_err();
        assert!(err.contains("did you mean --tasks?"), "{err}");
        // A well-formed invocation over a missing journal is a clean error.
        let err = run(&to_args("replay --journal /no/such/j.jsonl --to 3")).unwrap_err();
        assert!(err.contains("obs replay"), "{err}");
        // --generation is range-checked against the ring-scan cap.
        for mode in ["--fork", "--to 3"] {
            let args = format!("replay --journal j.jsonl {mode} --generation 64");
            let err = run(&to_args(&args)).unwrap_err();
            assert!(err.contains("between 0 and 63"), "{err}");
        }
        // A pinned generation over a missing sidecar is a clean error too.
        let err = run(&to_args(
            "replay --journal /no/such/j.jsonl --fork --generation 2",
        ))
        .unwrap_err();
        assert!(err.contains("obs replay"), "{err}");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = run(&["check".to_string(), "/no/such/trace.jsonl".to_string()]).unwrap_err();
        assert!(err.contains("/no/such/trace.jsonl"), "{err}");
    }

    #[test]
    fn diff_only_filters_rows_and_rejects_empty_matches() {
        let to_args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let dir = std::env::temp_dir().join(format!("cs_obs_diff_only_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        // s1 regresses on wall time; s2 is clean.
        std::fs::write(
            &a,
            r#"{"commit":"a","date":"d","scenarios":[
                {"id":"s1","wall_ns":1000,"events_per_sec":500,"mc_trials_per_sec":null},
                {"id":"s2","wall_ns":1000,"events_per_sec":500,"mc_trials_per_sec":null}]}"#,
        )
        .unwrap();
        std::fs::write(
            &b,
            r#"{"commit":"b","date":"d","scenarios":[
                {"id":"s1","wall_ns":9000,"events_per_sec":500,"mc_trials_per_sec":null},
                {"id":"s2","wall_ns":1000,"events_per_sec":500,"mc_trials_per_sec":null}]}"#,
        )
        .unwrap();
        let (a, b) = (a.display().to_string(), b.display().to_string());
        // Unfiltered: the s1 wall regression fails the diff.
        let err = run(&to_args(&format!("diff --bench {a} {b}"))).unwrap_err();
        assert!(err.contains("beyond threshold"), "{err}");
        // Filtered to s2 rows only: the regression is out of scope.
        run(&to_args(&format!("diff --bench --only s2. {a} {b}"))).unwrap();
        // Several filters are OR'd: adding the regressing row fails again.
        let err = run(&to_args(&format!(
            "diff --bench --only s2. --only s1.wall_ns {a} {b}"
        )))
        .unwrap_err();
        assert!(err.contains("beyond threshold"), "{err}");
        // A filter matching nothing is an error, not a silent PASS.
        let err = run(&to_args(&format!("diff --bench --only nope {a} {b}"))).unwrap_err();
        assert!(err.contains("no metric matched"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_min_enforces_absolute_floors_on_the_candidate() {
        let to_args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let dir = std::env::temp_dir().join(format!("cs_obs_diff_min_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        // The candidate's speedup improves (no relative regression), so
        // only the absolute floor can fail the gate.
        std::fs::write(
            &a,
            r#"{"commit":"a","date":"d","scenarios":[
                {"id":"mc_scaling_4","wall_ns":1000,"events_per_sec":null,
                 "mc_trials_per_sec":500,"speedup":1.0,"efficiency":0.25}]}"#,
        )
        .unwrap();
        std::fs::write(
            &b,
            r#"{"commit":"b","date":"d","scenarios":[
                {"id":"mc_scaling_4","wall_ns":1000,"events_per_sec":null,
                 "mc_trials_per_sec":500,"speedup":2.0,"efficiency":0.5}]}"#,
        )
        .unwrap();
        let (a, b) = (a.display().to_string(), b.display().to_string());
        // Floor met: 2.0 >= 1.5 passes.
        run(&to_args(&format!(
            "diff --bench --min mc_scaling_4.speedup=1.5 {a} {b}"
        )))
        .unwrap();
        // Floor missed: 2.0 < 2.5 fails, even though the relative diff
        // shows an improvement.
        let err = run(&to_args(&format!(
            "diff --bench --min mc_scaling_4.speedup=2.5 {a} {b}"
        )))
        .unwrap_err();
        assert!(err.contains("below floor 2.5"), "{err}");
        // The floor is checked before --only filtering drops its row.
        let err = run(&to_args(&format!(
            "diff --bench --only wall_ns --min mc_scaling_4.speedup=2.5 {a} {b}"
        )))
        .unwrap_err();
        assert!(err.contains("below floor 2.5"), "{err}");
        // A floor naming a missing row is an error, not a silent pass.
        let err = run(&to_args(&format!(
            "diff --bench --min nope.speedup=2.5 {a} {b}"
        )))
        .unwrap_err();
        assert!(err.contains("no such row"), "{err}");
        // Malformed floors are usage errors.
        let err = run(&to_args(&format!("diff --bench --min nope {a} {b}"))).unwrap_err();
        assert!(err.contains("expected <row>=<value>"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rel_display_handles_special_values() {
        let row = |rel: f64| DiffRow {
            name: String::new(),
            a: 0.0,
            b: 0.0,
            rel,
            flagged: false,
        };
        assert_eq!(rel_display(&row(0.5)), "+50.0%");
        assert_eq!(rel_display(&row(-0.25)), "-25.0%");
        assert_eq!(rel_display(&row(f64::INFINITY)), "+inf");
        assert_eq!(rel_display(&row(f64::NAN)), "n/a");
    }
}
