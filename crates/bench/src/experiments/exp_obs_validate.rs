//! EXP-OBS — observability-contract validation.
//!
//! Two modes:
//!
//! * **Self-test** (no arguments): runs a seeded, faulty farm three ways —
//!   untraced, with a [`MemorySink`], and with a [`JsonlSink`] — and checks
//!   the whole contract: traced runs bit-identical to untraced, every JSONL
//!   line schema-valid, and event tallies reconciling exactly (bitwise for
//!   banked work) with the [`FarmReport`].
//! * **File mode** (`cyclesteal exp --id exp_obs_validate --input
//!   <events.jsonl>`): validates a trace
//!   emitted by `cyclesteal farm --trace-out` with the strict `obs check`
//!   gate — every line decodes, every invariant holds, and the
//!   per-workstation `bank` sums reconcile bitwise with the trace's own
//!   `run_end.banked` — and requires it to open with `run_start` and
//!   close with `run_end`.
//!
//! Fails (non-zero exit from `cyclesteal exp`) on the first violated
//! check, so CI can gate on it.

use crate::harness::{ExpContext, Experiment};
use crate::outln;
use cs_now::farm::{Farm, FarmConfig, FarmReport, PolicySpec, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_obs::{
    check_text, Event, EventKind, JsonlSink, MemorySink, NoopSink, RunSummary, SpanProfiler,
};
use cs_tasks::workloads;

/// A faulty 3-workstation farm that exercises most of the event vocabulary.
fn build_farm(seed: u64) -> Farm {
    let life: cs_life::ArcLife = std::sync::Arc::new(cs_life::Uniform::new(150.0).unwrap());
    let mut lossy = WorkstationConfig {
        life: life.clone(),
        believed: life.clone(),
        c: 2.0,
        policy: PolicySpec::FixedSize(20.0),
        gap_mean: 10.0,
        faults: FaultPlan::none(),
    };
    lossy.faults.loss_prob = 0.4;
    let mut slow = lossy.clone();
    slow.faults = FaultPlan::none();
    slow.faults.slowdown = 4.0;
    let healthy = WorkstationConfig {
        faults: FaultPlan::none(),
        ..lossy.clone()
    };
    let config = FarmConfig::new(vec![lossy, slow, healthy], 1e7, seed);
    let bag = workloads::uniform(400, 1.0).unwrap();
    Farm::new(config, bag).expect("valid config")
}

fn self_test(ctx: &mut ExpContext<'_>) -> Result<(), String> {
    let seed = 42;
    let plain = build_farm(seed).run(&mut NoopSink, &mut SpanProfiler::disabled());

    // 1. Pass-through: a traced run must be bit-identical to an untraced
    //    one.
    let mut mem = MemorySink::new();
    let traced = build_farm(seed).run(&mut mem, &mut SpanProfiler::disabled());
    if let Some(d) = plain.first_difference(&traced) {
        return Err(format!("traced run diverged on {d}"));
    }

    // 2. In-memory tallies reconcile with the report.
    reconcile_memory(&mem, &traced)?;

    // 3. The JSONL round trip: every line schema-valid, tallies identical
    //    to the in-memory stream.
    let path = std::env::temp_dir().join("exp_obs_validate_selftest.jsonl");
    let mut jsonl = JsonlSink::create(&path).map_err(|e| format!("create {path:?}: {e}"))?;
    let jsonl_run = build_farm(seed).run(&mut jsonl, &mut SpanProfiler::disabled());
    if jsonl_run.completed_work.to_bits() != plain.completed_work.to_bits() {
        return Err("JSONL-traced run diverged from untraced run".into());
    }
    let lines = jsonl.finish().map_err(|e| format!("finish: {e}"))?;
    if lines as usize != mem.events.len() {
        return Err(format!(
            "JSONL wrote {lines} lines but the memory sink saw {} events",
            mem.events.len()
        ));
    }
    validate_file(ctx, path.to_str().expect("utf-8 temp path"))?;
    std::fs::remove_file(&path).ok();

    outln!(
        ctx,
        "PASS: pass-through, schema and reconciliation hold \
         ({} events, banked {}, {} lease timeouts)",
        mem.events.len(),
        traced.completed_work,
        traced.robustness.lease_timeouts
    );
    RunSummary::new("exp_obs_validate")
        .int("events", mem.events.len() as u64)
        .num("banked", traced.completed_work)
        .int("lease_timeouts", traced.robustness.lease_timeouts)
        .flag("pass", true)
        .emit_to(ctx.out)
        .map_err(|e| e.to_string())?;
    Ok(())
}

/// Checks the in-memory event stream against the report it came from.
fn reconcile_memory(mem: &MemorySink, report: &FarmReport) -> Result<(), String> {
    let n = report.per_workstation.len();
    let mut bank_sum = vec![0.0f64; n];
    let mut timeouts = 0u64;
    let mut requeues = 0u64;
    let mut episodes = 0u64;
    for e in &mem.events {
        match e.kind {
            EventKind::Bank { ws, work, .. } => bank_sum[ws as usize] += work,
            EventKind::LeaseTimeout { .. } => timeouts += 1,
            EventKind::Requeue { .. } => requeues += 1,
            EventKind::EpisodeStart { .. } => episodes += 1,
            _ => {}
        }
    }
    for (ws, st) in report.per_workstation.iter().enumerate() {
        if bank_sum[ws].to_bits() != st.completed_work.to_bits() {
            return Err(format!(
                "ws {ws}: bank events sum to {} but the report says {}",
                bank_sum[ws], st.completed_work
            ));
        }
    }
    if timeouts != report.robustness.lease_timeouts {
        return Err(format!(
            "{timeouts} lease_timeout events vs {} in the report",
            report.robustness.lease_timeouts
        ));
    }
    if requeues != timeouts {
        return Err(format!(
            "every lease timeout must requeue: {requeues} requeues vs {timeouts} timeouts"
        ));
    }
    let reported_episodes: u64 = report.per_workstation.iter().map(|w| w.episodes).sum();
    if episodes != reported_episodes {
        return Err(format!(
            "{episodes} episode_start events vs {reported_episodes} episodes in the report"
        ));
    }
    Ok(())
}

/// Validates an on-disk JSONL trace without access to the run that made it:
/// the strict `obs check` gate ([`check_text`]: schema per line, run
/// bracketing, chunk conservation, and per-workstation `bank` sums that
/// equal `run_end.banked` bit for bit), plus a trace that opens with
/// `run_start` and closes with `run_end`.
fn validate_file(ctx: &mut ExpContext<'_>, path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let summary = check_text(&text, true);
    if let Some(violation) = summary.violations.first() {
        return Err(format!("{path}: {violation}"));
    }
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let first = lines.next().ok_or_else(|| format!("{path}: empty trace"))?;
    let last = lines.next_back().unwrap_or(first);
    let kind = |line| {
        Event::from_jsonl(line)
            .map(|e| e.kind)
            .map_err(|e| format!("{path}: {e}"))
    };
    let first = kind(first)?;
    if !matches!(first, EventKind::RunStart { .. }) {
        return Err(format!(
            "{path}: first event must be run_start, got {}",
            first.name()
        ));
    }
    let banked = match kind(last)? {
        EventKind::RunEnd { banked, .. } => banked,
        other => {
            return Err(format!(
                "{path}: last event must be run_end, got {}",
                other.name()
            ))
        }
    };
    outln!(
        ctx,
        "PASS: {path}: {} events schema-valid, banked {} reconciles",
        summary.lines,
        banked
    );
    Ok(())
}

/// Registration for `exp_obs_validate`.
pub struct Exp;

impl Experiment for Exp {
    fn id(&self) -> &'static str {
        "exp_obs_validate"
    }

    fn paper(&self) -> &'static str {
        "infrastructure"
    }

    fn title(&self) -> &'static str {
        "Observability contract: pass-through, schema and reconciliation checks"
    }

    fn run(&self, ctx: &mut ExpContext<'_>) -> Result<(), String> {
        match ctx.opts.input.clone() {
            Some(path) => validate_file(ctx, &path),
            None => self_test(ctx),
        }
    }
}
