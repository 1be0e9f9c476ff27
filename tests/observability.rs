//! Cross-crate observability contract: tracing a seeded run through any
//! sink changes nothing about the results (bit-identical), every emitted
//! JSONL line is schema-valid, and the event stream reconciles exactly
//! with the reports the untraced APIs print.

use cs_core::search;
use cs_life::{ArcLife, Uniform};
use cs_now::farm::{Farm, FarmConfig, FarmReport, PolicyKind, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_obs::{
    Event, EventKind, JsonlSink, MemorySink, MetricsSink, NoopSink, SpanProfiler, TeeSink,
};
use cs_sim::simulate;
use cs_tasks::workloads;
use std::sync::Arc;

fn faulty_farm(seed: u64) -> Farm {
    let life: ArcLife = Arc::new(Uniform::new(140.0).unwrap());
    let base = WorkstationConfig {
        life: life.clone(),
        believed: life,
        c: 2.0,
        policy: PolicyKind::Guideline,
        gap_mean: 9.0,
        faults: FaultPlan::none(),
    };
    let mut lossy = base.clone();
    lossy.faults.loss_prob = 0.35;
    let mut slow = base.clone();
    slow.faults.slowdown = 3.0;
    let config = FarmConfig::new(vec![lossy, slow, base], 1e7, seed);
    Farm::new(config, workloads::uniform(300, 1.0).unwrap()).unwrap()
}

fn assert_reports_identical(a: &FarmReport, b: &FarmReport) {
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    assert_eq!(a.completed_work.to_bits(), b.completed_work.to_bits());
    assert_eq!(a.lost_work.to_bits(), b.lost_work.to_bits());
    assert_eq!(a.remaining_work.to_bits(), b.remaining_work.to_bits());
    assert_eq!(a.robustness, b.robustness);
}

/// The seeded farm is bit-identical untraced, memory-traced, JSONL-traced
/// and tee-traced — the pass-through contract, end to end through a real
/// file.
#[test]
fn farm_trace_is_passthrough_across_all_sinks() {
    let plain = faulty_farm(4242).run(&mut NoopSink, &mut SpanProfiler::disabled());

    let mut mem = MemorySink::new();
    assert_reports_identical(
        &plain,
        &faulty_farm(4242).run(&mut mem, &mut SpanProfiler::disabled()),
    );

    let path = std::env::temp_dir().join("cs_obs_test_passthrough.jsonl");
    let mut jsonl = JsonlSink::create(&path).unwrap();
    let mut metrics = MetricsSink::new();
    let teed = {
        let mut tee = TeeSink::new();
        tee.push(&mut jsonl);
        tee.push(&mut metrics);
        faulty_farm(4242).run(&mut tee, &mut SpanProfiler::disabled())
    };
    assert_reports_identical(&plain, &teed);
    let lines = jsonl.finish().unwrap();
    assert_eq!(lines as usize, mem.events.len());

    // Every line on disk decodes back to the in-memory event it was
    // rendered from.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let disk: Vec<String> = text.lines().map(String::from).collect();
    assert_eq!(disk.len(), mem.events.len());
    for (line, event) in disk.iter().zip(&mem.events) {
        assert_eq!(line, &event.to_jsonl());
        assert_eq!(Event::from_jsonl(line).as_ref(), Ok(event), "{line}");
    }

    // The metrics fold reconciles with the report.
    let r = &metrics.registry;
    assert_eq!(r.counter("lease_timeouts"), plain.robustness.lease_timeouts);
    assert_eq!(
        r.gauge("run_banked").unwrap().to_bits(),
        plain.completed_work.to_bits()
    );
    assert_eq!(
        r.gauge("run_lost").unwrap().to_bits(),
        plain.lost_work.to_bits()
    );
}

/// Per-workstation `bank` events sum (in event order) to exactly the
/// per-workstation completed work the report prints — bitwise, not within
/// epsilon.
#[test]
fn bank_events_reconcile_bitwise_with_the_report() {
    let mut mem = MemorySink::new();
    let report = faulty_farm(99).run(&mut mem, &mut SpanProfiler::disabled());
    let mut bank_sum = vec![0.0f64; report.per_workstation.len()];
    let mut timeouts = 0u64;
    for e in &mem.events {
        match e.kind {
            EventKind::Bank { ws, work, .. } => bank_sum[ws as usize] += work,
            EventKind::LeaseTimeout { .. } => timeouts += 1,
            _ => {}
        }
    }
    for (ws, st) in report.per_workstation.iter().enumerate() {
        assert_eq!(
            bank_sum[ws].to_bits(),
            st.completed_work.to_bits(),
            "ws {ws}: {} vs {}",
            bank_sum[ws],
            st.completed_work
        );
    }
    assert!(timeouts > 0, "the lossy workstation should time out leases");
    assert_eq!(timeouts, report.robustness.lease_timeouts);
}

/// The observed Monte-Carlo harness is pass-through too, and its trace
/// carries episode lifecycle plus monotone `mc_progress` ticks.
#[test]
fn monte_carlo_trace_is_passthrough_with_progress() {
    let p = Uniform::new(100.0).unwrap();
    let plan = search::best_guideline_schedule(&p, 2.0).unwrap();
    let trials = 500u64;
    let plain = simulate(
        &plan.schedule,
        &p,
        2.0,
        trials,
        31,
        1,
        NoopSink,
        &mut SpanProfiler::disabled(),
    );
    let mut mem = MemorySink::new();
    let traced = simulate(
        &plan.schedule,
        &p,
        2.0,
        trials,
        31,
        1,
        &mut mem,
        &mut SpanProfiler::disabled(),
    );
    assert_eq!(plain.work.mean().to_bits(), traced.work.mean().to_bits());
    assert_eq!(plain.interrupted_fraction, traced.interrupted_fraction);

    let mut last_done = 0u64;
    let mut progress = 0u64;
    for e in &mem.events {
        if let EventKind::McProgress { done, total } = e.kind {
            assert!(done > last_done, "progress must be monotone");
            assert_eq!(total, trials);
            last_done = done;
            progress += 1;
        }
    }
    assert!(
        progress >= 20,
        "expected ~20 progress ticks, got {progress}"
    );
    assert_eq!(last_done, trials);
    assert!(matches!(
        mem.events.last().unwrap().kind,
        EventKind::RunEnd { .. }
    ));

    // And the no-op sink really is a no-op path.
    let noop = simulate(
        &plan.schedule,
        &p,
        2.0,
        trials,
        31,
        1,
        NoopSink,
        &mut SpanProfiler::disabled(),
    );
    assert_eq!(plain.work.mean().to_bits(), noop.work.mean().to_bits());
}
