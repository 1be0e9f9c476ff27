//! End-to-end analyzer contract (`obs check` / `obs report` semantics):
//! a seeded, fault-injected, *profiled* farm run written through a real
//! `JsonlSink` file passes every `check_text` invariant, the analyzer's
//! per-workstation bank attribution reconciles **bitwise** with the
//! `FarmReport`, and the span timing tree is consistent with the measured
//! wall clock (root span within the run's elapsed time, children nested
//! inside the root).

use cs_life::{ArcLife, Uniform};
use cs_now::farm::{Farm, FarmConfig, PolicyKind, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_obs::{analyze_trace, check_text, decode_lines, JsonlSink, NoopSink, SpanProfiler};
use cs_tasks::workloads;
use std::sync::Arc;
use std::time::Instant;

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

#[test]
fn profiled_faulty_farm_trace_checks_and_reconciles() {
    let plain = faulty_farm(77).run(&mut NoopSink, &mut SpanProfiler::disabled());

    let path = std::env::temp_dir().join("cs_obs_analyzer_e2e.jsonl");
    let mut sink = JsonlSink::create(&path).unwrap();
    let mut prof = SpanProfiler::new();
    let start = Instant::now();
    let report = faulty_farm(77).run(&mut sink, &mut prof);
    let wall_ns = start.elapsed().as_nanos() as f64;
    sink.finish().unwrap();

    // Profiling + file tracing stayed pass-through.
    assert_eq!(
        plain.completed_work.to_bits(),
        report.completed_work.to_bits()
    );
    assert_eq!(plain.makespan.to_bits(), report.makespan.to_bits());

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // The invariant gate passes, including the bitwise bank/run_end
    // reconciliation that `cyclesteal obs check` exits non-zero on.
    let summary = check_text(&text, true);
    assert!(summary.ok(), "violations: {:?}", summary.violations);
    assert_eq!(summary.runs, 1);
    assert_eq!(summary.reconciled_runs, 1);
    assert!(summary.spans > 0, "profiled run must carry spans");

    let a = analyze_trace(&decode_lines(text.lines()).unwrap());

    // Per-workstation bank attribution is bitwise equal to the report:
    // both sides accumulate the same f64 bank amounts in the same order.
    assert_eq!(a.per_ws.len(), report.per_workstation.len());
    for (ws, row) in &a.per_ws {
        let reported = report.per_workstation[*ws as usize].completed_work;
        assert_eq!(
            row.banked.to_bits(),
            reported.to_bits(),
            "ws {ws}: trace banked {} vs report {reported}",
            row.banked
        );
    }

    // Span-tree timing sanity: the farm.run root covers its children and
    // fits inside the elapsed wall clock measured around the run.
    let root = a
        .span_tree
        .iter()
        .find(|n| n.path == "farm.run")
        .expect("farm.run root span");
    assert_eq!(root.hist.count(), 1);
    let root_ns = root.hist.sum();
    assert!(
        root_ns > 0.0 && root_ns <= wall_ns,
        "root {root_ns} vs wall {wall_ns}"
    );
    let children_ns: f64 = a
        .span_tree
        .iter()
        .filter(|n| n.depth == 1 && n.path.starts_with("farm.run/"))
        .map(|n| n.hist.sum())
        .sum();
    assert!(
        children_ns <= root_ns,
        "children {children_ns} exceed root {root_ns}"
    );

    // The trace-derived span histograms agree with the live profiler's
    // registry on counts (same spans, two recording paths).
    for node in &a.span_tree {
        let live = prof.registry().histogram(&format!("span_ns.{}", node.name));
        assert!(
            live.map(cs_obs::Histogram::count).unwrap_or(0) >= node.hist.count(),
            "{}: live profiler missing spans",
            node.name
        );
    }
}

#[test]
fn corrupted_trace_fails_the_check_gate() {
    let path = std::env::temp_dir().join("cs_obs_analyzer_corrupt.jsonl");
    let mut sink = JsonlSink::create(&path).unwrap();
    let mut prof = SpanProfiler::new();
    faulty_farm(78).run(&mut sink, &mut prof);
    sink.finish().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Tamper with the first bank event's amount (prepending a digit keeps
    // the JSON valid but changes the value): the bitwise reconciliation
    // against run_end.banked must now fail.
    let mut done = false;
    let tampered: Vec<String> = text
        .lines()
        .map(|l| {
            if !done && l.contains("\"type\":\"bank\"") {
                done = true;
                l.replacen("\"work\":", "\"work\":9", 1)
            } else {
                l.to_string()
            }
        })
        .collect();
    assert!(done, "trace has at least one bank event");
    let summary = check_text(&tampered.join("\n"), true);
    assert!(
        summary.violations.iter().any(|v| v.contains("reconcile")),
        "tampered bank amount must break reconciliation: {:?}",
        summary.violations
    );

    // Truncation (lost tail) must also fail.
    let lines: Vec<&str> = text.lines().collect();
    let summary = check_text(&lines[..lines.len() - 1].join("\n"), true);
    assert!(!summary.ok(), "truncated trace must fail the gate");
}
