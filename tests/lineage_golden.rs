//! Lineage-reconstruction contract (`obs path` / `obs chunks`
//! semantics): on a pinned seeded faulty farm trace the reconstructed
//! critical path, chunk waterfall and phase attribution match a golden
//! rendering byte for byte, and property tests pin the two invariants the
//! CLI banks on — the phase rows sum to the wall time, and the
//! re-accumulated lost work reconciles **bitwise** with
//! `FarmReport::lost_work` — plus the heartbeat pass-through guarantee
//! (a teed `ProgressSink` changes neither the event stream nor the
//! report).

use cs_life::{ArcLife, Uniform};
use cs_now::farm::{Farm, FarmConfig, PolicySpec, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_obs::{
    analyze_lineage, decode_lines, Event, LineageAnalysis, MemorySink, ProgressSink, SpanProfiler,
    TeeSink,
};
use cs_tasks::workloads;
use proptest::prelude::*;
use std::sync::Arc;

/// The pinned scenario: three workstations — one lossy, one straggling,
/// one clean — over 300 unit tasks. Identical shape to the
/// `obs_analyzer` end-to-end farm so the fixture exercises requeues,
/// stragglers and end-game replicas.
fn faulty_farm(seed: u64, tasks: usize) -> Farm {
    let life: ArcLife = Arc::new(Uniform::new(140.0).unwrap());
    let base = WorkstationConfig {
        life: life.clone(),
        believed: life,
        c: 2.0,
        policy: PolicySpec::Guideline,
        gap_mean: 9.0,
        faults: FaultPlan::none(),
    };
    let mut lossy = base.clone();
    lossy.faults.loss_prob = 0.35;
    let mut slow = base.clone();
    slow.faults.slowdown = 3.0;
    let config = FarmConfig::new(vec![lossy, slow, base], 1e7, seed);
    Farm::new(config, workloads::uniform(tasks, 1.0).unwrap()).unwrap()
}

fn trace_lines(seed: u64, tasks: usize) -> (Vec<String>, cs_now::farm::FarmReport) {
    let mut sink = MemorySink::new();
    let report = faulty_farm(seed, tasks).run(&mut sink, &mut SpanProfiler::disabled());
    (sink.events.iter().map(Event::to_jsonl).collect(), report)
}

/// A compact deterministic rendering of everything `obs path` and
/// `obs chunks` print: the critical-path chain, the phase rows, the
/// slowest chunks and the loss reconciliation. Golden-pinned below.
fn render_waterfall(a: &LineageAnalysis) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "scenario {} ws {} tasks seed {} | {} chunks {} episodes",
        a.workstations,
        a.tasks,
        a.seed,
        a.chunks.len(),
        a.episodes
    )
    .unwrap();
    writeln!(
        s,
        "makespan {:.4} wall {:.4} banked {:.4} lost {:.4}",
        a.phases.makespan, a.phases.wall, a.banked, a.lost_work
    )
    .unwrap();
    let chain: Vec<String> = a
        .critical_path
        .iter()
        .map(|&id| {
            let c = &a.chunks[id];
            format!("#{}:ws{}:{}", c.id, c.ws, c.fate.label())
        })
        .collect();
    writeln!(s, "critical-path {}", chain.join(" -> ")).unwrap();
    for (label, v) in a.phases.rows() {
        writeln!(s, "phase {label} {v:.4}").unwrap();
    }
    let mut by_service: Vec<&cs_obs::ChunkRecord> = a.chunks.iter().collect();
    by_service.sort_by(|x, y| {
        y.service
            .partial_cmp(&x.service)
            .unwrap()
            .then(x.id.cmp(&y.id))
    });
    for c in by_service.iter().take(5) {
        writeln!(
            s,
            "slow #{}:ws{} queue {:.4} service {:.4} {} retries {}",
            c.id,
            c.ws,
            c.queue_wait,
            c.service,
            c.fate.label(),
            c.retries
        )
        .unwrap();
    }
    writeln!(
        s,
        "totals requeues {} replicas {} dispatch-crashes {} reconciles {}",
        a.requeues,
        a.replicas,
        a.dispatch_crashes,
        a.loss_reconciles()
    )
    .unwrap();
    s
}

#[test]
fn pinned_faulty_trace_matches_the_golden_waterfall() {
    let (lines, report) = trace_lines(77, 300);
    let a = analyze_lineage(&decode_lines(lines.iter().map(String::as_str)).unwrap()).unwrap();
    assert!(a.warnings.is_empty(), "warnings: {:?}", a.warnings);
    // The reconstruction agrees with the farm's own report bitwise on
    // both totals before any rendering is compared.
    assert_eq!(a.lost_work.to_bits(), report.lost_work.to_bits());
    assert_eq!(a.banked.to_bits(), report.completed_work.to_bits());
    let golden = include_str!("fixtures/lineage_waterfall_seed77.txt");
    let rendered = render_waterfall(&a);
    assert!(
        rendered == golden,
        "golden mismatch; update tests/fixtures/lineage_waterfall_seed77.txt \
         if the change is intended:\n--- rendered ---\n{rendered}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Phase attribution sums to the wall time and lost work reconciles
    /// bitwise with the farm report, across seeds and run lengths.
    #[test]
    fn phases_sum_to_wall_and_losses_reconcile(seed in 0u64..1000, tasks in 50usize..400) {
        let (lines, report) = trace_lines(seed, tasks);
        let a = analyze_lineage(&decode_lines(lines.iter().map(String::as_str)).unwrap()).unwrap();
        prop_assert!(a.run_complete);
        prop_assert!(a.warnings.is_empty(), "warnings: {:?}", a.warnings);
        let wall = a.phases.wall;
        prop_assert!(
            (a.phases.sum() - wall).abs() <= 1e-9 * wall.max(1.0),
            "phase rows {} vs wall {wall}",
            a.phases.sum()
        );
        prop_assert_eq!(a.lost_work.to_bits(), report.lost_work.to_bits());
        prop_assert_eq!(a.banked.to_bits(), report.completed_work.to_bits());
        prop_assert!(a.loss_reconciles());
    }

    /// A teed heartbeat sink is strictly pass-through: the event stream
    /// and the report are bit-identical with and without it.
    #[test]
    fn heartbeats_leave_trace_and_report_bit_identical(seed in 0u64..1000) {
        let (plain_lines, plain_report) = trace_lines(seed, 120);
        let mut events = MemorySink::new();
        let mut heartbeat = ProgressSink::new(Vec::new(), 0.0);
        let mut tee = TeeSink::new();
        tee.push(&mut events);
        tee.push(&mut heartbeat);
        let report = faulty_farm(seed, 120).run(&mut tee, &mut SpanProfiler::disabled());
        let lines: Vec<String> = events.events.iter().map(Event::to_jsonl).collect();
        prop_assert_eq!(&lines, &plain_lines);
        prop_assert_eq!(
            report.completed_work.to_bits(),
            plain_report.completed_work.to_bits()
        );
        prop_assert_eq!(report.lost_work.to_bits(), plain_report.lost_work.to_bits());
        prop_assert_eq!(report.makespan.to_bits(), plain_report.makespan.to_bits());
    }
}
