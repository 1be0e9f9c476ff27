//! Golden fixtures pinning the farm's observable outputs bit-for-bit.
//!
//! The committed files under `tests/fixtures/` were produced by the
//! pre-overhaul event loop (reversed `BinaryHeap` + `BTreeMap` leases +
//! eager JSONL rendering). Every later rewrite of the inner loop must
//! reproduce them byte-identically: the journal is the full event stream,
//! the snapshot sidecar is the complete mid-run engine state, and the
//! report digest pins every `f64` by its bit pattern.
//!
//! Regenerate (only when an *intentional* observable change lands):
//!
//! ```text
//! CS_REGEN_FIXTURES=1 cargo test -p cs-apps --test farm_fixtures
//! ```

use cs_life::{ArcLife, Uniform};
use cs_now::farm::{Farm, FarmConfig, FarmReport, PolicySpec, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_now::{guideline_fsync_policy, ring_snapshot_path, JournalOptions, SnapshotCadence};
use cs_obs::vfs::StdVfs;
use cs_obs::{NoopSink, SpanProfiler};
use cs_tasks::{workloads, TaskBag};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

fn workstations(n: usize, faults: FaultPlan) -> Vec<WorkstationConfig> {
    let life: ArcLife = Arc::new(Uniform::new(150.0).unwrap());
    (0..n)
        .map(|_| WorkstationConfig {
            life: life.clone(),
            believed: life.clone(),
            c: 2.0,
            policy: PolicySpec::Guideline,
            gap_mean: 10.0,
            faults: faults.clone(),
        })
        .collect()
}

/// The `farm_clean` bench shape: 8 well-behaved workstations, 400 unit
/// tasks, seed 42.
fn clean_farm() -> (FarmConfig, TaskBag) {
    let config = FarmConfig::new(workstations(8, FaultPlan::none()), 1e7, 42);
    let bag = workloads::uniform(400, 1.0).unwrap();
    (config, bag)
}

/// The `farm_faulty` bench shape plus two correlated reclaim storms: every
/// fault path (losses, stragglers, kills, storms, backoff, quarantine)
/// exercised under one seed.
fn faulty_farm() -> (FarmConfig, TaskBag) {
    let mut config = FarmConfig::new(workstations(8, FaultPlan::scaled(0.5)), 1e7, 42);
    config.storms = vec![40.0, 90.0];
    let bag = workloads::uniform(300, 1.0).unwrap();
    (config, bag)
}

/// A faulty farm with storms over a bag of unequal tasks, so a checked-out
/// chunk spans many runs of the task bag instead of one.
fn non_uniform_farm(bag: TaskBag) -> (FarmConfig, TaskBag) {
    let mut config = FarmConfig::new(workstations(8, FaultPlan::scaled(0.6)), 1e7, 42);
    config.storms = vec![40.0, 90.0];
    (config, bag)
}

/// 300 tasks of `1 ± 0.5`: every task is its own run.
fn jittered_farm() -> (FarmConfig, TaskBag) {
    let mut rng = StdRng::seed_from_u64(7);
    non_uniform_farm(workloads::jittered(300, 1.0, 0.5, &mut rng).unwrap())
}

/// 300 tasks, 30% of them 3.0 and the rest 0.5: runs of a few tasks.
fn bimodal_farm() -> (FarmConfig, TaskBag) {
    let mut rng = StdRng::seed_from_u64(11);
    non_uniform_farm(workloads::bimodal(300, 0.5, 3.0, 0.3, &mut rng).unwrap())
}

fn fx(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Renders every report field with `f64`s as bit patterns, so equality on
/// the digest is bit-equality on the report.
fn report_digest(r: &FarmReport) -> String {
    let mut s = String::new();
    s.push_str(&format!("makespan={}\n", fx(r.makespan)));
    s.push_str(&format!("completed_work={}\n", fx(r.completed_work)));
    s.push_str(&format!("lost_work={}\n", fx(r.lost_work)));
    s.push_str(&format!("remaining_work={}\n", fx(r.remaining_work)));
    s.push_str(&format!("drained={}\n", r.drained));
    for (i, w) in r.per_workstation.iter().enumerate() {
        s.push_str(&format!(
            "ws[{i}] completed_work={} lost_work={} duplicate_work={} \
             chunks_completed={} chunks_lost={} episodes={} idle_periods={} \
             messages_lost={} straggled_chunks={} crashes={} storm_kills={} \
             lease_timeouts={} backoff_delays={} quarantines={} \
             replicas_dispatched={} late_banks={}\n",
            fx(w.completed_work),
            fx(w.lost_work),
            fx(w.duplicate_work),
            w.chunks_completed,
            w.chunks_lost,
            w.episodes,
            w.idle_periods,
            w.messages_lost,
            w.straggled_chunks,
            w.crashes,
            w.storm_kills,
            w.lease_timeouts,
            w.backoff_delays,
            w.quarantines,
            w.replicas_dispatched,
            w.late_banks
        ));
    }
    let t = &r.robustness;
    s.push_str(&format!(
        "robustness messages_lost={} straggled_chunks={} crashes={} \
         storm_kills={} lease_timeouts={} backoff_delays={} quarantines={} \
         replicas_dispatched={} late_banks={} duplicate_work={}\n",
        t.messages_lost,
        t.straggled_chunks,
        t.crashes,
        t.storm_kills,
        t.lease_timeouts,
        t.backoff_delays,
        t.quarantines,
        t.replicas_dispatched,
        t.late_banks,
        fx(t.duplicate_work)
    ));
    s
}

/// Compares `actual` against the committed fixture, or rewrites the
/// fixture when `CS_REGEN_FIXTURES` is set.
fn check_fixture(name: &str, actual: &[u8]) {
    let path = fixtures_dir().join(name);
    if std::env::var_os("CS_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(fixtures_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); see module docs to regenerate",
            name
        )
    });
    if golden != actual {
        let limit = |b: &[u8]| String::from_utf8_lossy(&b[..b.len().min(2000)]).into_owned();
        panic!(
            "{name}: output diverged from the golden fixture \
             ({} vs {} bytes).\n--- golden head ---\n{}\n--- actual head ---\n{}",
            golden.len(),
            actual.len(),
            limit(&golden),
            limit(actual)
        );
    }
}

/// Journals a run and checks journal bytes, snapshot sidecar bytes (if
/// snapshotting) and the report digest against the goldens.
fn run_and_check(tag: &str, config: FarmConfig, bag: TaskBag, snapshot_every: SnapshotCadence) {
    let dir = std::env::temp_dir().join(format!("cs_fixture_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal_path = dir.join("run.jsonl");
    let opts = JournalOptions {
        fsync: guideline_fsync_policy(&config),
        snapshot_every,
        ..Default::default()
    };
    let (report, _stats) = Farm::new(config, bag)
        .unwrap()
        .run_journaled(&journal_path, opts, &StdVfs)
        .unwrap();
    let journal = std::fs::read(&journal_path).unwrap();
    check_fixture(&format!("{tag}.journal.jsonl"), &journal);
    if snapshot_every != SnapshotCadence::Off {
        let snap = std::fs::read(ring_snapshot_path(&journal_path, 0)).unwrap();
        check_fixture(&format!("{tag}.snapshot.txt"), &snap);
    }
    check_fixture(
        &format!("{tag}.report.txt"),
        report_digest(&report).as_bytes(),
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn farm_clean_matches_golden_fixture() {
    let (config, bag) = clean_farm();
    run_and_check("farm_clean", config, bag, SnapshotCadence::Off);
}

#[test]
fn farm_faulty_matches_golden_fixture() {
    let (config, bag) = faulty_farm();
    run_and_check("farm_faulty", config, bag, SnapshotCadence::Every(25.0));
}

#[test]
fn farm_jittered_matches_golden_fixture() {
    let (config, bag) = jittered_farm();
    run_and_check("farm_jittered", config, bag, SnapshotCadence::Every(25.0));
}

#[test]
fn farm_bimodal_matches_golden_fixture() {
    let (config, bag) = bimodal_farm();
    run_and_check("farm_bimodal", config, bag, SnapshotCadence::Every(25.0));
}

/// The unjournaled path must agree with the journaled one bit-for-bit
/// (the journal sink is pass-through).
#[test]
fn plain_run_matches_golden_report() {
    let (config, bag) = clean_farm();
    let report = Farm::new(config, bag)
        .unwrap()
        .run(&mut NoopSink, &mut SpanProfiler::disabled());
    check_fixture("farm_clean.report.txt", report_digest(&report).as_bytes());
}
