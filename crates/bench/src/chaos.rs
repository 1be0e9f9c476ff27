//! The deterministic chaos harness: kill the master everywhere, prove
//! recovery is exact.
//!
//! The journal layer (`cs_obs::journal` + `cs_now::journal`) promises a
//! *kill-anywhere* guarantee: crash the master at any journal record
//! boundary — even mid-write, leaving a torn final record — and
//! [`cs_now::Farm::resume`] finishes the episode with a `FarmReport`
//! **bitwise identical** to the uninterrupted run, stitching the journal
//! into the exact byte stream the uninterrupted run would have written.
//!
//! [`run_chaos`] enforces that promise exhaustively: it journals one
//! seeded faulty reference run (with state snapshots on a fixed cadence),
//! then for every (or every `sample`-th) record boundary truncates the
//! journal there — alternately appending a torn record fragment, the
//! signature of a real mid-write crash — resumes, and byte/bit-compares.
//! Each kill point also cycles the snapshot sidecar through its three
//! recovery modes: intact (the O(snapshot-interval) fast path, or a
//! `journal-ahead` fallback when the snapshot outruns the truncated
//! journal), deliberately corrupted (graceful fallback to full redo), and
//! absent (plain redo). The *same* bitwise guarantees must hold in every
//! mode. Any deviation is collected as a mismatch, and mismatches fail
//! the `exp_chaos` experiment and the `cyclesteal chaos` command.
//! Everything is seeded and virtual-time: no sleeps, no real signals,
//! fully reproducible.
//!
//! With [`ChaosConfig::disk_faults`] on, every kill point runs a second
//! resume through a seeded [`cs_obs::FaultyVfs`], cycling all five
//! injectable fault kinds (failed/short writes, fsync errors, rename
//! failures, ENOSPC) and both [`cs_now::IoErrorPolicy`] modes. The
//! contract per trial: either the resume completes with a **bitwise**
//! report (clean or degraded), or it fails with the **typed, predicted**
//! injected error — and in every case whatever the faulty disk left
//! behind must still recover bitwise under a clean filesystem.

use cs_life::{ArcLife, Uniform};
use cs_now::farm::{Farm, FarmConfig, FarmReport, PolicySpec, WorkstationConfig};
use cs_now::faults::FaultPlan;
use cs_now::{
    default_snapshot_path, inspect_snapshot, IoErrorPolicy, JournalError, JournalOptions,
    SnapshotErrorKind, SnapshotOutcome,
};
use cs_obs::vfs::StdVfs;
use cs_obs::{injected_kind, FaultAt, FaultKind, FaultyVfs, ALL_FAULT_KINDS};
use cs_tasks::{workloads, TaskBag};
use std::path::PathBuf;
use std::sync::Arc;

/// Scenario knobs for one chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Borrowed workstations in the farm.
    pub workstations: usize,
    /// Unit tasks in the bag.
    pub tasks: usize,
    /// Run seed (fixes the whole fault schedule).
    pub seed: u64,
    /// [`FaultPlan::scaled`] intensity for every workstation.
    pub intensity: f64,
    /// Kill at this many evenly spaced record boundaries instead of every
    /// one (`None` = every boundary — the full kill-anywhere proof).
    pub sample: Option<usize>,
    /// Snapshot cadence (virtual time) for the reference run's sidecar.
    pub snapshot_every: f64,
    /// Worker threads for the kill/resume trials (`1` = in-place serial).
    /// Trials are independent — each gets its own scratch journal — and
    /// their outcomes are merged in kill-point order, so the
    /// [`ChaosOutcome`] is identical for every thread count.
    pub threads: usize,
    /// Wall-clock cadence for `RUN-PROGRESS` heartbeats on stderr during
    /// the reference journaled run (`None` = silent). The kill/resume
    /// trials themselves stay quiet — hundreds of short resumes
    /// heartbeating concurrently would be noise, not telemetry.
    pub progress_every: Option<f64>,
    /// Run a second, disk-faulted resume at every kill point: a seeded
    /// [`FaultyVfs`] injects one planned fault (kind cycling through
    /// [`ALL_FAULT_KINDS`], policy alternating fail-stop/degrade) and the
    /// trial demands a bitwise report or the typed injected error — plus
    /// bitwise recovery under a clean filesystem afterwards.
    pub disk_faults: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            workstations: 4,
            tasks: 200,
            seed: 4242,
            intensity: 0.6,
            sample: None,
            snapshot_every: 10.0,
            threads: 1,
            progress_every: None,
            disk_faults: false,
        }
    }
}

/// What a chaos sweep found.
#[derive(Debug, Clone, Default)]
pub struct ChaosOutcome {
    /// Records in the uninterrupted reference journal.
    pub records: usize,
    /// Kill points exercised.
    pub kill_points: usize,
    /// Kill points that additionally injected a torn record fragment.
    pub torn_trials: usize,
    /// Trials whose sidecar was deliberately corrupted before resuming.
    pub corrupt_trials: usize,
    /// Resumes that took the snapshot fast path (prefix skipped).
    pub snapshot_resumes: usize,
    /// Resumes that fell back to full redo after a sidecar problem.
    pub snapshot_fallbacks: usize,
    /// Resumes whose report and stitched journal matched exactly.
    pub resumed_ok: usize,
    /// Disk-faulted resumes run (one per kill point when
    /// [`ChaosConfig::disk_faults`] is on).
    pub disk_fault_trials: usize,
    /// Distinct injected fault kinds that actually fired, sorted.
    pub fault_kinds_fired: Vec<FaultKind>,
    /// Disk-faulted resumes that completed degraded (in-memory) with a
    /// bitwise report.
    pub degraded_completions: usize,
    /// Disk-faulted resumes that fail-stopped with the typed injected
    /// error and recovered bitwise afterwards.
    pub fail_stop_errors: usize,
    /// Every deviation found (empty = kill-anywhere guarantee holds).
    pub mismatches: Vec<String>,
}

impl ChaosOutcome {
    /// True when every kill point recovered exactly.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty() && self.resumed_ok == self.kill_points
    }
}

/// The chaos scenario's farm: a mildly heterogeneous NOW under the
/// canonical scaled fault mix with periodic reclaim storms (the
/// `exp_fault_tolerance` shape, sized for exhaustive killing).
pub fn chaos_farm_config(cfg: &ChaosConfig) -> FarmConfig {
    let workstations = (0..cfg.workstations)
        .map(|i| {
            let life: ArcLife = Arc::new(Uniform::new(120.0 + 20.0 * (i % 3) as f64).unwrap());
            WorkstationConfig {
                life: life.clone(),
                believed: life,
                c: 2.0,
                policy: PolicySpec::Guideline,
                gap_mean: 10.0,
                faults: FaultPlan::scaled(cfg.intensity),
            }
        })
        .collect();
    let mut config = FarmConfig::new(workstations, 1e6, cfg.seed);
    config.storms = (1..=10).map(|k| 400.0 * k as f64).collect();
    config
}

fn chaos_bag(cfg: &ChaosConfig) -> TaskBag {
    workloads::uniform(cfg.tasks, 1.0).expect("positive task count")
}

/// Bitwise comparison of two farm reports; returns the first difference.
fn report_diff(a: &FarmReport, b: &FarmReport) -> Option<String> {
    let f = |name: &str, x: f64, y: f64| {
        (x.to_bits() != y.to_bits()).then(|| format!("{name}: {x:?} != {y:?}"))
    };
    f("makespan", a.makespan, b.makespan)
        .or_else(|| f("completed_work", a.completed_work, b.completed_work))
        .or_else(|| f("lost_work", a.lost_work, b.lost_work))
        .or_else(|| f("remaining_work", a.remaining_work, b.remaining_work))
        .or_else(|| (a.drained != b.drained).then(|| "drained differs".to_string()))
        .or_else(|| (a.robustness != b.robustness).then(|| "robustness differs".to_string()))
        .or_else(|| {
            a.per_workstation
                .iter()
                .zip(&b.per_workstation)
                .enumerate()
                .find_map(|(ws, (x, y))| {
                    f(
                        &format!("ws {ws} completed_work"),
                        x.completed_work,
                        y.completed_work,
                    )
                    .or_else(|| f(&format!("ws {ws} lost_work"), x.lost_work, y.lost_work))
                    .or_else(|| {
                        (x.chunks_completed != y.chunks_completed
                            || x.episodes != y.episodes
                            || x.lease_timeouts != y.lease_timeouts)
                            .then(|| format!("ws {ws} counters differ"))
                    })
                })
        })
}

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cs_chaos_{tag}_{}.jsonl", std::process::id()))
}

/// One kill point's verdict. Trials are independent (each resumes from its
/// own scratch copy of the truncated journal), so the sweep can run them
/// on the pool and merge these in kill-point order — the merged
/// [`ChaosOutcome`] is identical for every thread count.
#[derive(Debug, Default)]
struct TrialOutcome {
    torn: bool,
    corrupt: bool,
    snapshot_resume: bool,
    snapshot_fallback: bool,
    resumed_ok: bool,
    disk_trial: bool,
    fault_fired: Option<FaultKind>,
    degraded_completion: bool,
    fail_stop_error: bool,
    mismatches: Vec<String>,
}

/// The disk-faulted resume at one kill point: re-stage the truncated
/// journal (`staged.0`) and the intact sidecar (`staged.1`, when the
/// reference run wrote one), then resume through a [`FaultyVfs`] whose
/// one planned fault cycles kind with the trial index and whose
/// [`IoErrorPolicy`] alternates by parity. The contract: the resume
/// either completes with a report bitwise equal to `reference.0` (clean
/// or degraded), or fails with exactly the injected error — and whatever
/// the faulty disk left behind must then recover bitwise under a clean
/// filesystem.
fn run_disk_trial(
    cfg: &ChaosConfig,
    trial: usize,
    k: usize,
    staged: (&[u8], Option<&[u8]>),
    reference: (&FarmReport, &[u8]),
    t: &mut TrialOutcome,
) {
    let (prefix, snap_bytes) = staged;
    let (ref_report, ref_bytes) = reference;
    let trial_path = scratch_path(&format!("trial_{}_{trial}", cfg.seed));
    let trial_snap = default_snapshot_path(&trial_path);
    t.disk_trial = true;
    let kind = ALL_FAULT_KINDS[trial % ALL_FAULT_KINDS.len()];
    let index = (trial / ALL_FAULT_KINDS.len()) as u64 % 3;
    let policy = if trial % 2 == 0 {
        IoErrorPolicy::FailStop
    } else {
        IoErrorPolicy::Degrade
    };
    let label = format!("disk trial after {k} records ({kind} at op {index}, {policy})");
    std::fs::remove_file(&trial_snap).ok();
    let restage = std::fs::write(&trial_path, prefix).and_then(|()| match snap_bytes {
        Some(bytes) => std::fs::write(&trial_snap, bytes),
        None => Ok(()),
    });
    if let Err(e) = restage {
        t.mismatches.push(format!("{label}: restage failed: {e}"));
        return;
    }
    let clean_opts = JournalOptions {
        snapshot_every: Some(cfg.snapshot_every),
        ..JournalOptions::guideline(&chaos_farm_config(cfg))
    };
    let vfs = FaultyVfs::with_plan(&[FaultAt { kind, index }]);
    let disk_opts = JournalOptions {
        on_io_error: policy,
        ..clean_opts
    };
    let result = Farm::resume(
        chaos_farm_config(cfg),
        chaos_bag(cfg),
        &trial_path,
        disk_opts,
        &vfs,
    );
    t.fault_fired = vfs.fired().first().copied();
    let mut check_clean_recovery = false;
    match result {
        Ok((report, info)) => {
            if let Some(d) = report_diff(ref_report, &report) {
                t.mismatches.push(format!("{label}: report differs: {d}"));
            }
            if info.degraded {
                t.degraded_completion = true;
                check_clean_recovery = true;
                // Journaling stopped at the fault, but every byte that did
                // land must be a prefix of the reference stream.
                match std::fs::read(&trial_path) {
                    Ok(bytes) if !ref_bytes.starts_with(&bytes) => t.mismatches.push(format!(
                        "{label}: degraded journal is not a prefix of the reference stream"
                    )),
                    Err(e) => t
                        .mismatches
                        .push(format!("{label}: degraded journal unreadable: {e}")),
                    _ => {}
                }
            } else {
                // The fault missed the journal stream (or hit only the
                // advisory snapshot path): the stitched journal must
                // still be byte-exact.
                match std::fs::read(&trial_path) {
                    Ok(bytes) if bytes != ref_bytes => t
                        .mismatches
                        .push(format!("{label}: stitched journal differs")),
                    Err(e) => t.mismatches.push(format!("{label}: reread failed: {e}")),
                    _ => {}
                }
            }
        }
        Err(JournalError::Io(io)) if injected_kind(&io) == Some(kind) => {
            t.fail_stop_error = true;
            check_clean_recovery = true;
        }
        Err(e) => {
            t.mismatches.push(format!(
                "{label}: expected the injected {kind} error, got: {e}"
            ));
            check_clean_recovery = true;
        }
    }
    if check_clean_recovery {
        // Whatever the faulty disk left behind must still recover exactly
        // once the filesystem behaves.
        match Farm::resume(
            chaos_farm_config(cfg),
            chaos_bag(cfg),
            &trial_path,
            clean_opts,
            &StdVfs,
        ) {
            Ok((report, _info)) => {
                if let Some(d) = report_diff(ref_report, &report) {
                    t.mismatches
                        .push(format!("{label}: clean re-resume report differs: {d}"));
                }
                match std::fs::read(&trial_path) {
                    Ok(bytes) if bytes != ref_bytes => t
                        .mismatches
                        .push(format!("{label}: clean re-resume journal differs")),
                    Err(e) => t
                        .mismatches
                        .push(format!("{label}: clean re-resume reread failed: {e}")),
                    _ => {}
                }
            }
            Err(e) => t
                .mismatches
                .push(format!("{label}: clean re-resume failed: {e}")),
        }
    }
}

/// Runs one full chaos sweep: reference journaled run, then kill + resume
/// at each selected record boundary. Returns the outcome; hard setup
/// failures (unwritable temp dir, invalid scenario) are `Err`.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosOutcome, String> {
    let ref_path = scratch_path(&format!("ref_{}", cfg.seed));
    let ref_snap = default_snapshot_path(&ref_path);
    let config = chaos_farm_config(cfg);
    let opts = JournalOptions {
        snapshot_every: Some(cfg.snapshot_every),
        progress_every: cfg.progress_every,
        ..JournalOptions::guideline(&config)
    };
    let farm = Farm::new(config, chaos_bag(cfg)).map_err(|e| e.to_string())?;
    let (ref_report, _stats) = farm
        .run_journaled(&ref_path, opts, &StdVfs)
        .map_err(|e| format!("reference journaled run: {e}"))?;
    let ref_bytes = std::fs::read(&ref_path).map_err(|e| e.to_string())?;
    // The reference run's final sidecar: which journal prefix it covers
    // decides whether an intact copy is a fast path or a journal-ahead
    // fallback at each kill point.
    let snap_bytes = std::fs::read(&ref_snap).ok();
    let snap_records = match &snap_bytes {
        Some(_) => Some(
            inspect_snapshot(&ref_snap)
                .map_err(|e| format!("reference sidecar unreadable: {e}"))?
                .journal_records,
        ),
        None => None,
    };
    let records: Vec<&[u8]> = ref_bytes.split_inclusive(|&b| b == b'\n').collect();
    let n = records.len();
    if n < 3 {
        return Err(format!("degenerate scenario: only {n} journal records"));
    }

    // The uninterrupted journal itself must pass the strict invariant gate.
    let mut out = ChaosOutcome {
        records: n,
        ..Default::default()
    };
    let ref_text = String::from_utf8_lossy(&ref_bytes);
    let check = cs_obs::check_text(&ref_text, true);
    if !check.ok() {
        out.mismatches.push(format!(
            "reference journal fails obs check: {:?}",
            check.violations
        ));
    }

    // Kill boundaries: after k committed records, k in 1..n (killing after
    // all n records is the complete-journal verification case, also
    // exercised).
    let kill_points: Vec<usize> = match cfg.sample {
        None => (1..=n).collect(),
        Some(s) if s >= n => (1..=n).collect(),
        Some(s) => {
            let s = s.max(2);
            // Evenly spaced over [1, n], endpoints included.
            (0..s).map(|i| 1 + i * (n - 1) / (s - 1)).collect()
        }
    };
    let total_work = cfg.tasks as f64;
    // One kill point, end to end: stage the truncated journal (plus torn
    // fragment and sidecar mode), resume, and verify every guarantee.
    // Pure with respect to shared state — all inputs are read-only borrows
    // and each trial owns its scratch files — so trials can run on the
    // pool in any order.
    let run_trial = |trial: usize| -> TrialOutcome {
        let k = kill_points[trial];
        let mut t = TrialOutcome::default();
        let trial_path = scratch_path(&format!("trial_{}_{trial}", cfg.seed));
        let trial_snap = default_snapshot_path(&trial_path);
        let torn = trial % 2 == 1 && k < n;
        let mut prefix: Vec<u8> = records[..k].concat();
        if torn {
            // A mid-write crash: the next record got partially out.
            prefix.extend_from_slice(b"{\"v\":2,\"t\":17.25,\"typ");
            t.torn = true;
        }
        if let Err(e) = std::fs::write(&trial_path, &prefix) {
            t.mismatches
                .push(format!("kill after {k} records: scratch write failed: {e}"));
            return t;
        }
        // Cycle the sidecar through its three recovery modes: intact copy
        // of the reference snapshot, corrupted copy, and no sidecar. The
        // complete-journal trial (k = n) always gets the intact sidecar —
        // it is the one kill point guaranteed to satisfy the fast path's
        // snapshot-not-ahead precondition, so the sweep always exercises
        // an O(snapshot-interval) resume.
        let mode = if k == n { 0 } else { trial % 3 };
        std::fs::remove_file(&trial_snap).ok();
        let staged = match (mode, &snap_bytes) {
            (0, Some(bytes)) => std::fs::write(&trial_snap, bytes),
            (1, Some(bytes)) => {
                let mut bad_bytes = bytes.clone();
                let mid = bad_bytes.len() / 2;
                bad_bytes[mid] ^= 0x01;
                t.corrupt = true;
                std::fs::write(&trial_snap, &bad_bytes)
            }
            _ => Ok(()),
        };
        if let Err(e) = staged {
            t.mismatches
                .push(format!("kill after {k} records: sidecar stage failed: {e}"));
            return t;
        }
        let trial_opts = JournalOptions {
            progress_every: None,
            ..opts
        };
        match Farm::resume(
            chaos_farm_config(cfg),
            chaos_bag(cfg),
            &trial_path,
            trial_opts,
            &StdVfs,
        ) {
            Ok((report, info)) => {
                let mut bad = false;
                if let Some(d) = report_diff(&ref_report, &report) {
                    t.mismatches
                        .push(format!("kill after {k} records: report differs: {d}"));
                    bad = true;
                }
                match std::fs::read(&trial_path) {
                    Ok(stitched) if stitched != ref_bytes => {
                        t.mismatches.push(format!(
                            "kill after {k} records: stitched journal differs \
                             ({} vs {} bytes)",
                            stitched.len(),
                            ref_bytes.len()
                        ));
                        bad = true;
                    }
                    Err(e) => {
                        t.mismatches
                            .push(format!("kill after {k} records: reread failed: {e}"));
                        bad = true;
                    }
                    _ => {}
                }
                // Work conservation, independent of the reference run.
                let mass = report.completed_work + report.remaining_work;
                if (mass - total_work).abs() > 1e-6 {
                    t.mismatches.push(format!(
                        "kill after {k} records: work not conserved: \
                         banked {} + remaining {} != {total_work}",
                        report.completed_work, report.remaining_work
                    ));
                    bad = true;
                }
                // Snapshot accounting: skipped prefix + replayed tail must
                // cover exactly the k committed records, and the outcome
                // must match the sidecar mode we staged.
                let skipped = match info.snapshot {
                    SnapshotOutcome::Used { records_skipped } => {
                        t.snapshot_resume = true;
                        records_skipped
                    }
                    SnapshotOutcome::Fallback(_) => {
                        t.snapshot_fallback = true;
                        0
                    }
                    SnapshotOutcome::None => 0,
                };
                if skipped + info.records_replayed != k as u64 {
                    t.mismatches.push(format!(
                        "kill after {k} records: skipped {skipped} + replayed {} != {k}",
                        info.records_replayed
                    ));
                    bad = true;
                }
                let outcome_ok = match (mode, snap_records) {
                    (0, Some(r)) if r <= k as u64 => {
                        matches!(info.snapshot, SnapshotOutcome::Used { .. })
                    }
                    (0, Some(_)) => {
                        info.snapshot == SnapshotOutcome::Fallback(SnapshotErrorKind::JournalAhead)
                    }
                    (1, Some(_)) => matches!(info.snapshot, SnapshotOutcome::Fallback(_)),
                    _ => info.snapshot == SnapshotOutcome::None,
                };
                if !outcome_ok {
                    t.mismatches.push(format!(
                        "kill after {k} records (sidecar mode {mode}): \
                         unexpected snapshot outcome {:?}",
                        info.snapshot
                    ));
                    bad = true;
                }
                if !bad {
                    t.resumed_ok = true;
                }
            }
            Err(e) => t
                .mismatches
                .push(format!("kill after {k} records: resume failed: {e}")),
        }
        if cfg.disk_faults {
            let staged = (prefix.as_slice(), snap_bytes.as_deref());
            run_disk_trial(cfg, trial, k, staged, (&ref_report, &ref_bytes), &mut t);
        }
        std::fs::remove_file(&trial_path).ok();
        std::fs::remove_file(&trial_snap).ok();
        let mut snap_tmp = trial_snap.into_os_string();
        snap_tmp.push(".tmp");
        std::fs::remove_file(PathBuf::from(snap_tmp)).ok();
        t
    };
    let outcomes: Vec<TrialOutcome> = if cfg.threads > 1 {
        let pool = cs_pool::Pool::new(cfg.threads);
        pool.map_indexed(kill_points.len(), run_trial)
    } else {
        (0..kill_points.len()).map(run_trial).collect()
    };
    // Merge in kill-point order: counters and mismatch strings come out
    // identical to the serial sweep regardless of scheduling.
    let mut kinds = std::collections::BTreeSet::new();
    for t in outcomes {
        out.torn_trials += usize::from(t.torn);
        out.corrupt_trials += usize::from(t.corrupt);
        out.snapshot_resumes += usize::from(t.snapshot_resume);
        out.snapshot_fallbacks += usize::from(t.snapshot_fallback);
        out.resumed_ok += usize::from(t.resumed_ok);
        out.disk_fault_trials += usize::from(t.disk_trial);
        out.degraded_completions += usize::from(t.degraded_completion);
        out.fail_stop_errors += usize::from(t.fail_stop_error);
        kinds.extend(t.fault_fired);
        out.mismatches.extend(t.mismatches);
    }
    out.fault_kinds_fired = kinds.into_iter().collect();
    out.kill_points = kill_points.len();
    std::fs::remove_file(&ref_path).ok();
    std::fs::remove_file(&ref_snap).ok();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_chaos_sweep_holds_the_kill_anywhere_guarantee() {
        let cfg = ChaosConfig {
            tasks: 80,
            sample: Some(7),
            ..Default::default()
        };
        let out = run_chaos(&cfg).unwrap();
        assert!(out.ok(), "mismatches: {:#?}", out.mismatches);
        assert_eq!(out.kill_points, 7);
        assert!(out.torn_trials >= 2, "{out:?}");
        assert!(out.records > 10);
        // All three sidecar modes must have been exercised: the last kill
        // point (k = n, sidecar mode 0) always takes the fast path.
        assert!(out.snapshot_resumes >= 1, "{out:?}");
        assert!(out.corrupt_trials >= 1, "{out:?}");
        assert!(out.snapshot_fallbacks >= out.corrupt_trials, "{out:?}");
    }

    #[test]
    fn pooled_sweep_matches_the_serial_outcome() {
        // The trials are independent and merged in kill-point order, so
        // the outcome must be identical for every thread count.
        let cfg = ChaosConfig {
            workstations: 2,
            tasks: 40,
            seed: 31,
            sample: Some(6),
            ..Default::default()
        };
        let serial = run_chaos(&cfg).unwrap();
        let pooled = run_chaos(&ChaosConfig {
            threads: 4,
            ..cfg.clone()
        })
        .unwrap();
        assert!(serial.ok(), "serial mismatches: {:#?}", serial.mismatches);
        assert!(pooled.ok(), "pooled mismatches: {:#?}", pooled.mismatches);
        assert_eq!(serial.records, pooled.records);
        assert_eq!(serial.kill_points, pooled.kill_points);
        assert_eq!(serial.torn_trials, pooled.torn_trials);
        assert_eq!(serial.corrupt_trials, pooled.corrupt_trials);
        assert_eq!(serial.snapshot_resumes, pooled.snapshot_resumes);
        assert_eq!(serial.snapshot_fallbacks, pooled.snapshot_fallbacks);
        assert_eq!(serial.resumed_ok, pooled.resumed_ok);
        assert_eq!(serial.mismatches, pooled.mismatches);
    }

    #[test]
    fn disk_faulted_sweep_holds_the_contract_across_all_fault_kinds() {
        let cfg = ChaosConfig {
            workstations: 2,
            tasks: 25,
            seed: 101,
            intensity: 0.8,
            sample: None,
            disk_faults: true,
            ..Default::default()
        };
        let out = run_chaos(&cfg).unwrap();
        assert!(out.ok(), "mismatches: {:#?}", out.mismatches);
        assert_eq!(out.disk_fault_trials, out.kill_points);
        // The exhaustive sweep must exercise every injectable fault kind,
        // both completion modes, and the fail-stop error path.
        assert_eq!(out.fault_kinds_fired, ALL_FAULT_KINDS.to_vec(), "{out:?}");
        assert!(out.degraded_completions >= 1, "{out:?}");
        assert!(out.fail_stop_errors >= 1, "{out:?}");
    }

    #[test]
    fn exhaustive_chaos_on_a_tiny_farm() {
        // Small enough to kill at EVERY record boundary in test time.
        let cfg = ChaosConfig {
            workstations: 2,
            tasks: 25,
            seed: 99,
            intensity: 0.8,
            sample: None,
            ..Default::default()
        };
        let out = run_chaos(&cfg).unwrap();
        assert!(out.ok(), "mismatches: {:#?}", out.mismatches);
        assert_eq!(out.kill_points, out.records);
        assert!(out.snapshot_resumes >= 1, "{out:?}");
        assert!(out.corrupt_trials >= 1, "{out:?}");
    }
}
