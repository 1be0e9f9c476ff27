//! Observability drills through the real `cyclesteal` binary: the
//! `exp_obs_validate` contract check and every `obs` reader over a live
//! farm trace, a heartbeating run staying pass-through, seeds above 2^53
//! surviving the trace and the journal, and forged snapshot sidecars
//! (counts, or task ids past the bag's `next_id`) failing `obs replay
//! --fork` with a typed message instead of a panic or an allocation abort.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cyclesteal(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cyclesteal"))
        .args(args)
        .output()
        .expect("spawn cyclesteal")
}

/// A fresh per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cs_cli_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn arg(path: &Path) -> &str {
    path.to_str().expect("UTF-8 temp path")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Writes the `farm --seed 42 --metrics --profile` trace into `dir`.
fn profiled_trace(dir: &Path) -> PathBuf {
    let trace = dir.join("events.jsonl");
    let farm = cyclesteal(&[
        "farm",
        "--seed",
        "42",
        "--trace-out",
        arg(&trace),
        "--metrics",
        "--profile",
    ]);
    assert!(farm.status.success(), "farm: {farm:?}");
    trace
}

/// Runs `cyclesteal obs <cmd> <trace>`, asserts exit 0, returns stdout.
fn obs_ok(cmd: &str, trace: &Path) -> String {
    let out = cyclesteal(&["obs", cmd, arg(trace)]);
    assert!(out.status.success(), "obs {cmd}: {out:?}");
    stdout(&out)
}

#[test]
fn obs_validate_passes_on_a_profiled_farm_trace() {
    let dir = scratch("obs_validate");
    let trace = profiled_trace(&dir);

    // Self-test: traced runs are bit-identical to untraced, every line is
    // schema-valid and the tallies reconcile.
    let selftest = cyclesteal(&["exp", "--id", "exp_obs_validate"]);
    assert!(selftest.status.success(), "self-test: {selftest:?}");
    let text = stdout(&selftest);
    assert!(text.contains("PASS: pass-through"), "{text}");
    assert!(text.contains("\"pass\":true"), "{text}");

    // File mode over the farm's own trace.
    let file = cyclesteal(&["exp", "--id", "exp_obs_validate", "--input", arg(&trace)]);
    assert!(file.status.success(), "file mode: {file:?}");
    let text = stdout(&file);
    let want = format!("PASS: {}: ", trace.display());
    assert!(
        text.contains(&want) && text.contains("reconciles"),
        "{text}"
    );

    // The gate fires: a trace with an unknown event fails the run.
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"v\":2,\"t\":0,\"type\":\"bogus\"}\n").unwrap();
    let rejected = cyclesteal(&["exp", "--id", "exp_obs_validate", "--input", arg(&bad)]);
    assert_eq!(rejected.status.code(), Some(1), "{rejected:?}");
    assert!(String::from_utf8_lossy(&rejected.stderr).contains("unknown event type"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_readers_pass_on_a_profiled_farm_trace() {
    let dir = scratch("obs_readers");
    let trace = profiled_trace(&dir);
    let check = obs_ok("check", &trace);
    assert!(check.contains("PASS: every invariant holds"), "{check}");
    let report = obs_ok("report", &trace);
    assert!(
        report
            .lines()
            .any(|l| l.starts_with("events ") && l.contains(" lines")),
        "{report}"
    );
    // `obs path` exits non-zero unless the lost work reconciles bitwise.
    let path = obs_ok("path", &trace);
    assert!(path.contains("bitwise IDENTICAL"), "{path}");
    obs_ok("chunks", &trace);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heartbeating_run_writes_the_plain_trace() {
    let dir = scratch("heartbeat");
    let plain = dir.join("events.plain.jsonl");
    let hb = dir.join("events.hb.jsonl");
    let out = cyclesteal(&["farm", "--seed", "42", "--trace-out", arg(&plain)]);
    assert!(out.status.success(), "plain: {out:?}");
    let out = cyclesteal(&[
        "farm",
        "--seed",
        "42",
        "--trace-out",
        arg(&hb),
        "--progress-every",
        "0",
    ]);
    assert!(out.status.success(), "heartbeat: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("RUN-PROGRESS"));
    assert!(
        std::fs::read(&plain).unwrap() == std::fs::read(&hb).unwrap(),
        "a heartbeat changed the trace bytes"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// 2^60 + 1: exact in `u64`, not in `f64`.
const BIG_SEED: &str = "1152921504606846977";

#[test]
fn seeds_above_2_pow_53_survive_the_trace_and_the_journal() {
    let dir = scratch("big_seed");
    let trace = dir.join("t.jsonl");
    let out = cyclesteal(&["farm", "--seed", BIG_SEED, "--trace-out", arg(&trace)]);
    assert!(out.status.success(), "farm: {out:?}");
    let check = obs_ok("check", &trace);
    assert!(check.contains("PASS: every invariant holds"), "{check}");
    obs_ok("report", &trace);
    let path = obs_ok("path", &trace);
    assert!(path.contains(&format!("seed {BIG_SEED}")), "{path}");

    // The journal of the same farm resumes: the finished run verifies
    // every record and prints the same report.
    let journal = dir.join("j.jsonl");
    let run = cyclesteal(&["farm", "--seed", BIG_SEED, "--journal", arg(&journal)]);
    assert!(run.status.success(), "journaled: {run:?}");
    let resume = cyclesteal(&["farm", "--seed", BIG_SEED, "--resume", arg(&journal)]);
    assert!(resume.status.success(), "resume: {resume:?}");
    let report = |out: &Output| stdout(out).split("\n\n").next().unwrap().to_string();
    assert_eq!(report(&run), report(&resume));
    assert!(report(&run).contains("banked work"), "{}", report(&run));
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a 64, the sidecar checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const SNAPSHOT_FIXTURE: &str = include_str!("../../../tests/fixtures/farm_faulty.snapshot.txt");

/// The journal the snapshot fixture binds to (its first 139 records).
const JOURNAL_FIXTURE: &str = include_str!("../../../tests/fixtures/farm_faulty.journal.jsonl");

#[test]
fn forged_snapshot_counts_fail_fork_with_a_typed_error() {
    let dir = scratch("forged_fork");
    std::fs::write(dir.join("j.jsonl"), JOURNAL_FIXTURE).unwrap();
    let trailer = "checksum 0123456789abcdef\n".len();
    let body = &SNAPSHOT_FIXTURE[..SNAPSHOT_FIXTURE.len() - trailer];
    for (from, to) in [
        (" next_lease 8\n", " next_lease 1152921504606846975\n"),
        (" tasks 300\n", " tasks 1152921504606846975\n"),
        ("298 299\n", "298 1152921504606846975\n"),
        ("task 86 ", "task 1152921504606846975 "),
        (" 264:", " 1152921504606846975:"),
    ] {
        assert!(body.contains(from), "{from:?} not in the fixture");
        let forged = body.replacen(from, to, 1);
        let journal = dir.join("j.jsonl");
        let sidecar = format!("{forged}checksum {:016x}\n", fnv1a64(forged.as_bytes()));
        std::fs::write(dir.join("j.jsonl.snap.0"), sidecar).unwrap();
        let out = cyclesteal(&[
            "obs",
            "replay",
            "--journal",
            arg(&journal),
            "--fork",
            "--workstations",
            "8",
            "--tasks",
            "300",
            "--seed",
            "42",
            "--faults",
            "0.6",
        ]);
        assert_eq!(out.status.code(), Some(1), "{to:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("inconsistent snapshot"), "{to:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
