//! Observability drills through the real `cyclesteal` binary: the
//! `exp_obs_validate` contract check over a live farm trace, and forged
//! snapshot sidecars failing `obs replay --fork` with a typed message
//! instead of a panic or an allocation abort.

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

#[test]
fn obs_validate_passes_on_a_profiled_farm_trace() {
    let dir = scratch("obs_validate");
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

/// FNV-1a 64, the sidecar checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const SNAPSHOT_FIXTURE: &str = include_str!("../../../tests/fixtures/farm_faulty.snapshot.txt");

#[test]
fn forged_snapshot_counts_fail_fork_with_a_typed_error() {
    let dir = scratch("forged_fork");
    let trailer = "checksum 0123456789abcdef\n".len();
    let body = &SNAPSHOT_FIXTURE[..SNAPSHOT_FIXTURE.len() - trailer];
    for (from, to) in [
        (" next_lease 8\n", " next_lease 1152921504606846975\n"),
        (" tasks 300\n", " tasks 1152921504606846975\n"),
    ] {
        assert!(body.contains(from), "{from:?} not in the fixture");
        let forged = body.replacen(from, to, 1);
        let journal = dir.join("j.jsonl");
        let sidecar = format!("{forged}checksum {:016x}\n", fnv1a64(forged.as_bytes()));
        std::fs::write(dir.join("j.jsonl.snap"), sidecar).unwrap();
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
