//! Durability drills through the real `cyclesteal` binary, each run with
//! its own scratch directory as the working directory: a `--kill-after`
//! crash and its resume, a corrupted snapshot sidecar falling back to full
//! redo, the snapshot ring with journal GC resumed and forked from every
//! retained generation, and a sidecar with a forged task id rejected with
//! a typed error instead of an allocation abort.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory that every command of one drill runs in.
struct Drill(PathBuf);

impl Drill {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("cs_cli_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Drill(dir)
    }

    fn run(&self, args: &str) -> Output {
        Command::new(env!("CARGO_BIN_EXE_cyclesteal"))
            .args(args.split_whitespace())
            .current_dir(&self.0)
            .output()
            .expect("spawn cyclesteal")
    }

    /// Runs `args`, asserts exit 0, returns the output.
    fn ok(&self, args: &str) -> Output {
        let out = self.run(args);
        assert!(out.status.success(), "`{args}` failed: {out:?}");
        out
    }

    /// Runs `args` and asserts it fails.
    fn fails(&self, args: &str) -> Output {
        let out = self.run(args);
        assert!(!out.status.success(), "`{args}` should fail: {out:?}");
        out
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    fn assert_files(&self, names: &[&str]) {
        for name in names {
            assert!(self.path(name).is_file(), "{name} missing");
        }
    }

    fn finish(self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Journal a faulty run and abort the master mid-episode; the torn journal
/// passes `obs check` and fails `--strict`, and a resume with identical
/// flags leaves a strict-clean journal that `obs path` reconciles bitwise.
#[test]
fn kill_then_resume_leaves_a_strict_clean_journal() {
    let d = Drill::new("kill_resume");
    let farm = "farm --seed 4242 --tasks 300 --faults 0.6";
    d.fails(&format!("{farm} --journal wal.jsonl --kill-after 40"));
    d.ok("obs check wal.jsonl");
    d.fails("obs check --strict wal.jsonl");
    d.ok(&format!("{farm} --resume wal.jsonl"));
    d.ok("obs check --strict wal.jsonl");
    // `obs path` exits non-zero unless the lost work reconciles bitwise
    // with the resumed run's run_end.
    d.ok("obs path wal.jsonl");
    d.ok("obs chunks --top 5 wal.jsonl");
    d.finish();
}

/// Crash with an explicit snapshot cadence, corrupt the sidecar: resume
/// warns, falls back to full redo and exits 0; the complete journal then
/// resumes through the snapshot, and replay and fork both succeed.
#[test]
fn corrupt_sidecar_falls_back_then_the_snapshot_restores() {
    let d = Drill::new("snap_recovery");
    let farm = "farm --seed 7 --tasks 300 --faults 0.6";
    let scenario = "--seed 7 --tasks 300 --faults 0.6";
    d.fails(&format!(
        "{farm} --journal snapwal.jsonl --snapshot-every 15 --kill-after 60"
    ));
    d.assert_files(&["snapwal.jsonl.snap"]);
    let mut sidecar = std::fs::read(d.path("snapwal.jsonl.snap")).unwrap();
    sidecar.extend_from_slice(b"garbage");
    std::fs::write(d.path("snapwal.jsonl.snap"), sidecar).unwrap();
    let resumed = d.ok(&format!("{farm} --resume snapwal.jsonl"));
    assert!(
        stderr(&resumed).contains("falling back to full redo replay"),
        "{}",
        stderr(&resumed)
    );
    d.ok("obs check --strict snapwal.jsonl");
    let again = d.ok(&format!("{farm} --resume snapwal.jsonl"));
    assert!(
        stdout(&again).contains("snapshot      : restored"),
        "{}",
        stdout(&again)
    );
    d.ok(&format!(
        "obs replay --journal snapwal.jsonl --to 60 {scenario}"
    ));
    d.ok(&format!(
        "obs replay --journal snapwal.jsonl --fork {scenario}"
    ));
    d.ok("obs check --strict snapwal.jsonl");
    d.finish();
}

/// Crashes a run with a 3-generation ring and journal GC, which leaves the
/// ring and the segment metadata behind.
fn ring_crash(d: &Drill) {
    d.fails(
        "farm --seed 5 --tasks 400 --faults 0.6 --journal ringwal.jsonl --snapshot-ring 3 \
         --journal-gc --kill-after 60",
    );
    d.assert_files(&[
        "ringwal.jsonl.snap.0",
        "ringwal.jsonl.snap.1",
        "ringwal.jsonl.snap.2",
        "ringwal.jsonl.seg",
    ]);
}

/// A ring-plus-GC crash resumes through a named generation, then replays
/// across the GC'd prefix and forks from the oldest and newest retained
/// generations.
#[test]
fn ring_and_gc_resume_and_fork_every_generation() {
    let d = Drill::new("ring_round_trip");
    ring_crash(&d);
    let scenario = "--seed 5 --tasks 400 --faults 0.6";
    let resumed = d.ok(&format!(
        "farm {scenario} --resume ringwal.jsonl --snapshot-ring 3 --journal-gc"
    ));
    let text = stdout(&resumed);
    assert!(text.contains("snapshot      : restored"), "{text}");
    assert!(text.contains("RUN-SUMMARY"), "{text}");
    d.ok(&format!(
        "obs replay --journal ringwal.jsonl --to 60 {scenario}"
    ));
    for g in [0, 2] {
        d.ok(&format!(
            "obs replay --journal ringwal.jsonl --fork --generation {g} {scenario}"
        ));
    }
    d.finish();
}

/// FNV-1a 64, the sidecar checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Rewrites a task id in the sidecar's last line starting with `key` to
/// `2^60 - 1` — the last id of an `ids` line, the id of a `task` line —
/// and recomputes the checksum.
fn forge_id(sidecar: &Path, key: &str) {
    let text = std::fs::read_to_string(sidecar).unwrap();
    let body = &text[..text.len() - "checksum 0123456789abcdef\n".len()];
    let mut lines: Vec<String> = body.lines().map(String::from).collect();
    let prefix = format!("{key} ");
    let line = lines
        .iter_mut()
        .rev()
        .find(|l| l.starts_with(&prefix))
        .expect("key in the sidecar");
    let forged = {
        let mut tokens: Vec<&str> = line.split(' ').collect();
        let i = if key == "task" { 1 } else { tokens.len() - 1 };
        tokens[i] = "1152921504606846975";
        tokens.join(" ")
    };
    *line = forged;
    let body = lines.join("\n") + "\n";
    let sidecar_text = format!("{body}checksum {:016x}\n", fnv1a64(body.as_bytes()));
    std::fs::write(sidecar, sidecar_text).unwrap();
}

/// A sidecar whose checksum holds but whose banked or pending task id lies
/// past the bag's `next_id` never aborts: with no other generation, resume
/// of the GC'd segment fails typed, and a fork from it is an `inconsistent
/// snapshot` error.
#[test]
fn forged_task_ids_fail_typed_instead_of_aborting() {
    let d = Drill::new("forged_ids");
    let scenario = "--seed 5 --tasks 400 --faults 0.6";
    let ring = "--snapshot-ring 3 --journal-gc";
    d.ok(&format!("farm {scenario} --journal ringwal.jsonl {ring}"));
    forge_id(&d.path("ringwal.jsonl.snap.0"), "ids");
    for g in [1, 2] {
        std::fs::remove_file(d.path(&format!("ringwal.jsonl.snap.{g}"))).unwrap();
    }
    let resume = d.run(&format!("farm {scenario} --resume ringwal.jsonl {ring}"));
    assert_eq!(resume.status.code(), Some(1), "{resume:?}");
    let err = stderr(&resume);
    assert!(err.contains("cannot be recovered"), "{err}");
    assert!(err.contains("(last: inconsistent)"), "{err}");

    d.ok(&format!("farm {scenario} --journal ringwal.jsonl {ring}"));
    forge_id(&d.path("ringwal.jsonl.snap.0"), "task");
    let fork = d.run(&format!(
        "obs replay --journal ringwal.jsonl --fork --generation 0 {scenario}"
    ));
    assert_eq!(fork.status.code(), Some(1), "{fork:?}");
    assert!(stderr(&fork).contains("inconsistent snapshot"), "{fork:?}");
    d.finish();
}
