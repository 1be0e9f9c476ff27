//! Durability drills through the real `cyclesteal` binary, each run with
//! its own scratch directory as the working directory: a `--kill-after`
//! crash and its resume, a corrupted snapshot sidecar falling back to full
//! redo, the snapshot ring with journal GC resumed and forked from every
//! retained generation, a sidecar with a forged task id rejected with
//! a typed error instead of an allocation abort, and a fork from a sidecar
//! the journal does not hold rejected before it runs.

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
    d.assert_files(&["snapwal.jsonl.snap.0"]);
    corrupt(&d.path("snapwal.jsonl.snap.0"));
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

    // A ring of three without GC, every generation corrupted: the warning
    // names the ring's files, and the resumed report is the uninterrupted
    // run's, bitwise.
    let ring = "--snapshot-ring 3 --snapshot-every 15";
    d.fails(&format!(
        "{farm} --journal ringwal.jsonl {ring} --kill-after 60"
    ));
    let sidecars = [
        "ringwal.jsonl.snap.0",
        "ringwal.jsonl.snap.1",
        "ringwal.jsonl.snap.2",
    ];
    d.assert_files(&sidecars);
    for name in sidecars {
        corrupt(&d.path(name));
    }
    let resumed = d.ok(&format!("{farm} --resume ringwal.jsonl {ring}"));
    let warning = format!("warning: snapshot {} unusable", sidecars.join(", "));
    assert!(stderr(&resumed).contains(&warning), "{}", stderr(&resumed));
    let report = |out: &Output| stdout(out).split("\n\n").next().unwrap().to_string();
    assert_eq!(report(&resumed), report(&d.ok(farm)));

    // Killed after the ring's first snapshot: the warning names the one
    // sidecar that was on disk, not the three the resumed run leaves.
    d.fails(&format!(
        "{farm} --journal onewal.jsonl {ring} --kill-after 25"
    ));
    d.assert_files(&["onewal.jsonl.snap.0"]);
    assert!(!d.path("onewal.jsonl.snap.1").exists());
    corrupt(&d.path("onewal.jsonl.snap.0"));
    let resumed = d.ok(&format!("{farm} --resume onewal.jsonl {ring}"));
    d.assert_files(&["onewal.jsonl.snap.1", "onewal.jsonl.snap.2"]);
    let warning = "warning: snapshot onewal.jsonl.snap.0 unusable (malformed)";
    assert!(stderr(&resumed).contains(warning), "{}", stderr(&resumed));
    d.finish();
}

/// Appends garbage to a sidecar, which breaks its checksum.
fn corrupt(sidecar: &Path) {
    let mut bytes = std::fs::read(sidecar).unwrap();
    bytes.extend_from_slice(b"garbage");
    std::fs::write(sidecar, bytes).unwrap();
}

/// The ring drills' durability flags: a 3-generation ring, journal GC and
/// a pinned cadence, so the files they check for do not hang on the
/// default cadence.
const RING: &str = "--snapshot-ring 3 --journal-gc --snapshot-every 7.07";

/// Crashes a run with a 3-generation ring and journal GC, which leaves the
/// ring and the segment metadata behind.
fn ring_crash(d: &Drill) {
    d.fails(&format!(
        "farm --seed 5 --tasks 400 --faults 0.6 --journal ringwal.jsonl {RING} --kill-after 60"
    ));
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
    let resumed = d.ok(&format!("farm {scenario} --resume ringwal.jsonl {RING}"));
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
    d.ok(&format!("farm {scenario} --journal ringwal.jsonl {RING}"));
    forge_id(&d.path("ringwal.jsonl.snap.0"), "ids");
    for g in [1, 2] {
        std::fs::remove_file(d.path(&format!("ringwal.jsonl.snap.{g}"))).unwrap();
    }
    let resume = d.run(&format!("farm {scenario} --resume ringwal.jsonl {RING}"));
    assert_eq!(resume.status.code(), Some(1), "{resume:?}");
    let err = stderr(&resume);
    assert!(err.contains("cannot be recovered"), "{err}");
    assert!(err.contains("(last: inconsistent)"), "{err}");

    d.ok(&format!("farm {scenario} --journal ringwal.jsonl {RING}"));
    forge_id(&d.path("ringwal.jsonl.snap.0"), "task");
    let fork = d.run(&format!(
        "obs replay --journal ringwal.jsonl --fork --generation 0 {scenario}"
    ));
    assert_eq!(fork.status.code(), Some(1), "{fork:?}");
    assert!(stderr(&fork).contains("inconsistent snapshot"), "{fork:?}");
    d.finish();
}

/// Rewrites the sidecar's `journal records` count and workstation 0's
/// `episodes` counter to `2^64 - 1` and every other workstation's to 0, so
/// their sum passes restore's counter bound, and recomputes the checksum.
fn forge_past_the_journal(sidecar: &Path) {
    let text = std::fs::read_to_string(sidecar).unwrap();
    let body = &text[..text.len() - "checksum 0123456789abcdef\n".len()];
    let max = u64::MAX.to_string();
    let mut forged = 0;
    let lines: Vec<String> = body
        .lines()
        .map(|line| {
            let mut tokens: Vec<&str> = line.split(' ').collect();
            // `journal records <n> hash <h>`, and `stats <ws>`, three work
            // sums, then `chunks_completed chunks_lost episodes ...`.
            let (at, value) = match tokens.get(..2) {
                Some(["journal", "records"]) => (2, max.as_str()),
                Some(["stats", "0"]) => (7, max.as_str()),
                Some(["stats", _]) => (7, "0"),
                _ => return line.to_string(),
            };
            tokens[at] = value;
            forged += 1;
            tokens.join(" ")
        })
        .collect();
    assert_eq!(forged, 17, "the journal line and 16 stats lines forged");
    let body = lines.join("\n") + "\n";
    let sidecar_text = format!("{body}checksum {:016x}\n", fnv1a64(body.as_bytes()));
    std::fs::write(sidecar, sidecar_text).unwrap();
}

/// A fork binds its sidecar to the journal, as a resume does: generation 2
/// of the seed-1 benchmark farm (ring of three, GC) forged to claim
/// `2^64 - 1` journal records, with workstation 0's `episodes` counter at
/// `2^64 - 1` behind a valid checksum, is a typed error naming the journal,
/// not an overflow once the forked run starts another episode.
#[test]
fn a_fork_from_a_sidecar_ahead_of_the_journal_fails_typed() {
    let d = Drill::new("fork_bind");
    let scenario = "--workstations 16 --l 150 --c 2 --gap 10 --loss 0.05 --slowdown 2 \
                    --seed 1 --tasks 5000";
    d.ok(&format!(
        "farm {scenario} --journal j.jsonl --snapshot-ring 3 --journal-gc"
    ));
    d.ok(&format!(
        "obs replay --journal j.jsonl --fork --generation 2 {scenario}"
    ));
    forge_past_the_journal(&d.path("j.jsonl.snap.2"));
    let fork = d.run(&format!(
        "obs replay --journal j.jsonl --fork --generation 2 {scenario}"
    ));
    assert_eq!(fork.status.code(), Some(1), "{fork:?}");
    let err = stderr(&fork);
    assert!(
        err.contains("snapshot binds to 18446744073709551615 journal records but the journal"),
        "{err}"
    );
    d.finish();
}
