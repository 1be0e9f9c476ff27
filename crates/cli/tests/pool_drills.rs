//! Thread-count and chaos drills through the real `cyclesteal` binary: the
//! experiment sweep and a traced Monte-Carlo run give the serial result at
//! any thread count, and the chaos harness keeps its kill-anywhere and
//! faulty-filesystem resume contracts at the default and a pooled thread
//! count.

use std::io::BufRead;
use std::process::{Child, Command, Stdio};

fn spawn(args: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_cyclesteal"))
        .args(args.split_whitespace())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cyclesteal")
}

/// Waits for `child`, a run of `args`, asserts exit 0 and returns stdout.
fn wait_ok(args: &str, child: Child) -> String {
    let out = child.wait_with_output().expect("wait for cyclesteal");
    assert!(out.status.success(), "`{args}` failed: {out:?}");
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn ok(args: &str) -> String {
    wait_ok(args, spawn(args))
}

/// The quick sweep prints the same bytes at 1 and 4 threads, and every
/// registered experiment succeeds and prints a report under its header.
#[test]
fn exp_sweep_is_byte_identical_at_1_and_4_threads() {
    let list = ok("exp --list");
    let registered: usize = list
        .lines()
        .find_map(|l| l.strip_suffix(" experiments; run one with `cyclesteal exp --id <id>`"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no experiment count in\n{list}"));
    // Both sweeps run at once.
    let a1 = "exp --all --quick --threads 1";
    let a4 = "exp --all --quick --threads 4";
    let (c1, c4) = (spawn(a1), spawn(a4));
    let (serial, pooled) = (wait_ok(a1, c1), wait_ok(a4, c4));
    assert!(serial == pooled, "pooled sweep differs from serial");
    // Each report runs from its `== <id> ...` header line to the next.
    let mut reports: Vec<(&str, usize)> = Vec::new();
    for line in serial.lines() {
        match reports.last_mut() {
            _ if line.starts_with("== ") => reports.push((line, 0)),
            Some((_, body)) => *body += line.trim().len(),
            None => panic!("output before the first header: {line}"),
        }
    }
    assert_eq!(reports.len(), registered, "{serial}");
    for (header, body) in reports {
        assert!(body > 0, "{header} printed nothing");
    }
}

/// The event kind of one trace line.
fn kind(line: &str) -> &str {
    let rest = line.split("\"type\":\"").nth(1).unwrap_or("");
    rest.split('"').next().unwrap_or("")
}

/// Stdout without what legitimately differs between thread counts: the
/// worker-pool line, the trace's event count and the thread count that
/// ends the episodes line.
fn norm(stdout: &str) -> String {
    let mut out = String::new();
    for line in stdout.lines() {
        if line.starts_with("worker pool") || line.starts_with("trace written") {
            continue;
        }
        let threads = line
            .strip_suffix(" threads)")
            .and_then(|h| h.rsplit_once(", "));
        match threads {
            Some((head, n)) if n.parse::<usize>().is_ok() => out.push_str(&format!("{head})")),
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// The pooled Monte-Carlo run reproduces the serial one: its trace is the
/// serial trace minus the per-episode lifecycle, which pooled workers
/// count instead of emitting, and stdout differs only in what [`norm`]
/// drops.
#[test]
fn monte_carlo_pooled_trace_and_stdout_match_serial() {
    let dir = std::env::temp_dir().join(format!("cs_cli_mc_pooled_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (t1, t2) = (dir.join("mc.t1.jsonl"), dir.join("mc.t2.jsonl"));
    let run = "simulate --family uniform --l 1000 --c 50 --seed 1 --trials 200000";
    let serial = ok(&format!("{run} --threads 1 --trace-out {}", t1.display()));
    let pooled = ok(&format!("{run} --threads 2 --trace-out {}", t2.display()));
    // The serial trace is about 90 MB: stream it.
    let mut run_lines = String::new();
    let file = std::fs::File::open(&t1).unwrap();
    for line in std::io::BufReader::new(file).lines().map(Result::unwrap) {
        let k = kind(&line);
        if k != "episode_start" && !k.starts_with("period_") {
            run_lines.push_str(&line);
            run_lines.push('\n');
        }
    }
    let pooled_trace = std::fs::read_to_string(&t2).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(run_lines == pooled_trace, "{run_lines}");
    assert_eq!(norm(&serial), norm(&pooled));
}

/// Every sampled kill point resumes to the uninterrupted report, at the
/// default thread count and on the pool.
#[test]
fn chaos_kill_anywhere_holds_at_default_and_4_threads() {
    ok("chaos --sample 16 --quick");
    ok("chaos --sample 16 --quick --threads 4");
}

/// Every sampled kill point also resumes through a seeded faulty
/// filesystem (failed or short writes, fsync errors, rename failures,
/// ENOSPC) under fail-stop and degrade policies: each outcome is a bitwise
/// report or the typed injected error, and a clean re-resume recovers.
#[test]
fn chaos_disk_faults_keep_the_resume_contract() {
    let out = ok("chaos --sample 8 --quick --disk-faults");
    assert!(out.contains("disk faults"), "{out}");
}
