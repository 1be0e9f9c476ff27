//! Argument handling through the real `cyclesteal` binary: degenerate
//! worker and trial counts, options missing their value and repeated
//! options exit 1 with a typed message on stderr instead of printing a
//! meaningless result, and `farm --profile` times every phase of the
//! process.

use std::process::{Command, Output};

fn cyclesteal(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cyclesteal"))
        .args(args.split_whitespace())
        .output()
        .expect("spawn cyclesteal")
}

fn assert_rejected(args: &str, message: &str) {
    let out = cyclesteal(args);
    assert_eq!(out.status.code(), Some(1), "`{args}` should exit 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "`{args}` stderr: {stderr}");
    assert!(out.stdout.is_empty(), "`{args}` printed a result");
}

const SIMULATE: &str = "simulate --family uniform --l 100 --c 2";

#[test]
fn simulate_rejects_zero_trials() {
    assert_rejected(&format!("{SIMULATE} --trials 0"), "--trials");
}

#[test]
fn simulate_rejects_zero_threads() {
    assert_rejected(&format!("{SIMULATE} --threads 0"), "--threads");
}

#[test]
fn exp_rejects_zero_threads() {
    assert_rejected("exp --all --quick --threads 0", "--threads");
}

#[test]
fn exp_list_ignores_threads() {
    // Listing runs nothing, so it takes no thread count to reject.
    let out = cyclesteal("exp --list --threads 0");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("experiments; run one with"));
}

#[test]
fn exp_rejects_more_than_one_mode() {
    // `--id` used to be dropped: `--all` ran all 22, `--list` listed them.
    let one = "exactly one of --list, --all or --id";
    assert_rejected("exp --all --id exp_saves --quick", one);
    assert_rejected("exp --list --id exp_saves", one);
}

#[test]
fn exp_rejects_trace_and_heartbeat_options() {
    // Experiments write reports only. A traced `--all` sweep used to
    // truncate one `--trace-out` file per experiment and leave it empty.
    assert_rejected(
        "exp --id exp_saves --trace-out t.jsonl",
        "unknown option --trace-out",
    );
    assert_rejected(
        "exp --all --quick --progress-every 1",
        "unknown option --progress-every",
    );
}

#[test]
fn fit_rejects_synthetic_options_with_an_input_file() {
    // They used to be dropped: the file's samples were fitted.
    assert_rejected("fit --input x --synthetic diurnal --days 3", "not both");
}

#[test]
fn farm_rejects_a_journal_without_a_path() {
    // A bare `--journal` used to journal to a file named `true`.
    assert_rejected("farm --tasks 5 --journal", "--journal needs a value");
}

#[test]
fn obs_diff_rejects_a_repeated_threshold() {
    // The second `--threshold` used to win silently.
    assert_rejected(
        "obs diff --threshold 0.5 --threshold 9 a.json b.json",
        "duplicate option: --threshold",
    );
}

#[test]
fn chaos_rejects_zero_threads() {
    assert_rejected("chaos --quick --threads 0", "--threads");
}

#[test]
fn simulate_defaults_threads_to_available_parallelism() {
    let out = cyclesteal(&format!("{SIMULATE} --trials 2000"));
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let want = format!("2000 episodes, {threads} threads)");
    assert!(stdout.contains(&want), "expected {want:?} in\n{stdout}");
}

#[test]
fn farm_profile_times_scenario_construction() {
    // `--profile` covers the task-bag build as its own root span, so the
    // span registry accounts for the process from argument parsing on.
    let out = cyclesteal("farm --tasks 50 --profile");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for span in ["farm.scenario", "farm.setup", "farm.run"] {
        assert!(
            stdout.contains(&format!("span_ns.{span} ")),
            "no {span} span in\n{stdout}"
        );
    }
}
