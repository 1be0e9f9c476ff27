//! `bench_profile` — writes the machine-readable perf baseline
//! `BENCH.json` (see `cs_bench::profile`). Usage:
//!
//! ```text
//! bench_profile [--quick] [--out <path>]    # default --out BENCH.json
//! ```
//!
//! Compare two baselines with `cyclesteal obs diff --bench old new`.

#![forbid(unsafe_code)]

use cs_bench::profile::{render_bench_json, run_profile, ProfileOptions};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

fn git(args: &[&str]) -> Option<String> {
    std::process::Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
}

/// `git rev-parse --short HEAD` — suffixed `-dirty` when the working tree
/// has uncommitted changes, so a baseline can never silently claim to
/// describe a commit it was not actually built from. `"unknown"` outside a
/// git checkout.
fn commit_id() -> String {
    let Some(head) = git(&["rev-parse", "--short", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_string();
    };
    let dirty = git(&["status", "--porcelain"]).is_none_or(|s| !s.trim().is_empty());
    if dirty {
        format!("{head}-dirty")
    } else {
        head
    }
}

/// UTC `YYYY-MM-DD` from the system clock (civil-from-days, Gregorian).
fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn main() -> ExitCode {
    let mut opts = ProfileOptions::default();
    let mut out_path = "BENCH.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("error: --out needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown argument {other:?} (expected [--quick] [--out <path>])");
                return ExitCode::FAILURE;
            }
        }
    }
    let results = match run_profile(opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for r in &results {
        println!(
            "{:<22} {:>12.3} ms  {:>14} ev/s  {:>12} trials/s{}",
            r.id,
            r.wall_ns as f64 / 1e6,
            r.events_per_sec
                .map_or_else(|| "-".to_string(), |v| format!("{v:.0}")),
            r.mc_trials_per_sec
                .map_or_else(|| "-".to_string(), |v| format!("{v:.0}")),
            match (r.speedup, r.efficiency) {
                (Some(s), Some(e)) => format!("  {s:>5.2}x speedup  {:>3.0}% eff", e * 100.0),
                _ => String::new(),
            },
        );
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = render_bench_json(&results, &commit_id(), &today_utc(), opts.quick, cpus);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("baseline written -> {out_path}");
    ExitCode::SUCCESS
}
