//! Runs one command and reports its wall time and peak resident set size.
//!
//! ```text
//! perfbench-spawn <report-file> <program> [args...]
//! ```
//!
//! The command inherits this process's standard streams. When it has
//! exited, `<report-file>` receives one line:
//! `<exit code> <wall seconds> <peak RSS KiB> <CPU seconds>`, the CPU time
//! being user plus system time summed over the command's threads.
//!
//! Linux raises a process's recorded peak RSS at `exec` to the peak of the
//! process that forked it, so a command started straight from a large
//! interpreter reports that interpreter's size for any small run. This
//! launcher is small, so the figure it reads back is the command's own.

use std::os::unix::process::ExitStatusExt;
use std::process::{Command, ExitCode};
use std::time::Instant;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_CHILDREN: i32 = -1;

fn seconds(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [report, program, rest @ ..] = args.as_slice() else {
        eprintln!("usage: perfbench-spawn <report-file> <program> [args...]");
        return ExitCode::from(2);
    };
    let start = Instant::now();
    let status = match Command::new(program).args(rest).status() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench-spawn: {program}: {e}");
            return ExitCode::from(2);
        }
    };
    let wall = start.elapsed().as_secs_f64();
    let code = status
        .code()
        .unwrap_or_else(|| 128 + status.signal().unwrap_or(0));
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of 64-bit Linux, which getrusage fills in.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        eprintln!("perfbench-spawn: getrusage failed");
        return ExitCode::from(2);
    }
    // The one child has been reaped, so the children's figures are its own.
    let cpu = seconds(&usage.utime) + seconds(&usage.stime);
    let line = format!("{code} {wall:.9} {} {cpu:.6}\n", usage.maxrss);
    if let Err(e) = std::fs::write(report, line) {
        eprintln!("perfbench-spawn: {report}: {e}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
