#!/usr/bin/env python3
"""Closed-loop benchmark of the `cyclesteal` command-line program.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The script builds `cs-cli` in
release mode (into `$CARGO_TARGET_DIR`, default `target/`), then drives the
`cyclesteal` binary as a user would: one process per job, each started only
after the previous one finished (a closed loop with one client). Every
generated input derives from `--seed`, which is passed to the program as
its own `--seed`.

With `--trace 0` the script prints the end-to-end metrics of the workload;
with `--trace 1` it makes separate profiled runs and prints the per-layer
metrics, collected only from what the program already exposes (`--profile`
spans, `--metrics` counters, `RUN-SUMMARY` lines, the sizes of the files it
writes) and from this script's own timing around each subcommand. Every
workload reports every metric: the layers a workload does not pass through
are measured by a short probe at the `PROBE` sizes, of the workload that
owns them or, for the `cs-obs` trace encoder and analyzers, of a faulty
farm's trace.

The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
`attempted` counts program invocations and `failed` those whose output
check failed. See `perfbench/NOTES.md` for why each workload exists.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"

# The hold-out seed, 7919, is in NOTES.md.
DEFAULT_SEED = 1

CHILD_TIMEOUT_S = 150.0
MIN_ITERS = 3
SUB_SEEDS = 32
SUB_SEED_STRIDE = 1_000_003

E2E_UNITS = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_ms": "ms",
}

LAYER_UNITS = {
    # cs-now::farm dispatch loop + cs-core::search behind the guideline cache
    "now.farm.dispatches": "count",
    "now.farm.dispatch_p50_ns": "ns",
    "now.farm.dispatch_p99_ns": "ns",
    "now.farm.dispatch_total_s": "s",
    "now.farm.dispatch_excess_s": "s",
    "now.farm.requeue_total_s": "s",
    "now.farm.run_s": "s",
    # cs-now::faults and the resilient master
    "now.farm.lease_timeouts": "count",
    "now.farm.backoffs": "count",
    "now.farm.quarantines": "count",
    "now.farm.replicas": "count",
    "now.farm.useful_work_ratio": "ratio",
    "now.farm.work_attempted": "work",
    # cs-obs::journal + cs-now::journal write path
    "now.journal.records": "count",
    "now.journal.syncs": "count",
    "now.journal.gc_truncated_records": "count",
    "now.journal.gc_truncated_bytes": "bytes",
    "now.journal.plain_s": "s",
    "now.journal.journaled_s": "s",
    "now.journal.cpu_s": "s",
    "now.journal.io_wait_s": "s",
    "now.journal.overhead_s": "s",
    "now.journal.overhead_share": "ratio",
    # cs-now::snapshot
    "now.snapshot.written": "count",
    "now.snapshot.bytes": "bytes",
    "now.snapshot.bytes_total": "bytes",
    # cs-now::journal resume
    "now.resume.records_skipped": "count",
    "now.resume.records_replayed": "count",
    "now.resume.generation": "index",
    "now.resume.restore_ms": "ms",
    "now.resume.p90_ms": "ms",
    # cs-obs::event encode
    "obs.trace.lines": "count",
    "obs.trace.bytes": "bytes",
    "obs.encode_s": "s",
    # cs-obs::analyze, lineage, json decode
    "obs.check_s": "s",
    "obs.report_s": "s",
    "obs.path_s": "s",
    "obs.check_lines_per_s": "1/s",
    "obs.report_lines_per_s": "1/s",
    "obs.path_lines_per_s": "1/s",
    # cs-sim::montecarlo
    "sim.mc.threads": "count",
    "sim.mc.trials_s": "s",
    "sim.mc.draw_s": "s",
    "sim.mc.pool_s": "s",
    "sim.mc.merge_s": "s",
    "sim.mc.master_serial_share": "ratio",
    "sim.mc.threads1_items_per_s": "1/s",
    "sim.mc.speedup_vs_threads1": "ratio",
    # cs-pool
    "pool.tasks": "count",
    "pool.steals": "count",
    "pool.stolen_tasks": "count",
    "pool.parks": "count",
    "pool.injector_refills": "count",
    "pool.worker_balance": "ratio",
    # cs-core plan
    "core.plan_s": "s",
    # profiler overhead: of the workload's own job where it accepts
    # --profile, else of the farm the workload runs
    "trace.profiled_s": "s",
    "trace.plain_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Input sizes. PROBE measures, in a traced run, the layers the workload
# does not pass through: MIN_ITERS iterations of each other workload and of
# obs_layers, a few seconds in all. TINY keeps every code path but finishes
# in well under a second per workload; the benchmark's own tests use it.
FULL = {
    "straggler_tasks": 4_000_000,
    "journal_tasks": 5_000,
    "resumes_per_iter": 10,
    "mc_trials": 20_000_000,
    "serial_trials": 2_000_000,
    "setup_per_iter": 3,
}
PROBE = {
    "straggler_tasks": 200_000,
    "journal_tasks": 1_000,
    "resumes_per_iter": 2,
    "trace_tasks": 100_000,
    "mc_trials": 1_000_000,
    "serial_trials": 200_000,
    "setup_per_iter": 1,
}
TINY = {
    "straggler_tasks": 2_000,
    "journal_tasks": 1_000,
    "resumes_per_iter": 2,
    "trace_tasks": 2_000,
    "mc_trials": 20_000,
    "serial_trials": 20_000,
    "setup_per_iter": 1,
}

# The straggler farm: many workstations, 5% message loss, every period
# stretched 2x, no crashes, so the bag always drains.
FARM = ["--workstations", "16", "--l", "150", "--c", "2", "--gap", "10",
        "--loss", "0.05", "--slowdown", "2"]
DURABLE = ["--snapshot-ring", "3", "--journal-gc"]
# The traced farm adds correlated reclaim storms and more loss, so the
# trace carries every fault record kind the analyzers attribute.
TRACE_FARM = ["--workstations", "16", "--l", "150", "--c", "2", "--gap", "10",
              "--loss", "0.1", "--slowdown", "2",
              "--storms", "1000,5000,20000,60000"]
MC_LIFE = ["--family", "poly", "--d", "3", "--l", "1000", "--c", "0.5"]


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


@dataclass
class Run:
    """One finished program invocation."""
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: str
    err: str


class Bench:
    """Runs program invocations, counts them and their failed checks."""

    def __init__(self, binaries, work):
        self.binary, self.spawn = (str(b) for b in binaries)
        self.work = work
        self.attempted = 0
        self.failed = 0

    def run(self, args, cwd=None, check=None):
        """Runs `cyclesteal args` to completion and applies `check`.

        `check(run)` returns None when the output is right, otherwise a
        reason. The launcher times the child from spawn to reap and reads
        its CPU time and peak RSS."""
        argv = [self.binary] + [str(a) for a in args]
        report = self.work / "spawn.report"
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            proc = subprocess.Popen([self.spawn, report] + argv,
                                    cwd=cwd or self.work,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, start_new_session=True)
            try:
                launcher_code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                launcher_code = proc.wait()
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        if launcher_code == 0:
            code, wall, rss_kib, cpu = report.read_text().split()
            run = Run(int(code), float(wall), float(cpu),
                      int(rss_kib) / 1024.0, stdout, stderr)
        else:
            run = Run(-1, 0.0, 0.0, 0.0, stdout,
                      stderr + f"\nlauncher exit code {launcher_code}")
        report.unlink(missing_ok=True)
        self.attempted += 1
        if run.code != 0:
            reason = f"exit code {run.code}: {run.err.strip()[-300:]}"
        else:
            reason = check(run) if check else None
        if reason:
            self.failed += 1
            print(f"check failed: {' '.join(argv[1:])}: {reason}",
                  file=sys.stderr)
        return run

    def fresh_dir(self, name):
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return path


# ---------------------------------------------------------------- parsing

def field(out, label):
    """The value of a `label : value` report line, or None."""
    m = re.search(rf"^{re.escape(label)}\s*: (.*)$", out, re.M)
    return m.group(1).strip() if m else None


def summaries(out):
    """Every `RUN-SUMMARY {json}` line, keyed by its `summary` name."""
    found = {}
    for m in re.finditer(r"^RUN-SUMMARY (\{.*\})$", out, re.M):
        doc = json.loads(m.group(1))
        found[doc.get("summary")] = doc
    return found


def registry(out):
    """Parses the `--profile` / `--metrics` registry dump.

    Returns ({counter or gauge name: value}, {histogram name: {stat: value}})."""
    scalars, hists = {}, {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] in ("counter", "gauge"):
            scalars[parts[1]] = float(parts[2])
        elif len(parts) >= 3 and parts[0] == "histogram":
            hists[parts[1]] = {k: float(v) for k, v in
                               (p.split("=", 1) for p in parts[2:])}
    return scalars, hists


def span_total_s(hists, name):
    """Total seconds spent in span `name` (0 when it never opened)."""
    h = hists.get(f"span_ns.{name}")
    return h["n"] * h["mean"] / 1e9 if h else 0.0


def resilience(out):
    m = re.search(r"(\d+) lease timeouts, (\d+) backoffs, (\d+) quarantines, "
                  r"(\d+) replicas", out)
    return tuple(int(x) for x in m.groups()) if m else None


# --------------------------------------------------------------- checks

def drained_check(tasks):
    def check(run):
        if field(run.out, "drained") != "true":
            return "bag did not drain"
        banked = field(run.out, "banked work")
        if banked is None or float(banked) != float(tasks):
            return f"banked work {banked} != {tasks} tasks"
        return None
    return check


def journal_check(tasks):
    base = drained_check(tasks)

    def check(run):
        doc = summaries(run.out).get("farm_journal")
        if doc is None:
            return "no farm_journal RUN-SUMMARY"
        if doc["degraded"]:
            return "journal degraded"
        return base(run)
    return check


def resume_check(journaled):
    banked = field(journaled.out, "banked work")
    lost = field(journaled.out, "lost work")

    def check(run):
        doc = summaries(run.out).get("farm_resume")
        if doc is None:
            return "no farm_resume RUN-SUMMARY"
        if doc.get("snapshot") != "used":
            return f"snapshot {doc.get('snapshot')!r}, expected 'used'"
        if doc.get("records_appended") != 0:
            return f"{doc.get('records_appended')} records appended"
        if doc.get("degraded") is not False:
            return "resume degraded"
        if (field(run.out, "banked work"), field(run.out, "lost work")) != \
                (banked, lost):
            return "banked/lost work differ from the journaled run"
        return None
    return check


def ok_check(pattern):
    def check(run):
        return None if re.search(pattern, run.out, re.M) else \
            f"output lacks {pattern!r}"
    return check


def mean_line(run):
    """The `simulated mean` line without its thread count."""
    line = field(run.out, "simulated mean") or ""
    return re.sub(r", \d+ threads\)$", ")", line)


def simulate_check(trials):
    def check(run):
        if f"{trials} episodes" not in (field(run.out, "simulated mean") or ""):
            return "simulated mean line missing or wrong trial count"
        return None
    return check


# ------------------------------------------------------------ workloads

def timed_loop(seconds, body):
    """Calls `body(i)` for i = 0, 1, ... until `seconds` have passed, and at
    least MIN_ITERS times. Set-up samples are taken inside each iteration,
    so that, like the timed jobs, they spread over the whole window."""
    start = time.perf_counter()
    i = 0
    while i < MIN_ITERS or time.perf_counter() - start < seconds:
        body(i)
        i += 1


def overhead(prof, plain):
    p = median([r.wall_s for r in prof])
    q = median([r.wall_s for r in plain])
    return {"trace.profiled_s": p, "trace.plain_s": q,
            "trace.overhead_ratio": p / q}


def peak_mb(*groups):
    """Peak RSS of the workload's processes: the median over each group of
    like invocations of their own peaks, and the largest of those. The
    median, because a small pooled process's peak moves by a megabyte
    from run to run with thread timing."""
    return max(median([r.rss_mb for r in g]) for g in groups)


def median_of(samples):
    return {k: median([s[k] for s in samples]) for k in samples[0]}


def farm_straggler(bench, seed, seconds, trace, size):
    tasks = size["straggler_tasks"]
    args = ["farm", *FARM, "--seed", seed, "--tasks", tasks]
    minimal = ["farm", *FARM, "--seed", seed, "--tasks", 1]
    check = drained_check(tasks)
    runs, setups, prof = [], [], []

    def iteration(_):
        runs.append(bench.run(args, check=check))
        if trace:
            # --profile alone: --metrics would make the run observed and
            # add event construction to what the ratio measures.
            prof.append(bench.run(args + ["--profile"], check=check))
        else:
            for _ in range(size["setup_per_iter"]):
                setups.append(bench.run(minimal, check=drained_check(1)))

    timed_loop(seconds, iteration)
    if not trace:
        return {
            "items_per_s": median([tasks / r.wall_s for r in runs]),
            "setup_s": median([r.wall_s for r in setups]),
            "peak_rss_mb": peak_mb(runs),
            "latency_p50_ms": median([r.wall_s for r in runs]) * 1e3,
        }
    samples = []
    for r in prof:
        _, hists = registry(r.out)
        d = hists["span_ns.farm.dispatch"]
        total = span_total_s(hists, "farm.dispatch")
        timeouts, backoffs, quarantines, replicas = resilience(r.out)
        banked = float(field(r.out, "banked work"))
        lost = float(field(r.out, "lost work"))
        samples.append({
            "now.farm.dispatches": d["n"],
            "now.farm.dispatch_p50_ns": d["p50"],
            "now.farm.dispatch_p99_ns": d["p99"],
            "now.farm.dispatch_total_s": total,
            # The tail above the median dispatch: guideline-search misses.
            "now.farm.dispatch_excess_s": total - d["n"] * d["p50"] / 1e9,
            "now.farm.requeue_total_s": span_total_s(hists, "farm.requeue"),
            "now.farm.run_s": span_total_s(hists, "farm.run"),
            "now.farm.lease_timeouts": timeouts,
            "now.farm.backoffs": backoffs,
            "now.farm.quarantines": quarantines,
            "now.farm.replicas": replicas,
            "now.farm.useful_work_ratio": banked / (banked + lost),
            "now.farm.work_attempted": banked + lost,
        })
    return {**median_of(samples), **overhead(prof, runs)}


def sub_seeds(seed):
    """The journaled workload's scenarios: SUB_SEEDS farms derived from the
    workload seed, the first being the seed itself. Resume cost depends on
    where the last snapshots fell, so one journal per run would make the
    run's figures a property of its seed."""
    return [seed + j * SUB_SEED_STRIDE for j in range(SUB_SEEDS)]


def farm_journaled(bench, seed, seconds, trace, size):
    tasks = size["journal_tasks"]
    scenarios = [["farm", *FARM, "--seed", s, "--tasks", tasks]
                 for s in sub_seeds(seed)]
    journal = ["--journal", "j.jsonl", *DURABLE]
    minimal = ["farm", *FARM, "--seed", seed, "--tasks", 1]
    journaled, resumes, setups, plain, prof, snap_sizes = [], [], [], [], [], []

    def iteration(i):
        scenario = scenarios[i % SUB_SEEDS]
        jdir = bench.fresh_dir(f"journal{i}")
        j = bench.run(scenario + journal, cwd=jdir, check=journal_check(tasks))
        journaled.append(j)
        check = resume_check(j)
        for _ in range(size["resumes_per_iter"]):
            resumes.append(bench.run(scenario + ["--resume", "j.jsonl", *DURABLE],
                                     cwd=jdir, check=check))
        snap_sizes.extend(p.stat().st_size for p in jdir.glob("j.jsonl.snap.*"))
        shutil.rmtree(jdir, ignore_errors=True)
        if trace:
            plain.append(bench.run(scenario, check=drained_check(tasks)))
            # Durable runs reject --profile: the tracing overhead is that
            # of the same farm without the journal.
            prof.append(bench.run(scenario + ["--profile"],
                                  check=drained_check(tasks)))
            # The same minimal farm without a journal: the floor that
            # restore_ms is measured above.
            setups.append(bench.run(minimal, check=drained_check(1)))
            return
        for k in range(size["setup_per_iter"]):
            sdir = bench.fresh_dir(f"setup{i}.{k}")
            setups.append(bench.run(minimal + journal, cwd=sdir,
                                    check=journal_check(1)))
            shutil.rmtree(sdir, ignore_errors=True)

    timed_loop(seconds, iteration)
    resume_s = [r.wall_s for r in resumes]
    if not trace:
        return {
            # Per CPU second: the journaled run spends 40-60% of its wall
            # time waiting on the disk's fsync, whose latency the program
            # does not control and which drifts between runs on a shared
            # disk. now.journal.io_wait_s reports that wait.
            "items_per_s": median([
                summaries(j.out)["farm_journal"]["records"] / j.cpu_s
                for j in journaled if "farm_journal" in summaries(j.out)]),
            "setup_s": median([r.wall_s for r in setups]),
            "peak_rss_mb": peak_mb(journaled, resumes),
            # The crash-recovery latency a user waits for.
            "latency_p50_ms": median(resume_s) * 1e3,
        }
    # Counts come from the workload seed's own farm, the first scenario.
    doc = summaries(journaled[0].out)["farm_journal"]
    rdoc = summaries(resumes[0].out)["farm_resume"]
    jwall = median([j.wall_s for j in journaled])
    pwall = median([p.wall_s for p in plain])
    snap = median(snap_sizes)
    return {
        "now.journal.records": doc["records"],
        "now.journal.syncs": doc["syncs"],
        "now.journal.gc_truncated_records": doc["gc_truncated_records"],
        "now.journal.gc_truncated_bytes": doc["gc_truncated_bytes"],
        "now.journal.plain_s": pwall,
        "now.journal.journaled_s": jwall,
        "now.journal.cpu_s": median([j.cpu_s for j in journaled]),
        "now.journal.io_wait_s": median([j.wall_s - j.cpu_s for j in journaled]),
        "now.journal.overhead_s": jwall - pwall,
        "now.journal.overhead_share": (jwall - pwall) / jwall,
        "now.snapshot.written": doc["snapshots_written"],
        "now.snapshot.bytes": snap,
        # Computed, not measured: every snapshot taken as the size of a
        # retained one.
        "now.snapshot.bytes_total": doc["snapshots_written"] * snap,
        "now.resume.records_skipped": rdoc["records_skipped"],
        "now.resume.records_replayed": rdoc["records_replayed"],
        "now.resume.generation": rdoc["generation"],
        "now.resume.restore_ms":
            (median(resume_s) - median([r.wall_s for r in setups])) * 1e3,
        # Kept per layer: the disk's fsync tail moved it by a third
        # between runs.
        "now.resume.p90_ms": p90(resume_s) * 1e3,
        **overhead(prof, plain),
    }


def obs_layers(bench, seed, size):
    """The cs-obs encode and decode layers, which no workload passes
    through; every traced run probes them. A faulty farm writes a trace
    with --trace-out, then `obs report`, `obs check` and `obs path` read it,
    MIN_ITERS times."""
    tasks = size["trace_tasks"]
    farm = ["farm", *TRACE_FARM, "--seed", seed, "--tasks", tasks]
    writes, plain, reports, checks, paths = [], [], [], [], []
    lines = None

    def iteration(_):
        nonlocal lines
        writes.append(bench.run(farm + ["--trace-out", "t.jsonl"],
                                check=drained_check(tasks)))
        plain.append(bench.run(farm, check=drained_check(tasks)))
        if lines is None:
            lines = (bench.work / "t.jsonl").read_bytes().count(b"\n")
        reports.append(bench.run(["obs", "report", "t.jsonl"],
                                 check=ok_check(rf"^events\s*: {lines} lines")))
        checks.append(bench.run(["obs", "check", "t.jsonl"],
                                check=ok_check(r"^PASS: every invariant holds$")))
        # The lost-work reconciliation gate of the lineage analysis.
        paths.append(bench.run(["obs", "path", "t.jsonl"], check=ok_check(
            r"^lost work\s*: .* bitwise IDENTICAL$")))

    timed_loop(0.0, iteration)
    check_s = median([r.wall_s for r in checks])
    report_s = median([r.wall_s for r in reports])
    path_s = median([r.wall_s for r in paths])
    return {
        "obs.trace.lines": lines,
        "obs.trace.bytes": (bench.work / "t.jsonl").stat().st_size,
        "obs.encode_s": median([w.wall_s for w in writes]) -
        median([p.wall_s for p in plain]),
        "obs.check_s": check_s,
        "obs.report_s": report_s,
        "obs.path_s": path_s,
        "obs.check_lines_per_s": lines / check_s,
        "obs.report_lines_per_s": lines / report_s,
        "obs.path_lines_per_s": lines / path_s,
    }


def mc_pooled(bench, seed, seconds, trace, size):
    threads = len(os.sched_getaffinity(0))
    trials = size["mc_trials"]
    sim = ["simulate", *MC_LIFE, "--seed", seed, "--threads", threads]
    full = sim + ["--trials", trials]
    serial_trials = size["serial_trials"]
    serials, pooleds = [], []

    def pooled_is_serial():
        """pooled == serial: the same seed gives the same simulated mean and
        CI at --threads 1 and --threads <nproc>."""
        serial = bench.run(["simulate", *MC_LIFE, "--seed", seed, "--threads",
                            1, "--trials", serial_trials],
                           check=simulate_check(serial_trials))
        want = mean_line(serial)
        pooled = bench.run(sim + ["--trials", serial_trials], check=lambda r: (
            None if mean_line(r) == want else
            f"pooled mean {mean_line(r)!r} != serial {want!r}"))
        serials.append(serial)
        pooleds.append(pooled)

    runs, setups, prof = [], [], []

    def iteration(_):
        runs.append(bench.run(full, check=simulate_check(trials)))
        if trace:
            prof.append(bench.run(full + ["--profile", "--metrics"],
                                  check=simulate_check(trials)))
            setups.append(bench.run(["plan", *MC_LIFE],
                                    check=ok_check(r"^expected work\s*: ")))
            pooled_is_serial()
            return
        for _ in range(size["setup_per_iter"]):
            setups.append(bench.run(sim + ["--trials", 1],
                                    check=simulate_check(1)))

    timed_loop(seconds, iteration)
    if not trace:
        pooled_is_serial()
        return {
            "items_per_s": median([trials / r.wall_s for r in runs]),
            "setup_s": median([r.wall_s for r in setups]),
            "peak_rss_mb": peak_mb(runs),
            "latency_p50_ms": median([r.wall_s for r in runs]) * 1e3,
        }
    samples = []
    for r in prof:
        scalars, hists = registry(r.out)
        draw = span_total_s(hists, "mc.draw")
        merge = span_total_s(hists, "mc.merge")
        total = span_total_s(hists, "mc.trials")
        workers = [v for k, v in scalars.items()
                   if re.fullmatch(r"pool\.worker\d+\.tasks", k)]
        samples.append({
            "sim.mc.trials_s": total,
            "sim.mc.draw_s": draw,
            "sim.mc.pool_s": span_total_s(hists, "mc.pool"),
            "sim.mc.merge_s": merge,
            "sim.mc.master_serial_share": (draw + merge) / total,
            "pool.tasks": scalars["pool.tasks"],
            "pool.steals": scalars["pool.steals"],
            "pool.stolen_tasks": scalars["pool.stolen_tasks"],
            "pool.parks": scalars["pool.parks"],
            "pool.injector_refills": scalars["pool.injector_refills"],
            "pool.worker_balance": min(workers) / max(workers),
        })
    serial_s = median([r.wall_s for r in serials])
    return {
        **median_of(samples),
        "sim.mc.threads": threads,
        "sim.mc.threads1_items_per_s": serial_trials / serial_s,
        # Both sides at the pooled == serial check's budget.
        "sim.mc.speedup_vs_threads1":
            serial_s / median([r.wall_s for r in pooleds]),
        "core.plan_s": median([r.wall_s for r in setups]),
        **overhead(prof, runs),
    }


RUNNERS = {
    "farm_straggler": farm_straggler,
    "farm_journaled": farm_journaled,
    "mc_pooled": mc_pooled,
}
WORKLOADS = tuple(RUNNERS)


# ----------------------------------------------------------- entry point

def build():
    """Builds the release CLI from this checkout, and the launcher.

    Returns the paths of both binaries."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise SystemExit(f"error: {ROOT} holds no cyclesteal sources to build")
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", "target")
    for manifest, package in ((ROOT / "Cargo.toml", "cs-cli"),
                              (ROOT / "perfbench/spawn/Cargo.toml",
                               "perfbench-spawn")):
        subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                        "--manifest-path", manifest, "--target-dir", target,
                        "-p", package], cwd=ROOT, check=True,
                       stdout=sys.stderr)
    return target / "release" / "cyclesteal", \
        target / "release" / "perfbench-spawn"


def measure(workload, seed, seconds, trace, size=FULL, probe=PROBE,
            binaries=None):
    """Runs one workload and returns the result object.

    A traced run first probes, at the `probe` sizes, the layers of every
    other workload and the cs-obs layers, then traces the workload itself
    for `seconds`; the workload's own figures, `trace.*` included, override
    the probes'."""
    binaries = binaries or build()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        bench = Bench(binaries, work)
        values = {}
        if trace:
            for other in WORKLOADS:
                if other != workload:
                    values.update(RUNNERS[other](bench, seed, 0.0, True, probe))
            values.update(obs_layers(bench, seed, probe))
        values.update(RUNNERS[workload](bench, seed, seconds, trace, size))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u}
                    for k, u in units.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    result = measure(a.workload, a.seed, a.seconds, bool(a.trace))
    for name, m in result["metrics"].items():
        print(f"{a.workload:15} {name:34} {m['value']:>16.6g} {m['unit']}")
    print(f"{a.workload:15} operations: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
