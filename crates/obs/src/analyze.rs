//! The trace analyzer: reads `--trace-out` JSONL back in and turns it
//! into reports, invariant checks and regression diffs. This is the
//! consumer half of the observability loop; `cyclesteal obs` is a thin
//! CLI shell over these functions.
//!
//! Every analysis reads events decoded by [`Event::from_jsonl`]; none
//! looks a field up by name.
//!
//! * [`analyze_trace`] — folds a decoded trace into a [`TraceAnalysis`]:
//!   per-kind counts, the span timing tree (rebuilt from
//!   `span_start`/`span_end` parent links, one [`Histogram`] per tree
//!   path), per-workstation bank/loss attribution and the
//!   [`MetricsRegistry`] a live [`MetricsSink`] folds, built by feeding
//!   each decoded event through that same sink.
//! * [`check_text`] — the invariant gate behind `obs check`: schema
//!   validation plus structural checks (run bracketing, monotone span
//!   timestamps and Monte-Carlo progress, balanced span nesting,
//!   bitwise bank-sum reconciliation against `run_end`, and — for farm
//!   runs — chunk conservation: every dispatched chunk resolves exactly
//!   once (bank, reclaim, crash, message loss or straggle) and no bank
//!   lands without a chunk to account for it).
//! * [`diff_registries`] / [`diff_bench`] — compare two runs' metrics or
//!   two `BENCH.json` baselines and flag changes beyond a threshold.
//!
//! On timestamp monotonicity: farm events carry *virtual* time and the
//! master deliberately schedules look-ahead events (an `episode_start`
//! can be timestamped later than events it precedes in the file), so the
//! checker does not demand a globally sorted file. What it does demand is
//! monotone wall-clock span timestamps, monotone `mc_progress.done`
//! within a run, and well-bracketed runs.

use crate::event::{Event, EventKind, SCHEMA_VERSION};
use crate::json::{parse_json, Json};
use crate::metrics::{Histogram, MetricsRegistry};
use crate::sink::MetricsSink;
use std::collections::BTreeMap;

/// Per-workstation attribution folded from the event stream.
#[derive(Debug, Clone, Default)]
pub struct WsRow {
    /// Task time banked by this workstation (first-bank-wins).
    pub banked: f64,
    /// Task time it computed that another copy banked first.
    pub duplicate: f64,
    /// Task time destroyed on it (period interrupts).
    pub lost: f64,
    /// Chunks banked.
    pub banks: u64,
    /// Chunks dispatched to it.
    pub dispatches: u64,
}

/// One node of the span timing tree: a unique root-to-node name path and
/// the durations of every span that ran at that path.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Slash-joined path (`farm.run/farm.dispatch`).
    pub path: String,
    /// Leaf name (`farm.dispatch`).
    pub name: String,
    /// Nesting depth (0 for roots).
    pub depth: usize,
    /// Durations (ns) of all spans at this path.
    pub hist: Histogram,
}

/// Everything [`analyze_trace`] extracts from one trace.
#[derive(Debug, Clone, Default)]
pub struct TraceAnalysis {
    /// Number of event lines.
    pub lines: usize,
    /// Events per kind.
    pub kind_counts: BTreeMap<&'static str, u64>,
    /// Complete `run_start`..`run_end` pairs seen.
    pub runs: usize,
    /// Per-workstation attribution (farm traces; empty for pure MC).
    pub per_ws: BTreeMap<u64, WsRow>,
    /// Span timing tree in pre-order (parents before children).
    pub span_tree: Vec<SpanNode>,
    /// The metrics a live [`crate::MetricsSink`] would have folded.
    pub registry: MetricsRegistry,
}

/// Open-span bookkeeping shared by the analyzer and the checker.
#[derive(Debug, Default)]
struct SpanState {
    /// Stack of open spans: `(id, path)`.
    stack: Vec<(u64, String)>,
    /// Histogram per tree path.
    by_path: BTreeMap<String, Histogram>,
}

impl SpanState {
    fn start(&mut self, id: u64, name: &str) {
        let path = match self.stack.last() {
            Some((_, parent_path)) => format!("{parent_path}/{name}"),
            None => name.to_string(),
        };
        self.stack.push((id, path));
    }

    /// Closes span `id`, recording its duration under its path. Returns
    /// `false` on a nesting violation: `id` is not the innermost open span
    /// (it is still closed if open, so one bad line doesn't cascade).
    fn end(&mut self, id: u64, dur_ns: f64) -> bool {
        let Some(pos) = self.stack.iter().rposition(|(sid, _)| *sid == id) else {
            return false;
        };
        let innermost = pos + 1 == self.stack.len();
        let (_, path) = self.stack.remove(pos);
        self.by_path.entry(path).or_default().observe(dur_ns);
        innermost
    }

    fn into_tree(self) -> Vec<SpanNode> {
        self.by_path
            .into_iter()
            .map(|(path, hist)| {
                let depth = path.matches('/').count();
                let name = path.rsplit('/').next().unwrap_or(&path).to_string();
                SpanNode {
                    path,
                    name,
                    depth,
                    hist,
                }
            })
            .collect()
    }
}

/// Folds a decoded trace (see [`crate::decode_lines`]) into a
/// [`TraceAnalysis`]. Structural oddities (unbalanced spans, odd nesting)
/// are tolerated here — use [`check_text`] to gate on them.
pub fn analyze_trace(events: &[(usize, Event<'_>)]) -> TraceAnalysis {
    let mut a = TraceAnalysis {
        lines: events.len(),
        ..TraceAnalysis::default()
    };
    let mut metrics = MetricsSink::new();
    let mut spans = SpanState::default();
    for (_, ev) in events {
        *a.kind_counts.entry(ev.kind.name()).or_insert(0) += 1;
        metrics.record(ev);
        match ev.kind {
            EventKind::RunEnd { .. } => a.runs += 1,
            EventKind::Dispatch { ws, .. } => a.per_ws.entry(ws).or_default().dispatches += 1,
            EventKind::Bank {
                ws,
                work,
                duplicate,
            } => {
                let row = a.per_ws.entry(ws).or_default();
                row.banks += 1;
                row.banked += work;
                row.duplicate += duplicate;
            }
            EventKind::PeriodInterrupt { ws, lost } => a.per_ws.entry(ws).or_default().lost += lost,
            EventKind::SpanStart { id, name, .. } => spans.start(id, name),
            EventKind::SpanEnd { id, dur_ns, .. } => {
                spans.end(id, dur_ns);
            }
            _ => {}
        }
    }
    a.registry = metrics.registry;
    a.span_tree = spans.into_tree();
    a
}

/// What [`check_text`] verified, plus every violation found.
#[derive(Debug, Clone, Default)]
pub struct CheckSummary {
    /// Event lines checked.
    pub lines: usize,
    /// Complete runs seen.
    pub runs: usize,
    /// Spans opened.
    pub spans: u64,
    /// Farm runs whose bank sums reconciled bitwise with `run_end`.
    pub reconciled_runs: usize,
    /// Every invariant violation, in file order (capped).
    pub violations: Vec<String>,
    /// Set by [`check_text`] (non-strict) when the trace ends in a torn
    /// final record — a warning, not a violation: a run killed mid-write
    /// legitimately leaves one, and the journal reader truncates it.
    pub torn_tail: Option<String>,
}

impl CheckSummary {
    /// True when the trace passed every check (a torn tail alone, being a
    /// warning, does not fail the check).
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

const MAX_VIOLATIONS: usize = 25;

/// Runs the full invariant suite over a trace's text (see the module docs
/// for the invariant list). Never aborts early: all violations up to a cap
/// are collected so one bad line still yields a useful report. Blank lines
/// are skipped.
///
/// A process killed mid-write (the crash the `cs-obs` journal exists to
/// survive) leaves a final partial JSONL line. In the default lenient
/// mode that tail is reported as a [`CheckSummary::torn_tail`] *warning*,
/// the remaining trace is checked as a known prefix of a run (so an
/// unfinished run bracket or still-open spans are expected, not
/// violations), and mid-trace damage still fails. With `strict` the torn
/// line is a schema violation and incompleteness fails.
pub fn check_text(text: &str, strict: bool) -> CheckSummary {
    let tail_is_torn = match text.rsplit('\n').next() {
        Some(tail) if !tail.trim().is_empty() => Event::from_jsonl(tail).is_err(),
        _ => false, // empty text or newline-terminated
    };
    if !tail_is_torn || strict {
        return check_impl(text.lines(), false);
    }
    let head_end = text.rfind('\n').map_or(0, |i| i + 1);
    let tail = &text[head_end..];
    let mut s = check_impl(text[..head_end].lines(), true);
    s.torn_tail = Some(format!(
        "torn final record ({} bytes): {}",
        tail.len(),
        preview(tail)
    ));
    s
}

/// First few characters of a torn fragment, for the warning message.
fn preview(tail: &str) -> String {
    let cut = tail.char_indices().nth(40).map_or(tail.len(), |(i, _)| i);
    if cut < tail.len() {
        format!("{}…", &tail[..cut])
    } else {
        tail.to_string()
    }
}

/// The body of [`check_text`]. With
/// `tolerate_prefix`, end-of-trace incompleteness (open run, open spans)
/// is not a violation — the caller knows the trace is a torn prefix.
fn check_impl<'a>(lines: impl IntoIterator<Item = &'a str>, tolerate_prefix: bool) -> CheckSummary {
    let mut s = CheckSummary::default();
    let violate = |s: &mut CheckSummary, msg: String| {
        if s.violations.len() < MAX_VIOLATIONS {
            s.violations.push(msg);
        }
    };

    // Run bracketing state.
    let mut in_run = false;
    let mut run_is_farm = false;
    let mut workstations = 0u64;
    let mut bank_sums: BTreeMap<u64, f64> = BTreeMap::new();
    let mut last_mc_done: Option<u64> = None;
    // Chunk-conservation state (farm runs only). The farm emits a chunk's
    // fate event right after its dispatch, so per workstation at most one
    // chunk awaits a fate (`open` = its dispatch line) and at most one
    // straggled chunk awaits a late arrival bank (`straggling`).
    #[derive(Default)]
    struct WsLife {
        open: Option<usize>,
        straggling: Option<usize>,
    }
    let mut ws_life: BTreeMap<u64, WsLife> = BTreeMap::new();
    // Span state.
    let mut spans = SpanState::default();
    let mut open_ids: BTreeMap<u64, usize> = BTreeMap::new(); // id -> start line
    let mut last_span_time = f64::NEG_INFINITY;

    for (i, line) in lines.into_iter().enumerate() {
        let n = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let ev = match Event::from_jsonl(line) {
            Ok(ev) => ev,
            Err(e) => {
                violate(&mut s, format!("line {n}: schema: {e}"));
                continue;
            }
        };
        s.lines += 1;
        if let EventKind::SpanStart { .. } | EventKind::SpanEnd { .. } = ev.kind {
            if ev.time < last_span_time {
                violate(
                    &mut s,
                    format!(
                        "line {n}: span timestamp {} before previous span event {}",
                        ev.time, last_span_time
                    ),
                );
            }
            last_span_time = ev.time;
        }
        match ev.kind {
            EventKind::RunStart {
                workstations: w, ..
            } => {
                if in_run {
                    violate(&mut s, format!("line {n}: run_start inside an open run"));
                }
                in_run = true;
                workstations = w;
                run_is_farm = workstations > 0;
                bank_sums.clear();
                last_mc_done = None;
                ws_life.clear();
            }
            EventKind::RunEnd { banked, .. } => {
                if !in_run {
                    violate(&mut s, format!("line {n}: run_end without run_start"));
                } else {
                    s.runs += 1;
                    if run_is_farm {
                        // The farm's completed_work is Σ over workstations
                        // (in index order) of per-ws bank sums (in event
                        // order); f64 addition is order-sensitive, so this
                        // recomputation is bitwise, not approximate.
                        let mut total = 0.0f64;
                        for ws in 0..workstations {
                            total += bank_sums.get(&ws).copied().unwrap_or(0.0);
                        }
                        if total.to_bits() != banked.to_bits() {
                            violate(
                                &mut s,
                                format!(
                                    "line {n}: bank sums do not reconcile with run_end: \
                                     Σ bank.work = {total:?}, run_end.banked = {banked:?}"
                                ),
                            );
                        } else {
                            s.reconciled_runs += 1;
                        }
                        // Chunk conservation at the run boundary: a chunk
                        // still awaiting its fate was neither banked nor
                        // explicitly lost. (An outstanding straggle lease
                        // is legal — the run can complete on the requeued
                        // copy while the late duplicate arrival is still
                        // in the air.)
                        for (ws, life) in &ws_life {
                            if let Some(open_line) = life.open {
                                violate(
                                    &mut s,
                                    format!(
                                        "line {n}: chunk dispatched to ws {ws} (line \
                                         {open_line}) never banked or lost by run_end"
                                    ),
                                );
                            }
                        }
                    }
                }
                in_run = false;
                ws_life.clear();
            }
            EventKind::Bank { ws, work, .. } => {
                if work < 0.0 || work.is_nan() {
                    violate(
                        &mut s,
                        format!("line {n}: bank.work = {work:?} (negative or NaN)"),
                    );
                }
                *bank_sums.entry(ws).or_insert(0.0) += work;
                if run_is_farm && ws >= workstations {
                    violate(
                        &mut s,
                        format!("line {n}: bank.ws = {ws} out of range (run has {workstations})"),
                    );
                } else if run_is_farm {
                    // Conservation: a bank must settle the open chunk or a
                    // straggler's late arrival; anything else is a second
                    // bank for work already accounted for.
                    let life = ws_life.entry(ws).or_default();
                    if life.open.take().is_none() && life.straggling.take().is_none() {
                        violate(
                            &mut s,
                            format!(
                                "line {n}: bank on ws {ws} with no dispatched chunk to \
                                 settle (double bank?)"
                            ),
                        );
                    }
                }
            }
            EventKind::Dispatch { ws, .. } if run_is_farm => {
                let life = ws_life.entry(ws).or_default();
                if let Some(open_line) = life.open.replace(n) {
                    violate(
                        &mut s,
                        format!(
                            "line {n}: dispatch on ws {ws} while the chunk from line \
                             {open_line} is unresolved"
                        ),
                    );
                }
            }
            // A reclaim or a lost message settles the open chunk (the
            // guard takes it); with none open there was nothing to settle.
            EventKind::PeriodInterrupt { ws, .. } | EventKind::MessageLost { ws }
                if run_is_farm && ws_life.entry(ws).or_default().open.take().is_none() =>
            {
                violate(
                    &mut s,
                    format!("line {n}: {} on ws {ws} with no open chunk", ev.kind.name()),
                );
            }
            EventKind::Crash { ws } if run_is_farm => {
                // Legal with or without an open chunk: a crash can strike
                // mid-compute (killing the chunk) or between chunks.
                ws_life.entry(ws).or_default().open.take();
            }
            EventKind::Straggle { ws } if run_is_farm => {
                let life = ws_life.entry(ws).or_default();
                match life.open.take() {
                    Some(open_line) => {
                        if let Some(prev) = life.straggling.replace(open_line) {
                            violate(
                                &mut s,
                                format!(
                                    "line {n}: ws {ws} straggles while the chunk from \
                                     line {prev} is still in the air"
                                ),
                            );
                        }
                    }
                    None => violate(
                        &mut s,
                        format!("line {n}: straggle on ws {ws} with no open chunk"),
                    ),
                }
            }
            EventKind::McProgress { done, total } => {
                if done > total {
                    violate(
                        &mut s,
                        format!("line {n}: mc_progress done {done} > total {total}"),
                    );
                }
                if let Some(prev) = last_mc_done {
                    if done <= prev {
                        violate(
                            &mut s,
                            format!("line {n}: mc_progress done {done} not after {prev}"),
                        );
                    }
                }
                last_mc_done = Some(done);
            }
            EventKind::SpanStart { id, name, .. } => {
                s.spans += 1;
                if open_ids.insert(id, n).is_some() {
                    violate(
                        &mut s,
                        format!("line {n}: span id {id} reopened while open"),
                    );
                }
                spans.start(id, name);
            }
            EventKind::SpanEnd {
                id, dur_ns: dur, ..
            } => {
                if dur < 0.0 || dur.is_nan() {
                    violate(&mut s, format!("line {n}: span_end dur_ns = {dur:?}"));
                }
                if open_ids.remove(&id).is_none() {
                    violate(
                        &mut s,
                        format!("line {n}: span_end for id {id} that is not open"),
                    );
                } else if !spans.end(id, dur) {
                    violate(
                        &mut s,
                        format!("line {n}: span id {id} closed out of nesting order"),
                    );
                }
            }
            _ => {}
        }
    }
    if !tolerate_prefix {
        if in_run {
            violate(
                &mut s,
                "end of trace: run_start without run_end".to_string(),
            );
        }
        for (id, start_line) in &open_ids {
            violate(
                &mut s,
                format!("end of trace: span id {id} (opened line {start_line}) never closed"),
            );
        }
    }
    s
}

/// One row of a metrics or baseline diff.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Metric name (`counter dispatches`, `sim_serial.wall_ns`, …).
    pub name: String,
    /// Value in the first (baseline) input.
    pub a: f64,
    /// Value in the second (candidate) input.
    pub b: f64,
    /// Signed relative change `(b - a) / |a|` (infinite when `a` is 0 and
    /// `b` is not; NaN when either side is missing/NaN).
    pub rel: f64,
    /// True when the change trips the threshold (for perf baselines, only
    /// in the regression direction).
    pub flagged: bool,
}

fn rel_change(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() {
            0.0
        } else {
            f64::NAN
        };
    }
    if a == b {
        return 0.0;
    }
    if a == 0.0 {
        return if b > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    (b - a) / a.abs()
}

/// Compares two metric registries (e.g. folded from two traces of the
/// same scenario). Every counter, gauge, and histogram (count and mean)
/// present in either side becomes a row; rows whose absolute relative
/// change exceeds `threshold` are flagged.
pub fn diff_registries(a: &MetricsRegistry, b: &MetricsRegistry, threshold: f64) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    let mut keys: Vec<(String, f64, f64)> = Vec::new();

    let mut names: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    names.extend(a.counters().map(|(k, _)| format!("counter {k}")));
    names.extend(b.counters().map(|(k, _)| format!("counter {k}")));
    for name in &names {
        let k = &name["counter ".len()..];
        keys.push((name.clone(), a.counter(k) as f64, b.counter(k) as f64));
    }
    let mut gnames: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    gnames.extend(a.gauges().map(|(k, _)| k.to_string()));
    gnames.extend(b.gauges().map(|(k, _)| k.to_string()));
    for k in &gnames {
        keys.push((
            format!("gauge {k}"),
            a.gauge(k).unwrap_or(f64::NAN),
            b.gauge(k).unwrap_or(f64::NAN),
        ));
    }
    let mut hnames: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    hnames.extend(a.histograms().map(|(k, _)| k.to_string()));
    hnames.extend(b.histograms().map(|(k, _)| k.to_string()));
    for k in &hnames {
        let (ac, am) = a.histogram(k).map_or((0.0, f64::NAN), |h| {
            (h.count() as f64, h.mean().unwrap_or(f64::NAN))
        });
        let (bc, bm) = b.histogram(k).map_or((0.0, f64::NAN), |h| {
            (h.count() as f64, h.mean().unwrap_or(f64::NAN))
        });
        keys.push((format!("histogram {k}.count"), ac, bc));
        keys.push((format!("histogram {k}.mean"), am, bm));
    }

    for (name, av, bv) in keys {
        let rel = rel_change(av, bv);
        let flagged = rel.is_nan() || rel.abs() > threshold;
        rows.push(DiffRow {
            name,
            a: av,
            b: bv,
            rel,
            flagged,
        });
    }
    rows
}

/// Reads one scenario's perf numbers out of a parsed `BENCH.json`.
fn bench_scenarios(doc: &Json) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_arr)
        .ok_or("BENCH.json: missing \"scenarios\" array")?;
    let mut out = BTreeMap::new();
    for sc in scenarios {
        let id = sc
            .get("id")
            .and_then(Json::as_str)
            .ok_or("BENCH.json: scenario missing \"id\"")?
            .to_string();
        let mut nums = BTreeMap::new();
        // "speedup"/"efficiency" carry the mc_scaling_* parallel-scaling
        // ladder; like the throughput keys they regress downward (the
        // non-`_ns` direction rule below already handles that).
        for key in [
            "wall_ns",
            "events_per_sec",
            "mc_trials_per_sec",
            "speedup",
            "efficiency",
        ] {
            if let Some(v) = sc.get(key).and_then(Json::as_f64) {
                nums.insert(key.to_string(), v);
            }
        }
        // Span means are the workload-size-independent hot-path numbers
        // (`farm.dispatch` especially) — the rows a CI gate wants when the
        // scenario's total workload changed between baselines.
        if let Some(spans) = sc.get("spans").and_then(Json::as_obj) {
            for (name, span) in spans {
                if let Some(mean) = span.get("mean_ns").and_then(Json::as_f64) {
                    nums.insert(format!("spans.{name}.mean_ns"), mean);
                }
            }
        }
        out.insert(id, nums);
    }
    Ok(out)
}

/// Compares two `BENCH.json` baselines (`a` = baseline, `b` = candidate).
/// Rows are flagged only for *regressions* beyond `threshold`: wall time
/// or span means going up, throughput going down. Scenario sets may
/// differ; a scenario present on one side only is flagged.
pub fn diff_bench(a_text: &str, b_text: &str, threshold: f64) -> Result<Vec<DiffRow>, String> {
    let a = bench_scenarios(&parse_json(a_text)?)?;
    let b = bench_scenarios(&parse_json(b_text)?)?;
    let mut ids: std::collections::BTreeSet<&String> = a.keys().collect();
    ids.extend(b.keys());
    let mut rows = Vec::new();
    for id in ids {
        match (a.get(id), b.get(id)) {
            (Some(am), Some(bm)) => {
                let mut keys: std::collections::BTreeSet<&String> = am.keys().collect();
                keys.extend(bm.keys());
                for key in keys {
                    let av = am.get(key).copied().unwrap_or(f64::NAN);
                    let bv = bm.get(key).copied().unwrap_or(f64::NAN);
                    if av.is_nan() && bv.is_nan() {
                        continue; // metric not applicable to this scenario
                    }
                    let rel = rel_change(av, bv);
                    // Regression direction: wall time and span latencies
                    // up, throughput down.
                    let regression = if key.ends_with("_ns") { rel } else { -rel };
                    let flagged = rel.is_nan() || regression > threshold;
                    rows.push(DiffRow {
                        name: format!("{id}.{key}"),
                        a: av,
                        b: bv,
                        rel,
                        flagged,
                    });
                }
            }
            (only_a, _) => {
                rows.push(DiffRow {
                    name: format!(
                        "{id} (only in {})",
                        if only_a.is_some() {
                            "baseline"
                        } else {
                            "candidate"
                        }
                    ),
                    a: f64::NAN,
                    b: f64::NAN,
                    rel: f64::NAN,
                    flagged: true,
                });
            }
        }
    }
    Ok(rows)
}

/// The schema version the analyzer writes and understands (re-exported
/// so CLI help text stays in one place).
pub fn analyzer_schema_version() -> u32 {
    SCHEMA_VERSION
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};
    use crate::sink::{EventSink, MemorySink};
    use crate::span::SpanProfiler;

    /// [`check_text`] in strict mode over lines joined into one text.
    fn check<S: std::borrow::Borrow<str>>(lines: &[S]) -> CheckSummary {
        check_text(&lines.join("\n"), true)
    }

    fn farm_like_trace() -> Vec<String> {
        // A tiny hand-built farm trace: 2 workstations, profiled,
        // conservation-clean (every dispatch gets exactly one fate).
        let mut sink = MemorySink::new();
        let mut prof = SpanProfiler::new();
        let run = prof.start("farm.run", &mut sink);
        sink.emit(&Event {
            time: 0.0,
            kind: EventKind::RunStart {
                seed: 1,
                workstations: 2,
                tasks: 10,
            },
        });
        let d = prof.start("farm.dispatch", &mut sink);
        sink.emit(&Event {
            time: 0.0,
            kind: EventKind::Dispatch {
                ws: 0,
                tasks: 3,
                work: 3.0,
            },
        });
        prof.end(d, &mut sink);
        let dispatch = |time: f64, ws: u64, tasks: u64, work: f64| Event {
            time,
            kind: EventKind::Dispatch { ws, tasks, work },
        };
        let bank = |time: f64, ws: u64, work: f64| Event {
            time,
            kind: EventKind::Bank {
                ws,
                work,
                duplicate: 0.0,
            },
        };
        sink.emit(&bank(1.0, 0, 3.0));
        // ws1's first chunk is reclaimed mid-compute; its redispatch banks.
        sink.emit(&dispatch(0.0, 1, 1, 0.5));
        sink.emit(&Event {
            time: 2.0,
            kind: EventKind::PeriodInterrupt { ws: 1, lost: 0.5 },
        });
        sink.emit(&dispatch(2.0, 1, 4, 4.0));
        sink.emit(&bank(6.0, 1, 4.0));
        sink.emit(&dispatch(1.0, 0, 2, 2.5));
        sink.emit(&bank(3.5, 0, 2.5));
        prof.end(run, &mut sink);
        sink.emit(&Event {
            time: 9.0,
            kind: EventKind::RunEnd {
                banked: (3.0 + 2.5) + 4.0,
                lost: 0.5,
                drained: true,
            },
        });
        sink.events.iter().map(Event::to_jsonl).collect()
    }

    #[test]
    fn analyze_folds_counts_spans_and_attribution() {
        let lines = farm_like_trace();
        let a = analyze_trace(&crate::decode_lines(lines.iter().map(String::as_str)).unwrap());
        assert_eq!(a.lines, lines.len());
        assert_eq!(a.runs, 1);
        assert_eq!(a.kind_counts["bank"], 3);
        assert_eq!(a.kind_counts["span_start"], 2);
        assert_eq!(a.per_ws[&0].banks, 2);
        assert_eq!(a.per_ws[&0].banked, 5.5);
        assert_eq!(a.per_ws[&1].lost, 0.5);
        assert_eq!(a.per_ws[&0].dispatches, 2);
        assert_eq!(a.per_ws[&1].dispatches, 2);
        // Span tree: farm.run root with farm.dispatch child.
        let paths: Vec<&str> = a.span_tree.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(paths, vec!["farm.run", "farm.run/farm.dispatch"]);
        assert_eq!(a.span_tree[1].depth, 1);
        assert_eq!(a.span_tree[1].name, "farm.dispatch");
        // Registry mirrors MetricsSink.
        assert_eq!(a.registry.counter("chunks_banked"), 3);
        assert_eq!(a.registry.gauge("banked_work"), Some(9.5));
        assert!(a.registry.histogram("span_ns.farm.dispatch").is_some());
    }

    #[test]
    fn check_passes_a_well_formed_trace() {
        let lines = farm_like_trace();
        let s = check(&lines);
        assert!(s.ok(), "{:?}", s.violations);
        assert_eq!(s.runs, 1);
        assert_eq!(s.reconciled_runs, 1);
        assert_eq!(s.spans, 2);
    }

    #[test]
    fn check_catches_corruption() {
        let mut lines = farm_like_trace();
        // Tamper with one bank amount: reconciliation must break.
        let idx = lines.iter().position(|l| l.contains("\"bank\"")).unwrap();
        lines[idx] = lines[idx].replace("\"work\":3", "\"work\":2.75");
        let s = check(&lines);
        assert!(!s.ok());
        assert!(
            s.violations.iter().any(|v| v.contains("reconcile")),
            "{:?}",
            s.violations
        );

        // Truncation: drop the tail (run_end + span ends) — must be caught.
        let lines = farm_like_trace();
        let cut = &lines[..lines.len() - 2];
        let s = check(cut);
        assert!(!s.ok());
        assert!(
            s.violations.iter().any(|v| v.contains("never closed"))
                || s.violations.iter().any(|v| v.contains("without run_end")),
            "{:?}",
            s.violations
        );

        // Garbage line: schema violation.
        let mut lines = farm_like_trace();
        lines[2] = "{not json".to_string();
        let s = check(&lines);
        assert!(
            s.violations.iter().any(|v| v.contains("schema")),
            "{:?}",
            s.violations
        );
    }

    #[test]
    fn check_catches_conservation_violations() {
        // A bank with no dispatched chunk to settle.
        let lines = [
            r#"{"v":2,"t":0,"type":"run_start","seed":1,"workstations":2,"tasks":4}"#,
            r#"{"v":2,"t":1,"type":"bank","ws":1,"work":4,"duplicate":0}"#,
            r#"{"v":2,"t":1,"type":"run_end","banked":4,"lost":0,"drained":true}"#,
        ];
        let s = check(&lines);
        assert!(
            s.violations.iter().any(|v| v.contains("double bank")),
            "{:?}",
            s.violations
        );

        // A dispatched chunk that never resolves before run_end.
        let lines = [
            r#"{"v":2,"t":0,"type":"run_start","seed":1,"workstations":1,"tasks":4}"#,
            r#"{"v":2,"t":0,"type":"dispatch","ws":0,"tasks":4,"work":4}"#,
            r#"{"v":2,"t":1,"type":"run_end","banked":0,"lost":0,"drained":false}"#,
        ];
        let s = check(&lines);
        assert!(
            s.violations
                .iter()
                .any(|v| v.contains("never banked or lost")),
            "{:?}",
            s.violations
        );

        // Two dispatches with the first chunk unresolved.
        let lines = [
            r#"{"v":2,"t":0,"type":"run_start","seed":1,"workstations":1,"tasks":4}"#,
            r#"{"v":2,"t":0,"type":"dispatch","ws":0,"tasks":2,"work":2}"#,
            r#"{"v":2,"t":2,"type":"dispatch","ws":0,"tasks":2,"work":2}"#,
            r#"{"v":2,"t":4,"type":"bank","ws":0,"work":4,"duplicate":0}"#,
            r#"{"v":2,"t":4,"type":"run_end","banked":4,"lost":0,"drained":true}"#,
        ];
        let s = check(&lines);
        assert!(
            s.violations.iter().any(|v| v.contains("unresolved")),
            "{:?}",
            s.violations
        );

        // A reclaim with nothing in flight.
        let lines = [
            r#"{"v":2,"t":0,"type":"run_start","seed":1,"workstations":1,"tasks":4}"#,
            r#"{"v":2,"t":1,"type":"period_interrupt","ws":0,"lost":1}"#,
            r#"{"v":2,"t":2,"type":"run_end","banked":0,"lost":1,"drained":false}"#,
        ];
        let s = check(&lines);
        assert!(
            s.violations.iter().any(|v| v.contains("no open chunk")),
            "{:?}",
            s.violations
        );
    }

    #[test]
    fn check_allows_legal_fates_and_stragglers() {
        // Crash between chunks, message loss, a straggler whose late bank
        // lands, and a reclaim — all conservation-legal.
        let lines = [
            r#"{"v":2,"t":0,"type":"run_start","seed":1,"workstations":3,"tasks":9}"#,
            // ws0: message lost, then redispatch banks.
            r#"{"v":2,"t":0,"type":"dispatch","ws":0,"tasks":3,"work":3}"#,
            r#"{"v":2,"t":0,"type":"message_lost","ws":0}"#,
            r#"{"v":2,"t":2,"type":"lease_timeout","ws":0,"lease":0}"#,
            r#"{"v":2,"t":2,"type":"requeue","ws":0,"tasks":3}"#,
            r#"{"v":2,"t":3,"type":"dispatch","ws":0,"tasks":3,"work":3}"#,
            r#"{"v":2,"t":6,"type":"bank","ws":0,"work":3,"duplicate":0}"#,
            // ws1: straggles, late arrival banks.
            r#"{"v":2,"t":0,"type":"dispatch","ws":1,"tasks":3,"work":6}"#,
            r#"{"v":2,"t":0,"type":"straggle","ws":1}"#,
            r#"{"v":2,"t":6,"type":"bank","ws":1,"work":6,"duplicate":0}"#,
            // ws2: dispatch-time crash (no open chunk) is legal.
            r#"{"v":2,"t":1,"type":"crash","ws":2}"#,
            r#"{"v":2,"t":7,"type":"run_end","banked":9,"lost":0,"drained":true}"#,
        ];
        let s = check(&lines);
        assert!(s.ok(), "{:?}", s.violations);
        assert_eq!(s.reconciled_runs, 1);
    }

    #[test]
    fn check_accepts_v1_traces() {
        let lines = [
            r#"{"v":1,"t":0,"type":"run_start","seed":1,"workstations":0,"tasks":0}"#,
            r#"{"v":1,"t":5,"type":"mc_progress","done":5,"total":10}"#,
            r#"{"v":1,"t":10,"type":"mc_progress","done":10,"total":10}"#,
            r#"{"v":1,"t":10,"type":"run_end","banked":4.5,"lost":1.5,"drained":false}"#,
        ];
        let s = check(&lines);
        assert!(s.ok(), "{:?}", s.violations);
        assert_eq!(s.runs, 1);
    }

    #[test]
    fn check_catches_non_monotone_mc_progress() {
        let lines = [
            r#"{"v":1,"t":0,"type":"run_start","seed":1,"workstations":0,"tasks":0}"#,
            r#"{"v":1,"t":8,"type":"mc_progress","done":8,"total":10}"#,
            r#"{"v":1,"t":5,"type":"mc_progress","done":5,"total":10}"#,
            r#"{"v":1,"t":10,"type":"run_end","banked":4.5,"lost":1.5,"drained":false}"#,
        ];
        let s = check(&lines);
        assert!(
            s.violations.iter().any(|v| v.contains("not after")),
            "{:?}",
            s.violations
        );
    }

    #[test]
    fn diff_flags_changes_beyond_threshold() {
        let mut a = MetricsRegistry::new();
        a.counter_add("dispatches", 100);
        a.gauge_set("banked_work", 50.0);
        a.observe("bank_work", 2.0);
        let mut b = MetricsRegistry::new();
        b.counter_add("dispatches", 104); // +4% — under a 10% threshold
        b.gauge_set("banked_work", 80.0); // +60% — flagged
        b.observe("bank_work", 2.0);
        b.observe("bank_work", 2.0); // count doubles — flagged
        let rows = diff_registries(&a, &b, 0.10);
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert!(!by_name("counter dispatches").flagged);
        assert!(by_name("gauge banked_work").flagged);
        assert!(by_name("histogram bank_work.count").flagged);
        assert!(!by_name("histogram bank_work.mean").flagged);
    }

    #[test]
    fn diff_bench_flags_regressions_only() {
        let a = r#"{"commit":"aaa","date":"2026-01-01","scenarios":[
            {"id":"s1","wall_ns":1000000,"events_per_sec":500000,"mc_trials_per_sec":null},
            {"id":"s2","wall_ns":2000000,"events_per_sec":100,"mc_trials_per_sec":800}]}"#;
        let b = r#"{"commit":"bbb","date":"2026-01-02","scenarios":[
            {"id":"s1","wall_ns":1500000,"events_per_sec":900000,"mc_trials_per_sec":null},
            {"id":"s3","wall_ns":1,"events_per_sec":1,"mc_trials_per_sec":1}]}"#;
        let rows = diff_bench(a, b, 0.20).unwrap();
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        // Wall time +50% — regression, flagged.
        assert!(by_name("s1.wall_ns").flagged);
        // Throughput +80% — an improvement, not flagged.
        assert!(!by_name("s1.events_per_sec").flagged);
        // Scenario set drift is flagged both ways.
        assert!(rows.iter().any(|r| r.name.contains("s2") && r.flagged));
        assert!(rows.iter().any(|r| r.name.contains("s3") && r.flagged));
        // mc_trials_per_sec null on both sides of s1: no row at all.
        assert!(!rows.iter().any(|r| r.name == "s1.mc_trials_per_sec"));
    }

    #[test]
    fn diff_bench_compares_span_means_as_latencies() {
        let a = r#"{"commit":"aaa","date":"2026-01-01","scenarios":[
            {"id":"farm","wall_ns":1000,"events_per_sec":500,"mc_trials_per_sec":null,
             "spans":{"farm.dispatch":{"count":10,"total_ns":1000,"mean_ns":100,
                      "p50_ns":100,"p99_ns":100}}}]}"#;
        let b = r#"{"commit":"bbb","date":"2026-01-02","scenarios":[
            {"id":"farm","wall_ns":9000,"events_per_sec":500,"mc_trials_per_sec":null,
             "spans":{"farm.dispatch":{"count":90,"total_ns":4500,"mean_ns":50,
                      "p50_ns":50,"p99_ns":50}}}]}"#;
        let rows = diff_bench(a, b, 0.20).unwrap();
        let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        // The span mean halved — an improvement for a latency row — even
        // though wall time blew up (bigger workload): per-row direction.
        assert!(!by_name("farm.spans.farm.dispatch.mean_ns").flagged);
        assert!(by_name("farm.wall_ns").flagged);
        // And a mean regression on the same numbers flags.
        let rows = diff_bench(b, a, 0.20).unwrap();
        assert!(rows
            .iter()
            .any(|r| r.name == "farm.spans.farm.dispatch.mean_ns" && r.flagged));
    }

    #[test]
    fn schema_version_accessor_matches() {
        assert_eq!(analyzer_schema_version(), crate::SCHEMA_VERSION);
    }

    #[test]
    fn check_text_reports_a_torn_tail_as_a_warning() {
        // A run killed mid-episode: run_start + one bank, then a partial
        // record with no newline.
        let text = concat!(
            r#"{"v":2,"t":0,"type":"run_start","seed":1,"workstations":1,"tasks":4}"#,
            "\n",
            r#"{"v":2,"t":0,"type":"dispatch","ws":0,"tasks":2,"work":2}"#,
            "\n",
            r#"{"v":2,"t":1,"type":"bank","ws":0,"work":2,"duplicate":0}"#,
            "\n",
            r#"{"v":2,"t":3,"ty"#,
        );
        let s = check_text(text, false);
        assert!(s.ok(), "lenient mode must pass: {:?}", s.violations);
        assert_eq!(s.lines, 3);
        let warn = s.torn_tail.expect("torn tail reported");
        assert!(warn.contains("torn final record"), "{warn}");
        // The open run is expected in a torn prefix, not a violation.
        assert!(!s.violations.iter().any(|v| v.contains("without run_end")));
    }

    #[test]
    fn check_text_strict_fails_on_a_torn_tail() {
        let text = concat!(
            r#"{"v":2,"t":0,"type":"run_start","seed":1,"workstations":0,"tasks":0}"#,
            "\n",
            r#"{"v":2,"t":10,"type":"run_end","banked":4,"lost":0,"drained":true}"#,
            "\n",
            r#"{"v":2,"t":11,"type":"run_sta"#,
        );
        let s = check_text(text, true);
        assert!(!s.ok());
        assert!(
            s.violations.iter().any(|v| v.contains("schema")),
            "{:?}",
            s.violations
        );
        assert!(
            s.torn_tail.is_none(),
            "strict mode fails instead of warning"
        );
    }

    #[test]
    fn check_text_lenient_matches_strict_on_a_clean_trace() {
        let lines = farm_like_trace();
        let mut text = lines.join("\n");
        text.push('\n');
        let s = check_text(&text, false);
        assert!(s.ok(), "{:?}", s.violations);
        assert!(s.torn_tail.is_none());
        assert_eq!(s.runs, 1);
        assert_eq!(s.reconciled_runs, 1);
        // Strict on a clean trace is identical.
        let s = check_text(&text, true);
        assert!(s.ok(), "{:?}", s.violations);

        // Mid-trace damage still fails even in lenient mode.
        let damaged = text.replacen("\"type\":\"bank\"", "\"type\":\"bnak\"", 1);
        let s = check_text(&damaged, false);
        assert!(!s.ok());
    }

    #[test]
    fn check_text_truncated_but_valid_final_line_is_not_torn() {
        // No trailing newline, but the final line is a complete record:
        // not a torn tail, and normal incompleteness rules apply.
        let text = concat!(
            r#"{"v":2,"t":0,"type":"run_start","seed":1,"workstations":0,"tasks":0}"#,
            "\n",
            r#"{"v":2,"t":10,"type":"run_end","banked":4,"lost":0,"drained":true}"#,
        );
        let s = check_text(text, false);
        assert!(s.ok(), "{:?}", s.violations);
        assert!(s.torn_tail.is_none());
        assert_eq!(s.runs, 1);
    }
}
