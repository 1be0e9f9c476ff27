//! Causal chunk lineage: from a farm trace to *where the makespan went*.
//!
//! [`analyze_lineage`] replays a farm's decoded v2 event stream through a
//! small per-workstation lifecycle state machine and reconstructs every
//! chunk's waterfall record — queue wait, service time, fate, wasted
//! work, retries — then derives three run-level artifacts:
//!
//! * a **phase attribution**: the run's total workstation-time
//!   (`workstations × makespan`) split into useful compute, duplicate
//!   (losing-replica) compute, work lost to reclaims and crashes, time
//!   lost in transit, post-crash dead time, unresolved in-flight time and
//!   idle. The phases sum to the wall total by construction (idle is the
//!   per-workstation residual).
//! * the **critical path**: the chain of chunks ending at the bank that
//!   completes the makespan, walked backwards through same-workstation
//!   predecessors and cross-workstation requeue hand-offs.
//! * a **bitwise loss reconciliation**: lost work re-accumulated exactly
//!   as the farm does (per-workstation in event order, then summed in
//!   index order), so the figure matches `FarmReport::lost_work` bit for
//!   bit — not approximately.
//!
//! The farm resolves a chunk's whole fate at dispatch time and emits the
//! fate event immediately after the `dispatch` line (with its future
//! virtual timestamp), so the stream is *causally* ordered per
//! workstation even though it is not globally time-sorted. The state
//! machine leans on exactly that: a `dispatch` opens a chunk on its
//! workstation, and the next farm event on the same workstation is its
//! fate. Late straggler banks (the one fate that arrives out of band) are
//! matched through a per-workstation straggle slot, and lease timeouts
//! are matched to chunks by mirroring the farm's dense lease-id counter.
//!
//! Torn traces (a journal from a killed run, with no `run_end`) are
//! analyzed rather than rejected: the makespan falls back to the latest
//! event timestamp and a warning is recorded, so `obs path` still works
//! on the wreckage — which is exactly when it is needed.

use crate::event::{Event, EventKind};

/// How a dispatched chunk's story ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkFate {
    /// Banked normally at its completion time.
    Banked,
    /// Straggled past its lease but the late arrival still banked.
    LateBanked,
    /// Killed by a period reclaim; all its computed work was lost.
    Reclaimed,
    /// Killed by a workstation crash mid-compute; its work was lost.
    Crashed,
    /// The dispatch message never arrived; no work was computed or lost,
    /// but the tasks were stranded until the lease timed out.
    MessageLost,
    /// Unresolved when the trace ends (torn journal or still running).
    InFlight,
}

impl ChunkFate {
    /// Short lower-case label for tables (`banked`, `reclaimed`, …).
    pub fn label(&self) -> &'static str {
        match self {
            ChunkFate::Banked => "banked",
            ChunkFate::LateBanked => "late-bank",
            ChunkFate::Reclaimed => "reclaimed",
            ChunkFate::Crashed => "crashed",
            ChunkFate::MessageLost => "msg-lost",
            ChunkFate::InFlight => "in-flight",
        }
    }
}

/// One chunk's reconstructed waterfall record.
#[derive(Debug, Clone)]
pub struct ChunkRecord {
    /// Dispatch-order sequence number (stable chunk id for reports).
    pub id: usize,
    /// Workstation it was dispatched to.
    pub ws: u64,
    /// Tasks in the chunk.
    pub tasks: u64,
    /// Task time dispatched (the chunk's total duration).
    pub work: f64,
    /// Virtual time of the dispatch.
    pub dispatched_at: f64,
    /// Virtual time the chunk stopped occupying its workstation (bank,
    /// reclaim, crash, transit-loss resolution, or end of trace).
    pub resolved_at: f64,
    /// Gap on the workstation before this dispatch (time since the
    /// previous chunk on the same workstation resolved; time since the
    /// run start for the first chunk).
    pub queue_wait: f64,
    /// `resolved_at - dispatched_at`.
    pub service: f64,
    /// The fate.
    pub fate: ChunkFate,
    /// Task time this chunk banked first (0 unless it banked).
    pub banked: f64,
    /// Task time it computed that another copy had already banked.
    pub duplicate: f64,
    /// Task time computed and destroyed (reclaims and crashes).
    pub wasted: f64,
    /// Lease timeouts charged to this chunk (0 or 1).
    pub retries: u32,
    /// True when this chunk was an end-game replica dispatch.
    pub replica: bool,
    /// True for a replica whose bank landed first (banked > 0).
    pub winning_replica: bool,
    /// True when this chunk's lease timed out (even if it later banked).
    pub timed_out: bool,
}

/// Wall-time attribution across the whole run. Every field except
/// [`PhaseAttribution::end_game_tail`] is a slice of the total
/// workstation-time `wall = workstations × makespan`; the slices sum to
/// `wall` by construction.
#[derive(Debug, Clone, Default)]
pub struct PhaseAttribution {
    /// Workstations in the run.
    pub workstations: u64,
    /// Run makespan (virtual time of `run_end`, or the latest event
    /// timestamp for a torn trace).
    pub makespan: f64,
    /// `workstations × makespan`.
    pub wall: f64,
    /// Workstation-time spent computing work that banked first.
    pub useful: f64,
    /// Workstation-time spent computing work another copy banked first.
    pub duplicate: f64,
    /// Workstation-time destroyed by period reclaims.
    pub lost_reclaim: f64,
    /// Workstation-time destroyed by crashes mid-compute.
    pub lost_crash: f64,
    /// Workstation-time stranded behind lost dispatch messages.
    pub lost_in_transit: f64,
    /// Workstation-time inside chunks still unresolved at trace end.
    pub in_flight: f64,
    /// Workstation-time after a crash (the dead remainder of the run).
    pub crashed_idle: f64,
    /// Residual per-workstation idle time (master gaps, startup, tail).
    pub idle: f64,
    /// `makespan - first replica dispatch time`: how long the end-game
    /// replication phase ran. `None` when no replicas were dispatched.
    /// Informational — replica compute time is already inside the
    /// useful/duplicate slices, so this is not a summing row.
    pub end_game_tail: Option<f64>,
}

impl PhaseAttribution {
    /// The summing phase rows in display order: `(label, workstation-time)`.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("useful compute", self.useful),
            ("duplicate compute", self.duplicate),
            ("lost to reclaims", self.lost_reclaim),
            ("lost to crashes", self.lost_crash),
            ("lost in transit", self.lost_in_transit),
            ("in flight at end", self.in_flight),
            ("crashed (dead)", self.crashed_idle),
            ("idle", self.idle),
        ]
    }

    /// Sum of the phase rows (equals [`PhaseAttribution::wall`] up to
    /// floating-point accumulation order).
    pub fn sum(&self) -> f64 {
        self.rows().iter().map(|(_, v)| v).sum()
    }
}

/// Everything [`analyze_lineage`] reconstructs from one farm trace.
#[derive(Debug, Clone, Default)]
pub struct LineageAnalysis {
    /// Workstations in the run.
    pub workstations: u64,
    /// Tasks in the run.
    pub tasks: u64,
    /// The run's seed.
    pub seed: u64,
    /// Every chunk in dispatch order.
    pub chunks: Vec<ChunkRecord>,
    /// True when the trace carried a `run_end` for the farm run.
    pub run_complete: bool,
    /// Total banked work: from `run_end`, or the bank sum for torn traces.
    pub banked: f64,
    /// Lost work re-accumulated the way the farm accumulates it
    /// (per-workstation in event order, summed in index order) — bitwise
    /// equal to `FarmReport::lost_work` for a complete trace.
    pub lost_work: f64,
    /// `run_end.lost` when present (for reconciliation against
    /// [`LineageAnalysis::lost_work`]).
    pub run_end_lost: Option<f64>,
    /// The phase attribution (see [`PhaseAttribution`]).
    pub phases: PhaseAttribution,
    /// Chunk indices (into [`LineageAnalysis::chunks`]) of the makespan
    /// critical path, earliest first.
    pub critical_path: Vec<usize>,
    /// `episode_start` events seen (episodes begun across workstations).
    pub episodes: u64,
    /// Replica dispatches.
    pub replicas: u64,
    /// Requeue events (tasks returned to the bag after lease timeouts).
    pub requeues: u64,
    /// Crashes that struck between chunks (no work was in flight).
    pub dispatch_crashes: u64,
    /// Non-fatal oddities found while reconstructing (torn trace, events
    /// that do not fit the lifecycle).
    pub warnings: Vec<String>,
}

impl LineageAnalysis {
    /// True when `run_end.lost` was present and matches the
    /// re-accumulated [`LineageAnalysis::lost_work`] bit for bit.
    pub fn loss_reconciles(&self) -> bool {
        self.run_end_lost
            .is_some_and(|l| l.to_bits() == self.lost_work.to_bits())
    }
}

/// Per-workstation state while replaying the stream.
#[derive(Debug, Default)]
struct WsState {
    /// Chunk whose dispatch was seen but whose fate event has not.
    pending_fate: Option<usize>,
    /// Straggled chunk awaiting its late arrival bank.
    straggling: Option<usize>,
    /// Message-lost chunk whose occupation window is still open.
    lost_in_transit: Option<usize>,
    /// A `replica` event announced the next dispatch.
    pending_replica: bool,
    /// Chunks dispatched to this workstation, in order.
    order: Vec<usize>,
    /// Virtual time the workstation crashed (dead thereafter).
    crashed_at: Option<f64>,
    /// Lost work accumulated in event order (the farm's per-ws order).
    lost_work: f64,
}

/// Reconstructs chunk lineage, phase attribution and the critical path
/// from a decoded farm trace (see [`crate::decode_lines`] and the module
/// docs). A trace with no farm run is an `Err`; structural oddities inside
/// the run are reported as warnings naming their line. Only the first
/// farm run in the trace is analyzed.
pub fn analyze_lineage(events: &[(usize, Event<'_>)]) -> Result<LineageAnalysis, String> {
    let mut a = LineageAnalysis::default();
    let mut ws_states: Vec<WsState> = Vec::new();
    // Mirrors the farm's dense lease-id counter: leases are created, in
    // stream order, by exactly the three fates that can strand tasks
    // (message loss, mid-compute crash, straggle), so `lease_chunks[id]`
    // is the chunk that owns lease `id`.
    let mut lease_chunks: Vec<usize> = Vec::new();
    // Requeue hand-offs for the critical-path walk: (time, source chunk).
    let mut requeues: Vec<(f64, usize)> = Vec::new();
    // Chunk whose lease timed out most recently (the farm emits the
    // matching requeue immediately after each lease_timeout).
    let mut last_timeout_chunk: Option<usize> = None;
    let mut in_run = false;
    let mut run_seen = false;
    let mut run_end_time: Option<f64> = None;
    let mut max_time = 0.0f64;
    let mut bank_sum = 0.0f64;
    let mut first_replica_at: Option<f64> = None;
    let warn = |a: &mut LineageAnalysis, msg: String| {
        if a.warnings.len() < 25 {
            a.warnings.push(msg);
        }
    };

    for &(n, ev) in events {
        if !in_run {
            if run_seen {
                continue; // only the first farm run is analyzed
            }
            if let EventKind::RunStart {
                seed,
                workstations,
                tasks,
            } = ev.kind
            {
                if workstations > 0 {
                    a.workstations = workstations;
                    a.tasks = tasks;
                    a.seed = seed;
                    ws_states = (0..workstations).map(|_| WsState::default()).collect();
                    in_run = true;
                    run_seen = true;
                }
            }
            continue;
        }
        max_time = max_time.max(ev.time);
        if let EventKind::Bank { work, .. } = ev.kind {
            bank_sum += work;
        }
        // A chunk event naming a workstation the run does not have cannot
        // belong to any chunk.
        if let EventKind::Dispatch { ws, .. }
        | EventKind::Bank { ws, .. }
        | EventKind::PeriodInterrupt { ws, .. }
        | EventKind::Crash { ws }
        | EventKind::MessageLost { ws }
        | EventKind::Straggle { ws } = ev.kind
        {
            if ws >= a.workstations {
                let kind = ev.kind.name();
                warn(&mut a, format!("line {n}: {kind}.ws {ws} out of range"));
                continue;
            }
        }
        match ev.kind {
            EventKind::RunEnd { banked, lost, .. } => {
                a.run_complete = true;
                a.banked = banked;
                a.run_end_lost = Some(lost);
                run_end_time = Some(ev.time);
                in_run = false;
            }
            EventKind::Dispatch { ws, tasks, work } => {
                let st = &mut ws_states[ws as usize];
                if let Some(open) = st.pending_fate.take() {
                    warn(
                        &mut a,
                        format!(
                            "line {n}: dispatch on ws {ws} while chunk #{open} awaits its fate"
                        ),
                    );
                    a.chunks[open].fate = ChunkFate::InFlight;
                }
                // A lost dispatch stops occupying the workstation no later
                // than the next dispatch to it.
                if let Some(ml) = st.lost_in_transit.take() {
                    let c = &mut a.chunks[ml];
                    c.resolved_at = c.resolved_at.min(ev.time);
                }
                let id = a.chunks.len();
                let prev_end = st.order.last().map(|&p| a.chunks[p].resolved_at);
                a.chunks.push(ChunkRecord {
                    id,
                    ws,
                    tasks,
                    work,
                    dispatched_at: ev.time,
                    resolved_at: ev.time,
                    queue_wait: (ev.time - prev_end.unwrap_or(0.0)).max(0.0),
                    service: 0.0,
                    fate: ChunkFate::InFlight,
                    banked: 0.0,
                    duplicate: 0.0,
                    wasted: 0.0,
                    retries: 0,
                    replica: st.pending_replica,
                    winning_replica: false,
                    timed_out: false,
                });
                st.pending_replica = false;
                st.order.push(id);
                st.pending_fate = Some(id);
            }
            EventKind::Bank {
                ws,
                work,
                duplicate: dup,
            } => {
                let st = &mut ws_states[ws as usize];
                let idx = match (st.pending_fate.take(), st.straggling.take()) {
                    (Some(idx), straggle) => {
                        st.straggling = straggle;
                        Some((idx, ChunkFate::Banked))
                    }
                    (None, Some(idx)) => Some((idx, ChunkFate::LateBanked)),
                    (None, None) => {
                        warn(
                            &mut a,
                            format!("line {n}: bank on ws {ws} with no open chunk"),
                        );
                        None
                    }
                };
                if let Some((idx, fate)) = idx {
                    let c = &mut a.chunks[idx];
                    c.fate = fate;
                    c.resolved_at = ev.time;
                    c.banked = work;
                    c.duplicate = dup;
                    c.winning_replica = c.replica && work > 0.0;
                }
            }
            EventKind::PeriodInterrupt { ws, lost } => {
                let st = &mut ws_states[ws as usize];
                st.lost_work += lost;
                match st.pending_fate.take() {
                    Some(idx) => {
                        let c = &mut a.chunks[idx];
                        c.fate = ChunkFate::Reclaimed;
                        c.resolved_at = ev.time;
                        c.wasted = lost;
                    }
                    None => warn(
                        &mut a,
                        format!("line {n}: period_interrupt on ws {ws} with no open chunk"),
                    ),
                }
            }
            EventKind::Crash { ws } => {
                let st = &mut ws_states[ws as usize];
                st.crashed_at = Some(ev.time);
                match st.pending_fate.take() {
                    Some(idx) => {
                        // Mid-compute crash: the chunk's whole duration is
                        // lost and the farm leases its tasks for requeue.
                        let work = a.chunks[idx].work;
                        st.lost_work += work;
                        lease_chunks.push(idx);
                        let c = &mut a.chunks[idx];
                        c.fate = ChunkFate::Crashed;
                        c.resolved_at = ev.time;
                        c.wasted = work;
                    }
                    None => a.dispatch_crashes += 1,
                }
            }
            EventKind::MessageLost { ws } => {
                let st = &mut ws_states[ws as usize];
                match st.pending_fate.take() {
                    Some(idx) => {
                        lease_chunks.push(idx);
                        st.lost_in_transit = Some(idx);
                        let c = &mut a.chunks[idx];
                        c.fate = ChunkFate::MessageLost;
                        // Window stays open: closed by the lease timeout
                        // or the next dispatch, whichever lands first.
                        c.resolved_at = f64::INFINITY;
                    }
                    None => warn(
                        &mut a,
                        format!("line {n}: message_lost on ws {ws} with no open chunk"),
                    ),
                }
            }
            EventKind::Straggle { ws } => {
                let st = &mut ws_states[ws as usize];
                match st.pending_fate.take() {
                    Some(idx) => {
                        lease_chunks.push(idx);
                        if let Some(prev) = st.straggling.replace(idx) {
                            warn(
                                &mut a,
                                format!(
                                    "line {n}: ws {ws} straggles again while chunk #{prev} \
                                     is still in flight"
                                ),
                            );
                        }
                    }
                    None => warn(
                        &mut a,
                        format!("line {n}: straggle on ws {ws} with no open chunk"),
                    ),
                }
            }
            EventKind::LeaseTimeout { lease, .. } => match lease_chunks.get(lease as usize) {
                Some(&idx) => {
                    last_timeout_chunk = Some(idx);
                    let c = &mut a.chunks[idx];
                    c.retries += 1;
                    c.timed_out = true;
                    if c.fate == ChunkFate::MessageLost {
                        c.resolved_at = c.resolved_at.min(ev.time);
                        let st = &mut ws_states[c.ws as usize];
                        if st.lost_in_transit == Some(idx) {
                            st.lost_in_transit = None;
                        }
                    }
                }
                None => warn(
                    &mut a,
                    format!("line {n}: lease_timeout for unknown lease {lease}"),
                ),
            },
            EventKind::Requeue { .. } => {
                a.requeues += 1;
                // The requeue follows its lease_timeout immediately; charge
                // the hand-off to the chunk whose lease just timed out.
                if let Some(idx) = last_timeout_chunk.take() {
                    requeues.push((ev.time, idx));
                }
            }
            EventKind::Replica { ws, .. } => {
                a.replicas += 1;
                first_replica_at = Some(first_replica_at.map_or(ev.time, |t: f64| t.min(ev.time)));
                if let Some(st) = ws_states.get_mut(ws as usize) {
                    st.pending_replica = true;
                }
            }
            EventKind::EpisodeStart { .. } => a.episodes += 1,
            _ => {}
        }
    }

    if !run_seen {
        return Err("trace contains no farm run (run_start with workstations > 0)".into());
    }
    for c in &a.chunks {
        if c.resolved_at.is_finite() {
            max_time = max_time.max(c.resolved_at);
        }
    }
    let makespan = run_end_time.unwrap_or(max_time);
    if !a.run_complete {
        warn(
            &mut a,
            format!("trace ends without run_end; treating t={makespan} as the makespan"),
        );
        a.banked = bank_sum;
    }

    // Close unresolved windows at the makespan.
    for st in &mut ws_states {
        for slot in [
            st.pending_fate.take(),
            st.straggling.take(),
            st.lost_in_transit.take(),
        ]
        .into_iter()
        .flatten()
        {
            let c = &mut a.chunks[slot];
            if c.fate != ChunkFate::MessageLost {
                c.fate = ChunkFate::InFlight;
            }
            // Still occupying the workstation when the trace ends.
            c.resolved_at = makespan.max(c.dispatched_at);
        }
    }
    for c in &mut a.chunks {
        if !c.resolved_at.is_finite() {
            c.resolved_at = makespan;
        }
        c.service = (c.resolved_at - c.dispatched_at).max(0.0);
    }

    // The farm sums per-workstation loss in index order; replicate that
    // exact accumulation so the figure is bitwise, not approximate.
    a.lost_work = ws_states.iter().fold(0.0f64, |acc, st| acc + st.lost_work);

    a.phases = attribute_phases(&a.chunks, &ws_states, a.workstations, makespan);
    a.phases.end_game_tail = first_replica_at.map(|t| (makespan - t).max(0.0));
    a.critical_path = critical_path(&a.chunks, &ws_states, &requeues);
    Ok(a)
}

/// Splits `workstations × makespan` into the phase slices (module docs).
fn attribute_phases(
    chunks: &[ChunkRecord],
    ws_states: &[WsState],
    workstations: u64,
    makespan: f64,
) -> PhaseAttribution {
    let mut p = PhaseAttribution {
        workstations,
        makespan,
        wall: workstations as f64 * makespan,
        ..PhaseAttribution::default()
    };
    for st in ws_states {
        let mut busy = 0.0f64;
        for &idx in &st.order {
            let c = &chunks[idx];
            let window = (c.resolved_at.min(makespan) - c.dispatched_at).max(0.0);
            busy += window;
            match c.fate {
                ChunkFate::Banked | ChunkFate::LateBanked => {
                    // Split the service window between first-banked and
                    // duplicate work in proportion to the bank amounts.
                    let total = c.banked + c.duplicate;
                    let dup_frac = if total > 0.0 {
                        c.duplicate / total
                    } else {
                        0.0
                    };
                    p.useful += window * (1.0 - dup_frac);
                    p.duplicate += window * dup_frac;
                }
                ChunkFate::Reclaimed => p.lost_reclaim += window,
                ChunkFate::Crashed => p.lost_crash += window,
                ChunkFate::MessageLost => p.lost_in_transit += window,
                ChunkFate::InFlight => p.in_flight += window,
            }
        }
        let dead = st
            .crashed_at
            .map_or(0.0, |t| (makespan - t.min(makespan)).max(0.0));
        p.crashed_idle += dead;
        p.idle += (makespan - busy - dead).max(0.0);
    }
    p
}

/// Walks the makespan critical path backwards from the chunk whose bank
/// completes the run: the parent is the chunk whose requeue hand-off
/// landed in the gap before this chunk's dispatch (a cross-workstation
/// dependency), or failing that the previous chunk on the same
/// workstation. Returns chunk indices earliest-first.
fn critical_path(
    chunks: &[ChunkRecord],
    ws_states: &[WsState],
    requeues: &[(f64, usize)],
) -> Vec<usize> {
    let start = chunks
        .iter()
        .filter(|c| matches!(c.fate, ChunkFate::Banked | ChunkFate::LateBanked) && c.banked > 0.0)
        .max_by(|x, y| {
            x.resolved_at
                .partial_cmp(&y.resolved_at)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(x.id.cmp(&y.id))
        })
        .map(|c| c.id);
    let Some(start) = start else {
        return Vec::new();
    };
    let mut path = vec![start];
    let mut cur = start;
    while path.len() <= chunks.len() {
        let c = &chunks[cur];
        let st = &ws_states[c.ws as usize];
        let pos = st.order.iter().position(|&i| i == cur).unwrap_or(0);
        let prev = (pos > 0).then(|| st.order[pos - 1]);
        let gap_start = prev.map_or(0.0, |p| chunks[p].resolved_at);
        // A requeue that landed in this chunk's queue-wait gap is the
        // causal hand-off: the tasks it re-dispatched include ours.
        let hop = requeues
            .iter()
            .filter(|(t, src)| *src != cur && *t > gap_start && *t <= c.dispatched_at)
            .max_by(|(tx, _), (ty, _)| tx.partial_cmp(ty).unwrap_or(std::cmp::Ordering::Equal))
            .map(|&(_, src)| src);
        let parent = hop.or(prev);
        match parent {
            // Stream order gives dispatch-order ids; both hop and prev
            // dispatched strictly earlier, so ids strictly decrease and
            // the walk terminates.
            Some(p) if p < cur => {
                path.push(p);
                cur = p;
            }
            _ => break,
        }
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes `lines` and reconstructs their lineage.
    fn lineage<'a>(lines: impl IntoIterator<Item = &'a str>) -> Result<LineageAnalysis, String> {
        analyze_lineage(&crate::decode_lines(lines)?)
    }

    fn jsonl(events: &[Event]) -> Vec<String> {
        events.iter().map(Event::to_jsonl).collect()
    }

    fn run_start(ws: u64, tasks: u64) -> Event<'static> {
        Event {
            time: 0.0,
            kind: EventKind::RunStart {
                seed: 7,
                workstations: ws,
                tasks,
            },
        }
    }

    fn dispatch(time: f64, ws: u64, tasks: u64, work: f64) -> Event<'static> {
        Event {
            time,
            kind: EventKind::Dispatch { ws, tasks, work },
        }
    }

    fn bank(time: f64, ws: u64, work: f64, duplicate: f64) -> Event<'static> {
        Event {
            time,
            kind: EventKind::Bank {
                ws,
                work,
                duplicate,
            },
        }
    }

    fn run_end(time: f64, banked: f64, lost: f64) -> Event<'static> {
        Event {
            time,
            kind: EventKind::RunEnd {
                banked,
                lost,
                drained: true,
            },
        }
    }

    #[test]
    fn clean_run_attributes_useful_and_idle() {
        // 2 workstations; ws0 banks two chunks back to back, ws1 one.
        let events = vec![
            run_start(2, 10),
            dispatch(0.0, 0, 4, 4.0),
            bank(4.0, 0, 4.0, 0.0),
            dispatch(0.0, 1, 3, 3.0),
            bank(3.0, 1, 3.0, 0.0),
            dispatch(4.0, 0, 2, 2.0),
            bank(6.0, 0, 2.0, 0.0),
            run_end(6.0, 9.0, 0.0),
        ];
        let lines = jsonl(&events);
        let a = lineage(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(a.chunks.len(), 3);
        assert!(a.run_complete);
        assert_eq!(a.phases.makespan, 6.0);
        assert_eq!(a.phases.wall, 12.0);
        assert_eq!(a.phases.useful, 9.0);
        assert_eq!(a.phases.idle, 3.0); // ws1 idle 6-3
        assert!((a.phases.sum() - a.phases.wall).abs() < 1e-9);
        assert_eq!(a.lost_work, 0.0);
        assert!(a.loss_reconciles());
        // Critical path: ws0's two chunks chain to the final bank.
        assert_eq!(a.critical_path, vec![0, 2]);
        let c = &a.chunks[2];
        assert_eq!(c.fate, ChunkFate::Banked);
        assert_eq!(c.queue_wait, 0.0);
        assert_eq!(c.service, 2.0);
    }

    #[test]
    fn reclaim_and_crash_losses_reconcile_bitwise() {
        let events = vec![
            run_start(2, 8),
            dispatch(0.0, 0, 4, 4.0),
            Event {
                time: 2.5,
                kind: EventKind::PeriodInterrupt { ws: 0, lost: 2.5 },
            },
            dispatch(0.0, 1, 4, 4.5),
            Event {
                time: 1.5,
                kind: EventKind::Crash { ws: 1 },
            },
            Event {
                time: 3.0,
                kind: EventKind::LeaseTimeout { ws: 1, lease: 0 },
            },
            Event {
                time: 3.0,
                kind: EventKind::Requeue { ws: 1, tasks: 4 },
            },
            dispatch(3.0, 0, 8, 7.0),
            bank(10.0, 0, 7.0, 0.0),
            run_end(10.0, 7.0, 2.5 + 4.5),
        ];
        let lines = jsonl(&events);
        let a = lineage(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(a.chunks[0].fate, ChunkFate::Reclaimed);
        assert_eq!(a.chunks[0].wasted, 2.5);
        assert_eq!(a.chunks[1].fate, ChunkFate::Crashed);
        assert_eq!(a.chunks[1].wasted, 4.5);
        assert_eq!(a.chunks[1].retries, 1);
        assert!(
            a.loss_reconciles(),
            "{} vs {:?}",
            a.lost_work,
            a.run_end_lost
        );
        // Phases: reclaim 2.5, crash 1.5 of busy time, dead ws1 8.5.
        assert_eq!(a.phases.lost_reclaim, 2.5);
        assert_eq!(a.phases.lost_crash, 1.5);
        assert_eq!(a.phases.crashed_idle, 8.5);
        assert!((a.phases.sum() - a.phases.wall).abs() < 1e-9);
        // Critical path hops through the requeue: crashed chunk #1 fed
        // chunk #2's dispatch at t=3.
        assert_eq!(a.critical_path, vec![1, 2]);
    }

    #[test]
    fn straggler_late_bank_and_replicas() {
        let events = vec![
            run_start(2, 6),
            dispatch(0.0, 0, 3, 6.0),
            Event {
                time: 0.0,
                kind: EventKind::Straggle { ws: 0 },
            },
            Event {
                time: 3.0,
                kind: EventKind::LeaseTimeout { ws: 0, lease: 0 },
            },
            Event {
                time: 3.0,
                kind: EventKind::Requeue { ws: 0, tasks: 3 },
            },
            // Requeued tasks replicate on ws1.
            Event {
                time: 3.0,
                kind: EventKind::Replica { ws: 1, tasks: 3 },
            },
            dispatch(3.0, 1, 3, 5.0),
            // The straggler's late arrival banks first...
            bank(6.0, 0, 6.0, 0.0),
            // ...so the replica's bank is all duplicate.
            bank(8.0, 1, 0.0, 5.0),
            dispatch(6.0, 0, 3, 1.0),
            bank(7.0, 0, 1.0, 0.0),
            run_end(8.0, 7.0, 0.0),
        ];
        let lines = jsonl(&events);
        let a = lineage(lines.iter().map(String::as_str)).unwrap();
        assert_eq!(a.chunks[0].fate, ChunkFate::LateBanked);
        assert!(a.chunks[0].timed_out);
        assert_eq!(a.chunks[0].banked, 6.0);
        assert!(a.chunks[1].replica);
        assert!(!a.chunks[1].winning_replica);
        assert_eq!(a.chunks[1].duplicate, 5.0);
        assert_eq!(a.replicas, 1);
        assert_eq!(a.phases.duplicate, 5.0);
        assert_eq!(a.phases.end_game_tail, Some(5.0));
        assert!((a.phases.sum() - a.phases.wall).abs() < 1e-9);
        assert!(a.loss_reconciles());
    }

    #[test]
    fn message_lost_window_caps_at_timeout_or_redispatch() {
        let events = vec![
            run_start(1, 4),
            dispatch(0.0, 0, 4, 4.0),
            Event {
                time: 0.0,
                kind: EventKind::MessageLost { ws: 0 },
            },
            Event {
                time: 2.0,
                kind: EventKind::LeaseTimeout { ws: 0, lease: 0 },
            },
            Event {
                time: 2.0,
                kind: EventKind::Requeue { ws: 0, tasks: 4 },
            },
            dispatch(4.0, 0, 4, 4.0),
            bank(8.0, 0, 4.0, 0.0),
            run_end(8.0, 4.0, 0.0),
        ];
        let lines = jsonl(&events);
        let a = lineage(lines.iter().map(String::as_str)).unwrap();
        let ml = &a.chunks[0];
        assert_eq!(ml.fate, ChunkFate::MessageLost);
        assert_eq!(ml.resolved_at, 2.0); // the timeout, not the redispatch
        assert_eq!(ml.wasted, 0.0);
        assert_eq!(a.phases.lost_in_transit, 2.0);
        assert_eq!(a.phases.useful, 4.0);
        assert_eq!(a.phases.idle, 2.0);
        assert!((a.phases.sum() - a.phases.wall).abs() < 1e-9);
        // The requeue hop makes the lost chunk the banked chunk's parent.
        assert_eq!(a.critical_path, vec![0, 1]);
        assert_eq!(a.chunks[1].queue_wait, 2.0);
    }

    #[test]
    fn torn_trace_warns_and_uses_latest_time() {
        let events = vec![
            run_start(1, 4),
            dispatch(0.0, 0, 2, 2.0),
            bank(2.0, 0, 2.0, 0.0),
            dispatch(2.0, 0, 2, 2.0),
            // killed here: no fate, no run_end
        ];
        let lines = jsonl(&events);
        let a = lineage(lines.iter().map(String::as_str)).unwrap();
        assert!(!a.run_complete);
        assert!(a.warnings.iter().any(|w| w.contains("run_end")));
        assert_eq!(a.chunks[1].fate, ChunkFate::InFlight);
        assert_eq!(a.banked, 2.0);
        assert_eq!(a.phases.makespan, 2.0);
        assert!((a.phases.sum() - a.phases.wall).abs() < 1e-9);
    }

    #[test]
    fn non_farm_trace_is_rejected() {
        let lines = [
            r#"{"v":2,"t":0,"type":"run_start","seed":1,"workstations":0,"tasks":0}"#,
            r#"{"v":2,"t":1,"type":"run_end","banked":1,"lost":0,"drained":false}"#,
        ];
        let err = lineage(lines).unwrap_err();
        assert!(err.contains("no farm run"), "{err}");
    }

    #[test]
    fn seed_above_2_pow_53_is_exact() {
        let lines = [
            r#"{"v":2,"t":0,"type":"run_start","seed":9007199254740993,"workstations":1,"tasks":0}"#,
        ];
        assert_eq!(lineage(lines).unwrap().seed, 9_007_199_254_740_993);
    }

    #[test]
    fn malformed_line_names_its_number() {
        let lines = [
            r#"{"v":2,"t":0,"type":"run_start","seed":1,"workstations":1,"tasks":1}"#,
            "{broken",
        ];
        let err = lineage(lines).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
