//! Monte-Carlo estimation of an episode's expected work.
//!
//! Reclamation times are drawn from the life function by inverse transform
//! (`P(R > t) = p(t)` ⇒ `R = p⁻¹(U)`); each trial runs one episode with the
//! §2.1 kill semantics. The sample mean converges to the analytic `E(S; p)`
//! of eq (2.1) — the model-validation experiment `exp_sim_validate`.
//!
//! [`simulate`] is the one entry point. Both of its trial loops run each
//! untraced trial's episode through one [`EpisodeTable`] built per run: a
//! binary search for the interrupted period replaces the period-by-period
//! walk, bit-identically. A serial run whose sink wants events walks each
//! episode with [`run_episode`] so the trace carries its lifecycle.
//!
//! The pooled loop runs trials on the `cs-pool` work-stealing runtime.
//! The master pre-draws every trial's uniform variate from the *same* RNG
//! stream the serial loop uses, workers run the (pure) inverse transform
//! and table lookup for dynamically-balanced trial batches, and the master
//! merges per-trial work back in trial order. Consequence: the pooled
//! result is bit-identical to the serial path for **every** thread count —
//! batch decomposition is pure load balancing and cannot leak into the
//! numbers.

use crate::episode::{run_episode, EpisodeTable};
use crate::stats::Summary;
use cs_core::Schedule;
use cs_life::LifeFunction;
use cs_obs::{Event, EventKind, EventSink, SpanId, SpanProfiler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    /// Summary of per-episode banked work.
    pub work: Summary,
    /// Fraction of episodes interrupted mid-schedule.
    pub interrupted_fraction: f64,
    /// Mean number of completed periods.
    pub mean_periods: f64,
    /// Episode events of the pooled worker batches. Worker traces are not
    /// emitted (they would interleave nondeterministically across
    /// threads); each trial's count is taken in closed form from its
    /// [`EpisodeTable`] lookup instead, so throughput accounting must add
    /// this to whatever reached the caller's sink. Zero on serial paths,
    /// where every event reaches the sink and is already counted. Because
    /// the pooled path replays the exact serial trial stream, this tally
    /// equals the number of episode events the serial trace would contain —
    /// batch boundaries cannot skew it.
    pub shard_events: u64,
    /// The work-stealing pool's scheduling snapshot (tasks, steals, batch
    /// sizes, parks), so callers can surface worker utilization. `None`
    /// when the run took the serial path. Scheduling-dependent, unlike
    /// every other field.
    pub pool: Option<cs_pool::PoolMetrics>,
}

/// Monte-Carlo estimate of `E[work]` for `schedule` under `p`.
///
/// With `threads <= 1` (or fewer than 2 trials) the trials run serially on
/// the caller's thread; otherwise on the `cs-pool` work-stealing runtime:
/// the master pre-draws each trial's uniform variate from the unchanged
/// serial RNG stream, workers run dynamically-balanced batches of pure
/// per-trial work (inverse transform + episode lookup), and outcomes are
/// merged back in trial order. The result is bit-identical for the same
/// `(schedule, p, c, trials, seed)` regardless of `threads`.
///
/// The trace is `run_start`, `mc_progress` every `max(1, trials/20)`
/// trials, and a closing `run_end`. A serial run also traces each
/// episode's lifecycle (episode times restart at 0 each trial); pooled
/// worker batches run untraced, since their events would interleave
/// nondeterministically, and tally them into `shard_events` instead.
///
/// `prof` times the trial loop under an `mc.trials` root span: serially
/// one `mc.trial_batch` child per progress stride; pooled, an `mc.draw`
/// span per pre-draw window, `mc.pool` for the fan-out and `mc.merge` for
/// the in-order merge, with pool counters under `span.mc.trials.pool.*`.
/// Span events sit strictly between `run_start` and `run_end`. Sink and
/// profiler are strictly pass-through: the result is bit-identical with
/// tracing and profiling on or off.
///
/// # Examples
///
/// ```
/// use cs_core::Schedule;
/// use cs_life::Uniform;
/// use cs_obs::{NoopSink, SpanProfiler};
/// use cs_sim::simulate;
/// let p = Uniform::new(100.0).unwrap();
/// let s = Schedule::new(vec![30.0, 20.0]).unwrap();
/// let mc = simulate(&s, &p, 2.0, 10_000, 42, 1, NoopSink, &mut SpanProfiler::disabled());
/// let analytic = s.expected_work(&p, 2.0);
/// assert!((mc.work.mean() - analytic).abs() < 5.0 * mc.work.std_error());
/// ```
#[allow(clippy::too_many_arguments)]
pub fn simulate<S: EventSink>(
    schedule: &Schedule,
    p: &dyn LifeFunction,
    c: f64,
    trials: u64,
    seed: u64,
    threads: usize,
    mut sink: S,
    prof: &mut SpanProfiler,
) -> MonteCarlo {
    sink.emit(&Event {
        time: 0.0,
        kind: EventKind::RunStart {
            seed,
            workstations: 0,
            tasks: 0,
        },
    });
    let root = prof.start("mc.trials", &mut sink);
    let table = EpisodeTable::new(schedule, c);
    let (work, tally, pool) = if threads <= 1 || trials < 2 {
        let (work, tally) = serial_trials(schedule, c, p, &table, trials, seed, &mut sink, prof);
        (work, tally, None)
    } else {
        let (work, tally, pm) = pooled_trials(p, &table, trials, seed, threads, &mut sink, prof);
        (work, tally, Some(pm))
    };
    prof.end(root, &mut sink);
    let mc = MonteCarlo {
        work,
        interrupted_fraction: tally.interrupted as f64 / trials.max(1) as f64,
        mean_periods: tally.periods as f64 / trials.max(1) as f64,
        shard_events: tally.events,
        pool,
    };
    sink.emit(&Event {
        time: trials as f64,
        kind: EventKind::RunEnd {
            banked: mc.work.mean(),
            lost: 0.0,
            drained: false,
        },
    });
    mc
}

/// Integer tallies of a batch of trials.
#[derive(Debug, Default)]
struct BatchTally {
    interrupted: u64,
    periods: u64,
    events: u64,
}

impl BatchTally {
    fn add(&mut self, other: &BatchTally) {
        self.interrupted += other.interrupted;
        self.periods += other.periods;
        self.events += other.events;
    }
}

/// The serial trial loop. Each stride of trials (one `mc_progress`
/// interval) runs inside an `mc.trial_batch` span, so the profiler's
/// `span_ns.mc.trial_batch` histogram shows how batch latency is
/// distributed across the run. The profiler only reads the wall clock —
/// trial order, RNG draws and tallies are untouched. Every event reaches
/// the sink, so `events` stays zero.
#[allow(clippy::too_many_arguments)]
fn serial_trials<S: EventSink>(
    schedule: &Schedule,
    c: f64,
    p: &dyn LifeFunction,
    table: &EpisodeTable,
    trials: u64,
    seed: u64,
    mut sink: S,
    prof: &mut SpanProfiler,
) -> (Summary, BatchTally) {
    let traced = sink.wants_events();
    let progress_stride = (trials / 20).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut work = Summary::new();
    let mut tally = BatchTally::default();
    let mut batch = prof.start("mc.trial_batch", &mut sink);
    let mut batch_trials = 0u64;
    // Milestones: every multiple of the stride, and the last trial.
    let mut next_tick = progress_stride.min(trials);
    for i in 0..trials {
        let u = rng.random::<f64>().clamp(1e-15, 1.0 - 1e-15);
        let r = p.inverse_survival(u);
        // The walk and the table agree bit for bit on (work, k); only the
        // walk emits the episode's events.
        let (w, k) = if traced {
            let out = run_episode(schedule, c, r, &mut sink);
            (out.work, out.periods_completed)
        } else {
            let k = table.interrupted_period(r);
            (table.banked(k), k)
        };
        work.push(w);
        tally.interrupted += u64::from(k < table.len());
        tally.periods += k as u64;
        batch_trials += 1;
        let done = i + 1;
        if done == next_tick {
            sink.emit(&Event {
                time: done as f64,
                kind: EventKind::McProgress {
                    done,
                    total: trials,
                },
            });
            next_tick = next_tick.saturating_add(progress_stride).min(trials);
            prof.bump("trials", batch_trials);
            batch_trials = 0;
            prof.end(batch, &mut sink);
            batch = if done < trials {
                prof.start("mc.trial_batch", &mut sink)
            } else {
                SpanId::NONE
            };
        }
    }
    // Zero-trial runs leave the opening batch span dangling; close it.
    prof.end(batch, &mut sink);
    (work, tally)
}

/// Trials per pre-draw window. At most two windows are in flight (one on
/// the pool, one being drawn or merged by the master), which bounds
/// pooled-path memory (one `f64` variate plus one `f64` of banked work per
/// in-flight trial) no matter how many trials the run asks for; windows
/// replay the serial RNG stream back-to-back, so the decomposition is
/// invisible in the results. Sized so the master's serial per-window work
/// (drawing the next window, merging the previous) overlaps a pooled
/// window large enough to hide it.
const MC_WINDOW: u64 = 1 << 16;

/// The pooled trial loop: the master draws every variate from the serial
/// RNG stream, the pool runs the pure per-trial lookups, and the master
/// merges outcomes in trial order with the serial loop's exact `mc_progress`
/// milestones.
fn pooled_trials<S: EventSink>(
    p: &dyn LifeFunction,
    table: &EpisodeTable,
    trials: u64,
    seed: u64,
    threads: usize,
    mut sink: S,
    prof: &mut SpanProfiler,
) -> (Summary, BatchTally, cs_pool::PoolMetrics) {
    let pool = cs_pool::Pool::new(threads);
    // The exact RNG stream the serial loop would consume — every variate is
    // drawn here, in trial order, on the master.
    let mut rng = StdRng::seed_from_u64(seed);
    let stride = (trials / 20).max(1);
    let mut work = Summary::new();
    let mut tally = BatchTally::default();
    let mut done = 0u64;
    // The serial milestone set: every multiple of `stride`, and `trials`.
    let mut next_tick = stride.min(trials);
    // The master's serial sections (drawing the next window's variates,
    // merging the previous window's outcomes in trial order) pipeline
    // against the pool: a helper thread drives `map_indexed` so the master
    // is never blocked behind a window it could be drawing or merging.
    // Windows are still drawn, dispatched, and merged strictly in order,
    // so the overlap changes wall-clock only — never a bit of the result.
    type WindowOut = Vec<(Vec<f64>, BatchTally)>;
    std::thread::scope(|scope| {
        let (job_tx, job_rx) = std::sync::mpsc::channel::<(Vec<f64>, usize)>();
        let (res_tx, res_rx) = std::sync::mpsc::channel::<WindowOut>();
        let pool = &pool;
        scope.spawn(move || {
            while let Ok((us, batch)) = job_rx.recv() {
                let wlen = us.len();
                let batches = wlen.div_ceil(batch);
                let results = pool.map_indexed(batches, |bi| {
                    let lo = bi * batch;
                    let hi = (lo + batch).min(wlen);
                    let mut tally = BatchTally::default();
                    let mut outs = Vec::with_capacity(hi - lo);
                    for &u in &us[lo..hi] {
                        // Pure per-trial work: same inputs → same bits, so
                        // batch decomposition cannot affect any outcome.
                        let k = table.interrupted_period(p.inverse_survival(u));
                        outs.push(table.banked(k));
                        tally.interrupted += u64::from(k < table.len());
                        tally.periods += k as u64;
                        tally.events += table.event_count(k);
                    }
                    (outs, tally)
                });
                if res_tx.send(results).is_err() {
                    break;
                }
            }
        });
        let mut merge = |results: WindowOut, prof: &mut SpanProfiler, sink: &mut S| {
            let merge_span = prof.start("mc.merge", sink);
            for (outs, batch_tally) in results {
                // Integer sums: exact in any order.
                tally.add(&batch_tally);
                for w in outs {
                    // Identical accumulation order and operations to the
                    // serial loop — this is what makes the summaries
                    // bit-identical.
                    work.push(w);
                    done += 1;
                    if done == next_tick {
                        sink.emit(&Event {
                            time: done as f64,
                            kind: EventKind::McProgress {
                                done,
                                total: trials,
                            },
                        });
                        next_tick = next_tick.saturating_add(stride).min(trials);
                    }
                }
            }
            prof.end(merge_span, sink);
        };
        let mut in_flight = 0u32;
        let mut remaining = trials;
        while remaining > 0 {
            let wlen = remaining.min(MC_WINDOW) as usize;
            remaining -= wlen as u64;
            let draw = prof.start("mc.draw", &mut sink);
            let us: Vec<f64> = (0..wlen)
                .map(|_| rng.random::<f64>().clamp(1e-15, 1.0 - 1e-15))
                .collect();
            prof.end(draw, &mut sink);
            // Small batches relative to window/threads so the pool has
            // slack to balance: a worker that lands expensive episodes
            // simply completes fewer batches while others steal the rest.
            let batch = wlen.div_ceil(threads * 8).clamp(32, 8192);
            prof.bump("batches", wlen.div_ceil(batch) as u64);
            job_tx.send((us, batch)).expect("pool driver thread died");
            in_flight += 1;
            // Merge the previous window while the pool runs this one.
            if in_flight == 2 {
                let wait = prof.start("mc.pool", &mut sink);
                let results = res_rx.recv().expect("pool driver thread died");
                prof.end(wait, &mut sink);
                merge(results, prof, &mut sink);
                in_flight -= 1;
            }
        }
        drop(job_tx);
        while in_flight > 0 {
            let wait = prof.start("mc.pool", &mut sink);
            let results = res_rx.recv().expect("pool driver thread died");
            prof.end(wait, &mut sink);
            merge(results, prof, &mut sink);
            in_flight -= 1;
        }
    });
    let pm = pool.metrics();
    prof.bump("pool.tasks", pm.tasks);
    prof.bump("pool.steals", pm.steals);
    prof.bump("pool.stolen_tasks", pm.stolen_tasks);
    prof.bump("pool.parks", pm.parks);
    (work, tally, pm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_life::{GeometricDecreasing, GeometricIncreasing, Polynomial, Uniform};
    use cs_obs::NoopSink;

    fn sched(v: &[f64]) -> Schedule {
        Schedule::new(v.to_vec()).unwrap()
    }

    /// The Monte-Carlo mean must match E(S;p) within ~4 standard errors.
    fn assert_matches_analytic(p: &dyn LifeFunction, s: &Schedule, c: f64) {
        let analytic = s.expected_work(p, c);
        let mc = simulate(
            s,
            p,
            c,
            60_000,
            42,
            1,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        let err = (mc.work.mean() - analytic).abs();
        let tol = 4.0 * mc.work.std_error() + 1e-9;
        assert!(
            err <= tol,
            "MC mean {} vs analytic {analytic} (err {err}, tol {tol})",
            mc.work.mean()
        );
    }

    #[test]
    fn validates_uniform() {
        let p = Uniform::new(100.0).unwrap();
        assert_matches_analytic(&p, &sched(&[30.0, 25.0, 20.0]), 5.0);
    }

    #[test]
    fn validates_polynomial() {
        let p = Polynomial::new(3, 50.0).unwrap();
        assert_matches_analytic(&p, &sched(&[20.0, 12.0, 8.0]), 2.0);
    }

    #[test]
    fn validates_geometric_decreasing() {
        let p = GeometricDecreasing::new(2.0).unwrap();
        assert_matches_analytic(&p, &sched(&[2.0; 30]), 0.5);
    }

    #[test]
    fn validates_geometric_increasing() {
        let p = GeometricIncreasing::new(32.0).unwrap();
        assert_matches_analytic(&p, &sched(&[20.0, 5.0, 3.0]), 1.0);
    }

    #[test]
    fn interrupted_fraction_matches_survival() {
        // P(interrupted before schedule end) = 1 - p(T_last).
        let p = Uniform::new(100.0).unwrap();
        let s = sched(&[40.0]);
        let mc = simulate(
            &s,
            &p,
            1.0,
            50_000,
            7,
            1,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        assert!((mc.interrupted_fraction - 0.4).abs() < 0.01);
        assert!(mc.mean_periods > 0.55 && mc.mean_periods < 0.65);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let p = Uniform::new(100.0).unwrap();
        let s = sched(&[30.0, 20.0]);
        let a = simulate(
            &s,
            &p,
            2.0,
            5000,
            99,
            1,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        let b = simulate(
            &s,
            &p,
            2.0,
            5000,
            99,
            1,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        assert_eq!(a.work.mean(), b.work.mean());
    }

    #[test]
    fn parallel_matches_analytic_and_is_deterministic() {
        let p = Uniform::new(200.0).unwrap();
        let s = sched(&[60.0, 50.0, 40.0]);
        let c = 4.0;
        let analytic = s.expected_work(&p, c);
        let a = simulate(
            &s,
            &p,
            c,
            80_000,
            1234,
            4,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        let b = simulate(
            &s,
            &p,
            c,
            80_000,
            1234,
            4,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        assert_eq!(
            a.work.mean(),
            b.work.mean(),
            "parallel run not reproducible"
        );
        let err = (a.work.mean() - analytic).abs();
        assert!(err <= 4.0 * a.work.std_error() + 1e-9);
        assert_eq!(a.work.count(), 80_000);
    }

    #[test]
    fn parallel_is_bit_identical_to_serial_for_any_thread_count() {
        // The load-balancing guarantee: the pooled path replays the serial
        // RNG stream and merge order, so the summary is the same bits no
        // matter how the batches were scheduled.
        let p = Polynomial::new(2, 80.0).unwrap();
        let s = sched(&[25.0, 15.0, 10.0]);
        let serial = simulate(
            &s,
            &p,
            3.0,
            30_000,
            4242,
            1,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        for threads in [2, 3, 4, 8] {
            let par = simulate(
                &s,
                &p,
                3.0,
                30_000,
                4242,
                threads,
                NoopSink,
                &mut SpanProfiler::disabled(),
            );
            assert_eq!(
                serial.work.mean().to_bits(),
                par.work.mean().to_bits(),
                "{threads} threads"
            );
            assert_eq!(serial.work.min().to_bits(), par.work.min().to_bits());
            assert_eq!(serial.work.max().to_bits(), par.work.max().to_bits());
            assert_eq!(
                serial.work.std_error().to_bits(),
                par.work.std_error().to_bits()
            );
            assert_eq!(serial.interrupted_fraction, par.interrupted_fraction);
            assert_eq!(serial.mean_periods, par.mean_periods);
        }
    }

    #[test]
    fn parallel_single_thread_falls_back() {
        let p = Uniform::new(50.0).unwrap();
        let s = sched(&[10.0]);
        let a = simulate(
            &s,
            &p,
            1.0,
            1000,
            5,
            1,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        let b = simulate(
            &s,
            &p,
            1.0,
            1000,
            5,
            1,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        assert_eq!(a.work.mean(), b.work.mean());
    }

    #[test]
    fn observed_serial_is_passthrough_and_ticks_progress() {
        use cs_obs::MemorySink;
        let p = Uniform::new(100.0).unwrap();
        let s = sched(&[30.0, 20.0]);
        let plain = simulate(
            &s,
            &p,
            2.0,
            400,
            99,
            1,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        let mut sink = MemorySink::new();
        let traced = simulate(
            &s,
            &p,
            2.0,
            400,
            99,
            1,
            &mut sink,
            &mut SpanProfiler::disabled(),
        );
        assert_eq!(plain.work.mean().to_bits(), traced.work.mean().to_bits());
        assert_eq!(plain.work.count(), traced.work.count());
        let progress: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e.kind {
                cs_obs::EventKind::McProgress { done, total } => Some((done, total)),
                _ => None,
            })
            .collect();
        assert_eq!(progress.len(), 20);
        assert_eq!(progress.last(), Some(&(400, 400)));
        assert!(matches!(
            sink.events.last().unwrap().kind,
            cs_obs::EventKind::RunEnd { .. }
        ));
    }

    #[test]
    fn observed_parallel_is_passthrough() {
        use cs_obs::MemorySink;
        let p = Uniform::new(200.0).unwrap();
        let s = sched(&[60.0, 50.0]);
        let plain = simulate(
            &s,
            &p,
            4.0,
            8000,
            7,
            4,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        let mut sink = MemorySink::new();
        let traced = simulate(
            &s,
            &p,
            4.0,
            8000,
            7,
            4,
            &mut sink,
            &mut SpanProfiler::disabled(),
        );
        assert_eq!(plain.work.mean().to_bits(), traced.work.mean().to_bits());
        assert_eq!(plain.work.max().to_bits(), traced.work.max().to_bits());
        // run_start + the serial milestone set (trials/20 stride → 20
        // ticks) + run_end: the parallel trace matches serial cadence.
        assert_eq!(sink.events.len(), 22);
        assert!(matches!(
            sink.events[0].kind,
            cs_obs::EventKind::RunStart { seed: 7, .. }
        ));
        let progress: Vec<_> = sink
            .events
            .iter()
            .filter_map(|e| match e.kind {
                cs_obs::EventKind::McProgress { done, total } => Some((done, total)),
                _ => None,
            })
            .collect();
        assert_eq!(progress.len(), 20);
        assert_eq!(progress.first(), Some(&(400, 8000)));
        assert_eq!(progress.last(), Some(&(8000, 8000)));
    }

    #[test]
    fn profiled_serial_is_passthrough_with_batch_spans() {
        use cs_obs::{EventKind as K, MemorySink};
        let p = Uniform::new(100.0).unwrap();
        let s = sched(&[30.0, 20.0]);
        let plain = simulate(
            &s,
            &p,
            2.0,
            400,
            99,
            1,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        let mut sink = MemorySink::new();
        let mut prof = SpanProfiler::new();
        let profiled = simulate(&s, &p, 2.0, 400, 99, 1, &mut sink, &mut prof);
        // Pass-through: bit-identical tallies.
        assert_eq!(plain.work.mean().to_bits(), profiled.work.mean().to_bits());
        assert_eq!(plain.work.count(), profiled.work.count());
        assert_eq!(plain.interrupted_fraction, profiled.interrupted_fraction);
        // 20 progress strides → 20 batch spans under one mc.trials root.
        assert_eq!(prof.open_spans(), 0);
        let batches = prof.registry().histogram("span_ns.mc.trial_batch").unwrap();
        assert_eq!(batches.count(), 20);
        assert_eq!(
            prof.registry()
                .histogram("span_ns.mc.trials")
                .unwrap()
                .count(),
            1
        );
        assert_eq!(prof.registry().counter("span.mc.trial_batch.trials"), 400);
        // Trace layout: run_start first, run_end last, spans balanced.
        assert!(matches!(
            sink.events.first().unwrap().kind,
            K::RunStart { .. }
        ));
        assert!(matches!(sink.events.last().unwrap().kind, K::RunEnd { .. }));
        let starts = sink
            .events
            .iter()
            .filter(|e| matches!(e.kind, K::SpanStart { .. }))
            .count();
        let ends = sink
            .events
            .iter()
            .filter(|e| matches!(e.kind, K::SpanEnd { .. }))
            .count();
        assert_eq!(starts, 21);
        assert_eq!(starts, ends);
    }

    #[test]
    fn profiled_parallel_is_passthrough_with_shard_spans() {
        use cs_obs::MemorySink;
        let p = Uniform::new(200.0).unwrap();
        let s = sched(&[60.0, 50.0]);
        let plain = simulate(
            &s,
            &p,
            4.0,
            8000,
            7,
            4,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        let mut sink = MemorySink::new();
        let mut prof = SpanProfiler::new();
        let profiled = simulate(&s, &p, 4.0, 8000, 7, 4, &mut sink, &mut prof);
        assert_eq!(plain.work.mean().to_bits(), profiled.work.mean().to_bits());
        assert_eq!(plain.work.max().to_bits(), profiled.work.max().to_bits());
        assert_eq!(prof.open_spans(), 0);
        for span in [
            "span_ns.mc.trials",
            "span_ns.mc.draw",
            "span_ns.mc.pool",
            "span_ns.mc.merge",
        ] {
            assert_eq!(
                prof.registry().histogram(span).unwrap().count(),
                1,
                "{span}"
            );
        }
        // Pool scheduling counters land under the root span.
        assert!(prof.registry().counter("span.mc.trials.pool.tasks") > 0);
        // Every emitted line decodes back to the event it came from.
        for e in &sink.events {
            assert_eq!(cs_obs::Event::from_jsonl(&e.to_jsonl()).as_ref(), Ok(e));
        }
    }

    #[test]
    fn parallel_counts_shard_events_serial_does_not() {
        use cs_obs::MemorySink;
        let p = Uniform::new(200.0).unwrap();
        let s = sched(&[60.0, 50.0]);
        // Serial: every event reaches the sink, so nothing is shard-only.
        let mut sink = MemorySink::new();
        let serial = simulate(
            &s,
            &p,
            4.0,
            2000,
            7,
            1,
            &mut sink,
            &mut SpanProfiler::disabled(),
        );
        assert_eq!(serial.shard_events, 0);
        let serial_episode_events = sink
            .events
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    cs_obs::EventKind::RunStart { .. }
                        | cs_obs::EventKind::RunEnd { .. }
                        | cs_obs::EventKind::McProgress { .. }
                )
            })
            .count() as u64;
        // Parallel: workers trace nothing into the sink, but their event
        // production is tallied — and because the pooled path replays the
        // exact serial trial stream, the tally EQUALS the serial trace's
        // episode event count, independent of batch boundaries.
        let par = simulate(
            &s,
            &p,
            4.0,
            2000,
            7,
            4,
            NoopSink,
            &mut SpanProfiler::disabled(),
        );
        assert_eq!(par.shard_events, serial_episode_events);
        assert!(
            par.shard_events >= 2 * 2000,
            "shard_events {} < 2 per trial",
            par.shard_events
        );
    }
}
