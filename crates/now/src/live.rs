//! Live threaded executor: real worker threads, real (synthetic) compute,
//! real kill semantics.
//!
//! The virtual-time simulator ([`crate::farm`]) answers the quantitative
//! questions; this module demonstrates the library driving an actual
//! concurrent task farm the way workstation A would:
//!
//! * one thread per borrowed workstation, sharing the master's
//!   [`TaskBag`] behind one [`std::sync::Mutex`];
//! * per period: a simulated communication setup delay (`c`), chunk
//!   check-out, CPU-burning execution of each task, result bank-in;
//! * an owner "reclaim" deadline per workstation — reaching it mid-chunk
//!   destroys the chunk (tasks return to the bag), ending that
//!   workstation's episode. Kills are detected at task boundaries, the
//!   natural checkpoint granularity of a task farm.
//!
//! Virtual time maps to wall-clock time via `time_scale`; tests use
//! microsecond scales so the suite stays fast.

use cs_core::Schedule;
use cs_tasks::{Task, TaskBag};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One live borrowed workstation: the schedule its master-side driver will
/// attempt, its overhead, and when its owner returns.
#[derive(Debug, Clone)]
pub struct LiveWorker {
    /// Periods to attempt during the episode.
    pub schedule: Schedule,
    /// Communication overhead per period, in virtual time units.
    pub c: f64,
    /// Owner's return time (virtual units from episode start).
    pub reclaim_at: f64,
}

/// Aggregate outcome of a live run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveOutcome {
    /// Task time banked across all workers.
    pub completed_work: f64,
    /// Task time destroyed by reclamations.
    pub lost_work: f64,
    /// Tasks banked.
    pub tasks_completed: u64,
    /// Chunks destroyed.
    pub chunks_lost: u64,
    /// Worker episodes ended by a panicking task. The panicking chunk's
    /// tasks are requeued (not lost), so they stay claimable by surviving
    /// workers.
    pub worker_panics: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

/// Burns CPU for approximately `d` (spin loop — the synthetic stand-in for
/// a task's computation).
fn spin_for(d: Duration) {
    let end = Instant::now() + d;
    while Instant::now() < end {
        std::hint::spin_loop();
    }
}

/// Per-worker tally returned from each thread.
#[derive(Default)]
struct WorkerTally {
    completed: f64,
    lost: f64,
    tasks: u64,
    chunks_lost: u64,
    panics: u64,
}

/// The master's shared state: the bag plus the number of checked-out
/// chunks not yet banked, requeued, or abandoned. "Drained" means the
/// bag is empty **and** nothing is in flight — an in-flight chunk can
/// still come back (reclaim kill, worker panic), so a worker seeing an
/// empty bag must not retire while one is outstanding.
struct LiveState {
    bag: TaskBag,
    in_flight: usize,
}

/// Locks the shared state, recovering it from a poisoned lock, so a worker
/// that panicked while holding it cannot take the bag down with it.
fn lock(shared: &Mutex<LiveState>) -> MutexGuard<'_, LiveState> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one episode per worker concurrently over the shared bag.
///
/// `time_scale` converts virtual time units to wall time (e.g. `50 µs` per
/// unit in tests). Returns the aggregate outcome; the bag reflects completed
/// and returned tasks afterwards.
pub fn run_live(bag: &mut TaskBag, workers: &[LiveWorker], time_scale: Duration) -> LiveOutcome {
    let exec = move |task: &Task| spin_for(time_scale.mul_f64(task.duration.max(0.0)));
    run_live_with(bag, workers, time_scale, &exec)
}

/// [`run_live`] with a custom task executor (tests inject panicking or
/// instrumented tasks; `run_live` passes the synthetic spin loop).
///
/// Workers are **supervised**: a panic in `exec` is caught at the task
/// boundary, the in-flight chunk's tasks are requeued — still claimable by
/// surviving workers, not lost work — the panicking worker's episode ends,
/// and the panic is tallied in [`LiveOutcome::worker_panics`]. A panic
/// never propagates to the master thread. Task panics happen outside the
/// bag lock; should anything panic while holding it, the poisoned lock is
/// recovered ([`PoisonError::into_inner`]), so the shared bag stays usable.
///
/// Workers retire on an empty bag only once nothing is in flight: a
/// checked-out chunk can still be requeued (panic) or abandoned
/// (reclaim kill), so a worker seeing an empty bag idles within its
/// current period until the last outstanding chunk resolves — the
/// requeued work stays claimable by survivors instead of racing their
/// shutdown.
pub fn run_live_with(
    bag: &mut TaskBag,
    workers: &[LiveWorker],
    time_scale: Duration,
    exec: &(dyn Fn(&Task) + Sync),
) -> LiveOutcome {
    let start = Instant::now();
    let shared = Mutex::new(LiveState {
        bag: std::mem::take(bag),
        in_flight: 0,
    });
    let scale = |v: f64| time_scale.mul_f64(v.max(0.0));
    let outcomes: Vec<WorkerTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter()
            .map(|w| {
                let shared = &shared;
                scope.spawn(move || {
                    let episode_start = Instant::now();
                    let deadline = episode_start + scale(w.reclaim_at);
                    let mut tally = WorkerTally::default();
                    'episode: for &t in w.schedule.periods() {
                        // Communication setup (send work + receive results).
                        spin_for(scale(w.c));
                        if Instant::now() >= deadline {
                            break 'episode;
                        }
                        let chunk = {
                            let mut s = lock(shared);
                            let chunk = cs_tasks::pack_chunk(&mut s.bag, t, w.c);
                            if !chunk.is_empty() {
                                s.in_flight += 1;
                            }
                            chunk
                        };
                        if chunk.is_empty() {
                            // Nothing to pack. Retire only when the run is
                            // truly drained: an empty bag with a chunk still
                            // in flight can refill (a reclaim kill or worker
                            // panic requeues the chunk), so idle within this
                            // period until work reappears or the last
                            // outstanding chunk resolves.
                            loop {
                                {
                                    let s = lock(shared);
                                    if !s.bag.is_drained() {
                                        break;
                                    }
                                    if s.in_flight == 0 {
                                        break 'episode;
                                    }
                                }
                                if Instant::now() >= deadline {
                                    break 'episode;
                                }
                                std::thread::sleep(Duration::from_micros(50));
                            }
                            continue;
                        }
                        // Execute task by task; a reclamation mid-chunk
                        // destroys the whole chunk (draconian kill).
                        for task in chunk.tasks() {
                            if catch_unwind(AssertUnwindSafe(|| exec(task))).is_err() {
                                // Supervised worker: the chunk was neither
                                // destroyed nor delivered, so requeue it and
                                // retire this worker.
                                tally.panics += 1;
                                let mut s = lock(shared);
                                s.bag.requeue(chunk);
                                s.in_flight -= 1;
                                break 'episode;
                            }
                            if Instant::now() >= deadline {
                                tally.lost += chunk.total_duration();
                                tally.chunks_lost += 1;
                                let mut s = lock(shared);
                                s.bag.abandon(chunk);
                                s.in_flight -= 1;
                                break 'episode;
                            }
                        }
                        tally.completed += chunk.total_duration();
                        tally.tasks += chunk.len() as u64;
                        let mut s = lock(shared);
                        s.bag.complete(chunk);
                        s.in_flight -= 1;
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                // Per-task catch_unwind means worker threads don't die of
                // task panics; anything that still kills one (a panicking
                // Schedule iterator, a bug in the loop itself) is tallied
                // rather than taking the master down with it.
                h.join().unwrap_or_else(|_| WorkerTally {
                    panics: 1,
                    ..Default::default()
                })
            })
            .collect()
    });
    *bag = shared
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .bag;
    let mut out = LiveOutcome {
        wall: start.elapsed(),
        ..Default::default()
    };
    for t in outcomes {
        out.completed_work += t.completed;
        out.lost_work += t.lost;
        out.tasks_completed += t.tasks;
        out.chunks_lost += t.chunks_lost;
        out.worker_panics += t.panics;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_tasks::workloads;

    const SCALE: Duration = Duration::from_micros(40);

    fn sched(v: &[f64]) -> Schedule {
        Schedule::new(v.to_vec()).unwrap()
    }

    #[test]
    fn uninterrupted_workers_drain_bag() {
        let mut bag = workloads::uniform(40, 1.0).unwrap();
        let workers = vec![
            LiveWorker {
                schedule: sched(&[12.0; 4]),
                c: 1.0,
                reclaim_at: 1e9,
            },
            LiveWorker {
                schedule: sched(&[12.0; 4]),
                c: 1.0,
                reclaim_at: 1e9,
            },
        ];
        let out = run_live(&mut bag, &workers, SCALE);
        assert_eq!(out.tasks_completed, 40);
        assert!((out.completed_work - 40.0).abs() < 1e-9);
        assert_eq!(out.lost_work, 0.0);
        assert!(bag.is_drained());
        assert_eq!(bag.completed_count(), 40);
    }

    #[test]
    fn early_reclaim_destroys_in_flight_chunk() {
        let mut bag = workloads::uniform(100, 2.0).unwrap();
        // One worker, reclaimed partway through its first long chunk.
        let workers = vec![LiveWorker {
            schedule: sched(&[60.0]),
            c: 1.0,
            reclaim_at: 20.0,
        }];
        let out = run_live(&mut bag, &workers, SCALE);
        assert_eq!(out.tasks_completed, 0);
        assert!(out.lost_work > 0.0);
        assert_eq!(out.chunks_lost, 1);
        // All tasks are back in the bag.
        assert_eq!(bag.pending_count(), 100);
    }

    #[test]
    fn work_conservation_under_mixed_outcomes() {
        let mut bag = workloads::uniform(60, 1.0).unwrap();
        let workers = vec![
            LiveWorker {
                schedule: sched(&[10.0; 6]),
                c: 1.0,
                reclaim_at: 25.0,
            },
            LiveWorker {
                schedule: sched(&[10.0; 6]),
                c: 1.0,
                reclaim_at: 1e9,
            },
        ];
        let out = run_live(&mut bag, &workers, SCALE);
        let banked = bag.completed_work();
        let pending = bag.pending_work();
        assert!((banked + pending - 60.0).abs() < 1e-9);
        assert!((out.completed_work - banked).abs() < 1e-9);
    }

    #[test]
    fn empty_worker_list_is_noop() {
        let mut bag = workloads::uniform(5, 1.0).unwrap();
        let out = run_live(&mut bag, &[], SCALE);
        assert_eq!(out.tasks_completed, 0);
        assert_eq!(bag.pending_count(), 5);
        assert_eq!(out.worker_panics, 0);
    }

    #[test]
    fn panicking_task_is_requeued_and_counted() {
        // Two workers; the injected executor panics on one marker task.
        // The panicking worker's chunk must be requeued (not lost) and the
        // survivor must still drain the whole bag.
        let mut bag = workloads::uniform(30, 1.0).unwrap();
        let marker = bag.pending_tasks().next().unwrap().id;
        let panicking = std::sync::atomic::AtomicBool::new(true);
        let exec = move |task: &cs_tasks::Task| {
            // Panic exactly once so the requeued marker task can complete
            // on the surviving worker.
            if task.id == marker && panicking.swap(false, std::sync::atomic::Ordering::SeqCst) {
                panic!("injected task failure");
            }
            spin_for(SCALE.mul_f64(task.duration));
        };
        let workers = vec![
            LiveWorker {
                schedule: sched(&[10.0; 6]),
                c: 1.0,
                reclaim_at: 1e9,
            },
            LiveWorker {
                schedule: sched(&[10.0; 6]),
                c: 1.0,
                reclaim_at: 1e9,
            },
        ];
        let out = run_live_with(&mut bag, &workers, SCALE, &exec);
        assert_eq!(out.worker_panics, 1);
        // Nothing destroyed: the panicking chunk went back to the bag.
        assert_eq!(out.lost_work, 0.0);
        assert!(bag.is_drained(), "survivor should finish the requeued work");
        assert_eq!(bag.completed_count(), 30);
        assert!((out.completed_work - 30.0).abs() < 1e-9);
    }

    #[test]
    fn all_workers_panicking_still_returns_and_conserves_tasks() {
        let mut bag = workloads::uniform(20, 1.0).unwrap();
        let exec = |_: &cs_tasks::Task| panic!("always fails");
        let workers = vec![
            LiveWorker {
                schedule: sched(&[10.0; 3]),
                c: 1.0,
                reclaim_at: 1e9,
            },
            LiveWorker {
                schedule: sched(&[10.0; 3]),
                c: 1.0,
                reclaim_at: 1e9,
            },
        ];
        let out = run_live_with(&mut bag, &workers, SCALE, &exec);
        assert_eq!(out.worker_panics, 2);
        assert_eq!(out.tasks_completed, 0);
        assert_eq!(out.lost_work, 0.0);
        // Every checked-out task is back in the bag.
        assert_eq!(bag.pending_count(), 20);
    }

    #[test]
    fn poisoned_bag_lock_is_recovered() {
        let shared = Mutex::new(LiveState {
            bag: workloads::uniform(3, 1.0).unwrap(),
            in_flight: 0,
        });
        std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let _guard = lock(&shared);
                panic!("worker dies holding the bag lock");
            });
            assert!(worker.join().is_err());
        });
        assert!(shared.is_poisoned());
        // Survivors still reach the bag, unchanged.
        assert_eq!(lock(&shared).bag.pending_count(), 3);
    }
}
