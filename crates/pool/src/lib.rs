//! # cs-pool
//!
//! The execution runtime behind every parallel surface in the workspace:
//! `cs-sim`'s pooled Monte-Carlo driver, the chaos harness's kill-point
//! sweep, `cyclesteal exp --all` and `cs-now`'s farm replication.
//!
//! [`pipeline`] runs on exactly `threads` threads, the caller included:
//! `threads − 1` scoped workers claim tasks of the oldest published job
//! through one atomic counter per job, and the caller, which submits jobs
//! without blocking and takes their outputs in order, runs queued tasks
//! itself while the output it needs is not ready. The Monte-Carlo master
//! drives one directly, drawing variates and merging outcomes between
//! its takes.
//!
//! [`map_indexed`] is the one-job case, for a known batch of independent
//! tasks: it computes `f(0..n)` and returns the results *by index*.
//! Scheduling order is nondeterministic; the result vector is not —
//! determinism is the caller's contract (each index computes a pure
//! function) plus this crate's exactly-once guarantee (each index runs
//! exactly once, its result lands in its own slot).
//!
//! Per-thread counters (tasks, caller runs, parks, job pickups) are
//! collected wait-free and returned as a [`PoolMetrics`];
//! [`PoolMetrics::fold_into`] folds them into a
//! [`cs_obs::MetricsRegistry`] so `obs report`-style outputs can show
//! per-thread utilization.
//!
//! Safe code only: std atomics, locks and scoped threads.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Wait-free per-thread counters, cache-line-aligned against false sharing.
#[repr(align(64))]
#[derive(Default)]
struct WorkerMetrics {
    tasks: AtomicU64,
    steals: AtomicU64,
    stolen_tasks: AtomicU64,
    parks: AtomicU64,
    refills: AtomicU64,
}

/// Locks ignoring poison: slot and queue state stay consistent across a
/// caller panic (workers never unwind — task panics are caught).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Sums per-thread counters into a [`PoolMetrics`], one entry per thread.
fn snapshot(w: &[WorkerMetrics]) -> PoolMetrics {
    let sum = |f: fn(&WorkerMetrics) -> &AtomicU64| {
        w.iter().map(|m| f(m).load(Ordering::Relaxed)).sum::<u64>()
    };
    PoolMetrics {
        threads: w.len(),
        tasks: sum(|m| &m.tasks),
        steals: sum(|m| &m.steals),
        stolen_tasks: sum(|m| &m.stolen_tasks),
        parks: sum(|m| &m.parks),
        injector_refills: sum(|m| &m.refills),
        per_worker_tasks: w.iter().map(|m| m.tasks.load(Ordering::Relaxed)).collect(),
    }
}

/// Computes `f(i)` for every `i in 0..n` and returns the results indexed
/// by `i`, with the run's counters.
///
/// One [`pipeline`] job of `n` tasks on `threads.min(n)` threads (at least
/// one), the caller included, so no thread is spawned that has no task to
/// run. Every thread claims the next index from one shared counter; a
/// 1-thread call runs every task on the caller, in index order. Panics,
/// once every task has been claimed and the workers have stopped, if a
/// task panicked.
pub fn map_indexed<T, F>(threads: usize, n: usize, f: F) -> (Vec<T>, PoolMetrics)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    pipeline(
        threads.min(n),
        |_: &(), i| f(i),
        |pipe| {
            pipe.submit((), n);
            (0..n).map(|_| pipe.take()).collect()
        },
    )
}

/// One submitted [`Pipeline`] job: its input, a claim counter and one
/// output slot per task.
struct Job<I, T> {
    input: I,
    /// Next task to claim; claims past the end fail.
    next: AtomicUsize,
    slots: Box<[Mutex<Option<T>>]>,
}

impl<I, T> Job<I, T> {
    fn has_unclaimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.slots.len()
    }

    /// Claims the job's next task, if one is left. `Relaxed` suffices:
    /// the counter only hands out indices; the input reaches workers
    /// through the queue's mutex and outputs return through slot mutexes.
    fn claim(&self) -> Option<usize> {
        if !self.has_unclaimed() {
            return None;
        }
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.slots.len()).then_some(i)
    }
}

/// Published jobs that may still hold unclaimed tasks, oldest first.
struct Queue<I, T> {
    jobs: VecDeque<Arc<Job<I, T>>>,
    shutdown: bool,
}

/// The state a [`Pipeline`]'s caller shares with its workers.
struct Shared<I, T> {
    queue: Mutex<Queue<I, T>>,
    /// Workers sleep here; signaled on submit and on shutdown.
    work: Condvar,
    /// The caller sleeps here for an output it needs; signaled whenever a
    /// worker's task ends. The mutex guards nothing by itself: the caller
    /// re-checks the slot under it, which closes the check-then-sleep race.
    done_mx: Mutex<()>,
    done: Condvar,
    panicked: AtomicBool,
    /// Per-thread counters; entry 0 is the caller.
    workers: Vec<WorkerMetrics>,
}

type Task<'a, I, T> = &'a (dyn Fn(&I, usize) -> T + Sync);

/// Runs task `i` of `job` on thread `me` and stores its output.
fn run_task<I, T>(
    shared: &Shared<I, T>,
    run: Task<'_, I, T>,
    job: &Job<I, T>,
    i: usize,
    me: usize,
) {
    match catch_unwind(AssertUnwindSafe(|| run(&job.input, i))) {
        Ok(v) => *lock(&job.slots[i]) = Some(v),
        Err(_) => shared.panicked.store(true, Ordering::Release),
    }
    shared.workers[me].tasks.fetch_add(1, Ordering::Relaxed);
    if me != 0 {
        let _g = lock(&shared.done_mx);
        shared.done.notify_one();
    }
}

fn pipeline_worker<I, T>(shared: &Shared<I, T>, run: Task<'_, I, T>, me: usize) {
    let m = &shared.workers[me];
    loop {
        let job = {
            let mut q = lock(&shared.queue);
            loop {
                if q.shutdown {
                    return;
                }
                while q.jobs.front().is_some_and(|j| !j.has_unclaimed()) {
                    q.jobs.pop_front();
                }
                if let Some(j) = q.jobs.front() {
                    break Arc::clone(j);
                }
                m.parks.fetch_add(1, Ordering::Relaxed);
                q = shared.work.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        m.refills.fetch_add(1, Ordering::Relaxed);
        while let Some(i) = job.claim() {
            run_task(shared, run, &job, i, me);
        }
    }
}

/// Stops a pipeline's workers however its body exits, so the enclosing
/// scope can join them.
struct Shutdown<'a, I, T>(&'a Shared<I, T>);

impl<I, T> Drop for Shutdown<'_, I, T> {
    fn drop(&mut self) {
        lock(&self.0.queue).shutdown = true;
        self.0.work.notify_all();
    }
}

/// Runs `body` with a [`Pipeline`] on exactly `threads` threads (at least
/// one): the calling thread, which runs `body`, and `threads − 1` scoped
/// workers. Every task of every submitted job computes `run(&input, i)`.
///
/// Workers claim tasks from the oldest job with unclaimed ones, through
/// one atomic counter per job, and sleep when every task is claimed. The
/// caller submits jobs without blocking and takes their outputs in
/// submission order with [`Pipeline::take`], which runs unclaimed tasks
/// itself while the output it needs is not ready. So no thread sits
/// blocked while work it could run is queued, and the caller's serial
/// sections (producing the next input, consuming outputs) overlap the
/// workers. Outputs come back in order whatever thread ran them.
///
/// Returns `body`'s result and the run's counters, with the caller as
/// thread 0 (see [`PoolMetrics`]). Panics if a task panicked, after
/// stopping the workers.
pub fn pipeline<I, T, F, R>(
    threads: usize,
    run: F,
    body: impl FnOnce(&mut Pipeline<'_, I, T>) -> R,
) -> (R, PoolMetrics)
where
    I: Send + Sync,
    T: Send,
    F: Fn(&I, usize) -> T + Sync,
{
    let threads = threads.max(1);
    let shared = Shared {
        queue: Mutex::new(Queue {
            jobs: VecDeque::new(),
            shutdown: false,
        }),
        work: Condvar::new(),
        done_mx: Mutex::new(()),
        done: Condvar::new(),
        panicked: AtomicBool::new(false),
        workers: (0..threads).map(|_| WorkerMetrics::default()).collect(),
    };
    let run: Task<'_, I, T> = &run;
    let out = std::thread::scope(|scope| {
        for me in 1..threads {
            let shared = &shared;
            std::thread::Builder::new()
                .name(format!("cs-pool-{me}"))
                .spawn_scoped(scope, move || pipeline_worker(shared, run, me))
                .expect("spawn pipeline worker");
        }
        let _stop = Shutdown(&shared);
        body(&mut Pipeline {
            shared: &shared,
            run,
            jobs: VecDeque::new(),
            taken: 0,
        })
    });
    (out, snapshot(&shared.workers))
}

/// The caller's handle on a [`pipeline`]: submit jobs, take outputs in
/// order.
pub struct Pipeline<'a, I, T> {
    shared: &'a Shared<I, T>,
    run: Task<'a, I, T>,
    /// Submitted jobs with outputs not yet taken, oldest first.
    jobs: VecDeque<Arc<Job<I, T>>>,
    /// Outputs already taken from the front job.
    taken: usize,
}

impl<I, T> Pipeline<'_, I, T> {
    /// Publishes a job of `n` tasks over `input` and returns at once.
    pub fn submit(&mut self, input: I, n: usize) {
        if n == 0 {
            return;
        }
        let job = Arc::new(Job {
            input,
            next: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
        });
        self.jobs.push_back(Arc::clone(&job));
        lock(&self.shared.queue).jobs.push_back(job);
        self.shared.work.notify_all();
    }

    /// Takes the next output in submission order: task 0 of the oldest
    /// job not yet taken in full, then task 1, and so on. While that
    /// output is not ready, runs unclaimed tasks of any submitted job
    /// (oldest first), and sleeps only when every task is claimed.
    ///
    /// Panics if no output is pending, or if a task panicked.
    pub fn take(&mut self) -> T {
        let job = Arc::clone(
            self.jobs
                .front()
                .expect("cs-pool: take with no output pending"),
        );
        let i = self.taken;
        let me = &self.shared.workers[0];
        let mut ran = false;
        let out = loop {
            if let Some(v) = lock(&job.slots[i]).take() {
                break v;
            }
            if let Some((j, k)) = self.jobs.iter().find_map(|j| j.claim().map(|k| (j, k))) {
                if !ran {
                    me.steals.fetch_add(1, Ordering::Relaxed);
                    ran = true;
                }
                me.stolen_tasks.fetch_add(1, Ordering::Relaxed);
                run_task(self.shared, self.run, j, k, 0);
                continue;
            }
            let g = lock(&self.shared.done_mx);
            if self.shared.panicked.load(Ordering::Acquire) {
                panic!("cs-pool: a pipeline task panicked");
            }
            if lock(&job.slots[i]).is_none() {
                me.parks.fetch_add(1, Ordering::Relaxed);
                drop(self.shared.done.wait(g));
            }
        };
        self.taken += 1;
        if self.taken == job.slots.len() {
            self.jobs.pop_front();
            self.taken = 0;
        }
        out
    }
}

/// A point-in-time snapshot of a [`pipeline`]'s per-thread counters, with
/// the caller as thread 0. [`PoolMetrics::fold_into`] names them `pool.*`.
/// The caller has no queue of its own, so a "steal" is the caller running
/// queued tasks instead of waiting for the output it needs.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// Threads running tasks: the workers plus the caller.
    pub threads: usize,
    /// Tasks executed, over all threads.
    pub tasks: u64,
    /// [`Pipeline::take`] calls that ran at least one task while the
    /// output they needed was not ready.
    pub steals: u64,
    /// Tasks the caller ran.
    pub stolen_tasks: u64,
    /// Times a thread slept for lack of work: a worker finding every task
    /// claimed, or the caller waiting for an output another thread is
    /// computing.
    pub parks: u64,
    /// Jobs a worker picked up from the queue of published jobs.
    pub injector_refills: u64,
    /// Tasks executed by each thread, in thread order, the caller first
    /// (per-thread utilization: even values mean balanced load).
    pub per_worker_tasks: Vec<u64>,
}

impl PoolMetrics {
    /// Folds the snapshot into a registry: `pool.*` counters, a
    /// `pool.threads` gauge and one `pool.worker<i>.tasks` counter per
    /// thread.
    pub fn fold_into(&self, reg: &mut cs_obs::MetricsRegistry) {
        reg.counter_add("pool.tasks", self.tasks);
        reg.counter_add("pool.steals", self.steals);
        reg.counter_add("pool.stolen_tasks", self.stolen_tasks);
        reg.counter_add("pool.parks", self.parks);
        reg.counter_add("pool.injector_refills", self.injector_refills);
        reg.gauge_set("pool.threads", self.threads as f64);
        for (i, &t) in self.per_worker_tasks.iter().enumerate() {
            reg.counter_add(&format!("pool.worker{i}.tasks"), t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_returns_results_by_index() {
        let (out, m) = map_indexed(4, 1000, |i| i * i);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        assert_eq!(m.tasks, 1000);
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let (out, m): (Vec<u64>, _) = map_indexed(2, 0, |_| unreachable!());
        assert!(out.is_empty());
        assert_eq!((m.threads, m.tasks), (1, 0));
    }

    #[test]
    fn single_worker_pool_runs_everything() {
        let (out, m) = map_indexed(1, 100, |i| i + 1);
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
        assert_eq!(m.tasks, 100);
        assert_eq!(m.per_worker_tasks, vec![100], "all on the caller");
        assert_eq!(m.parks, 0, "nobody to wait for");
    }

    #[test]
    fn map_indexed_spawns_no_thread_without_a_task() {
        let (out, m) = map_indexed(8, 3, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(m.threads, 3);
        assert_eq!(m.per_worker_tasks.len(), 3);
    }

    #[test]
    fn borrows_caller_locals() {
        // The closure may borrow non-'static caller state.
        let base: Vec<u64> = (0..50).map(|i| i * 10).collect();
        let (out, _) = map_indexed(2, base.len(), |i| base[i] + 1);
        assert_eq!(out[49], 491);
    }

    #[test]
    fn task_panic_is_reported_after_the_job_drains() {
        let ran = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(2, 64, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert_ne!(i, 13, "boom");
                i
            })
        }));
        assert!(result.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 64, "every task ran once");
    }

    /// Takes every output of `jobs` jobs of `n` tasks each through a
    /// `threads`-thread pipeline, submitting one job ahead as the
    /// Monte-Carlo master does.
    fn run_pipeline(threads: usize, jobs: u64, n: usize) -> (Vec<u64>, PoolMetrics) {
        pipeline(
            threads,
            |base: &u64, i| base * 1000 + i as u64,
            |pipe| {
                let mut out = Vec::new();
                pipe.submit(0, n);
                for j in 0..jobs {
                    if j + 1 < jobs {
                        pipe.submit(j + 1, n);
                    }
                    out.extend((0..n).map(|_| pipe.take()));
                }
                out
            },
        )
    }

    #[test]
    fn pipeline_takes_outputs_in_submission_order() {
        for threads in [1, 2, 3, 8] {
            let (out, m) = run_pipeline(threads, 5, 37);
            let want: Vec<u64> = (0..5)
                .flat_map(|j| (0..37).map(move |i| j * 1000 + i))
                .collect();
            assert_eq!(out, want, "{threads} threads");
            assert_eq!(m.threads, threads);
            assert_eq!(m.tasks, 5 * 37);
            assert_eq!(m.per_worker_tasks.len(), threads);
            assert_eq!(m.per_worker_tasks.iter().sum::<u64>(), m.tasks);
            // The caller's runs are its "stolen" tasks.
            assert_eq!(m.per_worker_tasks[0], m.stolen_tasks);
        }
    }

    #[test]
    fn single_thread_pipeline_runs_everything_on_the_caller() {
        let (out, m) = run_pipeline(1, 3, 10);
        assert_eq!(out.len(), 30);
        assert_eq!(m.per_worker_tasks, vec![30]);
        assert_eq!(m.parks, 0, "nobody to wait for");
    }

    #[test]
    fn pipeline_borrows_caller_locals_and_skips_empty_jobs() {
        let base: Vec<u64> = (0..50).map(|i| i * 10).collect();
        let (sum, m) = pipeline(
            2,
            |scale: &u64, i| base[i] * scale,
            |pipe| {
                pipe.submit(3, 0);
                pipe.submit(2, base.len());
                (0..base.len()).map(|_| pipe.take()).sum::<u64>()
            },
        );
        assert_eq!(sum, 2 * (0..50).map(|i| i * 10).sum::<u64>());
        assert_eq!(m.tasks, 50);
    }

    #[test]
    fn pipeline_task_panic_reaches_the_caller() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            pipeline(
                2,
                |_: &(), i| {
                    assert_ne!(i, 13, "boom");
                    i
                },
                |pipe| {
                    pipe.submit((), 64);
                    (0..64).map(|_| pipe.take()).sum::<usize>()
                },
            )
        }));
        assert!(result.is_err());
    }

    #[test]
    fn metrics_fold_into_registry() {
        let (_, m) = map_indexed(2, 500, |i| {
            std::hint::black_box((0..200).fold(i as u64, |a, b| a.wrapping_add(b)))
        });
        assert_eq!(m.tasks, 500);
        assert_eq!(m.per_worker_tasks.iter().sum::<u64>(), 500);
        assert!(m.stolen_tasks >= m.steals);
        let mut reg = cs_obs::MetricsRegistry::new();
        m.fold_into(&mut reg);
        assert_eq!(reg.counter("pool.tasks"), 500);
        assert_eq!(
            reg.counter("pool.worker0.tasks") + reg.counter("pool.worker1.tasks"),
            500
        );
        assert_eq!(reg.gauge("pool.threads"), Some(2.0));
    }
}
