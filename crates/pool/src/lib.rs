//! # cs-pool
//!
//! The work-stealing execution runtime behind every parallel surface in
//! the workspace: `cs-sim`'s pooled Monte-Carlo driver, the chaos
//! harness's trial sweep and `cyclesteal exp --all`.
//!
//! A [`Pool`] owns a fixed set of persistent worker threads. Each worker
//! has a private steal-half deque (`deque.rs`); callers submit work through
//! a shared injector queue, workers pull refill chunks from it, and idle
//! workers steal **half** a victim's visible backlog in one CAS, picking
//! the most-loaded victim (the latency-optimal heuristic from the
//! steal-half literature — Gast/Khatiri/Trystram's latency analysis and
//! Van Houdt's stealing-vs-sharing comparison both favor batched steals
//! from loaded victims over steal-one). Workers with nothing to run, steal
//! or refill park on a condvar with a 1 ms timed backstop, so an idle pool
//! burns no meaningful CPU and a missed wakeup self-heals.
//!
//! [`Pool::map_indexed`] runs `f(0..n)` across the workers and collects
//! the results *by index*. Scheduling order is nondeterministic; the
//! result vector is not — determinism is the caller's contract (each
//! index computes a pure function) plus this crate's exactly-once
//! guarantee (each index runs exactly once, results land in their own
//! slot).
//!
//! [`pipeline`] is the streaming counterpart for a caller with serial
//! work of its own, such as the Monte-Carlo master that draws every
//! variate and merges every outcome in order. It runs on exactly
//! `threads` threads, the caller included: `threads − 1` scoped workers
//! claim tasks of the oldest published job through one atomic counter
//! per job, and the caller, which submits jobs without blocking and takes
//! their outputs in order, runs queued tasks itself while the output it
//! needs is not ready.
//!
//! Pool-level counters (tasks, steals, steal batch sizes, parks, injector
//! refills, per-worker task counts) are collected wait-free on the workers
//! and snapshot via [`Pool::metrics`] (a pipeline returns its own);
//! [`PoolMetrics::fold_into`] folds them into a
//! [`cs_obs::MetricsRegistry`] so `obs report`-style outputs can show
//! per-worker utilization.
//!
//! This is the only crate in the workspace allowed to use `unsafe`; it is
//! confined to the type-erased job plumbing below (rayon-style lifetime
//! erasure), with the invariants documented at each site. The deque and
//! the pipeline are safe code on std atomics, locks and scoped threads.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod deque;

use deque::{Item, StealDeque, CAP};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Parked workers re-check for work at least this often, so a lost condvar
/// notification costs bounded latency instead of a hang.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// `log2` buckets for steal batch sizes (batches are at most `CAP / 2 + 1`,
/// so the top bucket is never reached in practice; it absorbs the rest).
const STEAL_BUCKETS: usize = 12;

/// Wait-free per-worker counters, cache-line-aligned against false sharing.
#[repr(align(64))]
#[derive(Default)]
struct WorkerMetrics {
    tasks: AtomicU64,
    steals: AtomicU64,
    stolen_tasks: AtomicU64,
    parks: AtomicU64,
    refills: AtomicU64,
    /// `steal_batch[i]` counts steals that claimed `~2^i` items.
    steal_batch: [AtomicU64; STEAL_BUCKETS],
}

/// The state shared between the pool handle and its workers.
struct Inner {
    deques: Vec<StealDeque>,
    injector: Mutex<VecDeque<Item>>,
    /// Signaled when the injector gains work, a worker publishes stealable
    /// surplus, or the pool shuts down.
    idle: Condvar,
    /// Pair used only to signal job completion to the blocked caller. The
    /// mutex guards nothing by itself — the predicate is the job's
    /// `remaining` counter — but taking it before notifying closes the
    /// check-then-sleep race on the caller side.
    done_mx: Mutex<()>,
    done: Condvar,
    shutdown: AtomicBool,
    workers: Vec<WorkerMetrics>,
}

/// One in-flight `map_indexed` call, type-erased so deque items stay plain
/// words. Lives on the caller's stack; see the safety argument on
/// [`execute`].
struct JobState {
    /// Runs task `idx` against `ctx`; returns `false` if the closure
    /// panicked (the panic is caught and recorded, never unwound through a
    /// worker).
    run: unsafe fn(*const (), usize) -> bool,
    ctx: *const (),
    remaining: AtomicUsize,
    panicked: AtomicBool,
}

/// The typed half of a job: the closure and the result slots, reached only
/// through `JobState::ctx`.
struct Ctx<T, F> {
    f: *const F,
    slots: *const Mutex<Option<T>>,
    n: usize,
}

/// The type-erased task runner monomorphized per `map_indexed` call.
///
/// # Safety
///
/// `ctx` must point to a live `Ctx<T, F>` whose `f` and `slots` are live,
/// with `idx < n`; `F: Sync` and `T: Send` (enforced by `map_indexed`'s
/// bounds) make the cross-thread sharing of `f` and the slot write sound.
unsafe fn run_one<T: Send, F: Fn(usize) -> T + Sync>(ctx: *const (), idx: usize) -> bool {
    // SAFETY: per the contract above, `ctx` points to a live `Ctx<T, F>`
    // and `idx` is in bounds.
    let ctx = unsafe { &*ctx.cast::<Ctx<T, F>>() };
    debug_assert!(idx < ctx.n);
    let f = unsafe { &*ctx.f };
    match catch_unwind(AssertUnwindSafe(|| f(idx))) {
        Ok(v) => {
            let slot = unsafe { &*ctx.slots.add(idx) };
            *lock(slot) = Some(v);
            true
        }
        Err(_) => false,
    }
}

/// Locks ignoring poison: slot and injector state stay consistent across a
/// caller panic (workers never unwind — task panics are caught).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one claimed item and performs the completion handshake.
fn execute(inner: &Inner, me: usize, item: Item) {
    // SAFETY: every queued item embeds the address of a `JobState` on the
    // stack of a `map_indexed` call that is still blocked: the caller
    // returns only after `remaining` hits zero, `remaining` is decremented
    // strictly after the item is consumed from the queues and executed,
    // and no reference to the job is held past that decrement.
    let job = unsafe { &*(item.0 as *const JobState) };
    // SAFETY: `job.ctx` satisfies `run`'s contract for the lifetime of the
    // job (same argument as above); `item.1` was produced by `map_indexed`
    // as an index `< n`.
    let ok = unsafe { (job.run)(job.ctx, item.1) };
    if !ok {
        job.panicked.store(true, Ordering::Release);
    }
    inner.workers[me].tasks.fetch_add(1, Ordering::Relaxed);
    // Last toucher wakes the caller. Nothing may read `job` after this
    // fetch_sub — the caller is free to return (and pop the job) the
    // moment it observes zero.
    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let _g = lock(&inner.done_mx);
        inner.done.notify_all();
    }
}

/// Steals half the most-loaded victim's backlog; runs the first stolen
/// item and queues the rest locally. Returns `false` if nothing was taken.
fn try_steal(inner: &Inner, me: usize, buf: &mut Vec<Item>) -> bool {
    let n = inner.deques.len();
    let mut victim = None;
    let mut best_len = 0;
    // Scan from my right neighbor so equally-loaded victims spread across
    // thieves instead of everyone hammering worker 0.
    for off in 1..n {
        let v = (me + off) % n;
        let len = inner.deques[v].len();
        if len > best_len {
            best_len = len;
            victim = Some(v);
        }
    }
    let Some(v) = victim else { return false };
    debug_assert!(buf.is_empty());
    let k = inner.deques[v].steal_half(buf);
    if k == 0 {
        return false;
    }
    let m = &inner.workers[me];
    m.steals.fetch_add(1, Ordering::Relaxed);
    m.stolen_tasks.fetch_add(k as u64, Ordering::Relaxed);
    let bucket = (k.ilog2() as usize).min(STEAL_BUCKETS - 1);
    m.steal_batch[bucket].fetch_add(1, Ordering::Relaxed);
    enqueue_local(inner, me, &buf[1..]);
    let first = buf[0];
    buf.clear();
    execute(inner, me, first);
    true
}

/// Pushes items onto my own deque (overflow spills back to the injector)
/// and advertises the new stealable surplus to one parked peer.
fn enqueue_local(inner: &Inner, me: usize, items: &[Item]) {
    if items.is_empty() {
        return;
    }
    for &item in items {
        if !inner.deques[me].push(item) {
            lock(&inner.injector).push_back(item);
        }
    }
    inner.idle.notify_one();
}

fn worker_loop(inner: &Inner, me: usize) {
    let mut buf: Vec<Item> = Vec::with_capacity(CAP / 2 + 1);
    loop {
        if let Some(item) = inner.deques[me].take_one() {
            execute(inner, me, item);
            continue;
        }
        if try_steal(inner, me, &mut buf) {
            continue;
        }
        // Refill from the injector or park — decided under the injector
        // lock, so a worker can never park while submitted work sits there.
        let mut q = lock(&inner.injector);
        if !q.is_empty() {
            // An even share of the backlog, clamped so the chunk always
            // fits an empty deque with room for a stolen batch on top.
            let chunk = q.len().div_ceil(inner.deques.len()).clamp(1, CAP / 2);
            let chunk = chunk.min(q.len());
            let items: Vec<Item> = q.drain(..chunk).collect();
            drop(q);
            inner.workers[me].refills.fetch_add(1, Ordering::Relaxed);
            enqueue_local(inner, me, &items[1..]);
            execute(inner, me, items[0]);
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        inner.workers[me].parks.fetch_add(1, Ordering::Relaxed);
        match inner.idle.wait_timeout(q, PARK_TIMEOUT) {
            Ok((guard, _)) => drop(guard),
            Err(poisoned) => drop(poisoned.into_inner().0),
        }
    }
}

/// A fixed-size work-stealing thread pool (see the crate docs).
pub struct Pool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool with `threads` persistent workers (at least one).
    /// The calling thread is not a worker: during [`Pool::map_indexed`] it
    /// blocks, so total parallelism is exactly `threads`.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            deques: (0..threads).map(|_| StealDeque::new()).collect(),
            injector: Mutex::new(VecDeque::new()),
            idle: Condvar::new(),
            done_mx: Mutex::new(()),
            done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers: (0..threads).map(|_| WorkerMetrics::default()).collect(),
        });
        let handles = (0..threads)
            .map(|me| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("cs-pool-{me}"))
                    .spawn(move || worker_loop(&inner, me))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { inner, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.inner.deques.len()
    }

    /// Computes `f(i)` for every `i in 0..n` across the workers and
    /// returns the results indexed by `i`. Blocks until every task has
    /// run. Panics (after all tasks finish) if any task panicked.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let ctx = Ctx::<T, F> {
            f: &f,
            slots: slots.as_ptr(),
            n,
        };
        let job = JobState {
            run: run_one::<T, F>,
            ctx: (&ctx as *const Ctx<T, F>).cast(),
            remaining: AtomicUsize::new(n),
            panicked: AtomicBool::new(false),
        };
        let job_addr = std::ptr::addr_of!(job) as usize;
        {
            let mut q = lock(&self.inner.injector);
            q.extend((0..n).map(|i| (job_addr, i)));
            self.inner.idle.notify_all();
        }
        // Block until the last decrement. The predicate is the job's own
        // counter; the mutex/condvar pair only carries the wakeup.
        let mut g = lock(&self.inner.done_mx);
        while job.remaining.load(Ordering::Acquire) != 0 {
            g = match self.inner.done.wait_timeout(g, PARK_TIMEOUT) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        drop(g);
        if job.panicked.load(Ordering::Acquire) {
            panic!("cs-pool: a map_indexed task panicked");
        }
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every task ran exactly once")
            })
            .collect()
    }

    /// Snapshots the pool's counters (cheap; callable mid-run, though the
    /// numbers are only quiescent between jobs).
    pub fn metrics(&self) -> PoolMetrics {
        snapshot(&self.inner.workers)
    }
}

/// Sums per-thread counters into a [`PoolMetrics`], one entry per thread.
fn snapshot(w: &[WorkerMetrics]) -> PoolMetrics {
    let sum = |f: fn(&WorkerMetrics) -> &AtomicU64| {
        w.iter().map(|m| f(m).load(Ordering::Relaxed)).sum::<u64>()
    };
    let mut steal_batch = [0u64; STEAL_BUCKETS];
    for m in w {
        for (acc, b) in steal_batch.iter_mut().zip(&m.steal_batch) {
            *acc += b.load(Ordering::Relaxed);
        }
    }
    PoolMetrics {
        threads: w.len(),
        tasks: sum(|m| &m.tasks),
        steals: sum(|m| &m.steals),
        stolen_tasks: sum(|m| &m.stolen_tasks),
        parks: sum(|m| &m.parks),
        injector_refills: sum(|m| &m.refills),
        per_worker_tasks: w.iter().map(|m| m.tasks.load(Ordering::Relaxed)).collect(),
        steal_batch,
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let _q = lock(&self.inner.injector);
            self.inner.shutdown.store(true, Ordering::Release);
            self.inner.idle.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
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

/// A point-in-time snapshot of a pool's counters.
///
/// Both runtimes fill the same fields, and [`PoolMetrics::fold_into`]
/// names them `pool.*` in both. For a [`Pool`] every thread is a worker
/// and the caller of [`Pool::map_indexed`] only waits. For a [`pipeline`]
/// thread 0 is the caller, which runs tasks too; it has no deque, so a
/// "steal" is the caller running queued tasks instead of waiting for the
/// output it needs.
#[derive(Debug, Clone)]
pub struct PoolMetrics {
    /// Threads running tasks: a pool's workers, or a pipeline's workers
    /// plus its caller.
    pub threads: usize,
    /// Tasks executed, over all threads.
    pub tasks: u64,
    /// Successful steal operations, each claiming a batch of tasks from a
    /// victim's deque. In a pipeline: [`Pipeline::take`] calls that ran
    /// at least one task while the output they needed was not ready.
    pub steals: u64,
    /// Tasks acquired via stealing. In a pipeline: tasks the caller ran.
    pub stolen_tasks: u64,
    /// Times a thread slept for lack of work: a pool worker parking, a
    /// pipeline worker finding every task claimed, or a pipeline caller
    /// waiting for an output another thread is computing.
    pub parks: u64,
    /// Refill chunks pulled from the injector. In a pipeline: jobs a
    /// worker picked up from the queue of published jobs.
    pub injector_refills: u64,
    /// Tasks executed by each thread, in thread order (per-thread
    /// utilization: even values mean balanced load). A pipeline's caller
    /// is entry 0.
    pub per_worker_tasks: Vec<u64>,
    /// Steal batch sizes, bucketed by `log2` (always empty for a
    /// pipeline).
    steal_batch: [u64; STEAL_BUCKETS],
}

impl PoolMetrics {
    /// Folds the snapshot into a registry: `pool.*` counters, a
    /// `pool.steal_batch` histogram of batch sizes, and one
    /// `pool.worker<i>.tasks` counter per worker.
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
        for (i, &count) in self.steal_batch.iter().enumerate() {
            let representative = (1u64 << i) as f64;
            for _ in 0..count {
                reg.observe("pool.steal_batch", representative);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_returns_results_by_index() {
        let pool = Pool::new(4);
        let out = pool.map_indexed(1000, |i| i * i);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = Pool::new(2);
        let out: Vec<u64> = pool.map_indexed(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_pool_runs_everything() {
        let pool = Pool::new(1);
        let out = pool.map_indexed(100, |i| i + 1);
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
        assert_eq!(pool.metrics().tasks, 100);
        assert_eq!(pool.metrics().steals, 0, "nobody to steal from");
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = Pool::new(3);
        for round in 0..5u64 {
            let out = pool.map_indexed(37, move |i| round * 100 + i as u64);
            assert_eq!(out[36], round * 100 + 36);
        }
        assert_eq!(pool.metrics().tasks, 5 * 37);
    }

    #[test]
    fn borrows_caller_locals() {
        // The closure may borrow non-'static caller state (the lifetime
        // erasure this crate exists for).
        let pool = Pool::new(2);
        let base: Vec<u64> = (0..50).map(|i| i * 10).collect();
        let out = pool.map_indexed(base.len(), |i| base[i] + 1);
        assert_eq!(out[49], 491);
    }

    #[test]
    fn task_panic_is_reported_after_the_job_drains() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.map_indexed(64, |i| {
                if i == 13 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(result.is_err());
        // The pool survives and remains usable.
        let out = pool.map_indexed(8, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5, 6, 7]);
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
        let pool = Pool::new(2);
        let _ = pool.map_indexed(500, |i| {
            // Enough per-task work for steals to actually happen.
            std::hint::black_box((0..200).fold(i as u64, |a, b| a.wrapping_add(b)))
        });
        let m = pool.metrics();
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
        if m.steals > 0 {
            assert_eq!(reg.histogram("pool.steal_batch").unwrap().count(), m.steals);
        }
    }
}
