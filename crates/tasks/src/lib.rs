//! # cs-tasks
//!
//! The data-parallel workload model of the paper's §1: computations that
//! "consist of a massive number of independent repetitive tasks of known
//! durations", as found in many scientific applications.
//!
//! * [`Task`] — an indivisible unit of work with a known duration. Per the
//!   paper's modeling convention, the duration *includes* the marginal cost
//!   of transmitting the task's input and output, so the per-period
//!   communication overhead `c` stays independent of data sizes.
//! * [`TaskBag`] — the master pool on workstation A. Chunks are checked out
//!   for a period; a reclaimed (killed) chunk is returned, because the
//!   draconian contract loses the *work*, not A's knowledge of the tasks.
//! * [`Chunk`] / [`pack_chunk`] — greedy FIFO packing of tasks into the
//!   compute budget `t − c` of a period: the discrete realization of the
//!   paper's fluid "amount of work chosen so that `t_k` time units suffice".
//! * [`workloads`] — generators for uniform, jittered, bimodal and
//!   heavy-tailed task-duration mixes.
//! * [`quantization`] — the §6 "discrete analogue" question made
//!   measurable: how much of a fluid schedule's budget is lost to task
//!   granularity.

#![forbid(unsafe_code)]
// `!(a < b)`-style comparisons deliberately route NaN to the error path.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(missing_docs)]

pub mod quantization;
pub mod workloads;

use std::collections::VecDeque;

/// An indivisible task with a known positive duration (input/output
/// transmission cost folded in — paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Stable identifier assigned by the owning [`TaskBag`].
    pub id: u64,
    /// Execution time on the borrowed workstation.
    pub duration: f64,
}

/// A set of tasks checked out for one cycle-stealing period.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Chunk {
    tasks: Vec<Task>,
}

impl Chunk {
    /// Builds a chunk from explicit tasks, in dispatch order. Used by
    /// resilient masters to re-dispatch copies of in-flight chunks (task ids
    /// are the caller's responsibility; the bag never hands out duplicates
    /// itself).
    pub fn from_tasks(tasks: Vec<Task>) -> Self {
        Self { tasks }
    }

    /// Consumes the chunk, yielding its tasks in dispatch order.
    pub fn into_tasks(self) -> Vec<Task> {
        self.tasks
    }

    /// The tasks in the chunk, in dispatch order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the chunk holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total compute time of the chunk.
    pub fn total_duration(&self) -> f64 {
        self.tasks.iter().map(|t| t.duration).sum()
    }

    /// Keeps only the tasks satisfying the predicate, in place and in
    /// dispatch order. Lets a master drop already-banked duplicates without
    /// reallocating the chunk.
    pub fn retain(&mut self, f: impl FnMut(&Task) -> bool) {
        self.tasks.retain(f);
    }
}

/// The master task pool: a FIFO bag of independent tasks.
///
/// The bag tracks three populations: *pending* tasks awaiting dispatch,
/// *in-flight* chunks checked out to borrowed workstations, and the tally of
/// *completed* work. [`TaskBag::complete`] banks a chunk;
/// [`TaskBag::abandon`] returns a killed chunk's tasks to the head of the
/// queue (they must be redone, the episode's defining loss).
///
/// Pending tasks are stored as a FIFO of runs of contiguous ids with one
/// duration, so a bag of `n` identical tasks costs one run, not `n` tasks;
/// every method behaves as if the queue held the tasks one by one.
#[derive(Debug, Clone)]
pub struct TaskBag {
    runs: VecDeque<Run>,
    next_id: u64,
    completed_tasks: u64,
    completed_work: f64,
    lost_work: f64,
}

/// Pending tasks `first_id, first_id + 1, …, first_id + count − 1`, in that
/// order, all of one `duration`. `count` is never zero.
#[derive(Debug, Clone)]
struct Run {
    first_id: u64,
    count: u64,
    duration: f64,
}

impl Run {
    fn single(task: Task) -> Self {
        Self {
            first_id: task.id,
            count: 1,
            duration: task.duration,
        }
    }

    /// True when the tasks of `next` directly follow this run's: the ids
    /// continue and the durations have the same bits.
    fn continues_into(&self, next: &Run) -> bool {
        self.first_id.checked_add(self.count) == Some(next.first_id)
            && self.duration.to_bits() == next.duration.to_bits()
    }
}

impl TaskBag {
    /// Creates an empty bag.
    pub fn new() -> Self {
        Self {
            runs: VecDeque::new(),
            next_id: 0,
            completed_tasks: 0,
            completed_work: 0.0,
            lost_work: 0.0,
        }
    }

    /// Creates a bag from explicit durations. Non-finite or nonpositive
    /// durations are rejected.
    pub fn from_durations(durations: &[f64]) -> Result<Self, &'static str> {
        let mut bag = Self::new();
        for &d in durations {
            bag.push(d)?;
        }
        Ok(bag)
    }

    /// Appends one task of the given duration; returns its id.
    pub fn push(&mut self, duration: f64) -> Result<u64, &'static str> {
        let id = self.next_id;
        self.push_many(1, duration)?;
        Ok(id)
    }

    /// Appends `n` tasks of one duration with the next `n` ids: the same
    /// bag as `n` calls to [`TaskBag::push`], in O(1).
    pub(crate) fn push_many(&mut self, n: u64, duration: f64) -> Result<(), &'static str> {
        if !(duration.is_finite() && duration > 0.0) {
            return Err("task duration must be finite and positive");
        }
        if n > 0 {
            let first_id = self.next_id;
            self.next_id += n;
            self.push_back(Run {
                first_id,
                count: n,
                duration,
            });
        }
        Ok(())
    }

    /// Appends a run at the tail, merging it into the last run when it
    /// continues it.
    fn push_back(&mut self, run: Run) {
        match self.runs.back_mut() {
            Some(back) if back.continues_into(&run) => back.count += run.count,
            _ => self.runs.push_back(run),
        }
    }

    /// Number of pending (not yet dispatched) tasks.
    pub fn pending_count(&self) -> usize {
        let n: u64 = self.runs.iter().map(|r| r.count).sum();
        usize::try_from(n).expect("pending task count fits in usize")
    }

    /// The pending tasks in dispatch (FIFO) order. Lets a master audit its
    /// queue — e.g. to subtract already-banked duplicates when computing
    /// remaining work under result replication.
    pub fn pending_tasks(&self) -> impl Iterator<Item = Task> + '_ {
        self.runs.iter().flat_map(|r| {
            (0..r.count).map(move |k| Task {
                id: r.first_id + k,
                duration: r.duration,
            })
        })
    }

    /// Total duration of pending tasks, summed task by task in dispatch
    /// order.
    pub fn pending_work(&self) -> f64 {
        self.pending_tasks().map(|t| t.duration).sum()
    }

    /// Number of tasks whose results have been banked.
    pub fn completed_count(&self) -> u64 {
        self.completed_tasks
    }

    /// Total duration of banked (successfully completed) tasks.
    pub fn completed_work(&self) -> f64 {
        self.completed_work
    }

    /// Total duration of work that was executed but lost to reclamations.
    pub fn lost_work(&self) -> f64 {
        self.lost_work
    }

    /// True when no pending tasks remain.
    pub fn is_drained(&self) -> bool {
        self.runs.is_empty()
    }

    /// Checks out the next chunk: greedily packs FIFO tasks whose cumulative
    /// duration fits in `budget`. Returns an empty chunk when the bag is
    /// drained, the budget is not positive (NaN included) or the first
    /// pending task alone exceeds the budget (an indivisible task cannot be
    /// split — paper §2.1).
    pub fn check_out(&mut self, budget: f64) -> Chunk {
        let mut chunk = Chunk::default();
        self.check_out_into(budget, &mut chunk.tasks);
        chunk
    }

    /// [`TaskBag::check_out`] into a caller-provided buffer (cleared first),
    /// so a hot dispatch loop can recycle chunk storage instead of
    /// allocating per period. Packing semantics are identical to
    /// [`TaskBag::check_out`].
    pub fn check_out_into(&mut self, budget: f64, into: &mut Vec<Task>) {
        into.clear();
        if !(budget > 0.0) {
            return;
        }
        let mut used = 0.0;
        while let Some(run) = self.runs.front_mut() {
            let duration = run.duration;
            while run.count > 0 {
                if used + duration > budget + 1e-12 {
                    return;
                }
                used += duration;
                into.push(Task {
                    id: run.first_id,
                    duration,
                });
                run.first_id = run.first_id.wrapping_add(1);
                run.count -= 1;
            }
            self.runs.pop_front();
        }
    }

    /// Banks a completed chunk: its work is added to the completed tally.
    pub fn complete(&mut self, chunk: Chunk) {
        self.completed_tasks += chunk.tasks.len() as u64;
        self.completed_work += chunk.total_duration();
    }

    /// Returns a killed chunk's tasks to the **head** of the queue (so the
    /// same tasks are retried first) and records the lost work.
    pub fn abandon(&mut self, chunk: Chunk) {
        self.lost_work += chunk.total_duration();
        self.requeue(chunk);
    }

    /// Returns a chunk's tasks to the head of the queue **without** counting
    /// lost work. For chunks that never executed — a dispatch message lost
    /// in transit, or a lease that timed out — as opposed to work that was
    /// executed and then destroyed by a reclamation ([`TaskBag::abandon`]).
    /// A contiguous chunk merges back into the run it was checked out of.
    pub fn requeue(&mut self, chunk: Chunk) {
        for task in chunk.tasks.into_iter().rev() {
            let run = Run::single(task);
            match self.runs.front_mut() {
                Some(front) if run.continues_into(front) => {
                    front.first_id = task.id;
                    front.count += 1;
                }
                _ => self.runs.push_front(run),
            }
        }
    }
}

impl Default for TaskBag {
    fn default() -> Self {
        Self::new()
    }
}

/// A bag's complete internal state, exposed for checkpoint/restore (the
/// `cs-now` snapshot subsystem). The fields are the bag's raw parts; a
/// state round-tripped through [`TaskBag::restore_state`] reproduces the
/// bag exactly, including the id counter and the work tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskBagState {
    /// Pending tasks in dispatch (FIFO) order.
    pub pending: Vec<Task>,
    /// Next id [`TaskBag::push`] would assign.
    pub next_id: u64,
    /// Banked task count.
    pub completed_tasks: u64,
    /// Banked task time.
    pub completed_work: f64,
    /// Executed-then-destroyed task time.
    pub lost_work: f64,
}

impl TaskBag {
    /// Captures the bag's full state for a checkpoint.
    pub fn save_state(&self) -> TaskBagState {
        TaskBagState {
            pending: self.pending_tasks().collect(),
            next_id: self.next_id,
            completed_tasks: self.completed_tasks,
            completed_work: self.completed_work,
            lost_work: self.lost_work,
        }
    }

    /// Rebuilds a bag from a captured state, merging the pending tasks
    /// back into runs.
    pub fn restore_state(state: TaskBagState) -> Self {
        let mut bag = Self {
            runs: VecDeque::new(),
            next_id: state.next_id,
            completed_tasks: state.completed_tasks,
            completed_work: state.completed_work,
            lost_work: state.lost_work,
        };
        for task in state.pending {
            bag.push_back(Run::single(task));
        }
        bag
    }
}

/// Packs one chunk for a period of length `t` with overhead `c`: the compute
/// budget is `t − c` (the paper's `t_k ⊖ c` productive capacity).
pub fn pack_chunk(bag: &mut TaskBag, period: f64, c: f64) -> Chunk {
    bag.check_out((period - c).max(0.0))
}

/// [`pack_chunk`] into a caller-provided buffer (cleared first), for
/// dispatch loops that recycle chunk storage.
pub fn pack_chunk_into(bag: &mut TaskBag, period: f64, c: f64, into: &mut Vec<Task>) {
    bag.check_out_into((period - c).max(0.0), into);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_durations() {
        let mut bag = TaskBag::new();
        assert!(bag.push(0.0).is_err());
        assert!(bag.push(-1.0).is_err());
        assert!(bag.push(f64::NAN).is_err());
        assert!(bag.push(2.5).is_ok());
        assert_eq!(bag.pending_count(), 1);
    }

    #[test]
    fn from_durations_round_trip() {
        let bag = TaskBag::from_durations(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(bag.pending_count(), 3);
        assert_eq!(bag.pending_work(), 6.0);
        assert!(TaskBag::from_durations(&[1.0, -1.0]).is_err());
    }

    #[test]
    fn check_out_respects_budget_fifo() {
        let mut bag = TaskBag::from_durations(&[3.0, 3.0, 3.0, 3.0]).unwrap();
        let chunk = bag.check_out(7.0);
        assert_eq!(chunk.len(), 2);
        assert_eq!(chunk.total_duration(), 6.0);
        assert_eq!(bag.pending_count(), 2);
        // FIFO: ids 0 and 1 were taken.
        assert_eq!(chunk.tasks()[0].id, 0);
        assert_eq!(chunk.tasks()[1].id, 1);
    }

    #[test]
    fn check_out_empty_cases() {
        let mut bag = TaskBag::from_durations(&[5.0]).unwrap();
        assert!(bag.check_out(0.0).is_empty());
        assert!(bag.check_out(-1.0).is_empty());
        // First task too big for the budget: nothing is dispatched.
        assert!(bag.check_out(4.0).is_empty());
        assert_eq!(bag.pending_count(), 1);
        // Drained bag.
        let mut empty = TaskBag::new();
        assert!(empty.check_out(10.0).is_empty());
    }

    #[test]
    fn check_out_nan_budget_is_empty() {
        let mut bag = workloads::uniform(5, 1.0).unwrap();
        assert!(bag.check_out(f64::NAN).is_empty());
        assert_eq!(bag.pending_count(), 5);
        // An infinite budget still takes everything.
        assert_eq!(bag.check_out(f64::INFINITY).len(), 5);
    }

    #[test]
    fn uniform_bag_is_one_run() {
        let mut bag = workloads::uniform(4_000_000, 1.0).unwrap();
        assert_eq!(bag.runs.len(), 1);
        assert_eq!(bag.pending_count(), 4_000_000);
        let a = bag.check_out(3.0); // ids 0..3
        let b = bag.check_out(3.0); // ids 3..6
        assert_eq!(bag.runs.len(), 1);
        // `a` comes back while `b` is out: it does not continue the run
        // that now starts at id 6.
        bag.requeue(a);
        assert_eq!(bag.runs.len(), 2);
        // Take `a` again, then return `b` and `a`: each continues the
        // front run, so the bag is one run again.
        let a = bag.check_out(3.0);
        bag.requeue(b);
        assert_eq!(bag.runs.len(), 1);
        bag.requeue(a);
        assert_eq!(bag.runs.len(), 1);
        assert_eq!(bag.pending_count(), 4_000_000);
        assert_eq!(bag.pending_tasks().next().map(|t| t.id), Some(0));
        // A different duration bit pattern starts a new run.
        bag.push(1.0).unwrap();
        bag.push(f64::from_bits(1.0f64.to_bits() + 1)).unwrap();
        assert_eq!(bag.runs.len(), 2);
    }

    #[test]
    fn check_out_exact_fit() {
        let mut bag = TaskBag::from_durations(&[2.0, 2.0]).unwrap();
        let chunk = bag.check_out(4.0);
        assert_eq!(chunk.len(), 2);
        assert!(bag.is_drained());
    }

    #[test]
    fn complete_banks_work() {
        let mut bag = TaskBag::from_durations(&[1.0, 2.0]).unwrap();
        let chunk = bag.check_out(10.0);
        bag.complete(chunk);
        assert_eq!(bag.completed_count(), 2);
        assert_eq!(bag.completed_work(), 3.0);
        assert_eq!(bag.lost_work(), 0.0);
    }

    #[test]
    fn abandon_requeues_at_head_and_counts_loss() {
        let mut bag = TaskBag::from_durations(&[1.0, 2.0, 4.0]).unwrap();
        let chunk = bag.check_out(3.0); // ids 0, 1
        assert_eq!(chunk.len(), 2);
        bag.abandon(chunk);
        assert_eq!(bag.lost_work(), 3.0);
        assert_eq!(bag.pending_count(), 3);
        // Retried first, original order.
        let retry = bag.check_out(3.0);
        assert_eq!(retry.tasks()[0].id, 0);
        assert_eq!(retry.tasks()[1].id, 1);
    }

    #[test]
    fn pack_chunk_subtracts_overhead() {
        let mut bag = TaskBag::from_durations(&[1.0; 10]).unwrap();
        let chunk = pack_chunk(&mut bag, 5.5, 2.0);
        assert_eq!(chunk.len(), 3); // budget 3.5 fits three unit tasks
        let none = pack_chunk(&mut bag, 1.5, 2.0);
        assert!(none.is_empty());
    }

    #[test]
    fn requeue_restores_order_without_loss() {
        let mut bag = TaskBag::from_durations(&[1.0, 2.0, 4.0]).unwrap();
        let chunk = bag.check_out(3.0); // ids 0, 1
        bag.requeue(chunk);
        assert_eq!(bag.lost_work(), 0.0);
        assert_eq!(bag.pending_count(), 3);
        let retry = bag.check_out(3.0);
        assert_eq!(retry.tasks()[0].id, 0);
        assert_eq!(retry.tasks()[1].id, 1);
    }

    #[test]
    fn chunk_task_round_trip() {
        let mut bag = TaskBag::from_durations(&[1.0, 2.0]).unwrap();
        let chunk = bag.check_out(10.0);
        let tasks = chunk.clone().into_tasks();
        assert_eq!(tasks.len(), 2);
        let rebuilt = Chunk::from_tasks(tasks);
        assert_eq!(rebuilt, chunk);
        assert_eq!(rebuilt.total_duration(), 3.0);
    }

    #[test]
    fn pending_tasks_iterates_fifo() {
        let bag = TaskBag::from_durations(&[1.0, 2.0, 3.0]).unwrap();
        let ids: Vec<u64> = bag.pending_tasks().map(|t| t.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn save_restore_round_trips_mid_run() {
        let mut bag = TaskBag::from_durations(&[2.0, 3.0, 1.0, 4.0]).unwrap();
        let c1 = bag.check_out(5.0);
        bag.complete(c1);
        let c2 = bag.check_out(1.5);
        bag.abandon(c2);
        let state = bag.save_state();
        let restored = TaskBag::restore_state(state.clone());
        assert_eq!(restored.save_state(), state);
        assert_eq!(restored.pending_count(), bag.pending_count());
        assert_eq!(restored.completed_work(), bag.completed_work());
        assert_eq!(restored.lost_work(), bag.lost_work());
        // The id counter survives: new pushes continue the sequence.
        let mut restored = restored;
        let id_a = bag.push(1.0).unwrap();
        let id_b = restored.push(1.0).unwrap();
        assert_eq!(id_a, id_b);
        // FIFO order survives too.
        let a: Vec<u64> = bag.pending_tasks().map(|t| t.id).collect();
        let b: Vec<u64> = restored.pending_tasks().map(|t| t.id).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn conservation_of_work() {
        // pending + completed always equals the initial total, regardless of
        // the complete/abandon interleaving.
        let mut bag = TaskBag::from_durations(&[2.0, 3.0, 1.0, 4.0, 2.0]).unwrap();
        let total = bag.pending_work();
        let c1 = bag.check_out(5.0);
        bag.complete(c1);
        let c2 = bag.check_out(5.0);
        bag.abandon(c2);
        let c3 = bag.check_out(100.0);
        bag.complete(c3);
        assert!((bag.completed_work() + bag.pending_work() - total).abs() < 1e-12);
        assert!(bag.is_drained());
    }

    /// The bag as it was before runs: one `Task` per pending task. The
    /// model test checks the run bag against it operation by operation.
    #[derive(Default)]
    struct ModelBag {
        pending: VecDeque<Task>,
        next_id: u64,
        completed_tasks: u64,
        completed_work: f64,
        lost_work: f64,
    }

    impl ModelBag {
        fn push(&mut self, duration: f64) {
            self.pending.push_back(Task {
                id: self.next_id,
                duration,
            });
            self.next_id += 1;
        }

        fn check_out(&mut self, budget: f64) -> Chunk {
            let mut tasks = Vec::new();
            if budget > 0.0 {
                let mut used = 0.0;
                while let Some(task) = self.pending.front() {
                    if used + task.duration > budget + 1e-12 {
                        break;
                    }
                    used += task.duration;
                    tasks.push(self.pending.pop_front().expect("front exists"));
                }
            }
            Chunk::from_tasks(tasks)
        }

        fn complete(&mut self, chunk: &Chunk) {
            self.completed_tasks += chunk.len() as u64;
            self.completed_work += chunk.total_duration();
        }

        fn requeue(&mut self, chunk: &Chunk) {
            for task in chunk.tasks().iter().rev() {
                self.pending.push_front(*task);
            }
        }

        fn state(&self) -> TaskBagState {
            TaskBagState {
                pending: self.pending.iter().copied().collect(),
                next_id: self.next_id,
                completed_tasks: self.completed_tasks,
                completed_work: self.completed_work,
                lost_work: self.lost_work,
            }
        }
    }

    fn assert_matches_model(bag: &TaskBag, model: &ModelBag) {
        let tasks: Vec<Task> = bag.pending_tasks().collect();
        assert!(tasks.iter().eq(model.pending.iter()));
        assert_eq!(bag.pending_count(), model.pending.len());
        let model_work: f64 = model.pending.iter().map(|t| t.duration).sum();
        assert_eq!(bag.pending_work().to_bits(), model_work.to_bits());
        assert_eq!(bag.is_drained(), model.pending.is_empty());
        assert_eq!(bag.save_state(), model.state());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn run_bag_behaves_like_task_queue(
            ops in proptest::collection::vec(proptest::num::u64::ANY, 1..200)
        ) {
            // `1.0` and the next float up differ only in their last bit,
            // so runs must break on bits, not on approximate equality.
            let durations = [1.0, f64::from_bits(1.0f64.to_bits() + 1), 0.5, 2.5];
            let mut bag = TaskBag::new();
            let mut model = ModelBag::default();
            let mut in_flight: Vec<Chunk> = Vec::new();
            for op in ops {
                let arg = op >> 8;
                match op % 8 {
                    0 | 1 => {
                        let d = durations[(arg % 4) as usize];
                        let n = 1 + arg / 4 % 6;
                        for _ in 0..n {
                            bag.push(d).unwrap();
                            model.push(d);
                        }
                    }
                    2 | 3 => {
                        let budget = match arg % 6 {
                            0 => 0.0,
                            1 => -1.0,
                            2 => f64::NAN,
                            3 => f64::INFINITY,
                            _ => (arg >> 3) as f64 % 1000.0 / 100.0,
                        };
                        let chunk = bag.check_out(budget);
                        assert_eq!(chunk, model.check_out(budget));
                        if !chunk.is_empty() {
                            in_flight.push(chunk);
                        }
                    }
                    4 if !in_flight.is_empty() => {
                        let chunk = in_flight.swap_remove((arg as usize) % in_flight.len());
                        model.complete(&chunk);
                        bag.complete(chunk);
                    }
                    5 if !in_flight.is_empty() => {
                        let chunk = in_flight.swap_remove((arg as usize) % in_flight.len());
                        model.lost_work += chunk.total_duration();
                        model.requeue(&chunk);
                        bag.abandon(chunk);
                    }
                    6 if !in_flight.is_empty() => {
                        // Requeue a pruned chunk: the bits of `arg` pick
                        // which tasks survive, leaving gaps in the ids.
                        let mut chunk = in_flight.swap_remove((arg as usize) % in_flight.len());
                        let mut mask = arg >> 4;
                        chunk.retain(|_| {
                            mask = mask.rotate_right(1);
                            mask & 1 == 1
                        });
                        model.requeue(&chunk);
                        bag.requeue(chunk);
                    }
                    7 => bag = TaskBag::restore_state(bag.save_state()),
                    _ => {}
                }
                assert_matches_model(&bag, &model);
            }
        }
    }
}
