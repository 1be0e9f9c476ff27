//! Chunk-sizing policies: the strategies the paper's experiments compare,
//! behind one trait so the simulator and the NOW farm can drive any of
//! them.
//!
//! A policy answers one question, repeatedly: *given that the current
//! episode has survived `elapsed` time units so far, how long should the
//! next period be?* This is exactly the progressive decision loop of §6.

use cs_core::greedy::{greedy_step, GreedyOptions};
use cs_core::search;
use cs_core::Schedule;
use cs_life::{ArcLife, Conditional};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What became of one dispatched period, reported back to the policy by the
/// master (see [`ChunkPolicy::observe`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PeriodOutcome {
    /// The chunk completed and its results banked this much task time.
    Banked {
        /// Task time banked.
        work: f64,
    },
    /// The owner reclaimed mid-period; this much executed work was destroyed
    /// (§2.1 draconian semantics).
    Killed {
        /// Task time destroyed.
        lost: f64,
    },
    /// The dispatch or its result was lost in transit: the period elapsed,
    /// nothing banked.
    Lost,
    /// The chunk completed but only after its lease expired (a straggler);
    /// the master may already have re-dispatched its tasks.
    Straggled,
    /// The workstation crashed mid-period and will never answer again.
    Crashed,
}

/// A chunk-sizing policy for cycle-stealing episodes.
pub trait ChunkPolicy: Send {
    /// The next period length given the episode has survived to `elapsed`.
    /// `None` ends the episode voluntarily (no productive period remains).
    fn next_period(&mut self, elapsed: f64) -> Option<f64>;

    /// Resets internal state for a fresh episode.
    fn reset(&mut self);

    /// Human-readable policy name for experiment tables.
    fn name(&self) -> String;

    /// Feedback hook: the master reports how each dispatched period ended.
    /// The default ignores it — the paper's policies are open-loop within an
    /// episode — but adaptive policies can use it to react to losses,
    /// stragglers and kills without changing the dispatch interface.
    fn observe(&mut self, outcome: &PeriodOutcome) {
        let _ = outcome;
    }

    /// Checkpoint hook: serializes whatever mutable state the policy
    /// carries beyond its construction parameters. Stateless policies (the
    /// paper's guideline, greedy and fixed-size schedulers recompute
    /// everything from `elapsed`) return an empty vector — the default.
    fn save_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restores state captured by [`ChunkPolicy::save_state`] onto a freshly
    /// constructed policy. The default ignores the bytes (stateless
    /// policies have nothing to restore).
    fn restore_state(&mut self, state: &[u8]) {
        let _ = state;
    }
}

/// Plays out a precomputed schedule, period by period.
#[derive(Debug, Clone)]
pub struct FixedSchedulePolicy {
    schedule: Schedule,
    index: usize,
    label: String,
}

impl FixedSchedulePolicy {
    /// Wraps a schedule with a label for reports.
    pub fn new(schedule: Schedule, label: impl Into<String>) -> Self {
        Self {
            schedule,
            index: 0,
            label: label.into(),
        }
    }
}

impl ChunkPolicy for FixedSchedulePolicy {
    fn next_period(&mut self, _elapsed: f64) -> Option<f64> {
        let t = self.schedule.periods().get(self.index).copied();
        if t.is_some() {
            self.index += 1;
        }
        t
    }

    fn reset(&mut self) {
        self.index = 0;
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    /// The replay cursor is the only mutable state.
    fn save_state(&self) -> Vec<u8> {
        (self.index as u64).to_le_bytes().to_vec()
    }

    fn restore_state(&mut self, state: &[u8]) {
        if let Ok(bytes) = <[u8; 8]>::try_from(state) {
            self.index = u64::from_le_bytes(bytes) as usize;
        }
    }
}

/// Always asks for the same period length (the naive baseline every
/// practical cycle-stealer starts from).
#[derive(Debug, Clone, Copy)]
pub struct FixedSizePolicy {
    period: f64,
    /// Stop after this much elapsed time (e.g. the known lifespan).
    pub horizon: f64,
}

impl FixedSizePolicy {
    /// A constant-period policy; `horizon` bounds the episode (use
    /// `f64::INFINITY` when no bound is known).
    pub fn new(period: f64, horizon: f64) -> Self {
        Self { period, horizon }
    }
}

impl ChunkPolicy for FixedSizePolicy {
    fn next_period(&mut self, elapsed: f64) -> Option<f64> {
        if elapsed + self.period <= self.horizon {
            Some(self.period)
        } else {
            None
        }
    }

    fn reset(&mut self) {}

    fn name(&self) -> String {
        format!("fixed({})", self.period)
    }
}

/// Myopic greedy policy: each period maximizes its own expected gain under
/// the believed life function (paper §6).
pub struct GreedyPolicy {
    life: ArcLife,
    c: f64,
}

impl GreedyPolicy {
    /// Greedy policy under believed life function `life` and overhead `c`.
    pub fn new(life: ArcLife, c: f64) -> Self {
        Self { life, c }
    }
}

impl ChunkPolicy for GreedyPolicy {
    fn next_period(&mut self, elapsed: f64) -> Option<f64> {
        let (t, gain) = greedy_step(&self.life, self.c, elapsed)?;
        if gain < GreedyOptions::default().min_gain {
            None
        } else {
            Some(t)
        }
    }

    fn reset(&mut self) {}

    fn name(&self) -> String {
        "greedy".into()
    }
}

/// Shared memo-cache for [`GuidelinePolicy`] searches.
///
/// `next_period` is a pure function of `(life, c, elapsed)`: the
/// bracket + grid search draws on nothing else. Within a run, `elapsed`
/// values recur heavily — the elapsed chain is built by repeated
/// `fl(fl(start + t) - start)` round-trips, which collapse onto a handful
/// of distinct values per binade of the life function's support — so a
/// map keyed by `elapsed.to_bits()` turns the ~300µs search into a hash
/// lookup after the first visit. The cache stores the *exact* `Option<f64>`
/// the search produced, so cached and uncached runs are bit-identical.
///
/// Sharing is the caller's contract: a cache must only be shared between
/// policies constructed with the same life function and `c`.
/// `cs_scenarios::PolicyCaches` enforces this by keying on
/// `(Arc::as_ptr(life), c.to_bits())`.
pub struct GuidelineCache {
    map: Mutex<HashMap<u64, Option<f64>>>,
}

/// Memory backstop: stop inserting (lookups still work) past this many
/// distinct elapsed values. A 16-workstation, 4M-task straggler farm
/// (`--l 150 --c 2 --gap 10 --loss 0.05 --slowdown 2`) ends with about
/// 530 entries; hitting this means something is feeding the cache
/// unbounded distinct times.
const GUIDELINE_CACHE_CAP: usize = 1 << 20;

impl GuidelineCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Number of memoized elapsed values.
    pub fn len(&self) -> usize {
        self.map.lock().expect("guideline cache poisoned").len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup(&self, key: u64) -> Option<Option<f64>> {
        self.map
            .lock()
            .expect("guideline cache poisoned")
            .get(&key)
            .copied()
    }

    fn store(&self, key: u64, value: Option<f64>) {
        let mut map = self.map.lock().expect("guideline cache poisoned");
        if map.len() < GUIDELINE_CACHE_CAP {
            map.insert(key, value);
        }
    }
}

impl Default for GuidelineCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Guideline policy (the paper's contribution): re-roots the believed life
/// function at the elapsed time and reruns the Thm 3.2/3.3 + eq (3.6)
/// search for the next period — the progressive scheduler of §6.
///
/// Note the cost: every period pays a full bracket + grid search (hundreds
/// of life-function evaluations). That is the price of progressiveness —
/// the believed life function may be refreshed between periods. When it
/// cannot change, plan once and replay via [`FixedSchedulePolicy`] (the two
/// are equivalent under an exact, fixed `p`; see `exp_6_adaptive`), or
/// attach a [`GuidelineCache`] ([`GuidelinePolicy::with_cache`]) to pay
/// each distinct elapsed time once per run instead of once per period.
pub struct GuidelinePolicy {
    life: ArcLife,
    c: f64,
    cache: Option<Arc<GuidelineCache>>,
}

impl GuidelinePolicy {
    /// Guideline policy under believed life function `life`, overhead `c`.
    pub fn new(life: ArcLife, c: f64) -> Self {
        Self {
            life,
            c,
            cache: None,
        }
    }

    /// Like [`GuidelinePolicy::new`], memoizing searches in `cache`. The
    /// cache may be shared across policies **only** when they were built
    /// from the same life function and `c` — see [`GuidelineCache`].
    pub fn with_cache(life: ArcLife, c: f64, cache: Arc<GuidelineCache>) -> Self {
        Self {
            life,
            c,
            cache: Some(cache),
        }
    }

    fn search_period(&self, elapsed: f64) -> Option<f64> {
        let plan = if elapsed == 0.0 {
            search::best_guideline_schedule(&self.life, self.c).ok()?
        } else {
            let q = Conditional::new(self.life.clone(), elapsed).ok()?;
            search::best_guideline_schedule(&q, self.c).ok()?
        };
        let t = plan.schedule.periods().first().copied()?;
        if t <= self.c || plan.expected_work <= 0.0 {
            None
        } else {
            Some(t)
        }
    }
}

impl ChunkPolicy for GuidelinePolicy {
    fn next_period(&mut self, elapsed: f64) -> Option<f64> {
        match &self.cache {
            None => self.search_period(elapsed),
            Some(cache) => {
                let key = elapsed.to_bits();
                if let Some(hit) = cache.lookup(key) {
                    return hit;
                }
                let computed = self.search_period(elapsed);
                cache.store(key, computed);
                computed
            }
        }
    }

    fn reset(&mut self) {}

    fn name(&self) -> String {
        "guideline".into()
    }
}

/// Runs one episode under a policy with the §2.1 kill semantics, returning
/// banked work. `reclaim` is the owner's return time.
pub fn run_policy_episode(policy: &mut dyn ChunkPolicy, c: f64, reclaim: f64) -> f64 {
    policy.reset();
    let mut elapsed = 0.0;
    let mut banked = 0.0;
    while let Some(t) = policy.next_period(elapsed) {
        if !(t.is_finite() && t > 0.0) {
            break;
        }
        let end = elapsed + t;
        if end >= reclaim {
            return banked;
        }
        banked += (t - c).max(0.0);
        elapsed = end;
    }
    banked
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_life::Uniform;
    use std::sync::Arc;

    #[test]
    fn fixed_schedule_policy_replays_and_resets() {
        let s = Schedule::new(vec![3.0, 2.0]).unwrap();
        let mut pol = FixedSchedulePolicy::new(s, "test");
        assert_eq!(pol.next_period(0.0), Some(3.0));
        assert_eq!(pol.next_period(3.0), Some(2.0));
        assert_eq!(pol.next_period(5.0), None);
        pol.reset();
        assert_eq!(pol.next_period(0.0), Some(3.0));
        assert_eq!(pol.name(), "test");
    }

    #[test]
    fn fixed_size_policy_respects_horizon() {
        let mut pol = FixedSizePolicy::new(4.0, 10.0);
        assert_eq!(pol.next_period(0.0), Some(4.0));
        assert_eq!(pol.next_period(4.0), Some(4.0));
        assert_eq!(pol.next_period(8.0), None);
        assert!(pol.name().contains("fixed"));
    }

    #[test]
    fn greedy_policy_produces_periods() {
        let life: ArcLife = Arc::new(Uniform::new(100.0).unwrap());
        let mut pol = GreedyPolicy::new(life, 2.0);
        let t = pol.next_period(0.0).unwrap();
        // argmax (t-c)(1 - t/L) = (L + c)/2 = 51.
        assert!((t - 51.0).abs() < 0.1, "t = {t}");
        assert_eq!(pol.name(), "greedy");
    }

    #[test]
    fn guideline_policy_first_period_matches_search() {
        let life: ArcLife = Arc::new(Uniform::new(400.0).unwrap());
        let c = 4.0;
        let mut pol = GuidelinePolicy::new(life, c);
        let t = pol.next_period(0.0).unwrap();
        let plan = search::best_guideline_schedule(&Uniform::new(400.0).unwrap(), c).unwrap();
        assert!((t - plan.schedule.periods()[0]).abs() < 1e-9);
        assert_eq!(pol.name(), "guideline");
    }

    #[test]
    fn cached_guideline_policy_is_bit_identical_to_uncached() {
        let life: ArcLife = Arc::new(Uniform::new(400.0).unwrap());
        let c = 4.0;
        let cache = Arc::new(GuidelineCache::new());
        let mut plain = GuidelinePolicy::new(life.clone(), c);
        let mut cached = GuidelinePolicy::with_cache(life.clone(), c, cache.clone());
        // A second policy sharing the same cache (the farm's many
        // workstations share one believed life function).
        let mut peer = GuidelinePolicy::with_cache(life, c, cache.clone());
        for elapsed in [0.0, 17.25, 123.0, 399.0, 400.0, 1000.0] {
            let want = plain.next_period(elapsed);
            assert_eq!(cached.next_period(elapsed), want, "miss at {elapsed}");
            assert_eq!(cached.next_period(elapsed), want, "hit at {elapsed}");
            assert_eq!(peer.next_period(elapsed), want, "shared hit at {elapsed}");
        }
        // One entry per distinct elapsed value, including memoized `None`s.
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn run_policy_episode_kill_semantics() {
        let s = Schedule::new(vec![5.0, 5.0, 5.0]).unwrap();
        let mut pol = FixedSchedulePolicy::new(s, "s");
        // Reclaim during period 2.
        let banked = run_policy_episode(&mut pol, 1.0, 12.0);
        assert_eq!(banked, 8.0);
        // Never reclaimed.
        let banked = run_policy_episode(&mut pol, 1.0, f64::INFINITY);
        assert_eq!(banked, 12.0);
        // Reclaimed immediately.
        let banked = run_policy_episode(&mut pol, 1.0, 0.0);
        assert_eq!(banked, 0.0);
    }

    #[test]
    fn observe_default_is_noop_and_overridable() {
        // Default implementation: accepted and ignored by every policy.
        let mut fixed = FixedSizePolicy::new(4.0, 10.0);
        fixed.observe(&PeriodOutcome::Lost);
        assert_eq!(fixed.next_period(0.0), Some(4.0));

        // An adaptive policy can override it.
        struct Counting {
            kills: u32,
        }
        impl ChunkPolicy for Counting {
            fn next_period(&mut self, _elapsed: f64) -> Option<f64> {
                Some(5.0)
            }
            fn reset(&mut self) {}
            fn name(&self) -> String {
                "counting".into()
            }
            fn observe(&mut self, outcome: &PeriodOutcome) {
                if matches!(outcome, PeriodOutcome::Killed { .. }) {
                    self.kills += 1;
                }
            }
        }
        let mut p = Counting { kills: 0 };
        p.observe(&PeriodOutcome::Killed { lost: 3.0 });
        p.observe(&PeriodOutcome::Banked { work: 2.0 });
        assert_eq!(p.kills, 1);
    }

    #[test]
    fn fixed_schedule_state_round_trips_mid_schedule() {
        let s = Schedule::new(vec![3.0, 2.0, 1.0]).unwrap();
        let mut pol = FixedSchedulePolicy::new(s.clone(), "test");
        assert_eq!(pol.next_period(0.0), Some(3.0));
        assert_eq!(pol.next_period(3.0), Some(2.0));
        let saved = pol.save_state();
        let mut fresh = FixedSchedulePolicy::new(s, "test");
        fresh.restore_state(&saved);
        assert_eq!(fresh.next_period(5.0), Some(1.0));
        assert_eq!(fresh.next_period(6.0), None);
        // Stateless policies checkpoint to nothing and ignore restores.
        let mut fixed = FixedSizePolicy::new(4.0, 10.0);
        assert!(fixed.save_state().is_empty());
        fixed.restore_state(&saved);
        assert_eq!(fixed.next_period(0.0), Some(4.0));
    }

    #[test]
    fn policies_are_object_safe() {
        let life: ArcLife = Arc::new(Uniform::new(50.0).unwrap());
        let mut policies: Vec<Box<dyn ChunkPolicy>> = vec![
            Box::new(FixedSizePolicy::new(5.0, 50.0)),
            Box::new(GreedyPolicy::new(life.clone(), 1.0)),
            Box::new(GuidelinePolicy::new(life, 1.0)),
        ];
        for p in policies.iter_mut() {
            assert!(p.next_period(0.0).is_some(), "{} gave no period", p.name());
        }
    }
}
