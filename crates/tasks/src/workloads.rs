//! Workload generators: task-duration mixes for the experiments.
//!
//! The paper's motivating applications are scientific codes with "massive
//! numbers of independent repetitive tasks of known durations". These
//! generators produce representative mixes:
//!
//! * [`uniform`] — identical durations (parameter sweeps, Monte-Carlo
//!   batches);
//! * [`jittered`] — identical up to bounded multiplicative noise
//!   (data-dependent inner loops);
//! * [`bimodal`] — a fast/slow mixture (e.g. cheap rejection vs full
//!   evaluation);
//! * [`pareto_tail`] — heavy-tailed durations (render farms, adaptive
//!   integration), the stress case for chunk packing.

use crate::TaskBag;
use rand::Rng;

/// `n` identical tasks of duration `grain`.
pub fn uniform(n: usize, grain: f64) -> Result<TaskBag, &'static str> {
    if !(grain.is_finite() && grain > 0.0) {
        return Err("grain must be positive");
    }
    let mut bag = TaskBag::new();
    bag.push_many(n as u64, grain)?;
    Ok(bag)
}

/// `n` tasks of duration `grain · U(1−jitter, 1+jitter)`, `0 ≤ jitter < 1`.
pub fn jittered(
    n: usize,
    grain: f64,
    jitter: f64,
    rng: &mut impl Rng,
) -> Result<TaskBag, &'static str> {
    if !(grain.is_finite() && grain > 0.0) {
        return Err("grain must be positive");
    }
    if !(0.0..1.0).contains(&jitter) {
        return Err("jitter must lie in [0, 1)");
    }
    let mut bag = TaskBag::new();
    for _ in 0..n {
        let factor = 1.0 + jitter * (2.0 * rng.random::<f64>() - 1.0);
        bag.push(grain * factor)?;
    }
    Ok(bag)
}

/// `n` tasks, a fraction `slow_fraction` of which take `slow` and the rest
/// `fast`.
pub fn bimodal(
    n: usize,
    fast: f64,
    slow: f64,
    slow_fraction: f64,
    rng: &mut impl Rng,
) -> Result<TaskBag, &'static str> {
    if !(fast.is_finite() && fast > 0.0 && slow.is_finite() && slow > 0.0) {
        return Err("durations must be positive");
    }
    if !(0.0..=1.0).contains(&slow_fraction) {
        return Err("slow_fraction must lie in [0, 1]");
    }
    let mut bag = TaskBag::new();
    for _ in 0..n {
        let d = if rng.random::<f64>() < slow_fraction {
            slow
        } else {
            fast
        };
        bag.push(d)?;
    }
    Ok(bag)
}

/// `n` tasks with Pareto-tailed durations: `min_duration · U^{−1/alpha}`
/// (`U ~ U(0,1)`), capped at `cap` to keep single tasks schedulable.
pub fn pareto_tail(
    n: usize,
    min_duration: f64,
    alpha: f64,
    cap: f64,
    rng: &mut impl Rng,
) -> Result<TaskBag, &'static str> {
    if !(min_duration.is_finite() && min_duration > 0.0) {
        return Err("min_duration must be positive");
    }
    if !(alpha.is_finite() && alpha > 0.0) {
        return Err("alpha must be positive");
    }
    if !(cap >= min_duration) {
        return Err("cap must be at least min_duration");
    }
    let mut bag = TaskBag::new();
    for _ in 0..n {
        let u: f64 = rng.random::<f64>().max(1e-12);
        let d = (min_duration * u.powf(-1.0 / alpha)).min(cap);
        bag.push(d)?;
    }
    Ok(bag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_counts_and_work() {
        let bag = uniform(100, 0.5).unwrap();
        assert_eq!(bag.pending_count(), 100);
        assert!((bag.pending_work() - 50.0).abs() < 1e-9);
        assert!(uniform(5, 0.0).is_err());
    }

    #[test]
    fn jittered_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let bag = jittered(1000, 2.0, 0.25, &mut rng).unwrap();
        assert_eq!(bag.pending_count(), 1000);
        let total = bag.pending_work();
        assert!(total > 1500.0 && total < 2500.0);
        assert!(jittered(5, 1.0, 1.0, &mut rng).is_err());
        assert!(jittered(5, -1.0, 0.1, &mut rng).is_err());
    }

    #[test]
    fn bimodal_mix() {
        let mut rng = StdRng::seed_from_u64(11);
        let bag = bimodal(2000, 1.0, 10.0, 0.1, &mut rng).unwrap();
        let mean = bag.pending_work() / 2000.0;
        // Expected mean = 0.9*1 + 0.1*10 = 1.9.
        assert!((mean - 1.9).abs() < 0.25, "mean = {mean}");
        assert!(bimodal(5, 1.0, 2.0, 1.5, &mut rng).is_err());
    }

    #[test]
    fn pareto_tail_capped() {
        let mut rng = StdRng::seed_from_u64(13);
        let bag = pareto_tail(500, 0.5, 1.5, 40.0, &mut rng).unwrap();
        assert_eq!(bag.pending_count(), 500);
        assert!(pareto_tail(5, 1.0, 1.0, 0.5, &mut rng).is_err());
        assert!(pareto_tail(5, 1.0, 0.0, 10.0, &mut rng).is_err());
    }

    #[test]
    fn deterministic_with_same_seed() {
        let a = jittered(50, 1.0, 0.3, &mut StdRng::seed_from_u64(42)).unwrap();
        let b = jittered(50, 1.0, 0.3, &mut StdRng::seed_from_u64(42)).unwrap();
        assert!((a.pending_work() - b.pending_work()).abs() < 1e-12);
    }
}
