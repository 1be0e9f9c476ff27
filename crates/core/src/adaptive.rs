//! Progressive (conditional-probability) scheduling — paper §6.
//!
//! *"Significantly, this 'progressive' feature of the system allows one to
//! determine `t_{i+1}` only after period `i` has ended. This means that, in
//! principle, one could use conditional, rather than absolute,
//! probabilities to determine schedule S progressively, period by period."*
//!
//! [`AdaptiveScheduler`] does exactly that: after each surviving period it
//! re-roots the life function at the elapsed time ([`cs_life::Conditional`])
//! and re-runs the guideline search for the *next* period only. Under the
//! exact life function this reproduces the a-priori schedule (consistency —
//! verified in tests); its value shows up when the life function is an
//! estimate that can be refreshed mid-episode.

use crate::search;
use crate::{CoreError, Result, Schedule};
use cs_life::{ArcLife, Conditional};

/// Period-by-period scheduler driven by conditional life functions.
pub struct AdaptiveScheduler {
    base: ArcLife,
    c: f64,
    elapsed: f64,
    history: Vec<f64>,
}

impl AdaptiveScheduler {
    /// Creates a progressive scheduler over `base` with overhead `c`.
    pub fn new(base: ArcLife, c: f64) -> Result<Self> {
        if !(c.is_finite() && c > 0.0) {
            return Err(CoreError::BadParameter("overhead c must be > 0"));
        }
        Ok(Self {
            base,
            c,
            elapsed: 0.0,
            history: Vec::new(),
        })
    }

    /// Time elapsed across all periods committed so far.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Periods committed so far.
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Plans the next period: re-roots the life function at the elapsed
    /// time, reruns the guideline search, and returns the first period of
    /// the resulting plan. `None` when no productive period remains.
    pub fn next_period(&self) -> Option<f64> {
        let q = if self.elapsed == 0.0 {
            None
        } else {
            Some(Conditional::new(self.base.clone(), self.elapsed).ok()?)
        };
        let plan = match &q {
            Some(q) => search::best_guideline_schedule(q, self.c),
            None => search::best_guideline_schedule(&self.base, self.c),
        }
        .ok()?;
        let t = plan.schedule.periods().first().copied()?;
        if t <= self.c || plan.expected_work <= 0.0 {
            None
        } else {
            Some(t)
        }
    }

    /// Commits a period (the workstation survived it): advances the clock.
    pub fn commit(&mut self, period: f64) -> Result<()> {
        if !(period.is_finite() && period > 0.0) {
            return Err(CoreError::BadParameter("committed period must be > 0"));
        }
        self.elapsed += period;
        self.history.push(period);
        Ok(())
    }

    /// Runs the full plan-commit loop assuming the workstation always
    /// survives, producing the complete progressive schedule. Capped at
    /// `max_periods` to keep infinite-lifespan episodes finite.
    pub fn run_to_completion(&mut self, max_periods: usize) -> Result<Schedule> {
        while self.history.len() < max_periods {
            match self.next_period() {
                Some(t) => self.commit(t)?,
                None => break,
            }
        }
        Schedule::new(self.history.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_life::{GeometricDecreasing, Polynomial, Uniform};
    use cs_numeric::approx_eq;
    use std::sync::Arc;

    #[test]
    fn parameter_guards() {
        let base: ArcLife = Arc::new(Uniform::new(10.0).unwrap());
        assert!(AdaptiveScheduler::new(base.clone(), 0.0).is_err());
        let mut s = AdaptiveScheduler::new(base, 1.0).unwrap();
        assert!(s.commit(0.0).is_err());
        assert!(s.commit(f64::NAN).is_err());
    }

    #[test]
    fn progressive_matches_a_priori_uniform() {
        // §6: under the exact life function, conditional re-planning must
        // reproduce the a-priori guideline schedule.
        let l = 400.0;
        let c = 4.0;
        let base: ArcLife = Arc::new(Uniform::new(l).unwrap());
        let apriori = search::best_guideline_schedule(&Uniform::new(l).unwrap(), c).unwrap();
        let mut adaptive = AdaptiveScheduler::new(base, c).unwrap();
        let progressive = adaptive.run_to_completion(200).unwrap();
        // Same number of productive periods and near-identical lengths.
        let n = apriori.schedule.len().min(progressive.len());
        assert!(n >= 2);
        for k in 0..n {
            let a = apriori.schedule.periods()[k];
            let b = progressive.periods()[k];
            assert!(
                (a - b).abs() / a.max(1.0) < 0.02,
                "period {k}: a-priori {a} vs progressive {b}"
            );
        }
        // Expected work agrees tightly.
        let p = Uniform::new(l).unwrap();
        let ea = apriori.schedule.expected_work(&p, c);
        let eb = progressive.expected_work(&p, c);
        assert!((ea - eb).abs() / ea < 1e-3, "{ea} vs {eb}");
    }

    #[test]
    fn progressive_matches_a_priori_polynomial() {
        let c = 2.0;
        let p = Polynomial::new(3, 300.0).unwrap();
        let base: ArcLife = Arc::new(p);
        let apriori = search::best_guideline_schedule(&p, c).unwrap();
        let mut adaptive = AdaptiveScheduler::new(base, c).unwrap();
        let progressive = adaptive.run_to_completion(200).unwrap();
        let ea = apriori.schedule.expected_work(&p, c);
        let eb = progressive.expected_work(&p, c);
        assert!((ea - eb).abs() / ea < 5e-3, "{ea} vs {eb}");
    }

    #[test]
    fn geometric_progressive_periods_constant() {
        // Memorylessness: the conditional problem is identical every time,
        // so the progressive schedule has constant periods.
        let base: ArcLife = Arc::new(GeometricDecreasing::new(2.0).unwrap());
        let mut adaptive = AdaptiveScheduler::new(base, 1.0).unwrap();
        let s = adaptive.run_to_completion(6).unwrap();
        assert_eq!(s.len(), 6);
        let t0 = s.periods()[0];
        for &t in s.periods() {
            assert!(approx_eq(t, t0, 1e-6));
        }
    }

    #[test]
    fn stops_when_no_productive_room() {
        let base: ArcLife = Arc::new(Uniform::new(10.0).unwrap());
        let mut adaptive = AdaptiveScheduler::new(base, 4.0).unwrap();
        let s = adaptive.run_to_completion(50).unwrap();
        // Whatever was scheduled fits and leaves no productive room.
        assert!(s.total_length() <= 10.0 + 1e-9);
        assert!(adaptive.next_period().is_none());
    }

    #[test]
    fn history_and_elapsed_track_commits() {
        let base: ArcLife = Arc::new(Uniform::new(100.0).unwrap());
        let mut adaptive = AdaptiveScheduler::new(base, 1.0).unwrap();
        adaptive.commit(5.0).unwrap();
        adaptive.commit(3.0).unwrap();
        assert_eq!(adaptive.history(), &[5.0, 3.0]);
        assert!(approx_eq(adaptive.elapsed(), 8.0, 1e-12));
    }
}
