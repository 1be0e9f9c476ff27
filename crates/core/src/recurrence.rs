//! The guideline recurrence (Corollary 3.1, eq 3.6) and its per-family
//! closed forms (paper §4).
//!
//! For an optimal schedule `S = t_0, t_1, …` and differentiable life
//! function `p`,
//!
//! ```text
//! p(T_k) = p(T_{k−1}) + (t_{k−1} − c)·p'(T_{k−1})        (3.6)
//! ```
//!
//! so once `t_0` is chosen, every later period is determined: compute the
//! right-hand side `v`, invert `p` to get `T_k`, and set
//! `t_k = T_k − T_{k−1}`. The paper stresses the "progressive" nature of
//! this system (§6): `t_{k+1}` is needed only after period `k` ends.
//!
//! The generic generator here works for any [`LifeFunction`]; the
//! `*_step` functions are the closed forms derived in §4.1–§4.3 and are
//! cross-checked against the generic path in this module's tests.

use crate::schedule::positive_sub;
use crate::{CoreError, Result, Schedule};
use cs_life::LifeFunction;
use cs_numeric::roots;

/// Options controlling guideline-schedule generation.
#[derive(Debug, Clone, Copy)]
pub struct GuidelineOptions {
    /// Hard cap on the number of periods (guards infinite schedules).
    pub max_periods: usize,
    /// Stop once a period's expected contribution `(t_k − c)·p(T_k)` falls
    /// below this threshold (tail truncation for infinite schedules).
    pub tail_eps: f64,
}

impl Default for GuidelineOptions {
    fn default() -> Self {
        Self {
            max_periods: 100_000,
            tail_eps: 1e-15,
        }
    }
}

/// One step of the guideline recurrence: given the previous period's end
/// time `t_end_prev` and length `t_prev`, returns the next period length,
/// or `None` when the recurrence terminates.
///
/// Termination happens when:
/// * `t_prev ≤ c` — the right-hand side of (3.6) does not decrease, so the
///   next end time would not advance (an optimal schedule has reached its
///   final period, cf. Prop 2.1);
/// * the target survival `v ≤ 0` — the next period would end past the
///   lifespan;
/// * the inverted end time does not strictly advance (numerical exhaustion).
pub fn guideline_step(p: &dyn LifeFunction, c: f64, t_end_prev: f64, t_prev: f64) -> Option<f64> {
    if t_prev <= c {
        return None;
    }
    Walk::new(p, c).step(t_end_prev, t_prev, p.survival(t_end_prev))
}

/// The recurrence walked from one `t_0`, evaluating every life-function
/// value once: each `p(T_k)` serves the tail check, the expected-work term
/// and the next step's `p(T_{k−1})`, which is also the inversion's lower
/// endpoint; `p(L)`, its upper endpoint, is computed once per schedule.
struct Walk<'a> {
    p: &'a dyn LifeFunction,
    c: f64,
    /// `p(L)`, once a step has needed it.
    p_lifespan: Option<f64>,
}

impl<'a> Walk<'a> {
    fn new(p: &'a dyn LifeFunction, c: f64) -> Self {
        Self {
            p,
            c,
            p_lifespan: None,
        }
    }

    /// [`guideline_step`] after its `t_prev ≤ c` test, given
    /// `p_prev = p(t_end_prev)`.
    fn step(&mut self, t_end_prev: f64, t_prev: f64, p_prev: f64) -> Option<f64> {
        let p = self.p;
        if p_prev <= 0.0 {
            return None;
        }
        let v = p_prev + (t_prev - self.c) * p.deriv(t_end_prev);
        if v <= 0.0 || v >= p_prev {
            return None;
        }
        // Invert p on [t_end_prev, horizon] to find T_k with p(T_k) = v.
        let (hi, p_hi) = match p.lifespan() {
            Some(l) => (l, *self.p_lifespan.get_or_insert_with(|| p.survival(l))),
            None => {
                // Bracket to the right until survival drops below v.
                let mut hi = (t_end_prev + t_prev).max(t_end_prev * 2.0).max(1.0);
                let mut found = None;
                for _ in 0..256 {
                    let s = p.survival(hi);
                    if s <= v {
                        found = Some(s);
                        break;
                    }
                    hi *= 2.0;
                }
                (hi, found?)
            }
        };
        let t_end_next =
            roots::invert_decreasing_from(|t| p.survival(t), v, t_end_prev, hi, p_prev, p_hi)
                .ok()?;
        let t_next = t_end_next - t_end_prev;
        if t_next <= 0.0 || !t_next.is_finite() {
            None
        } else {
            Some(t_next)
        }
    }

    /// Walks the schedule from `t0` (validated by the caller), handing each
    /// emitted period and `p(T_k)` to `emit` in order until the recurrence
    /// or [`GuidelineOptions`] ends it, or `emit` returns `false`. The
    /// survival of an initial period `t0 ≤ c` is never needed, and is NaN.
    fn run(mut self, t0: f64, opts: &GuidelineOptions, mut emit: impl FnMut(f64, f64) -> bool) {
        let (p, c) = (self.p, self.c);
        let mut surv = if t0 > c { p.survival(t0) } else { f64::NAN };
        if !emit(t0, surv) || t0 <= c {
            return;
        }
        let (mut t_end, mut t_prev, mut len) = (t0, t0, 1);
        while len < opts.max_periods {
            let Some(t_next) = self.step(t_end, t_prev, surv) else {
                break;
            };
            if t_next <= c {
                break;
            }
            t_end += t_next;
            t_prev = t_next;
            len += 1;
            surv = p.survival(t_end);
            if !emit(t_next, surv) || (t_next - c) * surv < opts.tail_eps {
                break;
            }
        }
    }
}

/// The parameter checks every guideline generator makes.
fn check_parameters(c: f64, t0: f64) -> Result<()> {
    if !(c.is_finite() && c >= 0.0) {
        return Err(CoreError::BadParameter(
            "overhead c must be finite and >= 0",
        ));
    }
    if !(t0.is_finite() && t0 > 0.0) {
        return Err(CoreError::BadParameter("t0 must be finite and > 0"));
    }
    Ok(())
}

/// Generates the full guideline schedule from an initial period `t0`
/// (paper §3: eq 3.6 determines every non-initial period).
///
/// The schedule is truncated per [`GuidelineOptions`]; for concave life
/// functions it is intrinsically finite (Cor 5.2) and no truncation occurs.
/// A trailing *unproductive* step (`t ≤ c`) produced by the recurrence is
/// **not** emitted: it contributes zero work, and keeping it would let a
/// `[m−2, +δ]`-perturbation harvest its mass (breaking the Theorem 5.1
/// local-optimality property that holds for all-productive schedules, cf.
/// Prop 2.1).
/// # Examples
///
/// ```
/// use cs_core::recurrence::{guideline_schedule, GuidelineOptions};
/// use cs_life::Uniform;
/// // Uniform risk: the recurrence gives arithmetic decrease t_k = t_{k-1} - c.
/// let p = Uniform::new(100.0).unwrap();
/// let s = guideline_schedule(&p, 2.0, 20.0, &GuidelineOptions::default()).unwrap();
/// assert!((s.periods()[1] - 18.0).abs() < 1e-6);
/// ```
pub fn guideline_schedule(
    p: &dyn LifeFunction,
    c: f64,
    t0: f64,
    opts: &GuidelineOptions,
) -> Result<Schedule> {
    check_parameters(c, t0)?;
    let mut periods = Vec::new();
    Walk::new(p, c).run(t0, opts, |t, _| {
        periods.push(t);
        true
    });
    Schedule::new(periods)
}

/// `guideline_schedule(p, c, t0, opts)?.expected_work(p, c)`, bit for bit,
/// without building the schedule: the terms `(t_k ⊖ c)·p(T_k)` are summed
/// in period order from the survival values the walk already holds, and
/// the sum stops at the first `p(T_k) ≤ 0`, as
/// [`Schedule::expected_work`] does. This is the guideline search's
/// objective.
pub(crate) fn guideline_expected_work(
    p: &dyn LifeFunction,
    c: f64,
    t0: f64,
    opts: &GuidelineOptions,
) -> Result<f64> {
    check_parameters(c, t0)?;
    let mut e = 0.0;
    Walk::new(p, c).run(t0, opts, |t, surv| {
        let gain = positive_sub(t, c);
        if gain > 0.0 {
            if surv <= 0.0 {
                return false;
            }
            e += gain * surv;
        }
        true
    });
    Ok(e)
}

/// Closed-form recurrence step for the polynomial family `p_{d,L}` (§4.1):
///
/// ```text
/// t_k = ((1 + d(t_{k−1} − c)/T_{k−1})^{1/d} − 1) · T_{k−1}
/// ```
///
/// Returns `None` when the recurrence terminates (unproductive previous
/// period or next end time beyond the lifespan).
pub fn polynomial_step(d: u32, l: f64, c: f64, t_end_prev: f64, t_prev: f64) -> Option<f64> {
    if t_prev <= c || t_end_prev <= 0.0 || t_end_prev >= l {
        return None;
    }
    let df = f64::from(d);
    let t_end_next = t_end_prev * (1.0 + df * (t_prev - c) / t_end_prev).powf(1.0 / df);
    if !t_end_next.is_finite() || t_end_next >= l || t_end_next <= t_end_prev {
        return None;
    }
    Some(t_end_next - t_end_prev)
}

/// Closed-form recurrence step for the uniform-risk scenario (§4.1, eq 4.1):
/// `t_k = t_{k−1} − c` — identical to the provably optimal recurrence
/// of \[3\].
pub fn uniform_step(c: f64, t_prev: f64) -> Option<f64> {
    let t = t_prev - c;
    if t > 0.0 {
        Some(t)
    } else {
        None
    }
}

/// Closed-form recurrence step for the geometric-decreasing family `p_a`
/// (§4.2, eq 4.6): `a^{−t_k} + t_{k−1}·ln a = 1 + c·ln a`, i.e.
/// `t_k = −log_a(1 + (c − t_{k−1})·ln a)`.
///
/// Solvable only when the right-hand side lies in `(0, 1)`, i.e.
/// `c < t_{k−1} < c + 1/ln a` (the paper's solvability remark).
pub fn geometric_decreasing_step(a: f64, c: f64, t_prev: f64) -> Option<f64> {
    let ln_a = a.ln();
    let rhs = 1.0 + (c - t_prev) * ln_a;
    if rhs <= 0.0 || rhs >= 1.0 {
        return None;
    }
    Some(-rhs.ln() / ln_a)
}

/// Closed-form recurrence step for the geometric-increasing family (§4.3,
/// eq 4.7): `t_{k+1} = log₂((t_k − c)·ln 2 + 1)`.
///
/// Position-free, like the paper's form; the caller is responsible for
/// stopping when the cumulative time reaches the lifespan `L` (the generic
/// generator does this via the `v ≤ 0` test).
pub fn geometric_increasing_step(c: f64, t_prev: f64) -> Option<f64> {
    if t_prev <= c {
        return None;
    }
    let arg = (t_prev - c) * std::f64::consts::LN_2 + 1.0;
    // arg > 1 whenever t_prev > c, so the step is always positive here.
    Some(arg.log2())
}

/// Maximum residual of the recurrence system (3.6) over a schedule:
/// `max_k |p(T_k) − p(T_{k−1}) − (t_{k−1} − c)p'(T_{k−1})|`.
///
/// Zero (to numerical tolerance) for guideline-generated schedules; used by
/// tests and by the §5 experiments to verify that the \[3\] optimal schedules
/// satisfy the paper's necessary conditions.
pub fn recurrence_residual(s: &Schedule, p: &dyn LifeFunction, c: f64) -> f64 {
    let ends = s.end_times();
    let mut worst: f64 = 0.0;
    for k in 1..s.len() {
        let lhs = p.survival(ends[k]);
        let rhs = p.survival(ends[k - 1]) + (s.periods()[k - 1] - c) * p.deriv(ends[k - 1]);
        worst = worst.max((lhs - rhs).abs());
    }
    worst
}

/// Maximum residual of Corollary 3.1's *cumulative* intermediate system:
/// `max_k |p(T_k) − p(T_0) − Σ_{j<k} (t_j − c)p'(T_j)|`.
///
/// Algebraically equivalent to summing the (3.6) residuals, but numerically
/// independent (no telescoping), so it cross-checks the recurrence
/// implementation.
pub fn recurrence_residual_cumulative(s: &Schedule, p: &dyn LifeFunction, c: f64) -> f64 {
    let ends = s.end_times();
    if ends.is_empty() {
        return 0.0;
    }
    let p0 = p.survival(ends[0]);
    let mut acc = 0.0;
    let mut worst: f64 = 0.0;
    for k in 1..s.len() {
        acc += (s.periods()[k - 1] - c) * p.deriv(ends[k - 1]);
        worst = worst.max((p.survival(ends[k]) - p0 - acc).abs());
    }
    worst
}

/// The Theorem 3.1 **first-order (shift) residual** at each period:
/// `∂E/∂t_k = p(T_k) + Σ_{j≥k} (t_j − c)p'(T_j)` — system (3.1) states that
/// all of these vanish for an optimal schedule. Returns the residual vector.
///
/// For a guideline-generated schedule, (3.6) forces all *differences* of
/// consecutive residuals to zero, so the entries are equal; they all vanish
/// only at the truly optimal `t_0` (the terminal/shooting condition). The
/// searched `t_0` drives them to ≈ 0 — measured in tests and EXP-5.1.
pub fn shift_gradient(s: &Schedule, p: &dyn LifeFunction, c: f64) -> Vec<f64> {
    let ends = s.end_times();
    let m = s.len();
    let mut out = vec![0.0f64; m];
    // Build suffix sums of (t_j - c) p'(T_j).
    let mut suffix = 0.0;
    for k in (0..m).rev() {
        suffix += (s.periods()[k] - c) * p.deriv(ends[k]);
        out[k] = p.survival(ends[k]) + suffix;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_life::{GeometricDecreasing, GeometricIncreasing, Polynomial, Uniform};
    use cs_numeric::approx_eq;
    use proptest::prelude::*;

    const OPTS: GuidelineOptions = GuidelineOptions {
        max_periods: 10_000,
        tail_eps: 1e-15,
    };

    #[test]
    fn rejects_bad_parameters() {
        let p = Uniform::new(10.0).unwrap();
        assert!(guideline_schedule(&p, -1.0, 2.0, &OPTS).is_err());
        assert!(guideline_schedule(&p, 1.0, 0.0, &OPTS).is_err());
        assert!(guideline_schedule(&p, 1.0, f64::NAN, &OPTS).is_err());
    }

    #[test]
    fn uniform_recurrence_is_arithmetic() {
        // §4.1 eq (4.1): for d = 1 the guideline step is exactly t_k = t_{k-1} - c.
        let l = 1000.0;
        let c = 5.0;
        let p = Uniform::new(l).unwrap();
        let s = guideline_schedule(&p, c, 97.5, &OPTS).unwrap();
        for w in s.periods().windows(2) {
            assert!(approx_eq(w[1], w[0] - c, 1e-6), "{} vs {}", w[1], w[0] - c);
        }
        // All periods productive, schedule fits inside the lifespan.
        assert!(s.periods().iter().all(|&t| t > 0.0));
        assert!(s.total_length() <= l + 1e-9);
    }

    #[test]
    fn generic_matches_polynomial_closed_form() {
        let c = 2.0;
        let l = 500.0;
        for d in [1u32, 2, 3, 5] {
            let p = Polynomial::new(d, l).unwrap();
            let t0 = 60.0;
            let s = guideline_schedule(&p, c, t0, &OPTS).unwrap();
            // Re-generate with the closed-form step.
            let mut t_end = t0;
            let mut t_prev = t0;
            for (k, &expect) in s.periods().iter().enumerate().skip(1) {
                let step = polynomial_step(d, l, c, t_end, t_prev)
                    .unwrap_or_else(|| panic!("closed form ended early at k = {k}, d = {d}"));
                assert!(
                    approx_eq(step, expect, 1e-6),
                    "d = {d}, k = {k}: closed {step} vs generic {expect}"
                );
                t_end += step;
                t_prev = step;
            }
        }
    }

    #[test]
    fn generic_matches_geometric_decreasing_closed_form() {
        let a = 2.0;
        let c = 1.0;
        let p = GeometricDecreasing::new(a).unwrap();
        // Start exactly at [3]'s optimal period: the unique initial value
        // from which the recurrence generates an infinite (equal-period)
        // schedule. The fixed point is repelling, so floating-point drift
        // eventually terminates the generation — but the first periods must
        // match the closed form step-for-step.
        let t0 = crate::optimal::geometric_decreasing_optimal_period(a, c).unwrap();
        let opts = GuidelineOptions {
            max_periods: 40,
            tail_eps: 0.0,
        };
        let s = guideline_schedule(&p, c, t0, &opts).unwrap();
        assert!(s.len() > 5, "expected several periods, got {}", s.len());
        // The fixed point repels: per-step numeric differences amplify by
        // ≈ a^{t*} per period, so only the first several periods are
        // comparable at tight tolerance.
        let mut t_prev = t0;
        for (k, &expect) in s.periods().iter().enumerate().skip(1).take(9) {
            let step = geometric_decreasing_step(a, c, t_prev).expect("step should exist");
            assert!(approx_eq(step, expect, 1e-5), "k = {k}: {step} vs {expect}");
            t_prev = step;
        }
    }

    #[test]
    fn geometric_decreasing_fixed_point_is_ref3_optimum_and_repelling() {
        // The map t ↦ -log_a(1 + (c - t) ln a) has fixed point t* with
        // a^{-t*} = 1 + (c - t*) ln a — algebraically identical to [3]'s
        // optimal-period equation t* + a^{-t*}/ln a = c + 1/ln a. The fixed
        // point is REPELLING (|f'(t*)| = a^{t*} > 1): forward iteration from
        // any other t0 terminates after finitely many periods, which is why
        // determining t0 "remains an art" (paper §6) — only the exact
        // optimum generates the infinite optimal schedule.
        let a = std::f64::consts::E;
        let c = 0.5;
        let t_star = crate::optimal::geometric_decreasing_optimal_period(a, c).unwrap();
        // Fixed point property.
        let step = geometric_decreasing_step(a, c, t_star).unwrap();
        assert!(
            approx_eq(step, t_star, 1e-9),
            "f(t*) = {step} vs t* = {t_star}"
        );
        // Repelling: a small offset grows.
        let eps = 1e-6;
        let pushed = geometric_decreasing_step(a, c, t_star + eps).unwrap();
        assert!((pushed - t_star).abs() > eps, "offset did not grow");
        // Iteration from below t* decays and terminates.
        let mut t = t_star - 0.1;
        let mut steps = 0;
        while let Some(next) = geometric_decreasing_step(a, c, t) {
            t = next;
            steps += 1;
            assert!(steps < 500, "iteration failed to terminate");
        }
        assert!(t <= t_star);
    }

    #[test]
    fn geometric_decreasing_step_solvability_window() {
        let a = 2.0;
        let c = 1.0;
        // t_prev <= c: no step.
        assert!(geometric_decreasing_step(a, c, c).is_none());
        assert!(geometric_decreasing_step(a, c, 0.5).is_none());
        // t_prev >= c + 1/ln a: rhs <= 0, no step.
        assert!(geometric_decreasing_step(a, c, c + 1.0 / a.ln()).is_none());
        assert!(geometric_decreasing_step(a, c, 10.0).is_none());
        // Inside the window: a positive step.
        let s = geometric_decreasing_step(a, c, c + 0.5 / a.ln()).unwrap();
        assert!(s > 0.0);
    }

    #[test]
    fn generic_matches_geometric_increasing_closed_form() {
        let l = 64.0;
        let c = 1.0;
        let p = GeometricIncreasing::new(l).unwrap();
        let t0 = 20.0;
        let s = guideline_schedule(&p, c, t0, &OPTS).unwrap();
        assert!(s.len() >= 3);
        let mut t_prev = t0;
        for (k, &expect) in s.periods().iter().enumerate().skip(1) {
            let step = geometric_increasing_step(c, t_prev).expect("step exists");
            // Early periods sit where p ≈ 1 − 2^{t−L}: the survival change
            // per step is below f64 resolution relative to 1, so the generic
            // numeric inversion is noise-limited (≈ eps/|p'|). Compare at
            // the corresponding looser tolerance.
            assert!(approx_eq(step, expect, 2e-3), "k = {k}: {step} vs {expect}");
            t_prev = step;
        }
        assert!(s.total_length() <= l);
    }

    #[test]
    fn guideline_schedules_have_zero_recurrence_residual() {
        let c = 2.0;
        let p = Polynomial::new(3, 800.0).unwrap();
        let s = guideline_schedule(&p, c, 120.0, &OPTS).unwrap();
        assert!(s.len() > 2);
        assert!(recurrence_residual(&s, &p, c) < 1e-8);
    }

    #[test]
    fn cumulative_residual_matches_pairwise() {
        let c = 2.0;
        let p = Polynomial::new(2, 400.0).unwrap();
        let s = guideline_schedule(&p, c, 60.0, &OPTS).unwrap();
        assert!(s.len() > 3);
        assert!(recurrence_residual(&s, &p, c) < 1e-8);
        assert!(recurrence_residual_cumulative(&s, &p, c) < 1e-7);
        // A non-guideline schedule has a visible residual in both metrics.
        let bad = crate::Schedule::new(vec![60.0, 60.0, 60.0]).unwrap();
        assert!(recurrence_residual(&bad, &p, c) > 1e-3);
        assert!(recurrence_residual_cumulative(&bad, &p, c) > 1e-3);
        // Empty/singleton schedules have zero residual trivially.
        assert_eq!(
            recurrence_residual_cumulative(&crate::Schedule::empty(), &p, c),
            0.0
        );
    }

    #[test]
    fn shift_gradient_vanishes_at_searched_optimum() {
        // Thm 3.1 / system (3.1): all ∂E/∂t_k vanish at the optimum. The
        // guideline search over t0 should drive the (constant-across-k)
        // residual to ~0; a perturbed t0 leaves it visibly nonzero.
        let l = 600.0;
        let c = 4.0;
        let p = Uniform::new(l).unwrap();
        let plan = crate::search::best_guideline_schedule(&p, c).unwrap();
        let g = shift_gradient(&plan.schedule, &p, c);
        assert!(!g.is_empty());
        // All entries equal (eq 3.6 pins the differences)...
        for w in g.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-8, "{} vs {}", w[0], w[1]);
        }
        // ...and near zero at the searched t0.
        assert!(g[0].abs() < 1e-3, "gradient at optimum: {}", g[0]);
        // Off-optimal t0: gradient clearly nonzero.
        let off = guideline_schedule(&p, c, plan.t0 * 0.7, &OPTS).unwrap();
        let g_off = shift_gradient(&off, &p, c);
        assert!(
            g_off[0].abs() > 10.0 * g[0].abs().max(1e-9),
            "off-opt gradient {}",
            g_off[0]
        );
    }

    #[test]
    fn step_terminates_on_unproductive_previous() {
        let p = Uniform::new(100.0).unwrap();
        assert!(guideline_step(&p, 5.0, 10.0, 5.0).is_none());
        assert!(guideline_step(&p, 5.0, 10.0, 3.0).is_none());
    }

    #[test]
    fn step_terminates_past_lifespan() {
        let p = Uniform::new(100.0).unwrap();
        // Large previous period: target v goes negative.
        assert!(guideline_step(&p, 1.0, 90.0, 80.0).is_none());
    }

    #[test]
    fn max_periods_cap_respected() {
        // Uniform risk with a long lifespan generates ~t0/c periods; the cap
        // must truncate generation.
        let p = Uniform::new(10_000.0).unwrap();
        let opts = GuidelineOptions {
            max_periods: 7,
            tail_eps: 0.0,
        };
        let s = guideline_schedule(&p, 1.0, 200.0, &opts).unwrap();
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn uniform_step_terminates() {
        assert_eq!(uniform_step(2.0, 5.0), Some(3.0));
        assert!(uniform_step(2.0, 2.0).is_none());
        assert!(uniform_step(2.0, 1.0).is_none());
    }

    #[test]
    fn increasing_step_positive_iff_productive() {
        assert!(geometric_increasing_step(1.0, 1.0).is_none());
        let s = geometric_increasing_step(1.0, 5.0).unwrap();
        assert!(s > 0.0);
        // And the step shrinks the period (log compression).
        assert!(s < 5.0);
    }

    /// Family `k` of every `cs-life` family, at parameters whose guideline
    /// schedules run from one period to hundreds, bare or — when `tau` is
    /// `Some` — conditioned on having survived `tau` of its lifespan or
    /// horizon, as the farm's re-rooted searches see them.
    pub(crate) fn family(k: usize, tau: Option<f64>) -> cs_life::ArcLife {
        use cs_life::{ArcLife, Conditional, Empirical, Mixture, Pareto, TimeScaled, Weibull};
        use std::sync::Arc;
        let base: ArcLife = match k % 9 {
            0 => Arc::new(Uniform::new(120.0).unwrap()),
            1 => Arc::new(Polynomial::new(3, 200.0).unwrap()),
            2 => Arc::new(GeometricDecreasing::new(1.05).unwrap()),
            3 => Arc::new(GeometricIncreasing::new(64.0).unwrap()),
            4 => Arc::new(Weibull::new(2.0, 50.0).unwrap()),
            5 => Arc::new(Pareto::new(2.5).unwrap()),
            6 => Arc::new(
                Mixture::new(vec![
                    (0.3, Arc::new(Uniform::new(80.0).unwrap()) as ArcLife),
                    (0.7, Arc::new(Weibull::new(1.5, 40.0).unwrap()) as ArcLife),
                ])
                .unwrap(),
            ),
            7 => Arc::new(
                TimeScaled::new(Arc::new(Polynomial::new(2, 100.0).unwrap()), 1.5).unwrap(),
            ),
            _ => {
                let samples: Vec<f64> = (1..=400).map(|i| (i * 37 % 401) as f64 * 0.3).collect();
                Arc::new(Empirical::from_samples(&samples, 32).unwrap())
            }
        };
        match tau {
            Some(frac) => {
                let tau = frac * base.lifespan().unwrap_or(base.horizon(1e-3));
                Arc::new(Conditional::new(base, tau).unwrap())
            }
            None => base,
        }
    }

    /// What the search evaluated before the walk was fused: the schedule,
    /// then its expected work.
    fn composed(p: &dyn LifeFunction, c: f64, t0: f64, opts: &GuidelineOptions) -> Option<u64> {
        let s = guideline_schedule(p, c, t0, opts).ok()?;
        Some(s.expected_work(p, c).to_bits())
    }

    #[test]
    fn fused_expected_work_rejects_what_the_schedule_rejects() {
        let p = Uniform::new(100.0).unwrap();
        for (c, t0) in [
            (1.0, f64::NAN),
            (1.0, f64::INFINITY),
            (1.0, 0.0),
            (1.0, -3.0),
            (f64::NAN, 10.0),
            (f64::INFINITY, 10.0),
            (-1.0, 10.0),
        ] {
            assert!(guideline_expected_work(&p, c, t0, &OPTS).is_err());
            assert!(guideline_schedule(&p, c, t0, &OPTS).is_err());
        }
        // No term at all: an unproductive first period, and one that ends
        // at the lifespan (zero survival). The sum is +0.0, not -0.0.
        for t0 in [0.5, 1.0, 100.0, 150.0] {
            let e = guideline_expected_work(&p, 1.0, t0, &OPTS).unwrap();
            assert_eq!(e.to_bits(), 0.0f64.to_bits(), "t0 = {t0}");
            assert_eq!(Some(e.to_bits()), composed(&p, 1.0, t0, &OPTS));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The fused walk is the composed schedule-then-sum, bit for bit,
        /// on every family, bare and conditioned, across the period cap,
        /// the tail cut-off, unproductive and overlong first periods.
        #[test]
        fn prop_fused_expected_work_is_bit_exact(
            k in 0usize..9,
            tau in -0.3f64..0.6,
            c in 0.0f64..6.0,
            u in 0.0f64..1.0,
            mode in 0usize..3,
            cap in 0usize..12,
            eps in 0usize..3,
        ) {
            // A negative `tau` is a bare family.
            let p = family(k, (tau > 0.0).then_some(tau));
            // Mostly inside the Thm 3.2/3.3 bracket, where the search looks
            // and schedules run long; else anywhere from well below `c` to
            // past every lifespan.
            let t0 = match crate::bounds::t0_bracket(p.as_ref(), c) {
                Ok(b) if mode > 0 => b.lower.max(c) + u * (b.upper - b.lower.max(c)),
                _ => (c + 0.05) * 10f64.powf(2.3 * u - 0.7),
            };
            // A third of the cases capped at 0 to 3 periods.
            let opts = GuidelineOptions {
                max_periods: if cap < 4 { cap } else { 100_000 },
                tail_eps: [1e-15, 0.0, 1e-3][eps],
            };
            let fused = guideline_expected_work(p.as_ref(), c, t0, &opts).ok().map(f64::to_bits);
            prop_assert_eq!(fused, composed(p.as_ref(), c, t0, &opts));
        }

        /// The search over the fused objective picks the same `t0`,
        /// schedule and expected work as the search over the composed one.
        #[test]
        fn prop_search_matches_the_composed_reference(
            k in 0usize..9,
            tau in -0.3f64..0.6,
            c in 0.2f64..6.0,
        ) {
            let p = family(k, (tau > 0.0).then_some(tau));
            let p = p.as_ref();
            let opts = GuidelineOptions::default();
            let reference = crate::bounds::t0_bracket(p, c).and_then(|bracket| {
                let lo = bracket.lower.max(c + 1e-12);
                let hi = bracket.upper.max(lo * (1.0 + 1e-9));
                let eval = |t0: f64| match guideline_schedule(p, c, t0, &opts) {
                    Ok(s) => s.expected_work(p, c),
                    Err(_) => f64::NEG_INFINITY,
                };
                let max = cs_numeric::optimize::grid_refine_max(eval, lo, hi, 256, 1e-9)?;
                let schedule = guideline_schedule(p, c, max.x, &opts)?;
                let expected_work = schedule.expected_work(p, c);
                Ok((max.x, schedule, expected_work))
            });
            let bits = |s: &Schedule| s.periods().iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            match (crate::search::best_guideline_schedule(p, c), reference) {
                (Ok(plan), Ok((t0, schedule, e))) => {
                    prop_assert_eq!(plan.t0.to_bits(), t0.to_bits());
                    prop_assert_eq!(plan.expected_work.to_bits(), e.to_bits());
                    prop_assert_eq!(bits(&plan.schedule), bits(&schedule));
                }
                (Err(_), Err(_)) => {}
                (got, want) => prop_assert!(false, "{:?} vs {:?}", got.is_ok(), want.is_ok()),
            }
        }
    }

    proptest! {
        /// The generic recurrence always produces strictly positive periods
        /// whose end times stay within the lifespan.
        #[test]
        fn prop_guideline_schedule_well_formed(
            d in 1u32..5,
            l in 50.0f64..2000.0,
            c in 0.5f64..10.0,
            frac in 0.05f64..0.9,
        ) {
            let p = Polynomial::new(d, l).unwrap();
            let t0 = c + frac * (l - c);
            let s = guideline_schedule(&p, c, t0, &OPTS).unwrap();
            prop_assert!(!s.is_empty());
            prop_assert!(s.periods().iter().all(|&t| t > 0.0));
            prop_assert!(s.total_length() <= l + 1e-6);
            prop_assert!(recurrence_residual(&s, &p, c) < 1e-6);
        }

        /// Concave families: the recurrence shrinks periods by at least c
        /// (Thm 5.2 says optimal schedules must; guideline schedules satisfy
        /// (3.6), which forces the same decay).
        #[test]
        fn prop_concave_periods_decrease(
            d in 2u32..5,
            c in 0.5f64..5.0,
            frac in 0.1f64..0.8,
        ) {
            let l = 600.0;
            let p = Polynomial::new(d, l).unwrap();
            let t0 = c + frac * (l / 2.0);
            let s = guideline_schedule(&p, c, t0, &OPTS).unwrap();
            for w in s.periods().windows(2) {
                prop_assert!(w[1] <= w[0] - c + 1e-6);
            }
        }
    }
}
