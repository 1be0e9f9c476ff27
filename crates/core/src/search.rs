//! Guideline-driven search: the paper's intended workflow.
//!
//! §1: "the approximate specifications one obtains via the guidelines
//! provide one with a manageably narrow search space for a truly optimal
//! schedule." Concretely: bracket `t_0` with Theorems 3.2/3.3, generate the
//! tail of each candidate schedule with the recurrence (3.6), and pick the
//! `t_0` that maximizes `E(S; p)`. [`coordinate_ascent`] optionally polishes
//! the result by cyclic 1-D maximization over individual periods.

use crate::bounds::{self, T0Bracket};
use crate::recurrence::{guideline_expected_work, guideline_schedule, GuidelineOptions};
use crate::{Result, Schedule};
use cs_life::LifeFunction;
use cs_numeric::optimize;

/// Outcome of the guideline search.
#[derive(Debug, Clone, PartialEq)]
pub struct GuidelinePlan {
    /// The chosen initial period.
    pub t0: f64,
    /// The `t_0` bracket the search scanned (Thms 3.2/3.3).
    pub bracket: T0Bracket,
    /// The guideline schedule generated from [`GuidelinePlan::t0`].
    pub schedule: Schedule,
    /// Expected work of the schedule.
    pub expected_work: f64,
}

/// Number of grid samples used to scan the `t_0` bracket.
const T0_GRID: usize = 256;

/// Searches the Theorem 3.2/3.3 bracket for the best guideline schedule.
///
/// Every candidate schedule is produced by the recurrence (3.6); only `t_0`
/// is free, exactly as the paper prescribes. The scan-plus-golden refinement
/// tolerates the mild non-smoothness that period-count changes induce in
/// `t_0 ↦ E`.
pub fn best_guideline_schedule(p: &dyn LifeFunction, c: f64) -> Result<GuidelinePlan> {
    best_guideline_schedule_with(p, c, &GuidelineOptions::default())
}

/// [`best_guideline_schedule`] with explicit generation options.
pub fn best_guideline_schedule_with(
    p: &dyn LifeFunction,
    c: f64,
    opts: &GuidelineOptions,
) -> Result<GuidelinePlan> {
    let bracket = bounds::t0_bracket(p, c)?;
    best_guideline_schedule_in(p, c, bracket, T0_GRID, opts)
}

/// The underlying search: scans `grid` candidate `t_0` values inside
/// `bracket` (each expanded into a full recurrence schedule) and refines
/// around the best. Exposed for ablations that vary the search window or
/// resolution.
pub fn best_guideline_schedule_in(
    p: &dyn LifeFunction,
    c: f64,
    bracket: T0Bracket,
    grid: usize,
    opts: &GuidelineOptions,
) -> Result<GuidelinePlan> {
    // Guard against degenerate brackets (lower == upper).
    let lo = bracket.lower.max(c + 1e-12);
    let hi = bracket.upper.max(lo * (1.0 + 1e-9));
    let eval = |t0: f64| guideline_expected_work(p, c, t0, opts).unwrap_or(f64::NEG_INFINITY);
    let max = optimize::grid_refine_max(eval, lo, hi, grid.max(2), 1e-9)?;
    // `max.value` is `eval(max.x)`: the winner's expected work.
    let schedule = guideline_schedule(p, c, max.x, opts)?;
    Ok(GuidelinePlan {
        t0: max.x,
        bracket,
        schedule,
        expected_work: max.value,
    })
}

/// Samples the `t_0 ↦ E(guideline schedule from t_0)` landscape on `n`
/// evenly spaced points of `[lo, hi]`.
///
/// §6 asks whether optimal schedules are unique and notes Theorem 3.1
/// implies distinct optima must differ in `t_0`; the landscape makes the
/// question empirical — `exp_uniqueness` counts its local maxima.
pub fn t0_landscape(
    p: &dyn LifeFunction,
    c: f64,
    lo: f64,
    hi: f64,
    n: usize,
    opts: &GuidelineOptions,
) -> Result<Vec<(f64, f64)>> {
    if n < 2 || !(hi > lo) {
        return Err(crate::CoreError::BadParameter(
            "t0_landscape: bad range or n",
        ));
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t0 = lo + (hi - lo) * i as f64 / (n - 1) as f64;
        out.push((t0, guideline_expected_work(p, c, t0, opts).unwrap_or(0.0)));
    }
    Ok(out)
}

/// Counts strict interior local maxima of a sampled landscape (values
/// within `tol` are treated as a plateau, not separate maxima).
pub fn count_local_maxima(landscape: &[(f64, f64)], tol: f64) -> usize {
    let mut count = 0;
    let n = landscape.len();
    let mut i = 1;
    while i + 1 < n {
        let prev = landscape[i - 1].1;
        let here = landscape[i].1;
        // Extend over any plateau.
        let mut j = i;
        while j + 1 < n && (landscape[j + 1].1 - here).abs() <= tol {
            j += 1;
        }
        let next = if j + 1 < n {
            landscape[j + 1].1
        } else {
            f64::NEG_INFINITY
        };
        if here > prev + tol && here > next + tol {
            count += 1;
        }
        i = j + 1;
    }
    count
}

/// Polishes a schedule by cyclic coordinate ascent: each period length is
/// 1-D–maximized in turn (holding the others fixed) until a full sweep
/// improves `E` by less than `tol`.
///
/// This is the "ad hoc improvement" step the paper alludes to in §5: the
/// guideline schedule is already near-stationary (Thm 5.1), so a sweep or
/// two suffices.
pub fn coordinate_ascent(
    s: &Schedule,
    p: &dyn LifeFunction,
    c: f64,
    max_sweeps: usize,
    tol: f64,
) -> Result<Schedule> {
    let mut periods = s.periods().to_vec();
    if periods.is_empty() {
        return Ok(s.clone());
    }
    let horizon = p.horizon(1e-12);
    let mut best_e = s.expected_work(p, c);
    for _ in 0..max_sweeps {
        let sweep_start = best_e;
        for k in 0..periods.len() {
            let others: f64 = periods.iter().sum::<f64>() - periods[k];
            let room = (horizon - others).max(1e-9);
            let eval = |t: f64| -> f64 {
                let mut trial = periods.clone();
                trial[k] = t;
                match Schedule::new(trial) {
                    Ok(sch) => sch.expected_work(p, c),
                    Err(_) => f64::NEG_INFINITY,
                }
            };
            if let Ok(m) = optimize::golden_section_max(eval, 1e-9, room, 1e-10) {
                if m.value > best_e {
                    periods[k] = m.x;
                    best_e = m.value;
                }
            }
        }
        if best_e - sweep_start <= tol {
            break;
        }
    }
    Schedule::new(periods)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;
    use cs_life::{GeometricDecreasing, GeometricIncreasing, Polynomial, Uniform, Weibull};

    #[test]
    fn guideline_plan_uniform_near_optimal() {
        let l = 1000.0;
        let c = 5.0;
        let p = Uniform::new(l).unwrap();
        let plan = best_guideline_schedule(&p, c).unwrap();
        let opt = crate::optimal::uniform_optimal(l, c).unwrap();
        let e_opt = opt.expected_work(&p, c);
        assert!(
            plan.expected_work / e_opt > 0.999,
            "guideline {} vs optimal {e_opt}",
            plan.expected_work
        );
        // The found t0 is inside the bracket.
        assert!(plan.t0 >= plan.bracket.lower - 1e-9);
        assert!(plan.t0 <= plan.bracket.upper + 1e-9);
    }

    #[test]
    fn guideline_plan_polynomial_family() {
        let c = 3.0;
        for d in [2u32, 3, 4] {
            let p = Polynomial::new(d, 800.0).unwrap();
            let plan = best_guideline_schedule(&p, c).unwrap();
            let oracle = dp::solve_auto(&p, c, 1600).unwrap();
            assert!(
                plan.expected_work >= 0.98 * oracle.expected_work,
                "d = {d}: guideline {} vs DP {}",
                plan.expected_work,
                oracle.expected_work
            );
        }
    }

    #[test]
    fn guideline_plan_geometric_decreasing() {
        let a = 2.0;
        let c = 1.0;
        let p = GeometricDecreasing::new(a).unwrap();
        let plan = best_guideline_schedule(&p, c).unwrap();
        let opt = crate::optimal::geometric_decreasing_optimal(a, c).unwrap();
        assert!(
            plan.expected_work / opt.expected_work > 0.95,
            "guideline {} vs optimal {}",
            plan.expected_work,
            opt.expected_work
        );
    }

    #[test]
    fn guideline_plan_geometric_increasing() {
        let l = 64.0;
        let c = 1.0;
        let p = GeometricIncreasing::new(l).unwrap();
        let plan = best_guideline_schedule(&p, c).unwrap();
        let opt = crate::optimal::geometric_increasing_optimal(l, c).unwrap();
        let e_opt = opt.expected_work(&p, c);
        assert!(
            plan.expected_work / e_opt > 0.95,
            "guideline {} vs optimal {e_opt}",
            plan.expected_work
        );
    }

    #[test]
    fn works_on_unshaped_life_functions() {
        // Weibull k > 1 has no Thm 3.3 bound; the bracket falls back to the
        // horizon and the search still functions.
        let w = Weibull::new(2.0, 50.0).unwrap();
        let c = 1.0;
        let plan = best_guideline_schedule(&w, c).unwrap();
        assert!(plan.expected_work > 0.0);
        assert!(!plan.bracket.upper_from_shape);
        let oracle = dp::solve(&w, c, w.horizon(1e-9), 1500).unwrap();
        assert!(plan.expected_work >= 0.9 * oracle.expected_work);
    }

    #[test]
    fn coordinate_ascent_only_improves() {
        let p = Uniform::new(200.0).unwrap();
        let c = 4.0;
        // Start from a deliberately bad schedule.
        let s = Schedule::new(vec![10.0, 10.0, 10.0, 10.0]).unwrap();
        let e0 = s.expected_work(&p, c);
        let polished = coordinate_ascent(&s, &p, c, 8, 1e-12).unwrap();
        let e1 = polished.expected_work(&p, c);
        assert!(e1 >= e0);
        // And gets close to the optimum for this period count regime.
        assert!(e1 > e0 * 1.05, "ascent barely moved: {e0} -> {e1}");
    }

    #[test]
    fn coordinate_ascent_fixed_point_on_optimum() {
        // The provably optimal schedule should be (numerically) a fixed
        // point of coordinate ascent.
        let l = 300.0;
        let c = 3.0;
        let p = Uniform::new(l).unwrap();
        let opt = crate::optimal::uniform_optimal(l, c).unwrap();
        let e0 = opt.expected_work(&p, c);
        let polished = coordinate_ascent(&opt, &p, c, 4, 1e-12).unwrap();
        let e1 = polished.expected_work(&p, c);
        assert!(
            (e1 - e0) / e0 < 1e-6,
            "ascent improved the optimum: {e0} -> {e1}"
        );
    }

    #[test]
    fn coordinate_ascent_empty_schedule() {
        let p = Uniform::new(10.0).unwrap();
        let s = Schedule::empty();
        let out = coordinate_ascent(&s, &p, 1.0, 3, 1e-9).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn landscape_unimodal_for_uniform() {
        let p = Uniform::new(500.0).unwrap();
        let c = 4.0;
        let land = t0_landscape(&p, c, c + 0.1, 480.0, 400, &GuidelineOptions::default()).unwrap();
        assert_eq!(land.len(), 400);
        // A single interior local maximum: the §6 uniqueness question has an
        // affirmative empirical answer here.
        let peaks = count_local_maxima(&land, 1e-9);
        assert_eq!(peaks, 1, "found {peaks} local maxima");
    }

    #[test]
    fn landscape_guards() {
        let p = Uniform::new(10.0).unwrap();
        let opts = GuidelineOptions::default();
        assert!(t0_landscape(&p, 1.0, 5.0, 2.0, 10, &opts).is_err());
        assert!(t0_landscape(&p, 1.0, 1.0, 5.0, 1, &opts).is_err());
    }

    #[test]
    fn count_local_maxima_shapes() {
        // Single peak.
        let one: Vec<(f64, f64)> = vec![(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)];
        assert_eq!(count_local_maxima(&one, 1e-12), 1);
        // Two peaks.
        let two: Vec<(f64, f64)> = vec![(0.0, 0.0), (1.0, 2.0), (2.0, 0.5), (3.0, 3.0), (4.0, 1.0)];
        assert_eq!(count_local_maxima(&two, 1e-12), 2);
        // Monotone: none.
        let mono: Vec<(f64, f64)> = vec![(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)];
        assert_eq!(count_local_maxima(&mono, 1e-12), 0);
        // Plateau peak counts once.
        let plat: Vec<(f64, f64)> =
            vec![(0.0, 0.0), (1.0, 2.0), (2.0, 2.0), (3.0, 2.0), (4.0, 0.0)];
        assert_eq!(count_local_maxima(&plat, 1e-12), 1);
    }
}
