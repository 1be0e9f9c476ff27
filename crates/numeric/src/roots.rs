//! Scalar root finding: bracketing, bisection, Brent's method, and
//! safeguarded Newton iteration.
//!
//! The guideline machinery in `cs-core` repeatedly inverts decreasing life
//! functions (`p(T) = v`) and solves implicit `t_0` inequalities, so these
//! routines are written to be robust on monotone but possibly very flat or
//! very steep functions.

use crate::{NumericError, Result, DEFAULT_MAX_ITER, DEFAULT_TOL};

/// Expands `[lo, hi]` geometrically to the right until `f` changes sign or
/// `hi` exceeds `limit`. Returns the bracketing interval.
///
/// `f(lo)` is evaluated once; the interval grows by doubling its width. Use
/// this to bracket the inverse of an unbounded-support survival function.
pub fn expand_bracket_right(
    f: impl Fn(f64) -> f64,
    lo: f64,
    mut hi: f64,
    limit: f64,
) -> Result<(f64, f64)> {
    if !(lo < hi) {
        return Err(NumericError::InvalidArgument(
            "expand_bracket_right: lo must be < hi",
        ));
    }
    let flo = f(lo);
    if flo == 0.0 {
        return Ok((lo, lo));
    }
    let mut width = hi - lo;
    for _ in 0..128 {
        let fhi = f(hi);
        if fhi == 0.0 || (flo < 0.0) != (fhi < 0.0) {
            return Ok((lo, hi));
        }
        if hi >= limit {
            break;
        }
        width *= 2.0;
        hi = (lo + width).min(limit);
    }
    Err(NumericError::NoBracket { lo, hi })
}

/// Finds a root of `f` in `[lo, hi]` by bisection.
///
/// Requires a sign change over the interval (endpoints with `f == 0` are
/// returned immediately). Converges unconditionally; accuracy `tol` on the
/// abscissa.
pub fn bisect(f: impl Fn(f64) -> f64, lo: f64, hi: f64, tol: f64) -> Result<f64> {
    if lo.is_nan() || hi.is_nan() || lo > hi {
        return Err(NumericError::InvalidArgument("bisect: invalid interval"));
    }
    let mut a = lo;
    let mut b = hi;
    let mut fa = f(a);
    if fa == 0.0 {
        return Ok(a);
    }
    let fb = f(b);
    if fb == 0.0 {
        return Ok(b);
    }
    if (fa < 0.0) == (fb < 0.0) {
        return Err(NumericError::NoBracket { lo, hi });
    }
    // f64 has 52 mantissa bits; ~200 halvings always reaches machine epsilon.
    for _ in 0..256 {
        let mid = 0.5 * (a + b);
        if (b - a) <= tol || mid == a || mid == b {
            return Ok(mid);
        }
        let fm = f(mid);
        if fm == 0.0 {
            return Ok(mid);
        }
        if (fm < 0.0) == (fa < 0.0) {
            a = mid;
            fa = fm;
        } else {
            b = mid;
        }
    }
    Ok(0.5 * (a + b))
}

/// Finds a root of `f` in `[lo, hi]` using Brent's method
/// (inverse-quadratic / secant steps with a bisection safeguard).
///
/// Typically converges superlinearly; falls back to bisection behaviour on
/// pathological functions. Requires a sign change over `[lo, hi]`.
pub fn brent(f: impl Fn(f64) -> f64, lo: f64, hi: f64, tol: f64) -> Result<f64> {
    brent_from(&f, lo, hi, f(lo), f(hi), tol)
}

/// [`brent`] started from endpoint values the caller already holds:
/// `flo = f(lo)` and `fhi = f(hi)`. The iterates are [`brent`]'s, with two
/// evaluations of `f` fewer.
pub fn brent_from(
    f: impl Fn(f64) -> f64,
    lo: f64,
    hi: f64,
    flo: f64,
    fhi: f64,
    tol: f64,
) -> Result<f64> {
    let mut a = lo;
    let mut b = hi;
    let mut fa = flo;
    let mut fb = fhi;
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if (fa < 0.0) == (fb < 0.0) {
        return Err(NumericError::NoBracket { lo, hi });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;
    for _ in 0..DEFAULT_MAX_ITER {
        if fb == 0.0 || (b - a).abs() <= tol {
            return Ok(b);
        }
        let mut s = if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb))
        } else {
            // Secant step.
            b - fb * (b - a) / (fb - fa)
        };
        let lo34 = (3.0 * a + b) / 4.0;
        let cond_outside = !((lo34.min(b) < s) && (s < lo34.max(b)));
        let cond_flag = if mflag {
            (s - b).abs() >= (b - c).abs() / 2.0 || (b - c).abs() < tol
        } else {
            (s - b).abs() >= d.abs() / 2.0 || d.abs() < tol
        };
        if cond_outside || cond_flag {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        d = b - c;
        c = b;
        fc = fb;
        if (fa < 0.0) != (fs < 0.0) {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Err(NumericError::NoConvergence {
        iterations: DEFAULT_MAX_ITER,
        best: b,
    })
}

/// Newton's method with a bisection safeguard.
///
/// Iterates `x ← x − f(x)/f'(x)` starting from `x0`, clamped to the bracket
/// `[lo, hi]` (which must exhibit a sign change). Whenever a Newton step
/// leaves the current bracket or the derivative vanishes, a bisection step is
/// taken instead, so convergence is guaranteed.
pub fn newton_safeguarded(
    f: impl Fn(f64) -> f64,
    df: impl Fn(f64) -> f64,
    x0: f64,
    lo: f64,
    hi: f64,
    tol: f64,
) -> Result<f64> {
    let mut a = lo;
    let mut b = hi;
    let fa = f(a);
    if fa == 0.0 {
        return Ok(a);
    }
    let fb = f(b);
    if fb == 0.0 {
        return Ok(b);
    }
    if (fa < 0.0) == (fb < 0.0) {
        return Err(NumericError::NoBracket { lo, hi });
    }
    let mut x = x0.clamp(lo, hi);
    for _ in 0..DEFAULT_MAX_ITER {
        let fx = f(x);
        if fx == 0.0 || (b - a).abs() <= tol {
            return Ok(x);
        }
        // Shrink the bracket using the sign of f(x).
        if (fx < 0.0) == (fa < 0.0) {
            a = x;
        } else {
            b = x;
        }
        let dfx = df(x);
        let newton = if dfx != 0.0 { x - fx / dfx } else { f64::NAN };
        x = if newton.is_finite() && newton > a && newton < b {
            newton
        } else {
            0.5 * (a + b)
        };
        if (b - a).abs() <= tol {
            return Ok(x);
        }
    }
    Err(NumericError::NoConvergence {
        iterations: DEFAULT_MAX_ITER,
        best: x,
    })
}

/// Inverts a **strictly decreasing** function: finds `x ∈ [lo, hi]` with
/// `g(x) = target`.
///
/// This is the workhorse for life-function inversion (`p(T) = v`). Uses
/// Brent's method on `g(x) − target`, falling back to bisection if Brent's
/// bookkeeping stalls. Returns `lo`/`hi` when `target` is outside the range
/// attained on the interval (clamped inversion), which is the behaviour the
/// schedule generators want at the lifespan boundary.
pub fn invert_decreasing(g: impl Fn(f64) -> f64, target: f64, lo: f64, hi: f64) -> Result<f64> {
    invert_decreasing_from(&g, target, lo, hi, g(lo), g(hi))
}

/// [`invert_decreasing`] given the endpoint values the caller already
/// holds: `glo = g(lo)` and `ghi = g(hi)`. The result is
/// [`invert_decreasing`]'s, bit for bit, with four evaluations of `g` fewer
/// (two here, two in [`brent`]).
pub fn invert_decreasing_from(
    g: impl Fn(f64) -> f64,
    target: f64,
    lo: f64,
    hi: f64,
    glo: f64,
    ghi: f64,
) -> Result<f64> {
    if !(glo >= ghi) {
        return Err(NumericError::InvalidArgument(
            "invert_decreasing: function is not decreasing on the interval",
        ));
    }
    if target >= glo {
        return Ok(lo);
    }
    if target <= ghi {
        return Ok(hi);
    }
    let h = |x: f64| g(x) - target;
    match brent_from(h, lo, hi, glo - target, ghi - target, DEFAULT_TOL) {
        Ok(x) => Ok(x),
        Err(_) => bisect(h, lo, hi, DEFAULT_TOL),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!(approx_eq(r, std::f64::consts::SQRT_2, 1e-10));
    }

    #[test]
    fn bisect_endpoint_root() {
        assert_eq!(bisect(|x| x, 0.0, 1.0, 1e-12).unwrap(), 0.0);
        assert_eq!(bisect(|x| x - 1.0, 0.0, 1.0, 1e-12).unwrap(), 1.0);
    }

    #[test]
    fn bisect_rejects_no_bracket() {
        assert!(matches!(
            bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-12),
            Err(NumericError::NoBracket { .. })
        ));
    }

    #[test]
    fn bisect_rejects_inverted_interval() {
        assert!(bisect(|x| x, 1.0, 0.0, 1e-12).is_err());
    }

    #[test]
    fn brent_finds_cubic_root() {
        let r = brent(|x| x * x * x - x - 2.0, 1.0, 2.0, 1e-13).unwrap();
        assert!((r.powi(3) - r - 2.0).abs() < 1e-9, "r = {r}");
    }

    #[test]
    fn brent_matches_bisect_on_transcendental() {
        let f = |x: f64| x.exp() - 3.0;
        let rb = brent(f, 0.0, 2.0, 1e-13).unwrap();
        let ri = bisect(f, 0.0, 2.0, 1e-13).unwrap();
        assert!(approx_eq(rb, ri, 1e-9));
        assert!(approx_eq(rb, 3.0_f64.ln(), 1e-9));
    }

    #[test]
    fn brent_handles_steep_flat() {
        // Very flat near the root.
        let f = |x: f64| (x - 1.0).powi(7);
        let r = brent(f, 0.0, 3.0, 1e-12).unwrap();
        assert!((r - 1.0).abs() < 1e-2);
    }

    #[test]
    fn newton_converges_quadratically() {
        let r = newton_safeguarded(|x| x * x - 2.0, |x| 2.0 * x, 1.0, 0.0, 2.0, 1e-14).unwrap();
        assert!(approx_eq(r, std::f64::consts::SQRT_2, 1e-10));
    }

    #[test]
    fn newton_safeguard_on_bad_derivative() {
        // Derivative deliberately wrong; bisection safeguard must still converge.
        let r = newton_safeguarded(|x| x - 0.7, |_| 0.0, 0.5, 0.0, 1.0, 1e-12).unwrap();
        assert!(approx_eq(r, 0.7, 1e-9));
    }

    #[test]
    fn invert_decreasing_basic() {
        // g(x) = 1 - x on [0, 1]; g(x) = 0.25 at x = 0.75.
        let x = invert_decreasing(|x| 1.0 - x, 0.25, 0.0, 1.0).unwrap();
        assert!(approx_eq(x, 0.75, 1e-9));
    }

    #[test]
    fn given_endpoint_values_change_no_iterate() {
        let f = |x: f64| x.exp() - 3.0;
        let (lo, hi) = (0.0, 2.0);
        let from = brent_from(f, lo, hi, f(lo), f(hi), 1e-13).unwrap();
        assert_eq!(from.to_bits(), brent(f, lo, hi, 1e-13).unwrap().to_bits());
        let g = |x: f64| (-0.3 * x).exp();
        for target in [2.0, 0.5, 0.01, -1.0] {
            let from = invert_decreasing_from(g, target, lo, 20.0, g(lo), g(20.0)).unwrap();
            let plain = invert_decreasing(g, target, lo, 20.0).unwrap();
            assert_eq!(from.to_bits(), plain.to_bits(), "target {target}");
        }
    }

    #[test]
    fn invert_decreasing_clamps() {
        assert_eq!(invert_decreasing(|x| 1.0 - x, 2.0, 0.0, 1.0).unwrap(), 0.0);
        assert_eq!(invert_decreasing(|x| 1.0 - x, -1.0, 0.0, 1.0).unwrap(), 1.0);
    }

    #[test]
    fn invert_decreasing_rejects_increasing() {
        assert!(invert_decreasing(|x| x, 0.5, 0.0, 1.0).is_err());
    }

    #[test]
    fn expand_bracket_right_exponential() {
        // Root of e^{-x} - 0.001 is ~6.9; start with a tiny interval.
        let f = |x: f64| (-x).exp() - 0.001;
        let (lo, hi) = expand_bracket_right(f, 0.0, 0.5, 1e9).unwrap();
        assert!(f(lo) > 0.0 && f(hi) < 0.0);
        let r = brent(f, lo, hi, 1e-12).unwrap();
        assert!(approx_eq(r, (1000.0_f64).ln(), 1e-8));
    }

    #[test]
    fn expand_bracket_right_fails_when_no_sign_change() {
        let f = |x: f64| x * x + 1.0;
        assert!(expand_bracket_right(f, 0.0, 1.0, 100.0).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Brent and bisection agree on random monotone cubics with a
            /// root in the interval.
            #[test]
            fn prop_brent_matches_bisect(root in -5.0f64..5.0, scale in 0.1f64..10.0) {
                let f = move |x: f64| scale * (x - root) * ((x - root).powi(2) + 1.0);
                let rb = brent(f, -10.0, 10.0, 1e-12).unwrap();
                let ri = bisect(f, -10.0, 10.0, 1e-12).unwrap();
                prop_assert!((rb - root).abs() < 1e-7, "brent {rb} vs root {root}");
                prop_assert!((ri - root).abs() < 1e-7, "bisect {ri} vs root {root}");
            }

            /// invert_decreasing round-trips random exponentials.
            #[test]
            fn prop_invert_round_trip(rate in 0.05f64..4.0, q in 0.01f64..0.99) {
                let g = move |x: f64| (-rate * x).exp();
                let hi = 200.0 / rate;
                let x = invert_decreasing(g, q, 0.0, hi).unwrap();
                prop_assert!((g(x) - q).abs() < 1e-6, "g({x}) = {} vs q = {q}", g(x));
            }

            /// Newton with the true derivative never leaves the bracket and
            /// lands on the root.
            #[test]
            fn prop_newton_safeguarded(root in 0.5f64..9.5) {
                let f = move |x: f64| x * x - root * root;
                let df = |x: f64| 2.0 * x;
                let r = newton_safeguarded(f, df, 5.0, 0.0, 10.0, 1e-12).unwrap();
                prop_assert!((r - root).abs() < 1e-6);
            }
        }
    }
}
