//! Typed life-function specifications.
//!
//! [`LifeSpec`] covers every life family the command line can construct,
//! read from `--key value` option lookups by [`LifeSpec::from_lookup`]
//! through one per-family table, so a family cannot silently ignore a
//! parameter meant for another.

use cs_life::{
    ArcLife, GeometricDecreasing, GeometricIncreasing, Pareto, Polynomial, Uniform, Weibull,
};
use std::sync::Arc;

/// Options every life-function spec may carry (the CLI allowlist).
pub const LIFE_OPTS: &[&str] = &["family", "l", "d", "a", "half-life", "k", "lambda"];

/// A life-function specification, one variant per family the CLI
/// builds: `--family uniform|poly|geometric|increasing|pareto|weibull`
/// with the parameters [`LifeSpec::from_lookup`] documents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LifeSpec {
    /// Uniform lifespan on `[0, l]`.
    Uniform {
        /// Lifespan `L`.
        l: f64,
    },
    /// Polynomial survival of degree `d` on `[0, l]`.
    Poly {
        /// Degree `d`.
        d: u32,
        /// Lifespan `L`.
        l: f64,
    },
    /// Geometric-decreasing lifespan `p_a(t) = a^{-t}`.
    Geometric {
        /// Risk factor `a > 1`.
        a: f64,
    },
    /// Geometric-increasing risk ("coffee break") with lifespan `l`.
    Increasing {
        /// Lifespan `L`.
        l: f64,
    },
    /// Pareto (heavy-tailed) survival with exponent `d`.
    Pareto {
        /// Tail exponent `d`.
        d: f64,
    },
    /// Weibull survival with shape `k` and scale `lambda`.
    Weibull {
        /// Shape `k`.
        k: f64,
        /// Scale `λ`.
        lambda: f64,
    },
}

/// The `--key value` parameters one family has not consumed yet.
struct Params<'a> {
    family: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl Params<'_> {
    fn take<T: std::str::FromStr>(&mut self, key: &str, what: &str) -> Result<Option<T>, String> {
        let Some(at) = self.pairs.iter().position(|&(k, _)| k == key) else {
            return Ok(None);
        };
        let v = self.pairs.remove(at).1;
        v.parse()
            .map(Some)
            .map_err(|_| format!("--{key}: expected {what}, got {v:?}"))
    }

    fn take_f64(&mut self, key: &str, default: f64) -> Result<f64, String> {
        Ok(self.take(key, "a number")?.unwrap_or(default))
    }

    fn take_u32(&mut self, key: &str, default: u32) -> Result<u32, String> {
        Ok(self.take(key, "an integer")?.unwrap_or(default))
    }

    fn finish(self) -> Result<(), String> {
        match self.pairs.first() {
            None => Ok(()),
            Some(&(k, _)) => Err(format!("--{k}: unused by family {}", self.family)),
        }
    }
}

impl LifeSpec {
    /// Builds a life-function spec from `--key value` option lookups over
    /// the [`LIFE_OPTS`] keys. The family defaults to `uniform`, `d` to 2,
    /// `a` to 2, `k` to 1.5, and lifespans/scales to NaN so the family
    /// constructor rejects their absence in [`LifeSpec::build`]. Aliases:
    /// `polynomial` for `poly`, `geo` for `geometric`, `coffee` for
    /// `increasing`; `geometric` also takes `--half-life` instead of `--a`.
    /// A flag the family does not take is an error.
    pub fn from_lookup<'a, F>(get: F) -> Result<Self, String>
    where
        F: Fn(&str) -> Option<&'a str>,
    {
        let mut p = Params {
            family: get("family").unwrap_or("uniform"),
            pairs: LIFE_OPTS
                .iter()
                .filter(|&&k| k != "family")
                .filter_map(|&k| get(k).map(|v| (k, v)))
                .collect(),
        };
        let spec = match p.family {
            "uniform" => LifeSpec::Uniform {
                l: p.take_f64("l", f64::NAN)?,
            },
            "poly" | "polynomial" => LifeSpec::Poly {
                d: p.take_u32("d", 2)?,
                l: p.take_f64("l", f64::NAN)?,
            },
            "geometric" | "geo" => match p.take("half-life", "a number")? {
                Some(h) => {
                    let g = GeometricDecreasing::from_half_life(h)
                        .map_err(|e| format!("geometric: {e}"))?;
                    LifeSpec::Geometric { a: g.a() }
                }
                None => LifeSpec::Geometric {
                    a: p.take_f64("a", 2.0)?,
                },
            },
            "increasing" | "coffee" => LifeSpec::Increasing {
                l: p.take_f64("l", f64::NAN)?,
            },
            "pareto" => LifeSpec::Pareto {
                d: p.take_f64("d", 2.0)?,
            },
            "weibull" => LifeSpec::Weibull {
                k: p.take_f64("k", 1.5)?,
                lambda: p.take_f64("lambda", f64::NAN)?,
            },
            other => {
                return Err(format!(
                    "unknown family {other:?}; expected uniform | poly | geometric | increasing | pareto | weibull"
                ))
            }
        };
        p.finish()?;
        Ok(spec)
    }

    /// Instantiates the life function, validating parameters. Error
    /// messages carry the family prefix the CLI has always printed
    /// (e.g. `"uniform: …"`).
    pub fn build(&self) -> Result<ArcLife, String> {
        Ok(match *self {
            LifeSpec::Uniform { l } => {
                Arc::new(Uniform::new(l).map_err(|e| format!("uniform: {e}"))?)
            }
            LifeSpec::Poly { d, l } => {
                Arc::new(Polynomial::new(d, l).map_err(|e| format!("poly: {e}"))?)
            }
            LifeSpec::Geometric { a } => {
                Arc::new(GeometricDecreasing::new(a).map_err(|e| format!("geometric: {e}"))?)
            }
            LifeSpec::Increasing { l } => {
                Arc::new(GeometricIncreasing::new(l).map_err(|e| format!("increasing: {e}"))?)
            }
            LifeSpec::Pareto { d } => Arc::new(Pareto::new(d).map_err(|e| format!("pareto: {e}"))?),
            LifeSpec::Weibull { k, lambda } => {
                Arc::new(Weibull::new(k, lambda).map_err(|e| format!("weibull: {e}"))?)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_life::LifeFunction;

    /// A lookup over fixed `(key, value)` pairs, as the CLI's `Args`
    /// would answer it.
    fn lookup(pairs: &[(&'static str, &'static str)]) -> Result<LifeSpec, String> {
        LifeSpec::from_lookup(|k| pairs.iter().find(|&&(key, _)| key == k).map(|&(_, v)| v))
    }

    #[test]
    fn parses_all_families_compact() {
        for (pairs, spec) in [
            (
                &[("family", "uniform"), ("l", "100")][..],
                LifeSpec::Uniform { l: 100.0 },
            ),
            (
                &[("family", "poly"), ("d", "3"), ("l", "100")],
                LifeSpec::Poly { d: 3, l: 100.0 },
            ),
            (
                &[("family", "geometric"), ("a", "2")],
                LifeSpec::Geometric { a: 2.0 },
            ),
            (
                &[("family", "increasing"), ("l", "64")],
                LifeSpec::Increasing { l: 64.0 },
            ),
            (
                &[("family", "pareto"), ("d", "2")],
                LifeSpec::Pareto { d: 2.0 },
            ),
            (
                &[("family", "weibull"), ("k", "1.5"), ("lambda", "10")],
                LifeSpec::Weibull {
                    k: 1.5,
                    lambda: 10.0,
                },
            ),
        ] {
            assert_eq!(lookup(pairs).unwrap(), spec, "{pairs:?}");
            spec.build().unwrap();
        }
    }

    #[test]
    fn parse_accepts_aliases_and_half_life() {
        assert_eq!(
            lookup(&[("family", "polynomial"), ("d", "2"), ("l", "10")]).unwrap(),
            LifeSpec::Poly { d: 2, l: 10.0 }
        );
        assert_eq!(
            lookup(&[("family", "coffee"), ("l", "16")]).unwrap(),
            LifeSpec::Increasing { l: 16.0 }
        );
        let geo = lookup(&[("family", "geo"), ("half-life", "8")]).unwrap();
        assert!((geo.build().unwrap().survival(8.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            &[("family", "martian")][..],
            &[("l", "abc")],
            &[("family", "poly"), ("d", "1.5"), ("l", "10")],
            &[("family", "poly"), ("a", "3")],
            &[("family", "geometric"), ("half-life", "-1")],
        ] {
            assert!(lookup(bad).is_err(), "{bad:?}");
        }
        // A missing lambda defaults to NaN, which the constructor rejects.
        let weibull = lookup(&[("family", "weibull"), ("k", "1.5")]).unwrap();
        assert!(weibull.build().is_err());
    }

    #[test]
    fn lookup_matches_cli_defaults_and_errors() {
        let get = |pairs: &'static [(&'static str, &'static str)]| {
            move |k: &str| pairs.iter().find(|&&(key, _)| key == k).map(|&(_, v)| v)
        };
        // Default family is uniform; missing --l is deferred to build().
        let spec = LifeSpec::from_lookup(get(&[("l", "50")])).unwrap();
        assert_eq!(spec, LifeSpec::Uniform { l: 50.0 });
        let err = LifeSpec::from_lookup(get(&[("l", "abc")])).unwrap_err();
        assert_eq!(err, "--l: expected a number, got \"abc\"");
        let err = LifeSpec::from_lookup(get(&[("family", "poly"), ("d", "x")])).unwrap_err();
        assert_eq!(err, "--d: expected an integer, got \"x\"");
        let err =
            LifeSpec::from_lookup(get(&[("family", "geometric"), ("half-life", "x")])).unwrap_err();
        assert_eq!(err, "--half-life: expected a number, got \"x\"");
        // An out-of-range integer is rejected, not truncated to d = 2.
        let err =
            LifeSpec::from_lookup(get(&[("family", "poly"), ("d", "4294967298")])).unwrap_err();
        assert_eq!(err, "--d: expected an integer, got \"4294967298\"");
        // A flag meant for another family is rejected, not ignored.
        let err = LifeSpec::from_lookup(get(&[("family", "pareto"), ("a", "0")])).unwrap_err();
        assert_eq!(err, "--a: unused by family pareto");
        let err = LifeSpec::from_lookup(get(&[
            ("family", "geometric"),
            ("half-life", "10"),
            ("a", "5"),
        ]))
        .unwrap_err();
        assert_eq!(err, "--a: unused by family geometric");
        let err = LifeSpec::from_lookup(get(&[("family", "martian")])).unwrap_err();
        assert!(err.starts_with("unknown family \"martian\""), "{err}");
        // Missing lifespan surfaces the family-prefixed constructor error.
        let err = LifeSpec::from_lookup(get(&[]))
            .unwrap()
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(err.starts_with("uniform: "), "{err}");
    }

    #[test]
    fn half_life_lookup_round_trips() {
        let get = |k: &str| match k {
            "family" => Some("geometric"),
            "half-life" => Some("8"),
            _ => None,
        };
        let life = LifeSpec::from_lookup(get).unwrap().build().unwrap();
        assert!((life.survival(8.0) - 0.5).abs() < 1e-12);
    }
}
