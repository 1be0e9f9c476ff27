//! Typed life-function specifications.
//!
//! [`LifeSpec`] covers every life family the command line can construct.
//! Two surfaces feed it:
//!
//! * the compact string grammar `family:key=val,…` ([`LifeSpec::parse`],
//!   round-tripped by the [`Display`](std::fmt::Display) impl), used by scenario strings and
//!   the experiment harness, and
//! * `--key value` option lookups ([`LifeSpec::from_lookup`]), used by the
//!   `cyclesteal` CLI.
//!
//! Both run the same per-family table, so a surface cannot accept a
//! parameter the other rejects.

use cs_life::{
    ArcLife, GeometricDecreasing, GeometricIncreasing, Pareto, Polynomial, Uniform, Weibull,
};
use std::fmt;
use std::sync::Arc;

/// Options every life-function spec may carry (the CLI allowlist).
pub const LIFE_OPTS: &[&str] = &["family", "l", "d", "a", "half-life", "k", "lambda"];

/// A parsed life-function specification.
///
/// Grammar (compact form, one `family:key=val,…` token):
///
/// * `uniform:l=<lifespan>`
/// * `poly:d=<degree>,l=<lifespan>`
/// * `geometric:a=<risk factor>` (or `geometric:half-life=<h>`)
/// * `increasing:l=<lifespan>`
/// * `pareto:d=<exponent>`
/// * `weibull:k=<shape>,lambda=<scale>`
///
/// Family aliases accepted on parse: `polynomial` for `poly`, `geo` for
/// `geometric`, `coffee` for `increasing`. [`Display`](std::fmt::Display) always emits the
/// canonical form, and `parse(display(spec)) == spec` for every valid spec.
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

/// One parameter bag, from either surface, with CLI-grade duplicate and
/// unknown rejection.
struct Params<'a> {
    family: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
    /// The keys came from `--key value` options, so errors name them as
    /// flags.
    flags: bool,
}

impl<'a> Params<'a> {
    fn parse(family: &'a str, body: &'a str) -> Result<Self, String> {
        let mut pairs: Vec<(&'a str, &'a str)> = Vec::new();
        if !body.is_empty() {
            for item in body.split(',') {
                let Some((k, v)) = item.split_once('=') else {
                    return Err(format!("{family}: expected key=val, got {item:?}"));
                };
                if pairs.iter().any(|&(seen, _)| seen == k) {
                    return Err(format!("{family}: duplicate parameter {k:?}"));
                }
                pairs.push((k, v));
            }
        }
        Ok(Self {
            family,
            pairs,
            flags: false,
        })
    }

    /// An error about `key`: `--key: …` for a flag, `family: key: …` in
    /// the compact grammar.
    fn error(&self, key: &str, msg: &str) -> String {
        if self.flags {
            format!("--{key}: {msg}")
        } else {
            format!("{}: {key}: {msg}", self.family)
        }
    }

    fn take<T: std::str::FromStr>(&mut self, key: &str, what: &str) -> Result<Option<T>, String> {
        let Some(at) = self.pairs.iter().position(|&(k, _)| k == key) else {
            return Ok(None);
        };
        let v = self.pairs.remove(at).1;
        v.parse()
            .map(Some)
            .map_err(|_| self.error(key, &format!("expected {what}, got {v:?}")))
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
            Some(&(k, _)) => Err(self.error(k, &format!("unused by family {}", self.family))),
        }
    }
}

impl LifeSpec {
    /// Parses the compact `family:key=val,…` form.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (family, body) = match s.split_once(':') {
            Some((f, b)) => (f, b),
            None => (s, ""),
        };
        Self::from_params(Params::parse(family, body)?)
    }

    /// Builds a life-function spec from `--key value` option lookups (the
    /// CLI surface) over the [`LIFE_OPTS`] keys, with the grammar of
    /// [`LifeSpec::parse`]. The family defaults to `uniform`, `d` to 2, `a`
    /// to 2, `k` to 1.5, and lifespans/scales to NaN so the family
    /// constructor rejects their absence in [`LifeSpec::build`]. A flag
    /// the family does not take is an error.
    pub fn from_lookup<'a, F>(get: F) -> Result<Self, String>
    where
        F: Fn(&str) -> Option<&'a str>,
    {
        let pairs = LIFE_OPTS
            .iter()
            .filter(|&&k| k != "family")
            .filter_map(|&k| get(k).map(|v| (k, v)))
            .collect();
        Self::from_params(Params {
            family: get("family").unwrap_or("uniform"),
            pairs,
            flags: true,
        })
    }

    /// The per-family parameter table both surfaces share.
    fn from_params(mut p: Params<'_>) -> Result<Self, String> {
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

    /// The canonical family name (the one [`Display`](std::fmt::Display) emits).
    pub fn family(&self) -> &'static str {
        match self {
            LifeSpec::Uniform { .. } => "uniform",
            LifeSpec::Poly { .. } => "poly",
            LifeSpec::Geometric { .. } => "geometric",
            LifeSpec::Increasing { .. } => "increasing",
            LifeSpec::Pareto { .. } => "pareto",
            LifeSpec::Weibull { .. } => "weibull",
        }
    }
}

impl fmt::Display for LifeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LifeSpec::Uniform { l } => write!(f, "uniform:l={l}"),
            LifeSpec::Poly { d, l } => write!(f, "poly:d={d},l={l}"),
            LifeSpec::Geometric { a } => write!(f, "geometric:a={a}"),
            LifeSpec::Increasing { l } => write!(f, "increasing:l={l}"),
            LifeSpec::Pareto { d } => write!(f, "pareto:d={d}"),
            LifeSpec::Weibull { k, lambda } => write!(f, "weibull:k={k},lambda={lambda}"),
        }
    }
}

impl std::str::FromStr for LifeSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_life::LifeFunction;

    #[test]
    fn parses_all_families_compact() {
        for (s, spec) in [
            ("uniform:l=100", LifeSpec::Uniform { l: 100.0 }),
            ("poly:d=3,l=100", LifeSpec::Poly { d: 3, l: 100.0 }),
            ("geometric:a=2", LifeSpec::Geometric { a: 2.0 }),
            ("increasing:l=64", LifeSpec::Increasing { l: 64.0 }),
            ("pareto:d=2", LifeSpec::Pareto { d: 2.0 }),
            (
                "weibull:k=1.5,lambda=10",
                LifeSpec::Weibull {
                    k: 1.5,
                    lambda: 10.0,
                },
            ),
        ] {
            assert_eq!(LifeSpec::parse(s).unwrap(), spec, "{s}");
            assert_eq!(spec.to_string(), s, "{s}");
            spec.build().unwrap();
        }
    }

    #[test]
    fn parse_accepts_aliases_and_half_life() {
        assert_eq!(
            LifeSpec::parse("polynomial:d=2,l=10").unwrap(),
            LifeSpec::Poly { d: 2, l: 10.0 }
        );
        assert_eq!(
            LifeSpec::parse("coffee:l=16").unwrap(),
            LifeSpec::Increasing { l: 16.0 }
        );
        let g = LifeSpec::parse("geo:half-life=8").unwrap();
        let life = g.build().unwrap();
        assert!((life.survival(8.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "martian",
            "uniform:l=abc",
            "poly:d=1.5,l=10",
            "poly:q=3",
            "uniform:l=1,l=2",
            "uniform:l",
            "geometric:half-life=-1",
        ] {
            assert!(LifeSpec::parse(bad).is_err(), "{bad}");
        }
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
