//! Typed chunk-policy specifications.
//!
//! [`PolicySpec`] is the single source of truth for which chunk-sizing
//! policies exist, how they are named on the command line (`guideline`,
//! `greedy`, `fixed:<t>`), how they are labelled in reports
//! ([`PolicySpec::label`]), and how they are instantiated against a
//! believed life function ([`PolicySpec::build`]).

use cs_life::{ArcLife, LifeFunction};
use cs_sim::policy::{ChunkPolicy, FixedSizePolicy, GreedyPolicy, GuidelineCache, GuidelinePolicy};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Which chunk-sizing policy a workstation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// The paper's guideline scheduler (progressive, conditional).
    Guideline,
    /// Myopic greedy (§6).
    Greedy,
    /// Constant period length.
    FixedSize(f64),
}

/// Why a policy string failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyParseError {
    /// Not one of the known policy names.
    Unknown(String),
    /// `fixed:<t>` / `fixed(<t>)` with an unparsable period.
    BadNumber(String),
}

impl fmt::Display for PolicyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyParseError::Unknown(s) => {
                write!(f, "expected guideline | greedy | fixed:<t>, got {s:?}")
            }
            PolicyParseError::BadNumber(t) => write!(f, "fixed: bad number {t:?}"),
        }
    }
}

impl std::error::Error for PolicyParseError {}

impl PolicySpec {
    /// Parses a policy string: `guideline`, `greedy`, `fixed:<t>` (the CLI
    /// form) or `fixed(<t>)` (the report-label form).
    pub fn parse(s: &str) -> Result<Self, PolicyParseError> {
        match s {
            "guideline" => Ok(PolicySpec::Guideline),
            "greedy" => Ok(PolicySpec::Greedy),
            other => {
                let t = other
                    .strip_prefix("fixed:")
                    .or_else(|| {
                        other
                            .strip_prefix("fixed(")
                            .and_then(|rest| rest.strip_suffix(')'))
                    })
                    .ok_or_else(|| PolicyParseError::Unknown(other.to_string()))?;
                let period: f64 = t
                    .parse()
                    .map_err(|_| PolicyParseError::BadNumber(t.to_string()))?;
                Ok(PolicySpec::FixedSize(period))
            }
        }
    }

    /// Label for reports. This is the one string every layer prints for a
    /// policy; [`ChunkPolicy::name`] of the built policy matches it.
    pub fn label(&self) -> String {
        match *self {
            PolicySpec::Guideline => "guideline".into(),
            PolicySpec::Greedy => "greedy".into(),
            PolicySpec::FixedSize(t) => format!("fixed({t})"),
        }
    }

    /// Instantiates the policy against a believed life function and
    /// overhead `c`. A fixed-size policy caps its period at the believed
    /// horizon, like the farm always has.
    pub fn build(&self, life: ArcLife, c: f64) -> Box<dyn ChunkPolicy> {
        match *self {
            PolicySpec::Guideline => Box::new(GuidelinePolicy::new(life, c)),
            PolicySpec::Greedy => Box::new(GreedyPolicy::new(life, c)),
            PolicySpec::FixedSize(t) => {
                let horizon = life.horizon(1e-9);
                Box::new(FixedSizePolicy::new(t, horizon))
            }
        }
    }

    /// Like [`PolicySpec::build`], but guideline policies built from the
    /// same `(life, c)` through the same [`PolicyCaches`] share one
    /// [`GuidelineCache`], so a farm of workstations with a common believed
    /// life function pays each distinct elapsed-time search once per run
    /// instead of once per dispatch. The cache stores exact search results,
    /// so built policies behave bit-identically to [`PolicySpec::build`]'s.
    pub fn build_shared(
        &self,
        life: ArcLife,
        c: f64,
        caches: &mut PolicyCaches,
    ) -> Box<dyn ChunkPolicy> {
        match *self {
            PolicySpec::Guideline => {
                let cache = caches.guideline(&life, c);
                Box::new(GuidelinePolicy::with_cache(life, c, cache))
            }
            _ => self.build(life, c),
        }
    }
}

/// Per-run registry of shared [`GuidelineCache`]s, keyed so a cache is only
/// ever shared between policies whose searches are interchangeable: same
/// believed life function (by `Arc` identity — the farm clones one `Arc`
/// across its workstations) and same overhead `c` (by bit pattern).
#[derive(Default)]
pub struct PolicyCaches {
    guideline: HashMap<(usize, u64), Arc<GuidelineCache>>,
}

impl PolicyCaches {
    /// An empty registry; scope one to a single run.
    pub fn new() -> Self {
        Self::default()
    }

    fn guideline(&mut self, life: &ArcLife, c: f64) -> Arc<GuidelineCache> {
        let key = (Arc::as_ptr(life) as *const () as usize, c.to_bits());
        self.guideline
            .entry(key)
            .or_insert_with(|| Arc::new(GuidelineCache::new()))
            .clone()
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PolicySpec::Guideline => f.write_str("guideline"),
            PolicySpec::Greedy => f.write_str("greedy"),
            PolicySpec::FixedSize(t) => write!(f, "fixed:{t}"),
        }
    }
}

impl std::str::FromStr for PolicySpec {
    type Err = PolicyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_life::Uniform;
    use std::sync::Arc;

    #[test]
    fn parses_and_displays() {
        assert_eq!(PolicySpec::parse("guideline"), Ok(PolicySpec::Guideline));
        assert_eq!(PolicySpec::parse("greedy"), Ok(PolicySpec::Greedy));
        assert_eq!(
            PolicySpec::parse("fixed:12.5"),
            Ok(PolicySpec::FixedSize(12.5))
        );
        assert_eq!(
            PolicySpec::parse("fixed(12.5)"),
            Ok(PolicySpec::FixedSize(12.5))
        );
        assert_eq!(PolicySpec::FixedSize(12.5).to_string(), "fixed:12.5");
        assert_eq!(
            PolicySpec::parse("banana"),
            Err(PolicyParseError::Unknown("banana".into()))
        );
        assert_eq!(
            PolicySpec::parse("fixed:x"),
            Err(PolicyParseError::BadNumber("x".into()))
        );
    }

    #[test]
    fn label_matches_built_policy_name() {
        // The name-drift guard: the spec label and the ChunkPolicy name the
        // farm and experiments print must be the same string.
        let life: ArcLife = Arc::new(Uniform::new(1000.0).unwrap());
        for spec in [
            PolicySpec::Guideline,
            PolicySpec::Greedy,
            PolicySpec::FixedSize(15.0),
            PolicySpec::FixedSize(12.5),
        ] {
            assert_eq!(spec.label(), spec.build(life.clone(), 5.0).name());
        }
    }

    #[test]
    fn build_shared_is_bit_identical_to_build() {
        let life: ArcLife = Arc::new(Uniform::new(1000.0).unwrap());
        let mut caches = PolicyCaches::new();
        for spec in [
            PolicySpec::Guideline,
            PolicySpec::Greedy,
            PolicySpec::FixedSize(15.0),
        ] {
            let mut plain = spec.build(life.clone(), 5.0);
            // Two shared builds against the same registry: the second
            // exercises the cache-hit path populated by the first.
            let mut shared_a = spec.build_shared(life.clone(), 5.0, &mut caches);
            let mut shared_b = spec.build_shared(life.clone(), 5.0, &mut caches);
            for elapsed in [0.0, 250.0, 999.0, 1000.0] {
                let want = plain.next_period(elapsed);
                assert_eq!(shared_a.next_period(elapsed), want, "{spec} @ {elapsed}");
                assert_eq!(shared_b.next_period(elapsed), want, "{spec} @ {elapsed}");
            }
            assert_eq!(shared_a.name(), spec.label());
        }
    }

    #[test]
    fn label_round_trips_through_parse() {
        for spec in [
            PolicySpec::Guideline,
            PolicySpec::Greedy,
            PolicySpec::FixedSize(15.0),
        ] {
            assert_eq!(PolicySpec::parse(&spec.label()), Ok(spec));
            assert_eq!(PolicySpec::parse(&spec.to_string()), Ok(spec));
        }
    }
}
