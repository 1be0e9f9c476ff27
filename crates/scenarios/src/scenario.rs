//! Named scenarios and the canonical registry.

use crate::life::LifeSpec;
use cs_life::ArcLife;

/// A named scenario specification: life function + communication overhead.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Short identifier for tables.
    pub name: String,
    /// The life function.
    pub life: LifeSpec,
    /// The communication overhead.
    pub c: f64,
}

/// A realized scenario: the life function is instantiated and ready to use.
pub struct Scenario {
    /// Short identifier for tables.
    pub name: String,
    /// The life function.
    pub life: ArcLife,
    /// The communication overhead.
    pub c: f64,
}

impl ScenarioSpec {
    /// Instantiates the life function, yielding a runnable [`Scenario`].
    pub fn realize(&self) -> Result<Scenario, String> {
        Ok(Scenario {
            name: self.name.clone(),
            life: self
                .life
                .build()
                .map_err(|e| format!("{}: {e}", self.name))?,
            c: self.c,
        })
    }
}

/// The canonical named scenarios used across DESIGN §5.
pub mod registry {
    use super::{LifeSpec, Scenario, ScenarioSpec};

    /// The canonical trio of \[3\] scenarios (plus a concave polynomial),
    /// at representative parameters — used by the §5/§6 experiments.
    pub fn canonical() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec {
                name: "uniform(L=1000)".into(),
                life: LifeSpec::Uniform { l: 1000.0 },
                c: 5.0,
            },
            ScenarioSpec {
                name: "poly(d=3,L=1000)".into(),
                life: LifeSpec::Poly { d: 3, l: 1000.0 },
                c: 5.0,
            },
            ScenarioSpec {
                name: "geo-dec(a=2)".into(),
                life: LifeSpec::Geometric { a: 2.0 },
                c: 1.0,
            },
            ScenarioSpec {
                name: "geo-inc(L=64)".into(),
                life: LifeSpec::Increasing { l: 64.0 },
                c: 1.0,
            },
        ]
    }

    /// The canonical scenarios, realized. Every spec in the registry is
    /// valid by construction, so this cannot fail.
    pub fn canonical_scenarios() -> Vec<Scenario> {
        canonical()
            .iter()
            .map(|s| s.realize().expect("canonical scenario"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_scenarios_are_valid() {
        let scenarios = registry::canonical_scenarios();
        assert_eq!(scenarios.len(), 4);
        for s in &scenarios {
            assert_eq!(s.life.survival(0.0), 1.0);
            assert!(s.c > 0.0);
            cs_life::validate::check(s.life.as_ref()).unwrap();
        }
    }

    #[test]
    fn realize_reports_named_failure() {
        let spec = ScenarioSpec {
            name: "broken".into(),
            life: LifeSpec::Uniform { l: -1.0 },
            c: 1.0,
        };
        let err = spec.realize().map(|s| s.name).unwrap_err();
        assert!(err.starts_with("broken: uniform:"), "{err}");
    }
}
