//! Machine-readable run summaries for the `exp_*` experiment binaries.
//!
//! Each experiment prints a human table; a [`RunSummary`] adds one
//! greppable JSON line (`RUN-SUMMARY {...}`) so downstream tooling can
//! scrape headline numbers without parsing the tables. Fields keep
//! insertion order; values are scalars only.

use crate::event::push_json_f64;

/// Builder for one experiment's summary line.
#[derive(Debug, Clone)]
pub struct RunSummary {
    name: String,
    /// `(key, value already rendered as JSON)`, in insertion order.
    fields: Vec<(String, String)>,
}

impl RunSummary {
    /// Starts a summary for the named experiment.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            fields: Vec::new(),
        }
    }

    /// Adds a numeric field (NaN/∞ serialize as `null`).
    pub fn num(mut self, key: &str, v: f64) -> Self {
        let mut value = String::new();
        push_json_f64(&mut value, v);
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds an integer field.
    pub fn int(self, key: &str, v: u64) -> Self {
        self.num(key, v as f64)
    }

    /// Adds a string field (quotes and backslashes escaped).
    pub fn text(mut self, key: &str, v: &str) -> Self {
        let mut value = String::from("\"");
        escape_into(&mut value, v);
        value.push('"');
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds a boolean field.
    pub fn flag(mut self, key: &str, v: bool) -> Self {
        self.fields.push((key.to_string(), v.to_string()));
        self
    }

    /// Serializes to one JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("{\"summary\":\"");
        escape_into(&mut s, &self.name);
        write!(s, "\",\"v\":{}", crate::event::SCHEMA_VERSION).expect("write to String");
        for (k, v) in &self.fields {
            s.push_str(",\"");
            escape_into(&mut s, k);
            s.push_str("\":");
            s.push_str(v);
        }
        s.push('}');
        s
    }

    /// Prints the `RUN-SUMMARY {...}` line to stdout.
    pub fn emit(&self) {
        println!("RUN-SUMMARY {}", self.to_json());
    }

    /// Writes the `RUN-SUMMARY {...}` line to the given writer (the
    /// experiment-harness equivalent of [`RunSummary::emit`]).
    pub fn emit_to(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        writeln!(out, "RUN-SUMMARY {}", self.to_json())
    }
}

fn escape_into(out: &mut String, s: &str) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn summary_round_trips_through_the_parser() {
        let json = RunSummary::new("exp_now_farm")
            .text("policy", "guideline")
            .num("makespan", 123.5)
            .int("replications", 12)
            .flag("drained", true)
            .num("ci", f64::NAN)
            .to_json();
        let m = parse_json(&json).unwrap();
        let m = m.as_obj().unwrap();
        assert_eq!(m["summary"].as_str(), Some("exp_now_farm"));
        assert_eq!(m["policy"].as_str(), Some("guideline"));
        assert_eq!(m["makespan"].as_f64(), Some(123.5));
        assert_eq!(m["replications"].as_f64(), Some(12.0));
        assert_eq!(m["drained"], crate::json::Json::Bool(true));
        assert!(m["ci"].as_f64().unwrap().is_nan());
    }

    #[test]
    fn strings_are_escaped() {
        let json = RunSummary::new("x").text("s", "a\"b\\c").to_json();
        let m = parse_json(&json).unwrap();
        assert_eq!(m.get("s").unwrap().as_str(), Some("a\"b\\c"));
    }
}
