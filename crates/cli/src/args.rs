//! Minimal `--key value` argument parsing (no external dependency): the
//! one parser behind every `cyclesteal` subcommand.

use std::collections::BTreeMap;

/// Options that never take a value: a bare `--key` turns them on, and the
/// token after one is read on its own (`obs check --strict t.jsonl`).
pub const SWITCHES: &[&str] = &[
    "help",
    "metrics",
    "profile",
    "oracle",
    "quick",
    "all",
    "list",
    "journal-gc",
    "disk-faults",
    "fork",
    "strict",
    "bench",
];

/// Options that may be given more than once; any other is a duplicate.
const REPEATABLE: &[&str] = &["only", "min"];

/// Parsed command line: a subcommand, `--key value` options and
/// positional operands.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: Option<String>,
    /// Every occurrence of each option: `None` for a switch, or for an
    /// option that got no value, which [`Args::check_known`] rejects.
    opts: BTreeMap<String, Vec<Option<String>>>,
    operands: Vec<String>,
}

impl Args {
    /// Parses tokens of the form `<command> [--key value | --switch |
    /// operand] …`. An option outside [`SWITCHES`] takes the next token
    /// unless that token starts with `--`.
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut it = tokens.into_iter().peekable();
        out.command = it.next_if(|first| !first.starts_with("--"));
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                out.operands.push(tok);
                continue;
            };
            if key.is_empty() {
                return Err("empty option name".into());
            }
            if out.opts.contains_key(key) && !REPEATABLE.contains(&key) {
                return Err(format!("duplicate option: --{key}"));
            }
            let value = if SWITCHES.contains(&key) {
                None
            } else {
                it.next_if(|v| !v.starts_with("--"))
            };
            out.opts.entry(key.to_string()).or_default().push(value);
        }
        Ok(out)
    }

    /// Raw string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key)?.first()?.as_deref()
    }

    /// Every value of a repeatable option, in command-line order.
    pub fn all(&self, key: &str) -> impl Iterator<Item = &str> {
        self.opts
            .get(key)
            .into_iter()
            .flatten()
            .flatten()
            .map(String::as_str)
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Required float option.
    pub fn require_f64(&self, key: &str) -> Result<f64, String> {
        self.require(key)?;
        self.f64_or(key, f64::NAN)
    }

    /// Float option with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        self.parsed_or(key, default, "a number")
    }

    /// Integer option with a default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        self.parsed_or(key, default, "an integer")
    }

    /// u64 option with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        self.parsed_or(key, default, "an integer")
    }

    fn parsed_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        what: &str,
    ) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: expected {what}, got {v:?}")),
        }
    }

    /// True when `--key` was given.
    pub fn flag(&self, key: &str) -> bool {
        self.opts.contains_key(key)
    }

    /// Rejects any option not in `allowed`, suggesting the closest known
    /// option, then any option given without its value, then any operand.
    /// A typo like `--trails` must fail loudly instead of silently running
    /// with defaults.
    pub fn check_known(&self, allowed: &[&str]) -> Result<(), String> {
        self.check_options(allowed)?;
        match self.operands.first() {
            Some(op) => Err(format!("unexpected positional argument: {op}")),
            None => Ok(()),
        }
    }

    /// [`Args::check_known`] for a command that takes exactly `count`
    /// operands, which it returns; any other count fails with `usage`.
    pub fn check_known_operands(
        &self,
        allowed: &[&str],
        count: usize,
        usage: &str,
    ) -> Result<&[String], String> {
        self.check_options(allowed)?;
        if self.operands.len() == count {
            Ok(&self.operands)
        } else {
            Err(usage.to_string())
        }
    }

    /// The operands after the subcommand.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    fn check_options(&self, allowed: &[&str]) -> Result<(), String> {
        for key in self.opts.keys() {
            if allowed.iter().any(|a| a == key) {
                continue;
            }
            let suggestion = allowed
                .iter()
                .map(|a| (levenshtein(key, a), *a))
                .min()
                .filter(|&(d, a)| d <= 2.max(a.len() / 3))
                .map(|(_, a)| format!(" (did you mean --{a}?)"))
                .unwrap_or_default();
            return Err(format!("unknown option --{key}{suggestion}"));
        }
        for (key, values) in &self.opts {
            if !SWITCHES.contains(&key.as_str()) && values.contains(&None) {
                return Err(format!("--{key} needs a value"));
            }
        }
        Ok(())
    }
}

/// Edit distance for `check_known`'s did-you-mean suggestions.
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse("plan --family uniform --l 1000 --c 5").unwrap();
        assert_eq!(a.command.as_deref(), Some("plan"));
        assert_eq!(a.get("family"), Some("uniform"));
        assert_eq!(a.f64_or("l", 0.0).unwrap(), 1000.0);
        assert_eq!(a.f64_or("c", 0.0).unwrap(), 5.0);
        assert_eq!(a.f64_or("missing", 7.0).unwrap(), 7.0);
    }

    #[test]
    fn bare_flags() {
        let a = parse("simulate --metrics --trials 100").unwrap();
        assert!(a.flag("metrics"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.u64_or("trials", 0).unwrap(), 100);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("plan stray").unwrap().check_known(&[]).is_err());
        assert!(parse("plan --x 1 --x 2").is_err());
        assert!(parse("plan -- 1").is_err());
        let a = parse("plan --n abc").unwrap();
        assert!(a.usize_or("n", 1).is_err());
    }

    #[test]
    fn no_command() {
        let a = parse("--help").unwrap();
        assert!(a.command.is_none());
        assert!(a.flag("help"));
    }

    #[test]
    fn require_reports_missing() {
        let a = parse("fit").unwrap();
        assert!(a.require("input").unwrap_err().contains("--input"));
    }

    #[test]
    fn require_f64_parses_and_reports() {
        let a = parse("plan --c 2.5 --bad xyz").unwrap();
        assert_eq!(a.require_f64("c").unwrap(), 2.5);
        assert!(a.require_f64("bad").unwrap_err().contains("--bad"));
        assert!(a.require_f64("absent").unwrap_err().contains("--absent"));
    }

    #[test]
    fn unknown_option_is_rejected_with_suggestion() {
        // Regression: `--trails 50` used to run silently with defaults.
        let a = parse("simulate --trails 50").unwrap();
        let err = a.check_known(&["trials", "seed", "threads"]).unwrap_err();
        assert!(err.contains("unknown option --trails"), "{err}");
        assert!(err.contains("did you mean --trials?"), "{err}");
        // A misspelt switch is unknown and has no value; the unknown
        // option is reported first, with its suggestion.
        let a = parse("simulate --metric --trials 5").unwrap();
        let err = a.check_known(&["metrics", "trials"]).unwrap_err();
        assert!(err.contains("did you mean --metrics?"), "{err}");
    }

    #[test]
    fn unknown_option_without_close_match_has_no_suggestion() {
        let a = parse("simulate --zzzzzzzz 1").unwrap();
        let err = a.check_known(&["trials", "seed"]).unwrap_err();
        assert!(err.contains("unknown option --zzzzzzzz"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
    }

    #[test]
    fn known_options_pass_check() {
        let a = parse("simulate --trials 50 --seed 1").unwrap();
        assert!(a.check_known(&["trials", "seed", "threads"]).is_ok());
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("trails", "trials"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
    }
}
