//! Decoding JSONL lines against the event schema.
//!
//! [`Event::from_jsonl`] is the inverse of [`Event::to_jsonl`] and the one
//! reader every trace consumer goes through (`obs check`, `obs report`,
//! `obs path`, the journal reader behind resume, `exp_obs_validate`). It
//! decodes a line straight into the producer's [`EventKind`] in one pass
//! and enforces the consumer-side contract: the line parses as one flat
//! object, carries a supported schema version
//! ([`MIN_SCHEMA_VERSION`]..=[`SCHEMA_VERSION`] — v1 traces without span
//! events still decode), names a type in [`ALL_KINDS`] introduced no later
//! than the line's declared version, and provides that type's fields with
//! the right scalar kinds. Fields may come in any order, unknown keys are
//! ignored, duplicate keys and trailing garbage are errors.
//!
//! Integer fields must be plain decimal digits and cover the whole `u64`
//! range; float fields read `null` as NaN and otherwise parse with
//! `str::parse::<f64>`, so they round-trip bit for bit. A span name is the
//! raw text between its quotes: producers only write names that need no
//! escaping, so for every emitted line this is the name itself.

use crate::event::{Event, EventKind, ALL_KINDS, MIN_SCHEMA_VERSION, SCHEMA_VERSION};
use crate::json::{parse_f64, unescape, Cursor, Scalar};

/// One line's members as `(raw key, value)`, in line order.
struct Fields<'a>(Vec<(&'a str, Scalar<'a>)>);

impl<'a> Fields<'a> {
    fn insert(&mut self, key: &'a str, value: Scalar<'a>) -> Result<(), String> {
        // Keys are compared as JSON strings: escapes count by what they
        // stand for (no schema field needs one).
        let same = |k: &str| {
            k == key || ((k.contains('\\') || key.contains('\\')) && unescape(k) == unescape(key))
        };
        if self.0.iter().any(|(k, _)| same(k)) {
            return Err(format!("duplicate key {:?}", unescape(key)));
        }
        self.0.push((key, value));
        Ok(())
    }

    fn get(&self, name: &str) -> Option<Scalar<'a>> {
        self.0.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
    }

    /// Builds the event, checking fields in the order the rules list them.
    fn decode(&self) -> Result<Event<'a>, String> {
        let version = self
            .get("v")
            .and_then(as_u64)
            .ok_or("missing schema version \"v\"")?;
        if version < u64::from(MIN_SCHEMA_VERSION) || version > u64::from(SCHEMA_VERSION) {
            return Err(format!(
                "schema version {version} (this validator understands \
                 {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
            ));
        }
        let Some(Scalar::Str(kind)) = self.get("type") else {
            return Err("missing event \"type\"".into());
        };
        if !ALL_KINDS.contains(&kind) {
            return Err(format!("unknown event type {:?}", unescape(kind)));
        }
        // The span kinds arrived in v2; a line may not carry a kind newer
        // than the version it declares.
        if kind.starts_with("span_") && version < 2 {
            return Err(format!(
                "event type {kind:?} needs schema version 2 but the line declares v{version}"
            ));
        }
        let time = self
            .get("t")
            .ok_or_else(|| format!("{kind}: missing timestamp \"t\""))?;
        let time = as_f64(time).ok_or("timestamp \"t\" not a number")?;
        let field = |name: &str| {
            self.get(name)
                .ok_or_else(|| format!("{kind}: missing field {name:?}"))
        };
        let int = |name: &str| {
            as_u64(field(name)?).ok_or_else(|| format!("{kind}: field {name:?} not an integer"))
        };
        let num = |name: &str| {
            as_f64(field(name)?).ok_or_else(|| format!("{kind}: field {name:?} not a number"))
        };
        let checked_name = |id: u64| {
            let Some(Scalar::Str(name)) = self.get("name") else {
                return Err(format!("{kind}: missing string \"name\""));
            };
            if name.is_empty() {
                return Err(format!("{kind}: empty span name"));
            }
            if id == 0 {
                return Err(format!("{kind}: span id must be non-zero"));
            }
            Ok(name)
        };
        let kind = match kind {
            "run_start" => EventKind::RunStart {
                seed: int("seed")?,
                workstations: int("workstations")?,
                tasks: int("tasks")?,
            },
            "episode_start" => EventKind::EpisodeStart { ws: int("ws")? },
            "period_start" => EventKind::PeriodStart {
                ws: int("ws")?,
                len: num("len")?,
            },
            "period_commit" => EventKind::PeriodCommit {
                ws: int("ws")?,
                work: num("work")?,
            },
            "period_interrupt" => EventKind::PeriodInterrupt {
                ws: int("ws")?,
                lost: num("lost")?,
            },
            "dispatch" => EventKind::Dispatch {
                ws: int("ws")?,
                tasks: int("tasks")?,
                work: num("work")?,
            },
            "bank" => EventKind::Bank {
                ws: int("ws")?,
                work: num("work")?,
                duplicate: num("duplicate")?,
            },
            "lease_timeout" => EventKind::LeaseTimeout {
                ws: int("ws")?,
                lease: int("lease")?,
            },
            "requeue" => EventKind::Requeue {
                ws: int("ws")?,
                tasks: int("tasks")?,
            },
            "backoff" => EventKind::Backoff {
                ws: int("ws")?,
                delay: num("delay")?,
            },
            "quarantine" => EventKind::Quarantine {
                ws: int("ws")?,
                until: num("until")?,
            },
            "storm_kill" => EventKind::StormKill { ws: int("ws")? },
            "crash" => EventKind::Crash { ws: int("ws")? },
            "message_lost" => EventKind::MessageLost { ws: int("ws")? },
            "straggle" => EventKind::Straggle { ws: int("ws")? },
            "replica" => EventKind::Replica {
                ws: int("ws")?,
                tasks: int("tasks")?,
            },
            "mc_progress" => EventKind::McProgress {
                done: int("done")?,
                total: int("total")?,
            },
            "run_end" => EventKind::RunEnd {
                banked: num("banked")?,
                lost: num("lost")?,
                drained: match self.get("drained") {
                    Some(Scalar::Bool(b)) => b,
                    _ => return Err("run_end: missing boolean \"drained\"".into()),
                },
            },
            "span_start" => {
                let (id, parent) = (int("id")?, int("parent")?);
                EventKind::SpanStart {
                    id,
                    parent,
                    name: checked_name(id)?,
                }
            }
            "span_end" => {
                let (id, parent, dur_ns) = (int("id")?, int("parent")?, num("dur_ns")?);
                EventKind::SpanEnd {
                    id,
                    parent,
                    name: checked_name(id)?,
                    dur_ns,
                }
            }
            other => unreachable!("{other:?} is in ALL_KINDS but has no decoder"),
        };
        Ok(Event { time, kind })
    }
}

/// An integer field: plain decimal digits within `u64`.
fn as_u64(v: Scalar<'_>) -> Option<u64> {
    match v {
        Scalar::Digits(text) => text.parse().ok(),
        _ => None,
    }
}

/// A float field: any number, or `null` for a non-finite value.
fn as_f64(v: Scalar<'_>) -> Option<f64> {
    match v {
        Scalar::Digits(text) => parse_f64(text).ok(),
        Scalar::Num(x) => Some(x),
        Scalar::Null => Some(f64::NAN),
        _ => None,
    }
}

impl<'a> Event<'a> {
    /// Decodes one JSONL line written by [`Event::to_jsonl`] (see the
    /// [module docs](crate::schema) for the rules it enforces). A span
    /// name borrows from `line`.
    pub fn from_jsonl(line: &'a str) -> Result<Event<'a>, String> {
        let mut fields = Fields(Vec::with_capacity(8));
        let mut cur = Cursor::new(line);
        cur.object(|cur, key| fields.insert(key, cur.scalar()?))?;
        cur.finish()?;
        fields.decode()
    }
}

/// Decodes every non-blank line of a trace, paired with its 1-based line
/// number. The first line that does not decode aborts with `line N: …`.
pub fn decode_lines<'a>(
    lines: impl IntoIterator<Item = &'a str>,
) -> Result<Vec<(usize, Event<'a>)>, String> {
    lines
        .into_iter()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            Event::from_jsonl(line)
                .map(|e| (i + 1, e))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One event of every kind, with the given field values.
    fn all_kinds(a: u64, b: u64, c: u64, x: f64, y: f64) -> Vec<EventKind<'static>> {
        vec![
            EventKind::RunStart {
                seed: a,
                workstations: b,
                tasks: c,
            },
            EventKind::EpisodeStart { ws: a },
            EventKind::PeriodStart { ws: a, len: x },
            EventKind::PeriodCommit { ws: a, work: x },
            EventKind::PeriodInterrupt { ws: a, lost: x },
            EventKind::Dispatch {
                ws: a,
                tasks: b,
                work: x,
            },
            EventKind::Bank {
                ws: a,
                work: x,
                duplicate: y,
            },
            EventKind::LeaseTimeout { ws: a, lease: b },
            EventKind::Requeue { ws: a, tasks: b },
            EventKind::Backoff { ws: a, delay: x },
            EventKind::Quarantine { ws: a, until: x },
            EventKind::StormKill { ws: a },
            EventKind::Crash { ws: a },
            EventKind::MessageLost { ws: a },
            EventKind::Straggle { ws: a },
            EventKind::Replica { ws: a, tasks: b },
            EventKind::McProgress { done: a, total: b },
            EventKind::RunEnd {
                banked: x,
                lost: y,
                drained: a % 2 == 0,
            },
            EventKind::SpanStart {
                id: a.max(1),
                parent: b,
                name: "farm.run",
            },
            EventKind::SpanEnd {
                id: a.max(1),
                parent: b,
                name: "farm.run",
                dur_ns: x,
            },
        ]
    }

    /// `Event` with every float replaced by its bit pattern, NaN folded to
    /// one value: decoded equality that treats `null` ⇒ NaN as a match.
    fn bits(e: &Event<'_>) -> String {
        let norm = |v: f64| {
            if v.is_finite() {
                v.to_bits()
            } else {
                f64::NAN.to_bits()
            }
        };
        let mut e = *e;
        let t = norm(e.time);
        e.time = 0.0;
        let floats = match &mut e.kind {
            EventKind::PeriodStart { len: v, .. }
            | EventKind::PeriodCommit { work: v, .. }
            | EventKind::PeriodInterrupt { lost: v, .. }
            | EventKind::Dispatch { work: v, .. }
            | EventKind::Backoff { delay: v, .. }
            | EventKind::Quarantine { until: v, .. }
            | EventKind::SpanEnd { dur_ns: v, .. } => vec![std::mem::take(v)],
            EventKind::Bank {
                work, duplicate, ..
            } => vec![std::mem::take(work), std::mem::take(duplicate)],
            EventKind::RunEnd { banked, lost, .. } => {
                vec![std::mem::take(banked), std::mem::take(lost)]
            }
            _ => Vec::new(),
        };
        let floats: Vec<u64> = floats.into_iter().map(norm).collect();
        format!("{t} {floats:?} {e:?}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn every_kind_round_trips_bitwise(
            a in proptest::num::u64::ANY,
            b in proptest::num::u64::ANY,
            c in proptest::num::u64::ANY,
            t in proptest::num::f64::ANY,
            x in proptest::num::f64::ANY,
            y in proptest::num::f64::ANY,
        ) {
            for kind in all_kinds(a, b, c, x, y) {
                let e = Event { time: t, kind };
                let line = e.to_jsonl();
                let back = Event::from_jsonl(&line).unwrap_or_else(|err| panic!("{line}: {err}"));
                prop_assert_eq!(bits(&back), bits(&e), "{}", line);
                if !t.is_finite() {
                    prop_assert!(back.time.is_nan());
                }
            }
        }
    }

    #[test]
    fn every_emitted_kind_validates() {
        for kind in all_kinds(u64::MAX, 4, 100, 8.25, 1.0 / 3.0) {
            let e = Event { time: 1.25, kind };
            let line = e.to_jsonl();
            assert_eq!(Event::from_jsonl(&line), Ok(e), "{line}");
        }
        let seed = Event {
            time: 0.0,
            kind: EventKind::RunStart {
                seed: u64::MAX,
                workstations: 0,
                tasks: 0,
            },
        };
        assert_eq!(Event::from_jsonl(&seed.to_jsonl()), Ok(seed));
    }

    #[test]
    fn rejects_bad_lines() {
        for line in [
            "not json",
            "",
            r#"{"t":1,"type":"bank"}"#, // no version
            r#"{"v":99,"t":1,"type":"bank","ws":0,"work":1,"duplicate":0}"#, // future version
            r#"{"v":0,"t":1,"type":"crash","ws":0}"#, // version 0
            r#"{"v":1,"t":1,"type":"martian"}"#, // unknown type
            r#"{"v":1,"t":1,"type":"bank","ws":0}"#, // missing fields
            r#"{"v":1,"type":"crash","ws":0}"#, // no timestamp
            r#"{"v":1,"t":1,"type":"crash","ws":-1}"#, // bad int
            r#"{"v":1,"t":1,"type":"crash","ws":1.5}"#, // fractional int
            r#"{"v":1,"t":1,"type":"crash","ws":18446744073709551616}"#, // above u64::MAX
            r#"{"v":1,"t":"x","type":"crash","ws":0}"#, // string time
            r#"{"v":1,"t":0,"type":"span_start","id":1,"parent":0,"name":"x"}"#, // span on v1
            r#"{"v":2,"t":0,"type":"span_start","id":1,"parent":0,"name":""}"#, // empty name
            r#"{"v":2,"t":0,"type":"span_start","id":0,"parent":0,"name":"x"}"#, // zero id
            r#"{"v":2,"t":0,"type":"span_start","id":1,"parent":0}"#, // no name
            r#"{"v":2,"t":0,"type":"run_end","banked":1,"lost":0}"#, // no drained
            r#"{"v":2,"t":0,"type":"run_end","banked":1,"lost":0,"drained":1}"#, // int drained
            r#"{"v":2,"t":1,"type":"crash","ws":0,"ws":1}"#, // duplicate key
            r#"{"v":2,"t":1,"type":"crash","ws":0,"x":1,"x":2}"#, // duplicate unknown
            r#"{"v":2,"t":1,"type":"crash","ws":0,"x\/y":1,"x/y":2}"#, // duplicate once unescaped
            r#"{"v":2,"t":1,"type":"crash","ws":0} extra"#, // trailing garbage
            r#"{"v":2,"t":1,"type":"crash","ws":0,"x":{"y":1}}"#, // nested object
            r#"{"v":2,"t":1,"type":"crash","ws":0,"x":1-2}"#, // bad number
            r#"{"v":2,"t":1,"type":"crash","ws":0,"x":"\u0041"}"#, // bad escape
            r#"{"v":2,"t":1,"type":"crash","ws":0"#, // unterminated
        ] {
            assert!(Event::from_jsonl(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn version_back_compat_and_span_gating() {
        // A v1 line with a v1 kind still decodes under the v2 decoder.
        let v1 = r#"{"v":1,"t":1,"type":"bank","ws":0,"work":1,"duplicate":0}"#;
        assert_eq!(Event::from_jsonl(v1).unwrap().kind.name(), "bank");
        // Span kinds were introduced in v2: a v1 line may not carry them.
        let v1_span = r#"{"v":1,"t":0,"type":"span_start","id":1,"parent":0,"name":"x"}"#;
        let err = Event::from_jsonl(v1_span).unwrap_err();
        assert!(err.contains("schema version 2"), "{err}");
        // The same kind under v2 is fine, in any field order, with unknown
        // keys ignored and the name borrowed from the line.
        let v2_span =
            r#" { "name" : "x.y", "parent":0,"id":1,"type":"span_start","t":0,"v":2,"extra":[] } "#;
        assert!(
            Event::from_jsonl(v2_span).is_err(),
            "containers stay rejected"
        );
        let v2_span = r#" { "name" : "x.y", "parent":0,"id":1,"type":"span_start","t":0,"v":2,"extra":null } "#;
        let e = Event::from_jsonl(v2_span).unwrap();
        assert_eq!(
            e.kind,
            EventKind::SpanStart {
                id: 1,
                parent: 0,
                name: "x.y"
            }
        );
    }

    #[test]
    fn field_accessors_report_names() {
        let err = Event::from_jsonl(r#"{"v":1,"t":0,"type":"requeue","ws":2}"#).unwrap_err();
        assert!(
            err.contains("requeue") && err.contains("\"tasks\""),
            "{err}"
        );
        let err =
            Event::from_jsonl(r#"{"v":1,"t":0,"type":"requeue","ws":2,"tasks":"7"}"#).unwrap_err();
        assert!(err.contains("\"tasks\" not an integer"), "{err}");
        let err =
            Event::from_jsonl(r#"{"v":1,"t":0,"type":"backoff","ws":2,"delay":true}"#).unwrap_err();
        assert!(err.contains("\"delay\" not a number"), "{err}");
    }

    #[test]
    fn decode_lines_skips_blanks_and_numbers_errors() {
        let ok = r#"{"v":2,"t":0,"type":"crash","ws":3}"#;
        let events = decode_lines(["", ok, "  ", ok]).unwrap();
        assert_eq!(
            events.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec![2, 4]
        );
        let err = decode_lines([ok, "", "{bad"]).unwrap_err();
        assert!(err.starts_with("line 3: "), "{err}");
    }
}
