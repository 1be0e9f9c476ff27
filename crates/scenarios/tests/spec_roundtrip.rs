//! Property tests: a policy spec round-trips through its canonical string
//! form (`parse(display(spec)) == spec`), and malformed strings are
//! rejected rather than mis-parsed.
//!
//! Exact equality on the `f64` period is intentional: Rust's float
//! `Display` emits the shortest string that parses back to the identical
//! bits, so a lossless grammar must round-trip bit-for-bit.
//!
//! Strategies stick to the range/vec subset of the proptest API (the
//! vendored offline stand-in implements exactly that surface).

use cs_scenarios::PolicySpec;
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn policy_spec_round_trips(variant in 0usize..3, t in 1e-6f64..1e9) {
        let spec = match variant {
            0 => PolicySpec::Guideline,
            1 => PolicySpec::Greedy,
            _ => PolicySpec::FixedSize(t),
        };
        // Both the Display form (`fixed:t`) and the report label
        // (`fixed(t)`) must come back as the same spec.
        prop_assert_eq!(PolicySpec::parse(&spec.to_string()), Ok(spec));
        prop_assert_eq!(PolicySpec::parse(&spec.label()), Ok(spec));
    }

    #[test]
    fn junk_never_panics(bytes in vec(proptest::num::u8::ANY, 0..48)) {
        // Arbitrary (lossily decoded) strings must yield Err, never panic.
        let s = String::from_utf8_lossy(&bytes);
        let _ = PolicySpec::parse(&s);
    }
}

#[test]
fn malformed_specs_are_rejected() {
    assert!(PolicySpec::parse("fixed:").is_err());
    assert!(PolicySpec::parse("fixed()").is_err());
    assert!(PolicySpec::parse("Guideline").is_err());
}
