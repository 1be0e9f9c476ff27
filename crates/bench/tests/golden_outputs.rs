//! Golden-output regression for the harness migration.
//!
//! The fixtures under `tests/golden/` were captured from the pre-refactor
//! standalone binaries (one `main` per experiment, `println!` throughout).
//! Each test runs the registered experiment in-process through the shared
//! harness in full (non-quick) mode and demands the report be **byte
//! identical** to the capture — the refactor moved every experiment onto
//! `Experiment::run` without changing a single printed character.
//!
//! `exp_obs_validate` has no fixture: its self-test writes a temp-dir path
//! into its own output, so it is covered by its PASS/FAIL contract (and the
//! CLI's `exp --all --quick` drill, which runs every experiment) instead.

use cs_bench::harness::{by_id, ExpContext, ExpOptions};

fn check(id: &str, golden: &str) {
    let exp = by_id(id).unwrap_or_else(|| panic!("{id} not registered"));
    let mut out: Vec<u8> = Vec::new();
    exp.run(&mut ExpContext {
        out: &mut out,
        opts: &ExpOptions::default(),
    })
    .unwrap_or_else(|e| panic!("{id} failed: {e}"));
    let got = String::from_utf8(out).expect("experiment output is UTF-8");
    assert_eq!(
        got, golden,
        "{id}: output drifted from the pre-refactor golden fixture"
    );
}

macro_rules! golden_test {
    ($name:ident) => {
        #[test]
        fn $name() {
            check(
                stringify!($name),
                include_str!(concat!("golden/", stringify!($name), ".txt")),
            );
        }
    };
}

golden_test!(exp_3_2_existence);
golden_test!(exp_4_1_t0_bounds);
golden_test!(exp_4_1_uniform);
golden_test!(exp_4_2_geometric);
golden_test!(exp_4_3_increasing);
golden_test!(exp_5_1_perturb);
golden_test!(exp_5_2_growth);
golden_test!(exp_6_adaptive);
golden_test!(exp_6_greedy);
golden_test!(exp_ablation);
golden_test!(exp_competitive);
golden_test!(exp_discrete);
golden_test!(exp_fault_tolerance);
golden_test!(exp_now_farm);
golden_test!(exp_online);
golden_test!(exp_saves);
golden_test!(exp_sim_validate);
golden_test!(exp_trace_robust);
golden_test!(exp_uniqueness);
golden_test!(exp_utilization);
