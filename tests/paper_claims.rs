//! The paper's claims, checked in tier-1.
//!
//! Every experiment of the `paper` binary (`crates/bench`) runs here at
//! its `--smoke` scale — the same functions, so a claim is measured by one
//! driver whether it is printed or tested. All of them run in deterministic
//! virtual cycles: a failure is a model change, never host noise. What
//! `tests/paper_shapes.rs` and `tests/sim_golden.rs` already pin (the
//! Fig. 8 cliff, the §3.5 orderings, the edge-call medians) is not
//! re-asserted.

use bench::experiments::{find, Scale, EXPERIMENTS};

/// Runs one experiment at smoke scale and fails on its first broken claim,
/// showing the table the claim was read from.
fn holds(name: &str) {
    let (_, run) = find(name).expect("a row of bench::experiments::EXPERIMENTS");
    let outcome = run(Scale {
        n: None,
        smoke: true,
    });
    let failed: Vec<&str> = outcome.failures().map(|c| c.name.as_str()).collect();
    assert!(
        failed.is_empty(),
        "`paper {name} --smoke` failed {failed:#?}\n{}",
        outcome.table
    );
}

macro_rules! claims {
    ($($name:ident)*) => {
        $(#[test]
        fn $name() {
            holds(stringify!($name));
        })*

        /// A new experiment must be added to the list above.
        #[test]
        fn every_experiment_is_called() {
            let called = [$(stringify!($name)),*];
            let table: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            assert_eq!(called.as_slice(), table);
        }
    };
}

claims! {
    table1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 table2 fig10 fig11
    ablation_hotcall ablation_memset ablation_mee ablation_epc ablation_nrz
    api_census load_curves ablation_storage
}
