//! The experiment table: what the `paper` binary runs by name and what
//! `tests/paper_claims.rs` runs at smoke scale in tier-1.
//!
//! An experiment is a plain function from a [`Scale`] to an [`Outcome`]:
//! the table it prints plus the named claims it checked. Every experiment
//! runs in deterministic virtual cycles, so its checks are claims about
//! the model, not about the host.

mod ablations;
mod figures;
mod load;
mod storage;

/// How much work an experiment does — the two controls the harness has
/// always had.
#[derive(Debug, Clone, Copy, Default)]
pub struct Scale {
    /// `N`: overrides the sample count of every experiment that has one
    /// (the paper used 200,000).
    pub n: Option<usize>,
    /// `--smoke`: small sample counts and grids, for tier-1 and CI. An
    /// experiment may shrink what it models under smoke; it never drops
    /// a check.
    pub smoke: bool,
}

impl Scale {
    /// `full`, or `smoke` under `--smoke`.
    pub(crate) fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// The sample count: `N` when given, else [`Scale::pick`].
    pub(crate) fn samples(&self, full: usize, smoke: usize) -> usize {
        self.n.unwrap_or(self.pick(full, smoke))
    }
}

/// One claim an experiment checked. The name carries the reading, so a
/// failure explains itself.
#[derive(Debug)]
pub struct Check {
    /// The claim and what was measured.
    pub name: String,
    /// Did it hold?
    pub pass: bool,
}

/// What an experiment produced: the printed table and its checks.
#[derive(Debug)]
pub struct Outcome {
    /// The table EXPERIMENTS.md records, as text.
    pub table: String,
    /// The claims checked, in the order they were made.
    pub checks: Vec<Check>,
}

impl Outcome {
    /// An outcome whose table opens with a section banner.
    pub(crate) fn titled(title: &str) -> Self {
        Outcome {
            table: format!("\n=== {title} ===\n"),
            checks: Vec::new(),
        }
    }

    /// Records one claim.
    pub(crate) fn check(&mut self, pass: bool, name: String) {
        self.checks.push(Check { name, pass });
    }

    /// The checks that did not hold.
    pub fn failures(&self) -> impl Iterator<Item = &Check> {
        self.checks.iter().filter(|c| !c.pass)
    }
}

/// `println!` into an [`Outcome`]'s table.
macro_rules! say {
    ($out:expr) => {
        $out.table.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.table.push_str(&format!($($arg)*));
        $out.table.push('\n');
    }};
}
pub(crate) use say;

/// A named experiment.
pub type Experiment = (&'static str, fn(Scale) -> Outcome);

/// Every experiment, in the order `paper all` runs them (and the order
/// EXPERIMENTS.md records them).
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", figures::table1),
    ("fig2", figures::fig2),
    ("fig3", figures::fig3),
    ("fig4", figures::fig4),
    ("fig5", figures::fig5),
    ("fig6", figures::fig6),
    ("fig7", figures::fig7),
    ("fig8", figures::fig8),
    ("table2", figures::table2),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("ablation_hotcall", ablations::hotcall),
    ("ablation_memset", ablations::memset),
    ("ablation_mee", ablations::mee),
    ("ablation_epc", ablations::epc),
    ("ablation_nrz", ablations::nrz),
    ("api_census", ablations::api_census),
    ("load_curves", load::load_curves),
    ("ablation_storage", storage::ablation_storage),
];

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|(n, _)| *n == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_prefers_n_then_smoke() {
        let full = Scale::default();
        let smoke = Scale {
            smoke: true,
            ..full
        };
        let n = Scale {
            n: Some(7),
            smoke: true,
        };
        assert_eq!(full.samples(100, 10), 100);
        assert_eq!(smoke.samples(100, 10), 10);
        assert_eq!(n.samples(100, 10), 7);
        assert_eq!(n.pick("full", "smoke"), "smoke");
    }

    #[test]
    fn names_are_unique_and_findable() {
        for (i, (name, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(find(name).is_some());
            assert!(
                EXPERIMENTS[..i].iter().all(|(n, _)| n != name),
                "duplicate experiment `{name}`"
            );
        }
        assert!(find("rt_throughput").is_none());
    }

    #[test]
    fn outcome_collects_table_and_failures() {
        let mut out = Outcome::titled("t");
        say!(out, "{} rows", 2);
        say!(out);
        out.check(true, "holds".into());
        out.check(false, "does not".into());
        assert_eq!(out.table, "\n=== t ===\n2 rows\n\n");
        assert_eq!(
            out.failures().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            ["does not"]
        );
    }
}
