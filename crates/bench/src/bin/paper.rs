//! `paper <name>… | all | list [N] [--smoke]` — regenerates the tables
//! EXPERIMENTS.md records and checks their claims.
//!
//! Exits 1 if a check of a selected experiment fails, 2 on an unknown
//! experiment or flag (after printing the list).

use std::process::ExitCode;

use bench::experiments::{find, Experiment, Scale, EXPERIMENTS};

fn usage() -> ExitCode {
    eprintln!("usage: paper <name>... | all | list [N] [--smoke]\nexperiments:");
    for (name, _) in EXPERIMENTS {
        eprintln!("  {name}");
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut scale = Scale::default();
    let mut selected: Vec<Experiment> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            scale.smoke = true;
        } else if arg == "list" {
            for (name, _) in EXPERIMENTS {
                println!("{name}");
            }
            return ExitCode::SUCCESS;
        } else if arg == "all" {
            selected.extend_from_slice(EXPERIMENTS);
        } else if let Ok(n) = arg.parse() {
            scale.n = Some(n);
        } else if let Some(experiment) = find(&arg) {
            selected.push(*experiment);
        } else {
            eprintln!("unknown experiment or flag `{arg}`");
            return usage();
        }
    }
    if selected.is_empty() {
        return usage();
    }

    let mut failed = 0;
    for (name, run) in selected {
        let outcome = run(scale);
        print!("{}", outcome.table);
        for check in &outcome.checks {
            let verdict = if check.pass { "ok  " } else { "FAIL" };
            println!("{verdict} {name}: {}", check.name);
        }
        failed += outcome.failures().count();
    }
    if failed > 0 {
        eprintln!("{failed} check(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
