//! `hotbench` — the repo benchmark. One process runs one workload:
//!
//! ```text
//! hotbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//! hotbench --check        every workload at 1/50 scale, with assertions
//! hotbench --manifest     print BENCHMARK.json
//! ```
//!
//! Every metric is printed by name with its unit; the last line of
//! standard output is the JSON result. The exit code is 0 only if every
//! output was verified correct. See `README.md` beside this package.

mod check;
mod emit;
mod gen;
mod metrics;
mod procfs;
mod run;
mod stats;
mod sut;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{Outcome, RunConfig};
use sut::{KvMemtier, RtCall, RtPipe, StoreStream};

const USAGE: &str =
    "usage: hotbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
       hotbench --check | --manifest
workloads: rt_call rt_pipe kv_memtier store_stream";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut trace_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (0.0..=600.0).contains(&s)) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(metrics::RUN_SECONDS as f64),
        traced: traced.unwrap_or(false),
        trace_out,
    })
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let cfg = RunConfig::measured(args.seed, args.seconds, args.traced);
    match args.workload.as_str() {
        "rt_call" => run::run::<RtCall>(&cfg),
        "rt_pipe" => run::run::<RtPipe>(&cfg),
        "kv_memtier" => run::run::<KvMemtier>(&cfg),
        "store_stream" => run::run::<StoreStream>(&cfg),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    }
}

/// The traced run's spans go next to the executable (a build directory,
/// already ignored) unless `--trace-out` names a file.
fn default_trace_path(workload: &str) -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(exe.parent()?.join(format!("trace-{workload}.json")))
}

fn report(args: &Args, outcome: &Outcome) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} host_threads {cores}",
        outcome.workload, args.seed, args.seconds, args.traced as u8
    );
    for (def, value) in outcome.metrics.iter() {
        println!("{} {} {}", def.name, value, def.unit);
    }
    if let Some(json) = &outcome.trace_json {
        let path = args
            .trace_out
            .clone()
            .or_else(|| default_trace_path(outcome.workload));
        match path {
            Some(p) => match std::fs::write(&p, json) {
                Ok(()) => println!("trace {}", p.display()),
                Err(e) => eprintln!("hotbench: cannot write trace {}: {e}", p.display()),
            },
            None => eprintln!("hotbench: no place to write the trace"),
        }
    }
    println!("{}", outcome.result_line());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--manifest") => {
            print!("{}", metrics::manifest_json());
            ExitCode::SUCCESS
        }
        Some("--check") => match check::check_all() {
            Ok(()) => {
                println!("check: all workloads ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("hotbench --check: {e}");
                ExitCode::FAILURE
            }
        },
        _ => {
            let parsed = match parse_run_args(&args) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("hotbench: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            match run_workload(&parsed) {
                Ok(outcome) => {
                    report(&parsed, &outcome);
                    if outcome.correct() {
                        ExitCode::SUCCESS
                    } else {
                        eprintln!(
                            "hotbench: {} of {} operations gave a wrong output",
                            outcome.failed, outcome.attempted
                        );
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("hotbench: {e}");
                    ExitCode::from(2)
                }
            }
        }
    }
}
