//! `--check` (and `cargo test`): every workload at 1/50 scale, asserting
//! the properties the benchmark's numbers rest on.

use crate::metrics::{name_ok, MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{run, Outcome, RunConfig};
use crate::sut::{KvMemtier, RtCall, RtPipe, StoreStream};
use crate::workload::{Scale, SetupNotes, Workload};

fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

/// The result line must carry every metric of `defs` exactly once and
/// nothing else.
fn printed_exactly_once(outcome: &Outcome, defs: &[MetricDef]) -> Result<(), String> {
    let line = outcome.result_line();
    for def in defs {
        let key = format!("\"{}\":{{\"value\":", def.name);
        let n = line.matches(&key).count();
        ensure(n == 1, || {
            format!(
                "{}: metric {} printed {n} times",
                outcome.workload, def.name
            )
        })?;
    }
    let printed = line.matches("{\"value\":").count();
    ensure(printed == defs.len(), || {
        format!(
            "{}: {printed} metrics printed, manifest names {}",
            outcome.workload,
            defs.len()
        )
    })
}

fn check_workload<W: Workload>() -> Result<(), String> {
    let name = W::NAME;
    ensure(WORKLOADS.iter().any(|(n, _)| *n == name), || {
        format!("{name} is not in the manifest")
    })?;

    // Sim metrics are exact: identical for one seed, different for two.
    let a = run::<W>(&RunConfig::check(11, false))?;
    let a_again = run::<W>(&RunConfig::check(11, false))?;
    let b = run::<W>(&RunConfig::check(12, false))?;
    ensure(a.sim == a_again.sim, || {
        format!("{name}: sim half differs between two runs of seed 11")
    })?;
    for metric in ["sim_cycles_per_op", "sim_sdk_cycles_per_op"] {
        let (x, y) = (a.metrics.get(metric), a_again.metrics.get(metric));
        ensure(x.map(f64::to_bits) == y.map(f64::to_bits), || {
            format!("{name}: {metric} not bit-identical for one seed: {x:?} vs {y:?}")
        })?;
        ensure(a.metrics.get(metric) != b.metrics.get(metric), || {
            format!("{name}: {metric} identical for seeds 11 and 12: inputs ignore the seed")
        })?;
    }

    let traced = run::<W>(&RunConfig::check(11, true))?;
    ensure(traced.sim == a.sim, || {
        format!("{name}: tracing changed the sim half")
    })?;
    for outcome in [&a, &a_again, &b, &traced] {
        ensure(outcome.correct() && outcome.attempted > 0, || {
            format!(
                "{name}: {} of {} operations failed",
                outcome.failed, outcome.attempted
            )
        })?;
    }
    printed_exactly_once(&a, &END_TO_END)?;
    printed_exactly_once(&traced, &PER_LAYER)?;
    for (def, value) in a.metrics.iter() {
        ensure(value > 0.0, || {
            format!(
                "{name}: end-to-end metric {} is {value}, must be positive",
                def.name
            )
        })?;
    }
    for zero in ["hotcalls.rt.stream.ticket_leak", "harness.failed_ops_share"] {
        ensure(traced.metrics.get(zero) == Some(0.0), || {
            format!("{name}: {zero} = {:?}, must be 0", traced.metrics.get(zero))
        })?;
    }
    let json = traced.trace_json.as_deref().unwrap_or("");
    ensure(json.contains("\"traceEvents\":[{"), || {
        format!("{name}: traced run recorded no spans")
    })?;

    // Every verifier accepts a genuine reply and rejects a corrupted one.
    let inputs = W::generate(11, Scale::CHECK);
    let mut w = W::build(&inputs, &mut SetupNotes::default())?;
    w.warm_host(&inputs)?;
    w.verifiers_reject_corruption(&inputs)?;
    println!("check {name}: ok");
    Ok(())
}

pub fn check_all() -> Result<(), String> {
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        ensure(name_ok(def.name), || {
            format!("bad metric name {:?}", def.name)
        })?;
    }
    check_workload::<RtCall>()?;
    check_workload::<RtPipe>()?;
    check_workload::<KvMemtier>()?;
    check_workload::<StoreStream>()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_workload_passes_its_checks_at_small_scale() {
        super::check_all().unwrap();
    }
}
