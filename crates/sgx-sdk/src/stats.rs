//! Per-edge-function call accounting.
//!
//! The paper's Table 2 is a breakdown of API-call frequencies and the core
//! time they burn; these counters are how the reproduction derives it.

use std::collections::BTreeMap;

use sgx_sim::Cycles;

/// Count and cumulative cost of one edge function.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CallStat {
    /// Number of invocations.
    pub count: u64,
    /// Total cycles spent in the call path (including marshalling and
    /// context switches, excluding the callee body is *not* true — body
    /// time is included; interface-only cost can be derived by subtracting
    /// the callee's own accounting).
    pub cycles: Cycles,
}

/// Call statistics for one enclave interface.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CallStats {
    ecalls: BTreeMap<String, CallStat>,
    ocalls: BTreeMap<String, CallStat>,
}

/// Adds one call to `name`'s entry, copying the name only on first sight.
fn record(calls: &mut BTreeMap<String, CallStat>, name: &str, cycles: Cycles) {
    match calls.get_mut(name) {
        Some(s) => {
            s.count += 1;
            s.cycles += cycles;
        }
        None => drop(calls.insert(name.to_owned(), CallStat { count: 1, cycles })),
    }
}

impl CallStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one ecall.
    pub fn record_ecall(&mut self, name: &str, cycles: Cycles) {
        record(&mut self.ecalls, name, cycles);
    }

    /// Records one ocall.
    pub fn record_ocall(&mut self, name: &str, cycles: Cycles) {
        record(&mut self.ocalls, name, cycles);
    }

    /// Per-name ecall statistics.
    pub fn ecalls(&self) -> &BTreeMap<String, CallStat> {
        &self.ecalls
    }

    /// Per-name ocall statistics.
    pub fn ocalls(&self) -> &BTreeMap<String, CallStat> {
        &self.ocalls
    }

    /// Total number of edge calls (ecalls + ocalls).
    pub fn total_calls(&self) -> u64 {
        self.ecalls.values().map(|s| s.count).sum::<u64>()
            + self.ocalls.values().map(|s| s.count).sum::<u64>()
    }

    /// Total cycles across all edge calls.
    pub fn total_cycles(&self) -> Cycles {
        self.ecalls
            .values()
            .chain(self.ocalls.values())
            .map(|s| s.cycles)
            .sum()
    }

    /// The paper's "Core Time" column: the fraction of `elapsed` spent
    /// inside edge calls.
    pub fn core_time_fraction(&self, elapsed: Cycles) -> f64 {
        if elapsed == Cycles::ZERO {
            0.0
        } else {
            self.total_cycles().get() as f64 / elapsed.get() as f64
        }
    }

    /// The most frequent calls, descending, as (name, count) — the shape of
    /// Table 2's "Frequent Calls" column.
    pub fn top_calls(&self, n: usize) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> = self
            .ecalls
            .iter()
            .chain(self.ocalls.iter())
            .map(|(k, v)| (k.clone(), v.count))
            .collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Ecalls and ocalls folded into one per-name map — the shape the
    /// Table-2 census wants, where a row is an API function regardless of
    /// crossing direction. A name used in both directions (rare, but legal)
    /// sums its counts and cycles.
    pub fn merged(&self) -> BTreeMap<String, CallStat> {
        let mut all: BTreeMap<String, CallStat> = BTreeMap::new();
        for (name, stat) in self.ecalls.iter().chain(self.ocalls.iter()) {
            let row = all.entry(name.clone()).or_default();
            row.count += stat.count;
            row.cycles += stat.cycles;
        }
        all
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        self.ecalls.clear();
        self.ocalls.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_ranks() {
        let mut s = CallStats::new();
        for _ in 0..5 {
            s.record_ocall("read", Cycles::new(100));
        }
        s.record_ocall("sendmsg", Cycles::new(50));
        s.record_ecall("run", Cycles::new(10));
        assert_eq!(s.total_calls(), 7);
        assert_eq!(s.total_cycles(), Cycles::new(560));
        assert_eq!(s.top_calls(2)[0], ("read".into(), 5));
    }

    #[test]
    fn core_time_fraction_matches_table2_shape() {
        let mut s = CallStats::new();
        // 200k calls x 8,300 cycles on a 4 GHz second = 41.5%.
        for _ in 0..200 {
            s.record_ocall("read", Cycles::new(8_300));
        }
        let elapsed = Cycles::new(4_000_000); // scaled-down "second"
        let f = s.core_time_fraction(elapsed);
        assert!((f - 0.415).abs() < 0.01, "{f}");
    }

    #[test]
    fn zero_elapsed_is_zero_fraction() {
        let s = CallStats::new();
        assert_eq!(s.core_time_fraction(Cycles::ZERO), 0.0);
    }

    #[test]
    fn merged_folds_both_directions() {
        let mut s = CallStats::new();
        s.record_ecall("process", Cycles::new(10));
        s.record_ocall("process", Cycles::new(30));
        s.record_ocall("read", Cycles::new(100));
        let m = s.merged();
        assert_eq!(m.len(), 2);
        assert_eq!(m["process"].count, 2);
        assert_eq!(m["process"].cycles, Cycles::new(40));
        assert_eq!(m["read"].count, 1);
    }

    #[test]
    fn reset_clears() {
        let mut s = CallStats::new();
        s.record_ecall("x", Cycles::new(1));
        s.reset();
        assert_eq!(s.total_calls(), 0);
    }
}
