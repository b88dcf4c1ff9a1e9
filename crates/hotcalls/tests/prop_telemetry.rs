//! Property tests of the telemetry histogram.
//!
//! A plane reports its stage percentiles from a [`CycleHist`]; if its
//! bucketing breaks, the percentiles silently show the wrong tail. These
//! tests pin down the count and percentile invariants over arbitrary
//! sample sets fed directly into one histogram.

use proptest::prelude::*;

use hotcalls::telemetry::CycleHist;

/// Samples spanning the interesting bucket regimes: the exact linear
/// range near zero, mid-range log buckets, and the far tail.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..32, 32u64..100_000, any::<u64>(),]
}

proptest! {
    /// The count is the number of samples, the 1.0 quantile is the exact
    /// max, and percentiles are monotone in `q`, bracketed by 0 and the
    /// max, and within the bucketing's relative error of the true
    /// quantile sample.
    #[test]
    fn percentiles_respect_invariants(samples in prop::collection::vec(sample(), 1..400)) {
        let mut h = CycleHist::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);

        let mut all = samples;
        all.sort_unstable();
        let true_max = all[all.len() - 1];
        prop_assert_eq!(h.percentile(1.0), true_max);

        let mut prev = 0u64;
        for &q in &[0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let p = h.percentile(q);
            prop_assert!(p >= prev, "percentile must be monotone in q");
            prop_assert!(p <= true_max, "percentile cannot exceed max");
            prev = p;

            // The reported value is an upper bound for the true quantile
            // sample, tight to the bucket's relative error (sub-bucket
            // resolution of 1/8 → ≤ 12.5%, plus one for integer rounding).
            let rank = ((q * all.len() as f64).ceil() as usize)
                .clamp(1, all.len());
            let truth = all[rank - 1];
            prop_assert!(p >= truth, "bucket upper bound must cover the sample");
            prop_assert!(
                (p as f64) <= (truth as f64) * 1.125 + 1.0,
                "p={p} too far above true quantile {truth}"
            );
        }
    }
}
