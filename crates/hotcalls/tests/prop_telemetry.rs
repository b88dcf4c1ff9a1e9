//! Property tests of the telemetry histogram algebra.
//!
//! The snapshot pipeline leans on one identity everywhere: merging the
//! per-lane histograms of a plane must give the same distribution as one
//! histogram fed every sample directly. If that breaks, every aggregated
//! percentile in `Snapshot::to_prometheus` and in the benchmark's
//! `hotcalls.telemetry.*` metrics silently reports the wrong tail. These tests pin the identity down — merge is
//! exact on bucket counts (not approximate), associative, and preserves
//! the count/max/percentile invariants — over arbitrary sample sets.

use proptest::prelude::*;

use hotcalls::telemetry::CycleHist;

/// Samples spanning the interesting bucket regimes: the exact linear
/// range near zero, mid-range log buckets, and the far tail.
fn sample() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..32, 32u64..100_000, any::<u64>(),]
}

fn hist_of(samples: &[u64]) -> CycleHist {
    let mut h = CycleHist::new();
    for &s in samples {
        h.record(s);
    }
    h
}

proptest! {
    /// Merging the histograms of arbitrary partitions of a sample set
    /// equals the histogram of the concatenated samples, exactly: same
    /// summary (count, mean, every reported percentile, max) and same
    /// serialized form.
    #[test]
    fn merge_equals_concatenation(
        parts in prop::collection::vec(prop::collection::vec(sample(), 0..200), 0..6)
    ) {
        let mut merged = CycleHist::new();
        for part in &parts {
            merged.merge(&hist_of(part));
        }
        let concatenated: Vec<u64> = parts.concat();
        let direct = hist_of(&concatenated);
        prop_assert_eq!(merged.summary(), direct.summary());
        prop_assert_eq!(merged, direct);
    }

    /// Merge is associative and commutative: any grouping and order of
    /// lane merges yields the identical histogram.
    #[test]
    fn merge_is_associative_and_commutative(
        a in prop::collection::vec(sample(), 0..120),
        b in prop::collection::vec(sample(), 0..120),
        c in prop::collection::vec(sample(), 0..120),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));

        // (a ∪ b) ∪ c
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);

        // a ∪ (b ∪ c)
        let mut right_inner = hb.clone();
        right_inner.merge(&hc);
        let mut right = ha.clone();
        right.merge(&right_inner);

        // c ∪ a ∪ b
        let mut rotated = hc;
        rotated.merge(&ha);
        rotated.merge(&hb);

        prop_assert_eq!(left.clone(), right);
        prop_assert_eq!(left, rotated);
    }

    /// Count/max/percentile invariants on a merged histogram: the count
    /// is the sum of the parts, the max is the max of the parts, and
    /// percentiles are monotone in `q`, bracketed by 0 and the reported
    /// max, and within the bucketing's relative error of the true
    /// quantile sample.
    #[test]
    fn merged_percentiles_respect_invariants(
        a in prop::collection::vec(sample(), 1..200),
        b in prop::collection::vec(sample(), 1..200),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);

        let true_max = a.iter().chain(b.iter()).copied().max().unwrap();
        prop_assert_eq!(merged.max(), true_max);

        let mut all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        let mut prev = 0u64;
        for &q in &[0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let p = merged.percentile(q);
            prop_assert!(p >= prev, "percentile must be monotone in q");
            prop_assert!(p <= merged.max(), "percentile cannot exceed max");
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
