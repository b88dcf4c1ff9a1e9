//! Sample statistics for the microbenchmark harness.

/// A set of latency samples plus the count of AEX-contaminated runs that
/// were discarded (the paper's methodology, §3.1).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Clean measurements, in cycles.
    pub values: Vec<u64>,
    /// Measurements discarded because an Asynchronous Exit landed inside
    /// the timed window.
    pub discarded_aex: usize,
}

/// Raw cycle counts with nothing discarded.
impl FromIterator<u64> for Samples {
    fn from_iter<I: IntoIterator<Item = u64>>(values: I) -> Self {
        Samples {
            values: values.into_iter().collect(),
            discarded_aex: 0,
        }
    }
}

impl Samples {
    /// Number of clean samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Any samples at all?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Median (p50).
    pub fn median(&self) -> u64 {
        self.percentile(50.0)
    }

    /// The `p`-th percentile (nearest-rank).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set or `p` outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(!self.values.is_empty(), "no samples");
        assert!((0.0..=100.0).contains(&p), "percentile out of range");
        let mut sorted = self.values.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    /// CDF points at the canonical probe percentiles the paper's Fig. 2/3
    /// discussion references.
    pub fn cdf_summary(&self) -> Vec<(f64, u64)> {
        [0.1, 10.0, 25.0, 50.0, 75.0, 78.0, 90.0, 99.0, 99.9, 99.97]
            .iter()
            .map(|&p| (p, self.percentile(p)))
            .collect()
    }

    /// Fraction of samples at or below `threshold`.
    pub fn fraction_below(&self, threshold: u64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&v| v <= threshold).count() as f64 / self.values.len() as f64
    }
}

/// One row of a latency-vs-load curve: an offered rate and the latency
/// percentiles observed at it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Offered load at this row, events per second.
    pub offered_per_sec: f64,
    /// Median latency at this rate, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency, nanoseconds.
    pub p999_ns: u64,
}

/// The knee of a latency-vs-load curve: the highest offered rate on the
/// leading stretch whose p99 stays within `p99_factor`× the low-load p99.
/// Points are expected in ascending offered-rate order; the scan stops at
/// the first departure so a tail that dips back under the threshold after
/// collapse cannot fake headroom.
pub fn knee_of(points: &[CurvePoint], p99_factor: f64) -> f64 {
    let floor = points.first().map_or(1, |p| p.p99_ns.max(1)) as f64;
    points
        .iter()
        .take_while(|p| p.p99_ns as f64 <= p99_factor * floor)
        .map(|p| p.offered_per_sec)
        .fold(0.0, f64::max)
}

/// A geometric offered-rate grid shared by every interface of one
/// workload: from well under the slowest interface's capacity (5%) to
/// past the fastest one's (2×), so every knee falls strictly inside the
/// sweep.
pub fn rate_grid(capacities: &[f64], points: usize) -> Vec<f64> {
    let lo = 0.05 * capacities.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = 2.0 * capacities.iter().copied().fold(0.0, f64::max);
    geometric_grid(lo, hi, points)
}

/// `points` values from `lo` to `hi` inclusive, geometrically spaced —
/// the canonical sweep shape for anything spanning decades (offered
/// rates, buffer sizes). A single-point grid is just `[lo]`.
pub fn geometric_grid(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    let step = (hi / lo).powf(1.0 / (points.saturating_sub(1)).max(1) as f64);
    (0..points).map(|i| lo * step.powi(i as i32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(v: Vec<u64>) -> Samples {
        Samples {
            values: v,
            discarded_aex: 0,
        }
    }

    #[test]
    fn median_of_odd_set() {
        assert_eq!(samples(vec![5, 1, 9, 3, 7]).median(), 5);
    }

    #[test]
    fn percentiles_are_monotone() {
        let s = samples((0..1000).collect());
        assert!(s.percentile(10.0) < s.percentile(50.0));
        assert!(s.percentile(50.0) < s.percentile(99.9));
        assert_eq!(s.percentile(0.0), 0);
        assert_eq!(s.percentile(100.0), 999);
    }

    #[test]
    fn fraction_below_counts_inclusive() {
        let s = samples(vec![10, 20, 30, 40]);
        assert!((s.fraction_below(20) - 0.5).abs() < 1e-12);
        assert_eq!(s.fraction_below(5), 0.0);
        assert_eq!(s.fraction_below(100), 1.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_percentile_panics() {
        let _ = samples(vec![]).median();
    }

    fn point(rate: f64, p99: u64) -> CurvePoint {
        CurvePoint {
            offered_per_sec: rate,
            p50_ns: p99 / 2,
            p99_ns: p99,
            p999_ns: p99 * 2,
        }
    }

    #[test]
    fn knee_is_last_rate_before_departure() {
        let curve = [
            point(1_000.0, 100),
            point(2_000.0, 120),
            point(4_000.0, 900),
            point(8_000.0, 50_000),
        ];
        assert_eq!(knee_of(&curve, 10.0), 4_000.0);
    }

    #[test]
    fn knee_scan_stops_at_first_departure() {
        // A post-collapse dip back under the threshold must not extend
        // the knee.
        let curve = [
            point(1_000.0, 100),
            point(2_000.0, 5_000),
            point(4_000.0, 150),
        ];
        assert_eq!(knee_of(&curve, 10.0), 1_000.0);
        assert_eq!(knee_of(&[], 10.0), 0.0);
    }

    #[test]
    fn rate_grid_brackets_the_capacities() {
        let grid = rate_grid(&[10_000.0, 40_000.0], 8);
        assert_eq!(grid.len(), 8);
        assert!((grid[0] - 500.0).abs() < 1e-6, "lo = 5% of slowest");
        assert!((grid[7] - 80_000.0).abs() < 1e-3, "hi = 2x fastest");
        assert!(grid.windows(2).all(|w| w[0] < w[1]), "monotone");
    }

    #[test]
    fn geometric_grid_endpoints_and_monotonicity() {
        let g = geometric_grid(4096.0, 1_048_576.0, 9);
        assert!((g[0] - 4096.0).abs() < 1e-9);
        assert!((g[8] - 1_048_576.0).abs() < 1e-3);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(geometric_grid(8.0, 64.0, 1), vec![8.0]);
    }
}
