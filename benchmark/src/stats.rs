//! Order statistics over trial values and span durations.

/// The `q`-quantile (`q` in `[0, 1]`) of `values` by linear interpolation
/// between closest ranks. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Quantile of integer samples (span durations, cycle counts).
pub fn quantile_u64(values: &[u64], q: f64) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    quantile(&v, q)
}

pub fn min(values: &[f64]) -> f64 {
    min_of(values.iter().copied())
}

/// Trials faster than this share of the run's median belong to a
/// different host regime and are set aside by [`floor`].
const OTHER_REGIME: f64 = 0.6;

/// The fastest trial of the host's usual regime: the minimum of the
/// values that are at least 0.6 x the median.
///
/// Interference only ever adds time to a trial, so the fastest trial is
/// the one the host disturbed least — except that this shared 2-vCPU host
/// now and then runs a two-thread call 3x *faster* for a few seconds (the
/// vCPUs presumably landing on sibling hardware threads). Those trials
/// are not a better measurement of the same thing; as long as they are
/// under half the run, the median marks them as outliers.
pub fn floor(values: &[f64]) -> f64 {
    let cut = OTHER_REGIME * quantile(values, 0.5);
    min_of(values.iter().copied().filter(|&v| v >= cut))
}

fn min_of(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// `num / den`, or 0 when the denominator is 0 (a layer the workload
/// does not exercise reports 0 rather than NaN, which JSON cannot carry).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn floor_is_the_minimum_of_the_usual_regime() {
        // 175 and 180 are the 3x-faster episode; 500 is the floor.
        let v = [620.0, 500.0, 175.0, 640.0, 580.0, 180.0, 700.0, 610.0];
        assert_eq!(min(&v), 175.0);
        assert_eq!(floor(&v), 500.0);
        assert_eq!(floor(&[3.0, 2.0, 4.0]), 2.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
