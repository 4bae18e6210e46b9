//! Order statistics for the benchmark's reports.

/// Samples that must lie beyond a percentile before it is trusted.
pub const MIN_BEYOND: usize = 10;

/// One nearest-rank percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the percentile's rank.
    pub value: f64,
    /// Size of the sample.
    pub samples: usize,
    /// Whether at least [`MIN_BEYOND`] samples lie beyond the rank. An
    /// unsupported percentile is still the right order statistic, but is
    /// closer to a maximum than to a stable tail estimate.
    pub supported: bool,
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of an ascending sample:
/// the value at 1-based rank `ceil(p/100 * n)`. `None` on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<Percentile> {
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "sample must be ascending"
    );
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        supported: n - rank >= MIN_BEYOND,
    })
}

/// Sort a sample ascending (total order; the benchmark never records NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the midpoint rule for even sizes; 0.0 on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method). `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values.to_vec());
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The quietest of the repeats of one measurement: the smallest value.
/// Interference from the host only ever adds time, so the fastest repeat
/// is the one closest to what the program costs; 0.0 on an empty sample.
pub fn quietest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Least-squares slope of `ys` over `xs`; 0.0 when `xs` does not vary.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len()) as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
    }
    if sxx > 0.0 {
        sxy / sxx
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_known_answers() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0).unwrap().value, 50.0);
        assert_eq!(percentile(&v, 99.0).unwrap().value, 99.0);
        assert_eq!(percentile(&v, 100.0).unwrap().value, 100.0);
        // ceil(0.95 * 7) = 7 -> the maximum.
        assert_eq!(percentile(&ramp(7), 95.0).unwrap().value, 7.0);
        // ceil(0.5 * 5) = 3.
        assert_eq!(percentile(&ramp(5), 50.0).unwrap().value, 3.0);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples: rank 990, exactly 10 beyond.
        let p = percentile(&ramp(1000), 99.0).unwrap();
        assert_eq!((p.value, p.samples, p.supported), (990.0, 1000, true));
        // One sample fewer: rank 990 of 999, 9 beyond.
        assert!(!percentile(&ramp(999), 99.0).unwrap().supported);
        // p95 of 225 batches: rank 214, 11 beyond; of 100: rank 95, 5 beyond.
        assert!(percentile(&ramp(225), 95.0).unwrap().supported);
        assert!(!percentile(&ramp(100), 95.0).unwrap().supported);
        // A median needs 20 samples.
        assert!(percentile(&ramp(20), 50.0).unwrap().supported);
        assert!(!percentile(&ramp(19), 50.0).unwrap().supported);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2, 10], n=4) == [1.25, 2.5, 8.25]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0]), Some((1.25, 8.25)));
        assert_eq!(quartiles(&[4.0]), None);
        assert_eq!(spread(&ramp(10)), Some(1.0));
    }

    #[test]
    fn quietest_is_the_minimum() {
        assert_eq!(quietest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(quietest(&[]), 0.0);
    }

    #[test]
    fn median_and_slope() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs = ramp(5);
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((slope(&xs, &ys) - 3.0).abs() < 1e-12);
        assert_eq!(slope(&[2.0, 2.0], &[1.0, 5.0]), 0.0);
    }
}
