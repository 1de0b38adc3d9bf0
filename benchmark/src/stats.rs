//! Order statistics shared by the run report and `compare`.

/// Fewest samples a percentile above the median needs: ten must lie beyond
/// it.
pub fn min_samples(p: f64) -> usize {
    (10.0 / (1.0 - p / 100.0)).round() as usize
}

/// Nearest-rank percentile `p` of `values`, or `None` when fewer than
/// ten samples would lie beyond it (so p90 needs at least 100 samples).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || (p > 50.0 && values.len() < min_samples(p)) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank - 1])
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    match ld {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                // Signed: the clamp can push `j * 4` past `i * m`.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Geometric mean of the positive entries, `NaN` when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0usize);
    for v in values.into_iter().filter(|v| *v > 0.0) {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let few: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&few, 90.0), None);
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&enough, 90.0), Some(90.0));
        assert_eq!(percentile(&few, 50.0), Some(50.0));
        assert_eq!(min_samples(90.0), 100);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean([1.0, 4.0, 0.0]) - 2.0).abs() < 1e-12);
        assert!(geomean([0.0]).is_nan());
    }
}
