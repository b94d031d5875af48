//! Order statistics with the tail rule: a percentile is reported only when
//! enough samples lie beyond it to make it more than a reading of the maximum.

/// A percentile is reported only with at least this many samples beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Sort a sample vector in place (NaN-safe total order).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank index of quantile `q` in a sorted sample of `n` values.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile of an already sorted, non-empty sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q)]
}

/// Quantile `q` of a sorted sample, withheld (`None`) when fewer than
/// [`TAIL_MIN_BEYOND`] samples lie beyond it.
pub fn tail_quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = rank(sorted.len(), q);
    (sorted.len() - 1 - idx >= TAIL_MIN_BEYOND).then(|| sorted[idx])
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    Some(quantile_sorted(&v, 0.5))
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Median and tail percentiles of one sample, sorted once.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// 95th percentile, if the tail rule allows it.
    pub p95: Option<f64>,
    /// 99th percentile, if the tail rule allows it.
    pub p99: Option<f64>,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise a sample; `None` when it is empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        sort(&mut v);
        Some(Summary {
            p50: quantile_sorted(&v, 0.5),
            p95: tail_quantile_sorted(&v, 0.95),
            p99: tail_quantile_sorted(&v, 0.99),
            max: v[v.len() - 1],
        })
    }
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the driver computes over repeated runs (Python's
/// `statistics.quantiles(values, n=4)`, exclusive method).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let cut = |i: usize| {
        // Exclusive method: position i*(n+1)/4, linearly interpolated and
        // clamped to the sample, exactly as CPython does.
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = if n.is_multiple_of(2) { (v[n / 2 - 1] + v[n / 2]) / 2.0 } else { v[n / 2] };
    (med != 0.0).then(|| (cut(3) - cut(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.95), 95.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn p95_is_withheld_under_ten_samples_beyond() {
        // 200 samples: rank of p95 is 190, ten samples (191..=200) lie beyond.
        let v200: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_quantile_sorted(&v200, 0.95), Some(190.0));
        // 199 samples: rank 190 (ceil(189.05)), only nine beyond — withheld.
        let v199: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_quantile_sorted(&v199, 0.95), None);
        // p99 needs 1000 samples.
        let v1000: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile_sorted(&v1000, 0.99), Some(990.0));
        assert_eq!(tail_quantile_sorted(&v200, 0.99), None);
        assert_eq!(tail_quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn summary_applies_the_tail_rule() {
        let s = Summary::of(&(1..=250).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.p50, s.max), (125.0, 250.0));
        assert_eq!(s.p95, Some(238.0));
        assert_eq!(s.p99, None);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn iqr_share_matches_cpython_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&v).unwrap();
        assert!((share - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{share}");
        assert_eq!(iqr_share(&[1.0]), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
    }
}
