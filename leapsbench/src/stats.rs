//! Order statistics over repeated timings and latency samples.

/// Samples a percentile must have beyond it before it is reported: a
/// tail read from fewer samples is one or two outliers, not a percentile.
pub const MIN_TAIL: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count), or `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A sorted sample set that keeps its count, so every percentile read
/// from it can say how many samples it rests on.
#[derive(Debug, Clone)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    pub fn new(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(f64::total_cmp);
        Summary { sorted: samples }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank `q`-quantile (`0 < q <= 1`), or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let rank = self.rank(q)?;
        Some(self.sorted[rank - 1])
    }

    /// The `q`-quantile only when at least [`MIN_TAIL`] samples lie
    /// strictly above its rank.
    pub fn supported_quantile(&self, q: f64) -> Option<f64> {
        let rank = self.rank(q)?;
        (self.sorted.len() - rank >= MIN_TAIL).then(|| self.sorted[rank - 1])
    }

    fn rank(&self, q: f64) -> Option<usize> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        Some(rank.clamp(1, n))
    }
}

/// Median over windows of each window's supported `q`-quantile; windows
/// too small to support it are left out. `None` if none is left.
pub fn windowed_quantile(windows: &[Vec<f64>], q: f64) -> Option<f64> {
    let per_window: Vec<f64> =
        windows.iter().filter_map(|w| Summary::new(w.clone()).supported_quantile(q)).collect();
    median(&per_window)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_quantiles_keep_the_count() {
        let s = Summary::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.count(), 100);
        assert_eq!(s.quantile(0.5), Some(50.0));
        assert_eq!(s.quantile(0.9), Some(90.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(Summary::new(Vec::new()).quantile(0.5), None);
    }

    #[test]
    fn windowed_quantile_is_the_median_over_windows() {
        let window = |offset: f64| (1..=100).map(|v| f64::from(v) + offset).collect::<Vec<_>>();
        // One stalled window does not move the median of the p90s.
        let windows =
            vec![window(0.0), window(1.0), window(1000.0), (1..=5).map(f64::from).collect()];
        assert_eq!(windowed_quantile(&windows, 0.9), Some(91.0));
        assert_eq!(windowed_quantile(&windows[3..], 0.9), None, "too few samples");
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples has exactly 10 above it: reported.
        let s = Summary::new((1..=100).map(f64::from).collect());
        assert_eq!(s.supported_quantile(0.9), Some(90.0));
        // p90 of 99 samples has 9 above it: withheld.
        let s = Summary::new((1..=99).map(f64::from).collect());
        assert_eq!(s.supported_quantile(0.9), None);
        assert_eq!(s.supported_quantile(0.5), Some(50.0));
    }
}
