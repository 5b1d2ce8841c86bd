//! Estimators: nearest-rank percentiles and the closed-loop window rates.

/// The `q`-th percentile (`0 < q ≤ 100`) of `xs` by the nearest-rank rule:
/// the value at 1-based rank `⌈q/100 · len⌉` of the sorted sample. Always a
/// measured value (no interpolation), so a median of integers stays an
/// integer. `None` for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank median; `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// One throughput window of a closed loop: the jobs that completed in it
/// and its measured length. A window closes at the first completion at or
/// after its nominal end, so its length is a measurement (never exactly the
/// nominal value) and no job is lost across a boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Jobs completed in the window.
    pub jobs: u64,
    /// Measured window length in seconds.
    pub secs: f64,
}

impl Window {
    /// Jobs per second; `0` for a window that saw no completion.
    pub fn rate(&self) -> f64 {
        if self.jobs == 0 || self.secs <= 0.0 {
            0.0
        } else {
            self.jobs as f64 / self.secs
        }
    }
}

/// Median of the window rates. An empty window counts as rate 0 (a stall
/// must pull the median down, not vanish from it); `None` without windows.
pub fn window_median(windows: &[Window]) -> Option<f64> {
    let rates: Vec<f64> = windows.iter().map(Window::rate).collect();
    median(&rates)
}

/// `(max − min) / median` of the window rates: the run's own noise.
pub fn window_spread(windows: &[Window]) -> Option<f64> {
    let rates: Vec<f64> = windows.iter().map(Window::rate).collect();
    let med = median(&rates)?;
    let max = rates.iter().copied().fold(f64::MIN, f64::max);
    let min = rates.iter().copied().fold(f64::MAX, f64::min);
    (med > 0.0).then(|| (max - min) / med)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_median_is_a_sample_value() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        // Even count: rank ⌈0.5·4⌉ = 2, the lower middle — not the mean.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[5.0, 1.0, 9.0]), Some(5.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        // Rank never drops below 1.
        assert_eq!(percentile(&[3.0, 8.0], 0.1), Some(3.0));
    }

    #[test]
    fn an_empty_window_counts_as_zero_throughput() {
        let w = |jobs, secs| Window { jobs, secs };
        assert_eq!(window_median(&[]), None);
        // Three windows, one stalled: the median is a real rate …
        assert_eq!(window_median(&[w(10, 2.0), w(0, 2.0), w(20, 2.0)]), Some(5.0));
        // … and two stalled windows drag it to zero.
        assert_eq!(window_median(&[w(0, 2.0), w(0, 0.0), w(20, 2.0)]), Some(0.0));
        assert_eq!(w(0, 0.0).rate(), 0.0);
    }

    #[test]
    fn window_spread_is_range_over_median() {
        let w = |jobs| Window { jobs, secs: 1.0 };
        assert_eq!(window_spread(&[w(90), w(100), w(110)]), Some(0.2));
        assert_eq!(window_spread(&[w(0), w(0), w(0)]), None);
    }
}
