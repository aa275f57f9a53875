//! The harness's own arithmetic: medians, quartiles, windowed rates and how
//! many samples lie beyond a percentile.

/// Median of `values` (mean of the two middle elements for even counts).
/// Returns 0 for an empty slice so a metric can always be printed.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// First quartile, median and third quartile of `values`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (
        quantile_sorted(&s, 0.25),
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, 0.75),
    )
}

/// Interquartile mean: the mean of what is left after dropping the lowest
/// and the highest quarter of `values`. Like the median it ignores a
/// minority of stalled or lucky samples; unlike the median it averages over
/// the rest, so a sample spread evenly between two modes gives a steady
/// value instead of flipping between them.
pub fn midmean(values: &[f64]) -> f64 {
    let s = sorted(values);
    let cut = s.len() / 4;
    let kept = &s[cut..s.len() - cut];
    if kept.is_empty() {
        return 0.0;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Operations completed in each of `windows` equal slices of a run of
/// `total_ns`, counted as they complete so no per-op timestamp is kept.
pub struct WindowCounter {
    total_ns: u64,
    counts: Vec<u64>,
}

impl WindowCounter {
    pub fn new(total_ns: u64, windows: usize) -> WindowCounter {
        assert!(total_ns > 0 && windows > 0, "a run has length and windows");
        WindowCounter {
            total_ns,
            counts: vec![0; windows],
        }
    }

    /// Count one operation that completed `t_ns` into the run. One that
    /// completed after the run's end belongs to no window and is skipped.
    pub fn note(&mut self, t_ns: u64) {
        if t_ns < self.total_ns {
            let w = (t_ns as u128 * self.counts.len() as u128 / self.total_ns as u128) as usize;
            self.counts[w] += 1;
        }
    }

    /// Operations per second in each window.
    pub fn rates(&self) -> Vec<f64> {
        let window_s = self.total_ns as f64 / self.counts.len() as f64 / 1e9;
        self.counts.iter().map(|&c| c as f64 / window_s).collect()
    }
}

/// The value at percentile `pct` (0–100) of an ascending sample, by the
/// nearest-rank rule.
pub fn percentile_sorted(sorted: &[u32], pct: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[nearest_rank(sorted.len(), pct).max(1) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `pct`
/// in a sample of `n`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    n - nearest_rank(n, pct)
}

/// 1-based nearest rank of percentile `pct` in a sample of `n`, at most
/// `n`. The epsilon keeps `99.0 % of 1000` at 990 despite binary rounding.
fn nearest_rank(n: usize, pct: f64) -> usize {
    let rank = (pct * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize;
    rank.min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let (q1, q2, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q1, q2, q3), (2.0, 3.0, 4.0));
    }

    #[test]
    fn midmean_drops_a_quarter_at_each_end() {
        assert_eq!(midmean(&[]), 0.0);
        assert_eq!(midmean(&[5.0]), 5.0);
        assert_eq!(midmean(&[1.0, 9.0]), 5.0);
        // Eight samples: the two lowest and two highest go, outlier included.
        let v = [10.0, 11.0, 1000.0, 12.0, 13.0, 0.0, 14.0, 15.0];
        assert_eq!(midmean(&v), (11.0 + 12.0 + 13.0 + 14.0) / 4.0);
        // Two modes in equal parts: between them, not on either.
        let modes = [4.0, 4.0, 4.0, 4.0, 6.0, 6.0, 6.0, 6.0];
        assert_eq!(midmean(&modes), 5.0);
    }

    #[test]
    fn windows_split_the_run_evenly() {
        // One completion every 10 ns, 4 windows of 100 ns; the op that
        // completes exactly at the end of the run is in no window.
        let mut w = WindowCounter::new(400, 4);
        (1..=40).for_each(|i| w.note(i * 10));
        assert_eq!(w.counts, &[9, 10, 10, 10]);
        assert_eq!(w.rates()[1], 10.0 / 100e-9);
    }

    #[test]
    fn a_stalled_window_does_not_move_the_median() {
        // 20 windows, one of which saw nothing.
        let mut w = WindowCounter::new(2000, 20);
        for win in (0..20u64).filter(|&win| win != 7) {
            (0..5).for_each(|i| w.note(win * 100 + i * 20 + 1));
        }
        assert_eq!(w.counts[7], 0);
        assert_eq!(median(&w.rates()), 5.0 / 100e-9);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(5000, 99.0), 50);
        assert_eq!(samples_beyond(5, 99.0), 0);
        let sorted: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&sorted, 99.0), 990);
        assert_eq!(percentile_sorted(&sorted, 50.0), 500);
        assert_eq!(percentile_sorted(&[], 50.0), 0);
    }
}
