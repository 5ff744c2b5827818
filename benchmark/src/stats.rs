//! Order statistics for timing samples.

/// Nearest-rank percentile `p` (0..=100) of `xs`; `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median (nearest-rank p50).
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// Percentile `p` (0..=100) of `xs`, interpolated linearly between the
/// two nearest ranks (so the p50 of an even count is the mean of the
/// middle two); `None` when empty.
pub fn interpolated(xs: &[f64], p: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (p / 100.0).clamp(0.0, 1.0) * (v.len().checked_sub(1)? as f64);
    let (lo, frac) = (h.floor() as usize, h.fract());
    Some(v[lo] + frac * (v[(lo + 1).min(v.len() - 1)] - v[lo]))
}

/// A timing summary: median, one tail percentile and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median sample.
    pub p50: f64,
    /// The tail percentile reported.
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples strictly beyond the tail rank.
    pub beyond: usize,
}

/// Summarizes `xs` with the tail at `tail_pct`.
pub fn summarize(xs: &[f64], tail_pct: f64) -> Option<Summary> {
    let p50 = median(xs)?;
    let tail = percentile(xs, tail_pct)?;
    let rank = ((tail_pct / 100.0) * xs.len() as f64).ceil() as usize;
    Some(Summary { p50, tail_pct, tail, n: xs.len(), beyond: xs.len() - rank.min(xs.len()) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&[3.0], 99.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
        let s = summarize(&xs, 90.0).unwrap();
        assert_eq!((s.n, s.beyond), (100, 10));
    }

    #[test]
    fn interpolated_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(interpolated(&xs, 50.0), Some(2.5));
        assert_eq!(interpolated(&xs, 75.0), Some(3.25));
        assert_eq!(interpolated(&xs, 0.0), Some(1.0));
        assert_eq!(interpolated(&xs, 100.0), Some(4.0));
        assert_eq!(interpolated(&[7.0], 75.0), Some(7.0));
        assert_eq!(interpolated(&[], 50.0), None);
    }
}
