//! Order statistics for the reported timings.
//!
//! Every latency is reported as a median plus the highest percentile that
//! still has at least [`TAIL_BEYOND`] samples beyond it (capped at p99), so
//! a tail figure is never the single slowest sample of a small run.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The nearest-rank percentile `p` (in `(0, 1]`) of `xs`; `0.0` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return 0.0;
    }
    s[rank(s.len(), p)]
}

/// The tail figure: the highest percentile, at most `cap`, with at least
/// [`TAIL_BEYOND`] samples strictly beyond it, as `(value, percentile)`.
/// `None` when there are too few samples for any such percentile.
pub fn tail(xs: &[f64], cap: f64) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let k = rank(n, cap).min(n - 1 - TAIL_BEYOND);
    Some((s[k], (k + 1) as f64 / n as f64))
}

/// 0-based nearest-rank index of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990 and exactly ten lie beyond it.
        let xs = ramp(1000);
        assert_eq!(tail(&xs, 0.99), Some((990.0, 0.99)));
        // 500 samples: p99 would leave only five beyond, so the rule
        // steps down to rank 490 (p98).
        let (v, p) = tail(&ramp(500), 0.99).expect("enough samples");
        assert_eq!(v, 490.0);
        assert!((p - 0.98).abs() < 1e-12);
        assert_eq!(ramp(500).iter().filter(|&&x| x > v).count(), 10);
        // 11 samples: only the minimum has ten beyond it.
        assert_eq!(tail(&ramp(11), 0.99), Some((1.0, 1.0 / 11.0)));
        // 10 samples: no percentile qualifies.
        assert_eq!(tail(&ramp(10), 0.99), None);
    }
}
