//! Order statistics over measured samples.

/// Linear-interpolated quantile `q` of `xs` (Hyndman–Fan type 7, as
/// numpy's default), sorting in place. Empty input reads 0.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    if xs.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// Median of `xs` (sorts in place).
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Quantile `q` of integer-nanosecond samples, estimated as the mean of the
/// samples whose rank lies within ±0.5 % of `q` (at least the one sample at
/// the rank itself). Integer samples would otherwise give integer
/// quantiles that can read identically run after run; the central mean is
/// as robust and keeps the digits the data has. Sorts in place.
pub fn quantile_ns(xs: &mut [u32], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let n = xs.len();
    let at = (q.clamp(0.0, 1.0) * (n - 1) as f64).round() as usize;
    let half = n / 200;
    let lo = at.saturating_sub(half);
    let hi = (at + half).min(n - 1);
    let sum: u64 = xs[lo..=hi].iter().map(|&x| u64::from(x)).sum();
    sum as f64 / (hi - lo + 1) as f64
}

/// `a / b`, reading 0 when `b` is 0 (a ratio over no events).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type7_quantiles() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn central_mean_quantile() {
        let mut xs: Vec<u32> = (0..1000).rev().collect();
        // Rank 499.5 rounds to 500; ranks 495..=505 are averaged.
        assert_eq!(quantile_ns(&mut xs, 0.5), 500.0);
        let mut one = vec![7u32];
        assert_eq!(quantile_ns(&mut one, 0.99), 7.0);
    }
}
