//! Order statistics and the stable digest used for verdict comparison.

use std::fmt::Debug;

/// Median of `v` (mean of the two middle values for even lengths).
/// `NaN` for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v`. `NaN` when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Percentile levels the tail is chosen from, highest first. Higher
/// levels were tried: on a shared 2-vCPU host their run-to-run spread
/// (p90 12-24%, p99 12-19% of the median) left no usable bound.
const TAIL_LEVELS: [f64; 2] = [0.75, 0.5];

/// The highest percentile of [`TAIL_LEVELS`] with at least ten samples
/// beyond it, and its value: `(level, value)`. Falls back to the median
/// when there are fewer than 20 samples.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let n = v.len() as f64;
    let level = TAIL_LEVELS.into_iter().find(|&p| n * (1.0 - p) >= 10.0).unwrap_or(0.5);
    (level, quantile(v, level))
}

/// 64-bit FNV-1a over the `Debug` renderings of whatever is fed in: a
/// digest that is stable across runs, threads and hosts, used to compare
/// verdicts byte for byte.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn feed<T: Debug + ?Sized>(&mut self, item: &T) {
        for b in format!("{item:?}").bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v), (0.75, 74.25));
        assert_eq!(tail(&v[..40]).0, 0.75);
        assert_eq!(tail(&v[..39]).0, 0.5);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.feed("x");
        a.feed("y");
        let mut b = Digest::default();
        b.feed("y");
        b.feed("x");
        assert_ne!(a.value(), b.value());
    }
}
