//! Order statistics over measured samples.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between the
/// closest ranks; 0.0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A deterministic 64-bit generator (splitmix64) for the benchmark's own
/// draws: request mixes and submission orders.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn shuffles_repeat_per_seed() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix::new(3).shuffle(&mut a);
        SplitMix::new(3).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c = a.clone();
        c.sort_unstable();
        assert_eq!(c, (0..20).collect::<Vec<_>>());
    }
}
