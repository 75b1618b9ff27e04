//! Seeded samplers: everything random in a workload comes from one
//! [`SplitMix64`] stream started from `--seed`, so the same seed gives the
//! same inputs on every machine.

/// The splitmix64 generator: tiny and fully determined by its seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// An independent stream for one named purpose, so adding draws to one
    /// part of a workload does not shift the draws of another.
    pub fn fork(&mut self, purpose: &str) -> SplitMix64 {
        let mut seed = self.next_u64();
        for byte in purpose.bytes() {
            seed = (seed ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        SplitMix64(seed)
    }
}

/// Exact Zipf sampler over ranks `0..n` (rank 0 hottest), by inverse CDF
/// over the normalised weights `1 / (rank + 1)^exponent`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Map a uniform draw in `[0, 1)` to a rank.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix64::new(7);
        let mut d = SplitMix64::new(7);
        assert_ne!(c.fork("zipf").next_u64(), d.fork("shuffle").next_u64());
        assert_ne!(SplitMix64::new(8).next_u64(), xs[0]);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut items: Vec<usize> = (0..100).collect();
        SplitMix64::new(3).shuffle(&mut items);
        let mut again: Vec<usize> = (0..100).collect();
        SplitMix64::new(3).shuffle(&mut again);
        assert_eq!(items, again);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_reproducible_and_skewed() {
        let zipf = Zipf::new(64, 1.1);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..20_000)
                .map(|_| zipf.rank(rng.next_f64()))
                .collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert!(a.iter().all(|&r| r < 64));
        let share = |rank| a.iter().filter(|&&r| r == rank).count() as f64 / a.len() as f64;
        // Exact weights: rank 0 holds 1/H(64, 1.1) ≈ 0.25 of the mass.
        assert!((share(0) - 0.25).abs() < 0.02, "rank 0 share {}", share(0));
        assert!(share(0) > 1.9 * share(1) && share(1) > share(7));
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.999_999_999), 63);
    }
}
