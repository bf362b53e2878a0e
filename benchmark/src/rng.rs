//! The benchmark's only source of randomness: SplitMix64 streams derived
//! from `--seed`, and a Zipf sampler over them.

/// A SplitMix64 generator. Each input family draws from its own stream
/// ([`SplitMix64::stream`]) so adding draws to one family never shifts
/// another's inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream named `name` of run seed `seed`.
    pub fn stream(seed: u64, name: &str) -> Self {
        SplitMix64(seed ^ crate::fnv1a(name.as_bytes()))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(`s`) over ranks `0..n` (rank 0 most popular), by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution `P(rank k) ∝ 1 / (k + 1)^s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64) -> Vec<usize> {
        let zipf = Zipf::new(20_000, 1.0);
        let mut rng = SplitMix64::stream(seed, "zipf");
        (0..2_000).map(|_| zipf.sample(&mut rng)).collect()
    }

    #[test]
    fn zipf_is_identical_per_seed_and_differs_across_seeds() {
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let d = draws(7);
        let top = d.iter().filter(|&&r| r < 10).count();
        let tail = d.iter().filter(|&&r| r >= 10_000).count();
        // P(rank < 10) ≈ H_10 / H_20000 ≈ 0.29; P(rank ≥ 10^4) ≈ 0.07.
        assert!(top > 400 && top < 760, "{top}");
        assert!(tail > 60 && tail < 240, "{tail}");
        assert!(d.iter().all(|&r| r < 20_000));
    }

    #[test]
    fn streams_are_independent() {
        let mut a = SplitMix64::stream(1, "a");
        let mut b = SplitMix64::stream(1, "b");
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
