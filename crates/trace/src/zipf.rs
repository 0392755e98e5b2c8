//! Zipfian sampling over ranked items.
//!
//! Server-workload hot-data popularity and function-call popularity are both
//! modeled as Zipf distributions; the exponent is the knob that moves a
//! workload between "few hot items" (steep) and "flat, long-tailed" access.

use rand::Rng;

/// A Zipf(α) sampler over ranks `0..n` using a precomputed CDF.
///
/// A draw is the first rank whose CDF reaches a uniform `u`, found through
/// a guide table (Chen and Asau's indexed search): `m` buckets, `m` the
/// largest power of two ≤ max(n / 4, 1), where `guide[j]` is the first rank
/// whose CDF reaches `j / m`. `u` falls in each bucket with probability
/// `1 / m`, so a draw binary-searches fewer than 8 ranks on average instead
/// of all n, and returns exactly the rank a search of the whole CDF
/// returns. The guide adds about one byte per rank to the CDF's eight.
/// Construction is O(n). The search is exact, which keeps trace generation
/// deterministic across platforms.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `alpha`.
    ///
    /// `alpha == 0.0` degenerates to the uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is negative/non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "zipf over zero items");
        assert!(alpha >= 0.0 && alpha.is_finite(), "invalid zipf exponent {alpha}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point shortfall at the tail.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        // A power-of-two count makes every `j / m` and `u * m` exact, so
        // the bucket of `u` always brackets its rank.
        let m = 1usize << (n / 4).max(1).ilog2();
        let mut guide = Vec::with_capacity(m + 1);
        let mut rank = 0;
        for j in 0..=m {
            let edge = j as f64 / m as f64;
            // The last CDF entry is 1.0 ≥ every edge, so `rank` stays < n.
            while cdf[rank] < edge {
                rank += 1;
            }
            guide.push(u32::try_from(rank).expect("zipf ranks fit in u32"));
        }
        Self { cdf, guide }
    }

    /// Number of ranks.
    #[inline]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the sampler has exactly one rank.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a rank in `0..len()`; rank 0 is the most popular.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The first rank whose CDF reaches `u ∈ [0, 1)`: the same rank as
    /// `cdf.partition_point(|&c| c < u)`, searched within `u`'s bucket.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let m = self.guide.len() - 1;
        let j = (u * m as f64) as usize;
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        lo + self.cdf[lo..hi].partition_point(|&c| c < u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn uniform_when_alpha_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn steep_alpha_concentrates_on_rank_zero() {
        let z = Zipf::new(1000, 1.5);
        let mut rng = SmallRng::seed_from_u64(2);
        let mut head = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // With alpha=1.5 the top-10 of 1000 carry well over half the mass.
        assert!(head > N / 2, "head draws: {head}");
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(7, 0.9);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn guide_search_equals_a_full_cdf_search() {
        let mut rng = SmallRng::seed_from_u64(5);
        for alpha in [0.0, 0.4, 1.0, 1.4] {
            for n in [1, 2, 7, 1000, 120_000] {
                let z = Zipf::new(n, alpha);
                let m = z.guide.len() - 1;
                assert!(m.is_power_of_two() && m <= n, "n={n}: {m} buckets");
                let full = |u: f64| z.cdf.partition_point(|&c| c < u);
                // Every bucket edge, and the largest value below each.
                let edges = (0..m).map(|j| j as f64 / m as f64);
                let below = (1..=m).map(|j| (j as f64 / m as f64).next_down());
                let random = (0..20_000).map(|_| rng.gen::<f64>());
                for u in edges.chain(below).chain(random) {
                    assert_eq!(z.rank_of(u), full(u), "alpha={alpha} n={n} u={u}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "zipf over zero items")]
    fn zero_items_panics() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn single_item_always_zero() {
        let z = Zipf::new(1, 2.0);
        let mut rng = SmallRng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }
}
