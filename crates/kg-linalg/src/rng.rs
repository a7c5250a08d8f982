//! Seeded random-number helpers.
//!
//! Everything in the reproduction is deterministic given a `u64` seed: data
//! generation, embedding initialisation, mini-batch shuffling and the search
//! algorithms all take a [`SeededRng`]. The uniform source is a
//! self-contained xoshiro256++ generator (the build runs offline, so no
//! external `rand` dependency), seeded through SplitMix64 as the xoshiro
//! authors recommend; the normal sampler is a Box-Muller transform on top.

/// A deterministic RNG with convenience samplers for the reproduction.
pub struct SeededRng {
    /// xoshiro256++ state, never all-zero thanks to SplitMix64 seeding.
    state: [u64; 4],
    /// Cached second Box-Muller output.
    spare_normal: Option<f64>,
}

impl SeededRng {
    /// Construct from a `u64` seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the 256-bit state.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SeededRng { state: [next(), next(), next(), next()], spare_normal: None }
    }

    /// One xoshiro256++ step.
    #[inline]
    fn step(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.step() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)` (Lemire's multiply-shift reduction; the
    /// modulo bias at 64 bits is far below anything observable here).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        ((self.step() as u128 * n as u128) >> 64) as usize
    }

    /// Fair coin.
    #[inline]
    pub fn coin(&mut self) -> bool {
        self.step() & 1 == 1
    }

    /// ±1 with equal probability.
    #[inline]
    pub fn sign(&mut self) -> i8 {
        if self.coin() {
            1
        } else {
            -1
        }
    }

    /// Standard normal via Box-Muller.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0).
        let u1 = loop {
            let u = self.uniform();
            if u > 1e-12 {
                break u;
            }
        };
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal_ms(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// Fill `out` with Xavier/Glorot-uniform values for a tensor whose fan-in
    /// plus fan-out is `fan_sum` (embedding tables use `fan_sum = dim`,
    /// matching the common KGE initialisation).
    pub fn xavier_uniform(&mut self, fan_sum: usize, out: &mut [f32]) {
        let bound = (6.0 / fan_sum.max(1) as f64).sqrt();
        for v in out.iter_mut() {
            *v = self.uniform_range(-bound, bound) as f32;
        }
    }

    /// Fill `out` with `N(0, std)` values.
    pub fn fill_normal(&mut self, std: f64, out: &mut [f32]) {
        for v in out.iter_mut() {
            *v = self.normal_ms(0.0, std) as f32;
        }
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        if xs.is_empty() {
            return;
        }
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k ≤ n) via partial shuffle.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_distinct: k > n");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Raw u64 (for deriving sub-seeds).
    pub fn next_u64(&mut self) -> u64 {
        self.step()
    }
}

impl std::fmt::Debug for SeededRng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SeededRng(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SeededRng::new(42);
        let mut b = SeededRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SeededRng::new(7);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..n {
            let z = rng.normal();
            sum += z;
            sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn below_in_range() {
        let mut rng = SeededRng::new(3);
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }

    #[test]
    fn xavier_bound() {
        let mut rng = SeededRng::new(5);
        let mut buf = vec![0.0f32; 1000];
        rng.xavier_uniform(64, &mut buf);
        let bound = (6.0f32 / 64.0).sqrt();
        assert!(buf.iter().all(|v| v.abs() <= bound));
        // and actually spreads out
        assert!(buf.iter().any(|v| v.abs() > bound * 0.5));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SeededRng::new(9);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_distinct_no_repeats() {
        let mut rng = SeededRng::new(11);
        let s = rng.sample_distinct(20, 10);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 10);
        assert!(s.iter().all(|&i| i < 20));
    }
}
