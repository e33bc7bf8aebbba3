//! Deterministic pseudo-random data generation.
//!
//! Every experiment in the paper depends on synthetic data: the Balkesen
//! workloads A/B, the selectivity/payload/skew sweeps, and TPC-H itself.
//! Using our own small RNG (SplitMix64) instead of an external crate makes
//! generation bit-for-bit reproducible across platforms and versions — the
//! harness can cite a seed and anyone can regenerate the exact relation.
//!
//! The Zipf sampler uses rejection-inversion (Hörmann & Derflinger, 1996),
//! i.e. O(1) per sample with no precomputed CDF, which matters because the
//! skew sweep (Fig 17) draws hundreds of millions of samples.

/// SplitMix64: tiny, fast, passes BigCrush, and — crucially — deterministic.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)` via Lemire's multiply-shift (unbiased).
    #[inline]
    pub fn u64_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "u64_below(0)");
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform in `[lo, hi]` (inclusive).
    #[inline]
    pub fn i64_range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + self.u64_below(span) as i64
    }

    /// Uniform in `[lo, hi]` (inclusive), 32-bit.
    #[inline]
    pub fn i32_range(&mut self, lo: i32, hi: i32) -> i32 {
        self.i64_range(i64::from(lo), i64::from(hi)) as i32
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.u64_below(items.len() as u64) as usize]
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.u64_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// A random permutation of `0..n` as `u64`s.
    pub fn permutation(&mut self, n: usize) -> Vec<u64> {
        let mut v: Vec<u64> = (0..n as u64).collect();
        self.shuffle(&mut v);
        v
    }

    /// Random ASCII string of lowercase letters with length in `[min, max]`,
    /// written into `out`. The draws are the same whether or not there is an
    /// `out`, so a caller that does not need the string still advances the
    /// stream exactly as one that does.
    pub fn alpha_string(&mut self, min: usize, max: usize, mut out: Option<&mut String>) {
        let len = min + self.u64_below((max - min + 1) as u64) as usize;
        if let Some(s) = out.as_deref_mut() {
            s.clear();
        }
        for _ in 0..len {
            let c = (b'a' + self.u64_below(26) as u8) as char;
            if let Some(s) = out.as_deref_mut() {
                s.push(c);
            }
        }
    }

    /// Derive an independent stream (for per-thread / per-table generators).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64() ^ 0xA076_1D64_78BD_642F)
    }
}

/// Zipf-distributed ranks in `[1, n]` with exponent `z >= 0`.
///
/// `z = 0` degenerates to the uniform distribution (the paper's skew sweep
/// starts there); `z = 2` is the paper's "high skew" endpoint where >50% of
/// probes hit the hottest 20% of build keys.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    exponent: f64,
    h_integral_x1: f64,
    h_integral_n: f64,
    s: f64,
}

impl Zipf {
    pub fn new(n: u64, exponent: f64) -> Zipf {
        assert!(n > 0, "Zipf over empty domain");
        assert!(exponent >= 0.0, "negative Zipf exponent");
        let nf = n as f64;
        if exponent == 0.0 {
            // Uniform; sampled via the fast path below.
            return Zipf {
                n: nf,
                exponent,
                h_integral_x1: 0.0,
                h_integral_n: 0.0,
                s: 0.0,
            };
        }
        let h_integral_x1 = h_integral(1.5, exponent) - 1.0;
        let h_integral_n = h_integral(nf + 0.5, exponent);
        let s = 2.0 - h_integral_inv(h_integral(2.5, exponent) - h(2.0, exponent), exponent);
        Zipf {
            n: nf,
            exponent,
            h_integral_x1,
            h_integral_n,
            s,
        }
    }

    /// Draw one rank in `[1, n]`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.exponent == 0.0 {
            return 1 + rng.u64_below(self.n as u64);
        }
        loop {
            let u = self.h_integral_n + rng.f64() * (self.h_integral_x1 - self.h_integral_n);
            let x = h_integral_inv(u, self.exponent);
            let k = x.clamp(1.0, self.n).round();
            if k - x <= self.s || u >= h_integral(k + 0.5, self.exponent) - h(k, self.exponent) {
                return k as u64;
            }
        }
    }
}

/// Integral of the hat function: `H(x) = (x^(1-e) - 1) / (1 - e)`, continuous
/// at `e = 1` where it becomes `ln(x)`.
fn h_integral(x: f64, exponent: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - exponent) * log_x) * log_x
}

/// The hat function `h(x) = x^-e`.
fn h(x: f64, exponent: f64) -> f64 {
    (-exponent * x.ln()).exp()
}

/// Inverse of [`h_integral`].
fn h_integral_inv(x: f64, exponent: f64) -> f64 {
    let mut t = x * (1.0 - exponent);
    if t < -1.0 {
        // Round-off guard: t must stay in the domain of ln1p.
        t = -1.0;
    }
    (helper1(t) * x).exp()
}

/// `log(1 + x) / x`, stable near zero.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `(exp(x) - 1) / x`, stable near zero.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn u64_below_respects_bound() {
        let mut rng = Rng::new(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.u64_below(bound) < bound);
            }
        }
    }

    #[test]
    fn i64_range_inclusive_hits_both_ends() {
        let mut rng = Rng::new(9);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            let v = rng.i64_range(-3, 3);
            assert!((-3..=3).contains(&v));
            seen_lo |= v == -3;
            seen_hi |= v == 3;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn f64_in_unit_interval_with_plausible_mean() {
        let mut rng = Rng::new(11);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = Rng::new(13);
        let p = rng.permutation(1000);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u64>>());
        // And it is (overwhelmingly likely) not the identity.
        assert_ne!(p, (0..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = Rng::new(17);
        let mut v = vec![1, 1, 2, 3, 5, 8, 13];
        let mut expected = v.clone();
        rng.shuffle(&mut v);
        v.sort_unstable();
        expected.sort_unstable();
        assert_eq!(v, expected);
    }

    #[test]
    fn alpha_string_length_bounds() {
        let mut rng = Rng::new(19);
        let mut s = String::new();
        for _ in 0..100 {
            rng.alpha_string(3, 9, Some(&mut s));
            assert!((3..=9).contains(&s.len()));
            assert!(s.bytes().all(|b| b.is_ascii_lowercase()));
        }
    }

    #[test]
    fn alpha_string_without_output_draws_the_same() {
        let (mut a, mut b) = (Rng::new(23), Rng::new(23));
        let mut s = String::new();
        for _ in 0..100 {
            a.alpha_string(3, 9, Some(&mut s));
            b.alpha_string(3, 9, None);
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let mut rng = Rng::new(23);
        let z = Zipf::new(10, 0.0);
        let mut counts = [0usize; 11];
        let n = 100_000;
        for _ in 0..n {
            let k = z.sample(&mut rng) as usize;
            assert!((1..=10).contains(&k));
            counts[k] += 1;
        }
        for &c in &counts[1..=10] {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.1).abs() < 0.01, "uniform bucket fraction {frac}");
        }
    }

    #[test]
    fn zipf_one_matches_harmonic_frequencies() {
        let mut rng = Rng::new(29);
        let n_keys = 1000u64;
        let z = Zipf::new(n_keys, 1.0);
        let samples = 200_000;
        let mut count_rank1 = 0usize;
        for _ in 0..samples {
            if z.sample(&mut rng) == 1 {
                count_rank1 += 1;
            }
        }
        let harmonic: f64 = (1..=n_keys).map(|k| 1.0 / k as f64).sum();
        let expected = 1.0 / harmonic;
        let observed = count_rank1 as f64 / samples as f64;
        assert!(
            (observed - expected).abs() < expected * 0.1,
            "rank-1 frequency {observed} vs expected {expected}"
        );
    }

    #[test]
    fn zipf_two_is_heavily_skewed() {
        let mut rng = Rng::new(31);
        let z = Zipf::new(1_000_000, 2.0);
        let samples = 50_000;
        let mut top20 = 0usize;
        for _ in 0..samples {
            let k = z.sample(&mut rng);
            assert!((1..=1_000_000).contains(&k));
            if k <= 200_000 {
                top20 += 1;
            }
        }
        // The paper: for z > 1, "more than 50% of the tuples find their join
        // partner in the first 20% of the build relation".
        assert!(top20 as f64 / samples as f64 > 0.5);
    }

    #[test]
    fn zipf_exponent_sweep_stays_in_range() {
        let mut rng = Rng::new(37);
        for z in [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0] {
            let d = Zipf::new(12345, z);
            for _ in 0..2000 {
                let k = d.sample(&mut rng);
                assert!((1..=12345).contains(&k), "z={z} produced {k}");
            }
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Rng::new(99);
        let mut a = root.fork();
        let mut b = root.fork();
        let equal = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(equal, 0);
    }
}
