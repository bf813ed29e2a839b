//! The benchmark's own random numbers and stream fingerprint.
//!
//! Nothing here is shared with the repository's workload code on purpose:
//! a change to `h2util::rng` or `h2workload` must not be able to change
//! the load this benchmark generates (the pinned fingerprints would say so
//! if it did).

/// SplitMix64: one `u64` of state, full period, good enough mixing for
/// picking operation kinds and targets.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A decorrelated child stream for `label` under `seed`.
    pub fn derived(seed: u64, label: &str) -> Self {
        let mut fp = Fingerprint::default();
        fp.word(seed);
        fp.bytes(label.as_bytes());
        Rng(fp.a ^ fp.b.rotate_left(32))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); multiply-shift, bias below 2⁻⁴⁰ for the
    /// ranges used here.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// `exp(N(mu, sigma))` clamped to `[min, max]`.
    pub fn log_normal(&mut self, mu: f64, sigma: f64, min: f64, max: f64) -> u64 {
        (mu + sigma * self.normal()).exp().clamp(min, max) as u64
    }

    /// Index drawn with probability proportional to `weights[i]`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut u = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if u < *w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }
}

/// Zipf(s) over ranks `0..n` by inversion on a precomputed CDF: O(log n)
/// per sample.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|p| *p <= u)
            .min(self.cdf.len() - 1)
    }
}

/// 128-bit order-sensitive fingerprint of a stream of words and byte
/// strings: two multiply–xorshift lanes with different constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    a: u64,
    b: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint {
            a: 0x243F_6A88_85A3_08D3,
            b: 0x1319_8A2E_0370_7344,
        }
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.a ^= self.a >> 29;
        self.b = (self.b.rotate_left(23) ^ w).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        self.b ^= self.b >> 31;
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub fn value(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ_by_label() {
        let mut a = Rng::derived(7, "x");
        let mut b = Rng::derived(7, "x");
        let mut c = Rng::derived(7, "y");
        let (va, vb, vc): (Vec<u64>, Vec<u64>, Vec<u64>) = (
            (0..8).map(|_| a.next_u64()).collect(),
            (0..8).map(|_| b.next_u64()).collect(),
            (0..8).map(|_| c.next_u64()).collect(),
        );
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn below_and_weighted_stay_in_range() {
        let mut r = Rng::new(1);
        for n in [1usize, 2, 7, 4096] {
            for _ in 0..1000 {
                assert!(r.below(n) < n);
            }
        }
        let w = [0.0, 3.0, 0.0, 1.0];
        let mut hits = [0usize; 4];
        for _ in 0..4000 {
            hits[r.weighted(&w)] += 1;
        }
        assert_eq!(hits[0] + hits[2], 0);
        assert!(hits[1] > 2 * hits[3]);
    }

    #[test]
    fn zipf_is_skewed_towards_low_ranks() {
        let z = Zipf::new(100, 1.1);
        let mut r = Rng::new(3);
        let low = (0..10_000).filter(|_| z.sample(&mut r) < 10).count();
        assert!(low > 5_000, "{low}");
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        let mut x = Fingerprint::default();
        x.word(1);
        x.word(2);
        let mut y = Fingerprint::default();
        y.word(2);
        y.word(1);
        assert_ne!(x.value(), y.value());
    }
}
