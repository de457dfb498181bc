//! Deterministic random number generation for particle loading.
//!
//! Thin wrapper over `rand::rngs::SmallRng` adding a Box–Muller normal
//! sampler (the only distribution PIC loading needs beyond uniforms) and a
//! per-domain seeding convention so distributed runs are reproducible
//! regardless of rank count.

use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng};

/// Deterministic RNG for loaders and tests.
pub struct Rng {
    inner: SmallRng,
    spare_normal: Option<f64>,
}

impl Rng {
    /// Seeded constructor.
    pub fn seeded(seed: u64) -> Self {
        Rng {
            inner: SmallRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Seed for a domain in a multi-domain run: mixes the run seed with the
    /// rank so every rank draws an independent, reproducible stream.
    pub fn for_domain(run_seed: u64, rank: usize) -> Self {
        // SplitMix64 finalizer as the mixing function.
        let mut z = run_seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(rank as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng::seeded(z ^ (z >> 31))
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Standard normal via Box–Muller (pairs cached).
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        let (c, s) = box_muller(self.normal_pair_uniforms());
        self.spare_normal = Some(s);
        c
    }

    /// The two uniforms behind one Box–Muller pair, drawn exactly as
    /// [`Self::normal`] draws them (a `u1` at or below `MIN_POSITIVE` is
    /// redrawn), for callers that defer the transform ([`box_muller`]).
    pub(crate) fn normal_pair_uniforms(&mut self) -> [f64; 2] {
        loop {
            let u1 = self.uniform();
            if u1 > f64::MIN_POSITIVE {
                return [u1, self.uniform()];
            }
        }
    }

    /// Take the cached second normal of the last pair, if any.
    pub(crate) fn take_spare_normal(&mut self) -> Option<f64> {
        self.spare_normal.take()
    }

    /// Cache `z` as the normal the next [`Self::normal`] returns.
    pub(crate) fn set_spare_normal(&mut self, z: Option<f64>) {
        self.spare_normal = z;
    }

    /// Uniform integer in `0..n`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.inner.random_range(0..n)
    }
}

/// Box–Muller: the two standard normals `(r cos θ, r sin θ)` made from
/// one pair of [`Rng::normal_pair_uniforms`], `r = √(−2 ln u1)` and
/// `θ = 2π u2`; [`Rng::normal`] returns the first and caches the second.
#[inline]
pub(crate) fn box_muller([u1, u2]: [f64; 2]) -> (f64, f64) {
    let r = (-2.0 * u1.ln()).sqrt();
    let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
    (r * c, r * s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Rng::seeded(42);
        let mut b = Rng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn domain_streams_differ() {
        let mut a = Rng::for_domain(7, 0);
        let mut b = Rng::for_domain(7, 1);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::seeded(123);
        let n = 200_000;
        let (mut m1, mut m2) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let z = r.normal();
            m1 += z;
            m2 += z * z;
        }
        m1 /= n as f64;
        m2 /= n as f64;
        assert!(m1.abs() < 0.01, "mean {m1}");
        assert!((m2 - 1.0).abs() < 0.02, "var {m2}");
    }

    #[test]
    fn uniform_in_bounds() {
        let mut r = Rng::seeded(5);
        for _ in 0..1000 {
            let x = r.uniform_in(-3.0, 2.0);
            assert!((-3.0..2.0).contains(&x));
            let i = r.index(7);
            assert!(i < 7);
        }
    }
}
