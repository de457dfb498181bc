//! Takizuka–Abe (1977) binary Monte-Carlo Coulomb collisions — VPIC's
//! particle collision operator. Hohlraum LPI runs use it to set realistic
//! electron distributions; here it also provides the classic relaxation
//! benchmarks (anisotropy relaxation, beam slowing).
//!
//! Within each cell, particles of the colliding species are paired at
//! random and each pair's relative velocity is rotated by a random
//! small-angle deflection whose variance follows the TA77 prescription:
//!
//! ```text
//! ⟨δ²⟩ = ν0 · n · Δt / u³        (δ = tan(θ/2), u = |relative velocity|)
//! ```
//!
//! with `ν0` absorbing `q²q'²lnΛ/(8πε0²m_r²)` in normalized units. Each
//! scattering event conserves momentum and energy *exactly* (to float
//! roundoff) — the property the tests pin down.

use crate::aosoa::AosoaStore;
use crate::grid::Grid;
use crate::rng::Rng;
use crate::species::Species;

/// Intra-species TA77 collision operator.
#[derive(Clone, Copy, Debug)]
pub struct CollisionOperator {
    /// Base collisionality `ν0` (normalized; larger = more collisional).
    pub nu0: f64,
    /// Apply every this many steps (Δt is scaled accordingly).
    pub interval: usize,
}

impl CollisionOperator {
    /// New operator.
    pub fn new(nu0: f64, interval: usize) -> Self {
        assert!(nu0 >= 0.0 && interval >= 1);
        CollisionOperator { nu0, interval }
    }

    /// Apply one collisional step to a species (pairs particles within
    /// each voxel; the species must be voxel-sorted — call `sp.sort(g)`
    /// first or rely on the simulation's sort interval).
    ///
    /// Number density per cell is estimated from the resident statistical
    /// weight over the cell volume, so loaders with any weight convention
    /// work.
    pub fn apply(&self, sp: &mut Species, g: &Grid, rng: &mut Rng) {
        if self.nu0 == 0.0 || sp.len() < 2 {
            return;
        }
        let dt_coll = g.dt as f64 * self.interval as f64;
        let dv = g.dv() as f64;
        // Walk runs of equal voxel index (requires sorted particles).
        let parts = sp.store_mut();
        let n = parts.len();
        debug_assert!(
            (1..n).all(|k| parts.voxel(k - 1) <= parts.voxel(k)),
            "collision operator needs voxel-sorted particles"
        );
        let mut start = 0usize;
        while start < n {
            let voxel = parts.voxel(start);
            let mut end = start + 1;
            while end < n && parts.voxel(end) == voxel {
                end += 1;
            }
            let count = end - start;
            if count >= 2 {
                let weight: f64 = (start..end).map(|k| parts.get(k).w as f64).sum();
                let density = weight / dv;
                // Random pairing: Fisher-Yates a local index permutation.
                let mut idx: Vec<usize> = (start..end).collect();
                for i in (1..count).rev() {
                    idx.swap(i, rng.index(i + 1));
                }
                let mut k = 0;
                while k + 1 < count {
                    let (a, b) = (idx[k], idx[k + 1]);
                    self.scatter_pair(parts, a, b, density, dt_coll, rng);
                    k += 2;
                }
                // Odd particle out: collide it with the first (TA77's
                // triplet trick, halving its effective Δt, approximated
                // here by a plain extra pairing at half weight).
                if count % 2 == 1 && count >= 3 {
                    let (a, b) = (idx[count - 1], idx[0]);
                    self.scatter_pair(parts, a, b, 0.5 * density, dt_coll, rng);
                }
            }
            start = end;
        }
    }

    /// Scatter one pair (non-relativistic center-of-momentum rotation;
    /// valid for the thermal plasmas the benchmark targets).
    fn scatter_pair(
        &self,
        parts: &mut AosoaStore,
        a: usize,
        b: usize,
        density: f64,
        dt: f64,
        rng: &mut Rng,
    ) {
        let (mut pa, mut pb) = (parts.get(a), parts.get(b));
        let (ux, uy, uz) = (
            pa.ux as f64 - pb.ux as f64,
            pa.uy as f64 - pb.uy as f64,
            pa.uz as f64 - pb.uz as f64,
        );
        let u2 = ux * ux + uy * uy + uz * uz;
        if u2 < 1e-24 {
            return;
        }
        let u = u2.sqrt();
        let u_perp = (ux * ux + uy * uy).sqrt();

        // TA77 deflection: δ = tan(θ/2), Gaussian with the 1/u³ variance.
        let var = self.nu0 * density * dt / (u * u2);
        let delta = rng.normal() * var.sqrt();
        let sin_t = 2.0 * delta / (1.0 + delta * delta);
        let one_m_cos = 2.0 * delta * delta / (1.0 + delta * delta);
        let phi = 2.0 * std::f64::consts::PI * rng.uniform();
        let (sp, cp) = phi.sin_cos();

        // Rotate the relative velocity (TA77 eq. 4a-c).
        let (dux, duy, duz) = if u_perp > 1e-12 * u {
            (
                (ux / u_perp) * uz * sin_t * cp - (uy / u_perp) * u * sin_t * sp - ux * one_m_cos,
                (uy / u_perp) * uz * sin_t * cp + (ux / u_perp) * u * sin_t * sp - uy * one_m_cos,
                -u_perp * sin_t * cp - uz * one_m_cos,
            )
        } else {
            // u along z: rotate directly.
            (u * sin_t * cp, u * sin_t * sp, -uz * one_m_cos)
        };

        // Equal masses (intra-species): each particle takes half the
        // relative-velocity change, which conserves both momentum and
        // kinetic energy exactly.
        pa.ux += (0.5 * dux) as f32;
        pa.uy += (0.5 * duy) as f32;
        pa.uz += (0.5 * duz) as f32;
        pb.ux -= (0.5 * dux) as f32;
        pb.uy -= (0.5 * duy) as f32;
        pb.uz -= (0.5 * duz) as f32;
        parts.set(a, pa);
        parts.set(b, pb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxwellian::{load_uniform, Momentum};

    fn collisional_plasma(
        uth: [f32; 3],
        nu0: f64,
        seed: u64,
    ) -> (Species, Grid, CollisionOperator, Rng) {
        let g = Grid::periodic((4, 4, 4), (0.5, 0.5, 0.5), 0.05);
        let mut sp = Species::new("e", -1.0, 1.0);
        let mut rng = Rng::seeded(seed);
        load_uniform(
            &mut sp,
            &g,
            &mut rng,
            1.0,
            64,
            Momentum {
                uth,
                drift: [0.0; 3],
            },
        );
        sp.sort(&g);
        (sp, g, CollisionOperator::new(nu0, 1), rng)
    }

    #[test]
    fn conserves_momentum_and_energy() {
        let (mut sp, g, op, mut rng) = collisional_plasma([0.05, 0.05, 0.05], 1e-4, 1);
        let p0 = sp.momentum(&g);
        let e0 = sp.kinetic_energy(&g);
        for _ in 0..10 {
            op.apply(&mut sp, &g, &mut rng);
        }
        let p1 = sp.momentum(&g);
        let e1 = sp.kinetic_energy(&g);
        let pscale = sp.len() as f64 * 0.05 * sp.get(0).w as f64;
        for ax in 0..3 {
            assert!(
                (p1[ax] - p0[ax]).abs() < 1e-4 * pscale,
                "momentum drifted: {p0:?} -> {p1:?}"
            );
        }
        assert!((e1 - e0).abs() / e0 < 1e-4, "energy drifted: {e0} -> {e1}");
    }

    #[test]
    fn relaxes_temperature_anisotropy() {
        // Tx ≫ Ty, Tz: collisions must push the ratio toward 1.
        let (mut sp, g, op, mut rng) = collisional_plasma([0.1, 0.02, 0.02], 0.02, 2);
        let t = |sp: &Species, ax: usize| {
            let n = sp.len() as f64;
            sp.iter()
                .map(|p| (p.momentum(ax) as f64).powi(2))
                .sum::<f64>()
                / n
        };
        let ratio0 = t(&sp, 0) / t(&sp, 1);
        for _ in 0..200 {
            op.apply(&mut sp, &g, &mut rng);
        }
        let ratio1 = t(&sp, 0) / t(&sp, 1);
        assert!(ratio0 > 15.0, "setup broken: {ratio0}");
        assert!(
            ratio1 < 0.6 * ratio0,
            "no isotropization: {ratio0} -> {ratio1}"
        );
        // Total energy unchanged while redistributing.
        let total0 = 0.1f64.powi(2) + 2.0 * 0.02f64.powi(2);
        let total1 = t(&sp, 0) + t(&sp, 1) + t(&sp, 2);
        assert!((total1 - total0).abs() / total0 < 0.05);
    }

    #[test]
    fn collisionless_limit_is_identity() {
        let (mut sp, g, _, mut rng) = collisional_plasma([0.05; 3], 0.0, 3);
        let before = sp.to_particles();
        CollisionOperator::new(0.0, 1).apply(&mut sp, &g, &mut rng);
        assert_eq!(sp.to_particles(), before);
    }

    #[test]
    fn rate_scales_with_nu0() {
        // Twice the collisionality → anisotropy decays roughly twice as
        // fast (compare after the same number of applications).
        let decay = |nu0: f64, seed: u64| {
            let (mut sp, g, op, mut rng) = collisional_plasma([0.1, 0.02, 0.02], nu0, seed);
            let t = |sp: &Species, ax: usize| {
                sp.iter()
                    .map(|p| (p.momentum(ax) as f64).powi(2))
                    .sum::<f64>()
                    / sp.len() as f64
            };
            let r0: f64 = t(&sp, 0) / t(&sp, 1);
            for _ in 0..20 {
                op.apply(&mut sp, &g, &mut rng);
            }
            (t(&sp, 0) / t(&sp, 1) / r0).ln()
        };
        // Weak enough that neither case fully isotropizes in 20 passes.
        let slow = decay(1e-4, 4);
        let fast = decay(4e-4, 4);
        assert!(
            fast < 2.0 * slow,
            "faster nu0 must decay anisotropy faster: {slow} vs {fast}"
        );
        assert!(fast < -0.1, "fast case barely relaxed: {fast}");
        assert!(slow > -1.0, "slow case relaxed too fast to compare: {slow}");
    }

    #[test]
    fn beam_slows_against_bulk() {
        // A weak fast beam through a dense cold bulk: directed momentum of
        // the beam particles decays (dynamical friction).
        let g = Grid::periodic((2, 2, 2), (1.0, 1.0, 1.0), 0.05);
        let mut sp = Species::new("e", -1.0, 1.0);
        let mut rng = Rng::seeded(5);
        load_uniform(&mut sp, &g, &mut rng, 1.0, 256, Momentum::thermal(0.01));
        let n_bulk = sp.len();
        // Tag beam particles by loading them afterwards (stable tail of
        // the array as long as we do not sort between measurements).
        for _ in 0..n_bulk / 16 {
            let i = sp.get(rng.index(n_bulk)).i;
            let w = sp.get(0).w;
            sp.push(crate::particle::Particle {
                i,
                ux: 0.08,
                w,
                ..Default::default()
            });
        }
        sp.sort(&g);
        // After sorting identity is lost; instead track the mean ux of the
        // whole distribution's fast tail.
        let beam_mean = |sp: &Species| {
            let tail: Vec<f64> = sp
                .iter()
                .filter(|p| p.ux > 0.05)
                .map(|p| p.ux as f64)
                .collect();
            (
                tail.iter().sum::<f64>() / tail.len().max(1) as f64,
                tail.len(),
            )
        };
        let (m0, c0) = beam_mean(&sp);
        let op = CollisionOperator::new(0.01, 1);
        for _ in 0..150 {
            op.apply(&mut sp, &g, &mut rng);
        }
        let (_, c1) = beam_mean(&sp);
        // The beam population above the threshold shrinks as it scatters
        // into the bulk.
        assert!(
            c1 < (c0 as f64 * 0.8) as usize,
            "beam did not slow: {c0} -> {c1} (mean0 {m0})"
        );
    }
}
