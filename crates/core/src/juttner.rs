//! Relativistic thermal loading: the Maxwell–Jüttner distribution
//! `f(u) ∝ u² exp(−γ/θ)` with `θ = kT/(mc²)`, sampled by the
//! Sobol/Canfield et al. method (exact, rejection-based), plus a flat
//! boost for drifting relativistic plasmas. VPIC loads relativistic
//! species this way for astrophysical and high-intensity runs; the
//! non-relativistic loader in [`crate::maxwellian`] is its `θ ≪ 1` limit.

use crate::grid::Grid;
use crate::particle::Particle;
use crate::rng::Rng;
use crate::species::Species;

/// Sample one normalized momentum magnitude `u = γβ` from Maxwell–Jüttner
/// at temperature `theta = kT/(mc²)`.
///
/// Uses Sobol's rejection method for relativistic temperatures; its
/// acceptance probability collapses as `θ → 0` (Zenitani 2015), so cold
/// plasmas fall back to the Maxwellian limit `u ≈ √θ·|N(0,1)³|`, which is
/// what Maxwell–Jüttner converges to there.
pub fn sample_juttner_u(theta: f64, rng: &mut Rng) -> f64 {
    if theta < 0.05 {
        // Non-relativistic limit: three Gaussian components.
        let (a, b, c) = (rng.normal(), rng.normal(), rng.normal());
        return theta.sqrt() * (a * a + b * b + c * c).sqrt();
    }
    loop {
        // Envelope: u = −θ·ln(X1·X2·X3) samples u² e^{−u/θ} exactly.
        let x1 = rng.uniform().max(f64::MIN_POSITIVE);
        let x2 = rng.uniform().max(f64::MIN_POSITIVE);
        let x3 = rng.uniform().max(f64::MIN_POSITIVE);
        let u = -theta * (x1 * x2 * x3).ln();
        // Correction e^{(u−γ)/θ} via Sobol's trick (Zenitani 2015, eq. 5):
        // draw η = −θ·ln(X1·X2·X3·X4) ≥ u and accept iff η² − u² > 1,
        // i.e. η exceeds γ = √(1+u²).
        let x4 = rng.uniform().max(f64::MIN_POSITIVE);
        let eta = u - theta * x4.ln();
        if eta * eta - u * u > 1.0 {
            return u;
        }
    }
}

/// Sample an isotropic Maxwell–Jüttner momentum vector.
pub fn sample_juttner(theta: f64, rng: &mut Rng) -> (f64, f64, f64) {
    let u = sample_juttner_u(theta, rng);
    // Isotropic direction.
    let cos_t = rng.uniform_in(-1.0, 1.0);
    let sin_t = (1.0 - cos_t * cos_t).sqrt();
    let phi = 2.0 * std::f64::consts::PI * rng.uniform();
    (u * sin_t * phi.cos(), u * sin_t * phi.sin(), u * cos_t)
}

/// Load a uniform relativistic thermal plasma: density `n0`, `ppc`
/// macroparticles per cell, temperature `theta = kT/(mc²)`, optionally
/// boosted along x with drift Lorentz factor `gamma_drift`
/// (`1.0` = no drift). The boost is applied per particle:
/// `u_x' = γ_d(u_x + β_d·γ)`.
pub fn load_juttner(
    sp: &mut Species,
    g: &Grid,
    rng: &mut Rng,
    n0: f32,
    ppc: usize,
    theta: f64,
    gamma_drift: f64,
) {
    assert!(ppc > 0 && theta > 0.0 && gamma_drift >= 1.0);
    let w = n0 * g.dv() / ppc as f32;
    let beta_d = (1.0 - 1.0 / (gamma_drift * gamma_drift)).sqrt();
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            for i in 1..=g.nx {
                let v = g.voxel(i, j, k) as u32;
                for _ in 0..ppc {
                    let (mut ux, uy, uz) = sample_juttner(theta, rng);
                    if gamma_drift > 1.0 {
                        let gamma = (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
                        ux = gamma_drift * (ux + beta_d * gamma);
                    }
                    sp.push(Particle {
                        dx: rng.uniform_in(-1.0, 1.0) as f32,
                        dy: rng.uniform_in(-1.0, 1.0) as f32,
                        dz: rng.uniform_in(-1.0, 1.0) as f32,
                        i: v,
                        ux: ux as f32,
                        uy: uy as f32,
                        uz: uz as f32,
                        w,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxwellian::{load_uniform, Momentum};

    #[test]
    fn cold_limit_matches_maxwellian_spread() {
        // θ = vth² for small θ; compare u_x variances of the two loaders.
        let g = Grid::periodic((4, 4, 4), (0.5, 0.5, 0.5), 0.1);
        let theta = 0.0025; // vth = 0.05
        let mut jut = Species::new("e", -1.0, 1.0);
        let mut rng = Rng::seeded(1);
        load_juttner(&mut jut, &g, &mut rng, 1.0, 200, theta, 1.0);
        let mut max = Species::new("e", -1.0, 1.0);
        load_uniform(&mut max, &g, &mut rng, 1.0, 200, Momentum::thermal(0.05));
        let var =
            |sp: &Species| sp.iter().map(|p| (p.ux as f64).powi(2)).sum::<f64>() / sp.len() as f64;
        let (vj, vm) = (var(&jut), var(&max));
        assert!((vj - vm).abs() / vm < 0.05, "juttner {vj} vs maxwell {vm}");
    }

    #[test]
    fn relativistic_mean_gamma() {
        // θ = 1: strongly relativistic; ⟨γ⟩ = 3θ + K₁(1/θ)/K₂(1/θ)
        // = 3 + 0.6019/1.6248 ≈ 3.3704.
        let mut rng = Rng::seeded(2);
        let n = 100_000;
        let mean: f64 = (0..n)
            .map(|_| {
                let (ux, uy, uz) = sample_juttner(1.0, &mut rng);
                (1.0 + ux * ux + uy * uy + uz * uz).sqrt()
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean - 3.3704).abs() < 0.03, "⟨γ⟩ = {mean}");
    }

    #[test]
    fn isotropy_of_sampling() {
        let mut rng = Rng::seeded(3);
        let n = 50_000;
        let mut sums = [0.0f64; 3];
        let mut sq = [0.0f64; 3];
        for _ in 0..n {
            let (ux, uy, uz) = sample_juttner(0.3, &mut rng);
            for (i, u) in [ux, uy, uz].iter().enumerate() {
                sums[i] += u;
                sq[i] += u * u;
            }
        }
        for (i, s) in sums.iter().enumerate() {
            assert!(s.abs() / (n as f64) < 0.01, "mean bias axis {i}");
        }
        // Equal variances across axes within a few percent.
        let v0 = sq[0] / n as f64;
        for &sqi in sq.iter().skip(1) {
            assert!(
                (sqi / n as f64 - v0).abs() / v0 < 0.05,
                "anisotropic sampling"
            );
        }
    }

    #[test]
    fn drift_boost_shifts_mean() {
        let g = Grid::periodic((2, 2, 2), (1.0, 1.0, 1.0), 0.1);
        let mut sp = Species::new("e", -1.0, 1.0);
        let mut rng = Rng::seeded(4);
        let gamma_d = 3.0f64;
        load_juttner(&mut sp, &g, &mut rng, 1.0, 2000, 0.01, gamma_d);
        let mean_ux: f64 = sp.iter().map(|p| p.ux as f64).sum::<f64>() / sp.len() as f64;
        // Cold limit: ⟨u_x⟩ ≈ γ_d·β_d·⟨γ⟩ ≈ γ_d·β_d.
        let want = gamma_d * (1.0 - 1.0 / (gamma_d * gamma_d)).sqrt();
        assert!(
            (mean_ux - want).abs() / want < 0.05,
            "⟨ux⟩ = {mean_ux}, want {want}"
        );
    }
}
