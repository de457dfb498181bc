//! Harris current-sheet equilibrium loading — the setup behind VPIC's
//! other flagship application, collisionless magnetic reconnection (the
//! same code base the SC'08 paper scaled was used for the landmark
//! trillion-particle reconnection studies).
//!
//! The kinetic Harris equilibrium in the (x, z) plane:
//!
//! ```text
//! B_x(z)  = B0·tanh(z/L)
//! n(z)    = n0·sech²(z/L) + n_b
//! ```
//!
//! with counter-drifting sheet populations carrying the current
//! `J_y = −B0/L·sech²(z/L)` (Ampère), split between species in proportion
//! to their temperatures. Pressure balance fixes
//! `n0·(T_e + T_i) = B0²/2`, and the drift speeds satisfy
//! `u_{d,s} = 2·T_s/(q_s·B0·L)` (in normalized units).

use crate::field::FieldArray;
use crate::field_solver::{bcs_of, sync_b};
use crate::grid::Grid;
use crate::maxwellian::{load_profile, Momentum};
use crate::rng::Rng;
use crate::species::Species;

/// Harris sheet parameters (normalized units; the sheet normal is z and
/// the field reverses along x).
#[derive(Clone, Copy, Debug)]
pub struct HarrisSheet {
    /// Asymptotic reconnecting field `B0` (in `cB` units).
    pub b0: f32,
    /// Sheet half-thickness `L`.
    pub l: f32,
    /// Peak sheet density `n0`.
    pub n0: f32,
    /// Uniform background density.
    pub nb: f32,
    /// Ion-to-electron temperature ratio `T_i/T_e`.
    pub ti_over_te: f32,
    /// Ion mass (electron masses).
    pub mi: f32,
    /// Center of the sheet in z.
    pub z_center: f32,
}

impl HarrisSheet {
    /// GEM-challenge-flavored defaults (reduced mass ratio 25,
    /// `Ti/Te = 5`, `L = 0.5·di`).
    pub fn gem_like(b0: f32, z_center: f32) -> Self {
        HarrisSheet {
            b0,
            l: 1.0,
            n0: 1.0,
            nb: 0.2,
            ti_over_te: 5.0,
            mi: 25.0,
            z_center,
        }
    }

    /// Electron temperature from pressure balance
    /// `n0(T_e + T_i) = B0²/2`.
    pub fn te(&self) -> f32 {
        self.b0 * self.b0 / (2.0 * self.n0 * (1.0 + self.ti_over_te))
    }

    /// Ion temperature.
    pub fn ti(&self) -> f32 {
        self.ti_over_te * self.te()
    }

    /// Electron/ion drift speeds along ∓y (`u_d = 2T/(|q|·B0·L)`,
    /// electron drift opposes the ion drift).
    pub fn drifts(&self) -> (f32, f32) {
        let ude = -2.0 * self.te() / (self.b0 * self.l);
        let udi = 2.0 * self.ti() / (self.b0 * self.l);
        (ude, udi)
    }

    /// Density profile of the sheet population at height z.
    pub fn sheet_density(&self, z: f32) -> f32 {
        let s = ((z - self.z_center) / self.l).cosh();
        1.0 / (s * s)
    }

    /// The reversing field at height z.
    pub fn bx(&self, z: f32) -> f32 {
        self.b0 * ((z - self.z_center) / self.l).tanh()
    }

    /// Initialize `cbx` on the grid (call before loading particles) and
    /// synchronize ghosts.
    pub fn init_field(&self, f: &mut FieldArray, g: &Grid) {
        let (sx, sy, sz) = g.strides();
        for k in 0..sz {
            // cbx is face-registered at node plane i, cell-centered in z:
            // evaluate at the z cell center.
            let z = g.z0 + (k as f32 - 0.5) * g.dz;
            let b = self.bx(z);
            for j in 0..sy {
                for i in 0..sx {
                    f.cbx[g.voxel(i, j, k)] = b;
                }
            }
        }
        sync_b(f, g, bcs_of(g));
    }

    /// Load the Harris sheet + background populations into electron and
    /// ion species (`ppc` at peak density). Drifts go into ±y.
    pub fn load(
        &self,
        electrons: &mut Species,
        ions: &mut Species,
        g: &Grid,
        rng: &mut Rng,
        ppc: usize,
    ) {
        assert!((electrons.m - 1.0).abs() < 1e-6, "electron mass must be 1");
        assert!((ions.m - self.mi).abs() < 1e-3, "ion mass mismatch");
        let vth_e = self.te().sqrt();
        let vth_i = (self.ti() / self.mi).sqrt();
        let (ude, udi) = self.drifts();
        // Sheet populations (drifting).
        load_profile(
            electrons,
            g,
            rng,
            ppc,
            Momentum {
                uth: [vth_e; 3],
                drift: [0.0, ude, 0.0],
            },
            self.n0,
            |_, _, z| self.sheet_density(z),
        );
        load_profile(
            ions,
            g,
            rng,
            ppc,
            Momentum {
                uth: [vth_i; 3],
                drift: [0.0, udi, 0.0],
            },
            self.n0,
            |_, _, z| self.sheet_density(z),
        );
        // Background (non-drifting) populations.
        if self.nb > 0.0 {
            let ppc_b = ((ppc as f32 * self.nb / self.n0).ceil() as usize).max(1);
            load_profile(
                electrons,
                g,
                rng,
                ppc_b,
                Momentum::thermal(vth_e),
                self.nb,
                |_, _, _| 1.0,
            );
            load_profile(
                ions,
                g,
                rng,
                ppc_b,
                Momentum::thermal(vth_i),
                self.nb,
                |_, _, _| 1.0,
            );
        }
    }

    /// Seed the GEM-style magnetic island perturbation
    /// `δψ = ψ0·cos(2πx/Lx)·cos(πz/Lz)` by adding the corresponding
    /// `δB = ẑ×∇ψ`-like fields (amplitude `psi0·B0`).
    pub fn perturb(&self, f: &mut FieldArray, g: &Grid, psi0: f32) {
        let (lx, _, lz) = g.extent();
        let kx = 2.0 * std::f32::consts::PI / lx;
        let kz = std::f32::consts::PI / lz;
        let amp = psi0 * self.b0;
        let (sx, sy, sz) = g.strides();
        for k in 0..sz {
            let zc = g.z0 + (k as f32 - 0.5) * g.dz;
            let zn = g.z0 + (k as f32 - 1.0) * g.dz;
            for j in 0..sy {
                for i in 0..sx {
                    let xc = g.x0 + (i as f32 - 0.5) * g.dx;
                    let xn = g.x0 + (i as f32 - 1.0) * g.dx;
                    let v = g.voxel(i, j, k);
                    // δBx = −ψ0 kz cos(kx·x) sin(kz·z); δBz = ψ0 kx sin·cos…
                    f.cbx[v] += -amp * kz * (kx * (xn - g.x0)).cos() * (kz * (zc - g.z0)).sin();
                    f.cbz[v] += amp * kx * (kx * (xc - g.x0)).sin() * (kz * (zn - g.z0)).cos();
                }
            }
        }
        sync_b(f, g, bcs_of(g));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;

    fn sheet_grid() -> Grid {
        // Periodic in x/y; reflecting walls in z (far from the sheet).
        use crate::grid::ParticleBc;
        let mut g = Grid::new(
            (16, 2, 32),
            (0.5, 0.5, 0.5),
            Grid::courant_dt(1.0, (0.5, 0.5, 0.5), 0.9),
            [
                ParticleBc::Periodic,
                ParticleBc::Periodic,
                ParticleBc::Reflect,
                ParticleBc::Periodic,
                ParticleBc::Periodic,
                ParticleBc::Reflect,
            ],
        );
        g.z0 = -8.0;
        g
    }

    #[test]
    fn pressure_balance_and_drifts() {
        let h = HarrisSheet::gem_like(0.5, 0.0);
        // n0(Te+Ti) = B0²/2.
        let lhs = h.n0 * (h.te() + h.ti());
        assert!((lhs - 0.125).abs() < 1e-6);
        let (ude, udi) = h.drifts();
        assert!(ude < 0.0 && udi > 0.0);
        // Current balance: n0·(q_i·udi + q_e·ude) = n0·(udi − ude) matches
        // Ampère: ∇×B at center = B0/L.
        let j_y = h.n0 * (udi - ude);
        assert!(
            (j_y - h.b0 / h.l).abs() < 1e-6,
            "J = {j_y}, want {}",
            h.b0 / h.l
        );
    }

    #[test]
    fn field_profile_reverses_across_sheet() {
        let g = sheet_grid();
        let h = HarrisSheet::gem_like(0.5, 0.0);
        let mut f = FieldArray::new(&g);
        h.init_field(&mut f, &g);
        let below = f.cbx[g.voxel(4, 1, 4)];
        let above = f.cbx[g.voxel(4, 1, 29)];
        assert!(
            below < -0.4 && above > 0.4,
            "no reversal: {below} vs {above}"
        );
        // Near-zero at the center.
        let mid = f.cbx[g.voxel(4, 1, 16)];
        assert!(mid.abs() < 0.2, "center field {mid}");
    }

    #[test]
    fn loaded_sheet_carries_the_right_current() {
        let g = sheet_grid();
        let h = HarrisSheet::gem_like(0.5, 0.0);
        let mut e = Species::new("e", -1.0, 1.0);
        let mut i = Species::new("i", 1.0, 25.0);
        let mut rng = Rng::seeded(5);
        h.load(&mut e, &mut i, &g, &mut rng, 64);
        assert!(!e.is_empty() && !i.is_empty());
        // Total y-current = ∫ n0 sech²·(udi − ude) dV > 0 and matches the
        // analytic integral within sampling noise.
        let jy = |sp: &Species| -> f64 {
            sp.iter()
                .map(|p| (sp.q * p.w) as f64 * (p.uy as f64 / p.gamma() as f64))
                .sum()
        };
        let total = jy(&e) + jy(&i);
        let (ude, udi) = h.drifts();
        // ∫ sech²(z/L) dz = 2L over a wide box; area Lx·Ly.
        let (lx, ly, _) = g.extent();
        let want = (h.n0 * (udi - ude) * 2.0 * h.l * lx * ly) as f64;
        assert!(
            (total - want).abs() / want < 0.1,
            "J = {total}, want {want}"
        );
    }

    #[test]
    fn sheet_equilibrium_is_quasi_stable() {
        // Unperturbed Harris sheet: runs without blowing up and keeps the
        // field energy within a factor of ~2 over a short window (PIC
        // noise nibbles at it; an unstable setup would explode).
        let g = sheet_grid();
        let h = HarrisSheet::gem_like(0.3, 0.0);
        let mut sim = Simulation::new(g, 1);
        let mut e = Species::new("e", -1.0, 1.0);
        let mut i = Species::new("i", 1.0, 25.0);
        let mut rng = Rng::seeded(6);
        h.load(&mut e, &mut i, &sim.grid, &mut rng, 16);
        sim.add_species(e);
        sim.add_species(i);
        h.init_field(&mut sim.fields, &sim.grid.clone());
        let b0 = sim.energies().field_b;
        for _ in 0..60 {
            sim.step();
        }
        let en = sim.energies();
        assert!(en.total().is_finite());
        assert!(
            en.field_b > 0.5 * b0 && en.field_b < 2.0 * b0,
            "field energy wandered: {b0} -> {}",
            en.field_b
        );
    }

    #[test]
    fn perturbation_adds_island_flux() {
        let g = sheet_grid();
        let h = HarrisSheet::gem_like(0.5, 0.0);
        let mut f = FieldArray::new(&g);
        h.init_field(&mut f, &g);
        let bz_before: f32 = f.cbz.iter().map(|v| v.abs()).sum();
        h.perturb(&mut f, &g, 0.1);
        let bz_after: f32 = f.cbz.iter().map(|v| v.abs()).sum();
        assert!(bz_before < 1e-6);
        assert!(bz_after > 0.01, "no perturbation applied");
    }
}
