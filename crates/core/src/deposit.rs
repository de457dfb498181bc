//! Charge deposition (node-centered `rho`).
//!
//! Trilinear weighting to the eight corner nodes of the particle's voxel —
//! the scheme whose discrete continuity equation the Villasenor–Buneman
//! current deposition satisfies exactly. Used by divergence cleaning and
//! diagnostics (the dynamics never need `rho`).

use crate::field::FieldArray;
use crate::grid::Grid;
use crate::particle::Particle;

/// Accumulate `q_sp · w` of each particle onto the nodes of `f.rho`
/// (adds; callers clear and `sync_rho` as needed). Takes particles by
/// value so species and plain slices deposit through the same code
/// (`sp.iter()` for a species, `parts.iter().copied()` for a slice).
pub fn deposit_rho(
    f: &mut FieldArray,
    g: &Grid,
    particles: impl IntoIterator<Item = Particle>,
    qsp: f32,
) {
    let (sx, sy, _) = g.strides();
    let (dj, dk) = (sx, sx * sy);
    let r8v = 1.0 / (8.0 * g.dv());
    for p in particles {
        let v = p.i as usize;
        let q = qsp * p.w * r8v;
        let (lx, hx) = (1.0 - p.dx, 1.0 + p.dx);
        let (ly, hy) = (1.0 - p.dy, 1.0 + p.dy);
        let (lz, hz) = (1.0 - p.dz, 1.0 + p.dz);
        f.rho[v] += q * lx * ly * lz;
        f.rho[v + 1] += q * hx * ly * lz;
        f.rho[v + dj] += q * lx * hy * lz;
        f.rho[v + 1 + dj] += q * hx * hy * lz;
        f.rho[v + dk] += q * lx * ly * hz;
        f.rho[v + 1 + dk] += q * hx * ly * hz;
        f.rho[v + dj + dk] += q * lx * hy * hz;
        f.rho[v + 1 + dj + dk] += q * hx * hy * hz;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field_solver::{bcs_of, sync_rho};

    #[test]
    fn total_charge_is_conserved_by_weighting() {
        let g = Grid::periodic((4, 4, 4), (0.5, 0.5, 0.5), 0.1);
        let mut f = FieldArray::new(&g);
        let parts = [
            Particle {
                i: g.voxel(2, 3, 2) as u32,
                dx: 0.3,
                dy: -0.7,
                dz: 0.9,
                w: 2.0,
                ..Default::default()
            },
            Particle {
                i: g.voxel(4, 4, 4) as u32,
                dx: 0.99,
                dy: 0.99,
                dz: 0.99,
                w: 1.0,
                ..Default::default()
            },
        ];
        deposit_rho(&mut f, &g, parts.iter().copied(), -1.5);
        sync_rho(&mut f, &g, bcs_of(&g));
        let total = f.total_rho(&g);
        assert!((total - (-1.5 * 3.0)).abs() < 1e-5, "total = {total}");
    }

    #[test]
    fn centered_particle_splits_equally() {
        let g = Grid::periodic((3, 3, 3), (1.0, 1.0, 1.0), 0.1);
        let mut f = FieldArray::new(&g);
        let parts = [Particle {
            i: g.voxel(2, 2, 2) as u32,
            w: 8.0,
            ..Default::default()
        }];
        deposit_rho(&mut f, &g, parts.iter().copied(), 1.0);
        let v = g.voxel(2, 2, 2);
        let (sx, sy, _) = g.strides();
        let (dj, dk) = (sx, sx * sy);
        for off in [0, 1, dj, dk, 1 + dj, 1 + dk, dj + dk, 1 + dj + dk] {
            assert!((f.rho[v + off] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn corner_particle_hits_one_node() {
        let g = Grid::periodic((3, 3, 3), (1.0, 1.0, 1.0), 0.1);
        let mut f = FieldArray::new(&g);
        let parts = [Particle {
            i: g.voxel(2, 2, 2) as u32,
            dx: -1.0,
            dy: -1.0,
            dz: -1.0,
            w: 1.0,
            ..Default::default()
        }];
        deposit_rho(&mut f, &g, parts.iter().copied(), 1.0);
        assert!((f.rho[g.voxel(2, 2, 2)] - 1.0).abs() < 1e-6);
        assert_eq!(f.rho[g.voxel(3, 2, 2)], 0.0);
    }
}
