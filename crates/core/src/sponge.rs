//! Graded damping layers ("sponges") along x used to emulate open
//! boundaries: outgoing waves entering the layer are attenuated a little
//! each step, so almost nothing returns from the PEC wall behind it.

use crate::field::FieldArray;
use crate::grid::Grid;

/// Damping layers at the low/high x ends of the domain.
#[derive(Clone, Copy, Debug)]
pub struct Sponge {
    /// Layer width in cells at the low-x end (0 disables).
    pub lo_cells: usize,
    /// Layer width in cells at the high-x end (0 disables).
    pub hi_cells: usize,
    /// Peak per-step damping rate at the wall (≈0.05–0.3 works well; the
    /// profile is cubic so the layer entry is gentle and reflections off
    /// the sponge itself stay small).
    pub strength: f32,
}

impl Sponge {
    /// Symmetric sponge.
    pub fn symmetric(cells: usize, strength: f32) -> Self {
        Sponge {
            lo_cells: cells,
            hi_cells: cells,
            strength,
        }
    }

    /// Per-step multiplier for x-plane `i` (1-based live index), or 1.0
    /// outside the layers.
    pub fn factor(&self, i: usize, nx: usize) -> f32 {
        let depth = if self.lo_cells > 0 && i <= self.lo_cells {
            (self.lo_cells - i + 1) as f32 / self.lo_cells as f32
        } else if self.hi_cells > 0 && i + self.hi_cells > nx {
            (i + self.hi_cells - nx) as f32 / self.hi_cells as f32
        } else {
            return 1.0;
        };
        let d = depth.min(1.0);
        1.0 - self.strength * d * d * d
    }

    /// Damp all field components in the layers of a single domain
    /// (called once per step, after the field advance).
    pub fn apply(&self, f: &mut FieldArray, g: &Grid) {
        self.apply_at(f, g, 0, g.nx);
    }

    /// Damp every local x-plane — ghosts included — by the factor at its
    /// *global* index `x_off + i` in a domain `global_nx` cells long. A
    /// ghost plane's global index lands exactly on the owning neighbour's
    /// live plane, so ghosts pick up the same damping the neighbour
    /// applies and stay bit-consistent across ranks without an exchange;
    /// [`Sponge::factor`] clamps the domain-edge ghosts at 0 and
    /// `global_nx + 1` to full wall strength.
    pub fn apply_at(&self, f: &mut FieldArray, g: &Grid, x_off: usize, global_nx: usize) {
        let (sx, sy, sz) = g.strides();
        for i in 0..sx {
            let fac = self.factor(x_off + i, global_nx);
            if fac == 1.0 {
                continue;
            }
            for k in 0..sz {
                for j in 0..sy {
                    let v = g.voxel(i, j, k);
                    f.ex[v] *= fac;
                    f.ey[v] *= fac;
                    f.ez[v] *= fac;
                    f.cbx[v] *= fac;
                    f.cby[v] *= fac;
                    f.cbz[v] *= fac;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_profile_shape() {
        let s = Sponge::symmetric(10, 0.2);
        let nx = 100;
        // Deepest at the walls.
        assert!((s.factor(1, nx) - 0.8).abs() < 1e-6);
        assert!((s.factor(100, nx) - 0.8).abs() < 1e-6);
        // Gentle at the layer entry.
        assert!(s.factor(10, nx) > 0.999);
        assert!(s.factor(91, nx) > 0.999);
        // Identity in the interior.
        assert_eq!(s.factor(50, nx), 1.0);
        // Monotone within the layer.
        for i in 1..10 {
            assert!(s.factor(i, nx) <= s.factor(i + 1, nx));
        }
    }

    #[test]
    fn apply_damps_only_layer_fields() {
        let g = Grid::periodic((20, 2, 2), (1.0, 1.0, 1.0), 0.1);
        let mut f = FieldArray::new(&g);
        for v in f.ey.iter_mut() {
            *v = 1.0;
        }
        let s = Sponge {
            lo_cells: 5,
            hi_cells: 0,
            strength: 0.5,
        };
        s.apply(&mut f, &g);
        assert!(f.ey[g.voxel(1, 1, 1)] < 0.6);
        assert_eq!(f.ey[g.voxel(10, 1, 1)], 1.0);
        assert_eq!(f.ey[g.voxel(20, 1, 1)], 1.0);
    }

    /// Slabs of a decomposed domain damp by *global* x position: each
    /// sees only its portion of the layer, and ghost planes pick up
    /// exactly the factor the owning neighbour applies.
    #[test]
    fn apply_at_damps_in_global_coordinates() {
        let sponge = Sponge::symmetric(2, 0.5);
        let g = Grid::periodic((4, 2, 2), (0.5, 0.5, 0.5), 0.1);
        let slabs: Vec<FieldArray> = [0, 4]
            .into_iter()
            .map(|x_off| {
                let mut f = FieldArray::new(&g);
                f.ey.fill(1.0);
                sponge.apply_at(&mut f, &g, x_off, 8);
                f
            })
            .collect();
        let ey = |slab: usize, i: usize| slabs[slab].ey[g.voxel(i, 1, 1)];
        // Slab 0 holds global planes 1–4: plane 1 is the wall, planes 3–4
        // sit outside the 2-cell layer.
        assert_eq!(ey(0, 1), sponge.factor(1, 8), "wall plane");
        assert_eq!(ey(0, 0), sponge.factor(1, 8), "edge ghost at wall strength");
        assert_eq!((ey(0, 3), ey(0, 4)), (1.0, 1.0), "interior");
        // Slab 1 holds global planes 5–8: local plane 4 is the high wall.
        assert_eq!(ey(1, 1), 1.0, "interior");
        assert_eq!(ey(1, 4), sponge.factor(8, 8), "high wall");
        // Ghosts match the neighbour's live plane without an exchange.
        assert_eq!(ey(1, 0), ey(0, 4));
        assert_eq!(ey(0, 5), ey(1, 1));
    }

    #[test]
    fn one_sided_sponge() {
        let s = Sponge {
            lo_cells: 0,
            hi_cells: 4,
            strength: 0.1,
        };
        assert_eq!(s.factor(1, 16), 1.0);
        assert!(s.factor(16, 16) < 1.0);
    }
}
