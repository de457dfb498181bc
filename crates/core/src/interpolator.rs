//! Per-voxel interpolation coefficients (VPIC's `interpolator_array`).
//!
//! Once per step the Yee fields are converted into 18 coefficients per
//! voxel so the particle push evaluates `E` and `cB` at a particle with a
//! handful of fused multiply-adds and a single indexed load:
//!
//! * Each `E` component is bilinear in the two directions transverse to its
//!   edge and constant along the edge (the energy-conserving scheme that
//!   pairs with the charge-conserving current deposition).
//! * Each `cB` component is linear along its face normal only.

use crate::field::FieldArray;
use crate::grid::Grid;
use crate::lanes::{transpose8, F32x8, LANES};
use rayon::prelude::*;

/// Interpolation coefficients for one voxel (offsets in `[-1,1]`):
///
/// ```text
/// Ex(dy,dz) = ex + dy·dexdy + dz·dexdz + dy·dz·d2exdydz
/// Ey(dz,dx) = ey + dz·deydz + dx·deydx + dz·dx·d2eydzdx
/// Ez(dx,dy) = ez + dx·dezdx + dy·dezdy + dx·dy·d2ezdxdy
/// cBx(dx)   = cbx + dx·dcbxdx      (and cyclic)
/// ```
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Interpolator {
    pub ex: f32,
    pub dexdy: f32,
    pub dexdz: f32,
    pub d2exdydz: f32,
    pub ey: f32,
    pub deydz: f32,
    pub deydx: f32,
    pub d2eydzdx: f32,
    pub ez: f32,
    pub dezdx: f32,
    pub dezdy: f32,
    pub d2ezdxdy: f32,
    pub cbx: f32,
    pub dcbxdx: f32,
    pub cby: f32,
    pub dcbydy: f32,
    pub cbz: f32,
    pub dcbzdz: f32,
}

impl Interpolator {
    /// Evaluate `E` at voxel-relative offsets.
    #[inline]
    pub fn e_at(&self, dx: f32, dy: f32, dz: f32) -> (f32, f32, f32) {
        (
            (self.ex + dy * self.dexdy) + dz * (self.dexdz + dy * self.d2exdydz),
            (self.ey + dz * self.deydz) + dx * (self.deydx + dz * self.d2eydzdx),
            (self.ez + dx * self.dezdx) + dy * (self.dezdy + dx * self.d2ezdxdy),
        )
    }

    /// Evaluate `cB` at voxel-relative offsets.
    #[inline]
    pub fn cb_at(&self, dx: f32, dy: f32, dz: f32) -> (f32, f32, f32) {
        (
            self.cbx + dx * self.dcbxdx,
            self.cby + dy * self.dcbydy,
            self.cbz + dz * self.dcbzdz,
        )
    }
}

/// The 18 interpolation coefficients of eight voxels, transposed into
/// lane vectors — the gather stage of the AoSoA lane kernel. Field names
/// mirror [`Interpolator`] one for one.
#[derive(Clone, Copy, Debug, Default)]
pub struct InterpolatorLanes {
    pub ex: F32x8,
    pub dexdy: F32x8,
    pub dexdz: F32x8,
    pub d2exdydz: F32x8,
    pub ey: F32x8,
    pub deydz: F32x8,
    pub deydx: F32x8,
    pub d2eydzdx: F32x8,
    pub ez: F32x8,
    pub dezdx: F32x8,
    pub dezdy: F32x8,
    pub d2ezdxdy: F32x8,
    pub cbx: F32x8,
    pub dcbxdx: F32x8,
    pub cby: F32x8,
    pub dcbydy: F32x8,
    pub cbz: F32x8,
    pub dcbzdz: F32x8,
}

/// Interpolator coefficients for every voxel (ghost entries stay zero).
#[derive(Clone, Debug)]
pub struct InterpolatorArray {
    pub data: Vec<Interpolator>,
}

impl InterpolatorArray {
    /// Zeroed array sized for `grid`.
    pub fn new(grid: &Grid) -> Self {
        InterpolatorArray {
            data: vec![Interpolator::default(); grid.n_voxels()],
        }
    }

    /// Rebuild all live-voxel coefficients from `fields`. Ghost planes of
    /// the fields must be synchronized (the field solver does this after
    /// every update).
    ///
    /// Parallelized over z-slabs: voxel `(i,j,k)` only writes its own
    /// entry and reads field values at `v`, `v+1`, `v+dj`, `v+dk` (shared,
    /// immutable), so slabs are independent and the result is bitwise
    /// identical to [`Self::load_serial`] for any worker count.
    pub fn load(&mut self, f: &FieldArray, g: &Grid) {
        let (sx, sy, _) = g.strides();
        let (dj, dk) = (sx, sx * sy);
        const Q: f32 = 0.25;
        const H: f32 = 0.5;
        // Slices, moved into the slab closure: with the array bounds and
        // strides held by value the slab loops have nothing to reload
        // after each store (a closure that crosses a thread boundary keeps
        // its by-reference captures in memory the optimizer must assume
        // those stores can reach).
        let (ex, ey, ez) = (&f.ex[..], &f.ey[..], &f.ez[..]);
        let (cbx, cby, cbz) = (&f.cbx[..], &f.cby[..], &f.cbz[..]);
        self.data
            .par_chunks_mut(dk)
            .enumerate()
            .skip(1)
            .take(g.nz)
            .for_each(move |(k, slab)| {
                for j in 1..=g.ny {
                    for i in 1..=g.nx {
                        let v = g.voxel(i, j, k);
                        let ip = &mut slab[v - k * dk];

                        // Ex on the 4 x-edges of the voxel: (j,k), (j+1,k), (k+1), (j+1,k+1).
                        let (w0, w1, w2, w3) = (ex[v], ex[v + dj], ex[v + dk], ex[v + dj + dk]);
                        ip.ex = Q * (w0 + w1 + w2 + w3);
                        ip.dexdy = Q * ((w1 + w3) - (w0 + w2));
                        ip.dexdz = Q * ((w2 + w3) - (w0 + w1));
                        ip.d2exdydz = Q * ((w0 + w3) - (w1 + w2));

                        // Ey on the 4 y-edges: (k,i), (k+1,i), (i+1), (k+1,i+1).
                        let (w0, w1, w2, w3) = (ey[v], ey[v + dk], ey[v + 1], ey[v + dk + 1]);
                        ip.ey = Q * (w0 + w1 + w2 + w3);
                        ip.deydz = Q * ((w1 + w3) - (w0 + w2));
                        ip.deydx = Q * ((w2 + w3) - (w0 + w1));
                        ip.d2eydzdx = Q * ((w0 + w3) - (w1 + w2));

                        // Ez on the 4 z-edges: (i,j), (i+1,j), (j+1), (i+1,j+1).
                        let (w0, w1, w2, w3) = (ez[v], ez[v + 1], ez[v + dj], ez[v + 1 + dj]);
                        ip.ez = Q * (w0 + w1 + w2 + w3);
                        ip.dezdx = Q * ((w1 + w3) - (w0 + w2));
                        ip.dezdy = Q * ((w2 + w3) - (w0 + w1));
                        ip.d2ezdxdy = Q * ((w0 + w3) - (w1 + w2));

                        // cB linear along its own normal.
                        ip.cbx = H * (cbx[v] + cbx[v + 1]);
                        ip.dcbxdx = H * (cbx[v + 1] - cbx[v]);
                        ip.cby = H * (cby[v] + cby[v + dj]);
                        ip.dcbydy = H * (cby[v + dj] - cby[v]);
                        ip.cbz = H * (cbz[v] + cbz[v + dk]);
                        ip.dcbzdz = H * (cbz[v + dk] - cbz[v]);
                    }
                }
            });
    }

    /// Gather the coefficients of eight voxels into lane vectors (the
    /// transposed load behind the AoSoA lane kernel). Values are copied
    /// bit-for-bit, so lane `l` sees exactly `data[idx[l]]`.
    #[inline]
    pub fn gather8(&self, idx: &[u32; LANES]) -> InterpolatorLanes {
        // Read each lane's coefficients as two contiguous 8-float rows
        // (the row field order matches the struct declaration, so LLVM
        // merges the reads into wide loads), then shuffle-transpose
        // rows→fields. Pure data movement — lane `l`, field `f` of the
        // result is bit-for-bit `self.data[idx[l]].f`, exactly what a
        // scalar per-field gather produces.
        let mut ra = [F32x8::splat(0.0); LANES];
        let mut rb = [F32x8::splat(0.0); LANES];
        let mut cbz = [0.0f32; LANES];
        let mut dcbzdz = [0.0f32; LANES];
        for l in 0..LANES {
            let f = &self.data[idx[l] as usize];
            ra[l] = F32x8([
                f.ex, f.dexdy, f.dexdz, f.d2exdydz, f.ey, f.deydz, f.deydx, f.d2eydzdx,
            ]);
            rb[l] = F32x8([
                f.ez, f.dezdx, f.dezdy, f.d2ezdxdy, f.cbx, f.dcbxdx, f.cby, f.dcbydy,
            ]);
            cbz[l] = f.cbz;
            dcbzdz[l] = f.dcbzdz;
        }
        let ta = transpose8(ra);
        let tb = transpose8(rb);
        InterpolatorLanes {
            ex: ta[0],
            dexdy: ta[1],
            dexdz: ta[2],
            d2exdydz: ta[3],
            ey: ta[4],
            deydz: ta[5],
            deydx: ta[6],
            d2eydzdx: ta[7],
            ez: tb[0],
            dezdx: tb[1],
            dezdy: tb[2],
            d2ezdxdy: tb[3],
            cbx: tb[4],
            dcbxdx: tb[5],
            cby: tb[6],
            dcbydy: tb[7],
            cbz: F32x8(cbz),
            dcbzdz: F32x8(dcbzdz),
        }
    }

    /// Fused gather + field interpolation for the lane kernel: returns
    /// the half E kick `(hax, hay, haz)` and interpolated `(cbx, cby,
    /// cbz)` for eight particles at voxel-relative offsets `(dx, dy,
    /// dz)`. The arithmetic is the scalar push's interpolation expression
    /// tree verbatim, evaluated element-wise on the [`Self::gather8`]
    /// transpose — so every lane is bit-identical to the scalar path.
    ///
    /// Fusing matters for register pressure, not semantics: the eighteen
    /// coefficient vectors die here instead of staying live across the
    /// whole Boris rotation, which is what keeps the caller's hot loop
    /// out of spill traffic.
    #[inline]
    #[allow(clippy::type_complexity)]
    pub fn gather_ha_cb8(
        &self,
        idx: &[u32; LANES],
        dx: F32x8,
        dy: F32x8,
        dz: F32x8,
        qdt_2mc: f32,
    ) -> ((F32x8, F32x8, F32x8), (F32x8, F32x8, F32x8)) {
        let mut ra = [F32x8::splat(0.0); LANES];
        let mut rb = [F32x8::splat(0.0); LANES];
        let mut cbz0 = [0.0f32; LANES];
        let mut dcbzdz = [0.0f32; LANES];
        for l in 0..LANES {
            let f = &self.data[idx[l] as usize];
            ra[l] = F32x8([
                f.ex, f.dexdy, f.dexdz, f.d2exdydz, f.ey, f.deydz, f.deydx, f.d2eydzdx,
            ]);
            rb[l] = F32x8([
                f.ez, f.dezdx, f.dezdy, f.d2ezdxdy, f.cbx, f.dcbxdx, f.cby, f.dcbydy,
            ]);
            cbz0[l] = f.cbz;
            dcbzdz[l] = f.dcbzdz;
        }
        let qdt = F32x8::splat(qdt_2mc);
        let ta = transpose8(ra);
        let hax = qdt * ((ta[0] + dy * ta[1]) + dz * (ta[2] + dy * ta[3]));
        let hay = qdt * ((ta[4] + dz * ta[5]) + dx * (ta[6] + dz * ta[7]));
        let tb = transpose8(rb);
        let haz = qdt * ((tb[0] + dx * tb[1]) + dy * (tb[2] + dx * tb[3]));
        let cbx = tb[4] + dx * tb[5];
        let cby = tb[6] + dy * tb[7];
        let cbz = F32x8(cbz0) + dz * F32x8(dcbzdz);
        ((hax, hay, haz), (cbx, cby, cbz))
    }

    /// Serial reference for [`Self::load`].
    pub fn load_serial(&mut self, f: &FieldArray, g: &Grid) {
        let (sx, sy, _) = g.strides();
        let (dj, dk) = (sx, sx * sy);
        const Q: f32 = 0.25;
        const H: f32 = 0.5;
        for k in 1..=g.nz {
            for j in 1..=g.ny {
                for i in 1..=g.nx {
                    let v = g.voxel(i, j, k);
                    let ip = &mut self.data[v];

                    // Ex on the 4 x-edges of the voxel: (j,k), (j+1,k), (k+1), (j+1,k+1).
                    let (w0, w1, w2, w3) = (f.ex[v], f.ex[v + dj], f.ex[v + dk], f.ex[v + dj + dk]);
                    ip.ex = Q * (w0 + w1 + w2 + w3);
                    ip.dexdy = Q * ((w1 + w3) - (w0 + w2));
                    ip.dexdz = Q * ((w2 + w3) - (w0 + w1));
                    ip.d2exdydz = Q * ((w0 + w3) - (w1 + w2));

                    // Ey on the 4 y-edges: (k,i), (k+1,i), (i+1), (k+1,i+1).
                    let (w0, w1, w2, w3) = (f.ey[v], f.ey[v + dk], f.ey[v + 1], f.ey[v + dk + 1]);
                    ip.ey = Q * (w0 + w1 + w2 + w3);
                    ip.deydz = Q * ((w1 + w3) - (w0 + w2));
                    ip.deydx = Q * ((w2 + w3) - (w0 + w1));
                    ip.d2eydzdx = Q * ((w0 + w3) - (w1 + w2));

                    // Ez on the 4 z-edges: (i,j), (i+1,j), (j+1), (i+1,j+1).
                    let (w0, w1, w2, w3) = (f.ez[v], f.ez[v + 1], f.ez[v + dj], f.ez[v + 1 + dj]);
                    ip.ez = Q * (w0 + w1 + w2 + w3);
                    ip.dezdx = Q * ((w1 + w3) - (w0 + w2));
                    ip.dezdy = Q * ((w2 + w3) - (w0 + w1));
                    ip.d2ezdxdy = Q * ((w0 + w3) - (w1 + w2));

                    // cB linear along its own normal.
                    ip.cbx = H * (f.cbx[v] + f.cbx[v + 1]);
                    ip.dcbxdx = H * (f.cbx[v + 1] - f.cbx[v]);
                    ip.cby = H * (f.cby[v] + f.cby[v + dj]);
                    ip.dcbydy = H * (f.cby[v + dj] - f.cby[v]);
                    ip.cbz = H * (f.cbz[v] + f.cbz[v + dk]);
                    ip.dcbzdz = H * (f.cbz[v + dk] - f.cbz[v]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field_solver::{bcs_of, sync_b, sync_e};

    #[test]
    fn corners_recover_edge_values() {
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.1);
        let mut f = FieldArray::new(&g);
        // Distinct values on each x-edge of voxel (2,2,2).
        let v = g.voxel(2, 2, 2);
        let (sx, sy, _) = g.strides();
        let (dj, dk) = (sx, sx * sy);
        f.ex[v] = 1.0;
        f.ex[v + dj] = 2.0;
        f.ex[v + dk] = 3.0;
        f.ex[v + dj + dk] = 4.0;
        let mut ia = InterpolatorArray::new(&g);
        ia.load(&f, &g);
        let ip = &ia.data[v];
        // dy=-1, dz=-1 corner → edge (j,k) value.
        assert!((ip.e_at(0.0, -1.0, -1.0).0 - 1.0).abs() < 1e-6);
        assert!((ip.e_at(0.0, 1.0, -1.0).0 - 2.0).abs() < 1e-6);
        assert!((ip.e_at(0.0, -1.0, 1.0).0 - 3.0).abs() < 1e-6);
        assert!((ip.e_at(0.0, 1.0, 1.0).0 - 4.0).abs() < 1e-6);
        // Center is the average.
        assert!((ip.e_at(0.0, 0.0, 0.0).0 - 2.5).abs() < 1e-6);
    }

    #[test]
    fn uniform_fields_interpolate_exactly() {
        let g = Grid::periodic((3, 3, 3), (1.0, 1.0, 1.0), 0.1);
        let mut f = FieldArray::new(&g);
        for val in f.ex.iter_mut() {
            *val = 5.0;
        }
        for val in f.cby.iter_mut() {
            *val = -2.0;
        }
        sync_e(&mut f, &g, bcs_of(&g));
        sync_b(&mut f, &g, bcs_of(&g));
        let mut ia = InterpolatorArray::new(&g);
        ia.load(&f, &g);
        for k in 1..=3 {
            for j in 1..=3 {
                for i in 1..=3 {
                    let ip = &ia.data[g.voxel(i, j, k)];
                    let (ex, ey, ez) = ip.e_at(0.37, -0.81, 0.12);
                    assert!((ex - 5.0).abs() < 1e-6);
                    assert_eq!(ey, 0.0);
                    assert_eq!(ez, 0.0);
                    let (bx, by, bz) = ip.cb_at(0.37, -0.81, 0.12);
                    assert_eq!(bx, 0.0);
                    assert!((by + 2.0).abs() < 1e-6);
                    assert_eq!(bz, 0.0);
                }
            }
        }
    }

    #[test]
    fn gather8_transposes_bitwise() {
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.1);
        let mut ia = InterpolatorArray::new(&g);
        // Stamp every voxel with distinct values in every slot.
        for (v, ip) in ia.data.iter_mut().enumerate() {
            let base = v as f32;
            ip.ex = base + 0.01;
            ip.dexdy = base + 0.02;
            ip.dexdz = base + 0.03;
            ip.d2exdydz = base + 0.04;
            ip.ey = base + 0.05;
            ip.deydz = base + 0.06;
            ip.deydx = base + 0.07;
            ip.d2eydzdx = base + 0.08;
            ip.ez = base + 0.09;
            ip.dezdx = base + 0.10;
            ip.dezdy = base + 0.11;
            ip.d2ezdxdy = base + 0.12;
            ip.cbx = base + 0.13;
            ip.dcbxdx = base + 0.14;
            ip.cby = base + 0.15;
            ip.dcbydy = base + 0.16;
            ip.cbz = base + 0.17;
            ip.dcbzdz = base + 0.18;
        }
        // Mixed, repeated voxels across the lanes.
        let idx = [3u32, 17, 3, 0, 42, 7, 42, 63];
        let lanes = ia.gather8(&idx);
        for (l, &v) in idx.iter().enumerate() {
            let f = &ia.data[v as usize];
            assert_eq!(lanes.ex.0[l].to_bits(), f.ex.to_bits());
            assert_eq!(lanes.dexdy.0[l].to_bits(), f.dexdy.to_bits());
            assert_eq!(lanes.dexdz.0[l].to_bits(), f.dexdz.to_bits());
            assert_eq!(lanes.d2exdydz.0[l].to_bits(), f.d2exdydz.to_bits());
            assert_eq!(lanes.ey.0[l].to_bits(), f.ey.to_bits());
            assert_eq!(lanes.deydz.0[l].to_bits(), f.deydz.to_bits());
            assert_eq!(lanes.deydx.0[l].to_bits(), f.deydx.to_bits());
            assert_eq!(lanes.d2eydzdx.0[l].to_bits(), f.d2eydzdx.to_bits());
            assert_eq!(lanes.ez.0[l].to_bits(), f.ez.to_bits());
            assert_eq!(lanes.dezdx.0[l].to_bits(), f.dezdx.to_bits());
            assert_eq!(lanes.dezdy.0[l].to_bits(), f.dezdy.to_bits());
            assert_eq!(lanes.d2ezdxdy.0[l].to_bits(), f.d2ezdxdy.to_bits());
            assert_eq!(lanes.cbx.0[l].to_bits(), f.cbx.to_bits());
            assert_eq!(lanes.dcbxdx.0[l].to_bits(), f.dcbxdx.to_bits());
            assert_eq!(lanes.cby.0[l].to_bits(), f.cby.to_bits());
            assert_eq!(lanes.dcbydy.0[l].to_bits(), f.dcbydy.to_bits());
            assert_eq!(lanes.cbz.0[l].to_bits(), f.cbz.to_bits());
            assert_eq!(lanes.dcbzdz.0[l].to_bits(), f.dcbzdz.to_bits());
        }

        // The fused gather+interpolate path must reproduce the scalar
        // push's interpolation expressions bit-for-bit, lane by lane.
        let mk = |seed: u32| {
            F32x8(std::array::from_fn(|l| {
                ((seed + l as u32) as f32).mul_add(0.0371, -0.45)
            }))
        };
        let (dx, dy, dz) = (mk(1), mk(5), mk(11));
        let qdt = 0.173_f32;
        let ((hax, hay, haz), (cbx, cby, cbz)) = ia.gather_ha_cb8(&idx, dx, dy, dz, qdt);
        for (l, &v) in idx.iter().enumerate() {
            let f = &ia.data[v as usize];
            let (x, y, z) = (dx.0[l], dy.0[l], dz.0[l]);
            let sx = qdt * ((f.ex + y * f.dexdy) + z * (f.dexdz + y * f.d2exdydz));
            let sy = qdt * ((f.ey + z * f.deydz) + x * (f.deydx + z * f.d2eydzdx));
            let sz = qdt * ((f.ez + x * f.dezdx) + y * (f.dezdy + x * f.d2ezdxdy));
            assert_eq!(hax.0[l].to_bits(), sx.to_bits());
            assert_eq!(hay.0[l].to_bits(), sy.to_bits());
            assert_eq!(haz.0[l].to_bits(), sz.to_bits());
            assert_eq!(cbx.0[l].to_bits(), (f.cbx + x * f.dcbxdx).to_bits());
            assert_eq!(cby.0[l].to_bits(), (f.cby + y * f.dcbydy).to_bits());
            assert_eq!(cbz.0[l].to_bits(), (f.cbz + z * f.dcbzdz).to_bits());
        }
    }

    #[test]
    fn linear_b_gradient_is_recovered() {
        let g = Grid::periodic((4, 2, 2), (1.0, 1.0, 1.0), 0.1);
        let mut f = FieldArray::new(&g);
        // cbx grows linearly in x: cbx(i) = i (face-registered on x planes).
        for k in 0..g.strides().2 {
            for j in 0..g.strides().1 {
                for i in 0..g.strides().0 {
                    f.cbx[g.voxel(i, j, k)] = i as f32;
                }
            }
        }
        let mut ia = InterpolatorArray::new(&g);
        ia.load(&f, &g);
        let ip = &ia.data[g.voxel(2, 1, 1)];
        // Faces at i=2 (dx=-1) and i=3 (dx=+1).
        assert!((ip.cb_at(-1.0, 0.0, 0.0).0 - 2.0).abs() < 1e-6);
        assert!((ip.cb_at(1.0, 0.0, 0.0).0 - 3.0).abs() < 1e-6);
        assert!((ip.cb_at(0.5, 0.0, 0.0).0 - 2.75).abs() < 1e-6);
    }
}
