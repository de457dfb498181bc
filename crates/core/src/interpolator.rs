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
use crate::lanes::{transpose8, transpose8_wide, F32x8, Row, Wide, LANES};
use crate::zeroed::{zeroed, F32Record};
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

/// [`Interpolator`] seen as the lane kernel loads it: the first sixteen
/// coefficients as two eight-float rows, then the `cbz` pair.
#[repr(C)]
pub(crate) struct InterpolatorRows {
    /// `ex dexdy dexdz d2exdydz ey deydz deydx d2eydzdx`.
    pub ex_ey: [f32; LANES],
    /// `ez dezdx dezdy d2ezdxdy cbx dcbxdx cby dcbydy`.
    pub ez_cbx_cby: [f32; LANES],
    pub cbz: f32,
    pub dcbzdz: f32,
}

// SAFETY: `#[repr(C)]`, eighteen `f32` fields and nothing else.
unsafe impl F32Record for Interpolator {
    const F32S: usize = 18;
}

const _: () = {
    assert!(std::mem::size_of::<Interpolator>() == std::mem::size_of::<InterpolatorRows>());
    assert!(std::mem::align_of::<Interpolator>() == std::mem::align_of::<InterpolatorRows>());
};

impl Interpolator {
    /// The same eighteen floats, grouped into rows.
    #[inline(always)]
    pub(crate) fn rows(&self) -> &InterpolatorRows {
        // SAFETY: both types are `#[repr(C)]` and made of eighteen `f32`s
        // and nothing else, so they have the same size and alignment (the
        // const block above checks it) with no padding, field `n` of one
        // at the byte offset of float `n` of the other; every bit pattern
        // is a valid `f32`; the result borrows `self`.
        unsafe { &*(self as *const Interpolator as *const InterpolatorRows) }
    }

    /// [`Self::rows`], writable: how `InterpolatorArray::load` stores a
    /// transposed row.
    #[inline(always)]
    fn rows_mut(&mut self) -> &mut InterpolatorRows {
        // SAFETY: as in `rows`; the result borrows `self` mutably, and
        // any bits written through it are valid `f32`s of `self`.
        unsafe { &mut *(self as *mut Interpolator as *mut InterpolatorRows) }
    }

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

/// Interpolator coefficients for every voxel (ghost entries stay zero).
#[derive(Clone, Debug)]
pub struct InterpolatorArray {
    pub data: Vec<Interpolator>,
}

impl InterpolatorArray {
    /// Zeroed array sized for `grid`, allocated as zeroed pages: the
    /// first [`Self::load`] writes every live record, and ghost records
    /// nobody writes stay unmapped.
    pub fn new(grid: &Grid) -> Self {
        InterpolatorArray {
            data: zeroed(grid.n_voxels()),
        }
    }

    /// Rebuild all live-voxel coefficients from `fields`. Ghost planes of
    /// the fields must be synchronized (the field solver does this after
    /// every update).
    ///
    /// Parallelized over z-slabs: voxel `(i,j,k)` only writes its own
    /// entry and reads field values at `v`, `v+1`, `v+dj`, `v+dk` (shared,
    /// immutable), so slabs are independent. Each row is walked eight
    /// voxels at a time: the eighteen coefficients come out of
    /// `coefficients` as [`F32x8`] lanes (lane `l` is voxel `v + l`), and
    /// two [`transpose8`]s turn the first sixteen into each voxel's two
    /// [`InterpolatorRows`] rows. The row's `nx % 8` tail runs the same
    /// `coefficients` one `f32` voxel at a time. Every voxel gets the
    /// serial expression tree, so the result is bitwise identical to
    /// [`Self::load_serial`] for any worker count and row length.
    pub fn load(&mut self, f: &FieldArray, g: &Grid) {
        let (sx, sy, _) = g.strides();
        let (dj, dk) = (sx, sx * sy);
        // Slices, moved into the slab closure: with the array bounds and
        // strides held by value the slab loops have nothing to reload
        // after each store (a closure that crosses a thread boundary keeps
        // its by-reference captures in memory the optimizer must assume
        // those stores can reach).
        let fs = [
            &f.ex[..],
            &f.ey[..],
            &f.ez[..],
            &f.cbx[..],
            &f.cby[..],
            &f.cbz[..],
        ];
        self.data
            .par_chunks_mut(dk)
            .enumerate()
            .skip(1)
            .take(g.nz)
            .for_each(move |(k, slab)| {
                for j in 1..=g.ny {
                    let row = g.voxel(1, j, k);
                    let end = row + g.nx;
                    let mut v = row;
                    while v + LANES <= end {
                        let c = coefficients::<F32x8>(fs, v, (dj, dk));
                        let ta = transpose8(std::array::from_fn(|r| c[r]));
                        let tb = transpose8(std::array::from_fn(|r| c[LANES + r]));
                        let l0 = v - k * dk;
                        for (l, ip) in slab[l0..l0 + LANES].iter_mut().enumerate() {
                            let r = ip.rows_mut();
                            r.ex_ey = ta[l].0;
                            r.ez_cbx_cby = tb[l].0;
                            r.cbz = c[16].0[l];
                            r.dcbzdz = c[17].0[l];
                        }
                        v += LANES;
                    }
                    for v in v..end {
                        let c = coefficients::<f32>(fs, v, (dj, dk));
                        let r = slab[v - k * dk].rows_mut();
                        r.ex_ey = std::array::from_fn(|i| c[i]);
                        r.ez_cbx_cby = std::array::from_fn(|i| c[LANES + i]);
                        r.cbz = c[16];
                        r.dcbzdz = c[17];
                    }
                }
            });
    }

    /// Fused gather + field interpolation for the lane kernel: returns
    /// the half E kick `(hax, hay, haz)` and interpolated `(cbx, cby,
    /// cbz)` for the eight particles of each of `K` blocks at
    /// voxel-relative offsets `(dx, dy, dz)`; block `k`'s voxels are
    /// `idx[k]`. Each lane's voxel is read as its two coefficient rows
    /// ([`Interpolator::rows`] — two 32-byte loads in the intrinsic lane
    /// body) plus the `cbz`/`dcbzdz` pair, and the rows are
    /// shuffle-transposed into per-coefficient vectors: pure data
    /// movement, lane `l` of block `k` sees exactly `data[idx[k][l]]`.
    /// The arithmetic is the scalar push's interpolation expression tree
    /// verbatim, evaluated element-wise — so every lane is bit-identical
    /// to [`Interpolator::e_at`]/[`Interpolator::cb_at`] scaled the way
    /// `push_one` scales them, whatever `K`.
    ///
    /// Fusing matters for register pressure, not semantics: the eighteen
    /// coefficient vectors of a block die here instead of staying live
    /// across the whole Boris rotation, which is what keeps the caller's
    /// hot loop out of spill traffic — which it can only do inlined into
    /// that loop (a call would pass all six results through memory), so
    /// inlining is not left to the size heuristics: with debug
    /// assertions compiled in they declined, and the two-block pass lost
    /// its whole gain.
    #[inline(always)]
    #[allow(clippy::type_complexity)]
    pub fn gather_ha_cb8<const K: usize>(
        &self,
        idx: [&[u32; LANES]; K],
        dx: Wide<K>,
        dy: Wide<K>,
        dz: Wide<K>,
        qdt_2mc: f32,
    ) -> ((Wide<K>, Wide<K>, Wide<K>), (Wide<K>, Wide<K>, Wide<K>)) {
        let mut ra = [Wide::<K>::splat(0.0); LANES];
        let mut rb = [Wide::<K>::splat(0.0); LANES];
        let mut cbz0 = Wide::<K>::splat(0.0);
        let mut dcbzdz = Wide::<K>::splat(0.0);
        for (k, voxels) in idx.iter().enumerate() {
            for (l, &v) in voxels.iter().enumerate() {
                let f = self.data[v as usize].rows();
                ra[l].0[k] = F32x8::load(&f.ex_ey);
                rb[l].0[k] = F32x8::load(&f.ez_cbx_cby);
                cbz0.0[k].0[l] = f.cbz;
                dcbzdz.0[k].0[l] = f.dcbzdz;
            }
        }
        let qdt = Wide::splat(qdt_2mc);
        let ta = transpose8_wide(ra);
        let hax = qdt * ((ta[0] + dy * ta[1]) + dz * (ta[2] + dy * ta[3]));
        let hay = qdt * ((ta[4] + dz * ta[5]) + dx * (ta[6] + dz * ta[7]));
        let tb = transpose8_wide(rb);
        let haz = qdt * ((tb[0] + dx * tb[1]) + dy * (tb[2] + dx * tb[3]));
        let cbx = tb[4] + dx * tb[5];
        let cby = tb[6] + dy * tb[7];
        let cbz = cbz0 + dz * dcbzdz;
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

/// The eighteen coefficients, in [`Interpolator`] field order, of the
/// voxel(s) of `T` at `v` from the fields `[ex, ey, ez, cbx, cby, cbz]`:
/// [`InterpolatorArray::load_serial`]'s expression tree, element-wise.
#[inline(always)]
fn coefficients<T: Row>(fs: [&[f32]; 6], v: usize, (dj, dk): (usize, usize)) -> [T; 18] {
    let [ex, ey, ez, cbx, cby, cbz] = fs;
    let at = T::load_at;
    let (q, h) = (T::splat(0.25), T::splat(0.5));
    // Mean, the two first differences and the cross difference of the
    // four edges around the voxel.
    let edges = |w0: T, w1: T, w2: T, w3: T| {
        [
            q * (w0 + w1 + w2 + w3),
            q * ((w1 + w3) - (w0 + w2)),
            q * ((w2 + w3) - (w0 + w1)),
            q * ((w0 + w3) - (w1 + w2)),
        ]
    };
    // Ex on the 4 x-edges of the voxel: (j,k), (j+1,k), (k+1), (j+1,k+1).
    let [e0, e1, e2, e3] = edges(
        at(ex, v),
        at(ex, v + dj),
        at(ex, v + dk),
        at(ex, v + dj + dk),
    );
    // Ey on the 4 y-edges: (k,i), (k+1,i), (i+1), (k+1,i+1).
    let [e4, e5, e6, e7] = edges(at(ey, v), at(ey, v + dk), at(ey, v + 1), at(ey, v + dk + 1));
    // Ez on the 4 z-edges: (i,j), (i+1,j), (j+1), (i+1,j+1).
    let [e8, e9, e10, e11] = edges(at(ez, v), at(ez, v + 1), at(ez, v + dj), at(ez, v + 1 + dj));
    // cB linear along its own normal.
    let face = |w0: T, w1: T| [h * (w0 + w1), h * (w1 - w0)];
    let [b0, b1] = face(at(cbx, v), at(cbx, v + 1));
    let [b2, b3] = face(at(cby, v), at(cby, v + dj));
    let [b4, b5] = face(at(cbz, v), at(cbz, v + dk));
    [
        e0, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, b0, b1, b2, b3, b4, b5,
    ]
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
    fn gather_ha_cb8_matches_scalar_interpolation_bitwise() {
        // The production entry point against the scalar evaluators, on
        // random coefficients, random (mixed, repeated) voxels and random
        // offsets: lane `l` must be `qdt_2mc · e_at` / `cb_at` of voxel
        // `idx[l]`, bit for bit.
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.1);
        let mut rng = crate::rng::Rng::seeded(0x6A7E);
        let mut ia = InterpolatorArray::new(&g);
        for ip in ia.data.iter_mut() {
            let mut f = || rng.uniform_in(-2.0, 2.0) as f32;
            *ip = Interpolator {
                ex: f(),
                dexdy: f(),
                dexdz: f(),
                d2exdydz: f(),
                ey: f(),
                deydz: f(),
                deydx: f(),
                d2eydzdx: f(),
                ez: f(),
                dezdx: f(),
                dezdy: f(),
                d2ezdxdy: f(),
                cbx: f(),
                dcbxdx: f(),
                cby: f(),
                dcbydy: f(),
                cbz: f(),
                dcbzdz: f(),
            };
        }
        let nv = ia.data.len();
        for round in 0..200 {
            let mut idx: [u32; LANES] = std::array::from_fn(|_| rng.index(nv) as u32);
            if round % 2 == 0 {
                idx[5] = idx[1]; // lanes sharing a voxel, the sorted case
                idx[6] = idx[1];
            }
            // A second block rides along: block 0 of the pair must read
            // what the single-block gather reads, and block 1 its own.
            let idx1: [u32; LANES] = std::array::from_fn(|_| rng.index(nv) as u32);
            let mut offset = || {
                Wide::<2>(std::array::from_fn(|_| {
                    F32x8(std::array::from_fn(|_| rng.uniform_in(-1.0, 1.0) as f32))
                }))
            };
            let (dx, dy, dz) = (offset(), offset(), offset());
            let qdt = rng.uniform_in(-0.5, 0.5) as f32;
            let pair = ia.gather_ha_cb8([&idx, &idx1], dx, dy, dz, qdt);
            let first = |w: Wide<2>| Wide([w.0[0]]);
            let single = ia.gather_ha_cb8([&idx], first(dx), first(dy), first(dz), qdt);
            let ((hax, hay, haz), (cbx, cby, cbz)) = pair;
            for (k, idx) in [idx, idx1].iter().enumerate() {
                for (l, &v) in idx.iter().enumerate() {
                    let f = &ia.data[v as usize];
                    let at = |w: Wide<2>| w.0[k].0[l];
                    let (ex, ey, ez) = f.e_at(at(dx), at(dy), at(dz));
                    let (bx, by, bz) = f.cb_at(at(dx), at(dy), at(dz));
                    let got = [hax, hay, haz, cbx, cby, cbz].map(|w| at(w).to_bits());
                    let want = [qdt * ex, qdt * ey, qdt * ez, bx, by, bz].map(f32::to_bits);
                    assert_eq!(got, want, "round {round}, block {k}, lane {l}, voxel {v}");
                }
            }
            let ((sax, say, saz), (sbx, sby, sbz)) = single;
            assert_eq!(
                [sax, say, saz, sbx, sby, sbz],
                [hax, hay, haz, cbx, cby, cbz].map(first),
                "round {round}: K = 1 differs from block 0 of K = 2"
            );
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
