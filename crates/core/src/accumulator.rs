//! Current accumulator arrays (VPIC's `accumulator_array`).
//!
//! The particle push never scatters straight into the Yee current arrays:
//! each *pipeline* (worker thread) owns a private accumulator array holding
//! twelve values per voxel — the charge flux through the four x-edges, four
//! y-edges and four z-edges of that voxel. After the push the pipelines'
//! arrays are reduced and "unloaded" (scattered with the proper geometric
//! scale factors) into `jx/jy/jz`. This is exactly how VPIC avoids write
//! conflicts between SPE pipelines on Roadrunner, and how we avoid them
//! between Rayon workers.
//!
//! Normalization: an accumulator entry holds `q·h·W` where `q` is the
//! macroparticle charge, `h` the half-displacement along the edge direction
//! in voxel-offset units, and `W` the (Villasenor–Buneman) quadrant weight
//! in `[-1,1]` coordinates; the four quadrant weights sum to 4, so the
//! unload scale for x-edges is `1/(4·dt·dy·dz)` (and cyclic).
//!
//! Each array tracks the half-open voxel range its deposits touched since
//! the last [`AccumulatorArray::clear`]. Because the push hands each
//! pipeline one contiguous block of voxel-sorted particles, a pipeline
//! dirties only ~`1/n_pipelines` of the grid — so range-aware clears and
//! reductions cost about one full array regardless of the pipeline count,
//! where the naive versions cost `n_pipelines` arrays of memory traffic
//! every step.

use crate::field::FieldArray;
use crate::grid::Grid;
use crate::lanes::{F32x8, Mask8, Wide, LANES};
use rayon::prelude::*;

/// Voxels per parallel task in the range reduction (whole `Accumulator`
/// entries, so chunk boundaries never split a voxel's 12 floats).
const REDUCE_CHUNK: usize = 8192;

/// Twelve-entry current accumulator for one voxel.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default)]
pub struct Accumulator {
    /// x-edge quadrants in `(j,k)`, `(j+1,k)`, `(j,k+1)`, `(j+1,k+1)` order.
    pub jx: [f32; 4],
    /// y-edge quadrants in `(k,i)`, `(k+1,i)`, `(k,i+1)`, `(k+1,i+1)` order.
    pub jy: [f32; 4],
    /// z-edge quadrants in `(i,j)`, `(i+1,j)`, `(i,j+1)`, `(i+1,j+1)` order.
    pub jz: [f32; 4],
}

/// [`Accumulator`] seen as the lane scatter loads and stores it: the `jx`
/// and `jy` quadrants as one eight-float row, then the `jz` quadrants.
#[repr(C)]
struct AccumulatorRows {
    jxy: [f32; LANES],
    jz: [f32; LANES / 2],
}

const _: () = {
    assert!(std::mem::size_of::<Accumulator>() == std::mem::size_of::<AccumulatorRows>());
    assert!(std::mem::align_of::<Accumulator>() == std::mem::align_of::<AccumulatorRows>());
};

impl Accumulator {
    /// The same twelve floats, grouped into rows.
    #[inline(always)]
    fn rows(&self) -> &AccumulatorRows {
        // SAFETY: both types are `#[repr(C)]` and made of twelve `f32`s
        // and nothing else, so they have the same size and alignment (the
        // const block above checks it) with no padding, float `n` of one
        // at the byte offset of float `n` of the other; every bit pattern
        // is a valid `f32`; the result borrows `self`.
        unsafe { &*(self as *const Accumulator as *const AccumulatorRows) }
    }

    /// [`Self::rows`], writable.
    #[inline(always)]
    fn rows_mut(&mut self) -> &mut AccumulatorRows {
        // SAFETY: as in `rows`; the result borrows `self` mutably.
        unsafe { &mut *(self as *mut Accumulator as *mut AccumulatorRows) }
    }
}

/// What a voxel the scatter has not deposited into reads as — and what
/// [`AccumulatorArray::deposit_lane`] loads in place of the voxel it
/// already holds in registers.
static ZERO: Accumulator = Accumulator {
    jx: [0.0; 4],
    jy: [0.0; 4],
    jz: [0.0; 4],
};

/// The accumulator entry the lane scatter deposited into last, as it now
/// stands in memory: `jxy` lanes 0–3/4–7 are the `jx`/`jy` quadrants,
/// `jz` lanes 0–3 the `jz` quadrants (4–7 zero). Whoever deposits into
/// the array by another route in between (the crosser mover) resets it to
/// [`OpenVoxel::NONE`]; memory is always current, so there is nothing to
/// write back.
#[derive(Clone, Copy)]
pub(crate) struct OpenVoxel {
    voxel: usize,
    jxy: F32x8,
    jz: F32x8,
}

impl OpenVoxel {
    /// No voxel held (`usize::MAX` is no voxel's index).
    pub(crate) const NONE: OpenVoxel = OpenVoxel {
        voxel: usize::MAX,
        jxy: F32x8([0.0; LANES]),
        jz: F32x8([0.0; LANES]),
    };
}

/// One pipeline's accumulator array.
#[derive(Clone, Debug)]
pub struct AccumulatorArray {
    pub data: Vec<Accumulator>,
    /// First voxel touched since the last clear (`usize::MAX` when clean).
    dirty_lo: usize,
    /// One past the last voxel touched since the last clear.
    dirty_hi: usize,
}

impl AccumulatorArray {
    /// Zeroed array sized for `grid`.
    pub fn new(grid: &Grid) -> Self {
        AccumulatorArray {
            data: vec![Accumulator::default(); grid.n_voxels()],
            dirty_lo: usize::MAX,
            dirty_hi: 0,
        }
    }

    /// Half-open voxel range deposited into since the last clear. All
    /// entries outside it are zero (every mutation funnels through
    /// [`Self::deposit`] / [`Self::reduce_from`], which widen it, or
    /// through [`Self::deposit_lane`], whose caller does).
    #[inline]
    pub fn dirty_range(&self) -> std::ops::Range<usize> {
        if self.dirty_lo >= self.dirty_hi {
            0..0
        } else {
            self.dirty_lo..self.dirty_hi
        }
    }

    /// Reset all touched entries to zero (cost scales with the dirty
    /// range, not the grid).
    pub fn clear(&mut self) {
        let r = self.dirty_range();
        self.data[r]
            .iter_mut()
            .for_each(|a| *a = Accumulator::default());
        self.dirty_lo = usize::MAX;
        self.dirty_hi = 0;
    }

    /// Accumulate the current of one straight-line particle streak that
    /// stays inside `voxel`.
    ///
    /// `q` is the macroparticle charge (`species charge × weight`);
    /// `(mx,my,mz)` is the streak midpoint in voxel offsets; `(hx,hy,hz)`
    /// is the *half* displacement of the streak in offset units.
    #[inline]
    pub fn deposit(
        &mut self,
        voxel: usize,
        q: f32,
        (mx, my, mz): (f32, f32, f32),
        (hx, hy, hz): (f32, f32, f32),
    ) {
        let v5 = q * hx * hy * hz * (1.0 / 3.0);
        self.touch(voxel, voxel);
        let a = &mut self.data[voxel];
        accumulate_quadrants(&mut a.jx, q * hx, my, mz, v5);
        accumulate_quadrants(&mut a.jy, q * hy, mz, mx, v5);
        accumulate_quadrants(&mut a.jz, q * hz, mx, my, v5);
    }

    /// Widen the dirty range to cover voxels `lo..=hi`.
    #[inline]
    pub(crate) fn touch(&mut self, lo: usize, hi: usize) {
        self.dirty_lo = self.dirty_lo.min(lo);
        self.dirty_hi = self.dirty_hi.max(hi + 1);
    }

    /// Accumulate four precomputed quadrant contributions per edge
    /// direction into `voxel` — the scatter half of [`Self::deposit`]
    /// when the quadrant arithmetic was done lane-wide up front (see
    /// [`quadrants_lanes`]). Each entry is added with a single `+=`, the
    /// same final operation `deposit` performs, so a lane kernel that
    /// feeds this with bit-identical addends lands on bit-identical sums.
    #[inline]
    pub fn deposit_quadrants(&mut self, voxel: usize, jx: [f32; 4], jy: [f32; 4], jz: [f32; 4]) {
        self.touch(voxel, voxel);
        let a = &mut self.data[voxel];
        for n in 0..4 {
            a.jx[n] += jx[n];
            a.jy[n] += jy[n];
            a.jz[n] += jz[n];
        }
    }

    /// One stay lane of the lane kernel's in-order scatter:
    /// [`Self::deposit_quadrants`] with the addends pre-transposed into
    /// per-particle registers (`jxy` holds the four `jx` quadrants in
    /// lanes 0–3 and the four `jy` quadrants in lanes 4–7; `jz` the four
    /// `jz` quadrants in lanes 0–3, zeros above), *without* widening the
    /// dirty range — the caller [`Self::touch`]es a block's voxels once.
    ///
    /// Every entry receives exactly one `+=` of the identical addend and
    /// the sum is stored at once, so memory is current after every lane
    /// and the sums are those of the per-entry form. What is left out is
    /// the store-to-load round trip between consecutive lanes of one
    /// voxel (the sorted case): `open` carries the stored sums in
    /// registers, and when `voxel` is the open one they are selected over
    /// the loaded ones. There is no branch on that test — the load goes
    /// ahead, from [`ZERO`] instead of the entry just stored to, so that
    /// it never waits for the store either — which leaves a blend and an
    /// add per lane on the dependency chain, whatever the voxel pattern.
    #[inline(always)]
    pub(crate) fn deposit_lane(
        &mut self,
        voxel: usize,
        open: &mut OpenVoxel,
        jxy: F32x8,
        jz: F32x8,
    ) {
        let slot = &mut self.data[voxel];
        let same = voxel == open.voxel;
        let from: &Accumulator = if same { &ZERO } else { slot };
        let from = from.rows();
        // All lanes or none: a conditional move on the address above and
        // on the mask here, no jump.
        let held = Mask8(if same { 0xFF } else { 0 });
        let [z0, z1, z2, z3] = from.jz;
        let loaded_z = F32x8([z0, z1, z2, z3, 0.0, 0.0, 0.0, 0.0]);
        let sxy = F32x8::select(held, open.jxy, F32x8::load(&from.jxy)) + jxy;
        let sz = F32x8::select(held, open.jz, loaded_z) + jz;
        let to = slot.rows_mut();
        to.jxy = sxy.0;
        to.jz = [sz.0[0], sz.0[1], sz.0[2], sz.0[3]];
        *open = OpenVoxel {
            voxel,
            jxy: sxy,
            jz: sz,
        };
    }

    /// Sum `other` into `self` (pipeline reduction); only `other`'s dirty
    /// range is walked.
    pub fn reduce_from(&mut self, other: &AccumulatorArray) {
        assert_eq!(self.data.len(), other.data.len());
        let r = other.dirty_range();
        if r.is_empty() {
            return;
        }
        self.dirty_lo = self.dirty_lo.min(r.start);
        self.dirty_hi = self.dirty_hi.max(r.end);
        for (a, b) in self.data[r.clone()].iter_mut().zip(other.data[r].iter()) {
            for n in 0..4 {
                a.jx[n] += b.jx[n];
                a.jy[n] += b.jy[n];
                a.jz[n] += b.jz[n];
            }
        }
    }

    /// Scatter the accumulated charge fluxes into the Yee current density,
    /// one Rayon task per z-slab: the task does the `jx`, `jy` and `jz`
    /// rows of each `j` back to back, so the accumulator rows it reads are
    /// streamed once, not once per component. Each `f.jx[v]` (resp.
    /// `jy`/`jz`) is written by exactly one task with the same 4-term sum
    /// as [`Self::unload`], so the result is bitwise identical to the
    /// serial unload for any worker count.
    pub fn unload_parallel(&self, f: &mut FieldArray, g: &Grid) {
        let (sx, sy, _) = g.strides();
        let (dj, dk) = (sx, sx * sy);
        let cx = 0.25 / (g.dt * g.dy * g.dz);
        let cy = 0.25 / (g.dt * g.dz * g.dx);
        let cz = 0.25 / (g.dt * g.dx * g.dy);
        // The slab closure takes the source slice, the extents and the
        // scale factors by value (see `InterpolatorArray::load` for why),
        // and walks rows: voxel (i, j, k) is `i + dj·j + dk·k`.
        let a = &self.data[..];
        let (nx, ny, nz) = (g.nx, g.ny, g.nz);
        f.jx.par_chunks_mut(dk)
            .zip(f.jy.par_chunks_mut(dk))
            .zip(f.jz.par_chunks_mut(dk))
            .enumerate()
            .skip(1)
            .take(nz + 1)
            .for_each(move |(k, ((jx, jy), jz))| {
                for j in 1..=ny + 1 {
                    let row = dj * j + dk * k;
                    // jx on x-edges: i ∈ 1..=nx, j ∈ 1..=ny+1, k ∈ 1..=nz+1.
                    for v in row + 1..=row + nx {
                        jx[v - k * dk] += cx
                            * (a[v].jx[0]
                                + a[v - dj].jx[1]
                                + a[v - dk].jx[2]
                                + a[v - dj - dk].jx[3]);
                    }
                    // jy on y-edges: i ∈ 1..=nx+1, j ∈ 1..=ny, k ∈ 1..=nz+1.
                    if j <= ny {
                        for v in row + 1..=row + nx + 1 {
                            jy[v - k * dk] += cy
                                * (a[v].jy[0]
                                    + a[v - dk].jy[1]
                                    + a[v - 1].jy[2]
                                    + a[v - dk - 1].jy[3]);
                        }
                    }
                    // jz on z-edges: i ∈ 1..=nx+1, j ∈ 1..=ny+1, k ∈ 1..=nz.
                    if k <= nz {
                        for v in row + 1..=row + nx + 1 {
                            jz[v - k * dk] += cz
                                * (a[v].jz[0]
                                    + a[v - 1].jz[1]
                                    + a[v - dj].jz[2]
                                    + a[v - 1 - dj].jz[3]);
                        }
                    }
                }
            });
    }

    /// Scatter the accumulated charge fluxes into the Yee current density
    /// (adds to `f.jx/jy/jz`; clear them first if they should start at 0).
    /// Serial reference for [`Self::unload_parallel`].
    pub fn unload(&self, f: &mut FieldArray, g: &Grid) {
        let (sx, sy, _) = g.strides();
        let (dj, dk) = (sx, sx * sy);
        let cx = 0.25 / (g.dt * g.dy * g.dz);
        let cy = 0.25 / (g.dt * g.dz * g.dx);
        let cz = 0.25 / (g.dt * g.dx * g.dy);
        // A slice, moved into the slab closures with the scale factors
        // (see `InterpolatorArray::load` for why by value).
        let a = &self.data[..];
        // jx on x-edges: i ∈ 1..=nx, j ∈ 1..=ny+1, k ∈ 1..=nz+1.
        for k in 1..=g.nz + 1 {
            for j in 1..=g.ny + 1 {
                for i in 1..=g.nx {
                    let v = g.voxel(i, j, k);
                    f.jx[v] += cx
                        * (a[v].jx[0] + a[v - dj].jx[1] + a[v - dk].jx[2] + a[v - dj - dk].jx[3]);
                }
            }
        }
        // jy on y-edges: i ∈ 1..=nx+1, j ∈ 1..=ny, k ∈ 1..=nz+1.
        for k in 1..=g.nz + 1 {
            for j in 1..=g.ny {
                for i in 1..=g.nx + 1 {
                    let v = g.voxel(i, j, k);
                    f.jy[v] +=
                        cy * (a[v].jy[0] + a[v - dk].jy[1] + a[v - 1].jy[2] + a[v - dk - 1].jy[3]);
                }
            }
        }
        // jz on z-edges: i ∈ 1..=nx+1, j ∈ 1..=ny+1, k ∈ 1..=nz.
        for k in 1..=g.nz {
            for j in 1..=g.ny + 1 {
                for i in 1..=g.nx + 1 {
                    let v = g.voxel(i, j, k);
                    f.jz[v] +=
                        cz * (a[v].jz[0] + a[v - 1].jz[1] + a[v - dj].jz[2] + a[v - 1 - dj].jz[3]);
                }
            }
        }
    }
}

/// Villasenor–Buneman quadrant accumulation (VPIC's `ACCUMULATE_J` macro):
/// given `qu = q·h_edge`, transverse midpoints `d1, d2 ∈ [-1,1]` and the
/// shared correction `v5 = q·hx·hy·hz/3`, add the four quadrant fluxes.
#[inline]
fn accumulate_quadrants(quad: &mut [f32; 4], qu: f32, d1: f32, d2: f32, v5: f32) {
    let v1 = qu * d1;
    let mut w0 = qu - v1; // qu(1-d1)
    let mut w1 = qu + v1; // qu(1+d1)
    let hi = 1.0 + d2;
    let lo = 1.0 - d2;
    let w2 = w0 * hi; // qu(1-d1)(1+d2)
    let w3 = w1 * hi; // qu(1+d1)(1+d2)
    w0 *= lo; // qu(1-d1)(1-d2)
    w1 *= lo; // qu(1+d1)(1-d2)
    quad[0] += w0 + v5;
    quad[1] += w1 - v5;
    quad[2] += w2 - v5;
    quad[3] += w3 + v5;
}

/// Lane-wide mirror of [`accumulate_quadrants`]: for the eight particles
/// of each of `K` blocks at once, compute the four quadrant *addends*
/// `[w0+v5, w1-v5, w2-v5, w3+v5]` without touching the array. Each lane
/// runs the exact scalar operation sequence element-wise (same products,
/// same ordering, no fusion), so lane `l` of the result is bit-identical
/// to what the scalar macro would have added for that particle; the
/// caller adds the addends to the accumulator entry in particle order.
#[inline(always)]
pub(crate) fn quadrants_lanes<const K: usize>(
    qu: Wide<K>,
    d1: Wide<K>,
    d2: Wide<K>,
    v5: Wide<K>,
) -> [Wide<K>; 4] {
    let one = Wide::splat(1.0);
    let v1 = qu * d1;
    let mut w0 = qu - v1; // qu(1-d1)
    let mut w1 = qu + v1; // qu(1+d1)
    let hi = one + d2;
    let lo = one - d2;
    let w2 = w0 * hi; // qu(1-d1)(1+d2)
    let w3 = w1 * hi; // qu(1+d1)(1+d2)
    w0 = w0 * lo; // qu(1-d1)(1-d2)
    w1 = w1 * lo; // qu(1+d1)(1-d2)
    [w0 + v5, w1 - v5, w2 - v5, w3 + v5]
}

/// A pool of per-pipeline accumulator arrays (index 0 is the reduction
/// target).
#[derive(Debug)]
pub struct AccumulatorSet {
    pub arrays: Vec<AccumulatorArray>,
}

impl AccumulatorSet {
    /// One array per pipeline.
    pub fn new(grid: &Grid, n_pipelines: usize) -> Self {
        assert!(n_pipelines >= 1);
        AccumulatorSet {
            arrays: (0..n_pipelines)
                .map(|_| AccumulatorArray::new(grid))
                .collect(),
        }
    }

    /// Number of pipelines.
    pub fn n_pipelines(&self) -> usize {
        self.arrays.len()
    }

    /// Clear every pipeline array (one Rayon task per array; each clear
    /// only walks that array's dirty range).
    pub fn clear(&mut self) {
        self.arrays.par_iter_mut().for_each(AccumulatorArray::clear);
    }

    /// Reduce all pipelines into array 0 and return a reference to it.
    /// Serial reference for [`Self::reduce_and_unload`].
    pub fn reduce(&mut self) -> &AccumulatorArray {
        let (first, rest) = self
            .arrays
            .split_first_mut()
            .expect("at least one pipeline");
        for r in rest {
            first.reduce_from(r);
        }
        first
    }

    /// Reduce all pipelines into array 0 and scatter the result into
    /// `f.jx/jy/jz`, both phases Rayon-parallel.
    ///
    /// The reduction fans out over fixed voxel chunks; within each chunk
    /// the pipelines are added in index order, so every voxel sums its
    /// twelve entries in pipeline order no matter which worker ran the
    /// chunk or how many workers exist — results are bitwise identical to
    /// the serial [`Self::reduce`] + [`AccumulatorArray::unload`] path.
    /// Only dirty voxel ranges are walked, so the whole call costs about
    /// one array of memory traffic regardless of the pipeline count.
    pub fn reduce_and_unload(&mut self, f: &mut FieldArray, g: &Grid) {
        let (first, rest) = self
            .arrays
            .split_first_mut()
            .expect("at least one pipeline");
        if !rest.is_empty() {
            // Union of the helper pipelines' dirty ranges: the only voxels
            // where array 0 needs updating.
            let touched = rest.iter().map(AccumulatorArray::dirty_range);
            let lo = touched
                .clone()
                .filter(|r| !r.is_empty())
                .map(|r| r.start)
                .min()
                .unwrap_or(0);
            let hi = touched.map(|r| r.end).max().unwrap_or(0);
            if lo < hi {
                let rest: &[AccumulatorArray] = rest;
                first.data[lo..hi]
                    .par_chunks_mut(REDUCE_CHUNK)
                    .enumerate()
                    .for_each(move |(ci, chunk)| {
                        let base = lo + ci * REDUCE_CHUNK;
                        for r in rest {
                            let rr = r.dirty_range();
                            let (s, e) = (rr.start.max(base), rr.end.min(base + chunk.len()));
                            let from = &r.data[..];
                            for v in s..e {
                                let (a, b) = (&mut chunk[v - base], &from[v]);
                                for n in 0..4 {
                                    a.jx[n] += b.jx[n];
                                    a.jy[n] += b.jy[n];
                                    a.jz[n] += b.jz[n];
                                }
                            }
                        }
                    });
                first.dirty_lo = first.dirty_lo.min(lo);
                first.dirty_hi = first.dirty_hi.max(hi);
            }
        }
        self.arrays[0].unload_parallel(f, g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrant_weights_sum_to_four_qu() {
        let mut quad = [0.0f32; 4];
        accumulate_quadrants(&mut quad, 2.0, 0.3, -0.7, 0.05);
        let sum: f32 = quad.iter().sum();
        // Corrections cancel; weights sum to 4.
        assert!((sum - 8.0).abs() < 1e-6);
    }

    #[test]
    fn centered_streak_splits_evenly() {
        let g = Grid::periodic((3, 3, 3), (1.0, 1.0, 1.0), 0.5);
        let mut acc = AccumulatorArray::new(&g);
        let v = g.voxel(2, 2, 2);
        // Pure x motion at the voxel center: all four x-quadrants equal
        // (each quadrant weight (1±d1)(1±d2) is 1 at the center).
        acc.deposit(v, 1.0, (0.0, 0.0, 0.0), (0.25, 0.0, 0.0));
        for n in 0..4 {
            assert!(
                (acc.data[v].jx[n] - 0.25).abs() < 1e-7,
                "{:?}",
                acc.data[v].jx
            );
            assert_eq!(acc.data[v].jy[n], 0.0);
            assert_eq!(acc.data[v].jz[n], 0.0);
        }
    }

    #[test]
    fn unload_recovers_uniform_current_density() {
        // A particle of charge q moving +x at speed v deposits total
        // J·dV = q·v; check by summing jx·dV over the grid.
        let g = Grid::periodic((4, 4, 4), (0.5, 0.5, 0.5), 0.05);
        let mut acc = AccumulatorArray::new(&g);
        let q = 2.0f32;
        let vx = 0.3f32; // physical velocity
        let hx = vx * g.dt / g.dx; // half displacement in offset units
        acc.deposit(g.voxel(2, 3, 2), q, (0.1, -0.4, 0.6), (hx, 0.0, 0.0));
        let mut f = FieldArray::new(&g);
        acc.unload(&mut f, &g);
        let total: f64 =
            f.jx.iter()
                .enumerate()
                .filter(|(v, _)| {
                    // Count each physical edge once: live x range, node ranges
                    // 1..=n in y/z (plane n+1 is a periodic alias, but nothing
                    // was synced yet so all deposits are distinct entries).
                    let (i, j, k) = g.voxel_coords(*v);
                    (1..=g.nx).contains(&i)
                        && (1..=g.ny + 1).contains(&j)
                        && (1..=g.nz + 1).contains(&k)
                })
                .map(|(_, &j)| j as f64)
                .sum::<f64>()
                * g.dv() as f64;
        assert!(
            (total - (q * vx) as f64).abs() < 1e-5,
            "total = {total}, want {}",
            q * vx
        );
    }

    #[test]
    fn dirty_range_tracks_deposits_and_clear() {
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.1);
        let mut acc = AccumulatorArray::new(&g);
        assert!(acc.dirty_range().is_empty());
        let (va, vb) = (g.voxel(1, 1, 1), g.voxel(3, 2, 2));
        acc.deposit(vb, 1.0, (0.0, 0.0, 0.0), (0.1, 0.0, 0.0));
        acc.deposit(va, 1.0, (0.0, 0.0, 0.0), (0.1, 0.0, 0.0));
        assert_eq!(acc.dirty_range(), va..vb + 1);
        acc.clear();
        assert!(acc.dirty_range().is_empty());
        assert!(acc
            .data
            .iter()
            .all(|a| a.jx == [0.0; 4] && a.jy == [0.0; 4] && a.jz == [0.0; 4]));
        // Deposits after a clear start a fresh range.
        acc.deposit(vb, 1.0, (0.0, 0.0, 0.0), (0.0, 0.1, 0.0));
        assert_eq!(acc.dirty_range(), vb..vb + 1);
    }

    #[test]
    fn reduce_and_unload_matches_serial_path() {
        // The last two shapes are the thin ones the LPI decks run, where
        // the fused slab task's `jy`/`jz` row guards do most of the work.
        for shape in [(6, 5, 4), (291, 1, 1), (1, 7, 1)] {
            reduce_and_unload_matches_serial_on(shape);
        }
    }

    fn reduce_and_unload_matches_serial_on((nx, ny, nz): (usize, usize, usize)) {
        use crate::rng::Rng;
        let g = Grid::periodic((nx, ny, nz), (0.5, 0.5, 0.5), 0.05);
        let mut rng = Rng::seeded(42);
        let mut set = AccumulatorSet::new(&g, 4);
        for (pipe, arr) in set.arrays.iter_mut().enumerate() {
            for _ in 0..50 + 30 * pipe {
                let v = g.voxel(1 + rng.index(nx), 1 + rng.index(ny), 1 + rng.index(nz));
                arr.deposit(
                    v,
                    rng.uniform_in(-1.0, 1.0) as f32,
                    (
                        rng.uniform_in(-0.9, 0.9) as f32,
                        rng.uniform_in(-0.9, 0.9) as f32,
                        rng.uniform_in(-0.9, 0.9) as f32,
                    ),
                    (
                        rng.uniform_in(-0.2, 0.2) as f32,
                        rng.uniform_in(-0.2, 0.2) as f32,
                        rng.uniform_in(-0.2, 0.2) as f32,
                    ),
                );
            }
        }
        let mut serial_set = AccumulatorSet {
            arrays: set.arrays.clone(),
        };
        let mut f_par = FieldArray::new(&g);
        let mut f_ser = FieldArray::new(&g);
        set.reduce_and_unload(&mut f_par, &g);
        let reduced = serial_set.reduce();
        reduced.unload(&mut f_ser, &g);
        // Bitwise: reduction order and unload arithmetic are identical.
        assert!(f_par.jx.iter().zip(f_ser.jx.iter()).all(|(a, b)| a == b));
        assert!(f_par.jy.iter().zip(f_ser.jy.iter()).all(|(a, b)| a == b));
        assert!(f_par.jz.iter().zip(f_ser.jz.iter()).all(|(a, b)| a == b));
        for (a, b) in set.arrays[0]
            .data
            .iter()
            .zip(serial_set.arrays[0].data.iter())
        {
            assert_eq!(a.jx, b.jx);
            assert_eq!(a.jy, b.jy);
            assert_eq!(a.jz, b.jz);
        }
    }

    fn assert_bitwise_eq(want: &AccumulatorArray, got: &AccumulatorArray, what: &str) {
        assert_eq!(want.dirty_range(), got.dirty_range(), "{what}");
        for (v, (a, b)) in want.data.iter().zip(got.data.iter()).enumerate() {
            for n in 0..4 {
                assert_eq!(
                    a.jx[n].to_bits(),
                    b.jx[n].to_bits(),
                    "{what}: jx[{n}] at {v}"
                );
                assert_eq!(
                    a.jy[n].to_bits(),
                    b.jy[n].to_bits(),
                    "{what}: jy[{n}] at {v}"
                );
                assert_eq!(
                    a.jz[n].to_bits(),
                    b.jz[n].to_bits(),
                    "{what}: jz[{n}] at {v}"
                );
            }
        }
    }

    #[test]
    fn lane_quadrants_match_scalar_deposit_bitwise() {
        use crate::lanes::transpose8;
        use crate::rng::Rng;
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.1);
        let mut rng = Rng::seeded(11);
        // Eight random streaks over three voxels in the order A B C A B C
        // A B, so every deposit revisits a voxel that another lane wrote
        // in between; deposited via the scalar macro and via lane-wide
        // quadrant precompute + deposit_quadrants, compared bitwise.
        let mut q = [0.0f32; LANES];
        let mut m = [(0.0f32, 0.0f32, 0.0f32); LANES];
        let mut h = [(0.0f32, 0.0f32, 0.0f32); LANES];
        let mut vox = [0usize; LANES];
        for l in 0..LANES {
            q[l] = rng.uniform_in(-1.0, 1.0) as f32;
            m[l] = (
                rng.uniform_in(-0.9, 0.9) as f32,
                rng.uniform_in(-0.9, 0.9) as f32,
                rng.uniform_in(-0.9, 0.9) as f32,
            );
            h[l] = (
                rng.uniform_in(-0.2, 0.2) as f32,
                rng.uniform_in(-0.2, 0.2) as f32,
                rng.uniform_in(-0.2, 0.2) as f32,
            );
            vox[l] = g.voxel(1 + l % 3, 2, 2);
        }
        let mut scalar = AccumulatorArray::new(&g);
        for l in 0..LANES {
            scalar.deposit(vox[l], q[l], m[l], h[l]);
        }

        let qv = Wide([F32x8(q)]);
        let mx = Wide([F32x8(std::array::from_fn(|l| m[l].0))]);
        let my = Wide([F32x8(std::array::from_fn(|l| m[l].1))]);
        let mz = Wide([F32x8(std::array::from_fn(|l| m[l].2))]);
        let hx = Wide([F32x8(std::array::from_fn(|l| h[l].0))]);
        let hy = Wide([F32x8(std::array::from_fn(|l| h[l].1))]);
        let hz = Wide([F32x8(std::array::from_fn(|l| h[l].2))]);
        let v5 = qv * hx * hy * hz * Wide::splat(1.0 / 3.0);
        let jx = quadrants_lanes(qv * hx, my, mz, v5).map(|w| w.0[0]);
        let jy = quadrants_lanes(qv * hy, mz, mx, v5).map(|w| w.0[0]);
        let jz = quadrants_lanes(qv * hz, mx, my, v5).map(|w| w.0[0]);
        let mut lanes = AccumulatorArray::new(&g);
        for (l, &v) in vox.iter().enumerate() {
            lanes.deposit_quadrants(
                v,
                std::array::from_fn(|n| jx[n].0[l]),
                std::array::from_fn(|n| jy[n].0[l]),
                std::array::from_fn(|n| jz[n].0[l]),
            );
        }
        assert_bitwise_eq(&scalar, &lanes, "deposit_quadrants");

        // The production lane scatter: pre-transposed addends through
        // deposit_lane, memory current after every lane. Once in the
        // A B C order above (every lane reloads), once with the lanes
        // regrouped A A A B B B C C (the open voxel's registers are
        // selected), and once with the open voxel dropped after every lane
        // as a spill would drop it.
        let zero = F32x8::splat(0.0);
        let txy = transpose8([jx[0], jx[1], jx[2], jx[3], jy[0], jy[1], jy[2], jy[3]]);
        let tz = transpose8([jz[0], jz[1], jz[2], jz[3], zero, zero, zero, zero]);
        for (what, order, forget) in [
            ("deposit_lane, revisits", [0, 1, 2, 3, 4, 5, 6, 7], false),
            ("deposit_lane, runs", [0, 3, 6, 1, 4, 7, 2, 5], false),
            (
                "deposit_lane, open voxel dropped",
                [0, 3, 6, 1, 4, 7, 2, 5],
                true,
            ),
        ] {
            let mut want = AccumulatorArray::new(&g);
            let mut got = AccumulatorArray::new(&g);
            let mut open = OpenVoxel::NONE;
            got.touch(g.voxel(1, 2, 2), g.voxel(3, 2, 2));
            for l in order {
                want.deposit(vox[l], q[l], m[l], h[l]);
                got.deposit_lane(vox[l], &mut open, txy[l], tz[l]);
                if forget {
                    open = OpenVoxel::NONE;
                }
            }
            assert_bitwise_eq(&want, &got, what);
        }
    }

    #[test]
    fn reduce_sums_pipelines() {
        let g = Grid::periodic((2, 2, 2), (1.0, 1.0, 1.0), 0.1);
        let mut set = AccumulatorSet::new(&g, 3);
        let v = g.voxel(1, 1, 1);
        for (n, arr) in set.arrays.iter_mut().enumerate() {
            arr.deposit(v, (n + 1) as f32, (0.0, 0.0, 0.0), (0.1, 0.0, 0.0));
        }
        let reduced = set.reduce();
        let sum: f32 = reduced.data[v].jx.iter().sum();
        // Quadrant weights sum to 4·q·hx per deposit; total charge is 1+2+3.
        assert!((sum - 4.0 * 6.0 * 0.1).abs() < 1e-5, "sum = {sum}");
    }
}
