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
//! Each array marks the z-planes its deposits reached since the last
//! [`AccumulatorArray::clear`]. The push hands each pipeline one
//! contiguous run of voxel-sorted particles, so a pipeline deposits into
//! about `1/n_pipelines` of the planes, plus the few it shares with its
//! neighbours and those its wrapped crossers reach. The arrays are
//! allocated as zeroed memory, so a plane no deposit reaches is never
//! written: clears, the pipeline fold and the non-finite sweep walk the
//! live rows of dirty planes only, and the unload reads each plane from
//! the one pipeline that owns it. A plane — not a voxel range — is the unit
//! because a single periodic wrap-around deposit would stretch a range
//! over the whole grid.

use crate::field::FieldArray;
use crate::grid::Grid;
use crate::lanes::{transpose8_wide, F32x8, Mask8, Wide, LANES};
use crate::zeroed::{zeroed, F32Record};
use rayon::prelude::*;

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
    /// Voxels per z-plane (`sx·sy`).
    plane: usize,
    /// `⌈2^64 / plane⌉`: a voxel's plane is the high half of one multiply
    /// ([`Self::plane_of`]), with no division on the scatter walk.
    recip: u64,
    /// Per z-plane: deposited into since the last clear.
    dirty: Vec<bool>,
    /// A plane's live rows `j ∈ 1..=ny` as entry offsets in the plane.
    /// Particles sit in live voxels, so every deposit lands in these rows;
    /// clears, the fold and the non-finite sweep walk only them, which on
    /// a quasi-1D grid is a third of the plane.
    rows: std::ops::Range<usize>,
}

// SAFETY: `#[repr(C)]`, three `[f32; 4]` fields and nothing else.
unsafe impl F32Record for Accumulator {
    const F32S: usize = 12;
}

impl AccumulatorArray {
    /// Zeroed array sized for `grid`.
    pub fn new(grid: &Grid) -> Self {
        let (sx, sy, sz) = grid.strides();
        let plane = sx * sy;
        // `plane_of` is exact for voxel indices and divisors below 2^32
        // (a plane is at least 3×3 voxels, so `recip` fits 64 bits).
        assert!(plane >= 2 && grid.n_voxels() <= u32::MAX as usize);
        AccumulatorArray {
            data: zeroed(grid.n_voxels()),
            plane,
            recip: u64::MAX / plane as u64 + 1,
            dirty: vec![false; sz],
            rows: sx..sx * (grid.ny + 1),
        }
    }

    /// The z-plane of `voxel`: `voxel / plane` as a high multiply by the
    /// rounded-up reciprocal, which is exact for 32-bit operands.
    #[inline(always)]
    fn plane_of(&self, voxel: usize) -> usize {
        ((voxel as u128 * self.recip as u128) >> 64) as usize
    }

    /// Number of z-planes, ghost planes included.
    pub fn n_planes(&self) -> usize {
        self.dirty.len()
    }

    /// The z-planes deposited into since the last clear, ascending. All
    /// entries of the other planes are zero (every deposit marks its
    /// voxel's plane: [`Self::deposit`], [`Self::deposit_quadrants`],
    /// `deposit_crossing` and [`Self::reduce_from`] mark it
    /// themselves, `deposit_lane`'s caller marks it first).
    pub fn dirty_planes(&self) -> impl Iterator<Item = usize> + '_ {
        self.dirty
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(k, _)| k)
    }

    /// Bytes of the dirty planes: what the deposits since the last clear
    /// made resident.
    pub fn dirty_bytes(&self) -> usize {
        self.dirty_planes().count() * self.plane * std::mem::size_of::<Accumulator>()
    }

    /// The entries of z-plane `k`.
    fn plane_slice(&self, k: usize) -> &[Accumulator] {
        &self.data[k * self.plane..(k + 1) * self.plane]
    }

    /// The voxels of z-plane `k`'s live rows.
    fn live_rows(&self, k: usize) -> std::ops::Range<usize> {
        k * self.plane + self.rows.start..k * self.plane + self.rows.end
    }

    /// The entries of the dirty planes' live rows, in voxel order: every
    /// entry a deposit since the last clear can have reached.
    pub fn dirty_entries(&self) -> impl Iterator<Item = &Accumulator> + '_ {
        self.dirty_planes()
            .flat_map(|k| &self.data[self.live_rows(k)])
    }

    /// Mark `voxel`'s plane dirty.
    #[inline(always)]
    pub(crate) fn mark(&mut self, voxel: usize) {
        let k = self.plane_of(voxel);
        self.dirty[k] = true;
    }

    /// Mark the planes of a block's voxels `voxels`, whose least and
    /// greatest are `lo` and `hi`: the planes of those two when they are
    /// at most one plane apart, else (a block spanning more than two
    /// planes, such as one holding a wrapped crosser) each voxel's.
    #[inline(always)]
    pub(crate) fn mark_block(&mut self, lo: usize, hi: usize, voxels: &[u32]) {
        let (klo, khi) = (self.plane_of(lo), self.plane_of(hi));
        if khi - klo <= 1 {
            self.dirty[klo] = true;
            self.dirty[khi] = true;
        } else {
            for &v in voxels {
                self.mark(v as usize);
            }
        }
    }

    /// Whether `voxel` lies in a live row of a plane marked dirty (the
    /// deposit paths' debug assertion).
    #[inline(always)]
    fn is_marked(&self, voxel: usize) -> bool {
        let k = self.plane_of(voxel);
        self.dirty[k] && self.rows.contains(&(voxel - k * self.plane))
    }

    /// Reset the dirty planes' live rows to zero (cost scales with the
    /// planes deposited into, not the grid).
    pub fn clear(&mut self) {
        for k in 0..self.dirty.len() {
            if std::mem::take(&mut self.dirty[k]) {
                let rows = self.live_rows(k);
                self.data[rows].fill(Accumulator::default());
            }
        }
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
        self.mark(voxel);
        debug_assert!(self.is_marked(voxel), "deposit outside a live row: {voxel}");
        let a = &mut self.data[voxel];
        accumulate_quadrants(&mut a.jx, q * hx, my, mz, v5);
        accumulate_quadrants(&mut a.jy, q * hy, mz, mx, v5);
        accumulate_quadrants(&mut a.jz, q * hz, mx, my, v5);
    }

    /// Accumulate four precomputed quadrant contributions per edge
    /// direction into `voxel` — the scatter half of [`Self::deposit`]
    /// when the quadrant arithmetic was done lane-wide up front (see
    /// `quadrants_lanes`). Each entry is added with a single `+=`, the
    /// same final operation `deposit` performs, so a lane kernel that
    /// feeds this with bit-identical addends lands on bit-identical sums.
    #[inline]
    pub fn deposit_quadrants(&mut self, voxel: usize, jx: [f32; 4], jy: [f32; 4], jz: [f32; 4]) {
        self.mark(voxel);
        debug_assert!(self.is_marked(voxel), "deposit outside a live row: {voxel}");
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
    /// `jz` quadrants in lanes 0–3, zeros above), *without* marking the
    /// voxel's plane — the caller marks a block's planes once
    /// ([`Self::mark_block`]).
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
        debug_assert!(self.is_marked(voxel), "deposit into unmarked voxel {voxel}");
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

    /// One crosser of the lane scatter that the batched mover finished: its
    /// first segment into its own voxel `from`, its second into the face
    /// neighbour `to`, each as one [`Self::deposit_lane`] of pre-transposed
    /// addends ([`streak_addends`]) — the two [`Self::deposit`]s
    /// `move_p_local` makes, in the same order. `from` lies in the planes
    /// the caller marked for the block; `to`'s plane is marked here.
    #[inline(always)]
    pub(crate) fn deposit_crossing(
        &mut self,
        (from, to): (usize, usize),
        open: &mut OpenVoxel,
        first: (F32x8, F32x8),
        second: (F32x8, F32x8),
    ) {
        self.mark(to);
        self.deposit_lane(from, open, first.0, first.1);
        self.deposit_lane(to, open, second.0, second.1);
    }

    /// Sum `other` into `self` (pipeline reduction); only the live rows
    /// of `other`'s dirty planes are walked.
    pub fn reduce_from(&mut self, other: &AccumulatorArray) {
        assert_eq!(self.data.len(), other.data.len());
        for k in other.dirty_planes() {
            self.dirty[k] = true;
            let rows = self.live_rows(k);
            add_into(&mut self.data[rows.clone()], &other.data[rows]);
        }
    }

    /// Scatter the accumulated charge fluxes into the Yee current density
    /// (adds to `f.jx/jy/jz`; clear them first if they should start at 0).
    /// Serial reference for the unload of
    /// [`AccumulatorSet::reduce_and_unload`].
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

/// `a += b`, entry by entry.
fn add_into(a: &mut [Accumulator], b: &[Accumulator]) {
    for (a, b) in a.iter_mut().zip(b) {
        for n in 0..4 {
            a.jx[n] += b.jx[n];
            a.jy[n] += b.jy[n];
            a.jz[n] += b.jz[n];
        }
    }
}

/// Scatter the accumulated charge fluxes into the Yee current density,
/// reading z-plane `k` of the accumulators from `planes[k]`, one Rayon
/// task per z-slab: the task does the `jx`, `jy` and `jz` rows of each `j`
/// back to back, so the accumulator rows it reads are streamed once, not
/// once per component. Each `f.jx[v]` (resp. `jy`/`jz`) is written by
/// exactly one task with the same 4-term sum as
/// [`AccumulatorArray::unload`], so with every plane taken from one array
/// the result is bitwise identical to the serial unload of that array for
/// any worker count.
fn unload_planes(planes: &[&[Accumulator]], f: &mut FieldArray, g: &Grid) {
    let (sx, sy, _) = g.strides();
    let (dj, dk) = (sx, sx * sy);
    let cx = 0.25 / (g.dt * g.dy * g.dz);
    let cy = 0.25 / (g.dt * g.dz * g.dx);
    let cz = 0.25 / (g.dt * g.dx * g.dy);
    // The slab closure takes the plane table, the extents and the scale
    // factors by value (see `InterpolatorArray::load` for why), and walks
    // rows: voxel (i, j, k) is entry `i + dj·j` of plane `k`, and the
    // stencil's `v - dk` is the same entry of plane `k - 1`.
    let (nx, ny, nz) = (g.nx, g.ny, g.nz);
    f.jx.par_chunks_mut(dk)
        .zip(f.jy.par_chunks_mut(dk))
        .zip(f.jz.par_chunks_mut(dk))
        .enumerate()
        .skip(1)
        .take(nz + 1)
        .for_each(move |(k, ((jx, jy), jz))| {
            let (a, b) = (planes[k], planes[k - 1]);
            for j in 1..=ny + 1 {
                let row = dj * j;
                // jx on x-edges: i ∈ 1..=nx, j ∈ 1..=ny+1, k ∈ 1..=nz+1.
                for v in row + 1..=row + nx {
                    jx[v] += cx * (a[v].jx[0] + a[v - dj].jx[1] + b[v].jx[2] + b[v - dj].jx[3]);
                }
                // jy on y-edges: i ∈ 1..=nx+1, j ∈ 1..=ny, k ∈ 1..=nz+1.
                if j <= ny {
                    for v in row + 1..=row + nx + 1 {
                        jy[v] += cy * (a[v].jy[0] + b[v].jy[1] + a[v - 1].jy[2] + b[v - 1].jy[3]);
                    }
                }
                // jz on z-edges: i ∈ 1..=nx+1, j ∈ 1..=ny+1, k ∈ 1..=nz.
                if k <= nz {
                    for v in row + 1..=row + nx + 1 {
                        jz[v] += cz
                            * (a[v].jz[0] + a[v - 1].jz[1] + a[v - dj].jz[2] + a[v - 1 - dj].jz[3]);
                    }
                }
            }
        });
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

/// [`AccumulatorArray::deposit`]'s addends for a streak of charge `q` with
/// midpoint `m` and half displacement `h`, lane-wide for `K` blocks, then
/// shuffle-transposed lane-major: row `l` of `jxy` holds lane `l`'s four
/// `jx` quadrants then its four `jy`, row `l` of `jz` its four `jz` and
/// zeros — the two registers [`AccumulatorArray::deposit_lane`] adds. The
/// expression trees are `deposit`'s (`v5 = q·hx·hy·hz/3`, `qu = q·h_edge`),
/// and the transposes only move bits.
#[inline(always)]
pub(crate) fn streak_addends<const K: usize>(
    q: Wide<K>,
    [mx, my, mz]: [Wide<K>; 3],
    [hx, hy, hz]: [Wide<K>; 3],
) -> ([Wide<K>; LANES], [Wide<K>; LANES]) {
    let v5 = q * hx * hy * hz * Wide::splat(1.0 / 3.0);
    let jx = quadrants_lanes(q * hx, my, mz, v5);
    let jy = quadrants_lanes(q * hy, mz, mx, v5);
    let jz = quadrants_lanes(q * hz, mx, my, v5);
    let zero = Wide::splat(0.0);
    (
        transpose8_wide([jx[0], jx[1], jx[2], jx[3], jy[0], jy[1], jy[2], jy[3]]),
        transpose8_wide([jz[0], jz[1], jz[2], jz[3], zero, zero, zero, zero]),
    )
}

/// A pool of per-pipeline accumulator arrays (index 0 is the serial
/// reduction's target).
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

    /// Bytes of every pipeline's dirty planes ([`AccumulatorArray::dirty_bytes`]).
    pub fn dirty_bytes(&self) -> usize {
        self.arrays.iter().map(AccumulatorArray::dirty_bytes).sum()
    }

    /// Clear every pipeline array (one Rayon task per array; each clear
    /// only walks the live rows of that array's dirty planes).
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

    /// Sum the pipelines and scatter the result into `f.jx/jy/jz`, both
    /// phases Rayon-parallel, with the same `J` bits as the serial
    /// [`Self::reduce`] + [`AccumulatorArray::unload`].
    ///
    /// Each z-plane is read from its *owner*, the first pipeline that
    /// deposited into it; a plane no pipeline deposited into is read from
    /// pipeline 0, where it is all zeros and was never written. Only
    /// planes dirty in two or more pipelines are folded, one task per
    /// plane: the later pipelines' live rows are added into the owner's
    /// in index order, so every entry sums in pipeline order whichever
    /// worker ran its plane. That is the serial reduction's order minus
    /// the leading `+ 0.0` of the pipelines before the owner, which can
    /// only turn a `-0.0` entry into `+0.0`; the unload's sums into the
    /// cleared `J` erase that sign. So no pipeline's plane is written
    /// outside the planes it deposited into.
    pub fn reduce_and_unload(&mut self, f: &mut FieldArray, g: &Grid) {
        let (n_planes, plane) = (self.arrays[0].n_planes(), self.arrays[0].plane);
        let rows = self.arrays[0].rows.clone();
        // Per plane, the live rows of that plane of every pipeline that
        // deposited into it, in pipeline order: the first is the owner's.
        let mut shared: Vec<Vec<&mut [Accumulator]>> = (0..n_planes).map(|_| Vec::new()).collect();
        for a in &mut self.arrays {
            for ((p, list), &dirty) in a.data.chunks_mut(plane).zip(&mut shared).zip(&a.dirty) {
                if dirty {
                    list.push(&mut p[rows.clone()]);
                }
            }
        }
        shared.retain(|list| list.len() >= 2);
        shared.par_iter_mut().for_each(|list| {
            let (owner, rest) = list.split_first_mut().expect("a shared plane");
            for r in rest {
                add_into(owner, r);
            }
        });
        let planes: Vec<&[Accumulator]> = (0..n_planes)
            .map(|k| {
                self.arrays
                    .iter()
                    .find(|a| a.dirty[k])
                    .unwrap_or(&self.arrays[0])
                    .plane_slice(k)
            })
            .collect();
        unload_planes(&planes, f, g);
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
    fn dirty_planes_track_deposits_and_clear() {
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.1);
        let mut acc = AccumulatorArray::new(&g);
        assert_eq!(acc.dirty_planes().count(), 0);
        let (va, vb) = (g.voxel(1, 1, 1), g.voxel(3, 2, 3));
        acc.deposit(vb, 1.0, (0.0, 0.0, 0.0), (0.1, 0.0, 0.0));
        acc.deposit(va, 1.0, (0.0, 0.0, 0.0), (0.1, 0.0, 0.0));
        assert_eq!(acc.dirty_planes().collect::<Vec<_>>(), [1, 3]);
        assert_eq!(acc.dirty_bytes(), 2 * 6 * 6 * 48);
        acc.clear();
        assert_eq!(acc.dirty_planes().count(), 0);
        assert!(acc
            .data
            .iter()
            .all(|a| a.jx == [0.0; 4] && a.jy == [0.0; 4] && a.jz == [0.0; 4]));
        // Deposits after a clear start afresh.
        acc.deposit(vb, 1.0, (0.0, 0.0, 0.0), (0.0, 0.1, 0.0));
        assert_eq!(acc.dirty_planes().collect::<Vec<_>>(), [3]);
    }

    #[test]
    fn block_marks_cover_its_planes_and_no_others() {
        let g = Grid::periodic((4, 4, 6), (1.0, 1.0, 1.0), 0.1);
        let marked = |voxels: &[usize]| {
            let mut acc = AccumulatorArray::new(&g);
            let lanes: Vec<u32> = voxels.iter().map(|&v| v as u32).collect();
            let (lo, hi) = (voxels.iter().min().unwrap(), voxels.iter().max().unwrap());
            acc.mark_block(*lo, *hi, &lanes);
            acc.dirty_planes().collect::<Vec<_>>()
        };
        // One plane; two adjacent ones; a wrapped crosser's block, whose
        // lanes span planes 1 and 6 and nothing between.
        assert_eq!(marked(&[g.voxel(1, 1, 2), g.voxel(4, 4, 2)]), [2]);
        assert_eq!(marked(&[g.voxel(4, 4, 2), g.voxel(1, 1, 3)]), [2, 3]);
        assert_eq!(
            marked(&[g.voxel(2, 2, 1), g.voxel(3, 2, 1), g.voxel(2, 2, 6)]),
            [1, 6]
        );
    }

    #[test]
    fn plane_of_is_exact_division() {
        for shape in [(4, 4, 4), (291, 1, 1), (1, 7, 1), (64, 64, 64)] {
            let g = Grid::periodic(shape, (1.0, 1.0, 1.0), 0.1);
            let acc = AccumulatorArray::new(&g);
            for v in 0..g.n_voxels() {
                assert_eq!(acc.plane_of(v), v / acc.plane, "{shape:?}: voxel {v}");
            }
        }
        // Divisors and dividends up to the 32-bit limit `new` asserts,
        // around every multiple the samples reach.
        let mut acc = AccumulatorArray::new(&Grid::periodic((1, 1, 1), (1.0, 1.0, 1.0), 0.1));
        for d in [9usize, 4356, 65_536, 1_000_003, 196_605, (1 << 31) + 1] {
            acc.plane = d;
            acc.recip = u64::MAX / d as u64 + 1;
            for q in (0..=u32::MAX as usize / d).step_by((u32::MAX as usize / d / 4096).max(1)) {
                for v in [q * d, (q * d).saturating_sub(1), q * d + d - 1] {
                    if v <= u32::MAX as usize {
                        assert_eq!(acc.plane_of(v), v / d, "voxel {v} / {d}");
                    }
                }
            }
            assert_eq!(acc.plane_of(u32::MAX as usize), u32::MAX as usize / d);
        }
    }

    #[test]
    fn reduce_and_unload_matches_serial_path() {
        // The last two shapes are the thin ones the LPI decks run, where
        // the fused slab task's `jy`/`jz` row guards do most of the work.
        for shape in [(6, 5, 4), (291, 1, 1), (1, 7, 1), (5, 4, 9)] {
            for banded in [false, true] {
                reduce_and_unload_matches_serial_on(shape, banded);
            }
        }
    }

    /// Four pipelines deposit random streaks: anywhere, or (`banded`)
    /// each into its own band of z-planes as voxel-sorted pipelines do,
    /// plus a wrapped crosser's far plane and a charge of `-0.0`, whose
    /// entries are signed zeros the serial fold turns into `+0.0`. The
    /// folded and unloaded `J` must equal the serial reduce + unload's bit
    /// for bit; what the fold leaves in the arrays is not compared, since
    /// it reads each plane from its owner instead of pipeline 0.
    fn reduce_and_unload_matches_serial_on((nx, ny, nz): (usize, usize, usize), banded: bool) {
        use crate::rng::Rng;
        let g = Grid::periodic((nx, ny, nz), (0.5, 0.5, 0.5), 0.05);
        let mut rng = Rng::seeded(42);
        let mut set = AccumulatorSet::new(&g, 4);
        for (pipe, arr) in set.arrays.iter_mut().enumerate() {
            for n in 0..50 + 30 * pipe {
                let k = if !banded {
                    1 + rng.index(nz)
                } else if n == 0 {
                    nz - pipe * nz / 4
                } else {
                    1 + (pipe * nz + rng.index(nz)) / 4
                };
                let v = g.voxel(1 + rng.index(nx), 1 + rng.index(ny), k);
                let q = if n == 1 {
                    -0.0
                } else {
                    rng.uniform_in(-1.0, 1.0) as f32
                };
                arr.deposit(
                    v,
                    q,
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
        let mut serial = set.arrays[0].clone();
        for r in &set.arrays[1..] {
            serial.reduce_from(r);
        }
        let mut f_par = FieldArray::new(&g);
        let mut f_ser = FieldArray::new(&g);
        for threads in [1, 2, 4] {
            let mut set = AccumulatorSet {
                arrays: set.arrays.clone(),
            };
            f_par.clear_currents();
            crate::with_worker_threads(threads, || set.reduce_and_unload(&mut f_par, &g));
            f_ser.clear_currents();
            serial.unload(&mut f_ser, &g);
            for (what, par, ser) in [
                ("jx", &f_par.jx, &f_ser.jx),
                ("jy", &f_par.jy, &f_ser.jy),
                ("jz", &f_par.jz, &f_ser.jz),
            ] {
                for (v, (a, b)) in par.iter().zip(ser).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{:?} banded {banded}, {threads} threads: {what} at {v}",
                        (nx, ny, nz)
                    );
                }
            }
        }
    }

    fn assert_bitwise_eq(want: &AccumulatorArray, got: &AccumulatorArray, what: &str) {
        assert!(want.dirty_planes().eq(got.dirty_planes()), "{what}");
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
            got.mark(g.voxel(1, 2, 2));
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
