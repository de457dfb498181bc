//! AoSoA ("array of structures of arrays") particle storage and push —
//! the SIMD blocking VPIC used to feed the Cell SPEs' 4-wide single
//! precision pipelines. Particles are stored in blocks of [`LANES`] with
//! each field contiguous across the block, so the hot loop is straight-line
//! lane arithmetic: one packed instruction per operation in
//! [`crate::lanes`]' intrinsic body.
//!
//! This is the one particle store — every [`Species`](crate::Species)
//! owns an [`AosoaStore`]: element access, mover emission for
//! rank-boundary exiles, absorption, the blocked counting sort, and Rayon
//! pipeline parallelism — all bit-identical to the one serial reference
//! of each kernel the tests compare against ([`crate::push::advance_p_aos`]
//! for the push, [`crate::sort::reference_sort`] for the sort). The inner
//! loop runs lane-wide
//! ([`PushKernel::Lane`], built on [`crate::lanes`]) yet stays
//! bit-identical to the scalar oracle because every lane executes the
//! scalar kernel's exact IEEE expression tree element-wise (no
//! reassociation, no fused multiply-adds) and current is scattered in
//! lane index order; `crates/core/tests/kernel_oracle.rs` pins the
//! contract differentially.

use crate::accumulator::{streak_addends, AccumulatorArray, OpenVoxel};
use crate::cadence::PushTally;
use crate::grid::Grid;
use crate::interpolator::InterpolatorArray;
use crate::lanes::{F32x8, Mask8, Wide};
use crate::particle::{Mover, Particle};
use crate::push::{
    move_p_local, push_one, retarget_and_delete, Exile, MoveOutcome, PushCoefficients, PushKernel,
    PushedFate,
};
use crate::threads::worker_threads;
use rayon::prelude::*;
use std::mem::MaybeUninit;
use std::ops::Range;

pub use crate::lanes::LANES;

/// One block of `LANES` particles, SoA inside.
#[derive(Clone, Debug)]
pub struct Block {
    pub dx: [f32; LANES],
    pub dy: [f32; LANES],
    pub dz: [f32; LANES],
    pub i: [u32; LANES],
    pub ux: [f32; LANES],
    pub uy: [f32; LANES],
    pub uz: [f32; LANES],
    pub w: [f32; LANES],
}

impl Default for Block {
    fn default() -> Self {
        Block {
            dx: [0.0; LANES],
            dy: [0.0; LANES],
            dz: [0.0; LANES],
            i: [0; LANES],
            ux: [0.0; LANES],
            uy: [0.0; LANES],
            uz: [0.0; LANES],
            w: [0.0; LANES],
        }
    }
}

impl Block {
    /// Copy lane `l` out as a particle.
    #[inline]
    pub fn lane(&self, l: usize) -> Particle {
        Particle {
            dx: self.dx[l],
            dy: self.dy[l],
            dz: self.dz[l],
            i: self.i[l],
            ux: self.ux[l],
            uy: self.uy[l],
            uz: self.uz[l],
            w: self.w[l],
        }
    }

    /// Overwrite lane `l` from a particle.
    #[inline]
    pub fn set_lane(&mut self, l: usize, p: &Particle) {
        self.dx[l] = p.dx;
        self.dy[l] = p.dy;
        self.dz[l] = p.dz;
        self.i[l] = p.i;
        self.ux[l] = p.ux;
        self.uy[l] = p.uy;
        self.uz[l] = p.uz;
        self.w[l] = p.w;
    }
}

/// Copy lane `l` of the block behind `b` out as a particle.
///
/// # Safety
/// `b` must point at a live `Block` and no other thread may be writing
/// lane `l` concurrently. Array indexing through the raw pointer is a
/// place projection — no `&`/`&mut` to the whole block is formed, so
/// disjoint-lane access from other threads stays sound.
#[inline]
unsafe fn lane_load(b: *const Block, l: usize) -> Particle {
    unsafe {
        Particle {
            dx: (*b).dx[l],
            dy: (*b).dy[l],
            dz: (*b).dz[l],
            i: (*b).i[l],
            ux: (*b).ux[l],
            uy: (*b).uy[l],
            uz: (*b).uz[l],
            w: (*b).w[l],
        }
    }
}

/// Overwrite lane `l` of the block behind `b`.
///
/// # Safety
/// Same contract as [`lane_load`], plus exclusive ownership of lane `l`;
/// the block may also be uninitialized memory (a reserved slot), since
/// this only writes plain `f32`/`u32` places and reads or drops nothing.
#[inline]
unsafe fn lane_store(b: *mut Block, l: usize, p: &Particle) {
    unsafe {
        (*b).dx[l] = p.dx;
        (*b).dy[l] = p.dy;
        (*b).dz[l] = p.dz;
        (*b).i[l] = p.i;
        (*b).ux[l] = p.ux;
        (*b).uy[l] = p.uy;
        (*b).uz[l] = p.uz;
        (*b).w[l] = p.w;
    }
}

/// Raw block cursor shared across pipelines/workers. Workers touch
/// disjoint lane sets (see the safety arguments at the use sites), so
/// sharing the pointer across threads is sound.
#[derive(Clone, Copy)]
struct BlockPtr {
    base: *mut Block,
    n_blocks: usize,
}
// SAFETY: only dereferenced on lanes owned exclusively by one worker, and
// the block buffer (a `&mut` borrow held by the function that opens the
// parallel region, which does not return before every worker has
// finished) outlives every region using the pointer. `Block` is plain
// `Copy` data: nothing is dropped by a write from another thread.
unsafe impl Send for BlockPtr {}
unsafe impl Sync for BlockPtr {}

impl BlockPtr {
    fn new(blocks: &mut [Block]) -> Self {
        BlockPtr {
            base: blocks.as_mut_ptr(),
            n_blocks: blocks.len(),
        }
    }

    /// Pointer to block `bi`.
    ///
    /// # Safety
    /// `bi < n_blocks`. What may be done through the result is the use
    /// site's contract (lane ownership).
    #[inline]
    unsafe fn at(self, bi: usize) -> *mut Block {
        debug_assert!(bi < self.n_blocks, "block {bi} of {}", self.n_blocks);
        unsafe { self.base.add(bi) }
    }
}

/// Blocks one part of [`AosoaStore::extend_par`]'s region writes.
pub(crate) const EXTEND_PART_BLOCKS: usize = 32;

/// Where a producer of [`AosoaStore::extend_par`] puts its particles:
/// lane by lane, in order, straight into a part's reserved blocks.
pub(crate) struct LaneSink<'a> {
    slots: &'a mut [MaybeUninit<Block>],
    /// Particles put so far.
    put: usize,
}

impl<'a> LaneSink<'a> {
    fn new(slots: &'a mut [MaybeUninit<Block>]) -> Self {
        LaneSink { slots, put: 0 }
    }

    /// Write the next particle.
    #[inline]
    pub(crate) fn put(&mut self, p: Particle) {
        let b = self.slots[self.put / LANES].as_mut_ptr();
        // SAFETY: `b` points at a block slot this sink borrows
        // exclusively; `lane_store` only writes plain `f32`/`u32` places
        // (no read, no drop), which is sound on uninitialized memory.
        unsafe { lane_store(b, self.put % LANES, &p) };
        self.put += 1;
    }

    /// Check that exactly `n` particles were put and park the padding
    /// lanes of a trailing partial block as [`AosoaStore::push`] does:
    /// zero weight, zero offsets and momenta, on lane 0's voxel.
    fn finish(self, n: usize) {
        assert!(
            self.put == n && n.div_ceil(LANES) == self.slots.len(),
            "producer put {} particles for {n} lanes in {} blocks",
            self.put,
            self.slots.len()
        );
        let l0 = n % LANES;
        if l0 != 0 {
            let b = self.slots[n / LANES].as_mut_ptr();
            // SAFETY: as in `put`; lane 0 of this block was put (n % LANES
            // > 0 lanes of it were), so reading its voxel reads initialized
            // memory.
            unsafe {
                let park = Particle {
                    i: (*b).i[0],
                    ..Particle::default()
                };
                for l in l0..LANES {
                    lane_store(b, l, &park);
                }
            }
        }
    }
}

/// The one particle layout; exists only for `benchmark/` until ROADMAP item 1's follow-up.
#[derive(Clone, Copy, Debug, Default)]
pub enum Layout {
    #[default]
    Aosoa,
}

/// AoSoA particle store.
#[derive(Clone, Debug, Default)]
pub struct AosoaStore {
    pub blocks: Vec<Block>,
    len: usize,
}

/// Equality is *logical*: the same particle sequence, padding lanes
/// ignored.
impl PartialEq for AosoaStore {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl AosoaStore {
    /// Convert from an AoS slice (tail lanes are zero-weight no-ops).
    pub fn from_particles(parts: &[Particle]) -> Self {
        let mut store = AosoaStore {
            blocks: Vec::with_capacity(parts.len().div_ceil(LANES)),
            len: parts.len(),
        };
        for chunk in parts.chunks(LANES) {
            let mut b = Block::default();
            for (l, p) in chunk.iter().enumerate() {
                b.set_lane(l, p);
            }
            // Park unused lanes on a valid voxel with zero weight.
            for l in chunk.len()..LANES {
                b.i[l] = chunk[0].i;
            }
            store.blocks.push(b);
        }
        store
    }

    /// Number of real particles.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every particle (keeps block capacity).
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.len = 0;
    }

    /// Reserve block capacity for `additional` more particles.
    pub fn reserve(&mut self, additional: usize) {
        let need = (self.len + additional).div_ceil(LANES);
        self.blocks.reserve(need.saturating_sub(self.blocks.len()));
    }

    /// Copy out particle `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Particle {
        debug_assert!(i < self.len, "index {i} out of range {}", self.len);
        self.blocks[i / LANES].lane(i % LANES)
    }

    /// Overwrite particle `i`.
    #[inline]
    pub fn set(&mut self, i: usize, p: Particle) {
        debug_assert!(i < self.len, "index {i} out of range {}", self.len);
        self.blocks[i / LANES].set_lane(i % LANES, &p);
    }

    /// Voxel index of particle `i`.
    #[inline]
    pub fn voxel(&self, i: usize) -> u32 {
        debug_assert!(i < self.len, "index {i} out of range {}", self.len);
        self.blocks[i / LANES].i[i % LANES]
    }

    /// Append a particle.
    #[inline]
    pub fn push(&mut self, p: Particle) {
        let l = self.len % LANES;
        if l == 0 {
            // Fresh block: park every lane on the new particle's voxel.
            self.blocks.push(Block {
                i: [p.i; LANES],
                ..Default::default()
            });
        }
        self.blocks.last_mut().unwrap().set_lane(l, &p);
        self.len += 1;
    }

    /// Append `n` particles made by `fill` over the worker pool, with the
    /// bytes of `n` [`Self::push`]es of the same particles at any worker
    /// count. `fill(range, sink)` must [`LaneSink::put`] particles
    /// `range` (numbered from 0, the first one appended) in order; it is
    /// called once per part, on any thread. A tail block left partial by
    /// earlier appends is topped up lane by lane through `push`; the rest
    /// is written straight into reserved capacity as whole blocks,
    /// [`EXTEND_PART_BLOCKS`] to a part of one pool region, and a
    /// trailing partial block is parked as `push` parks it. `side` runs as
    /// the region's first part, so serial work can overlap the writes (the
    /// particle loader draws its next chunk there).
    pub(crate) fn extend_par<F, S>(&mut self, n: usize, fill: F, side: S)
    where
        F: Fn(Range<usize>, &mut LaneSink<'_>) + Sync,
        S: FnOnce() + Send,
    {
        let top = ((LANES - self.len % LANES) % LANES).min(n);
        if top > 0 {
            let mut one = [MaybeUninit::<Block>::uninit()];
            let mut sink = LaneSink::new(&mut one);
            fill(0..top, &mut sink);
            sink.finish(top);
            // SAFETY: `finish` checked that every lane of the block was
            // put or parked, so all of its plain-data fields are written.
            let b = unsafe { one[0].assume_init_ref() };
            for l in 0..top {
                self.push(b.lane(l));
            }
        }
        let rest = n - top;
        let nb = rest.div_ceil(LANES);
        self.blocks.reserve(nb);
        let old = self.blocks.len();
        enum Part<'a, S> {
            Side(Option<S>),
            Blocks {
                first: usize,
                slots: &'a mut [MaybeUninit<Block>],
            },
        }
        let mut parts = Vec::with_capacity(1 + nb.div_ceil(EXTEND_PART_BLOCKS));
        parts.push(Part::Side(Some(side)));
        let slots = &mut self.blocks.spare_capacity_mut()[..nb];
        for (c, slots) in slots.chunks_mut(EXTEND_PART_BLOCKS).enumerate() {
            let first = top + c * EXTEND_PART_BLOCKS * LANES;
            parts.push(Part::Blocks { first, slots });
        }
        parts.par_iter_mut().for_each(|part| match part {
            Part::Side(side) => side.take().expect("the side part runs once")(),
            Part::Blocks { first, slots } => {
                let end = (*first + slots.len() * LANES).min(n);
                let mut sink = LaneSink::new(slots);
                fill(*first..end, &mut sink);
                sink.finish(end - *first);
            }
        });
        // SAFETY: the region returned (a panicking part would have been
        // re-raised above), so every `Blocks` part ran `finish`, which
        // checked that each lane of its slots was put or parked; the parts
        // cover the `nb` reserved slots after `old` exactly.
        unsafe { self.blocks.set_len(old + nb) };
        self.len += rest;
    }

    /// Remove particle `i` by swapping in the last one; returns it.
    /// Exactly `Vec::swap_remove` on the logical sequence.
    pub fn swap_remove(&mut self, i: usize) -> Particle {
        assert!(
            i < self.len,
            "swap_remove index {i} out of range {}",
            self.len
        );
        let last = self.len - 1;
        let removed = self.get(i);
        if i != last {
            let lp = self.get(last);
            self.set(i, lp);
        }
        let l = last % LANES;
        if l == 0 {
            // The tail block held only the removed lane — drop it whole.
            self.blocks.pop();
        } else {
            // Vacate the lane: zero weight, parked on its (valid) voxel.
            let b = self.blocks.last_mut().unwrap();
            b.dx[l] = 0.0;
            b.dy[l] = 0.0;
            b.dz[l] = 0.0;
            b.ux[l] = 0.0;
            b.uy[l] = 0.0;
            b.uz[l] = 0.0;
            b.w[l] = 0.0;
        }
        self.len = last;
        removed
    }

    /// Re-park the padding lanes of the tail block (zero weight, valid
    /// voxel) after a bulk rebuild like the sort's scatter.
    fn park_tail(&mut self) {
        let l0 = self.len % LANES;
        if l0 == 0 || self.blocks.is_empty() {
            return;
        }
        let b = self.blocks.last_mut().unwrap();
        let park = b.i[0];
        for l in l0..LANES {
            b.dx[l] = 0.0;
            b.dy[l] = 0.0;
            b.dz[l] = 0.0;
            b.i[l] = park;
            b.ux[l] = 0.0;
            b.uy[l] = 0.0;
            b.uz[l] = 0.0;
            b.w[l] = 0.0;
        }
    }

    /// Iterate particles by value in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Particle> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Convert back to AoS.
    pub fn to_particles(&self) -> Vec<Particle> {
        let mut out = Vec::with_capacity(self.len);
        'outer: for b in &self.blocks {
            for l in 0..LANES {
                if out.len() == self.len {
                    break 'outer;
                }
                out.push(b.lane(l));
            }
        }
        out
    }
}

/// Everything `compute_blocks` hands to `scatter_run` for one block:
/// the stay mask, the half displacements the movers need, and the
/// quadrant addends already transposed lane-major.
#[derive(Clone, Copy, Default)]
pub struct BlockPush {
    stay: Mask8,
    hx: F32x8,
    hy: F32x8,
    hz: F32x8,
    txy: [F32x8; LANES],
    tz: [F32x8; LANES],
}

/// How many whole blocks one pass of [`compute_blocks`] advances in
/// production. One block's compute is a single dependency chain (gather →
/// sqrt → divide → rotate → sqrt → divide → quadrants) of ≈ 390
/// instructions that takes ≈ 180 cycles — half the issue slots empty —
/// and the reorder window cannot reach far enough into the next block's
/// chain to fill them; two blocks advanced statement by statement put two
/// independent chains side by side in the instruction stream. A constant
/// picked by measurement (EXPERIMENTS.md E2; per block on the reference
/// host, 32 vector registers: 85 ns at one, 61 at two, 64 at three, 84 at
/// four, where the spills have eaten the overlap; two beats one by the
/// same 1.4× compiled for 16 registers and on the portable lane body, so
/// the constant does not depend on the target).
const BLOCK_GROUP: usize = 2;

/// Field `f` of each block as one [`Wide`].
#[inline(always)]
fn field<const K: usize>(b: &[&mut Block; K], f: impl Fn(&Block) -> [f32; LANES]) -> Wide<K> {
    let mut out = Wide::splat(0.0);
    for (wide, block) in out.0.iter_mut().zip(b) {
        *wide = F32x8(f(block));
    }
    out
}

/// Block `k` of `w` into field `f` of block `k`.
#[inline(always)]
fn put<const K: usize>(
    b: &mut [&mut Block; K],
    w: Wide<K>,
    f: impl Fn(&mut Block) -> &mut [f32; LANES],
) {
    for (block, lanes) in b.iter_mut().zip(&w.0) {
        *f(block) = lanes.0;
    }
}

/// Phases 1–3 of the lane kernel (see [`advance_range`]) plus the
/// lane-wide quadrant
/// precompute, for `K` blocks in lock step: pure vector work against the
/// blocks and the (read-only) interpolators — no accumulator access, so
/// the computes of different blocks are independent. Every statement
/// below is a [`Wide`] operation, i.e. the single-block operation on
/// block 0, then on block 1, …: `K` dependency chains share one
/// instruction stream (see [`BLOCK_GROUP`]) and block `k`'s results are,
/// bit for bit, those of `K = 1` on that block. [`advance_range`] queues
/// the results — written straight into `out`, slots of its queue, so the
/// 612-byte records are never copied — and drains them through
/// [`scatter_run`] in block order, which keeps every accumulator
/// deposit in the exact particle-index order the serial kernel would use.
#[inline(always)]
fn compute_blocks<const K: usize>(
    mut b: [&mut Block; K],
    c: PushCoefficients,
    interp: &InterpolatorArray,
    out: [&mut BlockPush; K],
) {
    let one = Wide::<K>::splat(1.0);
    let third = Wide::<K>::splat(1.0 / 3.0);
    let two_fifteenths = Wide::<K>::splat(2.0 / 15.0);

    // Phases 1+2: transposed gather fused with E/cB interpolation (see
    // gather_ha_cb8 — fusing keeps the eighteen coefficient vectors from
    // staying live across the Boris rotation below).
    let dx = field(&b, |b| b.dx);
    let dy = field(&b, |b| b.dy);
    let dz = field(&b, |b| b.dz);
    let voxels: [&[u32; LANES]; K] = std::array::from_fn(|k| &b[k].i);
    let ((hax, hay, haz), (cbx, cby, cbz)) = interp.gather_ha_cb8(voxels, dx, dy, dz, c.qdt_2mc);
    let qdt = Wide::splat(c.qdt_2mc);

    // Half E acceleration, then the Boris rotation with the VPIC
    // tan(θ/2)/θ correction polynomial.
    let mut ux = field(&b, |b| b.ux) + hax;
    let mut uy = field(&b, |b| b.uy) + hay;
    let mut uz = field(&b, |b| b.uz) + haz;
    let v0 = qdt / (one + (ux * ux + (uy * uy + uz * uz))).sqrt();
    let v1 = cbx * cbx + (cby * cby + cbz * cbz);
    let v2 = (v0 * v0) * v1;
    let v3 = v0 * (one + v2 * (third + v2 * two_fifteenths));
    let mut v4 = v3 / (one + v1 * (v3 * v3));
    v4 = v4 + v4;
    let w0 = ux + v3 * (uy * cbz - uz * cby);
    let w1 = uy + v3 * (uz * cbx - ux * cbz);
    let w2 = uz + v3 * (ux * cby - uy * cbx);
    ux = ux + v4 * (w1 * cbz - w2 * cby);
    uy = uy + v4 * (w2 * cbx - w0 * cbz);
    uz = uz + v4 * (w0 * cby - w1 * cbx);

    // Second half E acceleration; store momentum (all lanes, like the
    // scalar path, which writes momenta before displacement handling).
    ux = ux + hax;
    uy = uy + hay;
    uz = uz + haz;
    put(&mut b, ux, |b| &mut b.ux);
    put(&mut b, uy, |b| &mut b.uy);
    put(&mut b, uz, |b| &mut b.uz);

    // Half displacement in voxel-offset units: h = (v/c)·(c·dt/Δ).
    let rg = one / (one + (ux * ux + (uy * uy + uz * uz))).sqrt();
    let hx = ux * rg * Wide::splat(c.cdt_dx);
    let hy = uy * rg * Wide::splat(c.cdt_dy);
    let hz = uz * rg * Wide::splat(c.cdt_dz);
    let mx = dx + hx; // streak midpoint (if in bounds)
    let my = dy + hy;
    let mz = dz + hz;
    let nx = mx + hx; // new position
    let ny = my + hy;
    let nz = mz + hz;

    // Phase 3: stay mask + select write-back. Crosser lanes keep their
    // pre-push positions — move_p walks from there.
    let stay = nx.abs().le(one) & ny.abs().le(one) & nz.abs().le(one);
    put(&mut b, Wide::select(stay, nx, dx), |b| &mut b.dx);
    put(&mut b, Wide::select(stay, ny, dy), |b| &mut b.dy);
    put(&mut b, Wide::select(stay, nz, dz), |b| &mut b.dz);

    // Phase 4: quadrant currents lane-wide, lane-major so each stay lane
    // deposits from two contiguous registers, for the in-order scatter.
    // Crosser/padding lanes' addends are computed but never scattered.
    let q = Wide::splat(c.qsp) * field(&b, |b| b.w);
    let (txy, tz) = streak_addends(q, [mx, my, mz], [hx, hy, hz]);

    for (k, out) in out.into_iter().enumerate() {
        *out = BlockPush {
            stay: stay.0[k],
            hx: hx.0[k],
            hy: hy.0[k],
            hz: hz.0[k],
            txy: txy.map(|row| row.0[k]),
            tz: tz.map(|row| row.0[k]),
        };
    }
}

/// Live lanes of the block whose lane 0 is particle `first` of `n`.
#[inline(always)]
fn live_lanes(first: usize, n: usize) -> usize {
    (n - first).min(LANES)
}

/// The mask of the first `live` (≥ 1) lanes.
#[inline(always)]
fn live_mask(live: usize) -> Mask8 {
    Mask8(0xFF >> (LANES - live))
}

/// Phase 4 of the lane kernel (see [`advance_range`]) for a run of
/// consecutive blocks — one drain of the deferred-scatter queue: the
/// in-order lane scatter, fed by [`compute_blocks`]'
/// precomputed addends, with the run's crossers moved as a batch. `base`
/// is the particle index of the first block's lane 0, `n` the store's
/// particle count, `crossers` the caller's scratch, reused from run to
/// run so that a drain pays for no zeroing. Returns how many lanes went
/// to the scalar mover.
///
/// Before the walk, the run's crossers are listed and moved eight at a
/// time by the batched mover ([`Crossers::batch`], [`one_face_moves`]),
/// which touches no accumulator. Then the walk: each stay lane is one
/// [`AccumulatorArray::deposit_lane`]: the entry is summed and stored at
/// once, so the accumulator memory is current after every lane. A crosser
/// the batched mover finished is two more of those, its first segment
/// into its voxel and its second into the face neighbour
/// ([`AccumulatorArray::deposit_crossing`]), then its new offsets and
/// voxel are written back. Any other crosser — a corner, a reflect,
/// absorb or migrate face — runs the scalar [`move_p_local`] right where
/// its lane comes up ([`spill_lane`]), from the pre-push state crosser
/// lanes keep, with nothing to write back first; it only invalidates the
/// register copy of the open voxel. Every accumulator entry receives the
/// same addends in the same lane order as the per-particle form, so the
/// sums are bit-identical to it. The walk branches on stay or cross, and
/// on whether the batched mover finished a crosser (almost always); a
/// block whose lanes all stay (≈ 60 % of them at a 6 % crosser rate)
/// skips both, and whether consecutive lanes share a voxel is never
/// branched on.
#[allow(clippy::too_many_arguments)]
#[inline]
fn scatter_run(
    blocks: &mut [Block],
    pushes: &[BlockPush],
    base: usize,
    n: usize,
    qsp: f32,
    acc: &mut AccumulatorArray,
    g: &Grid,
    absorbed: &mut Vec<u32>,
    exiles: &mut Vec<Exile>,
    crossers: &mut Crossers,
) -> u64 {
    debug_assert!(blocks.len() == pushes.len() && blocks.len() <= SCATTER_BATCH);
    crossers.batch(blocks, pushes, base, n, qsp, g);
    let (mut met, mut spills) = (0, 0);
    let mut open = OpenVoxel::NONE;
    for (k, (b, s)) in blocks.iter_mut().zip(pushes).enumerate() {
        let first = base + k * LANES;
        let live = live_lanes(first, n);
        // The dirty planes, once for the block: every live lane deposits
        // into its voxel first, stay lane or crosser.
        let lanes = &b.i[..live];
        let (lo, hi) = lanes
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        acc.mark_block(lo as usize, hi as usize, lanes);
        if live == LANES && s.stay == Mask8(0xFF) {
            for l in 0..LANES {
                acc.deposit_lane(b.i[l] as usize, &mut open, s.txy[l], s.tz[l]);
            }
            continue;
        }
        for l in 0..live {
            if s.stay.test(l) {
                acc.deposit_lane(b.i[l] as usize, &mut open, s.txy[l], s.tz[l]);
                continue;
            }
            let (to, moves, c) = (crossers.to[met], &crossers.moves[met / LANES], met % LANES);
            met += 1;
            if to >= 0 {
                let v = b.i[l] as usize;
                let first_segment = (moves.txy[0][c], moves.tz[0][c]);
                let second_segment = (moves.txy[1][c], moves.tz[1][c]);
                let to = to as usize;
                acc.deposit_crossing((v, to), &mut open, first_segment, second_segment);
                b.dx[l] = moves.end[0].0[c];
                b.dy[l] = moves.end[1].0[c];
                b.dz[l] = moves.end[2].0[c];
                b.i[l] = to as u32;
            } else {
                let disp = (s.hx.0[l], s.hy.0[l], s.hz.0[l]);
                let idx = (first + l) as u32;
                spill_lane(b, l, idx, disp, qsp, acc, g, absorbed, exiles);
                open = OpenVoxel::NONE;
                spills += 1;
            }
        }
    }
    debug_assert_eq!(met, crossers.n);
    spills
}

/// The crossers of one scatter run in the order the walk meets them —
/// crosser `k` is lane `k % LANES` of group `k / LANES` — and what the
/// batched mover made of each group. A run is at most [`SCATTER_BATCH`]
/// blocks, so it holds at most [`SCATTER_BATCH`] groups. The scratch
/// lives as long as its caller's loop over runs, so a run pays for no
/// zeroing: what a run reads, it wrote.
struct Crossers {
    n: usize,
    /// Crosser `k`'s place in the run, `LANES · block + lane`.
    at: [u8; SCATTER_BATCH * LANES],
    /// Crosser `k`'s face neighbour where the batched mover finished its
    /// move, else −1: the scalar mover's.
    to: [i64; SCATTER_BATCH * LANES],
    moves: [OneFaceMoves; SCATTER_BATCH],
}

impl Default for Crossers {
    fn default() -> Self {
        Crossers {
            n: 0,
            at: [0; SCATTER_BATCH * LANES],
            to: [0; SCATTER_BATCH * LANES],
            moves: [OneFaceMoves::default(); SCATTER_BATCH],
        }
    }
}

impl Crossers {
    /// List the live lanes of `blocks` whose stay bit is clear, in block
    /// then lane order, and move them eight at a time. The listing is
    /// branch-free: every lane stores its place at the current end, which
    /// advances only past a crosser's. (A lane writes at most at the count
    /// of lanes before it, so the list needs no slack.)
    #[allow(clippy::too_many_arguments)]
    fn batch(
        &mut self,
        blocks: &[Block],
        pushes: &[BlockPush],
        base: usize,
        n: usize,
        qsp: f32,
        g: &Grid,
    ) {
        // A local count: `self.n` would be reloaded after every store.
        let mut listed = 0;
        for (k, s) in pushes.iter().enumerate() {
            let crossing = !s.stay & live_mask(live_lanes(base + k * LANES, n));
            for l in 0..LANES {
                self.at[listed] = (LANES * k + l) as u8;
                listed += crossing.test(l) as usize;
            }
        }
        self.n = listed;
        for (group, moves) in self.moves[..listed.div_ceil(LANES)].iter_mut().enumerate() {
            let crossers = group * LANES..listed.min((group + 1) * LANES);
            let (mut fields, mut voxels) = ([[0.0; LANES]; 7], [0; LANES]);
            for (c, &at) in self.at[crossers.clone()].iter().enumerate() {
                let (b, s, l) = (
                    &blocks[at as usize / LANES],
                    &pushes[at as usize / LANES],
                    at as usize % LANES,
                );
                for (field, value) in fields.iter_mut().zip([
                    b.dx[l], b.dy[l], b.dz[l], s.hx.0[l], s.hy.0[l], s.hz.0[l], b.w[l],
                ]) {
                    field[c] = value;
                }
                voxels[c] = b.i[l];
            }
            let [dx, dy, dz, hx, hy, hz, w] = fields.map(F32x8);
            one_face_moves([dx, dy, dz], [hx, hy, hz], F32x8::splat(qsp) * w, moves);
            for (c, (to, &v)) in self.to[crossers].iter_mut().zip(&voxels).enumerate() {
                *to = if moves.done.test(c) {
                    g.neighbor(v as usize, moves.face(c))
                } else {
                    -1
                };
            }
        }
    }
}

/// What [`one_face_moves`] hands the scatter for eight crossers.
#[derive(Clone, Copy, Default)]
struct OneFaceMoves {
    /// Lanes whose move the batched mover computed — final, unless the
    /// face neighbour turns out not to be an ordinary voxel.
    done: Mask8,
    /// Lanes that cross a y face, a z face (else an x face), and a high
    /// face (else a low one).
    on_y: Mask8,
    on_z: Mask8,
    high: Mask8,
    /// Offsets in the face neighbour at the end of the move.
    end: [F32x8; 3],
    /// Deposit addends lane-major (as in [`BlockPush`]): `[0]` the segment
    /// up to the face, `[1]` the segment in the neighbour.
    txy: [[F32x8; LANES]; 2],
    tz: [[F32x8; LANES]; 2],
}

impl OneFaceMoves {
    /// The face lane `c` crosses (`grid::FACE_*` numbering).
    #[inline(always)]
    fn face(&self, c: usize) -> usize {
        let bit = |m: Mask8| m.test(c) as usize;
        bit(self.on_y) + 2 * bit(self.on_z) + 3 * bit(self.high)
    }
}

/// The batched mover: what [`move_p_local`] computes for eight crossers at
/// once — offsets `d`, half displacements `h`, charges `q` — for every
/// lane whose streak crosses exactly one face. Segment 1 runs to the
/// first face, chosen by the scalar loop's strict `<` in axis order from
/// `frac = 2`; the particle is placed exactly on that face and re-enters
/// the neighbour through the opposite one, at `−dir`; segment 2 spends
/// the rest (`frac = 2 · 0.5 = 1`) and must reach no face (the scalar
/// loop's axis 3). Every value is the scalar mover's IEEE expression tree
/// element-wise, with no fusion, so a `done` lane carries the scalar
/// mover's bits. The rest — no face reached (a NaN, or roundoff between
/// the stay test and `t`), a second face (a corner), or a non-finite
/// input, whose NaN payloads only the scalar mover's own instructions
/// are guaranteed to reproduce — the scatter hands to the scalar mover,
/// which starts from the untouched pre-push state. Outlined: it runs
/// once per eight crossers, and inlined it would crowd the walk's
/// registers.
#[inline(never)]
fn one_face_moves(d: [F32x8; 3], h: [F32x8; 3], q: F32x8, out: &mut OneFaceMoves) {
    let zero = F32x8::splat(0.0);
    let one = F32x8::splat(1.0);
    let minus_one = F32x8::splat(-1.0);
    let two = F32x8::splat(2.0);
    // move_p_local's `dir` (+1 only where the displacement is > 0) and `t`
    // (twice the fraction of the displacement that reaches the face
    // ahead; 3.4e38 where the displacement is ±0, which NaN is not).
    let up = |h: F32x8| h.gt(zero);
    let t = |d: F32x8, h: F32x8| {
        let dir = F32x8::select(up(h), one, minus_one);
        F32x8::select(h.abs().le(zero), F32x8::splat(3.4e38), (dir - d) / h)
    };

    // Segment 1, to the first face: a later axis takes over only where it
    // is strictly nearer, as the loop's reassignment does.
    let (tx, ty, tz) = (t(d[0], h[0]), t(d[1], h[1]), t(d[2], h[2]));
    let on_x = tx.lt(two);
    let frac = F32x8::select(on_x, tx, two);
    let on_y = ty.lt(frac);
    let frac = F32x8::select(on_y, ty, frac);
    let on_z = tz.lt(frac);
    let frac = F32x8::select(on_z, tz, frac) * F32x8::splat(0.5);
    let on = [on_x & !on_y & !on_z, on_y & !on_z, on_z];
    let seg = [h[0] * frac, h[1] * frac, h[2] * frac];
    let mid = [d[0] + seg[0], d[1] + seg[1], d[2] + seg[2]];
    // Consume it; on the crossed axis the offset becomes `−dir`.
    let enter = |a: usize| {
        let behind = F32x8::select(up(h[a]), minus_one, one);
        F32x8::select(on[a], behind, d[a] + (seg[a] + seg[a]))
    };
    let d2 = [enter(0), enter(1), enter(2)];
    let h2 = [h[0] - seg[0], h[1] - seg[1], h[2] - seg[2]];

    // Segment 2, inside the neighbour: no axis may have `t < 2`. Its
    // `h2 · frac` is `h2 · 1`, which is `h2` bit for bit on the finite
    // lanes that are `done`.
    let corner = t(d2[0], h2[0]).lt(two) | t(d2[1], h2[1]).lt(two) | t(d2[2], h2[2]).lt(two);
    let mid2 = [d2[0] + h2[0], d2[1] + h2[1], d2[2] + h2[2]];
    let end = [
        d2[0] + (h2[0] + h2[0]),
        d2[1] + (h2[1] + h2[1]),
        d2[2] + (h2[2] + h2[2]),
    ];

    // The sum of the inputs is finite only where each one is (a sum that
    // overflows a finite input merely sends a lane to the scalar mover).
    let sum = ((d[0] + d[1]) + (d[2] + h[0])) + ((h[1] + h[2]) + q);
    let finite = sum.abs().le(F32x8::splat(f32::MAX));
    let wide = |v: [F32x8; 3]| [Wide([v[0]]), Wide([v[1]]), Wide([v[2]])];
    let (txy1, tz1) = streak_addends(Wide([q]), wide(mid), wide(seg));
    let (txy2, tz2) = streak_addends(Wide([q]), wide(mid2), wide(h2));
    out.done = (on[0] | on[1] | on[2]) & !corner & finite;
    out.on_y = on[1];
    out.on_z = on[2];
    out.high = (on[0] & up(h[0])) | (on[1] & up(h[1])) | (on[2] & up(h[2]));
    out.end = end;
    for l in 0..LANES {
        out.txy[0][l] = txy1[l].0[0];
        out.txy[1][l] = txy2[l].0[0];
        out.tz[0][l] = tz1[l].0[0];
        out.tz[1][l] = tz2[l].0[0];
    }
}

/// The corner/boundary exit from the lane kernel: run one crosser through
/// the scalar `move_p` path from its pre-push state. Outlined and marked
/// cold so the segment-walk code and its register demand stay out of the
/// hot scatter loop — inlined, the move_p body roughly doubles the loop
/// and costs hundreds of cycles per crosser in spill traffic and I-cache
/// misses — and because since the batched mover took the one-face
/// crossers, only corners and boundary faces come here.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn spill_lane(
    b: &mut Block,
    l: usize,
    idx: u32,
    disp: (f32, f32, f32),
    qsp: f32,
    acc: &mut AccumulatorArray,
    g: &Grid,
    absorbed: &mut Vec<u32>,
    exiles: &mut Vec<Exile>,
) {
    let mut p = b.lane(l);
    let mut pm = Mover {
        dispx: disp.0,
        dispy: disp.1,
        dispz: disp.2,
        idx,
    };
    match move_p_local(&mut p, &mut pm, acc, g, qsp) {
        MoveOutcome::Done => {}
        MoveOutcome::Absorbed => absorbed.push(idx),
        MoveOutcome::Exit { face } => exiles.push(Exile {
            idx,
            face,
            mover: pm,
        }),
    }
    b.set_lane(l, &p);
}

/// How many blocks' `compute_blocks` results are queued before one
/// scatter pass drains them. A drain is a burst of dependent
/// load-add-stores plus one batched mover pass per eight crossers;
/// batching it keeps the compute groups back to back — a steady vector
/// stream, the next group's gather loads issuing under the current one's
/// arithmetic — the scatter loop hot in the branch predictors, and the
/// mover's groups full: the pass costs the same for one crosser as for
/// eight, and 16 blocks hold ≈ 7.6 at a 6 % crossing rate. A constant
/// picked by measurement (EXPERIMENTS.md E2: the push per particle at 8,
/// 16 and 32 blocks — 16 is 4 % faster than 8, 32 no faster than 16 —
/// and whole `uniform-push` runs, where 16 beat 8 in ten of ten
/// alternating pairs).
/// (It does not put many compute chains in flight: the reorder window
/// holds a little over one block's instructions, which is what
/// `BLOCK_GROUP` is for.) 16 blocks ≈ 128 particles of queued
/// [`BlockPush`]es (~10 KiB) stay L1-resident — a fixed array on
/// `advance_range`'s stack.
pub const SCATTER_BATCH: usize = 16;

// Whole groups tile the queue. A pass takes a group while that many full
// blocks are ahead in the pipeline's range and single blocks from then on
// (the odd block before a boundary, the tail block with padding lanes),
// so a group always finds an even number of slots taken: it never faces
// a single free slot.
const _: () = assert!(SCATTER_BATCH.is_multiple_of(BLOCK_GROUP));
// A crosser's place in a run, `LANES · block + lane`, fits a byte
// ([`Crossers`]).
const _: () = assert!(SCATTER_BATCH * LANES <= u8::MAX as usize + 1);

/// Drain the deferred-scatter queue: [`scatter_run`] over the queued
/// blocks, which are consecutive from block `first`. Deposits happen
/// here, in exactly the order the unbatched kernel would produce them,
/// which is what keeps the batching invisible to the bit-identity
/// contract. Returns the lanes handed to the scalar mover.
///
/// # Safety
/// Caller must own blocks `first..first + batch.len()` exclusively (same
/// contract as [`advance_range`]), they must exist, and no other
/// reference to any of them may be live.
#[allow(clippy::too_many_arguments)]
unsafe fn drain_batch(
    batch: &[BlockPush],
    blocks: BlockPtr,
    first: usize,
    n_total: usize,
    qsp: f32,
    acc: &mut AccumulatorArray,
    g: &Grid,
    absorbed: &mut Vec<u32>,
    exiles: &mut Vec<Exile>,
    crossers: &mut Crossers,
) -> u64 {
    if batch.is_empty() {
        return 0;
    }
    debug_assert!(first + batch.len() <= blocks.n_blocks);
    // SAFETY: exclusive ownership of the consecutive, existing blocks per
    // the function contract.
    let run = unsafe { std::slice::from_raw_parts_mut(blocks.at(first), batch.len()) };
    let base = first * LANES;
    scatter_run(
        run, batch, base, n_total, qsp, acc, g, absorbed, exiles, crossers,
    )
}

/// Compute the `K` whole blocks starting at block `bi` into `slots` (the
/// next `K` entries of the deferred-scatter queue) and tally them.
///
/// # Safety
/// The caller must own every live lane of blocks `bi..bi + K` exclusively
/// (same contract as [`advance_range`]), the blocks must exist, and no
/// other reference to any of them may be live.
unsafe fn compute_into_queue<const K: usize>(
    blocks: BlockPtr,
    bi: usize,
    n_total: usize,
    c: PushCoefficients,
    interp: &InterpolatorArray,
    slots: &mut [BlockPush; K],
    tally: &mut PushTally,
) {
    // SAFETY: exclusive ownership of `K` distinct blocks per the
    // function contract.
    let b: [&mut Block; K] = std::array::from_fn(|k| unsafe { &mut *blocks.at(bi + k) });
    let live: [usize; K] = std::array::from_fn(|k| live_lanes((bi + k) * LANES, n_total));
    for (b, &live) in b.iter().zip(&live) {
        tally.pushed += live as u64;
        tally.lane_blocks += 1;
        if b.i[1..live].iter().any(|&v| v != b.i[0]) {
            tally.mixed_blocks += 1;
        }
    }
    compute_blocks(b, c, interp, slots.each_mut());
    for (s, &live) in slots.iter().zip(&live) {
        // Live lanes whose stay bit is clear.
        tally.crossers += (!s.stay & live_mask(live)).0.count_ones() as u64;
    }
}

/// One pipeline's share of the production AoSoA advance: the particle
/// index range `[start, end)`. With [`PushKernel::Lane`], blocks fully
/// inside the range run the lane-wide kernel, in four phases:
///
/// 1. **Gather**: transpose the 18 interpolator coefficients of the eight
///    lanes' voxels into [`F32x8`] vectors
///    ([`InterpolatorArray::gather_ha_cb8`]), so the arithmetic phase has
///    no memory indirection.
/// 2. **Push**: the relativistic Boris kick/rotate/displace as lane-wide
///    ops mirroring `push_one`'s expression tree *exactly* — same
///    grouping, no fused multiply-adds — so every lane computes the same
///    IEEE operation sequence the scalar oracle would.
/// 3. **Masked write-back**: momenta unconditionally; positions through a
///    `select` on the stay mask `|n| <= 1` per axis, so cell-crossing
///    lanes keep their pre-push positions for the mover (NaN fails the
///    compare, exactly like the scalar `if`).
/// 4. **Scatter**: the Villasenor–Buneman quadrant currents are
///    precomputed lane-wide ([`streak_addends`]), then scattered **in
///    lane index order** ([`scatter_run`]): stay lanes add their quadrant
///    addends; crossers deposit their segments right there — moved by the
///    batched mover ([`one_face_moves`]) or, at corners and boundaries,
///    by the scalar [`move_p_local`]. Deposits stay in lane order because
///    accumulator adds are order-sensitive f32 sums — lanes sharing a
///    voxel (the common case after sorting) must deposit in the same
///    order the scalar pipeline would.
///
/// Phases 1–3 are [`compute_blocks`], deferred: it runs [`BLOCK_GROUP`]
/// blocks at a time while that many full blocks are ahead in the range,
/// one at a time after that (pure vector work, no accumulator access),
/// until [`SCATTER_BATCH`] results are queued, then phase 4 drains them
/// in block order. Padding lanes are parked on valid voxels so running
/// the vector phases over them is safe; the scatter stops at the store's
/// last particle, so they deposit nothing and never cross.
///
/// Lanes of blocks straddling a pipeline boundary run the scalar
/// per-particle path (same arithmetic — lane math is element-wise, so
/// results are bit-identical either way); the queue is drained first so
/// accumulator deposits keep particle-index order. With
/// [`PushKernel::Scalar`] every lane takes the scalar path — the
/// configuration whole-step oracles run.
///
/// Also tallies the coherence telemetry of the range (crossers, spills,
/// mixed blocks, straddled lanes) for the sort-cadence controller.
///
/// # Safety
/// Ranges of concurrent callers must be disjoint, `blocks` must cover
/// `n_total` particles, and the buffer must outlive the call. A `&mut
/// Block` is only formed for blocks every live lane of which lies in
/// `[start, end)`; straddling blocks are accessed lane-wise through the
/// raw pointer, never via a whole-block reference.
#[allow(clippy::too_many_arguments)]
unsafe fn advance_range(
    blocks: BlockPtr,
    n_total: usize,
    start: usize,
    end: usize,
    c: PushCoefficients,
    interp: &InterpolatorArray,
    acc: &mut AccumulatorArray,
    g: &Grid,
    kernel: PushKernel,
) -> (Vec<u32>, Vec<Exile>, PushTally) {
    let mut absorbed: Vec<u32> = Vec::new();
    let mut exiles: Vec<Exile> = Vec::new();
    let mut tally = PushTally::default();
    // The queue: results of the consecutive blocks `first..first + queued`.
    let mut batch = [BlockPush::default(); SCATTER_BATCH];
    let (mut first, mut queued) = (0, 0);
    let mut crossers = Crossers::default();
    let mut idx = start;
    while idx < end {
        let bi = idx / LANES;
        let lane0 = idx - bi * LANES;
        let block_start = bi * LANES;
        let block_live_end = (block_start + LANES).min(n_total);
        let whole = kernel == PushKernel::Lane && lane0 == 0 && end >= block_live_end;
        if queued == SCATTER_BATCH || (queued > 0 && !whole) {
            // A full queue drains; so does any queue before a straddling
            // block's lanes push scalar, since deposits must stay in
            // particle-index order.
            // SAFETY: exclusive ownership per the function contract; no
            // block reference is live.
            tally.lane_spills += unsafe {
                drain_batch(
                    &batch[..queued],
                    blocks,
                    first,
                    n_total,
                    c.qsp,
                    acc,
                    g,
                    &mut absorbed,
                    &mut exiles,
                    &mut crossers,
                )
            };
            queued = 0;
        }
        if whole {
            // Every live lane of this block belongs to this pipeline:
            // safe to take the whole block mutably and run lane-parallel
            // — and so it is for each full block between here and `end`.
            let full_ahead = (end - block_start) / LANES;
            let width = if full_ahead >= BLOCK_GROUP {
                BLOCK_GROUP
            } else {
                1
            };
            if queued == 0 {
                first = bi;
            }
            debug_assert_eq!(first + queued, bi, "queued blocks are consecutive");
            let slots = &mut batch[queued..];
            // SAFETY: as above.
            unsafe {
                if width == BLOCK_GROUP {
                    let slots = slots.first_chunk_mut().expect("room for a group");
                    compute_into_queue::<BLOCK_GROUP>(
                        blocks, bi, n_total, c, interp, slots, &mut tally,
                    );
                } else {
                    let slots = slots.first_chunk_mut().expect("room for a block");
                    compute_into_queue::<1>(blocks, bi, n_total, c, interp, slots, &mut tally);
                }
            }
            queued += width;
            idx = (block_start + width * LANES).min(n_total);
        } else {
            // Straddling block (or scalar-kernel run): touch only our
            // lanes, via raw pointer.
            let hi = (end - block_start).min(LANES);
            let bp = unsafe { blocks.at(bi) };
            for l in lane0..hi {
                let gidx = (block_start + l) as u32;
                tally.pushed += 1;
                if kernel == PushKernel::Lane {
                    tally.straddle_lanes += 1;
                }
                // SAFETY: lane `l` maps to particle index in [start, end),
                // owned exclusively by this pipeline.
                let mut p = unsafe { lane_load(bp, l) };
                match push_one(&mut p, gidx, c, interp, acc, g) {
                    PushedFate::Stayed { crossed: false } => {}
                    PushedFate::Stayed { crossed: true } => tally.crossers += 1,
                    PushedFate::Absorbed => {
                        tally.crossers += 1;
                        absorbed.push(gidx);
                    }
                    PushedFate::Exiled(e) => {
                        tally.crossers += 1;
                        exiles.push(e);
                    }
                }
                // SAFETY: as above.
                unsafe { lane_store(bp, l, &p) };
            }
            idx = block_start + hi;
        }
    }
    // SAFETY: as above.
    tally.lane_spills += unsafe {
        drain_batch(
            &batch[..queued],
            blocks,
            first,
            n_total,
            c.qsp,
            acc,
            g,
            &mut absorbed,
            &mut exiles,
            &mut crossers,
        )
    };
    (absorbed, exiles, tally)
}

/// The production particle advance behind [`crate::push::advance_p`]:
/// the exact pipeline contract of the push's serial reference
/// [`crate::push::advance_p_aos`] — same index partition (`block =
/// n.div_ceil(n_pipes).max(1)` over *particle* indices, not blocks), same
/// per-pipeline deposit order, same absorbed/exile bookkeeping — so the
/// two are bit-identical for any fixed pipeline count, with either
/// kernel. Also returns the range tallies summed in pipeline order —
/// integer adds, so the totals are worker-count-independent.
pub(crate) fn advance_p_aosoa_pipelined_with(
    store: &mut AosoaStore,
    coeffs: PushCoefficients,
    interp: &InterpolatorArray,
    accumulators: &mut [AccumulatorArray],
    g: &Grid,
    kernel: PushKernel,
) -> (Vec<Exile>, PushTally) {
    let n_pipes = accumulators.len();
    assert!(n_pipes >= 1);
    let n = store.len;
    let block = n.div_ceil(n_pipes).max(1);
    let ptr = BlockPtr::new(&mut store.blocks);

    let results: Vec<(Vec<u32>, Vec<Exile>, PushTally)> = accumulators
        .par_iter_mut()
        .enumerate()
        .map(|(pipe, acc)| {
            let start = (pipe * block).min(n);
            let end = ((pipe + 1) * block).min(n);
            // SAFETY: pipelines own disjoint particle index ranges
            // [start, end) partitioning [0, n); see `advance_range`.
            unsafe { advance_range(ptr, n, start, end, coeffs, interp, acc, g, kernel) }
        })
        .collect();

    let mut absorbed: Vec<u32> = Vec::new();
    let mut exiles: Vec<Exile> = Vec::new();
    let mut tally = PushTally::default();
    for (a, e, t) in results {
        absorbed.extend(a);
        exiles.extend(e);
        tally.absorb(&t);
    }
    let len = store.len;
    retarget_and_delete(len, absorbed, &mut exiles, |i| {
        store.swap_remove(i);
    });
    (exiles, tally)
}

/// The compute half of the lane kernel on its own (`compute_blocks`
/// over every whole block of the store, `K` at a time, an odd last block
/// alone), for the kernel benches and the pairing speed gate: `out[bi]`
/// becomes block `bi`'s record, ready for [`lane_scatter`]. Particles
/// are advanced as the push advances them — momenta kicked, stay lanes
/// moved, crossers left for the mover — but nothing is deposited.
pub fn lane_compute<const K: usize>(
    store: &mut AosoaStore,
    c: PushCoefficients,
    interp: &InterpolatorArray,
    out: &mut Vec<BlockPush>,
) {
    out.resize(store.blocks.len(), BlockPush::default());
    let groups = store.blocks.chunks_exact_mut(K);
    for (blocks, pushes) in groups.zip(out.chunks_exact_mut(K)) {
        let blocks: &mut [Block; K] = blocks.try_into().expect("exact chunk");
        let pushes: &mut [BlockPush; K] = pushes.try_into().expect("exact chunk");
        compute_blocks(blocks.each_mut(), c, interp, pushes.each_mut());
    }
    let whole = store.blocks.len() / K * K;
    for (b, push) in store.blocks[whole..].iter_mut().zip(&mut out[whole..]) {
        compute_blocks([b], c, interp, [push]);
    }
}

/// The scatter half of the lane kernel on its own: the records from
/// [`lane_compute`] drained [`SCATTER_BATCH`] blocks at a time, in block
/// order, as the production queue drains them (`scatter_run`, crossers
/// through the batched mover). Closed domains only: absorbed and exiting
/// particles are neither removed nor reported.
pub fn lane_scatter(
    store: &mut AosoaStore,
    pushes: &[BlockPush],
    qsp: f32,
    acc: &mut AccumulatorArray,
    g: &Grid,
) {
    assert_eq!(pushes.len(), store.blocks.len());
    let n = store.len;
    let (mut absorbed, mut exiles) = (Vec::new(), Vec::new());
    let mut crossers = Crossers::default();
    let runs = store.blocks.chunks_mut(SCATTER_BATCH);
    for (r, (run, pushes)) in runs.zip(pushes.chunks(SCATTER_BATCH)).enumerate() {
        let base = r * SCATTER_BATCH * LANES;
        scatter_run(
            run,
            pushes,
            base,
            n,
            qsp,
            acc,
            g,
            &mut absorbed,
            &mut exiles,
            &mut crossers,
        );
    }
}

/// Lanes in one window of the sort's in-place pass: 4 MiB of blocks, so a
/// worker's window buffer stays a small share of a large store while the
/// slots of particles one cell from their bucket mostly still fall inside
/// the window they were read in.
pub const SORT_WINDOW: usize = 1 << 17;

/// Minimum particles per sort worker; below this the fan-out overhead
/// outweighs the work and fewer (or one) workers are used.
const MIN_SORT_CHUNK: usize = 16 * 1024;

/// End of the slot range the exclusive prefix-sum reserved for the pair
/// `(worker w, voxel v)`: the start of the next pair in `(voxel, worker)`
/// order, `n` after the last. `starts` is a copy of the prefix-sum table
/// taken before the in-place pass advances it. Debug builds check every
/// slot the pass hands out against this, which is what pins "no two
/// workers share a slot" when the workers really run at once.
fn reserved_end(
    starts: &[u32],
    n_voxels: usize,
    workers: usize,
    n: usize,
    w: usize,
    v: usize,
) -> usize {
    if w + 1 < workers {
        starts[(w + 1) * n_voxels + v] as usize
    } else if v + 1 < n_voxels {
        starts[v + 1] as usize
    } else {
        n
    }
}

/// A lane the in-place pass could not place while walking its window: the
/// particle and its output slot, stored once every window is written back.
#[derive(Clone, Copy, Debug)]
struct FarLane {
    slot: u32,
    p: Particle,
}

/// The AoSoA sort's reused buffers: the per-worker histograms, one window
/// buffer per worker and one far list per worker. They keep their
/// capacity between sorts, so steady-state sorting allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct SortBuffers {
    counts: Vec<u32>,
    window: Vec<Block>,
    far: Vec<Vec<FarLane>>,
}

impl SortBuffers {
    /// Heap bytes the buffers hold between sorts (capacities).
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.counts.capacity() * size_of::<u32>()
            + self.window.capacity() * size_of::<Block>()
            + self.far.capacity() * size_of::<Vec<FarLane>>()
            + self
                .far
                .iter()
                .map(|f| f.capacity() * size_of::<FarLane>())
                .sum::<usize>()
    }
}

/// Blocked counting sort by voxel with caller-held buffers — VPIC's
/// `sortp`, the one production sort. Each worker histograms a contiguous
/// *particle index* range into a private per-voxel count array (at most
/// one worker per `MIN_SORT_CHUNK` particles); a serial exclusive
/// prefix-sum over `(voxel, worker)` pairs turns the counts into output
/// slots, so worker `w`'s particles of voxel `v` land after every lower
/// voxel and after workers `< w` for the same voxel, in their original
/// order. The output permutation is therefore exactly the stable serial
/// counting sort ([`crate::sort::reference_sort`]), bitwise independent
/// of the worker count. The particles are rearranged in place through
/// windows of [`SORT_WINDOW`] lanes; no second copy of the store is held.
pub fn sort_aosoa_with(store: &mut AosoaStore, n_voxels: usize, buf: &mut SortBuffers) {
    let n = store.len;
    let workers = worker_threads().min(n.div_ceil(MIN_SORT_CHUNK)).max(1);
    sort_aosoa_with_workers(store, n_voxels, buf, workers, SORT_WINDOW);
}

/// Worker-count- and window-explicit body of the AoSoA sort (tests drive
/// this to pin the permutation against the serial reference for any
/// worker count, and through many windows and the far lists on small
/// stores).
/// `window` is a positive multiple of [`LANES`].
pub(crate) fn sort_aosoa_with_workers(
    store: &mut AosoaStore,
    n_voxels: usize,
    buf: &mut SortBuffers,
    workers: usize,
    window: usize,
) {
    assert!(
        window >= LANES && window.is_multiple_of(LANES),
        "sort window {window} is not a positive multiple of {LANES} lanes"
    );
    let n = store.len;
    if n <= 1 {
        return;
    }
    let workers = workers.clamp(1, n);
    // Whole blocks per worker, so each worker owns the blocks it rewrites.
    // The stable permutation does not depend on where the ranges split.
    let chunk = n.div_ceil(workers).next_multiple_of(LANES);
    let range = move |w: usize| (w * chunk).min(n)..((w + 1) * chunk).min(n);

    // Phase 1: per-worker histograms over index ranges (worker w owns
    // particles `range(w)`).
    let counts = &mut buf.counts;
    counts.clear();
    counts.resize(workers * n_voxels, 0);
    {
        let blocks = &store.blocks[..];
        counts
            .par_chunks_mut(n_voxels)
            .enumerate()
            .for_each(move |(w, hist)| {
                for i in range(w) {
                    hist[blocks[i / LANES].i[i % LANES] as usize] += 1;
                }
            });
    }

    // Phase 2: exclusive prefix-sum in (voxel, worker) order — worker w's
    // slots for voxel v start after every lower voxel and after workers
    // < w for the same voxel, which is what makes the sort stable.
    let mut running = 0u32;
    for v in 0..n_voxels {
        for w in 0..workers {
            let c = &mut counts[w * n_voxels + v];
            let t = *c;
            *c = running;
            running += t;
        }
    }

    // Phase 3: the in-place pass. Worker w walks its own blocks in windows
    // of `window` lanes. A lane whose slot lies in the window being walked
    // goes into the worker's window buffer, copied back over the window
    // once all of it has been read. A lane whose slot lies in one of the
    // worker's windows already copied back goes straight there: that slot
    // is a hole reserved for it alone. Every other lane goes, with its
    // slot, onto the worker's far list. Every slot of [0, n) gets its
    // lane from exactly one of the three. A window copy may first put a
    // stale lane where a direct store or a far lane lands later, so
    // nothing a window buffer held from an earlier window or sort
    // survives (`park_tail` rewrites the tail's padding lanes).
    let starts = if cfg!(debug_assertions) {
        counts.clone()
    } else {
        Vec::new()
    };
    let starts = &starts[..];
    let window_blocks = move |w: usize| range(w).len().min(window).div_ceil(LANES);
    buf.window
        .resize((0..workers).map(window_blocks).sum(), Block::default());
    buf.far.resize_with(workers, Vec::new);
    let mut own_blocks = &mut store.blocks[..];
    let mut windows = &mut buf.window[..];
    let mut parts = Vec::with_capacity(workers);
    for (w, far) in buf.far.iter_mut().enumerate() {
        let own;
        let win;
        (own, own_blocks) = own_blocks.split_at_mut(range(w).len().div_ceil(LANES));
        (win, windows) = windows.split_at_mut(window_blocks(w));
        far.clear();
        parts.push((own, win, far));
    }
    counts
        .par_chunks_mut(n_voxels)
        .zip(parts.par_iter_mut())
        .enumerate()
        .for_each(move |(w, (offsets, (own, win, far)))| {
            let (lo, hi) = (range(w).start, range(w).end);
            let mut a = lo;
            while a < hi {
                let b = (a + window).min(hi);
                for i in a..b {
                    // `lo` and `a` are multiples of LANES, so lane
                    // `i % LANES` of a block is lane `i % LANES` of the
                    // slices' blocks too.
                    let p = own[(i - lo) / LANES].lane(i % LANES);
                    let v = p.i as usize;
                    let t = offsets[v] as usize;
                    debug_assert!(
                        t < reserved_end(starts, n_voxels, workers, n, w, v),
                        "worker {w} overran its slots for voxel {v}"
                    );
                    offsets[v] += 1;
                    if (a..b).contains(&t) {
                        win[(t - a) / LANES].set_lane(t % LANES, &p);
                    } else if (lo..a).contains(&t) {
                        own[(t - lo) / LANES].set_lane(t % LANES, &p);
                    } else {
                        far.push(FarLane { slot: t as u32, p });
                    }
                }
                let (b0, b1) = ((a - lo) / LANES, (b - lo).div_ceil(LANES));
                own[b0..b1].clone_from_slice(&win[..b1 - b0]);
                a = b;
            }
        });

    // Phase 4: store the far lanes, each list on its own worker.
    let out = BlockPtr::new(&mut store.blocks);
    buf.far.par_iter().for_each(move |far| {
        for f in far {
            let t = f.slot as usize;
            // SAFETY: `t` walked the half-open range the exclusive
            // prefix-sum reserved for one (worker, voxel) pair (checked
            // against `reserved_end` in debug builds). Those ranges
            // partition [0, n) and each slot was handed out once, so
            // `t < n`, block `t / LANES` is in bounds, and no other far
            // lane of any list names lane `t`. The walk has ended, so
            // nothing else reads or writes the store. Two workers may
            // write different lanes of one block at once; `lane_store`
            // projects through the raw pointer to the one lane and never
            // forms a reference to the block.
            unsafe { lane_store(out.at(t / LANES), t % LANES, &f.p) };
        }
    });
    store.park_tail();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldArray;
    use crate::field_solver::{bcs_of, sync_b, sync_e};
    use crate::push::{advance_p, advance_p_aos};
    use crate::rng::Rng;
    use crate::sort::{locality_fraction, reference_sort};

    fn random_particles(n: usize, seed: u64) -> Vec<Particle> {
        let mut rng = Rng::seeded(seed);
        (0..n)
            .map(|k| Particle {
                dx: rng.uniform_in(-1.0, 1.0) as f32,
                dy: rng.uniform_in(-1.0, 1.0) as f32,
                dz: rng.uniform_in(-1.0, 1.0) as f32,
                i: k as u32,
                ux: rng.normal() as f32,
                uy: rng.normal() as f32,
                uz: rng.normal() as f32,
                w: 1.0,
            })
            .collect()
    }

    #[test]
    fn element_ops_match_vec_semantics() {
        let parts = random_particles(21, 7);
        let mut st = AosoaStore::from_particles(&parts);
        assert_eq!(st.len(), 21);
        assert_eq!(st.to_particles(), parts);
        assert_eq!(st.iter().len(), 21);
        assert_eq!(st.iter().collect::<Vec<_>>(), parts);
        for (k, p) in parts.iter().enumerate() {
            assert_eq!(st.get(k), *p);
            assert_eq!(st.voxel(k), p.i);
        }
        let extra = Particle {
            i: 999,
            w: 2.0,
            ..Default::default()
        };
        st.push(extra);
        assert_eq!(st.len(), 22);
        assert_eq!(st.get(21), extra);
        let mut changed = parts[3];
        changed.ux = -5.0;
        st.set(3, changed);
        assert_eq!(st.get(3), changed);
        // swap_remove mirrors Vec::swap_remove semantics.
        let removed = st.swap_remove(0);
        assert_eq!(removed.i, parts[0].i);
        assert_eq!(st.get(0), extra);
        assert_eq!(st.len(), 21);
    }

    #[test]
    fn swap_remove_sequences_match_vec_semantics() {
        let parts = random_particles(19, 3);
        let mut vec_ref = parts.clone();
        let mut soa = AosoaStore::from_particles(&parts);
        for i in [5usize, 0, 10, 3, 3, 0] {
            assert_eq!(vec_ref.swap_remove(i), soa.swap_remove(i));
            assert_eq!(soa.to_particles(), vec_ref);
        }
    }

    #[test]
    fn equality_is_logical_and_ignores_padding_lanes() {
        let parts = random_particles(13, 5);
        let a = AosoaStore::from_particles(&parts);
        // Same sequence, different padding: built by pushes and a removal.
        let mut b = AosoaStore::default();
        for p in parts.iter().chain([&parts[0]]) {
            b.push(*p);
        }
        b.swap_remove(13);
        assert_ne!(a.blocks.last().unwrap().i, b.blocks.last().unwrap().i);
        assert_eq!(a, b);
        b.set(12, Particle::default());
        assert_ne!(a, b);
        assert_ne!(a, AosoaStore::from_particles(&parts[..12]));
    }

    #[test]
    fn roundtrip_preserves_particles() {
        let mut rng = Rng::seeded(5);
        let parts: Vec<Particle> = (0..21)
            .map(|n| Particle {
                dx: rng.uniform_in(-1.0, 1.0) as f32,
                i: 100 + n,
                w: 1.0,
                ..Default::default()
            })
            .collect();
        let store = AosoaStore::from_particles(&parts);
        assert_eq!(store.len(), 21);
        assert_eq!(store.blocks.len(), 3);
        assert_eq!(store.to_particles(), parts);
        assert!(!store.is_empty());
    }

    fn loaded_plasma(g: &Grid, n: usize, seed: u64) -> Vec<Particle> {
        let mut rng = Rng::seeded(seed);
        (0..n)
            .map(|_| Particle {
                dx: rng.uniform_in(-0.99, 0.99) as f32,
                dy: rng.uniform_in(-0.99, 0.99) as f32,
                dz: rng.uniform_in(-0.99, 0.99) as f32,
                i: g.voxel(
                    1 + rng.index(g.nx),
                    1 + rng.index(g.ny),
                    1 + rng.index(g.nz),
                ) as u32,
                ux: rng.normal() as f32 * 0.3,
                uy: rng.normal() as f32 * 0.3,
                uz: rng.normal() as f32 * 0.3,
                w: 1.0,
            })
            .collect()
    }

    #[test]
    fn aosoa_push_matches_aos_push_exactly() {
        let g = Grid::periodic((6, 6, 6), (0.5, 0.5, 0.5), 0.1);
        let mut f = FieldArray::new(&g);
        for v in 0..g.n_voxels() {
            f.ex[v] = 0.3;
            f.cbz[v] = 0.8;
        }
        sync_e(&mut f, &g, bcs_of(&g));
        sync_b(&mut f, &g, bcs_of(&g));
        let mut ia = InterpolatorArray::new(&g);
        ia.load(&f, &g);

        let parts = loaded_plasma(&g, 100, 31);

        let c = PushCoefficients::new(-1.0, 1.0, &g);
        let mut aos = parts.clone();
        let mut acc_aos = [AccumulatorArray::new(&g)];
        advance_p_aos(&mut aos, c, &ia, &mut acc_aos, &g);

        let mut store = AosoaStore::from_particles(&parts);
        let mut acc_soa = [AccumulatorArray::new(&g)];
        advance_p(&mut store, c, &ia, &mut acc_soa, &g);
        let soa = store.to_particles();

        assert_eq!(aos.len(), soa.len());
        for (a, b) in aos.iter().zip(soa.iter()) {
            assert_eq!(a, b, "particle state diverged");
        }
        for (x, y) in acc_aos[0].data.iter().zip(acc_soa[0].data.iter()) {
            for n in 0..4 {
                assert_eq!(x.jx[n], y.jx[n]);
                assert_eq!(x.jy[n], y.jy[n]);
                assert_eq!(x.jz[n], y.jz[n]);
            }
        }
    }

    #[test]
    fn padding_lanes_deposit_nothing() {
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.1);
        let ia = InterpolatorArray::new(&g);
        let parts = vec![Particle {
            i: g.voxel(2, 2, 2) as u32,
            ux: 0.5,
            w: 1.0,
            ..Default::default()
        }];
        let mut store = AosoaStore::from_particles(&parts);
        let mut acc = [AccumulatorArray::new(&g)];
        let c = PushCoefficients::new(-1.0, 1.0, &g);
        advance_p(&mut store, c, &ia, &mut acc, &g);
        // Only the single real particle's deposit exists.
        let total: f32 = acc[0].data.iter().flat_map(|a| a.jx.iter()).sum();
        let single: f32 = acc[0].data[g.voxel(2, 2, 2)].jx.iter().sum();
        assert_eq!(total, single);
        assert!(single != 0.0);
    }

    #[test]
    fn pipelined_aosoa_matches_pipelined_aos_bitwise() {
        // Production contract: for any fixed pipeline count, AoS and AoSoA
        // produce bit-identical particles AND per-pipeline accumulators
        // (straddling blocks force the scalar lane path at every pipeline
        // boundary — counts chosen so boundaries do not land on LANES
        // multiples).
        let g = Grid::periodic((6, 6, 6), (0.5, 0.5, 0.5), 0.1);
        let mut f = FieldArray::new(&g);
        for v in 0..g.n_voxels() {
            f.ex[v] = 0.4;
            f.cby[v] = 0.6;
        }
        sync_e(&mut f, &g, bcs_of(&g));
        sync_b(&mut f, &g, bcs_of(&g));
        let mut ia = InterpolatorArray::new(&g);
        ia.load(&f, &g);
        let c = PushCoefficients::new(-1.0, 1.0, &g);

        for (n, n_pipes) in [(101usize, 3usize), (257, 4), (64, 1), (30, 7)] {
            let parts = loaded_plasma(&g, n, 40 + n as u64);

            let mut aos = parts.clone();
            let mut acc_a: Vec<AccumulatorArray> =
                (0..n_pipes).map(|_| AccumulatorArray::new(&g)).collect();
            let (ex_a, _) = advance_p_aos(&mut aos, c, &ia, &mut acc_a, &g);

            let mut soa = AosoaStore::from_particles(&parts);
            let mut acc_s: Vec<AccumulatorArray> =
                (0..n_pipes).map(|_| AccumulatorArray::new(&g)).collect();
            let ex_s = advance_p(&mut soa, c, &ia, &mut acc_s, &g);

            assert_eq!(aos, soa.to_particles(), "n={n} pipes={n_pipes}");
            assert_eq!(ex_a.len(), ex_s.len());
            for (pipe, (x, y)) in acc_a.iter().zip(acc_s.iter()).enumerate() {
                for (vx, vy) in x.data.iter().zip(y.data.iter()) {
                    for k in 0..4 {
                        assert_eq!(vx.jx[k], vy.jx[k], "pipe {pipe}");
                        assert_eq!(vx.jy[k], vy.jy[k], "pipe {pipe}");
                        assert_eq!(vx.jz[k], vy.jz[k], "pipe {pipe}");
                    }
                }
            }
        }
    }

    /// A sorted thermal plasma with random fields in a closed box, big
    /// enough that the interpolators do not sit in L1: what the compute
    /// half of the lane kernel sees in a run.
    fn kernel_workload() -> (Grid, InterpolatorArray, AosoaStore, PushCoefficients) {
        let g = Grid::periodic((16, 16, 16), (0.25, 0.25, 0.25), 0.1);
        let mut rng = Rng::seeded(77);
        let mut f = FieldArray::new(&g);
        for v in 0..g.n_voxels() {
            f.ex[v] = rng.uniform_in(-0.1, 0.1) as f32;
            f.ey[v] = rng.uniform_in(-0.1, 0.1) as f32;
            f.cbz[v] = rng.uniform_in(-0.1, 0.1) as f32;
        }
        let mut ia = InterpolatorArray::new(&g);
        ia.load(&f, &g);
        let parts = reference_sort(&loaded_plasma(&g, 8 * g.n_live(), 5), g.n_voxels());
        let c = PushCoefficients::new(-1.0, 1.0, &g);
        (g, ia, AosoaStore::from_particles(&parts), c)
    }

    #[test]
    fn lane_compute_and_scatter_halves_make_the_whole_push() {
        // The bench entry points are the production halves: computing
        // every block one or two at a time and scattering the records
        // must land on the bits of the production advance at one
        // pipeline.
        let (g, ia, store, c) = kernel_workload();
        let mut whole = store.clone();
        let mut acc_whole = [AccumulatorArray::new(&g)];
        advance_p(&mut whole, c, &ia, &mut acc_whole, &g);
        for paired in [false, true] {
            let mut halves = store.clone();
            let mut pushes = Vec::new();
            if paired {
                lane_compute::<2>(&mut halves, c, &ia, &mut pushes);
            } else {
                lane_compute::<1>(&mut halves, c, &ia, &mut pushes);
            }
            let mut acc = AccumulatorArray::new(&g);
            lane_scatter(&mut halves, &pushes, c.qsp, &mut acc, &g);
            assert_eq!(
                whole.to_particles(),
                halves.to_particles(),
                "paired {paired}"
            );
            for (x, y) in acc_whole[0].data.iter().zip(acc.data.iter()) {
                assert_eq!((x.jx, x.jy, x.jz), (y.jx, y.jy, y.jz), "paired {paired}");
            }
        }
    }

    /// Relative speed gate for block pairing, both widths timed in one
    /// process so host drift cancels: advancing two blocks per pass of
    /// the compute body must take at most 1/1.15 of the time per block
    /// that one block per pass takes. If this fails the two chains no
    /// longer overlap — look for register spills in `compute_blocks::<2>`.
    #[test]
    #[ignore = "timing gate; run in release via scripts/ci.sh kernel"]
    fn paired_compute_is_at_least_1_15x_single_per_block() {
        use std::time::Instant;
        let (_, ia, store, c) = kernel_workload();
        let n_blocks = store.blocks.len() as f64;
        let mut pushes = Vec::new();
        let mut time = |compute: fn(
            &mut AosoaStore,
            PushCoefficients,
            &InterpolatorArray,
            &mut Vec<BlockPush>,
        )| {
            // Best of seven batches: a preempted batch cannot fail the gate.
            (0..7)
                .map(|_| {
                    let mut s = store.clone();
                    let t0 = Instant::now();
                    for _ in 0..20 {
                        compute(std::hint::black_box(&mut s), c, &ia, &mut pushes);
                    }
                    t0.elapsed().as_secs_f64() / (20.0 * n_blocks)
                })
                .fold(f64::INFINITY, f64::min)
        };
        let single = time(lane_compute::<1>);
        let paired = time(lane_compute::<2>);
        println!(
            "compute per block: single {:.1} ns, paired {:.1} ns ({:.2}x); lanes: {}",
            single * 1e9,
            paired * 1e9,
            single / paired,
            crate::lanes::BACKEND
        );
        assert!(
            single >= 1.15 * paired,
            "paired compute is only {:.2}x single",
            single / paired
        );
    }

    /// A sorted plasma (8 per voxel) in a periodic 16³ box with zero
    /// fields, every particle one step from the one face it crosses (a
    /// random one of six): each lane of each block crosses, and none at a
    /// corner or a boundary.
    fn crossing_workload() -> (Grid, InterpolatorArray, AosoaStore, PushCoefficients) {
        let g = Grid::periodic((16, 16, 16), (0.25, 0.25, 0.25), 0.1);
        let mut rng = Rng::seeded(78);
        let mut parts = loaded_plasma(&g, 8 * g.n_live(), 6);
        for p in &mut parts {
            let (mut d, mut u) = ([p.dx * 0.5, p.dy * 0.5, p.dz * 0.5], [0.02; 3]);
            let face = rng.index(6);
            let s = if face >= 3 { 1.0 } else { -1.0 };
            (d[face % 3], u[face % 3]) = (0.9 * s, 2.0 * s);
            [p.dx, p.dy, p.dz, p.ux, p.uy, p.uz] = [d[0], d[1], d[2], u[0], u[1], u[2]];
        }
        let parts = reference_sort(&parts, g.n_voxels());
        let c = PushCoefficients::new(-1.0, 1.0, &g);
        (
            g.clone(),
            InterpolatorArray::new(&g),
            AosoaStore::from_particles(&parts),
            c,
        )
    }

    /// [`lane_scatter`] as it was before the batched mover: every crosser
    /// through [`spill_lane`] at its lane position.
    fn scatter_spilling_every_crosser(
        store: &mut AosoaStore,
        pushes: &[BlockPush],
        qsp: f32,
        acc: &mut AccumulatorArray,
        g: &Grid,
    ) {
        let n = store.len;
        let (mut absorbed, mut exiles) = (Vec::new(), Vec::new());
        let mut open = OpenVoxel::NONE;
        for (bi, (b, s)) in store.blocks.iter_mut().zip(pushes).enumerate() {
            let live = live_lanes(bi * LANES, n);
            for l in 0..live {
                let v = b.i[l] as usize;
                acc.mark(v);
                if s.stay.test(l) {
                    acc.deposit_lane(v, &mut open, s.txy[l], s.tz[l]);
                } else {
                    let disp = (s.hx.0[l], s.hy.0[l], s.hz.0[l]);
                    let idx = (bi * LANES + l) as u32;
                    spill_lane(b, l, idx, disp, qsp, acc, g, &mut absorbed, &mut exiles);
                    open = OpenVoxel::NONE;
                }
            }
        }
    }

    /// Relative speed gate for the batched crosser mover, both sides timed
    /// in one process, A-B-B-A so host drift cancels: scattering an
    /// all-crossing block set ([`crossing_workload`]) with the drains'
    /// crossers moved as batches must take at most half the time of the
    /// same scatter with every crosser handed to the scalar mover. If this
    /// fails, look for `one_face_moves` being inlined into the walk, or for
    /// lanes it should finish falling back.
    #[test]
    #[ignore = "timing gate; run in release via scripts/ci.sh kernel"]
    fn batched_crossers_are_at_least_2x_the_scalar_mover() {
        use std::time::Instant;
        let (g, ia, mut store, c) = crossing_workload();
        let mut pushes = Vec::new();
        lane_compute::<2>(&mut store, c, &ia, &mut pushes);
        let every_lane = pushes.iter().all(|s| s.stay == Mask8(0));
        assert!(every_lane, "the workload must cross in every lane");
        type Scatter = fn(&mut AosoaStore, &[BlockPush], f32, &mut AccumulatorArray, &Grid);
        let scatter = |f: Scatter| {
            let (mut s, mut acc) = (store.clone(), AccumulatorArray::new(&g));
            let t0 = Instant::now();
            f(std::hint::black_box(&mut s), &pushes, c.qsp, &mut acc, &g);
            (t0.elapsed().as_secs_f64(), s, acc)
        };
        // Same bits both ways, and the batched mover takes every lane.
        let (_, a, acc_a) = scatter(lane_scatter);
        let (_, b, acc_b) = scatter(scatter_spilling_every_crosser);
        assert_eq!(a.to_particles(), b.to_particles());
        for (x, y) in acc_a.data.iter().zip(&acc_b.data) {
            assert_eq!((x.jx, x.jy, x.jz), (y.jx, y.jy, y.jz));
        }
        // Best of five scatters per side, A-B-B-A, median over rounds.
        let best = |f: Scatter| (0..5).map(|_| scatter(f).0).fold(f64::INFINITY, f64::min);
        let mut ratios: Vec<f64> = (0..5)
            .map(|_| {
                let a1 = best(lane_scatter);
                let b1 = best(scatter_spilling_every_crosser);
                let b2 = best(scatter_spilling_every_crosser);
                let a2 = best(lane_scatter);
                (b1 + b2) / (a1 + a2)
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let per_crosser = |f: Scatter| best(f) / store.len() as f64 * 1e9;
        println!(
            "crosser scatter per particle: batched {:.1} ns, scalar mover {:.1} ns; \
             ratios {ratios:.2?}; lanes: {}",
            per_crosser(lane_scatter),
            per_crosser(scatter_spilling_every_crosser),
            crate::lanes::BACKEND
        );
        assert!(
            ratios[2] >= 2.0,
            "the batched crosser mover is only {:.2}x the scalar mover",
            ratios[2]
        );
    }

    #[test]
    fn aosoa_sort_matches_the_reference_for_any_worker_count() {
        let mut rng = Rng::seeded(21);
        let nv = 300;
        let parts: Vec<Particle> = (0..5000)
            .map(|k| Particle {
                i: rng.index(nv) as u32,
                w: k as f32, // unique tag → permutation comparable exactly
                ux: rng.normal() as f32,
                ..Default::default()
            })
            .collect();
        let want = reference_sort(&parts, nv);
        // Sort workers (the partition) × real threads (who runs the parts).
        for threads in [1usize, 2, 4] {
            for workers in [1usize, 2, 3, 5, 8] {
                let mut store = AosoaStore::from_particles(&parts);
                let mut buf = SortBuffers::default();
                crate::threads::with_worker_threads(threads, || {
                    sort_aosoa_with_workers(&mut store, nv, &mut buf, workers, SORT_WINDOW)
                });
                assert_eq!(
                    store.to_particles(),
                    want,
                    "workers = {workers}, threads = {threads}"
                );
                assert_eq!(store.len(), parts.len());
            }
        }
    }

    /// Sort `parts` through the windowed in-place pass at 1, 2 and 3
    /// workers and windows of one block up to [`SORT_WINDOW`], on 1, 2
    /// and 4 real threads, and require the serial reference's permutation
    /// with the tail's padding lanes parked. Returns the most far lanes
    /// any run kept, so a caller can tell the far path was taken.
    fn windowed_sort_equals_the_reference(case: &str, parts: &[Particle], nv: usize) -> usize {
        let want = reference_sort(parts, nv);
        let mut most_far = 0;
        for workers in [1usize, 2, 3] {
            for window in [LANES, 3 * LANES, 64, SORT_WINDOW] {
                for threads in [1usize, 2, 4] {
                    let mut store = AosoaStore::from_particles(parts);
                    let mut buf = SortBuffers::default();
                    crate::threads::with_worker_threads(threads, || {
                        sort_aosoa_with_workers(&mut store, nv, &mut buf, workers, window)
                    });
                    let at =
                        format!("{case}: workers {workers}, window {window}, threads {threads}");
                    assert_eq!(store.to_particles(), want, "{at}");
                    assert_eq!(store.blocks.len(), parts.len().div_ceil(LANES), "{at}");
                    let tail = store.blocks.last().unwrap();
                    let live = parts.len() % LANES;
                    for l in (live..LANES).filter(|_| live != 0) {
                        assert_eq!(tail.w[l], 0.0, "{at}: padding lane {l} has weight");
                        assert_eq!(tail.i[l], tail.i[0], "{at}: padding lane {l} unparked");
                    }
                    most_far = most_far.max(buf.far.iter().map(Vec::len).sum());
                }
            }
        }
        most_far
    }

    /// `n` particles tagged by index (`w`), voxel chosen by `voxel(k)`.
    fn tagged(n: usize, mut voxel: impl FnMut(usize) -> u32) -> Vec<Particle> {
        (0..n)
            .map(|k| Particle {
                i: voxel(k),
                w: 1.0 + k as f32,
                ux: k as f32 * 0.5,
                ..Default::default()
            })
            .collect()
    }

    #[test]
    fn windowed_sort_of_a_reversed_store_matches_the_reference() {
        // Strictly decreasing voxels: no lane's slot is near its source,
        // so at every window shorter than the store each lane is far or
        // goes back into a window already written.
        let (n, nv) = (1000, 1000);
        let parts = tagged(n, |k| (nv - 1 - k) as u32);
        let far = windowed_sort_equals_the_reference("reversed", &parts, nv);
        assert!(far >= n / 2, "reversed store kept only {far} far lanes");
    }

    #[test]
    fn windowed_sort_of_a_single_voxel_store_matches_the_reference() {
        // One bucket: the stable sort is the identity, every slot its own
        // source, and nothing is far.
        let parts = tagged(517, |_| 7);
        let far = windowed_sort_equals_the_reference("single voxel", &parts, 12);
        assert_eq!(far, 0);
    }

    #[test]
    fn windowed_sort_of_a_ragged_store_matches_the_reference() {
        // n % 8 != 0 at several sizes, one of them a single partial block.
        for n in [2usize, 5, 13, 203, 1001] {
            let mut rng = Rng::seeded(n as u64);
            let parts = tagged(n, |_| rng.index(37) as u32);
            windowed_sort_equals_the_reference(&format!("ragged n = {n}"), &parts, 37);
        }
    }

    #[test]
    fn windowed_sort_of_a_store_smaller_than_one_window_matches_the_reference() {
        let mut rng = Rng::seeded(41);
        let parts = tagged(60, |_| rng.index(9) as u32);
        let mut store = AosoaStore::from_particles(&parts);
        let mut buf = SortBuffers::default();
        sort_aosoa_with_workers(&mut store, 9, &mut buf, 1, 64);
        // One window holds the whole store: the buffer is the store's size
        // in blocks and nothing is far.
        assert_eq!(buf.window.len(), parts.len().div_ceil(LANES));
        assert_eq!(buf.far.iter().map(Vec::len).sum::<usize>(), 0);
        windowed_sort_equals_the_reference("under one window", &parts, 9);
    }

    #[test]
    fn windowed_sort_of_a_store_spanning_many_windows_matches_the_reference() {
        // A sorted store whose particles then moved up to one voxel either
        // way — the disorder a run hands the sort — spanning ≥ 3 windows of
        // 64 lanes per worker, and a fully random one.
        let (n, nv) = (2000, 250);
        let mut rng = Rng::seeded(43);
        let near = tagged(n, |k| {
            let v = (k * nv / n) as i64 + rng.index(3) as i64 - 1;
            v.clamp(0, nv as i64 - 1) as u32
        });
        assert!(n / 3 >= 3 * 64);
        windowed_sort_equals_the_reference("one voxel of disorder", &near, nv);
        let random = tagged(n, |_| rng.index(nv) as u32);
        let far = windowed_sort_equals_the_reference("random", &random, nv);
        assert!(far > 0);
    }

    #[test]
    fn windowed_sort_after_holes_and_tail_arrivals_matches_the_reference() {
        // A sorted store after the push's own edits: `swap_remove` holes
        // filled from the tail, then arrivals appended at the tail.
        let nv = 120;
        let sorted = reference_sort(&tagged(900, |k| (k * 7 % nv) as u32), nv);
        let mut store = AosoaStore::from_particles(&sorted);
        let mut rng = Rng::seeded(47);
        for _ in 0..60 {
            store.swap_remove(rng.index(store.len()));
        }
        for k in 0..45 {
            store.push(Particle {
                i: rng.index(nv) as u32,
                w: 5000.0 + k as f32,
                ..Default::default()
            });
        }
        assert_ne!(store.len() % LANES, 0);
        let far =
            windowed_sort_equals_the_reference("holes and arrivals", &store.to_particles(), nv);
        assert!(far > 0);
    }

    #[test]
    fn stale_sort_buffers_never_leak_into_a_shorter_or_longer_sort() {
        // The window buffers keep the previous sort's blocks and the far
        // lists their capacity; a shrinking, a growing and a
        // worker-count-changing population must each land on the
        // reference permutation of their own particles, padding lanes
        // parked, with no far lane of an earlier sort stored again.
        let mut rng = Rng::seeded(33);
        let nv = 40;
        let mut buf = SortBuffers::default();
        for (round, (n, workers)) in [(3001usize, 3usize), (17, 3), (3011, 2), (2203, 3), (64, 1)]
            .into_iter()
            .enumerate()
        {
            let parts: Vec<Particle> = (0..n)
                .map(|k| Particle {
                    i: rng.index(nv) as u32,
                    w: (10_000 * round + k) as f32, // unique across rounds
                    ux: 1.0,
                    ..Default::default()
                })
                .collect();
            let mut store = AosoaStore::from_particles(&parts);
            sort_aosoa_with_workers(&mut store, nv, &mut buf, workers, 64);
            let want = reference_sort(&parts, nv);
            assert_eq!(store.to_particles(), want, "round {round}");
            assert_eq!(store.blocks.len(), n.div_ceil(LANES));
            assert_eq!(buf.far.len(), workers, "round {round}: far lists");
            let tail = store.blocks.last().unwrap();
            for l in (n % LANES..LANES).filter(|_| n % LANES != 0) {
                assert_eq!(tail.w[l], 0.0, "round {round}: padding lane {l} has weight");
                assert_eq!(tail.ux[l], 0.0, "round {round}: padding lane {l} moves");
                assert_eq!(
                    tail.i[l], tail.i[0],
                    "round {round}: padding lane {l} unparked"
                );
            }
        }
    }

    #[test]
    fn empty_and_single_are_noops() {
        let mut buf = SortBuffers::default();
        let mut none = AosoaStore::default();
        sort_aosoa_with(&mut none, 10, &mut buf);
        assert!(none.is_empty());
        let one = Particle {
            i: 7,
            w: 1.0,
            ..Default::default()
        };
        let mut store = AosoaStore::from_particles(&[one]);
        sort_aosoa_with(&mut store, 10, &mut buf);
        assert_eq!(store.to_particles(), [one]);
        assert_eq!(buf.bytes(), 0, "a no-op sort allocated");
    }

    #[test]
    fn persistent_buffers_are_reused() {
        // A follow-up sort of a same-sized store reallocates none of the
        // held buffers: the histograms and window buffers keep their
        // allocation, and the far lists their capacity.
        let mut rng = Rng::seeded(5);
        let store = AosoaStore::from_particles(&tagged(2000, |_| rng.index(64) as u32));
        let mut buf = SortBuffers::default();
        let mut a = store.clone();
        sort_aosoa_with_workers(&mut a, 64, &mut buf, 3, 64);
        let held = (buf.counts.as_ptr(), buf.window.as_ptr(), buf.bytes());
        assert!(buf.far.iter().any(|f| !f.is_empty()), "no far lanes");
        let mut b = store.clone();
        sort_aosoa_with_workers(&mut b, 64, &mut buf, 3, 64);
        assert_eq!(
            (buf.counts.as_ptr(), buf.window.as_ptr(), buf.bytes()),
            held
        );
        assert_eq!(b.to_particles(), reference_sort(&store.to_particles(), 64));
    }

    #[test]
    fn locality_improves_after_sort() {
        let mut rng = Rng::seeded(11);
        let parts = tagged(5000, |_| rng.index(1000) as u32);
        let mut store = AosoaStore::from_particles(&parts);
        let before = locality_fraction(&parts);
        sort_aosoa_with(&mut store, 1000, &mut SortBuffers::default());
        let after = locality_fraction(&store.to_particles());
        assert!(after > 0.9, "after = {after}");
        assert!(after > before);
    }

    #[test]
    fn push_swap_remove_and_sort_keep_padding_invariants() {
        // After arbitrary mutation the tail block's padding lanes must
        // stay zero-weight on a valid voxel (the lane-parallel kernel
        // interpolates them unconditionally).
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.1);
        let nv = g.n_voxels();
        let mut store = AosoaStore::default();
        let mut rng = Rng::seeded(9);
        for _ in 0..13 {
            store.push(Particle {
                i: g.voxel(1 + rng.index(4), 1 + rng.index(4), 1 + rng.index(4)) as u32,
                w: 1.0,
                ..Default::default()
            });
        }
        store.swap_remove(4);
        store.swap_remove(0);
        sort_aosoa_with(&mut store, nv, &mut SortBuffers::default());
        assert_eq!(store.len(), 11);
        let live = store.len() % LANES;
        let tail = store.blocks.last().unwrap();
        for l in live..LANES {
            assert_eq!(tail.w[l], 0.0, "padding lane {l} has weight");
            assert!((tail.i[l] as usize) < nv, "padding lane {l} off-grid");
        }
    }
}
