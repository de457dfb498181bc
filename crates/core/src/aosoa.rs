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
//! pipeline parallelism — all bit-identical to the AoS oracle the tests
//! compare against ([`crate::push::advance_p_aos`],
//! [`crate::sort::sort_by_voxel_with`]). The inner loop runs lane-wide
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
use crate::sort::{reserved_end, MIN_SORT_CHUNK};
use crate::threads::worker_threads;
use rayon::prelude::*;

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
/// Same contract as [`lane_load`], plus exclusive ownership of lane `l`.
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
/// sharing the pointer across threads is sound — the AoSoA analogue of
/// `sort::ScatterPtr`.
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

/// Lane-wide advance of one block — the production inner loop
/// ([`PushKernel::Lane`]). Four phases:
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
/// Padding lanes are parked on valid voxels so running the vector phases
/// over them is safe; the scatter loop stops at `live`, so they deposit
/// nothing and never cross. Global particle index of lane `l` is
/// `base + l`; absorbed indices and exiles are appended for the caller
/// (identical contract to `push::advance_block`).
#[allow(clippy::too_many_arguments)]
fn advance_full_block(
    b: &mut Block,
    base: usize,
    n: usize,
    c: PushCoefficients,
    interp: &InterpolatorArray,
    acc: &mut AccumulatorArray,
    g: &Grid,
    absorbed: &mut Vec<u32>,
    exiles: &mut Vec<Exile>,
    crossers: &mut Crossers,
) {
    let mut s = BlockPush::default();
    compute_blocks([&mut *b], c, interp, [&mut s]);
    let run = std::slice::from_mut(b);
    scatter_run(
        run,
        &[s],
        base,
        n,
        c.qsp,
        acc,
        g,
        absorbed,
        exiles,
        crossers,
    );
}

/// Everything [`compute_blocks`] hands to [`scatter_run`] for one block:
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

/// Phases 1–3 of [`advance_full_block`] plus the lane-wide quadrant
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

/// Phase 4 of [`advance_full_block`] for a run of consecutive blocks —
/// one drain of the deferred-scatter queue, the whole of a one-block
/// advance: the in-order lane scatter, fed by [`compute_blocks`]'
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
        // The dirty range, once for the block: every live lane deposits
        // into its voxel first, stay lane or crosser.
        let (lo, hi) = b.i[..live]
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        acc.touch(lo as usize, hi as usize);
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

/// How many blocks' [`compute_blocks`] results are queued before one
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
/// [`BLOCK_GROUP`] is for.) 16 blocks ≈ 128 particles of queued
/// [`BlockPush`]es (~10 KiB) stay L1-resident — a fixed array on
/// [`advance_range`]'s stack.
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
/// inside the range run the lane-wide kernel with deferred scatter:
/// [`compute_blocks`] runs [`BLOCK_GROUP`] blocks at a time while that
/// many full blocks are ahead in the range, one at a time after that (pure
/// vector work, no accumulator access), until [`SCATTER_BATCH`] results are
/// queued, then they scatter in block order. Lanes of blocks straddling a
/// pipeline boundary run the scalar per-particle path (same arithmetic —
/// lane math is element-wise, so results are bit-identical either way);
/// the queue is drained first so accumulator deposits keep particle-index
/// order. With [`PushKernel::Scalar`] every lane takes the scalar path —
/// that is the oracle configuration the differential harness compares
/// against.
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
/// the exact pipeline contract of the AoS oracle
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

/// Single-accumulator AoSoA advance for closed (periodic/reflect) domains
/// — the unit tests' and kernel benches' single block walk. Absorbed or
/// exiting particles are parked in place with zero weight instead of
/// being removed/migrated; use [`crate::push::advance_p`] for the
/// production contract.
pub fn advance_p_aosoa(
    store: &mut AosoaStore,
    c: PushCoefficients,
    interp: &InterpolatorArray,
    acc: &mut AccumulatorArray,
    g: &Grid,
) {
    let real = store.len;
    let mut absorbed: Vec<u32> = Vec::new();
    let mut exiles: Vec<Exile> = Vec::new();
    let mut crossers = Crossers::default();
    for (bi, b) in store.blocks.iter_mut().enumerate() {
        advance_full_block(
            b,
            bi * LANES,
            real,
            c,
            interp,
            acc,
            g,
            &mut absorbed,
            &mut exiles,
            &mut crossers,
        );
    }
    // Closed-domain fallback: park leavers with zero weight.
    for idx in absorbed {
        let mut p = store.get(idx as usize);
        p.w = 0.0;
        store.set(idx as usize, p);
    }
    for e in exiles {
        let mut p = store.get(e.idx as usize);
        p.w = 0.0;
        store.set(e.idx as usize, p);
    }
}

/// The compute half of the lane kernel on its own ([`compute_blocks`]
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
/// order, as the production queue drains them ([`scatter_run`], crossers
/// through the batched mover). Closed domains only, like
/// [`advance_p_aosoa`] — leavers are dropped.
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

/// Blocked counting sort by voxel with a caller-held scratch/histogram,
/// mirroring [`crate::sort::sort_by_voxel_with`]: same worker-count rule,
/// same per-worker histograms over contiguous *particle index* chunks,
/// same serial `(voxel, worker)` prefix-sum — so the output permutation is
/// exactly the stable serial counting sort, bitwise independent of the
/// worker count and identical to the AoS sort's.
pub fn sort_aosoa_with(
    store: &mut AosoaStore,
    n_voxels: usize,
    scratch: &mut Vec<Block>,
    counts: &mut Vec<u32>,
) {
    let n = store.len;
    let workers = worker_threads().min(n.div_ceil(MIN_SORT_CHUNK)).max(1);
    sort_aosoa_with_workers(store, n_voxels, scratch, counts, workers);
}

/// Worker-count-explicit body of the AoSoA sort (tests drive this to pin
/// the permutation against the AoS reference for any worker count).
pub(crate) fn sort_aosoa_with_workers(
    store: &mut AosoaStore,
    n_voxels: usize,
    scratch: &mut Vec<Block>,
    counts: &mut Vec<u32>,
    workers: usize,
) {
    let n = store.len;
    if n <= 1 {
        return;
    }
    let workers = workers.clamp(1, n);
    let chunk = n.div_ceil(workers);

    // Phase 1: per-worker histograms over index ranges (worker w owns
    // particles [w·chunk, (w+1)·chunk) — the same split par_chunks gives
    // the AoS sort).
    counts.clear();
    counts.resize(workers * n_voxels, 0);
    {
        let blocks = &store.blocks[..];
        counts
            .par_chunks_mut(n_voxels)
            .enumerate()
            .for_each(move |(w, hist)| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                for i in lo..hi {
                    hist[blocks[i / LANES].i[i % LANES] as usize] += 1;
                }
            });
    }

    // Phase 2: exclusive prefix-sum in (voxel, worker) order — identical
    // to the AoS sort, which is what makes the permutations equal.
    let mut running = 0u32;
    for v in 0..n_voxels {
        for w in 0..workers {
            let c = &mut counts[w * n_voxels + v];
            let t = *c;
            *c = running;
            running += t;
        }
    }

    // Phase 3: scatter into scratch blocks. Worker w writes exactly the
    // lanes its prefix-sum slots reserve — together every live lane — and
    // `park_tail` rewrites the tail's padding lanes, so whatever an
    // earlier sort left in `scratch` is overwritten and only grown blocks
    // need initializing.
    scratch.resize(n.div_ceil(LANES), Block::default());
    let out = BlockPtr::new(scratch);
    let starts = if cfg!(debug_assertions) {
        counts.clone()
    } else {
        Vec::new()
    };
    let starts = &starts[..];
    {
        let blocks = &store.blocks[..];
        counts
            .par_chunks_mut(n_voxels)
            .enumerate()
            .for_each(move |(w, offsets)| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                for i in lo..hi {
                    let p = blocks[i / LANES].lane(i % LANES);
                    let v = p.i as usize;
                    let slot = &mut offsets[v];
                    let t = *slot as usize;
                    debug_assert!(
                        t < reserved_end(starts, n_voxels, workers, n, w, v),
                        "worker {w} overran its slots for voxel {v}"
                    );
                    // SAFETY: `t` walks the half-open range reserved for
                    // this (worker, voxel) pair by the exclusive
                    // prefix-sum. Those ranges partition [0, n): worker
                    // `w` advances only its own row of `counts`, once per
                    // particle of its own index range — as often as its
                    // histogram counted — so `t < n`, block `t / LANES`
                    // is in bounds of `scratch`, and no other worker
                    // writes lane `t`. Two workers may write different
                    // lanes of one block at once; `lane_store` projects
                    // through the raw pointer to the one lane and never
                    // forms a reference to the block. `store.blocks` is
                    // only read.
                    unsafe { lane_store(out.at(t / LANES), t % LANES, &p) };
                    *slot += 1;
                }
            });
    }
    std::mem::swap(&mut store.blocks, scratch);
    store.park_tail();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldArray;
    use crate::field_solver::{bcs_of, sync_b, sync_e};
    use crate::push::{advance_p, advance_p_aos, advance_p_serial};
    use crate::rng::Rng;
    use crate::sort::sort_with_workers;

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
        let mut acc_aos = AccumulatorArray::new(&g);
        advance_p_serial(&mut aos, c, &ia, &mut acc_aos, &g);

        let mut store = AosoaStore::from_particles(&parts);
        let mut acc_soa = AccumulatorArray::new(&g);
        advance_p_aosoa(&mut store, c, &ia, &mut acc_soa, &g);
        let soa = store.to_particles();

        assert_eq!(aos.len(), soa.len());
        for (a, b) in aos.iter().zip(soa.iter()) {
            assert_eq!(a, b, "particle state diverged");
        }
        for (x, y) in acc_aos.data.iter().zip(acc_soa.data.iter()) {
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
        let mut acc = AccumulatorArray::new(&g);
        let c = PushCoefficients::new(-1.0, 1.0, &g);
        advance_p_aosoa(&mut store, c, &ia, &mut acc, &g);
        // Only the single real particle's deposit exists.
        let total: f32 = acc.data.iter().flat_map(|a| a.jx.iter()).sum();
        let single: f32 = acc.data[g.voxel(2, 2, 2)].jx.iter().sum();
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
        let mut parts = loaded_plasma(&g, 8 * g.n_live(), 5);
        let (mut scratch, mut counts) = (Vec::new(), Vec::new());
        sort_with_workers(&mut parts, g.n_voxels(), &mut scratch, &mut counts, 1);
        let c = PushCoefficients::new(-1.0, 1.0, &g);
        (g, ia, AosoaStore::from_particles(&parts), c)
    }

    #[test]
    fn lane_compute_and_scatter_halves_make_the_whole_push() {
        // The bench entry points are the production halves: computing
        // every block one or two at a time and scattering the records
        // must land on the bits of the fused single-accumulator advance.
        let (g, ia, store, c) = kernel_workload();
        let mut whole = store.clone();
        let mut acc_whole = AccumulatorArray::new(&g);
        advance_p_aosoa(&mut whole, c, &ia, &mut acc_whole, &g);
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
            for (x, y) in acc_whole.data.iter().zip(acc.data.iter()) {
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
        let (mut scratch, mut counts) = (Vec::new(), Vec::new());
        sort_with_workers(&mut parts, g.n_voxels(), &mut scratch, &mut counts, 1);
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
                acc.touch(v, v);
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
    fn aosoa_sort_matches_aos_permutation_for_any_worker_count() {
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
        let mut want = parts.clone();
        let (mut s1, mut c1) = (Vec::new(), Vec::new());
        sort_with_workers(&mut want, nv, &mut s1, &mut c1, 1);
        // Sort workers (the partition) × real threads (who runs the parts).
        for threads in [1usize, 2, 4] {
            for workers in [1usize, 2, 3, 5, 8] {
                let mut store = AosoaStore::from_particles(&parts);
                let (mut scratch, mut counts) = (Vec::new(), Vec::new());
                crate::threads::with_worker_threads(threads, || {
                    sort_aosoa_with_workers(&mut store, nv, &mut scratch, &mut counts, workers)
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

    #[test]
    fn stale_scratch_never_leaks_into_a_shorter_or_longer_sort() {
        // The scratch keeps the previous sort's blocks; a shrinking and
        // then a growing population must each land on the reference
        // permutation of their own particles, padding lanes parked.
        let mut rng = Rng::seeded(33);
        let nv = 40;
        let (mut scratch, mut counts) = (Vec::new(), Vec::new());
        for (round, n) in [3001usize, 17, 3011].into_iter().enumerate() {
            let parts: Vec<Particle> = (0..n)
                .map(|k| Particle {
                    i: rng.index(nv) as u32,
                    w: (10_000 * round + k) as f32, // unique across rounds
                    ux: 1.0,
                    ..Default::default()
                })
                .collect();
            let mut store = AosoaStore::from_particles(&parts);
            sort_aosoa_with_workers(&mut store, nv, &mut scratch, &mut counts, 3);
            let want = crate::sort::reference_sort(&parts, nv);
            assert_eq!(store.to_particles(), want, "round {round}");
            assert_eq!(store.blocks.len(), n.div_ceil(LANES));
            let tail = store.blocks.last().unwrap();
            for l in n % LANES..LANES {
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
        let (mut scratch, mut counts) = (Vec::new(), Vec::new());
        sort_aosoa_with(&mut store, nv, &mut scratch, &mut counts);
        assert_eq!(store.len(), 11);
        let live = store.len() % LANES;
        let tail = store.blocks.last().unwrap();
        for l in live..LANES {
            assert_eq!(tail.w[l], 0.0, "padding lane {l} has weight");
            assert!((tail.i[l] as usize) < nv, "padding lane {l} off-grid");
        }
    }
}
