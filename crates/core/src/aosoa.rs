//! AoSoA ("array of structures of arrays") particle storage and push —
//! the SIMD blocking VPIC used to feed the Cell SPEs' 4-wide single
//! precision pipelines. Particles are stored in blocks of [`LANES`] with
//! each field contiguous across the block, so the hot loop is straight-line
//! lane arithmetic: one packed instruction per operation in
//! [`crate::lanes`]' intrinsic body.
//!
//! This is a full production backend of
//! [`ParticleStore`](crate::store::ParticleStore): element access, mover
//! emission for rank-boundary exiles, absorption, the blocked counting
//! sort, and Rayon pipeline parallelism — all bit-identical to the AoS
//! path. The inner loop runs lane-wide ([`PushKernel::Lane`], built on
//! [`crate::lanes`]) yet stays bit-identical to the scalar oracle because
//! every lane executes the scalar kernel's exact IEEE expression tree
//! element-wise (no reassociation, no fused multiply-adds) and current is
//! scattered in lane index order; `crates/core/tests/kernel_oracle.rs`
//! pins the contract differentially.

use crate::accumulator::{quadrants_lanes, AccumulatorArray, OpenVoxel};
use crate::cadence::PushTally;
use crate::grid::Grid;
use crate::interpolator::InterpolatorArray;
use crate::lanes::{transpose8_wide, F32x8, Mask8, Wide};
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

/// AoSoA particle store.
#[derive(Clone, Debug, Default)]
pub struct AosoaStore {
    pub blocks: Vec<Block>,
    len: usize,
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
/// 4. **Scatter/spill-out**: the Villasenor–Buneman quadrant currents are
///    precomputed lane-wide ([`quadrants_lanes`]), then scattered **in
///    lane index order**: stay lanes add their quadrant addends; crossers
///    spill out to the scalar [`move_p_local`] mover right there. The
///    spill-out is processed in-order rather than deferred because
///    accumulator adds are order-sensitive f32 sums — lanes sharing a
///    voxel (the common case after sorting) must deposit in the same
///    order the scalar pipeline would.
///
/// Padding lanes are parked on valid voxels so running the vector phases
/// over them is safe; the scatter loop stops at `live`, so they deposit
/// nothing and never spill. Global particle index of lane `l` is
/// `base_idx + l`; absorbed indices and exiles are appended for the
/// caller (identical contract to `push::advance_block`).
#[allow(clippy::too_many_arguments)]
fn advance_full_block(
    b: &mut Block,
    base_idx: u32,
    live: usize,
    c: PushCoefficients,
    interp: &InterpolatorArray,
    acc: &mut AccumulatorArray,
    g: &Grid,
    absorbed: &mut Vec<u32>,
    exiles: &mut Vec<Exile>,
) {
    let mut s = BlockPush::default();
    compute_blocks([&mut *b], c, interp, [&mut s]);
    scatter_block(b, base_idx, live, &s, c.qsp, acc, g, absorbed, exiles);
}

/// Everything [`compute_blocks`] hands to [`scatter_block`] for one
/// block: the stay mask, the half displacements the movers need, and the
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
/// 650-byte records are never copied — and drains them through
/// [`scatter_block`] in block order, which keeps every accumulator
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

    // Phase 4: quadrant currents lane-wide, for the in-order scatter
    // with spill-out. Crosser/padding lanes' addends are computed but
    // never scattered.
    let q = Wide::splat(c.qsp) * field(&b, |b| b.w);
    let v5 = q * hx * hy * hz * third;
    let jx = quadrants_lanes(q * hx, my, mz, v5);
    let jy = quadrants_lanes(q * hy, mz, mx, v5);
    let jz = quadrants_lanes(q * hz, mx, my, v5);
    // Shuffle-transpose quadrant-major → lane-major so each stay lane
    // deposits from two contiguous registers. The transpose only moves
    // bits; the per-entry `+=` and the lane scatter order are unchanged.
    let txy = transpose8_wide([jx[0], jx[1], jx[2], jx[3], jy[0], jy[1], jy[2], jy[3]]);
    let zero = Wide::splat(0.0);
    let tz = transpose8_wide([jz[0], jz[1], jz[2], jz[3], zero, zero, zero, zero]);

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

/// Phase 4 of [`advance_full_block`]: the in-order lane scatter with
/// spill-out, fed by [`compute_blocks`]' precomputed addends.
///
/// Each stay lane is one [`AccumulatorArray::deposit_lane`]: the entry is
/// summed and stored at once, so the accumulator memory is current after
/// every lane and a crosser's mover — which deposits into the same array
/// — can run right where its lane comes up, with nothing to write back
/// first; it only invalidates the register copy of the open voxel. Every
/// accumulator entry receives the same addends in the same lane order as
/// the per-particle form, so the sums are bit-identical to it. The loop
/// has one data-dependent branch, stay or spill, and a block whose lanes
/// all stay (half of them, at a 6 % crosser rate) skips that one too;
/// whether consecutive lanes share a voxel is never branched on.
#[allow(clippy::too_many_arguments)]
#[inline]
fn scatter_block(
    b: &mut Block,
    base_idx: u32,
    live: usize,
    s: &BlockPush,
    qsp: f32,
    acc: &mut AccumulatorArray,
    g: &Grid,
    absorbed: &mut Vec<u32>,
    exiles: &mut Vec<Exile>,
) {
    debug_assert!((1..=LANES).contains(&live));
    // The dirty range, once for the block: every live lane deposits into
    // its voxel first, stay lane or crosser.
    let (lo, hi) = b.i[..live]
        .iter()
        .fold((u32::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    acc.touch(lo as usize, hi as usize);
    let mut open = OpenVoxel::NONE;
    if live == LANES && s.stay == Mask8(0xFF) {
        for l in 0..LANES {
            acc.deposit_lane(b.i[l] as usize, &mut open, s.txy[l], s.tz[l]);
        }
        return;
    }
    for l in 0..live {
        if s.stay.test(l) {
            acc.deposit_lane(b.i[l] as usize, &mut open, s.txy[l], s.tz[l]);
        } else {
            spill_lane(
                b,
                l,
                base_idx,
                (s.hx.0[l], s.hy.0[l], s.hz.0[l]),
                qsp,
                acc,
                g,
                absorbed,
                exiles,
            );
            open = OpenVoxel::NONE;
        }
    }
}

/// The crosser/boundary exit from the lane kernel: run one lane through
/// the scalar `move_p` path. Outlined and marked cold so the ~6% of
/// lanes that leave their voxel don't drag the segment-walk code and its
/// register demand into the hot block loop — inlined, the move_p body
/// roughly doubles the loop and costs hundreds of cycles per crosser in
/// spill traffic and I-cache misses.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn spill_lane(
    b: &mut Block,
    l: usize,
    base_idx: u32,
    disp: (f32, f32, f32),
    qsp: f32,
    acc: &mut AccumulatorArray,
    g: &Grid,
    absorbed: &mut Vec<u32>,
    exiles: &mut Vec<Exile>,
) {
    let idx = base_idx + l as u32;
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
/// load-add-stores and rare, expensive spills; batching it keeps the
/// compute groups back to back — a steady vector stream, the next
/// group's gather loads issuing under the current one's arithmetic — and
/// the scatter loop hot in the branch predictors. (It does not put eight
/// compute chains in flight: the reorder window holds a little over one
/// block's instructions, which is what [`BLOCK_GROUP`] is for.) 8 blocks
/// ≈ 64 particles of queued [`BlockPush`]es (~5 KiB) stay L1-resident —
/// a fixed array on [`advance_range`]'s stack.
pub const SCATTER_BATCH: usize = 8;

// Whole groups tile the queue. A pass takes a group while that many full
// blocks are ahead in the pipeline's range and single blocks from then on
// (the odd block before a boundary, the tail block with padding lanes),
// so a group always finds an even number of slots taken: it never faces
// a single free slot.
const _: () = assert!(SCATTER_BATCH.is_multiple_of(BLOCK_GROUP));

/// One computed-but-not-yet-scattered block in the deferred-scatter queue.
#[derive(Clone, Copy, Default)]
struct QueuedBlock {
    bi: usize,
    base: u32,
    live: usize,
    push: BlockPush,
}

/// Drain the deferred-scatter queue in block order. Deposits and spills
/// happen here, in exactly the order the unbatched kernel would produce
/// them, which is what keeps the batching invisible to the bit-identity
/// contract.
///
/// # Safety
/// Caller must own every queued block exclusively (same contract as
/// [`advance_range`]); no `&mut Block` to any of them may be live.
#[allow(clippy::too_many_arguments)]
unsafe fn drain_batch(
    batch: &[QueuedBlock],
    blocks: BlockPtr,
    qsp: f32,
    acc: &mut AccumulatorArray,
    g: &Grid,
    absorbed: &mut Vec<u32>,
    exiles: &mut Vec<Exile>,
) {
    for e in batch {
        // SAFETY: exclusive ownership per the function contract.
        let b = unsafe { &mut *blocks.at(e.bi) };
        scatter_block(b, e.base, e.live, &e.push, qsp, acc, g, absorbed, exiles);
    }
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
    slots: &mut [QueuedBlock; K],
    tally: &mut PushTally,
) {
    // SAFETY: exclusive ownership of `K` distinct blocks per the
    // function contract.
    let b: [&mut Block; K] = std::array::from_fn(|k| unsafe { &mut *blocks.at(bi + k) });
    for (k, slot) in slots.iter_mut().enumerate() {
        let base = (bi + k) * LANES;
        let live = (n_total - base).min(LANES);
        tally.pushed += live as u64;
        tally.lane_blocks += 1;
        let v0 = b[k].i[0];
        if b[k].i[1..live].iter().any(|&v| v != v0) {
            tally.mixed_blocks += 1;
        }
        slot.bi = bi + k;
        slot.base = base as u32;
        slot.live = live;
    }
    compute_blocks(b, c, interp, slots.each_mut().map(|slot| &mut slot.push));
    for slot in slots.iter() {
        // Live lanes whose stay bit is clear.
        let spills = (!slot.push.stay.0 & (0xFF >> (LANES - slot.live))).count_ones() as u64;
        tally.lane_spills += spills;
        tally.crossers += spills;
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
    let mut batch = [QueuedBlock::default(); SCATTER_BATCH];
    let mut queued = 0;
    let mut idx = start;
    while idx < end {
        let bi = idx / LANES;
        let lane0 = idx - bi * LANES;
        let block_start = bi * LANES;
        let block_live_end = (block_start + LANES).min(n_total);
        if kernel == PushKernel::Lane && lane0 == 0 && end >= block_live_end {
            // Every live lane of this block belongs to this pipeline:
            // safe to take the whole block mutably and run lane-parallel
            // — and so it is for each full block between here and `end`.
            let full_ahead = (end - block_start) / LANES;
            let width = if full_ahead >= BLOCK_GROUP {
                BLOCK_GROUP
            } else {
                1
            };
            let slots = &mut batch[queued..];
            // SAFETY: exclusive ownership per the function contract; no
            // block reference is live.
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
            if queued == SCATTER_BATCH {
                // SAFETY: no block reference is live; ownership as above.
                unsafe {
                    drain_batch(
                        &batch[..queued],
                        blocks,
                        c.qsp,
                        acc,
                        g,
                        &mut absorbed,
                        &mut exiles,
                    )
                };
                queued = 0;
            }
            idx = (block_start + width * LANES).min(n_total);
        } else {
            // Straddling block (or scalar-kernel run): touch only our
            // lanes, via raw pointer. Deposits must stay in particle-index
            // order, so queued lane blocks scatter first.
            // SAFETY: as above.
            unsafe {
                drain_batch(
                    &batch[..queued],
                    blocks,
                    c.qsp,
                    acc,
                    g,
                    &mut absorbed,
                    &mut exiles,
                )
            };
            queued = 0;
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
    unsafe {
        drain_batch(
            &batch[..queued],
            blocks,
            c.qsp,
            acc,
            g,
            &mut absorbed,
            &mut exiles,
        )
    };
    (absorbed, exiles, tally)
}

/// Production AoSoA particle advance: the exact pipeline contract of
/// [`crate::push::advance_p`] — same index partition (`block =
/// n.div_ceil(n_pipes).max(1)` over *particle* indices, not blocks), same
/// per-pipeline deposit order, same absorbed/exile bookkeeping — so AoS
/// and AoSoA runs are bit-identical for any fixed pipeline count.
pub fn advance_p_aosoa_pipelined(
    store: &mut AosoaStore,
    coeffs: PushCoefficients,
    interp: &InterpolatorArray,
    accumulators: &mut [AccumulatorArray],
    g: &Grid,
) -> Vec<Exile> {
    advance_p_aosoa_pipelined_with(
        store,
        coeffs,
        interp,
        accumulators,
        g,
        PushKernel::default(),
    )
    .0
}

/// [`advance_p_aosoa_pipelined`] with an explicit kernel choice (the
/// differential-oracle harness pins `Lane` against `Scalar` through this
/// entry point) that also returns the range tallies summed in pipeline
/// order — integer adds, so the totals are worker-count-independent.
pub fn advance_p_aosoa_pipelined_with(
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
/// — the E8 layout-ablation kernel. Absorbed or exiting particles are
/// parked in place with zero weight instead of being removed/migrated;
/// use [`advance_p_aosoa_pipelined`] for the production contract.
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
    for (bi, b) in store.blocks.iter_mut().enumerate() {
        let base = bi * LANES;
        let live = (real - base).min(LANES);
        advance_full_block(
            b,
            base as u32,
            live,
            c,
            interp,
            acc,
            g,
            &mut absorbed,
            &mut exiles,
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

/// The scatter half of the lane kernel on its own: [`scatter_block`] of
/// every block's record from [`lane_compute`], in block order. Closed
/// domains only, like [`advance_p_aosoa`] — leavers are dropped.
pub fn lane_scatter(
    store: &mut AosoaStore,
    pushes: &[BlockPush],
    qsp: f32,
    acc: &mut AccumulatorArray,
    g: &Grid,
) {
    assert_eq!(pushes.len(), store.blocks.len());
    let real = store.len;
    let (mut absorbed, mut exiles) = (Vec::new(), Vec::new());
    for (bi, (b, push)) in store.blocks.iter_mut().zip(pushes).enumerate() {
        let base = bi * LANES;
        let live = (real - base).min(LANES);
        scatter_block(
            b,
            base as u32,
            live,
            push,
            qsp,
            acc,
            g,
            &mut absorbed,
            &mut exiles,
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
    use crate::push::{advance_p, advance_p_serial};
    use crate::rng::Rng;
    use crate::sort::sort_with_workers;
    use crate::store::ParticleStore;

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

            let mut aos = ParticleStore::Aos(parts.clone());
            let mut acc_a: Vec<AccumulatorArray> =
                (0..n_pipes).map(|_| AccumulatorArray::new(&g)).collect();
            let ex_a = advance_p(&mut aos, c, &ia, &mut acc_a, &g);

            let mut soa = ParticleStore::Aosoa(AosoaStore::from_particles(&parts));
            let mut acc_s: Vec<AccumulatorArray> =
                (0..n_pipes).map(|_| AccumulatorArray::new(&g)).collect();
            let ex_s = advance_p(&mut soa, c, &ia, &mut acc_s, &g);

            assert_eq!(
                aos.to_particles(),
                soa.to_particles(),
                "n={n} pipes={n_pipes}"
            );
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
