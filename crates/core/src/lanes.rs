//! Vendored lane-math: the eight-lane `f32` vector ([`F32x8`]), the lane
//! mask a compare produces ([`Mask8`]), the 8×8 transpose, and the
//! `K`-block groups of each ([`Wide`], [`WideMask`]) the AoSoA push
//! (`aosoa::compute_blocks`) is written in.
//!
//! Every operation has exactly two bodies, chosen by `cfg` at compile
//! time and reported by [`BACKEND`]:
//!
//! * `avx2` — `core::arch::x86_64` intrinsics, one packed instruction per
//!   operation, compiled whenever the target has AVX2 (the repo's
//!   `.cargo/config.toml` builds with `target-cpu=native`). The paper's
//!   inner loop was hand-written SPE SIMD for the same reason this one is:
//!   LLVM does not reliably turn `[f32; 8]` loops into packed code once
//!   they are inlined into a kernel the size of the push (it rebuilt
//!   vectors a scalar at a time and ran the transposes on half-width
//!   registers).
//! * `portable` — element-wise loops over the `[f32; 8]` storage, for
//!   every other target, and the oracle the intrinsic body is proptested
//!   against (it stays compiled under `cfg(test)`).
//!
//! The two cannot differ in a bit, which is what keeps the
//! bitwise-determinism contract with the scalar oracle (`push::push_one`):
//!
//! * every operator is element-wise — lane `l` of the result depends only
//!   on lane `l` of the operands, with the exact IEEE-754 operation the
//!   scalar code performs (no reassociation, no horizontal ops);
//! * there is no fused multiply-add in either body. The scalar oracle
//!   never emits one — rustc does not contract float expressions — so a
//!   fused product would change bits;
//! * add/sub/mul/div/sqrt are correctly rounded per IEEE-754 at every
//!   vector width (`vsqrtps`/`vdivps` included), so a packed instruction
//!   returns the bits of its scalar form lane by lane;
//! * `abs`, `select`, [`F32x8::load`] and [`transpose8`] only move bits;
//! * `le`, `lt` and `gt` are ordered compares (`_CMP_{LE,LT,GT}_OQ`):
//!   false on NaN, exactly like the scalar `<=`, `<` and `>`, so NaN
//!   lanes fall off the branchless common path into the scalar spill-out
//!   just as the scalar kernel's `if` would, and the batched crosser
//!   mover picks the face the scalar mover's `<` picks.
//!
//! (One freedom IEEE leaves open: an operation on *two* NaNs returns one
//! of the two payloads, and which one is the compiler's operand order.
//! Both bodies return a NaN there; no kernel result depends on which.)

/// Lanes per AoSoA block (the Cell SPE was 4-wide; 8 suits AVX hosts).
pub const LANES: usize = 8;

/// Which body of the lane operations this build compiled: `"avx2"`
/// (intrinsics) or `"portable"` (element-wise loops). An externally
/// exported `RUSTFLAGS` replaces `.cargo/config.toml`'s `target-cpu=native`
/// and would drop the fast body silently; the benches print this.
pub const BACKEND: &str = body::NAME;

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
use avx2 as body;
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
use portable as body;

/// Eight-lane boolean mask: bit `l` is lane `l` — the byte `vmovmskps`
/// produces from a lane compare.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct Mask8(pub u8);

impl Mask8 {
    /// Value of lane `l`.
    #[inline(always)]
    pub fn test(self, l: usize) -> bool {
        debug_assert!(l < LANES);
        self.0 >> l & 1 != 0
    }
}

impl std::ops::BitAnd for Mask8 {
    type Output = Mask8;
    #[inline(always)]
    fn bitand(self, rhs: Mask8) -> Mask8 {
        Mask8(self.0 & rhs.0)
    }
}

impl std::ops::BitOr for Mask8 {
    type Output = Mask8;
    #[inline(always)]
    fn bitor(self, rhs: Mask8) -> Mask8 {
        Mask8(self.0 | rhs.0)
    }
}

impl std::ops::Not for Mask8 {
    type Output = Mask8;
    #[inline(always)]
    fn not(self) -> Mask8 {
        Mask8(!self.0)
    }
}

/// Eight lanes of `f32`; element-wise ops, no fusion.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(transparent)]
pub struct F32x8(pub [f32; LANES]);

impl F32x8 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        F32x8([v; LANES])
    }

    /// Eight consecutive floats as one vector (bits pass through): one
    /// unaligned 32-byte load in the intrinsic body.
    #[inline(always)]
    pub fn load(row: &[f32; LANES]) -> Self {
        F32x8(body::load(row))
    }

    /// Lane-wise IEEE square root (correctly rounded, so identical bits
    /// to the scalar `sqrt` of each lane).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        F32x8(body::sqrt(self.0))
    }

    /// Lane-wise absolute value (sign-bit clear; NaN payload kept).
    #[inline(always)]
    pub fn abs(self) -> Self {
        F32x8(body::abs(self.0))
    }

    /// Lane-wise `self <= rhs` (false on NaN, like scalar `<=`).
    #[inline(always)]
    pub fn le(self, rhs: Self) -> Mask8 {
        Mask8(body::le(self.0, rhs.0))
    }

    /// Lane-wise `self < rhs` (false on NaN, like scalar `<`).
    #[inline(always)]
    pub fn lt(self, rhs: Self) -> Mask8 {
        Mask8(body::lt(self.0, rhs.0))
    }

    /// Lane-wise `self > rhs` (false on NaN, like scalar `>`).
    #[inline(always)]
    pub fn gt(self, rhs: Self) -> Mask8 {
        Mask8(body::gt(self.0, rhs.0))
    }

    /// Per-lane blend: lane `l` of the result is `t` where the mask is
    /// set, else `f`. Bits pass through untouched (NaNs and signed zeros
    /// survive), so select-based write-back is exact.
    #[inline(always)]
    pub fn select(m: Mask8, t: Self, f: Self) -> Self {
        F32x8(body::select(m.0, t.0, f.0))
    }
}

macro_rules! lane_operator {
    ($trait:ident, $method:ident) => {
        impl std::ops::$trait for F32x8 {
            type Output = F32x8;
            #[inline(always)]
            fn $method(self, rhs: F32x8) -> F32x8 {
                F32x8(body::$method(self.0, rhs.0))
            }
        }
    };
}

lane_operator!(Add, add);
lane_operator!(Sub, sub);
lane_operator!(Mul, mul);
lane_operator!(Div, div);

/// What a row kernel (`field_solver::advance_b`/`advance_e`,
/// `InterpolatorArray::load`) is written over once: eight neighbouring
/// voxels of a row as one [`F32x8`], or one voxel as an `f32` for the
/// row's `nx % 8` tail. Either way each voxel gets the same expression
/// tree with the same IEEE operations, so a row's bits do not depend on
/// where its chunks end.
pub(crate) trait Row:
    Copy + std::ops::Add<Output = Self> + std::ops::Sub<Output = Self> + std::ops::Mul<Output = Self>
{
    /// `v` in every lane.
    fn splat(v: f32) -> Self;
    /// The voxel(s) from `a[at]` (panics past the end of `a`).
    fn load_at(a: &[f32], at: usize) -> Self;
    /// Write the voxel(s) to `a[at..]` (bits pass through).
    fn store_at(self, a: &mut [f32], at: usize);
}

impl Row for F32x8 {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        F32x8::splat(v)
    }

    #[inline(always)]
    fn load_at(a: &[f32], at: usize) -> Self {
        F32x8::load(a[at..at + LANES].try_into().expect("a slice of eight"))
    }

    #[inline(always)]
    fn store_at(self, a: &mut [f32], at: usize) {
        a[at..at + LANES].copy_from_slice(&self.0);
    }
}

impl Row for f32 {
    #[inline(always)]
    fn splat(v: f32) -> Self {
        v
    }

    #[inline(always)]
    fn load_at(a: &[f32], at: usize) -> Self {
        a[at]
    }

    #[inline(always)]
    fn store_at(self, a: &mut [f32], at: usize) {
        a[at] = self;
    }
}

/// 8×8 transpose: lane `l` of output row `r` is lane `r` of input row
/// `l`. Pure data movement — no arithmetic, every bit passes through — so
/// gather/scatter paths built on it cannot perturb the kernel's
/// bitwise-determinism contract. It replaces the 64-element scalar
/// transpose the structure-of-lanes conversion would otherwise need.
#[inline(always)]
pub fn transpose8(m: [F32x8; LANES]) -> [F32x8; LANES] {
    body::transpose8(m.map(|r| r.0)).map(F32x8)
}

/// One lane vector for each of `K` blocks, operated on block by block:
/// every operation is the [`F32x8`] one applied to block 0, then block 1,
/// … — so a kernel written once in `Wide<K>` advances `K` independent
/// blocks statement by statement, and block `k` of any result has exactly
/// the bits the single-block kernel would compute for it.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct Wide<const K: usize>(pub [F32x8; K]);

/// The compare result of a [`Wide`]: one [`Mask8`] per block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(transparent)]
pub struct WideMask<const K: usize>(pub [Mask8; K]);

impl<const K: usize> Wide<K> {
    /// All lanes of all blocks set to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        Wide([F32x8::splat(v); K])
    }

    /// `f` of each block, in block order. (A counted loop rather than
    /// `array::from_fn`/`map`: those route the closure through library
    /// adaptors that LLVM stops inlining once the closure is the size of
    /// a transpose, and a call in the middle of the kernel spills every
    /// live vector.)
    #[inline(always)]
    fn per_block(mut f: impl FnMut(usize) -> F32x8) -> Self {
        let mut out = [F32x8::splat(0.0); K];
        for (k, block) in out.iter_mut().enumerate() {
            *block = f(k);
        }
        Wide(out)
    }

    /// [`F32x8::sqrt`] per block.
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        Self::per_block(|k| self.0[k].sqrt())
    }

    /// [`F32x8::abs`] per block.
    #[inline(always)]
    pub fn abs(self) -> Self {
        Self::per_block(|k| self.0[k].abs())
    }

    /// [`F32x8::le`] per block.
    #[inline(always)]
    pub fn le(self, rhs: Self) -> WideMask<K> {
        let mut out = [Mask8(0); K];
        for (k, block) in out.iter_mut().enumerate() {
            *block = self.0[k].le(rhs.0[k]);
        }
        WideMask(out)
    }

    /// [`F32x8::select`] per block.
    #[inline(always)]
    pub fn select(m: WideMask<K>, t: Self, f: Self) -> Self {
        Self::per_block(|k| F32x8::select(m.0[k], t.0[k], f.0[k]))
    }
}

impl<const K: usize> std::ops::BitAnd for WideMask<K> {
    type Output = WideMask<K>;
    #[inline(always)]
    fn bitand(mut self, rhs: WideMask<K>) -> WideMask<K> {
        for (block, r) in self.0.iter_mut().zip(&rhs.0) {
            *block = *block & *r;
        }
        self
    }
}

macro_rules! wide_operator {
    ($trait:ident, $method:ident) => {
        impl<const K: usize> std::ops::$trait for Wide<K> {
            type Output = Wide<K>;
            #[inline(always)]
            fn $method(self, rhs: Wide<K>) -> Wide<K> {
                Wide::per_block(|k| std::ops::$trait::$method(self.0[k], rhs.0[k]))
            }
        }
    };
}

wide_operator!(Add, add);
wide_operator!(Sub, sub);
wide_operator!(Mul, mul);
wide_operator!(Div, div);

/// [`transpose8`] block by block: block `k` of output row `r` is row `r`
/// of the transpose of the rows' blocks `k`.
#[inline(always)]
pub fn transpose8_wide<const K: usize>(m: [Wide<K>; LANES]) -> [Wide<K>; LANES] {
    let mut out = [Wide::splat(0.0); LANES];
    for k in 0..K {
        let mut rows = [F32x8::splat(0.0); LANES];
        for (row, wide) in rows.iter_mut().zip(&m) {
            *row = wide.0[k];
        }
        let t = transpose8(rows);
        for (wide, row) in out.iter_mut().zip(&t) {
            wide.0[k] = *row;
        }
    }
    out
}

/// The intrinsic body: each operation is one packed AVX instruction on
/// the `[f32; 8]` storage reinterpreted as a `__m256` (a same-size
/// transmute, SROA'd into a register once inlined).
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod avx2 {
    use super::LANES;
    use core::arch::x86_64::*;

    pub const NAME: &str = "avx2";

    type V = [f32; LANES];

    // SAFETY (every intrinsic call of this module): the module is compiled
    // only under `cfg(target_feature = "avx2")`, i.e. when the whole
    // program is built for CPUs that have AVX and AVX2, so the
    // instructions behind these intrinsics exist wherever the binary may
    // run. All but `load` work on register values only.

    #[inline(always)]
    fn ld(a: V) -> __m256 {
        // SAFETY: `[f32; 8]` and `__m256` are both 32 bytes of plain
        // floats in lane order; every bit pattern is valid in either.
        unsafe { core::mem::transmute::<V, __m256>(a) }
    }

    #[inline(always)]
    fn st(v: __m256) -> V {
        // SAFETY: as in `ld`.
        unsafe { core::mem::transmute::<__m256, V>(v) }
    }

    #[inline(always)]
    pub fn load(row: &V) -> V {
        // SAFETY: see the module note; `row` is 32 readable bytes and the
        // unaligned load needs no alignment.
        st(unsafe { _mm256_loadu_ps(row.as_ptr()) })
    }

    macro_rules! binary {
        ($name:ident, $intrinsic:ident) => {
            #[inline(always)]
            pub fn $name(a: V, b: V) -> V {
                // SAFETY: see the module note.
                st(unsafe { $intrinsic(ld(a), ld(b)) })
            }
        };
    }

    binary!(add, _mm256_add_ps);
    binary!(sub, _mm256_sub_ps);
    binary!(mul, _mm256_mul_ps);
    binary!(div, _mm256_div_ps);

    #[inline(always)]
    pub fn sqrt(a: V) -> V {
        // SAFETY: see the module note.
        st(unsafe { _mm256_sqrt_ps(ld(a)) })
    }

    #[inline(always)]
    pub fn abs(a: V) -> V {
        // SAFETY: see the module note.
        st(unsafe { _mm256_andnot_ps(_mm256_set1_ps(-0.0), ld(a)) })
    }

    macro_rules! compare {
        ($name:ident, $predicate:ident) => {
            #[inline(always)]
            pub fn $name(a: V, b: V) -> u8 {
                // SAFETY: see the module note.
                unsafe { _mm256_movemask_ps(_mm256_cmp_ps::<$predicate>(ld(a), ld(b))) as u8 }
            }
        };
    }

    compare!(le, _CMP_LE_OQ);
    compare!(lt, _CMP_LT_OQ);
    compare!(gt, _CMP_GT_OQ);

    #[inline(always)]
    pub fn select(m: u8, t: V, f: V) -> V {
        // SAFETY: see the module note.
        st(unsafe {
            // Bit `l` of the mask byte → all 32 bits of lane `l`.
            let bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
            let set = _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(m as i32), bit), bit);
            _mm256_blendv_ps(ld(f), ld(t), _mm256_castsi256_ps(set))
        })
    }

    /// The 24-shuffle network: `unpacklo/hi` interleaves row pairs inside
    /// each 128-bit half, `shuffle_ps 0x44/0xEE` gathers four rows' worth
    /// of one column pair, `permute2f128 0x20/0x31` joins the halves.
    #[inline(always)]
    pub fn transpose8(m: [V; LANES]) -> [V; LANES] {
        let r = m.map(ld);
        // SAFETY: see the module note.
        let out = unsafe {
            let t0 = _mm256_unpacklo_ps(r[0], r[1]);
            let t1 = _mm256_unpackhi_ps(r[0], r[1]);
            let t2 = _mm256_unpacklo_ps(r[2], r[3]);
            let t3 = _mm256_unpackhi_ps(r[2], r[3]);
            let t4 = _mm256_unpacklo_ps(r[4], r[5]);
            let t5 = _mm256_unpackhi_ps(r[4], r[5]);
            let t6 = _mm256_unpacklo_ps(r[6], r[7]);
            let t7 = _mm256_unpackhi_ps(r[6], r[7]);
            let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            [
                _mm256_permute2f128_ps::<0x20>(u0, u4),
                _mm256_permute2f128_ps::<0x20>(u1, u5),
                _mm256_permute2f128_ps::<0x20>(u2, u6),
                _mm256_permute2f128_ps::<0x20>(u3, u7),
                _mm256_permute2f128_ps::<0x31>(u0, u4),
                _mm256_permute2f128_ps::<0x31>(u1, u5),
                _mm256_permute2f128_ps::<0x31>(u2, u6),
                _mm256_permute2f128_ps::<0x31>(u3, u7),
            ]
        };
        out.map(st)
    }
}

/// The portable body: element-wise loops, the only body on targets
/// without AVX2 and the oracle the intrinsic body is tested against.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
mod portable {
    use super::LANES;

    #[cfg_attr(all(target_arch = "x86_64", target_feature = "avx2"), allow(dead_code))]
    pub const NAME: &str = "portable";

    type V = [f32; LANES];

    #[inline(always)]
    pub fn load(row: &V) -> V {
        *row
    }

    macro_rules! binary {
        ($name:ident, $op:tt) => {
            #[inline(always)]
            pub fn $name(a: V, b: V) -> V {
                let mut out = [0.0; LANES];
                for l in 0..LANES {
                    out[l] = a[l] $op b[l];
                }
                out
            }
        };
    }

    binary!(add, +);
    binary!(sub, -);
    binary!(mul, *);
    binary!(div, /);

    #[inline(always)]
    pub fn sqrt(a: V) -> V {
        a.map(f32::sqrt)
    }

    #[inline(always)]
    pub fn abs(a: V) -> V {
        a.map(f32::abs)
    }

    macro_rules! compare {
        ($name:ident, $op:tt) => {
            #[inline(always)]
            pub fn $name(a: V, b: V) -> u8 {
                let mut m = 0;
                for l in 0..LANES {
                    m |= ((a[l] $op b[l]) as u8) << l;
                }
                m
            }
        };
    }

    compare!(le, <=);
    compare!(lt, <);
    compare!(gt, >);

    #[inline(always)]
    pub fn select(m: u8, t: V, f: V) -> V {
        std::array::from_fn(|l| if m >> l & 1 != 0 { t[l] } else { f[l] })
    }

    /// `[a0 b0 a1 b1 a2 b2 a3 b3]`.
    #[inline(always)]
    fn zip_lo(a: V, b: V) -> V {
        [a[0], b[0], a[1], b[1], a[2], b[2], a[3], b[3]]
    }

    /// `[a4 b4 a5 b5 a6 b6 a7 b7]`.
    #[inline(always)]
    fn zip_hi(a: V, b: V) -> V {
        [a[4], b[4], a[5], b[5], a[6], b[6], a[7], b[7]]
    }

    /// Three rounds of the perfect shuffle: `s[2i] = zip_lo(r[i], r[i+4])`,
    /// `s[2i+1] = zip_hi(r[i], r[i+4])`. One round maps flat element
    /// `p = 8·row + lane` to `2p mod 63`, a left-rotate of the 6-bit
    /// index; three rotates swap the row/lane bit triples, which is
    /// exactly the transpose.
    #[inline(always)]
    pub fn transpose8(m: [V; LANES]) -> [V; LANES] {
        let mut t = m;
        for _ in 0..3 {
            t = [
                zip_lo(t[0], t[4]),
                zip_hi(t[0], t[4]),
                zip_lo(t[1], t[5]),
                zip_hi(t[1], t[5]),
                zip_lo(t[2], t[6]),
                zip_hi(t[2], t[6]),
                zip_lo(t[3], t[7]),
                zip_hi(t[3], t[7]),
            ];
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> F32x8 {
        F32x8([-3.5, -1.0, -0.0, 0.0, 0.25, 1.0, 2.5, 8.0])
    }

    #[test]
    fn backend_is_avx2_whenever_the_target_has_it() {
        let want = if cfg!(all(target_arch = "x86_64", target_feature = "avx2")) {
            "avx2"
        } else {
            "portable"
        };
        assert_eq!(BACKEND, want);
    }

    #[test]
    fn operators_match_scalar_bitwise() {
        let a = ramp();
        let b = F32x8([1.5, -2.0, 4.0, -0.5, 3.0, 7.0, -1.25, 0.125]);
        let sum = a + b;
        let dif = a - b;
        let prd = a * b;
        let quo = a / b;
        for l in 0..LANES {
            assert_eq!(sum.0[l].to_bits(), (a.0[l] + b.0[l]).to_bits());
            assert_eq!(dif.0[l].to_bits(), (a.0[l] - b.0[l]).to_bits());
            assert_eq!(prd.0[l].to_bits(), (a.0[l] * b.0[l]).to_bits());
            assert_eq!(quo.0[l].to_bits(), (a.0[l] / b.0[l]).to_bits());
        }
    }

    #[test]
    fn transpose8_moves_every_bit_in_place() {
        // Distinct bit patterns in every slot, including a NaN payload, a
        // signed zero and a denormal — the transpose must move bits, not
        // values.
        let mut m = [F32x8::splat(0.0); LANES];
        for (r, row) in m.iter_mut().enumerate() {
            for l in 0..LANES {
                row.0[l] = f32::from_bits(0x7f80_0001 + (r * LANES + l) as u32);
            }
        }
        m[0].0[0] = f32::from_bits(0x8000_0000); // -0.0
        m[3].0[5] = f32::from_bits(0x0000_0001); // denormal
        m[7].0[2] = f32::from_bits(0x7fc0_dead); // NaN payload
        let t = transpose8(m);
        for (r, row) in m.iter().enumerate() {
            for (l, col) in t.iter().enumerate() {
                assert_eq!(col.0[r].to_bits(), row.0[l].to_bits());
            }
        }
    }

    #[test]
    fn wide_operations_are_the_single_block_ones_block_by_block() {
        let a = Wide([ramp(), F32x8([9.0, -8.0, 7.5, -6.25, 0.5, 0.0, -0.0, 3.0])]);
        let b = Wide([
            F32x8::splat(2.0),
            F32x8([1.5, -2.0, 4.0, -0.5, 3.0, 7.0, -1.25, 0.125]),
        ]);
        let one = Wide::<2>::splat(1.0);
        let m = a.abs().le(one) & b.le(a);
        let rows: [Wide<2>; LANES] = std::array::from_fn(|r| if r % 2 == 0 { a } else { b });
        let t = transpose8_wide(rows);
        for k in 0..2 {
            let (x, y) = (a.0[k], b.0[k]);
            assert_eq!((a + b).0[k], x + y);
            assert_eq!((a - b).0[k], x - y);
            assert_eq!((a * b).0[k], x * y);
            assert_eq!((a / b).0[k], x / y);
            assert_eq!(a.abs().sqrt().0[k], x.abs().sqrt());
            assert_eq!(m.0[k], x.abs().le(F32x8::splat(1.0)) & y.le(x));
            assert_eq!(Wide::select(m, a, b).0[k], F32x8::select(m.0[k], x, y));
            assert_eq!(t.map(|row| row.0[k]), transpose8(rows.map(|row| row.0[k])));
        }
    }

    #[test]
    fn multiply_then_add_is_unfused() {
        // Operands where fused and unfused results differ: with an FMA,
        // a*b + c keeps the full product 1 - 2^-46 before the add;
        // unfused, a*b rounds to 1.0f32 and the sum is exactly 0.
        let a = F32x8::splat(1.0 + f32::EPSILON);
        let b = F32x8::splat(1.0 - f32::EPSILON);
        let c = F32x8::splat(-1.0);
        let unfused = (1.0f32 + f32::EPSILON) * (1.0 - f32::EPSILON) - 1.0;
        let fused = (1.0f32 + f32::EPSILON).mul_add(1.0 - f32::EPSILON, -1.0);
        assert_ne!(
            unfused.to_bits(),
            fused.to_bits(),
            "test operands fail to distinguish fused from unfused"
        );
        let got = a * b + c;
        for l in 0..LANES {
            assert_eq!(got.0[l].to_bits(), unfused.to_bits());
        }
    }

    #[test]
    fn sqrt_abs_match_scalar_bitwise() {
        let a = F32x8([0.0, 1.0, 2.0, 0.5, 1e-38, 3.4e38, 9.0, 0.1]);
        let s = a.sqrt();
        for l in 0..LANES {
            assert_eq!(s.0[l].to_bits(), a.0[l].sqrt().to_bits());
        }
        let n = ramp().abs();
        for l in 0..LANES {
            assert_eq!(n.0[l].to_bits(), ramp().0[l].abs().to_bits());
        }
    }

    #[test]
    fn nan_compares_false_and_select_passes_bits() {
        let nan = F32x8::splat(f32::NAN);
        let one = F32x8::splat(1.0);
        assert_eq!(nan.abs().le(one), Mask8(0), "NaN must fail <=");
        assert_eq!(one.le(nan), Mask8(0), "NaN must fail <=");
        assert_eq!(one.le(one), Mask8(0xFF));
        for (a, b) in [(nan, one), (one, nan), (nan, nan)] {
            assert_eq!(a.lt(b), Mask8(0), "NaN must fail <");
            assert_eq!(a.gt(b), Mask8(0), "NaN must fail >");
        }
        assert_eq!((one.lt(one), one.gt(one)), (Mask8(0), Mask8(0)));
        // Strict, signed-zero-blind, lane by lane like the scalar forms.
        let r = ramp();
        let zero = F32x8::splat(0.0);
        for l in 0..LANES {
            assert_eq!(r.lt(zero).test(l), r.0[l] < 0.0, "lane {l}");
            assert_eq!(r.gt(zero).test(l), r.0[l] > 0.0, "lane {l}");
        }
        assert_eq!(!Mask8(0b1100_1010), Mask8(0b0011_0101));
        assert_eq!(Mask8(0b1100_1010) | Mask8(0b1010_0110), Mask8(0b1110_1110));
        let m = Mask8(0b0101_0101);
        let picked = F32x8::select(m, nan, one);
        for l in 0..LANES {
            assert_eq!(m.test(l), l % 2 == 0);
            if m.test(l) {
                assert_eq!(picked.0[l].to_bits(), f32::NAN.to_bits());
            } else {
                assert_eq!(picked.0[l].to_bits(), 1.0f32.to_bits());
            }
        }
        // Signed zero survives a blend.
        let z = F32x8::select(m, F32x8::splat(-0.0), F32x8::splat(0.0));
        for l in 0..LANES {
            assert_eq!(
                z.0[l].to_bits(),
                if m.test(l) { (-0.0f32).to_bits() } else { 0 }
            );
        }
        assert_eq!(Mask8(0b1100_1010) & Mask8(0b1010_0110), Mask8(0b1000_0010));
    }
}

/// The two bodies, operation by operation, on raw bit patterns.
#[cfg(all(test, target_arch = "x86_64", target_feature = "avx2"))]
mod differential {
    use super::{avx2, portable, LANES};
    use proptest::prelude::*;

    /// The patterns where a vector unit could plausibly disagree with the
    /// scalar one: NaN payloads (quiet, signalling, negative), ±0, the
    /// extreme denormals, ±inf, ±`f32::MAX`, values around 1.
    const EDGES: [u32; 16] = [
        0x0000_0000,
        0x8000_0000,
        0x0000_0001,
        0x807f_ffff,
        0x0080_0000,
        0x7f80_0000,
        0xff80_0000,
        0x7f7f_ffff,
        0xff7f_ffff,
        0x7fc0_0000,
        0x7fc0_dead,
        0xffc0_beef,
        0x7f80_0001,
        0x3f80_0000,
        0xbf80_0001,
        0x3f7f_ffff,
    ];

    /// Eight lanes of bit patterns, each an edge case or uniformly random.
    fn lanes() -> impl Strategy<Value = [f32; LANES]> {
        prop::collection::vec((0u32..3, 0usize..EDGES.len(), 0u32..=u32::MAX), LANES).prop_map(
            |picks| {
                std::array::from_fn(|l| {
                    let (kind, edge, raw) = picks[l];
                    f32::from_bits(if kind == 0 { EDGES[edge] } else { raw })
                })
            },
        )
    }

    fn bits(v: [f32; LANES]) -> [u32; LANES] {
        v.map(f32::to_bits)
    }

    /// Bit equality — except on a lane whose operands are both NaN, where
    /// IEEE lets either payload through and the compiler's operand order
    /// picks: there both bodies must return a NaN.
    fn same(
        got: [f32; LANES],
        want: [f32; LANES],
        a: [f32; LANES],
        b: [f32; LANES],
    ) -> Result<(), String> {
        for l in 0..LANES {
            let both_nan = a[l].is_nan() && b[l].is_nan();
            let ok = got[l].to_bits() == want[l].to_bits()
                || (both_nan && got[l].is_nan() && want[l].is_nan());
            if !ok {
                return Err(format!(
                    "lane {l}: {:#010x} op {:#010x} = avx2 {:#010x}, portable {:#010x}",
                    a[l].to_bits(),
                    b[l].to_bits(),
                    got[l].to_bits(),
                    want[l].to_bits()
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn arithmetic_is_bit_identical(a in lanes(), b in lanes()) {
            for (name, got, want) in [
                ("add", avx2::add(a, b), portable::add(a, b)),
                ("sub", avx2::sub(a, b), portable::sub(a, b)),
                ("mul", avx2::mul(a, b), portable::mul(a, b)),
                ("div", avx2::div(a, b), portable::div(a, b)),
            ] {
                if let Err(msg) = same(got, want, a, b) {
                    prop_assert!(false, "{}: {}", name, msg);
                }
            }
            prop_assert_eq!(bits(avx2::sqrt(a)), bits(portable::sqrt(a)));
            prop_assert_eq!(bits(avx2::abs(a)), bits(portable::abs(a)));
            prop_assert_eq!(bits(avx2::load(&a)), bits(portable::load(&a)));
        }

        #[test]
        fn compare_and_select_are_bit_identical(a in lanes(), b in lanes(), m in 0u32..256) {
            prop_assert_eq!(avx2::le(a, b), portable::le(a, b));
            prop_assert_eq!(avx2::lt(a, b), portable::lt(a, b));
            prop_assert_eq!(avx2::gt(a, b), portable::gt(a, b));
            let m = m as u8;
            prop_assert_eq!(bits(avx2::select(m, a, b)), bits(portable::select(m, a, b)));
        }

        #[test]
        fn transpose_is_bit_identical(rows in prop::collection::vec(lanes(), LANES)) {
            let m: [[f32; LANES]; LANES] = std::array::from_fn(|r| rows[r]);
            prop_assert_eq!(avx2::transpose8(m).map(bits), portable::transpose8(m).map(bits));
        }
    }
}
