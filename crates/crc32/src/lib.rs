//! IEEE CRC-32 — the reflected polynomial `0xEDB8_8320` of zip, gzip and
//! Ethernet — for every checksum the workspace writes: socket frames
//! (`nanompi::wire::crc32`), checkpoint sections, the write-ahead journal
//! and the sweep's curve file (`vpic_core::crc32`). Both paths re-export
//! this crate, so there is one kernel.
//!
//! There are two bodies, chosen by `cfg` at compile time the way
//! `vpic_core::lanes` chooses AVX2:
//!
//! * `pclmulqdq` — carry-less-multiply folding (Intel, "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ Instruction",
//!   2009), compiled when the target has PCLMULQDQ and SSE4.1 (the repo's
//!   `.cargo/config.toml` builds with `target-cpu=native`). Four 128-bit
//!   accumulators fold 64 bytes per round, so four independent multiply
//!   chains are in flight; they are folded into one, the last 16-byte
//!   blocks are folded in one at a time, and a Barrett reduction brings
//!   the 128-bit remainder down to the 32-bit register. It runs on inputs
//!   of at least 64 bytes; the `len % 16` tail goes through the
//!   table body.
//! * `slicing-by-8` — eight bytes per step through eight 256-entry
//!   tables. It is the only body on other targets, the body for inputs
//!   under 64 bytes and tails, and the oracle the folded body is
//!   tested against.
//!
//! A CRC is a polynomial remainder, not a floating-point sum: both bodies
//! compute the same remainder of the same message, so no checksum written
//! by one build differs from another's.

const POLY: u32 = 0xEDB8_8320;

/// Shortest input the folded body takes: one round of its four
/// accumulators. Shorter inputs go to slicing-by-8.
const FOLD_MIN: usize = 64;

/// Streaming CRC-32 state: `update` in any number of pieces equals one
/// `crc32` of their concatenation.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update(self.state, bytes);
    }

    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// Advance the (pre-inversion) register `state` over `bytes`.
#[inline]
fn update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "pclmulqdq",
        target_feature = "sse4.1"
    ))]
    if bytes.len() >= FOLD_MIN {
        return folded::update(state, bytes);
    }
    slicing8(state, bytes)
}

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][i]` is the
/// CRC of byte `i` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The slicing-by-8 body: the loop-carried dependency is one round of
/// eight independent table lookups per 8 bytes.
fn slicing8(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The carry-less-multiply body. In the bit-reflected domain a 128-bit
/// accumulator `a` that sits `d` bits ahead of the next block `b` folds
/// into it as `b ⊕ a.lo·(x^(d+32) mod P) ⊕ a.hi·(x^(d−32) mod P)`, each
/// constant stored reflected and shifted left one bit (the reflected
/// product lands one bit low).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "pclmulqdq",
    target_feature = "sse4.1"
))]
mod folded {
    use super::FOLD_MIN;
    use core::arch::x86_64::*;

    /// Fold across 512 bits (four accumulators): `x^544`, `x^480` mod P.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// Fold across 128 bits (one accumulator): `x^160`, `x^96` mod P.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// 96 → 64 bits: `x^64` mod P.
    const K5: i64 = 0x1_63CD_6124;
    /// Barrett reduction: `P(x)` and `μ = ⌊x^64 / P(x)⌋`, reflected.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    // SAFETY (every intrinsic call of this module): the module is compiled
    // only under `cfg(target_feature = "pclmulqdq")` and `"sse4.1"` on
    // x86-64 (which implies SSE2), i.e. when the whole program is built
    // for CPUs that have those instructions, so they exist wherever the
    // binary may run. All but `load` work on register values only.

    #[inline(always)]
    fn load(block: &[u8]) -> __m128i {
        assert!(block.len() >= 16);
        // SAFETY: see the module note; `block` has 16 readable bytes and
        // the unaligned load needs no alignment.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `b ⊕ a.lo·k.lo ⊕ a.hi·k.hi`: accumulator `a` carried across the
    /// distance `k` encodes and added into block `b`.
    #[inline(always)]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        // SAFETY: see the module note.
        unsafe {
            let lo = _mm_clmulepi64_si128::<0x00>(a, k);
            let hi = _mm_clmulepi64_si128::<0x11>(a, k);
            _mm_xor_si128(_mm_xor_si128(b, lo), hi)
        }
    }

    /// Advance the (pre-inversion) register `state` over `bytes`, which
    /// holds at least [`FOLD_MIN`] bytes.
    pub fn update(state: u32, bytes: &[u8]) -> u32 {
        let mut rounds = bytes.chunks_exact(FOLD_MIN);
        let first = rounds.next().expect("at least FOLD_MIN bytes");
        let mut acc = [0, 16, 32, 48].map(|at| load(&first[at..]));
        // SAFETY: see the module note.
        let (k1k2, k3k4, k5, p_mu, low32) = unsafe {
            // The register enters as the first four message bytes' xor.
            acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));
            (
                _mm_set_epi64x(K2, K1),
                _mm_set_epi64x(K4, K3),
                _mm_set_epi64x(0, K5),
                _mm_set_epi64x(MU, P_X),
                _mm_set_epi32(0, 0, 0, !0),
            )
        };
        for round in &mut rounds {
            for (i, a) in acc.iter_mut().enumerate() {
                *a = fold(*a, load(&round[16 * i..]), k1k2);
            }
        }
        let mut x = fold(fold(fold(acc[0], acc[1], k3k4), acc[2], k3k4), acc[3], k3k4);
        let mut blocks = rounds.remainder().chunks_exact(16);
        for block in &mut blocks {
            x = fold(x, load(block), k3k4);
        }
        // SAFETY: see the module note.
        let crc = unsafe {
            // 128 → 96 bits: the low half carried 64 bits on.
            let x = _mm_xor_si128(
                _mm_clmulepi64_si128::<0x10>(x, k3k4),
                _mm_srli_si128::<8>(x),
            );
            // 96 → 64 bits: the low 32 carried 32 bits on.
            let x = _mm_xor_si128(
                _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), k5),
                _mm_srli_si128::<4>(x),
            );
            // Barrett: T1 = ⌊R mod x^32⌋·μ, T2 = ⌊T1 mod x^32⌋·P, and the
            // reflected remainder is the high dword of R ⊕ T2's low qword.
            let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), p_mu);
            let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), p_mu);
            _mm_extract_epi32::<1>(_mm_xor_si128(x, t2)) as u32
        };
        super::slicing8(crc, blocks.remainder())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..n).map(|_| splitmix64(&mut s) as u8).collect()
    }

    /// Bit-at-a-time reference, independent of every table and multiply.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// The table body alone, one-shot.
    fn crc32_slicing8(bytes: &[u8]) -> u32 {
        !slicing8(!0, bytes)
    }

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Long enough for the folded body, where it is compiled.
        assert_eq!(crc32(&[0u8; 4096]), crc32_bytewise(&[0u8; 4096]));
        assert_eq!(crc32(&[0xFFu8; 100]), crc32_bytewise(&[0xFFu8; 100]));
    }

    #[test]
    fn slicing_body_matches_bytewise_at_every_length_and_offset() {
        let data = random_bytes(308, 0x5EED);
        for offset in 0..8 {
            for len in 0..=300 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32_slicing8(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    /// The body `crc32` runs (folded from [`FOLD_MIN`] bytes where it is
    /// compiled) against the table body, at every length across the fold
    /// thresholds (64-byte rounds, 16-byte blocks, tails) and every start
    /// offset a 16-byte load can see.
    #[test]
    fn crc32_matches_the_table_body_at_every_length_and_offset() {
        let data = random_bytes(512 + 16, 0xF01D);
        for offset in 0..16 {
            for len in 0..=512 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_slicing8(slice),
                    "offset {offset}, len {len}"
                );
            }
        }
        let big = random_bytes(1 << 20, 0xB16);
        assert_eq!(crc32(&big), crc32_slicing8(&big), "1 MB");
    }

    #[test]
    fn update_split_at_every_point_matches_one_shot() {
        let data = random_bytes(300, 0x5B17);
        let want = crc32(&data);
        assert_eq!(want, crc32_bytewise(&data));
        for at in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..at]);
            c.update(&data[at..]);
            assert_eq!(c.finish(), want, "split at {at}");
        }
        // Many pieces, below, at and across both bodies' strides.
        for size in [1, 7, 8, 37, 64, 100] {
            let mut c = Crc32::new();
            for chunk in data.chunks(size) {
                c.update(chunk);
            }
            assert_eq!(c.finish(), want, "chunk size {size}");
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0x5Au8; 1024];
        let base = crc32(&data);
        data[513] ^= 0x04;
        assert_ne!(crc32(&data), base);
    }

    /// The relative speed gate of `scripts/ci.sh transport`: both bodies
    /// timed in one process on the same 64 kB (about four ghost planes),
    /// so host drift cancels.
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "pclmulqdq",
        target_feature = "sse4.1"
    ))]
    #[test]
    #[ignore = "timing gate; run in release by scripts/ci.sh transport"]
    fn folded_crc_is_at_least_4x_slicing_by_8() {
        let data = random_bytes(64 * 1024, 7);
        assert_eq!(crc32(&data), crc32_slicing8(&data));
        let best_of = |f: &dyn Fn(&[u8]) -> u32| {
            (0..15)
                .map(|_| {
                    let t = std::time::Instant::now();
                    for _ in 0..16 {
                        std::hint::black_box(f(std::hint::black_box(&data)));
                    }
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let slow = best_of(&crc32_slicing8);
        let fast = best_of(&crc32);
        let mb_s = |t: f64| 16.0 * data.len() as f64 / t / 1e6;
        println!(
            "crc32 on 64 kB: slicing-by-8 {:.0} MB/s, folded {:.0} MB/s ({:.2}x)",
            mb_s(slow),
            mb_s(fast),
            slow / fast
        );
        assert!(
            slow >= 4.0 * fast,
            "folded CRC is only {:.2}x slicing-by-8",
            slow / fast
        );
    }
}
