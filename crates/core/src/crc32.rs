//! IEEE CRC-32 (the polynomial used by zip/gzip/Ethernet), table-driven,
//! dependency-free. Checkpoint sections are checksummed with this so a
//! truncated or bit-flipped restart dump is detected at load time instead
//! of silently seeding a corrupt resumed run.
//!
//! The kernel is slicing-by-8 (eight bytes per step through eight tables),
//! the same one `nanompi::wire::crc32` frames socket messages with; the
//! two crates share no code by design, and both are pinned against a
//! byte-wise reference in their tests.

const POLY: u32 = 0xEDB8_8320;

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

/// Streaming CRC-32 state.
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
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
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
        self.state = crc;
    }

    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// Content fingerprint for buffers that *embed their own CRC-32s*.
///
/// CRC-32 has a residue property: running `payload ++ le32(crc32(payload))`
/// through the register lands on a constant (`0x2144_DF1C` pre-final-xor)
/// regardless of the payload. The v2 checkpoint container stores exactly
/// that shape per section, so `crc32(whole_dump)` collapses to a function
/// of the *section lengths only* — two dumps with the same particle count
/// collide even when most of their bytes differ. Any end-state "are these
/// runs bit-identical" witness must therefore NOT be a plain CRC of the
/// container. This fingerprint mixes each 8-byte chunk through a
/// splitmix64-style avalanche (seeded with the length), which has no such
/// linear cancellation.
pub fn fingerprint32(bytes: &[u8]) -> u32 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(c.try_into().unwrap());
        h = mix64(h ^ v);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = mix64(h ^ u64::from_le_bytes(tail) ^ (rem.len() as u64) << 56);
    }
    (h ^ (h >> 32)) as u32
}

fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Bit-at-a-time reference, independent of every table.
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

    #[test]
    fn slicing_kernel_matches_bytewise_at_every_length_and_offset() {
        let data: Vec<u8> = (0..308u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=300 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        // Chunk sizes below, at and across the kernel's 8-byte stride: the
        // register carries over exactly wherever an update ends.
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for size in [1, 7, 8, 37] {
            let mut c = Crc32::new();
            for chunk in data.chunks(size) {
                c.update(chunk);
            }
            assert_eq!(c.finish(), crc32(&data), "chunk size {size}");
        }
        assert_eq!(crc32(&data), crc32_bytewise(&data));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let mut data = vec![0x5Au8; 1024];
        let base = crc32(&data);
        data[513] ^= 0x04;
        assert_ne!(crc32(&data), base);
    }

    /// A buffer shaped `payload ++ le32(crc32(payload))` drives the CRC
    /// register to a constant residue, so two such buffers of equal length
    /// share a CRC-32 no matter how the payloads differ. That is exactly
    /// the v2 checkpoint section shape; `fingerprint32` must not cancel.
    #[test]
    fn fingerprint_distinguishes_self_checksummed_sections() {
        let framed = |payload: &[u8]| {
            let mut buf = payload.to_vec();
            buf.extend_from_slice(&crc32(payload).to_le_bytes());
            buf
        };
        let a = framed(&[0x11u8; 256]);
        let b = framed(&[0xEEu8; 128].repeat(2));
        assert_ne!(a, b);
        // The trap: plain CRC-32 collides on the framed buffers.
        assert_eq!(crc32(&a), crc32(&b));
        // The fix: the avalanche fingerprint tells them apart.
        assert_ne!(fingerprint32(&a), fingerprint32(&b));
    }

    #[test]
    fn fingerprint_sensitive_to_length_and_tail() {
        let data = vec![0xA5u8; 100];
        assert_ne!(fingerprint32(&data[..99]), fingerprint32(&data));
        let mut flipped = data.clone();
        flipped[99] ^= 0x01; // last byte lives in the ragged tail chunk
        assert_ne!(fingerprint32(&flipped), fingerprint32(&data));
    }
}
