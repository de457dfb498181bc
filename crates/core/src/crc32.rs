//! IEEE CRC-32 (the polynomial used by zip/gzip/Ethernet) and a content
//! fingerprint. Checkpoint sections and journal frames are checksummed
//! with the CRC so a truncated or bit-flipped restart dump is detected at
//! load time instead of silently seeding a corrupt resumed run.
//!
//! The CRC is the workspace's one kernel (the `crc32` crate: carry-less
//! multiply folding where the target has PCLMULQDQ, slicing-by-8
//! elsewhere), the same one `nanompi::wire::crc32` frames socket messages
//! with; its own tests pin both bodies against a byte-wise reference.

pub use ::crc32::{crc32, Crc32};

/// Content fingerprint for buffers that *embed their own CRC-32s*.
///
/// CRC-32 has a residue property: running `payload ++ le32(crc32(payload))`
/// through the register lands on a constant (`0x2144_DF1C` pre-final-xor)
/// regardless of the payload. The restart dump stores exactly that shape
/// per section (the CRC-covered bytes, then their CRC), so `crc32(whole_dump)` collapses to a function
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

    /// A buffer shaped `payload ++ le32(crc32(payload))` drives the CRC
    /// register to a constant residue, so two such buffers of equal length
    /// share a CRC-32 no matter how the payloads differ. That is exactly
    /// the restart dump's section shape; `fingerprint32` must not cancel.
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
