//! Byte-level serialization for the typed message surface.
//!
//! The in-process transport moves payloads as boxed values and never needs
//! bytes; the socket transport needs every payload flattened into a frame.
//! [`Wire`] is that contract: a bit-exact, little-endian encoding for every
//! type the application sends. Floats round-trip through `to_bits`, so a
//! distributed run over sockets lands on the same bits as the in-process
//! run — the whole bitwise-determinism story depends on this.
//!
//! Also home to the integrity/jitter primitives the socket layer uses: the
//! workspace's one CRC-32 (the dependency-free `crc32` crate, which also
//! frames `vpic_core::journal`'s WAL) and the same splitmix64 jitter
//! discipline as `vpic_core::queue`'s retry backoff.

use std::time::Duration;

/// A type that can cross a byte-oriented transport bit-exactly.
///
/// `wire_get` must accept exactly what `wire_put` produced; a decode
/// returning `None` marks the payload as not being this type (the socket
/// analog of a failed downcast).
pub trait Wire: Clone + Send + Sized + 'static {
    fn wire_put(&self, out: &mut Vec<u8>);
    fn wire_get(r: &mut WireReader<'_>) -> Option<Self>;

    /// Encode `items` back to back (no length prefix) — the body of a
    /// `Vec<Self>` message. Must produce exactly the bytes of the
    /// per-element loop; fixed-width types override it with one pass over
    /// a pre-sized buffer so ghost planes and migrant batches encode at
    /// copy speed.
    fn wire_put_slice(items: &[Self], out: &mut Vec<u8>) {
        for v in items {
            v.wire_put(out);
        }
    }

    /// Decode `len` back-to-back values, the inverse of
    /// [`wire_put_slice`](Wire::wire_put_slice). Callers bound `len`
    /// against the bytes actually present before calling.
    fn wire_get_vec(r: &mut WireReader<'_>, len: usize) -> Option<Vec<Self>> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(Self::wire_get(r)?);
        }
        Some(out)
    }
}

/// Cursor over a received payload.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Consume and return everything not yet read.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Skip `n` bytes, returning the reader for chaining.
    pub fn skip(&mut self, n: usize) -> Option<&mut Self> {
        self.take(n)?;
        Some(self)
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed (a decode that leaves
    /// trailing bytes did not match the sent type).
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

macro_rules! wire_le {
    ($($t:ty => $read:ident),* $(,)?) => {$(
        impl Wire for $t {
            fn wire_put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn wire_get(r: &mut WireReader<'_>) -> Option<Self> {
                r.take(std::mem::size_of::<$t>())
                    .map(|b| <$t>::from_le_bytes(b.try_into().unwrap()))
            }
        }
    )*};
}

wire_le!(u8 => u8, u16 => u16, i32 => i32, i64 => i64);

/// [`Wire`] for a fixed-width type that is a little-endian integer on the
/// wire (`$bits` is that integer; floats go through `to_bits`), with the
/// bulk hooks as single passes over `chunks_exact`.
macro_rules! wire_words {
    ($($t:ty as $bits:ty: $to:expr, $from:expr);* $(;)?) => {$(
        impl Wire for $t {
            fn wire_put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&$to(*self).to_le_bytes());
            }
            fn wire_get(r: &mut WireReader<'_>) -> Option<Self> {
                r.take(std::mem::size_of::<$bits>())
                    .map(|b| $from(<$bits>::from_le_bytes(b.try_into().unwrap())))
            }
            fn wire_put_slice(items: &[Self], out: &mut Vec<u8>) {
                const W: usize = std::mem::size_of::<$bits>();
                let start = out.len();
                out.resize(start + items.len() * W, 0);
                for (dst, v) in out[start..].chunks_exact_mut(W).zip(items) {
                    dst.copy_from_slice(&$to(*v).to_le_bytes());
                }
            }
            fn wire_get_vec(r: &mut WireReader<'_>, len: usize) -> Option<Vec<Self>> {
                const W: usize = std::mem::size_of::<$bits>();
                let bytes = r.take(len.checked_mul(W)?)?;
                Some(
                    bytes
                        .chunks_exact(W)
                        .map(|b| $from(<$bits>::from_le_bytes(b.try_into().unwrap())))
                        .collect(),
                )
            }
        }
    )*};
}

// Floats are bit-patterns on the wire: NaN payloads, signed zeros and
// denormals all round-trip exactly.
wire_words! {
    u32 as u32: std::convert::identity, std::convert::identity;
    u64 as u64: std::convert::identity, std::convert::identity;
    f32 as u32: f32::to_bits, f32::from_bits;
    f64 as u64: f64::to_bits, f64::from_bits;
}

// usize travels as u64 so 32- and 64-bit builds interoperate.
impl Wire for usize {
    fn wire_put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(*self as u64).to_le_bytes());
    }
    fn wire_get(r: &mut WireReader<'_>) -> Option<Self> {
        usize::try_from(r.u64()?).ok()
    }
}

impl Wire for bool {
    fn wire_put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn wire_get(r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for String {
    fn wire_put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        out.extend_from_slice(self.as_bytes());
    }
    fn wire_get(r: &mut WireReader<'_>) -> Option<Self> {
        let len = usize::try_from(r.u64()?).ok()?;
        String::from_utf8(r.take(len)?.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn wire_put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        T::wire_put_slice(self, out);
    }
    fn wire_get(r: &mut WireReader<'_>) -> Option<Self> {
        let len = usize::try_from(r.u64()?).ok()?;
        // Guard against a hostile length prefix: each element needs at
        // least one byte on the wire.
        if len > r.remaining() {
            return None;
        }
        T::wire_get_vec(r, len)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn wire_put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.wire_put(out);
            }
        }
    }
    fn wire_get(r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(None),
            1 => Some(Some(T::wire_get(r)?)),
            _ => None,
        }
    }
}

macro_rules! wire_tuple {
    ($($name:ident),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn wire_put(&self, out: &mut Vec<u8>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.wire_put(out);)+
            }
            fn wire_get(r: &mut WireReader<'_>) -> Option<Self> {
                Some(($($name::wire_get(r)?,)+))
            }
        }
    };
}

wire_tuple!(A);
wire_tuple!(A, B);
wire_tuple!(A, B, C);
wire_tuple!(A, B, C, D);

/// A same-binary type tag carried next to byte payloads so a mistyped
/// receive fails with `TypeMismatch` instead of mis-decoding. Hashed from
/// `type_name`, which is only stable within one binary — the bootstrap
/// handshake's version check guarantees both ends run the same build.
pub fn type_fp<T: 'static>() -> u64 {
    fnv1a64(std::any::type_name::<T>().as_bytes())
}

pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// CRC-32 (IEEE, reflected — the `crc32fast`-compatible polynomial the
/// checkpoint/journal framing uses) over `bytes`. Every frame is
/// checksummed once by its sender and once by the receiving reader
/// thread; this is the workspace's one CRC kernel (the `crc32` crate,
/// also re-exported as `vpic_core::crc32`), carry-less-multiply folding
/// where the target has PCLMULQDQ, so a 52 kB plane costs a few
/// microseconds a pass.
pub use ::crc32::crc32;

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exponential backoff with seeded jitter, the same discipline as the
/// sweep queue's `RetryPolicy::backoff_ms`: `base·2^attempt` capped at
/// `max`, plus up to 50% deterministic jitter keyed on `(seed, attempt)`.
pub(crate) fn backoff(attempt: u32, base: Duration, max: Duration, seed: u64) -> Duration {
    let exp = base
        .saturating_mul(1u32 << attempt.min(10))
        .min(max)
        .max(Duration::from_millis(1));
    let mut s = seed ^ ((attempt as u64) << 32);
    let jitter_frac = (splitmix64(&mut s) >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    exp + exp.mul_f64(0.5 * jitter_frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.wire_put(&mut buf);
        let mut r = WireReader::new(&buf);
        let got = T::wire_get(&mut r).expect("decode");
        assert!(r.done(), "trailing bytes after {v:?}");
        assert_eq!(got, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(-1i64);
        round_trip(true);
        round_trip("héllo wörld".to_string());
        round_trip((1u64, 2u64, 3u64));
        round_trip(Some(vec![1.0f64, -0.0]));
        round_trip::<Option<u8>>(None);
        round_trip(vec![vec![1u32], vec![], vec![2, 3]]);
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for bits in [0u32, 1, 0x7fc0_0001, 0x7f80_0000, 0x8000_0000, u32::MAX] {
            let v = f32::from_bits(bits);
            let mut buf = Vec::new();
            v.wire_put(&mut buf);
            let got = f32::wire_get(&mut WireReader::new(&buf)).unwrap();
            assert_eq!(got.to_bits(), bits);
        }
        for bits in [0u64, 1, 0x7ff8_dead_beef_0001, u64::MAX] {
            let v = f64::from_bits(bits);
            let mut buf = Vec::new();
            v.wire_put(&mut buf);
            let got = f64::wire_get(&mut WireReader::new(&buf)).unwrap();
            assert_eq!(got.to_bits(), bits);
        }
    }

    #[test]
    fn truncated_payload_decodes_to_none() {
        let mut buf = Vec::new();
        vec![1u64, 2, 3].wire_put(&mut buf);
        for cut in 0..buf.len() {
            assert_eq!(
                Vec::<u64>::wire_get(&mut WireReader::new(&buf[..cut])),
                None,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn hostile_length_prefix_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Vec::<u8>::wire_get(&mut WireReader::new(&buf)), None);
    }

    #[test]
    fn type_fps_differ() {
        assert_ne!(type_fp::<u64>(), type_fp::<f64>());
        assert_ne!(type_fp::<Vec<u32>>(), type_fp::<Vec<f32>>());
        assert_eq!(type_fp::<Vec<f32>>(), type_fp::<Vec<f32>>());
    }

    #[test]
    fn bulk_hooks_match_the_per_element_encoding_bit_exactly() {
        // The overridden slice hooks must write exactly the bytes of the
        // per-element loop (the frame layout did not change) and read
        // them back bit for bit, NaN payloads and signed zeros included.
        fn check<T: Wire>(items: Vec<T>, bits: impl Fn(&T) -> u64) {
            let mut per_element = (items.len() as u64).to_le_bytes().to_vec();
            for v in &items {
                v.wire_put(&mut per_element);
            }
            let mut bulk = Vec::new();
            items.wire_put(&mut bulk);
            assert_eq!(bulk, per_element);
            let mut r = WireReader::new(&bulk);
            let back = Vec::<T>::wire_get(&mut r).expect("decode");
            assert!(r.done());
            let want: Vec<u64> = items.iter().map(&bits).collect();
            let got: Vec<u64> = back.iter().map(&bits).collect();
            assert_eq!(got, want);
            for cut in 0..bulk.len() {
                assert!(
                    Vec::<T>::wire_get(&mut WireReader::new(&bulk[..cut])).is_none(),
                    "cut at {cut}"
                );
            }
        }
        let f32s = [0u32, 1, 0x7fc0_0001, 0xffc0_dead, 0x7f80_0000, 0x8000_0000];
        check(f32s.iter().map(|&b| f32::from_bits(b)).collect(), |v| {
            v.to_bits() as u64
        });
        let f64s = [0u64, 1, 0x7ff8_dead_beef_0001, 1 << 63, u64::MAX];
        check(f64s.iter().map(|&b| f64::from_bits(b)).collect(), |v| {
            v.to_bits()
        });
        check(vec![0u32, 1, u32::MAX, 0xdead_beef], |&v| v as u64);
        check(vec![0u64, u64::MAX, 0x0123_4567_89ab_cdef], |&v| v);
        check(Vec::<f32>::new(), |v| v.to_bits() as u64);
    }

    #[test]
    fn hostile_length_prefix_is_rejected_by_bulk_decoders() {
        // A length that passes the one-byte-per-element guard but whose
        // elements do not fit, and one whose byte count overflows.
        for len in [3u64, 9, (usize::MAX / 2) as u64] {
            let mut buf = len.to_le_bytes().to_vec();
            buf.extend_from_slice(&[0u8; 9]);
            assert_eq!(Vec::<f32>::wire_get(&mut WireReader::new(&buf)), None);
            assert_eq!(Vec::<u64>::wire_get(&mut WireReader::new(&buf)), None);
        }
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(500);
        let d0 = backoff(0, base, max, 7);
        let d3 = backoff(3, base, max, 7);
        let d9 = backoff(9, base, max, 7);
        assert!(d0 >= base && d0 <= base * 2);
        assert!(d3 >= base * 8 && d3 <= base * 12);
        assert!(d9 <= max * 3 / 2);
        // Deterministic for a given (seed, attempt).
        assert_eq!(backoff(3, base, max, 7), d3);
        assert_ne!(backoff(3, base, max, 8), backoff(3, base, max, 9));
    }
}
