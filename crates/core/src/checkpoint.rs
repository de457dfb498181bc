//! Binary checkpointing of a single-domain simulation.
//!
//! Hand-rolled little-endian format (magic `VPICRS02`): VPIC production
//! runs at trillion-particle scale live or die by restart dumps, so the
//! reproduction carries the same capability — hardened. The v2 format is
//! sectioned: after the magic and a version word, the header, field and
//! species payloads are each written length-prefixed with a CRC-32
//! trailer, so a truncated or bit-flipped dump fails loudly with a typed
//! [`CheckpointError`] instead of silently seeding a corrupt resumed run.
//! Fields and particles are written verbatim; phase timings are not
//! persisted (they are measurements, not state).
//!
//! [`save_to_path`] writes through a buffered writer to a temporary file
//! and renames it into place, so a crash mid-dump never destroys the
//! previous good checkpoint.
//!
//! The module also provides *encoded* sections ([`write_section_encoded`] /
//! [`read_section_encoded`]): the same CRC-framed shape, plus an encoding
//! byte and an XOR-delta + zero-RLE compressor ([`compress_delta_rle`])
//! that the distributed v3 dump format uses to keep trillion-particle-scale
//! restart I/O inside its write budget. Each section independently stores
//! whichever of raw/compressed is smaller, so compression can never make a
//! dump larger than the raw format by more than the fixed framing bytes.

use crate::cadence::{CadenceState, CoherenceCounters, PushTally, SortPolicy};
use crate::crc32::{crc32, Crc32};
use crate::field::FieldArray;
use crate::grid::{Grid, ParticleBc};
use crate::particle::Particle;
use crate::sentinel::{SentinelConfig, SimConfig};
use crate::sim::Simulation;
use crate::species::Species;
use crate::store::Layout;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"VPICRS02";
const VERSION: u32 = 2;

/// Largest section payload this implementation will read (guards the
/// section-length word against corruption-driven allocation).
const MAX_SECTION: u64 = 1 << 32;

/// Typed checkpoint failure. Every load-path defect in the dump — wrong
/// file, wrong version, truncation, bit rot, or a header that fails
/// plausibility — maps to a distinct variant.
#[derive(Debug)]
pub enum CheckpointError {
    Io(io::Error),
    /// The file does not start with the expected magic.
    BadMagic,
    /// The file is a VPIC dump of a version this build cannot read.
    UnsupportedVersion(u32),
    /// The named section ended before its declared length.
    Truncated {
        section: &'static str,
    },
    /// The named section's CRC-32 does not match its payload.
    CrcMismatch {
        section: &'static str,
        expected: u32,
        got: u32,
    },
    /// A distributed dump belongs to a different rank.
    RankMismatch {
        expected: u64,
        got: u64,
    },
    /// A distributed dump was written for a different domain decomposition.
    SpecMismatch {
        expected: u64,
        got: u64,
    },
    /// The payload decoded but failed a plausibility/validity check.
    Malformed(String),
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a VPIC restart dump (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {VERSION})")
            }
            CheckpointError::Truncated { section } => {
                write!(f, "checkpoint truncated in section `{section}`")
            }
            CheckpointError::CrcMismatch { section, expected, got } => write!(
                f,
                "checkpoint section `{section}` failed CRC-32 (expected {expected:#010x}, got {got:#010x})"
            ),
            CheckpointError::RankMismatch { expected, got } => {
                write!(f, "checkpoint belongs to rank {got}, not rank {expected}")
            }
            CheckpointError::SpecMismatch { expected, got } => write!(
                f,
                "checkpoint domain fingerprint {got:#018x} does not match this run's {expected:#018x}"
            ),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Write one framed section: `u64` payload length, payload bytes, `u32`
/// CRC-32 of the payload.
pub fn write_section(w: &mut impl Write, payload: &[u8]) -> Result<(), CheckpointError> {
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    Ok(())
}

/// Read one framed section written by [`write_section`], verifying length
/// and CRC. The declared length is never trusted for preallocation: a
/// truncated file fails at EOF, not by exhausting memory.
pub fn read_section(r: &mut impl Read, section: &'static str) -> Result<Vec<u8>, CheckpointError> {
    let mut len_bytes = [0u8; 8];
    r.read_exact(&mut len_bytes)
        .map_err(|_| CheckpointError::Truncated { section })?;
    let len = u64::from_le_bytes(len_bytes);
    if len > MAX_SECTION {
        return Err(CheckpointError::Malformed(format!(
            "section `{section}` declares implausible length {len}"
        )));
    }
    let mut payload = Vec::new();
    let read = r.take(len).read_to_end(&mut payload)?;
    if read as u64 != len {
        return Err(CheckpointError::Truncated { section });
    }
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)
        .map_err(|_| CheckpointError::Truncated { section })?;
    let expected = u32::from_le_bytes(crc_bytes);
    let got = crc32(&payload);
    if got != expected {
        return Err(CheckpointError::CrcMismatch {
            section,
            expected,
            got,
        });
    }
    Ok(payload)
}

/// Section payload stored verbatim.
pub const ENCODING_RAW: u8 = 0;
/// Section payload stored XOR-delta'd (u32 stride) then zero-run-length
/// encoded. Field arrays and particle records are f32/u32 streams whose
/// neighboring words share high bytes, so the delta pass manufactures long
/// zero runs for the RLE pass to collapse.
pub const ENCODING_DELTA_RLE: u8 = 1;

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

fn read_varint(data: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    for (k, &b) in data.iter().enumerate().take(10) {
        v |= ((b & 0x7f) as u64) << (7 * k);
        if b & 0x80 == 0 {
            return Some((v, k + 1));
        }
    }
    None
}

/// Bound on the record stride a compressed stream may declare (guards the
/// decoder against corruption-driven strides).
const MAX_RECORD_STRIDE: u64 = 4096;

/// Byte-plane shuffle with record stride `r`: transpose the payload's
/// complete `r`-byte records so that byte `k` of every record is
/// contiguous, leaving tail bytes in place. `r = 4` groups the same byte
/// of consecutive f32/u32 words (field arrays); `r = 32` groups the same
/// byte of the same *component* of consecutive particle records.
fn shuffle(payload: &[u8], r: usize) -> Vec<u8> {
    let n = payload.len() / r;
    let mut out = Vec::with_capacity(payload.len());
    for k in 0..r {
        for t in 0..n {
            out.push(payload[t * r + k]);
        }
    }
    out.extend_from_slice(&payload[n * r..]);
    out
}

fn unshuffle(shuf: &[u8], r: usize) -> Vec<u8> {
    let n = shuf.len() / r;
    let mut out = Vec::with_capacity(shuf.len());
    for t in 0..n {
        for k in 0..r {
            out.push(shuf[k * n + t]);
        }
    }
    out.extend_from_slice(&shuf[n * r..]);
    out
}

/// RLE-encode `delta` into `varint(stride)` + a token stream:
/// `0x00, varint(n)` for a run of `n` zero bytes, `0x01, varint(n), bytes`
/// for `n` literals. Zero runs shorter than 4 bytes are folded into
/// literals so the token overhead can never blow up incompressible data by
/// more than a few bytes per kilobyte.
fn rle_encode(delta: &[u8], stride: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(delta.len() / 4 + 16);
    push_varint(&mut out, stride as u64);
    let mut i = 0;
    while i < delta.len() {
        if delta[i] == 0 {
            let mut j = i;
            while j < delta.len() && delta[j] == 0 {
                j += 1;
            }
            if j - i >= 4 {
                out.push(0x00);
                push_varint(&mut out, (j - i) as u64);
                i = j;
                continue;
            }
        }
        let start = i;
        let mut zrun = 0usize;
        while i < delta.len() {
            if delta[i] == 0 {
                zrun += 1;
                if zrun == 4 {
                    i -= 3; // literal ends where the zero run begins
                    break;
                }
            } else {
                zrun = 0;
            }
            i += 1;
        }
        out.push(0x01);
        push_varint(&mut out, (i - start) as u64);
        out.extend_from_slice(&delta[start..i]);
    }
    out
}

/// Compress a section payload in three fully reversible passes: a
/// byte-plane [`shuffle`], an XOR-delta with the previous byte (after the
/// shuffle, that is the same byte position of the neighboring word or
/// particle record — field values and particle components share
/// sign/exponent bits, so the high planes collapse to near-zero), and a
/// zero-run-length encode. The stream leads with the record stride; the
/// compressor tries the word stride and the particle-record stride and
/// keeps whichever encodes smaller.
pub fn compress_delta_rle(payload: &[u8]) -> Vec<u8> {
    let mut best: Option<Vec<u8>> = None;
    for stride in [4usize, 32] {
        let mut delta = shuffle(payload, stride);
        for i in (1..delta.len()).rev() {
            delta[i] ^= delta[i - 1];
        }
        let enc = rle_encode(&delta, stride);
        if best.as_ref().is_none_or(|b| enc.len() < b.len()) {
            best = Some(enc);
        }
    }
    best.unwrap_or_default()
}

/// Invert [`compress_delta_rle`]. `raw_len` is the declared decompressed
/// size and bounds every allocation; any token-stream defect — bad tag,
/// truncated literal, over- or under-run — is a typed error, never a panic.
pub fn decompress_delta_rle(
    data: &[u8],
    raw_len: usize,
    section: &'static str,
) -> Result<Vec<u8>, CheckpointError> {
    let (stride, mut i) = read_varint(data).ok_or_else(|| {
        CheckpointError::Malformed(format!("bad record stride in section `{section}`"))
    })?;
    if stride == 0 || stride > MAX_RECORD_STRIDE {
        return Err(CheckpointError::Malformed(format!(
            "implausible record stride {stride} in section `{section}`"
        )));
    }
    let mut out = Vec::with_capacity(raw_len.min(1 << 20));
    while i < data.len() {
        let tag = data[i];
        i += 1;
        let (n, adv) = read_varint(&data[i..]).ok_or_else(|| {
            CheckpointError::Malformed(format!("bad run length in section `{section}`"))
        })?;
        i += adv;
        let n = n as usize;
        if out.len() + n > raw_len {
            return Err(CheckpointError::Malformed(format!(
                "decompressed data overruns declared length in section `{section}`"
            )));
        }
        match tag {
            0x00 => out.resize(out.len() + n, 0), // zero run
            0x01 => {
                if i + n > data.len() {
                    return Err(CheckpointError::Truncated { section });
                }
                out.extend_from_slice(&data[i..i + n]);
                i += n;
            }
            _ => {
                return Err(CheckpointError::Malformed(format!(
                    "bad RLE tag {tag:#04x} in section `{section}`"
                )))
            }
        }
    }
    if out.len() != raw_len {
        return Err(CheckpointError::Malformed(format!(
            "decompressed {} bytes, section `{section}` declared {raw_len}",
            out.len()
        )));
    }
    for i in 1..out.len() {
        let prev = out[i - 1];
        out[i] ^= prev;
    }
    Ok(unshuffle(&out, stride as usize))
}

/// Write one encoded section: `u64` stored length, `u8` encoding, `u64`
/// raw (decompressed) length, stored bytes, `u32` CRC-32 over the encoding
/// byte, raw length, and stored bytes (so a flipped encoding byte cannot
/// steer the decoder). With `compress`, the smaller of raw and delta+RLE
/// is stored; pass `false` for sections that must stay byte-inspectable.
pub fn write_section_encoded(
    w: &mut impl Write,
    payload: &[u8],
    compress: bool,
) -> Result<(), CheckpointError> {
    let compressed = if compress {
        Some(compress_delta_rle(payload))
    } else {
        None
    };
    let (encoding, stored): (u8, &[u8]) = match &compressed {
        Some(c) if c.len() < payload.len() => (ENCODING_DELTA_RLE, c.as_slice()),
        _ => (ENCODING_RAW, payload),
    };
    let raw_len = (payload.len() as u64).to_le_bytes();
    w.write_all(&(stored.len() as u64).to_le_bytes())?;
    w.write_all(&[encoding])?;
    w.write_all(&raw_len)?;
    w.write_all(stored)?;
    let mut crc = Crc32::new();
    crc.update(&[encoding]);
    crc.update(&raw_len);
    crc.update(stored);
    w.write_all(&crc.finish().to_le_bytes())?;
    Ok(())
}

/// Read one section written by [`write_section_encoded`], verifying the
/// CRC before decompressing and bounding both lengths against
/// [`MAX_SECTION`].
pub fn read_section_encoded(
    r: &mut impl Read,
    section: &'static str,
) -> Result<Vec<u8>, CheckpointError> {
    let mut len_bytes = [0u8; 8];
    r.read_exact(&mut len_bytes)
        .map_err(|_| CheckpointError::Truncated { section })?;
    let stored_len = u64::from_le_bytes(len_bytes);
    let mut enc_byte = [0u8; 1];
    r.read_exact(&mut enc_byte)
        .map_err(|_| CheckpointError::Truncated { section })?;
    let mut raw_bytes = [0u8; 8];
    r.read_exact(&mut raw_bytes)
        .map_err(|_| CheckpointError::Truncated { section })?;
    let raw_len = u64::from_le_bytes(raw_bytes);
    if stored_len > MAX_SECTION || raw_len > MAX_SECTION {
        return Err(CheckpointError::Malformed(format!(
            "section `{section}` declares implausible length (stored {stored_len}, raw {raw_len})"
        )));
    }
    let mut stored = Vec::new();
    let read = r.take(stored_len).read_to_end(&mut stored)?;
    if read as u64 != stored_len {
        return Err(CheckpointError::Truncated { section });
    }
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes)
        .map_err(|_| CheckpointError::Truncated { section })?;
    let expected = u32::from_le_bytes(crc_bytes);
    let mut crc = Crc32::new();
    crc.update(&enc_byte);
    crc.update(&raw_bytes);
    crc.update(&stored);
    let got = crc.finish();
    if got != expected {
        return Err(CheckpointError::CrcMismatch {
            section,
            expected,
            got,
        });
    }
    match enc_byte[0] {
        ENCODING_RAW => {
            if stored_len != raw_len {
                return Err(CheckpointError::Malformed(format!(
                    "raw section `{section}` stored {stored_len} bytes but declares {raw_len}"
                )));
            }
            Ok(stored)
        }
        ENCODING_DELTA_RLE => decompress_delta_rle(&stored, raw_len as usize, section),
        e => Err(CheckpointError::Malformed(format!(
            "unknown encoding {e:#04x} in section `{section}`"
        ))),
    }
}

/// In-memory little-endian payload encoder for section bodies.
#[derive(Default)]
pub struct PayloadWriter {
    buf: Vec<u8>,
}

impl PayloadWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Length-prefixed bulk f32 slice.
    pub fn f32_slice(&mut self, s: &[f32]) {
        self.u64(s.len() as u64);
        self.buf.reserve(4 * s.len());
        for &v in s {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Typed little-endian decoder over a section payload.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> PayloadReader<'a> {
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        PayloadReader {
            buf,
            pos: 0,
            section,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.pos + n > self.buf.len() {
            return Err(CheckpointError::Truncated {
                section: self.section,
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        self.take(n)
    }

    /// Length-prefixed bulk f32 slice whose length must equal `expect`.
    pub fn f32_vec(&mut self, expect: usize) -> Result<Vec<f32>, CheckpointError> {
        let n = self.u64()? as usize;
        if n != expect {
            return Err(CheckpointError::Malformed(format!(
                "field length {n} != expected {expect} in section `{}`",
                self.section
            )));
        }
        let raw = self.take(4 * n)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// The decoder must have consumed the whole payload.
    pub fn done(&self) -> Result<(), CheckpointError> {
        if self.pos != self.buf.len() {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes in section `{}`",
                self.buf.len() - self.pos,
                self.section
            )));
        }
        Ok(())
    }
}

fn bc_code(bc: ParticleBc) -> u32 {
    match bc {
        ParticleBc::Periodic => 0,
        ParticleBc::Reflect => 1,
        ParticleBc::Absorb => 2,
        ParticleBc::Migrate => 3,
    }
}

fn bc_from(code: u32) -> Result<ParticleBc, CheckpointError> {
    Ok(match code {
        0 => ParticleBc::Periodic,
        1 => ParticleBc::Reflect,
        2 => ParticleBc::Absorb,
        3 => ParticleBc::Migrate,
        _ => {
            return Err(CheckpointError::Malformed(format!(
                "bad boundary code {code}"
            )))
        }
    })
}

/// Encode the ten field arrays as one section payload.
pub fn encode_fields(f: &FieldArray) -> Vec<u8> {
    let mut p = PayloadWriter::new();
    for arr in [
        &f.ex, &f.ey, &f.ez, &f.cbx, &f.cby, &f.cbz, &f.jx, &f.jy, &f.jz, &f.rho,
    ] {
        p.f32_slice(arr);
    }
    p.finish()
}

/// Decode a fields section payload into `fields` (all arrays must have
/// exactly `n` entries).
pub fn decode_fields(
    payload: &[u8],
    n: usize,
    fields: &mut FieldArray,
) -> Result<(), CheckpointError> {
    let mut r = PayloadReader::new(payload, "fields");
    for arr in [
        &mut fields.ex,
        &mut fields.ey,
        &mut fields.ez,
        &mut fields.cbx,
        &mut fields.cby,
        &mut fields.cbz,
        &mut fields.jx,
        &mut fields.jy,
        &mut fields.jz,
        &mut fields.rho,
    ] {
        *arr = r.f32_vec(n)?;
    }
    r.done()
}

/// Encode a species list as one section payload.
pub fn encode_species(species: &[Species]) -> Vec<u8> {
    let mut p = PayloadWriter::new();
    p.u32(species.len() as u32);
    for sp in species {
        let name = sp.name.as_bytes();
        p.u32(name.len() as u32);
        p.bytes(name);
        p.f32(sp.q);
        p.f32(sp.m);
        // Sort policy + cadence-controller state + the layout-independent
        // coherence counters: the controller's decisions must replay
        // bit-identically after a resume or rollback, so everything that
        // feeds a decision rides the dump (the EWMA rate as raw f64 bits
        // through `f64`). The lane-telemetry counters (lane blocks/spills,
        // mixed blocks, straddled lanes) describe which kernel executed,
        // not the physics — persisting them would make dump bytes differ
        // across layouts, breaking the canonical-AoS fingerprint contract.
        // They reset on restore.
        match sp.sort_policy {
            SortPolicy::Fixed(n) => {
                p.u32(0);
                p.u32(n);
            }
            SortPolicy::Auto => {
                p.u32(1);
                p.u32(0);
            }
        }
        let cad = sp.cadence();
        p.u32(cad.interval);
        p.u32(cad.steps_since_sort);
        p.u64(cad.crossers_since_sort);
        p.u64(cad.len_at_sort);
        p.u32(cad.coherent as u32 | (cad.measured as u32) << 1);
        p.f64(cad.rate);
        let co = sp.coherence();
        p.u64(co.tally.pushed);
        p.u64(co.tally.crossers);
        p.u64(co.sorts);
        p.u64(co.skipped_sorts);
        // Always the canonical AoS byte stream, whatever the in-memory
        // layout — dumps are layout-independent by construction.
        p.u64(sp.len() as u64);
        for part in sp.iter() {
            p.f32(part.dx);
            p.f32(part.dy);
            p.f32(part.dz);
            p.u32(part.i);
            p.f32(part.ux);
            p.f32(part.uy);
            p.f32(part.uz);
            p.f32(part.w);
        }
    }
    p.finish()
}

/// Decode a species section payload; every particle's voxel must be below
/// `n_voxels`.
pub fn decode_species(payload: &[u8], n_voxels: usize) -> Result<Vec<Species>, CheckpointError> {
    let mut r = PayloadReader::new(payload, "species");
    let n_species = r.u32()? as usize;
    if n_species > 1024 {
        return Err(CheckpointError::Malformed(format!(
            "implausible species count {n_species}"
        )));
    }
    let mut out = Vec::with_capacity(n_species);
    for _ in 0..n_species {
        let name_len = r.u32()? as usize;
        if name_len > 4096 {
            return Err(CheckpointError::Malformed(format!(
                "implausible species name length {name_len}"
            )));
        }
        let name = String::from_utf8(r.bytes(name_len)?.to_vec())
            .map_err(|_| CheckpointError::Malformed("species name is not UTF-8".into()))?;
        let q = r.f32()?;
        let m = r.f32()?;
        let policy = match r.u32()? {
            0 => SortPolicy::Fixed(r.u32()?),
            1 => {
                r.u32()?; // reserved
                SortPolicy::Auto
            }
            other => {
                return Err(CheckpointError::Malformed(format!(
                    "bad sort policy tag {other}"
                )))
            }
        };
        let mut cad = CadenceState::new(policy);
        cad.interval = r.u32()?;
        cad.steps_since_sort = r.u32()?;
        cad.crossers_since_sort = r.u64()?;
        cad.len_at_sort = r.u64()?;
        let flags = r.u32()?;
        if flags & !0b11 != 0 {
            return Err(CheckpointError::Malformed(format!(
                "bad cadence flags {flags:#x}"
            )));
        }
        cad.coherent = flags & 1 != 0;
        cad.measured = flags & 2 != 0;
        cad.rate = r.f64()?;
        if !cad.rate.is_finite() || cad.rate < 0.0 {
            return Err(CheckpointError::Malformed(format!(
                "bad cadence rate {}",
                cad.rate
            )));
        }
        // Kernel-telemetry counters (lane blocks/spills, mixed blocks,
        // straddled lanes) are not in the dump — they restart at zero and
        // re-describe whatever kernel runs after the restore.
        let counters = CoherenceCounters {
            tally: PushTally {
                pushed: r.u64()?,
                crossers: r.u64()?,
                ..PushTally::default()
            },
            sorts: r.u64()?,
            skipped_sorts: r.u64()?,
        };
        let count = r.u64()? as usize;
        let mut sp = Species::new(name, q, m).with_sort_policy(policy);
        // Do not trust the header for a big up-front reservation: a
        // corrupted count should fail on decode, not on allocation.
        sp.store_mut().reserve(count.min(1 << 20));
        for _ in 0..count {
            let dx = r.f32()?;
            let dy = r.f32()?;
            let dz = r.f32()?;
            let i = r.u32()?;
            let ux = r.f32()?;
            let uy = r.f32()?;
            let uz = r.f32()?;
            let w = r.f32()?;
            if i as usize >= n_voxels {
                return Err(CheckpointError::Malformed(format!(
                    "particle voxel {i} out of range (< {n_voxels})"
                )));
            }
            sp.push(Particle {
                dx,
                dy,
                dz,
                i,
                ux,
                uy,
                uz,
                w,
            });
        }
        sp.set_cadence(cad);
        sp.set_coherence(counters);
        out.push(sp);
    }
    r.done()?;
    Ok(out)
}

/// Encode the portable run configuration (cleaning cadence + sentinel
/// thresholds) as a section payload. Shared by the serial (v2) and
/// distributed (v3) dump formats so the knobs survive a restart.
pub fn encode_sim_config(c: &SimConfig) -> Vec<u8> {
    let s = &c.sentinel;
    let mut w = PayloadWriter::new();
    w.u32(1); // config payload layout version
    w.u64(c.clean_div_e_interval as u64);
    w.u64(c.clean_div_b_interval as u64);
    w.u64(s.health_interval);
    w.f64(s.max_energy_growth);
    w.f64(s.max_div_e_rms);
    w.f64(s.max_div_b_rms);
    w.f64(s.max_momentum);
    w.f64(s.max_particle_drift);
    w.u32(s.marder_passes);
    w.u32(s.max_marder_bursts);
    w.u32(s.recorder_len as u32);
    w.finish()
}

/// Decode a configuration section written by [`encode_sim_config`].
pub fn decode_sim_config(payload: &[u8]) -> Result<SimConfig, CheckpointError> {
    let mut r = PayloadReader::new(payload, "config");
    let layout = r.u32()?;
    if layout != 1 {
        return Err(CheckpointError::Malformed(format!(
            "unknown config layout {layout}"
        )));
    }
    let clean_div_e_interval = r.u64()? as usize;
    let clean_div_b_interval = r.u64()? as usize;
    let sentinel = SentinelConfig {
        health_interval: r.u64()?,
        max_energy_growth: r.f64()?,
        max_div_e_rms: r.f64()?,
        max_div_b_rms: r.f64()?,
        max_momentum: r.f64()?,
        max_particle_drift: r.f64()?,
        marder_passes: r.u32()?,
        max_marder_bursts: r.u32()?,
        recorder_len: r.u32()? as usize,
    };
    r.done()?;
    Ok(SimConfig {
        clean_div_e_interval,
        clean_div_b_interval,
        sentinel,
    })
}

/// Write a restart dump of `sim` to `w`.
pub fn save(sim: &Simulation, w: &mut impl Write) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    // Header section.
    let g = &sim.grid;
    let mut h = PayloadWriter::new();
    for v in [g.nx as u32, g.ny as u32, g.nz as u32] {
        h.u32(v);
    }
    for v in [g.dx, g.dy, g.dz, g.dt, g.cvac, g.eps0, g.x0, g.y0, g.z0] {
        h.f32(v);
    }
    for face in 0..6 {
        h.u32(bc_code(g.bc[face]));
    }
    h.u64(sim.step_count);
    write_section(w, &h.finish())?;
    write_section(w, &encode_fields(&sim.fields))?;
    write_section(w, &encode_species(&sim.species))?;
    write_section(w, &encode_sim_config(&sim.config()))?;
    Ok(())
}

/// Restore a simulation from a restart dump. `n_pipelines` is a runtime
/// choice and need not match the saving run.
pub fn load(r: &mut impl Read, n_pipelines: usize) -> Result<Simulation, CheckpointError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)
        .map_err(|_| CheckpointError::BadMagic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let mut vb = [0u8; 4];
    r.read_exact(&mut vb)
        .map_err(|_| CheckpointError::Truncated { section: "version" })?;
    let version = u32::from_le_bytes(vb);
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }

    let header = read_section(r, "header")?;
    let mut hr = PayloadReader::new(&header, "header");
    let nx = hr.u32()? as usize;
    let ny = hr.u32()? as usize;
    let nz = hr.u32()? as usize;
    // Plausibility bound before any grid-sized allocation happens.
    if nx == 0
        || ny == 0
        || nz == 0
        || nx > 1 << 16
        || ny > 1 << 16
        || nz > 1 << 16
        || (nx + 2).saturating_mul(ny + 2).saturating_mul(nz + 2) > 1 << 31
    {
        return Err(CheckpointError::Malformed(format!(
            "implausible grid dims {nx}x{ny}x{nz}"
        )));
    }
    let mut f9 = [0.0f32; 9];
    for v in &mut f9 {
        *v = hr.f32()?;
    }
    let mut bc = [ParticleBc::Periodic; 6];
    for b in &mut bc {
        *b = bc_from(hr.u32()?)?;
    }
    let step_count = hr.u64()?;
    hr.done()?;

    let mut grid = Grid::new((nx, ny, nz), (f9[0], f9[1], f9[2]), f9[3], bc);
    grid.cvac = f9[4];
    grid.eps0 = f9[5];
    grid.x0 = f9[6];
    grid.y0 = f9[7];
    grid.z0 = f9[8];

    let mut sim = Simulation::new(grid, n_pipelines);
    sim.step_count = step_count;
    let n = sim.grid.n_voxels();

    let fields_payload = read_section(r, "fields")?;
    let mut fields = FieldArray::new(&sim.grid);
    decode_fields(&fields_payload, n, &mut fields)?;
    sim.fields = fields;

    let species_payload = read_section(r, "species")?;
    for sp in decode_species(&species_payload, n)? {
        sim.add_species(sp);
    }
    let config_payload = read_section(r, "config")?;
    let config = decode_sim_config(&config_payload)?;
    sim.set_config(&config);
    Ok(sim)
}

/// [`load`], then convert every species to `layout`. The dump format is
/// canonical AoS regardless of the writer's layout, so any checkpoint
/// restores into either backend (and the restart is bit-identical either
/// way, since conversion is a lossless copy).
pub fn load_with_layout(
    r: &mut impl Read,
    n_pipelines: usize,
    layout: Layout,
) -> Result<Simulation, CheckpointError> {
    let mut sim = load(r, n_pipelines)?;
    sim.set_layout(layout);
    Ok(sim)
}

/// Chunk size for throttled writes: small enough that pacing sleeps are
/// fine-grained, large enough to amortise syscall cost.
const THROTTLE_CHUNK: usize = 64 * 1024;

/// The crash-safe file write every dump, sidecar and curve goes through:
/// `fill` a buffered `<file name>.tmp` beside `path`, fsync, rename. A
/// crash mid-write leaves the previous file (if any) untouched, and a
/// reader never observes a half-written one. The temp name keeps the full
/// file name, so siblings that differ only in extension (`ckpt_N.vpic`,
/// `ckpt_N.diag`) never share a temp file.
pub fn write_atomic<E: From<io::Error>>(
    path: &Path,
    fill: impl FnOnce(&mut io::BufWriter<std::fs::File>) -> Result<(), E>,
) -> Result<(), E> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut w = io::BufWriter::new(std::fs::File::create(&tmp)?);
    fill(&mut w)?;
    let file = w.into_inner().map_err(io::IntoInnerError::into_error)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// [`write_atomic`] of a pre-serialized buffer. When `throttle_bps` is
/// set the write is paced to at most that many bytes per second by
/// sleeping between 64 KiB chunks, bounding the instantaneous filesystem
/// bandwidth a checkpoint can steal from the rest of the machine.
pub fn write_bytes_atomic(path: &Path, bytes: &[u8], throttle_bps: Option<u64>) -> io::Result<()> {
    write_atomic(path, |w| match throttle_bps {
        None | Some(0) => w.write_all(bytes),
        Some(bps) => {
            for chunk in bytes.chunks(THROTTLE_CHUNK) {
                w.write_all(chunk)?;
                let pace = std::time::Duration::from_secs_f64(chunk.len() as f64 / bps as f64);
                std::thread::sleep(pace);
            }
            Ok(())
        }
    })
}

/// Atomically write a restart dump to `path` (see [`write_atomic`]).
pub fn save_to_path(sim: &Simulation, path: &Path) -> Result<(), CheckpointError> {
    write_atomic(path, |w| save(sim, w))
}

/// Load a restart dump from `path`.
pub fn load_from_path(path: &Path, n_pipelines: usize) -> Result<Simulation, CheckpointError> {
    let file = std::fs::File::open(path)?;
    let mut r = io::BufReader::new(file);
    load(&mut r, n_pipelines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxwellian::{load_uniform, Momentum};
    use crate::rng::Rng;

    fn make_sim() -> Simulation {
        let g = Grid::periodic((4, 4, 4), (0.25, 0.25, 0.25), 0.05);
        let mut sim = Simulation::new(g, 2);
        let mut e = Species::new("electron", -1.0, 1.0);
        let mut rng = Rng::seeded(17);
        load_uniform(
            &mut e,
            &sim.grid,
            &mut rng,
            1.0,
            16,
            Momentum::thermal(0.03),
        );
        sim.add_species(e);
        for _ in 0..3 {
            sim.step();
        }
        sim
    }

    #[test]
    fn roundtrip_preserves_state() {
        let sim = make_sim();
        let mut buf = Vec::new();
        save(&sim, &mut buf).unwrap();
        let restored = load(&mut buf.as_slice(), 4).unwrap();
        assert_eq!(restored.step_count, sim.step_count);
        assert_eq!(restored.species.len(), 1);
        assert_eq!(restored.species[0].name, "electron");
        assert_eq!(restored.species[0].store(), sim.species[0].store());
        assert_eq!(restored.fields.ex, sim.fields.ex);
        assert_eq!(restored.fields.cbz, sim.fields.cbz);
        assert_eq!(restored.grid.nx, sim.grid.nx);
        assert_eq!(restored.grid.dt, sim.grid.dt);
    }

    #[test]
    fn restart_continues_identically() {
        // A restored run must produce bit-identical physics to the
        // uninterrupted one (single pipeline for deterministic reduction).
        let g = Grid::periodic((4, 4, 4), (0.25, 0.25, 0.25), 0.05);
        let mut sim = Simulation::new(g, 1);
        let mut e = Species::new("e", -1.0, 1.0);
        let mut rng = Rng::seeded(23);
        load_uniform(&mut e, &sim.grid, &mut rng, 1.0, 8, Momentum::thermal(0.05));
        sim.add_species(e);
        for _ in 0..2 {
            sim.step();
        }
        let mut buf = Vec::new();
        save(&sim, &mut buf).unwrap();
        let mut restored = load(&mut buf.as_slice(), 1).unwrap();
        for _ in 0..3 {
            sim.step();
            restored.step();
        }
        assert_eq!(sim.species[0].store(), restored.species[0].store());
        assert_eq!(sim.fields.ex, restored.fields.ex);
    }

    #[test]
    fn dump_bytes_are_layout_independent_and_restore_into_either_layout() {
        // An AoSoA-resident run must write the exact same bytes as its AoS
        // twin (canonical AoS on disk), and any dump must restore into
        // either layout and continue bit-identically.
        let sim_aos = make_sim();
        let mut sim_soa = make_sim();
        sim_soa.set_layout(Layout::Aosoa);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        save(&sim_aos, &mut a).unwrap();
        save(&sim_soa, &mut b).unwrap();
        assert_eq!(a, b, "dump bytes depend on the in-memory layout");

        let mut into_aos = load_with_layout(&mut a.as_slice(), 1, Layout::Aos).unwrap();
        let mut into_soa = load_with_layout(&mut a.as_slice(), 1, Layout::Aosoa).unwrap();
        assert_eq!(into_aos.species[0].layout(), Layout::Aos);
        assert_eq!(into_soa.species[0].layout(), Layout::Aosoa);
        for _ in 0..3 {
            into_aos.step();
            into_soa.step();
        }
        assert_eq!(into_aos.species[0].store(), into_soa.species[0].store());
        assert_eq!(into_aos.fields.ex, into_soa.fields.ex);
        assert_eq!(into_aos.fields.cbz, into_soa.fields.cbz);
    }

    #[test]
    fn rejects_bad_magic() {
        match load(&mut &b"NOTADUMPxxxx"[..], 1) {
            Err(CheckpointError::BadMagic) => {}
            Err(e) => panic!("wrong error for bad magic: {e}"),
            Ok(_) => panic!("bad magic accepted"),
        }
    }

    #[test]
    fn rejects_unsupported_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"VPICRS02");
        buf.extend_from_slice(&99u32.to_le_bytes());
        match load(&mut buf.as_slice(), 1) {
            Err(CheckpointError::UnsupportedVersion(99)) => {}
            Err(e) => panic!("wrong error for future version: {e}"),
            Ok(_) => panic!("future version accepted"),
        }
    }

    #[test]
    fn rejects_truncated_dump() {
        let sim = make_sim();
        let mut buf = Vec::new();
        save(&sim, &mut buf).unwrap();
        for frac in [2, 3, 5] {
            let mut cut = buf.clone();
            cut.truncate(cut.len() / frac);
            match load(&mut cut.as_slice(), 1) {
                Err(CheckpointError::Truncated { .. })
                | Err(CheckpointError::CrcMismatch { .. }) => {}
                Err(e) => panic!("unexpected error for truncation: {e}"),
                Ok(_) => panic!("truncated dump accepted"),
            }
        }
    }

    #[test]
    fn detects_every_payload_bit_flip_region() {
        // Flip one byte in each section's payload: CRC must catch it.
        let sim = make_sim();
        let mut buf = Vec::new();
        save(&sim, &mut buf).unwrap();
        // Probe several positions spread across the dump (past the magic
        // and version words, which have their own checks).
        let n = buf.len();
        for pos in [16, n / 4, n / 2, (3 * n) / 4, n - 8] {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            assert!(
                load(&mut bad.as_slice(), 1).is_err(),
                "bit flip at byte {pos} of {n} went undetected"
            );
        }
    }

    #[test]
    fn delta_rle_roundtrips_structured_and_adversarial_payloads() {
        let sim = make_sim();
        let fields = encode_fields(&sim.fields);
        let species = encode_species(&sim.species);
        let mut patterned = Vec::new();
        for i in 0..4096u32 {
            patterned.extend_from_slice(&(i / 7).to_le_bytes());
        }
        // xorshift byte noise: the incompressible worst case.
        let mut x = 0x9E37_79B9u32;
        let noise: Vec<u8> = (0..2048)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        for payload in [
            &[] as &[u8],
            &[0u8; 3],
            &[7u8; 1],
            &vec![0u8; 4096][..],
            &fields,
            &species,
            &patterned,
            &noise,
        ] {
            let c = compress_delta_rle(payload);
            let back = decompress_delta_rle(&c, payload.len(), "test").unwrap();
            assert_eq!(
                back,
                payload,
                "roundtrip failed for {} bytes",
                payload.len()
            );
        }
    }

    #[test]
    fn delta_rle_shrinks_dump_payloads() {
        let sim = make_sim();
        let fields = encode_fields(&sim.fields);
        let cf = compress_delta_rle(&fields);
        let species = encode_species(&sim.species);
        let cs = compress_delta_rle(&species);
        eprintln!(
            "fields {} -> {}, species {} -> {}",
            fields.len(),
            cf.len(),
            species.len(),
            cs.len()
        );
        // Thermal-plasma fields are shot-noise dominated; only the zeroed
        // arrays, ghost planes and shared exponent bytes compress (and the
        // periodic ghost mirrors hold live copies, not zeros). Particle
        // records (constant weights, clustered momenta, sorted voxels) do
        // better.
        assert!(
            cf.len() < fields.len() * 23 / 25,
            "field section barely compressed: {} -> {}",
            fields.len(),
            cf.len()
        );
        assert!(
            cs.len() < species.len() * 4 / 5,
            "species section barely compressed: {} -> {}",
            species.len(),
            cs.len()
        );
    }

    #[test]
    fn decompress_rejects_garbage_without_panicking() {
        // Zero stride, bad tag, truncated literal, overrun, underrun,
        // unterminated varint.
        assert!(decompress_delta_rle(&[0x00, 0x01, 0x01, 7], 1, "t").is_err());
        assert!(decompress_delta_rle(&[0x04, 0x77, 0x01], 4, "t").is_err());
        assert!(decompress_delta_rle(&[0x04, 0x01, 0x08, 1, 2], 8, "t").is_err());
        assert!(decompress_delta_rle(&[0x04, 0x00, 0x7f], 4, "t").is_err());
        assert!(decompress_delta_rle(&[0x04, 0x00, 0x02], 4, "t").is_err());
        assert!(
            decompress_delta_rle(&[0x04, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff], 4, "t").is_err(),
            "unterminated varint accepted"
        );
        let mut x = 1u32;
        for len in [1usize, 7, 64, 513] {
            let junk: Vec<u8> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    (x >> 24) as u8
                })
                .collect();
            let _ = decompress_delta_rle(&junk, 256, "t"); // must not panic
        }
    }

    #[test]
    fn encoded_section_roundtrip_and_single_bit_flips_detected() {
        let sim = make_sim();
        let payload = encode_fields(&sim.fields);
        for compress in [false, true] {
            let mut buf = Vec::new();
            write_section_encoded(&mut buf, &payload, compress).unwrap();
            let back = read_section_encoded(&mut buf.as_slice(), "fields").unwrap();
            assert_eq!(back, payload);
            if compress {
                assert!(buf.len() < payload.len(), "compressed section not smaller");
            }
            // Every single-bit flip anywhere in the framing or body —
            // including the encoding byte and raw-length word, which the
            // CRC deliberately covers — must yield a typed error.
            for pos in 0..buf.len() {
                let mut bad = buf.clone();
                bad[pos] ^= 1;
                assert!(
                    read_section_encoded(&mut bad.as_slice(), "fields").is_err(),
                    "bit flip at byte {pos}/{} (compress={compress}) went undetected",
                    buf.len()
                );
            }
            // And every truncation.
            for cut in 0..buf.len() {
                assert!(
                    read_section_encoded(&mut &buf[..cut], "fields").is_err(),
                    "truncation to {cut}/{} (compress={compress}) accepted",
                    buf.len()
                );
            }
        }
    }

    #[test]
    fn atomic_path_roundtrip_and_no_tmp_left_behind() {
        let dir = std::env::temp_dir().join(format!("vpic_test_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.vpic");
        let sim = make_sim();
        save_to_path(&sim, &path).unwrap();
        assert!(!dir.join("dump.tmp").exists(), "temp file left behind");
        let restored = load_from_path(&path, 1).unwrap();
        assert_eq!(restored.species[0].store(), sim.species[0].store());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn throttled_write_paces_and_lands_intact() {
        let dir = std::env::temp_dir().join(format!("vpic_test_throttle_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bytes: Vec<u8> = (0..256 * 1024).map(|i| (i % 251) as u8).collect();
        let path = dir.join("throttled.vpic");
        let t0 = std::time::Instant::now();
        // 4 MiB/s over 256 KiB = at least ~62 ms of pacing sleeps.
        write_bytes_atomic(&path, &bytes, Some(4 * 1024 * 1024)).unwrap();
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= std::time::Duration::from_millis(50),
            "throttle did not pace the write: {elapsed:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A dump and its sidecar differ only in extension. The sidecar is
    /// written here while the dump's temp file is still open — the
    /// interleaving two writers of one generation can produce — so a temp
    /// name derived by replacing the extension would have the two writes
    /// clobber each other.
    #[test]
    fn atomic_writes_of_siblings_do_not_share_a_temp_file() {
        let dir = std::env::temp_dir().join(format!("vpic_test_siblings_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (dump, sidecar) = (dir.join("ckpt_7.vpic"), dir.join("ckpt_7.diag"));
        write_atomic(&dump, |w| {
            w.write_all(b"dump")?;
            write_bytes_atomic(&sidecar, b"sidecar", None)
        })
        .unwrap();
        assert_eq!(std::fs::read(&dump).unwrap(), b"dump");
        assert_eq!(std::fs::read(&sidecar).unwrap(), b"sidecar");
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(
            names,
            ["ckpt_7.diag", "ckpt_7.vpic"],
            "temp file left behind"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
