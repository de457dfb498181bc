//! Restart dumps: the one format every run writes, serial or rank.
//!
//! VPIC production runs at trillion-particle scale live or die by restart
//! dumps, so the reproduction carries the same capability — hardened. A
//! dump (little-endian, magic `VPICDUMP`, version 4) is the magic, a
//! version word and four sections in a fixed order — header, fields,
//! species, config — each in the encoded framing of
//! [`write_section_encoded`], closed by a CRC-32, so a truncated or
//! bit-flipped dump fails loudly with a typed [`CheckpointError`]. The
//! header names the seat the state belongs to: the local grid, the step
//! count, the particles that left through `Migrate` faces, the rank and
//! the world size. A serial [`Simulation`] is rank 0 of a 1-rank world,
//! so [`save`] writes byte for byte a 1-rank world's raw rank dump;
//! `vpic_parallel::dcheckpoint` fills in a rank's identity through
//! [`write_dump`] / [`read_dump`], and a dump offered to another seat is
//! refused. Phase timings are measurements, not state, and not dumped.
//!
//! Field and species sections are stored raw or, on request, through an
//! XOR-delta + zero-RLE compressor ([`compress_delta_rle`]), whichever is
//! smaller. A raw section streams to the writer under a running CRC, so
//! a dump never holds a second copy of the particles in memory.
//! [`save_to_path`] writes to a temporary file and renames it into place,
//! so a crash mid-dump never destroys the previous good checkpoint.
//! [`state_hash`] digests the fields and particles alone, so it tells a
//! change of dump bytes from a change of the simulated state.

use crate::cadence::{CadenceState, CoherenceCounters, PushTally, SortPolicy};
use crate::crc32::Crc32;
use crate::field::FieldArray;
use crate::grid::{Grid, ParticleBc};
use crate::particle::Particle;
use crate::sentinel::{SentinelConfig, SimConfig};
use crate::sim::Simulation;
use crate::species::Species;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

const MAGIC: &[u8; 8] = b"VPICDUMP";
const VERSION: u32 = 4;

/// Largest section payload this implementation will read (guards the
/// section-length word against corruption-driven allocation).
const MAX_SECTION: u64 = 1 << 32;

/// Typed checkpoint failure. Every load-path defect in the dump — wrong
/// file, wrong version, truncation, bit rot, a header that fails
/// plausibility, or a dump of another seat — maps to a distinct variant.
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
    /// The dump belongs to a different rank.
    RankMismatch {
        expected: u64,
        got: u64,
    },
    /// The dump was written by a world of a different size.
    WorldMismatch {
        expected: u64,
        got: u64,
    },
    /// The dump's local grid is not the restoring rank's grid under this
    /// run's decomposition.
    GridMismatch,
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
            CheckpointError::WorldMismatch { expected, got } => write!(
                f,
                "checkpoint was written by a {got}-rank world, not a {expected}-rank one"
            ),
            CheckpointError::GridMismatch => write!(
                f,
                "checkpoint's local grid is not this rank's under this run's decomposition"
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

/// Forwards every write to `inner`, keeping the running CRC-32 and byte
/// count of what went through.
struct CrcWriter<W> {
    inner: W,
    crc: Crc32,
    len: u64,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        self.len += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
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
/// byte-plane `shuffle`, an XOR-delta with the previous byte (after the
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
    write_section_filled(w, payload.len() as u64, compress, |s| s.write_all(payload))
}

/// [`write_section_encoded`] of the `len` payload bytes that `fill`
/// writes. Raw, they go to `w` as they come under a running CRC, so the
/// payload never exists whole in memory; compressed, it is materialised
/// once for the compressor. A `fill` that writes other than `len` bytes
/// is an error.
fn write_section_filled(
    w: &mut impl Write,
    len: u64,
    compress: bool,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(), CheckpointError> {
    if !compress {
        return write_framed(w, ENCODING_RAW, len, len, fill);
    }
    let mut payload = Vec::with_capacity(len as usize);
    fill(&mut payload)?;
    match compress_delta_rle(&payload) {
        c if c.len() < payload.len() && payload.len() as u64 == len => {
            write_framed(w, ENCODING_DELTA_RLE, len, c.len() as u64, |s| {
                s.write_all(&c)
            })
        }
        _ => write_framed(w, ENCODING_RAW, len, len, |s| s.write_all(&payload)),
    }
}

/// The encoded framing around the `stored_len` bytes that `fill` writes.
fn write_framed(
    w: &mut impl Write,
    encoding: u8,
    raw_len: u64,
    stored_len: u64,
    fill: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> Result<(), CheckpointError> {
    let head = [&[encoding][..], &raw_len.to_le_bytes()].concat();
    w.write_all(&stored_len.to_le_bytes())?;
    w.write_all(&head)?;
    let mut crc = Crc32::new();
    crc.update(&head);
    let mut counted = CrcWriter {
        inner: &mut *w,
        crc,
        len: 0,
    };
    fill(&mut counted)?;
    let (written, crc) = (counted.len, counted.crc.finish());
    if written != stored_len {
        return Err(CheckpointError::Malformed(format!(
            "section payload of {written} bytes declared as {stored_len}"
        )));
    }
    w.write_all(&crc.to_le_bytes())?;
    Ok(())
}

/// Read one section written by [`write_section_encoded`], verifying the
/// CRC before decompressing and bounding both lengths against
/// `MAX_SECTION`.
pub fn read_section_encoded(
    r: &mut impl Read,
    section: &'static str,
) -> Result<Vec<u8>, CheckpointError> {
    let truncated = |_| CheckpointError::Truncated { section };
    // Stored length, then the CRC-covered encoding byte and raw length.
    let mut head = [0u8; 17];
    r.read_exact(&mut head).map_err(truncated)?;
    let word = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
    let (stored_len, raw_len) = (word(0), word(9));
    if stored_len > MAX_SECTION || raw_len > MAX_SECTION {
        return Err(CheckpointError::Malformed(format!(
            "section `{section}` declares implausible length (stored {stored_len}, raw {raw_len})"
        )));
    }
    let mut stored = Vec::new();
    if r.take(stored_len).read_to_end(&mut stored)? as u64 != stored_len {
        return Err(CheckpointError::Truncated { section });
    }
    let mut crc_bytes = [0u8; 4];
    r.read_exact(&mut crc_bytes).map_err(truncated)?;
    let expected = u32::from_le_bytes(crc_bytes);
    let mut crc = Crc32::new();
    crc.update(&head[8..]);
    crc.update(&stored);
    let got = crc.finish();
    if got != expected {
        return Err(CheckpointError::CrcMismatch {
            section,
            expected,
            got,
        });
    }
    match head[8] {
        ENCODING_RAW if stored_len == raw_len => Ok(stored),
        ENCODING_RAW => Err(CheckpointError::Malformed(format!(
            "raw section `{section}` stored {stored_len} bytes but declares {raw_len}"
        ))),
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

    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
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
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    pub fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
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
        let raw = self.bytes(4 * n)?;
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

/// Face boundary conditions by their code in the header (the index).
const BC_CODES: [ParticleBc; 4] = [
    ParticleBc::Periodic,
    ParticleBc::Reflect,
    ParticleBc::Absorb,
    ParticleBc::Migrate,
];

/// The ten field arrays in section order.
fn field_arrays(f: &FieldArray) -> [&Vec<f32>; 10] {
    [
        &f.ex, &f.ey, &f.ez, &f.cbx, &f.cby, &f.cbz, &f.jx, &f.jy, &f.jz, &f.rho,
    ]
}

/// Write `records` of `N` words each, little-endian, 64 KiB at a time:
/// the one buffer a streamed section goes through, so the running CRC
/// sees large writes, and `w` too, whatever `w` is (a buffered file
/// passes writes larger than its buffer straight through).
fn write_records<const N: usize>(
    w: &mut dyn Write,
    records: impl IntoIterator<Item = [u32; N]>,
) -> io::Result<()> {
    let mut bytes = vec![0u8; 64 * 1024];
    let mut at = 0;
    for record in records {
        if at + 4 * N > bytes.len() {
            w.write_all(&bytes[..at])?;
            at = 0;
        }
        for (to, v) in bytes[at..at + 4 * N].chunks_exact_mut(4).zip(record) {
            to.copy_from_slice(&v.to_le_bytes());
        }
        at += 4 * N;
    }
    w.write_all(&bytes[..at])
}

/// The bytes of [`encode_fields`], written to `w` as they are produced.
fn encode_fields_into(f: &FieldArray, w: &mut dyn Write) -> io::Result<()> {
    for arr in field_arrays(f) {
        w.write_all(&(arr.len() as u64).to_le_bytes())?;
        write_records(w, arr.iter().map(|v| [v.to_bits()]))?;
    }
    Ok(())
}

/// How many bytes [`encode_fields`] makes of `f`.
fn fields_payload_len(f: &FieldArray) -> u64 {
    field_arrays(f).iter().map(|a| 8 + 4 * a.len() as u64).sum()
}

/// Encode the ten field arrays as one section payload (each a `u64`
/// length, then its values).
pub fn encode_fields(f: &FieldArray) -> Vec<u8> {
    let mut out = Vec::with_capacity(fields_payload_len(f) as usize);
    encode_fields_into(f, &mut out).expect("writes to a Vec cannot fail");
    out
}

/// Decode a fields section payload (every array must have exactly `n`
/// entries).
fn decode_fields(payload: &[u8], n: usize) -> Result<FieldArray, CheckpointError> {
    let mut r = PayloadReader::new(payload, "fields");
    let mut next = || r.f32_vec(n);
    let fields = FieldArray {
        ex: next()?,
        ey: next()?,
        ez: next()?,
        cbx: next()?,
        cby: next()?,
        cbz: next()?,
        jx: next()?,
        jy: next()?,
        jz: next()?,
        rho: next()?,
    };
    r.done()?;
    Ok(fields)
}

/// One particle as its canonical record: eight little-endian words,
/// whatever the blocks in memory look like.
fn particle_words(p: Particle) -> [u32; 8] {
    [
        p.dx.to_bits(),
        p.dy.to_bits(),
        p.dz.to_bits(),
        p.i,
        p.ux.to_bits(),
        p.uy.to_bits(),
        p.uz.to_bits(),
        p.w.to_bits(),
    ]
}

/// CRC-32 of the simulated state alone: the live `E`, `cB` and `J`
/// arrays (ghosts included), then every species' particle records in
/// store order. No header, cadence, config or framing goes in, so a
/// change of dump format never moves it; only a change of the computed
/// bits does.
pub fn state_hash(fields: &FieldArray, species: &[Species]) -> u32 {
    let mut h = CrcWriter {
        inner: io::sink(),
        crc: Crc32::new(),
        len: 0,
    };
    // All but `rho`, the last array, which only diagnostics fill.
    for arr in &field_arrays(fields)[..9] {
        write_records(&mut h, arr.iter().map(|v| [v.to_bits()])).expect("a sink cannot fail");
    }
    for sp in species {
        write_records(&mut h, sp.iter().map(particle_words)).expect("a sink cannot fail");
    }
    h.crc.finish()
}

/// Encode a species list as one section payload: the species count, then
/// per species its record (`species_record`) and its particles.
pub fn encode_species(species: &[Species]) -> Vec<u8> {
    let mut out = Vec::with_capacity(species_payload_len(species) as usize);
    encode_species_into(species, &mut out).expect("writes to a Vec cannot fail");
    out
}

/// The bytes of [`encode_species`], written to `w` as they are produced.
fn encode_species_into(species: &[Species], w: &mut dyn Write) -> io::Result<()> {
    w.write_all(&(species.len() as u32).to_le_bytes())?;
    for sp in species {
        w.write_all(&species_record(sp))?;
        write_records(w, sp.iter().map(particle_words))?;
    }
    Ok(())
}

/// How many bytes [`encode_species`] makes of `species`.
fn species_payload_len(species: &[Species]) -> u64 {
    let each = |sp: &Species| species_record(sp).len() as u64 + 32 * sp.len() as u64;
    4 + species.iter().map(each).sum::<u64>()
}

/// One species' record in the species section, up to and including its
/// particle count.
fn species_record(sp: &Species) -> Vec<u8> {
    let mut p = PayloadWriter::default();
    let name = sp.name.as_bytes();
    p.u32(name.len() as u32);
    p.bytes(name);
    p.f32(sp.q);
    p.f32(sp.m);
    // Sort policy + cadence-controller state + the kernel-independent
    // coherence counters: the controller's decisions must replay
    // bit-identically after a resume or rollback, so everything that
    // feeds a decision rides the dump (the EWMA rate as raw f64 bits
    // through `f64`). The lane-telemetry counters (lane blocks/spills,
    // mixed blocks, straddled lanes) describe which kernel executed,
    // not the physics — persisting them would make dump bytes differ
    // across kernels, breaking the canonical-AoS fingerprint contract.
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
    p.u64(sp.len() as u64);
    p.finish()
}

/// Decode a species section payload; every particle's voxel must be below
/// `n_voxels`.
fn decode_species(payload: &[u8], n_voxels: usize) -> Result<Vec<Species>, CheckpointError> {
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
        let policy = match (r.u32()?, r.u32()?) {
            (0, n) => SortPolicy::Fixed(n),
            (1, _) => SortPolicy::Auto,
            (other, _) => {
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
        let count = r.u64()?;
        let mut sp = Species::new(name, q, m).with_sort_policy(policy);
        decode_particles(&mut r, count, n_voxels, &mut sp)?;
        sp.set_cadence(cad);
        sp.set_coherence(counters);
        out.push(sp);
    }
    r.done()?;
    Ok(out)
}

/// Decode `count` 32-byte particle records into `sp`, whole blocks over
/// the pool ([`AosoaStore::extend_par`](crate::AosoaStore::extend_par)).
/// The errors are a serial read's: the lowest-index particle whose voxel
/// is not below `n_voxels` is `Malformed`, else a record cut short is
/// `Truncated`. A corrupted count costs no more than the payload holds.
fn decode_particles(
    r: &mut PayloadReader<'_>,
    count: u64,
    n_voxels: usize,
    sp: &mut Species,
) -> Result<(), CheckpointError> {
    const RECORD: usize = 32;
    let whole = (r.remaining() / RECORD).min(count.try_into().unwrap_or(usize::MAX));
    let records = r.bytes(whole * RECORD)?;
    let first_bad = AtomicUsize::new(usize::MAX);
    sp.store_mut().extend_par(
        whole,
        |range, sink| {
            let word = |at: usize| {
                u32::from_le_bytes(records[at..at + 4].try_into().expect("a 4-byte slice"))
            };
            for n in range {
                let at = n * RECORD;
                let f = |k: usize| f32::from_bits(word(at + 4 * k));
                let i = word(at + 12);
                if i as usize >= n_voxels {
                    first_bad.fetch_min(n, Ordering::Relaxed);
                }
                sink.put(Particle {
                    dx: f(0),
                    dy: f(1),
                    dz: f(2),
                    i,
                    ux: f(4),
                    uy: f(5),
                    uz: f(6),
                    w: f(7),
                });
            }
        },
        || {},
    );
    let bad = first_bad.into_inner();
    if bad != usize::MAX {
        return Err(CheckpointError::Malformed(format!(
            "particle voxel {} out of range (< {n_voxels})",
            sp.store().voxel(bad)
        )));
    }
    if (whole as u64) < count {
        return Err(CheckpointError::Truncated { section: r.section });
    }
    Ok(())
}

/// Encode the portable run configuration (cleaning cadence + sentinel
/// thresholds) as the config section's payload, so the knobs survive a
/// restart.
fn encode_sim_config(c: &SimConfig) -> Vec<u8> {
    let s = &c.sentinel;
    let mut w = PayloadWriter::default();
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

/// Decode a configuration section written by `encode_sim_config`.
fn decode_sim_config(payload: &[u8]) -> Result<SimConfig, CheckpointError> {
    let mut r = PayloadReader::new(payload, "config");
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

/// One seat's state, borrowed for [`write_dump`]: rank `rank` of a
/// `world`-rank run (a serial run is rank 0 of 1) on its local `grid`.
pub struct DumpRef<'a> {
    pub grid: &'a Grid,
    pub rank: usize,
    pub world: usize,
    pub step_count: u64,
    /// Particles that left through `Migrate` faces: a serial run's
    /// `lost_particles`, a rank's `migrated`.
    pub left: u64,
    pub fields: &'a FieldArray,
    pub species: &'a [Species],
    pub config: SimConfig,
}

/// A dump as [`read_dump`] returns it (fields as in [`DumpRef`]).
pub struct Dump {
    pub grid: Grid,
    pub step_count: u64,
    pub left: u64,
    pub fields: FieldArray,
    pub species: Vec<Species>,
    pub config: SimConfig,
}

/// The header's grid part: cells, spacing, `dt`, `cvac`, `eps0`, origin
/// and the six face boundary conditions.
fn encode_grid(g: &Grid) -> Vec<u8> {
    let mut h = PayloadWriter::default();
    [g.nx, g.ny, g.nz].iter().for_each(|&n| h.u32(n as u32));
    let geometry = [g.dx, g.dy, g.dz, g.dt, g.cvac, g.eps0, g.x0, g.y0, g.z0];
    geometry.iter().for_each(|&v| h.f32(v));
    for b in g.bc {
        h.u32(
            BC_CODES
                .iter()
                .position(|&c| c == b)
                .expect("every BC has a code") as u32,
        );
    }
    h.finish()
}

/// Decode [`encode_grid`]'s bytes, refused as `Malformed` unless the grid
/// is plausible: cells bounded before any grid-sized allocation happens,
/// spacing and `dt` finite and positive.
fn decode_grid(h: &mut PayloadReader<'_>) -> Result<Grid, CheckpointError> {
    let (nx, ny, nz) = (h.u32()? as usize, h.u32()? as usize, h.u32()? as usize);
    let mut v = [0.0f32; 9];
    for x in &mut v {
        *x = h.f32()?;
    }
    let mut bc = [ParticleBc::Periodic; 6];
    for b in &mut bc {
        let code = h.u32()?;
        *b = *BC_CODES
            .get(code as usize)
            .ok_or_else(|| CheckpointError::Malformed(format!("bad boundary code {code}")))?;
    }
    let cells = [nx, ny, nz];
    if cells.iter().any(|&n| n == 0 || n > 1 << 16)
        || (nx + 2).saturating_mul(ny + 2).saturating_mul(nz + 2) > 1 << 31
        || !v[..4].iter().all(|x| x.is_finite() && *x > 0.0)
    {
        return Err(CheckpointError::Malformed(format!(
            "implausible grid: cells {cells:?}, spacing and dt {:?}",
            &v[..4]
        )));
    }
    let mut g = Grid::new((nx, ny, nz), (v[0], v[1], v[2]), v[3], bc);
    [g.cvac, g.eps0, g.x0, g.y0, g.z0] = [v[4], v[5], v[6], v[7], v[8]];
    Ok(g)
}

/// Write the dump of `d`: magic, version, then the header, fields,
/// species and config sections. With `compress` the field and species
/// sections may be delta+RLE compressed (the load path is the same);
/// without, they stream.
pub fn write_dump(
    w: &mut impl Write,
    d: &DumpRef<'_>,
    compress: bool,
) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let mut h = PayloadWriter::default();
    h.bytes(&encode_grid(d.grid));
    h.u64(d.step_count);
    h.u64(d.left);
    h.u32(d.rank as u32);
    h.u32(d.world as u32);
    write_section_encoded(w, &h.finish(), false)?;
    let (fields, species) = (d.fields, d.species);
    write_section_filled(w, fields_payload_len(fields), compress, |s| {
        encode_fields_into(fields, s)
    })?;
    write_section_filled(w, species_payload_len(species), compress, |s| {
        encode_species_into(species, s)
    })?;
    write_section_encoded(w, &encode_sim_config(&d.config), false)
}

/// Read a dump for rank `rank` of a `world`-rank run. The header must
/// name that seat and, when `grid` is given (a rank's local grid under
/// the run's decomposition), that grid; without it the dump's own grid is
/// taken (a serial run). A header is refused before any later section is
/// read.
pub fn read_dump(
    r: &mut impl Read,
    rank: usize,
    world: usize,
    grid: Option<&Grid>,
) -> Result<Dump, CheckpointError> {
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

    let header = read_section_encoded(r, "header")?;
    let mut h = PayloadReader::new(&header, "header");
    let dump_grid = decode_grid(&mut h)?;
    let (step_count, left) = (h.u64()?, h.u64()?);
    let (got_rank, got_world) = (h.u32()? as u64, h.u32()? as u64);
    h.done()?;
    if got_world != world as u64 {
        return Err(CheckpointError::WorldMismatch {
            expected: world as u64,
            got: got_world,
        });
    }
    if got_rank != rank as u64 {
        return Err(CheckpointError::RankMismatch {
            expected: rank as u64,
            got: got_rank,
        });
    }
    if grid.is_some_and(|g| encode_grid(g) != encode_grid(&dump_grid)) {
        return Err(CheckpointError::GridMismatch);
    }

    let n = dump_grid.n_voxels();
    Ok(Dump {
        fields: decode_fields(&read_section_encoded(r, "fields")?, n)?,
        species: decode_species(&read_section_encoded(r, "species")?, n)?,
        config: decode_sim_config(&read_section_encoded(r, "config")?)?,
        grid: dump_grid,
        step_count,
        left,
    })
}

/// Write a restart dump of `sim` to `w`: the rank dump of rank 0 of a
/// 1-rank world, raw. The config section carries the cleaning cadence
/// and a disabled sentinel, which the serial driver never runs.
pub fn save(sim: &Simulation, w: &mut impl Write) -> Result<(), CheckpointError> {
    let config = SimConfig {
        clean_div_e_interval: sim.clean_div_e_interval,
        clean_div_b_interval: sim.clean_div_b_interval,
        sentinel: SentinelConfig::default(),
    };
    let d = DumpRef {
        grid: &sim.grid,
        rank: 0,
        world: 1,
        step_count: sim.step_count,
        left: sim.lost_particles,
        fields: &sim.fields,
        species: &sim.species,
        config,
    };
    write_dump(w, &d, false)
}

/// Restore a simulation from a restart dump of rank 0 of a 1-rank world.
/// `n_pipelines` is a runtime choice and need not match the saving run.
pub fn load(r: &mut impl Read, n_pipelines: usize) -> Result<Simulation, CheckpointError> {
    let d = read_dump(r, 0, 1, None)?;
    let mut sim = Simulation::new(d.grid, n_pipelines);
    sim.step_count = d.step_count;
    sim.lost_particles = d.left;
    sim.fields = d.fields;
    for sp in d.species {
        sim.add_species(sp);
    }
    sim.clean_div_e_interval = d.config.clean_div_e_interval;
    sim.clean_div_b_interval = d.config.clean_div_b_interval;
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

    /// A small thermal plasma stepped three times.
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
        // uninterrupted one. Inputs: (pipelines, clean ∇·E every, clean
        // ∇·B every, sort policy, sorts performed). The second one
        // Marder-cleans E at steps 4 and 6, B at 3 and 6, and sorts at
        // step 3, all after the restart at step 2, so the dumped
        // `SimConfig` and cadence state must carry them.
        for (pipelines, clean_e, clean_b, sort, sorts) in [
            (1, 0, 0, SortPolicy::default(), 0),
            (2, 2, 3, SortPolicy::Fixed(3), 1),
        ] {
            let g = Grid::periodic((4, 4, 4), (0.25, 0.25, 0.25), 0.05);
            let mut sim = Simulation::new(g, pipelines);
            sim.clean_div_e_interval = clean_e;
            sim.clean_div_b_interval = clean_b;
            let mut e = Species::new("e", -1.0, 1.0).with_sort_policy(sort);
            let mut rng = Rng::seeded(23);
            load_uniform(&mut e, &sim.grid, &mut rng, 1.0, 8, Momentum::thermal(0.05));
            sim.add_species(e);
            for _ in 0..2 {
                sim.step();
            }
            let mut buf = Vec::new();
            save(&sim, &mut buf).unwrap();
            let mut restored = load(&mut buf.as_slice(), pipelines).unwrap();
            for _ in 0..4 {
                sim.step();
                restored.step();
            }
            let case = format!("pipelines {pipelines}, clean {clean_e}/{clean_b}");
            assert_eq!(
                sim.species[0].store(),
                restored.species[0].store(),
                "{case}"
            );
            assert_eq!(restored.species[0].coherence().sorts, sorts, "{case}");
            let (a, b) = (&sim.fields, &restored.fields);
            for (name, x, y) in [
                ("ex", &a.ex, &b.ex),
                ("ey", &a.ey, &b.ey),
                ("ez", &a.ez, &b.ez),
                ("cbx", &a.cbx, &b.cbx),
                ("cby", &a.cby, &b.cby),
                ("cbz", &a.cbz, &b.cbz),
                ("jx", &a.jx, &b.jx),
                ("jy", &a.jy, &b.jy),
                ("jz", &a.jz, &b.jz),
            ] {
                assert_eq!(x, y, "{name}, {case}");
            }
        }
    }

    /// The state hash reads the fields and particles only: a dump round
    /// trip, the cleaning cadence, the sort cadence and `rho` leave it; one
    /// flipped bit of `J` or one more particle moves it.
    #[test]
    fn state_hash_sees_the_state_and_nothing_else() {
        let mut sim = make_sim();
        let hash = |sim: &Simulation| state_hash(&sim.fields, &sim.species);
        let h = hash(&sim);
        let mut buf = Vec::new();
        save(&sim, &mut buf).unwrap();
        assert_eq!(hash(&load(&mut buf.as_slice(), 3).unwrap()), h);
        sim.clean_div_e_interval = 7;
        sim.species[0].set_cadence(CadenceState::new(SortPolicy::Fixed(9)));
        sim.fields.rho[1] = 1.0;
        assert_eq!(hash(&sim), h);
        sim.fields.jz[5] = f32::from_bits(sim.fields.jz[5].to_bits() ^ 1);
        let flipped = hash(&sim);
        assert_ne!(flipped, h);
        sim.species[0].push(Particle::default());
        assert_ne!(hash(&sim), flipped);
    }

    /// The pooled particle decode returns a serial read's store bytes and
    /// errors: the lowest bad voxel wins over a later one and over a cut
    /// record, at any worker count.
    #[test]
    fn species_decode_is_a_serial_read_at_any_width() {
        let mut sp = Species::new("e", -1.0, 1.0);
        for n in 0..2_501u32 {
            sp.push(Particle {
                dx: n as f32 * 1e-4,
                i: n % 64,
                uz: -(n as f32),
                w: 0.5,
                ..Particle::default()
            });
        }
        let payload = encode_species(std::slice::from_ref(&sp));
        let at = |n: usize| payload.len() - 32 * (sp.len() - n);
        let mut bad = payload.clone();
        for (n, voxel) in [(2_100, 900u32), (1_500, 700)] {
            bad[at(n) + 12..at(n) + 16].copy_from_slice(&voxel.to_le_bytes());
        }
        let cut_bad = &bad[..at(2_300) + 20];
        let cut = &payload[..at(2_300) + 20];
        for threads in [1, 2, 4] {
            crate::with_worker_threads(threads, || {
                let got = decode_species(&payload, 64).unwrap();
                assert_eq!(
                    format!("{:?}", got[0].store().blocks),
                    format!("{:?}", sp.store().blocks),
                    "{threads} threads"
                );
                for bytes in [&bad[..], cut_bad] {
                    match decode_species(bytes, 64) {
                        Err(CheckpointError::Malformed(m)) => {
                            assert_eq!(m, "particle voxel 700 out of range (< 64)")
                        }
                        other => panic!("{threads} threads: {:?}", other.map(|_| ())),
                    }
                }
                assert!(matches!(
                    decode_species(cut, 64),
                    Err(CheckpointError::Truncated { section: "species" })
                ));
            });
        }
    }

    #[test]
    fn rejects_bad_magic() {
        // Old v2 (serial) and v3 (rank) dumps are not read: dumps are
        // restart files, not archives.
        for (magic, version) in [(b"NOTADUMP", 0u32), (b"VPICRS02", 2), (b"VPICRD03", 3)] {
            let old = [&magic[..], &version.to_le_bytes(), &[0u8; 64]].concat();
            match load(&mut old.as_slice(), 1) {
                Err(CheckpointError::BadMagic) => {}
                Err(e) => panic!("wrong error for bad magic: {e}"),
                Ok(_) => panic!("bad magic accepted"),
            }
        }
    }

    #[test]
    fn rejects_unsupported_version() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
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

    /// `lens.len()` species of `lens[k]` random particles each, with
    /// either sort policy and names of different lengths.
    fn species_list(lens: &[usize], seed: u64) -> Vec<Species> {
        let mut rng = Rng::seeded(seed);
        let mut f = |lo: f64, hi: f64| rng.uniform_in(lo, hi) as f32;
        lens.iter()
            .enumerate()
            .map(|(k, &n)| {
                let policy = [SortPolicy::Auto, SortPolicy::Fixed(k as u32)][k % 2];
                let mut sp =
                    Species::new("s".repeat(k + 1), -1.0, 1.0 + k as f32).with_sort_policy(policy);
                for v in 0..n {
                    sp.push(Particle {
                        dx: f(-1.0, 1.0),
                        dy: f(-1.0, 1.0),
                        dz: f(-1.0, 1.0),
                        i: (v * 7919 % 1000) as u32,
                        ux: f(-3.0, 3.0),
                        uy: f(-3.0, 3.0),
                        uz: f(-3.0, 3.0),
                        w: f(0.5, 2.0),
                    });
                }
                sp
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The filled species and field sections, raw (streamed) and
        /// compressed, are byte for byte the materialised payloads framed
        /// whole: no species, empty and ragged ones (lengths off the
        /// 8-lane blocks), payloads from a few bytes to dozens of 64 KiB
        /// write buffers.
        #[test]
        fn streamed_sections_are_the_materialised_bytes(
            lens in proptest::collection::vec(0usize..6000, 0usize..4),
            tail in 0usize..crate::aosoa::LANES,
            seed in 0u64..u64::MAX,
            cells in (1usize..12, 1usize..9, 1usize..7),
        ) {
            let mut lens = lens;
            lens.push(tail);
            let species = species_list(&lens, seed);
            let g = Grid::periodic(cells, (0.25, 0.25, 0.25), 0.05);
            let mut fields = FieldArray::new(&g);
            let mut rng = Rng::seeded(seed ^ 1);
            for (v, x) in fields.ex.iter_mut().enumerate() {
                *x = rng.normal() as f32 * v as f32;
            }
            for compress in [false, true] {
                let (mut filled, mut whole) = (Vec::new(), Vec::new());
                write_section_filled(&mut filled, species_payload_len(&species), compress, |s| {
                    encode_species_into(&species, s)
                })
                .unwrap();
                write_section_encoded(&mut whole, &encode_species(&species), compress).unwrap();
                proptest::prop_assert!(filled == whole, "species, compress {}", compress);

                let (mut filled, mut whole) = (Vec::new(), Vec::new());
                write_section_filled(&mut filled, fields_payload_len(&fields), compress, |s| {
                    encode_fields_into(&fields, s)
                })
                .unwrap();
                write_section_encoded(&mut whole, &encode_fields(&fields), compress).unwrap();
                proptest::prop_assert!(filled == whole, "fields, compress {}", compress);
            }
        }
    }

    #[test]
    fn a_stream_that_misses_its_declared_length_is_an_error() {
        for (len, wrote) in [(8u64, &b"1234567"[..]), (8, b"123456789")] {
            let mut out = Vec::new();
            let r = write_section_filled(&mut out, len, false, |s| s.write_all(wrote));
            assert!(matches!(r, Err(CheckpointError::Malformed(_))), "{r:?}");
        }
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
