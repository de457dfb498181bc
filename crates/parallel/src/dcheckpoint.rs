//! Distributed restart dumps: each rank serializes its own domain
//! (fields and species) with a topology header, so a run can be stopped
//! and resumed
//! with the same decomposition — how VPIC's trillion-particle campaigns
//! survived Roadrunner's mean time between interrupts.
//!
//! The v3 format (magic `VPICRD03`) reuses the hardened section framing
//! from `vpic_core::checkpoint`: after the magic and version words, the
//! header is a plain length-prefixed CRC-32-checked section, while the
//! field and species payloads go through the *encoded* section framing,
//! which can byte-shuffle + delta + RLE-compress the payload when that
//! makes it smaller. Truncation and bit rot are detected at load time
//! with a typed [`CheckpointError`]. Dumps reach disk through
//! `vpic_core::checkpoint`'s atomic write (temp file, fsync, rename),
//! keeping the previous good dump intact if the run dies mid-write.

use crate::decomposition::DomainSpec;
use crate::dsim::DistributedSim;
use std::io::{self, Read, Write};
use std::path::Path;
use vpic_core::checkpoint::{
    decode_fields, decode_sim_config, decode_species, encode_fields, encode_sim_config,
    encode_species, read_section, read_section_encoded, write_bytes_atomic, write_section,
    write_section_encoded, CheckpointError, PayloadReader, PayloadWriter,
};

const MAGIC: &[u8; 8] = b"VPICRD03";
const VERSION: u32 = 3;

/// Serialize one rank's state with compression enabled. The `spec` is
/// *not* written (the restart must be constructed with the same
/// [`DomainSpec`]); a fingerprint of it is stored and checked so
/// mismatched restarts fail loudly.
pub fn save_rank(sim: &DistributedSim, w: &mut impl Write) -> Result<(), CheckpointError> {
    save_rank_with(sim, w, true)
}

/// Serialize one rank's state, choosing whether the field and species
/// sections may be delta+RLE compressed (`compress = false` forces raw
/// encoding; either way the load path is identical).
pub fn save_rank_with(
    sim: &DistributedSim,
    w: &mut impl Write,
    compress: bool,
) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let mut h = PayloadWriter::new();
    h.u32(sim.rank as u32);
    h.u64(spec_fingerprint(&sim.spec));
    h.u64(sim.step_count);
    h.u64(sim.migrated);
    write_section(w, &h.finish())?;
    write_section_encoded(w, &encode_fields(&sim.fields), compress)?;
    write_section_encoded(w, &encode_species(&sim.species), compress)?;
    write_section(w, &encode_sim_config(&sim.config))?;
    Ok(())
}

/// Serialize one rank's state to an in-memory buffer, for callers that
/// cache the newest validated dump or throttle the disk write separately
/// (see [`write_bytes_atomic`]).
pub fn dump_rank_bytes(sim: &DistributedSim, compress: bool) -> Result<Vec<u8>, CheckpointError> {
    let mut buf = Vec::new();
    save_rank_with(sim, &mut buf, compress)?;
    Ok(buf)
}

/// Restore one rank from a dump made with the same `spec` and rank id.
pub fn load_rank(
    spec: DomainSpec,
    rank: usize,
    n_pipelines: usize,
    r: &mut impl Read,
) -> Result<DistributedSim, CheckpointError> {
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
    let saved_rank = hr.u32()? as u64;
    if saved_rank != rank as u64 {
        return Err(CheckpointError::RankMismatch {
            expected: rank as u64,
            got: saved_rank,
        });
    }
    let fp = hr.u64()?;
    let expected_fp = spec_fingerprint(&spec);
    if fp != expected_fp {
        return Err(CheckpointError::SpecMismatch {
            expected: expected_fp,
            got: fp,
        });
    }
    let step_count = hr.u64()?;
    let migrated = hr.u64()?;
    hr.done()?;

    let mut sim = DistributedSim::new(spec, rank, n_pipelines);
    sim.step_count = step_count;
    sim.migrated = migrated;
    let n = sim.grid.n_voxels();

    let fields_payload = read_section_encoded(r, "fields")?;
    decode_fields(&fields_payload, n, &mut sim.fields)?;

    let species_payload = read_section_encoded(r, "species")?;
    for sp in decode_species(&species_payload, n)? {
        sim.add_species(sp);
    }

    let config_payload = read_section(r, "config")?;
    sim.config = decode_sim_config(&config_payload)?;
    Ok(sim)
}

/// Atomically write one rank's restart dump to `path`.
pub fn save_rank_to_path(sim: &DistributedSim, path: &Path) -> Result<(), CheckpointError> {
    let bytes = dump_rank_bytes(sim, true)?;
    Ok(write_bytes_atomic(path, &bytes, None)?)
}

/// Load one rank's restart dump from `path`.
pub fn load_rank_from_path(
    spec: DomainSpec,
    rank: usize,
    n_pipelines: usize,
    path: &Path,
) -> Result<DistributedSim, CheckpointError> {
    let file = std::fs::File::open(path)?;
    let mut r = io::BufReader::new(file);
    load_rank(spec, rank, n_pipelines, &mut r)
}

/// Cheap structural fingerprint of a [`DomainSpec`] (FNV over its fields).
pub fn spec_fingerprint(spec: &DomainSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    mix(spec.global_cells.0 as u64);
    mix(spec.global_cells.1 as u64);
    mix(spec.global_cells.2 as u64);
    mix(spec.cell.0.to_bits() as u64);
    mix(spec.cell.1.to_bits() as u64);
    mix(spec.cell.2.to_bits() as u64);
    mix(spec.dt.to_bits() as u64);
    for d in spec.topo.dims {
        mix(d as u64);
    }
    for p in spec.topo.periodic {
        mix(p as u64);
    }
    for bc in spec.global_bc {
        mix(bc as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpic_core::maxwellian::Momentum;
    use vpic_core::species::Species;

    fn spec() -> DomainSpec {
        DomainSpec::periodic((8, 4, 4), (0.25, 0.25, 0.25), 0.1, 2)
    }

    /// A 2-rank world with a few steps of real plasma history on each rank.
    fn make_dumps() -> Vec<Vec<u8>> {
        let (results, _) = nanompi::run_expect(2, |comm| {
            let mut sim = DistributedSim::new(spec(), comm.rank(), 1);
            let si = sim.add_species(Species::new("e", -1.0, 1.0));
            sim.load_uniform(si, 3, 1.0, 8, Momentum::thermal(0.08));
            for _ in 0..4 {
                sim.step(comm).unwrap();
            }
            let mut dump = Vec::new();
            save_rank(&sim, &mut dump).unwrap();
            dump
        });
        results
    }

    #[test]
    fn distributed_restart_continues_identically() {
        // Run 2 ranks, checkpoint mid-flight, restore, and verify the
        // restored world produces identical state to the uninterrupted one.
        let (results, _) = nanompi::run_expect(2, |comm| {
            let mut sim = DistributedSim::new(spec(), comm.rank(), 1);
            let si = sim.add_species(Species::new("e", -1.0, 1.0));
            sim.load_uniform(si, 3, 1.0, 8, Momentum::thermal(0.08));
            for _ in 0..4 {
                sim.step(comm).unwrap();
            }
            let mut dump = Vec::new();
            save_rank(&sim, &mut dump).unwrap();
            let mut restored = load_rank(spec(), comm.rank(), 1, &mut dump.as_slice()).unwrap();
            assert_eq!(restored.step_count, sim.step_count);
            for _ in 0..4 {
                sim.step(comm).unwrap();
                restored.step(comm).unwrap();
            }
            (
                sim.species[0].to_particles(),
                restored.species[0].to_particles(),
                sim.fields.ey.clone(),
                restored.fields.ey.clone(),
            )
        });
        for (p_orig, p_rest, f_orig, f_rest) in results {
            assert_eq!(p_orig, p_rest);
            assert_eq!(f_orig, f_rest);
        }
    }

    #[test]
    fn wrong_rank_or_spec_rejected() {
        let (results, _) = nanompi::run_expect(2, |comm| {
            let mut sim = DistributedSim::new(spec(), comm.rank(), 1);
            sim.add_species(Species::new("e", -1.0, 1.0));
            let mut dump = Vec::new();
            save_rank(&sim, &mut dump).unwrap();
            let wrong_rank = load_rank(spec(), 1 - comm.rank(), 1, &mut dump.as_slice());
            let mut other = spec();
            other.global_cells = (16, 4, 4);
            let wrong_spec = load_rank(other, comm.rank(), 1, &mut dump.as_slice());
            (
                matches!(wrong_rank, Err(CheckpointError::RankMismatch { .. })),
                matches!(wrong_spec, Err(CheckpointError::SpecMismatch { .. })),
            )
        });
        for (a, b) in results {
            assert!(a && b);
        }
    }

    #[test]
    fn fingerprint_distinguishes_specs() {
        let a = spec_fingerprint(&spec());
        let mut s2 = spec();
        s2.dt = 0.11;
        assert_ne!(a, spec_fingerprint(&s2));
        let mut s3 = spec();
        s3.global_cells.0 = 16;
        assert_ne!(a, spec_fingerprint(&s3));
        assert_eq!(a, spec_fingerprint(&spec()));
    }

    #[test]
    fn roundtrip_over_many_seeds_is_exact() {
        // Property-style: a save/load round trip must be the identity on
        // state for a spread of particle loadings.
        for seed in [1u64, 7, 42, 1234, 98765] {
            let (results, _) = nanompi::run_expect(2, |comm| {
                let mut sim = DistributedSim::new(spec(), comm.rank(), 1);
                let si = sim.add_species(Species::new("e", -1.0, 1.0));
                sim.load_uniform(si, seed, 1.0, 8, Momentum::thermal(0.08));
                sim.step(comm).unwrap();
                let mut dump = Vec::new();
                save_rank(&sim, &mut dump).unwrap();
                let restored = load_rank(spec(), comm.rank(), 1, &mut dump.as_slice()).unwrap();
                assert_eq!(restored.step_count, sim.step_count);
                assert_eq!(restored.migrated, sim.migrated);
                assert_eq!(restored.species[0].store(), sim.species[0].store());
                assert_eq!(restored.fields.ex, sim.fields.ex);
                assert_eq!(restored.fields.cbz, sim.fields.cbz);
                true
            });
            assert!(results.into_iter().all(|ok| ok));
        }
    }

    #[test]
    fn truncated_dump_rejected_with_typed_error() {
        let dump = make_dumps().remove(0);
        for frac in [2, 3, 7] {
            let mut cut = dump.clone();
            cut.truncate(cut.len() / frac);
            match load_rank(spec(), 0, 1, &mut cut.as_slice()) {
                Err(CheckpointError::Truncated { .. })
                | Err(CheckpointError::CrcMismatch { .. }) => {}
                Err(e) => panic!("unexpected error for truncation: {e}"),
                Ok(_) => panic!("truncated dump accepted"),
            }
        }
    }

    #[test]
    fn flipped_byte_rejected_with_typed_error() {
        let dump = make_dumps().remove(0);
        let n = dump.len();
        // Positions past the magic+version words, spread across sections.
        for pos in [14, n / 3, n / 2, n - 20] {
            let mut bad = dump.clone();
            bad[pos] ^= 0x40;
            assert!(
                load_rank(spec(), 0, 1, &mut bad.as_slice()).is_err(),
                "bit flip at byte {pos} of {n} went undetected"
            );
        }
    }

    #[test]
    fn path_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("vpic_test_dckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (results, _) = nanompi::run_expect(2, |comm| {
            let mut sim = DistributedSim::new(spec(), comm.rank(), 1);
            let si = sim.add_species(Species::new("e", -1.0, 1.0));
            sim.load_uniform(si, 5, 1.0, 8, Momentum::thermal(0.08));
            sim.step(comm).unwrap();
            let path = dir.join(format!("r{}.vpic", comm.rank()));
            save_rank_to_path(&sim, &path).unwrap();
            let restored = load_rank_from_path(spec(), comm.rank(), 1, &path).unwrap();
            assert!(!dir.join(format!("r{}.tmp", comm.rank())).exists());
            restored.species[0].store() == sim.species[0].store()
        });
        assert!(results.into_iter().all(|ok| ok));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compressed_dump_is_smaller_and_restores_identically() {
        let (results, _) = nanompi::run_expect(2, |comm| {
            let mut sim = DistributedSim::new(spec(), comm.rank(), 1);
            let si = sim.add_species(Species::new("e", -1.0, 1.0));
            sim.load_uniform(si, 11, 1.0, 8, Momentum::thermal(0.08));
            for _ in 0..3 {
                sim.step(comm).unwrap();
            }
            let raw = dump_rank_bytes(&sim, false).unwrap();
            let packed = dump_rank_bytes(&sim, true).unwrap();
            let restored = load_rank(spec(), comm.rank(), 1, &mut packed.as_slice()).unwrap();
            assert_eq!(restored.species[0].store(), sim.species[0].store());
            assert_eq!(restored.fields.ex, sim.fields.ex);
            assert_eq!(restored.fields.cby, sim.fields.cby);
            (raw.len(), packed.len())
        });
        for (raw, packed) in results {
            assert!(
                packed < raw,
                "compressed dump ({packed} B) not smaller than raw ({raw} B)"
            );
        }
    }
}
