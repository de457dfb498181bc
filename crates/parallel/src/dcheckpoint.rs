//! Distributed restart dumps: each rank writes its own domain, so a run
//! can be stopped and resumed with the same decomposition — how VPIC's
//! trillion-particle campaigns survived Roadrunner's mean time between
//! interrupts. A rank dump is `vpic_core::checkpoint`'s one format with
//! the rank's identity (rank, world size, local grid); a 1-rank world's
//! raw dump is the serial dump. Loading refuses another rank's, another
//! world size's or another decomposition's dump with a typed
//! [`CheckpointError`], and files reach disk through the atomic write
//! (temp file, fsync, rename).

use crate::decomposition::DomainSpec;
use crate::dsim::DistributedSim;
use std::io::{self, Read};
use std::path::Path;
use vpic_core::checkpoint::{read_dump, write_bytes_atomic, write_dump, CheckpointError, DumpRef};

/// Serialize one rank's state to an in-memory buffer, for callers that
/// cache the newest validated dump or throttle the disk write separately
/// (see [`write_bytes_atomic`]). `compress` lets the field and species
/// sections be delta+RLE compressed (`false` forces raw encoding; either
/// way the load path is identical). The `spec` is *not* written (the
/// restart must be constructed with the same [`DomainSpec`]); the
/// header's rank, world size and local grid are checked against it on
/// load.
pub fn dump_rank_bytes(sim: &DistributedSim, compress: bool) -> Result<Vec<u8>, CheckpointError> {
    let d = DumpRef {
        grid: &sim.grid,
        rank: sim.rank,
        world: sim.spec.topo.n_ranks(),
        step_count: sim.step_count,
        left: sim.migrated,
        fields: &sim.fields,
        species: &sim.species,
        config: sim.config,
    };
    let mut w = Vec::new();
    write_dump(&mut w, &d, compress)?;
    Ok(w)
}

/// Restore one rank from a dump made by the same rank id under the same
/// decomposition.
pub fn load_rank(
    spec: DomainSpec,
    rank: usize,
    n_pipelines: usize,
    r: &mut impl Read,
) -> Result<DistributedSim, CheckpointError> {
    let d = read_dump(r, rank, spec.topo.n_ranks(), Some(&spec.local_grid(rank)))?;
    let mut sim = DistributedSim::new(spec, rank, n_pipelines);
    sim.step_count = d.step_count;
    sim.migrated = d.left;
    sim.fields = d.fields;
    for sp in d.species {
        sim.add_species(sp);
    }
    sim.config = d.config;
    Ok(sim)
}

/// Atomically write one rank's compressed restart dump to `path`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use nanompi::CartTopology;
    use vpic_core::checkpoint;
    use vpic_core::maxwellian::Momentum;
    use vpic_core::sim::Simulation;
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
            dump_rank_bytes(&sim, true).unwrap()
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
            let dump = dump_rank_bytes(&sim, true).unwrap();
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

    /// A dump restores only on its own seat. Another world size (a serial
    /// dump offered to a 2-rank run, a rank dump to the serial loader),
    /// another rank id, another decomposition of the same box, or a file
    /// in the old v2/v3 formats is a typed refusal, never a panic.
    #[test]
    fn another_seats_dump_is_refused() {
        let dumps = make_dumps();
        let mut serial = Vec::new();
        let mut sim = Simulation::new(spec().local_grid(0), 1);
        sim.add_species(Species::new("e", -1.0, 1.0));
        checkpoint::save(&sim, &mut serial).unwrap();
        assert_eq!(spec().topo.dims, [2, 1, 1]);
        let transposed = DomainSpec {
            topo: CartTopology::new([1, 2, 1], [true; 3]),
            ..spec()
        };
        let old = |magic: &[u8; 8], version: u32| {
            [&magic[..], &version.to_le_bytes(), &dumps[0][12..]].concat()
        };
        let refusal = |spec: DomainSpec, rank: usize, dump: &[u8]| {
            load_rank(spec, rank, 1, &mut &dump[..])
                .map(|_| ())
                .unwrap_err()
        };
        assert!(matches!(
            refusal(spec(), 0, &serial),
            CheckpointError::WorldMismatch {
                expected: 2,
                got: 1
            }
        ));
        assert!(matches!(
            checkpoint::load(&mut dumps[1].as_slice(), 1)
                .map(|_| ())
                .unwrap_err(),
            CheckpointError::WorldMismatch {
                expected: 1,
                got: 2
            }
        ));
        assert!(matches!(
            refusal(spec(), 1, &dumps[0]),
            CheckpointError::RankMismatch {
                expected: 1,
                got: 0
            }
        ));
        for (rank, dump) in dumps.iter().enumerate() {
            assert!(matches!(
                refusal(transposed.clone(), rank, dump),
                CheckpointError::GridMismatch
            ));
            assert!(load_rank(spec(), rank, 1, &mut dump.as_slice()).is_ok());
        }
        for dump in [old(b"VPICRS02", 2), old(b"VPICRD03", 3)] {
            assert!(matches!(
                refusal(spec(), 0, &dump),
                CheckpointError::BadMagic
            ));
        }
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
                let dump = dump_rank_bytes(&sim, true).unwrap();
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
