//! Corruption matrix for restart dumps: *any* truncation and *any*
//! single-bit flip of a valid dump — a rank dump with compressed or raw
//! sections, or the serial dump — must surface as a typed
//! [`CheckpointError`], never a panic and never a silently-accepted
//! restore. Offsets are proptest-chosen so the matrix covers the magic,
//! version word, section length prefixes, encoding bytes, payloads and
//! CRCs without enumerating the format by hand.

use proptest::prelude::*;
use std::sync::OnceLock;
use vpic_core::checkpoint::{self, CheckpointError};
use vpic_core::maxwellian::{load_uniform, Momentum};
use vpic_core::rng::Rng;
use vpic_core::sim::Simulation;
use vpic_core::species::Species;
use vpic_parallel::dcheckpoint::{dump_rank_bytes, load_rank};
use vpic_parallel::decomposition::DomainSpec;
use vpic_parallel::dsim::DistributedSim;

fn spec() -> DomainSpec {
    DomainSpec::periodic((8, 4, 4), (0.25, 0.25, 0.25), 0.1, 1)
}

/// Which dumps the matrix tampers with, in `dumps()` order.
const MODES: [&str; 3] = ["compressed rank", "raw rank", "serial"];

/// One valid dump per mode, each built from a sim with a few steps of
/// real plasma history (so compressed sections are actually compressed).
fn dumps() -> &'static [Vec<u8>; 3] {
    static DUMPS: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    DUMPS.get_or_init(|| {
        let (mut results, _) = nanompi::run_expect(1, |comm| {
            let mut sim = DistributedSim::new(spec(), 0, 1);
            let si = sim.add_species(Species::new("e", -1.0, 1.0));
            sim.load_uniform(si, 7, 1.0, 8, Momentum::thermal(0.08));
            for _ in 0..3 {
                sim.step(comm).unwrap();
            }
            (
                dump_rank_bytes(&sim, true).unwrap(),
                dump_rank_bytes(&sim, false).unwrap(),
            )
        });
        let (compressed, raw) = results.remove(0);
        let mut sim = Simulation::new(spec().local_grid(0), 1);
        let mut e = Species::new("e", -1.0, 1.0);
        let mut rng = Rng::seeded(11);
        load_uniform(&mut e, &sim.grid, &mut rng, 1.0, 8, Momentum::thermal(0.08));
        sim.add_species(e);
        for _ in 0..3 {
            sim.step();
        }
        let mut serial = Vec::new();
        checkpoint::save(&sim, &mut serial).unwrap();
        [compressed, raw, serial]
    })
}

/// Restore `dump` the way its mode is restored: a rank dump by its rank,
/// the serial dump by the serial loader.
fn restore(which: usize, mut dump: &[u8]) -> Result<Vec<Species>, CheckpointError> {
    match which {
        2 => checkpoint::load(&mut dump, 1).map(|sim| sim.species),
        _ => load_rank(spec(), 0, 1, &mut dump).map(|sim| sim.species),
    }
}

#[test]
fn pristine_dumps_restore() {
    // Sanity for the property tests below: un-tampered dumps load fine,
    // so every rejection they observe is caused by the tampering.
    for (which, dump) in dumps().iter().enumerate() {
        let species = restore(which, dump).expect("pristine dump loads");
        assert!(!species[0].is_empty(), "{}", MODES[which]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn truncated_dump_yields_typed_error(which in 0usize..3, frac in 0usize..10_000usize) {
        let dump = &dumps()[which];
        // Any proper prefix, from the empty file up to one byte short.
        let cut_len = frac * (dump.len() - 1) / 9_999;
        let r = restore(which, &dump[..cut_len]);
        prop_assert!(
            r.is_err(),
            "truncation to {cut_len}/{} bytes accepted ({})",
            dump.len(),
            MODES[which]
        );
    }

    #[test]
    fn single_bit_flip_yields_typed_error(
        which in 0usize..3,
        offset in 0usize..10_000,
        bit in 0u32..8,
    ) {
        let dump = &dumps()[which];
        let pos = offset * (dump.len() - 1) / 9_999;
        let mut bad = dump.clone();
        bad[pos] ^= 1u8 << bit;
        let r = restore(which, &bad);
        prop_assert!(
            r.is_err(),
            "bit {bit} flip at byte {pos}/{} went undetected ({})",
            dump.len(),
            MODES[which]
        );
    }
}
