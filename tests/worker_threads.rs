//! Worker threads and in-process ranks: a thread-per-rank world splits the
//! caller's worker-thread budget between its ranks, and however many
//! lanes a rank ends up with, its state is the same bits.

use vpic::core::crc32::fingerprint32;
use vpic::core::{with_worker_threads, worker_threads, Momentum, Species};
use vpic::parallel::dcheckpoint::dump_rank_bytes;
use vpic::parallel::{DistributedSim, DomainSpec};

/// A 2-rank periodic thermal plasma, 2 pipelines per rank, stepped 20
/// times over `LocalTransport` under a worker-thread budget; per rank,
/// the lanes it was given and the fingerprint of its final dump.
fn two_rank_world(budget: usize) -> Vec<(usize, u32)> {
    with_worker_threads(budget, || {
        let (results, _) = nanompi::run_expect(2, |comm| {
            let lanes = worker_threads();
            let spec = DomainSpec::periodic((16, 8, 8), (0.25, 0.25, 0.25), 0.1, 2);
            let mut sim = DistributedSim::new(spec, comm.rank(), 2);
            let si = sim.add_species(Species::new("e", -1.0, 1.0));
            sim.load_uniform(si, 77, 1.0, 8, Momentum::thermal(0.1));
            for _ in 0..20 {
                sim.step(comm).unwrap();
            }
            assert!(sim.migrated > 0, "nothing crossed the rank boundary");
            (lanes, fingerprint32(&dump_rank_bytes(&sim, false).unwrap()))
        });
        results
    })
}

#[test]
fn ranks_share_the_worker_budget_and_land_on_the_serial_fingerprint() {
    // Budget 1: every region of every rank runs inline — the serial
    // schedule, and the reference.
    let serial = two_rank_world(1);
    assert_eq!(serial.iter().map(|r| r.0).collect::<Vec<_>>(), [1, 1]);
    assert_ne!(serial[0].1, serial[1].1, "ranks hold different shards");

    // Budget 2 (the 2-core reference host): one lane per rank, so the
    // step loop never leaves the rank thread.
    assert_eq!(two_rank_world(2), serial);

    // Budget 3 rounds down; budget 8 gives each rank 4 real lanes for
    // its 2 pipelines, sort chunks and z-slabs. Same bits.
    assert_eq!(two_rank_world(3), serial);
    let wide = two_rank_world(8);
    assert_eq!(wide.iter().map(|r| r.0).collect::<Vec<_>>(), [4, 4]);
    let fingerprints = |w: &[(usize, u32)]| w.iter().map(|r| r.1).collect::<Vec<_>>();
    assert_eq!(fingerprints(&wide), fingerprints(&serial));
}
