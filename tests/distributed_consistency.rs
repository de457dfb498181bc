//! Distributed-vs-single-domain consistency through the public API: the
//! decomposed code must compute the same physics as one big domain, and
//! its ranks must sort on the same steps.

use nanompi::Comm;
use vpic::core::cadence::SortPolicy;
use vpic::core::crc32::fingerprint32;
use vpic::core::field_solver::{bcs_of, sync_e};
use vpic::core::{load_uniform, Grid, Momentum, ParticleBc, Rng, Simulation, Species};
use vpic::parallel::{dump_rank_bytes, load_rank, DistributedSim, DomainSpec};

/// Langmuir oscillation: 4-rank decomposed run tracks the single-domain
/// field-energy history to a small relative tolerance.
#[test]
fn distributed_langmuir_matches_single_domain() {
    let global = (16usize, 4usize, 4usize);
    let cell = (0.25f32, 0.25f32, 0.25f32);
    let dt = Grid::courant_dt(1.0, cell, 0.9);
    let steps = 120usize;
    let kx = 2.0 * std::f32::consts::PI / (global.0 as f32 * cell.0);

    let seed_fields = |sim_fields: &mut vpic::core::FieldArray, g: &Grid| {
        for k in 1..=g.nz {
            for j in 1..=g.ny {
                for i in 1..=g.nx {
                    let x = g.x0 + (i as f32 - 0.5) * g.dx;
                    sim_fields.ex[g.voxel(i, j, k)] = 0.01 * (kx * x).sin();
                }
            }
        }
    };

    // Reference (particles loaded with per-domain RNG convention so both
    // runs own identical particle sets rank-by-rank is not possible here;
    // compare the *physics*: energy exchange histories agree closely).
    let g = Grid::periodic(global, cell, dt);
    let mut reference = Simulation::new(g, 1);
    let mut e = Species::new("e", -1.0, 1.0);
    let mut rng = Rng::seeded(55);
    load_uniform(
        &mut e,
        &reference.grid,
        &mut rng,
        1.0,
        32,
        Momentum::thermal(0.01),
    );
    reference.add_species(e);
    let gr = reference.grid.clone();
    seed_fields(&mut reference.fields, &gr);
    sync_e(&mut reference.fields, &gr, bcs_of(&gr));
    let mut ref_hist = Vec::new();
    for _ in 0..steps {
        reference.step();
        ref_hist.push(reference.energies().field_e);
    }

    let (results, _) = nanompi::run_expect(4, move |comm| {
        let spec = DomainSpec {
            global_cells: global,
            cell,
            dt,
            topo: nanompi::CartTopology::new([4, 1, 1], [true, true, true]),
            global_bc: [ParticleBc::Periodic; 6],
            origin: (0.0, 0.0, 0.0),
        };
        let mut sim = DistributedSim::new(spec, comm.rank(), 1);
        let si = sim.add_species(Species::new("e", -1.0, 1.0));
        sim.load_uniform(si, 55, 1.0, 32, Momentum::thermal(0.01));
        let g = sim.grid.clone();
        seed_fields(&mut sim.fields, &g);
        sim.synchronize_fields(comm).unwrap();
        let mut hist = Vec::new();
        for _ in 0..steps {
            sim.step(comm).unwrap();
            let (fe, _, _) = sim.global_energies(comm).unwrap();
            hist.push(fe);
        }
        hist
    });
    let dist_hist = &results[0];

    // Same oscillation: compare the normalized energy histories. The
    // particle noise realizations differ, so allow a modest tolerance.
    let ref_peak = ref_hist.iter().cloned().fold(0.0f64, f64::max);
    for (i, (a, b)) in ref_hist.iter().zip(dist_hist.iter()).enumerate() {
        assert!(
            (a - b).abs() < 0.15 * ref_peak,
            "histories diverged at step {i}: {a} vs {b} (peak {ref_peak})"
        );
    }
}

/// Global invariants of a distributed thermal plasma: exact particle
/// count, near-exact energy, and traffic that matches the decomposition.
#[test]
fn distributed_invariants() {
    let (results, traffic) = nanompi::run_expect(8, |comm| {
        let spec = DomainSpec::periodic((16, 16, 8), (0.25, 0.25, 0.25), 0.1, 8);
        let mut sim = DistributedSim::new(spec, comm.rank(), 1);
        let si = sim.add_species(Species::new("e", -1.0, 1.0));
        sim.load_uniform(si, 77, 1.0, 8, Momentum::thermal(0.1));
        let n0 = sim.global_particles(comm).unwrap();
        let (fe0, fb0, ke0) = sim.global_energies(comm).unwrap();
        for _ in 0..30 {
            sim.step(comm).unwrap();
        }
        let n1 = sim.global_particles(comm).unwrap();
        let (fe1, fb1, ke1) = sim.global_energies(comm).unwrap();
        (
            n0,
            n1,
            fe0 + fb0 + ke0.iter().sum::<f64>(),
            fe1 + fb1 + ke1.iter().sum::<f64>(),
            sim.migrated,
        )
    });
    for (n0, n1, e0, e1, _) in &results {
        assert_eq!(n0, n1);
        assert!((e1 - e0).abs() / e0 < 0.03, "energy {e0} -> {e1}");
    }
    let migrated: u64 = results.iter().map(|r| r.4).sum();
    assert!(migrated > 100, "plasma too quiet: {migrated} migrations");
    // Every rank pair that is face-adjacent exchanged bytes.
    assert!(traffic.total_bytes > 0);
    assert!(traffic.max_rank_bytes() > 0);
}

/// Checkpoint / restart across the public API boundary, mid-oscillation.
#[test]
fn checkpoint_restart_through_public_api() {
    let g = Grid::periodic((6, 6, 6), (0.25, 0.25, 0.25), 0.08);
    let mut sim = Simulation::new(g, 1);
    let mut e = Species::new("e", -1.0, 1.0);
    let mut rng = Rng::seeded(12);
    load_uniform(
        &mut e,
        &sim.grid,
        &mut rng,
        1.0,
        12,
        Momentum::thermal(0.05),
    );
    sim.add_species(e);
    for _ in 0..5 {
        sim.step();
    }
    let mut dump = Vec::new();
    vpic::core::checkpoint::save(&sim, &mut dump).unwrap();
    let mut restored = vpic::core::checkpoint::load(&mut dump.as_slice(), 1).unwrap();
    for _ in 0..5 {
        sim.step();
        restored.step();
    }
    assert_eq!(sim.species[0].store(), restored.species[0].store());
    assert_eq!(sim.fields.ey, restored.fields.ey);
    assert_eq!(sim.step_count, restored.step_count);
}

/// A 2-rank x-split of a periodic box whose ranks hold plasmas of
/// different temperatures, so their own `auto` controllers solve
/// different sort intervals.
fn two_temperature_spec() -> DomainSpec {
    let cell = (0.25, 0.25, 0.25);
    DomainSpec {
        global_cells: (16, 8, 8),
        cell,
        dt: Grid::courant_dt(1.0, cell, 0.9),
        topo: nanompi::CartTopology::new([2, 1, 1], [true, true, true]),
        global_bc: [ParticleBc::Periodic; 6],
        origin: (0.0, 0.0, 0.0),
    }
}

fn two_temperature_rank(rank: usize, policy: SortPolicy) -> DistributedSim {
    let mut sim = DistributedSim::new(two_temperature_spec(), rank, 1);
    let si = sim.add_species(Species::new("e", -1.0, 1.0).with_sort_policy(policy));
    let vth = [0.05, 0.2][rank];
    sim.load_uniform(si, 31, 1.0, 8, Momentum::thermal(vth));
    sim
}

/// Cadence fires (real sorts plus coherent skips) so far.
fn cadence_fires(sim: &DistributedSim) -> u64 {
    let c = sim.species[0].coherence();
    c.sorts + c.skipped_sorts
}

/// One step; returns whether the cadence fired in it.
fn step_noting_sort(sim: &mut DistributedSim, comm: &mut Comm) -> bool {
    let before = cadence_fires(sim);
    sim.step(comm).unwrap();
    cadence_fires(sim) > before
}

fn rank_fingerprint(sim: &DistributedSim) -> u32 {
    fingerprint32(&dump_rank_bytes(sim, false).unwrap())
}

/// Under `auto` the ranks' sort votes ride the migration gather, so every
/// rank sorts on the same steps even though their own controllers solve
/// different intervals — over the in-process and the socket transport
/// alike, which land on the same per-rank bits.
#[test]
fn auto_sort_steps_agree_across_ranks_and_transports() {
    let run = |comm: &mut Comm| {
        let mut sim = two_temperature_rank(comm.rank(), SortPolicy::Auto);
        let (mut sort_steps, mut solved) = (Vec::new(), Vec::new());
        for _ in 0..60 {
            let step = sim.step_count;
            if step_noting_sort(&mut sim, comm) {
                sort_steps.push(step);
                solved.push(sim.species[0].cadence().interval);
            }
        }
        (sort_steps, solved, rank_fingerprint(&sim))
    };
    let (local, _) = nanompi::run_expect(2, run);
    let dir = std::env::temp_dir().join(format!("vpic_sort_vote_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (socket, _) = nanompi::run_socket_world(2, nanompi::SocketAddrSpec::unix(&dir), None, run);
    let _ = std::fs::remove_dir_all(&dir);
    let socket: Vec<_> = socket.into_iter().map(|r| r.unwrap()).collect();
    assert_eq!(local, socket, "transports disagree");

    let (steps0, solved0, _) = &local[0];
    let (steps1, solved1, _) = &local[1];
    assert!(steps0.len() >= 5, "too few sorts to compare: {steps0:?}");
    assert_eq!(steps0, steps1, "ranks sorted on different steps");
    assert_ne!(
        solved0, solved1,
        "the ranks' controllers agree on their own; the test shows nothing"
    );
}

/// A rank whose interval the vote lowered carries the lowered interval in
/// its dump: restored from a dump taken right then, the world continues
/// bit-identically to the one that never stopped.
#[test]
fn dump_on_a_lowered_interval_restores_and_continues_bit_identically() {
    let (results, _) = nanompi::run_expect(2, |comm| {
        let mut sim = two_temperature_rank(comm.rank(), SortPolicy::Auto);
        let mut lowered_here = false;
        for _ in 0..200 {
            let interval = sim.species[0].cadence().interval;
            let sorted = step_noting_sort(&mut sim, comm);
            lowered_here = !sorted && sim.species[0].cadence().interval < interval;
            if comm.allgather(lowered_here).unwrap().contains(&true) {
                break;
            }
        }
        let dump = dump_rank_bytes(&sim, false).unwrap();
        let mut resumed = load_rank(sim.spec.clone(), sim.rank, 1, &mut dump.as_slice()).unwrap();
        assert_eq!(resumed.species[0].cadence(), sim.species[0].cadence());
        let (mut straight, mut replay) = (Vec::new(), Vec::new());
        for _ in 0..30 {
            step_noting_sort(&mut sim, comm);
            straight.push(rank_fingerprint(&sim));
        }
        for _ in 0..30 {
            step_noting_sort(&mut resumed, comm);
            replay.push(rank_fingerprint(&resumed));
        }
        (lowered_here, straight == replay)
    });
    assert!(
        results.iter().any(|r| r.0),
        "no rank's interval was lowered in 200 steps"
    );
    for (rank, (_, same)) in results.iter().enumerate() {
        assert!(same, "rank {rank} diverged after the restore");
    }
}

/// Under `Fixed(n)` every rank votes due on the same steps, so the vote
/// never touches an interval, whatever the ranks' plasmas.
#[test]
fn fixed_cadence_intervals_are_never_modified() {
    let (results, _) = nanompi::run_expect(2, |comm| {
        let mut sim = two_temperature_rank(comm.rank(), SortPolicy::Fixed(5));
        let mut sort_steps = Vec::new();
        for _ in 0..40 {
            let step = sim.step_count;
            if step_noting_sort(&mut sim, comm) {
                sort_steps.push(step);
            }
            assert_eq!(sim.species[0].cadence().interval, 5, "after step {step}");
        }
        sort_steps
    });
    let want: Vec<u64> = (1..8).map(|k| 5 * k).collect();
    assert_eq!(results, vec![want.clone(), want]);
}
