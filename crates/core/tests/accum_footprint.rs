//! Footprint guard for the per-pipeline current accumulators: on a
//! voxel-sorted periodic plasma each pipeline deposits into its own band
//! of z-planes (plus the planes it shares with its neighbour and those its
//! wrapped crossers reach), not the whole grid; and the owner-plane fold
//! unloads the same `J` bits as the serial reduce + unload, at any
//! pipeline and worker count.

use vpic_core::push::{advance_p, PushCoefficients};
use vpic_core::{
    load_uniform, with_worker_threads, AccumulatorArray, FieldArray, Grid, Momentum, Rng,
    Simulation, Species,
};

/// A plasma of `ppc` electrons a cell with momenta `mom` on a periodic
/// `n³` box, loaded in voxel order, then sorted.
fn sorted_plasma(n: usize, ppc: usize, pipelines: usize, mom: Momentum) -> Simulation {
    let dx = 0.2f32;
    let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.8);
    let mut sim = Simulation::new(Grid::periodic((n, n, n), (dx, dx, dx), dt), pipelines);
    let mut e = Species::new("e", -1.0, 1.0);
    let mut rng = Rng::seeded(11);
    load_uniform(&mut e, &sim.grid, &mut rng, 1.0, ppc, mom);
    e.sort(&sim.grid);
    sim.add_species(e);
    sim
}

/// `uniform-push`'s thermal spread.
const THERMAL: Momentum = Momentum {
    uth: [0.05; 3],
    drift: [0.0; 3],
};

/// The `J` a step unloads, bit patterns of `jx`, `jy`, `jz` in turn.
fn j_bits(f: &FieldArray) -> Vec<u32> {
    f.jx.iter()
        .chain(&f.jy)
        .chain(&f.jz)
        .map(|v| v.to_bits())
        .collect()
}

/// Two pipelines, ten steps: after every step each pipeline's dirty
/// planes are at most 60 % of the grid's planes (about half plus the
/// shared and wrapped ones; a single voxel range would span the whole
/// grid from the first wrap-around deposit on).
#[test]
fn each_pipeline_dirties_about_its_share_of_the_planes() {
    let mut sim = sorted_plasma(32, 8, 2, THERMAL);
    for step in 1..=10 {
        with_worker_threads(2, || sim.step());
        for (pipe, a) in sim.accumulators.arrays.iter().enumerate() {
            let dirty = a.dirty_planes().count();
            println!(
                "step {step}: pipeline {pipe} dirty {dirty} of {} planes",
                a.n_planes()
            );
            assert!(
                dirty > 0,
                "pipeline {pipe} deposited nothing at step {step}"
            );
            assert!(
                10 * dirty <= 6 * a.n_planes(),
                "step {step}: pipeline {pipe} dirtied {dirty} of {} planes",
                a.n_planes()
            );
        }
    }
}

/// At 1, 2, 3 and 8 pipelines, ten steps after a sort and again right
/// after another: one more push, then `J` from `reduce_and_unload` at 1,
/// 2 and 4 workers must equal the serial `reduce` + `unload` oracle's bit
/// for bit. Once thermal, and once with motion along z alone, where no
/// crosser takes the scalar mover (which marks its own planes), so only
/// the batched crossers' marks cover the planes a pipeline's band
/// crosses into, the wrapped one included.
#[test]
fn folded_unload_matches_the_serial_oracle() {
    let along_z = Momentum {
        uth: [0.0, 0.0, 0.05],
        drift: [0.0; 3],
    };
    for (mom, pipelines) in [THERMAL, along_z]
        .into_iter()
        .flat_map(|mom| [1, 2, 3, 8].map(|p| (mom, p)))
    {
        let mut sim = sorted_plasma(16, 8, pipelines, mom);
        for _ in 0..10 {
            sim.step();
        }
        let g = sim.grid.clone();
        for resorted in [false, true] {
            if resorted {
                sim.species[0].sort(&g);
            }
            sim.interp.load(&sim.fields, &g);
            sim.accumulators.clear();
            let coeffs = PushCoefficients::new(-1.0, 1.0, &g);
            let exiles = advance_p(
                sim.species[0].store_mut(),
                coeffs,
                &sim.interp,
                &mut sim.accumulators.arrays,
                &g,
            );
            assert!(exiles.is_empty(), "a periodic box has no exiles");
            let pushed: Vec<AccumulatorArray> = sim.accumulators.arrays.clone();
            let mut serial = pushed[0].clone();
            for r in &pushed[1..] {
                serial.reduce_from(r);
            }
            let mut want = FieldArray::new(&g);
            want.clear_currents();
            serial.unload(&mut want, &g);
            let want = j_bits(&want);
            assert!(
                want.iter().any(|&b| b != 0),
                "the push deposited no current"
            );
            for threads in [1, 2, 4] {
                sim.accumulators.arrays.clone_from_slice(&pushed);
                let mut got = FieldArray::new(&g);
                got.clear_currents();
                with_worker_threads(threads, || sim.accumulators.reduce_and_unload(&mut got, &g));
                assert!(
                    j_bits(&got) == want,
                    "{mom:?}, {pipelines} pipelines, {threads} workers, resorted \
                     {resorted}: J differs from the serial oracle"
                );
            }
        }
    }
}
