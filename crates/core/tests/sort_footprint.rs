//! Footprint guard for the in-place sort: a species' retained sort
//! buffers (histograms, window buffers, far lists) stay a small share of
//! its particle store, where a full-size scatter scratch would equal it.

use vpic_core::{
    load_uniform, with_worker_threads, Block, Grid, Momentum, Rng, Simulation, SortPolicy, Species,
    SORT_WINDOW,
};

/// A thermal plasma of 2.1 M electrons (twice `uniform-push`'s thermal
/// speed) on a periodic 32³ box, loaded in voxel order and never sorted
/// by the step loop itself.
fn thermal_plasma() -> Simulation {
    let dx = 0.2f32;
    let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.8);
    let mut sim = Simulation::new(Grid::periodic((32, 32, 32), (dx, dx, dx), dt), 2);
    let mut e = Species::new("e", -1.0, 1.0).with_sort_policy(SortPolicy::Fixed(0));
    let mut rng = Rng::seeded(7);
    load_uniform(&mut e, &sim.grid, &mut rng, 1.0, 64, Momentum::thermal(0.1));
    sim.add_species(e);
    sim
}

/// Two sort workers, the reference host's width: each holds a full
/// window, twice the one-worker share, and the step loop's own bits do
/// not depend on the width.
#[test]
fn sort_buffers_stay_under_a_quarter_of_the_store() {
    const WORKERS: usize = 2;
    let mut sim = thermal_plasma();
    let n = sim.species[0].len();
    assert!(n >= 4 * WORKERS * SORT_WINDOW, "store too small to bound");
    with_worker_threads(WORKERS, || {
        sim.species[0].sort(&sim.grid);
        for _ in 0..3 {
            sim.step();
        }
        sim.species[0].sort(&sim.grid);
    });
    let sp = &sim.species[0];
    assert!(sp.iter().zip(sp.iter().skip(1)).all(|(a, b)| a.i <= b.i));
    let store = sp.store().blocks.len() * std::mem::size_of::<Block>();
    let kept = sp.sort_buffer_bytes();
    println!(
        "{n} particles: store {:.1} MB, sort buffers {:.1} MB ({:.3} of the store)",
        store as f64 / 1e6,
        kept as f64 / 1e6,
        kept as f64 / store as f64
    );
    assert!(
        4 * kept <= store,
        "sort buffers hold {kept} B against a {store} B store"
    );
}
