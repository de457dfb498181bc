//! The licence for the single step loop: a 1-rank `DistributedSim` and a
//! `Simulation` of the same box are the same computation, bit for bit —
//! the serial driver is the distributed phase sequence with no neighbours.

use vpic::core::cadence::SortPolicy;
use vpic::core::checkpoint::{encode_fields, encode_species};
use vpic::core::{
    load_uniform, Grid, Layout, Momentum, ParticleBc, Rng, Simulation, Species, Sponge,
};
use vpic::nanompi::{run_expect, CartTopology};
use vpic::parallel::{DistributedSim, DomainSpec};

const CELLS: (usize, usize, usize) = (12, 6, 4);
const CELL: (f32, f32, f32) = (0.25, 0.25, 0.25);
const SEED: u64 = 31;
const PIPELINES: usize = 2;

fn electrons() -> Species {
    Species::new("e", -1.0, 1.0).with_sort_policy(SortPolicy::Auto)
}

/// Step both drivers from the same load and demand byte-equal fields and
/// particles.
fn assert_equivalent(
    spec: DomainSpec,
    layout: Layout,
    sponge: Option<Sponge>,
    clean_interval: usize,
    steps: usize,
) {
    let mut serial = Simulation::new(spec.local_grid(0), PIPELINES);
    serial.set_layout(layout);
    serial.sponge = sponge;
    serial.clean_div_e_interval = clean_interval;
    serial.clean_div_b_interval = clean_interval;
    let mut e = electrons();
    let mut rng = Rng::for_domain(SEED, 0);
    load_uniform(
        &mut e,
        &serial.grid,
        &mut rng,
        1.0,
        8,
        Momentum::thermal(0.2),
    );
    serial.add_species(e);
    for _ in 0..steps {
        serial.step();
    }
    assert_eq!(serial.lost_particles, 0);

    let (mut ranks, _) = run_expect(1, move |comm| {
        let mut sim = DistributedSim::new(spec.clone(), 0, PIPELINES);
        sim.set_layout(layout);
        sim.sponge = sponge;
        sim.config.clean_div_e_interval = clean_interval;
        sim.config.clean_div_b_interval = clean_interval;
        let si = sim.add_species(electrons());
        sim.load_uniform(si, SEED, 1.0, 8, Momentum::thermal(0.2));
        for _ in 0..steps {
            sim.step(comm).unwrap();
        }
        (encode_fields(&sim.fields), encode_species(&sim.species))
    });
    let (fields, species) = ranks.remove(0);
    assert!(
        encode_fields(&serial.fields) == fields,
        "{layout:?}: fields differ"
    );
    assert!(
        encode_species(&serial.species) == species,
        "{layout:?}: particles differ"
    );
}

#[test]
fn periodic_box_with_marder_cleaning_is_byte_equal() {
    let dt = Grid::courant_dt(1.0, CELL, 0.9);
    for layout in [Layout::Aos, Layout::Aosoa] {
        assert_equivalent(
            DomainSpec::periodic(CELLS, CELL, dt, 1),
            layout,
            None,
            5,
            30,
        );
    }
}

#[test]
fn absorbing_walls_with_sponge_are_byte_equal() {
    let dt = Grid::courant_dt(1.0, CELL, 0.9);
    let mut global_bc = [ParticleBc::Periodic; 6];
    global_bc[0] = ParticleBc::Absorb;
    global_bc[3] = ParticleBc::Absorb;
    let spec = DomainSpec {
        global_cells: CELLS,
        cell: CELL,
        dt,
        topo: CartTopology::new([1, 1, 1], [false, true, true]),
        global_bc,
        origin: (0.0, 0.0, 0.0),
    };
    let sponge = Some(Sponge::symmetric(6, 0.15));
    assert_equivalent(spec, Layout::Aosoa, sponge, 0, 30);
}
