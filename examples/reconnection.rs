//! Magnetic reconnection in a perturbed Harris sheet — VPIC's other
//! flagship application (the same engine the SC'08 paper scaled was used
//! for landmark kinetic reconnection studies). A GEM-style island
//! perturbation is seeded and the reconnected flux (Bz at the X-line
//! plane) grows as the sheet tears.
//!
//! Run with: `cargo run --release --example reconnection`

use vpic::core::harris::HarrisSheet;
use vpic::core::{Grid, ParticleBc, Rng, Simulation, Species};

fn main() {
    let (nx, ny, nz) = (32usize, 2usize, 32usize);
    let dx = 0.4f32;
    let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.9);
    let mut g = Grid::new(
        (nx, ny, nz),
        (dx, dx, dx),
        dt,
        [
            ParticleBc::Periodic,
            ParticleBc::Periodic,
            ParticleBc::Reflect,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
            ParticleBc::Reflect,
        ],
    );
    g.z0 = -(nz as f32) * dx / 2.0;
    let mut sim = Simulation::new(g, 4);

    let sheet = HarrisSheet::gem_like(0.4, 0.0);
    let mut e = Species::new("electron", -1.0, 1.0);
    let mut ions = Species::new("ion", 1.0, sheet.mi);
    let mut rng = Rng::seeded(2008);
    sheet.load(&mut e, &mut ions, &sim.grid, &mut rng, 48);
    sim.add_species(e);
    sim.add_species(ions);
    let grid = sim.grid.clone();
    sheet.init_field(&mut sim.fields, &grid);
    sheet.perturb(&mut sim.fields, &grid, 0.05);

    let (ude, udi) = sheet.drifts();
    println!(
        "Harris sheet: B0 = {}, L = {}, mi/me = {}, Ti/Te = {}",
        sheet.b0, sheet.l, sheet.mi, sheet.ti_over_te
    );
    println!(
        "drifts: u_de = {ude:.4}, u_di = {udi:.4}; {} particles\n",
        sim.n_particles()
    );

    // Reconnected-flux proxy: |Bz| integrated along the sheet center line.
    let flux = |sim: &Simulation| -> f64 {
        let kc = nz / 2;
        (1..=nx)
            .map(|i| sim.fields.cbz[grid.voxel(i, 1, kc)].abs() as f64)
            .sum::<f64>()
            * grid.dx as f64
    };

    let steps = (80.0 / grid.dt as f64) as usize;
    println!("   step   t·ωpe   reconnected flux   B energy");
    let mut history = Vec::new();
    for s in 0..=steps {
        if s % (steps / 8).max(1) == 0 {
            let fl = flux(&sim);
            let eb = sim.energies().field_b;
            println!(
                "{s:>7}  {:>6.1}  {fl:>16.4e}  {eb:>9.4}",
                s as f64 * grid.dt as f64
            );
            history.push(fl);
        }
        if s < steps {
            sim.step();
        }
    }
    let growth = history.last().unwrap() / history.first().unwrap().max(1e-12);
    println!("\nreconnected flux grew {growth:.1}× from the seed perturbation");
    println!("(the island at the X-line grows as the sheet tears — collisionless");
    println!(" reconnection mediated entirely by kinetic physics, no resistivity)");
}
