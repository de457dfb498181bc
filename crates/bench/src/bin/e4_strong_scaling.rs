//! E4 — Strong scaling: a fixed global problem split over more ranks.
//!
//! On a shared-core host the interesting measurable is how the
//! communication/overhead share grows as the per-rank domain shrinks —
//! the same surface-to-volume effect that bends the paper's strong
//! scaling curves. The analytic model mirrors the sweep on Roadrunner.

use nanompi::CartTopology;
use roadrunner_model::{KernelRates, Machine, NodeLoad, PerfModel};
use vpic_bench::{known_flags, parse_flag, print_table};
use vpic_core::{Momentum, ParticleBc, Species};
use vpic_parallel::{DistributedSim, DomainSpec};

fn main() {
    known_flags(&["full"]);
    let full = parse_flag("full");
    let global = if full { (32, 32, 32) } else { (16, 16, 16) };
    let ppc = if full { 64 } else { 32 };
    let steps = if full { 30u64 } else { 15 };
    let rank_counts: &[usize] = &[1, 2, 4, 8];

    let mut rows = Vec::new();
    for &ranks in rank_counts {
        let topo = CartTopology::balanced(ranks, [true, true, true]);
        if global.0 % topo.dims[0] != 0
            || global.1 % topo.dims[1] != 0
            || global.2 % topo.dims[2] != 0
        {
            continue;
        }
        let spec = DomainSpec {
            global_cells: global,
            cell: (0.25, 0.25, 0.25),
            dt: 0.1,
            topo,
            global_bc: [ParticleBc::Periodic; 6],
            origin: (0.0, 0.0, 0.0),
        };
        let (results, _) = nanompi::run_expect(ranks, |comm| {
            let mut sim = DistributedSim::new(spec.clone(), comm.rank(), 1);
            let si = sim.add_species(Species::new("e", -1.0, 1.0));
            sim.load_uniform(si, 11, 1.0, ppc, Momentum::thermal(0.05));
            comm.barrier().unwrap();
            let t0 = std::time::Instant::now();
            for _ in 0..steps {
                sim.step(comm).unwrap();
            }
            comm.barrier().unwrap();
            (
                t0.elapsed().as_secs_f64(),
                sim.n_particles(),
                sim.timings.comm_fraction(),
            )
        });
        let time = results.iter().map(|r| r.0).fold(0.0, f64::max);
        let particles: usize = results.iter().map(|r| r.1).sum();
        let comm = results.iter().map(|r| r.2).sum::<f64>() / ranks as f64;
        let rate = particles as f64 * steps as f64 / time;
        rows.push(vec![
            format!("{ranks}"),
            format!("{:?}", spec.local_cells()),
            format!("{:.3e}", rate),
            format!("{:.1}%", 100.0 * comm),
        ]);
    }
    print_table(
        &format!("E4a: measured strong scaling, global {global:?}, {ppc} ppc, {steps} steps"),
        &["ranks", "cells/rank", "agg rate (p/s)", "comm share"],
        &rows,
    );

    // Model: same total problem on growing machine fractions.
    let machine = Machine::roadrunner();
    let rates = KernelRates::from_paper_inner_loop(&machine, 0.488);
    let total_particles = 1.0e12;
    let total_voxels = 136.0e6;
    let mut rows = Vec::new();
    let mut base = 0.0f64;
    for n_cu in [1usize, 2, 4, 8, 17] {
        let m = Machine::roadrunner_cus(n_cu);
        let model = PerfModel { machine: m, rates };
        let nodes = m.n_nodes() as f64;
        let load = NodeLoad {
            particles_per_node: total_particles / nodes,
            voxels_per_node: total_voxels / nodes,
            migration_fraction: 0.01,
        };
        let t = model.step_budget(&load).total();
        if n_cu == 1 {
            base = t;
        }
        rows.push(vec![
            format!("{n_cu}"),
            format!("{:.3}", t),
            format!("{:.2}", base / t),
            format!("{:.2}", (base / t) / n_cu as f64),
            format!("{:.3}", model.sustained_pflops(&load)),
        ]);
    }
    print_table(
        "E4b: Roadrunner strong-scaling model (1e12 particles / 136e6 voxels total)",
        &[
            "CUs",
            "step time (s)",
            "speedup",
            "efficiency",
            "sustained Pflop/s",
        ],
        &rows,
    );

    // A 250× smaller problem exposes the latency/surface terms.
    let small_particles = 4.0e9;
    let small_voxels = 5.4e5;
    let mut rows = Vec::new();
    let mut base = 0.0f64;
    for n_cu in [1usize, 2, 4, 8, 17] {
        let m = Machine::roadrunner_cus(n_cu);
        let model = PerfModel { machine: m, rates };
        let nodes = m.n_nodes() as f64;
        let load = NodeLoad {
            particles_per_node: small_particles / nodes,
            voxels_per_node: small_voxels / nodes,
            migration_fraction: 0.02,
        };
        let t = model.step_budget(&load).total();
        if n_cu == 1 {
            base = t;
        }
        rows.push(vec![
            format!("{n_cu}"),
            format!("{:.5}", t),
            format!("{:.2}", base / t),
            format!("{:.2}", (base / t) / n_cu as f64),
        ]);
    }
    print_table(
        "E4c: strong-scaling model, 250× smaller problem (4e9 particles)",
        &["CUs", "step time (s)", "speedup", "efficiency"],
        &rows,
    );
    println!("\nshape check: the headline-size problem strong-scales almost perfectly");
    println!("(huge per-node work); the small problem shows the classic efficiency");
    println!("decay as fixed communication/latency terms stop amortizing.");
}
