//! E7 — Trillion-particle machine projection (paper anchors: 1.0e12
//! particles on 136e6 voxels, 0.488 Pflop/s inner loop, 0.374 Pflop/s
//! sustained on the full 17-CU Roadrunner).
//!
//! Builds the hierarchy table SPE → Cell → node → CU → machine twice:
//! once calibrated from the paper's inner-loop figure (consistency check:
//! must reproduce 0.488 exactly and land near 0.374 sustained), once from
//! a rate measured on this host just before printing.

use roadrunner_model::{flops, KernelRates, Machine, NodeLoad, PerfModel};
use vpic_bench::{known_flags, parse_flag, print_table, time_it, uniform_plasma};
use vpic_core::push::{advance_p, PushCoefficients};

fn measure_host_rate(full: bool) -> f64 {
    let n = if full { (24, 24, 24) } else { (16, 16, 16) };
    let mut sim = uniform_plasma(n, 64, 1, 3);
    for _ in 0..2 {
        sim.step();
    }
    sim.species[0].sort(&sim.grid);
    sim.interp.load(&sim.fields, &sim.grid);
    let g = sim.grid.clone();
    let coeffs = PushCoefficients::new(-1.0, 1.0, &g);
    let reps = if full { 30 } else { 10 };
    let n_particles = sim.n_particles();
    let (secs, _) = time_it(|| {
        for _ in 0..reps {
            sim.accumulators.clear();
            advance_p(
                sim.species[0].store_mut(),
                coeffs,
                &sim.interp,
                &mut sim.accumulators.arrays,
                &g,
            );
        }
    });
    n_particles as f64 * reps as f64 / secs
}

fn hierarchy_rows(model: &PerfModel, load: &NodeLoad) -> Vec<Vec<String>> {
    let m = &model.machine;
    let spe_pps = model.rates.particles_per_sec_per_spe;
    let levels: &[(&str, f64)] = &[
        ("SPE", 1.0),
        ("Cell (8 SPE)", m.spes_per_cell as f64),
        ("node (4 Cell)", (m.spes_per_cell * m.cells_per_node) as f64),
        (
            "CU (180 nodes)",
            (m.spes_per_cell * m.cells_per_node * m.nodes_per_cu) as f64,
        ),
        ("machine (17 CU)", m.n_spes() as f64),
    ];
    let mut rows: Vec<Vec<String>> = levels
        .iter()
        .map(|(name, spes)| {
            let pps = spe_pps * spes;
            vec![
                name.to_string(),
                format!("{:.0}", spes),
                format!("{:.3e}", pps),
                format!("{:.4}", flops::particle_flops(pps) / 1e15),
            ]
        })
        .collect();
    let budget = model.step_budget(load);
    rows.push(vec![
        "machine, whole step".into(),
        format!("{}", model.machine.n_spes()),
        format!("{:.3e}", model.particles_per_second(load)),
        format!("{:.4}", model.sustained_pflops(load)),
    ]);
    rows.push(vec![
        "  step time / inner share".into(),
        String::new(),
        format!("{:.3} s", budget.total()),
        format!("{:.2}", budget.inner_fraction()),
    ]);
    rows
}

fn main() {
    known_flags(&["full"]);
    let full = parse_flag("full");
    let machine = Machine::roadrunner();
    let load = NodeLoad::paper_headline(&machine);
    println!(
        "E7: projections for the paper's headline run: 1.0e12 particles, 136e6 voxels,\n    {:.0} particles/node, {:.0} voxels/node, {} flops/particle",
        load.particles_per_node,
        load.voxels_per_node,
        flops::particle::TOTAL
    );

    let paper = PerfModel {
        machine,
        rates: KernelRates::from_paper_inner_loop(&machine, 0.488),
    };
    print_table(
        "E7a: paper-calibrated hierarchy (inner-loop Pflop/s; last rows: sustained)",
        &["level", "SPEs", "particles/s", "Pflop/s (s.p.)"],
        &hierarchy_rows(&paper, &load),
    );
    println!("paper anchors: inner loop 0.488 Pflop/s (exact by calibration), sustained 0.374");

    let host_pps = measure_host_rate(full);
    let host = PerfModel {
        machine,
        rates: KernelRates::from_measured_host_rate(
            &machine,
            host_pps,
            host_pps * flops::particle::TOTAL as f64 / flops::voxel::TOTAL as f64,
            25.6, // treat one host core as one SPE-equivalent peak
        ),
    };
    println!(
        "\nmeasured host inner-loop rate: {:.3e} particles/s per core",
        host_pps
    );
    print_table(
        "E7b: host-calibrated hierarchy (one host core ≡ one SPE)",
        &["level", "SPEs", "particles/s", "Pflop/s (s.p.)"],
        &hierarchy_rows(&host, &load),
    );
    // Cell-acceleration factor: the same kernel run on the Opteron side
    // only (the "conventional cluster" Roadrunner replaced). Peak-scaled:
    // one node has 4 Opteron cores vs 32 SPEs.
    let m = &machine;
    let opteron_node_peak = m.opteron_cores_per_node as f64 * m.opteron_gflops_sp;
    let cell_node_peak = (m.cells_per_node * m.spes_per_cell) as f64 * m.spe_gflops_sp;
    print_table(
        "E7c: heterogeneous acceleration (node-level s.p. peak)",
        &["configuration", "Gflop/s per node", "relative"],
        &[
            vec![
                "Opteron-only (4 cores)".into(),
                format!("{opteron_node_peak:.1}"),
                "1.0×".into(),
            ],
            vec![
                "with 4 PowerXCell 8i".into(),
                format!("{cell_node_peak:.1}"),
                format!("{:.1}×", cell_node_peak / opteron_node_peak),
            ],
        ],
    );
    println!(
        "(the Cell blades supply ~{:.0}× the flops — why VPIC's port to the SPEs,",
        cell_node_peak / opteron_node_peak
    );
    println!(" not the Opterons, set the machine's PIC capability)");

    let ratio = host.sustained_pflops(&load) / 0.374;
    println!(
        "\nhost-calibrated sustained projection = {:.3} Pflop/s ({:.2}× the paper's 0.374):\n\
         the projection machinery reproduces the paper when fed the paper's rate, and\n\
         shows what this host's kernel efficiency would deliver on the same machine.",
        host.sustained_pflops(&load),
        ratio
    );
}
