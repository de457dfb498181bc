//! E3 — Weak scaling (paper anchor: near-linear scaling of VPIC across
//! Roadrunner's 17 CUs, the Gordon Bell claim).
//!
//! Part 1 measures in-process ranks on this host with a fixed per-rank
//! load (aggregate particle rate should stay flat — software overheads
//! only, since ranks share cores). Part 2 extrapolates with the analytic
//! Roadrunner model calibrated from the paper's inner-loop rate.

use nanompi::CartTopology;
use roadrunner_model::{KernelRates, Machine, NodeLoad, PerfModel};
use vpic_bench::{known_flags, parse_flag, print_table};
use vpic_core::{Momentum, ParticleBc, Species};
use vpic_parallel::{DistributedSim, DomainSpec};

fn main() {
    known_flags(&["full"]);
    let full = parse_flag("full");
    let per_rank = if full { (16, 16, 16) } else { (12, 12, 12) };
    let ppc = if full { 64 } else { 32 };
    let steps = if full { 40u64 } else { 20 };
    let rank_counts: &[usize] = if full {
        &[1, 2, 4, 8, 16]
    } else {
        &[1, 2, 4, 8]
    };

    let mut rows = Vec::new();
    let mut base_rate = 0.0f64;
    for &ranks in rank_counts {
        let topo = CartTopology::balanced(ranks, [true, true, true]);
        let global = (
            per_rank.0 * topo.dims[0],
            per_rank.1 * topo.dims[1],
            per_rank.2 * topo.dims[2],
        );
        let spec = DomainSpec {
            global_cells: global,
            cell: (0.25, 0.25, 0.25),
            dt: 0.1,
            topo,
            global_bc: [ParticleBc::Periodic; 6],
            origin: (0.0, 0.0, 0.0),
        };
        let (results, traffic) = nanompi::run_expect(ranks, |comm| {
            let mut sim = DistributedSim::new(spec.clone(), comm.rank(), 1);
            let si = sim.add_species(Species::new("e", -1.0, 1.0));
            sim.load_uniform(si, 5, 1.0, ppc, Momentum::thermal(0.05));
            comm.barrier().unwrap();
            let t0 = std::time::Instant::now();
            for _ in 0..steps {
                sim.step(comm).unwrap();
            }
            comm.barrier().unwrap();
            (t0.elapsed().as_secs_f64(), sim.n_particles(), sim.migrated)
        });
        let time = results.iter().map(|r| r.0).fold(0.0, f64::max);
        let particles: usize = results.iter().map(|r| r.1).sum();
        let migrated: u64 = results.iter().map(|r| r.2).sum();
        let rate = particles as f64 * steps as f64 / time;
        if ranks == 1 {
            base_rate = rate;
        }
        rows.push(vec![
            format!("{ranks}"),
            format!("{global:?}"),
            format!("{particles}"),
            format!("{:.3e}", rate),
            format!("{:.2}", rate / base_rate),
            format!("{:.1}", migrated as f64 / steps as f64 / ranks as f64),
            format!("{:.1} MB", traffic.total_bytes as f64 / 1e6),
        ]);
    }
    print_table(
        &format!(
            "E3a: measured weak scaling ({ppc} ppc × {per_rank:?} cells per rank, {steps} steps)"
        ),
        &[
            "ranks",
            "global grid",
            "particles",
            "agg rate (p/s)",
            "rate vs 1",
            "migr/rank/step",
            "traffic",
        ],
        &rows,
    );
    println!("(ranks share this host's core(s): flat aggregate rate = no software overhead)");

    // Part 2: model extrapolation across CUs.
    let machine = Machine::roadrunner();
    let rates = KernelRates::from_paper_inner_loop(&machine, 0.488);
    let model = PerfModel { machine, rates };
    let load = NodeLoad::paper_headline(&machine);
    let sweep = model.weak_scaling(&load, 17);
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .filter(|(cu, _, _)| [1usize, 2, 4, 8, 12, 17].contains(cu))
        .map(|(cu, eff, pflops)| {
            vec![
                format!("{cu}"),
                format!("{}", cu * 180),
                format!("{eff:.3}"),
                format!("{pflops:.3}"),
            ]
        })
        .collect();
    print_table(
        "E3b: Roadrunner weak-scaling model (paper-calibrated, per-node load of the headline run)",
        &["CUs", "nodes", "efficiency", "sustained Pflop/s"],
        &rows,
    );
    println!(
        "\npaper anchor: near-linear scaling to 17 CUs, 0.374 Pflop/s sustained at full machine"
    );
}
