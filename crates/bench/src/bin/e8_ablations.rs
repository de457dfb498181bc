//! E8 — Ablations of VPIC's key implementation choices:
//!
//! 1. particle layout: 32-byte AoS vs AoSoA SIMD blocks (the paper's Cell
//!    SPE pipelines consumed AoSoA-converted blocks);
//! 2. sort cadence × push kernel — the cache-locality lever crossed with
//!    the scalar/lane body, including the `auto` cadence controller
//!    (`--json <path>` dumps the sweep as a machine-readable record);
//! 3. pipeline (accumulator) count — VPIC's write-conflict-free
//!    parallelization of the scatter.

use vpic_bench::{known_flags, parse_flag, parse_opt, print_table, time_it, uniform_plasma};
use vpic_core::cadence::SortPolicy;
use vpic_core::push::{advance_p, PushCoefficients, PushKernel};
use vpic_core::sort::locality_fraction;
use vpic_core::store::{Layout, ParticleStore};

fn main() {
    known_flags(&["full", "json"]);
    let full = parse_flag("full");
    let n = if full { (24, 24, 24) } else { (16, 16, 16) };
    let ppc = if full { 128 } else { 64 };
    let reps = if full { 25 } else { 10 };

    // --- (1) Layout: AoS vs AoSoA ------------------------------------
    // Both layouts run the *production* advance_p through the unified
    // ParticleStore — the same code path sim.step() takes — so the row
    // difference is purely the storage layout.
    let mut sim = uniform_plasma(n, ppc, 1, 21);
    for _ in 0..2 {
        sim.step();
    }
    sim.species[0].sort(&sim.grid);
    sim.interp.load(&sim.fields, &sim.grid);
    let g = sim.grid.clone();
    let coeffs = PushCoefficients::new(-1.0, 1.0, &g);
    let n_particles = sim.n_particles();

    let base = sim.species[0].to_particles();
    let mut acc = vpic_core::AccumulatorArray::new(&g);
    let mut rate_of = |layout: Layout| {
        let mut store = ParticleStore::from_particles(base.clone(), layout);
        let (t, _) = time_it(|| {
            for _ in 0..reps {
                acc.clear();
                advance_p(
                    &mut store,
                    coeffs,
                    &sim.interp,
                    std::slice::from_mut(&mut acc),
                    &g,
                );
            }
        });
        n_particles as f64 * reps as f64 / t
    };
    let r_aos = rate_of(Layout::Aos);
    let r_soa = rate_of(Layout::Aosoa);
    print_table(
        &format!("E8.1: particle layout ({} particles, sorted)", n_particles),
        &["layout", "advances/s", "relative"],
        &[
            vec![
                "AoS (32-byte particles)".into(),
                format!("{:.3e}", r_aos),
                "1.00".into(),
            ],
            vec![
                "AoSoA (8-lane blocks)".into(),
                format!("{:.3e}", r_soa),
                format!("{:.2}", r_soa / r_aos),
            ],
        ],
    );

    // --- (2) Sort cadence x push kernel --------------------------------
    // Each cell runs the production AoSoA step loop under one cadence
    // policy and one kernel body; `auto` exercises the coherence-driven
    // controller. The JSON dump feeds EXPERIMENTS.md and ad-hoc plotting.
    let json = parse_opt::<String>("json", String::new());
    let mut rows = Vec::new();
    let mut records = Vec::new();
    let policies = ["0", "10", "25", "100", "auto"];
    for cadence in policies {
        let policy = SortPolicy::parse(cadence).expect("sweep cadences all parse");
        for kernel in [PushKernel::Scalar, PushKernel::Lane] {
            let kernel_name = match kernel {
                PushKernel::Scalar => "scalar",
                PushKernel::Lane => "lane",
            };
            let mut sim = uniform_plasma(n, ppc, 1, 22);
            sim.set_layout(Layout::Aosoa);
            sim.set_kernel(kernel);
            sim.species[0].set_sort_policy(policy);
            // Scramble particle order thoroughly before measuring.
            for _ in 0..if full { 60 } else { 30 } {
                sim.step();
            }
            let loc = locality_fraction(&sim.species[0].to_particles());
            sim.timings = Default::default();
            let coh_start = *sim.species[0].coherence();
            let steps = if full { 30 } else { 12 };
            for _ in 0..steps {
                sim.step();
            }
            let pps = sim.timings.particle_steps as f64 / sim.timings.push;
            let sort_per_step = sim.timings.sort / sim.timings.steps as f64;
            let coh_end = *sim.species[0].coherence();
            let sorts = coh_end.sorts - coh_start.sorts;
            let skipped = coh_end.skipped_sorts - coh_start.skipped_sorts;
            let spill = {
                let lanes = (coh_end.tally.lane_blocks - coh_start.tally.lane_blocks) * 8;
                if lanes == 0 {
                    0.0
                } else {
                    (coh_end.tally.lane_spills - coh_start.tally.lane_spills) as f64 / lanes as f64
                }
            };
            let realized = sim.species[0].cadence().interval;
            rows.push(vec![
                policy.name(),
                kernel_name.into(),
                format!("{realized}"),
                format!("{:.3}", loc),
                format!("{:.3e}", pps),
                format!("{:.4}", sort_per_step),
                format!("{:.4}", spill),
            ]);
            records.push(format!(
                "    {{\n      \"cadence\": \"{}\",\n      \"kernel\": \"{kernel_name}\",\n      \
                 \"realized_interval\": {realized},\n      \"locality\": {loc:.6},\n      \
                 \"push_advances_per_sec\": {pps:.6e},\n      \"sort_sec_per_step\": \
                 {sort_per_step:.6e},\n      \"spill_rate\": {spill:.6},\n      \"sorts\": \
                 {sorts},\n      \"skipped_sorts\": {skipped}\n    }}",
                policy.name()
            ));
        }
    }
    print_table(
        "E8.2: sort cadence x kernel (aosoa layout; locality = fraction of neighbors in \
         adjacent voxels)",
        &[
            "cadence",
            "kernel",
            "realized",
            "locality",
            "push advances/s",
            "sort s/step",
            "spill rate",
        ],
        &rows,
    );
    if !json.is_empty() {
        let body = format!(
            "{{\n  \"schema\": \"vpic-bench/e8-sort-kernel/v1\",\n  \"grid\": [{}, {}, {}],\n  \
             \"ppc\": {ppc},\n  \"sweep\": [\n{}\n  ]\n}}\n",
            n.0,
            n.1,
            n.2,
            records.join(",\n")
        );
        if let Err(e) = std::fs::write(&json, body) {
            eprintln!("write {json}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote {json} ({} sweep records)", records.len());
    }

    // --- (3) Pipelines --------------------------------------------------
    let mut rows = Vec::new();
    let mut base_rate = 0.0;
    for &pipes in &[1usize, 2, 4, 8] {
        let mut sim = uniform_plasma(n, ppc, pipes, 23);
        for _ in 0..2 {
            sim.step();
        }
        sim.species[0].sort(&sim.grid);
        sim.interp.load(&sim.fields, &sim.grid);
        let coeffs = PushCoefficients::new(-1.0, 1.0, &sim.grid);
        let g2 = sim.grid.clone();
        let np = sim.n_particles();
        let (t, _) = time_it(|| {
            for _ in 0..reps {
                sim.accumulators.clear();
                advance_p(
                    sim.species[0].store_mut(),
                    coeffs,
                    &sim.interp,
                    &mut sim.accumulators.arrays,
                    &g2,
                );
            }
        });
        let pps = np as f64 * reps as f64 / t;
        if pipes == 1 {
            base_rate = pps;
        }
        rows.push(vec![
            format!("{pipes}"),
            format!("{:.3e}", pps),
            format!("{:.2}", pps / base_rate),
        ]);
    }
    print_table(
        "E8.3: accumulator pipelines (Rayon workers; conflict-free scatter)",
        &["pipelines", "advances/s", "speedup"],
        &rows,
    );
    println!("\n(on a single-core host the pipeline sweep measures overhead, not speedup)");
}
