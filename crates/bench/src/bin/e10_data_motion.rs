//! E10 — The data-motion argument (paper abstract: "PIC … typically
//! requires more data motion per computation than other techniques (such
//! as dense matrix calculations, molecular dynamics N-body calculations
//! and Monte-Carlo calculations) often used to demonstrate supercomputer
//! performance").
//!
//! Runs each technique's reference kernel on this host and tabulates
//! achieved flop rates next to the algorithmic bytes-per-flop, then prints
//! the PIC run's resident bytes per particle (particle store, what the sort
//! keeps between calls, and the accumulator planes the push deposited
//! into) next to the paper's 32.

use roadrunner_model::flops;
use vpic_bench::datamotion::{dense_matmul, monte_carlo, nbody_allpairs, KernelReport};
use vpic_bench::{known_flags, parse_flag, print_table, time_it, uniform_plasma};
use vpic_core::push::{advance_p, PushCoefficients};
use vpic_core::{Block, SORT_WINDOW};

/// Resident bytes per particle of the run's one species: its store's
/// blocks, its retained sort buffers, and the dirty accumulator planes of
/// every pipeline after a push.
struct Resident {
    store: f64,
    sort: f64,
    accum: f64,
}

fn pic_report(full: bool) -> (KernelReport, Resident) {
    let n = if full { (24, 24, 24) } else { (16, 16, 16) };
    let mut sim = uniform_plasma(n, 64, 1, 4);
    for _ in 0..2 {
        sim.step();
    }
    sim.species[0].sort(&sim.grid);
    sim.interp.load(&sim.fields, &sim.grid);
    let g = sim.grid.clone();
    let coeffs = PushCoefficients::new(-1.0, 1.0, &g);
    let reps = if full { 25 } else { 10 };
    let np = sim.n_particles();
    let (seconds, _) = time_it(|| {
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
    let sp = &sim.species[0];
    let resident = Resident {
        store: (sp.store().blocks.len() * std::mem::size_of::<Block>()) as f64 / np as f64,
        sort: sp.sort_buffer_bytes() as f64 / np as f64,
        accum: sim.accumulators.dirty_bytes() as f64 / np as f64,
    };
    let report = KernelReport {
        name: "PIC particle advance (this code)",
        flops: np as f64 * reps as f64 * flops::particle::TOTAL as f64,
        seconds,
        bytes_per_flop: flops::bytes_per_flop(),
    };
    (report, resident)
}

fn main() {
    known_flags(&["full"]);
    let full = parse_flag("full");
    let mm = dense_matmul(if full { 512 } else { 256 });
    let nb = nbody_allpairs(if full { 4096 } else { 2048 });
    let mc = monte_carlo(if full { 20_000_000 } else { 5_000_000 });
    let (pic, resident) = pic_report(full);

    let row = |r: &KernelReport| {
        vec![
            r.name.to_string(),
            format!("{:.2}", r.gflops()),
            format!("{:.4}", r.bytes_per_flop),
            format!("{:.1}x", r.bytes_per_flop / mm.bytes_per_flop),
        ]
    };
    print_table(
        "E10: data motion per flop across demonstration techniques",
        &[
            "kernel",
            "Gflop/s (this host)",
            "bytes/flop (algorithmic)",
            "vs dense matmul",
        ],
        &[row(&mm), row(&nb), row(&mc), row(&pic)],
    );
    println!(
        "\nPIC moves ~{:.1} bytes per flop ({} bytes per 165-flop particle advance):",
        pic.bytes_per_flop,
        flops::BYTES_PER_PARTICLE_ADVANCE
    );
    println!("orders of magnitude more data motion than the compute-dense techniques —");
    println!("the reason 0.374 Pflop/s sustained in a PIC code was remarkable in 2008.");
    println!(
        "\nResident bytes per particle: {:.1} store + {:.1} sort buffers + {:.1} accumulators \
         = {:.1} B (paper: 32 B)",
        resident.store,
        resident.sort,
        resident.accum,
        resident.store + resident.sort + resident.accum
    );
    println!(
        "(the sort keeps a window of up to {SORT_WINDOW} particles per worker plus the lanes \
         it could not place in their window: a large store approaches 32 B, a small one 64;\n\
         the accumulators count the z-planes each pipeline deposited into, 48 B a voxel)"
    );
}
