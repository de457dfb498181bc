//! E10 — The data-motion argument (paper abstract: "PIC … typically
//! requires more data motion per computation than other techniques (such
//! as dense matrix calculations, molecular dynamics N-body calculations
//! and Monte-Carlo calculations) often used to demonstrate supercomputer
//! performance").
//!
//! Runs each technique's reference kernel on this host and tabulates
//! achieved flop rates next to the algorithmic bytes-per-flop.

use roadrunner_model::flops;
use vpic_bench::datamotion::{dense_matmul, monte_carlo, nbody_allpairs, KernelReport};
use vpic_bench::{known_flags, parse_flag, print_table, time_it, uniform_plasma};
use vpic_core::push::{advance_p, PushCoefficients};

fn pic_report(full: bool) -> KernelReport {
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
    KernelReport {
        name: "PIC particle advance (this code)",
        flops: np as f64 * reps as f64 * flops::particle::TOTAL as f64,
        seconds,
        bytes_per_flop: flops::bytes_per_flop(),
    }
}

fn main() {
    known_flags(&["full"]);
    let full = parse_flag("full");
    let mm = dense_matmul(if full { 512 } else { 256 });
    let nb = nbody_allpairs(if full { 4096 } else { 2048 });
    let mc = monte_carlo(if full { 20_000_000 } else { 5_000_000 });
    let pic = pic_report(full);

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
}
