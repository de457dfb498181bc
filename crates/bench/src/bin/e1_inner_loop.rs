//! E1 — Inner-loop particle advance rate (paper anchor: 0.488 Pflop/s
//! s.p. over 97,920 SPEs, i.e. ~19.5% of SP peak).
//!
//! Measures the particle push + deposition kernel in isolation for a
//! sweep of particles-per-cell, reporting particle advances per second
//! and the equivalent s.p. flop rate under the documented flop count
//! (`roadrunner-model::flops`).

use roadrunner_model::flops;
use vpic_bench::{known_flags, parse_flag, print_table, time_it, uniform_plasma};
use vpic_core::push::{advance_p, PushCoefficients};

fn main() {
    known_flags(&["full"]);
    let full = parse_flag("full");
    let n = if full { (32, 32, 32) } else { (16, 16, 16) };
    let ppcs: &[usize] = &[16, 64, 256];
    let repeats = if full { 40 } else { 15 };

    let mut rows = Vec::new();
    for &ppc in ppcs {
        let mut sim = uniform_plasma(n, ppc, 1, 42);
        // Warm the state and build a realistic interpolator.
        for _ in 0..3 {
            sim.step();
        }
        sim.species[0].sort(&sim.grid);
        sim.interp.load(&sim.fields, &sim.grid);
        let g = sim.grid.clone();
        let coeffs = PushCoefficients::new(-1.0, 1.0, &g);
        let n_particles = sim.n_particles();

        let (secs, _) = time_it(|| {
            for _ in 0..repeats {
                sim.accumulators.clear();
                let exiles = advance_p(
                    sim.species[0].store_mut(),
                    coeffs,
                    &sim.interp,
                    &mut sim.accumulators.arrays,
                    &g,
                );
                assert!(exiles.is_empty());
            }
        });
        let advances = n_particles as f64 * repeats as f64;
        let pps = advances / secs;
        let gflops = flops::particle_flops(pps) / 1e9;
        rows.push(vec![
            format!("{ppc}"),
            format!("{n_particles}"),
            format!("{:.3e}", pps),
            format!("{:.2}", gflops),
            format!("{:.2}", flops::bytes_per_flop() * gflops), // GB/s implied
        ]);
    }

    print_table(
        &format!(
            "E1: inner loop (push + deposit), grid {n:?}, {} flops/particle",
            flops::particle::TOTAL
        ),
        &[
            "ppc",
            "particles",
            "advances/s",
            "Gflop/s (s.p.)",
            "implied GB/s",
        ],
        &rows,
    );
    println!(
        "\npaper anchor: 0.488 Pflop/s s.p. over 97,920 SPEs \
         (= {:.1} Mparticles/s per SPE under our flop count)",
        0.488e15 / 97920.0 / flops::particle::TOTAL as f64 / 1e6
    );
    println!("see e7_machine_projection for the calibrated full-machine extrapolation");
}
