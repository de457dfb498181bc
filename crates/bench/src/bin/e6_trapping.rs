//! E6 — Particle trapping physics (paper anchor: the trillion-particle
//! runs were sized "to model accurately the particle trapping physics
//! occurring within a laser-driven hohlraum").
//!
//! Runs one SRS point at a trapping-relevant intensity and prints the
//! electron x-momentum distribution before and after, the hot-tail
//! fraction beyond the plasma-wave phase velocity, and the bulk momentum
//! spread — the classic signatures of a trapping-flattened distribution.

use vpic_bench::{known_flags, parse_flag, print_table};
use vpic_diag::{momentum_histogram, momentum_spread, tail_fraction};
use vpic_lpi::{LpiParams, LpiRun};

fn main() {
    known_flags(&["full"]);
    let full = parse_flag("full");
    let params = LpiParams {
        n_over_ncr: 0.1,
        vth: 0.06,
        a0: if full { 0.12 } else { 0.1 },
        flat: if full { 32.0 } else { 16.0 },
        ppc: if full { 512 } else { 128 },
        pipelines: 1,
        ramp: 4.0,
        seed_frac: 0.1, // drive the plasma wave hard enough to trap
        ..Default::default()
    };
    let mut run = LpiRun::new(params);
    let vphi = run.srs.v_phase;
    let u_phi = vphi / (1.0 - vphi * vphi).sqrt();
    println!(
        "E6: trapping at a0 = {}, kλD = {:.3}, vφ = {:.3}c (uφ = {:.3})",
        params.a0, run.srs.k_lambda_d, vphi, u_phi
    );

    let before = momentum_histogram(run.electron_species(), 0, -0.6, 0.6, 24);
    let tail_before = tail_fraction(run.electron_species(), 0, 0.6 * u_phi);
    let spread_before = momentum_spread(run.electron_species(), 0);

    let steps = run.suggested_steps(if full { 6.0 } else { 3.0 });
    eprintln!(
        "running {steps} steps on {} particles ...",
        run.sim.n_particles()
    );
    run.run(steps);

    let after = momentum_histogram(run.electron_species(), 0, -0.6, 0.6, 24);
    let tail_after = tail_fraction(run.electron_species(), 0, 0.6 * u_phi);
    let spread_after = momentum_spread(run.electron_species(), 0);

    let total_b = before.total().max(1e-300);
    let total_a = after.total().max(1e-300);
    let rows: Vec<Vec<String>> = (0..before.counts.len())
        .map(|i| {
            let fb = before.counts[i] / total_b;
            let fa = after.counts[i] / total_a;
            let bar = |f: f64| "#".repeat(((f * 400.0).sqrt() as usize).min(40));
            vec![
                format!("{:+.3}", before.center(i)),
                format!("{:.2e}", fb),
                format!("{:.2e}", fa),
                format!("{:7.2}", if fb > 0.0 { fa / fb } else { f64::INFINITY }),
                bar(fa),
            ]
        })
        .collect();
    print_table(
        "E6: electron f(ux) before/after SRS saturation",
        &["ux", "f before", "f after", "ratio", "after (bar)"],
        &rows,
    );

    print_table(
        "E6: trapping metrics",
        &["metric", "before", "after"],
        &[
            vec![
                format!("tail fraction (ux > {:.2})", 0.6 * u_phi),
                format!("{tail_before:.3e}"),
                format!("{tail_after:.3e}"),
            ],
            vec![
                "momentum spread σ(ux)".into(),
                format!("{spread_before:.4}"),
                format!("{spread_after:.4}"),
            ],
            vec![
                "reflectivity".into(),
                "-".into(),
                format!("{:.3e}", run.reflectivity()),
            ],
        ],
    );
    println!("\nshape check: the forward tail (toward the plasma-wave phase velocity)");
    println!("grows by orders of magnitude while the bulk heats — trapping signatures.");
}
