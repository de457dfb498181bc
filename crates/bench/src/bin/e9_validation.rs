//! E9 — Fidelity battery: the analytic checks backing the paper's
//! "unprecedented fidelity" claim, each compared against theory.
//!
//! 1. Langmuir oscillation frequency vs Bohm-Gross;
//! 2. two-stream instability growth rate vs cold-beam theory;
//! 3. long-run total energy conservation;
//! 4. exact discrete charge continuity (dρ/dt + ∇·J);
//! 5. ∇·B preservation;
//! 6. light-wave dispersion on the Yee mesh.

use vpic_bench::{known_flags, parse_flag, print_table, uniform_plasma};
use vpic_core::field_solver::{bcs_of, compute_div_b_err, sync_e, sync_j, sync_rho};
use vpic_core::{load_two_stream, Grid, Rng, Simulation, Species};
use vpic_diag::TimeSeries;

fn langmuir(full: bool) -> (f64, f64) {
    let nx = if full { 64 } else { 32 };
    let vth = 0.02f32;
    let mut sim = uniform_plasma((nx, 4, 4), if full { 128 } else { 64 }, 1, 1);
    let g = sim.grid.clone();
    let kx = 2.0 * std::f32::consts::PI / g.extent().0;
    // Thermal velocity of the factory plasma is 0.05; reload colder for a
    // crisper line: replace momenta.
    let mut parts = sim.species[0].to_particles();
    for p in &mut parts {
        p.ux *= vth / 0.05;
        p.uy *= vth / 0.05;
        p.uz *= vth / 0.05;
    }
    sim.species[0].set_particles(parts);
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            for i in 1..=g.nx {
                let x = (i as f32 - 0.5) * g.dx;
                sim.fields.ex[g.voxel(i, j, k)] = 0.004 * (kx * x).sin();
            }
        }
    }
    sync_e(&mut sim.fields, &g, bcs_of(&g));
    let steps = (40.0 / g.dt as f64) as usize;
    let mut ts = TimeSeries::new("fe", g.dt as f64);
    for _ in 0..steps {
        sim.step();
        ts.push(sim.energies().field_e);
    }
    let measured = ts.dominant_omega() / 2.0;
    let theory = (1.0 + 3.0 * (kx * vth) as f64 * (kx * vth) as f64).sqrt();
    (measured, theory)
}

fn two_stream(full: bool) -> (f64, f64) {
    let nx = if full { 128 } else { 64 };
    let dx = 0.2f32;
    let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.9);
    let grid = Grid::periodic((nx, 2, 2), (dx, dx, dx), dt);
    let mut sim = Simulation::new(grid, 1);
    let mut e = Species::new("e", -1.0, 1.0);
    let mut rng = Rng::seeded(8);
    load_two_stream(
        &mut e,
        &sim.grid,
        &mut rng,
        1.0,
        if full { 256 } else { 128 },
        0.1,
        0.005,
    );
    sim.add_species(e);
    let steps = (60.0 / sim.grid.dt as f64) as usize;
    let mut ts = TimeSeries::new("fe", sim.grid.dt as f64);
    for _ in 0..steps {
        sim.step();
        ts.push(sim.energies().field_e.max(1e-300));
    }
    let (_, peak) = ts.min_max();
    let sat = ts
        .samples
        .iter()
        .position(|&v| v > 0.1 * peak)
        .unwrap_or(steps / 2);
    let gamma = 0.5 * ts.growth_rate_in(sat / 3, sat);
    (gamma, 1.0 / (2.0 * 2.0f64.sqrt()))
}

fn energy_drift(full: bool) -> f64 {
    let mut sim = uniform_plasma((12, 12, 12), if full { 64 } else { 32 }, 1, 9);
    let e0 = sim.energies().total();
    let steps = if full { 600 } else { 200 };
    for _ in 0..steps {
        sim.step();
    }
    (sim.energies().total() - e0).abs() / e0
}

fn continuity_residual() -> f64 {
    use vpic_core::deposit::deposit_rho;
    use vpic_core::push::{advance_p_aos, PushCoefficients};
    use vpic_core::{AccumulatorArray, FieldArray};
    let g = Grid::periodic((8, 8, 8), (0.4, 0.4, 0.4), 0.3);
    let mut rng = Rng::seeded(10);
    let mut parts = Vec::new();
    for _ in 0..500 {
        parts.push(vpic_core::Particle {
            dx: rng.uniform_in(-0.99, 0.99) as f32,
            dy: rng.uniform_in(-0.99, 0.99) as f32,
            dz: rng.uniform_in(-0.99, 0.99) as f32,
            i: g.voxel(1 + rng.index(8), 1 + rng.index(8), 1 + rng.index(8)) as u32,
            ux: rng.normal() as f32,
            uy: rng.normal() as f32,
            uz: rng.normal() as f32,
            w: 1.0,
        });
    }
    let before = parts.clone();
    let ia = vpic_core::InterpolatorArray::new(&g);
    let mut acc = [AccumulatorArray::new(&g)];
    advance_p_aos(
        &mut parts,
        PushCoefficients::new(-1.0, 1.0, &g),
        &ia,
        &mut acc,
        &g,
    );
    let mut f = FieldArray::new(&g);
    acc[0].unload(&mut f, &g);
    sync_j(&mut f, &g, bcs_of(&g));
    let mut rho_b = FieldArray::new(&g);
    deposit_rho(&mut rho_b, &g, before.iter().copied(), -1.0);
    sync_rho(&mut rho_b, &g, bcs_of(&g));
    let mut rho_a = FieldArray::new(&g);
    deposit_rho(&mut rho_a, &g, parts.iter().copied(), -1.0);
    sync_rho(&mut rho_a, &g, bcs_of(&g));
    let (sx, sy, _) = g.strides();
    let (dj, dk) = (sx, sx * sy);
    let mut max_r = 0.0f64;
    let mut max_t = 1e-30f64;
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            for i in 1..=g.nx {
                let v = g.voxel(i, j, k);
                let drho = (rho_a.rho[v] as f64 - rho_b.rho[v] as f64) / g.dt as f64;
                let divj = (f.jx[v] as f64 - f.jx[v - 1] as f64) / g.dx as f64
                    + (f.jy[v] as f64 - f.jy[v - dj] as f64) / g.dy as f64
                    + (f.jz[v] as f64 - f.jz[v - dk] as f64) / g.dz as f64;
                max_r = max_r.max((drho + divj).abs());
                max_t = max_t.max(drho.abs());
            }
        }
    }
    max_r / max_t
}

fn div_b_rms(full: bool) -> f64 {
    let mut sim = uniform_plasma((10, 10, 10), 16, 1, 11);
    for _ in 0..if full { 200 } else { 80 } {
        sim.step();
    }
    let mut scratch = Vec::new();
    compute_div_b_err(&sim.fields, &sim.grid, &mut scratch)
}

fn light_dispersion() -> (f64, f64) {
    // ω(k) for an EM wave at 16 cells/wavelength vs the Yee dispersion
    // relation sin(ωΔt/2)/Δt = c·sin(kΔx/2)/Δx.
    let n = 32;
    let dx = 0.25f32;
    let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.6);
    let g = Grid::periodic((n, 1, 1), (dx, dx, dx), dt);
    let mut sim = Simulation::new(g, 1);
    let g = sim.grid.clone();
    let kx = 2.0 * 2.0 * std::f64::consts::PI / (n as f64 * dx as f64); // mode 2
    for i in 1..=n {
        let x_node = (i - 1) as f64 * dx as f64;
        let x_edge = x_node + 0.5 * dx as f64;
        for jk in [
            (0usize, 0usize),
            (1, 1),
            (2, 2),
            (0, 1),
            (1, 0),
            (1, 2),
            (2, 1),
            (0, 2),
            (2, 0),
        ] {
            let v = g.voxel(i, jk.0, jk.1);
            sim.fields.ey[v] = (kx * x_node).sin() as f32;
            sim.fields.cbz[v] = (kx * (x_edge + 0.5 * dt as f64)).sin() as f32;
        }
    }
    sync_e(&mut sim.fields, &g, bcs_of(&g));
    vpic_core::field_solver::sync_b(&mut sim.fields, &g, bcs_of(&g));
    let probe = g.voxel(5, 1, 1);
    let steps = (60.0 / dt as f64) as usize;
    let mut ts = TimeSeries::new("ey", dt as f64);
    for _ in 0..steps {
        sim.step();
        ts.push(sim.fields.ey[probe] as f64);
    }
    let measured = ts.dominant_omega();
    let theory = 2.0 / dt as f64 * ((dt as f64 / dx as f64) * (kx * dx as f64 / 2.0).sin()).asin();
    (measured, theory)
}

fn main() {
    known_flags(&["full"]);
    let full = parse_flag("full");
    let (lw_m, lw_t) = langmuir(full);
    let (ts_m, ts_t) = two_stream(full);
    let drift = energy_drift(full);
    let cont = continuity_residual();
    let divb = div_b_rms(full);
    let (ld_m, ld_t) = light_dispersion();

    let pct = |m: f64, t: f64| format!("{:.2}%", 100.0 * (m - t).abs() / t.abs());
    print_table(
        "E9: fidelity battery (theory vs measured)",
        &["check", "theory", "measured", "error/size"],
        &[
            vec![
                "Langmuir ω (Bohm-Gross)".into(),
                format!("{lw_t:.4}"),
                format!("{lw_m:.4}"),
                pct(lw_m, lw_t),
            ],
            vec![
                "two-stream γ_max (cold)".into(),
                format!("{ts_t:.3}"),
                format!("{ts_m:.3}"),
                "≤ theory (warm, k-quantized)".into(),
            ],
            vec![
                "energy drift (long run)".into(),
                "0".into(),
                format!("{drift:.2e}"),
                "-".into(),
            ],
            vec![
                "continuity max residual".into(),
                "0 (exact)".into(),
                format!("{cont:.2e}"),
                "f32 roundoff".into(),
            ],
            vec![
                "∇·B RMS (long run)".into(),
                "0 (exact)".into(),
                format!("{divb:.2e}"),
                "f32 roundoff".into(),
            ],
            vec![
                "light ω (Yee dispersion)".into(),
                format!("{ld_t:.4}"),
                format!("{ld_m:.4}"),
                pct(ld_m, ld_t),
            ],
        ],
    );
    println!("\npass criteria: Langmuir/light within ~2%, drift < 1e-3, residuals < 1e-4,");
    println!("two-stream growth within ~2× below the cold-beam bound.");
}
