//! The load-bearing invariant of the whole code: the Villasenor–Buneman
//! current deposition plus `move_p` segmentation satisfies the *discrete*
//! continuity equation exactly (to f32 roundoff):
//!
//! ```text
//! (ρ(n+1) − ρ(n))/dt + ∇·J(n+½) = 0      at every node
//! ```
//!
//! with ρ deposited by trilinear node weighting. If this holds for
//! arbitrary moves — including multi-face crossings, periodic wraps and
//! reflections — then Gauss's law is preserved by the field update and the
//! simulation never needs (but still offers) divergence cleaning.

use proptest::prelude::*;
use vpic_core::accumulator::AccumulatorArray;
use vpic_core::deposit::deposit_rho;
use vpic_core::field::FieldArray;
use vpic_core::field_solver::{bcs_of, sync_j, sync_rho};
use vpic_core::grid::{Grid, ParticleBc};
use vpic_core::interpolator::InterpolatorArray;
use vpic_core::particle::Particle;
use vpic_core::push::{advance_p_aos, PushCoefficients};

/// Max |dρ/dt + ∇·J| over live nodes, normalized by the max |dρ/dt| term
/// (so the bound is a relative roundoff measure).
fn continuity_residual(
    g: &Grid,
    parts_before: &[Particle],
    parts_after: &[Particle],
    f: &FieldArray,
    qsp: f32,
) -> f64 {
    let mut before = FieldArray::new(g);
    deposit_rho(&mut before, g, parts_before.iter().copied(), qsp);
    sync_rho(&mut before, g, bcs_of(g));
    let mut after = FieldArray::new(g);
    deposit_rho(&mut after, g, parts_after.iter().copied(), qsp);
    sync_rho(&mut after, g, bcs_of(g));

    let (sx, sy, _) = g.strides();
    let (dj, dk) = (sx, sx * sy);
    let (rdx, rdy, rdz) = (1.0 / g.dx as f64, 1.0 / g.dy as f64, 1.0 / g.dz as f64);
    let rdt = 1.0 / g.dt as f64;
    let mut max_resid = 0.0f64;
    let mut max_term = 1e-30f64;
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            for i in 1..=g.nx {
                let v = g.voxel(i, j, k);
                let drho = (after.rho[v] as f64 - before.rho[v] as f64) * rdt;
                let divj = rdx * (f.jx[v] as f64 - f.jx[v - 1] as f64)
                    + rdy * (f.jy[v] as f64 - f.jy[v - dj] as f64)
                    + rdz * (f.jz[v] as f64 - f.jz[v - dk] as f64);
                max_resid = max_resid.max((drho + divj).abs());
                max_term = max_term.max(drho.abs()).max(divj.abs());
            }
        }
    }
    max_resid / max_term
}

fn run_continuity(g: Grid, particles: Vec<Particle>, qsp: f32) -> f64 {
    let interp = InterpolatorArray::new(&g); // zero fields: free streaming
    let mut acc = [AccumulatorArray::new(&g)];
    let coeffs = PushCoefficients::new(qsp, 1.0, &g);
    let before = particles.clone();
    let mut parts = particles;
    let (exiles, _) = advance_p_aos(&mut parts, coeffs, &interp, &mut acc, &g);
    assert!(exiles.is_empty(), "no migrate faces in these grids");
    let mut f = FieldArray::new(&g);
    acc[0].unload(&mut f, &g);
    sync_j(&mut f, &g, bcs_of(&g));
    continuity_residual(&g, &before, &parts, &f, qsp)
}

fn arb_particle(g: &Grid) -> impl Strategy<Value = Particle> {
    let (nx, ny, nz) = (g.nx, g.ny, g.nz);
    let sx = g.strides().0;
    let sxy = sx * g.strides().1;
    (
        1..=nx,
        1..=ny,
        1..=nz,
        -0.999f32..0.999,
        -0.999f32..0.999,
        -0.999f32..0.999,
        -3.0f32..3.0,
        -3.0f32..3.0,
        -3.0f32..3.0,
        0.1f32..4.0,
    )
        .prop_map(move |(i, j, k, dx, dy, dz, ux, uy, uz, w)| Particle {
            dx,
            dy,
            dz,
            i: (i + sx * j + sxy * k) as u32,
            ux,
            uy,
            uz,
            w,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Periodic box, free streaming at relativistic speeds: |u| up to 3
    /// means particles cross cells (and the domain edge) routinely.
    #[test]
    fn continuity_periodic(parts in proptest::collection::vec(
        arb_particle(&Grid::periodic((6, 5, 4), (0.5, 0.6, 0.7), 0.4)), 1..40,
    )) {
        let g = Grid::periodic((6, 5, 4), (0.5, 0.6, 0.7), 0.4);
        let resid = run_continuity(g, parts, -1.0);
        prop_assert!(resid < 2e-4, "relative continuity residual {resid}");
    }

    /// Reflecting walls along x: reflected moves must also conserve charge
    /// (no current leaks through the wall).
    #[test]
    fn continuity_reflecting(parts in proptest::collection::vec(
        arb_particle(&Grid::periodic((6, 5, 4), (0.5, 0.6, 0.7), 0.4)), 1..40,
    )) {
        let bc = [
            ParticleBc::Reflect,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
            ParticleBc::Reflect,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
        ];
        let g = Grid::new((6, 5, 4), (0.5, 0.6, 0.7), 0.4, bc);
        let resid = run_continuity(g, parts, 1.0);
        prop_assert!(resid < 2e-4, "relative continuity residual {resid}");
    }

    /// Positive charge species behaves identically.
    #[test]
    fn continuity_positive_charge(parts in proptest::collection::vec(
        arb_particle(&Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.5)), 1..20,
    )) {
        let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 0.5);
        let resid = run_continuity(g, parts, 2.0);
        prop_assert!(resid < 2e-4, "relative continuity residual {resid}");
    }
}

/// Deterministic worst-case: a particle aimed diagonally through a voxel
/// corner (three crossings in one step).
#[test]
fn continuity_corner_crossing() {
    let g = Grid::periodic((4, 4, 4), (0.5, 0.5, 0.5), 0.3);
    let u = 2.0f32; // v ≈ 0.76c per axis component... |u|=3.46, v≈0.96c
    let parts = vec![Particle {
        dx: 0.98,
        dy: 0.97,
        dz: 0.99,
        i: g.voxel(2, 2, 2) as u32,
        ux: u,
        uy: u,
        uz: u,
        w: 1.5,
    }];
    let resid = run_continuity(g, parts, -1.0);
    assert!(resid < 2e-4, "corner crossing residual {resid}");
}

/// A particle that exactly lands on a face (displacement hits ±1 to f32
/// precision) must not double-deposit or lose charge.
#[test]
fn continuity_exact_face_landing() {
    let g = Grid::periodic((4, 4, 4), (1.0, 1.0, 1.0), 1.0);
    // cdt_dx = 1, u chosen so half-displacement ≈ 0.25 → lands at 1.0.
    let u = {
        // Solve u/γ · cdt_dx = 0.25 → v = 0.25, u = v/√(1−v²).
        let v = 0.25f64;
        (v / (1.0 - v * v).sqrt()) as f32
    };
    let parts = vec![Particle {
        dx: 0.5,
        dy: 0.0,
        dz: 0.0,
        i: g.voxel(2, 2, 2) as u32,
        ux: u,
        uy: 0.0,
        uz: 0.0,
        w: 1.0,
    }];
    let resid = run_continuity(g, parts, -1.0);
    assert!(resid < 2e-4, "face landing residual {resid}");
}
