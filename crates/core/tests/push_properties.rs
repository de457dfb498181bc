//! Property tests for the particle push beyond continuity: energy
//! invariance under pure magnetic fields, bounded positions, voxel
//! validity, sort invariance of physics, and checkpoint fuzzing.

use proptest::prelude::*;
use vpic_core::accumulator::AccumulatorArray;
use vpic_core::field::FieldArray;
use vpic_core::field_solver::{bcs_of, sync_b, sync_e};
use vpic_core::grid::Grid;
use vpic_core::interpolator::InterpolatorArray;
use vpic_core::particle::Particle;
use vpic_core::push::{advance_p_aos, PushCoefficients};
use vpic_core::sort::reference_sort;

fn grid() -> Grid {
    Grid::periodic((5, 4, 3), (0.7, 0.8, 0.9), 0.25)
}

fn arb_particle() -> impl Strategy<Value = Particle> {
    let g = grid();
    let (sx, sy, _) = g.strides();
    (
        1..=g.nx,
        1..=g.ny,
        1..=g.nz,
        -0.99f32..0.99,
        -0.99f32..0.99,
        -0.99f32..0.99,
        -2.0f32..2.0,
        -2.0f32..2.0,
        -2.0f32..2.0,
        0.5f32..2.0,
    )
        .prop_map(move |(i, j, k, dx, dy, dz, ux, uy, uz, w)| Particle {
            dx,
            dy,
            dz,
            i: (i + sx * j + sx * sy * k) as u32,
            ux,
            uy,
            uz,
            w,
        })
}

fn uniform_b_interp(g: &Grid, bx: f32, by: f32, bz: f32) -> InterpolatorArray {
    let mut f = FieldArray::new(g);
    for v in 0..g.n_voxels() {
        f.cbx[v] = bx;
        f.cby[v] = by;
        f.cbz[v] = bz;
    }
    sync_e(&mut f, g, bcs_of(g));
    sync_b(&mut f, g, bcs_of(g));
    let mut ia = InterpolatorArray::new(g);
    ia.load(&f, g);
    ia
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A magnetic field can never change |u| — for any particle, any B,
    /// any charge sign.
    #[test]
    fn magnetic_push_conserves_speed(
        p in arb_particle(),
        bx in -3.0f32..3.0,
        by in -3.0f32..3.0,
        bz in -3.0f32..3.0,
        q in prop::sample::select(vec![-1.0f32, 1.0, 2.0]),
    ) {
        let g = grid();
        let ia = uniform_b_interp(&g, bx, by, bz);
        let mut acc = [AccumulatorArray::new(&g)];
        let u2_before = p.ux as f64 * p.ux as f64 + p.uy as f64 * p.uy as f64 + p.uz as f64 * p.uz as f64;
        let mut parts = vec![p];
        advance_p_aos(&mut parts, PushCoefficients::new(q, 1.0, &g), &ia, &mut acc, &g);
        let q2 = &parts[0];
        let u2_after = q2.ux as f64 * q2.ux as f64 + q2.uy as f64 * q2.uy as f64 + q2.uz as f64 * q2.uz as f64;
        prop_assert!(
            (u2_after - u2_before).abs() <= 1e-5 * (1.0 + u2_before),
            "|u|² changed: {u2_before} -> {u2_after}"
        );
    }

    /// After any push, every particle sits in a live voxel with offsets in
    /// [-1, 1] (periodic box: nothing can escape).
    #[test]
    fn positions_stay_valid(parts in proptest::collection::vec(arb_particle(), 1..30)) {
        let g = grid();
        let ia = InterpolatorArray::new(&g);
        let mut acc = [AccumulatorArray::new(&g)];
        let mut ps = parts;
        let n_before = ps.len();
        let (exiles, _) = advance_p_aos(&mut ps, PushCoefficients::new(-1.0, 1.0, &g), &ia, &mut acc, &g);
        prop_assert!(exiles.is_empty());
        prop_assert_eq!(ps.len(), n_before);
        for p in &ps {
            prop_assert!(g.is_live(p.i as usize), "ghost voxel: {:?}", p);
            prop_assert!(p.dx.abs() <= 1.0 && p.dy.abs() <= 1.0 && p.dz.abs() <= 1.0);
        }
    }

    /// Sorting the particle list must not change the deposited current
    /// (same physics, different order) beyond f32 summation noise.
    #[test]
    fn sort_does_not_change_deposition(parts in proptest::collection::vec(arb_particle(), 2..40)) {
        let g = grid();
        let ia = InterpolatorArray::new(&g);
        let c = PushCoefficients::new(-1.0, 1.0, &g);

        let mut a = parts.clone();
        let mut acc_a = [AccumulatorArray::new(&g)];
        advance_p_aos(&mut a, c, &ia, &mut acc_a, &g);

        let mut b = reference_sort(&parts, g.n_voxels());
        let mut acc_b = [AccumulatorArray::new(&g)];
        advance_p_aos(&mut b, c, &ia, &mut acc_b, &g);

        let mut fa = FieldArray::new(&g);
        acc_a[0].unload(&mut fa, &g);
        let mut fb = FieldArray::new(&g);
        acc_b[0].unload(&mut fb, &g);
        let scale: f32 = fa.jx.iter().map(|v| v.abs()).fold(0.0, f32::max).max(1e-12);
        for (x, y) in fa.jx.iter().zip(fb.jx.iter()) {
            prop_assert!((x - y).abs() <= 1e-4 * scale, "jx differs: {x} vs {y}");
        }
    }

    /// Checkpoint fuzz: corrupting any single byte of a dump must yield
    /// either a clean error or a loadable (if wrong-valued) simulation —
    /// never a panic or out-of-range state.
    #[test]
    fn checkpoint_survives_single_byte_corruption(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        use vpic_core::sim::Simulation;
        use vpic_core::species::Species;
        let g = grid();
        let mut sim = Simulation::new(g, 1);
        let mut sp = Species::new("e", -1.0, 1.0);
        sp.push(Particle { i: sim.grid.voxel(2, 2, 2) as u32, w: 1.0, ..Default::default() });
        sim.add_species(sp);
        let mut dump = Vec::new();
        vpic_core::checkpoint::save(&sim, &mut dump).unwrap();
        let pos = ((dump.len() - 1) as f64 * pos_frac) as usize;
        dump[pos] ^= 1 << bit;
        match vpic_core::checkpoint::load(&mut dump.as_slice(), 1) {
            Err(_) => {}
            Ok(restored) => {
                // If it loaded, every particle must reference a voxel that
                // exists in the (possibly corrupted) grid.
                for sp in &restored.species {
                    for p in sp.iter() {
                        prop_assert!((p.i as usize) < restored.grid.n_voxels());
                    }
                }
            }
        }
    }
}

/// Energy-conserving interpolation sanity: in a linear-in-x `Ex` the work
/// done over a closed periodic orbit of the *field solver + push* system
/// still conserves total energy (done at test scale in `sim` tests); here
/// we pin the simpler identity that a zero-field push is exactly
/// ballistic.
#[test]
fn zero_field_push_is_ballistic() {
    let g = grid();
    let ia = InterpolatorArray::new(&g);
    let mut acc = [AccumulatorArray::new(&g)];
    let u = (0.3f32, -0.2f32, 0.1f32);
    let mut parts = vec![Particle {
        i: g.voxel(2, 2, 2) as u32,
        ux: u.0,
        uy: u.1,
        uz: u.2,
        w: 1.0,
        ..Default::default()
    }];
    for _ in 0..10 {
        advance_p_aos(
            &mut parts,
            PushCoefficients::new(-1.0, 1.0, &g),
            &ia,
            &mut acc,
            &g,
        );
        assert_eq!((parts[0].ux, parts[0].uy, parts[0].uz), u);
    }
}
