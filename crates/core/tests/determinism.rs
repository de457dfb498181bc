//! Determinism contract of the parallelized step loop.
//!
//! Every Rayon-parallel phase (interpolator load, field advances,
//! accumulator reduce/unload, sort) partitions its writes so the arithmetic
//! per output element is identical to the serial reference — the worker
//! count must never change a single bit. The reduction order across
//! pipelines is fixed by pipeline index, so for a *fixed* pipeline count
//! two identically-seeded runs are bitwise identical however the work is
//! scheduled. These tests pin both properties, on real worker threads:
//! every matrix below also runs at 1, 2 and 4 threads
//! (`with_worker_threads`, whatever the host's core count) and must land
//! on the bits of the 1-thread run.

use vpic_core::field_solver::{
    advance_b, advance_b_serial, advance_e, advance_e_serial, bcs_of, sync_b, sync_e,
};
use vpic_core::{
    load_uniform, with_worker_threads, FieldArray, Grid, Interpolator, InterpolatorArray, Momentum,
    PushKernel, Rng, Simulation, Species,
};

/// Worker-thread widths every matrix runs at; 1 is the reference.
const THREADS: [usize; 3] = [1, 2, 4];

/// Small thermal plasma with a seeded longitudinal E perturbation, so
/// currents, fields and cell crossings are all exercised.
fn plasma(pipelines: usize) -> Simulation {
    let dx = 0.2f32;
    let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.8);
    let g = Grid::periodic((10, 9, 8), (dx, dx, dx), dt);
    let mut sim = Simulation::new(g, pipelines);
    let mut e = Species::new("e", -1.0, 1.0).with_sort_interval(4);
    let mut rng = Rng::seeded(123);
    load_uniform(&mut e, &sim.grid, &mut rng, 1.0, 8, Momentum::thermal(0.08));
    sim.add_species(e);
    let g = sim.grid.clone();
    let kx = 2.0 * std::f32::consts::PI / g.extent().0;
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            for i in 1..=g.nx {
                let x = g.x0 + (i as f32 - 0.5) * g.dx;
                sim.fields.ex[g.voxel(i, j, k)] = 0.02 * (kx * x).sin();
            }
        }
    }
    sync_e(&mut sim.fields, &g, bcs_of(&g));
    sim
}

fn assert_fields_bitwise_eq(a: &FieldArray, b: &FieldArray) {
    let pairs: [(&str, &Vec<f32>, &Vec<f32>); 9] = [
        ("ex", &a.ex, &b.ex),
        ("ey", &a.ey, &b.ey),
        ("ez", &a.ez, &b.ez),
        ("cbx", &a.cbx, &b.cbx),
        ("cby", &a.cby, &b.cby),
        ("cbz", &a.cbz, &b.cbz),
        ("jx", &a.jx, &b.jx),
        ("jy", &a.jy, &b.jy),
        ("jz", &a.jz, &b.jz),
    ];
    for (name, x, y) in pairs {
        for (v, (p, q)) in x.iter().zip(y.iter()).enumerate() {
            assert_eq!(p.to_bits(), q.to_bits(), "{name}[{v}] differs: {p} vs {q}");
        }
    }
}

/// [`plasma`] in the given variant, stepped ten times on `threads` worker
/// threads. Ten steps with `sort_interval = 4` exercise push, voxel sort
/// and current deposit.
fn stepped(pipelines: usize, kernel: PushKernel, threads: usize) -> Simulation {
    let mut sim = plasma(pipelines);
    sim.set_kernel(kernel);
    assert_eq!(sim.kernel(), kernel);
    with_worker_threads(threads, || {
        for _ in 0..10 {
            sim.step();
        }
    });
    sim
}

fn assert_same_run(a: &Simulation, b: &Simulation, what: &str) {
    assert_eq!(a.n_particles(), b.n_particles(), "{what}");
    for (sa, sb) in a.species.iter().zip(b.species.iter()) {
        for (k, (p, q)) in sa.iter().zip(sb.iter()).enumerate() {
            assert_eq!(p, q, "{what}: particle {k} differs");
        }
    }
    assert_fields_bitwise_eq(&a.fields, &b.fields);
}

#[test]
fn identically_seeded_runs_are_bitwise_identical() {
    let a = stepped(4, PushKernel::Lane, 1);
    for threads in THREADS {
        let b = stepped(4, PushKernel::Lane, threads);
        assert_same_run(&a, &b, &format!("{threads} threads"));
    }
}

/// The lane-kernel matrix: the scalar body (the oracle: `push_one` on
/// every lane, the AoS oracle's arithmetic) and the lane kernel must be
/// the *same run* bit for bit at 1/2/4/8 pipelines and 1/2/4 threads. With
/// `sort_interval = 4` the lane kernel sees freshly sorted single-voxel
/// blocks, drifted mixed-voxel blocks, cell-crossing spill-outs and the
/// straddling-block scalar path — every regime the production hot path
/// has. `refresh_rho` pins the charge-deposit path on top.
#[test]
fn lane_kernel_matrix_is_bitwise_identical_across_kernels_and_pipelines() {
    for pipes in [1usize, 2, 4, 8] {
        let mut oracle = stepped(pipes, PushKernel::Scalar, 1);
        oracle.refresh_rho();
        for threads in THREADS {
            for kernel in [PushKernel::Scalar, PushKernel::Lane] {
                let mut sim = stepped(pipes, kernel, threads);
                let what = format!("{kernel} @{pipes} pipes, {threads} threads");
                assert_same_run(&oracle, &sim, &what);
                sim.refresh_rho();
                for (v, (p, q)) in oracle.fields.rho.iter().zip(&sim.fields.rho).enumerate() {
                    assert_eq!(p.to_bits(), q.to_bits(), "rho[{v}] with {what}");
                }
            }
        }
    }
}

/// Random (but ghost-synced) field state for kernel-level comparisons.
fn random_fields(g: &Grid, seed: u64) -> FieldArray {
    let mut f = FieldArray::new(g);
    let mut rng = Rng::seeded(seed);
    for k in 1..=g.nz {
        for j in 1..=g.ny {
            for i in 1..=g.nx {
                let v = g.voxel(i, j, k);
                f.ex[v] = rng.uniform_in(-1.0, 1.0) as f32;
                f.ey[v] = rng.uniform_in(-1.0, 1.0) as f32;
                f.ez[v] = rng.uniform_in(-1.0, 1.0) as f32;
                f.cbx[v] = rng.uniform_in(-1.0, 1.0) as f32;
                f.cby[v] = rng.uniform_in(-1.0, 1.0) as f32;
                f.cbz[v] = rng.uniform_in(-1.0, 1.0) as f32;
                f.jx[v] = rng.uniform_in(-0.1, 0.1) as f32;
                f.jy[v] = rng.uniform_in(-0.1, 0.1) as f32;
                f.jz[v] = rng.uniform_in(-0.1, 0.1) as f32;
            }
        }
    }
    sync_e(&mut f, g, bcs_of(g));
    sync_b(&mut f, g, bcs_of(g));
    f
}

/// Row lengths the row kernels are checked at: all-tail rows (1–7),
/// exact 8-voxel chunks (8, 16, 24) and chunks plus a tail (9–15, 17).
fn row_lengths() -> impl Iterator<Item = usize> {
    (1..=17).chain([24])
}

#[test]
fn parallel_field_advance_matches_serial_bitwise() {
    for nx in row_lengths() {
        let g = Grid::periodic((nx, 6, 7), (0.3, 0.3, 0.3), 0.05);
        let start = random_fields(&g, 77 + nx as u64);
        let mut fb_ser = start.clone();
        advance_b_serial(&mut fb_ser, &g, 0.5);
        let mut fe_ser = start.clone();
        advance_e_serial(&mut fe_ser, &g);
        for threads in THREADS {
            let mut fb_par = start.clone();
            let mut fe_par = start.clone();
            with_worker_threads(threads, || {
                advance_b(&mut fb_par, &g, 0.5);
                advance_e(&mut fe_par, &g);
            });
            assert_fields_bitwise_eq(&fb_par, &fb_ser);
            assert_fields_bitwise_eq(&fe_par, &fe_ser);
        }
    }
}

/// All eighteen coefficients as bits: `f32`'s `==` would let `-0.0`
/// equal `0.0` and fail on equal NaNs.
fn coefficient_bits(ip: &Interpolator) -> [u32; 18] {
    [
        ip.ex,
        ip.dexdy,
        ip.dexdz,
        ip.d2exdydz,
        ip.ey,
        ip.deydz,
        ip.deydx,
        ip.d2eydzdx,
        ip.ez,
        ip.dezdx,
        ip.dezdy,
        ip.d2ezdxdy,
        ip.cbx,
        ip.dcbxdx,
        ip.cby,
        ip.dcbydy,
        ip.cbz,
        ip.dcbzdz,
    ]
    .map(f32::to_bits)
}

#[test]
fn parallel_interpolator_load_matches_serial_bitwise() {
    for nx in row_lengths() {
        let g = Grid::periodic((nx, 7, 6), (0.25, 0.25, 0.25), 0.04);
        let f = random_fields(&g, 31 + nx as u64);
        let mut ser = InterpolatorArray::new(&g);
        ser.load_serial(&f, &g);
        for threads in THREADS {
            let mut par = InterpolatorArray::new(&g);
            with_worker_threads(threads, || par.load(&f, &g));
            for (v, (a, b)) in par.data.iter().zip(ser.data.iter()).enumerate() {
                assert_eq!(
                    coefficient_bits(a),
                    coefficient_bits(b),
                    "nx {nx}: interpolator {v} differs at {threads} threads"
                );
            }
        }
    }
}

/// The coherence telemetry of the lane-kernel matrix, pinned to the counts
/// the single-block kernel (one block per compute pass, run-tracking
/// scatter) produced on it: grouping blocks in the compute pass must not
/// change which lanes count as crossers or which blocks as mixed, at any
/// pipeline or thread count. Lane spills are the crossers the batched
/// mover leaves to the scalar one — corners here, in a periodic box —
/// 115 of the 4 733 (every crosser spilled before the batched mover).
/// (5 760 particles split into whole blocks at 1/2/4/8 pipelines, so no
/// lane straddles here; `kernel_oracle.rs` checks the tallies of ragged
/// partitions.)
#[test]
fn lane_kernel_push_tallies_match_the_single_block_kernel() {
    let want = vpic_core::cadence::PushTally {
        pushed: 57_600,
        crossers: 4_733,
        lane_blocks: 7_200,
        lane_spills: 115,
        mixed_blocks: 5_397,
        straddle_lanes: 0,
    };
    for pipes in [1usize, 2, 4, 8] {
        for threads in THREADS {
            let sim = stepped(pipes, PushKernel::Lane, threads);
            let got = sim.species[0].coherence().tally;
            assert_eq!(got, want, "{pipes} pipes, {threads} threads");
        }
        // The scalar oracle sees the same crossers (and no lane blocks).
        let oracle = stepped(pipes, PushKernel::Scalar, 1);
        let t = oracle.species[0].coherence().tally;
        assert_eq!((t.pushed, t.crossers), (want.pushed, want.crossers));
    }
}
