//! Criterion microbenchmarks of the PIC kernels (companion to the
//! experiment binaries; these give statistically robust per-kernel
//! numbers for calibration and regression tracking).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use nanompi::{run_socket, SocketAddrSpec, SocketBoot, Wire, WireReader};
use vpic_core::aosoa::{advance_p_aosoa, lane_compute, lane_scatter, AosoaStore};
use vpic_core::field_solver::{advance_b, advance_e, bcs_of, sync_b, sync_e, sync_j};
use vpic_core::lanes::{self, transpose8, F32x8, Wide, LANES};
use vpic_core::push::{advance_p_serial, advance_p_tallied, PushCoefficients, PushKernel};
use vpic_core::sort::sort_by_voxel;
use vpic_core::{
    grid::ParticleBc, load_uniform, AccumulatorArray, FieldArray, Grid, InterpolatorArray,
    Momentum, ParticleStore, Rng, Simulation, Species,
};

fn plasma(n: (usize, usize, usize), ppc: usize) -> Simulation {
    let dx = 0.25f32;
    let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.9);
    let g = Grid::periodic(n, (dx, dx, dx), dt);
    let mut sim = Simulation::new(g, 1);
    let mut e = Species::new("e", -1.0, 1.0);
    let mut rng = Rng::seeded(1);
    load_uniform(
        &mut e,
        &sim.grid,
        &mut rng,
        1.0,
        ppc,
        Momentum::thermal(0.05),
    );
    sim.add_species(e);
    for _ in 0..2 {
        sim.step();
    }
    sim.species[0].sort(&sim.grid);
    sim.interp.load(&sim.fields, &sim.grid);
    sim
}

fn bench_push(c: &mut Criterion) {
    println!("lane backend: {}", lanes::BACKEND);
    let mut group = c.benchmark_group("particle_push");
    for ppc in [16usize, 64] {
        let sim = plasma((12, 12, 12), ppc);
        let g = sim.grid.clone();
        let coeffs = PushCoefficients::new(-1.0, 1.0, &g);
        let interp = sim.interp.clone();
        let mut acc = AccumulatorArray::new(&g);
        let n = sim.n_particles();
        group.throughput(Throughput::Elements(n as u64));
        let mut parts = sim.species[0].to_particles();
        group.bench_with_input(BenchmarkId::new("aos", ppc), &ppc, |b, _| {
            b.iter(|| {
                acc.clear();
                advance_p_serial(&mut parts, coeffs, &interp, &mut acc, &g);
            })
        });
        let mut store = AosoaStore::from_particles(&parts);
        group.bench_with_input(BenchmarkId::new("aosoa", ppc), &ppc, |b, _| {
            b.iter(|| {
                acc.clear();
                advance_p_aosoa(&mut store, coeffs, &interp, &mut acc, &g);
            })
        });
        // The path that ships: one pipeline of the production advance,
        // deferred-scatter queue and tallies included.
        let mut store = ParticleStore::Aosoa(AosoaStore::from_particles(&parts));
        let mut accs = [AccumulatorArray::new(&g)];
        group.bench_with_input(BenchmarkId::new("aosoa_pipelined", ppc), &ppc, |b, _| {
            b.iter(|| {
                accs[0].clear();
                advance_p_tallied(&mut store, coeffs, &interp, &mut accs, &g, PushKernel::Lane)
            })
        });
    }
    group.finish();
}

/// The pieces of the lane kernel on their own, so the compute/scatter
/// split in EXPERIMENTS.md E2 can be regenerated: the two data-movement
/// primitives of a block's compute phase, the whole compute phase one and
/// two blocks per pass (`compute_blocks/{1,2}`, per particle — what
/// `scripts/ci.sh kernel` gates at 1.15x), and the in-order scatter of
/// the queued records on freshly sorted blocks (`sorted`: one voxel per
/// block, the register-carried case) and on blocks whose every lane sits
/// in another voxel (`mixed`: a reload per lane).
fn bench_lane_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("lane_primitives");
    group.throughput(Throughput::Elements(LANES as u64));
    let rows: [F32x8; LANES] =
        std::array::from_fn(|r| F32x8(std::array::from_fn(|l| (r * LANES + l) as f32)));
    group.bench_function("transpose8", |b| {
        b.iter(|| transpose8(criterion::black_box(rows)))
    });
    let sim = plasma((12, 12, 12), 16);
    let parts = sim.species[0].to_particles();
    // One sorted block's voxels and offsets (mostly one voxel, as in a run).
    let idx: [u32; LANES] = std::array::from_fn(|l| parts[l].i);
    let dx = Wide([F32x8(std::array::from_fn(|l| parts[l].dx))]);
    let dy = Wide([F32x8(std::array::from_fn(|l| parts[l].dy))]);
    let dz = Wide([F32x8(std::array::from_fn(|l| parts[l].dz))]);
    group.bench_function("gather_ha_cb8", |b| {
        b.iter(|| {
            let (idx, dx, dy, dz) = criterion::black_box((&idx, dx, dy, dz));
            sim.interp.gather_ha_cb8([idx], dx, dy, dz, 0.1)
        })
    });

    let g = sim.grid.clone();
    let coeffs = PushCoefficients::new(-1.0, 1.0, &g);
    group.throughput(Throughput::Elements(parts.len() as u64));
    let mut pushes = Vec::new();
    let mut store = AosoaStore::from_particles(&parts);
    group.bench_function(BenchmarkId::new("compute_blocks", 1), |b| {
        b.iter(|| lane_compute::<1>(&mut store, coeffs, &sim.interp, &mut pushes))
    });
    let mut store = AosoaStore::from_particles(&parts);
    group.bench_function(BenchmarkId::new("compute_blocks", 2), |b| {
        b.iter(|| lane_compute::<2>(&mut store, coeffs, &sim.interp, &mut pushes))
    });

    // Particles at rest, so that every lane stays and the scatter can be
    // repeated on the same records.
    let rest: Vec<_> = parts
        .iter()
        .map(|p| vpic_core::Particle {
            ux: 0.0,
            uy: 0.0,
            uz: 0.0,
            ..*p
        })
        .collect();
    let mut acc = AccumulatorArray::new(&g);
    let live: Vec<u32> = (0..g.n_voxels() as u32)
        .filter(|&v| g.is_live(v as usize))
        .collect();
    for (name, voxel_of) in [
        (
            "sorted",
            Box::new(|k: usize| live[k / LANES % live.len()]) as Box<dyn Fn(usize) -> u32>,
        ),
        ("mixed", Box::new(|k: usize| live[k % live.len()])),
    ] {
        let placed: Vec<_> = rest
            .iter()
            .enumerate()
            .map(|(k, p)| vpic_core::Particle {
                i: voxel_of(k),
                ..*p
            })
            .collect();
        let mut store = AosoaStore::from_particles(&placed);
        lane_compute::<2>(&mut store, coeffs, &sim.interp, &mut pushes);
        group.bench_function(BenchmarkId::new("scatter_block", name), |b| {
            b.iter(|| lane_scatter(&mut store, &pushes, coeffs.qsp, &mut acc, &g))
        });
    }
    group.finish();
}

fn bench_field_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("field_solver");
    let n = (32usize, 32usize, 32usize);
    let dx = 0.25f32;
    let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.9);
    let g = Grid::periodic(n, (dx, dx, dx), dt);
    let mut f = FieldArray::new(&g);
    group.throughput(Throughput::Elements(g.n_live() as u64));
    group.bench_function("advance_b_half", |b| b.iter(|| advance_b(&mut f, &g, 0.5)));
    group.bench_function("advance_e", |b| b.iter(|| advance_e(&mut f, &g)));
    let mut ia = InterpolatorArray::new(&g);
    group.bench_function("interpolator_load", |b| b.iter(|| ia.load(&f, &g)));
    group.finish();
}

/// The ghost surface on its own, at the three shapes the benchmark's
/// workloads run: the SRS point grid (PEC in x, periodic y/z — almost all
/// ghost), `halo-socket`'s x-split slab (x ghosts exchanged, so the local
/// syncs see only y/z planes) and `uniform-push`'s periodic cube. The
/// `x_plane_pack_unpack` entry is the strided end of the plane primitive:
/// the two-component x plane `exchange_e` packs and its neighbour unpacks.
fn bench_ghost_sync(c: &mut Criterion) {
    use vpic_parallel::exchange::{append_plane, write_plane};
    use ParticleBc::{Absorb, Migrate, Periodic};
    let mut group = c.benchmark_group("ghost_sync");
    group.sample_size(2000);
    let shapes = [
        ("291x1x1", (291, 1, 1), [Absorb, Periodic, Periodic]),
        ("8x64x64", (8, 64, 64), [Migrate, Periodic, Periodic]),
        ("64x64x64", (64, 64, 64), [Periodic, Periodic, Periodic]),
    ];
    for (name, n, [bx, by, bz]) in shapes {
        let g = Grid::new(n, (0.25, 0.25, 0.25), 0.1, [bx, by, bz, bx, by, bz]);
        let bcs = bcs_of(&g);
        let mut f = FieldArray::new(&g);
        group.bench_function(BenchmarkId::new("sync_b", name), |b| {
            b.iter(|| sync_b(&mut f, &g, bcs))
        });
        group.bench_function(BenchmarkId::new("sync_e", name), |b| {
            b.iter(|| sync_e(&mut f, &g, bcs))
        });
        group.bench_function(BenchmarkId::new("sync_j", name), |b| {
            b.iter(|| sync_j(&mut f, &g, bcs))
        });
        let plane = g.plane_runs(0, 1).points();
        let mut msg = Vec::with_capacity(2 * plane);
        group.bench_function(BenchmarkId::new("x_plane_pack_unpack", name), |b| {
            b.iter(|| {
                msg.clear();
                append_plane(&mut msg, &f.ey, &g, 0, 1);
                append_plane(&mut msg, &f.ez, &g, 0, 1);
                write_plane(&mut f.ey, &g, 0, g.nx + 1, &msg[..plane]);
                write_plane(&mut f.ez, &g, 0, g.nx + 1, &msg[plane..]);
            })
        });
    }
    group.finish();
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("sort");
    let sim = plasma((16, 16, 16), 32);
    let nv = sim.grid.n_voxels();
    let shuffled = {
        let mut v = sim.species[0].to_particles();
        let mut rng = Rng::seeded(3);
        for i in (1..v.len()).rev() {
            v.swap(i, rng.index(i + 1));
        }
        v
    };
    group.throughput(Throughput::Elements(shuffled.len() as u64));
    group.bench_function("counting_sort", |b| {
        b.iter_batched(
            || shuffled.clone(),
            |mut v| {
                let mut scratch = Vec::new();
                sort_by_voxel(&mut v, nv, &mut scratch);
                v
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_full_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_step");
    group.sample_size(10);
    let mut sim = plasma((12, 12, 12), 32);
    group.throughput(Throughput::Elements(sim.n_particles() as u64));
    group.bench_function("simulation_step", |b| b.iter(|| sim.step()));
    group.finish();
}

fn bench_collisions(c: &mut Criterion) {
    use vpic_core::collision::CollisionOperator;
    let mut group = c.benchmark_group("collisions");
    let mut sim = plasma((8, 8, 8), 64);
    sim.species[0].sort(&sim.grid);
    let g = sim.grid.clone();
    let op = CollisionOperator::new(1e-4, 1);
    let mut rng = Rng::seeded(11);
    group.throughput(Throughput::Elements(sim.n_particles() as u64));
    group.bench_function("ta77_apply", |b| {
        b.iter(|| op.apply(&mut sim.species[0], &g, &mut rng))
    });
    group.finish();
}

fn bench_hydro_and_loaders(c: &mut Criterion) {
    use vpic_core::hydro::HydroArray;
    use vpic_core::juttner::sample_juttner;
    let mut group = c.benchmark_group("moments_and_loaders");
    let sim = plasma((12, 12, 12), 32);
    let g = sim.grid.clone();
    group.throughput(Throughput::Elements(sim.n_particles() as u64));
    group.bench_function("hydro_accumulate", |b| {
        b.iter(|| {
            let mut h = HydroArray::new(&g);
            h.accumulate(&sim.species[0], &g);
            h
        })
    });
    let mut rng = Rng::seeded(5);
    group.throughput(Throughput::Elements(1));
    group.bench_function("juttner_sample", |b| {
        b.iter(|| sample_juttner(0.5, &mut rng))
    });
    group.finish();
}

fn bench_layout_conversion(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout");
    let sim = plasma((12, 12, 12), 32);
    let parts = sim.species[0].to_particles();
    group.throughput(Throughput::Elements(parts.len() as u64));
    group.bench_function("aos_to_aosoa", |b| {
        b.iter(|| AosoaStore::from_particles(&parts))
    });
    let store = AosoaStore::from_particles(&parts);
    group.bench_function("aosoa_to_aos", |b| b.iter(|| store.to_particles()));
    group.finish();
}

/// The halo path's pieces at the size `halo-socket` moves them: one
/// ghost-inclusive 66×66 plane of `f32` (17 kB), and the two-component
/// message `exchange_e` sends.
fn bench_comm(c: &mut Criterion) {
    const PLANE: usize = 66 * 66;
    let mut group = c.benchmark_group("comm");
    let plane: Vec<f32> = (0..PLANE).map(|i| i as f32 / 3.0).collect();

    let mut bytes = Vec::new();
    plane.wire_put(&mut bytes);
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("crc32_plane", |b| {
        b.iter(|| nanompi::wire::crc32(criterion::black_box(&bytes)))
    });
    group.bench_function("vec_f32_encode_decode", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(bytes.len());
            criterion::black_box(&plane).wire_put(&mut out);
            Vec::<f32>::wire_get(&mut WireReader::new(&out)).expect("round trip")
        })
    });

    // Rank 1 echoes until it is sent an empty message.
    const TAG: u64 = 0xBE;
    let dir = std::env::temp_dir().join(format!("vpic_bench_comm_{}", std::process::id()));
    let boot = |rank| SocketBoot::new(SocketAddrSpec::unix(&dir), rank, 2);
    let message = [plane.as_slice(), plane.as_slice()].concat();
    group.throughput(Throughput::Bytes(2 * 4 * message.len() as u64));
    std::thread::scope(|s| {
        s.spawn(|| {
            run_socket(&boot(1), None, |comm| loop {
                let msg: Vec<f32> = comm.recv(0, TAG).expect("echo recv");
                if msg.is_empty() {
                    break;
                }
                comm.send_vec(0, TAG, msg).expect("echo send");
            })
            .expect("rank 1 bootstrap");
        });
        run_socket(&boot(0), None, |comm| {
            group.bench_function("two_plane_round_trip_unix", |b| {
                b.iter(|| {
                    comm.send_vec(1, TAG, message.clone()).expect("send");
                    comm.recv::<Vec<f32>>(1, TAG).expect("recv")
                })
            });
            comm.send_vec(1, TAG, Vec::<f32>::new()).expect("stop");
        })
        .expect("rank 0 bootstrap");
    });
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

criterion_group!(
    benches,
    bench_ghost_sync,
    bench_comm,
    bench_push,
    bench_lane_primitives,
    bench_field_solver,
    bench_sort,
    bench_full_step,
    bench_collisions,
    bench_hydro_and_loaders,
    bench_layout_conversion
);
criterion_main!(benches);
