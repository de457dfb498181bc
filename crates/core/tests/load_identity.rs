//! The two-phase particle loader (`load_profile`: serial draw, pooled
//! transform and block stores) against its serial oracle
//! (`load_profile_serial`): the same store bytes, padding lanes included,
//! and the same `Rng` end state, cached normal included, at 1, 2 and 4
//! worker threads.

use vpic_core::{
    load_profile, load_profile_serial, with_worker_threads, Block, Grid, Momentum, Particle, Rng,
    Species, LANES, LOAD_CHUNK,
};

/// Every field of every lane of every block, as bits.
fn block_bits(blocks: &[Block]) -> Vec<u32> {
    let mut out = Vec::with_capacity(blocks.len() * 8 * LANES);
    for b in blocks {
        for row in [&b.dx, &b.dy, &b.dz, &b.ux, &b.uy, &b.uz, &b.w] {
            out.extend(row.iter().map(|x| x.to_bits()));
        }
        out.extend_from_slice(&b.i);
    }
    out
}

/// The next draws of an `Rng`, as bits: normals first (a cached normal
/// comes out of the first one), then uniforms.
fn rng_tail(rng: &mut Rng) -> Vec<u64> {
    let mut out: Vec<u64> = (0..5).map(|_| rng.normal().to_bits()).collect();
    out.extend((0..5).map(|_| rng.uniform().to_bits()));
    out
}

/// One load scenario: a species that may already hold `pre` particles
/// and an `Rng` that may enter with a cached normal, then `loads` profile
/// loads into the same species from the same `Rng`.
struct Case {
    name: &'static str,
    grid: Grid,
    ppc: usize,
    profile: fn(f32, f32, f32) -> f32,
    pre: usize,
    spare: bool,
    loads: usize,
}

/// Run `case` through the two-phase loader (`serial == false`) or the
/// oracle.
fn run(case: &Case, serial: bool) -> (Species, Rng) {
    let g = &case.grid;
    let mut sp = Species::new("e", -1.0, 1.0);
    for n in 0..case.pre {
        sp.push(Particle {
            dx: 0.25,
            i: g.voxel(1 + n % g.nx, 1, 1) as u32,
            ux: n as f32,
            w: 2.0,
            ..Particle::default()
        });
    }
    let mut rng = Rng::seeded(0x10AD ^ case.pre as u64);
    if case.spare {
        rng.normal();
    }
    let mom = Momentum {
        uth: [0.05, 0.07, 0.11],
        drift: [0.01, -0.02, 0.0],
    };
    for _ in 0..case.loads {
        if serial {
            load_profile_serial(&mut sp, g, &mut rng, case.ppc, mom, 0.7, case.profile);
        } else {
            load_profile(&mut sp, g, &mut rng, case.ppc, mom, 0.7, case.profile);
        }
    }
    (sp, rng)
}

fn uniform(_: f32, _: f32, _: f32) -> f32 {
    1.0
}

/// 0 → 1 across x, so every cell's count is rounded stochastically.
fn ramp(x: f32, _: f32, _: f32) -> f32 {
    x / 6.0
}

/// Empty slabs in x and z around a full-density box, plus a fractional
/// shelf: runs of cells that draw only their rounding uniform.
fn holes(x: f32, _: f32, z: f32) -> f32 {
    if !(1.0..=4.0).contains(&x) || z > 1.5 {
        0.0
    } else if x < 2.0 {
        0.35
    } else {
        1.0
    }
}

fn nothing(_: f32, _: f32, _: f32) -> f32 {
    0.0
}

fn cases() -> Vec<Case> {
    let small = || Grid::periodic((12, 5, 7), (0.5, 0.5, 0.5), 0.1);
    // 24·24·12 = 6912 cells: ppc 3 is 20 736 particles, more than one
    // chunk and not a whole number of blocks after the first.
    let wide = || Grid::periodic((24, 24, 12), (0.25, 0.25, 0.25), 0.05);
    let mut out = Vec::new();
    for ppc in [1, 3, 8] {
        for (pname, profile) in [
            ("uniform", uniform as fn(f32, f32, f32) -> f32),
            ("ramp", ramp),
            ("holes", holes),
        ] {
            for (pre, spare) in [(0, false), (5, true), (13, false), (3, true)] {
                out.push(Case {
                    name: pname,
                    grid: small(),
                    ppc,
                    profile,
                    pre,
                    spare,
                    loads: 1,
                });
            }
        }
    }
    for (pname, profile) in [
        ("wide uniform", uniform as fn(f32, f32, f32) -> f32),
        ("wide ramp", ramp),
    ] {
        for (pre, spare) in [(0, false), (7, true)] {
            out.push(Case {
                name: pname,
                grid: wide(),
                ppc: 3,
                profile,
                pre,
                spare,
                loads: 2,
            });
        }
    }
    out.push(Case {
        name: "empty",
        grid: small(),
        ppc: 8,
        profile: nothing,
        pre: 3,
        spare: true,
        loads: 2,
    });
    out
}

#[test]
fn two_phase_load_is_bitwise_the_serial_load_at_any_width() {
    let mut crossed_chunks = false;
    for case in cases() {
        let (want, mut want_rng) = run(&case, true);
        let want_bits = block_bits(&want.store().blocks);
        let want_tail = rng_tail(&mut want_rng);
        crossed_chunks |= want.len() - case.pre > LOAD_CHUNK;
        for threads in [1, 2, 4] {
            let (got, mut got_rng) = with_worker_threads(threads, || run(&case, false));
            let what = format!(
                "{} ppc {} pre {} spare {} at {threads} threads",
                case.name, case.ppc, case.pre, case.spare
            );
            assert_eq!(got.len(), want.len(), "{what}: length");
            assert!(
                block_bits(&got.store().blocks) == want_bits,
                "{what}: store bytes differ"
            );
            assert_eq!(rng_tail(&mut got_rng), want_tail, "{what}: Rng end state");
        }
    }
    assert!(crossed_chunks, "no case spans more than one chunk");
}

/// The cached normal a load leaves behind is the one the oracle leaves:
/// an odd particle count ends a load on the first half of a pair.
#[test]
fn odd_loads_hand_the_spare_normal_on() {
    let g = Grid::periodic((3, 1, 1), (1.0, 1.0, 1.0), 0.1);
    for ppc in [1, 3] {
        let mut rngs = [Rng::seeded(9), Rng::seeded(9)];
        let mut sps = [Species::new("a", 1.0, 1.0), Species::new("b", 1.0, 1.0)];
        for (n, (sp, rng)) in sps.iter_mut().zip(&mut rngs).enumerate() {
            let mom = Momentum::thermal(0.1);
            for _ in 0..3 {
                if n == 0 {
                    load_profile_serial(sp, &g, rng, ppc, mom, 1.0, uniform);
                } else {
                    load_profile(sp, &g, rng, ppc, mom, 1.0, uniform);
                }
            }
        }
        assert_eq!(sps[0].len() % 2, 1);
        assert!(block_bits(&sps[0].store().blocks) == block_bits(&sps[1].store().blocks));
        let [a, b] = &mut rngs;
        assert_eq!(rng_tail(a), rng_tail(b));
    }
}
