//! Differential-oracle harness for the lane-wide push kernel.
//!
//! The scalar AoS path (`advance_p_with` + [`PushKernel::Scalar`]) is the
//! *pinned oracle*: every other configuration — the AoSoA layout with the
//! scalar kernel, and the production 8-lane kernel — must reproduce its
//! results **bit for bit**: particle states, survivor order after
//! absorption, exile records (including mover bits), and every
//! per-pipeline accumulator entry. Proptest-generated states round-trip
//! through all three configurations each case; pipeline counts 1/2/3/8
//! cover the no-split, even-split, straddling-block and over-decomposed
//! regimes, each on 1, 2 and 4 worker threads (pipelines sharing a
//! straddled block then really do write its lanes at the same time).
//!
//! The vendored proptest shim has no shrinking, so the harness does its
//! own: on any divergence the comparison locates the *first* differing
//! lane and fails with a single printable lane state (field values plus
//! exact bit patterns) instead of a wall of particles.

use proptest::prelude::*;
use vpic_core::aosoa::SCATTER_BATCH;
use vpic_core::cadence::PushTally;
use vpic_core::push::advance_p_tallied;
use vpic_core::{
    with_worker_threads, AccumulatorArray, Grid, Interpolator, InterpolatorArray, Layout, Particle,
    ParticleBc, ParticleStore, PushCoefficients, PushKernel, LANES,
};

/// Everything one differential case needs.
struct Case {
    g: Grid,
    interp: InterpolatorArray,
    parts: Vec<Particle>,
    coeffs: PushCoefficients,
}

/// Outcome of one push configuration, in comparable form.
struct RunResult {
    parts: Vec<Particle>,
    exiles: Vec<(u32, usize, [u32; 4])>, // idx, face, mover bits (dispx,dispy,dispz,idx)
    accs: Vec<AccumulatorArray>,
    /// The step's coherence telemetry.
    tally: PushTally,
}

fn run(case: &Case, layout: Layout, kernel: PushKernel, pipes: usize) -> RunResult {
    let mut store = ParticleStore::from_particles(case.parts.clone(), layout);
    let mut accs: Vec<AccumulatorArray> =
        (0..pipes).map(|_| AccumulatorArray::new(&case.g)).collect();
    let (exiles, tally) = advance_p_tallied(
        &mut store,
        case.coeffs,
        &case.interp,
        &mut accs,
        &case.g,
        kernel,
    );
    RunResult {
        parts: store.to_particles(),
        exiles: exiles
            .iter()
            .map(|e| {
                (
                    e.idx,
                    e.face,
                    [
                        e.mover.dispx.to_bits(),
                        e.mover.dispy.to_bits(),
                        e.mover.dispz.to_bits(),
                        e.mover.idx,
                    ],
                )
            })
            .collect(),
        accs,
        tally,
    }
}

/// One particle's state formatted for a failure report: decoded values
/// next to exact bit patterns, so a diverging lane is reproducible from
/// the test output alone.
fn lane_state(p: &Particle) -> String {
    format!(
        "voxel {}  dx {:+e} [{:#010x}]  dy {:+e} [{:#010x}]  dz {:+e} [{:#010x}]  \
         ux {:+e} [{:#010x}]  uy {:+e} [{:#010x}]  uz {:+e} [{:#010x}]  w {:+e} [{:#010x}]",
        p.i,
        p.dx,
        p.dx.to_bits(),
        p.dy,
        p.dy.to_bits(),
        p.dz,
        p.dz.to_bits(),
        p.ux,
        p.ux.to_bits(),
        p.uy,
        p.uy.to_bits(),
        p.uz,
        p.uz.to_bits(),
        p.w,
        p.w.to_bits(),
    )
}

fn bits(p: &Particle) -> [u32; 8] {
    [
        p.dx.to_bits(),
        p.dy.to_bits(),
        p.dz.to_bits(),
        p.i,
        p.ux.to_bits(),
        p.uy.to_bits(),
        p.uz.to_bits(),
        p.w.to_bits(),
    ]
}

/// Compare a run against the oracle; on divergence report the first
/// differing lane (particle, exile or accumulator entry) as one
/// printable state.
fn diff(oracle: &RunResult, got: &RunResult, label: &str) -> Result<(), String> {
    if oracle.parts.len() != got.parts.len() {
        return Err(format!(
            "{label}: survivor count {} vs oracle {}",
            got.parts.len(),
            oracle.parts.len()
        ));
    }
    for (k, (a, b)) in oracle.parts.iter().zip(got.parts.iter()).enumerate() {
        if bits(a) != bits(b) {
            return Err(format!(
                "{label}: first divergent lane = particle {k}\n  oracle: {}\n  kernel: {}",
                lane_state(a),
                lane_state(b)
            ));
        }
    }
    if oracle.exiles != got.exiles {
        let k = oracle
            .exiles
            .iter()
            .zip(got.exiles.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(oracle.exiles.len().min(got.exiles.len()));
        return Err(format!(
            "{label}: exile list diverges at entry {k}: oracle {:?} vs kernel {:?}",
            oracle.exiles.get(k),
            got.exiles.get(k)
        ));
    }
    for (pipe, (a, b)) in oracle.accs.iter().zip(got.accs.iter()).enumerate() {
        for (v, (x, y)) in a.data.iter().zip(b.data.iter()).enumerate() {
            for n in 0..4 {
                let pairs = [
                    ("jx", x.jx[n], y.jx[n]),
                    ("jy", x.jy[n], y.jy[n]),
                    ("jz", x.jz[n], y.jz[n]),
                ];
                for (comp, p, q) in pairs {
                    if p.to_bits() != q.to_bits() {
                        return Err(format!(
                            "{label}: accumulator pipe {pipe} voxel {v} {comp}[{n}]: \
                             oracle {p:e} [{:#010x}] vs kernel {q:e} [{:#010x}]",
                            p.to_bits(),
                            q.to_bits()
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Run the oracle (on one thread) and both AoSoA kernels at `pipes`
/// pipelines on 1, 2 and 4 worker threads and check bit-identity; `Err`
/// carries the first-divergent-lane report.
fn check_case(case: &Case, pipes: usize) -> Result<(), String> {
    let oracle = with_worker_threads(1, || run(case, Layout::Aos, PushKernel::Scalar, pipes));
    for threads in [1usize, 2, 4] {
        let (aos, scalar, lane) = with_worker_threads(threads, || {
            (
                run(case, Layout::Aos, PushKernel::Scalar, pipes),
                run(case, Layout::Aosoa, PushKernel::Scalar, pipes),
                run(case, Layout::Aosoa, PushKernel::Lane, pipes),
            )
        });
        let at = format!("@{pipes} pipes, {threads} threads");
        diff(&oracle, &aos, &format!("aos {at}"))?;
        diff(&oracle, &scalar, &format!("aosoa-scalar {at}"))?;
        diff(&oracle, &lane, &format!("aosoa-lane {at}"))?;
    }
    Ok(())
}

/// Interpolator filled with random (physically unconstrained) values:
/// bit-identity must hold for *any* field data, so no ghost sync needed.
fn random_interp(g: &Grid, rng: &mut proptest::test_runner::TestRng) -> InterpolatorArray {
    let mut ia = InterpolatorArray::new(g);
    let mut f = || (rng.unit_f64() * 2.0 - 1.0) as f32;
    for v in ia.data.iter_mut() {
        *v = Interpolator {
            ex: f(),
            dexdy: f(),
            dexdz: f(),
            d2exdydz: f(),
            ey: f(),
            deydz: f(),
            deydx: f(),
            d2eydzdx: f(),
            ez: f(),
            dezdx: f(),
            dezdy: f(),
            d2ezdxdy: f(),
            cbx: f(),
            dcbxdx: f(),
            cby: f(),
            dcbydy: f(),
            cbz: f(),
            dcbzdz: f(),
        };
    }
    ia
}

const BCS: [ParticleBc; 4] = [
    ParticleBc::Periodic,
    ParticleBc::Reflect,
    ParticleBc::Absorb,
    ParticleBc::Migrate,
];

/// Momentum classes the pathological generator draws from.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Regime {
    /// Modest thermal spread; most lanes stay in their voxel.
    Thermal,
    /// Ultra-relativistic: every lane crosses a face every step.
    AllCross,
    /// Ultra-relativistic *into* an absorbing wall: whole blocks die.
    AllAbsorbed,
    /// NaN-free denormal momenta (subnormal f32 bit patterns).
    Denormal,
    /// Exactly one live lane in the tail block.
    TailOne,
}

fn build_case(
    regime: Regime,
    dims: (usize, usize, usize),
    bc_pick: [usize; 6],
    n_parts: usize,
    seed_rng: &mut proptest::test_runner::TestRng,
) -> Case {
    let dx = 0.3f32;
    let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.9);
    let mut bc = [ParticleBc::Periodic; 6];
    for (f, &pick) in bc.iter_mut().zip(bc_pick.iter()) {
        *f = BCS[pick % BCS.len()];
    }
    if regime == Regime::AllAbsorbed {
        bc = [ParticleBc::Absorb; 6];
    }
    let g = Grid::new(dims, (dx, dx, dx), dt, bc);
    let interp = random_interp(&g, seed_rng);
    let n = match regime {
        // One partial tail block: 8k+1 particles, a single live tail lane.
        Regime::TailOne => (n_parts / LANES) * LANES + 1,
        _ => n_parts.max(1),
    };
    fn unit(rng: &mut proptest::test_runner::TestRng, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * rng.unit_f64() as f32
    }
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        let (i, j, k) = (
            1 + (seed_rng.below(g.nx as u64) as usize),
            1 + (seed_rng.below(g.ny as u64) as usize),
            1 + (seed_rng.below(g.nz as u64) as usize),
        );
        let (ux, uy, uz) = match regime {
            Regime::Thermal | Regime::TailOne => (
                unit(seed_rng, -0.3, 0.3),
                unit(seed_rng, -0.3, 0.3),
                unit(seed_rng, -0.3, 0.3),
            ),
            // |u| >> 1 => v ~ c: guaranteed to reach a face from any
            // offset under a 0.9-Courant step when started near one.
            Regime::AllCross | Regime::AllAbsorbed => {
                let s = |r: &mut proptest::test_runner::TestRng| {
                    if r.below(2) == 0 {
                        25.0f32
                    } else {
                        -25.0
                    }
                };
                (s(seed_rng), s(seed_rng), s(seed_rng))
            }
            // Smallest positive subnormals, sign-mixed: exercises
            // gradual-underflow arithmetic in both kernels.
            Regime::Denormal => {
                let d = |r: &mut proptest::test_runner::TestRng| {
                    let mag = f32::from_bits(1 + r.below(0xFF) as u32);
                    if r.below(2) == 0 {
                        mag
                    } else {
                        -mag
                    }
                };
                (d(seed_rng), d(seed_rng), d(seed_rng))
            }
        };
        let near_face = matches!(regime, Regime::AllCross | Regime::AllAbsorbed);
        let off = |u: f32, r: &mut proptest::test_runner::TestRng| {
            if near_face {
                // Start within one step's reach of the face `u` points at.
                if u > 0.0 {
                    0.95 + 0.04 * r.unit_f64() as f32
                } else {
                    -0.95 - 0.04 * r.unit_f64() as f32
                }
            } else {
                (2.0 * r.unit_f64() - 1.0) as f32
            }
        };
        parts.push(Particle {
            dx: off(ux, seed_rng),
            dy: off(uy, seed_rng),
            dz: off(uz, seed_rng),
            i: g.voxel(i, j, k) as u32,
            ux,
            uy,
            uz,
            w: unit(seed_rng, 0.5, 2.0),
        });
    }
    let coeffs = PushCoefficients::new(-1.0, 1.0, &g);
    Case {
        g,
        interp,
        parts,
        coeffs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// General random states: the lane kernel round-trips bit-identically
    /// through the oracle at every pipeline decomposition.
    #[test]
    fn lane_kernel_matches_scalar_oracle(
        dims in (1usize..=5, 1usize..=4, 1usize..=4),
        bc_pick in (0usize..4, 0usize..4, 0usize..4, 0usize..4, 0usize..4, 0usize..4),
        n in 1usize..120,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = proptest::test_runner::TestRng::new(seed);
        let bc = [bc_pick.0, bc_pick.1, bc_pick.2, bc_pick.3, bc_pick.4, bc_pick.5];
        let case = build_case(Regime::Thermal, dims, bc, n, &mut rng);
        for pipes in [1usize, 2, 3, 8] {
            if let Err(msg) = check_case(&case, pipes) {
                prop_assert!(false, "{}", msg);
            }
        }
    }

    /// Pathological blocks: every lane crossing, whole blocks absorbed,
    /// a single live tail lane, and NaN-free denormal momenta.
    #[test]
    fn pathological_blocks_match_scalar_oracle(
        regime in prop::sample::select(vec![
            Regime::AllCross,
            Regime::AllAbsorbed,
            Regime::Denormal,
            Regime::TailOne,
        ]),
        dims in (2usize..=4, 2usize..=4, 2usize..=4),
        bc_pick in (0usize..4, 0usize..4, 0usize..4, 0usize..4, 0usize..4, 0usize..4),
        n in 1usize..80,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = proptest::test_runner::TestRng::new(seed);
        let bc = [bc_pick.0, bc_pick.1, bc_pick.2, bc_pick.3, bc_pick.4, bc_pick.5];
        let case = build_case(regime, dims, bc, n, &mut rng);
        for pipes in [1usize, 2, 3, 8] {
            if let Err(msg) = check_case(&case, pipes) {
                prop_assert!(false, "regime {:?}: {}", regime, msg);
            }
        }
    }
}

/// A full single block where every lane exits through a different kind of
/// boundary at once (reflect/absorb/migrate/periodic mixed per face).
#[test]
fn one_block_mixed_boundary_exits() {
    let mut rng = proptest::test_runner::TestRng::new(0xB10C);
    // -x reflect, -y absorb, -z migrate, +x periodic, +y migrate, +z absorb.
    let case = build_case(
        Regime::AllCross,
        (2, 2, 2),
        [1, 2, 3, 0, 3, 2],
        LANES,
        &mut rng,
    );
    // The case must actually exercise the boundary paths, not pass vacuously.
    let oracle = run(&case, Layout::Aos, PushKernel::Scalar, 1);
    assert!(
        oracle.parts.len() < LANES || !oracle.exiles.is_empty(),
        "expected at least one absorption or exile"
    );
    for pipes in [1usize, 2, 3, 8] {
        if let Err(msg) = check_case(&case, pipes) {
            panic!("{msg}");
        }
    }
}

/// The spill path of a *straddling* block (pipeline boundary inside a
/// block) must also match: 3 pipelines over 20 particles cuts blocks 0
/// and 1 mid-block.
#[test]
fn straddling_blocks_with_crossers_match() {
    let mut rng = proptest::test_runner::TestRng::new(0x51DE);
    let case = build_case(Regime::AllCross, (3, 3, 3), [0; 6], 20, &mut rng);
    if let Err(msg) = check_case(&case, 3) {
        panic!("{msg}");
    }
}

/// The deferred-scatter batch: more full blocks than one batch holds
/// (the lane kernel queues `SCATTER_BATCH` = 8 blocks of precomputed
/// scatter work before draining), with every lane crossing, so the queue fills and drains
/// mid-range *and* drains a partial batch at range end — all of it
/// bit-identical to the unbatched scalar oracle.
#[test]
fn deferred_scatter_batch_all_cross_blocks_match() {
    let mut rng = proptest::test_runner::TestRng::new(0xDEF5);
    let case = build_case(Regime::AllCross, (4, 4, 4), [0; 6], 12 * LANES, &mut rng);
    for pipes in [1usize, 2, 3, 8] {
        if let Err(msg) = check_case(&case, pipes) {
            panic!("{msg}");
        }
    }
}

/// Batched full blocks interleaved with straddling blocks: the queued
/// scatter batch must drain *before* any straddle lane pushes scalar, or
/// the accumulator deposit order (and hence its bits) would change. Ten
/// full blocks plus a ragged tail under 3 pipelines cuts blocks mid-way,
/// so batched and straddled work alternate within one push.
#[test]
fn deferred_scatter_drains_before_straddle_lanes() {
    let mut rng = proptest::test_runner::TestRng::new(0x5CA7);
    let case = build_case(
        Regime::AllCross,
        (3, 3, 3),
        [0; 6],
        10 * LANES + 5,
        &mut rng,
    );
    for pipes in [3usize, 8] {
        if let Err(msg) = check_case(&case, pipes) {
            panic!("{msg}");
        }
    }
}

/// The fixed queue at its edges. Two pipelines over
/// `2·(SCATTER_BATCH·LANES + 3)` particles: pipeline 0 queues exactly
/// `SCATTER_BATCH` full blocks (the drain fires as the last slot is
/// written) and then meets a straddled block with the queue empty;
/// pipeline 1 starts on the other half of that block and ends on a partial
/// tail. And a lone full block: a queue of one, drained at range end.
/// Stay-heavy and all-cross lanes both, so the register-resident deposit
/// run and the spill path each cross the boundary.
#[test]
fn deferred_scatter_queue_fills_exactly_and_holds_one() {
    for regime in [Regime::Thermal, Regime::AllCross] {
        let mut rng = proptest::test_runner::TestRng::new(0xF111);
        let n = 2 * (SCATTER_BATCH * LANES + 3);
        let case = build_case(regime, (3, 3, 3), [0; 6], n, &mut rng);
        for pipes in [1usize, 2] {
            if let Err(msg) = check_case(&case, pipes) {
                panic!("{regime:?}, exact fill: {msg}");
            }
        }
        let case = build_case(regime, (3, 3, 3), [0; 6], LANES, &mut rng);
        if let Err(msg) = check_case(&case, 1) {
            panic!("{regime:?}, one block: {msg}");
        }
    }
}

/// [`check_case`], plus the lane kernel's [`PushTally`] against what the
/// index partition and the scalar oracle say it must be: every particle
/// pushed once; the oracle's crossers; the blocks a pipeline owns whole
/// (and, of those, the ones whose live lanes span voxels) counted as lane
/// blocks, every other lane as a straddle lane; and a spill for every
/// crosser when nothing straddles. However the compute pass groups the
/// blocks, these cannot move.
fn check_case_and_tally(case: &Case, pipes: usize) -> Result<(), String> {
    check_case(case, pipes)?;
    let n = case.parts.len();
    let share = n.div_ceil(pipes).max(1);
    let mut want = PushTally {
        pushed: n as u64,
        crossers: run(case, Layout::Aos, PushKernel::Scalar, pipes)
            .tally
            .crossers,
        ..Default::default()
    };
    for pipe in 0..pipes {
        let (start, end) = ((pipe * share).min(n), ((pipe + 1) * share).min(n));
        for bi in start.div_ceil(LANES)..n.div_ceil(LANES) {
            let live = &case.parts[bi * LANES..((bi + 1) * LANES).min(n)];
            if bi * LANES + live.len() > end {
                break;
            }
            want.lane_blocks += 1;
            want.mixed_blocks += u64::from(live.iter().any(|p| p.i != live[0].i));
            want.straddle_lanes += live.len() as u64;
        }
    }
    want.straddle_lanes = n as u64 - want.straddle_lanes;
    for threads in [1usize, 2, 4] {
        let got = with_worker_threads(threads, || {
            run(case, Layout::Aosoa, PushKernel::Lane, pipes).tally
        });
        if want.straddle_lanes == 0 {
            want.lane_spills = want.crossers;
        } else {
            want.lane_spills = got.lane_spills;
            if got.lane_spills > want.crossers {
                return Err(format!("more spills than crossers: {got:?}"));
            }
        }
        if got != want {
            return Err(format!(
                "tally @{pipes} pipes, {threads} threads: {got:?}, want {want:?}"
            ));
        }
    }
    Ok(())
}

/// The compute pass takes whole blocks two at a time and the odd one
/// alone: every whole-block count from 1 to 17 (pairs only, a pair then
/// a single, a full queue of pairs then a single, two queues and one),
/// each with no tail, and with a ragged tail, which then follows a pair
/// or a single with `live < 8`. Stay-heavy and all-cross lanes both.
#[test]
fn paired_and_single_compute_passes_alternate() {
    for regime in [Regime::Thermal, Regime::AllCross] {
        for blocks in 1..=2 * SCATTER_BATCH + 1 {
            for tail in [0usize, 3] {
                let mut rng = proptest::test_runner::TestRng::new(0x2B10 + blocks as u64);
                let n = blocks * LANES + tail;
                let case = build_case(regime, (3, 3, 3), [0; 6], n, &mut rng);
                for pipes in [1usize, 2, 3, 8] {
                    if let Err(msg) = check_case_and_tally(&case, pipes) {
                        panic!("{regime:?}, {blocks} blocks + {tail}: {msg}");
                    }
                }
            }
        }
    }
}

/// A pipeline boundary inside the *second* block of what would have been
/// a pair: 3 pipelines over 4 whole blocks cut at particles 11 and 22, so
/// pipeline 0 owns block 0 and three lanes of block 1 — block 0 must go
/// through the compute pass alone and block 1's lanes scalar — and
/// pipeline 1 owns no whole block at all. Then the same with the cut in
/// the second block of the *second* pair (7 whole blocks, 2 pipelines).
#[test]
fn pipeline_boundary_inside_the_second_block_of_a_pair() {
    for (blocks, pipes, cut) in [(4usize, 3usize, 11usize), (7, 2, 28)] {
        let n = blocks * LANES;
        assert_eq!(n.div_ceil(pipes), cut);
        assert_eq!(cut / LANES % 2, 1, "the cut must fall in an odd block");
        assert_ne!(cut % LANES, 0, "and inside it");
        for regime in [Regime::Thermal, Regime::AllCross] {
            let mut rng = proptest::test_runner::TestRng::new(0xC07);
            let case = build_case(regime, (3, 3, 3), [0; 6], n, &mut rng);
            if let Err(msg) = check_case_and_tally(&case, pipes) {
                panic!("{regime:?}, {blocks} blocks at {pipes} pipes: {msg}");
            }
        }
    }
}

/// A voxel by its `(i, j, k)` cell.
type Ijk = (usize, usize, usize);

/// Four whole blocks of slow particles at rest in the middle of their
/// voxels (so every lane stays put unless a test says otherwise), voxels
/// assigned by `voxel_of(particle index)`.
fn resting_case(voxel_of: impl Fn(usize) -> Ijk) -> Case {
    let mut rng = proptest::test_runner::TestRng::new(0xABA);
    let mut case = build_case(Regime::Thermal, (4, 4, 4), [0; 6], 4 * LANES, &mut rng);
    for (k, p) in case.parts.iter_mut().enumerate() {
        let (i, j, kk) = voxel_of(k);
        p.i = case.g.voxel(i, j, kk) as u32;
        (p.dx, p.dy, p.dz) = (0.1, -0.2, 0.3);
        (p.ux, p.uy, p.uz) = (0.01 * (k as f32 - 7.0), 0.02, -0.015);
    }
    case
}

/// The always-current scatter under every voxel pattern it special-cases
/// nothing for: all lanes in one voxel (the open voxel's registers feed
/// every lane), A-B-A inside a block and A…A B | A B…B across two (a
/// revisited voxel must be reloaded after another was written), and a
/// voxel per lane. Nothing crosses, so this is the all-stay fast path.
#[test]
fn voxel_revisits_within_and_across_blocks_match() {
    let (a, b) = ((2, 2, 2), (3, 1, 4));
    let across = move |k: usize| {
        let k = k % (2 * LANES);
        if k < LANES - 1 || k == LANES {
            a
        } else {
            b
        }
    };
    let patterns: [(&str, &dyn Fn(usize) -> Ijk); 4] = [
        ("one voxel", &move |_| a),
        ("A-B-A in a block", &move |k| if k % 2 == 0 { a } else { b }),
        ("A-B-A across blocks", &across),
        ("a voxel per lane", &|k| {
            (1 + k % 4, 1 + k / 4 % 4, 1 + k / 16)
        }),
    ];
    for (what, voxel_of) in patterns {
        let case = resting_case(voxel_of);
        let t = run(&case, Layout::Aosoa, PushKernel::Lane, 1).tally;
        assert_eq!(t.crossers, 0, "{what}: the pattern is about stay lanes");
        for pipes in [1usize, 2, 3, 8] {
            if let Err(msg) = check_case_and_tally(&case, pipes) {
                panic!("{what}: {msg}");
            }
        }
    }
}

/// A crosser between two stay lanes of its own voxel: lanes 0–2 of a
/// block share voxel A, lane 1 leaves through +x, and the first segment
/// of its move deposits into A — after lane 0's deposit and before lane
/// 2's, through the mover's own route into the accumulator. The scatter
/// must have lane 0's sums in memory by then and must not reuse its
/// register copy of A for lane 2.
#[test]
fn crosser_between_two_stay_lanes_of_its_voxel_matches() {
    let mut case = resting_case(|_| (2, 3, 2));
    for k in [1, LANES + 4] {
        (case.parts[k].dx, case.parts[k].ux) = (0.99, 30.0);
    }
    let t = run(&case, Layout::Aosoa, PushKernel::Lane, 1).tally;
    assert_eq!((t.crossers, t.lane_spills), (2, 2));
    for pipes in [1usize, 2, 3, 8] {
        if let Err(msg) = check_case_and_tally(&case, pipes) {
            panic!("{msg}");
        }
    }
}

/// One NaN-poisoned lane in an otherwise healthy block: NaN fails the
/// stay compare, so the lane spills and its NaN currents land in its
/// voxel's accumulator, and the lanes after it keep adding to those
/// entries — all of it exactly as the scalar kernel does it.
#[test]
fn nan_poisoned_lane_matches() {
    for poisoned in [0usize, 3, LANES - 1, LANES + 2] {
        let mut case = resting_case(|k| if k < LANES + 4 { (1, 1, 1) } else { (4, 2, 3) });
        case.parts[poisoned].ux = f32::NAN;
        let t = run(&case, Layout::Aosoa, PushKernel::Lane, 1).tally;
        assert_eq!((t.crossers, t.lane_spills), (1, 1), "lane {poisoned}");
        for pipes in [1usize, 2, 3, 8] {
            if let Err(msg) = check_case_and_tally(&case, pipes) {
                panic!("lane {poisoned}: {msg}");
            }
        }
    }
}

/// Tail block with exactly one live lane, which is also a crosser.
#[test]
fn tail_block_single_live_crossing_lane() {
    let mut rng = proptest::test_runner::TestRng::new(0x7A11);
    let mut case = build_case(Regime::TailOne, (3, 3, 3), [0; 6], 2 * LANES, &mut rng);
    let n = case.parts.len();
    assert_eq!(n % LANES, 1, "tail regime must leave one live tail lane");
    // Make the lone tail lane ultra-relativistic so it spills.
    case.parts[n - 1].ux = 30.0;
    case.parts[n - 1].dx = 0.99;
    for pipes in [1usize, 2, 3, 8] {
        if let Err(msg) = check_case(&case, pipes) {
            panic!("{msg}");
        }
    }
}

/// The failure report itself: divergent states must render as a single
/// printable lane, not a dump of the whole store.
#[test]
fn divergence_report_prints_one_lane_state() {
    let mut rng = proptest::test_runner::TestRng::new(3);
    let case = build_case(Regime::Thermal, (2, 2, 2), [0; 6], 9, &mut rng);
    let oracle = run(&case, Layout::Aos, PushKernel::Scalar, 1);
    let mut forged = run(&case, Layout::Aos, PushKernel::Scalar, 1);
    forged.parts[3].ux = f32::from_bits(forged.parts[3].ux.to_bits() ^ 1);
    let msg = diff(&oracle, &forged, "forged").unwrap_err();
    assert!(
        msg.contains("first divergent lane = particle 3"),
        "report should name the lane: {msg}"
    );
    assert!(
        msg.contains("voxel"),
        "report should print the lane state: {msg}"
    );
    assert_eq!(
        msg.lines().count(),
        3,
        "one-lane report (label + oracle + kernel), got: {msg}"
    );
}
