//! Integration contract of the adaptive sort-cadence controller.
//!
//! The controller's decisions feed only on bitwise-deterministic inputs
//! (exact crosser counts, compile-time model constants), so the cadence a
//! species settles on must be identical across worker counts and
//! kernels — and must ride checkpoints so resume replays the same
//! decisions. These tests pin that contract end to end through the real
//! step loop, alongside the convergence and zero-crosser-skip behaviors.

use vpic_core::checkpoint::{load, save};
use vpic_core::{
    load_uniform, with_worker_threads, Grid, Momentum, PushKernel, Rng, Simulation, SortPolicy,
    Species, MAX_AUTO_INTERVAL,
};

/// Thermal plasma with a seeded longitudinal E perturbation (same shape
/// as the determinism suite) under a given sort policy.
fn plasma(pipelines: usize, policy: SortPolicy, vth: f32) -> Simulation {
    plasma_on((10, 9, 8), 8, pipelines, policy, vth)
}

/// [`plasma`] on an `n`-cell box at `ppc` particles per cell.
fn plasma_on(
    n: (usize, usize, usize),
    ppc: usize,
    pipelines: usize,
    policy: SortPolicy,
    vth: f32,
) -> Simulation {
    let dx = 0.2f32;
    let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.8);
    let g = Grid::periodic(n, (dx, dx, dx), dt);
    let mut sim = Simulation::new(g, pipelines);
    let mut e = Species::new("e", -1.0, 1.0).with_sort_policy(policy);
    let mut rng = Rng::seeded(123);
    load_uniform(
        &mut e,
        &sim.grid,
        &mut rng,
        1.0,
        ppc,
        Momentum::thermal(vth),
    );
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
    vpic_core::field_solver::sync_e(&mut sim.fields, &g, vpic_core::field_solver::bcs_of(&g));
    sim
}

/// The cadence state in bit-comparable form (the EWMA rate as raw bits).
type CadenceBits = (u32, u32, u64, u64, bool, u64, bool);

fn cadence_bits(sim: &Simulation) -> CadenceBits {
    let c = sim.species[0].cadence();
    (
        c.interval,
        c.steps_since_sort,
        c.crossers_since_sort,
        c.len_at_sort,
        c.coherent,
        c.rate.to_bits(),
        c.measured,
    )
}

/// Auto cadence is the same sequence of decisions at every pipeline
/// count, worker-thread count and kernel: after N steps the
/// controller state (interval, EWMA rate bits, window position) and the
/// sort/skip counts are identical, and the runs themselves stay
/// bit-identical.
#[test]
fn auto_cadence_is_identical_across_pipelines_and_kernels() {
    let mut reference: Option<(CadenceBits, u64, u64, u64)> = None;
    for pipes in [1usize, 2, 4, 8] {
        for threads in [1usize, 2, 4] {
            for kernel in [PushKernel::Scalar, PushKernel::Lane] {
                let mut sim = plasma(pipes, SortPolicy::Auto, 0.08);
                sim.set_kernel(kernel);
                with_worker_threads(threads, || {
                    for _ in 0..40 {
                        sim.step();
                    }
                });
                let coh = sim.species[0].coherence();
                let got = (
                    cadence_bits(&sim),
                    coh.sorts,
                    coh.skipped_sorts,
                    coh.tally.crossers,
                );
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(
                        &got, want,
                        "cadence diverged at {pipes} pipes, {threads} threads, {kernel} kernel"
                    ),
                }
            }
        }
    }
    // The run must have actually exercised the controller.
    let (state, sorts, _, crossers) = reference.unwrap();
    assert!(sorts > 0, "no sorts in 40 steps");
    assert!(crossers > 0, "thermal run produced no crossers");
    assert!(state.6, "controller never measured a window");
}

/// Cadence state rides the checkpoint: save mid-run, restore, and the
/// resumed run replays the same sorts and lands bit-identical to the
/// uninterrupted one — including the controller's interval and rate.
#[test]
fn auto_cadence_rides_checkpoint_roundtrip() {
    let mut straight = plasma(2, SortPolicy::Auto, 0.08);
    let mut first = plasma(2, SortPolicy::Auto, 0.08);
    for _ in 0..30 {
        straight.step();
        first.step();
    }
    let mut buf = Vec::new();
    save(&first, &mut buf).unwrap();
    let mut resumed = load(&mut buf.as_slice(), 2).unwrap();
    assert_eq!(resumed.species[0].sort_policy, SortPolicy::Auto);
    assert_eq!(
        cadence_bits(&resumed),
        cadence_bits(&first),
        "cadence state did not survive the dump"
    );
    // Decision-relevant counters ride the dump; kernel telemetry (lane
    // blocks/spills) deliberately does not — dumps stay canonical AoS
    // bytes whatever kernel produced them.
    let (rc, fc) = (resumed.species[0].coherence(), first.species[0].coherence());
    assert_eq!(rc.tally.pushed, fc.tally.pushed);
    assert_eq!(rc.tally.crossers, fc.tally.crossers);
    assert_eq!(rc.sorts, fc.sorts);
    assert_eq!(rc.skipped_sorts, fc.skipped_sorts);
    assert_eq!(rc.tally.lane_blocks, 0, "kernel telemetry must reset");
    for _ in 0..30 {
        straight.step();
        resumed.step();
    }
    assert_eq!(cadence_bits(&resumed), cadence_bits(&straight));
    assert_eq!(resumed.n_particles(), straight.n_particles());
    for (p, q) in straight.species[0].iter().zip(resumed.species[0].iter()) {
        assert_eq!(p, q);
    }
}

/// The dump of a run is the same bytes at every worker-thread count
/// (fixed pipelines): fields, particles, and the cadence state riding
/// with them.
#[test]
fn checkpoint_bytes_are_identical_at_every_thread_count() {
    let dump_at = |threads: usize| {
        let mut sim = plasma(4, SortPolicy::Auto, 0.08);
        with_worker_threads(threads, || {
            for _ in 0..30 {
                sim.step();
            }
        });
        let mut buf = Vec::new();
        save(&sim, &mut buf).unwrap();
        buf
    };
    let reference = dump_at(1);
    for threads in [2usize, 4] {
        assert!(
            dump_at(threads) == reference,
            "dump at {threads} threads differs from the 1-thread dump"
        );
    }
}

/// On a steady-state thermal deck the controller settles: once warmed up,
/// the interval stops moving and tracks the closed-form optimum for the
/// measured EWMA rate.
#[test]
fn auto_cadence_converges_on_steady_thermal_deck() {
    let mut sim = plasma(1, SortPolicy::Auto, 0.08);
    let mut intervals = Vec::new();
    let mut last_sorts = 0;
    for _ in 0..400 {
        sim.step();
        let sorts = sim.species[0].coherence().sorts;
        if sorts != last_sorts {
            last_sorts = sorts;
            intervals.push(sim.species[0].cadence().interval);
        }
    }
    assert!(
        intervals.len() >= 4,
        "expected several measurement windows, got {intervals:?}"
    );
    let tail = &intervals[intervals.len() - 2..];
    assert!(
        tail.windows(2).all(|w| w[0].abs_diff(w[1]) <= 1),
        "interval still moving at steady state: {intervals:?}"
    );
    let c = sim.species[0].cadence();
    let expected =
        vpic_core::auto_sort_interval(sim.n_particles() as u64, sim.grid.n_voxels() as u64, c.rate);
    assert!(
        c.interval.abs_diff(expected) <= 1,
        "settled interval {} far from closed form {expected}",
        c.interval
    );
}

/// A frozen plasma (zero temperature, no fields driving it) never
/// crosses a cell face, so after the first real sort every cadence-due
/// sort is skipped as provably redundant — and the skip is phase-
/// preserving, not a one-off.
#[test]
fn zero_crosser_runs_skip_redundant_sorts() {
    let mut sim = plasma(2, SortPolicy::Fixed(5), 0.0);
    sim.fields.ex.iter_mut().for_each(|v| *v = 0.0);
    for _ in 0..31 {
        sim.step();
    }
    let coh = sim.species[0].coherence();
    assert_eq!(coh.tally.crossers, 0, "frozen plasma must not cross");
    assert_eq!(coh.sorts, 1, "exactly the first due sort runs");
    assert_eq!(
        coh.skipped_sorts, 5,
        "every later cadence hit is provably redundant (steps 5,10,..,30)"
    );
    // Under Auto the measured zero rate drives the interval to the cap.
    let mut auto = plasma(1, SortPolicy::Auto, 0.0);
    auto.fields.ex.iter_mut().for_each(|v| *v = 0.0);
    for _ in 0..60 {
        auto.step();
    }
    assert_eq!(auto.species[0].cadence().interval, MAX_AUTO_INTERVAL);
}

// Timing gates (`scripts/ci.sh kernel`, release, the shipping flags).
// Both time the whole step of ONE simulation and toggle the variant
// between batches: two live `Simulation`s stepped side by side read
// A/A 1.35x for the second-created one on the reference host, a toggled
// one reads 0.98-1.04.

/// The 16^3 / ppc 64 thermal box `e2_step_breakdown` defaults to, warmed
/// up past its first sorts.
fn gate_plasma() -> Simulation {
    let pipelines = vpic_core::worker_threads();
    let mut sim = plasma_on((16, 16, 16), 64, pipelines, SortPolicy::default(), 0.05);
    for _ in 0..30 {
        sim.step();
    }
    sim
}

/// Step `sim` in A-B-B-A rounds of `steps`-step batches, `set(sim, true)`
/// selecting variant B before a B batch and `set(sim, false)` variant A.
/// `after(sim, is_b)` sees the simulation after each batch. Returns the
/// median over rounds of (seconds in A) / (seconds in B): how many times
/// faster B steps. Order effects cancel inside a round, host drift
/// between rounds, and one preempted batch cannot move the median.
fn speed_of_b_over_a(
    sim: &mut Simulation,
    rounds: usize,
    steps: usize,
    set: impl Fn(&mut Simulation, bool),
    mut after: impl FnMut(&Simulation, bool),
) -> f64 {
    let mut ratios: Vec<f64> = (0..rounds)
        .map(|_| {
            let mut secs = [0.0f64; 2];
            for is_b in [false, true, true, false] {
                set(sim, is_b);
                let t0 = std::time::Instant::now();
                for _ in 0..steps {
                    sim.step();
                }
                secs[is_b as usize] += t0.elapsed().as_secs_f64();
                after(sim, is_b);
            }
            secs[0] / secs[1]
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[rounds / 2]
}

/// The lane kernel must step at least as fast as the scalar body it is
/// checked against (it measures 3-4x).
#[test]
#[ignore = "timing gate; run in release via scripts/ci.sh kernel"]
fn lane_kernel_steps_at_least_as_fast_as_scalar_on_aosoa() {
    let mut sim = gate_plasma();
    let kernel = |sim: &mut Simulation, lane: bool| {
        sim.set_kernel(if lane {
            PushKernel::Lane
        } else {
            PushKernel::Scalar
        })
    };
    let ratio = speed_of_b_over_a(&mut sim, 3, 20, kernel, |_, _| {});
    println!(
        "whole step, 16^3 ppc 64 aosoa: lane {ratio:.2}x scalar; lanes: {}",
        vpic_core::lanes::BACKEND
    );
    assert!(ratio >= 1.0, "lane kernel steps at {ratio:.2}x scalar");
}

/// `auto` against the historical fixed-25 cadence. Measured on the PR 22
/// kernel (2-core reference host, 16^3 / ppc 64 and 32^3 / ppc 8): auto
/// steps at 0.88-0.98x fixed-25 in 100-300-step batches (0.95-1.00 in
/// this test's own 100-step batches) — PR 19 and PR 22 halved the push and
/// `C_MIX` was never re-fit, so the controller sorts about three times as
/// often (10 against 3-4 sorts per 100 steps) as the cheaper spill path
/// now warrants. The floor here is therefore 0.85: it catches a
/// controller that gets worse, and the printed ratio is the measurement
/// of record. ROADMAP item 4's re-fit restores the intended 0.97.
#[test]
#[ignore = "timing gate; run in release via scripts/ci.sh kernel"]
fn auto_cadence_steps_at_least_0_85x_fixed_25() {
    const ROUNDS: usize = 6;
    const STEPS: usize = 100;
    let mut sim = gate_plasma();
    let policy = |sim: &mut Simulation, auto: bool| {
        sim.species[0].set_sort_policy(if auto {
            SortPolicy::Auto
        } else {
            SortPolicy::default()
        })
    };
    let mut seen = sim.species[0].coherence().sorts;
    let mut sorts = [0u64; 2];
    let ratio = speed_of_b_over_a(&mut sim, ROUNDS, STEPS, policy, |sim, auto| {
        let now = sim.species[0].coherence().sorts;
        assert!(now > seen, "no sort fell due in a batch (auto: {auto})");
        sorts[auto as usize] += now - seen;
        seen = now;
    });
    // Each round holds two batches of either kind.
    let per_batch = |n: u64| n as f64 / (2 * ROUNDS) as f64;
    println!(
        "whole step, 16^3 ppc 64 aosoa lane: auto {ratio:.3}x fixed-25 \
         (sorts per {STEPS} steps: auto {:.1}, fixed-25 {:.1})",
        per_batch(sorts[1]),
        per_batch(sorts[0]),
    );
    assert!(ratio >= 0.85, "auto cadence steps at {ratio:.3}x fixed-25");
}
