//! The step loop, and the single-domain driver built on it.
//!
//! One [`advance`] performs, in order (times at loop entry: `E, B` at step
//! `n`, momenta at `n−½`, positions at `n`):
//!
//! 1. occasional voxel sort of each species;
//! 2. interpolator load from `E(n), B(n)`;
//! 3. particle advance: momenta → `n+½`, positions → `n+1`, currents
//!    deposited at `n+½` into per-pipeline accumulators; each species'
//!    exiles are settled right after its push;
//! 4. accumulator reduce + unload into `J`, ghost folding;
//! 5. the caller's current drive hook (laser antennas add to `J` here);
//! 6. field advance: `B` half, `E` full, `B` half → `E(n+1), B(n+1)`,
//!    ghost planes refreshed after each sub-update;
//! 7. optional sponge damping and occasional Marder divergence cleaning.
//!
//! Everything a domain needs from the domains around it goes through a
//! [`Halo`]: [`Isolated`] (nothing out there) makes this the serial
//! [`Simulation`], `vpic-parallel`'s rank halo makes the same sequence
//! one rank of a distributed run.
//!
//! Phase wall-times are accumulated in [`StepTimings`] — the breakdown the
//! paper reports when separating "inner loop" (0.488 Pflop/s) from
//! sustained whole-step (0.374 Pflop/s) performance.

use crate::accumulator::{AccumulatorArray, AccumulatorSet};
use crate::aosoa::Layout;
use crate::field::FieldArray;
use crate::field_solver::{
    advance_b, advance_e, bcs_of, clean_div_b, clean_div_e, marder_pass_b, marder_pass_e,
    refresh_rho, sync_j,
};
use crate::grid::Grid;
use crate::interpolator::InterpolatorArray;
use crate::push::{advance_p_tallied, Exile, PushCoefficients, PushKernel};
use crate::sentinel::{local_sample, HealthSample, Sentinel, SentinelConfig};
use crate::species::Species;
use crate::sponge::Sponge;
use std::convert::Infallible;
use std::time::Instant;

/// Accumulated per-phase wall time in seconds, plus advance counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepTimings {
    /// Interpolator load.
    pub interpolate: f64,
    /// Particle push + current accumulation (the "inner loop").
    pub push: f64,
    /// Settling exiles: migration rounds between ranks.
    pub migrate: f64,
    /// Accumulator reduction + unload + local ghost folding.
    pub current: f64,
    /// Maxwell solve (B half / E full / B half + local ghost sync).
    pub field: f64,
    /// Ghost-plane traffic with neighbouring domains (`J` fold, `E`/`B`
    /// exchanges).
    pub exchange: f64,
    /// Particle sorting.
    pub sort: f64,
    /// Drive hooks, sponge, divergence cleaning.
    pub other: f64,
    /// Diagnostics observation: probe sampling, snapshot capture and the
    /// diagnostics engine's inline ingest (its spectra and streamed
    /// artifact writes included).
    pub diag: f64,
    /// Total particle advances performed.
    pub particle_steps: u64,
    /// Total voxel updates performed by the field solver (live cells ×
    /// steps).
    pub voxel_steps: u64,
    /// Steps taken.
    pub steps: u64,
}

impl StepTimings {
    /// Every term of [`Self::total`], named, in summation order: a table
    /// printed from these rows adds up to the total.
    pub fn phases(&self) -> [(&'static str, f64); 9] {
        [
            ("interpolator load", self.interpolate),
            ("particle push + deposit (inner loop)", self.push),
            ("exile settle / migration", self.migrate),
            ("current reduce/unload/sync", self.current),
            ("field solve (B/E/B)", self.field),
            ("ghost exchange", self.exchange),
            ("particle sort", self.sort),
            ("other (sponge/cleaning/hooks)", self.other),
            ("diagnostics", self.diag),
        ]
    }

    /// Total accounted wall time.
    pub fn total(&self) -> f64 {
        self.phases().iter().map(|&(_, secs)| secs).sum()
    }

    /// Fraction of time in the particle inner loop.
    pub fn inner_loop_fraction(&self) -> f64 {
        if self.total() > 0.0 {
            self.push / self.total()
        } else {
            0.0
        }
    }

    /// Communication share (migration rounds + ghost exchange).
    pub fn comm_fraction(&self) -> f64 {
        if self.total() > 0.0 {
            (self.migrate + self.exchange) / self.total()
        } else {
            0.0
        }
    }
}

/// What one domain's step needs from the domains around it. Every call is
/// a point where a rank of a distributed run talks to its neighbours; the
/// local (periodic / wall) half of each ghost refresh is done by the
/// caller first.
pub trait Halo {
    type Error;

    /// Take species `si`'s exiles — particles whose move left the domain
    /// through a `Migrate` face — out of `sp`, and bring in whatever the
    /// neighbours send, finishing inbound moves into `acc`. Returns how
    /// many particles left. A rank halo also folds the ranks' sort votes
    /// into `sp`'s cadence here ([`Species::join_sort`]), before the
    /// step's push is noted.
    fn settle(
        &mut self,
        si: usize,
        sp: &mut Species,
        exiles: Vec<Exile>,
        acc: &mut AccumulatorArray,
        g: &Grid,
    ) -> Result<u64, Self::Error>;

    /// Fold ghost-deposited `J` into the owning neighbour.
    fn fold_j(&mut self, f: &mut FieldArray, g: &Grid) -> Result<(), Self::Error>;

    /// Fold ghost-deposited charge into the owning neighbour.
    fn fold_rho(&mut self, rho: &mut [f32], g: &Grid) -> Result<(), Self::Error>;

    /// Fill `E` ghost planes after an `E` update.
    fn exchange_e(&mut self, f: &mut FieldArray, g: &Grid) -> Result<(), Self::Error>;

    /// Fill `cB` ghost planes after a `B` update.
    fn exchange_b(&mut self, f: &mut FieldArray, g: &Grid) -> Result<(), Self::Error>;

    /// Fill the axis-normal `E` component's low ghost plane, which only
    /// the Gauss-law divergence stencil reads.
    fn exchange_e_normal_low(&mut self, f: &mut FieldArray, g: &Grid) -> Result<(), Self::Error>;

    /// Fill a node-centred scalar's high ghost plane (the `∇·E` error).
    fn exchange_scalar_high(&mut self, arr: &mut [f32], g: &Grid) -> Result<(), Self::Error>;

    /// Fill a cell-centred scalar's low ghost plane (the `∇·B` error).
    fn exchange_scalar_low(&mut self, arr: &mut [f32], g: &Grid) -> Result<(), Self::Error>;
}

/// The halo of a domain with nothing around it: exiles are dropped (and
/// counted), every exchange is a no-op.
pub struct Isolated;

impl Halo for Isolated {
    type Error = Infallible;

    fn settle(
        &mut self,
        _si: usize,
        sp: &mut Species,
        exiles: Vec<Exile>,
        _acc: &mut AccumulatorArray,
        _g: &Grid,
    ) -> Result<u64, Infallible> {
        Ok(sp.remove_exiles(&exiles))
    }

    fn fold_j(&mut self, _f: &mut FieldArray, _g: &Grid) -> Result<(), Infallible> {
        Ok(())
    }

    fn fold_rho(&mut self, _rho: &mut [f32], _g: &Grid) -> Result<(), Infallible> {
        Ok(())
    }

    fn exchange_e(&mut self, _f: &mut FieldArray, _g: &Grid) -> Result<(), Infallible> {
        Ok(())
    }

    fn exchange_b(&mut self, _f: &mut FieldArray, _g: &Grid) -> Result<(), Infallible> {
        Ok(())
    }

    fn exchange_e_normal_low(&mut self, _f: &mut FieldArray, _g: &Grid) -> Result<(), Infallible> {
        Ok(())
    }

    fn exchange_scalar_high(&mut self, _arr: &mut [f32], _g: &Grid) -> Result<(), Infallible> {
        Ok(())
    }

    fn exchange_scalar_low(&mut self, _arr: &mut [f32], _g: &Grid) -> Result<(), Infallible> {
        Ok(())
    }
}

/// A driver's state, borrowed for one [`advance`].
pub struct Domain<'a> {
    pub grid: &'a Grid,
    pub fields: &'a mut FieldArray,
    pub interp: &'a mut InterpolatorArray,
    pub species: &'a mut [Species],
    pub accumulators: &'a mut AccumulatorSet,
    /// Scratch for divergence-error fields.
    pub scratch: &'a mut Vec<f32>,
    pub step_count: &'a mut u64,
    pub timings: &'a mut StepTimings,
    pub kernel: PushKernel,
    /// Damping layers, with this domain's x offset in cells and the
    /// global domain's length in cells (see [`Sponge::apply_at`]).
    pub sponge: Option<(Sponge, usize, usize)>,
    /// Marder-clean `∇·E` every this many steps (0 = never).
    pub clean_div_e_interval: usize,
    /// Marder-clean `∇·B` every this many steps (0 = never).
    pub clean_div_b_interval: usize,
}

/// Seconds since `*clock`, which restarts.
fn lap(clock: &mut Instant) -> f64 {
    let now = Instant::now();
    let dt = now.duration_since(*clock).as_secs_f64();
    *clock = now;
    dt
}

/// One PIC step of `d` (see the module docs for the phase order); `drive`
/// is called right before the field advance and may add external currents
/// (e.g. a laser antenna) into `fields.j*`. Returns how many particles
/// left the domain.
///
/// On `Err` the state may be mid-step (some phases applied); the caller
/// must treat it as poisoned and roll back to a checkpoint.
pub fn advance<H: Halo>(
    d: Domain<'_>,
    halo: &mut H,
    drive: impl FnOnce(&mut FieldArray, &Grid, u64),
) -> Result<u64, H::Error> {
    let (g, f, t) = (d.grid, d.fields, d.timings);
    let bcs = bcs_of(g);
    let mut clock = Instant::now();

    // 1. Occasional sort, under the per-species cadence controller (fixed
    // interval or auto-tuned from coherence telemetry). The controller
    // skips the counting sort when the store is provably still in voxel
    // order, and never fires on step 0. Sorting is domain-local, but on a
    // rank world every rank sorts on the same steps: the previous step's
    // `settle` folded the ranks' sort votes into each cadence, on the
    // collective migration makes anyway, so no rank waits out another's
    // sort at its next receive. The votes are bit-deterministic.
    for sp in d.species.iter_mut() {
        if sp.sort_due(*d.step_count) {
            sp.sort_on_cadence(g);
        }
    }
    t.sort += lap(&mut clock);

    // 2. Interpolator from E(n), B(n).
    d.interp.load(f, g);
    t.interpolate += lap(&mut clock);

    // 3. Particle advance, settling each species' exiles after its push.
    d.accumulators.clear();
    let mut departed = 0;
    for (si, sp) in d.species.iter_mut().enumerate() {
        let coeffs = PushCoefficients::new(sp.q, sp.m, g);
        t.particle_steps += sp.len() as u64;
        let (exiles, tally) = advance_p_tallied(
            sp.store_mut(),
            coeffs,
            d.interp,
            &mut d.accumulators.arrays,
            g,
            d.kernel,
        );
        t.push += lap(&mut clock);
        departed += halo.settle(si, sp, exiles, &mut d.accumulators.arrays[0], g)?;
        // After settling, so the controller's length check sees any
        // appended migrants (a length change dirties voxel order).
        sp.note_push_tally(&tally);
        t.migrate += lap(&mut clock);
    }

    // 4. Currents to the grid (range-parallel reduce + slab-parallel
    // unload; see `AccumulatorSet::reduce_and_unload`).
    f.clear_currents();
    d.accumulators.reduce_and_unload(f, g);
    sync_j(f, g, bcs);
    t.current += lap(&mut clock);
    halo.fold_j(f, g)?;
    t.exchange += lap(&mut clock);

    // 5. External drive.
    drive(f, g, *d.step_count);
    t.other += lap(&mut clock);

    // 6. Field advance.
    advance_b(f, g, 0.5);
    t.field += lap(&mut clock);
    halo.exchange_b(f, g)?;
    t.exchange += lap(&mut clock);
    advance_e(f, g);
    t.field += lap(&mut clock);
    halo.exchange_e(f, g)?;
    t.exchange += lap(&mut clock);
    advance_b(f, g, 0.5);
    t.field += lap(&mut clock);
    halo.exchange_b(f, g)?;
    t.exchange += lap(&mut clock);
    t.voxel_steps += g.n_live() as u64;

    // 7. Sponge + divergence cleaning.
    if let Some((sponge, x_off, global_nx)) = d.sponge {
        sponge.apply_at(f, g, x_off, global_nx);
    }
    *d.step_count += 1;
    t.steps += 1;
    let due = |interval: usize| interval > 0 && d.step_count.is_multiple_of(interval as u64);
    if due(d.clean_div_e_interval) {
        refresh_rho(f, g, d.species, halo)?;
        marder_pass_e(f, g, d.scratch, halo)?;
    }
    if due(d.clean_div_b_interval) {
        marder_pass_b(f, g, d.scratch, halo)?;
    }
    t.other += lap(&mut clock);
    Ok(departed)
}

/// A single-domain PIC simulation.
pub struct Simulation {
    pub grid: Grid,
    pub fields: FieldArray,
    pub interp: InterpolatorArray,
    pub species: Vec<Species>,
    pub accumulators: AccumulatorSet,
    /// Optional damping layers.
    pub sponge: Option<Sponge>,
    /// Marder-clean `∇·E` every this many steps (0 = never).
    pub clean_div_e_interval: usize,
    /// Marder-clean `∇·B` every this many steps (0 = never).
    pub clean_div_b_interval: usize,
    /// Completed steps.
    pub step_count: u64,
    /// Particles lost through `Migrate` faces (a configuration smell in
    /// single-domain runs; the distributed driver handles them properly).
    pub lost_particles: u64,
    /// Phase timings.
    pub timings: StepTimings,
    /// Always empty; exists only for `benchmark/` until ROADMAP item 1's follow-up.
    pub collisions: [Infallible; 0],
    /// Always `None`; exists only for `benchmark/` until ROADMAP item 1's
    /// follow-up. Health checks run in the campaign runner's ladder.
    pub sentinel: Option<Sentinel>,
    /// Which push body runs (bit-identical either way; see
    /// [`PushKernel`]).
    kernel: PushKernel,
    scratch: Vec<f32>,
}

impl Simulation {
    /// Build a simulation with `n_pipelines` push pipelines (use the Rayon
    /// thread count for production, 1 for strictly deterministic runs).
    pub fn new(grid: Grid, n_pipelines: usize) -> Self {
        let fields = FieldArray::new(&grid);
        let interp = InterpolatorArray::new(&grid);
        let accumulators = AccumulatorSet::new(&grid, n_pipelines);
        Simulation {
            grid,
            fields,
            interp,
            species: Vec::new(),
            accumulators,
            sponge: None,
            clean_div_e_interval: 0,
            clean_div_b_interval: 0,
            step_count: 0,
            lost_particles: 0,
            timings: StepTimings::default(),
            collisions: [],
            sentinel: None,
            kernel: PushKernel::default(),
            scratch: Vec::new(),
        }
    }

    /// The push kernel in use.
    pub fn kernel(&self) -> PushKernel {
        self.kernel
    }

    /// Select the push kernel. Both kernels are bit-identical (the
    /// determinism and kernel-oracle suites pin it), so this can be
    /// switched at any point of a run without changing the trajectory.
    pub fn set_kernel(&mut self, kernel: PushKernel) {
        self.kernel = kernel;
    }

    /// A no-op; exists only for `benchmark/` until ROADMAP item 1's follow-up.
    pub fn set_layout(&mut self, _: Layout) {}

    /// Add a species; returns its index.
    pub fn add_species(&mut self, sp: Species) -> usize {
        self.species.push(sp);
        self.species.len() - 1
    }

    /// Total macroparticles across species.
    pub fn n_particles(&self) -> usize {
        self.species.iter().map(Species::len).sum()
    }

    /// One step with no external drive.
    pub fn step(&mut self) {
        self.step_with(|_, _, _| {});
    }

    /// One step with a drive hook plus a diagnostics observer. The
    /// observer runs after the step completes (fields at `n+1`, the
    /// completed-step count passed in) and its wall time is charged to
    /// `timings.diag` — this is where in-situ diagnostics observe the
    /// step, kept out of every physics phase's budget.
    pub fn step_with_observed(
        &mut self,
        drive: impl FnOnce(&mut FieldArray, &Grid, u64),
        observe: impl FnOnce(&FieldArray, &Grid, &[Species], u64),
    ) {
        self.step_with(drive);
        let t0 = Instant::now();
        observe(&self.fields, &self.grid, &self.species, self.step_count);
        self.timings.diag += t0.elapsed().as_secs_f64();
    }

    /// One step; `drive` is called right before the field advance and may
    /// add external currents (e.g. a laser antenna) into `fields.j*`.
    pub fn step_with(&mut self, drive: impl FnOnce(&mut FieldArray, &Grid, u64)) {
        let domain = Domain {
            grid: &self.grid,
            fields: &mut self.fields,
            interp: &mut self.interp,
            species: &mut self.species,
            accumulators: &mut self.accumulators,
            scratch: &mut self.scratch,
            step_count: &mut self.step_count,
            timings: &mut self.timings,
            kernel: self.kernel,
            sponge: self.sponge.map(|s| (s, 0, self.grid.nx)),
            clean_div_e_interval: self.clean_div_e_interval,
            clean_div_b_interval: self.clean_div_b_interval,
        };
        // Single-domain: migrate faces should not appear; what leaves
        // through one is lost.
        let Ok(lost) = advance(domain, &mut Isolated, drive);
        self.lost_particles += lost;
    }

    /// Recompute the diagnostic charge density from the particles.
    pub fn refresh_rho(&mut self) {
        let Ok(()) = refresh_rho(&mut self.fields, &self.grid, &self.species, &mut Isolated);
    }

    /// Establish a self-consistent initial `E` from the loaded particles by
    /// iterated Marder cleaning (Poisson solve by relaxation). Call once
    /// after loading when the initial charge is not neutral everywhere.
    pub fn solve_initial_e(&mut self, passes: usize) {
        self.refresh_rho();
        for _ in 0..passes {
            clean_div_e(&mut self.fields, &self.grid, &mut self.scratch);
        }
    }

    /// This domain's health sample ([`local_sample`]), with `rho`
    /// refreshed first when the Gauss monitor is on — what
    /// `DistributedSim::local_health_sample` computes on one rank.
    pub fn health_sample(&mut self, cfg: &SentinelConfig) -> HealthSample {
        if cfg.max_div_e_rms > 0.0 {
            self.refresh_rho();
        }
        local_sample(
            self.step_count,
            &self.fields,
            &self.grid,
            &self.species,
            &self.accumulators,
            cfg,
            &mut self.scratch,
        )
    }

    /// One healing burst: fresh `rho` plus `passes_e` Marder passes on `E`,
    /// then `passes_b` on `B` — `DistributedSim::marder_burst` with no
    /// neighbours.
    pub fn marder_burst(&mut self, passes_e: u32, passes_b: u32) {
        if passes_e > 0 {
            self.solve_initial_e(passes_e as usize);
        }
        for _ in 0..passes_b {
            clean_div_b(&mut self.fields, &self.grid, &mut self.scratch);
        }
    }

    /// Field + kinetic energy snapshot (f64).
    pub fn energies(&self) -> EnergySnapshot {
        EnergySnapshot {
            field_e: self.fields.energy_e(&self.grid),
            field_b: self.fields.energy_b(&self.grid),
            kinetic: self
                .species
                .iter()
                .map(|s| s.kinetic_energy(&self.grid))
                .collect(),
        }
    }
}

/// Energy bookkeeping for conservation checks.
#[derive(Clone, Debug)]
pub struct EnergySnapshot {
    pub field_e: f64,
    pub field_b: f64,
    pub kinetic: Vec<f64>,
}

impl EnergySnapshot {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.field_e + self.field_b + self.kinetic.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field_solver::sync_e;
    use crate::maxwellian::{load_uniform, Momentum};
    use crate::rng::Rng;

    fn small_plasma(ppc: usize, pipelines: usize) -> Simulation {
        let dx = 0.2f32;
        let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.7);
        let g = Grid::periodic((8, 8, 8), (dx, dx, dx), dt);
        let mut sim = Simulation::new(g, pipelines);
        let mut e = Species::new("e", -1.0, 1.0);
        let mut rng = Rng::seeded(7);
        load_uniform(
            &mut e,
            &sim.grid,
            &mut rng,
            1.0,
            ppc,
            Momentum::thermal(0.02),
        );
        sim.add_species(e);
        // Neutralizing immobile background: in normalized units a uniform
        // ion background just cancels the mean electron charge, which our
        // periodic field solve does implicitly (only charge *fluctuations*
        // drive E through J). Nothing to add.
        sim
    }

    #[test]
    fn quiet_plasma_stays_quiet() {
        let mut sim = small_plasma(8, 1);
        let e0 = sim.energies();
        for _ in 0..20 {
            sim.step();
        }
        let e1 = sim.energies();
        // Thermal noise generates small fields, but nothing should blow up.
        assert!(e1.total().is_finite());
        assert!(e1.field_e < 0.05 * e1.kinetic[0], "E blew up: {e1:?}");
        assert!(sim.lost_particles == 0);
        assert!((e1.total() - e0.total()).abs() / e0.total() < 0.05);
        assert_eq!(sim.step_count, 20);
        assert_eq!(sim.timings.steps, 20);
        assert!(sim.timings.particle_steps > 0);
    }

    #[test]
    fn energy_conservation_over_langmuir_oscillation() {
        // Seed a longitudinal E perturbation and verify total energy is
        // conserved to ~1% while it sloshes between field and particles.
        let mut sim = small_plasma(32, 1);
        let g = sim.grid.clone();
        let kx = 2.0 * std::f32::consts::PI / g.extent().0;
        for k in 1..=g.nz {
            for j in 1..=g.ny {
                for i in 1..=g.nx {
                    let x = g.x0 + (i as f32 - 0.5) * g.dx;
                    sim.fields.ex[g.voxel(i, j, k)] = 0.01 * (kx * x).sin();
                }
            }
        }
        sync_e(&mut sim.fields, &g, bcs_of(&g));
        let e0 = sim.energies().total();
        let mut min_field = f64::INFINITY;
        let mut max_field: f64 = 0.0;
        for _ in 0..60 {
            sim.step();
            let e = sim.energies();
            min_field = min_field.min(e.field_e);
            max_field = max_field.max(e.field_e);
        }
        let e1 = sim.energies().total();
        assert!((e1 - e0).abs() / e0 < 0.02, "energy drift {e0} -> {e1}");
        // The field energy must actually oscillate (energy exchange).
        assert!(
            min_field < 0.5 * max_field,
            "no oscillation: {min_field} vs {max_field}"
        );
    }

    #[test]
    fn pipelines_do_not_change_physics() {
        let mut a = small_plasma(8, 1);
        let mut b = small_plasma(8, 4);
        for _ in 0..5 {
            a.step();
            b.step();
        }
        // Particle state must agree exactly (same seed, same order — only
        // the accumulator partitioning differs; J reduce order can differ
        // at float level, so compare loosely via energies).
        let (ea, eb) = (a.energies(), b.energies());
        assert!((ea.total() - eb.total()).abs() / ea.total() < 1e-4);
        assert_eq!(a.n_particles(), b.n_particles());
    }

    #[test]
    fn solve_initial_e_reduces_divergence_error() {
        // A *neutral* plasma with charge fluctuations: electrons + ions from
        // different random streams. (A net-charged periodic box would have
        // an irreducible DC divergence error by Gauss's law.)
        let mut sim = small_plasma(4, 1);
        let mut ions = Species::new("i", 1.0, 1836.0);
        let mut rng = Rng::seeded(99);
        load_uniform(
            &mut ions,
            &sim.grid,
            &mut rng,
            1.0,
            4,
            Momentum::thermal(0.001),
        );
        sim.add_species(ions);
        sim.refresh_rho();
        let mut scratch = Vec::new();
        let before = crate::field_solver::compute_div_e_err(&sim.fields, &sim.grid, &mut scratch);
        sim.solve_initial_e(50);
        sim.refresh_rho();
        let after = crate::field_solver::compute_div_e_err(&sim.fields, &sim.grid, &mut scratch);
        assert!(after < 0.5 * before, "{before} -> {after}");
    }
}
