//! The distributed (one-rank's-view) simulation driver: VPIC's main loop
//! with ghost exchange and particle migration interleaved.

use crate::decomposition::DomainSpec;
use crate::exchange::GhostExchanger;
use crate::migrate::migrate_species;
use nanompi::{Comm, CommError};
use vpic_core::accumulator::{AccumulatorArray, AccumulatorSet};
use vpic_core::aosoa::Layout;
use vpic_core::field::FieldArray;
use vpic_core::field_solver::{bcs_of, marder_pass_b, marder_pass_e, refresh_rho, sync_b, sync_e};
use vpic_core::grid::Grid;
use vpic_core::interpolator::InterpolatorArray;
use vpic_core::maxwellian::{load_uniform, Momentum};
use vpic_core::push::{Exile, PushKernel};
use vpic_core::rng::Rng;
use vpic_core::sentinel::{self, HealthSample, SentinelConfig, SimConfig};
use vpic_core::sim::{advance, Domain, Halo, StepTimings};
use vpic_core::species::Species;
use vpic_core::sponge::Sponge;
use vpic_core::Particle;

/// One rank's [`Halo`]: exiles migrate to the neighbouring ranks, ghost
/// planes travel through the [`GhostExchanger`].
struct RankHalo<'a> {
    comm: &'a mut Comm,
    exchanger: &'a GhostExchanger,
}

impl Halo for RankHalo<'_> {
    type Error = CommError;

    fn settle(
        &mut self,
        si: usize,
        sp: &mut Species,
        exiles: Vec<Exile>,
        acc: &mut AccumulatorArray,
        g: &Grid,
    ) -> Result<u64, CommError> {
        let neighbors = &self.exchanger.neighbors;
        migrate_species(self.comm, neighbors, g, sp.q, sp, acc, exiles, si as u64)
    }

    fn fold_j(&mut self, f: &mut FieldArray, g: &Grid) -> Result<(), CommError> {
        self.exchanger.fold_j(self.comm, f, g)
    }

    fn fold_rho(&mut self, rho: &mut [f32], g: &Grid) -> Result<(), CommError> {
        self.exchanger.fold_scalar(self.comm, rho, g)
    }

    fn exchange_e(&mut self, f: &mut FieldArray, g: &Grid) -> Result<(), CommError> {
        self.exchanger.exchange_e(self.comm, f, g)
    }

    fn exchange_b(&mut self, f: &mut FieldArray, g: &Grid) -> Result<(), CommError> {
        self.exchanger.exchange_b(self.comm, f, g)
    }

    fn exchange_e_normal_low(&mut self, f: &mut FieldArray, g: &Grid) -> Result<(), CommError> {
        self.exchanger.exchange_e_normal_low(self.comm, f, g)
    }

    fn exchange_scalar_high(&mut self, arr: &mut [f32], g: &Grid) -> Result<(), CommError> {
        self.exchanger.exchange_scalar_high(self.comm, arr, g)
    }

    fn exchange_scalar_low(&mut self, arr: &mut [f32], g: &Grid) -> Result<(), CommError> {
        self.exchanger.exchange_scalar_low(self.comm, arr, g)
    }
}

/// One rank of a distributed PIC run. Construct inside a `nanompi::run`
/// closure and drive with [`DistributedSim::step`].
pub struct DistributedSim {
    pub spec: DomainSpec,
    pub rank: usize,
    pub grid: Grid,
    pub fields: FieldArray,
    pub interp: InterpolatorArray,
    pub species: Vec<Species>,
    pub accumulators: AccumulatorSet,
    pub exchanger: GhostExchanger,
    pub step_count: u64,
    /// Particles shipped to neighbors (all steps, all rounds).
    pub migrated: u64,
    pub timings: StepTimings,
    /// Cleaning cadence + sentinel thresholds (checkpoint-portable; every
    /// rank must hold the same value for the collectives to agree).
    pub config: SimConfig,
    /// Scratch for divergence-error fields.
    scratch: Vec<f32>,
    /// Open-boundary damping layers evaluated in *global* x coordinates
    /// (the deck's sponge spans the full domain, not each rank's slab).
    /// Every rank must hold the same value. Not checkpointed — the runner
    /// re-seats it after a rollback.
    pub sponge: Option<Sponge>,
    /// Which push body runs on this rank (bit-identical either way, so
    /// ranks may even disagree without diverging).
    kernel: PushKernel,
}

impl DistributedSim {
    /// Build rank `rank`'s domain with `n_pipelines` push pipelines.
    pub fn new(spec: DomainSpec, rank: usize, n_pipelines: usize) -> Self {
        let grid = spec.local_grid(rank);
        let neighbors = spec.neighbors(rank);
        let fields = FieldArray::new(&grid);
        let interp = InterpolatorArray::new(&grid);
        let accumulators = AccumulatorSet::new(&grid, n_pipelines);
        DistributedSim {
            spec,
            rank,
            grid,
            fields,
            interp,
            species: Vec::new(),
            accumulators,
            exchanger: GhostExchanger { neighbors },
            step_count: 0,
            migrated: 0,
            timings: StepTimings::default(),
            config: SimConfig::default(),
            sponge: None,
            scratch: Vec::new(),
            kernel: PushKernel::default(),
        }
    }

    /// A no-op; exists only for `benchmark/` until ROADMAP item 1's follow-up.
    pub fn set_layout(&mut self, _: Layout) {}

    /// The push kernel in use on this rank.
    pub fn kernel(&self) -> PushKernel {
        self.kernel
    }

    /// Select the push kernel (see [`PushKernel`]; bit-identical
    /// choices, so this is purely a performance/diagnosis knob).
    pub fn set_kernel(&mut self, kernel: PushKernel) {
        self.kernel = kernel;
    }

    /// Add a species; returns its index.
    pub fn add_species(&mut self, sp: Species) -> usize {
        self.species.push(sp);
        self.species.len() - 1
    }

    /// Load a uniform plasma into species `si` with a rank-decorrelated,
    /// reproducible RNG stream.
    pub fn load_uniform(&mut self, si: usize, run_seed: u64, n0: f32, ppc: usize, mom: Momentum) {
        let mut rng = Rng::for_domain(run_seed, self.rank);
        load_uniform(&mut self.species[si], &self.grid, &mut rng, n0, ppc, mom);
    }

    /// Synchronize ghost planes after manual field initialization.
    pub fn synchronize_fields(&mut self, comm: &mut Comm) -> Result<(), CommError> {
        let bcs = bcs_of(&self.grid);
        sync_e(&mut self.fields, &self.grid, bcs);
        sync_b(&mut self.fields, &self.grid, bcs);
        self.exchanger
            .exchange_e(comm, &mut self.fields, &self.grid)?;
        self.exchanger
            .exchange_b(comm, &mut self.fields, &self.grid)?;
        Ok(())
    }

    /// One full distributed step (see `vpic_core::sim` for the phase
    /// ordering).
    pub fn step(&mut self, comm: &mut Comm) -> Result<(), CommError> {
        self.step_with(comm, |_, _, _| {})
    }

    /// One step with an external current drive hook: [`advance`] with this
    /// rank's neighbours as the halo.
    ///
    /// On `Err` the local state may be mid-step (some phases applied); the
    /// caller must treat it as poisoned and roll back to a checkpoint.
    pub fn step_with(
        &mut self,
        comm: &mut Comm,
        drive: impl FnOnce(&mut FieldArray, &Grid, u64),
    ) -> Result<(), CommError> {
        // The deck's sponge spans the full domain, not each rank's slab.
        let global_nx = self.spec.global_cells.0;
        let x_off = self.spec.topo.coords_of(self.rank)[0] * self.spec.local_cells().0;
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
            sponge: self.sponge.map(|s| (s, x_off, global_nx)),
            clean_div_e_interval: self.config.clean_div_e_interval,
            clean_div_b_interval: self.config.clean_div_b_interval,
        };
        let mut halo = RankHalo {
            comm,
            exchanger: &self.exchanger,
        };
        self.migrated += advance(domain, &mut halo, drive)?;
        Ok(())
    }

    /// Deposit the charge density of every species into `fields.rho` with
    /// valid live entries everywhere: local deposit + periodic fold, then a
    /// ghost-plane fold into the owning neighbor on decomposed axes.
    pub fn refresh_rho(&mut self, comm: &mut Comm) -> Result<(), CommError> {
        let mut halo = RankHalo {
            comm,
            exchanger: &self.exchanger,
        };
        refresh_rho(&mut self.fields, &self.grid, &self.species, &mut halo)
    }

    /// `passes` distributed Marder passes on `E` (`E += κ∇(∇·E − ρ/ε0)`).
    ///
    /// Requires a fresh [`Self::refresh_rho`]. Each pass refreshes exactly
    /// the ghost planes the serial pass mirrors locally, so the cleaned
    /// field is identical to a single-domain run of the same pass count.
    pub fn marder_clean_e(&mut self, comm: &mut Comm, passes: u32) -> Result<(), CommError> {
        let mut halo = RankHalo {
            comm,
            exchanger: &self.exchanger,
        };
        for _ in 0..passes {
            marder_pass_e(&mut self.fields, &self.grid, &mut self.scratch, &mut halo)?;
        }
        Ok(())
    }

    /// `passes` distributed Marder passes on `B` (`cB −= κ∇(∇·cB)`).
    pub fn marder_clean_b(&mut self, comm: &mut Comm, passes: u32) -> Result<(), CommError> {
        let mut halo = RankHalo {
            comm,
            exchanger: &self.exchanger,
        };
        for _ in 0..passes {
            marder_pass_b(&mut self.fields, &self.grid, &mut self.scratch, &mut halo)?;
        }
        Ok(())
    }

    /// One healing burst: fresh `rho` plus `passes_e`/`passes_b` Marder
    /// passes on the respective fields (either may be zero).
    pub fn marder_burst(
        &mut self,
        comm: &mut Comm,
        passes_e: u32,
        passes_b: u32,
    ) -> Result<(), CommError> {
        if passes_e > 0 {
            self.refresh_rho(comm)?;
            self.marder_clean_e(comm, passes_e)?;
        }
        if passes_b > 0 {
            self.marder_clean_b(comm, passes_b)?;
        }
        Ok(())
    }

    /// This rank's contribution to a global health sample. Refreshes `rho`
    /// and the divergence-stencil ghost planes when the Gauss monitor is
    /// on. Callers sum the samples across ranks (one allreduce of
    /// [`HealthSample::to_vec`]) and classify the *global* sample, so every
    /// rank reaches the identical verdict.
    pub fn local_health_sample(
        &mut self,
        comm: &mut Comm,
        cfg: &SentinelConfig,
    ) -> Result<HealthSample, CommError> {
        if cfg.max_div_e_rms > 0.0 {
            self.refresh_rho(comm)?;
            self.exchanger
                .exchange_e_normal_low(comm, &mut self.fields, &self.grid)?;
        }
        Ok(sentinel::local_sample(
            self.step_count,
            &self.fields,
            &self.grid,
            &self.species,
            &self.accumulators,
            cfg,
            &mut self.scratch,
        ))
    }

    /// Global particle count.
    pub fn global_particles(&self, comm: &mut Comm) -> Result<u64, CommError> {
        comm.allreduce_sum_u64(self.n_particles() as u64)
    }

    /// Local particle count.
    pub fn n_particles(&self) -> usize {
        self.species.iter().map(Species::len).sum()
    }

    /// Global (field E, field B, kinetic-per-species) energies.
    pub fn global_energies(&self, comm: &mut Comm) -> Result<(f64, f64, Vec<f64>), CommError> {
        let mut v = vec![
            self.fields.energy_e(&self.grid),
            self.fields.energy_b(&self.grid),
        ];
        for sp in &self.species {
            v.push(sp.kinetic_energy(&self.grid));
        }
        let r = comm.allreduce_sum_vec(v)?;
        Ok((r[0], r[1], r[2..].to_vec()))
    }

    /// Find a particle's global position (diagnostic; O(N)).
    pub fn global_positions(&self) -> Vec<(f32, f32, f32)> {
        self.species
            .iter()
            .flat_map(|sp| sp.iter().map(|p| self.position_of(&p)))
            .collect()
    }

    /// Global coordinates of one particle.
    pub fn position_of(&self, p: &Particle) -> (f32, f32, f32) {
        let (i, j, k) = self.grid.voxel_coords(p.i as usize);
        (
            self.grid.particle_x(i, p.dx),
            self.grid.particle_y(j, p.dy),
            self.grid.particle_z(k, p.dz),
        )
    }

    /// Load-balance snapshot: `(max/mean particle count, max rank)`. VPIC's
    /// LPI runs watch this because blow-off plasma piles particles onto the
    /// ranks owning the slab while vacuum ranks idle.
    pub fn load_imbalance(&self, comm: &mut Comm) -> Result<(f64, usize), CommError> {
        load_imbalance(comm, self.n_particles() as u64)
    }
}

/// `(max/mean, max rank)` of one count per rank (1.0 for an all-zero
/// world): [`DistributedSim::load_imbalance`] for any per-rank count.
pub fn load_imbalance(comm: &mut Comm, local: u64) -> Result<(f64, usize), CommError> {
    let counts = comm.allgather(local)?;
    let total: u64 = counts.iter().sum();
    let mean = total as f64 / counts.len() as f64;
    let (max_rank, &max) = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .expect("nonempty world");
    Ok(if mean > 0.0 {
        (max as f64 / mean, max_rank)
    } else {
        (1.0, max_rank)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanompi::run_expect;
    use vpic_core::sim::Simulation;

    /// A ballistic particle crossing rank boundaries must follow the exact
    /// same trajectory as in an equivalent single-domain run.
    #[test]
    fn ballistic_trajectory_matches_single_domain() {
        let global = (8usize, 2usize, 2usize);
        let cell = (0.5f32, 0.5f32, 0.5f32);
        let dt = 0.2f32;
        let u0 = (1.3f32, 0.4f32, -0.2f32);
        let steps = 30;

        // Single-domain reference.
        let g = Grid::periodic(global, cell, dt);
        let mut reference = Simulation::new(g, 1);
        let mut e = Species::new("e", -1.0, 1.0).with_sort_interval(0);
        e.push(Particle {
            i: reference.grid.voxel(2, 1, 1) as u32,
            dx: 0.1,
            dy: -0.2,
            dz: 0.3,
            ux: u0.0,
            uy: u0.1,
            uz: u0.2,
            w: 1.0,
        });
        reference.add_species(e);
        for _ in 0..steps {
            reference.step();
        }
        let p = reference.species[0].get(0);
        let (i, j, k) = reference.grid.voxel_coords(p.i as usize);
        let want = (
            reference.grid.particle_x(i, p.dx),
            reference.grid.particle_y(j, p.dy),
            reference.grid.particle_z(k, p.dz),
        );
        let want_u = (p.ux, p.uy, p.uz);

        // Distributed: 2 ranks along x.
        let (results, _) = run_expect(2, |comm| {
            let spec = DomainSpec::periodic(global, cell, dt, 2);
            let mut sim = DistributedSim::new(spec, comm.rank(), 1);
            let mut e = Species::new("e", -1.0, 1.0).with_sort_interval(0);
            if comm.rank() == 0 {
                e.push(Particle {
                    i: sim.grid.voxel(2, 1, 1) as u32,
                    dx: 0.1,
                    dy: -0.2,
                    dz: 0.3,
                    ux: u0.0,
                    uy: u0.1,
                    uz: u0.2,
                    w: 1.0,
                });
            }
            sim.add_species(e);
            for _ in 0..steps {
                sim.step(comm).unwrap();
            }
            (sim.global_positions(), sim.migrated)
        });
        let positions: Vec<(f32, f32, f32)> = results
            .iter()
            .flat_map(|(p, _)| p.iter().copied())
            .collect();
        assert_eq!(positions.len(), 1, "particle count changed");
        let got = positions[0];
        assert!(
            (got.0 - want.0).abs() < 2e-4
                && (got.1 - want.1).abs() < 2e-4
                && (got.2 - want.2).abs() < 2e-4,
            "trajectory diverged: got {got:?}, want {want:?}"
        );
        let total_migrated: u64 = results.iter().map(|(_, m)| m).sum();
        assert!(total_migrated > 0, "particle never crossed a rank boundary");
        // Momentum sanity (fields from its own wake are tiny but nonzero).
        let _ = want_u;
    }

    /// Distributed uniform plasma: particle count exactly conserved, total
    /// energy conserved to ~2%, and migration actually exercised.
    #[test]
    fn distributed_plasma_conserves() {
        let (results, traffic) = run_expect(4, |comm| {
            let spec = DomainSpec::periodic((8, 8, 4), (0.25, 0.25, 0.25), 0.1, 4);
            let mut sim = DistributedSim::new(spec, comm.rank(), 2);
            let si = sim.add_species(Species::new("e", -1.0, 1.0));
            sim.load_uniform(si, 42, 1.0, 8, Momentum::thermal(0.08));
            let n0 = sim.global_particles(comm).unwrap();
            let (fe, fb, ke) = sim.global_energies(comm).unwrap();
            let e0 = fe + fb + ke.iter().sum::<f64>();
            for _ in 0..25 {
                sim.step(comm).unwrap();
            }
            let n1 = sim.global_particles(comm).unwrap();
            let (fe, fb, ke) = sim.global_energies(comm).unwrap();
            let e1 = fe + fb + ke.iter().sum::<f64>();
            (n0, n1, e0, e1, sim.migrated)
        });
        let (n0, n1, e0, e1, _) = results[0];
        assert_eq!(n0, n1, "lost particles");
        assert!((e1 - e0).abs() / e0 < 0.02, "energy drift {e0} -> {e1}");
        let migrated: u64 = results.iter().map(|r| r.4).sum();
        assert!(migrated > 0, "no migration happened");
        assert!(traffic.total_bytes > 0);
    }

    /// The per-step message schedule of a 2-rank x-split: per rank one `J`
    /// fold, two messages for each of the two `B` exchanges and one `E`
    /// exchange — 6 messages carrying the same 10 ghost planes the
    /// per-component exchange sent as 10 — plus one migration round's 2.
    #[test]
    fn step_sends_six_plane_and_two_migration_messages_per_rank() {
        const STEPS: u64 = 5;
        let spec = DomainSpec::periodic((8, 4, 4), (0.25, 0.25, 0.25), 0.1, 2);
        assert_eq!(spec.local_cells(), (4, 4, 4), "expected an x-split");
        let plane_bytes = 4 * (4 + 2) * (4 + 2) as u64;
        let (migrated, traffic) = run_expect(2, |comm| {
            let mut sim = DistributedSim::new(spec.clone(), comm.rank(), 1);
            let si = sim.add_species(Species::new("e", -1.0, 1.0));
            sim.load_uniform(si, 7, 1.0, 8, Momentum::thermal(0.3));
            for _ in 0..STEPS {
                sim.step(comm).unwrap();
            }
            sim.migrated
        });
        assert!(
            migrated.iter().all(|&m| m > 0),
            "no migration: {migrated:?}"
        );
        let (plane, migration): (Vec<_>, Vec<_>) =
            traffic.by_tag.iter().partition(|t| t.tag >> 12 != 0x9);
        let total = |tags: &[&nanompi::TagTraffic]| {
            tags.iter()
                .fold((0, 0), |(m, b), t| (m + t.messages, b + t.bytes))
        };
        assert_eq!(total(&plane), (2 * 6 * STEPS, 2 * 10 * STEPS * plane_bytes));
        // One round a step (the hot thermal load crosses every step, and a
        // slab four cells deep is never crossed twice in one).
        assert_eq!(total(&migration).0, 2 * 2 * STEPS);
        assert_eq!(
            total(&migration).1,
            migrated.iter().sum::<u64>() * std::mem::size_of::<crate::Migrant>() as u64
        );
        for from in 0..2 {
            assert_eq!(traffic.messages[from][1 - from], 8 * STEPS);
        }
    }

    /// Distributed Marder cleaning must reproduce the serial pass exactly:
    /// with the ghost planes refreshed as the serial mirrors would, every
    /// voxel sees identical stencil inputs, so the result is bit-identical.
    #[test]
    fn distributed_marder_matches_single_domain() {
        let global = (8usize, 4usize, 4usize);
        let cell = (0.5f32, 0.5f32, 0.5f32);
        let dt = 0.1f32;
        let passes = 6u32;
        let spike = |g: &Grid, f: &mut FieldArray, x0: f32| {
            for k in 1..=g.nz {
                for j in 1..=g.ny {
                    for i in 1..=g.nx {
                        let gx = x0 + (i as f32 - 0.5) * g.dx;
                        let v = g.voxel(i, j, k);
                        f.ex[v] = (gx * 0.7).sin();
                        f.cbx[v] = (gx * 1.3).cos();
                    }
                }
            }
        };

        // Serial reference (rho stays zero in both runs).
        let g = Grid::periodic(global, cell, dt);
        let mut reference = Simulation::new(g, 1);
        let gr = reference.grid.clone();
        spike(&gr, &mut reference.fields, 0.0);
        sync_e(&mut reference.fields, &gr, bcs_of(&gr));
        sync_b(&mut reference.fields, &gr, bcs_of(&gr));
        let mut scratch = Vec::new();
        for _ in 0..passes {
            vpic_core::field_solver::clean_div_e(&mut reference.fields, &gr, &mut scratch);
            vpic_core::field_solver::clean_div_b(&mut reference.fields, &gr, &mut scratch);
        }
        let probe = gr.voxel(3, 2, 2);
        let want = (reference.fields.ex[probe], reference.fields.cbx[probe]);

        let (results, _) = run_expect(2, |comm| -> Result<Option<(f32, f32)>, CommError> {
            let spec = DomainSpec::periodic(global, cell, dt, 2);
            let mut sim = DistributedSim::new(spec, comm.rank(), 1);
            let g = sim.grid.clone();
            spike(&g, &mut sim.fields, g.x0);
            sim.synchronize_fields(comm)?;
            sim.marder_clean_e(comm, passes)?;
            sim.marder_clean_b(comm, passes)?;
            // Global cell 3 lives on rank 0 (4 cells per rank).
            Ok((comm.rank() == 0).then(|| {
                (
                    sim.fields.ex[g.voxel(3, 2, 2)],
                    sim.fields.cbx[g.voxel(3, 2, 2)],
                )
            }))
        });
        let got = match &results[0] {
            Ok(Some(v)) => *v,
            other => panic!("rank 0 probe failed: {other:?}"),
        };
        assert_eq!(got, want, "distributed Marder diverged from serial");
    }

    /// A vacuum plane wave crossing rank boundaries must match the
    /// single-domain solution at a probe point.
    #[test]
    fn plane_wave_across_ranks_matches_single_domain() {
        let global = (32usize, 2usize, 2usize);
        let cell = (0.125f32, 0.125f32, 0.125f32);
        let dt = Grid::courant_dt(1.0, cell, 0.6);
        let steps = 40usize;
        let kx = 2.0 * std::f64::consts::PI / (32.0 * 0.125);

        let init = |g: &Grid, f: &mut FieldArray, x0: f32| {
            for i in 1..=g.nx {
                let x_node = x0 as f64 + (i - 1) as f64 * g.dx as f64;
                let x_edge = x_node + 0.5 * g.dx as f64;
                for k in 0..g.strides().2 {
                    for j in 0..g.strides().1 {
                        let v = g.voxel(i, j, k);
                        f.ey[v] = (kx * x_node).sin() as f32;
                        f.cbz[v] = (kx * (x_edge + 0.5 * dt as f64)).sin() as f32;
                    }
                }
            }
        };

        // Reference.
        let g = Grid::periodic(global, cell, dt);
        let mut reference = Simulation::new(g, 1);
        let gr = reference.grid.clone();
        init(&gr, &mut reference.fields, 0.0);
        sync_e(&mut reference.fields, &gr, bcs_of(&gr));
        sync_b(&mut reference.fields, &gr, bcs_of(&gr));
        for _ in 0..steps {
            reference.step();
        }
        let want = reference.fields.ey[gr.voxel(5, 1, 1)];

        let (results, _) = run_expect(4, |comm| {
            let spec = DomainSpec::periodic(global, cell, dt, 4);
            let mut sim = DistributedSim::new(spec, comm.rank(), 1);
            let g = sim.grid.clone();
            init(&g, &mut sim.fields, g.x0);
            sim.synchronize_fields(comm).unwrap();
            for _ in 0..steps {
                sim.step(comm).unwrap();
            }
            // Global cell 5 lives on rank 0 (8 cells per rank).
            if comm.rank() == 0 {
                Some(sim.fields.ey[g.voxel(5, 1, 1)])
            } else {
                None
            }
        });
        let got = results[0].expect("rank 0 probes");
        assert!(
            (got - want).abs() < 1e-5,
            "wave diverged: got {got}, want {want}"
        );
    }
}

#[cfg(test)]
mod balance_tests {
    use super::*;
    use nanompi::run_expect;

    #[test]
    fn imbalance_detects_loaded_rank() {
        // Comm errors propagate out of the rank closure (the fault-handled
        // path) instead of panicking mid-collective and hanging peers.
        let (results, _) = run_expect(4, |comm| -> Result<(f64, usize), CommError> {
            let spec = DomainSpec::periodic((8, 4, 4), (0.5, 0.5, 0.5), 0.1, 4);
            let mut sim = DistributedSim::new(spec, comm.rank(), 1);
            let si = sim.add_species(Species::new("e", -1.0, 1.0));
            // Rank 2 carries 4× the load.
            let ppc = if comm.rank() == 2 { 32 } else { 8 };
            sim.load_uniform(si, 1, 1.0, ppc, Momentum::thermal(0.05));
            sim.load_imbalance(comm)
        });
        for r in results {
            let (ratio, rank) = r.expect("imbalance probe");
            assert_eq!(rank, 2);
            // 4× on one of four ranks → max/mean = 4/((3+4·1)/4)… = 16/7.
            assert!((ratio - 16.0 / 7.0).abs() < 0.15, "ratio {ratio}");
        }
    }

    #[test]
    fn balanced_world_reports_unity() {
        let (results, _) = run_expect(2, |comm| -> Result<f64, CommError> {
            let spec = DomainSpec::periodic((4, 4, 4), (0.5, 0.5, 0.5), 0.1, 2);
            let mut sim = DistributedSim::new(spec, comm.rank(), 1);
            let si = sim.add_species(Species::new("e", -1.0, 1.0));
            sim.load_uniform(si, 9, 1.0, 16, Momentum::thermal(0.05));
            for _ in 0..3 {
                sim.step(comm)?;
            }
            Ok(sim.load_imbalance(comm)?.0)
        });
        for r in results {
            let particles = r.expect("balance probe");
            assert!(
                (particles - 1.0).abs() < 0.1,
                "particle imbalance {particles}"
            );
        }
    }
}
