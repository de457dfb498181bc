//! The benchmark's own phase drivers: one step of a serial
//! [`Simulation`], of a [`DistributedSim`] rank, and of an [`LpiRun`],
//! rebuilt from the program's **public** calls with a span around each.
//!
//! They must leave the state bit-identical to the program's own `step`
//! (`traced-equals-plain` checks that on every run), so each mirrors its
//! original statement for statement: `vpic_core::sim::Simulation::step_with`,
//! `vpic_parallel::dsim::DistributedSim::step_with` and
//! `vpic_lpi::setup::LpiRun::step`. When one of those changes, change
//! the mirror here — the check names the workload that diverged.

use crate::trace::Tracer;
use vpic::core::cadence::PushTally;
use vpic::core::field_solver::{advance_b, advance_e, bcs_of, sync_j};
use vpic::core::push::{advance_p_tallied, PushCoefficients};
use vpic::core::{FieldArray, Grid, Simulation, Species};
use vpic::diag::DiagSnapshot;
use vpic::lpi::LpiRun;
use vpic::nanompi::{Comm, CommError};
use vpic::parallel::{migrate_species, DistributedSim};

/// Counts taken at the same boundaries as the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepCounts {
    pub steps: u64,
    pub particle_steps: u64,
    pub voxel_steps: u64,
    /// Counting sorts that actually ran (cadence hits that were not
    /// skipped as provably redundant).
    pub sorts: u64,
    pub migrated: u64,
    pub tally: PushTally,
}

fn sort_phase(species: &mut [Species], g: &Grid, step: u64, tr: &mut Tracer, c: &mut StepCounts) {
    tr.span("core.sort", || {
        for sp in species {
            if sp.sort_due(step) && sp.sort_on_cadence(g) {
                c.sorts += 1;
            }
        }
    });
}

/// One serial step; mirror of `Simulation::step_with`.
pub fn traced_serial_step(
    sim: &mut Simulation,
    tr: &mut Tracer,
    c: &mut StepCounts,
    drive: impl FnOnce(&mut FieldArray, &Grid, u64),
) {
    assert!(
        sim.collisions.is_empty() && sim.clean_div_e_interval == 0 && sim.clean_div_b_interval == 0,
        "the traced serial driver mirrors collisionless, uncleaned runs only"
    );
    tr.step = sim.step_count;
    let step_span = tr.enter("step");
    let kernel = sim.kernel();
    let g = &sim.grid;
    let bcs = bcs_of(g);

    sort_phase(&mut sim.species, g, sim.step_count, tr, c);

    tr.span("core.interp", || sim.interp.load(&sim.fields, g));

    let id = tr.enter("core.push");
    sim.accumulators.clear();
    for sp in &mut sim.species {
        let coeffs = PushCoefficients::new(sp.q, sp.m, g);
        c.particle_steps += sp.len() as u64;
        let (exiles, tally) = advance_p_tallied(
            sp.store_mut(),
            coeffs,
            &sim.interp,
            &mut sim.accumulators.arrays,
            g,
            kernel,
        );
        if !exiles.is_empty() {
            let mut idxs: Vec<u32> = exiles.iter().map(|e| e.idx).collect();
            idxs.sort_unstable_by(|a, b| b.cmp(a));
            for idx in idxs {
                sp.swap_remove(idx as usize);
                sim.lost_particles += 1;
            }
        }
        sp.note_push_tally(&tally);
        c.tally.absorb(&tally);
    }
    tr.exit(id);

    tr.span("core.accum", || {
        sim.fields.clear_currents();
        sim.accumulators.reduce_and_unload(&mut sim.fields, g);
        sync_j(&mut sim.fields, g, bcs);
    });

    tr.span("drive", || drive(&mut sim.fields, g, sim.step_count));

    tr.span("core.field", || {
        advance_b(&mut sim.fields, g, 0.5);
        advance_e(&mut sim.fields, g);
        advance_b(&mut sim.fields, g, 0.5);
    });
    c.voxel_steps += g.n_live() as u64;

    let id = tr.enter("core.tail");
    if let Some(sponge) = sim.sponge {
        sponge.apply(&mut sim.fields, g);
    }
    sim.step_count += 1;
    if let Some(mut sentinel) = sim.sentinel.take() {
        if sentinel.due(sim.step_count) {
            sentinel.check(sim);
        }
        sim.sentinel = Some(sentinel);
    }
    tr.exit(id);
    c.steps += 1;
    tr.exit(step_span);
}

/// `DistributedSim::apply_sponge` is private; this is the same loop over
/// the same public pieces (global-x damping factor on every local plane,
/// ghosts included).
fn apply_global_sponge(sim: &mut DistributedSim, g: &Grid) {
    let Some(sponge) = sim.sponge else { return };
    let global_nx = sim.spec.global_cells.0;
    let x_off = sim.spec.topo.coords_of(sim.rank)[0] * sim.spec.local_cells().0;
    let (sx, sy, sz) = g.strides();
    let f = &mut sim.fields;
    for i in 0..sx {
        let fac = sponge.factor(x_off + i, global_nx);
        if fac == 1.0 {
            continue;
        }
        for k in 0..sz {
            for j in 0..sy {
                let v = g.voxel(i, j, k);
                f.ex[v] *= fac;
                f.ey[v] *= fac;
                f.ez[v] *= fac;
                f.cbx[v] *= fac;
                f.cby[v] *= fac;
                f.cbz[v] *= fac;
            }
        }
    }
}

/// One rank's distributed step; mirror of `DistributedSim::step_with`.
///
/// Ahead of the two communication phases that follow particle work —
/// migration after the push, the `J` fold after the accumulator unload —
/// the driver inserts a barrier of its own (span `parallel.wait`): the
/// time a rank spends there is time it would otherwise have spent
/// blocked inside the next receive, so load imbalance shows as waiting
/// and not as transfer. The three field exchanges follow sub-millisecond
/// updates of equal voxel counts and get none (each barrier costs a
/// socket round trip, and five a step pushed `trace.overhead_share`
/// towards its 5 % limit). Barriers are collectives, which
/// `TrafficReport` does not count, and carry no state — the trajectory
/// is unchanged.
pub fn traced_dist_step(
    sim: &mut DistributedSim,
    comm: &mut Comm,
    tr: &mut Tracer,
    c: &mut StepCounts,
    drive: impl FnOnce(&mut FieldArray, &Grid, u64),
) -> Result<(), CommError> {
    tr.step = sim.step_count;
    let step_span = tr.enter("step");
    let r = dist_phases(sim, comm, tr, c, drive);
    tr.exit(step_span);
    r
}

fn wait(comm: &mut Comm, tr: &mut Tracer) -> Result<(), CommError> {
    tr.span("parallel.wait", || comm.barrier())
}

fn dist_phases(
    sim: &mut DistributedSim,
    comm: &mut Comm,
    tr: &mut Tracer,
    c: &mut StepCounts,
    drive: impl FnOnce(&mut FieldArray, &Grid, u64),
) -> Result<(), CommError> {
    let g = sim.grid.clone();
    let bcs = bcs_of(&g);
    let kernel = sim.kernel();

    sort_phase(&mut sim.species, &g, sim.step_count, tr, c);

    tr.span("core.interp", || sim.interp.load(&sim.fields, &g));

    for si in 0..sim.species.len() {
        let id = tr.enter("core.push");
        if si == 0 {
            sim.accumulators.clear();
        }
        let sp = &mut sim.species[si];
        let coeffs = PushCoefficients::new(sp.q, sp.m, &g);
        c.particle_steps += sp.len() as u64;
        let (exiles, tally) = advance_p_tallied(
            sp.store_mut(),
            coeffs,
            &sim.interp,
            &mut sim.accumulators.arrays,
            &g,
            kernel,
        );
        tr.exit(id);

        wait(comm, tr)?;
        let id = tr.enter("parallel.migrate");
        let qsp = sp.q;
        let sent = migrate_species(
            comm,
            &sim.exchanger.neighbors,
            &g,
            qsp,
            sp,
            &mut sim.accumulators.arrays[0],
            exiles,
            si as u64,
        );
        tr.exit(id);
        let sent = sent?;
        sim.migrated += sent;
        c.migrated += sent;
        sim.species[si].note_push_tally(&tally);
        c.tally.absorb(&tally);
    }

    tr.span("core.accum", || {
        sim.fields.clear_currents();
        sim.accumulators.reduce_and_unload(&mut sim.fields, &g);
        sync_j(&mut sim.fields, &g, bcs);
    });
    wait(comm, tr)?;
    tr.span("parallel.exchange", || {
        sim.exchanger.fold_j(comm, &mut sim.fields, &g)
    })?;

    tr.span("drive", || drive(&mut sim.fields, &g, sim.step_count));

    tr.span("core.field", || advance_b(&mut sim.fields, &g, 0.5));
    tr.span("parallel.exchange", || {
        sim.exchanger.exchange_b(comm, &mut sim.fields, &g)
    })?;

    tr.span("core.field", || advance_e(&mut sim.fields, &g));
    tr.span("parallel.exchange", || {
        sim.exchanger.exchange_e(comm, &mut sim.fields, &g)
    })?;

    tr.span("core.field", || advance_b(&mut sim.fields, &g, 0.5));
    tr.span("parallel.exchange", || {
        sim.exchanger.exchange_b(comm, &mut sim.fields, &g)
    })?;
    c.voxel_steps += g.n_live() as u64;

    if sim.sponge.is_some() {
        tr.span("core.field", || apply_global_sponge(sim, &g));
    }

    sim.step_count += 1;
    c.steps += 1;

    let cfg = sim.config;
    let step = sim.step_count;
    let due = |interval: usize| interval > 0 && step.is_multiple_of(interval as u64);
    if due(cfg.clean_div_e_interval) {
        let id = tr.enter("core.tail");
        let r = sim
            .refresh_rho(comm)
            .and_then(|()| sim.marder_clean_e(comm, 1));
        tr.exit(id);
        r?;
    }
    if due(cfg.clean_div_b_interval) {
        let id = tr.enter("core.tail");
        let r = sim.marder_clean_b(comm, 1);
        tr.exit(id);
        r?;
    }
    Ok(())
}

/// One LPI step; mirror of `LpiRun::step`: the traced serial step under
/// the antenna drive, then the inline probe sample and the snapshot
/// hand-off to the diagnostics sink (span `diag.publish`). `keep` gets a
/// copy of the first heavy snapshots (field slab + particle sample — the
/// ones the engine does real work on) before they are published, for
/// timing the engine's ingest afterwards.
pub fn traced_lpi_step(
    run: &mut LpiRun,
    tr: &mut Tracer,
    c: &mut StepCounts,
    keep: &mut Vec<DiagSnapshot>,
) {
    let antenna = run.antenna;
    let seed = run.seed_antenna;
    let outer = tr.enter("lpi.step");
    traced_serial_step(&mut run.sim, tr, c, |f, g, s| {
        antenna.drive(f, g, s);
        if let Some(seed) = seed {
            seed.drive(f, g, s);
        }
    });
    let step = run.sim.step_count;
    if step >= run.measure_after {
        let id = tr.enter("diag.publish");
        let (f, g) = (&run.sim.fields, &run.sim.grid);
        run.probe.sample(f, g);
        let v = g.voxel(run.probe.plane, 1, 1);
        let backward = 0.5 * (f.ey[v] - f.cbz[v]);
        run.backscatter_series.push(backward as f64);
        if !run.sink.is_off() {
            let cadence = run.params.diag.cadence.max(1);
            let decimation = run.params.diag.decimation.max(1);
            let (slab, particles) = if step.is_multiple_of(cadence) {
                let mut slab = run.sink.slab_buffer();
                for k in 1..=g.nz {
                    for j in 1..=g.ny {
                        let v = g.voxel(run.probe.plane, j, k);
                        slab.extend_from_slice(&[
                            f.ey[v] as f64,
                            f.ez[v] as f64,
                            f.cby[v] as f64,
                            f.cbz[v] as f64,
                        ]);
                    }
                }
                let parts: Vec<f32> = run.sim.species[run.electrons]
                    .iter()
                    .step_by(decimation)
                    .map(|p| (p.ux * p.ux + p.uy * p.uy + p.uz * p.uz).sqrt())
                    .collect();
                (Some(slab), Some(parts))
            } else {
                (None, None)
            };
            let snap = DiagSnapshot {
                step,
                time: step as f64 * g.dt as f64,
                backward: backward as f64,
                probe_raw: run.probe.raw_state(),
                slab,
                particles,
            };
            if snap.slab.is_some() && keep.len() < 64 {
                keep.push(snap.clone());
            }
            run.sink.publish(snap);
        }
        tr.exit(id);
    }
    tr.exit(outer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;
    use vpic::core::cadence::SortPolicy;
    use vpic::core::{checkpoint, load_uniform, Layout, Momentum, PushKernel, Rng, Sponge};
    use vpic::diag::{DiagConfig, DiagMode};
    use vpic::lpi::LpiParams;
    use vpic::parallel::{dump_rank_bytes, DomainSpec};

    fn dump(sim: &Simulation) -> Vec<u8> {
        let mut bytes = Vec::new();
        checkpoint::save(sim, &mut bytes).unwrap();
        bytes
    }

    fn small_serial() -> Simulation {
        let dt = Grid::courant_dt(1.0, (0.25, 0.25, 0.25), 0.9);
        let mut sim = Simulation::new(Grid::periodic((8, 6, 4), (0.25, 0.25, 0.25), dt), 2);
        sim.set_layout(Layout::Aosoa);
        sim.set_kernel(PushKernel::Lane);
        sim.sponge = Some(Sponge::symmetric(2, 0.1));
        let mut e = Species::new("e", -1.0, 1.0).with_sort_policy(SortPolicy::Fixed(4));
        load_uniform(
            &mut e,
            &sim.grid,
            &mut Rng::seeded(5),
            1.0,
            6,
            Momentum::thermal(0.2),
        );
        sim.add_species(e);
        sim
    }

    #[test]
    fn traced_serial_step_is_the_programs_step() {
        let (mut plain, mut traced) = (small_serial(), small_serial());
        let mut tr = Tracer::new(Instant::now(), 0);
        let mut c = StepCounts::default();
        for _ in 0..12 {
            plain.step();
            traced_serial_step(&mut traced, &mut tr, &mut c, |_, _, _| {});
        }
        assert_eq!(dump(&plain), dump(&traced));
        assert_eq!((c.steps, c.sorts), (12, 2));
        assert_eq!(c.particle_steps, 12 * plain.n_particles() as u64);
        assert_eq!(tr.spans.iter().filter(|s| s.name == "step").count(), 12);
    }

    #[test]
    fn traced_dist_step_is_the_programs_step() {
        let dt = Grid::courant_dt(1.0, (0.25, 0.25, 0.25), 0.9);
        let spec = DomainSpec::periodic((8, 4, 4), (0.25, 0.25, 0.25), dt, 2);
        let build = |rank: usize| {
            let mut sim = DistributedSim::new(spec.clone(), rank, 1);
            sim.set_layout(Layout::Aosoa);
            sim.sponge = Some(Sponge::symmetric(2, 0.1));
            sim.config.clean_div_b_interval = 5;
            let si = sim
                .add_species(Species::new("e", -1.0, 1.0).with_sort_policy(SortPolicy::Fixed(4)));
            sim.load_uniform(si, 9, 1.0, 6, Momentum::thermal(0.3));
            sim
        };
        let (same, _) = vpic::nanompi::run_expect(2, |comm| {
            let (mut plain, mut traced) = (build(comm.rank()), build(comm.rank()));
            let mut tr = Tracer::new(Instant::now(), comm.rank());
            let mut c = StepCounts::default();
            for _ in 0..12 {
                plain.step(comm).unwrap();
                traced_dist_step(&mut traced, comm, &mut tr, &mut c, |_, _, _| {}).unwrap();
            }
            assert!(c.migrated > 0, "hot particles on 4-cell slabs must migrate");
            dump_rank_bytes(&plain, false).unwrap() == dump_rank_bytes(&traced, false).unwrap()
        });
        assert_eq!(same, vec![true, true]);
    }

    #[test]
    fn traced_lpi_step_is_the_programs_step() {
        let params = LpiParams {
            vacuum: 1.0,
            ramp: 0.5,
            flat: 2.0,
            ppc: 4,
            sponge_cells: 8,
            ramp_periods: 1.0,
            seed_frac: 0.1,
            sort: SortPolicy::Auto,
            layout: Layout::Aosoa,
            diag: DiagConfig {
                mode: DiagMode::Async,
                ..Default::default()
            },
            ..Default::default()
        };
        let (mut plain, mut traced) = (LpiRun::new(params), LpiRun::new(params));
        // Far enough past the measurement gate for heavy snapshots.
        let steps = plain.measure_after + 40;
        let mut tr = Tracer::new(Instant::now(), 0);
        let mut c = StepCounts::default();
        let mut kept = Vec::new();
        for _ in 0..steps {
            plain.step();
            traced_lpi_step(&mut traced, &mut tr, &mut c, &mut kept);
        }
        assert_eq!(dump(&plain.sim), dump(&traced.sim));
        assert_eq!(plain.probe.raw_state(), traced.probe.raw_state());
        assert_eq!(
            plain.backscatter_series.samples,
            traced.backscatter_series.samples
        );
        assert_eq!(plain.probe.samples(), 41);
        let ((_, p), (_, t)) = (plain.diag_finish(), traced.diag_finish());
        assert_eq!((p.published, p.consumed), (41, 41));
        assert_eq!((t.published, t.consumed), (41, 41));
        assert!(
            !kept.is_empty(),
            "heavy snapshots are kept for the ingest timing"
        );
    }
}
