//! Quasi-1D laser–plasma interaction run assembly: sponge-backed open
//! boundaries along x, a current-sheet antenna, a slab plasma and a
//! reflectivity probe between them — the workload of the paper's
//! reflectivity-vs-intensity parameter study, at laptop scale.

use crate::laser::{LaserAntenna, Polarization};
use crate::profile::SlabProfile;
use crate::srs::{srs_match, SrsMatch};
use vpic_core::cadence::SortPolicy;
use vpic_core::grid::{Grid, ParticleBc};
use vpic_core::maxwellian::{load_profile, Momentum};
use vpic_core::rng::Rng;
use vpic_core::sim::Simulation;
use vpic_core::species::Species;
use vpic_core::sponge::Sponge;
use vpic_core::store::Layout;
use vpic_diag::{
    DiagConfig, DiagEngine, DiagSink, DiagSnapshot, DiagStats, EngineState, ReflectivityProbe,
};

/// Parameters of an LPI run (lengths in `c/ωpe`, velocities in `c`).
#[derive(Clone, Copy, Debug)]
pub struct LpiParams {
    /// Plasma density over critical (must be < 0.25 for SRS).
    pub n_over_ncr: f64,
    /// Electron thermal velocity.
    pub vth: f64,
    /// Laser strength `a0`.
    pub a0: f64,
    /// Cell size.
    pub dx: f32,
    /// Vacuum gap between antenna and plasma (and after the plasma).
    pub vacuum: f32,
    /// Density ramp length on each side of the flat top.
    pub ramp: f32,
    /// Flat-top length.
    pub flat: f32,
    /// Macroparticles per cell at flat-top density.
    pub ppc: usize,
    /// Sponge width in cells at each end.
    pub sponge_cells: usize,
    /// RNG seed.
    pub seed: u64,
    /// Push pipelines.
    pub pipelines: usize,
    /// Antenna amplitude ramp, in laser periods.
    pub ramp_periods: f32,
    /// Backscatter seed: a counter-propagating beam at the SRS-matched
    /// scattered frequency with amplitude `seed_frac · E0`, injected from
    /// the far side of the plasma (0 disables). Seeding turns the
    /// reflectivity measurement into a controlled amplification
    /// measurement, the standard way to beat the PIC noise floor.
    pub seed_frac: f64,
    /// Mobile ions: `Some(mass)` loads a Z = 1 ion species with this mass
    /// (in electron masses; use a reduced mass like 100–400 to make
    /// ion-timescale physics such as SBS affordable) and ion temperature
    /// `ti_over_te · Te`. `None` keeps the immobile neutralizing
    /// background (fine for SRS timescales).
    pub ion_mass: Option<f32>,
    /// Ion-to-electron temperature ratio (used only with mobile ions).
    pub ti_over_te: f32,
    /// Particle storage layout (`layout = aos|aosoa` deck knob).
    pub layout: Layout,
    /// Sort cadence (`sort_interval = auto|<n>` deck knob), applied to
    /// every species. Cadence decisions feed only on deterministic
    /// counters, so `auto` keeps the bit-identity contract.
    pub sort: SortPolicy,
    /// Diagnostics pipeline (`[diag]` deck section): mode, snapshot
    /// cadence, queue depth, particle decimation, series retention.
    pub diag: DiagConfig,
}

impl Default for LpiParams {
    fn default() -> Self {
        LpiParams {
            n_over_ncr: 0.1,
            vth: 0.07,
            a0: 0.02,
            dx: 0.1,
            vacuum: 4.0,
            ramp: 2.0,
            flat: 16.0,
            ppc: 64,
            sponge_cells: 24,
            seed: 1234,
            pipelines: 1,
            ramp_periods: 5.0,
            seed_frac: 0.0,
            ion_mass: None,
            ti_over_te: 0.1,
            layout: Layout::default(),
            sort: SortPolicy::default(),
            diag: DiagConfig::default(),
        }
    }
}

/// An assembled LPI simulation with its instruments.
pub struct LpiRun {
    pub sim: Simulation,
    pub antenna: LaserAntenna,
    /// Optional counter-propagating seed antenna at ω_s.
    pub seed_antenna: Option<LaserAntenna>,
    pub probe: ReflectivityProbe,
    pub srs: SrsMatch,
    pub params: LpiParams,
    pub profile: SlabProfile,
    /// Steps to skip before reflectivity sampling (laser transit + ramp).
    pub measure_after: u64,
    /// Electron species index.
    pub electrons: usize,
    /// Ion species index (when `ion_mass` was set).
    pub ions: Option<usize>,
    /// Backward-wave amplitude history at the probe plane (sampled every
    /// step once measurement starts), for backscatter spectra. Capped by
    /// `params.diag.series_cap` (windowed retention; the discarded count
    /// rides the checkpoint sidecar with the samples).
    pub backscatter_series: vpic_diag::TimeSeries,
    /// Diagnostics sink: `Off` (inline probe only), `Sync` (engine inline,
    /// the oracle) or `Async` (engine on a worker behind a bounded queue).
    pub sink: DiagSink,
    /// Backscatter spectrum memoized by series length (satellite of the
    /// pipeline refactor: progress probing must not re-run the FFT).
    spectrum_cache: Option<(usize, Vec<(f64, f64)>)>,
}

impl LpiRun {
    /// Build the run. Layout along x (cells):
    /// `[sponge][antenna]…gap…[probe]…gap…[ramp|flat|ramp]…gap…[sponge]`.
    pub fn new(params: LpiParams) -> Self {
        let srs = srs_match(params.n_over_ncr, params.vth);
        let dx = params.dx;
        let sponge_len = params.sponge_cells as f32 * dx;
        let x_antenna = sponge_len + 3.0 * dx;
        let x_plasma = x_antenna + params.vacuum;
        let profile = SlabProfile {
            x_enter: x_plasma,
            ramp_up: params.ramp,
            flat: params.flat,
            ramp_down: params.ramp,
        };
        let length = profile.x_exit() + params.vacuum + sponge_len;
        let nx = (length / dx).ceil() as usize;
        let dt = Grid::courant_dt(1.0, (dx, dx, dx), 0.95);
        let bc = [
            ParticleBc::Absorb,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
            ParticleBc::Absorb,
            ParticleBc::Periodic,
            ParticleBc::Periodic,
        ];
        let g = Grid::new((nx, 1, 1), (dx, dx, dx), dt, bc);
        let mut sim = Simulation::new(g, params.pipelines);
        sim.set_layout(params.layout);
        sim.sponge = Some(Sponge::symmetric(params.sponge_cells, 0.15));

        // Electrons; ions are an immobile neutralizing background with the
        // same profile (implicit: only current fluctuations drive fields,
        // so do NOT enable Marder cleaning on LPI runs).
        let mut e = Species::new("electron", -1.0, 1.0).with_sort_policy(params.sort);
        let mut rng = Rng::seeded(params.seed);
        load_profile(
            &mut e,
            &sim.grid,
            &mut rng,
            params.ppc,
            Momentum::thermal(params.vth as f32),
            1.0,
            |x, _, _| profile.density(x),
        );
        let electrons = sim.add_species(e);

        // Optional mobile ions: same profile, Z = 1, neutralizing the
        // electrons exactly in expectation.
        let ions = params.ion_mass.map(|mi| {
            let mut ion = Species::new("ion", 1.0, mi).with_sort_policy(params.sort);
            let mut rng = Rng::seeded(params.seed ^ 0x1042);
            let vth_i = params.vth as f32 * (params.ti_over_te / mi).sqrt();
            load_profile(
                &mut ion,
                &sim.grid,
                &mut rng,
                params.ppc,
                Momentum::thermal(vth_i),
                1.0,
                |x, _, _| profile.density(x),
            );
            sim.add_species(ion)
        });

        let omega = srs.omega0 as f32;
        let period_steps = (2.0 * std::f32::consts::PI / (omega * sim.grid.dt)) as u64;
        let antenna = LaserAntenna {
            plane: (x_antenna / dx) as usize,
            a0: params.a0 as f32,
            omega,
            ramp_steps: (params.ramp_periods * period_steps as f32) as u64,
            polarization: Polarization::Y,
        };
        // Probe halfway between antenna and plasma entry.
        let probe_plane = ((x_antenna + 0.5 * params.vacuum) / dx) as usize;
        let probe = ReflectivityProbe::new(probe_plane);

        // Counter-propagating seed from the far vacuum gap: its backward
        // component crosses the slab (getting SRS-amplified) to the probe.
        let seed_antenna = (params.seed_frac > 0.0).then(|| {
            let x_seed = profile.x_exit() + 0.5 * params.vacuum;
            let omega_s = srs.omega_s as f32;
            LaserAntenna {
                plane: (x_seed / dx) as usize,
                // Match E_seed = seed_frac·E0 at the scattered frequency.
                a0: (params.seed_frac * params.a0) as f32 * omega / omega_s,
                omega: omega_s,
                ramp_steps: antenna.ramp_steps,
                polarization: Polarization::Y,
            }
        });

        // Skip the transient: antenna ramp + one full domain transit.
        let transit = (length / sim.grid.dt) as u64;
        let measure_after = antenna.ramp_steps + transit;

        let dt = sim.grid.dt as f64;
        let backscatter_series =
            vpic_diag::TimeSeries::new("backward amplitude", dt).with_cap(params.diag.series_cap);
        let sink = DiagSink::new(&params.diag, dt);
        LpiRun {
            sim,
            antenna,
            seed_antenna,
            probe,
            srs,
            params,
            profile,
            measure_after,
            electrons,
            ions,
            backscatter_series,
            sink,
            spectrum_cache: None,
        }
    }

    /// A reasonable total step count: the transient plus `n_extra` domain
    /// transits of measurement window.
    pub fn suggested_steps(&self, n_extra: f32) -> u64 {
        let transit = (self.domain_length() / self.sim.grid.dt) as u64;
        self.measure_after + (n_extra * transit as f32) as u64
    }

    /// Physical domain length.
    pub fn domain_length(&self) -> f32 {
        self.sim.grid.extent().0
    }

    /// Advance one step (drives the antenna, samples the probe once past
    /// the transient, publishes a snapshot to the diagnostics sink).
    ///
    /// Probe sampling stays inline by design: it is cheap (one plane
    /// sweep), checkpoint-authoritative, and every downstream artifact
    /// must agree with it bit-for-bit. The pipeline offloads only the
    /// derived work (FFTs, spectrograms, artifact writes).
    pub fn step(&mut self) {
        let antenna = self.antenna;
        let seed = self.seed_antenna;
        let measure_after = self.measure_after;
        let cadence = self.params.diag.cadence.max(1);
        let decimation = self.params.diag.decimation.max(1);
        let electrons = self.electrons;
        let probe = &mut self.probe;
        let series = &mut self.backscatter_series;
        let sink = &mut self.sink;
        self.sim.step_with_observed(
            |f, g, s| {
                antenna.drive(f, g, s);
                if let Some(seed) = seed {
                    seed.drive(f, g, s);
                }
            },
            |f, g, species, step| {
                if step < measure_after {
                    return;
                }
                probe.sample(f, g);
                // Instantaneous backward-wave field at the probe plane
                // (one transverse point suffices in quasi-1D).
                let v = g.voxel(probe.plane, 1, 1);
                let backward = 0.5 * (f.ey[v] - f.cbz[v]);
                series.push(backward as f64);
                if sink.is_off() {
                    return;
                }
                // Heavy snapshots key on the absolute step number, so a
                // rollback replay regenerates the identical sequence.
                let heavy = step.is_multiple_of(cadence);
                let (slab, particles) = if heavy {
                    let mut slab = sink.slab_buffer();
                    for k in 1..=g.nz {
                        for j in 1..=g.ny {
                            let v = g.voxel(probe.plane, j, k);
                            slab.extend_from_slice(&[
                                f.ey[v] as f64,
                                f.ez[v] as f64,
                                f.cby[v] as f64,
                                f.cbz[v] as f64,
                            ]);
                        }
                    }
                    let parts: Vec<f32> = species[electrons]
                        .iter()
                        .step_by(decimation)
                        .map(|p| (p.ux * p.ux + p.uy * p.uy + p.uz * p.uz).sqrt())
                        .collect();
                    (Some(slab), Some(parts))
                } else {
                    (None, None)
                };
                sink.publish(DiagSnapshot {
                    step,
                    time: step as f64 * g.dt as f64,
                    backward: backward as f64,
                    probe_raw: probe.raw_state(),
                    slab,
                    particles,
                });
            },
        );
    }

    /// Barrier: every published snapshot has been consumed on return.
    /// Called before every checkpoint, rollback and graceful degrade.
    pub fn diag_flush(&mut self) {
        self.sink.flush();
    }

    /// Rebuild the diagnostics engine from the run's (just-restored)
    /// probe/series state, so replayed steps never double-count a
    /// sample. Callers flush first to drain stale in-flight snapshots.
    pub fn diag_reset(&mut self) {
        if self.sink.is_off() {
            return;
        }
        self.sink.reset(EngineState {
            samples: self.backscatter_series.samples.clone(),
            discarded: self.backscatter_series.discarded,
            probe_raw: self.probe.raw_state(),
            step: self.sim.step_count,
        });
    }

    /// Route the engine's streaming artifacts (`progress.json`) to `dir`.
    pub fn diag_set_out_dir(&mut self, dir: std::path::PathBuf) {
        self.sink.set_out_dir(dir);
    }

    /// Pipeline counters so far (safe to sample mid-run).
    pub fn diag_stats(&self) -> DiagStats {
        self.sink.stats()
    }

    /// Stop the sink and recover the engine + final counters. `None`
    /// engine when the mode was `off`.
    pub fn diag_finish(&mut self) -> (Option<Box<DiagEngine>>, DiagStats) {
        self.sink.finish()
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Measured time-averaged reflectivity.
    pub fn reflectivity(&self) -> f64 {
        self.probe.reflectivity()
    }

    /// The electron species.
    pub fn electron_species(&self) -> &Species {
        &self.sim.species[self.electrons]
    }

    /// The ion species, when mobile ions were requested.
    pub fn ion_species(&self) -> Option<&Species> {
        self.ions.map(|i| &self.sim.species[i])
    }

    /// Power spectrum of the backward wave at the probe:
    /// `(ω, power)` bins. An SRS backscatter line sits at
    /// `ω_s = ω0 − ω_ek`; an SBS line almost on top of `ω0`. Memoized by
    /// series length, so repeated probing (vpic-run progress lines,
    /// sweep heartbeats) costs O(1) between new samples; empty series →
    /// empty spectrum (no zero-padded fake bins).
    pub fn backscatter_spectrum(&mut self) -> &[(f64, f64)] {
        let len = self.backscatter_series.samples.len();
        if self.spectrum_cache.as_ref().map(|c| c.0) != Some(len) {
            let spec = vpic_diag::backscatter_spectrum_of(
                &self.backscatter_series.samples,
                self.backscatter_series.dt,
            );
            self.spectrum_cache = Some((len, spec));
        }
        &self.spectrum_cache.as_ref().unwrap().1
    }

    /// Strongest backscatter line below `omega_max` (skips the DC bin).
    /// `None` when the post-DC window is empty — a too-short run or an
    /// `omega_max` below the first bin — instead of a silent `(0, 0)`.
    pub fn backscatter_peak(&mut self, omega_max: f64) -> Option<(f64, f64)> {
        vpic_diag::spectrum_peak(self.backscatter_spectrum(), omega_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_is_consistent() {
        let run = LpiRun::new(LpiParams::default());
        let g = &run.sim.grid;
        assert!(run.antenna.plane > run.params.sponge_cells);
        assert!(run.probe.plane > run.antenna.plane);
        let probe_x = run.probe.plane as f32 * g.dx;
        assert!(probe_x < run.profile.x_enter);
        assert!(run.profile.x_exit() < g.extent().0 - run.params.sponge_cells as f32 * g.dx);
        // Laser resolved: ≥ 15 cells per vacuum wavelength.
        let lambda0 = 2.0 * std::f32::consts::PI / run.srs.k0 as f32;
        assert!(lambda0 / g.dx > 15.0, "λ0/dx = {}", lambda0 / g.dx);
        assert!(run.electron_species().len() > 1000);
    }

    /// Short smoke run: the probe must register incident power close to
    /// the antenna's E0²/2 and a small finite backscatter level.
    #[test]
    fn laser_reaches_probe_with_expected_intensity() {
        let params = LpiParams {
            flat: 8.0,
            ppc: 8,
            a0: 0.01,
            ..Default::default()
        };
        let mut run = LpiRun::new(params);
        let steps = run.suggested_steps(1.0);
        run.run(steps);
        let e0 = run.antenna.e0() as f64;
        let incident = run.probe.mean_incident();
        // Mean of (E0 sin)² = E0²/2; tolerate dispersion/averaging slop.
        assert!(
            (incident - 0.5 * e0 * e0).abs() < 0.3 * 0.5 * e0 * e0,
            "incident {incident} vs {}",
            0.5 * e0 * e0
        );
        let r = run.reflectivity();
        assert!(r.is_finite() && r < 0.5, "implausible reflectivity {r}");
        // Particles should not be lost in bulk (only sponge-region strays).
        assert!(run.sim.lost_particles < (run.electron_species().len() / 10) as u64);
    }
}
