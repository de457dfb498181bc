//! Numerical-integrity sentinel: tiered invariant monitors, an anomaly
//! classifier and an escalating self-healing ladder.
//!
//! The paper's trillion-particle campaigns die as easily from numerical
//! blow-up as from node loss — a NaN injected by a cosmic ray or a
//! mis-set deck propagates through the whole mesh within a few light
//! crossings. The sentinel watches the invariants PIC gives us for free:
//!
//! * **NaN/Inf sweeps** over field components, particles and current
//!   accumulators (the cheapest canaries; a single non-finite value is
//!   always fatal if left alone);
//! * **Gauss-law residual** `∇·E − ρ/ε0` and `∇·B` RMS via the existing
//!   Marder machinery (only meaningful when *every* charge species is
//!   explicitly represented — decks using an implicit neutralizing
//!   background, like the LPI decks, must leave these monitors off);
//! * an **energy ledger**: total field + kinetic energy against the
//!   campaign-start baseline;
//! * **per-particle momentum and position-bound checks**;
//! * **CFL validation** at setup ([`validate_cfl`]).
//!
//! Every monitor folds into a flat [`HealthSample`] whose metrics are
//! all *sums or counts*, so a distributed world can combine per-rank
//! samples with a single `allreduce_sum` and every rank classifies the
//! identical global sample — the determinism contract the campaign
//! runtime relies on (see `vpic-parallel::campaign`).
//!
//! This module holds the pieces; the one check-and-heal ladder that uses
//! them is the campaign runner's (`vpic-parallel::campaign`), on any
//! number of ranks, a serial LPI run included. When the classifier trips
//! it escalates:
//!
//! 1. **log** — every sample lands in the [`FlightRecorder`] ring;
//! 2. **Marder burst** — repairable anomalies (divergence residuals) get
//!    a cleaning burst whose pass count ([`burst_passes`]) doubles with
//!    each consecutive escalation, up to `max_marder_bursts`;
//! 3. **rollback** — unrepairable or unhealed anomalies surface as a
//!    structured [`HealthVerdict`] for the campaign runtime to roll back;
//! 4. **degradation** — when recovery is exhausted the flight recorder
//!    serializes the last N samples as JSON next to the partial dump.
//!
//! [`CorruptionPlan`] provides the matching fault injector: seeded,
//! one-shot field corruption (a transient SEU model — the same bit does
//! not re-flip on replay, so a post-rollback run is clean).

use crate::accumulator::AccumulatorSet;
use crate::field::FieldArray;
use crate::field_solver::{compute_div_b_err, compute_div_e_err};
use crate::grid::Grid;
use crate::sim::Simulation;
use crate::species::Species;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Sentinel thresholds and cadence. A threshold of `0` disables its
/// monitor; `health_interval = 0` disables the sentinel entirely.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SentinelConfig {
    /// Check every this many steps (0 disables).
    pub health_interval: u64,
    /// Flag when total energy exceeds this multiple of the campaign-start
    /// baseline (0 disables).
    pub max_energy_growth: f64,
    /// Flag when the Gauss-law residual RMS `∇·E − ρ/ε0` exceeds this
    /// (0 disables). Only valid when all charge species are explicit.
    pub max_div_e_rms: f64,
    /// Flag when the `∇·B` RMS exceeds this (0 disables).
    pub max_div_b_rms: f64,
    /// Flag any particle with `|u| = |p/mc|` above this (0 disables).
    pub max_momentum: f64,
    /// Allowed fractional macroparticle-count drift from the baseline:
    /// negative disables the monitor, `0.0` demands exact conservation
    /// (periodic worlds), positive tolerates losses (absorbing walls).
    pub max_particle_drift: f64,
    /// Base pass count of a Marder healing burst (doubles per
    /// consecutive escalation).
    pub marder_passes: u32,
    /// Consecutive healing bursts to attempt before escalating to
    /// rollback (0 disables in-place healing).
    pub max_marder_bursts: u32,
    /// Health samples retained by the flight recorder.
    pub recorder_len: usize,
}

impl Default for SentinelConfig {
    /// Disabled cadence with sane thresholds: callers opt in by setting
    /// `health_interval` (or via [`SentinelConfig::enabled`]).
    fn default() -> Self {
        SentinelConfig {
            health_interval: 0,
            max_energy_growth: 10.0,
            max_div_e_rms: 0.0,
            max_div_b_rms: 0.0,
            max_momentum: 0.0,
            max_particle_drift: -1.0,
            marder_passes: 4,
            max_marder_bursts: 3,
            recorder_len: 32,
        }
    }
}

impl SentinelConfig {
    /// Defaults with the sentinel armed at a 10-step cadence.
    pub fn enabled() -> Self {
        SentinelConfig {
            health_interval: 10,
            ..Default::default()
        }
    }
}

/// Run configuration that must survive a checkpoint/restore round-trip
/// (the dump's config section): the divergence-cleaning cadence and the
/// sentinel thresholds. A rank dump carries all of it; the serial dump
/// writes a disabled sentinel, which the serial driver never runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimConfig {
    /// Marder-clean `∇·E` every this many steps (0 = never).
    pub clean_div_e_interval: usize,
    /// Marder-clean `∇·B` every this many steps (0 = never).
    pub clean_div_b_interval: usize,
    /// Sentinel cadence and thresholds.
    pub sentinel: SentinelConfig,
}

/// One health observation. Every metric is a sum or a count over the
/// local domain, so per-rank samples combine into the global sample by
/// plain addition — one `allreduce_sum` and every rank holds the same
/// numbers (bit-identical: float summation order is fixed by the
/// reduction, not by the physics).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HealthSample {
    /// Step at which the sample was taken (not reduced; identical on
    /// every rank by construction).
    pub step: u64,
    /// Non-finite values in `E`/`cB` field components.
    pub nonfinite_fields: f64,
    /// Non-finite particle coordinates/momenta/weights.
    pub nonfinite_particles: f64,
    /// Non-finite current-accumulator entries.
    pub nonfinite_accums: f64,
    /// Total field + kinetic energy.
    pub energy: f64,
    /// Macroparticle count.
    pub particles: f64,
    /// `Σ (∇·E − ρ/ε0)²` over live nodes (0 when the monitor is off).
    pub div_e_sum2: f64,
    /// `Σ (∇·B)²` over live cells (0 when the monitor is off).
    pub div_b_sum2: f64,
    /// Live nodes contributing to the divergence sums.
    pub live_nodes: f64,
    /// Net momentum `m c Σ w u` per axis (telemetry; recorded, not
    /// thresholded).
    pub momentum: [f64; 3],
    /// Particles with `|u| > max_momentum`.
    pub over_momentum: f64,
    /// Particles with an out-of-range voxel index or cell offset.
    pub out_of_bounds: f64,
}

impl HealthSample {
    /// Number of reducible metrics in the [`HealthSample::to_vec`]
    /// layout.
    pub const LEN: usize = 13;

    /// Flatten the reducible metrics for an `allreduce_sum`.
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.nonfinite_fields,
            self.nonfinite_particles,
            self.nonfinite_accums,
            self.energy,
            self.particles,
            self.div_e_sum2,
            self.div_b_sum2,
            self.live_nodes,
            self.momentum[0],
            self.momentum[1],
            self.momentum[2],
            self.over_momentum,
            self.out_of_bounds,
        ]
    }

    /// Rebuild a (global) sample from a reduced metric vector.
    ///
    /// # Panics
    /// When `v` is shorter than [`HealthSample::LEN`].
    pub fn from_vec(step: u64, v: &[f64]) -> Self {
        assert!(v.len() >= Self::LEN, "short health vector: {}", v.len());
        HealthSample {
            step,
            nonfinite_fields: v[0],
            nonfinite_particles: v[1],
            nonfinite_accums: v[2],
            energy: v[3],
            particles: v[4],
            div_e_sum2: v[5],
            div_b_sum2: v[6],
            live_nodes: v[7],
            momentum: [v[8], v[9], v[10]],
            over_momentum: v[11],
            out_of_bounds: v[12],
        }
    }

    /// Gauss-law residual RMS implied by the sums (0 when no nodes
    /// contributed).
    pub fn div_e_rms(&self) -> f64 {
        if self.live_nodes > 0.0 {
            (self.div_e_sum2 / self.live_nodes).sqrt()
        } else {
            0.0
        }
    }

    /// `∇·B` RMS implied by the sums.
    pub fn div_b_rms(&self) -> f64 {
        if self.live_nodes > 0.0 {
            (self.div_b_sum2 / self.live_nodes).sqrt()
        } else {
            0.0
        }
    }
}

/// What kind of invariant was violated. The taxonomy is shared between
/// serial runs and the distributed campaign runtime — rank faults and
/// numerical faults report through the same channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnomalyKind {
    NonFiniteFields,
    NonFiniteParticles,
    NonFiniteAccumulators,
    EnergyBlowup,
    GaussLawResidual,
    DivBResidual,
    MomentumBound,
    ParticleBounds,
    ParticleDrift,
    CflViolation,
    /// Ranks disagreed on a collective confirmation (campaign runtime).
    Confirmation,
}

impl AnomalyKind {
    /// Anomalies a Marder cleaning burst can plausibly repair in place.
    /// Everything else needs rollback (or was never a field problem).
    pub fn repairable(self) -> bool {
        matches!(
            self,
            AnomalyKind::GaussLawResidual | AnomalyKind::DivBResidual
        )
    }

    /// Stable snake_case name (flight-recorder JSON, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            AnomalyKind::NonFiniteFields => "nonfinite_fields",
            AnomalyKind::NonFiniteParticles => "nonfinite_particles",
            AnomalyKind::NonFiniteAccumulators => "nonfinite_accumulators",
            AnomalyKind::EnergyBlowup => "energy_blowup",
            AnomalyKind::GaussLawResidual => "gauss_law_residual",
            AnomalyKind::DivBResidual => "div_b_residual",
            AnomalyKind::MomentumBound => "momentum_bound",
            AnomalyKind::ParticleBounds => "particle_bounds",
            AnomalyKind::ParticleDrift => "particle_drift",
            AnomalyKind::CflViolation => "cfl_violation",
            AnomalyKind::Confirmation => "confirmation",
        }
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A failed health check: which invariant broke, by how much, and when.
/// Classified from the *globally reduced* sample, so in a distributed
/// world every rank constructs a bit-identical verdict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HealthVerdict {
    pub kind: AnomalyKind,
    /// Observed value of the violated metric.
    pub metric: f64,
    /// Threshold it violated.
    pub threshold: f64,
    /// Step at which it was observed.
    pub step: u64,
}

impl std::fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at step {}: {:.6e} vs threshold {:.6e}",
            self.kind, self.step, self.metric, self.threshold
        )
    }
}

/// Classify a (global) health sample against the thresholds. `baseline`
/// is the `(energy, particle count)` reference the campaign runner takes
/// at step 0; `None` skips the ledger checks.
/// Ordered most-severe-first so the verdict is the worst anomaly; the
/// repairable divergence residuals deliberately come last.
pub fn classify(
    s: &HealthSample,
    cfg: &SentinelConfig,
    baseline: Option<(f64, f64)>,
) -> Option<HealthVerdict> {
    let v = |kind, metric, threshold| {
        Some(HealthVerdict {
            kind,
            metric,
            threshold,
            step: s.step,
        })
    };
    if s.nonfinite_fields > 0.0 {
        return v(AnomalyKind::NonFiniteFields, s.nonfinite_fields, 0.0);
    }
    if s.nonfinite_particles > 0.0 {
        return v(AnomalyKind::NonFiniteParticles, s.nonfinite_particles, 0.0);
    }
    if s.nonfinite_accums > 0.0 {
        return v(AnomalyKind::NonFiniteAccumulators, s.nonfinite_accums, 0.0);
    }
    if s.out_of_bounds > 0.0 {
        return v(AnomalyKind::ParticleBounds, s.out_of_bounds, 0.0);
    }
    if let Some((e0, n0)) = baseline {
        if cfg.max_energy_growth > 0.0 && e0 > 0.0 && s.energy > cfg.max_energy_growth * e0 {
            return v(
                AnomalyKind::EnergyBlowup,
                s.energy,
                cfg.max_energy_growth * e0,
            );
        }
        if cfg.max_particle_drift >= 0.0 {
            let drift = (s.particles - n0).abs();
            if drift > cfg.max_particle_drift * n0 {
                return v(AnomalyKind::ParticleDrift, s.particles, n0);
            }
        }
    }
    if cfg.max_momentum > 0.0 && s.over_momentum > 0.0 {
        return v(AnomalyKind::MomentumBound, s.over_momentum, 0.0);
    }
    if cfg.max_div_e_rms > 0.0 && s.div_e_rms() > cfg.max_div_e_rms {
        return v(
            AnomalyKind::GaussLawResidual,
            s.div_e_rms(),
            cfg.max_div_e_rms,
        );
    }
    if cfg.max_div_b_rms > 0.0 && s.div_b_rms() > cfg.max_div_b_rms {
        return v(AnomalyKind::DivBResidual, s.div_b_rms(), cfg.max_div_b_rms);
    }
    None
}

/// Courant number `c Δt √(1/Δx² + 1/Δy² + 1/Δz²)` of a grid.
pub fn courant_number(g: &Grid) -> f64 {
    let inv2 =
        1.0 / (g.dx as f64).powi(2) + 1.0 / (g.dy as f64).powi(2) + 1.0 / (g.dz as f64).powi(2);
    g.cvac as f64 * g.dt as f64 * inv2.sqrt()
}

/// Setup-time CFL validation: the explicit FDTD/Boris pairing requires a
/// Courant number strictly below 1. Returns the Courant number, or a
/// [`HealthVerdict`] (kind [`AnomalyKind::CflViolation`], step 0).
pub fn validate_cfl(g: &Grid) -> Result<f64, HealthVerdict> {
    let c = courant_number(g);
    if c.is_finite() && c > 0.0 && c < 1.0 {
        Ok(c)
    } else {
        Err(HealthVerdict {
            kind: AnomalyKind::CflViolation,
            metric: c,
            threshold: 1.0,
            step: 0,
        })
    }
}

/// Count non-finite values in the six `E`/`cB` components.
pub fn count_nonfinite_fields(f: &FieldArray) -> u64 {
    [&f.ex, &f.ey, &f.ez, &f.cbx, &f.cby, &f.cbz]
        .iter()
        .map(|a| a.iter().filter(|v| !v.is_finite()).count() as u64)
        .sum()
}

/// Count particles with any non-finite coordinate, momentum or weight.
pub fn count_nonfinite_particles(species: &[Species]) -> u64 {
    species
        .iter()
        .flat_map(|sp| sp.iter())
        .filter(|p| {
            !(p.dx.is_finite()
                && p.dy.is_finite()
                && p.dz.is_finite()
                && p.ux.is_finite()
                && p.uy.is_finite()
                && p.uz.is_finite()
                && p.w.is_finite())
        })
        .count() as u64
}

/// Count non-finite entries in the per-pipeline current accumulators
/// (dirty planes only — the others are zero by construction). After the
/// reduction, an entry a helper pipeline deposited outside the planes it
/// shares with another is counted in that helper's array alone.
pub fn count_nonfinite_accums(acc: &AccumulatorSet) -> u64 {
    let mut n = 0u64;
    for arr in &acc.arrays {
        for a in arr.dirty_entries() {
            for v in a.jx.iter().chain(&a.jy).chain(&a.jz) {
                if !v.is_finite() {
                    n += 1;
                }
            }
        }
    }
    n
}

/// Build the local (this-domain) portion of a health sample. The caller
/// is responsible for `rho` being fresh when the Gauss monitor is on
/// (`Simulation::refresh_rho` / `DistributedSim::refresh_rho`) and for
/// ghost planes being valid. Distributed callers then sum-reduce
/// [`HealthSample::to_vec`] across ranks.
pub fn local_sample(
    step: u64,
    fields: &FieldArray,
    grid: &Grid,
    species: &[Species],
    accums: &AccumulatorSet,
    cfg: &SentinelConfig,
    scratch: &mut Vec<f32>,
) -> HealthSample {
    let mut s = HealthSample {
        step,
        nonfinite_fields: count_nonfinite_fields(fields) as f64,
        nonfinite_particles: count_nonfinite_particles(species) as f64,
        nonfinite_accums: count_nonfinite_accums(accums) as f64,
        particles: species.iter().map(Species::len).sum::<usize>() as f64,
        live_nodes: grid.n_live() as f64,
        ..Default::default()
    };
    s.energy = fields.energy_e(grid)
        + fields.energy_b(grid)
        + species
            .iter()
            .map(|sp| sp.kinetic_energy(grid))
            .sum::<f64>();
    for sp in species {
        let m = sp.momentum(grid);
        for (acc, comp) in s.momentum.iter_mut().zip(m) {
            *acc += comp;
        }
    }
    let n_voxels = grid.n_voxels() as u32;
    let u2_max = cfg.max_momentum * cfg.max_momentum;
    for sp in species {
        for p in sp.iter() {
            if cfg.max_momentum > 0.0 {
                let u2 = (p.ux as f64).powi(2) + (p.uy as f64).powi(2) + (p.uz as f64).powi(2);
                if u2 > u2_max {
                    s.over_momentum += 1.0;
                }
            }
            if p.i >= n_voxels || p.dx.abs() > 1.001 || p.dy.abs() > 1.001 || p.dz.abs() > 1.001 {
                s.out_of_bounds += 1.0;
            }
        }
    }
    // Divergence residuals only when asked: they walk the whole mesh and
    // the Gauss one needs a fresh rho deposit.
    if cfg.max_div_e_rms > 0.0 {
        let rms = compute_div_e_err(fields, grid, scratch);
        s.div_e_sum2 = rms * rms * grid.n_live() as f64;
    }
    if cfg.max_div_b_rms > 0.0 {
        let rms = compute_div_b_err(fields, grid, scratch);
        s.div_b_sum2 = rms * rms * grid.n_live() as f64;
    }
    s
}

/// One in-place healing episode.
#[derive(Clone, Copy, Debug)]
pub struct HealEvent {
    /// Step at which the burst ran.
    pub step: u64,
    /// Anomaly that triggered it.
    pub kind: AnomalyKind,
    /// Marder passes applied.
    pub passes: u32,
    /// Residual RMS before the burst.
    pub rms_before: f64,
    /// Residual RMS after the burst.
    pub rms_after: f64,
    /// True when the re-check came back clean.
    pub healed: bool,
}

/// Ring buffer of the last N health samples plus their verdicts, with a
/// hand-rolled JSON serializer (no external dependencies) so a degraded
/// campaign leaves a machine-readable post-mortem next to its partial
/// dump.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    cap: usize,
    samples: VecDeque<(HealthSample, Option<HealthVerdict>)>,
}

/// JSON number: finite floats in exponent form, non-finite as `null`
/// (JSON has no NaN/Inf literals).
fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:e}");
    } else {
        out.push_str("null");
    }
}

impl FlightRecorder {
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap.max(1),
            samples: VecDeque::new(),
        }
    }

    /// Append a sample (dropping the oldest past capacity).
    pub fn record(&mut self, s: HealthSample, verdict: Option<HealthVerdict>) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back((s, verdict));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Serialize as a single JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 * self.samples.len() + 64);
        let _ = write!(
            out,
            "{{\"version\":1,\"n_samples\":{},\"samples\":[",
            self.samples.len()
        );
        for (i, (s, verdict)) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"step\":{}", s.step);
            for (key, val) in [
                ("nonfinite_fields", s.nonfinite_fields),
                ("nonfinite_particles", s.nonfinite_particles),
                ("nonfinite_accumulators", s.nonfinite_accums),
                ("energy", s.energy),
                ("particles", s.particles),
                ("div_e_rms", s.div_e_rms()),
                ("div_b_rms", s.div_b_rms()),
                ("momentum_x", s.momentum[0]),
                ("momentum_y", s.momentum[1]),
                ("momentum_z", s.momentum[2]),
                ("over_momentum", s.over_momentum),
                ("out_of_bounds", s.out_of_bounds),
            ] {
                let _ = write!(out, ",\"{key}\":");
                json_f64(&mut out, val);
            }
            match verdict {
                Some(v) => {
                    let _ = write!(
                        out,
                        ",\"verdict\":{{\"kind\":\"{}\",\"metric\":",
                        v.kind.as_str()
                    );
                    json_f64(&mut out, v.metric);
                    out.push_str(",\"threshold\":");
                    json_f64(&mut out, v.threshold);
                    let _ = write!(out, ",\"step\":{}}}", v.step);
                }
                None => out.push_str(",\"verdict\":null"),
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Write the JSON document to `path` (best effort, atomic-ish: plain
    /// create+write — the recorder is a post-mortem artifact, not state).
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Escalated pass count for the `burst`-th consecutive healing attempt
/// (0-based): `base << burst`, saturating.
pub fn burst_passes(base: u32, burst: u32) -> u32 {
    base.max(1).saturating_mul(1u32 << burst.min(16))
}

/// Uninhabited: the serial in-step sentinel is gone, so
/// `Simulation::sentinel` is always `None`. Exists only for `benchmark/`
/// until ROADMAP item 1's follow-up.
pub enum Sentinel {}

impl Sentinel {
    pub fn due(&self, _step: u64) -> bool {
        match *self {}
    }

    pub fn check(&mut self, _sim: &mut Simulation) {
        match *self {}
    }
}

/// What an injected corruption writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptionMode {
    /// Write NaN (caught by the non-finite sweep).
    Nan,
    /// Write a huge finite value (caught by the energy ledger or the
    /// divergence monitors).
    Huge,
}

/// One seeded corruption event.
#[derive(Clone, Copy, Debug)]
pub struct CorruptionEvent {
    /// Fire when `step_count` reaches this value.
    pub step: u64,
    /// Restrict to one rank (`None` = every rank).
    pub rank: Option<usize>,
    pub mode: CorruptionMode,
    /// Field values to clobber.
    pub count: usize,
}

/// Seeded, **one-shot** field-corruption injector modeling a transient
/// upset: each event fires at most once per plan instance, so a replay
/// after rollback runs clean and the campaign can finish bit-identically
/// with an unfaulted run. Which values are hit is a pure function of the
/// seed and the event index.
#[derive(Clone, Debug)]
pub struct CorruptionPlan {
    pub seed: u64,
    pub events: Vec<CorruptionEvent>,
    fired: Vec<bool>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl CorruptionPlan {
    pub fn new(seed: u64) -> Self {
        CorruptionPlan {
            seed,
            events: Vec::new(),
            fired: Vec::new(),
        }
    }

    pub fn with_event(mut self, ev: CorruptionEvent) -> Self {
        self.events.push(ev);
        self.fired.push(false);
        self
    }

    /// True when every event has fired.
    pub fn exhausted(&self) -> bool {
        self.fired.iter().all(|&f| f)
    }

    /// Fire any pending events matching `(step, rank)` into the fields.
    /// Returns the number of values corrupted (0 = nothing fired).
    /// Targets interior voxels only: ghost planes are rewritten by the
    /// per-step sync before anything reads them, so an upset there models
    /// nothing observable.
    pub fn apply(&mut self, step: u64, rank: usize, f: &mut FieldArray, g: &Grid) -> usize {
        let mut hit = 0usize;
        for (idx, ev) in self.events.iter().enumerate() {
            if self.fired[idx] || ev.step != step || ev.rank.is_some_and(|r| r != rank) {
                continue;
            }
            self.fired[idx] = true;
            let mut state = self
                .seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(idx as u64);
            for _ in 0..ev.count {
                let comp = (splitmix64(&mut state) % 6) as usize;
                let i = 1 + (splitmix64(&mut state) as usize) % g.nx;
                let j = 1 + (splitmix64(&mut state) as usize) % g.ny;
                let k = 1 + (splitmix64(&mut state) as usize) % g.nz;
                let v = g.voxel(i, j, k);
                let target = match comp {
                    0 => &mut f.ex,
                    1 => &mut f.ey,
                    2 => &mut f.ez,
                    3 => &mut f.cbx,
                    4 => &mut f.cby,
                    _ => &mut f.cbz,
                };
                target[v] = match ev.mode {
                    CorruptionMode::Nan => f32::NAN,
                    CorruptionMode::Huge => 1.0e30,
                };
                hit += 1;
            }
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_vector_roundtrip() {
        let s = HealthSample {
            step: 42,
            nonfinite_fields: 1.0,
            nonfinite_particles: 2.0,
            nonfinite_accums: 3.0,
            energy: 4.5,
            particles: 6.0,
            div_e_sum2: 7.5,
            div_b_sum2: 8.5,
            live_nodes: 9.0,
            momentum: [0.1, 0.2, 0.3],
            over_momentum: 10.0,
            out_of_bounds: 11.0,
        };
        let v = s.to_vec();
        assert_eq!(v.len(), HealthSample::LEN);
        assert_eq!(HealthSample::from_vec(42, &v), s);
    }

    #[test]
    fn classifier_severity_order_and_thresholds() {
        let cfg = SentinelConfig {
            health_interval: 1,
            max_div_e_rms: 0.5,
            max_momentum: 10.0,
            max_particle_drift: 0.0,
            ..Default::default()
        };
        let clean = HealthSample {
            step: 5,
            energy: 1.0,
            particles: 100.0,
            live_nodes: 10.0,
            ..Default::default()
        };
        assert_eq!(classify(&clean, &cfg, Some((1.0, 100.0))), None);

        // Non-finite outranks everything else present.
        let mut s = clean;
        s.nonfinite_fields = 2.0;
        s.div_e_sum2 = 1e6;
        let v = classify(&s, &cfg, Some((1.0, 100.0))).unwrap();
        assert_eq!(v.kind, AnomalyKind::NonFiniteFields);
        assert!(!v.kind.repairable());

        // Gauss residual alone is repairable.
        let mut s = clean;
        s.div_e_sum2 = 10.0 * 10.0; // rms 1.0 over 10 nodes? sum2 = rms^2 * n
        s.div_e_sum2 = 1.0 * 1.0 * 10.0;
        let v = classify(&s, &cfg, Some((1.0, 100.0))).unwrap();
        assert_eq!(v.kind, AnomalyKind::GaussLawResidual);
        assert!(v.kind.repairable());
        assert!((v.metric - 1.0).abs() < 1e-12);

        // Energy blow-up against the baseline.
        let mut s = clean;
        s.energy = 11.0;
        let v = classify(&s, &cfg, Some((1.0, 100.0))).unwrap();
        assert_eq!(v.kind, AnomalyKind::EnergyBlowup);
        // Unarmed baseline skips the ledger checks.
        assert_eq!(classify(&s, &cfg, None), None);

        // Exact particle conservation demanded by drift = 0.
        let mut s = clean;
        s.particles = 99.0;
        let v = classify(&s, &cfg, Some((1.0, 100.0))).unwrap();
        assert_eq!(v.kind, AnomalyKind::ParticleDrift);
        // A tolerant drift threshold lets it pass.
        let mut loose = cfg;
        loose.max_particle_drift = 0.05;
        assert_eq!(classify(&s, &loose, Some((1.0, 100.0))), None);
    }

    #[test]
    fn cfl_validation() {
        let dx = 0.2f32;
        let ok = Grid::periodic(
            (8, 8, 8),
            (dx, dx, dx),
            Grid::courant_dt(1.0, (dx, dx, dx), 0.7),
        );
        let c = validate_cfl(&ok).expect("stable grid");
        assert!((c - 0.7).abs() < 1e-3, "courant {c}");
        let bad = Grid::periodic(
            (8, 8, 8),
            (dx, dx, dx),
            Grid::courant_dt(1.0, (dx, dx, dx), 1.3),
        );
        let v = validate_cfl(&bad).unwrap_err();
        assert_eq!(v.kind, AnomalyKind::CflViolation);
    }

    #[test]
    fn recorder_rolls_and_serializes_valid_json_shape() {
        let mut rec = FlightRecorder::new(3);
        for step in 0..5u64 {
            let s = HealthSample {
                step,
                energy: step as f64,
                ..Default::default()
            };
            let verdict = (step == 4).then_some(HealthVerdict {
                kind: AnomalyKind::EnergyBlowup,
                metric: 4.0,
                threshold: 1.0,
                step,
            });
            rec.record(s, verdict);
        }
        assert_eq!(rec.len(), 3);
        let json = rec.to_json();
        // Structure sanity: balanced braces/brackets, expected keys, no
        // bare NaN/Infinity tokens (invalid JSON).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces: {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.starts_with("{\"version\":1"));
        assert!(json.contains("\"n_samples\":3"));
        assert!(json.contains("\"verdict\":{\"kind\":\"energy_blowup\""));
        assert!(json.contains("\"verdict\":null"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        // Non-finite metrics serialize as null, keeping the JSON valid.
        let mut rec = FlightRecorder::new(2);
        rec.record(
            HealthSample {
                energy: f64::NAN,
                ..Default::default()
            },
            None,
        );
        let json = rec.to_json();
        assert!(json.contains("\"energy\":null"));
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn corruption_plan_is_seeded_and_one_shot() {
        let g = Grid::periodic((8, 8, 8), (0.2, 0.2, 0.2), 0.01);
        let mk = || {
            CorruptionPlan::new(99).with_event(CorruptionEvent {
                step: 3,
                rank: None,
                mode: CorruptionMode::Nan,
                count: 4,
            })
        };
        let mut a = mk();
        let mut b = mk();
        let mut fa = FieldArray::new(&g);
        let mut fb = FieldArray::new(&g);
        assert_eq!(a.apply(2, 0, &mut fa, &g), 0, "wrong step must not fire");
        assert_eq!(a.apply(3, 0, &mut fa, &g), 4);
        assert_eq!(b.apply(3, 0, &mut fb, &g), 4);
        // Deterministic: both instances clobbered identical locations.
        assert_eq!(count_nonfinite_fields(&fa), count_nonfinite_fields(&fb));
        for (x, y) in fa.ex.iter().zip(&fb.ex) {
            assert_eq!(x.is_nan(), y.is_nan());
        }
        // One-shot: replaying the same step fires nothing.
        assert_eq!(a.apply(3, 0, &mut fa, &g), 0);
        assert!(a.exhausted());
        // Rank filters hold.
        let mut c = CorruptionPlan::new(1).with_event(CorruptionEvent {
            step: 0,
            rank: Some(2),
            mode: CorruptionMode::Huge,
            count: 1,
        });
        assert_eq!(c.apply(0, 1, &mut fa, &g), 0);
        assert_eq!(c.apply(0, 2, &mut fa, &g), 1);
    }

    /// A NaN deposited by pipeline 1 alone, on a plane pipeline 0 never
    /// touches, is not folded into array 0 by the reduction: it stays in
    /// pipeline 1's array, and the health sample still counts it there.
    #[test]
    fn sentinel_sample_flags_helper_pipeline_nan_outside_shared_planes() {
        let g = Grid::periodic((8, 8, 8), (0.2, 0.2, 0.2), 0.01);
        let mut acc = AccumulatorSet::new(&g, 2);
        let streak = ((0.0, 0.0, 0.0), (0.1, 0.0, 0.0));
        acc.arrays[0].deposit(g.voxel(2, 2, 2), 1.0, streak.0, streak.1);
        acc.arrays[1].deposit(g.voxel(3, 3, 6), f32::NAN, streak.0, streak.1);
        acc.reduce_and_unload(&mut FieldArray::new(&g), &g);
        let finite = |a: &crate::accumulator::Accumulator| {
            a.jx.iter().chain(&a.jy).chain(&a.jz).all(|v| v.is_finite())
        };
        assert!(acc.arrays[0].data.iter().all(finite));
        let cfg = SentinelConfig::enabled();
        let s = local_sample(
            0,
            &FieldArray::new(&g),
            &g,
            &[],
            &acc,
            &cfg,
            &mut Vec::new(),
        );
        assert_eq!(s.nonfinite_accums, 12.0);
        let v = classify(&s, &cfg, None).expect("must trip");
        assert_eq!(v.kind, AnomalyKind::NonFiniteAccumulators);
        assert_eq!(v.metric, 12.0);
    }

    #[test]
    fn burst_passes_escalate_and_saturate() {
        assert_eq!(burst_passes(4, 0), 4);
        assert_eq!(burst_passes(4, 1), 8);
        assert_eq!(burst_passes(4, 2), 16);
        assert_eq!(burst_passes(0, 0), 1);
        assert_eq!(burst_passes(u32::MAX, 5), u32::MAX);
    }
}
