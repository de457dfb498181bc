//! In-situ diagnostics: deterministic snapshots from the step loop,
//! reduced by one engine.
//!
//! The SC'08 run's science product was in-situ data reduction — at a
//! trillion particles you cannot dump raw state, so spectra and
//! reflectivity are computed as the run flies. The run itself owns the
//! checkpoint-authoritative state (the reflectivity probe and the
//! backscatter series). The step loop publishes one cheap deterministic
//! [`DiagSnapshot`] per sampled step; a heavy snapshot (a probe-plane
//! field slab plus a decimated particle sample) is built from live state
//! only when `progress.json` is written, and the [`DiagEngine`] reduces
//! it to the Poynting split and particle RMS that
//! [`DiagEngine::progress_json`] reports beside the run's own probe and
//! series.
//!
//! The engine keeps no series and no probe, so a rollback has nothing to
//! re-seed: every artifact is a pure function of the run at the step it
//! describes, the same at any pipeline count and after any replay.

use crate::fft::power_spectrum;
use crate::poynting::ReflectivityProbe;
use crate::recorder::TimeSeries;

/// Schema identifier for the progress artifact.
pub const PROGRESS_SCHEMA: &str = "vpic-diag/progress/v1";

/// Whether the step loop feeds a diagnostics engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DiagMode {
    /// No engine: only the inline probe/series sampling happens.
    #[default]
    Off,
    /// The engine ingests every snapshot inline in the step loop.
    Sync,
    /// Retired: runs exactly as [`DiagMode::Sync`]. Kept only because
    /// `benchmark/` names it (ROADMAP item 1a); no deck parses to it.
    Async,
}

impl DiagMode {
    /// Parse the `mode = off|sync` deck value. `async`, the retired
    /// worker-thread mode, is still accepted as a spelling of `sync`.
    pub fn parse(s: &str) -> Option<DiagMode> {
        match s {
            "off" => Some(DiagMode::Off),
            "sync" | "async" => Some(DiagMode::Sync),
            _ => None,
        }
    }

    /// Deck spelling of the mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagMode::Off => "off",
            DiagMode::Sync | DiagMode::Async => "sync",
        }
    }
}

/// Configuration of in-situ diagnostics (the `[diag]` deck section).
/// `Copy` so it can ride inside `LpiParams`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiagConfig {
    pub mode: DiagMode,
    /// Retired: no deck sets it and the run reads it nowhere, since heavy
    /// snapshots are built only where `progress.json` is written. Kept
    /// only because `benchmark/`'s traced LPI step (`drivers.rs`) reads
    /// it (ROADMAP item 1a).
    pub cadence: u64,
    /// Particle decimation: every `decimation`-th electron contributes
    /// to the heavy snapshot's momentum sample (min 1).
    pub decimation: usize,
    /// Backscatter-series retention cap in samples (0 = unbounded); see
    /// [`TimeSeries::push`] for the windowed-retention rule.
    pub series_cap: usize,
}

impl Default for DiagConfig {
    fn default() -> Self {
        DiagConfig {
            mode: DiagMode::Off,
            cadence: 64,
            decimation: 64,
            series_cap: 65_536,
        }
    }
}

/// One deterministic handoff from the step loop to the engine.
#[derive(Clone, Debug)]
pub struct DiagSnapshot {
    /// Completed-step count at publication.
    pub step: u64,
    /// Simulation time `step · dt`.
    pub time: f64,
    /// Backward-wave amplitude at the probe plane this step (the same
    /// value pushed into the run's checkpoint-authoritative series).
    pub backward: f64,
    /// Probe accumulator state `(incident, reflected, samples)` after
    /// this step's sample.
    pub probe_raw: (f64, f64, u64),
    /// Probe-plane field slab `[ey, ez, cby, cbz]` per transverse cell
    /// — heavy snapshots only.
    pub slab: Option<Vec<f64>>,
    /// Decimated electron momentum magnitudes — heavy snapshots only.
    pub particles: Option<Vec<f32>>,
}

/// Sink counters: snapshots published and consumed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiagStats {
    pub published: u64,
    pub consumed: u64,
    /// Always 0, since the engine ingests every snapshot (`benchmark/`'s
    /// `diag.dropped`; ROADMAP item 1a).
    pub dropped: u64,
    /// Always 0, since there is no queue (`benchmark/`'s
    /// `diag.max_queue_depth`; ROADMAP item 1a).
    pub max_depth: u64,
    /// Always 0, since the publisher never waits (`benchmark/`'s
    /// `diag.stall_s`; ROADMAP item 1a).
    pub stall_seconds: f64,
}

/// Power spectrum of a backscatter series as `(ω, power)` bins — the
/// single definition shared by [`DiagEngine::progress_json`] and
/// `LpiRun`, so the artifact and the run's own spectrum agree
/// bit-for-bit.
pub fn backscatter_spectrum_of(samples: &[f64], dt: f64) -> Vec<(f64, f64)> {
    if samples.is_empty() {
        // Too short to have a spectrum: report that, don't zero-pad an
        // empty series into fake bins.
        return Vec::new();
    }
    let ps = power_spectrum(samples);
    let n = samples.len().next_power_of_two().max(2);
    let domega = 2.0 * std::f64::consts::PI / (n as f64 * dt);
    ps.into_iter()
        .enumerate()
        .map(|(m, p)| (m as f64 * domega, p))
        .collect()
}

/// Strongest post-DC line below `omega_max`, or `None` when the series
/// is too short to have one (no silent `(0, 0)`).
pub fn spectrum_peak(spectrum: &[(f64, f64)], omega_max: f64) -> Option<(f64, f64)> {
    spectrum
        .iter()
        .copied()
        .skip(1)
        .take_while(|(w, _)| *w <= omega_max)
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
}

/// The diagnostics consumer: the reductions of the newest heavy
/// snapshot it ingested. It holds no series and no probe; those belong
/// to the run, which hands them to [`DiagEngine::progress_json`].
#[derive(Clone, Debug, Default)]
pub struct DiagEngine {
    /// Latest heavy snapshot's Poynting split `(forward, backward)`.
    poynting: (f64, f64),
    /// Latest heavy snapshot's particle RMS momentum + sample count.
    particle_rms: f64,
    particle_samples: usize,
}

impl DiagEngine {
    /// New engine. Its arguments are unread and kept only for
    /// `benchmark/`'s ingest timing (ROADMAP item 1a).
    pub fn new(_dt: f64, _cfg: &DiagConfig) -> Self {
        DiagEngine::default()
    }

    /// Consume one snapshot. A heavy snapshot (slab present) refreshes
    /// the Poynting/particle reductions; a light one changes nothing.
    pub fn ingest(&mut self, snap: &DiagSnapshot) {
        if let Some(slab) = &snap.slab {
            let mut fwd = 0.0f64;
            let mut bwd = 0.0f64;
            let cells = slab.len() / 4;
            for c in slab.chunks_exact(4) {
                let (ey, ez, cby, cbz) = (c[0], c[1], c[2], c[3]);
                let fy = 0.5 * (ey + cbz);
                let by = 0.5 * (ey - cbz);
                let fz = 0.5 * (ez - cby);
                let bz = 0.5 * (ez + cby);
                fwd += fy * fy + fz * fz;
                bwd += by * by + bz * bz;
            }
            if cells > 0 {
                self.poynting = (fwd / cells as f64, bwd / cells as f64);
            }
            if let Some(parts) = &snap.particles {
                self.particle_samples = parts.len();
                let sum: f64 = parts.iter().map(|&u| u as f64 * u as f64).sum();
                self.particle_rms = if parts.is_empty() {
                    0.0
                } else {
                    (sum / parts.len() as f64).sqrt()
                };
            }
        }
    }

    /// The progress artifact for a run at `step` with this backscatter
    /// `series` and reflectivity `probe`, reporting the newest heavy
    /// snapshot's reductions: a pure function of its arguments and that
    /// snapshot, so a run and its rollback replays write identical bytes.
    pub fn progress_json(
        &self,
        step: u64,
        series: &TimeSeries,
        probe: &ReflectivityProbe,
    ) -> String {
        use std::fmt::Write as _;
        let r = probe.reflectivity();
        let (incident, _, probe_samples) = probe.raw_state();
        let (fwd, bwd) = self.poynting;
        let (total, retained, discarded) = (
            series.total_pushed(),
            series.samples.len(),
            series.discarded,
        );
        let (rms, nparts) = (self.particle_rms, self.particle_samples);
        let spectrum = backscatter_spectrum_of(&series.samples, series.dt);
        let peak = spectrum_peak(&spectrum, f64::INFINITY);
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"schema\": \"{PROGRESS_SCHEMA}\",");
        let _ = writeln!(s, "  \"step\": {step},");
        let _ = writeln!(s, "  \"samples\": {total},");
        let _ = writeln!(s, "  \"samples_retained\": {retained},");
        let _ = writeln!(s, "  \"samples_discarded\": {discarded},");
        let _ = writeln!(s, "  \"probe_samples\": {probe_samples},");
        let _ = writeln!(s, "  \"reflectivity\": {r:e},");
        let _ = writeln!(s, "  \"reflectivity_bits\": \"{:#018x}\",", r.to_bits());
        let _ = writeln!(s, "  \"mean_incident\": {incident:e},");
        let _ = writeln!(s, "  \"poynting_forward\": {fwd:e},");
        let _ = writeln!(s, "  \"poynting_backward\": {bwd:e},");
        let _ = writeln!(s, "  \"particle_rms_u\": {rms:e},");
        let _ = writeln!(s, "  \"particle_samples\": {nparts},");
        match peak {
            Some((w, p)) => {
                let _ = writeln!(s, "  \"peak_omega\": {w:e},");
                let _ = writeln!(s, "  \"peak_power\": {p:e}");
            }
            None => {
                let _ = writeln!(s, "  \"peak_omega\": null,");
                let _ = writeln!(s, "  \"peak_power\": null");
            }
        }
        let _ = write!(s, "}}");
        s
    }
}

/// Parse `(step, reflectivity)` back out of a progress artifact without
/// a JSON dependency (the sweep scheduler's provisional-estimate path).
pub fn parse_progress(json: &str) -> Option<(u64, f64)> {
    let field = |key: &str| -> Option<&str> {
        let pat = format!("\"{key}\": ");
        let i = json.find(&pat)?;
        json[i + pat.len()..].split(&[',', '\n', '}'][..]).next()
    };
    let step = field("step")?.trim().parse::<u64>().ok()?;
    let refl = field("reflectivity")?.trim().parse::<f64>().ok()?;
    Some((step, refl))
}

/// The step loop's handle on the engine. `Off` costs a branch; `Inline`
/// ingests each snapshot on the step thread.
pub enum DiagSink {
    Off,
    Inline {
        engine: Box<DiagEngine>,
        stats: DiagStats,
        /// Spare slab buffer recycled across heavy snapshots.
        spare: Vec<f64>,
    },
}

impl DiagSink {
    /// Build a sink for `cfg`; `dt` is the probe sampling timestep.
    pub fn new(cfg: &DiagConfig, dt: f64) -> DiagSink {
        match cfg.mode {
            DiagMode::Off => DiagSink::Off,
            DiagMode::Sync | DiagMode::Async => DiagSink::Inline {
                engine: Box::new(DiagEngine::new(dt, cfg)),
                stats: DiagStats::default(),
                spare: Vec::new(),
            },
        }
    }

    /// Whether publishing is a no-op.
    pub fn is_off(&self) -> bool {
        matches!(self, DiagSink::Off)
    }

    /// A slab buffer for the next heavy snapshot (the previous heavy
    /// snapshot's, cleared).
    pub fn slab_buffer(&mut self) -> Vec<f64> {
        match self {
            DiagSink::Off => Vec::new(),
            DiagSink::Inline { spare, .. } => std::mem::take(spare),
        }
    }

    /// Ingest one snapshot (no-op when off).
    pub fn publish(&mut self, mut snap: DiagSnapshot) {
        if let DiagSink::Inline {
            engine,
            stats,
            spare,
        } = self
        {
            engine.ingest(&snap);
            stats.published += 1;
            stats.consumed += 1;
            if let Some(mut slab) = snap.slab.take() {
                slab.clear();
                *spare = slab;
            }
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> DiagStats {
        match self {
            DiagSink::Off => DiagStats::default(),
            DiagSink::Inline { stats, .. } => *stats,
        }
    }

    /// Stop the sink (replacing it with `Off`) and recover the engine +
    /// final counters.
    pub fn finish(&mut self) -> (Option<Box<DiagEngine>>, DiagStats) {
        match std::mem::replace(self, DiagSink::Off) {
            DiagSink::Off => (None, DiagStats::default()),
            DiagSink::Inline { engine, stats, .. } => (Some(engine), stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DiagConfig {
        DiagConfig {
            mode: DiagMode::Sync,
            decimation: 1,
            series_cap: 0,
            ..Default::default()
        }
    }

    fn snap(step: u64, v: f64) -> DiagSnapshot {
        DiagSnapshot {
            step,
            time: step as f64 * 0.1,
            backward: v,
            probe_raw: (1.0 + v, v, step),
            slab: None,
            particles: None,
        }
    }

    /// A run's series and probe after `n` sampled steps.
    fn run_state(n: u64) -> (TimeSeries, ReflectivityProbe) {
        let mut series = TimeSeries::new("backward amplitude", 0.1);
        for i in 0..n {
            series.push((i as f64 * 0.5).sin());
        }
        (series, ReflectivityProbe::from_raw(3, 2.0, 0.5, n))
    }

    #[test]
    fn progress_json_parses_back() {
        let engine = DiagEngine::new(0.1, &DiagConfig::default());
        let (series, probe) = run_state(32);
        let json = engine.progress_json(31, &series, &probe);
        assert!(json.contains(PROGRESS_SCHEMA));
        assert!(json.contains("\"samples\": 32,"), "{json}");
        let (step, refl) = parse_progress(&json).unwrap();
        assert_eq!(step, 31);
        assert_eq!(refl.to_bits(), probe.reflectivity().to_bits());
    }

    #[test]
    fn short_series_has_no_peak() {
        // Empty series: no spectrum at all, so no peak — and the
        // progress artifact must still be writable (nulls, not 0s).
        let engine = DiagEngine::new(0.1, &DiagConfig::default());
        let (empty, probe) = run_state(0);
        assert!(backscatter_spectrum_of(&empty.samples, empty.dt).is_empty());
        assert!(engine
            .progress_json(0, &empty, &probe)
            .contains("\"peak_omega\": null"));
        // One sample: a post-DC bin exists, but an `omega_max` below it
        // leaves the window empty — None, not a silent (0, 0).
        let (one, _) = run_state(1);
        let spectrum = backscatter_spectrum_of(&one.samples, one.dt);
        assert!(spectrum_peak(&spectrum, f64::INFINITY).is_some());
        assert!(spectrum_peak(&spectrum, 0.0).is_none());
    }

    #[test]
    fn heavy_snapshot_updates_poynting_split() {
        let mut engine = DiagEngine::new(0.1, &DiagConfig::default());
        let mut s = snap(0, 0.0);
        // Pure forward y-polarized wave: ey = cbz = 2 ⇒ fwd 4, bwd 0.
        s.slab = Some(vec![2.0, 0.0, 0.0, 2.0]);
        s.particles = Some(vec![3.0, 4.0]);
        engine.ingest(&s);
        // A light snapshot leaves the reductions alone.
        engine.ingest(&snap(1, 1.0));
        let (series, probe) = run_state(2);
        let json = engine.progress_json(1, &series, &probe);
        assert!(json.contains("\"poynting_forward\": 4e0"), "{json}");
        assert!(json.contains("\"poynting_backward\": 0e0"), "{json}");
        // RMS of {3,4} = sqrt(12.5).
        assert!(json.contains("\"particle_rms_u\": 3.5355339059327378e0"));
        assert!(json.contains("\"particle_samples\": 2,"));
    }

    #[test]
    fn slab_buffers_are_recycled() {
        let mut sink = DiagSink::new(&cfg(), 0.1);
        let mut recycled = false;
        for i in 0..200u64 {
            let mut buf = sink.slab_buffer();
            assert!(buf.is_empty(), "a recycled slab comes back cleared");
            recycled |= buf.capacity() > 0;
            buf.extend_from_slice(&[1.0, 0.0, 0.0, 1.0]);
            let mut s = snap(i, 0.0);
            s.slab = Some(buf);
            sink.publish(s);
        }
        assert!(recycled, "no slab buffer ever came back");
        let (engine, stats) = sink.finish();
        assert!(engine.is_some());
        assert_eq!((stats.published, stats.consumed), (200, 200));
    }
}
