//! In-situ diagnostics: deterministic snapshots from the step loop,
//! reduced by one engine.
//!
//! The SC'08 run's science product was in-situ data reduction — at a
//! trillion particles you cannot dump raw state, so spectra and
//! reflectivity are computed as the run flies. The step loop publishes
//! cheap deterministic [`DiagSnapshot`]s (one scalar probe sample per
//! sampled step; a probe-plane field slab plus decimated particle sample
//! every `cadence`-th step) and a [`DiagEngine`] ingests each one inline,
//! on the step thread, to maintain the backscatter series, spectra,
//! spectrograms, Poynting split and a streaming `progress.json` artifact.
//!
//! Every artifact the engine produces is a pure function of the snapshot
//! sequence it ingested, so it is the same at any pipeline count. A
//! rollback calls `reset()`, which rebuilds the engine from the
//! checkpoint-authoritative probe/series state, so replayed steps never
//! double-count a sample.

use std::io;
use std::path::{Path, PathBuf};

use crate::fft::power_spectrum;
use crate::recorder::TimeSeries;
use crate::spectrogram::Spectrogram;

/// Schema identifier for the streaming progress artifact.
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
    /// Heavy-snapshot cadence in steps: every snapshot carries the
    /// scalar probe sample; steps divisible by `cadence` additionally
    /// carry the probe-plane field slab + decimated particle sample and
    /// trigger a `progress.json` write. Cadence keys on the absolute
    /// step number, so rollback replay regenerates the same heavy
    /// snapshots.
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
    /// — heavy snapshots only. The sink hands the buffer back for the
    /// next heavy snapshot, so it is not reallocated per snapshot.
    pub slab: Option<Vec<f64>>,
    /// Decimated electron momentum magnitudes — heavy snapshots only.
    pub particles: Option<Vec<f32>>,
}

/// Engine state carried by a `reset` (rollback/resume): exactly the
/// checkpoint-authoritative probe/series state, so a replayed engine is
/// indistinguishable from one that never left the checkpoint.
#[derive(Clone, Debug)]
pub struct EngineState {
    /// Retained backscatter samples (the series' window).
    pub samples: Vec<f64>,
    /// Samples discarded by windowed retention before this state.
    pub discarded: u64,
    pub probe_raw: (f64, f64, u64),
    /// Step count of the state.
    pub step: u64,
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
/// single definition shared by [`DiagEngine`] and `LpiRun`, so the
/// engine's artifact and the run's own spectrum agree bit-for-bit.
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

const SG_WINDOW: usize = 256;

/// The diagnostics consumer. Everything it produces is a pure function
/// of the snapshot sequence it ingested.
#[derive(Clone, Debug)]
pub struct DiagEngine {
    /// Mirror of the run's backscatter series (same retention cap, so a
    /// `reset` from the checkpointed series is always consistent).
    series: TimeSeries,
    probe_raw: (f64, f64, u64),
    last_step: u64,
    /// Latest heavy snapshot's Poynting split `(forward, backward)`.
    poynting: (f64, f64),
    /// Latest heavy snapshot's particle RMS momentum + sample count.
    particle_rms: f64,
    particle_samples: usize,
    spectrum_cache: Option<(usize, Vec<(f64, f64)>)>,
    out_dir: Option<PathBuf>,
    ingested: u64,
}

impl DiagEngine {
    /// New engine for a series with timestep `dt`, retaining at most
    /// `cfg.series_cap` samples.
    pub fn new(dt: f64, cfg: &DiagConfig) -> Self {
        DiagEngine {
            series: TimeSeries::new("backward amplitude", dt).with_cap(cfg.series_cap),
            probe_raw: (0.0, 0.0, 0),
            last_step: 0,
            poynting: (0.0, 0.0),
            particle_rms: 0.0,
            particle_samples: 0,
            spectrum_cache: None,
            out_dir: None,
            ingested: 0,
        }
    }

    /// Stream `progress.json` into `dir` on every heavy snapshot.
    pub fn set_out_dir(&mut self, dir: PathBuf) {
        self.out_dir = Some(dir);
    }

    /// Consume one snapshot. Heavy snapshots (slab present) refresh the
    /// Poynting/particle reductions and write the progress artifact.
    pub fn ingest(&mut self, snap: &DiagSnapshot) {
        self.series.push(snap.backward);
        self.probe_raw = snap.probe_raw;
        self.last_step = snap.step;
        self.ingested += 1;
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
                if !parts.is_empty() {
                    let sum: f64 = parts.iter().map(|&u| u as f64 * u as f64).sum();
                    self.particle_rms = (sum / parts.len() as f64).sqrt();
                }
            }
            self.write_progress();
        }
    }

    /// Rebuild from checkpoint-authoritative state (rollback/resume):
    /// drops everything ingested past the checkpoint so replayed steps
    /// never double-count.
    pub fn reset(&mut self, state: EngineState) {
        self.series.samples = state.samples;
        self.series.discarded = state.discarded;
        self.probe_raw = state.probe_raw;
        self.last_step = state.step;
        self.ingested = self.series.discarded + self.series.samples.len() as u64;
        self.poynting = (0.0, 0.0);
        self.particle_rms = 0.0;
        self.particle_samples = 0;
        self.spectrum_cache = None;
    }

    /// Time-averaged power reflectivity from the probe accumulators.
    pub fn reflectivity(&self) -> f64 {
        let (incident, reflected, _) = self.probe_raw;
        if incident > 0.0 {
            reflected / incident
        } else {
            0.0
        }
    }

    /// Retained backscatter samples.
    pub fn samples(&self) -> &[f64] {
        &self.series.samples
    }

    /// Total samples ever ingested (retained + discarded).
    pub fn total_samples(&self) -> u64 {
        self.series.total_pushed()
    }

    /// Step count of the newest ingested snapshot.
    pub fn last_step(&self) -> u64 {
        self.last_step
    }

    /// Backscatter power spectrum over the retained window, cached by
    /// series length so repeated probing is O(1).
    pub fn spectrum(&mut self) -> &[(f64, f64)] {
        let len = self.series.samples.len();
        if self.spectrum_cache.as_ref().map(|c| c.0) != Some(len) {
            let spec = backscatter_spectrum_of(&self.series.samples, self.series.dt);
            self.spectrum_cache = Some((len, spec));
        }
        &self.spectrum_cache.as_ref().unwrap().1
    }

    /// Spectrogram of the retained window: Hann frames of
    /// `min(256, ⌊len⌋₂)` samples at half-window hop, or `None` when the
    /// series is shorter than 8 samples. A pure function of the series.
    pub fn spectrogram(&self) -> Option<Spectrogram> {
        let len = self.series.samples.len();
        if len < 8 {
            return None;
        }
        let mut w = SG_WINDOW.min(len);
        while !w.is_power_of_two() {
            w -= 1;
        }
        Some(Spectrogram::compute(
            &self.series.samples,
            self.series.dt,
            w,
            (w / 2).max(1),
        ))
    }

    /// The streaming progress artifact: a pure function of the engine
    /// state, so a run and its rollback replays write byte-identical
    /// files at the same ingest points.
    pub fn progress_json(&mut self) -> String {
        use std::fmt::Write as _;
        let r = self.reflectivity();
        let (incident, _, probe_samples) = self.probe_raw;
        let (fwd, bwd) = self.poynting;
        let (step, total, retained, discarded) = (
            self.last_step,
            self.series.total_pushed(),
            self.series.samples.len(),
            self.series.discarded,
        );
        let (rms, nparts) = (self.particle_rms, self.particle_samples);
        let peak = spectrum_peak(self.spectrum(), f64::INFINITY);
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

    /// Write `progress.json` atomically (best-effort: streaming output
    /// must never take the run down).
    fn write_progress(&mut self) {
        let Some(dir) = self.out_dir.clone() else {
            return;
        };
        let json = self.progress_json();
        let _ = write_atomic_nosync(&dir.join("progress.json"), json.as_bytes());
    }

    /// End-of-run hook: one final progress write so the artifact always
    /// reflects the complete series.
    pub fn finalize(&mut self) {
        if self.out_dir.is_some() {
            self.write_progress();
        }
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

    /// Rebuild the engine from checkpoint-authoritative state.
    pub fn reset(&mut self, state: EngineState) {
        if let DiagSink::Inline { engine, .. } = self {
            engine.reset(state);
        }
    }

    /// Route streaming artifacts to `dir`.
    pub fn set_out_dir(&mut self, dir: PathBuf) {
        if let DiagSink::Inline { engine, .. } = self {
            engine.set_out_dir(dir);
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
    /// final counters, after the engine's closing progress write.
    pub fn finish(&mut self) -> (Option<Box<DiagEngine>>, DiagStats) {
        match std::mem::replace(self, DiagSink::Off) {
            DiagSink::Off => (None, DiagStats::default()),
            DiagSink::Inline {
                mut engine, stats, ..
            } => {
                engine.finalize();
                (Some(engine), stats)
            }
        }
    }
}

/// Atomic streaming-artifact write: tmp + rename, no fsync (progress
/// files are advisory; the checkpoint path owns durable writes).
pub(crate) fn write_atomic_nosync(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DiagConfig {
        DiagConfig {
            mode: DiagMode::Sync,
            cadence: 4,
            decimation: 1,
            series_cap: 0,
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

    #[test]
    fn reset_discards_replayed_tail() {
        // Publish 10, checkpoint, publish 5 junk (the "future" a fault
        // destroys), reset to the checkpoint, replay 5 good: the engine
        // must end exactly as if the junk never happened.
        let run = |with_fault: bool| -> Vec<f64> {
            let mut sink = DiagSink::new(&cfg(), 0.1);
            for i in 0..10u64 {
                sink.publish(snap(i, i as f64));
            }
            let ckpt = EngineState {
                samples: (0..10).map(|i| i as f64).collect(),
                discarded: 0,
                probe_raw: (10.0, 9.0, 9),
                step: 9,
            };
            if with_fault {
                for i in 10..15u64 {
                    sink.publish(snap(i, -1.0));
                }
                sink.reset(ckpt);
            }
            for i in 10..15u64 {
                sink.publish(snap(i, i as f64));
            }
            let (engine, _) = sink.finish();
            engine.unwrap().samples().to_vec()
        };
        let clean = run(false);
        let replayed = run(true);
        assert_eq!(clean.len(), 15);
        assert_eq!(clean, replayed, "rollback replay double-counted");
    }

    #[test]
    fn progress_json_parses_back() {
        let mut engine = DiagEngine::new(0.1, &DiagConfig::default());
        for i in 0..32u64 {
            engine.ingest(&snap(i, (i as f64 * 0.5).sin()));
        }
        let json = engine.progress_json();
        assert!(json.contains(PROGRESS_SCHEMA));
        let (step, refl) = parse_progress(&json).unwrap();
        assert_eq!(step, 31);
        assert_eq!(refl.to_bits(), engine.reflectivity().to_bits());
    }

    #[test]
    fn short_series_has_no_peak_and_no_spectrogram() {
        // Empty series: no spectrum at all, so no peak — and the
        // progress artifact must still be writable (nulls, not 0s).
        let mut engine = DiagEngine::new(0.1, &DiagConfig::default());
        assert!(engine.spectrum().is_empty());
        assert!(spectrum_peak(engine.spectrum(), f64::INFINITY).is_none());
        assert!(engine.spectrogram().is_none());
        assert!(engine.progress_json().contains("\"peak_omega\": null"));
        // One sample: a post-DC bin exists, but an `omega_max` below it
        // leaves the window empty — None, not a silent (0, 0).
        engine.ingest(&snap(0, 1.0));
        assert!(spectrum_peak(engine.spectrum(), f64::INFINITY).is_some());
        assert!(spectrum_peak(engine.spectrum(), 0.0).is_none());
        assert!(engine.spectrogram().is_none());
    }

    #[test]
    fn heavy_snapshot_updates_poynting_split() {
        let mut engine = DiagEngine::new(0.1, &DiagConfig::default());
        let mut s = snap(0, 0.0);
        // Pure forward y-polarized wave: ey = cbz = 2 ⇒ fwd 4, bwd 0.
        s.slab = Some(vec![2.0, 0.0, 0.0, 2.0]);
        s.particles = Some(vec![3.0, 4.0]);
        engine.ingest(&s);
        let json = engine.progress_json();
        assert!(json.contains("\"poynting_forward\": 4e0"), "{json}");
        assert!(json.contains("\"poynting_backward\": 0e0"), "{json}");
        // RMS of {3,4} = sqrt(12.5).
        assert!(json.contains("\"particle_rms_u\": 3.5355339059327378e0"));
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
        sink.finish();
    }
}
