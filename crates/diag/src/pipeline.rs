//! Off-hot-path diagnostics pipeline: snapshot handoff from the step
//! loop to a dedicated consumer.
//!
//! The SC'08 run's science product was in-situ data reduction — at a
//! trillion particles you cannot dump raw state, so spectra and
//! reflectivity are computed as the run flies. This module decouples
//! that reduction from the push kernel: the step loop publishes cheap
//! deterministic [`DiagSnapshot`]s (one scalar probe sample per sampled
//! step; a probe-plane field slab plus decimated particle sample every
//! `cadence`-th step) and a [`DiagEngine`] consumes them to maintain the
//! backscatter series, spectra, spectrograms, Poynting split and a
//! streaming `progress.json` artifact.
//!
//! **Bit-identity by construction.** The same engine is driven two
//! ways: `sync` ingests each snapshot inline (the oracle), `async`
//! sends it over a bounded channel to a worker thread that calls the
//! identical `ingest`. Snapshots arrive in publication order on a
//! single consumer, so every artifact the engine produces — series,
//! spectrum, spectrogram, `progress.json` — is byte-identical across
//! modes at any pipeline count. The only observable difference is
//! *when* the work happens.
//!
//! **Flush/drain contract.** `flush()` is a barrier: it returns only
//! after every previously published snapshot has been ingested. The
//! campaign driver flushes before every checkpoint, rollback and
//! graceful degrade, and `reset()` rebuilds the engine from the
//! checkpoint-authoritative probe/series state, so replayed steps never
//! double-count a sample.
//!
//! **Flow control.** When the bounded queue is full the publisher waits
//! (stall time is counted), keeping the pipeline lossless and
//! deterministic: no snapshot is ever shed.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crate::fft::power_spectrum;
use crate::recorder::TimeSeries;
use crate::spectrogram::Spectrogram;

/// Schema identifier for the streaming progress artifact.
pub const PROGRESS_SCHEMA: &str = "vpic-diag/progress/v1";

/// Where diagnostics run relative to the step loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DiagMode {
    /// No engine: only the inline probe/series sampling happens.
    #[default]
    Off,
    /// Engine ingests every snapshot inline in the step loop (oracle).
    Sync,
    /// Engine runs on a worker thread behind a bounded channel.
    Async,
}

impl DiagMode {
    /// Parse the `mode = off|sync|async` deck value.
    pub fn parse(s: &str) -> Option<DiagMode> {
        match s {
            "off" => Some(DiagMode::Off),
            "sync" => Some(DiagMode::Sync),
            "async" => Some(DiagMode::Async),
            _ => None,
        }
    }

    /// Deck spelling of the mode.
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagMode::Off => "off",
            DiagMode::Sync => "sync",
            DiagMode::Async => "async",
        }
    }
}

/// Configuration of the diagnostics pipeline (the `[diag]` deck
/// section). `Copy` so it can ride inside `LpiParams`.
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
    /// Bounded channel depth for `async` mode (min 1).
    pub queue_depth: usize,
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
            queue_depth: 32,
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
    /// — heavy snapshots only. The buffer is recycled through the
    /// pipeline (double-buffering), not reallocated per snapshot.
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

/// Pipeline counters (snapshots published/consumed, queue behavior).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiagStats {
    pub published: u64,
    pub consumed: u64,
    /// Snapshots shed: always 0, since the publisher blocks on a full
    /// queue. Still reported (run summary, the benchmark's
    /// `diag.dropped`) as the check that nothing was lost.
    pub dropped: u64,
    /// High-water mark of the queue depth.
    pub max_depth: u64,
    /// Publisher wall time spent blocked on a full queue.
    pub stall_seconds: f64,
}

#[derive(Default)]
struct SharedStats {
    published: AtomicU64,
    consumed: AtomicU64,
    depth: AtomicU64,
    max_depth: AtomicU64,
    stall_ns: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> DiagStats {
        DiagStats {
            published: self.published.load(Ordering::Relaxed),
            consumed: self.consumed.load(Ordering::Relaxed),
            dropped: 0,
            max_depth: self.max_depth.load(Ordering::Relaxed),
            stall_seconds: self.stall_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// Power spectrum of a backscatter series as `(ω, power)` bins — the
/// single definition shared by [`DiagEngine`] and `LpiRun`, so the
/// engine's artifact and the legacy inline path agree bit-for-bit.
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

/// The diagnostics consumer: identical whether driven inline (`sync`)
/// or from the worker thread (`async`). Everything it produces is a
/// pure function of the snapshot sequence it ingested.
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
    /// state, so sync and async runs (and rollback replays) write
    /// byte-identical files at the same ingest points.
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

enum Msg {
    Snapshot(DiagSnapshot),
    Flush(SyncSender<()>),
    Reset(Box<EngineState>),
    SetOutDir(PathBuf),
}

/// The async half: bounded channel + worker thread owning the engine.
pub struct DiagPipeline {
    tx: SyncSender<Msg>,
    recycle: Receiver<Vec<f64>>,
    worker: Option<JoinHandle<DiagEngine>>,
    stats: Arc<SharedStats>,
}

impl DiagPipeline {
    /// Spawn the worker with a queue of `cfg.queue_depth` snapshots.
    pub fn spawn(engine: DiagEngine, cfg: &DiagConfig) -> DiagPipeline {
        let (tx, rx) = sync_channel::<Msg>(cfg.queue_depth.max(1));
        let (recycle_tx, recycle) = std::sync::mpsc::channel::<Vec<f64>>();
        let stats = Arc::new(SharedStats::default());
        let wstats = Arc::clone(&stats);
        let worker = std::thread::Builder::new()
            .name("vpic-diag".into())
            .spawn(move || {
                let mut engine = engine;
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Snapshot(mut snap) => {
                            engine.ingest(&snap);
                            wstats.depth.fetch_sub(1, Ordering::Relaxed);
                            wstats.consumed.fetch_add(1, Ordering::Relaxed);
                            if let Some(mut slab) = snap.slab.take() {
                                slab.clear();
                                let _ = recycle_tx.send(slab);
                            }
                        }
                        Msg::Flush(ack) => {
                            let _ = ack.send(());
                        }
                        Msg::Reset(state) => engine.reset(*state),
                        Msg::SetOutDir(dir) => engine.set_out_dir(dir),
                    }
                }
                engine.finalize();
                engine
            })
            .expect("spawn diag worker");
        DiagPipeline {
            tx,
            recycle,
            worker: Some(worker),
            stats,
        }
    }

    /// A recycled slab buffer if the worker has returned one.
    pub fn slab_buffer(&mut self) -> Option<Vec<f64>> {
        self.recycle.try_recv().ok()
    }

    /// Publish one snapshot, waiting for the worker if the queue is full.
    pub fn publish(&mut self, snap: DiagSnapshot) {
        self.stats.published.fetch_add(1, Ordering::Relaxed);
        // Count the depth *before* sending: the worker may consume (and
        // decrement) the instant the send lands.
        let d = self.stats.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.stats.max_depth.fetch_max(d, Ordering::Relaxed);
        match self.tx.try_send(Msg::Snapshot(snap)) {
            Ok(()) => {}
            Err(TrySendError::Full(msg)) => {
                let t0 = Instant::now();
                self.tx.send(msg).expect("diag worker died");
                self.stats
                    .stall_ns
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
            Err(TrySendError::Disconnected(_)) => panic!("diag worker died"),
        }
    }

    /// Barrier: returns once every snapshot published before this call
    /// has been ingested.
    pub fn flush(&mut self) {
        let (ack_tx, ack_rx) = sync_channel::<()>(1);
        self.tx.send(Msg::Flush(ack_tx)).expect("diag worker died");
        ack_rx.recv().expect("diag worker died");
    }

    /// Queue a rollback/resume reset (FIFO-ordered after everything
    /// already published; callers flush first to drain stale snapshots).
    pub fn reset(&mut self, state: EngineState) {
        self.tx
            .send(Msg::Reset(Box::new(state)))
            .expect("diag worker died");
    }

    /// Route the engine's streaming artifacts to `dir`.
    pub fn set_out_dir(&mut self, dir: PathBuf) {
        self.tx.send(Msg::SetOutDir(dir)).expect("diag worker died");
    }

    /// Counters so far (safe to sample mid-run).
    pub fn stats(&self) -> DiagStats {
        self.stats.snapshot()
    }

    /// Drain the queue, stop the worker and recover the engine.
    pub fn finish(self) -> (DiagEngine, DiagStats) {
        let DiagPipeline {
            tx,
            recycle,
            worker,
            stats,
            ..
        } = self;
        drop(tx);
        drop(recycle);
        let engine = worker
            .expect("diag worker already joined")
            .join()
            .expect("diag worker panicked");
        (engine, stats.snapshot())
    }
}

/// The step loop's uniform handle over all three modes. `Off` costs a
/// branch; `Sync` is the inline oracle; `Async` is the pipeline.
pub enum DiagSink {
    Off,
    Sync {
        engine: Box<DiagEngine>,
        stats: DiagStats,
        /// Spare slab buffer recycled across heavy snapshots.
        spare: Vec<f64>,
    },
    Async(DiagPipeline),
}

impl DiagSink {
    /// Build a sink for `cfg`; `dt` is the probe sampling timestep.
    pub fn new(cfg: &DiagConfig, dt: f64) -> DiagSink {
        match cfg.mode {
            DiagMode::Off => DiagSink::Off,
            DiagMode::Sync => DiagSink::Sync {
                engine: Box::new(DiagEngine::new(dt, cfg)),
                stats: DiagStats::default(),
                spare: Vec::new(),
            },
            DiagMode::Async => DiagSink::Async(DiagPipeline::spawn(DiagEngine::new(dt, cfg), cfg)),
        }
    }

    /// Whether publishing is a no-op.
    pub fn is_off(&self) -> bool {
        matches!(self, DiagSink::Off)
    }

    /// The mode this sink runs in.
    pub fn mode(&self) -> DiagMode {
        match self {
            DiagSink::Off => DiagMode::Off,
            DiagSink::Sync { .. } => DiagMode::Sync,
            DiagSink::Async(_) => DiagMode::Async,
        }
    }

    /// A slab buffer for the next heavy snapshot (recycled when the
    /// consumer has returned one).
    pub fn slab_buffer(&mut self) -> Vec<f64> {
        match self {
            DiagSink::Off => Vec::new(),
            DiagSink::Sync { spare, .. } => std::mem::take(spare),
            DiagSink::Async(p) => p.slab_buffer().unwrap_or_default(),
        }
    }

    /// Publish one snapshot (no-op when off).
    pub fn publish(&mut self, mut snap: DiagSnapshot) {
        match self {
            DiagSink::Off => {}
            DiagSink::Sync {
                engine,
                stats,
                spare,
            } => {
                engine.ingest(&snap);
                stats.published += 1;
                stats.consumed += 1;
                if let Some(mut slab) = snap.slab.take() {
                    slab.clear();
                    *spare = slab;
                }
            }
            DiagSink::Async(p) => p.publish(snap),
        }
    }

    /// Barrier: every published snapshot has been ingested on return.
    pub fn flush(&mut self) {
        if let DiagSink::Async(p) = self {
            p.flush();
        }
    }

    /// Rebuild the engine from checkpoint-authoritative state.
    pub fn reset(&mut self, state: EngineState) {
        match self {
            DiagSink::Off => {}
            DiagSink::Sync { engine, .. } => engine.reset(state),
            DiagSink::Async(p) => p.reset(state),
        }
    }

    /// Route streaming artifacts to `dir`.
    pub fn set_out_dir(&mut self, dir: PathBuf) {
        match self {
            DiagSink::Off => {}
            DiagSink::Sync { engine, .. } => engine.set_out_dir(dir),
            DiagSink::Async(p) => p.set_out_dir(dir),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> DiagStats {
        match self {
            DiagSink::Off => DiagStats::default(),
            DiagSink::Sync { stats, .. } => *stats,
            DiagSink::Async(p) => p.stats(),
        }
    }

    /// Stop the sink (replacing it with `Off`) and recover the engine +
    /// final counters. Sync engines get their `finalize` here so both
    /// modes write the closing progress artifact at the same point.
    pub fn finish(&mut self) -> (Option<Box<DiagEngine>>, DiagStats) {
        match std::mem::replace(self, DiagSink::Off) {
            DiagSink::Off => (None, DiagStats::default()),
            DiagSink::Sync {
                mut engine, stats, ..
            } => {
                engine.finalize();
                (Some(engine), stats)
            }
            DiagSink::Async(p) => {
                let (engine, stats) = p.finish();
                (Some(Box::new(engine)), stats)
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
    use proptest::prelude::*;

    fn cfg(mode: DiagMode, queue_depth: usize) -> DiagConfig {
        DiagConfig {
            mode,
            cadence: 4,
            queue_depth,
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
    fn sync_and_async_engines_agree_bit_for_bit() {
        let mut sync = DiagSink::new(&cfg(DiagMode::Sync, 2), 0.1);
        let mut asy = DiagSink::new(&cfg(DiagMode::Async, 2), 0.1);
        for i in 0..300u64 {
            let v = ((i as f64) * 0.37).sin();
            sync.publish(snap(i, v));
            asy.publish(snap(i, v));
        }
        let (se, ss) = sync.finish();
        let (ae, astats) = asy.finish();
        let (mut se, mut ae) = (se.unwrap(), ae.unwrap());
        assert_eq!(ss.published, 300);
        assert_eq!(astats.published, 300);
        assert_eq!(astats.consumed, 300);
        assert_eq!(astats.dropped, 0);
        assert_eq!(se.samples().len(), ae.samples().len());
        for (a, b) in se.samples().iter().zip(ae.samples()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(se.reflectivity().to_bits(), ae.reflectivity().to_bits());
        let (s1, s2) = (se.spectrum().to_vec(), ae.spectrum().to_vec());
        assert_eq!(s1.len(), s2.len());
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        assert_eq!(se.progress_json(), ae.progress_json());
    }

    #[test]
    fn flush_is_a_barrier() {
        let mut sink = DiagSink::new(&cfg(DiagMode::Async, 1), 0.1);
        for i in 0..50u64 {
            sink.publish(snap(i, i as f64));
        }
        sink.flush();
        let stats = sink.stats();
        assert_eq!(stats.consumed, 50, "flush must drain the queue");
        assert_eq!(stats.published, 50);
        let (engine, _) = sink.finish();
        assert_eq!(engine.unwrap().samples().len(), 50);
    }

    #[test]
    fn reset_discards_replayed_tail() {
        // Publish 10, checkpoint, publish 5 junk (the "future" a fault
        // destroys), reset to the checkpoint, replay 5 good: the engine
        // must end exactly as if the junk never happened.
        let run = |with_fault: bool| -> Vec<f64> {
            let mut sink = DiagSink::new(&cfg(DiagMode::Async, 2), 0.1);
            for i in 0..10u64 {
                sink.publish(snap(i, i as f64));
            }
            sink.flush();
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
                sink.flush();
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
        let mut sink = DiagSink::new(&cfg(DiagMode::Async, 2), 0.1);
        let mut recycled = false;
        for i in 0..200u64 {
            let mut buf = sink.slab_buffer();
            recycled |= buf.capacity() > 0;
            buf.extend_from_slice(&[1.0, 0.0, 0.0, 1.0]);
            let mut s = snap(i, 0.0);
            s.slab = Some(buf);
            sink.publish(s);
        }
        sink.flush();
        assert!(recycled, "no slab buffer ever came back");
        sink.finish();
    }

    proptest! {
        /// Any interleaving of publishes and flushes, at any queue
        /// depth, delivers every sample exactly once, in order.
        #[test]
        fn flush_drain_preserves_order(
            depth in 1usize..5,
            ops in prop::collection::vec(0i32..256, 1..120),
        ) {
            let mut sink = DiagSink::new(&cfg(DiagMode::Async, depth), 0.1);
            let mut model = Vec::new();
            let mut step = 0u64;
            for op in ops {
                // ~1 in 4 ops is a flush barrier, the rest publish.
                if op < 64 {
                    sink.flush();
                    prop_assert_eq!(sink.stats().consumed, model.len() as u64);
                } else {
                    let v = op as f64;
                    sink.publish(snap(step, v));
                    model.push(v);
                    step += 1;
                }
            }
            let (engine, stats) = sink.finish();
            prop_assert_eq!(stats.published, model.len() as u64);
            prop_assert_eq!(stats.consumed, model.len() as u64);
            prop_assert_eq!(stats.dropped, 0);
            let engine = engine.unwrap();
            prop_assert_eq!(engine.samples(), &model[..]);
        }
    }
}
