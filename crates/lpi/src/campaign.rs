//! Serial fault-tolerant campaign runtime for LPI runs: drives an
//! [`LpiRun`] under the numerical-integrity sentinel with v2 restart
//! dumps and the same log → Marder-burst → rollback → degrade escalation
//! ladder as the distributed campaign runtime in `vpic-parallel`. The run
//! executes on a one-rank nanompi world so seeded [`FaultPlan`] kills
//! surface as the same typed [`CommError`] faults the multi-rank runtime
//! handles, and seeded [`CorruptionPlan`] events model transient memory
//! upsets the sentinel must catch.
//!
//! Rollback restores the full observable state — fields, particles,
//! reflectivity probe, backscatter series — so a recovered campaign
//! finishes **bit-identically** with a fault-free run of the same deck
//! (corruption events are one-shot: the replay of a rolled-back step is
//! clean). When the recovery budget is exhausted the campaign degrades
//! gracefully: a partial v2 dump plus the flight recorder's last N health
//! samples as JSON.
//!
//! Gauss-law monitoring and Marder E-cleaning are forced off when the run
//! uses the immobile neutralizing ion background (the default): `rho` then
//! holds electron charge only, so `∇·E − ρ/ε0` is biased by the missing
//! ion term and "cleaning" it would actively corrupt the fields.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};

use nanompi::{run_with_faults, Comm, CommError, FaultPlan};
use vpic_core::checkpoint::{
    load_with_layout, read_section, save, write_bytes_atomic, write_section, CheckpointError,
    PayloadReader, PayloadWriter,
};
use vpic_core::crc32::fingerprint32;
use vpic_core::sentinel::{
    validate_cfl, CorruptionPlan, HealEvent, HealthVerdict, Sentinel, SentinelConfig,
};
use vpic_diag::{DiagEngine, DiagStats, ReflectivityProbe, TimeSeries};

use crate::setup::{LpiParams, LpiRun};

/// Campaign runtime knobs for a serial LPI run.
#[derive(Clone, Debug)]
pub struct LpiCampaignConfig {
    /// Total steps to drive.
    pub steps: u64,
    /// Checkpoint cadence in steps (0 disables checkpoints — any fault
    /// then degrades immediately).
    pub checkpoint_interval: u64,
    /// Where dumps, partial dumps and the flight recorder land.
    pub checkpoint_dir: PathBuf,
    /// Checkpoint generations kept (older ones are dropped).
    pub keep_checkpoints: usize,
    /// Recovery budget before degrading.
    pub max_recoveries: u32,
    /// Sentinel thresholds and cadence.
    pub sentinel: SentinelConfig,
    /// Seeded transient field corruption, if any.
    pub corruption: Option<CorruptionPlan>,
    /// Seeded process-fault injection (kills), if any.
    pub fault_plan: Option<FaultPlan>,
}

impl LpiCampaignConfig {
    pub fn new(steps: u64, checkpoint_interval: u64, dir: impl Into<PathBuf>) -> Self {
        LpiCampaignConfig {
            steps,
            checkpoint_interval,
            checkpoint_dir: dir.into(),
            keep_checkpoints: 2,
            max_recoveries: 3,
            sentinel: SentinelConfig::enabled(),
            corruption: None,
            fault_plan: None,
        }
    }
}

/// How the campaign ended.
#[derive(Clone, Debug)]
pub enum LpiCampaignEnd {
    /// Reached `steps`.
    Completed,
    /// Recovery budget exhausted: best-effort partial dump + flight
    /// recorder JSON written.
    Degraded {
        at_step: u64,
        partial_dump: PathBuf,
        flight_recorder: PathBuf,
    },
    /// The checkpoint hook asked the campaign to stop after certifying
    /// the checkpoint at `at_step` (state on disk is resumable from
    /// exactly that step).
    Halted { at_step: u64 },
}

/// One recovery episode.
#[derive(Clone, Debug)]
pub struct LpiRecovery {
    pub at_step: u64,
    pub cause: String,
    pub restored_step: u64,
}

/// Everything a finished (or degraded) campaign reports.
#[derive(Clone, Debug)]
pub struct LpiCampaignOutcome {
    pub end: LpiCampaignEnd,
    /// Steps executed by **this invocation** (a resumed campaign counts
    /// only the steps it drove, not the restored prefix).
    pub steps_run: u64,
    /// Step the campaign was restored from when it resumed off disk.
    pub resumed_from: Option<u64>,
    pub recoveries: Vec<LpiRecovery>,
    pub heals: Vec<HealEvent>,
    /// Measured reflectivity at the end state.
    pub reflectivity: f64,
    /// Total energy at the end state.
    pub energy: f64,
    pub n_particles: u64,
    /// Avalanche fingerprint of the end state's v2 dump bytes: a
    /// content-sensitive digest for bit-identity checks across
    /// faulted/unfaulted runs. Deliberately NOT a plain CRC-32 — the
    /// dump embeds per-section CRCs, whose residue property makes a
    /// whole-file CRC depend on section lengths only (see
    /// `vpic_core::crc32::fingerprint32`).
    pub state_fingerprint: u32,
    /// Diagnostics-pipeline counters (published/consumed/dropped snapshots,
    /// max queue depth, publisher stall time). All-zero when `diag = off`.
    pub diag: DiagStats,
    /// The diagnostics engine drained from the pipeline at shutdown, when
    /// the campaign ran with `diag = sync|async`. Carries the backscatter
    /// spectrum/spectrogram state so callers can write final artifacts.
    pub diag_engine: Option<Box<DiagEngine>>,
}

/// Campaign failure (distinct from a degraded-but-finished run).
#[derive(Debug)]
pub enum LpiCampaignError {
    /// The deck violates a setup invariant (CFL).
    Config(HealthVerdict),
    Io(std::io::Error),
    Checkpoint(CheckpointError),
    Comm(CommError),
    /// The campaign thread panicked.
    Panic(String),
    /// The campaign world returned no rank result (a nanompi invariant
    /// violation — one rank in, one result out).
    NoRankResult,
}

impl std::fmt::Display for LpiCampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpiCampaignError::Config(v) => write!(f, "invalid setup: {v}"),
            LpiCampaignError::Io(e) => write!(f, "io: {e}"),
            LpiCampaignError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            LpiCampaignError::Comm(e) => write!(f, "comm: {e}"),
            LpiCampaignError::Panic(m) => write!(f, "campaign thread panicked: {m}"),
            LpiCampaignError::NoRankResult => {
                write!(f, "campaign world returned no rank result")
            }
        }
    }
}

impl std::error::Error for LpiCampaignError {}

impl From<std::io::Error> for LpiCampaignError {
    fn from(e: std::io::Error) -> Self {
        LpiCampaignError::Io(e)
    }
}

impl From<CheckpointError> for LpiCampaignError {
    fn from(e: CheckpointError) -> Self {
        LpiCampaignError::Checkpoint(e)
    }
}

/// The diagnostic state a v2 dump does not carry, snapshotted alongside
/// each checkpoint generation so rollback restores the full observable
/// state (in memory: the process survives serial faults).
#[derive(Clone)]
struct SidecarState {
    probe: ReflectivityProbe,
    series: TimeSeries,
    lost: u64,
}

struct Generation {
    step: u64,
    bytes: Vec<u8>,
    diag: SidecarState,
}

/// Build the run described by `params` and drive it to `cfg.steps` under
/// the sentinel with checkpoint/rollback recovery. The run is constructed
/// inside the campaign world so seeded faults cover setup too.
pub fn run_lpi_campaign(
    params: LpiParams,
    cfg: &LpiCampaignConfig,
) -> Result<LpiCampaignOutcome, LpiCampaignError> {
    run_lpi_campaign_with(params, cfg, false, &|_| true)
}

/// [`run_lpi_campaign`] with process-crash recovery hooks for external
/// orchestrators (the sweep service):
///
/// * `resume` — before stepping, restore the newest loadable
///   checkpoint + diagnostic sidecar pair from `cfg.checkpoint_dir`.
///   Restored state is certified (health-checked before it was written),
///   so a killed-and-restarted campaign replays only steps past its last
///   checkpoint and finishes **bit-identically** with an uninterrupted
///   run. With nothing usable on disk the campaign starts from step 0.
/// * `on_checkpoint(step)` — called after each checkpoint generation is
///   durably on disk (sidecar first, dump rename last). Returning `false`
///   stops the campaign with [`LpiCampaignEnd::Halted`]; orchestrators
///   use this to certify progress and to model mid-campaign kills.
pub fn run_lpi_campaign_with(
    params: LpiParams,
    cfg: &LpiCampaignConfig,
    resume: bool,
    on_checkpoint: &(dyn Fn(u64) -> bool + Sync),
) -> Result<LpiCampaignOutcome, LpiCampaignError> {
    let (mut results, _traffic) = run_with_faults(1, cfg.fault_plan.clone(), |comm| {
        let run = LpiRun::new(params);
        drive(run, comm, cfg, resume, on_checkpoint)
    });
    match results.pop() {
        Some(Ok(r)) => r,
        Some(Err(p)) => Err(LpiCampaignError::Panic(p.message)),
        None => Err(LpiCampaignError::NoRankResult),
    }
}

fn snapshot(run: &LpiRun) -> SidecarState {
    SidecarState {
        probe: run.probe.clone(),
        series: run.backscatter_series.clone(),
        lost: run.sim.lost_particles,
    }
}

fn dump_bytes(run: &LpiRun) -> Result<Vec<u8>, CheckpointError> {
    let mut buf = Vec::new();
    save(&run.sim, &mut buf)?;
    Ok(buf)
}

fn checkpoint_path(dir: &Path, step: u64) -> PathBuf {
    dir.join(format!("ckpt_{step:08}.vpic"))
}

fn sidecar_path(dir: &Path, step: u64) -> PathBuf {
    dir.join(format!("ckpt_{step:08}.diag"))
}

/// Magic for the diagnostic sidecar written next to each v2 dump: the
/// observable state a dump does not carry (reflectivity probe, backscatter
/// series, lost-particle count), CRC-framed like every other artifact.
const DIAG_MAGIC: &[u8; 8] = b"VPICDIA1";

fn encode_sidecar(step: u64, diag: &SidecarState) -> Vec<u8> {
    let (incident, reflected, samples) = diag.probe.raw_state();
    let mut p = PayloadWriter::new();
    p.u64(step);
    p.u64(diag.probe.plane as u64);
    p.f64(incident);
    p.f64(reflected);
    p.u64(samples);
    p.u64(diag.lost);
    p.f64(diag.series.dt);
    // Windowed-retention state: the cap travels with the dump so a resumed
    // campaign keeps the same retention policy, and `discarded` keeps
    // `total_pushed()` (and the progress artifact's sample accounting)
    // exact across restore.
    p.u64(diag.series.cap as u64);
    p.u64(diag.series.discarded);
    p.u64(diag.series.name.len() as u64);
    p.bytes(diag.series.name.as_bytes());
    p.u64(diag.series.samples.len() as u64);
    for &v in &diag.series.samples {
        p.f64(v);
    }
    let mut out = Vec::new();
    out.extend_from_slice(DIAG_MAGIC);
    write_section(&mut out, &p.finish()).expect("vec write is infallible");
    out
}

fn decode_sidecar(bytes: &[u8]) -> Result<(u64, SidecarState), CheckpointError> {
    let mut r = bytes;
    let mut magic = [0u8; 8];
    std::io::Read::read_exact(&mut r, &mut magic).map_err(CheckpointError::Io)?;
    if &magic != DIAG_MAGIC {
        return Err(CheckpointError::Malformed(format!(
            "bad diag sidecar magic {magic:02x?}"
        )));
    }
    let payload = read_section(&mut r, "diag")?;
    let mut p = PayloadReader::new(&payload, "diag");
    let step = p.u64()?;
    let plane = p.u64()? as usize;
    let incident = p.f64()?;
    let reflected = p.f64()?;
    let samples = p.u64()?;
    let lost = p.u64()?;
    let dt = p.f64()?;
    let cap = p.u64()? as usize;
    let discarded = p.u64()?;
    let name_len = p.u64()? as usize;
    let name = String::from_utf8(p.bytes(name_len)?.to_vec())
        .map_err(|_| CheckpointError::Malformed("diag series name not UTF-8".into()))?;
    let n = p.u64()? as usize;
    let mut series = TimeSeries::new(&name, dt).with_cap(cap);
    series.discarded = discarded;
    series.samples.reserve(n);
    for _ in 0..n {
        series.samples.push(p.f64()?);
    }
    p.done()?;
    Ok((
        step,
        SidecarState {
            probe: ReflectivityProbe::from_raw(plane, incident, reflected, samples),
            series,
            lost,
        },
    ))
}

/// Scan `cfg.checkpoint_dir` for the newest `(dump, sidecar)` pair whose
/// steps agree and whose frames verify; restore it into `run`. Unusable
/// generations are logged and skipped, oldest-last. Returns the restored
/// step, or `None` when nothing on disk is usable (fresh start).
fn restore_newest(
    run: &mut LpiRun,
    sponge: Option<vpic_core::sponge::Sponge>,
    cfg: &LpiCampaignConfig,
) -> Option<u64> {
    let mut steps: Vec<u64> = std::fs::read_dir(&cfg.checkpoint_dir)
        .ok()?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let digits = name.strip_prefix("ckpt_")?.strip_suffix(".vpic")?;
            digits.parse::<u64>().ok()
        })
        .collect();
    steps.sort_unstable();
    for step in steps.into_iter().rev() {
        let restored = (|| -> Result<u64, String> {
            let bytes = std::fs::read(checkpoint_path(&cfg.checkpoint_dir, step))
                .map_err(|e| format!("dump unreadable: {e}"))?;
            let raw = std::fs::read(sidecar_path(&cfg.checkpoint_dir, step))
                .map_err(|e| format!("sidecar unreadable: {e}"))?;
            let (side_step, diag) =
                decode_sidecar(&raw).map_err(|e| format!("sidecar corrupt: {e}"))?;
            if side_step != step {
                return Err(format!("sidecar step {side_step} != dump step {step}"));
            }
            let mut sim = load_with_layout(
                &mut bytes.as_slice(),
                run.params.pipelines,
                run.params.layout,
            )
            .map_err(|e| format!("dump corrupt: {e}"))?;
            sim.sponge = sponge;
            sim.lost_particles = diag.lost;
            run.sim = sim;
            run.probe = diag.probe;
            run.backscatter_series = diag.series;
            Ok(step)
        })();
        match restored {
            Ok(step) => {
                log_line(cfg, &format!("resume restored_step={step}"));
                return Some(step);
            }
            Err(why) => log_line(cfg, &format!("resume candidate step={step} skipped: {why}")),
        }
    }
    None
}

fn drive(
    mut run: LpiRun,
    comm: &mut Comm,
    cfg: &LpiCampaignConfig,
    resume: bool,
    on_checkpoint: &(dyn Fn(u64) -> bool + Sync),
) -> Result<LpiCampaignOutcome, LpiCampaignError> {
    std::fs::create_dir_all(&cfg.checkpoint_dir)?;
    if let Err(v) = validate_cfl(&run.sim.grid) {
        return Err(LpiCampaignError::Config(v));
    }
    let sponge = run.sim.sponge;
    // Progress artifacts land next to the checkpoints they describe.
    run.diag_set_out_dir(cfg.checkpoint_dir.clone());
    let resumed_from = if resume {
        let restored = restore_newest(&mut run, sponge, cfg);
        if restored.is_some() {
            // The engine (sync or async) must restart from the restored
            // probe/series, not keep state from before the resume.
            run.diag_reset();
        }
        restored
    } else {
        None
    };
    let mut scfg = cfg.sentinel;
    if run.ions.is_none() {
        // Implicit neutralizing background: rho is electrons-only, so the
        // Gauss residual is physically meaningless here (see module docs).
        scfg.max_div_e_rms = 0.0;
    }
    let mut sentinel = Sentinel::new(scfg);
    sentinel.arm(&run.sim);
    let mut corruption = cfg.corruption.clone();
    let mut recoveries: Vec<LpiRecovery> = Vec::new();
    let mut generations: VecDeque<Generation> = VecDeque::new();
    let mut steps_run: u64 = 0;

    loop {
        let step = run.sim.step_count;
        if step >= cfg.steps {
            return finish(
                run,
                sentinel,
                recoveries,
                steps_run,
                resumed_from,
                LpiCampaignEnd::Completed,
            );
        }
        let fault: Option<String> = (|| {
            if let Err(e) = comm.tick(step) {
                return Some(e.to_string());
            }
            if let Some(plan) = corruption.as_mut() {
                let hits = plan.apply(step, comm.rank(), &mut run.sim.fields, &run.sim.grid);
                if hits > 0 {
                    log_line(cfg, &format!("step={step} injected_corruption={hits}"));
                }
            }
            // Health before checkpoint: every generation on disk is
            // certified clean, so rollback always restores healthy state.
            if sentinel.due(step) {
                if let Some(v) = sentinel.check(&mut run.sim) {
                    return Some(format!("health: {v}"));
                }
            }
            None
        })();

        if let Some(cause) = fault {
            let attempt = recoveries.len() as u32 + 1;
            if attempt > cfg.max_recoveries {
                return degrade(
                    run,
                    sentinel,
                    recoveries,
                    steps_run,
                    resumed_from,
                    step,
                    &cause,
                    cfg,
                );
            }
            if let Err(e) = comm.recover() {
                log_line(cfg, &format!("step={step} recover_failed=\"{e}\""));
                return degrade(
                    run,
                    sentinel,
                    recoveries,
                    steps_run,
                    resumed_from,
                    step,
                    &cause,
                    cfg,
                );
            }
            match rollback(&mut run, &generations, sponge, cfg) {
                Some(restored_step) => {
                    log_line(
                        cfg,
                        &format!(
                            "step={step} attempt={attempt} cause=\"{cause}\" \
                             restored_step={restored_step}"
                        ),
                    );
                    recoveries.push(LpiRecovery {
                        at_step: step,
                        cause,
                        restored_step,
                    });
                    continue;
                }
                None => {
                    return degrade(
                        run,
                        sentinel,
                        recoveries,
                        steps_run,
                        resumed_from,
                        step,
                        &cause,
                        cfg,
                    )
                }
            }
        }

        if cfg.checkpoint_interval > 0 && step.is_multiple_of(cfg.checkpoint_interval) {
            // Flush barrier: every snapshot published so far is consumed
            // before the checkpoint is cut, so a rollback that replays
            // steps past this point can re-seed the pipeline without
            // double-counting samples already folded into artifacts.
            run.diag_flush();
            let bytes = dump_bytes(&run)?;
            let diag = snapshot(&run);
            // Sidecar first, dump rename last: a visible `.vpic` file
            // implies its diagnostic sidecar is already durable, so a
            // crash between the two writes never strands a dump that
            // cannot be resumed.
            write_bytes_atomic(
                &sidecar_path(&cfg.checkpoint_dir, step),
                &encode_sidecar(step, &diag),
                None,
            )?;
            write_bytes_atomic(&checkpoint_path(&cfg.checkpoint_dir, step), &bytes, None)?;
            generations.push_back(Generation { step, bytes, diag });
            while generations.len() > cfg.keep_checkpoints.max(1) {
                if let Some(old) = generations.pop_front() {
                    let _ = std::fs::remove_file(checkpoint_path(&cfg.checkpoint_dir, old.step));
                    let _ = std::fs::remove_file(sidecar_path(&cfg.checkpoint_dir, old.step));
                }
            }
            if !on_checkpoint(step) {
                return finish(
                    run,
                    sentinel,
                    recoveries,
                    steps_run,
                    resumed_from,
                    LpiCampaignEnd::Halted { at_step: step },
                );
            }
        }

        run.step();
        steps_run += 1;
    }
}

/// Restore the newest generation that still loads (CRC failures
/// disqualify, loudly falling back to the previous one). Returns the
/// restored step, or `None` when nothing on record is usable.
fn rollback(
    run: &mut LpiRun,
    generations: &VecDeque<Generation>,
    sponge: Option<vpic_core::sponge::Sponge>,
    cfg: &LpiCampaignConfig,
) -> Option<u64> {
    // Drain in-flight snapshots from the faulted timeline before the
    // restore, then reset the engine to the restored state below — the
    // replayed steps will republish their snapshots deterministically.
    run.diag_flush();
    for gen in generations.iter().rev() {
        match load_with_layout(
            &mut gen.bytes.as_slice(),
            run.params.pipelines,
            run.params.layout,
        ) {
            Ok(mut sim) => {
                // The v2 dump carries fields/particles/step/config; the
                // sponge and diagnostics live outside it.
                sim.sponge = sponge;
                sim.lost_particles = gen.diag.lost;
                run.sim = sim;
                run.probe = gen.diag.probe.clone();
                run.backscatter_series = gen.diag.series.clone();
                run.diag_reset();
                return Some(gen.step);
            }
            Err(e) => {
                log_line(cfg, &format!("generation {} unusable: {e}", gen.step));
            }
        }
    }
    None
}

fn finish(
    mut run: LpiRun,
    sentinel: Sentinel,
    recoveries: Vec<LpiRecovery>,
    steps_run: u64,
    resumed_from: Option<u64>,
    end: LpiCampaignEnd,
) -> Result<LpiCampaignOutcome, LpiCampaignError> {
    let bytes = dump_bytes(&run)?;
    let (diag_engine, diag) = run.diag_finish();
    Ok(LpiCampaignOutcome {
        end,
        steps_run,
        resumed_from,
        recoveries,
        heals: sentinel.heals,
        reflectivity: run.reflectivity(),
        energy: run.sim.energies().total(),
        n_particles: run.sim.n_particles() as u64,
        state_fingerprint: fingerprint32(&bytes),
        diag,
        diag_engine,
    })
}

#[allow(clippy::too_many_arguments)]
fn degrade(
    mut run: LpiRun,
    sentinel: Sentinel,
    recoveries: Vec<LpiRecovery>,
    steps_run: u64,
    resumed_from: Option<u64>,
    at_step: u64,
    cause: &str,
    cfg: &LpiCampaignConfig,
) -> Result<LpiCampaignOutcome, LpiCampaignError> {
    // Graceful degrade still honours the flush barrier: the partial dump
    // and flight recorder describe a state whose diagnostics are fully
    // consumed, not racing an async worker.
    run.diag_flush();
    let partial = cfg.checkpoint_dir.join("partial.vpic");
    if let Ok(bytes) = dump_bytes(&run) {
        let _ = std::fs::write(&partial, bytes);
    }
    let flight = cfg.checkpoint_dir.join("flight.json");
    let _ = sentinel.recorder.write_json(&flight);
    log_line(
        cfg,
        &format!("step={at_step} cause=\"{cause}\" action=degraded"),
    );
    finish(
        run,
        sentinel,
        recoveries,
        steps_run,
        resumed_from,
        LpiCampaignEnd::Degraded {
            at_step,
            partial_dump: partial,
            flight_recorder: flight,
        },
    )
}

fn log_line(cfg: &LpiCampaignConfig, line: &str) {
    use std::io::Write;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(cfg.checkpoint_dir.join("campaign.log"))
    {
        let _ = writeln!(f, "{line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpic_core::sentinel::{CorruptionEvent, CorruptionMode};

    fn small_params() -> LpiParams {
        LpiParams {
            flat: 4.0,
            ppc: 4,
            a0: 0.01,
            sponge_cells: 12,
            ..Default::default()
        }
    }

    fn test_cfg(dir: &Path, steps: u64) -> LpiCampaignConfig {
        let mut cfg = LpiCampaignConfig::new(steps, 20, dir);
        // Generous thresholds: the laser pumps energy, so the ledger must
        // leave headroom; bounds/NaN monitors stay armed.
        cfg.sentinel.health_interval = 10;
        cfg.sentinel.max_energy_growth = 100.0;
        cfg
    }

    #[test]
    fn clean_campaign_completes() {
        let dir = std::env::temp_dir().join("lpi_campaign_clean");
        let _ = std::fs::remove_dir_all(&dir);
        let out = run_lpi_campaign(small_params(), &test_cfg(&dir, 60)).unwrap();
        assert!(matches!(out.end, LpiCampaignEnd::Completed));
        assert_eq!(out.steps_run, 60);
        assert!(out.recoveries.is_empty());
        assert!(out.n_particles > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_campaign_recovers_bit_identically() {
        let dir = std::env::temp_dir().join("lpi_campaign_kill");
        let _ = std::fs::remove_dir_all(&dir);
        let clean = run_lpi_campaign(small_params(), &test_cfg(&dir, 60)).unwrap();

        let dir2 = std::env::temp_dir().join("lpi_campaign_kill2");
        let _ = std::fs::remove_dir_all(&dir2);
        let mut cfg = test_cfg(&dir2, 60);
        cfg.fault_plan = Some(FaultPlan::new(7).kill(0, 35));
        let faulted = run_lpi_campaign(small_params(), &cfg).unwrap();
        assert!(matches!(faulted.end, LpiCampaignEnd::Completed));
        assert_eq!(faulted.recoveries.len(), 1);
        assert_eq!(faulted.recoveries[0].restored_step, 20);
        // Rollback replay converges to the same bits as the clean run.
        assert_eq!(faulted.state_fingerprint, clean.state_fingerprint);
        assert_eq!(faulted.energy.to_bits(), clean.energy.to_bits());
        assert_eq!(faulted.reflectivity.to_bits(), clean.reflectivity.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn nan_corruption_rolls_back_and_completes_bit_identically() {
        let dir = std::env::temp_dir().join("lpi_campaign_nan");
        let _ = std::fs::remove_dir_all(&dir);
        let clean = run_lpi_campaign(small_params(), &test_cfg(&dir, 60)).unwrap();

        let dir2 = std::env::temp_dir().join("lpi_campaign_nan2");
        let _ = std::fs::remove_dir_all(&dir2);
        let mut cfg = test_cfg(&dir2, 60);
        cfg.corruption = Some(CorruptionPlan::new(42).with_event(CorruptionEvent {
            step: 33,
            rank: None,
            mode: CorruptionMode::Nan,
            count: 5,
        }));
        let faulted = run_lpi_campaign(small_params(), &cfg).unwrap();
        assert!(matches!(faulted.end, LpiCampaignEnd::Completed));
        // Detection within one health interval of the step-33 injection.
        assert_eq!(faulted.recoveries.len(), 1, "{:?}", faulted.recoveries);
        assert!(faulted.recoveries[0].at_step <= 33 + 10);
        assert_eq!(faulted.state_fingerprint, clean.state_fingerprint);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn halted_campaign_resumes_bit_identically() {
        let dir = std::env::temp_dir().join("lpi_campaign_halt_ref");
        let _ = std::fs::remove_dir_all(&dir);
        let clean = run_lpi_campaign(small_params(), &test_cfg(&dir, 60)).unwrap();

        let dir2 = std::env::temp_dir().join("lpi_campaign_halt");
        let _ = std::fs::remove_dir_all(&dir2);
        let cfg = test_cfg(&dir2, 60);
        // Model a crash: stop dead once the step-40 checkpoint is durable.
        let halted = run_lpi_campaign_with(small_params(), &cfg, false, &|step| step < 40).unwrap();
        assert!(matches!(halted.end, LpiCampaignEnd::Halted { at_step: 40 }));
        assert_eq!(halted.steps_run, 40);

        // A fresh invocation resumes from disk and finishes the campaign,
        // replaying only steps past the last certified checkpoint.
        let resumed = run_lpi_campaign_with(small_params(), &cfg, true, &|_| true).unwrap();
        assert!(matches!(resumed.end, LpiCampaignEnd::Completed));
        assert_eq!(resumed.resumed_from, Some(40));
        assert_eq!(resumed.steps_run, 20);
        assert_eq!(resumed.state_fingerprint, clean.state_fingerprint);
        assert_eq!(resumed.energy.to_bits(), clean.energy.to_bits());
        assert_eq!(resumed.reflectivity.to_bits(), clean.reflectivity.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn unrecoverable_campaign_degrades_with_flight_recorder() {
        let dir = std::env::temp_dir().join("lpi_campaign_degrade");
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = test_cfg(&dir, 60);
        cfg.max_recoveries = 0;
        cfg.corruption = Some(CorruptionPlan::new(3).with_event(CorruptionEvent {
            step: 25,
            rank: None,
            mode: CorruptionMode::Nan,
            count: 3,
        }));
        let out = run_lpi_campaign(small_params(), &cfg).unwrap();
        let LpiCampaignEnd::Degraded {
            at_step,
            partial_dump,
            flight_recorder,
        } = &out.end
        else {
            panic!("expected degradation, got {:?}", out.end)
        };
        assert!(*at_step >= 25 && *at_step <= 35);
        assert!(partial_dump.exists(), "partial dump missing");
        let json = std::fs::read_to_string(flight_recorder).unwrap();
        assert!(json.starts_with('{') && json.contains("\"samples\""));
        assert!(json.contains("nonfinite_fields"));
        assert!(json.contains("\"verdict\":{\"kind\":\"nonfinite_fields\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
