//! Fault-tolerant LPI campaigns: an [`LpiRun`] on `vpic-parallel`'s one
//! campaign ladder (log → Marder burst → rollback → degrade) as a one-rank
//! world, so seeded [`FaultPlan`] kills surface as the typed `CommError`
//! faults the multi-rank runtime handles. What is LPI-specific lives here:
//! the run's [`CampaignSim`] impl — the serial dump (rank 0 of a 1-rank
//! world) plus a sidecar with the reflectivity probe and backscatter
//! series, the diagnostics pipeline flushed at every dump and re-seeded
//! at every restore — and the end-state report. Rollback restores the full
//! observable state, so a recovered campaign finishes **bit-identically**
//! with a fault-free run of the same deck.
//!
//! Gauss-law monitoring and Marder E-cleaning are forced off when the run
//! uses the immobile neutralizing ion background (the default): `rho` then
//! holds electron charge only, so `∇·E − ρ/ε0` is biased by the missing
//! ion term and "cleaning" it would actively corrupt the fields.

use std::ops::{Deref, DerefMut};
use std::path::PathBuf;

use nanompi::{run_with_faults, Comm, CommError, FaultPlan};
use vpic_core::checkpoint::{
    load, read_section_encoded, save, state_hash, write_section_encoded, CheckpointError,
    PayloadReader, PayloadWriter,
};
use vpic_core::crc32::fingerprint32;
use vpic_core::field::FieldArray;
use vpic_core::grid::Grid;
use vpic_core::sentinel::{HealthSample, SentinelConfig};
use vpic_core::sim::Simulation;
use vpic_diag::{DiagEngine, DiagStats, ReflectivityProbe, TimeSeries};
use vpic_parallel::campaign::{
    run_campaign_from, CampaignConfig, CampaignEnd, CampaignError, CampaignOutcome, CampaignSim,
    Start,
};

use crate::setup::{LpiParams, LpiRun};

/// [`CampaignEnd`] under the name the LPI API has always used.
pub type LpiCampaignEnd = CampaignEnd;

/// Campaign knobs for an LPI run: the shared [`CampaignConfig`] (reached
/// through `Deref`; the sentinel armed at a 10-step cadence with particle
/// drift unmonitored — the sponge walls absorb particles) plus the seeded
/// process faults of its one-rank world.
#[derive(Clone, Debug)]
pub struct LpiCampaignConfig {
    pub campaign: CampaignConfig,
    /// Seeded process-fault injection (kills), if any.
    pub fault_plan: Option<FaultPlan>,
}

impl LpiCampaignConfig {
    pub fn new(steps: u64, checkpoint_interval: u64, dir: impl Into<PathBuf>) -> Self {
        let mut campaign = CampaignConfig::new(steps, checkpoint_interval, dir);
        campaign.sentinel = SentinelConfig::enabled();
        LpiCampaignConfig {
            campaign,
            fault_plan: None,
        }
    }
}

impl Deref for LpiCampaignConfig {
    type Target = CampaignConfig;
    fn deref(&self) -> &CampaignConfig {
        &self.campaign
    }
}

impl DerefMut for LpiCampaignConfig {
    fn deref_mut(&mut self) -> &mut CampaignConfig {
        &mut self.campaign
    }
}

/// A finished (or degraded, or halted) LPI campaign: the shared outcome
/// (reached through `Deref`) plus the end state's physics.
#[derive(Debug)]
pub struct LpiCampaignOutcome {
    pub campaign: CampaignOutcome,
    /// Measured reflectivity at the end state.
    pub reflectivity: f64,
    /// Total energy at the end state.
    pub energy: f64,
    pub n_particles: u64,
    /// Avalanche fingerprint of the end state's dump bytes, for
    /// bit-identity checks (not a plain CRC-32, which the dump's embedded
    /// section CRCs would blind: see `vpic_core::crc32::fingerprint32`).
    pub state_fingerprint: u32,
    /// [`state_hash`] of the end state: the fields and particles alone,
    /// which no change of dump format moves.
    pub state_hash: u32,
    /// Diagnostics-pipeline counters (published/consumed/dropped snapshots,
    /// max queue depth, publisher stall time). All-zero when `diag = off`.
    pub diag: DiagStats,
    /// The diagnostics engine drained from the pipeline at shutdown, when
    /// the campaign ran with `diag = sync|async`. Carries the backscatter
    /// spectrum/spectrogram state so callers can write final artifacts.
    pub diag_engine: Option<Box<DiagEngine>>,
}

impl Deref for LpiCampaignOutcome {
    type Target = CampaignOutcome;
    fn deref(&self) -> &CampaignOutcome {
        &self.campaign
    }
}

/// Build the run described by `params` and drive it to `cfg.steps` under
/// the sentinel with checkpoint/rollback recovery. The run is constructed
/// inside the campaign world so seeded faults cover setup too.
pub fn run_lpi_campaign(
    params: LpiParams,
    cfg: &LpiCampaignConfig,
) -> Result<LpiCampaignOutcome, CampaignError> {
    run_lpi_campaign_with(params, cfg, false, &|_| true)
}

/// [`run_lpi_campaign`] with process-crash recovery hooks for external
/// orchestrators (the sweep service):
///
/// * `resume` — before stepping, restore the newest loadable
///   checkpoint + diagnostic sidecar pair from `cfg.checkpoint_dir`
///   ([`Start::Resume`]). Restored state is certified (health-checked
///   before it was written), so a killed-and-restarted campaign replays
///   only steps past its last checkpoint and finishes **bit-identically**
///   with an uninterrupted run. With nothing usable on disk the campaign
///   starts from step 0.
/// * `on_checkpoint(step)` — called after each checkpoint generation is
///   durably on disk (sidecar first, dump rename last). Returning `false`
///   stops the campaign with [`CampaignEnd::Halted`]; orchestrators use
///   this to certify progress and to model mid-campaign kills.
pub fn run_lpi_campaign_with(
    params: LpiParams,
    cfg: &LpiCampaignConfig,
    resume: bool,
    on_checkpoint: &(dyn Fn(u64) -> bool + Sync),
) -> Result<LpiCampaignOutcome, CampaignError> {
    let (mut results, _traffic) = run_with_faults(1, cfg.fault_plan.clone(), |comm| {
        let mut run = LpiRun::new(params);
        let mut campaign = cfg.campaign.clone();
        if run.ions.is_none() {
            // Implicit neutralizing background: rho is electrons-only, so
            // the Gauss residual is physically meaningless here (see the
            // module docs).
            campaign.sentinel.max_div_e_rms = 0.0;
        }
        // Progress artifacts land next to the checkpoints they describe.
        run.diag_set_out_dir(campaign.checkpoint_dir.clone());
        let start = if resume { Start::Resume } else { Start::Fresh };
        let (run, outcome) = run_campaign_from(comm, run, &campaign, start, on_checkpoint)?;
        finish(run, outcome)
    });
    let result = results.pop().expect("a one-rank world returns one result");
    result.unwrap_or_else(|p| Err(CampaignError::Launch(format!("panicked: {}", p.message))))
}

fn finish(mut run: LpiRun, campaign: CampaignOutcome) -> Result<LpiCampaignOutcome, CampaignError> {
    let mut bytes = Vec::new();
    save(&run.sim, &mut bytes).map_err(CampaignError::Checkpoint)?;
    let (diag_engine, diag) = run.diag_finish();
    Ok(LpiCampaignOutcome {
        campaign,
        reflectivity: run.reflectivity(),
        energy: run.sim.energies().total(),
        n_particles: run.sim.n_particles() as u64,
        state_fingerprint: fingerprint32(&bytes),
        state_hash: state_hash(&run.sim.fields, &run.sim.species),
        diag,
        diag_engine,
    })
}

/// The diagnostic state a dump does not carry, as decoded from its
/// sidecar (the second half of [`LpiRun`]'s checkpoint snapshot).
pub struct SidecarState {
    probe: ReflectivityProbe,
    series: TimeSeries,
}

/// Magic for the diagnostic sidecar written next to each dump: the
/// observable state a dump does not carry (reflectivity probe and
/// backscatter series), one section in the dump's encoded framing.
const DIAG_MAGIC: &[u8; 8] = b"VPICDIA2";

fn encode_sidecar(run: &LpiRun) -> Vec<u8> {
    let series = &run.backscatter_series;
    let (incident, reflected, samples) = run.probe.raw_state();
    let mut p = PayloadWriter::default();
    p.u64(run.sim.step_count);
    p.u64(run.probe.plane as u64);
    p.f64(incident);
    p.f64(reflected);
    p.u64(samples);
    p.f64(series.dt);
    // Windowed-retention state: the cap travels with the dump so a resumed
    // campaign keeps the same retention policy, and `discarded` keeps
    // `total_pushed()` (and the progress artifact's sample accounting)
    // exact across restore.
    p.u64(series.cap as u64);
    p.u64(series.discarded);
    p.u64(series.name.len() as u64);
    p.bytes(series.name.as_bytes());
    p.u64(series.samples.len() as u64);
    for &v in &series.samples {
        p.f64(v);
    }
    let mut out = Vec::new();
    out.extend_from_slice(DIAG_MAGIC);
    write_section_encoded(&mut out, &p.finish(), false).expect("vec write is infallible");
    out
}

fn decode_sidecar(bytes: &[u8]) -> Result<(u64, SidecarState), CheckpointError> {
    let (magic, mut r) = bytes.split_at(DIAG_MAGIC.len().min(bytes.len()));
    if magic != DIAG_MAGIC {
        return Err(CheckpointError::Malformed(format!(
            "bad diag sidecar magic {magic:02x?}"
        )));
    }
    let payload = read_section_encoded(&mut r, "diag")?;
    let mut p = PayloadReader::new(&payload, "diag");
    let step = p.u64()?;
    let plane = p.u64()? as usize;
    let incident = p.f64()?;
    let reflected = p.f64()?;
    let samples = p.u64()?;
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
        },
    ))
}

/// The serial run as the campaign ladder's one rank: no collectives, the
/// serial dump, and the diagnostics pipeline drained at every dump and
/// re-seeded at every restore.
impl CampaignSim for LpiRun {
    type Snapshot = (Simulation, SidecarState);

    fn step_count(&self) -> u64 {
        self.sim.step_count
    }

    fn advance(&mut self, _: &mut Comm) -> Result<(), CommError> {
        self.step();
        Ok(())
    }

    fn fields(&mut self) -> (&mut FieldArray, &Grid) {
        (&mut self.sim.fields, &self.sim.grid)
    }

    fn local_health(
        &mut self,
        _: &mut Comm,
        cfg: &SentinelConfig,
    ) -> Result<HealthSample, CommError> {
        Ok(self.sim.health_sample(cfg))
    }

    fn marder_burst(
        &mut self,
        _: &mut Comm,
        passes_e: u32,
        passes_b: u32,
    ) -> Result<(), CommError> {
        self.sim.marder_burst(passes_e, passes_b);
        Ok(())
    }

    fn baseline(&self, _: &mut Comm) -> Result<(f64, f64), CommError> {
        Ok((self.sim.energies().total(), self.sim.n_particles() as f64))
    }

    /// The serial dump, cut behind a flush barrier: every snapshot published
    /// so far is consumed first, so a rollback that replays steps past
    /// this point can re-seed the pipeline without double-counting
    /// samples already folded into artifacts.
    fn dump(&mut self, _compress: bool) -> Result<Vec<u8>, CheckpointError> {
        self.diag_flush();
        let mut buf = Vec::new();
        save(&self.sim, &mut buf)?;
        Ok(buf)
    }

    fn sidecar(&self) -> Option<Vec<u8>> {
        Some(encode_sidecar(self))
    }

    fn load(
        &self,
        mut dump: &[u8],
        sidecar: Option<&[u8]>,
    ) -> Result<Self::Snapshot, CheckpointError> {
        let sidecar =
            sidecar.ok_or_else(|| CheckpointError::Malformed("diag sidecar missing".into()))?;
        let (side_step, diag) = decode_sidecar(sidecar)?;
        let sim = load(&mut dump, self.params.pipelines)?;
        if side_step != sim.step_count {
            return Err(CheckpointError::Malformed(format!(
                "sidecar step {side_step} != dump step {}",
                sim.step_count
            )));
        }
        Ok((sim, diag))
    }

    fn restore(&mut self, (mut sim, diag): Self::Snapshot) {
        // Drain in-flight snapshots from the abandoned timeline, then
        // re-seed the engine from the restored state: the replayed steps
        // republish their snapshots deterministically.
        self.diag_flush();
        // The dump carries fields/particles/step/lost count/config; the
        // sponge and diagnostics live outside it.
        sim.sponge = self.sim.sponge;
        self.sim = sim;
        self.probe = diag.probe;
        self.backscatter_series = diag.series;
        self.diag_reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use vpic_core::sentinel::{CorruptionEvent, CorruptionMode, CorruptionPlan};

    /// A fresh scratch directory, scoped by process id so concurrent test
    /// runs on one host do not share it.
    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

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
        let dir = temp_dir("lpi_campaign_clean");
        let out = run_lpi_campaign(small_params(), &test_cfg(&dir, 60)).unwrap();
        assert!(matches!(out.end, LpiCampaignEnd::Completed));
        assert_eq!(out.steps_run, 60);
        assert!(out.recoveries.is_empty());
        assert!(out.n_particles > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_campaign_recovers_bit_identically() {
        let dir = temp_dir("lpi_campaign_kill");
        let clean = run_lpi_campaign(small_params(), &test_cfg(&dir, 60)).unwrap();

        let dir2 = temp_dir("lpi_campaign_kill2");
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
        let dir = temp_dir("lpi_campaign_nan");
        let clean = run_lpi_campaign(small_params(), &test_cfg(&dir, 60)).unwrap();

        let dir2 = temp_dir("lpi_campaign_nan2");
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
        let dir = temp_dir("lpi_campaign_halt_ref");
        let clean = run_lpi_campaign(small_params(), &test_cfg(&dir, 60)).unwrap();

        let dir2 = temp_dir("lpi_campaign_halt");
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
        let dir = temp_dir("lpi_campaign_degrade");
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
