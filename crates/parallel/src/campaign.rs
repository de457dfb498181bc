//! Fault-tolerant campaign runtime: rollback-recovery over checkpoints.
//!
//! VPIC's trillion-particle Roadrunner campaigns outlived the machine's
//! mean time between interrupts the unglamorous way — periodic restart
//! dumps plus automatic resubmission. [`run_campaign_from`] is that loop,
//! the only one in the repo: it drives any [`CampaignSim`] — a
//! [`DistributedSim`] with its current drive ([`DrivenSim`]), or the
//! serial LPI run as a one-rank world — to `cfg.steps`, writing a
//! CRC-protected checkpoint generation per rank on a [`CheckpointPolicy`]
//! schedule (fixed, or the Young/Daly optimum `τ_opt = √(2·δ·MTBI)` from
//! the measured dump cost and step time, max-reduced across ranks on the
//! confirmation collective) and running the numerical-integrity sentinel
//! (`vpic_core::sentinel`) every `sentinel.health_interval` steps: every
//! rank's [`HealthSample`] summed by *one* reduction and classified
//! identically everywhere into a [`HealthVerdict`].
//!
//! The ladder: log every sample in the flight recorder; heal a repairable
//! verdict (divergence residuals) in place with Marder bursts of
//! `marder_passes << burst` passes, up to `max_marder_bursts`; otherwise —
//! or on a [`CommError`] from a dead or faulty peer — rendezvous through
//! [`Comm::recover`], validate every generation on disk by loading it,
//! agree on the newest one valid on every rank, restore it and replay;
//! past `max_recoveries`, degrade to a partial dump plus the flight
//! recorder as JSON ([`CampaignEnd::Degraded`]) instead of aborting. The
//! health gate runs *before* the checkpoint dump at the same step, so
//! every generation on disk is certified clean.
//!
//! The same restore-before-the-first-step path starts a campaign off disk
//! ([`Start`]): a respawned process taking over a dead rank's seat, or a
//! whole world relaunched after a kill. An `on_checkpoint` hook sees every
//! certified generation and may end the campaign there
//! ([`CampaignEnd::Halted`]) — how the sweep service heartbeats its jobs.
//! Every recovery lands in the [`CampaignOutcome`] and in
//! `recovery_r{rank}.log` next to the checkpoints.
//!
//! With one push pipeline per rank the replay is bit-exact: a campaign
//! that lost a rank mid-flight ends in exactly the state of an
//! uninterrupted run (asserted by `tests/recovery.rs`).

use crate::dcheckpoint::{dump_rank_bytes, load_rank};
use crate::dsim::{load_imbalance, DistributedSim};
use nanompi::{Comm, CommError};
use roadrunner_model::young_daly_interval_steps;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vpic_core::checkpoint::{write_bytes_atomic, CheckpointError};
use vpic_core::field::FieldArray;
use vpic_core::grid::Grid;
use vpic_core::sentinel::{
    burst_passes, classify, validate_cfl, AnomalyKind, CorruptionPlan, FlightRecorder, HealEvent,
    HealthSample, HealthVerdict, SentinelConfig,
};

/// How the campaign schedules restart dumps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CheckpointPolicy {
    /// Dump every `n` steps (0 disables checkpointing entirely).
    Fixed(u64),
    /// Resolve the interval at runtime from the Young/Daly optimum
    /// `τ_opt = √(2·δ·MTBI)` using the measured per-dump cost `δ` and
    /// step time, clamped to `[min_interval, max_interval]`. Until the
    /// first measurement lands the campaign dumps every `min_interval`
    /// steps.
    Auto {
        /// Assumed mean time between interrupts.
        mtbi: Duration,
        /// Never dump more often than this many steps.
        min_interval: u64,
        /// Never dump less often than this many steps.
        max_interval: u64,
    },
}

impl CheckpointPolicy {
    /// The interval (steps) this policy yields for a measured dump cost
    /// and step time, both in seconds. Deterministic: ranks that agree on
    /// the inputs agree on the interval.
    pub fn resolve(&self, checkpoint_seconds: f64, step_seconds: f64) -> u64 {
        match *self {
            CheckpointPolicy::Fixed(n) => n,
            CheckpointPolicy::Auto {
                mtbi,
                min_interval,
                max_interval,
            } => {
                let lo = min_interval.max(1);
                let hi = max_interval.max(lo);
                young_daly_interval_steps(checkpoint_seconds, mtbi.as_secs_f64(), step_seconds)
                    .clamp(lo, hi)
            }
        }
    }
}

/// Knobs for one fault-tolerant campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Run until the step count reaches this.
    pub steps: u64,
    /// Checkpoint schedule (fixed interval or Young/Daly auto).
    pub checkpoint: CheckpointPolicy,
    /// Directory for checkpoint generations, recovery logs and partial
    /// dumps (created if absent; shared by all ranks).
    pub checkpoint_dir: PathBuf,
    /// Checkpoint generations kept on disk per rank (at least one is
    /// always kept).
    pub keep_checkpoints: usize,
    /// Rollback attempts before degrading to a partial dump.
    pub max_recoveries: u32,
    /// Override the communicator's op timeout for the whole campaign.
    pub op_timeout: Option<Duration>,
    /// Allow delta+RLE compression of dump sections.
    pub compress: bool,
    /// Pace checkpoint writes to at most this many bytes/second.
    pub write_throttle_bps: Option<u64>,
    /// Sentinel cadence and thresholds (divergence monitors, energy and
    /// particle ledgers, momentum/position bounds, Marder burst budget,
    /// flight recorder depth).
    pub sentinel: SentinelConfig,
    /// Seeded one-shot field corruption to inject (transient-SEU model;
    /// `None` = no injection). Fired events stay fired across rollback, so
    /// the replay is clean.
    pub corruption: Option<CorruptionPlan>,
}

impl CampaignConfig {
    /// A campaign checkpointing every `checkpoint_interval` steps with the
    /// sentinel on every step: energy growth bounded at 10×, particles
    /// conserved exactly (a periodic world loses none).
    pub fn new(steps: u64, checkpoint_interval: u64, checkpoint_dir: impl Into<PathBuf>) -> Self {
        CampaignConfig {
            steps,
            checkpoint: CheckpointPolicy::Fixed(checkpoint_interval),
            checkpoint_dir: checkpoint_dir.into(),
            keep_checkpoints: 2,
            max_recoveries: 3,
            op_timeout: None,
            compress: true,
            write_throttle_bps: None,
            sentinel: SentinelConfig {
                health_interval: 1,
                max_particle_drift: 0.0,
                ..SentinelConfig::default()
            },
            corruption: None,
        }
    }

    pub fn with_max_recoveries(mut self, n: u32) -> Self {
        self.max_recoveries = n;
        self
    }

    pub fn with_op_timeout(mut self, t: Duration) -> Self {
        self.op_timeout = Some(t);
        self
    }

    /// Set the sentinel thresholds. A zero cadence keeps the current one,
    /// and a disabled particle-drift bound becomes exact conservation (the
    /// distributed worlds are periodic); assign `sentinel` directly to
    /// take a block verbatim.
    pub fn with_sentinel(mut self, mut s: SentinelConfig) -> Self {
        if s.health_interval == 0 {
            s.health_interval = self.sentinel.health_interval;
        }
        if s.max_particle_drift < 0.0 {
            s.max_particle_drift = 0.0;
        }
        self.sentinel = s;
        self
    }

    pub fn with_corruption(mut self, plan: CorruptionPlan) -> Self {
        self.corruption = Some(plan);
        self
    }
}

/// One recovery episode.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// Step at which the fault was detected.
    pub at_step: u64,
    /// 1-based recovery attempt number.
    pub attempt: u32,
    /// What went wrong.
    pub cause: String,
    /// Checkpoint step the world rolled back to.
    pub restored_step: u64,
    /// True when this rank's seat was taken over by a respawned process
    /// ([`Start::Rejoin`]).
    pub rejoined: bool,
}

/// How the campaign ended.
#[derive(Clone, Debug)]
pub enum CampaignEnd {
    /// All `steps` completed.
    Completed,
    /// Recovery budget exhausted (or the world could no longer agree on a
    /// checkpoint); a best-effort partial dump was written next to a JSON
    /// flight recorder holding the last N health samples and verdicts.
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

/// Result of one rank's campaign.
#[derive(Debug)]
pub struct CampaignOutcome {
    pub rank: usize,
    pub end: CampaignEnd,
    /// Sim steps executed by this invocation, including replayed ones (a
    /// resumed campaign does not count the restored prefix).
    pub steps_run: u64,
    /// Step the campaign was restored from when it resumed off disk.
    pub resumed_from: Option<u64>,
    pub recoveries: Vec<RecoveryEvent>,
    /// In-place Marder healing episodes (escalating bursts), in order.
    pub heals: Vec<HealEvent>,
    /// Largest `max/mean` particle-count imbalance observed at the health
    /// cadence (0.0 when never sampled).
    pub peak_imbalance: f64,
    /// The checkpoint interval in effect when the campaign ended (for
    /// `Fixed` this is the configured value; for `Auto` the resolved
    /// Young/Daly optimum).
    pub effective_interval: u64,
}

/// Unrecoverable campaign failure (rollback cannot fix these).
#[derive(Debug)]
pub enum CampaignError {
    /// The recovery rendezvous itself failed: a rank is permanently gone.
    Comm(CommError),
    /// A checkpoint could not be written.
    Checkpoint(CheckpointError),
    Io(io::Error),
    /// No checkpoint generation is valid on every rank.
    NoCommonCheckpoint,
    /// A world launch failed before (or instead of) producing an outcome:
    /// a rank panicked or a socket bootstrap was refused.
    Launch(String),
    /// The setup itself is invalid (e.g. a CFL violation): no amount of
    /// rollback can fix a deck that is unstable by construction.
    Config(HealthVerdict),
}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> Self {
        CampaignError::Io(e)
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Comm(e) => write!(f, "unrecoverable communication failure: {e}"),
            CampaignError::Checkpoint(e) => write!(f, "checkpoint write failed: {e}"),
            CampaignError::Io(e) => write!(f, "campaign I/O failure: {e}"),
            CampaignError::NoCommonCheckpoint => {
                write!(f, "no checkpoint generation is valid on every rank")
            }
            CampaignError::Launch(detail) => write!(f, "world launch failed: {detail}"),
            CampaignError::Config(v) => write!(f, "invalid setup: {v}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// The per-rank operations the recovery ladder needs. Every method that
/// takes the communicator must run its collectives identically on every
/// rank: the ladder calls them in lockstep.
pub trait CampaignSim {
    /// A decoded checkpoint generation, checked but not yet installed.
    type Snapshot;

    /// Completed steps.
    fn step_count(&self) -> u64;

    /// Advance one step. On `Err` the state may be mid-step; the ladder
    /// rolls it back.
    fn advance(&mut self, comm: &mut Comm) -> Result<(), CommError>;

    /// The fields seeded corruption hits, with their grid (also the grid
    /// the CFL check reads).
    fn fields(&mut self) -> (&mut FieldArray, &Grid);

    /// This rank's share of a health sample; the ladder sums the shares
    /// with one reduction.
    fn local_health(
        &mut self,
        comm: &mut Comm,
        cfg: &SentinelConfig,
    ) -> Result<HealthSample, CommError>;

    /// One healing burst: fresh `rho` plus `passes_e` Marder passes on `E`,
    /// then `passes_b` on `B` (either may be zero).
    fn marder_burst(
        &mut self,
        comm: &mut Comm,
        passes_e: u32,
        passes_b: u32,
    ) -> Result<(), CommError>;

    /// The world's `(total energy, particle count)`: the health ledger's
    /// reference.
    fn baseline(&self, comm: &mut Comm) -> Result<(f64, f64), CommError>;

    /// This rank's checkpoint bytes (also the partial dump on degrade).
    fn dump(&mut self, compress: bool) -> Result<Vec<u8>, CheckpointError>;

    /// State the dump does not carry, written beside it (first, so a
    /// visible dump implies a durable sidecar) and handed back to
    /// [`CampaignSim::load`]. `None` writes nothing.
    fn sidecar(&self) -> Option<Vec<u8>> {
        None
    }

    /// Decode one generation, validating every byte; `self` is only the
    /// template (decomposition, pipelines).
    fn load(&self, dump: &[u8], sidecar: Option<&[u8]>) -> Result<Self::Snapshot, CheckpointError>;

    /// Replace this rank's state with a loaded generation.
    fn restore(&mut self, snapshot: Self::Snapshot);

    /// Called once a checkpoint generation is confirmed on every rank,
    /// before the `on_checkpoint` hook sees it.
    fn checkpointed(&mut self) {}
}

/// External current drive hook threaded through the campaign loop into
/// [`DistributedSim::step_with`] every step (the laser antenna, in the LPI
/// decks).
pub trait CampaignDrive: Fn(&mut FieldArray, &Grid, u64) {}
impl<F: Fn(&mut FieldArray, &Grid, u64)> CampaignDrive for F {}

/// One rank of a distributed run and the current drive it steps with —
/// including replayed steps after a rollback, so the drive history is
/// identical on the recovery path.
pub struct DrivenSim<D> {
    pub sim: DistributedSim,
    pub drive: D,
}

impl<D: CampaignDrive> CampaignSim for DrivenSim<D> {
    type Snapshot = DistributedSim;

    fn step_count(&self) -> u64 {
        self.sim.step_count
    }

    fn advance(&mut self, comm: &mut Comm) -> Result<(), CommError> {
        let drive = &self.drive;
        self.sim.step_with(comm, |f, g, s| drive(f, g, s))
    }

    fn fields(&mut self) -> (&mut FieldArray, &Grid) {
        (&mut self.sim.fields, &self.sim.grid)
    }

    fn local_health(
        &mut self,
        comm: &mut Comm,
        cfg: &SentinelConfig,
    ) -> Result<HealthSample, CommError> {
        self.sim.local_health_sample(comm, cfg)
    }

    fn marder_burst(
        &mut self,
        comm: &mut Comm,
        passes_e: u32,
        passes_b: u32,
    ) -> Result<(), CommError> {
        self.sim.marder_burst(comm, passes_e, passes_b)
    }

    fn baseline(&self, comm: &mut Comm) -> Result<(f64, f64), CommError> {
        let n0 = self.sim.global_particles(comm)?;
        let (fe, fb, ke) = self.sim.global_energies(comm)?;
        Ok((fe + fb + ke.iter().sum::<f64>(), n0 as f64))
    }

    fn dump(&mut self, compress: bool) -> Result<Vec<u8>, CheckpointError> {
        dump_rank_bytes(&self.sim, compress)
    }

    fn load(&self, mut dump: &[u8], _: Option<&[u8]>) -> Result<DistributedSim, CheckpointError> {
        let (spec, n_pipelines) = (self.sim.spec.clone(), self.sim.accumulators.arrays.len());
        load_rank(spec, self.sim.rank, n_pipelines, &mut dump)
    }

    fn restore(&mut self, mut restored: DistributedSim) {
        // The sponge lives outside the dump and shapes the physics.
        restored.sponge = self.sim.sponge;
        self.sim = restored;
    }
}

/// Where a campaign's first step comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Start {
    /// The state handed in.
    Fresh,
    /// The newest generation on disk valid on every rank, restored before
    /// the first step (a fresh start when there is none): a whole world
    /// relaunched after a kill.
    Resume,
    /// A respawned process taking over a dead rank's seat (the handed-in
    /// state is only a template): rendezvous with the survivors' recovery,
    /// then restore like [`Start::Resume`], degrading when no generation is
    /// valid everywhere. For bit-exact convergence with an uninterrupted
    /// run use a `Fixed` checkpoint policy and `health_interval = 0`: a
    /// rejoiner's measured-cost EWMAs and health baseline start empty.
    Rejoin,
}

/// Why one iteration stopped short of its step.
enum Fault {
    /// Recoverable by rollback.
    Comm(CommError),
    /// Healable in place or recoverable by rollback.
    Health(HealthVerdict),
    /// Permanent (rollback cannot fix a dead disk).
    Fatal(CampaignError),
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Comm(e) => write!(f, "comm: {e}"),
            Fault::Health(v) => write!(f, "health: {v}"),
            Fault::Fatal(e) => write!(f, "{e}"),
        }
    }
}

impl From<CommError> for Fault {
    fn from(e: CommError) -> Self {
        Fault::Comm(e)
    }
}

impl From<CampaignError> for Fault {
    fn from(e: CampaignError) -> Self {
        Fault::Fatal(e)
    }
}

fn checkpoint_path(dir: &Path, step: u64, rank: usize) -> PathBuf {
    dir.join(format!("ckpt_{step:08}_r{rank:04}.vpic"))
}

fn sidecar_path(dump: &Path) -> PathBuf {
    dump.with_extension("diag")
}

/// This rank's checkpoint generations on disk, sorted ascending by step
/// (existence only; validity is established by loading).
fn list_own_checkpoints(dir: &Path, rank: usize) -> io::Result<Vec<(u64, PathBuf)>> {
    let suffix = format!("_r{rank:04}.vpic");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let step = name
            .strip_prefix("ckpt_")
            .and_then(|r| r.strip_suffix(&suffix));
        if let Some(Ok(step)) = step.map(str::parse::<u64>) {
            out.push((step, path));
        }
    }
    out.sort_unstable_by_key(|(s, _)| *s);
    Ok(out)
}

/// Delete this rank's generations beyond the newest `keep` (never the
/// newest one, whatever `keep` says), sidecars included.
fn prune_generations(dir: &Path, rank: usize, keep: usize) -> io::Result<()> {
    let own = list_own_checkpoints(dir, rank)?;
    for (_, p) in &own[..own.len().saturating_sub(keep.max(1))] {
        let _ = std::fs::remove_file(sidecar_path(p));
        let _ = std::fs::remove_file(p);
    }
    Ok(())
}

fn append_log(dir: &Path, rank: usize, line: &str) {
    let path = dir.join(format!("recovery_r{rank:04}.log"));
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(f, "{line}");
    }
}

/// EWMA with a 0.3 gain; the first sample seeds the average directly.
fn ewma(old: f64, sample: f64) -> f64 {
    if old == 0.0 {
        sample
    } else {
        0.3 * sample + 0.7 * old
    }
}

/// Per-rank campaign state.
struct Runner {
    cfg: CampaignConfig,
    /// The outcome as it accrues (`end` and `effective_interval` are set
    /// when the campaign finishes).
    out: CampaignOutcome,
    /// Health baselines `(energy, particles)`, identical on every rank.
    /// Computed inside the fault-handled loop at every step-0 pass (the
    /// pristine and restored-from-generation-0 states are bit-identical),
    /// so a fault during the baseline collectives recovers like any other
    /// instead of failing the campaign — and once more after a resume.
    baseline: Option<(f64, f64)>,
    /// Effective checkpoint interval (updated at each confirmation for
    /// `Auto`, in lockstep across ranks).
    interval: u64,
    /// EWMA of the measured per-dump cost (seconds), locally observed.
    ckpt_secs: f64,
    /// EWMA of the measured per-step wall time (seconds).
    step_secs: f64,
    /// Ring of recent global health samples + verdicts; serialized to
    /// JSON next to the partial dump on degradation.
    recorder: FlightRecorder,
    /// Seeded one-shot corruption injection; fired flags survive rollback.
    corruption: Option<CorruptionPlan>,
    /// Consecutive Marder-burst escalation level (reset on a healthy
    /// check and on rollback).
    bursts: u32,
}

impl Runner {
    fn new<S: CampaignSim>(
        comm: &mut Comm,
        sim: &mut S,
        cfg: &CampaignConfig,
    ) -> Result<Runner, CampaignError> {
        std::fs::create_dir_all(&cfg.checkpoint_dir)?;
        if let Some(t) = cfg.op_timeout {
            comm.set_op_timeout(t);
        }
        // A CFL violation can only come from a bad deck; catching it here
        // (identically on every rank — the grid is replicated config) beats
        // watching the fields blow up at step 3.
        validate_cfl(sim.fields().1).map_err(CampaignError::Config)?;
        Ok(Runner {
            out: CampaignOutcome {
                rank: comm.rank(),
                end: CampaignEnd::Completed,
                steps_run: 0,
                resumed_from: None,
                recoveries: Vec::new(),
                heals: Vec::new(),
                peak_imbalance: 0.0,
                effective_interval: 0,
            },
            baseline: None,
            interval: cfg.checkpoint.resolve(0.0, 0.0),
            ckpt_secs: 0.0,
            step_secs: 0.0,
            recorder: FlightRecorder::new(cfg.sentinel.recorder_len),
            corruption: cfg.corruption.clone(),
            bursts: 0,
            cfg: cfg.clone(),
        })
    }

    fn log(&self, line: &str) {
        append_log(&self.cfg.checkpoint_dir, self.out.rank, line);
    }

    /// Sum every rank's local health sample into the global one with a
    /// *single* reduction. Each rank then classifies the identical global
    /// sample, so the verdict is deterministic and needs no further
    /// traffic. Returns `(local particle count, global sample)`.
    fn global_sample<S: CampaignSim>(
        &self,
        comm: &mut Comm,
        sim: &mut S,
    ) -> Result<(f64, HealthSample), CommError> {
        let local = sim.local_health(comm, &self.cfg.sentinel)?;
        let summed = comm.allreduce_sum_vec(local.to_vec())?;
        Ok((local.particles, HealthSample::from_vec(local.step, &summed)))
    }

    /// Run one step of the campaign schedule: tick faults, maybe
    /// health-check, maybe dump, advance the sim. `Ok(false)`: the
    /// checkpoint hook halted the campaign before the step.
    fn iterate<S: CampaignSim>(
        &mut self,
        comm: &mut Comm,
        sim: &mut S,
        on_checkpoint: &dyn Fn(u64) -> bool,
    ) -> Result<bool, Fault> {
        let step = sim.step_count();
        comm.tick(step)?;
        // Seeded one-shot corruption (transient-SEU model). Fired flags
        // survive rollback, so the replay of the same step is clean.
        if let Some(plan) = self.corruption.as_mut() {
            let (fields, grid) = sim.fields();
            let hits = plan.apply(step, self.out.rank, fields, grid);
            if hits > 0 {
                self.log(&format!("step={step} injected_corruption={hits}"));
            }
        }
        // Health baselines are (re)computed on every step-0 pass so the
        // collective schedule is identical across ranks even when some
        // already hold a baseline from before a rollback to generation 0.
        // The step-0 state is bit-identical either way, so the values are
        // too.
        if step == 0 {
            self.baseline = Some(sim.baseline(comm)?);
        }
        // The health gate runs BEFORE the checkpoint dump at this step:
        // every generation on disk is certified clean, so rollback always
        // restores healthy state.
        let health_interval = self.cfg.sentinel.health_interval;
        if health_interval > 0 && step.is_multiple_of(health_interval) {
            let (local_particles, s) = self.global_sample(comm, sim)?;
            let verdict = classify(&s, &self.cfg.sentinel, self.baseline);
            self.recorder.record(s, verdict);
            if let Some(v) = verdict {
                return Err(Fault::Health(v));
            }
            self.bursts = 0;
            let (ratio, _) = load_imbalance(comm, local_particles as u64)?;
            self.out.peak_imbalance = self.out.peak_imbalance.max(ratio);
        }
        if self.interval > 0 && step.is_multiple_of(self.interval) {
            self.take_checkpoint(comm, sim)?;
            sim.checkpointed();
            if !on_checkpoint(step) {
                return Ok(false);
            }
        }
        let t0 = Instant::now();
        sim.advance(comm)?;
        self.step_secs = ewma(self.step_secs, t0.elapsed().as_secs_f64());
        self.out.steps_run += 1;
        Ok(true)
    }

    /// One rung of the escalation ladder: a Marder burst sized
    /// `marder_passes << bursts`, then an immediate re-check. Every rank
    /// executes the identical sequence (the verdict that got us here is
    /// global), so the collectives stay in lockstep. Returns whether the
    /// re-check came back clean.
    fn try_heal<S: CampaignSim>(
        &mut self,
        comm: &mut Comm,
        sim: &mut S,
        v: HealthVerdict,
    ) -> Result<bool, CommError> {
        let passes = burst_passes(self.cfg.sentinel.marder_passes, self.bursts);
        self.bursts += 1;
        let (pe, pb) = match v.kind {
            AnomalyKind::GaussLawResidual => (passes, 0),
            AnomalyKind::DivBResidual => (0, passes),
            _ => (0, 0),
        };
        sim.marder_burst(comm, pe, pb)?;
        let (_, s) = self.global_sample(comm, sim)?;
        let verdict = classify(&s, &self.cfg.sentinel, self.baseline);
        self.recorder.record(s, verdict);
        let rms_after = match v.kind {
            AnomalyKind::DivBResidual => s.div_b_rms(),
            _ => s.div_e_rms(),
        };
        let healed = verdict.is_none();
        if healed {
            self.bursts = 0;
        }
        self.out.heals.push(HealEvent {
            step: v.step,
            kind: v.kind,
            passes,
            rms_before: v.metric,
            rms_after,
            healed,
        });
        self.log(&format!(
            "step={} burst={} kind={} passes={passes} rms={:.3e}->{:.3e} healed={}",
            v.step,
            self.bursts,
            v.kind.as_str(),
            v.metric,
            rms_after,
            healed
        ));
        Ok(healed)
    }

    /// Write a checkpoint generation (sidecar first, dump rename last),
    /// confirm all ranks wrote theirs (sharing measured dump/step costs for
    /// the auto interval), then prune old generations beyond
    /// `keep_checkpoints`. Write failures are permanent;
    /// confirmation failures are recoverable comm faults.
    fn take_checkpoint<S: CampaignSim>(
        &mut self,
        comm: &mut Comm,
        sim: &mut S,
    ) -> Result<(), Fault> {
        let step = sim.step_count();
        let path = checkpoint_path(&self.cfg.checkpoint_dir, step, self.out.rank);
        let throttle = self.cfg.write_throttle_bps;
        let write_err = |e: io::Error| CampaignError::Checkpoint(e.into());
        let t0 = Instant::now();
        let dump = sim
            .dump(self.cfg.compress)
            .map_err(CampaignError::Checkpoint)?;
        let sidecar = sim.sidecar();
        if let Some(bytes) = &sidecar {
            write_bytes_atomic(&sidecar_path(&path), bytes, throttle).map_err(write_err)?;
        }
        write_bytes_atomic(&path, &dump, throttle).map_err(write_err)?;
        self.ckpt_secs = ewma(self.ckpt_secs, t0.elapsed().as_secs_f64());
        // One collective confirms every rank wrote this generation *and*
        // carries the measured (dump cost, step time) so each rank
        // max-reduces to identical values — the auto interval then
        // resolves the same everywhere without extra traffic.
        let gathered =
            comm.allgather((step, self.ckpt_secs.to_bits(), self.step_secs.to_bits()))?;
        if let Some(&(other, _, _)) = gathered.iter().find(|&&(s, _, _)| s != step) {
            return Err(Fault::Health(HealthVerdict {
                kind: AnomalyKind::Confirmation,
                metric: other as f64,
                threshold: step as f64,
                step,
            }));
        }
        if matches!(self.cfg.checkpoint, CheckpointPolicy::Auto { .. }) {
            let max = |f: fn(&(u64, u64, u64)) -> u64| {
                gathered
                    .iter()
                    .map(|g| f64::from_bits(f(g)))
                    .fold(0.0, f64::max)
            };
            self.interval = self.cfg.checkpoint.resolve(max(|g| g.1), max(|g| g.2));
        }
        // All ranks confirmed: older generations beyond the keep window
        // are now garbage.
        let (dir, keep) = (&self.cfg.checkpoint_dir, self.cfg.keep_checkpoints);
        prune_generations(dir, self.out.rank, keep).map_err(CampaignError::Io)?;
        Ok(())
    }

    /// Agree with every rank on the newest generation valid everywhere and
    /// restore it. Every on-disk generation is validated by fully loading
    /// it: CRC failures (torn writes, bit rot) disqualify a generation
    /// here, loudly. `Ok(None)`: no generation is valid on every rank; the
    /// state is untouched.
    fn restore_agreed<S: CampaignSim>(
        &mut self,
        comm: &mut Comm,
        sim: &mut S,
    ) -> Result<Option<u64>, CampaignError> {
        let (dir, rank) = (&self.cfg.checkpoint_dir, self.out.rank);
        let load = |sim: &S, path: &Path| {
            let sidecar = std::fs::read(sidecar_path(path)).ok();
            sim.load(&std::fs::read(path)?, sidecar.as_deref())
        };
        let mut valid = Vec::new();
        for (step, path) in list_own_checkpoints(dir, rank)? {
            match load(sim, &path) {
                Ok(_) => valid.push(step),
                Err(e) => self.log(&format!("generation {step} unusable: {e}")),
            }
        }
        let all = comm.allgather(valid.clone()).map_err(CampaignError::Comm)?;
        let Some(chosen) = valid
            .into_iter()
            .rev()
            .find(|s| all.iter().all(|ranks| ranks.contains(s)))
        else {
            return Ok(None);
        };
        let snapshot =
            load(sim, &checkpoint_path(dir, chosen, rank)).map_err(CampaignError::Checkpoint)?;
        sim.restore(snapshot);
        // Everyone must resume from the same generation.
        let confirm = comm.allgather(chosen).map_err(CampaignError::Comm)?;
        if confirm.iter().any(|&s| s != chosen) {
            return Err(CampaignError::NoCommonCheckpoint);
        }
        Ok(Some(chosen))
    }

    /// Rendezvous, roll the world back to the newest generation valid on
    /// every rank and record the episode. `Ok(false)` leaves the state
    /// unrestored: the rendezvous failed or no generation is valid
    /// everywhere — the world is splitting up, and degrading (with a
    /// partial dump) beats erroring out, since peers waiting on us will
    /// time out and degrade the same way.
    fn recover<S: CampaignSim>(
        &mut self,
        comm: &mut Comm,
        sim: &mut S,
        at_step: u64,
        attempt: u32,
        cause: &str,
        rejoined: bool,
    ) -> Result<bool, CampaignError> {
        let restored = match comm.recover() {
            Ok(_) => self.restore_agreed(comm, sim),
            Err(e) => Err(CampaignError::Comm(e)),
        };
        let restored_step = match restored {
            Ok(Some(step)) => step,
            Ok(None) | Err(CampaignError::Comm(_)) | Err(CampaignError::NoCommonCheckpoint) => {
                return Ok(false)
            }
            Err(e) => return Err(e),
        };
        // A fresh (certified-clean) generation starts the burst budget
        // over.
        self.bursts = 0;
        self.log(&format!(
            "step={at_step} attempt={attempt} cause=\"{cause}\" restored_step={restored_step}{}",
            if rejoined { " rejoined=1" } else { "" }
        ));
        self.out.recoveries.push(RecoveryEvent {
            at_step,
            attempt,
            cause: cause.to_string(),
            restored_step,
            rejoined,
        });
        Ok(true)
    }

    /// Budget exhausted or the world is unreachable: write a best-effort
    /// partial dump and finish as `Degraded`.
    fn degrade<S: CampaignSim>(
        self,
        sim: &mut S,
        at_step: u64,
        attempt: u32,
        cause: &str,
    ) -> CampaignOutcome {
        let (dir, rank) = (&self.cfg.checkpoint_dir, self.out.rank);
        let partial = dir.join(format!("partial_r{rank:04}.vpic"));
        if let Ok(bytes) = sim.dump(self.cfg.compress) {
            let _ = write_bytes_atomic(&partial, &bytes, self.cfg.write_throttle_bps);
        }
        // The flight recorder is the post-mortem: the last N health
        // samples (and verdicts) as structured JSON, best-effort.
        let flight = dir.join(format!("flight_r{rank:04}.json"));
        let _ = self.recorder.write_json(&flight);
        self.log(&format!(
            "step={at_step} attempt={attempt} cause=\"{cause}\" action=degraded"
        ));
        self.finish(CampaignEnd::Degraded {
            at_step,
            partial_dump: partial,
            flight_recorder: flight,
        })
    }

    fn finish(mut self, end: CampaignEnd) -> CampaignOutcome {
        self.out.end = end;
        self.out.effective_interval = self.interval;
        self.out
    }

    /// The campaign main loop.
    fn run<S: CampaignSim>(
        mut self,
        comm: &mut Comm,
        mut sim: S,
        on_checkpoint: &dyn Fn(u64) -> bool,
    ) -> Result<(S, CampaignOutcome), CampaignError> {
        loop {
            let step = sim.step_count();
            if step >= self.cfg.steps {
                return Ok((sim, self.finish(CampaignEnd::Completed)));
            }
            let mut fault = match self.iterate(comm, &mut sim, on_checkpoint) {
                Ok(true) => continue,
                Ok(false) => return Ok((sim, self.finish(CampaignEnd::Halted { at_step: step }))),
                Err(Fault::Fatal(e)) => return Err(e),
                Err(f) => f,
            };

            // Escalation ladder, rung 2: a repairable numerical verdict
            // (divergence residual) gets an in-place Marder-cleaning burst
            // before we spend a recovery attempt. Pass counts escalate
            // geometrically per consecutive burst; once the budget is
            // spent — or the anomaly is structural (NaN, energy blow-up,
            // drift) — fall through to rollback.
            if let Fault::Health(v) = fault {
                if v.kind.repairable() && self.bursts < self.cfg.sentinel.max_marder_bursts {
                    match self.try_heal(comm, &mut sim, v) {
                        // Healed or not, re-enter the loop: the next
                        // health gate re-samples, and an unhealed residual
                        // re-faults here with an escalated pass count.
                        Ok(_) => continue,
                        // A burst collective failing is a comm fault; let
                        // the ordinary recovery machinery handle it.
                        Err(e) => fault = Fault::Comm(e),
                    }
                }
            }

            let attempt = self.out.recoveries.len() as u32 + 1;
            let cause = fault.to_string();
            if attempt > self.cfg.max_recoveries
                || !self.recover(comm, &mut sim, step, attempt, &cause, false)?
            {
                let outcome = self.degrade(&mut sim, step, attempt, &cause);
                return Ok((sim, outcome));
            }
        }
    }
}

/// The one campaign driver: run `sim` to `cfg.steps` from `start` with
/// periodic certified checkpoints, health checks and automatic recovery
/// (see the module docs for the protocol). `on_checkpoint(step)` runs on
/// every rank after each generation is durable and confirmed everywhere;
/// returning `false` ends the campaign as [`CampaignEnd::Halted`] (it must
/// answer the same on every rank). Returns the final state — the last
/// good state, on degradation — alongside the outcome.
pub fn run_campaign_from<S: CampaignSim>(
    comm: &mut Comm,
    mut sim: S,
    cfg: &CampaignConfig,
    start: Start,
    on_checkpoint: &dyn Fn(u64) -> bool,
) -> Result<(S, CampaignOutcome), CampaignError> {
    let mut runner = Runner::new(comm, &mut sim, cfg)?;
    match start {
        Start::Fresh => {}
        Start::Resume => {
            runner.out.resumed_from = runner.restore_agreed(comm, &mut sim)?;
            if let Some(step) = runner.out.resumed_from {
                runner.log(&format!("resume restored_step={step}"));
                runner.baseline = Some(sim.baseline(comm).map_err(CampaignError::Comm)?);
            }
        }
        Start::Rejoin => {
            const CAUSE: &str = "process respawn rejoin";
            let at_step = sim.step_count();
            if !runner.recover(comm, &mut sim, at_step, 1, CAUSE, true)? {
                let outcome = runner.degrade(&mut sim, at_step, 1, CAUSE);
                return Ok((sim, outcome));
            }
        }
    }
    runner.run(comm, sim, on_checkpoint)
}

/// [`run_campaign_with`] without an external drive.
pub fn run_campaign(
    comm: &mut Comm,
    sim: DistributedSim,
    cfg: &CampaignConfig,
) -> Result<(DistributedSim, CampaignOutcome), CampaignError> {
    run_campaign_with(comm, sim, cfg, |_, _, _| {})
}

/// Drive a fresh distributed rank to `cfg.steps` with `drive` applied
/// through [`DistributedSim::step_with`] on every step.
pub fn run_campaign_with(
    comm: &mut Comm,
    sim: DistributedSim,
    cfg: &CampaignConfig,
    drive: impl CampaignDrive,
) -> Result<(DistributedSim, CampaignOutcome), CampaignError> {
    let (driven, outcome) =
        run_campaign_from(comm, DrivenSim { sim, drive }, cfg, Start::Fresh, &|_| true)?;
    Ok((driven.sim, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_keeps_the_newest_generation_even_at_keep_zero() {
        let dir = std::env::temp_dir().join(format!("vpic_prune_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for step in [0u64, 4, 8] {
            let dump = checkpoint_path(&dir, step, 0);
            std::fs::write(&dump, b"dump").unwrap();
            std::fs::write(sidecar_path(&dump), b"sidecar").unwrap();
        }
        // Another rank's generation is not this rank's to prune.
        std::fs::write(checkpoint_path(&dir, 0, 1), b"dump").unwrap();

        prune_generations(&dir, 0, 2).unwrap();
        let steps = |rank| -> Vec<u64> {
            list_own_checkpoints(&dir, rank)
                .unwrap()
                .into_iter()
                .map(|(s, _)| s)
                .collect()
        };
        assert_eq!(steps(0), [4, 8]);
        assert!(!sidecar_path(&checkpoint_path(&dir, 0, 0)).exists());

        prune_generations(&dir, 0, 0).unwrap();
        assert_eq!(steps(0), [8], "keep = 0 must still keep the newest");
        assert!(sidecar_path(&checkpoint_path(&dir, 8, 0)).exists());
        assert_eq!(steps(1), [0]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
