//! Fault-tolerant campaign runtime: rollback-recovery over checkpoints.
//!
//! VPIC's trillion-particle Roadrunner campaigns outlived the machine's
//! mean time between interrupts the unglamorous way — periodic restart
//! dumps plus automatic resubmission. This module reproduces that loop
//! in-process: [`run_campaign`] drives a [`DistributedSim`] for a fixed
//! number of steps, writing a CRC-protected checkpoint generation on a
//! [`CheckpointPolicy`] schedule and running the numerical-integrity
//! sentinel (see `vpic_core::sentinel`) every `health_interval` steps:
//! non-finite sweeps, the energy ledger, particle conservation, optional
//! Gauss-law / `∇·B` residual monitors and momentum/position bounds, all
//! summed into one global [`HealthSample`] by a *single* reduction and
//! classified identically on every rank into a structured
//! [`HealthVerdict`].
//!
//! The sentinel heals before it recovers: a repairable verdict (divergence
//! residuals) first triggers an in-place Marder-cleaning burst with
//! escalating pass counts (`marder_passes << burst`); only when the burst
//! budget (`max_marder_bursts`) is exhausted does the campaign fall back
//! to rollback, and only when the recovery budget is exhausted does it
//! degrade — writing a partial dump *plus* a JSON flight recorder of the
//! last N health samples. The health gate runs *before* the checkpoint
//! dump at the same step, so every generation on disk is certified clean
//! and rollback always restores healthy state.
//!
//! When anything else goes wrong — a [`CommError`] from a dead or faulty
//! peer, or an unrepairable health verdict — every rank rendezvouses through
//! [`Comm::recover`], rediscovers its checkpoint generations *from disk*
//! (rejecting any dump that fails its CRC), agrees with all other ranks on
//! the newest generation present and valid everywhere, reloads it, and
//! replays. Ranks that still hold the confirmed generation in memory
//! restore from that cache without touching the filesystem. Recovery
//! attempts are bounded: past `max_recoveries` the campaign degrades
//! gracefully, writing a best-effort partial dump and returning
//! [`CampaignEnd::Degraded`] instead of aborting the process.
//!
//! A rank the fault plan killed clears its fault at the rendezvous and
//! rejoins the world from its own thread; a rank whose *process* died is
//! replaced by a respawned one through [`rejoin_campaign`].
//!
//! The checkpoint cadence is either a fixed step count or
//! [`CheckpointPolicy::Auto`]: the Young/Daly optimum
//! `τ_opt = √(2·δ·MTBI)` resolved from the *measured* per-dump cost and
//! step time (EWMA-smoothed, max-reduced across ranks on the checkpoint
//! confirmation collective so every rank resolves the identical interval).
//! Dumps can be delta+RLE compressed and write-throttled
//! (`compress`, `write_throttle_bps`) to keep big particle counts inside
//! the dump budget.
//!
//! Every recovery is recorded in the returned [`CampaignOutcome`] and
//! appended to `recovery_r{rank}.log` in the checkpoint directory.
//!
//! With one push pipeline per rank the replay is bit-exact: a campaign
//! that lost a rank mid-flight ends in exactly the state of an
//! uninterrupted run (asserted by `tests/recovery.rs`).

use crate::dcheckpoint::{dump_rank_bytes, load_rank, load_rank_from_path};
use crate::dsim::DistributedSim;
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
    /// Run until `sim.step_count` reaches this.
    pub steps: u64,
    /// Checkpoint schedule (fixed interval or Young/Daly auto).
    pub checkpoint: CheckpointPolicy,
    /// Directory for checkpoint generations, recovery logs and partial
    /// dumps (created if absent; shared by all ranks).
    pub checkpoint_dir: PathBuf,
    /// Checkpoint generations kept on disk per rank.
    pub keep_checkpoints: usize,
    /// Rollback attempts before degrading to a partial dump.
    pub max_recoveries: u32,
    /// Health-check every this many steps (0 disables).
    pub health_interval: u64,
    /// Health check fails if global energy exceeds this multiple of the
    /// campaign-start energy.
    pub max_energy_growth: f64,
    /// Override the communicator's op timeout for the whole campaign.
    pub op_timeout: Option<Duration>,
    /// Allow delta+RLE compression of dump sections.
    pub compress: bool,
    /// Pace checkpoint writes to at most this many bytes/second.
    pub write_throttle_bps: Option<u64>,
    /// Sentinel thresholds beyond the legacy knobs above (divergence
    /// monitors, momentum/position bounds, Marder burst budget, flight
    /// recorder depth). Merged with `health_interval`/`max_energy_growth`
    /// by [`CampaignConfig::effective_sentinel`].
    pub sentinel: SentinelConfig,
    /// Seeded one-shot field corruption to inject (transient-SEU model;
    /// `None` = no injection). Fired events stay fired across rollback, so
    /// the replay is clean.
    pub corruption: Option<CorruptionPlan>,
}

impl CampaignConfig {
    pub fn new(steps: u64, checkpoint_interval: u64, checkpoint_dir: impl Into<PathBuf>) -> Self {
        CampaignConfig {
            steps,
            checkpoint: CheckpointPolicy::Fixed(checkpoint_interval),
            checkpoint_dir: checkpoint_dir.into(),
            keep_checkpoints: 2,
            max_recoveries: 3,
            health_interval: 1,
            max_energy_growth: 10.0,
            op_timeout: None,
            compress: true,
            write_throttle_bps: None,
            sentinel: SentinelConfig::default(),
            corruption: None,
        }
    }

    /// The sentinel thresholds in effect: the `sentinel` block with the
    /// legacy `health_interval`/`max_energy_growth` knobs folded in. The
    /// particle-drift bound defaults to *exact* conservation (the
    /// campaign's historical contract) unless set explicitly.
    pub fn effective_sentinel(&self) -> SentinelConfig {
        let mut s = self.sentinel;
        s.health_interval = self.health_interval;
        s.max_energy_growth = self.max_energy_growth;
        if s.max_particle_drift < 0.0 {
            s.max_particle_drift = 0.0;
        }
        s
    }

    pub fn with_max_recoveries(mut self, n: u32) -> Self {
        self.max_recoveries = n;
        self
    }

    pub fn with_health_interval(mut self, n: u64) -> Self {
        self.health_interval = n;
        self
    }

    pub fn with_op_timeout(mut self, t: Duration) -> Self {
        self.op_timeout = Some(t);
        self
    }

    pub fn with_checkpoint_policy(mut self, p: CheckpointPolicy) -> Self {
        self.checkpoint = p;
        self
    }

    pub fn with_compression(mut self, on: bool) -> Self {
        self.compress = on;
        self
    }

    pub fn with_write_throttle(mut self, bps: Option<u64>) -> Self {
        self.write_throttle_bps = bps;
        self
    }

    /// Set the sentinel thresholds, folding its cadence and energy bound
    /// into the legacy knobs (a zero cadence keeps the current one).
    pub fn with_sentinel(mut self, s: SentinelConfig) -> Self {
        if s.health_interval > 0 {
            self.health_interval = s.health_interval;
        }
        self.max_energy_growth = s.max_energy_growth;
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
    /// ([`rejoin_campaign`]).
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
}

/// Result of one rank's campaign.
#[derive(Debug)]
pub struct CampaignOutcome {
    pub rank: usize,
    pub end: CampaignEnd,
    /// Total sim steps executed, including replayed ones.
    pub steps_run: u64,
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

/// Why one iteration failed (recoverable causes).
enum Fault {
    Comm(CommError),
    Health(HealthVerdict),
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::Comm(e) => write!(f, "comm: {e}"),
            Fault::Health(v) => write!(f, "health: {v}"),
        }
    }
}

impl From<CommError> for Fault {
    fn from(e: CommError) -> Self {
        Fault::Comm(e)
    }
}

fn checkpoint_path(dir: &Path, step: u64, rank: usize) -> PathBuf {
    dir.join(format!("ckpt_{step:08}_r{rank:04}.vpic"))
}

/// This rank's checkpoint generations on disk, sorted ascending by step
/// (existence only; validity is established by loading).
fn list_own_checkpoints(dir: &Path, rank: usize) -> io::Result<Vec<(u64, PathBuf)>> {
    let suffix = format!("_r{rank:04}.vpic");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name.strip_prefix("ckpt_") {
            if let Some(step_str) = rest.strip_suffix(&suffix) {
                if let Ok(step) = step_str.parse::<u64>() {
                    out.push((step, entry.path()));
                }
            }
        }
    }
    out.sort_unstable_by_key(|(s, _)| *s);
    Ok(out)
}

/// Sum every rank's local health sample into the global one with a
/// *single* reduction. Each rank then classifies the identical global
/// sample, so the verdict is deterministic and needs no further traffic.
fn global_sample(
    comm: &mut Comm,
    sim: &mut DistributedSim,
    scfg: &SentinelConfig,
) -> Result<HealthSample, CommError> {
    let local = sim.local_health_sample(comm, scfg)?;
    let summed = comm.allreduce_sum_vec(local.to_vec())?;
    Ok(HealthSample::from_vec(local.step, &summed))
}

fn n_pipelines_of(sim: &DistributedSim) -> usize {
    sim.accumulators.arrays.len()
}

/// Campaign-start health baselines `(energy, particles)` — two collectives,
/// deterministic across ranks. Fails with a recoverable [`CommError`].
fn world_baseline(comm: &mut Comm, sim: &DistributedSim) -> Result<(f64, u64), CommError> {
    let n0 = sim.global_particles(comm)?;
    let (fe, fb, ke) = sim.global_energies(comm)?;
    Ok((fe + fb + ke.iter().sum::<f64>(), n0))
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
    rank: usize,
    /// Campaign-start health baselines `(energy, particles)`, identical on
    /// every rank. Computed inside the fault-handled loop at every step-0
    /// pass (the pristine and restored-from-generation-0 states are
    /// bit-identical), so a fault during the baseline collectives recovers
    /// like any other instead of failing the campaign.
    baseline: Option<(f64, u64)>,
    recoveries: Vec<RecoveryEvent>,
    steps_run: u64,
    /// Effective checkpoint interval (updated at each confirmation for
    /// `Auto`, in lockstep across ranks).
    interval: u64,
    /// EWMA of the measured per-dump cost (seconds), locally observed.
    ckpt_secs: f64,
    /// EWMA of the measured per-step wall time (seconds).
    step_secs: f64,
    /// Newest *confirmed* checkpoint this rank still holds in memory:
    /// `(step, serialized bytes)`. Lets survivors restore without disk
    /// I/O; a rejoiner starts with no cache (the dead process's memory
    /// is gone).
    cache: Option<(u64, Vec<u8>)>,
    /// Effective sentinel thresholds (legacy knobs folded in).
    scfg: SentinelConfig,
    /// Ring of recent global health samples + verdicts; serialized to
    /// JSON next to the partial dump on degradation.
    recorder: FlightRecorder,
    /// Seeded one-shot corruption injection; fired flags survive rollback.
    corruption: Option<CorruptionPlan>,
    /// Consecutive Marder-burst escalation level (reset on a healthy
    /// check and on rollback).
    bursts: u32,
    /// Completed healing episodes.
    heals: Vec<HealEvent>,
    /// Peak particle-count imbalance seen at the health cadence.
    peak_imbalance: f64,
}

/// External current drive hook threaded through the campaign loop into
/// [`DistributedSim::step_with`] every step (the laser antenna, in the LPI
/// decks).
pub trait CampaignDrive: Fn(&mut FieldArray, &Grid, u64) {}
impl<F: Fn(&mut FieldArray, &Grid, u64)> CampaignDrive for F {}

impl Runner {
    /// Run one step of the campaign schedule: tick faults, maybe dump,
    /// maybe health-check, advance the sim. `Ok(Err(fault))` is a
    /// recoverable failure; `Err(_)` is permanent.
    fn iterate(
        &mut self,
        comm: &mut Comm,
        sim: &mut DistributedSim,
        drive: &impl CampaignDrive,
    ) -> Result<Result<(), Fault>, CampaignError> {
        let step = sim.step_count;
        if let Err(e) = comm.tick(step) {
            return Ok(Err(e.into()));
        }
        // Seeded one-shot corruption (transient-SEU model). Fired flags
        // survive rollback, so the replay of the same step is clean.
        if let Some(plan) = self.corruption.as_mut() {
            let hits = plan.apply(step, self.rank, &mut sim.fields, &sim.grid);
            if hits > 0 {
                append_log(
                    &self.cfg.checkpoint_dir,
                    self.rank,
                    &format!("step={step} injected_corruption={hits}"),
                );
            }
        }
        // Health baselines are (re)computed on every step-0 pass so the
        // collective schedule is identical across ranks even when some
        // already hold a baseline from before a rollback to generation 0.
        // The step-0 state is bit-identical either way, so the values are
        // too.
        if step == 0 {
            match world_baseline(comm, sim) {
                Ok(b) => self.baseline = Some(b),
                Err(e) => return Ok(Err(e.into())),
            }
        }
        // The health gate runs BEFORE the checkpoint dump at this step:
        // every generation on disk is certified clean, so rollback always
        // restores healthy state.
        if self.scfg.health_interval > 0 && step.is_multiple_of(self.scfg.health_interval) {
            let baseline = self.baseline.map(|(e0, n0)| (e0, n0 as f64));
            match global_sample(comm, sim, &self.scfg) {
                Ok(s) => {
                    let verdict = classify(&s, &self.scfg, baseline);
                    self.recorder.record(s, verdict);
                    if let Some(v) = verdict {
                        return Ok(Err(Fault::Health(v)));
                    }
                    self.bursts = 0;
                }
                Err(e) => return Ok(Err(e.into())),
            }
            // Load-imbalance surfaces through the fault-handled path like
            // every other collective — a transient CommError here rolls
            // back instead of panicking mid-campaign.
            match sim.load_imbalance(comm) {
                Ok((ratio, _)) => self.peak_imbalance = self.peak_imbalance.max(ratio),
                Err(e) => return Ok(Err(e.into())),
            }
        }
        if self.interval > 0 && step.is_multiple_of(self.interval) {
            if let Err(f) = self.take_checkpoint(comm, sim)? {
                return Ok(Err(f));
            }
        }
        let t0 = Instant::now();
        if let Err(e) = sim.step_with(comm, |f, g, s| drive(f, g, s)) {
            return Ok(Err(e.into()));
        }
        self.step_secs = ewma(self.step_secs, t0.elapsed().as_secs_f64());
        self.steps_run += 1;
        Ok(Ok(()))
    }

    /// One rung of the escalation ladder: a Marder burst sized
    /// `marder_passes << bursts`, then an immediate re-check. Every rank
    /// executes the identical sequence (the verdict that got us here is
    /// global), so the collectives stay in lockstep. Returns whether the
    /// re-check came back clean.
    fn try_heal(
        &mut self,
        comm: &mut Comm,
        sim: &mut DistributedSim,
        v: HealthVerdict,
    ) -> Result<bool, CommError> {
        let passes = burst_passes(self.scfg.marder_passes, self.bursts);
        self.bursts += 1;
        let (pe, pb) = match v.kind {
            AnomalyKind::GaussLawResidual => (passes, 0),
            AnomalyKind::DivBResidual => (0, passes),
            _ => (0, 0),
        };
        sim.marder_burst(comm, pe, pb)?;
        let baseline = self.baseline.map(|(e0, n0)| (e0, n0 as f64));
        let s = global_sample(comm, sim, &self.scfg)?;
        let verdict = classify(&s, &self.scfg, baseline);
        self.recorder.record(s, verdict);
        let rms_after = match v.kind {
            AnomalyKind::DivBResidual => s.div_b_rms(),
            _ => s.div_e_rms(),
        };
        let healed = verdict.is_none();
        if healed {
            self.bursts = 0;
        }
        self.heals.push(HealEvent {
            step: v.step,
            kind: v.kind,
            passes,
            rms_before: v.metric,
            rms_after,
            healed,
        });
        append_log(
            &self.cfg.checkpoint_dir,
            self.rank,
            &format!(
                "step={} burst={} kind={} passes={passes} rms={:.3e}->{:.3e} healed={}",
                v.step,
                self.bursts,
                v.kind.as_str(),
                v.metric,
                rms_after,
                healed
            ),
        );
        Ok(healed)
    }

    /// Write a checkpoint generation, confirm all ranks wrote theirs
    /// (sharing measured dump/step costs for the auto interval), cache the
    /// bytes, then prune old generations beyond `keep_checkpoints`. Write
    /// failures are permanent (rollback cannot fix a dead disk);
    /// confirmation failures are recoverable comm faults.
    fn take_checkpoint(
        &mut self,
        comm: &mut Comm,
        sim: &DistributedSim,
    ) -> Result<Result<(), Fault>, CampaignError> {
        let path = checkpoint_path(&self.cfg.checkpoint_dir, sim.step_count, self.rank);
        let t0 = Instant::now();
        let bytes = dump_rank_bytes(sim, self.cfg.compress).map_err(CampaignError::Checkpoint)?;
        write_bytes_atomic(&path, &bytes, self.cfg.write_throttle_bps)
            .map_err(|e| CampaignError::Checkpoint(e.into()))?;
        self.ckpt_secs = ewma(self.ckpt_secs, t0.elapsed().as_secs_f64());
        // One collective confirms every rank wrote this generation *and*
        // carries the measured (dump cost, step time) so each rank
        // max-reduces to identical values — the auto interval then
        // resolves the same everywhere without extra traffic.
        let gathered = match comm.allgather((
            sim.step_count,
            self.ckpt_secs.to_bits(),
            self.step_secs.to_bits(),
        )) {
            Ok(g) => g,
            Err(e) => return Ok(Err(e.into())),
        };
        if gathered.iter().any(|&(s, _, _)| s != sim.step_count) {
            let steps: Vec<u64> = gathered.iter().map(|&(s, _, _)| s).collect();
            let first_bad = steps
                .iter()
                .copied()
                .find(|&s| s != sim.step_count)
                .unwrap_or(0);
            return Ok(Err(Fault::Health(HealthVerdict {
                kind: AnomalyKind::Confirmation,
                metric: first_bad as f64,
                threshold: sim.step_count as f64,
                step: sim.step_count,
            })));
        }
        self.cache = Some((sim.step_count, bytes));
        if matches!(self.cfg.checkpoint, CheckpointPolicy::Auto { .. }) {
            let delta = gathered
                .iter()
                .map(|&(_, d, _)| f64::from_bits(d))
                .fold(0.0, f64::max);
            let step_time = gathered
                .iter()
                .map(|&(_, _, t)| f64::from_bits(t))
                .fold(0.0, f64::max);
            self.interval = self.cfg.checkpoint.resolve(delta, step_time);
        }
        // All ranks confirmed: older generations beyond the keep window
        // are now garbage.
        let own = list_own_checkpoints(&self.cfg.checkpoint_dir, self.rank)?;
        if own.len() > self.cfg.keep_checkpoints {
            for (_, p) in &own[..own.len() - self.cfg.keep_checkpoints] {
                let _ = std::fs::remove_file(p);
            }
        }
        Ok(Ok(()))
    }

    /// Rendezvous, rediscover checkpoints from disk, agree on the newest
    /// generation valid on every rank, and reload it — from the in-memory
    /// cache when it holds the chosen generation, from disk otherwise.
    /// Returns the restored sim and its step.
    fn rollback(
        &mut self,
        comm: &mut Comm,
        sim: &DistributedSim,
    ) -> Result<(DistributedSim, u64), CampaignError> {
        comm.recover().map_err(CampaignError::Comm)?;
        let n_pipe = n_pipelines_of(sim);
        // Validate every on-disk generation by fully loading it — CRC
        // failures (torn writes, bit rot) disqualify a generation here,
        // loudly.
        let mut valid_steps = Vec::new();
        for (step, path) in list_own_checkpoints(&self.cfg.checkpoint_dir, self.rank)? {
            if load_rank_from_path(sim.spec.clone(), self.rank, n_pipe, &path).is_ok() {
                valid_steps.push(step);
            }
        }
        let all: Vec<Vec<u64>> = comm
            .allgather(valid_steps.clone())
            .map_err(CampaignError::Comm)?;
        let chosen = valid_steps
            .iter()
            .rev()
            .find(|s| all.iter().all(|ranks| ranks.contains(s)))
            .copied()
            .ok_or(CampaignError::NoCommonCheckpoint)?;
        let mut restored = match &self.cache {
            Some((step, bytes)) if *step == chosen => {
                load_rank(sim.spec.clone(), self.rank, n_pipe, &mut bytes.as_slice())
                    .map_err(CampaignError::Checkpoint)?
            }
            _ => {
                let path = checkpoint_path(&self.cfg.checkpoint_dir, chosen, self.rank);
                load_rank_from_path(sim.spec.clone(), self.rank, n_pipe, &path)
                    .map_err(CampaignError::Checkpoint)?
            }
        };
        // Knobs that live outside the dump carry over from the template
        // sim (the sponge shapes the physics; the layout is a bit-exact
        // performance choice).
        restored.sponge = sim.sponge;
        restored.set_layout(sim.layout());
        // Everyone must resume from the same generation.
        let confirm = comm.allgather(chosen).map_err(CampaignError::Comm)?;
        if confirm.iter().any(|&s| s != chosen) {
            return Err(CampaignError::NoCommonCheckpoint);
        }
        Ok((restored, chosen))
    }

    /// Budget exhausted or the world is unreachable: write a best-effort
    /// partial dump and finish as `Degraded`.
    fn degrade(
        self,
        sim: DistributedSim,
        at_step: u64,
        attempt: u32,
        cause: &str,
    ) -> (DistributedSim, CampaignOutcome) {
        let partial = self
            .cfg
            .checkpoint_dir
            .join(format!("partial_r{:04}.vpic", self.rank));
        if let Ok(bytes) = dump_rank_bytes(&sim, self.cfg.compress) {
            let _ = write_bytes_atomic(&partial, &bytes, self.cfg.write_throttle_bps);
        }
        // The flight recorder is the post-mortem: the last N health
        // samples (and verdicts) as structured JSON, best-effort.
        let flight = self
            .cfg
            .checkpoint_dir
            .join(format!("flight_r{:04}.json", self.rank));
        let _ = self.recorder.write_json(&flight);
        append_log(
            &self.cfg.checkpoint_dir,
            self.rank,
            &format!("step={at_step} attempt={attempt} cause=\"{cause}\" action=degraded"),
        );
        let end = CampaignEnd::Degraded {
            at_step,
            partial_dump: partial,
            flight_recorder: flight,
        };
        let outcome = self.finish(end);
        (sim, outcome)
    }

    fn finish(self, end: CampaignEnd) -> CampaignOutcome {
        CampaignOutcome {
            rank: self.rank,
            end,
            steps_run: self.steps_run,
            recoveries: self.recoveries,
            heals: self.heals,
            peak_imbalance: self.peak_imbalance,
            effective_interval: self.interval,
        }
    }

    /// Roll the world back to the newest generation valid on every rank
    /// and record the episode. `Ok(Err(sim))` hands the unrestored sim
    /// back: the rendezvous failed or no generation is valid everywhere —
    /// the world is splitting up, and degrading (with a partial dump)
    /// beats erroring out, since peers waiting on us will time out and
    /// degrade the same way.
    fn recover(
        &mut self,
        comm: &mut Comm,
        sim: DistributedSim,
        at_step: u64,
        attempt: u32,
        cause: &str,
        rejoined: bool,
    ) -> Result<Result<DistributedSim, DistributedSim>, CampaignError> {
        match self.rollback(comm, &sim) {
            Ok((restored, restored_step)) => {
                // A fresh (certified-clean) generation starts the burst
                // budget over.
                self.bursts = 0;
                append_log(
                    &self.cfg.checkpoint_dir,
                    self.rank,
                    &format!(
                        "step={at_step} attempt={attempt} cause=\"{cause}\" \
                         restored_step={restored_step}{}",
                        if rejoined { " rejoined=1" } else { "" }
                    ),
                );
                self.recoveries.push(RecoveryEvent {
                    at_step,
                    attempt,
                    cause: cause.to_string(),
                    restored_step,
                    rejoined,
                });
                Ok(Ok(restored))
            }
            Err(CampaignError::Comm(_)) | Err(CampaignError::NoCommonCheckpoint) => Ok(Err(sim)),
            Err(e) => Err(e),
        }
    }

    /// Entry point of a respawned rank: rendezvous with the survivors,
    /// restore the dead process's shard from the newest agreed checkpoint,
    /// and drive the campaign to its end.
    fn spare_main(
        mut self,
        comm: &mut Comm,
        sim: DistributedSim,
        at_step: u64,
        attempt: u32,
        cause: &str,
        drive: &impl CampaignDrive,
    ) -> Result<(DistributedSim, CampaignOutcome), CampaignError> {
        match self.recover(comm, sim, at_step, attempt, cause, true)? {
            Ok(restored) => self.drive(comm, restored, drive),
            Err(sim) => Ok(self.degrade(sim, at_step, attempt, cause)),
        }
    }

    /// The campaign main loop.
    fn drive(
        mut self,
        comm: &mut Comm,
        mut sim: DistributedSim,
        drive: &impl CampaignDrive,
    ) -> Result<(DistributedSim, CampaignOutcome), CampaignError> {
        loop {
            if sim.step_count >= self.cfg.steps {
                let outcome = self.finish(CampaignEnd::Completed);
                return Ok((sim, outcome));
            }
            let step = sim.step_count;
            let mut fault = match self.iterate(comm, &mut sim, drive)? {
                Ok(()) => continue,
                Err(f) => f,
            };

            // Escalation ladder, rung 2: a repairable numerical verdict
            // (divergence residual) gets an in-place Marder-cleaning burst
            // before we spend a recovery attempt. Pass counts escalate
            // geometrically per consecutive burst; once the budget is
            // spent — or the anomaly is structural (NaN, energy blow-up,
            // drift) — fall through to rollback.
            if let Fault::Health(v) = &fault {
                let v = *v;
                if v.kind.repairable() && self.bursts < self.scfg.max_marder_bursts {
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

            let attempt = self.recoveries.len() as u32 + 1;
            if attempt > self.cfg.max_recoveries {
                return Ok(self.degrade(sim, step, attempt, &fault.to_string()));
            }
            let cause = fault.to_string();
            sim = match self.recover(comm, sim, step, attempt, &cause, false)? {
                Ok(restored) => restored,
                Err(sim) => return Ok(self.degrade(sim, step, attempt, &cause)),
            };
        }
    }
}

/// Drive `sim` to `cfg.steps` with periodic checkpoints, health checks and
/// automatic recovery; returns the final simulation state (the last good
/// state, on degradation) alongside the outcome. See the module docs for
/// the protocol.
pub fn run_campaign(
    comm: &mut Comm,
    sim: DistributedSim,
    cfg: &CampaignConfig,
) -> Result<(DistributedSim, CampaignOutcome), CampaignError> {
    run_campaign_with(comm, sim, cfg, |_, _, _| {})
}

/// [`run_campaign`] with an external current drive (e.g. a laser antenna)
/// applied through [`DistributedSim::step_with`] on every step — including
/// replayed steps after a rollback, so the drive history is identical on
/// the recovery path.
pub fn run_campaign_with(
    comm: &mut Comm,
    sim: DistributedSim,
    cfg: &CampaignConfig,
    drive: impl CampaignDrive,
) -> Result<(DistributedSim, CampaignOutcome), CampaignError> {
    let runner = prepare(comm, &sim, cfg)?;
    runner.drive(comm, sim, &drive)
}

/// Entry point for a *respawned process* taking over a dead rank's seat in
/// a running campaign (socket transport). `sim` is the rank's pristine
/// deck-built shard, used only as a template: the runner immediately
/// rendezvouses with the survivors ([`Comm::recover`]), restores the
/// newest checkpoint generation valid on every rank from disk (a rejoiner
/// has no in-memory cache), and drives the campaign to its end.
///
/// Caveats for bit-exact convergence with an uninterrupted run: use a
/// `Fixed` checkpoint policy and `health_interval = 0` — a rejoiner's
/// measured-cost EWMAs and health baseline start empty, so cadences that
/// resolve from them would diverge from the survivors'.
pub fn rejoin_campaign(
    comm: &mut Comm,
    sim: DistributedSim,
    cfg: &CampaignConfig,
    drive: impl CampaignDrive,
) -> Result<(DistributedSim, CampaignOutcome), CampaignError> {
    let runner = prepare(comm, &sim, cfg)?;
    let at_step = sim.step_count;
    runner.spare_main(comm, sim, at_step, 1, "process respawn rejoin", &drive)
}

fn prepare(
    comm: &mut Comm,
    sim: &DistributedSim,
    cfg: &CampaignConfig,
) -> Result<Runner, CampaignError> {
    std::fs::create_dir_all(&cfg.checkpoint_dir)?;
    if let Some(t) = cfg.op_timeout {
        comm.set_op_timeout(t);
    }
    // A CFL violation can only come from a bad deck; catching it here
    // (identically on every rank — the grid is replicated config) beats
    // watching the fields blow up at step 3.
    if let Err(v) = validate_cfl(&sim.grid) {
        return Err(CampaignError::Config(v));
    }
    let scfg = cfg.effective_sentinel();
    Ok(Runner {
        rank: sim.rank,
        baseline: None,
        recoveries: Vec::new(),
        steps_run: 0,
        interval: cfg.checkpoint.resolve(0.0, 0.0),
        ckpt_secs: 0.0,
        step_secs: 0.0,
        cache: None,
        recorder: FlightRecorder::new(scfg.recorder_len),
        scfg,
        corruption: cfg.corruption.clone(),
        bursts: 0,
        heals: Vec::new(),
        peak_imbalance: 0.0,
        cfg: cfg.clone(),
    })
}
