//! The WAL-backed sweep orchestrator.
//!
//! One [`SweepRunner::run`] call is one orchestrator *incarnation*: it
//! opens (or creates) `sweep.wal` in the sweep directory as a [`JobLog`]
//! (which replays it into the [`JobQueue`] state machine), reconciles
//! the queue against the grid spec (defining any jobs the journal does
//! not know — this is also what makes a salvaged torn-tail journal
//! safe), releases the jobs a previous incarnation died running
//! **without charging an attempt**, and then drains the queue in
//! *batches*. Every transition goes through the log, which journals it
//! *before* it is acted on.
//!
//! A batch is up to `rayon::current_num_threads()` jobs picked by
//! [`JobQueue::next_ready`] (pending jobs before retries) and started
//! with [`JobLog::start`] before any physics runs. Its points then run as
//! the parts of one parallel region of the persistent pool; a region
//! opened inside a part runs inline, so each point steps on exactly one
//! lane, and a batch of one (an odd tail, a retry) keeps the whole width
//! for its own regions. Outcomes are folded in job-id order once the
//! whole batch has returned: the step ledger, [`JobLog::finish`] (`Done`,
//! or `Failed`/`Quarantined`), the progress events. A job's physics does
//! not depend on which lane ran it or beside whom, so the curve is
//! byte-identical at any width.
//!
//! Campaign checkpoints double as heartbeats: the campaign's
//! checkpoint hook appends a `Progress` record (the certified step) each
//! time a checkpoint generation becomes durable. A killed incarnation
//! leaves each in-flight job's checkpoints in its job directory, and the
//! next one resumes the job from its newest — no job's physics is re-run
//! from scratch, and the finished curve is bit-identical with an
//! unkilled sweep's because checkpointed replay is bit-exact. Wall time
//! appears only in the service-level bench record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use rayon::prelude::*;
use vpic_core::journal::ReplayReport;
use vpic_core::queue::{
    JobEvent, JobLog, JobLogError, JobQueue, JobState, QueueStats, RetryPolicy,
};
use vpic_core::sentinel::{CorruptionPlan, SentinelConfig};
use vpic_parallel::campaign::{CampaignEnd, CampaignError};

use crate::campaign::{run_lpi_campaign_with, LpiCampaignConfig, LpiCampaignOutcome};
use crate::setup::LpiParams;

use super::curve::{
    write_json_atomic, CurvePoint, PartialCurve, PartialPoint, PartialStatus, PointResult,
    ReflectivityCurve, SweepBench,
};
use super::grid::SweepGrid;

/// Name of the write-ahead journal inside the sweep directory.
pub const WAL_NAME: &str = "sweep.wal";
/// Name of the aggregated curve artifact.
pub const CURVE_NAME: &str = "reflectivity_curve.json";
/// Name of the progressive curve artifact, refreshed atomically while
/// the sweep is still running (see [`PartialCurve`]).
pub const PARTIAL_NAME: &str = "reflectivity_curve.partial.json";
/// Name of the service-level bench record.
pub const BENCH_NAME: &str = "BENCH_sweep.json";

/// Orchestrator kill switch for chaos tests: model `kill -9` of the
/// whole sweep service at a seeded instant. The runner returns
/// [`SweepEnd::Killed`] *without journaling anything further* — exactly
/// the on-disk state a real SIGKILL leaves behind.
#[derive(Clone, Debug, Default)]
pub struct SweepKillPlan {
    /// Die at the Nth checkpoint certification (1-based, counted
    /// across jobs) of this incarnation; the certification's `Progress`
    /// record is journaled before death, like a SIGKILL landing right
    /// after an fsync, and is the incarnation's last WAL write. The
    /// other points of its batch stop at their next checkpoint without
    /// journaling it; whatever they ran past their newest checkpoint
    /// dies with the incarnation (see [`SweepOutcome::steps_by_job`]).
    pub after_certifications: Option<u64>,
    /// Die right after journaling the `Started` record for this job id,
    /// before its first step: exercises orphan release of a job with no
    /// checkpoint yet.
    pub before_job: Option<u64>,
}

/// Everything a sweep needs beyond the grid itself.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Deck template; each grid point overrides `(a0, n_over_ncr, vth)`
    /// and reseeds deterministically.
    pub base: LpiParams,
    /// Steps to drive every point for.
    pub steps: u64,
    /// Campaign checkpoint cadence (also the heartbeat cadence).
    pub checkpoint_interval: u64,
    /// Sweep directory: WAL, per-job checkpoint dirs and artifacts.
    pub sweep_dir: PathBuf,
    /// Retry/quarantine policy.
    pub retry: RetryPolicy,
    /// In-campaign recovery budget per attempt. Kept small: retries are
    /// the *sweep's* job, and a degraded campaign surfaces here as a
    /// failed attempt with its flight recorder already on disk.
    pub campaign_max_recoveries: u32,
    /// Sentinel thresholds applied to every job's campaign.
    pub sentinel: SentinelConfig,
    /// Per-(job, attempt) corruption injection for chaos tests; `None`
    /// entries inherit nothing. Keyed so a poison job can fail every
    /// attempt while a flaky one fails only its first.
    pub corruption_for: Vec<(u64, Option<u32>, CorruptionPlan)>,
    /// Orchestrator kill plan (chaos tests only).
    pub kill: SweepKillPlan,
}

impl SweepConfig {
    /// Sweep with default service knobs.
    pub fn new(
        base: LpiParams,
        steps: u64,
        checkpoint_interval: u64,
        dir: impl Into<PathBuf>,
    ) -> Self {
        SweepConfig {
            base,
            steps,
            checkpoint_interval,
            sweep_dir: dir.into(),
            retry: RetryPolicy::default(),
            campaign_max_recoveries: 1,
            sentinel: SentinelConfig::enabled(),
            corruption_for: Vec::new(),
            kill: SweepKillPlan::default(),
        }
    }

    fn corruption(&self, job: u64, attempt: u32) -> Option<CorruptionPlan> {
        self.corruption_for
            .iter()
            .find(|(j, a, _)| *j == job && (a.is_none() || *a == Some(attempt)))
            .map(|(_, _, plan)| plan.clone())
    }
}

/// How an incarnation ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepEnd {
    /// Queue settled: every job done or quarantined; artifacts written.
    Completed,
    /// The kill plan fired; the WAL holds an in-flight job for the next
    /// incarnation.
    Killed,
}

/// What one incarnation did.
#[derive(Debug)]
pub struct SweepOutcome {
    pub end: SweepEnd,
    /// Queue state at exit.
    pub stats: QueueStats,
    /// Aggregated curve (settled sweeps only).
    pub curve: Option<ReflectivityCurve>,
    /// Path of the written curve artifact (settled sweeps only).
    pub curve_path: Option<PathBuf>,
    /// What WAL replay found at open.
    pub replay: ReplayReport,
    /// Jobs released because a previous incarnation died running them.
    pub orphans_released: Vec<u64>,
    /// Simulation steps executed per job by *this incarnation* — the
    /// step-accounting ledger chaos tests audit to prove no physics was
    /// re-run past a checkpoint. A killed incarnation books each point
    /// of its last batch only up to the newest checkpoint it wrote,
    /// which is where the next incarnation resumes it: a point that
    /// outran the kill to its end lost that tail with the incarnation.
    pub steps_by_job: BTreeMap<u64, u64>,
    /// Attempts launched by this incarnation.
    pub attempts_launched: u64,
}

/// Typed sweep-service failure (the queue still on disk is intact).
#[derive(Debug)]
pub enum SweepError {
    Io(std::io::Error),
    Log(JobLogError),
    Campaign(CampaignError),
    /// A `Done` payload failed to decode or cross-check.
    MalformedResult {
        job: u64,
        reason: String,
    },
    /// The grid has no points.
    EmptyGrid,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Io(e) => write!(f, "sweep io: {e}"),
            SweepError::Log(e) => write!(f, "sweep {e}"),
            SweepError::Campaign(e) => write!(f, "sweep campaign: {e}"),
            SweepError::MalformedResult { job, reason } => {
                write!(f, "job {job}: malformed result payload: {reason}")
            }
            SweepError::EmptyGrid => write!(f, "sweep grid has no points"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<std::io::Error> for SweepError {
    fn from(e: std::io::Error) -> Self {
        SweepError::Io(e)
    }
}
impl From<JobLogError> for SweepError {
    fn from(e: JobLogError) -> Self {
        SweepError::Log(e)
    }
}
impl From<CampaignError> for SweepError {
    fn from(e: CampaignError) -> Self {
        SweepError::Campaign(e)
    }
}

/// A job-level progress event, emitted by
/// [`SweepRunner::run_with_progress`] as the queue drains. Purely
/// observational: the WAL, not the observer, is the source of truth.
#[derive(Clone, Debug)]
pub enum SweepProgress {
    /// An attempt on `job` began (its `Started` record is durable).
    Started {
        job: u64,
        attempt: u32,
        a0: f64,
        n_over_ncr: f64,
        vth: f64,
    },
    /// `job` finished; its point joins the curve.
    Done {
        job: u64,
        attempt: u32,
        reflectivity: f64,
        /// Jobs done so far / total grid points.
        done: usize,
        total: usize,
    },
    /// An attempt failed; the job retries once no job is pending.
    Failed {
        job: u64,
        attempt: u32,
        cause: String,
    },
    /// `job` is poison: quarantined, the sweep continues without it.
    Quarantined { job: u64, cause: String },
}

/// The incarnation's job log and the kill plan's state. A certification
/// is recorded, counted and fires under one lock, so concurrent points
/// agree on which record is the Nth, and none journals after it.
struct Wal {
    log: JobLog,
    certifications: u64,
    killed: bool,
    /// A failed `Progress` record: it halts the batch and fails the sweep.
    error: Option<JobLogError>,
}

/// A job of the current batch, started.
#[derive(Clone, Copy)]
struct Attempt {
    id: u64,
    attempt: u32,
}

/// What the points of one batch share while they run.
struct Batch<'a> {
    wal: &'a Mutex<Wal>,
    /// The progressive curve: a queue snapshot taken when the batch
    /// started, each running point's entry updated by its own hook, and
    /// the artifact written under this lock (it has one temp path).
    partial: Mutex<Vec<PartialPoint>>,
}

/// One attempt's result, handed to the fold.
struct AttemptRun {
    job: Attempt,
    out: Result<LpiCampaignOutcome, CampaignError>,
    /// Newest checkpoint the campaign wrote, journaled or not.
    last_checkpoint: Option<u64>,
}

/// The orchestrator. Construct once per incarnation and call
/// [`SweepRunner::run`].
pub struct SweepRunner {
    grid: SweepGrid,
    cfg: SweepConfig,
}

impl SweepRunner {
    pub fn new(grid: SweepGrid, cfg: SweepConfig) -> SweepRunner {
        SweepRunner { grid, cfg }
    }

    /// Per-job checkpoint directory.
    fn job_dir(&self, job: u64) -> PathBuf {
        self.cfg.sweep_dir.join(format!("job_{job:06}"))
    }

    /// Snapshot the queue into progressive-curve points (grid order).
    /// Jobs that are running or waiting for a retry all read as
    /// `Pending` here; each running point's checkpoint hook sets its own
    /// entry of the batch's copy to `Running`.
    fn partial_points(&self, queue: &JobQueue) -> Vec<PartialPoint> {
        self.grid
            .points()
            .map(|point| {
                let job = queue.job(point.job_id).expect("grid job is defined");
                let status = match (&job.state, &job.result) {
                    (JobState::Done, Some(bytes)) => match PointResult::decode(bytes) {
                        Ok(r) => PartialStatus::Done {
                            reflectivity: r.reflectivity,
                        },
                        Err(_) => PartialStatus::Pending,
                    },
                    (JobState::Quarantined, _) => PartialStatus::Quarantined {
                        cause: job.last_cause.clone().unwrap_or_default(),
                    },
                    _ => PartialStatus::Pending,
                };
                PartialPoint {
                    point,
                    attempts: job.attempts,
                    status,
                }
            })
            .collect()
    }

    /// Refresh `reflectivity_curve.partial.json`. Best-effort by design:
    /// a failed write of the progress artifact must never fail the sweep
    /// (the WAL is the source of truth).
    fn write_partial(&self, points: Vec<PartialPoint>) {
        let curve = PartialCurve {
            steps: self.cfg.steps,
            points,
        };
        let _ = write_json_atomic(&self.cfg.sweep_dir.join(PARTIAL_NAME), &curve.to_json());
    }

    /// Run one started attempt of a batch: build its campaign and drive
    /// it with the checkpoint hook as heartbeat and kill switch. Records
    /// only `Progress`; everything else waits for the fold.
    fn run_attempt(&self, batch: &Batch, job: Attempt) -> AttemptRun {
        let Attempt { id, attempt } = job;
        // `resume` is unconditionally on: attempt 1 simply finds an empty
        // directory.
        let point = self.grid.point(id).expect("job id within grid");
        let mut ccfg = LpiCampaignConfig::new(
            self.cfg.steps,
            self.cfg.checkpoint_interval,
            self.job_dir(id),
        );
        ccfg.max_recoveries = self.cfg.campaign_max_recoveries;
        ccfg.sentinel = self.cfg.sentinel;
        ccfg.corruption = self.cfg.corruption(id, attempt);

        // Record a `Progress` per certified checkpoint; halt on a log
        // error (surfaced after the batch) or once any point of the batch
        // has fired the kill plan. The provisional reflectivity of the
        // progressive curve comes from the campaign's `progress.json`,
        // written for this certified step just before the hook, when its
        // diagnostics engine is on and the probe has a sample; `null`
        // otherwise.
        let last_checkpoint = Mutex::new(None);
        let progress_path = self.job_dir(id).join("progress.json");
        let hook = |step: u64| -> bool {
            *last_checkpoint.lock().expect("checkpoint lock") = Some(step);
            let go_on = {
                let mut wal = batch.wal.lock().expect("journal lock poisoned");
                if wal.killed || wal.error.is_some() {
                    return false;
                }
                let ev = JobEvent::Progress {
                    id,
                    certified_step: step,
                };
                if let Err(e) = wal.log.record(&ev) {
                    wal.error = Some(e);
                    return false;
                }
                wal.certifications += 1;
                // Die at the k-th certification (1-based), with its
                // Progress record already durable — a SIGKILL right
                // after an fsync.
                wal.killed = self.cfg.kill.after_certifications == Some(wal.certifications);
                !wal.killed
            };
            let reflectivity = std::fs::read_to_string(&progress_path)
                .ok()
                .and_then(|s| vpic_diag::parse_progress(&s))
                .map(|(_, r)| r);
            let mut points = batch.partial.lock().expect("partial curve lock");
            if let Some(p) = points.iter_mut().find(|p| p.point.job_id == id) {
                p.status = PartialStatus::Running {
                    certified_step: step,
                    reflectivity,
                };
            }
            self.write_partial(points.clone());
            go_on
        };
        let out = run_lpi_campaign_with(point.params(&self.cfg.base), &ccfg, true, &hook);
        AttemptRun {
            job,
            out,
            last_checkpoint: last_checkpoint.into_inner().expect("checkpoint lock"),
        }
    }

    /// Drain the queue (or die trying, per the kill plan).
    pub fn run(&self) -> Result<SweepOutcome, SweepError> {
        self.run_with_progress(&|_| {})
    }

    /// [`SweepRunner::run`] with a job-level progress observer (used by
    /// `vpic-run` to narrate long sweeps).
    pub fn run_with_progress(
        &self,
        progress: &(dyn Fn(&SweepProgress) + Sync),
    ) -> Result<SweepOutcome, SweepError> {
        if self.grid.is_empty() {
            return Err(SweepError::EmptyGrid);
        }
        let wall_start = Instant::now();
        std::fs::create_dir_all(&self.cfg.sweep_dir)?;
        let wal_path = self.cfg.sweep_dir.join(WAL_NAME);

        // Replay (a record that fails to decode or apply is a typed
        // error), then reconcile against the spec: (re)define every grid
        // point. The queue validates fingerprints, so a journal from a
        // different sweep is rejected here instead of silently
        // misapplied, and a torn-tail salvage that dropped a `Defined`
        // record is healed. Jobs the journal already knows are journaled
        // again anyway (`Defined` is idempotent): the WAL grows by one
        // record per job per restart, a price worth paying for
        // reconciliation that needs no out-of-band spec file.
        let mut log = JobLog::open(&wal_path)?;
        // Every incarnation defines every point before it runs anything,
        // so the first point's (job 0's) replayed definitions count the
        // earlier incarnations.
        let restarts = log.replayed_definitions(0);
        for point in self.grid.points() {
            log.record(&JobEvent::Defined {
                id: point.job_id,
                fingerprint: point.fingerprint(&self.cfg.base, self.cfg.steps),
            })?;
        }

        // A previous incarnation's in-process workers died with it:
        // release their jobs without charging attempts. Each resumes from
        // its own newest checkpoint, not from scratch.
        let orphans_released = log.release_orphans()?;

        let mut steps_by_job: BTreeMap<u64, u64> = BTreeMap::new();
        let mut attempts_launched = 0u64;
        let mut outcome_end = SweepEnd::Completed;
        let width = rayon::current_num_threads();

        // First progressive artifact: the reconciled queue as found on
        // disk, before this incarnation runs any physics.
        self.write_partial(self.partial_points(log.queue()));

        // Between batches the drain owns the lock outright (`get_mut`);
        // during one, the points' checkpoint hooks share it.
        let mut wal = Mutex::new(Wal {
            log,
            certifications: 0,
            killed: false,
            error: None,
        });
        'drain: loop {
            let log = &mut wal.get_mut().expect("journal lock poisoned").log;
            // Start up to `width` jobs, pending ones before retries. No
            // job is running between batches, so an empty batch means
            // every job is done or quarantined.
            let mut batch: Vec<Attempt> = Vec::with_capacity(width);
            while batch.len() < width {
                let Some(id) = log.queue().next_ready() else {
                    break;
                };
                let attempt = log.start(id)?;
                if self.cfg.kill.before_job == Some(id) {
                    outcome_end = SweepEnd::Killed;
                    break 'drain;
                }
                attempts_launched += 1;
                let point = self.grid.point(id).expect("job id within grid");
                progress(&SweepProgress::Started {
                    job: id,
                    attempt,
                    a0: point.a0,
                    n_over_ncr: point.n_over_ncr,
                    vth: point.vth,
                });
                batch.push(Attempt { id, attempt });
            }
            if batch.is_empty() {
                break;
            }

            // The batch is one region of the pool: one part per point.
            let partial = Mutex::new(self.partial_points(log.queue()));
            let shared = Batch { wal: &wal, partial };
            let runs: Vec<AttemptRun> = batch
                .par_iter()
                .map(|&job| self.run_attempt(&shared, job))
                .collect();
            let Wal {
                log, killed, error, ..
            } = wal.get_mut().expect("journal lock poisoned");
            if let Some(e) = error.take() {
                return Err(e.into());
            }

            // Fold in job-id order.
            for run in runs {
                let Attempt { id, attempt } = run.job;
                let out = run.out?;
                if *killed {
                    // Die without journaling anything else, like a real
                    // SIGKILL; the next incarnation resumes this point
                    // from its newest checkpoint.
                    let kept = run
                        .last_checkpoint
                        .map_or(0, |s| s.saturating_sub(out.resumed_from.unwrap_or(0)));
                    *steps_by_job.entry(id).or_insert(0) += kept;
                    continue;
                }
                *steps_by_job.entry(id).or_insert(0) += out.steps_run;
                let point = self.grid.point(id).expect("job id within grid");
                let outcome = match out.end {
                    CampaignEnd::Halted { .. } => {
                        unreachable!("only a log error or a fired kill halts a point")
                    }
                    CampaignEnd::Completed => Ok(PointResult {
                        fingerprint: point.fingerprint(&self.cfg.base, self.cfg.steps),
                        reflectivity: out.reflectivity,
                        energy: out.energy,
                        n_particles: out.n_particles,
                        state_hash: out.state_hash,
                    }
                    .encode()),
                    CampaignEnd::Degraded { at_step, .. } => Err(format!(
                        "campaign degraded at step {at_step} (attempt {attempt}); \
                         flight recorder in {}",
                        self.job_dir(id).display()
                    )),
                };
                let cause = outcome.as_ref().err().cloned().unwrap_or_default();
                let event = match log.finish(id, attempt, outcome, self.cfg.retry.max_attempts)? {
                    JobState::Done => SweepProgress::Done {
                        job: id,
                        attempt,
                        reflectivity: out.reflectivity,
                        done: log.queue().stats().done,
                        total: self.grid.len(),
                    },
                    JobState::Quarantined => SweepProgress::Quarantined { job: id, cause },
                    _ => SweepProgress::Failed {
                        job: id,
                        attempt,
                        cause,
                    },
                };
                progress(&event);
            }
            if *killed {
                outcome_end = SweepEnd::Killed;
                break;
            }
            // Every settled transition refreshes the progressive curve,
            // so observers see `done`/`quarantined` points accrete as
            // the queue drains.
            self.write_partial(self.partial_points(log.queue()));
        }

        let log = wal.into_inner().expect("journal lock poisoned").log;
        let queue = log.queue();
        let stats = queue.stats();
        let settled = queue.is_settled() && outcome_end == SweepEnd::Completed;
        let (curve, curve_path) = if settled {
            let curve = self.aggregate(queue)?;
            let path = self.cfg.sweep_dir.join(CURVE_NAME);
            write_json_atomic(&path, &curve.to_json())?;
            let steps_executed: u64 = steps_by_job.values().sum();
            let bench = SweepBench::from_stats(
                &stats,
                self.grid.len(),
                restarts,
                steps_executed,
                wall_start.elapsed().as_secs_f64(),
                stats.done,
            );
            write_json_atomic(&self.cfg.sweep_dir.join(BENCH_NAME), &bench.to_json())?;
            (Some(curve), Some(path))
        } else {
            (None, None)
        };

        Ok(SweepOutcome {
            end: outcome_end,
            stats,
            curve,
            curve_path,
            replay: log.replay().clone(),
            orphans_released,
            steps_by_job,
            attempts_launched,
        })
    }

    /// Exactly-once aggregation: fold the curve from `Done` records (and
    /// quarantine markers) in job-id order. Nothing else — not partial
    /// progress, not retries — reaches the physics artifact.
    fn aggregate(&self, queue: &JobQueue) -> Result<ReflectivityCurve, SweepError> {
        let mut points = Vec::with_capacity(self.grid.len());
        for point in self.grid.points() {
            let job = queue
                .job(point.job_id)
                .expect("settled queue covers the grid");
            let expected = point.fingerprint(&self.cfg.base, self.cfg.steps);
            let result = match (&job.state, &job.result) {
                (JobState::Done, Some(bytes)) => {
                    let r = PointResult::decode(bytes).map_err(|reason| {
                        SweepError::MalformedResult {
                            job: job.id,
                            reason,
                        }
                    })?;
                    if r.fingerprint != expected {
                        return Err(SweepError::MalformedResult {
                            job: job.id,
                            reason: format!(
                                "result fingerprint {:#018x} != spec {expected:#018x}",
                                r.fingerprint
                            ),
                        });
                    }
                    Some(r)
                }
                _ => None,
            };
            points.push(CurvePoint {
                point,
                attempts: job.attempts,
                result,
                quarantined: if matches!(job.state, JobState::Quarantined) {
                    Some(job.last_cause.clone().unwrap_or_default())
                } else {
                    None
                },
            });
        }
        Ok(ReflectivityCurve {
            steps: self.cfg.steps,
            points,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use vpic_core::queue::QueueError;

    fn small_base() -> LpiParams {
        LpiParams {
            flat: 4.0,
            ppc: 4,
            a0: 0.01,
            sponge_cells: 12,
            ..Default::default()
        }
    }

    fn test_cfg(dir: &Path) -> SweepConfig {
        let mut cfg = SweepConfig::new(small_base(), 40, 10, dir);
        cfg.sentinel.health_interval = 10;
        cfg.sentinel.max_energy_growth = 100.0;
        cfg
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("vpic_sweep_{}_{name}", std::process::id()))
    }

    #[test]
    fn single_point_sweep_completes_and_writes_artifacts() {
        let dir = tmp("single");
        let _ = std::fs::remove_dir_all(&dir);
        let grid = SweepGrid::single(&small_base());
        let runner = SweepRunner::new(grid, test_cfg(&dir));
        let out = runner.run().unwrap();
        assert_eq!(out.end, SweepEnd::Completed);
        assert_eq!(out.stats.done, 1);
        assert_eq!(out.attempts_launched, 1);
        let curve = out.curve.unwrap();
        assert_eq!(curve.done(), 1);
        let r = curve.points[0].result.unwrap();
        assert!(r.n_particles > 0);
        let json = std::fs::read_to_string(out.curve_path.unwrap()).unwrap();
        assert_eq!(json, curve.to_json(), "artifact must match aggregation");
        let bench = std::fs::read_to_string(dir.join(BENCH_NAME)).unwrap();
        assert!(bench.contains("\"schema\": \"vpic-bench/sweep/v1\""));
        assert!(bench.contains("\"done\": 1"));
        // 40 steps of physics ran, all in this incarnation.
        assert_eq!(out.steps_by_job.get(&0), Some(&40));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn kill_before_start_releases_lease_without_charging() {
        let dir = tmp("killlease");
        let _ = std::fs::remove_dir_all(&dir);
        let grid = SweepGrid::single(&small_base());

        // Incarnation 1 dies right after journaling `Started`, before the
        // first step: zero physics runs, and the WAL holds the job running.
        let mut cfg = test_cfg(&dir);
        cfg.kill.before_job = Some(0);
        let out = SweepRunner::new(grid.clone(), cfg).run().unwrap();
        assert_eq!(out.end, SweepEnd::Killed);
        assert_eq!(out.steps_by_job.values().sum::<u64>(), 0);
        assert!(out.curve.is_none(), "killed sweep must not aggregate");
        assert!(!dir.join(CURVE_NAME).exists());
        let log = JobLog::open(&dir.join(WAL_NAME)).unwrap();
        let state = &log.queue().job(0).unwrap().state;
        assert_eq!(*state, JobState::Running { attempt: 1 });
        drop(log);

        // Incarnation 2 replays the WAL, releases the orphaned job (no
        // attempt charged) and dies the same way.
        let mut cfg = test_cfg(&dir);
        cfg.kill.before_job = Some(0);
        let out = SweepRunner::new(grid.clone(), cfg).run().unwrap();
        assert_eq!(out.end, SweepEnd::Killed);
        assert_eq!(out.orphans_released, vec![0]);

        // Incarnation 3 releases it again and finishes the sweep.
        let out = SweepRunner::new(grid, test_cfg(&dir)).run().unwrap();
        assert_eq!(out.end, SweepEnd::Completed);
        assert_eq!(out.orphans_released, vec![0]);
        assert!(out.replay.records > 0, "WAL must have been replayed");
        let curve = out.curve.unwrap();
        assert_eq!(curve.done(), 1);
        assert_eq!(curve.points[0].attempts, 0, "orphan release is free");
        // Two earlier incarnations, however many records each left.
        let bench = std::fs::read_to_string(dir.join(BENCH_NAME)).unwrap();
        assert!(bench.contains("\"restarts\": 2,"), "{bench}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_curve_streams_while_sweep_runs_and_after_it_settles() {
        let dir = tmp("partial");
        let _ = std::fs::remove_dir_all(&dir);
        let grid = SweepGrid::single(&small_base());

        // Incarnation 1 dies at its first certification: the progressive
        // artifact on disk must show the job mid-flight.
        let mut cfg = test_cfg(&dir);
        cfg.kill.after_certifications = Some(1);
        let out = SweepRunner::new(grid.clone(), cfg).run().unwrap();
        assert_eq!(out.end, SweepEnd::Killed);
        let partial = std::fs::read_to_string(dir.join(PARTIAL_NAME)).unwrap();
        assert!(
            partial.contains("\"schema\": \"vpic-lpi/reflectivity-curve-partial/v1\""),
            "{partial}"
        );
        assert!(partial.contains("\"status\": \"running\""), "{partial}");
        assert!(partial.contains("\"certified_step\": 0"), "{partial}");
        // diag = off in the base deck: no streaming progress.json, so
        // the provisional reflectivity is null, not a stale number.
        assert!(partial.contains("\"reflectivity\": null"), "{partial}");

        // Incarnation 2 finishes the sweep; the progressive artifact
        // converges to all-done.
        let out = SweepRunner::new(grid, test_cfg(&dir)).run().unwrap();
        assert_eq!(out.end, SweepEnd::Completed);
        let partial = std::fs::read_to_string(dir.join(PARTIAL_NAME)).unwrap();
        assert!(partial.contains("\"points_done\": 1"), "{partial}");
        assert!(partial.contains("\"status\": \"done\""), "{partial}");
        assert!(partial.contains("\"reflectivity_bits\""), "{partial}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two points at once share one progressive artifact. A reader
    /// polling it throughout finds a whole file every time (one writer at
    /// a time, rename into place), and neither point's hook flips the
    /// other back to `pending`: the sweep dies at the batch's last
    /// certification (2 points × 4 checkpoints), and the artifact that
    /// hook wrote shows both points running.
    #[test]
    fn concurrent_points_share_one_progressive_curve() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let dir = tmp("partial_concurrent");
        let _ = std::fs::remove_dir_all(&dir);
        let mut grid = SweepGrid::single(&small_base());
        grid.a0 = vec![0.01, 0.02];
        let mut cfg = test_cfg(&dir);
        cfg.kill.after_certifications = Some(8);

        let path = dir.join(PARTIAL_NAME);
        let parses = |text: &str| {
            text.starts_with('{')
                && text.ends_with('}')
                && text.contains(crate::sweep::PARTIAL_CURVE_SCHEMA)
                && text.contains("\"points_total\": 2,")
                && text.matches("{\"job\": ").count() == 2
        };
        let finished = AtomicBool::new(false);
        let (out, reads) = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut reads = 0usize;
                while !finished.load(Ordering::Acquire) {
                    if let Ok(text) = std::fs::read_to_string(&path) {
                        assert!(parses(&text), "torn progressive artifact:\n{text}");
                        reads += 1;
                    }
                }
                reads
            });
            let out = vpic_core::with_worker_threads(2, || SweepRunner::new(grid, cfg).run());
            finished.store(true, Ordering::Release);
            (out.unwrap(), reader.join().unwrap())
        });
        assert_eq!(out.end, SweepEnd::Killed);
        assert!(reads > 0, "the reader never saw the artifact");
        let last = std::fs::read_to_string(&path).unwrap();
        assert!(parses(&last), "{last}");
        assert_eq!(last.matches("\"status\": \"running\"").count(), 2, "{last}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_grid_is_a_typed_error() {
        let grid = SweepGrid {
            a0: vec![],
            n_over_ncr: vec![0.1],
            vth: vec![0.07],
        };
        let dir = tmp("empty");
        let err = SweepRunner::new(grid, test_cfg(&dir)).run().unwrap_err();
        assert!(matches!(err, SweepError::EmptyGrid));
    }

    #[test]
    fn foreign_journal_is_rejected_by_fingerprint() {
        let dir = tmp("foreign");
        let _ = std::fs::remove_dir_all(&dir);
        // Run a sweep at one grid point to settle a WAL...
        let grid = SweepGrid::single(&small_base());
        SweepRunner::new(grid, test_cfg(&dir)).run().unwrap();
        // ...then reopen it with a different spec (more steps changes
        // every fingerprint).
        let mut cfg = test_cfg(&dir);
        cfg.steps = 80;
        let err = SweepRunner::new(SweepGrid::single(&small_base()), cfg)
            .run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                SweepError::Log(JobLogError::Queue(QueueError::FingerprintMismatch { .. }))
            ),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
