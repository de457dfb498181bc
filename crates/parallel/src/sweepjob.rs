//! Distributed campaigns as sweep jobs.
//!
//! The LPI sweep service (`vpic-lpi`'s `sweep` module) drives serial
//! campaigns through a WAL-backed job queue. Multi-rank campaigns are
//! the other worker type that service will eventually schedule, and
//! they must speak the *same* state machine: `Defined → Leased →
//! Running → Done | Failed | Quarantined`, every transition journaled
//! before it is acted on, orphaned leases released uncharged, results
//! folded exactly once from `Done` records.
//!
//! [`JobJournal`] is that adapter: it owns one `vpic_core::journal`
//! WAL plus the replayed [`JobQueue`], and [`JobJournal::run_campaign_job`]
//! wraps one [`run_campaign`](crate::campaign::run_campaign) attempt in
//! the full journaled lifecycle. A completed campaign lands as a `Done`
//! record carrying a fixed-width [`JobResult`] payload; a degraded one
//! (recovery budget exhausted) is a charged failure that retries with
//! the caller's [`RetryPolicy`] until quarantine — with the flight
//! recorder's path in the recorded cause, exactly like the serial
//! sweep's poison jobs.
//!
//! Unlike the serial sweep, a distributed attempt holds its lease for
//! the whole campaign (the multi-rank driver does not yet expose a
//! per-checkpoint hook), so `lease_ms` must cover one full attempt;
//! heartbeat `Progress` records can slot in once it does.

use std::path::Path;

use nanompi::{SocketAddrSpec, TransportKind};
use vpic_core::journal::{Journal, JournalError, ReplayReport};
use vpic_core::queue::{JobEvent, JobQueue, JobState, QueueError, RetryPolicy};

use crate::campaign::{run_campaign, CampaignConfig, CampaignEnd, CampaignError, CampaignOutcome};
use crate::dsim::DistributedSim;

/// Launch one `ranks`-wide campaign world over `transport` and distill it
/// to rank 0's outcome — exactly the closure shape
/// [`JobJournal::run_campaign_job`] wants for its `drive` argument. This
/// is how the sweep scheduler honours the `transport = local|socket` deck
/// global: a `Local` world runs over in-process channels, a `Socket`
/// world runs the full wire path (framing, handshakes, heartbeats) over
/// Unix-domain sockets rendezvousing in `sock_dir`.
pub fn launch_world<F>(
    transport: TransportKind,
    ranks: usize,
    sock_dir: &Path,
    cfg: &CampaignConfig,
    build: F,
) -> Result<CampaignOutcome, CampaignError>
where
    F: Fn(usize) -> DistributedSim + Sync,
{
    let worker =
        |comm: &mut nanompi::Comm| run_campaign(comm, build(comm.rank()), cfg).map(|(_, out)| out);
    let results = match transport {
        TransportKind::Local => nanompi::run(ranks, worker).0,
        TransportKind::Socket => {
            std::fs::create_dir_all(sock_dir)?;
            nanompi::run_socket_world(ranks, SocketAddrSpec::unix(sock_dir), None, worker).0
        }
    };
    // Rank 0 reports for the world (campaign ends are collective), but a
    // panic anywhere is a launch failure, not an outcome.
    let mut first = None;
    for (rank, r) in results.into_iter().enumerate() {
        match r {
            Err(p) => {
                return Err(CampaignError::Launch(format!(
                    "rank {rank} panicked: {}",
                    p.message
                )))
            }
            Ok(out) if rank == 0 => first = Some(out),
            Ok(_) => {}
        }
    }
    first.expect("world has at least one rank")
}

/// Fixed-width `Done` payload for a distributed campaign job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobResult {
    /// Total sim steps executed, including replayed ones.
    pub steps_run: u64,
    /// Rollback recoveries survived on the way.
    pub recoveries: u64,
    /// Largest `max/mean` particle-count imbalance observed.
    pub peak_imbalance: f64,
}

impl JobResult {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        out.extend_from_slice(&self.steps_run.to_le_bytes());
        out.extend_from_slice(&self.recoveries.to_le_bytes());
        out.extend_from_slice(&self.peak_imbalance.to_le_bytes());
        out
    }

    pub fn decode(bytes: &[u8]) -> Result<JobResult, String> {
        if bytes.len() != 24 {
            return Err(format!(
                "campaign job payload is {} bytes, expected 24",
                bytes.len()
            ));
        }
        let u = |r: std::ops::Range<usize>| u64::from_le_bytes(bytes[r].try_into().unwrap());
        Ok(JobResult {
            steps_run: u(0..8),
            recoveries: u(8..16),
            peak_imbalance: f64::from_bits(u(16..24)),
        })
    }
}

/// What became of one journaled campaign attempt.
#[derive(Debug, PartialEq)]
pub enum JobVerdict {
    /// Campaign completed; its `Done` record is durable.
    Done(JobResult),
    /// Attempt failed (degradation or infrastructure error); the job
    /// retries once the logical clock reaches `ready_at_ms`.
    Retry { attempt: u32, ready_at_ms: u64 },
    /// Poisoned after `max_attempts` failures; never retried again.
    Quarantined { attempt: u32 },
}

/// Typed adapter failure (journal or state-machine, not physics).
#[derive(Debug)]
pub enum SweepJobError {
    Journal(JournalError),
    Queue(QueueError),
    /// The job is not in a state this call is legal from.
    NotReady {
        id: u64,
        state: &'static str,
    },
}

impl std::fmt::Display for SweepJobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepJobError::Journal(e) => write!(f, "sweep job journal: {e}"),
            SweepJobError::Queue(e) => write!(f, "sweep job queue: {e}"),
            SweepJobError::NotReady { id, state } => {
                write!(f, "job {id} is {state}, not ready to run")
            }
        }
    }
}

impl std::error::Error for SweepJobError {}

impl From<JournalError> for SweepJobError {
    fn from(e: JournalError) -> Self {
        SweepJobError::Journal(e)
    }
}

impl From<QueueError> for SweepJobError {
    fn from(e: QueueError) -> Self {
        SweepJobError::Queue(e)
    }
}

/// One WAL plus its replayed queue: the durable half of a sweep worker
/// that runs distributed campaigns.
pub struct JobJournal {
    journal: Journal,
    queue: JobQueue,
    replay: ReplayReport,
}

impl JobJournal {
    /// Open (or create) the WAL at `path` and replay it. A record that
    /// fails to decode or apply is a typed error — never a silently
    /// dropped transition.
    pub fn open(path: &Path) -> Result<JobJournal, SweepJobError> {
        let mut queue = JobQueue::new();
        let mut defect: Option<SweepJobError> = None;
        let (journal, replay) = Journal::open(path, |payload| {
            if defect.is_some() {
                return;
            }
            match JobEvent::decode(payload) {
                Ok(ev) => {
                    if let Err(e) = queue.apply(&ev) {
                        defect = Some(SweepJobError::Queue(e));
                    }
                }
                Err(e) => defect = Some(SweepJobError::Queue(e)),
            }
        })?;
        if let Some(d) = defect {
            return Err(d);
        }
        Ok(JobJournal {
            journal,
            queue,
            replay,
        })
    }

    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    pub fn replay(&self) -> &ReplayReport {
        &self.replay
    }

    /// Journal-then-apply: the WAL always leads the in-memory state.
    fn record(&mut self, ev: &JobEvent) -> Result<(), SweepJobError> {
        self.journal.append(&ev.encode())?;
        self.queue.apply(ev)?;
        Ok(())
    }

    /// Define (or re-validate) a job. Idempotent; a fingerprint clash
    /// with the journaled spec is the queue's typed error.
    pub fn define(&mut self, id: u64, fingerprint: u64) -> Result<(), SweepJobError> {
        self.record(&JobEvent::Defined { id, fingerprint })
    }

    /// Release every lease a dead predecessor left behind, uncharged,
    /// journaling each release so later replays stay legal.
    pub fn release_orphans(&mut self) -> Result<Vec<u64>, SweepJobError> {
        let orphans: Vec<u64> = self
            .queue
            .jobs()
            .filter(|j| matches!(j.state, JobState::Leased { .. } | JobState::Running { .. }))
            .map(|j| j.id)
            .collect();
        for &id in &orphans {
            self.record(&JobEvent::Released { id })?;
        }
        Ok(orphans)
    }

    /// Run one journaled attempt at job `id`: `Leased` and `Started`
    /// are durable before `drive` executes the campaign, and exactly
    /// one of `Done` / `Failed` / `Quarantined` is durable after.
    ///
    /// `drive` is the world launch (typically `nanompi::run` around
    /// [`run_campaign`](crate::campaign::run_campaign)) distilled to
    /// the designated result rank's outcome. Both a `Degraded` end and
    /// a [`CampaignError`] are *charged* failures — infrastructure
    /// trouble retries with backoff like physics trouble does.
    pub fn run_campaign_job(
        &mut self,
        id: u64,
        clock_ms: u64,
        lease_ms: u64,
        retry: &RetryPolicy,
        drive: impl FnOnce() -> Result<CampaignOutcome, CampaignError>,
    ) -> Result<JobVerdict, SweepJobError> {
        let state = match self.queue.job(id) {
            None => {
                return Err(SweepJobError::NotReady {
                    id,
                    state: "undefined",
                })
            }
            Some(j) => j.state.name(),
        };
        if state != "pending" && state != "failed" {
            return Err(SweepJobError::NotReady { id, state });
        }
        let attempt = self.queue.job(id).expect("job checked above").attempts + 1;
        self.record(&JobEvent::Leased {
            id,
            attempt,
            deadline_ms: clock_ms + lease_ms,
        })?;
        self.record(&JobEvent::Started { id, attempt })?;

        let failure = match drive() {
            Ok(out) => match out.end {
                CampaignEnd::Completed => {
                    let result = JobResult {
                        steps_run: out.steps_run,
                        recoveries: out.recoveries.len() as u64,
                        peak_imbalance: out.peak_imbalance,
                    };
                    self.record(&JobEvent::Done {
                        id,
                        result: result.encode(),
                    })?;
                    return Ok(JobVerdict::Done(result));
                }
                CampaignEnd::Degraded {
                    at_step,
                    flight_recorder,
                    ..
                } => format!(
                    "campaign degraded at step {at_step} (attempt {attempt}); \
                     flight recorder {}",
                    flight_recorder.display()
                ),
            },
            Err(e) => format!("campaign error (attempt {attempt}): {e}"),
        };
        // The queue's canonical retry protocol: every failure is a
        // charged `Failed` record; quarantine is a terminal marker on
        // top of the last one.
        let ready_at_ms = clock_ms + retry.backoff_ms(id, attempt);
        self.record(&JobEvent::Failed {
            id,
            attempt,
            ready_at_ms,
            cause: failure.clone(),
        })?;
        if attempt >= retry.max_attempts {
            self.record(&JobEvent::Quarantined { id, cause: failure })?;
            Ok(JobVerdict::Quarantined { attempt })
        } else {
            Ok(JobVerdict::Retry {
                attempt,
                ready_at_ms,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::decomposition::DomainSpec;
    use crate::dsim::DistributedSim;
    use std::path::PathBuf;
    use vpic_core::maxwellian::Momentum;
    use vpic_core::species::Species;

    const RANKS: usize = 2;
    const STEPS: u64 = 8;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vpic_sweepjob_{}_{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn build_sim(rank: usize) -> DistributedSim {
        let spec = DomainSpec::periodic((8, 2, 2), (0.25, 0.25, 0.25), 0.1, RANKS);
        let mut sim = DistributedSim::new(spec, rank, 1);
        let si = sim.add_species(Species::new("e", -1.0, 1.0));
        sim.load_uniform(si, 7, 1.0, 4, Momentum::thermal(0.05));
        sim
    }

    fn drive_world(dir: &Path) -> Result<CampaignOutcome, CampaignError> {
        let cfg = CampaignConfig::new(STEPS, 4, dir);
        let (results, _traffic) = nanompi::run(RANKS, |comm| {
            run_campaign(comm, build_sim(comm.rank()), &cfg).map(|(_, out)| out)
        });
        // Rank 0 reports for the world (ends are collective).
        results
            .into_iter()
            .next()
            .unwrap()
            .expect("rank 0 panicked")
    }

    fn degraded_outcome() -> CampaignOutcome {
        CampaignOutcome {
            rank: 0,
            end: CampaignEnd::Degraded {
                at_step: 3,
                partial_dump: PathBuf::from("/tmp/partial.vpic"),
                flight_recorder: PathBuf::from("/tmp/flight_r0000.json"),
            },
            steps_run: 3,
            recoveries: Vec::new(),
            heals: Vec::new(),
            peak_imbalance: 1.0,
            effective_interval: 4,
        }
    }

    #[test]
    fn distributed_campaign_round_trips_through_the_wal() {
        let dir = tmp("roundtrip");
        let wal = dir.join("jobs.wal");
        let mut jj = JobJournal::open(&wal).unwrap();
        jj.define(7, 0xF00D).unwrap();
        let verdict = jj
            .run_campaign_job(7, 0, 60_000, &RetryPolicy::default(), || {
                drive_world(&dir.join("ckpt"))
            })
            .unwrap();
        let JobVerdict::Done(result) = verdict else {
            panic!("expected Done, got {verdict:?}")
        };
        assert_eq!(result.steps_run, STEPS);
        assert_eq!(result.recoveries, 0);

        // A fresh incarnation replays to the same settled state and can
        // decode the Done payload — exactly-once aggregation material.
        let jj2 = JobJournal::open(&wal).unwrap();
        assert!(jj2.replay().records >= 4);
        assert!(!jj2.replay().torn_tail);
        let job = jj2.queue().job(7).unwrap();
        assert_eq!(job.state, JobState::Done);
        assert_eq!(
            JobResult::decode(job.result.as_ref().unwrap()).unwrap(),
            result
        );
        assert!(jj2.queue().is_settled());
    }

    #[test]
    fn socket_world_job_round_trips_through_the_wal() {
        let dir = tmp("socket_job");
        let wal = dir.join("jobs.wal");
        let mut jj = JobJournal::open(&wal).unwrap();
        jj.define(11, 0x50C4).unwrap();
        let verdict = jj
            .run_campaign_job(11, 0, 60_000, &RetryPolicy::default(), || {
                let cfg = CampaignConfig::new(STEPS, 4, dir.join("ckpt"));
                launch_world(
                    TransportKind::Socket,
                    RANKS,
                    &dir.join("sock"),
                    &cfg,
                    build_sim,
                )
            })
            .unwrap();
        let JobVerdict::Done(result) = verdict else {
            panic!("expected Done, got {verdict:?}")
        };
        assert_eq!(result.steps_run, STEPS);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_campaign_retries_with_backoff_then_quarantines() {
        let dir = tmp("degrade");
        let wal = dir.join("jobs.wal");
        let retry = RetryPolicy {
            max_attempts: 2,
            base_backoff_ms: 100,
            max_backoff_ms: 1_000,
            jitter_seed: 9,
        };
        let mut jj = JobJournal::open(&wal).unwrap();
        jj.define(0, 0xBEEF).unwrap();

        let v1 = jj
            .run_campaign_job(0, 0, 1_000, &retry, || Ok(degraded_outcome()))
            .unwrap();
        let JobVerdict::Retry {
            attempt,
            ready_at_ms,
        } = v1
        else {
            panic!("expected Retry, got {v1:?}")
        };
        assert_eq!(attempt, 1);
        assert!(ready_at_ms >= 100, "backoff must gate the retry");

        let v2 = jj
            .run_campaign_job(0, ready_at_ms, 1_000, &retry, || Ok(degraded_outcome()))
            .unwrap();
        assert_eq!(v2, JobVerdict::Quarantined { attempt: 2 });

        let jj2 = JobJournal::open(&wal).unwrap();
        let job = jj2.queue().job(0).unwrap();
        assert_eq!(job.state, JobState::Quarantined);
        assert_eq!(job.attempts, 2);
        assert!(
            job.last_cause
                .as_deref()
                .unwrap()
                .contains("flight_r0000.json"),
            "quarantine cause must point at the flight recorder"
        );
        assert!(jj2.queue().is_settled());
    }

    #[test]
    fn orphaned_lease_is_released_uncharged_on_reopen() {
        let dir = tmp("orphan");
        let wal = dir.join("jobs.wal");
        {
            let mut jj = JobJournal::open(&wal).unwrap();
            jj.define(3, 0xCAFE).unwrap();
            // Simulate a worker dying between Started and any outcome:
            // journal the lease + start, then drop the journal.
            jj.record(&JobEvent::Leased {
                id: 3,
                attempt: 1,
                deadline_ms: 5_000,
            })
            .unwrap();
            jj.record(&JobEvent::Started { id: 3, attempt: 1 }).unwrap();
        }
        let mut jj = JobJournal::open(&wal).unwrap();
        assert_eq!(jj.release_orphans().unwrap(), vec![3]);
        let job = jj.queue().job(3).unwrap();
        assert_eq!(job.state, JobState::Pending);
        assert_eq!(job.attempts, 0, "orphan release must not charge an attempt");
        // And a third incarnation replays the Released record legally.
        let jj3 = JobJournal::open(&wal).unwrap();
        assert_eq!(jj3.queue().job(3).unwrap().state, JobState::Pending);
    }
}
