//! Crash-safe job queue: the state machine the sweep journal records.
//!
//! A job walks `Pending → Leased → Running → Done | Failed |
//! Quarantined`. Every transition is a [`JobEvent`] with a compact
//! little-endian encoding. [`JobQueue`] is pure state — no I/O, no wall
//! clock — so replays are deterministic and testable. [`JobLog`] pairs
//! it with a write-ahead journal (`crate::journal`) and is the only
//! writer of job events: it validates an event against the queue,
//! journals it, and a restarted orchestrator rebuilds the queue by
//! replaying the journal through [`JobQueue::apply`].
//!
//! Timing (lease deadlines, retry backoff) uses a caller-supplied
//! logical clock in milliseconds. Retry backoff is exponential with
//! seeded jitter ([`RetryPolicy::backoff_ms`]) so two replays of the
//! same sweep schedule identically while distinct jobs decorrelate.
//!
//! Two kinds of lease loss are deliberately distinct:
//!
//! * [`JobQueue::expired_leases`] — a live orchestrator notices a
//!   heartbeat deadline passed. The worker is presumed wedged; the job
//!   *failed an attempt* ([`JobLog::charge_failure`]) and retries with
//!   backoff (or quarantines).
//! * [`JobLog::release_orphans`] — a restarted orchestrator knows its
//!   in-process workers died with it. Leases are released without
//!   charging an attempt, and the job resumes from its last certified
//!   checkpoint step (the `Progress` heartbeats double as step
//!   accounting).

use std::collections::BTreeMap;
use std::path::Path;

use crate::journal::{Journal, JournalError, ReplayReport};

/// Retry/backoff policy for failed jobs.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts before a job is quarantined (≥ 1).
    pub max_attempts: u32,
    /// Backoff after the first failure, in logical ms.
    pub base_backoff_ms: u64,
    /// Upper bound on the exponential backoff, in logical ms.
    pub max_backoff_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 1_000,
            max_backoff_ms: 60_000,
            jitter_seed: 0,
        }
    }
}

/// SplitMix64 finalizer (the repo's standard seed mixer).
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based: the wait after
    /// the `attempt`-th failure) of `job_id`: exponential doubling from
    /// `base_backoff_ms`, capped, plus up to 50% seeded jitter keyed on
    /// (seed, job, attempt) so identical replays schedule identically.
    pub fn backoff_ms(&self, job_id: u64, attempt: u32) -> u64 {
        let doublings = attempt.saturating_sub(1).min(32);
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << doublings)
            .min(self.max_backoff_ms.max(self.base_backoff_ms));
        let jitter_span = exp / 2 + 1;
        let mix = splitmix64(self.jitter_seed ^ job_id.rotate_left(17) ^ (attempt as u64) << 48);
        exp + mix % jitter_span
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Defined and runnable (subject to its backoff gate).
    Pending,
    /// Handed to a worker; must start or the lease expires.
    Leased { attempt: u32, deadline_ms: u64 },
    /// Worker confirmed execution; heartbeats extend the deadline.
    Running { attempt: u32, deadline_ms: u64 },
    /// Finished; result payload recorded.
    Done,
    /// Attempt failed; eligible for retry after backoff.
    Failed,
    /// Poisoned: failed `max_attempts` times, never retried again.
    Quarantined,
}

impl JobState {
    /// Short lowercase name (for errors, logs and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Leased { .. } => "leased",
            JobState::Running { .. } => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Quarantined => "quarantined",
        }
    }
}

/// One job's replayed state.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Stable identity (grid index for sweep jobs).
    pub id: u64,
    /// Fingerprint of the job's spec; replay cross-checks it so a
    /// journal from a *different* sweep is rejected, not misapplied.
    pub fingerprint: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Failed attempts so far.
    pub attempts: u32,
    /// Highest certified checkpoint step heartbeated by a worker; a
    /// resumed run must not recompute physics at or before this step.
    pub certified_step: u64,
    /// Logical time before which the job may not be (re)leased.
    pub ready_at_ms: u64,
    /// Result payload from the `Done` event.
    pub result: Option<Vec<u8>>,
    /// Most recent failure/quarantine cause.
    pub last_cause: Option<String>,
}

/// A journaled state transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobEvent {
    /// Job exists with this spec fingerprint.
    Defined { id: u64, fingerprint: u64 },
    /// Job handed to a worker until `deadline_ms`.
    Leased {
        id: u64,
        attempt: u32,
        deadline_ms: u64,
    },
    /// Worker confirmed execution.
    Started { id: u64, attempt: u32 },
    /// Heartbeat: checkpoint certified at `certified_step`; lease
    /// extended to `deadline_ms`.
    Progress {
        id: u64,
        certified_step: u64,
        deadline_ms: u64,
    },
    /// Job finished with an opaque result payload.
    Done { id: u64, result: Vec<u8> },
    /// Attempt `attempt` failed; retry after `ready_at_ms`.
    Failed {
        id: u64,
        attempt: u32,
        ready_at_ms: u64,
        cause: String,
    },
    /// Job is poison: out of attempts, never retried.
    Quarantined { id: u64, cause: String },
    /// Lease released without charging an attempt: a restarted
    /// orchestrator journals this for every lease its dead predecessor
    /// held (the predecessor cannot journal its own death). The job
    /// returns to `Pending` with its certified step intact.
    Released { id: u64 },
}

impl JobEvent {
    /// Job this event belongs to.
    pub fn id(&self) -> u64 {
        match *self {
            JobEvent::Defined { id, .. }
            | JobEvent::Leased { id, .. }
            | JobEvent::Started { id, .. }
            | JobEvent::Progress { id, .. }
            | JobEvent::Done { id, .. }
            | JobEvent::Failed { id, .. }
            | JobEvent::Quarantined { id, .. }
            | JobEvent::Released { id } => id,
        }
    }

    /// Event name (for errors and logs).
    pub fn name(&self) -> &'static str {
        match self {
            JobEvent::Defined { .. } => "defined",
            JobEvent::Leased { .. } => "leased",
            JobEvent::Started { .. } => "started",
            JobEvent::Progress { .. } => "progress",
            JobEvent::Done { .. } => "done",
            JobEvent::Failed { .. } => "failed",
            JobEvent::Quarantined { .. } => "quarantined",
            JobEvent::Released { .. } => "released",
        }
    }

    /// Compact little-endian encoding (journal record payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            JobEvent::Defined { id, fingerprint } => {
                out.push(0);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&fingerprint.to_le_bytes());
            }
            JobEvent::Leased {
                id,
                attempt,
                deadline_ms,
            } => {
                out.push(1);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
                out.extend_from_slice(&deadline_ms.to_le_bytes());
            }
            JobEvent::Started { id, attempt } => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
            }
            JobEvent::Progress {
                id,
                certified_step,
                deadline_ms,
            } => {
                out.push(3);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&certified_step.to_le_bytes());
                out.extend_from_slice(&deadline_ms.to_le_bytes());
            }
            JobEvent::Done { id, result } => {
                out.push(4);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(result.len() as u32).to_le_bytes());
                out.extend_from_slice(result);
            }
            JobEvent::Failed {
                id,
                attempt,
                ready_at_ms,
                cause,
            } => {
                out.push(5);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
                out.extend_from_slice(&ready_at_ms.to_le_bytes());
                out.extend_from_slice(&(cause.len() as u32).to_le_bytes());
                out.extend_from_slice(cause.as_bytes());
            }
            JobEvent::Quarantined { id, cause } => {
                out.push(6);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(cause.len() as u32).to_le_bytes());
                out.extend_from_slice(cause.as_bytes());
            }
            JobEvent::Released { id } => {
                out.push(7);
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        out
    }

    /// Decode an event payload. Any defect (short buffer, bad tag,
    /// trailing garbage, invalid UTF-8) is a typed [`QueueError`].
    pub fn decode(bytes: &[u8]) -> Result<JobEvent, QueueError> {
        let mut r = Reader { bytes, pos: 0 };
        let tag = r.u8()?;
        let ev = match tag {
            0 => JobEvent::Defined {
                id: r.u64()?,
                fingerprint: r.u64()?,
            },
            1 => JobEvent::Leased {
                id: r.u64()?,
                attempt: r.u32()?,
                deadline_ms: r.u64()?,
            },
            2 => JobEvent::Started {
                id: r.u64()?,
                attempt: r.u32()?,
            },
            3 => JobEvent::Progress {
                id: r.u64()?,
                certified_step: r.u64()?,
                deadline_ms: r.u64()?,
            },
            4 => JobEvent::Done {
                id: r.u64()?,
                result: r.blob()?,
            },
            5 => JobEvent::Failed {
                id: r.u64()?,
                attempt: r.u32()?,
                ready_at_ms: r.u64()?,
                cause: r.string()?,
            },
            6 => JobEvent::Quarantined {
                id: r.u64()?,
                cause: r.string()?,
            },
            7 => JobEvent::Released { id: r.u64()? },
            t => return Err(QueueError::Malformed(format!("unknown job event tag {t}"))),
        };
        if r.pos != bytes.len() {
            return Err(QueueError::Malformed(format!(
                "{} trailing bytes after {} event",
                bytes.len() - r.pos,
                ev.name()
            )));
        }
        Ok(ev)
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], QueueError> {
        if self.bytes.len() - self.pos < n {
            return Err(QueueError::Malformed(format!(
                "event truncated at byte {} (need {n} more)",
                self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, QueueError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, QueueError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, QueueError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn blob(&mut self) -> Result<Vec<u8>, QueueError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, QueueError> {
        String::from_utf8(self.blob()?)
            .map_err(|e| QueueError::Malformed(format!("invalid UTF-8 in event string: {e}")))
    }
}

/// Typed queue failure.
#[derive(Debug)]
pub enum QueueError {
    /// An event payload failed to decode.
    Malformed(String),
    /// An event referenced a job the queue has never seen defined.
    UnknownJob(u64),
    /// An event is illegal from the job's current state.
    IllegalTransition {
        id: u64,
        from: &'static str,
        event: &'static str,
    },
    /// A `Defined` event's fingerprint contradicts the existing job:
    /// the journal belongs to a different sweep.
    FingerprintMismatch { id: u64, expected: u64, got: u64 },
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::Malformed(msg) => write!(f, "malformed job event: {msg}"),
            QueueError::UnknownJob(id) => write!(f, "event for undefined job {id}"),
            QueueError::IllegalTransition { id, from, event } => {
                write!(f, "job {id}: illegal `{event}` event from state `{from}`")
            }
            QueueError::FingerprintMismatch { id, expected, got } => write!(
                f,
                "job {id}: spec fingerprint {got:#018x} contradicts journal's {expected:#018x} \
                 (journal belongs to a different sweep)"
            ),
        }
    }
}

impl std::error::Error for QueueError {}

/// Aggregate counters over the whole queue (for progress reporting and
/// the service-level bench record).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    pub pending: usize,
    pub leased: usize,
    pub running: usize,
    pub done: usize,
    pub failed: usize,
    pub quarantined: usize,
    /// Total failed attempts across all jobs (retries + quarantines).
    pub total_failures: u64,
}

/// Replayable in-memory job queue.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobQueue {
    jobs: BTreeMap<u64, Job>,
}

impl JobQueue {
    /// Empty queue.
    pub fn new() -> JobQueue {
        JobQueue::default()
    }

    /// Look up a job.
    pub fn job(&self, id: u64) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// All jobs in id order.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.jobs.values()
    }

    /// Number of defined jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs are defined.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Apply one event (live or replayed). Transitions are validated;
    /// an event a correct orchestrator could never journal is an error,
    /// not a silent state change. `Done` is idempotent: a duplicate
    /// `Done` for an already-done job is accepted and ignored, because
    /// deterministic jobs make duplicate results identical by
    /// construction.
    pub fn apply(&mut self, event: &JobEvent) -> Result<(), QueueError> {
        let id = event.id();
        if let JobEvent::Defined { id, fingerprint } = *event {
            match self.jobs.get(&id) {
                None => {
                    self.jobs.insert(
                        id,
                        Job {
                            id,
                            fingerprint,
                            state: JobState::Pending,
                            attempts: 0,
                            certified_step: 0,
                            ready_at_ms: 0,
                            result: None,
                            last_cause: None,
                        },
                    );
                    return Ok(());
                }
                Some(existing) if existing.fingerprint == fingerprint => return Ok(()),
                Some(existing) => {
                    return Err(QueueError::FingerprintMismatch {
                        id,
                        expected: existing.fingerprint,
                        got: fingerprint,
                    })
                }
            }
        }
        let job = self.jobs.get_mut(&id).ok_or(QueueError::UnknownJob(id))?;
        let illegal = |job: &Job, event: &JobEvent| QueueError::IllegalTransition {
            id,
            from: job.state.name(),
            event: event.name(),
        };
        match event {
            JobEvent::Defined { .. } => unreachable!("handled above"),
            JobEvent::Leased {
                attempt,
                deadline_ms,
                ..
            } => match job.state {
                JobState::Pending | JobState::Failed => {
                    job.state = JobState::Leased {
                        attempt: *attempt,
                        deadline_ms: *deadline_ms,
                    };
                }
                _ => return Err(illegal(job, event)),
            },
            JobEvent::Started { attempt, .. } => match job.state {
                JobState::Leased { deadline_ms, .. } => {
                    job.state = JobState::Running {
                        attempt: *attempt,
                        deadline_ms,
                    };
                }
                _ => return Err(illegal(job, event)),
            },
            JobEvent::Progress {
                certified_step,
                deadline_ms,
                ..
            } => match job.state {
                JobState::Running { attempt, .. } => {
                    job.state = JobState::Running {
                        attempt,
                        deadline_ms: *deadline_ms,
                    };
                    job.certified_step = job.certified_step.max(*certified_step);
                }
                _ => return Err(illegal(job, event)),
            },
            JobEvent::Done { result, .. } => match job.state {
                JobState::Running { .. } | JobState::Leased { .. } => {
                    job.state = JobState::Done;
                    job.result = Some(result.clone());
                }
                // Exactly-once aggregation tolerates duplicate Done
                // records: deterministic jobs yield identical payloads.
                JobState::Done => {}
                _ => return Err(illegal(job, event)),
            },
            JobEvent::Failed {
                attempt,
                ready_at_ms,
                cause,
                ..
            } => match job.state {
                JobState::Leased { .. } | JobState::Running { .. } => {
                    job.state = JobState::Failed;
                    job.attempts = (*attempt).max(job.attempts + 1);
                    job.ready_at_ms = *ready_at_ms;
                    job.last_cause = Some(cause.clone());
                }
                _ => return Err(illegal(job, event)),
            },
            JobEvent::Quarantined { cause, .. } => match job.state {
                JobState::Failed | JobState::Leased { .. } | JobState::Running { .. } => {
                    job.state = JobState::Quarantined;
                    job.last_cause = Some(cause.clone());
                }
                _ => return Err(illegal(job, event)),
            },
            JobEvent::Released { .. } => match job.state {
                JobState::Leased { .. } | JobState::Running { .. } => {
                    job.state = JobState::Pending;
                    job.ready_at_ms = 0;
                }
                _ => return Err(illegal(job, event)),
            },
        }
        Ok(())
    }

    /// Lowest-id job that may be leased at logical time `now_ms`
    /// (pending or failed-and-past-backoff). Deterministic: the same
    /// queue state and clock always picks the same job.
    pub fn next_ready(&self, now_ms: u64) -> Option<u64> {
        self.jobs
            .values()
            .find(|j| {
                matches!(j.state, JobState::Pending | JobState::Failed) && j.ready_at_ms <= now_ms
            })
            .map(|j| j.id)
    }

    /// Earliest `ready_at_ms` among retry-gated jobs (so an idle
    /// orchestrator knows how far to advance its logical clock).
    pub fn next_ready_at(&self) -> Option<u64> {
        self.jobs
            .values()
            .filter(|j| matches!(j.state, JobState::Pending | JobState::Failed))
            .map(|j| j.ready_at_ms)
            .min()
    }

    /// Jobs whose lease deadline has passed at `now_ms`: a live
    /// orchestrator turns each into a `Failed` event (the worker is
    /// wedged; the attempt is charged).
    pub fn expired_leases(&self, now_ms: u64) -> Vec<u64> {
        self.jobs
            .values()
            .filter(|j| match j.state {
                JobState::Leased { deadline_ms, .. } | JobState::Running { deadline_ms, .. } => {
                    deadline_ms < now_ms
                }
                _ => false,
            })
            .map(|j| j.id)
            .collect()
    }

    /// True when no job can make further progress (everything is done
    /// or quarantined).
    pub fn is_settled(&self) -> bool {
        self.jobs
            .values()
            .all(|j| matches!(j.state, JobState::Done | JobState::Quarantined))
    }

    /// Aggregate counters.
    pub fn stats(&self) -> QueueStats {
        let mut s = QueueStats::default();
        for j in self.jobs.values() {
            match j.state {
                JobState::Pending => s.pending += 1,
                JobState::Leased { .. } => s.leased += 1,
                JobState::Running { .. } => s.running += 1,
                JobState::Done => s.done += 1,
                JobState::Failed => s.failed += 1,
                JobState::Quarantined => s.quarantined += 1,
            }
            s.total_failures += j.attempts as u64;
        }
        s
    }
}

/// Typed [`JobLog`] failure.
#[derive(Debug)]
pub enum JobLogError {
    /// The journal could not be read or appended to.
    Journal(JournalError),
    /// A replayed record failed to decode or apply, or a live event was
    /// rejected by the queue (and not journaled).
    Queue(QueueError),
    /// An earlier append failed, so the WAL's tail is unknown: this
    /// handle records nothing more. Reopen the log to go on.
    Closed,
}

impl std::fmt::Display for JobLogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobLogError::Journal(e) => write!(f, "job log: {e}"),
            JobLogError::Queue(e) => write!(f, "job log: {e}"),
            JobLogError::Closed => write!(f, "job log closed by an earlier failed append"),
        }
    }
}

impl std::error::Error for JobLogError {}

impl From<JournalError> for JobLogError {
    fn from(e: JournalError) -> Self {
        JobLogError::Journal(e)
    }
}

impl From<QueueError> for JobLogError {
    fn from(e: QueueError) -> Self {
        JobLogError::Queue(e)
    }
}

/// A write-ahead journal and the [`JobQueue`] replayed from it: the one
/// writer of [`JobEvent`]s. An event is applied to the queue first and
/// journaled only if the queue accepts it, so a rejected event never
/// reaches the disk and every WAL this writes replays.
pub struct JobLog {
    journal: Journal,
    queue: JobQueue,
    replay: ReplayReport,
    /// An append failed; see [`JobLogError::Closed`].
    closed: bool,
}

impl JobLog {
    /// Open (or create) the WAL at `path` and replay it. A record that
    /// fails to decode or apply is a typed error, never a silently
    /// dropped transition: the journal layer has already checked every
    /// frame's CRC, so a bad event means a software bug or a foreign
    /// journal.
    pub fn open(path: &Path) -> Result<JobLog, JobLogError> {
        let mut queue = JobQueue::new();
        let mut defect = None;
        let (journal, replay) = Journal::open(path, |payload| {
            if defect.is_none() {
                if let Err(e) = JobEvent::decode(payload).and_then(|ev| queue.apply(&ev)) {
                    defect = Some(e);
                }
            }
        })?;
        if let Some(e) = defect {
            return Err(e.into());
        }
        Ok(JobLog {
            journal,
            queue,
            replay,
            closed: false,
        })
    }

    /// The queue as of the last recorded event.
    pub fn queue(&self) -> &JobQueue {
        &self.queue
    }

    /// What replay found at open.
    pub fn replay(&self) -> &ReplayReport {
        &self.replay
    }

    /// Apply `event` and, if the queue accepts it, journal it durably.
    /// A failed append closes the handle: the queue is then ahead of
    /// (or beside) a WAL whose tail is unknown.
    pub fn record(&mut self, event: &JobEvent) -> Result<(), JobLogError> {
        if self.closed {
            return Err(JobLogError::Closed);
        }
        self.queue.apply(event)?;
        self.journal.append(&event.encode()).map_err(|e| {
            self.closed = true;
            JobLogError::Journal(e)
        })
    }

    /// Release every lease a dead predecessor left behind, uncharged,
    /// with one `Released` record each (the predecessor could not
    /// journal its own death, and without the record the next replay
    /// would see an illegal re-lease). Certified steps survive, so the
    /// released jobs resume rather than restart. Returns their ids.
    pub fn release_orphans(&mut self) -> Result<Vec<u64>, JobLogError> {
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

    /// Charge failed attempt `attempt` of job `id`: a `Failed` record
    /// gated until `ready_at_ms` for every failure, then, at
    /// `max_attempts`, the terminal `Quarantined` marker on top, so a
    /// quarantined job counts exactly `max_attempts` charged attempts.
    /// Returns whether the job was quarantined.
    pub fn charge_failure(
        &mut self,
        id: u64,
        attempt: u32,
        ready_at_ms: u64,
        cause: String,
        max_attempts: u32,
    ) -> Result<bool, JobLogError> {
        let quarantine = attempt >= max_attempts;
        self.record(&JobEvent::Failed {
            id,
            attempt,
            ready_at_ms,
            cause: cause.clone(),
        })?;
        if quarantine {
            self.record(&JobEvent::Quarantined { id, cause })?;
        }
        Ok(quarantine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: JobEvent) {
        let bytes = ev.encode();
        let back = JobEvent::decode(&bytes).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn every_event_roundtrips() {
        roundtrip(JobEvent::Defined {
            id: 3,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        });
        roundtrip(JobEvent::Leased {
            id: 3,
            attempt: 1,
            deadline_ms: 30_000,
        });
        roundtrip(JobEvent::Started { id: 3, attempt: 1 });
        roundtrip(JobEvent::Progress {
            id: 3,
            certified_step: 75,
            deadline_ms: 60_000,
        });
        roundtrip(JobEvent::Done {
            id: 3,
            result: vec![1, 2, 3, 255],
        });
        roundtrip(JobEvent::Failed {
            id: 3,
            attempt: 2,
            ready_at_ms: 12_345,
            cause: "sentinel verdict: non-finite energy".into(),
        });
        roundtrip(JobEvent::Quarantined {
            id: 3,
            cause: "out of attempts".into(),
        });
        roundtrip(JobEvent::Released { id: 3 });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(JobEvent::decode(&[]).is_err());
        assert!(JobEvent::decode(&[9]).is_err());
        assert!(JobEvent::decode(&[0, 1, 2]).is_err());
        // Trailing bytes after a well-formed event.
        let mut bytes = JobEvent::Started { id: 1, attempt: 1 }.encode();
        bytes.push(0);
        assert!(JobEvent::decode(&bytes).is_err());
        // String length pointing past the buffer.
        let mut bytes = JobEvent::Quarantined {
            id: 1,
            cause: "x".into(),
        }
        .encode();
        let n = bytes.len();
        bytes[n - 2] = 0xFF;
        assert!(JobEvent::decode(&bytes).is_err());
    }

    #[test]
    fn happy_path_walks_the_state_machine() {
        let mut q = JobQueue::new();
        q.apply(&JobEvent::Defined {
            id: 0,
            fingerprint: 42,
        })
        .unwrap();
        assert_eq!(q.next_ready(0), Some(0));
        q.apply(&JobEvent::Leased {
            id: 0,
            attempt: 1,
            deadline_ms: 100,
        })
        .unwrap();
        q.apply(&JobEvent::Started { id: 0, attempt: 1 }).unwrap();
        q.apply(&JobEvent::Progress {
            id: 0,
            certified_step: 25,
            deadline_ms: 200,
        })
        .unwrap();
        q.apply(&JobEvent::Done {
            id: 0,
            result: b"r".to_vec(),
        })
        .unwrap();
        let job = q.job(0).unwrap();
        assert_eq!(job.state, JobState::Done);
        assert_eq!(job.certified_step, 25);
        assert!(q.is_settled());
        // Duplicate Done is benign.
        q.apply(&JobEvent::Done {
            id: 0,
            result: b"r".to_vec(),
        })
        .unwrap();
    }

    #[test]
    fn illegal_transitions_are_typed_errors() {
        let mut q = JobQueue::new();
        q.apply(&JobEvent::Defined {
            id: 7,
            fingerprint: 1,
        })
        .unwrap();
        // Start without a lease.
        assert!(matches!(
            q.apply(&JobEvent::Started { id: 7, attempt: 1 }),
            Err(QueueError::IllegalTransition { .. })
        ));
        // Progress without running.
        assert!(matches!(
            q.apply(&JobEvent::Progress {
                id: 7,
                certified_step: 1,
                deadline_ms: 1
            }),
            Err(QueueError::IllegalTransition { .. })
        ));
        // Event for a job never defined.
        assert!(matches!(
            q.apply(&JobEvent::Started { id: 99, attempt: 1 }),
            Err(QueueError::UnknownJob(99))
        ));
        // Re-define with a different fingerprint.
        assert!(matches!(
            q.apply(&JobEvent::Defined {
                id: 7,
                fingerprint: 2
            }),
            Err(QueueError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn retry_backoff_gates_and_quarantine_closes() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff_ms: 100,
            max_backoff_ms: 10_000,
            jitter_seed: 9,
        };
        let mut q = JobQueue::new();
        q.apply(&JobEvent::Defined {
            id: 1,
            fingerprint: 5,
        })
        .unwrap();
        let mut now = 0u64;
        for attempt in 1..=policy.max_attempts {
            q.apply(&JobEvent::Leased {
                id: 1,
                attempt,
                deadline_ms: now + 1_000,
            })
            .unwrap();
            q.apply(&JobEvent::Started { id: 1, attempt }).unwrap();
            let ready_at = now + policy.backoff_ms(1, attempt);
            q.apply(&JobEvent::Failed {
                id: 1,
                attempt,
                ready_at_ms: ready_at,
                cause: format!("boom {attempt}"),
            })
            .unwrap();
            assert_eq!(q.job(1).unwrap().attempts, attempt);
            if attempt < policy.max_attempts {
                // Backoff gate holds until ready_at.
                assert_eq!(q.next_ready(now), None);
                assert_eq!(q.next_ready_at(), Some(ready_at));
                now = ready_at;
                assert_eq!(q.next_ready(now), Some(1));
            }
        }
        q.apply(&JobEvent::Quarantined {
            id: 1,
            cause: "out of attempts".into(),
        })
        .unwrap();
        assert!(q.is_settled());
        assert_eq!(q.next_ready(u64::MAX), None);
        let stats = q.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.total_failures, 3);
    }

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_ms: 100,
            max_backoff_ms: 1_600,
            jitter_seed: 7,
        };
        let mut prev_base = 0;
        for attempt in 1..=6 {
            let b = policy.backoff_ms(4, attempt);
            let base = 100u64 * (1 << (attempt - 1).min(4));
            let base = base.min(1_600);
            assert!(
                b >= base && b <= base + base / 2 + 1,
                "attempt {attempt}: {b} outside [{base}, {}]",
                base + base / 2 + 1
            );
            assert_eq!(b, policy.backoff_ms(4, attempt), "jitter not deterministic");
            assert!(base >= prev_base);
            prev_base = base;
        }
        // Different jobs decorrelate.
        assert_ne!(policy.backoff_ms(4, 1), policy.backoff_ms(5, 1));
    }

    #[test]
    fn orphan_release_keeps_certified_step_and_charges_no_attempt() {
        let mut q = JobQueue::new();
        q.apply(&JobEvent::Defined {
            id: 2,
            fingerprint: 3,
        })
        .unwrap();
        q.apply(&JobEvent::Leased {
            id: 2,
            attempt: 1,
            deadline_ms: 500,
        })
        .unwrap();
        q.apply(&JobEvent::Started { id: 2, attempt: 1 }).unwrap();
        q.apply(&JobEvent::Progress {
            id: 2,
            certified_step: 50,
            deadline_ms: 900,
        })
        .unwrap();
        // Live path: deadline passes, lease is expired (attempt charged
        // by the Failed event the orchestrator writes).
        assert_eq!(q.expired_leases(899), Vec::<u64>::new());
        assert_eq!(q.expired_leases(901), vec![2]);
        // Crash path: `Released` returns the job to `Pending` uncharged
        // with its resume point, and a re-lease is then legal again.
        let mut q3 = q.clone();
        q3.apply(&JobEvent::Released { id: 2 }).unwrap();
        let job = q3.job(2).unwrap();
        assert_eq!(job.state, JobState::Pending);
        assert_eq!(job.attempts, 0);
        assert_eq!(job.certified_step, 50, "resume point must survive restart");
        q3.apply(&JobEvent::Leased {
            id: 2,
            attempt: 1,
            deadline_ms: 2_000,
        })
        .unwrap();
        // Released from a settled state is illegal.
        let mut q4 = JobQueue::new();
        q4.apply(&JobEvent::Defined {
            id: 9,
            fingerprint: 1,
        })
        .unwrap();
        assert!(matches!(
            q4.apply(&JobEvent::Released { id: 9 }),
            Err(QueueError::IllegalTransition { .. })
        ));
    }

    /// A fresh WAL path for one test.
    fn wal(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vpic_joblog_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}.wal"));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn define(id: u64, fingerprint: u64) -> JobEvent {
        JobEvent::Defined { id, fingerprint }
    }

    fn lease(id: u64, attempt: u32) -> [JobEvent; 2] {
        [
            JobEvent::Leased {
                id,
                attempt,
                deadline_ms: 1_000,
            },
            JobEvent::Started { id, attempt },
        ]
    }

    #[test]
    fn job_log_replays_every_event_kind_to_an_equal_queue() {
        let path = wal("every_kind");
        let mut log = JobLog::open(&path).unwrap();
        let mut events = vec![define(0, 10), define(1, 11), define(2, 12), define(0, 10)];
        events.extend(lease(0, 1));
        events.push(JobEvent::Progress {
            id: 0,
            certified_step: 20,
            deadline_ms: 1_020,
        });
        events.push(JobEvent::Done {
            id: 0,
            result: vec![7, 8],
        });
        events.extend(lease(1, 1));
        events.push(JobEvent::Failed {
            id: 1,
            attempt: 1,
            ready_at_ms: 300,
            cause: "degraded".into(),
        });
        events.push(JobEvent::Quarantined {
            id: 1,
            cause: "poison".into(),
        });
        events.extend(lease(2, 1));
        events.push(JobEvent::Released { id: 2 });
        for ev in &events {
            log.record(ev).unwrap();
        }
        let live = log.queue().clone();
        drop(log);

        let back = JobLog::open(&path).unwrap();
        assert_eq!(back.replay().records, events.len());
        assert_eq!(back.queue(), &live);
        let states: Vec<_> = live.jobs().map(|j| j.state.clone()).collect();
        assert_eq!(
            states,
            [JobState::Done, JobState::Quarantined, JobState::Pending]
        );
    }

    #[test]
    fn rejected_events_leave_the_wal_bytes_unchanged() {
        let path = wal("rejected");
        let mut log = JobLog::open(&path).unwrap();
        log.record(&define(4, 1)).unwrap();
        let before = std::fs::read(&path).unwrap();
        assert!(matches!(
            log.record(&JobEvent::Started { id: 4, attempt: 1 }),
            Err(JobLogError::Queue(QueueError::IllegalTransition { .. }))
        ));
        assert!(matches!(
            log.record(&define(4, 2)),
            Err(JobLogError::Queue(QueueError::FingerprintMismatch { .. }))
        ));
        assert!(matches!(
            log.record(&JobEvent::Released { id: 5 }),
            Err(JobLogError::Queue(QueueError::UnknownJob(5)))
        ));
        assert_eq!(std::fs::read(&path).unwrap(), before);
        // The handle stays usable after a rejection.
        log.record(&define(5, 1)).unwrap();
        drop(log);
        assert_eq!(JobLog::open(&path).unwrap().queue().len(), 2);
    }

    #[test]
    fn failed_append_closes_the_handle() {
        let path = wal("closed");
        let mut log = JobLog::open(&path).unwrap();
        log.record(&define(0, 1)).unwrap();
        for ev in lease(0, 1) {
            log.record(&ev).unwrap();
        }
        // A payload over the journal's record cap fails the append after
        // the queue accepted the event.
        let huge = JobEvent::Done {
            id: 0,
            result: vec![0; crate::journal::MAX_RECORD as usize],
        };
        assert!(matches!(
            log.record(&huge),
            Err(JobLogError::Journal(JournalError::RecordTooLarge { .. }))
        ));
        assert!(matches!(
            log.record(&define(1, 1)),
            Err(JobLogError::Closed)
        ));
        drop(log);
        let log = JobLog::open(&path).unwrap();
        assert_eq!(log.replay().records, 3);
        assert!(matches!(
            log.queue().job(0).unwrap().state,
            JobState::Running { .. }
        ));
    }

    #[test]
    fn charge_failure_quarantines_at_exactly_max_attempts() {
        let path = wal("charge");
        let mut log = JobLog::open(&path).unwrap();
        log.record(&define(6, 1)).unwrap();
        for attempt in 1..=3 {
            for ev in lease(6, attempt) {
                log.record(&ev).unwrap();
            }
            let quarantined = log
                .charge_failure(
                    6,
                    attempt,
                    100 * attempt as u64,
                    format!("boom {attempt}"),
                    3,
                )
                .unwrap();
            assert_eq!(quarantined, attempt == 3, "attempt {attempt}");
            let job = log.queue().job(6).unwrap();
            assert_eq!(job.attempts, attempt);
            assert_eq!(job.last_cause.as_deref(), Some(&*format!("boom {attempt}")));
        }
        assert_eq!(log.queue().job(6).unwrap().state, JobState::Quarantined);
        assert_eq!(log.queue().stats().total_failures, 3);
        let live = log.queue().clone();
        drop(log);
        assert_eq!(JobLog::open(&path).unwrap().queue(), &live);
    }

    #[test]
    fn release_orphans_keeps_certified_step() {
        let path = wal("orphans");
        let mut log = JobLog::open(&path).unwrap();
        for id in 0..3 {
            log.record(&define(id, id)).unwrap();
        }
        // Job 0 is running past a checkpoint, job 1 is only leased, job
        // 2 was never touched.
        for ev in lease(0, 1) {
            log.record(&ev).unwrap();
        }
        log.record(&JobEvent::Progress {
            id: 0,
            certified_step: 50,
            deadline_ms: 2_000,
        })
        .unwrap();
        log.record(&lease(1, 1)[0]).unwrap();
        drop(log);

        let mut log = JobLog::open(&path).unwrap();
        assert_eq!(log.release_orphans().unwrap(), vec![0, 1]);
        let job = log.queue().job(0).unwrap();
        assert_eq!(job.state, JobState::Pending);
        assert_eq!(job.attempts, 0);
        assert_eq!(job.certified_step, 50, "resume point must survive restart");
        assert_eq!(log.queue().next_ready(0), Some(0));
        let live = log.queue().clone();
        drop(log);
        // The releases are journaled: a third open replays them legally.
        let mut log = JobLog::open(&path).unwrap();
        assert_eq!(log.queue(), &live);
        assert_eq!(log.release_orphans().unwrap(), Vec::<u64>::new());
    }
}
