//! Crash-safe job queue: the state machine the sweep journal records.
//!
//! A job walks `Pending → Running → Done | Failed | Quarantined`, and a
//! `Failed` job runs again until it is quarantined. Every transition is
//! a [`JobEvent`] with a compact little-endian encoding. [`JobQueue`] is
//! pure state — no I/O, no clock — so replays are deterministic and
//! testable. [`JobLog`] pairs it with a write-ahead journal
//! (`crate::journal`) and is the only writer of job events: it validates
//! an event against the queue, journals it, and a restarted
//! orchestrator rebuilds the queue by replaying the journal through
//! [`JobQueue::apply`].
//!
//! A worker drives an attempt through one pair: [`JobLog::start`]
//! journals `Started` and returns the attempt number, and
//! [`JobLog::finish`] journals `Done`, or a charged `Failed` (and
//! `Quarantined` at `max_attempts`). In between, `Progress` records
//! note each checkpoint the attempt makes durable.
//!
//! The orchestrator runs its workers in-process and settles every
//! attempt it starts before it starts more, so a job can be lost only
//! with the orchestrator itself. A restarted orchestrator then calls
//! [`JobLog::release_orphans`]: each job its predecessor left `Running`
//! returns to `Pending` without charging an attempt, and resumes from
//! its own newest checkpoint.
//!
//! Retry order needs no clock: [`JobQueue::next_ready`] picks the
//! lowest-id `Pending` job, and a `Failed` one only when none is
//! pending, so retries run after every point that has not yet had a
//! first attempt.

use std::collections::BTreeMap;
use std::path::Path;

use crate::journal::{Journal, JournalError, ReplayReport};

/// Retry policy for failed jobs.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts before a job is quarantined (≥ 1).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3 }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Defined and runnable.
    Pending,
    /// Attempt `attempt` is running.
    Running { attempt: u32 },
    /// Finished; result payload recorded.
    Done,
    /// Attempt failed; runnable again once no job is pending.
    Failed,
    /// Poisoned: failed `max_attempts` times, never retried again.
    Quarantined,
}

impl JobState {
    /// Short lowercase name (for errors, logs and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Pending => "pending",
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
    /// Attempt `attempt` began.
    Started { id: u64, attempt: u32 },
    /// Heartbeat: the running attempt made its checkpoint at
    /// `certified_step` durable.
    Progress { id: u64, certified_step: u64 },
    /// Job finished with an opaque result payload.
    Done { id: u64, result: Vec<u8> },
    /// Attempt `attempt` failed.
    Failed {
        id: u64,
        attempt: u32,
        cause: String,
    },
    /// Job is poison: out of attempts, never retried.
    Quarantined { id: u64, cause: String },
    /// Running attempt released without charging it: a restarted
    /// orchestrator journals this for every job its dead predecessor
    /// left running (the predecessor cannot journal its own death). The
    /// job returns to `Pending`.
    Released { id: u64 },
}

/// Tags of event layouts older WALs used (`Leased`, and `Progress` and
/// `Failed` with a logical-clock field). Replay refuses them rather than
/// reading one layout as another.
const RETIRED_TAGS: [u8; 3] = [1, 3, 5];

impl JobEvent {
    /// Job this event belongs to.
    pub fn id(&self) -> u64 {
        match *self {
            JobEvent::Defined { id, .. }
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
            JobEvent::Started { id, attempt } => {
                out.push(2);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
            }
            JobEvent::Done { id, result } => {
                out.push(4);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&(result.len() as u32).to_le_bytes());
                out.extend_from_slice(result);
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
            JobEvent::Progress { id, certified_step } => {
                out.push(8);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&certified_step.to_le_bytes());
            }
            JobEvent::Failed { id, attempt, cause } => {
                out.push(9);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&attempt.to_le_bytes());
                out.extend_from_slice(&(cause.len() as u32).to_le_bytes());
                out.extend_from_slice(cause.as_bytes());
            }
        }
        out
    }

    /// Decode an event payload. Any defect (short buffer, bad or retired
    /// tag, trailing garbage, invalid UTF-8) is a typed [`QueueError`].
    pub fn decode(bytes: &[u8]) -> Result<JobEvent, QueueError> {
        let mut r = Reader { bytes, pos: 0 };
        let tag = r.u8()?;
        let ev = match tag {
            0 => JobEvent::Defined {
                id: r.u64()?,
                fingerprint: r.u64()?,
            },
            2 => JobEvent::Started {
                id: r.u64()?,
                attempt: r.u32()?,
            },
            4 => JobEvent::Done {
                id: r.u64()?,
                result: r.blob()?,
            },
            6 => JobEvent::Quarantined {
                id: r.u64()?,
                cause: r.string()?,
            },
            7 => JobEvent::Released { id: r.u64()? },
            8 => JobEvent::Progress {
                id: r.u64()?,
                certified_step: r.u64()?,
            },
            9 => JobEvent::Failed {
                id: r.u64()?,
                attempt: r.u32()?,
                cause: r.string()?,
            },
            t if RETIRED_TAGS.contains(&t) => {
                return Err(QueueError::Malformed(format!(
                    "job event tag {t} is a retired layout (a WAL from an older version)"
                )))
            }
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
            JobEvent::Started { attempt, .. } => match job.state {
                JobState::Pending | JobState::Failed => {
                    job.state = JobState::Running { attempt: *attempt };
                }
                _ => return Err(illegal(job, event)),
            },
            JobEvent::Progress { .. } => match job.state {
                JobState::Running { .. } => {}
                _ => return Err(illegal(job, event)),
            },
            JobEvent::Done { result, .. } => match job.state {
                JobState::Running { .. } => {
                    job.state = JobState::Done;
                    job.result = Some(result.clone());
                }
                // Exactly-once aggregation tolerates duplicate Done
                // records: deterministic jobs yield identical payloads.
                JobState::Done => {}
                _ => return Err(illegal(job, event)),
            },
            JobEvent::Failed { attempt, cause, .. } => match job.state {
                JobState::Running { .. } => {
                    job.state = JobState::Failed;
                    job.attempts = (*attempt).max(job.attempts + 1);
                    job.last_cause = Some(cause.clone());
                }
                _ => return Err(illegal(job, event)),
            },
            JobEvent::Quarantined { cause, .. } => match job.state {
                JobState::Failed => {
                    job.state = JobState::Quarantined;
                    job.last_cause = Some(cause.clone());
                }
                _ => return Err(illegal(job, event)),
            },
            JobEvent::Released { .. } => match job.state {
                JobState::Running { .. } => job.state = JobState::Pending,
                _ => return Err(illegal(job, event)),
            },
        }
        Ok(())
    }

    /// The job to run next: the lowest-id `Pending` job, or, when none
    /// is pending, the lowest-id `Failed` one. Deterministic: the same
    /// queue state always picks the same job.
    pub fn next_ready(&self) -> Option<u64> {
        let first = |state: JobState| self.jobs.values().find(|j| j.state == state);
        first(JobState::Pending)
            .or_else(|| first(JobState::Failed))
            .map(|j| j.id)
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
    /// `Defined` records replayed at open, per job id.
    replayed_defined: BTreeMap<u64, u64>,
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
        let mut replayed_defined = BTreeMap::new();
        let mut defect = None;
        let (journal, replay) = Journal::open(path, |payload| {
            if defect.is_none() {
                let applied = JobEvent::decode(payload).and_then(|ev| {
                    if let JobEvent::Defined { id, .. } = ev {
                        *replayed_defined.entry(id).or_insert(0) += 1;
                    }
                    queue.apply(&ev)
                });
                if let Err(e) = applied {
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
            replayed_defined,
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

    /// How many `Defined` records of job `id` replay found at open.
    pub fn replayed_definitions(&self, id: u64) -> u64 {
        self.replayed_defined.get(&id).copied().unwrap_or(0)
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

    /// Start the next attempt of job `id`: one `Started` record, which
    /// moves a `Pending` or `Failed` job to `Running`. Returns the
    /// attempt number (1 + the attempts charged so far).
    pub fn start(&mut self, id: u64) -> Result<u32, JobLogError> {
        let job = self.queue.job(id).ok_or(QueueError::UnknownJob(id))?;
        let attempt = job.attempts + 1;
        self.record(&JobEvent::Started { id, attempt })?;
        Ok(attempt)
    }

    /// Finish attempt `attempt` of job `id`: `Done` with the result
    /// payload, or a charged `Failed` with the cause and, at
    /// `max_attempts`, the terminal `Quarantined` on top, so a
    /// quarantined job counts exactly `max_attempts` charged attempts.
    /// Returns the job's new state: `Done`, `Failed` or `Quarantined`.
    pub fn finish(
        &mut self,
        id: u64,
        attempt: u32,
        outcome: Result<Vec<u8>, String>,
        max_attempts: u32,
    ) -> Result<JobState, JobLogError> {
        match outcome {
            Ok(result) => self.record(&JobEvent::Done { id, result })?,
            Err(cause) => {
                self.record(&JobEvent::Failed {
                    id,
                    attempt,
                    cause: cause.clone(),
                })?;
                if attempt >= max_attempts {
                    self.record(&JobEvent::Quarantined { id, cause })?;
                }
            }
        }
        Ok(self
            .queue
            .job(id)
            .expect("a recorded job is defined")
            .state
            .clone())
    }

    /// Release every job a dead predecessor left running, uncharged,
    /// with one `Released` record each (the predecessor could not
    /// journal its own death, and without the record the next replay
    /// would see an illegal restart). A released job resumes from its
    /// own newest checkpoint. Returns their ids.
    pub fn release_orphans(&mut self) -> Result<Vec<u64>, JobLogError> {
        let orphans: Vec<u64> = self
            .queue
            .jobs()
            .filter(|j| matches!(j.state, JobState::Running { .. }))
            .map(|j| j.id)
            .collect();
        for &id in &orphans {
            self.record(&JobEvent::Released { id })?;
        }
        Ok(orphans)
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
        roundtrip(JobEvent::Started { id: 3, attempt: 1 });
        roundtrip(JobEvent::Progress {
            id: 3,
            certified_step: 75,
        });
        roundtrip(JobEvent::Done {
            id: 3,
            result: vec![1, 2, 3, 255],
        });
        roundtrip(JobEvent::Failed {
            id: 3,
            attempt: 2,
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
        assert!(JobEvent::decode(&[10]).is_err());
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
        assert_eq!(q.next_ready(), Some(0));
        q.apply(&JobEvent::Started { id: 0, attempt: 1 }).unwrap();
        assert_eq!(q.job(0).unwrap().state, JobState::Running { attempt: 1 });
        assert_eq!(q.next_ready(), None);
        q.apply(&JobEvent::Progress {
            id: 0,
            certified_step: 25,
        })
        .unwrap();
        q.apply(&JobEvent::Done {
            id: 0,
            result: b"r".to_vec(),
        })
        .unwrap();
        assert_eq!(q.job(0).unwrap().state, JobState::Done);
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
        let illegal = |q: &mut JobQueue, ev: JobEvent| {
            matches!(q.apply(&ev), Err(QueueError::IllegalTransition { .. }))
        };
        // Progress, Done and Failed without a running attempt.
        assert!(illegal(
            &mut q,
            JobEvent::Progress {
                id: 7,
                certified_step: 1,
            }
        ));
        assert!(illegal(
            &mut q,
            JobEvent::Done {
                id: 7,
                result: vec![]
            }
        ));
        assert!(illegal(
            &mut q,
            JobEvent::Failed {
                id: 7,
                attempt: 1,
                cause: "x".into()
            }
        ));
        // Quarantine only follows a charged failure.
        q.apply(&JobEvent::Started { id: 7, attempt: 1 }).unwrap();
        assert!(illegal(
            &mut q,
            JobEvent::Quarantined {
                id: 7,
                cause: "x".into()
            }
        ));
        // A running job cannot start again.
        assert!(illegal(&mut q, JobEvent::Started { id: 7, attempt: 2 }));
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
    fn retries_run_only_once_no_job_is_pending() {
        let mut q = JobQueue::new();
        for id in 0..3 {
            q.apply(&JobEvent::Defined {
                id,
                fingerprint: id,
            })
            .unwrap();
        }
        q.apply(&JobEvent::Started { id: 0, attempt: 1 }).unwrap();
        q.apply(&JobEvent::Failed {
            id: 0,
            attempt: 1,
            cause: "boom".into(),
        })
        .unwrap();
        // Job 0 failed, but jobs 1 and 2 have not had a first attempt.
        assert_eq!(q.next_ready(), Some(1));
        q.apply(&JobEvent::Started { id: 1, attempt: 1 }).unwrap();
        assert_eq!(q.next_ready(), Some(2));
        q.apply(&JobEvent::Started { id: 2, attempt: 1 }).unwrap();
        assert_eq!(q.next_ready(), Some(0));
        // A released job is pending again, and goes first.
        q.apply(&JobEvent::Released { id: 2 }).unwrap();
        assert_eq!(q.next_ready(), Some(2));
        assert_eq!(q.job(0).unwrap().attempts, 1);
    }

    #[test]
    fn orphan_release_charges_no_attempt() {
        let mut q = JobQueue::new();
        q.apply(&JobEvent::Defined {
            id: 2,
            fingerprint: 3,
        })
        .unwrap();
        q.apply(&JobEvent::Started { id: 2, attempt: 1 }).unwrap();
        q.apply(&JobEvent::Progress {
            id: 2,
            certified_step: 50,
        })
        .unwrap();
        // `Released` returns the job to `Pending` uncharged, and a
        // restart is then legal again.
        q.apply(&JobEvent::Released { id: 2 }).unwrap();
        let job = q.job(2).unwrap();
        assert_eq!(job.state, JobState::Pending);
        assert_eq!(job.attempts, 0);
        q.apply(&JobEvent::Started { id: 2, attempt: 1 }).unwrap();
        // Released from a state with no running attempt is illegal.
        let mut q = JobQueue::new();
        q.apply(&JobEvent::Defined {
            id: 9,
            fingerprint: 1,
        })
        .unwrap();
        assert!(matches!(
            q.apply(&JobEvent::Released { id: 9 }),
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

    #[test]
    fn job_log_replays_every_event_kind_to_an_equal_queue() {
        let path = wal("every_kind");
        let mut log = JobLog::open(&path).unwrap();
        for ev in [define(0, 10), define(1, 11), define(2, 12), define(0, 10)] {
            log.record(&ev).unwrap();
        }
        assert_eq!(log.start(0).unwrap(), 1);
        log.record(&JobEvent::Progress {
            id: 0,
            certified_step: 20,
        })
        .unwrap();
        assert_eq!(log.finish(0, 1, Ok(vec![7, 8]), 1).unwrap(), JobState::Done);
        log.start(1).unwrap();
        let poison = Err("poison".to_string());
        assert_eq!(log.finish(1, 1, poison, 1).unwrap(), JobState::Quarantined);
        log.start(2).unwrap();
        assert_eq!(log.release_orphans().unwrap(), vec![2]);
        let live = log.queue().clone();
        drop(log);

        // Every event kind is on disk: 4 defines, then started,
        // progress, done, started, failed, quarantined, started, released.
        let back = JobLog::open(&path).unwrap();
        assert_eq!(back.replay().records, 12);
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
            log.record(&JobEvent::Progress {
                id: 4,
                certified_step: 0
            }),
            Err(JobLogError::Queue(QueueError::IllegalTransition { .. }))
        ));
        assert!(matches!(
            log.finish(4, 1, Ok(vec![]), 3),
            Err(JobLogError::Queue(QueueError::IllegalTransition { .. }))
        ));
        assert!(matches!(
            log.record(&define(4, 2)),
            Err(JobLogError::Queue(QueueError::FingerprintMismatch { .. }))
        ));
        assert!(matches!(
            log.start(5),
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
        log.start(0).unwrap();
        // A payload over the journal's record cap fails the append after
        // the queue accepted the event.
        let huge = vec![0; crate::journal::MAX_RECORD as usize];
        assert!(matches!(
            log.finish(0, 1, Ok(huge), 3),
            Err(JobLogError::Journal(JournalError::RecordTooLarge { .. }))
        ));
        assert!(matches!(
            log.record(&define(1, 1)),
            Err(JobLogError::Closed)
        ));
        drop(log);
        let log = JobLog::open(&path).unwrap();
        assert_eq!(log.replay().records, 2);
        assert_eq!(
            log.queue().job(0).unwrap().state,
            JobState::Running { attempt: 1 }
        );
    }

    #[test]
    fn finish_quarantines_at_exactly_max_attempts() {
        let path = wal("finish");
        let mut log = JobLog::open(&path).unwrap();
        log.record(&define(6, 1)).unwrap();
        for attempt in 1..=3 {
            assert_eq!(log.start(6).unwrap(), attempt);
            let state = log
                .finish(6, attempt, Err(format!("boom {attempt}")), 3)
                .unwrap();
            let expect = if attempt == 3 {
                JobState::Quarantined
            } else {
                JobState::Failed
            };
            assert_eq!(state, expect, "attempt {attempt}");
            let job = log.queue().job(6).unwrap();
            assert_eq!(job.attempts, attempt);
            assert_eq!(job.last_cause.as_deref(), Some(&*format!("boom {attempt}")));
        }
        assert_eq!(log.queue().stats().total_failures, 3);
        assert_eq!(log.queue().next_ready(), None);
        assert!(matches!(
            log.start(6),
            Err(JobLogError::Queue(QueueError::IllegalTransition { .. }))
        ));
        let live = log.queue().clone();
        drop(log);
        assert_eq!(JobLog::open(&path).unwrap().queue(), &live);
    }

    #[test]
    fn release_orphans_returns_running_jobs_to_pending() {
        let path = wal("orphans");
        let mut log = JobLog::open(&path).unwrap();
        for id in 0..3 {
            log.record(&define(id, id)).unwrap();
        }
        // Job 0 is running past a checkpoint, job 1 only started, job 2
        // was never touched.
        log.start(0).unwrap();
        log.record(&JobEvent::Progress {
            id: 0,
            certified_step: 50,
        })
        .unwrap();
        log.start(1).unwrap();
        drop(log);

        let mut log = JobLog::open(&path).unwrap();
        assert_eq!(log.release_orphans().unwrap(), vec![0, 1]);
        let job = log.queue().job(0).unwrap();
        assert_eq!(job.state, JobState::Pending);
        assert_eq!(job.attempts, 0);
        assert_eq!(log.queue().next_ready(), Some(0));
        let live = log.queue().clone();
        drop(log);
        // The releases are journaled: a third open replays them legally.
        let mut log = JobLog::open(&path).unwrap();
        assert_eq!(log.queue(), &live);
        assert_eq!(log.release_orphans().unwrap(), Vec::<u64>::new());
    }

    /// A WAL written before the queue lost its leases and clock holds
    /// records in layouts this version does not read: `Leased` (tag 1),
    /// and `Progress` (tag 3) and `Failed` (tag 5) with a logical-time
    /// field. Opening it is a typed refusal that leaves its bytes alone.
    #[test]
    fn wal_with_retired_layouts_is_refused_untouched() {
        let mut leased = vec![1];
        leased.extend_from_slice(&0u64.to_le_bytes());
        leased.extend_from_slice(&1u32.to_le_bytes());
        leased.extend_from_slice(&10_000u64.to_le_bytes());
        let mut progress = vec![3];
        progress.extend_from_slice(&0u64.to_le_bytes());
        progress.extend_from_slice(&10u64.to_le_bytes());
        progress.extend_from_slice(&10_010u64.to_le_bytes());
        let mut failed = vec![5];
        failed.extend_from_slice(&0u64.to_le_bytes());
        failed.extend_from_slice(&1u32.to_le_bytes());
        failed.extend_from_slice(&1_500u64.to_le_bytes());
        failed.extend_from_slice(&4u32.to_le_bytes());
        failed.extend_from_slice(b"boom");
        for (name, old) in [
            ("leased", leased),
            ("progress", progress),
            ("failed", failed),
        ] {
            let path = wal(&format!("retired_{name}"));
            let mut j = Journal::create(&path).unwrap();
            j.append(&define(0, 1).encode()).unwrap();
            j.append(&JobEvent::Started { id: 0, attempt: 1 }.encode())
                .unwrap();
            j.append(&old).unwrap();
            drop(j);
            let before = std::fs::read(&path).unwrap();
            assert!(
                matches!(
                    JobLog::open(&path),
                    Err(JobLogError::Queue(QueueError::Malformed(_)))
                ),
                "{name}: a retired layout must be refused"
            );
            assert_eq!(std::fs::read(&path).unwrap(), before, "{name}: bytes");
        }
    }
}
