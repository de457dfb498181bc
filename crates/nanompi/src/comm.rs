//! Point-to-point messaging, collectives, traffic instrumentation, and
//! fault-tolerant error handling.
//!
//! Every operation that can be stranded by a dead or misbehaving peer is
//! bounded: receives (and the receive half of every collective) poll with a
//! deadline and return a typed [`CommError`] instead of hanging or aborting
//! the process. Collectives run over the same point-to-point channels as
//! application traffic (their bytes are *not* added to the traffic report,
//! which keeps the report's meaning — application payload volume — identical
//! to the pre-fault-tolerance substrate).
//!
//! Packet movement is delegated to a `Transport`:
//! the in-process channel matrix (`LocalTransport`,
//! boxed values, ranks are threads) or the multi-process socket substrate
//! ([`SocketTransport`](crate::socket::SocketTransport), CRC-framed byte
//! messages, ranks are processes). Everything in this module — tag
//! matching, dedup, epochs, fault injection, collectives, recovery — is
//! transport-independent, which is what lets a fault plan written for the
//! in-process world run unmodified over sockets.
//!
//! Recovery: packets carry an epoch number. [`Comm::recover`] bumps the
//! epoch, drains stale traffic, revives a killed rank and rendezvouses with
//! every other rank, after which the world can resume from a checkpoint in
//! lockstep. The rendezvous is a max-consensus: ranks (re)announce their
//! target epoch, adopt any higher epoch they hear, and finish when every
//! peer has announced the agreed maximum — so a freshly respawned process
//! (which learns the world's epoch from its bootstrap handshake) and
//! long-running survivors converge on one epoch no matter who noticed the
//! failure first. Recovery-protocol messages bypass fault injection; on
//! transports where a dead peer can respawn, announcements are retried
//! with jittered exponential backoff instead of failing fast.
//!
//! Packets additionally carry a per-`(sender, tag)` sequence number and the
//! receiver suppresses replays, so an injected `Duplicate` fault cannot
//! desync the per-tag FIFO that step-periodic tags (ghost exchange,
//! migration) rely on.

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::transport::{LocalTransport, Packet, Payload, RecvError, Shared, TagTraffic, Transport};
use crate::wire::{self, Wire, WireReader};

/// Default bound on how long a receive (or collective) waits for a peer
/// before declaring it dead. Generous for healthy runs; fault-tolerance
/// tests shrink it with [`Comm::set_op_timeout`].
pub const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(10);

/// Recovery rendezvous waits this many op-timeouts for stragglers (ranks
/// detect a fault at different times, bounded by one op timeout each; a
/// killed *process* additionally needs time to respawn and rejoin).
const RECOVERY_TIMEOUT_FACTOR: u32 = 10;

/// Tag namespace for internally-generated collective traffic.
pub(crate) const COLLECTIVE_TAG: u64 = 1 << 63;

/// Tag of the recovery rendezvous protocol.
pub(crate) const RECOVER_TAG: u64 = u64::MAX;

/// Typed communication failure. Every variant is produced within a bounded
/// time; none of the peer-failure paths panic.
#[derive(Debug)]
pub enum CommError {
    /// No matching message arrived before the deadline (dead or wedged
    /// peer, or a dropped message).
    Timeout {
        from: usize,
        tag: u64,
        waited: Duration,
    },
    /// The peer's communicator was torn down (its rank closure returned or
    /// panicked, its process exited, or its heartbeat went silent).
    PeerClosed { peer: usize },
    /// The message arrived but failed its integrity check.
    Corrupt { from: usize, tag: u64 },
    /// This rank was killed by the fault plan at `step`; all communication
    /// fails until [`Comm::recover`] revives it.
    Killed { rank: usize, step: u64 },
    /// The payload type did not match the receive type.
    TypeMismatch { from: usize, tag: u64 },
    /// The recovery rendezvous itself failed (a rank is permanently gone).
    RecoveryFailed { rank: usize, detail: String },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { from, tag, waited } => {
                write!(
                    f,
                    "timed out after {waited:?} waiting for rank {from} (tag {tag:#x})"
                )
            }
            CommError::PeerClosed { peer } => write!(f, "rank {peer} closed its communicator"),
            CommError::Corrupt { from, tag } => {
                write!(f, "corrupt payload from rank {from} (tag {tag:#x})")
            }
            CommError::Killed { rank, step } => {
                write!(f, "rank {rank} killed by fault plan at step {step}")
            }
            CommError::TypeMismatch { from, tag } => {
                write!(f, "payload type mismatch from rank {from} (tag {tag:#x})")
            }
            CommError::RecoveryFailed { rank, detail } => {
                write!(f, "rank {rank} recovery rendezvous failed: {detail}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Per-rank communicator handle.
pub struct Comm {
    transport: Box<dyn Transport>,
    /// Out-of-order messages held per source until their tag is asked for.
    pending: Vec<VecDeque<Packet>>,
    /// Current recovery epoch; packets from older epochs are discarded.
    epoch: u64,
    /// Sequence number for internally-tagged collective operations.
    coll_seq: u64,
    op_timeout: Duration,
    fault: FaultState,
    /// `Some(step)` once the fault plan killed this rank.
    killed: Option<u64>,
    /// Next outgoing sequence number per `(to, tag)` for the current epoch.
    send_seq: HashMap<(usize, u64), u64>,
    /// Newest `(epoch, seq)` accepted per `(from, tag)`; duplicates at or
    /// below it are dropped on receipt.
    recv_seq: HashMap<(usize, u64), (u64, u64)>,
}

/// Aggregate communication statistics for one `run`.
#[derive(Clone, Debug)]
pub struct TrafficReport {
    pub n_ranks: usize,
    pub total_bytes: u64,
    pub total_messages: u64,
    /// `bytes[from][to]`.
    pub bytes: Vec<Vec<u64>>,
    /// `messages[from][to]`.
    pub messages: Vec<Vec<u64>>,
    /// Per-tag totals (counted application traffic), sorted by bytes
    /// descending. Attributes transport volume to the tags that caused it.
    pub by_tag: Vec<TagTraffic>,
}

impl TrafficReport {
    /// Bytes sent by the busiest rank (max over senders).
    pub fn max_rank_bytes(&self) -> u64 {
        self.bytes
            .iter()
            .map(|row| row.iter().sum::<u64>())
            .max()
            .unwrap_or(0)
    }

    /// The `k` heaviest tags by byte volume.
    pub fn top_tags(&self, k: usize) -> &[TagTraffic] {
        &self.by_tag[..self.by_tag.len().min(k)]
    }
}

/// A rank closure that panicked instead of returning.
#[derive(Clone, Debug)]
pub struct RankPanic {
    pub rank: usize,
    pub message: String,
}

impl std::fmt::Display for RankPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

impl std::error::Error for RankPanic {}

/// Spawn `n` ranks, run `f` on each, and return the per-rank results plus
/// the traffic report. A panicking rank yields `Err(RankPanic)` for its
/// slot instead of aborting the whole run — its peers see bounded
/// [`CommError`]s rather than a deadlock.
pub fn run<R, F>(n: usize, f: F) -> (Vec<Result<R, RankPanic>>, TrafficReport)
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    run_with_faults(n, None, f)
}

/// [`run`], but unwrapping the per-rank results: any rank panic is
/// propagated (resumed) on the caller thread. Convenience for tests,
/// examples and benches where a rank failure should fail the run.
pub fn run_expect<R, F>(n: usize, f: F) -> (Vec<R>, TrafficReport)
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    let (results, traffic) = run(n, f);
    let results = results
        .into_iter()
        .map(|r| match r {
            Ok(v) => v,
            Err(p) => panic!("{p}"),
        })
        .collect();
    (results, traffic)
}

/// Worker-thread lanes each rank of an `n`-rank thread-per-rank world
/// gets: an equal share of the spawning thread's budget
/// (`rayon::current_num_threads()`), at least 1. Ranks already are the
/// world's parallelism; letting each also fan out over the whole pool
/// would oversubscribe the host `n`-fold. With as many ranks as cores
/// every rank gets 1 lane and its step loop never leaves the rank thread.
pub(crate) fn lanes_per_rank(n: usize) -> usize {
    (rayon::current_num_threads() / n).max(1)
}

/// Run a rank's closure with its parallel regions limited to `lanes`
/// threads (thread-locals do not cross `spawn`, so every rank thread sets
/// its own width).
pub(crate) fn on_rank_lanes<R: Send>(lanes: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(lanes)
        .build()
        .expect("building a pool fails only if the OS refuses its threads")
        .install(f)
}

/// [`run`] with an optional fault-injection plan threaded through every
/// rank's communicator. Each rank of a wider world gets a thread of its own
/// and `lanes_per_rank` worker-thread lanes.
///
/// A 1-rank world runs `f` on the calling thread instead, at the caller's
/// width: it has nobody to share the budget with, and a thread of its own
/// would cost a fresh malloc arena and, when the caller is itself one part
/// of a parallel region (the sweep runs its points that way), re-open a
/// wide region the nested-region rule would otherwise run inline. A panic
/// in `f` is still reported as `RankPanic { rank: 0 }`.
pub fn run_with_faults<R, F>(
    n: usize,
    plan: Option<FaultPlan>,
    f: F,
) -> (Vec<Result<R, RankPanic>>, TrafficReport)
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    assert!(n >= 1, "need at least one rank");
    let plan = plan.map(Arc::new);
    let mut senders: Vec<Vec<Sender<Packet>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    let mut receivers: Vec<Vec<Receiver<Packet>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
    for to_slot in receivers.iter_mut() {
        for from_slot in senders.iter_mut() {
            let (tx, rx) = channel();
            to_slot.push(rx);
            from_slot.push(tx);
        }
    }
    // senders[from] gets its `to`-th element in outer-loop order, so
    // senders[from][to] is already correct.
    let shared = Arc::new(Shared::new(n, senders));

    if n == 1 {
        let transport = LocalTransport {
            rank: 0,
            shared: Arc::clone(&shared),
            receivers: receivers.pop().expect("one receiver set"),
        };
        let mut comm = Comm::from_transport(Box::new(transport), plan);
        let result =
            panic::catch_unwind(AssertUnwindSafe(|| f(&mut comm))).map_err(|payload| RankPanic {
                rank: 0,
                message: panic_message(payload.as_ref()),
            });
        return (vec![result], report_from_shared(&shared));
    }

    let mut receiver_slots: Vec<Option<Vec<Receiver<Packet>>>> =
        receivers.into_iter().map(Some).collect();

    let lanes = lanes_per_rank(n);
    let results: Vec<Result<R, RankPanic>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (rank, slot) in receiver_slots.iter_mut().enumerate() {
            let shared = Arc::clone(&shared);
            let rx = slot.take().expect("receiver set");
            let plan = plan.clone();
            let f = &f;
            handles.push(scope.spawn(move || {
                on_rank_lanes(lanes, || {
                    let transport = LocalTransport {
                        rank,
                        shared,
                        receivers: rx,
                    };
                    let mut comm = Comm::from_transport(Box::new(transport), plan);
                    f(&mut comm)
                })
            }));
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| {
                h.join().map_err(|payload| RankPanic {
                    rank,
                    message: panic_message(payload.as_ref()),
                })
            })
            .collect()
    });

    (results, report_from_shared(&shared))
}

pub(crate) fn report_from_shared(shared: &Shared) -> TrafficReport {
    use std::sync::atomic::Ordering;
    let n = shared.size;
    let n2 = |v: &[std::sync::atomic::AtomicU64]| -> Vec<Vec<u64>> {
        (0..n)
            .map(|from| {
                (0..n)
                    .map(|to| v[from * n + to].load(Ordering::Relaxed))
                    .collect()
            })
            .collect()
    };
    let bytes = n2(&shared.bytes);
    let messages = n2(&shared.msgs);
    TrafficReport {
        n_ranks: n,
        total_bytes: bytes.iter().flatten().sum(),
        total_messages: messages.iter().flatten().sum(),
        bytes,
        messages,
        by_tag: shared.tag_traffic(),
    }
}

pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Comm {
    /// Wrap a transport seat in a full communicator (fresh epoch, no
    /// pending traffic). Entry point for every transport backend.
    pub(crate) fn from_transport(
        transport: Box<dyn Transport>,
        plan: Option<Arc<FaultPlan>>,
    ) -> Comm {
        let rank = transport.rank();
        let n = transport.size();
        transport.set_epoch(0);
        Comm {
            transport,
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            epoch: 0,
            coll_seq: 0,
            op_timeout: DEFAULT_OP_TIMEOUT,
            fault: FaultState::new(plan, rank),
            killed: None,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
        }
    }

    /// This rank's id.
    #[inline]
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Number of ranks.
    #[inline]
    pub fn size(&self) -> usize {
        self.transport.size()
    }

    /// Bound on how long receives and collectives wait for a peer.
    pub fn set_op_timeout(&mut self, timeout: Duration) {
        self.op_timeout = timeout;
    }

    /// Current op timeout.
    pub fn op_timeout(&self) -> Duration {
        self.op_timeout
    }

    /// Current recovery epoch (0 until the first recovery).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advance the fault-injection clock to campaign step `step` and apply
    /// any due kill rule. Call once per campaign step; a killed rank gets
    /// `Err(Killed)` here (and on every later operation until revived).
    pub fn tick(&mut self, step: u64) -> Result<(), CommError> {
        if self.killed.is_none() && self.fault.kill_due(step) {
            self.killed = Some(step);
        }
        self.fault.set_step(step);
        self.check_alive()
    }

    fn check_alive(&self) -> Result<(), CommError> {
        match self.killed {
            Some(step) => Err(CommError::Killed {
                rank: self.rank(),
                step,
            }),
            None => Ok(()),
        }
    }

    /// Send `msg` to rank `to` with `tag`. Counts `size_of::<T>()` bytes;
    /// use [`Comm::send_vec`] for containers so the payload is counted.
    pub fn send<T: Wire>(&mut self, to: usize, tag: u64, msg: T) -> Result<(), CommError> {
        self.send_impl(to, tag, std::mem::size_of::<T>(), msg, true)
    }

    /// Send a `Vec<T>`, counting `len·size_of::<T>()` payload bytes.
    pub fn send_vec<T: Wire>(&mut self, to: usize, tag: u64, msg: Vec<T>) -> Result<(), CommError> {
        let nbytes = msg.len() * std::mem::size_of::<T>();
        self.send_impl(to, tag, nbytes, msg, true)
    }

    /// The payload in whichever representation this transport moves: the
    /// value itself, boxed, or its wire encoding in a buffer sized once
    /// for the transport's framing (`nbytes`, the counted payload size, is
    /// exact for the `Vec`s of fixed-width elements that carry the bulk
    /// traffic and a harmless hint for everything else).
    fn make_payload<T: Wire>(&self, msg: T, nbytes: usize) -> Payload {
        match self.transport.frame_room() {
            Some(room) => {
                let mut buf = Vec::with_capacity(room.head + 8 + nbytes + room.tail);
                buf.resize(room.head, 0);
                msg.wire_put(&mut buf);
                Payload::Bytes {
                    fp: wire::type_fp::<T>(),
                    buf,
                    start: room.head,
                }
            }
            None => Payload::Local(Box::new(msg)),
        }
    }

    /// The application-traffic send path: subject to fault injection,
    /// counted when `counted`.
    fn send_impl<T: Wire>(
        &mut self,
        to: usize,
        tag: u64,
        nbytes: usize,
        msg: T,
        counted: bool,
    ) -> Result<(), CommError> {
        self.check_alive()?;
        assert!(to < self.size(), "rank {to} out of range");
        let fate = self.fault.on_send();
        if counted {
            // Count the send attempt once, whatever the network does to it.
            self.transport.count(to, tag, nbytes as u64);
        }
        let seq = {
            let c = self.send_seq.entry((to, tag)).or_insert(0);
            *c += 1;
            *c
        };
        if self.fault.partitioned(to) {
            // Frame-level network partition: the link is cut, the message
            // silently vanishes (the receiver times out, like Drop).
            return Ok(());
        }
        let corrupt = match fate {
            Some(FaultKind::Drop) => return Ok(()),
            Some(FaultKind::Duplicate) => {
                // Both copies share one sequence number; the receiver's
                // dedup admits exactly one. The extra copy is the network's
                // doing, not the sender's: if it was the peer's last
                // expected message the peer may be gone by the time the
                // copy lands, and that must not fail the real send.
                let copy = self.make_payload(msg.clone(), nbytes);
                self.deliver(to, tag, seq, nbytes, false, copy)?;
                let payload = self.make_payload(msg, nbytes);
                let _ = self.deliver(to, tag, seq, nbytes, false, payload);
                return Ok(());
            }
            Some(FaultKind::Delay(d)) => {
                std::thread::sleep(d);
                false
            }
            Some(FaultKind::Corrupt) => true,
            Some(FaultKind::Kill) | None => false,
        };
        let payload = self.make_payload(msg, nbytes);
        self.deliver(to, tag, seq, nbytes, corrupt, payload)
    }

    /// Raw transport delivery (no fault injection, no counting).
    fn deliver(
        &mut self,
        to: usize,
        tag: u64,
        seq: u64,
        nbytes: usize,
        corrupt: bool,
        payload: Payload,
    ) -> Result<(), CommError> {
        let pkt = Packet {
            epoch: self.epoch,
            tag,
            seq,
            nbytes,
            corrupt,
            payload,
        };
        self.transport.send(to, pkt)
    }

    /// Transport-level duplicate suppression. Application tags are reused
    /// every step (ghost exchange, migration), so an injected duplicate
    /// would otherwise sit in the per-tag FIFO and silently desync every
    /// later step. Returns `false` when the packet is a replay of one
    /// already accepted for this `(from, tag)` in its epoch.
    fn admit(&mut self, from: usize, pkt: &Packet) -> bool {
        if pkt.tag == RECOVER_TAG {
            // Recovery announcements bypass injection and are idempotent
            // (the rendezvous folds them with max); nothing to dedup.
            return true;
        }
        match self.recv_seq.entry((from, pkt.tag)) {
            Entry::Occupied(mut e) => {
                let (epoch, last) = *e.get();
                if pkt.epoch == epoch {
                    if pkt.seq <= last {
                        return false;
                    }
                    e.insert((epoch, pkt.seq));
                    true
                } else if pkt.epoch > epoch {
                    e.insert((pkt.epoch, pkt.seq));
                    true
                } else {
                    // Stale epoch: the epoch filter discards it anyway.
                    true
                }
            }
            Entry::Vacant(v) => {
                v.insert((pkt.epoch, pkt.seq));
                true
            }
        }
    }

    fn unpack<T: Wire>(&self, pkt: Packet, from: usize) -> Result<T, CommError> {
        if pkt.corrupt {
            return Err(CommError::Corrupt { from, tag: pkt.tag });
        }
        let tag = pkt.tag;
        match pkt.payload {
            Payload::Local(b) => b
                .downcast::<T>()
                .map(|b| *b)
                .map_err(|_| CommError::TypeMismatch { from, tag }),
            Payload::Bytes { fp, buf, start } => {
                if fp != wire::type_fp::<T>() {
                    return Err(CommError::TypeMismatch { from, tag });
                }
                let mut r = WireReader::new(&buf[start..]);
                match T::wire_get(&mut r) {
                    Some(v) if r.done() => Ok(v),
                    // The fingerprint matched but the bytes didn't decode:
                    // the payload was damaged in transit.
                    _ => Err(CommError::Corrupt { from, tag }),
                }
            }
        }
    }

    /// Pull a matching current-epoch packet out of the pending buffer,
    /// discarding stale-epoch packets along the way.
    fn take_pending(&mut self, from: usize, tag: u64) -> Option<Packet> {
        let epoch = self.epoch;
        self.pending[from].retain(|p| p.epoch >= epoch);
        let pos = self.pending[from]
            .iter()
            .position(|p| p.tag == tag && p.epoch == epoch)?;
        self.pending[from].remove(pos)
    }

    /// Blocking receive of a `T` sent from `from` with `tag`, bounded by
    /// the op timeout. Messages from the same source with other tags are
    /// buffered, preserving per-tag FIFO order.
    pub fn recv<T: Wire>(&mut self, from: usize, tag: u64) -> Result<T, CommError> {
        let deadline = Instant::now() + self.op_timeout;
        self.recv_deadline(from, tag, deadline)
    }

    /// [`Comm::recv`] with an explicit deadline. A deadline already in the
    /// past returns [`CommError::Timeout`] immediately (after checking the
    /// pending buffer) — it never performs a blocking poll cycle.
    pub fn recv_deadline<T: Wire>(
        &mut self,
        from: usize,
        tag: u64,
        deadline: Instant,
    ) -> Result<T, CommError> {
        self.check_alive()?;
        assert!(from < self.size(), "rank {from} out of range");
        if let Some(pkt) = self.take_pending(from, tag) {
            return self.unpack(pkt, from);
        }
        let started = Instant::now();
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout {
                    from,
                    tag,
                    waited: now - started,
                });
            }
            match self.transport.recv_timeout(from, deadline - now) {
                Ok(pkt) => {
                    if pkt.epoch < self.epoch {
                        continue; // stale traffic from before a recovery
                    }
                    if !self.admit(from, &pkt) {
                        continue; // injected duplicate
                    }
                    if pkt.tag == tag && pkt.epoch == self.epoch {
                        return self.unpack(pkt, from);
                    }
                    self.pending[from].push_back(pkt);
                }
                Err(RecvError::Timeout) => {
                    return Err(CommError::Timeout {
                        from,
                        tag,
                        waited: started.elapsed(),
                    });
                }
                Err(RecvError::Closed) => {
                    return Err(CommError::PeerClosed { peer: from });
                }
            }
        }
    }

    /// Non-blocking receive; `Ok(None)` when no matching message has
    /// arrived yet.
    pub fn try_recv<T: Wire>(&mut self, from: usize, tag: u64) -> Result<Option<T>, CommError> {
        self.check_alive()?;
        assert!(from < self.size(), "rank {from} out of range");
        if let Some(pkt) = self.take_pending(from, tag) {
            return self.unpack(pkt, from).map(Some);
        }
        while let Some(pkt) = self.transport.try_recv(from) {
            if pkt.epoch < self.epoch {
                continue;
            }
            if !self.admit(from, &pkt) {
                continue;
            }
            if pkt.tag == tag && pkt.epoch == self.epoch {
                return self.unpack(pkt, from).map(Some);
            }
            self.pending[from].push_back(pkt);
        }
        Ok(None)
    }

    fn next_collective_tag(&mut self) -> u64 {
        let tag = COLLECTIVE_TAG | self.coll_seq;
        self.coll_seq += 1;
        tag
    }

    /// Synchronize all ranks (bounded; a dead rank turns this into a typed
    /// error instead of a deadlock).
    pub fn barrier(&mut self) -> Result<(), CommError> {
        self.allgather(0u8).map(|_| ())
    }

    /// Gather one value from every rank (returned in rank order). Runs over
    /// point-to-point channels; collective bytes are not added to the
    /// traffic report.
    pub fn allgather<T: Wire>(&mut self, v: T) -> Result<Vec<T>, CommError> {
        self.check_alive()?;
        let n = self.size();
        if n == 1 {
            return Ok(vec![v]);
        }
        let tag = self.next_collective_tag();
        for to in 0..n {
            if to != self.rank() {
                self.send_impl(to, tag, std::mem::size_of::<T>(), v.clone(), false)?;
            }
        }
        let deadline = Instant::now() + self.op_timeout;
        let mut out = Vec::with_capacity(n);
        for from in 0..n {
            if from == self.rank() {
                out.push(v.clone());
            } else {
                out.push(self.recv_deadline(from, tag, deadline)?);
            }
        }
        Ok(out)
    }

    /// Sum an `f64` across all ranks.
    pub fn allreduce_sum(&mut self, v: f64) -> Result<f64, CommError> {
        Ok(self.allgather(v)?.into_iter().sum())
    }

    /// Element-wise sum of `f64` vectors across all ranks (all must have
    /// the same length).
    pub fn allreduce_sum_vec(&mut self, v: Vec<f64>) -> Result<Vec<f64>, CommError> {
        let len = v.len();
        let all = self.allgather(v)?;
        let mut out = vec![0.0f64; len];
        for contrib in &all {
            assert_eq!(contrib.len(), len, "allreduce length mismatch");
            for (o, c) in out.iter_mut().zip(contrib) {
                *o += c;
            }
        }
        Ok(out)
    }

    /// Sum a `u64` across all ranks.
    pub fn allreduce_sum_u64(&mut self, v: u64) -> Result<u64, CommError> {
        Ok(self.allgather(v)?.into_iter().sum())
    }

    /// Move to `epoch`: reset per-epoch sequence state and advertise the
    /// new epoch to the transport (handshakes/heartbeats carry it).
    fn adopt_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.coll_seq = 0;
        self.send_seq.clear();
        self.transport.set_epoch(epoch);
    }

    /// Send one recovery announcement (bypasses fault injection).
    fn announce(&mut self, to: usize) -> Result<(), CommError> {
        let payload = self.make_payload(self.epoch, 8);
        self.deliver(to, RECOVER_TAG, 1, 8, false, payload)
    }

    /// The epoch value carried by a recovery announcement, whatever its
    /// payload representation.
    fn announcement_epoch(pkt: &Packet) -> Option<u64> {
        match &pkt.payload {
            Payload::Local(b) => b.downcast_ref::<u64>().copied(),
            Payload::Bytes { buf, start, .. } => {
                u64::wire_get(&mut WireReader::new(&buf[*start..]))
            }
        }
    }

    /// Next recovery announcement from anyone: pending buffers first, then
    /// a non-blocking drain of every source (buffering application packets
    /// from ranks already running a newer epoch), then a short sleep.
    fn poll_announcements(&mut self, slice: Duration) -> Option<(usize, u64)> {
        let n = self.size();
        for from in 0..n {
            if let Some(pos) = self.pending[from].iter().position(|p| p.tag == RECOVER_TAG) {
                let pkt = self.pending[from].remove(pos).unwrap();
                if let Some(ep) = Self::announcement_epoch(&pkt) {
                    return Some((from, ep));
                }
            }
        }
        for from in 0..n {
            if from == self.rank() {
                continue;
            }
            while let Some(pkt) = self.transport.try_recv(from) {
                if pkt.tag == RECOVER_TAG {
                    if let Some(ep) = Self::announcement_epoch(&pkt) {
                        return Some((from, ep));
                    }
                } else if pkt.epoch >= self.epoch && self.admit(from, &pkt) {
                    self.pending[from].push_back(pkt);
                }
            }
        }
        std::thread::sleep(slice);
        None
    }

    /// Tear down this epoch and rendezvous with every rank for a rollback:
    /// revives a killed rank, bumps the epoch (so in-flight traffic from
    /// the aborted epoch is discarded on receipt), drains stale queues, and
    /// waits — generously, but boundedly — for every other rank to arrive
    /// at the same epoch. Returns the new epoch.
    ///
    /// The rendezvous is a max-consensus: every rank announces its target
    /// epoch (one more than the newest epoch it knows, including epochs
    /// learned out-of-band from the transport's bootstrap handshake),
    /// adopts and re-announces any higher epoch it hears, and finishes
    /// when every peer has announced the agreed maximum. On transports
    /// where a dead peer can respawn, announcements that fail to send are
    /// retried with jittered exponential backoff until the rendezvous
    /// deadline; on the in-process transport a closed peer is permanent
    /// and the rendezvous fails fast.
    ///
    /// Recovery messages bypass fault injection: the substrate models a
    /// hardened control channel.
    pub fn recover(&mut self) -> Result<u64, CommError> {
        self.killed = None;
        // A rejoining process starts at epoch 0 but has heard the world's
        // real epoch via its bootstrap handshake; catch up before bumping.
        let known = self.epoch.max(self.transport.observed_epoch());
        self.adopt_epoch(known + 1);
        let n = self.size();
        let epoch = self.epoch;
        // Drain everything from dead epochs; keep packets that already
        // carry the new epoch (ranks that entered recovery before us) and
        // every buffered announcement (a peer that announced while we were
        // still inside a collective must not have to announce twice).
        for from in 0..n {
            self.pending[from].retain(|p| p.tag == RECOVER_TAG || p.epoch >= epoch);
            while let Some(pkt) = self.transport.try_recv(from) {
                if pkt.tag == RECOVER_TAG || (pkt.epoch >= epoch && self.admit(from, &pkt)) {
                    self.pending[from].push_back(pkt);
                }
            }
        }
        if n == 1 {
            return Ok(epoch);
        }
        let me = self.rank();
        let fail = move |detail: String| CommError::RecoveryFailed { rank: me, detail };
        let retry_sends = self.transport.peer_may_return();
        let deadline = Instant::now() + self.op_timeout * RECOVERY_TIMEOUT_FACTOR;
        // Per-peer: the newest epoch heard, the epoch last successfully
        // announced, and retry/backoff state for failed announcements.
        let mut latest = vec![0u64; n];
        let mut announced = vec![0u64; n];
        let mut attempt = vec![0u32; n];
        let mut next_try = vec![Instant::now(); n];
        let backoff_seed = 0x7ECA_11ED_u64 ^ ((me as u64) << 32);
        let mut last_blast = Instant::now();
        loop {
            if retry_sends && last_blast.elapsed() >= Duration::from_millis(250) {
                // A socket write can "succeed" into a peer that dies before
                // reading it; announcements are idempotent (folded with
                // max), so periodically re-blast instead of trusting a
                // successful write as delivery.
                announced.fill(0);
                last_blast = Instant::now();
            }
            for to in 0..n {
                if to == me || announced[to] == self.epoch || Instant::now() < next_try[to] {
                    continue;
                }
                match self.announce(to) {
                    Ok(()) => {
                        announced[to] = self.epoch;
                        attempt[to] = 0;
                    }
                    Err(e) if retry_sends => {
                        // The peer process may be respawning; back off and
                        // try its (re-bound) endpoint again.
                        let _ = e;
                        next_try[to] = Instant::now()
                            + wire::backoff(
                                attempt[to],
                                Duration::from_millis(20),
                                Duration::from_millis(500),
                                backoff_seed ^ to as u64,
                            );
                        attempt[to] = attempt[to].saturating_add(1);
                    }
                    Err(e) => {
                        // In-process peers cannot come back: fail fast.
                        return Err(fail(format!(
                            "announcing epoch {} to rank {to}: {e}",
                            self.epoch
                        )));
                    }
                }
            }
            if (0..n).all(|p| p == me || latest[p] == self.epoch) {
                return Ok(self.epoch);
            }
            if Instant::now() >= deadline {
                let missing = (0..n)
                    .filter(|&p| p != me && latest[p] != self.epoch)
                    .collect::<Vec<_>>();
                return Err(fail(format!(
                    "waiting for ranks {missing:?} to rejoin epoch {}: timed out after {:?}",
                    self.epoch,
                    self.op_timeout * RECOVERY_TIMEOUT_FACTOR
                )));
            }
            if let Some((from, ep)) = self.poll_announcements(Duration::from_millis(2)) {
                latest[from] = latest[from].max(ep);
                if ep > self.epoch {
                    // Someone is ahead (heard a newer failure, or a
                    // rejoiner that caught up past us): adopt the higher
                    // epoch; the `announced` check re-announces it.
                    self.adopt_epoch(ep);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass() {
        let (results, traffic) = run_expect(5, |c| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.send(right, 1, c.rank()).unwrap();
            let got: usize = c.recv(left, 1).unwrap();
            got
        });
        for (rank, got) in results.iter().enumerate() {
            assert_eq!(*got, (rank + 4) % 5);
        }
        assert_eq!(traffic.total_messages, 5);
        assert_eq!(traffic.total_bytes, 5 * 8);
        assert_eq!(traffic.bytes[0][1], 8);
        assert_eq!(traffic.bytes[0][2], 0);
    }

    #[test]
    fn per_tag_counters_attribute_traffic() {
        let (_, traffic) = run_expect(2, |c| {
            if c.rank() == 0 {
                c.send_vec(1, 7, vec![0f32; 100]).unwrap(); // 400 bytes
                c.send(1, 9, 1u64).unwrap(); // 8 bytes
                c.send(1, 9, 2u64).unwrap(); // 8 bytes
            } else {
                let _: Vec<f32> = c.recv(0, 7).unwrap();
                let _: u64 = c.recv(0, 9).unwrap();
                let _: u64 = c.recv(0, 9).unwrap();
            }
        });
        assert_eq!(
            traffic.by_tag,
            vec![
                TagTraffic {
                    tag: 7,
                    messages: 1,
                    bytes: 400
                },
                TagTraffic {
                    tag: 9,
                    messages: 2,
                    bytes: 16
                },
            ]
        );
        assert_eq!(traffic.top_tags(1).len(), 1);
        assert_eq!(traffic.top_tags(1)[0].tag, 7);
        // Collectives stay uncounted, per the report's contract.
        let (_, t2) = run_expect(2, |c| {
            c.barrier().unwrap();
        });
        assert!(t2.by_tag.is_empty());
    }

    #[test]
    fn tag_matching_out_of_order() {
        let (results, _) = run_expect(2, |c| {
            if c.rank() == 0 {
                c.send(1, 10, "first".to_string()).unwrap();
                c.send(1, 20, "second".to_string()).unwrap();
                0
            } else {
                // Ask for tag 20 before tag 10.
                let b: String = c.recv(0, 20).unwrap();
                let a: String = c.recv(0, 10).unwrap();
                assert_eq!(a, "first");
                assert_eq!(b, "second");
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn vec_payload_counts_bytes() {
        let (_, traffic) = run_expect(2, |c| {
            if c.rank() == 0 {
                c.send_vec(1, 0, vec![0f32; 100]).unwrap();
            } else {
                let v: Vec<f32> = c.recv(0, 0).unwrap();
                assert_eq!(v.len(), 100);
            }
        });
        assert_eq!(traffic.total_bytes, 400);
        assert_eq!(traffic.max_rank_bytes(), 400);
    }

    #[test]
    fn allgather_and_reductions() {
        let (results, _) = run_expect(4, |c| {
            let gathered = c.allgather(c.rank() as u64 * 10).unwrap();
            assert_eq!(gathered, vec![0, 10, 20, 30]);
            let s = c.allreduce_sum(c.rank() as f64).unwrap();
            let v = c.allreduce_sum_vec(vec![1.0, c.rank() as f64]).unwrap();
            let u = c.allreduce_sum_u64(1).unwrap();
            (s, v, u)
        });
        for (s, v, u) in results {
            assert_eq!(s, 6.0);
            assert_eq!(v, vec![4.0, 6.0]);
            assert_eq!(u, 4);
        }
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let (results, _) = run_expect(3, |c| {
            let mut acc = 0.0;
            for round in 0..20 {
                acc += c.allreduce_sum((c.rank() + round) as f64).unwrap();
            }
            acc
        });
        // Σ_round (0+1+2 + 3·round) = 20·3 + 3·190.
        for r in results {
            assert_eq!(r, 60.0 + 570.0);
        }
    }

    #[test]
    fn try_recv_returns_none_then_some() {
        let (results, _) = run_expect(2, |c| {
            if c.rank() == 0 {
                c.barrier().unwrap();
                c.send(1, 5, 42u32).unwrap();
                c.barrier().unwrap();
                c.barrier().unwrap();
                true
            } else {
                assert!(c.try_recv::<u32>(0, 5).unwrap().is_none());
                c.barrier().unwrap();
                c.barrier().unwrap(); // message definitely sent now
                let got = c.try_recv::<u32>(0, 5).unwrap();
                c.barrier().unwrap();
                got == Some(42)
            }
        });
        assert!(results.iter().all(|&b| b));
    }

    #[test]
    fn single_rank_world_works() {
        let (results, traffic) = run_expect(1, |c| {
            assert_eq!(c.size(), 1);
            c.barrier().unwrap();
            c.allreduce_sum(3.0).unwrap()
        });
        assert_eq!(results, vec![3.0]);
        assert_eq!(traffic.total_bytes, 0);
    }

    #[test]
    fn single_rank_world_runs_on_the_caller_at_its_width() {
        let me = std::thread::current().id();
        for width in [1usize, 2, 3] {
            let (results, _) = rayon::ThreadPoolBuilder::new()
                .num_threads(width)
                .build()
                .unwrap()
                .install(|| {
                    run_expect(1, |_| {
                        (std::thread::current().id(), rayon::current_num_threads())
                    })
                });
            assert_eq!(results, vec![(me, width)]);
        }
    }

    #[test]
    fn single_rank_panic_is_a_rank_panic() {
        let (results, _) = run(1, |_| -> u32 { panic!("injected single-rank panic") });
        let p = results[0].as_ref().expect_err("the rank panicked");
        assert_eq!(p.rank, 0);
        assert!(p.message.contains("injected single-rank panic"));
    }

    #[test]
    fn dead_peer_is_a_timeout_not_a_hang() {
        let started = Instant::now();
        let (results, _) = run(2, |c| {
            c.set_op_timeout(Duration::from_millis(100));
            if c.rank() == 0 {
                // Exit immediately without sending.
                return None;
            }
            Some(c.recv::<u32>(0, 7))
        });
        assert!(results[0].as_ref().unwrap().is_none());
        let r1 = results[1].as_ref().unwrap().as_ref().unwrap();
        assert!(
            matches!(r1.as_ref().err(), Some(CommError::Timeout { from: 0, .. })),
            "want timeout, got {r1:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(5), "unbounded wait");
    }

    #[test]
    fn panicking_rank_reported_not_propagated() {
        let (results, _) = run(2, |c| {
            c.set_op_timeout(Duration::from_millis(100));
            if c.rank() == 0 {
                panic!("injected test panic");
            }
            c.recv::<u32>(0, 1)
        });
        let p = results[0].as_ref().expect_err("rank 0 panicked");
        assert_eq!(p.rank, 0);
        assert!(p.message.contains("injected test panic"));
        // Rank 1 got a typed error (timeout or closed), not a deadlock.
        assert!(results[1].as_ref().unwrap().is_err());
    }

    #[test]
    fn type_mismatch_is_typed_error() {
        let (results, _) = run_expect(2, |c| {
            if c.rank() == 0 {
                c.send(1, 3, 1u32).unwrap();
                true
            } else {
                matches!(
                    c.recv::<String>(0, 3),
                    Err(CommError::TypeMismatch { from: 0, tag: 3 })
                )
            }
        });
        assert!(results[1]);
    }

    #[test]
    fn recv_deadline_in_the_past_times_out_immediately() {
        // A deadline that has already passed must not perform a blocking
        // poll cycle: the error comes back in (well under) a millisecond,
        // and a message already in the pending buffer is still served.
        let (results, _) = run_expect(2, |c| {
            if c.rank() == 0 {
                c.send(1, 1, 7u32).unwrap();
                c.barrier().unwrap();
                c.barrier().unwrap();
                true
            } else {
                c.barrier().unwrap();
                c.barrier().unwrap(); // tag-1 message has arrived by now
                let past = Instant::now() - Duration::from_secs(1);
                let t0 = Instant::now();
                let miss = c.recv_deadline::<u32>(0, 99, past);
                let waited = t0.elapsed();
                assert!(
                    matches!(
                        miss,
                        Err(CommError::Timeout {
                            from: 0,
                            tag: 99,
                            ..
                        })
                    ),
                    "want immediate timeout, got {miss:?}"
                );
                assert!(
                    waited < Duration::from_millis(50),
                    "past deadline blocked for {waited:?}"
                );
                // Pending traffic is still delivered even with a past
                // deadline (matching beats the clock).
                let hit: u32 = c.recv_deadline(0, 1, past).unwrap();
                hit == 7
            }
        });
        assert!(results[1]);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn dropped_message_times_out() {
        let plan = FaultPlan::new(1).drop_message(0, 1);
        let (results, _) = run_with_faults(2, Some(plan), |c| {
            c.set_op_timeout(Duration::from_millis(100));
            if c.rank() == 0 {
                c.send(1, 9, 5u32).unwrap();
                true
            } else {
                matches!(
                    c.recv::<u32>(0, 9),
                    Err(CommError::Timeout {
                        from: 0,
                        tag: 9,
                        ..
                    })
                )
            }
        });
        assert!(results[1].as_ref().unwrap());
    }

    #[test]
    fn corrupt_message_detected() {
        let plan = FaultPlan::new(1).corrupt_message(0, 1);
        let (results, _) = run_with_faults(2, Some(plan), |c| {
            if c.rank() == 0 {
                c.send(1, 9, 5u32).unwrap();
                true
            } else {
                matches!(
                    c.recv::<u32>(0, 9),
                    Err(CommError::Corrupt { from: 0, tag: 9 })
                )
            }
        });
        assert!(results[1].as_ref().unwrap());
    }

    #[test]
    fn duplicate_message_suppressed_and_fifo_preserved() {
        // The duplicated copy of the first message must be swallowed by the
        // transport, not delivered as if it were the *next* message on the
        // same tag — step-periodic tags would otherwise desync forever.
        let plan = FaultPlan::new(1).duplicate_message(0, 1);
        let (results, _) = run_with_faults(2, Some(plan), |c| {
            c.set_op_timeout(Duration::from_millis(200));
            if c.rank() == 0 {
                c.send(1, 9, 5u32).unwrap();
                c.send(1, 9, 7u32).unwrap();
                0
            } else {
                let a: u32 = c.recv(0, 9).unwrap();
                let b: u32 = c.recv(0, 9).unwrap();
                assert_eq!((a, b), (5, 7));
                assert!(matches!(
                    c.recv::<u32>(0, 9),
                    Err(CommError::Timeout { .. })
                ));
                1
            }
        });
        assert_eq!(*results[1].as_ref().unwrap(), 1);
    }

    #[test]
    fn failed_delivery_of_the_injected_copy_does_not_fail_the_send() {
        // A duplicated message is delivered twice; when the peer takes the
        // first copy and leaves (it was the last message it expected), the
        // second delivery finds a closed link. That failure belongs to the
        // injected copy — the send itself succeeded. The transport below
        // forces the order a live world only races into: first delivery
        // lands, second is refused.
        struct ClosesAfterOne {
            delivered: bool,
        }
        impl Transport for ClosesAfterOne {
            fn rank(&self) -> usize {
                0
            }
            fn size(&self) -> usize {
                2
            }
            fn send(&mut self, to: usize, _: Packet) -> Result<(), CommError> {
                if std::mem::replace(&mut self.delivered, true) {
                    return Err(CommError::PeerClosed { peer: to });
                }
                Ok(())
            }
            fn recv_timeout(&mut self, _: usize, _: Duration) -> Result<Packet, RecvError> {
                Err(RecvError::Closed)
            }
            fn try_recv(&mut self, _: usize) -> Option<Packet> {
                None
            }
            fn count(&self, _: usize, _: u64, _: u64) {}
        }
        let plan = Arc::new(FaultPlan::new(1).duplicate_message(0, 1));
        let transport = Box::new(ClosesAfterOne { delivered: false });
        let mut c = Comm::from_transport(transport, Some(plan));
        c.send(1, 9, 5u32)
            .expect("the real copy was delivered; the send succeeded");
        // An undelivered *real* message is still the sender's error.
        assert!(matches!(
            c.send(1, 9, 6u32),
            Err(CommError::PeerClosed { peer: 1 })
        ));
    }

    #[test]
    fn delayed_message_arrives_late_but_intact() {
        let delay = Duration::from_millis(50);
        let plan = FaultPlan::new(1).rule(crate::FaultRule {
            rank: 0,
            kind: FaultKind::Delay(delay),
            trigger: crate::Trigger::OnMessage(1),
        });
        let (results, _) = run_with_faults(2, Some(plan), |c| {
            if c.rank() == 0 {
                let t0 = Instant::now();
                c.send(1, 9, 5u32).unwrap();
                // Delay is modeled on the sender: the send call itself blocks.
                t0.elapsed() >= delay
            } else {
                c.recv::<u32>(0, 9).unwrap() == 5
            }
        });
        assert!(results[0].as_ref().unwrap());
        assert!(results[1].as_ref().unwrap());
    }

    #[test]
    fn partitioned_link_drops_frames_both_ways_until_heal() {
        // A partition between ranks 0 and 1 from step 2 until step 4: the
        // cut is symmetric (both directions of the pair), frame-level
        // (receivers just time out), and heals when the window ends.
        let plan = FaultPlan::new(1).partition(0, 1, 2, 4);
        let (results, _) = run_with_faults(2, Some(plan), |c| {
            c.set_op_timeout(Duration::from_millis(100));
            let peer = 1 - c.rank();
            let mut delivered = Vec::new();
            for step in 0..6u64 {
                c.tick(step).unwrap();
                c.send(peer, step, step).unwrap();
                delivered.push(c.recv::<u64>(peer, step).is_ok());
            }
            delivered
        });
        for r in &results {
            assert_eq!(
                r.as_ref().unwrap(),
                &vec![true, true, false, false, true, true]
            );
        }
    }

    #[test]
    fn on_message_kill_fires_at_next_tick() {
        // A count-based kill arms on the matching send and lands at the
        // next tick, like an interrupt taken between steps.
        let plan = FaultPlan::new(1).rule(crate::FaultRule {
            rank: 0,
            kind: FaultKind::Kill,
            trigger: crate::Trigger::OnMessage(2),
        });
        let (results, _) = run_with_faults(2, Some(plan), |c| {
            c.set_op_timeout(Duration::from_millis(100));
            if c.rank() == 0 {
                c.tick(0).unwrap();
                c.send(1, 1, 1u32).unwrap();
                c.send(1, 2, 2u32).unwrap(); // arms the kill; still delivered
                matches!(c.tick(1), Err(CommError::Killed { rank: 0, step: 1 }))
            } else {
                let a: u32 = c.recv(0, 1).unwrap();
                let b: u32 = c.recv(0, 2).unwrap();
                (a, b) == (1, 2)
            }
        });
        assert!(results[0].as_ref().unwrap());
        assert!(results[1].as_ref().unwrap());
    }

    #[test]
    fn single_rank_kill_surfaces_as_killed() {
        let plan = FaultPlan::new(1).kill(0, 2);
        let (results, _) = run_with_faults(1, Some(plan), |c| {
            (0..5u64).find_map(|step| c.tick(step).err())
        });
        assert!(
            matches!(
                results[0].as_ref().unwrap(),
                Some(CommError::Killed { rank: 0, step: 2 })
            ),
            "{results:?}"
        );
    }

    #[test]
    fn killed_rank_errors_and_peers_time_out() {
        let plan = FaultPlan::new(1).kill(0, 3);
        let (results, _) = run_with_faults(2, Some(plan), |c| {
            c.set_op_timeout(Duration::from_millis(100));
            for step in 0..5u64 {
                if let Err(e) = c.tick(step) {
                    return (step, matches!(e, CommError::Killed { rank: 0, step: 3 }));
                }
                if c.rank() == 0 {
                    if c.send(1, step, step).is_err() {
                        return (step, false);
                    }
                } else {
                    match c.recv::<u64>(0, step) {
                        Ok(_) => {}
                        Err(CommError::Timeout { .. }) => return (step, true),
                        Err(_) => return (step, false),
                    }
                }
            }
            (u64::MAX, false)
        });
        // Rank 0 learns it was killed at its step-3 tick; rank 1 times out
        // waiting for step 3 traffic.
        assert_eq!(*results[0].as_ref().unwrap(), (3, true));
        assert_eq!(*results[1].as_ref().unwrap(), (3, true));
    }

    #[test]
    fn recovery_rendezvous_revives_the_world() {
        let plan = FaultPlan::new(1).kill(1, 2);
        let (results, _) = run_with_faults(3, Some(plan), |c| {
            c.set_op_timeout(Duration::from_millis(200));
            let mut recovered = false;
            let mut sum = 0.0;
            let mut step = 0u64;
            while step < 6 {
                let r = c.tick(step).and_then(|_| c.allreduce_sum(c.rank() as f64));
                match r {
                    Ok(s) => {
                        sum = s;
                        step += 1;
                    }
                    Err(_) => {
                        c.recover().unwrap();
                        recovered = true;
                        // Roll back to the "checkpoint" (step 0 here).
                        step = 0;
                    }
                }
            }
            (recovered, sum, c.epoch())
        });
        for r in &results {
            let (recovered, sum, epoch) = r.as_ref().unwrap();
            assert!(*recovered);
            assert_eq!(*sum, 3.0);
            assert_eq!(*epoch, 1);
        }
    }

    #[test]
    fn stale_epoch_traffic_is_discarded() {
        // Rank 0 sends a pre-recovery message that must not be delivered
        // into the post-recovery epoch under the same tag.
        let (results, _) = run_expect(2, |c| {
            c.set_op_timeout(Duration::from_millis(200));
            if c.rank() == 0 {
                c.send(1, 42, 111u32).unwrap(); // epoch-0 traffic
                c.recover().unwrap();
                c.send(1, 42, 222u32).unwrap(); // epoch-1 traffic
                0
            } else {
                c.recover().unwrap();
                c.recv::<u32>(1 - 1, 42).unwrap() as usize
            }
        });
        assert_eq!(results[1], 222);
    }

    #[test]
    fn repeated_recoveries_advance_the_epoch_in_lockstep() {
        // Two full rendezvous back to back; the gate keeps one rank from
        // racing ahead into its second recovery (and thus announcing an
        // epoch the other would adopt mid-rendezvous — legal, but it makes
        // the final epoch nondeterministic).
        let gate = std::sync::Barrier::new(2);
        let (results, _) = run_expect(2, |c| {
            c.set_op_timeout(Duration::from_millis(500));
            let e1 = c.recover().unwrap();
            gate.wait();
            let e2 = c.recover().unwrap();
            (e1, e2, c.epoch())
        });
        for r in results {
            assert_eq!(r, (1, 2, 2));
        }
    }
}
