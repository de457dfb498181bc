//! The transport seam between [`Comm`](crate::Comm)'s typed, fault-aware
//! surface and the bytes (or boxed values) that actually move.
//!
//! `Comm` owns everything transport-independent — tag matching, per-tag
//! FIFO dedup, epochs, fault injection, collectives, the recovery
//! rendezvous — and delegates raw packet movement to a `Transport`:
//!
//! * `LocalTransport`: the original in-process substrate. Ranks are
//!   threads, packets ride per-pair lock-free channels as boxed values
//!   (no serialization), and a closed channel means the peer thread is
//!   gone forever.
//! * [`SocketTransport`](crate::socket::SocketTransport): ranks are OS
//!   processes, packets are CRC-framed byte messages on Unix-domain
//!   streams, and a dead peer may *come back* (a respawned process
//!   re-binds the rank's endpoint), which changes how the recovery
//!   rendezvous treats send failures.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::comm::CommError;

/// Which substrate a configured world runs over — the value of the
/// `transport = local|socket` deck global, shared vocabulary for every
/// launcher (vpic-run, the campaign runtime, the sweep scheduler).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process: ranks are threads, payloads move as boxed values.
    #[default]
    Local,
    /// Real sockets: ranks are threads or processes, payloads move as
    /// CRC-framed bytes over Unix-domain streams.
    Socket,
}

impl TransportKind {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "local" => Some(TransportKind::Local),
            "socket" => Some(TransportKind::Socket),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            TransportKind::Local => "local",
            TransportKind::Socket => "socket",
        }
    }
}

/// A message payload in whichever representation the transport moves.
pub(crate) enum Payload {
    /// Boxed value (in-process transport; zero-copy, no serialization).
    Local(Box<dyn Any + Send>),
    /// Serialized bytes plus the sender's type fingerprint (byte-oriented
    /// transports; see [`crate::wire`]). The value's encoding is
    /// `buf[start..]`; `buf[..start]` belongs to the transport's framing —
    /// the [`FrameRoom`] it asked for on the way out, the packet header it
    /// read on the way in — so the value is never copied to add or strip
    /// a frame.
    Bytes { fp: u64, buf: Vec<u8>, start: usize },
}

/// Space a byte-oriented transport wants around a serialized value so it
/// can frame the message in place: `head` bytes in front (present in the
/// buffer, contents ignored), capacity for `tail` more behind.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FrameRoom {
    pub head: usize,
    pub tail: usize,
}

/// The unit of transfer: epoch/tag/seq envelope plus payload. Identical
/// semantics on every transport; only the payload representation differs.
pub(crate) struct Packet {
    pub epoch: u64,
    pub tag: u64,
    /// Per-(sender, tag, epoch) sequence number, 1-based. Injected
    /// duplicates reuse their original's number so the receiver can
    /// suppress the copy instead of desyncing per-tag FIFO order.
    pub seq: u64,
    #[allow(dead_code)]
    pub nbytes: usize,
    pub corrupt: bool,
    pub payload: Payload,
}

/// Why a receive produced nothing.
pub(crate) enum RecvError {
    /// Nothing arrived in time; the peer may be alive but slow.
    Timeout,
    /// The peer is positively gone (closed channel / failed heartbeat).
    Closed,
}

/// Raw packet movement for one rank's seat in the world. Everything above
/// this trait (matching, dedup, epochs, faults, collectives, recovery) is
/// transport-independent.
pub(crate) trait Transport: Send {
    fn rank(&self) -> usize;
    fn size(&self) -> usize;

    /// `Some` when payloads must be serialized ([`Payload::Bytes`], laid
    /// out with this much room) rather than boxed ([`Payload::Local`]).
    fn frame_room(&self) -> Option<FrameRoom> {
        None
    }

    /// Deliver one packet to `to` (no fault injection, no counting —
    /// both happen above).
    fn send(&mut self, to: usize, pkt: Packet) -> Result<(), CommError>;

    /// Wait up to `timeout` for the next packet from `from`.
    fn recv_timeout(&mut self, from: usize, timeout: Duration) -> Result<Packet, RecvError>;

    /// Non-blocking: next already-arrived packet from `from`, if any.
    fn try_recv(&mut self, from: usize) -> Option<Packet>;

    /// Account one counted application send (per-pair and per-tag).
    fn count(&self, to: usize, tag: u64, nbytes: u64);

    /// Whether a dead peer can reappear (process respawn). The recovery
    /// rendezvous retries announcements to such peers with backoff instead
    /// of failing fast.
    fn peer_may_return(&self) -> bool {
        false
    }

    /// Newest epoch observed out-of-band (bootstrap handshakes and
    /// heartbeats); lets a rejoining process catch up to the world's
    /// epoch before its first rendezvous. Always 0 for local transports.
    fn observed_epoch(&self) -> u64 {
        0
    }

    /// Publish this rank's current epoch for out-of-band advertisement
    /// (handshake replies, heartbeats). No-op for local transports.
    fn set_epoch(&self, _epoch: u64) {}
}

/// Per-tag traffic totals (counted application sends only, like the rest
/// of the report).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TagTraffic {
    pub tag: u64,
    pub messages: u64,
    pub bytes: u64,
}

/// Traffic counters shared by every rank of one in-process world.
pub(crate) struct Shared {
    pub size: usize,
    /// Channel matrix: `senders[from][to]` (receivers are taken by their
    /// owning rank at startup).
    pub senders: Vec<Vec<Sender<Packet>>>,
    /// bytes[from * size + to]
    pub bytes: Vec<AtomicU64>,
    pub msgs: Vec<AtomicU64>,
    /// tag -> (messages, bytes), application traffic only.
    pub tags: Mutex<HashMap<u64, (u64, u64)>>,
}

impl Shared {
    pub fn new(size: usize, senders: Vec<Vec<Sender<Packet>>>) -> Self {
        Shared {
            size,
            senders,
            bytes: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            msgs: (0..size * size).map(|_| AtomicU64::new(0)).collect(),
            tags: Mutex::new(HashMap::new()),
        }
    }

    /// Per-tag totals sorted by bytes (descending), ties by tag.
    pub fn tag_traffic(&self) -> Vec<TagTraffic> {
        let map = self.tags.lock().unwrap();
        let mut v: Vec<TagTraffic> = map
            .iter()
            .map(|(&tag, &(messages, bytes))| TagTraffic {
                tag,
                messages,
                bytes,
            })
            .collect();
        v.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.tag.cmp(&b.tag)));
        v
    }
}

/// The original in-process substrate: one rank's seat on the shared
/// channel matrix.
pub(crate) struct LocalTransport {
    pub rank: usize,
    pub shared: Arc<Shared>,
    pub receivers: Vec<Receiver<Packet>>,
}

impl Transport for LocalTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn send(&mut self, to: usize, pkt: Packet) -> Result<(), CommError> {
        self.shared.senders[self.rank][to]
            .send(pkt)
            .map_err(|_| CommError::PeerClosed { peer: to })
    }

    fn recv_timeout(&mut self, from: usize, timeout: Duration) -> Result<Packet, RecvError> {
        match self.receivers[from].recv_timeout(timeout) {
            Ok(pkt) => Ok(pkt),
            Err(RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(RecvError::Closed),
        }
    }

    fn try_recv(&mut self, from: usize) -> Option<Packet> {
        self.receivers[from].try_recv().ok()
    }

    fn count(&self, to: usize, tag: u64, nbytes: u64) {
        let idx = self.rank * self.shared.size + to;
        self.shared.bytes[idx].fetch_add(nbytes, Ordering::Relaxed);
        self.shared.msgs[idx].fetch_add(1, Ordering::Relaxed);
        let mut tags = self.shared.tags.lock().unwrap();
        let e = tags.entry(tag).or_insert((0, 0));
        e.0 += 1;
        e.1 += nbytes;
    }
}
