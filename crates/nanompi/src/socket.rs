//! Multi-process socket transport: ranks are OS processes, packets are
//! CRC-framed byte messages on Unix-domain streams.
//!
//! ## Topology
//!
//! Every rank binds one listening endpoint (`{dir}/rank{r}.sock`) and
//! dials every peer, so each ordered pair has
//! a directional stream: the initiator's stream carries its sends (and its
//! heartbeats); the acceptor, blocked in `accept` until the transport's
//! drop wakes it with a dial of its own endpoint, spawns a reader thread
//! per accepted stream that feeds a persistent per-peer inbox channel. Because the inbox
//! sender is retained across connections, a *re*connect (after a transient
//! error or a process respawn) transparently resumes delivery to the same
//! receiver.
//!
//! ## Framing
//!
//! Same discipline as the WAL journal (`vpic_core::journal`): every frame
//! is `[u32 len][payload][u32 crc32(payload)]`, little-endian, CRC-32
//! (IEEE). The first payload byte is the frame kind (HELLO / HELLO_ACK /
//! DATA / HEARTBEAT). A DATA payload is a 34-byte header — kind, epoch,
//! tag, per-tag sequence number (u64 each after the kind byte), the
//! injected-corruption flag (one byte) and the value's type fingerprint
//! (u64) — followed by the value's wire encoding. It carries no byte
//! count for the ledger: traffic is counted by the sending `Comm`, never
//! on receipt. A DATA frame is assembled in the buffer its value
//! was serialized into (`Comm` leaves `FRAME_ROOM` around it) and leaves
//! in one `write_all`; the reader thread reads it into one allocation
//! that becomes the packet's payload — the value's bytes are written once
//! and read once on each side. A CRC mismatch is stream breakage — the
//! connection is dropped and redialed — whereas an *injected* `Corrupt`
//! fault keeps the frame CRC valid and sets the packet's corrupt flag,
//! mirroring the in-process transport's semantics so fault plans behave
//! identically.
//!
//! ## Bootstrap handshake
//!
//! A dialer opens with HELLO `{version, world_fp, world, from, epoch}`;
//! the acceptor replies HELLO_ACK carrying its own values. The *dialer*
//! validates: version, then world size, then world fingerprint — each
//! mismatch is an immediate typed [`BootstrapError`]. A peer that accepts
//! but never completes the handshake produces
//! [`BootstrapError::HandshakeTimeout`] after the per-attempt handshake
//! deadline; [`connect_all`](SocketTransport::bootstrap) retries
//! slow-starter errors with jittered exponential backoff until the
//! per-peer connect deadline, then surfaces the last typed error.
//!
//! ## Failure detection and recovery
//!
//! Every frame received from a peer (handshakes, heartbeats, data)
//! refreshes its `last_seen` clock; a dedicated thread heartbeats every
//! open outgoing stream. A receive that would block checks staleness: a
//! peer once seen but silent for longer than the failure window is
//! reported `RecvError::Closed`, which `Comm` converts into the same
//! `CommError::PeerClosed` path the campaign driver already escalates
//! through. Dead streams are redialed with backoff on the next send. A
//! `kill -9`'d rank is *adopted* at the process level: the respawned
//! process re-binds the rank's endpoint (stale Unix socket files are
//! unlinked), peers' redials land on it, and its bootstrap handshake
//! hands it the world's current epoch (`observed_epoch`) so the recovery
//! rendezvous converges.

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::comm::{spawn_ranks, Comm, CommError, RankPanic, TrafficReport, TrafficRow};
use crate::fault::FaultPlan;
use crate::transport::{FrameRoom, Packet, Payload, RecvError, Transport};
use crate::wire::{self, crc32, WireReader};

/// Wire protocol version; bumped on any framing, handshake or message-
/// layout change. Both ends of a handshake must match exactly.
///
/// * 1 — one ghost-plane message per field component.
/// * 2 — one per phase, axis and direction (components concatenated); a
///   version-1 peer would mis-size every plane, so it is refused at the
///   handshake.
/// * 3 — the DATA header drops the sender's counted payload size, which
///   no receiver read (traffic is counted by the sending `Comm`); it is
///   34 B, not 42.
pub const WIRE_VERSION: u32 = 3;

const KIND_HELLO: u8 = 1;
const KIND_HELLO_ACK: u8 = 2;
const KIND_DATA: u8 = 3;
const KIND_HEARTBEAT: u8 = 4;

/// Upper bound on a single frame payload; larger lengths mark a broken or
/// hostile stream.
const MAX_FRAME: u32 = 1 << 30;

/// Bytes of a DATA frame's payload in front of the serialized value:
/// kind, epoch, tag, seq, corrupt flag, type fingerprint.
const DATA_HEADER: usize = 1 + 8 + 8 + 8 + 1 + 8;

/// What [`frame_data`] needs around a serialized value: the length prefix
/// and DATA header in front, the CRC behind.
const FRAME_ROOM: FrameRoom = FrameRoom {
    head: 4 + DATA_HEADER,
    tail: 4,
};

/// Where each rank of a socket world listens: Unix-domain sockets
/// `{dir}/rank{r}.sock`.
#[derive(Clone, Debug)]
pub struct SocketAddrSpec {
    dir: PathBuf,
}

impl SocketAddrSpec {
    pub fn unix(dir: impl Into<PathBuf>) -> Self {
        SocketAddrSpec { dir: dir.into() }
    }

    fn addr_of(&self, rank: usize) -> PathBuf {
        self.dir.join(format!("rank{rank}.sock"))
    }
}

/// Everything a process needs to take (or retake) one rank's seat in a
/// socket world.
#[derive(Clone, Debug)]
pub struct SocketBoot {
    pub spec: SocketAddrSpec,
    pub rank: usize,
    pub world: usize,
    /// Protocol version offered in the handshake. Defaults to
    /// [`WIRE_VERSION`]; forgeable so tests can exercise the mismatch path.
    pub version: u32,
    /// Fingerprint of the world's configuration (deck, build, …). Both
    /// ends of a handshake must agree, so two different runs sharing a
    /// socket directory by accident fail loudly instead of exchanging
    /// garbage.
    pub world_fp: u64,
    /// Total budget for establishing (or re-establishing) the connection
    /// to one peer during bootstrap, including handshake retries.
    pub connect_timeout: Duration,
    /// Per-attempt bound on the HELLO/HELLO_ACK exchange.
    pub handshake_timeout: Duration,
    /// How often to heartbeat every open outgoing stream.
    pub heartbeat_interval: Duration,
    /// A peer once seen but silent this long is declared dead.
    pub failure_window: Duration,
}

impl SocketBoot {
    pub fn new(spec: SocketAddrSpec, rank: usize, world: usize) -> Self {
        SocketBoot {
            spec,
            rank,
            world,
            version: WIRE_VERSION,
            world_fp: 0,
            connect_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(2),
            heartbeat_interval: Duration::from_millis(100),
            failure_window: Duration::from_secs(1),
        }
    }
}

/// Why a socket world failed to come up (or a peer failed to rejoin it).
#[derive(Debug)]
pub enum BootstrapError {
    VersionMismatch {
        ours: u32,
        theirs: u32,
    },
    WorldMismatch {
        ours: usize,
        theirs: usize,
    },
    FingerprintMismatch {
        ours: u64,
        theirs: u64,
    },
    /// The peer accepted the connection but never completed the handshake.
    HandshakeTimeout {
        peer: usize,
    },
    Bind {
        addr: String,
        detail: String,
    },
    Connect {
        peer: usize,
        detail: String,
    },
}

impl std::fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootstrapError::VersionMismatch { ours, theirs } => {
                write!(f, "wire version mismatch: ours {ours}, peer {theirs}")
            }
            BootstrapError::WorldMismatch { ours, theirs } => {
                write!(f, "world size mismatch: ours {ours}, peer {theirs}")
            }
            BootstrapError::FingerprintMismatch { ours, theirs } => {
                write!(
                    f,
                    "world fingerprint mismatch: ours {ours:#018x}, peer {theirs:#018x}"
                )
            }
            BootstrapError::HandshakeTimeout { peer } => {
                write!(f, "rank {peer} connected but never completed the handshake")
            }
            BootstrapError::Bind { addr, detail } => {
                write!(f, "binding {addr}: {detail}")
            }
            BootstrapError::Connect { peer, detail } => {
                write!(f, "connecting to rank {peer}: {detail}")
            }
        }
    }
}

impl std::error::Error for BootstrapError {}

/// `[u32 len][payload][u32 crc32(payload)]`, the WAL journal's framing.
/// Handshakes and heartbeats come through here; DATA frames are built in
/// place by [`frame_data`].
fn write_frame(w: &mut UnixStream, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Fill `buf` completely, tolerating read-timeout wakeups so the thread
/// can notice `stop` and enforce `deadline`. `Ok(false)` means stop was
/// requested while no bytes of `buf` had arrived yet (a timeout with a
/// *partial* read keeps waiting: giving up mid-frame would desync the
/// framing). A `deadline` in the past surfaces as `TimedOut`.
fn read_full(
    s: &mut UnixStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    deadline: Option<Instant>,
) -> io::Result<bool> {
    let mut got = 0;
    while got < buf.len() {
        match s.read(&mut buf[got..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if got == 0 && stop.load(Ordering::Relaxed) {
                    return Ok(false);
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    return Err(io::ErrorKind::TimedOut.into());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one CRC-checked frame; `Ok(None)` on orderly stop. A bad length
/// or CRC is `InvalidData` — stream breakage, the caller drops the
/// connection. `deadline` bounds the whole frame (used for handshakes;
/// steady-state readers pass `None` and rely on stop/EOF).
fn read_frame(
    s: &mut UnixStream,
    stop: &AtomicBool,
    deadline: Option<Instant>,
) -> io::Result<Option<Vec<u8>>> {
    let mut head = [0u8; 4];
    if !read_full(s, &mut head, stop, deadline)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(head);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    // Payload and CRC in one buffer, one read in the common case.
    let len = len as usize;
    let mut payload = vec![0u8; len + 4];
    if !read_full(s, &mut payload, stop, deadline)? {
        return Ok(None);
    }
    let crc = u32::from_le_bytes(payload[len..].try_into().expect("4-byte tail"));
    payload.truncate(len);
    if crc != crc32(&payload) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame crc mismatch",
        ));
    }
    Ok(Some(payload))
}

struct Hello {
    version: u32,
    world_fp: u64,
    world: u32,
    from: u32,
    epoch: u64,
}

impl Hello {
    fn encode(&self, kind: u8) -> Vec<u8> {
        let mut out = vec![kind];
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.world_fp.to_le_bytes());
        out.extend_from_slice(&self.world.to_le_bytes());
        out.extend_from_slice(&self.from.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out
    }

    fn decode(body: &mut WireReader<'_>) -> Option<Hello> {
        Some(Hello {
            version: body.u32()?,
            world_fp: body.u64()?,
            world: body.u32()?,
            from: body.u32()?,
            epoch: body.u64()?,
        })
    }
}

/// Complete `pkt`'s frame in the buffer its value was serialized into:
/// length prefix and DATA header into the headroom, CRC appended.
fn frame_data(pkt: Packet) -> Vec<u8> {
    let Payload::Bytes {
        fp,
        buf: mut frame,
        start,
    } = pkt.payload
    else {
        unreachable!("socket transport asks for serialized payloads")
    };
    assert_eq!(start, FRAME_ROOM.head, "payload not laid out for framing");
    let len = frame.len() - 4;
    assert!(len <= MAX_FRAME as usize, "{len}-byte frame payload");
    let mut head = &mut frame[..start];
    let mut put = |bytes: &[u8]| head.write_all(bytes).expect("header fits its headroom");
    put(&(len as u32).to_le_bytes());
    put(&[KIND_DATA]);
    put(&pkt.epoch.to_le_bytes());
    put(&pkt.tag.to_le_bytes());
    put(&pkt.seq.to_le_bytes());
    put(&[pkt.corrupt as u8]);
    put(&fp.to_le_bytes());
    let crc = crc32(&frame[4..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// The packet in a DATA frame's payload; the value stays where it was
/// read, behind the header.
fn decode_data(body: Vec<u8>) -> Option<Packet> {
    let mut r = WireReader::new(body.get(1..DATA_HEADER)?);
    let epoch = r.u64()?;
    let tag = r.u64()?;
    let seq = r.u64()?;
    let corrupt = r.u8()? != 0;
    let fp = r.u64()?;
    Some(Packet {
        epoch,
        tag,
        seq,
        corrupt,
        payload: Payload::Bytes {
            fp,
            buf: body,
            start: DATA_HEADER,
        },
    })
}

/// State shared with the accept, reader, and heartbeat threads.
struct Inner {
    me: usize,
    n: usize,
    version: u32,
    world_fp: u64,
    stop: AtomicBool,
    /// Our current epoch, advertised in handshakes and heartbeats.
    our_epoch: AtomicU64,
    /// Newest epoch heard from any peer, by any means.
    observed_epoch: AtomicU64,
    start: Instant,
    /// Per-peer liveness clock: `0` = never seen, else millis-since-start
    /// of the last frame, plus one.
    last_seen: Vec<AtomicU64>,
    /// Persistent per-peer inbox feeds; reconnections reuse them.
    inboxes: Vec<Sender<Packet>>,
}

impl Inner {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn mark_seen(&self, from: usize) {
        self.last_seen[from].store(self.now_ms() + 1, Ordering::Relaxed);
    }

    fn observe_epoch(&self, epoch: u64) {
        self.observed_epoch.fetch_max(epoch, Ordering::Relaxed);
    }

    fn hello(&self) -> Hello {
        Hello {
            version: self.version,
            world_fp: self.world_fp,
            world: self.n as u32,
            from: self.me as u32,
            epoch: self.our_epoch.load(Ordering::Relaxed),
        }
    }
}

/// One rank's seat in a multi-process socket world. See the module docs
/// for the topology, framing, and failure-detection story.
pub struct SocketTransport {
    inner: Arc<Inner>,
    /// Outgoing stream per peer; `None` until dialed (or after an error).
    conns: Vec<Arc<Mutex<Option<UnixStream>>>>,
    receivers: Vec<Receiver<Packet>>,
    addrs: Vec<PathBuf>,
    handshake_timeout: Duration,
    failure_window: Duration,
}

impl SocketTransport {
    /// Bind this rank's endpoint, start the accept/heartbeat machinery,
    /// and connect to every peer (the bootstrap barrier). A respawned
    /// process calls this again with the same boot to retake its seat:
    /// the stale Unix socket file is unlinked and re-bound, and peers'
    /// redials land on the new process.
    pub fn bootstrap(boot: &SocketBoot) -> Result<SocketTransport, BootstrapError> {
        assert!(boot.world >= 1, "need at least one rank");
        assert!(boot.rank < boot.world, "rank {} out of range", boot.rank);
        let n = boot.world;
        let addrs: Vec<PathBuf> = (0..n).map(|r| boot.spec.addr_of(r)).collect();

        let path = &addrs[boot.rank];
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::remove_file(path); // stale seat from a killed process
        let listener = UnixListener::bind(path).map_err(|e| BootstrapError::Bind {
            addr: path.display().to_string(),
            detail: e.to_string(),
        })?;

        let mut inboxes = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            inboxes.push(tx);
            receivers.push(rx);
        }
        let inner = Arc::new(Inner {
            me: boot.rank,
            n,
            version: boot.version,
            world_fp: boot.world_fp,
            stop: AtomicBool::new(false),
            our_epoch: AtomicU64::new(0),
            observed_epoch: AtomicU64::new(0),
            start: Instant::now(),
            last_seen: (0..n).map(|_| AtomicU64::new(0)).collect(),
            inboxes,
        });

        {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(listener, inner));
        }

        let conns: Vec<Arc<Mutex<Option<UnixStream>>>> =
            (0..n).map(|_| Arc::new(Mutex::new(None))).collect();
        {
            let inner = Arc::clone(&inner);
            let conns = conns.clone();
            let interval = boot.heartbeat_interval;
            std::thread::spawn(move || heartbeat_loop(inner, conns, interval));
        }

        let t = SocketTransport {
            inner,
            conns,
            receivers,
            addrs,
            handshake_timeout: boot.handshake_timeout,
            failure_window: boot.failure_window,
        };
        t.connect_all(boot.connect_timeout)?;
        Ok(t)
    }

    /// Dial every peer, retrying slow-starter failures (connection refused,
    /// handshake timeout) with jittered exponential backoff until the
    /// per-peer deadline; protocol mismatches fail immediately.
    fn connect_all(&self, connect_timeout: Duration) -> Result<(), BootstrapError> {
        let me = self.inner.me;
        let seed = 0x50C4_E7ED_u64 ^ ((me as u64) << 24);
        for to in 0..self.inner.n {
            if to == me {
                continue;
            }
            let deadline = Instant::now() + connect_timeout;
            let mut attempt = 0u32;
            loop {
                match self.dial(to) {
                    Ok(stream) => {
                        *self.conns[to].lock().unwrap() = Some(stream);
                        break;
                    }
                    Err(
                        e @ (BootstrapError::VersionMismatch { .. }
                        | BootstrapError::WorldMismatch { .. }
                        | BootstrapError::FingerprintMismatch { .. }
                        | BootstrapError::Bind { .. }),
                    ) => return Err(e),
                    Err(e) => {
                        if Instant::now() >= deadline {
                            return Err(e);
                        }
                        std::thread::sleep(wire::backoff(
                            attempt,
                            Duration::from_millis(1),
                            Duration::from_millis(200),
                            seed ^ to as u64,
                        ));
                        attempt = attempt.saturating_add(1);
                    }
                }
            }
        }
        Ok(())
    }

    /// One connection + handshake attempt to `to`. The dialer validates
    /// the acceptor's HELLO_ACK: version, world size, then fingerprint.
    fn dial(&self, to: usize) -> Result<UnixStream, BootstrapError> {
        let connect_err = |e: &dyn std::fmt::Display| BootstrapError::Connect {
            peer: to,
            detail: e.to_string(),
        };
        let mut stream = UnixStream::connect(&self.addrs[to]).map_err(|e| connect_err(&e))?;
        stream
            .set_read_timeout(Some(self.handshake_timeout))
            .and_then(|_| stream.set_write_timeout(Some(self.handshake_timeout)))
            .map_err(|e| connect_err(&e))?;
        write_frame(&mut stream, &self.inner.hello().encode(KIND_HELLO))
            .map_err(|e| connect_err(&e))?;
        let ack_deadline = Instant::now() + self.handshake_timeout;
        let body = match read_frame(&mut stream, &self.inner.stop, Some(ack_deadline)) {
            Ok(Some(b)) => b,
            Ok(None) => return Err(connect_err(&"transport shutting down")),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(BootstrapError::HandshakeTimeout { peer: to })
            }
            Err(e) => return Err(connect_err(&e)),
        };
        let mut r = WireReader::new(&body);
        if r.u8() != Some(KIND_HELLO_ACK) {
            return Err(connect_err(&"unexpected handshake frame"));
        }
        let ack = Hello::decode(&mut r).ok_or_else(|| connect_err(&"malformed handshake"))?;
        if ack.version != self.inner.version {
            return Err(BootstrapError::VersionMismatch {
                ours: self.inner.version,
                theirs: ack.version,
            });
        }
        if ack.world as usize != self.inner.n {
            return Err(BootstrapError::WorldMismatch {
                ours: self.inner.n,
                theirs: ack.world as usize,
            });
        }
        if ack.world_fp != self.inner.world_fp {
            return Err(BootstrapError::FingerprintMismatch {
                ours: self.inner.world_fp,
                theirs: ack.world_fp,
            });
        }
        self.inner.mark_seen(to);
        self.inner.observe_epoch(ack.epoch);
        // Post-handshake the stream is write-only; bound writes so a
        // wedged peer cannot block the send path indefinitely.
        let _ = stream.set_write_timeout(Some(self.failure_window.max(Duration::from_secs(1))));
        Ok(stream)
    }

    /// Write a complete frame to `to`, dialing (with bounded retry +
    /// backoff) if there is no live connection, and redialing once if an
    /// established connection turns out to be dead.
    fn write_to(&self, to: usize, frame: &[u8]) -> Result<(), CommError> {
        let mut guard = self.conns[to].lock().unwrap();
        let seed = 0xDA1E_D000_u64 ^ ((self.inner.me as u64) << 16) ^ to as u64;
        for attempt in 0..3u32 {
            if guard.is_none() {
                match self.dial(to) {
                    Ok(s) => *guard = Some(s),
                    Err(_) => {
                        std::thread::sleep(wire::backoff(
                            attempt,
                            Duration::from_millis(1),
                            Duration::from_millis(50),
                            seed,
                        ));
                        continue;
                    }
                }
            }
            match guard.as_mut().expect("dialed above").write_all(frame) {
                Ok(()) => return Ok(()),
                Err(_) => *guard = None, // dead stream: redial on next pass
            }
        }
        Err(CommError::PeerClosed { peer: to })
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        // The accept thread blocks in `accept`: dial our own endpoint so
        // it wakes, sees `stop` and closes the listener. A failed dial
        // means the listener is already gone.
        let _ = UnixStream::connect(&self.addrs[self.inner.me]);
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.inner.me
    }

    fn size(&self) -> usize {
        self.inner.n
    }

    fn frame_room(&self) -> Option<FrameRoom> {
        Some(FRAME_ROOM)
    }

    fn send(&mut self, to: usize, pkt: Packet) -> Result<(), CommError> {
        self.write_to(to, &frame_data(pkt))
    }

    fn recv_timeout(&mut self, from: usize, timeout: Duration) -> Result<Packet, RecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvError::Timeout);
            }
            let slice = (deadline - now).min(Duration::from_millis(20));
            match self.receivers[from].recv_timeout(slice) {
                Ok(pkt) => return Ok(pkt),
                Err(RecvTimeoutError::Disconnected) => return Err(RecvError::Closed),
                Err(RecvTimeoutError::Timeout) => {
                    let seen = self.inner.last_seen[from].load(Ordering::Relaxed);
                    if seen != 0 {
                        let stale = self.inner.now_ms().saturating_sub(seen - 1);
                        if stale > self.failure_window.as_millis() as u64 {
                            // Once-live peer gone silent past the failure
                            // window: positively dead, not merely slow.
                            return Err(RecvError::Closed);
                        }
                    }
                }
            }
        }
    }

    fn try_recv(&mut self, from: usize) -> Option<Packet> {
        self.receivers[from].try_recv().ok()
    }

    fn peer_may_return(&self) -> bool {
        true
    }

    fn observed_epoch(&self) -> u64 {
        self.inner.observed_epoch.load(Ordering::Relaxed)
    }

    fn set_epoch(&self, epoch: u64) {
        self.inner.our_epoch.store(epoch, Ordering::Relaxed);
    }
}

/// Block in `accept` and hand each stream to a reader thread, until the
/// transport's drop sets `stop` and wakes the accept with a self-dial.
fn accept_loop(listener: UnixListener, inner: Arc<Inner>) {
    loop {
        match listener.accept() {
            Ok(_) if inner.stop.load(Ordering::Relaxed) => break,
            Ok((stream, _)) => {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || reader_loop(stream, inner));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Serve one accepted stream: handshake, then pump DATA frames into the
/// sender's inbox until EOF, breakage, or shutdown.
fn reader_loop(mut stream: UnixStream, inner: Arc<Inner>) {
    if stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .is_err()
        || stream
            .set_write_timeout(Some(Duration::from_secs(1)))
            .is_err()
    {
        return;
    }
    // First frame must be HELLO. The ack always carries *our* values —
    // the dialer does the comparing — then a mismatched dialer is cut off.
    let from = match read_frame(&mut stream, &inner.stop, None) {
        Ok(Some(body)) => {
            let mut r = WireReader::new(&body);
            if r.u8() != Some(KIND_HELLO) {
                return;
            }
            let Some(hello) = Hello::decode(&mut r) else {
                return;
            };
            if write_frame(&mut stream, &inner.hello().encode(KIND_HELLO_ACK)).is_err() {
                return;
            }
            let ok = hello.version == inner.version
                && hello.world as usize == inner.n
                && hello.world_fp == inner.world_fp
                && (hello.from as usize) < inner.n;
            if !ok {
                return;
            }
            let from = hello.from as usize;
            inner.mark_seen(from);
            inner.observe_epoch(hello.epoch);
            from
        }
        _ => return,
    };
    loop {
        match read_frame(&mut stream, &inner.stop, None) {
            Ok(Some(body)) => {
                inner.mark_seen(from);
                match body.first() {
                    Some(&KIND_DATA) => {
                        let Some(pkt) = decode_data(body) else {
                            return; // malformed despite valid CRC: breakage
                        };
                        inner.observe_epoch(pkt.epoch);
                        if inner.inboxes[from].send(pkt).is_err() {
                            return;
                        }
                    }
                    Some(&KIND_HEARTBEAT) => {
                        let mut r = WireReader::new(&body);
                        if let Some(epoch) = r.skip(5).and_then(|r| r.u64()) {
                            inner.observe_epoch(epoch);
                        }
                    }
                    _ => {} // unknown kinds are ignored for forward compat
                }
            }
            Ok(None) => return, // shutdown
            Err(_) => return,   // EOF or breakage: dialer reconnects
        }
    }
}

fn heartbeat_loop(
    inner: Arc<Inner>,
    conns: Vec<Arc<Mutex<Option<UnixStream>>>>,
    interval: Duration,
) {
    let mut frame = Vec::with_capacity(13);
    while !inner.stop.load(Ordering::Relaxed) {
        std::thread::sleep(interval);
        frame.clear();
        frame.push(KIND_HEARTBEAT);
        frame.extend_from_slice(&(inner.me as u32).to_le_bytes());
        frame.extend_from_slice(&inner.our_epoch.load(Ordering::Relaxed).to_le_bytes());
        for (to, conn) in conns.iter().enumerate() {
            if to == inner.me {
                continue;
            }
            // try_lock: never contend with the send path; a skipped beat
            // is harmless (sends themselves refresh the peer's clock).
            if let Ok(mut guard) = conn.try_lock() {
                if let Some(stream) = guard.as_mut() {
                    if write_frame(stream, &frame).is_err() {
                        *guard = None; // dead stream: sends will redial
                    }
                }
            }
        }
    }
}

/// Run one rank of a multi-process socket world in *this* process. The
/// returned traffic report covers this rank's outgoing row only (each
/// process counts its own sends).
pub fn run_socket<R>(
    boot: &SocketBoot,
    plan: Option<FaultPlan>,
    f: impl FnOnce(&mut Comm) -> R,
) -> Result<(R, TrafficReport), BootstrapError> {
    let transport = SocketTransport::bootstrap(boot)?;
    let rows = TrafficRow::world(boot.world);
    let row = Arc::clone(&rows[boot.rank]);
    let result = f(&mut Comm::from_transport(
        Box::new(transport),
        plan.map(Arc::new),
        row,
    ));
    Ok((result, TrafficReport::from_rows(&rows)))
}

/// Spawn `n` ranks as threads of this process, each with its own
/// [`SocketTransport`] over real sockets — the full wire path (framing,
/// handshakes, heartbeats) without multi-process orchestration. Used by
/// the determinism matrix, the sweep scheduler's socket mode, and tests.
/// A rank whose bootstrap fails is reported as a [`RankPanic`]. As in
/// [`crate::run_with_faults`], each rank gets an equal share of the
/// caller's worker-thread budget; one-rank-per-process [`run_socket`]
/// keeps the whole of it.
pub fn run_socket_world<R, F>(
    n: usize,
    spec: SocketAddrSpec,
    plan: Option<FaultPlan>,
    f: F,
) -> (Vec<Result<R, RankPanic>>, TrafficReport)
where
    R: Send,
    F: Fn(&mut Comm) -> R + Send + Sync,
{
    assert!(n >= 1, "need at least one rank");
    let plan = plan.map(Arc::new);
    let rows = TrafficRow::world(n);
    // MPI_Init-style rendezvous: no rank enters (or leaves) its closure
    // until every rank has finished bootstrapping, else a rank with a
    // short closure can tear down its listener before a slower peer has
    // dialed it. A harness-level latch (not a message barrier) so fault
    // plans and traffic counters see identical send sequences on both
    // transports. Failed bootstraps count too, so they can't hang peers.
    let booted = (Mutex::new(0usize), Condvar::new());
    let seats = (0..n)
        .map(|rank| SocketBoot::new(spec.clone(), rank, n))
        .collect();
    let results = spawn_ranks(seats, |boot: SocketBoot| {
        let outcome = SocketTransport::bootstrap(&boot);
        {
            let mut done = booted.0.lock().unwrap();
            *done += 1;
            booted.1.notify_all();
        }
        let rank = boot.rank;
        let transport = outcome.unwrap_or_else(|e| panic!("rank {rank} bootstrap failed: {e}"));
        let row = Arc::clone(&rows[rank]);
        let mut comm = Comm::from_transport(Box::new(transport), plan.clone(), row);
        let guard = booted.0.lock().unwrap();
        let _ = booted
            .1
            .wait_timeout_while(guard, Duration::from_secs(30), |done| *done < n)
            .unwrap();
        f(&mut comm)
    });
    (results, TrafficReport::from_rows(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TagTraffic;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nanompi_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn socket_world_ring_pass_matches_local_and_counts_bytes() {
        let dir = test_dir("ring");
        let ring = |c: &mut Comm| {
            let right = (c.rank() + 1) % c.size();
            let left = (c.rank() + c.size() - 1) % c.size();
            c.send(right, 7, c.rank() as u64).unwrap();
            c.send_vec(left, 9, vec![c.rank() as f32; c.rank() + 1])
                .unwrap();
            let from_left: u64 = c.recv(left, 7).unwrap();
            let from_right: Vec<f32> = c.recv(right, 9).unwrap();
            c.allreduce_sum(from_left as f64 + from_right.len() as f64)
                .unwrap()
        };
        let (socket_results, socket) = run_socket_world(3, SocketAddrSpec::unix(&dir), None, ring);
        let (local_results, local) = crate::run_expect(3, ring);
        let socket_results: Vec<f64> = socket_results.into_iter().map(|r| r.unwrap()).collect();
        // Bit-identical across transports.
        for (s, l) in socket_results.iter().zip(&local_results) {
            assert_eq!(s.to_bits(), l.to_bits());
        }
        // One ledger: the same report, pair by pair and tag by tag.
        assert_eq!(socket.bytes, local.bytes);
        assert_eq!(socket.messages, local.messages);
        assert_eq!(socket.by_tag, local.by_tag);
        assert_eq!(
            (socket.total_messages, socket.total_bytes),
            (local.total_messages, local.total_bytes)
        );
        assert_eq!(
            socket.messages,
            vec![vec![0, 1, 1], vec![1, 0, 1], vec![1, 1, 0]]
        );
        assert_eq!(
            socket.bytes,
            vec![vec![0, 8, 4], vec![8, 0, 8], vec![8, 12, 0]]
        );
        assert_eq!(
            socket.by_tag,
            vec![
                TagTraffic {
                    tag: 7,
                    messages: 3,
                    bytes: 24
                },
                TagTraffic {
                    tag: 9,
                    messages: 3,
                    bytes: 24
                },
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sends_of_a_panicked_rank_stay_in_the_report() {
        // The launcher holds every rank's row, so a rank that counts and
        // then panics is still in the report, on both transports.
        let dir = test_dir("panicked_row");
        let world = |c: &mut Comm| {
            c.set_op_timeout(Duration::from_millis(500));
            if c.rank() == 0 {
                c.send_vec(1, 5, vec![0u32; 10]).unwrap();
                c.send(1, 6, 1u64).unwrap();
                panic!("rank 0 dies after sending");
            }
            let v: Vec<u32> = c.recv(0, 5).unwrap();
            let x: u64 = c.recv(0, 6).unwrap();
            assert_eq!((v.len(), x), (10, 1));
        };
        let (local_results, local) = crate::run(2, world);
        let (socket_results, socket) = run_socket_world(2, SocketAddrSpec::unix(&dir), None, world);
        for (results, report) in [(local_results, local), (socket_results, socket)] {
            let p = results[0].as_ref().expect_err("rank 0 panicked");
            assert!(p.message.contains("dies after sending"), "{}", p.message);
            assert!(results[1].is_ok());
            assert_eq!(report.messages, vec![vec![0, 2], vec![0, 0]]);
            assert_eq!(report.bytes, vec![vec![0, 48], vec![0, 0]]);
            assert_eq!(report.by_tag.len(), 2);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn typed_payloads_and_type_mismatch_over_sockets() {
        let dir = test_dir("typed");
        let (results, _) = run_socket_world(2, SocketAddrSpec::unix(&dir), None, |c| {
            if c.rank() == 0 {
                c.send(1, 1, "hello".to_string()).unwrap();
                c.send_vec(1, 2, vec![1.5f32, -0.0]).unwrap();
                c.send(1, 3, 7u32).unwrap();
                true
            } else {
                assert_eq!(c.recv::<String>(0, 1).unwrap(), "hello");
                let v: Vec<f32> = c.recv(0, 2).unwrap();
                assert_eq!(v[0].to_bits(), 1.5f32.to_bits());
                assert_eq!(v[1].to_bits(), (-0.0f32).to_bits());
                // Mistyped receive is a typed error, exactly as in-process.
                matches!(
                    c.recv::<String>(0, 3),
                    Err(CommError::TypeMismatch { from: 0, tag: 3 })
                )
            }
        });
        assert!(results.into_iter().all(|r| r.unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_applies_unmodified_over_sockets() {
        let dir = test_dir("faults");
        // Corrupt message 1 and duplicate message 2 from rank 0: same
        // plan, same observable behavior as the in-process transport.
        let plan = FaultPlan::new(1)
            .corrupt_message(0, 1)
            .duplicate_message(0, 2);
        let (results, _) = run_socket_world(2, SocketAddrSpec::unix(&dir), Some(plan), |c| {
            c.set_op_timeout(Duration::from_millis(300));
            if c.rank() == 0 {
                c.send(1, 9, 5u32).unwrap();
                c.send(1, 9, 6u32).unwrap();
                c.send(1, 9, 7u32).unwrap();
                true
            } else {
                let corrupt = matches!(
                    c.recv::<u32>(0, 9),
                    Err(CommError::Corrupt { from: 0, tag: 9 })
                );
                let a: u32 = c.recv(0, 9).unwrap();
                let b: u32 = c.recv(0, 9).unwrap();
                // The duplicated copy was suppressed, not delivered
                // as a phantom third message.
                let empty = matches!(c.recv::<u32>(0, 9), Err(CommError::Timeout { .. }));
                corrupt && (a, b) == (6, 7) && empty
            }
        });
        assert!(results.into_iter().all(|r| r.unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn data_frame_built_in_place_is_the_layered_encoding() {
        // The frame `frame_data` completes inside the payload buffer must
        // be byte for byte what wrapping the header (kind, epoch, tag,
        // seq, corrupt flag, type fingerprint) + value in
        // `[len][payload][crc]` gives, and `decode_data` must hand the
        // value back where it lies.
        let value = vec![1.5f32, -0.0, f32::from_bits(0x7fc0_0001)];
        let mut encoded = Vec::new();
        wire::Wire::wire_put(&value, &mut encoded);
        let mut buf = vec![0xAAu8; FRAME_ROOM.head]; // headroom contents are ignored
        buf.extend_from_slice(&encoded);
        let pkt = Packet {
            epoch: 3,
            tag: 0xE001,
            seq: 17,
            corrupt: true,
            payload: Payload::Bytes {
                fp: 0x1234_5678_9abc_def0,
                buf,
                start: FRAME_ROOM.head,
            },
        };
        let mut payload = vec![KIND_DATA];
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.extend_from_slice(&0xE001u64.to_le_bytes());
        payload.extend_from_slice(&17u64.to_le_bytes());
        payload.push(1);
        payload.extend_from_slice(&0x1234_5678_9abc_def0u64.to_le_bytes());
        payload.extend_from_slice(&encoded);
        let mut layered = (payload.len() as u32).to_le_bytes().to_vec();
        layered.extend_from_slice(&payload);
        layered.extend_from_slice(&crc32(&payload).to_le_bytes());

        let frame = frame_data(pkt);
        assert_eq!(frame, layered);

        let back = decode_data(payload).expect("decode");
        assert_eq!((back.epoch, back.tag, back.seq), (3, 0xE001, 17));
        assert!(back.corrupt);
        assert_eq!((DATA_HEADER, FRAME_ROOM.head), (34, 38));
        match back.payload {
            Payload::Bytes { fp, buf, start } => {
                assert_eq!(fp, 0x1234_5678_9abc_def0);
                assert_eq!(&buf[start..], &encoded[..]);
            }
            Payload::Local(_) => panic!("byte payload expected"),
        }
        // Shorter than a header: malformed, not a panic.
        assert!(decode_data(vec![KIND_DATA; DATA_HEADER - 1]).is_none());
    }

    #[test]
    fn duplicate_of_a_ranks_final_message_does_not_fail_the_send() {
        // The injected second copy can land after the peer took the first
        // and left; that is the network's problem, not the sender's. A live
        // world only races into that order, so it is raced 200 times on
        // each transport; `comm`'s fault tests force it with a transport
        // that refuses the second delivery.
        let world = |c: &mut Comm| {
            if c.rank() == 0 {
                c.send_vec(1, 9, vec![1.0f32; 64]).map(|()| 0)
            } else {
                c.recv::<Vec<f32>>(0, 9).map(|v| v.len())
            }
        };
        let plan = || Some(FaultPlan::new(3).duplicate_message(0, 1));
        let dir = test_dir("dup_final");
        for round in 0..200 {
            let (local, _) = crate::run_with_faults(2, plan(), world);
            let (socket, _) = run_socket_world(2, SocketAddrSpec::unix(&dir), plan(), world);
            for (transport, results) in [("local", local), ("socket", socket)] {
                let got: Vec<usize> = results
                    .into_iter()
                    .map(|r| {
                        r.unwrap()
                            .unwrap_or_else(|e| panic!("round {round}, {transport}: {e}"))
                    })
                    .collect();
                assert_eq!(got, vec![0, 64]);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A peer that speaks the handshake but answers with forged values —
    /// and, unlike a real mismatched rank, stays alive so the dialer's
    /// validation (not a torn-down listener) decides the outcome.
    fn forged_acceptor(path: PathBuf, ack: Hello) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let listener = UnixListener::bind(&path).unwrap();
            if let Ok((mut s, _)) = listener.accept() {
                let _ = s.set_read_timeout(Some(Duration::from_secs(2)));
                let stop = AtomicBool::new(false);
                let _ = read_frame(&mut s, &stop, Some(Instant::now() + Duration::from_secs(2)));
                let _ = write_frame(&mut s, &ack.encode(KIND_HELLO_ACK));
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    }

    fn mismatch_boot(dir: &std::path::Path) -> SocketBoot {
        let mut boot = SocketBoot::new(SocketAddrSpec::unix(dir), 0, 2);
        boot.connect_timeout = Duration::from_secs(5);
        boot
    }

    #[test]
    fn bootstrap_world_size_mismatch_is_typed() {
        let dir = test_dir("world_mismatch");
        let acceptor = forged_acceptor(
            dir.join("rank1.sock"),
            Hello {
                version: WIRE_VERSION,
                world_fp: 0,
                world: 3, // claims a 3-rank world; ours is 2
                from: 1,
                epoch: 0,
            },
        );
        let err = SocketTransport::bootstrap(&mismatch_boot(&dir))
            .err()
            .expect("must fail");
        assert!(
            matches!(err, BootstrapError::WorldMismatch { ours: 2, theirs: 3 }),
            "got {err}"
        );
        acceptor.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bootstrap_version_mismatch_is_typed() {
        // A future build, and the previous one (version 2's DATA header
        // carried 8 more bytes; its peers would misread every frame, so it
        // must not get past the handshake).
        assert_eq!(WIRE_VERSION, 3);
        for theirs in [WIRE_VERSION + 1, WIRE_VERSION - 1] {
            let dir = test_dir(&format!("version_mismatch_{theirs}"));
            let acceptor = forged_acceptor(
                dir.join("rank1.sock"),
                Hello {
                    version: theirs,
                    world_fp: 0,
                    world: 2,
                    from: 1,
                    epoch: 0,
                },
            );
            let err = SocketTransport::bootstrap(&mismatch_boot(&dir))
                .err()
                .expect("must fail");
            match err {
                BootstrapError::VersionMismatch { ours, theirs: got } => {
                    assert_eq!(ours, WIRE_VERSION);
                    assert_eq!(got, theirs);
                }
                other => panic!("got {other}"),
            }
            acceptor.join().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn bootstrap_fingerprint_mismatch_is_typed() {
        let dir = test_dir("fp_mismatch");
        let acceptor = forged_acceptor(
            dir.join("rank1.sock"),
            Hello {
                version: WIRE_VERSION,
                world_fp: 0xBBBB, // a different deck in the same directory
                world: 2,
                from: 1,
                epoch: 0,
            },
        );
        let mut boot = mismatch_boot(&dir);
        boot.world_fp = 0xAAAA;
        let err = SocketTransport::bootstrap(&boot).err().expect("must fail");
        assert!(
            matches!(
                err,
                BootstrapError::FingerprintMismatch {
                    ours: 0xAAAA,
                    theirs: 0xBBBB
                }
            ),
            "got {err}"
        );
        acceptor.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn silent_peer_times_out_with_typed_error_not_a_hang() {
        let dir = test_dir("silent_peer");
        let spec = SocketAddrSpec::unix(&dir);
        // Rank 1's seat: a listener that accepts (kernel backlog) but
        // never speaks the handshake.
        let silent = UnixListener::bind(dir.join("rank1.sock")).unwrap();
        let mut boot = SocketBoot::new(spec, 0, 2);
        boot.handshake_timeout = Duration::from_millis(100);
        boot.connect_timeout = Duration::from_millis(400);
        let started = Instant::now();
        let err = SocketTransport::bootstrap(&boot).err().expect("must fail");
        assert!(
            matches!(err, BootstrapError::HandshakeTimeout { peer: 1 }),
            "got {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "bootstrap did not bound the silent peer"
        );
        drop(silent);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_peer_heartbeat_staleness_is_positively_closed() {
        let dir = test_dir("dead_peer");
        let spec = SocketAddrSpec::unix(&dir);
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let boot = SocketBoot::new(spec.clone(), 1, 2);
                let t = SocketTransport::bootstrap(&boot).unwrap();
                gate.wait();
                drop(t); // process "dies": heartbeats stop, streams close
            });
            let mut boot = SocketBoot::new(spec.clone(), 0, 2);
            boot.heartbeat_interval = Duration::from_millis(25);
            boot.failure_window = Duration::from_millis(250);
            let mut t = SocketTransport::bootstrap(&boot).unwrap();
            gate.wait();
            // Wait out the failure window: the receive must convert the
            // silence into Closed well before its own 5 s deadline.
            let started = Instant::now();
            let got = t.recv_timeout(1, Duration::from_secs(5));
            assert!(matches!(got, Err(RecvError::Closed)), "peer not detected");
            assert!(started.elapsed() < Duration::from_secs(3));
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_rank_respawns_and_recovery_converges_on_sockets() {
        // The adopt path, in miniature: rank 1's first incarnation dies
        // after the world is up; a second incarnation re-binds the same
        // seat, learns the world's epoch from its handshake, and the
        // recovery rendezvous converges — while rank 0 retries its
        // announcements with backoff across the respawn gap.
        let dir = test_dir("respawn");
        let spec = SocketAddrSpec::unix(&dir);
        let up = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let survivor = s.spawn(|| {
                let mut boot = SocketBoot::new(spec.clone(), 0, 2);
                boot.heartbeat_interval = Duration::from_millis(25);
                boot.failure_window = Duration::from_millis(250);
                let (res, _) = run_socket(&boot, None, |c| {
                    c.set_op_timeout(Duration::from_millis(2000));
                    up.wait();
                    // The peer dies; this recv fails (Closed or Timeout),
                    // then recovery waits for its second incarnation.
                    assert!(c.recv::<u32>(1, 1).is_err());
                    let epoch = c.recover().unwrap();
                    let sum = c.allreduce_sum(1.0).unwrap();
                    (epoch, sum)
                })
                .unwrap();
                res
            });
            let first = SocketTransport::bootstrap(&SocketBoot::new(spec.clone(), 1, 2)).unwrap();
            up.wait();
            std::thread::sleep(Duration::from_millis(100));
            drop(first); // kill -9 stand-in
            std::thread::sleep(Duration::from_millis(400));
            let mut boot = SocketBoot::new(spec.clone(), 1, 2);
            boot.heartbeat_interval = Duration::from_millis(25);
            boot.failure_window = Duration::from_millis(250);
            let (res, _) = run_socket(&boot, None, |c| {
                c.set_op_timeout(Duration::from_millis(2000));
                let epoch = c.recover().unwrap();
                let sum = c.allreduce_sum(1.0).unwrap();
                (epoch, sum)
            })
            .unwrap();
            let (se, ss) = survivor.join().unwrap();
            let (re, rs) = res;
            assert_eq!(se, re, "survivor and rejoiner disagree on the epoch");
            assert!(se >= 1);
            assert_eq!(ss, 2.0);
            assert_eq!(rs, 2.0);
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
