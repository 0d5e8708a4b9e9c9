//! The real-socket implementation of the [`Backplane`] trait: one
//! non-blocking UDP socket per rail, cross-connected over loopback.
//!
//! A [`UdpFabric`] owns **all** sockets of a two-node fabric — `2 × rails`
//! of them — so that a single-threaded poll loop can drive both endpoints:
//! [`Backplane::advance`] on either node drains every socket into per-node
//! receive queues and returns as soon as anything arrived anywhere, exactly
//! mirroring the simulated fabric's early-stop semantics.
//! [`Backplane::next`] on an empty queue sweeps only its own node's sockets:
//! the peer's traffic waits in the kernel for the peer's own `next` (or
//! anyone's `advance`). A sweep is not repeated to learn that it is over: it
//! ended on a `poll(2)` that found nothing, so the `next` that pops the last
//! frame it queued is followed by one that returns `None` without a system
//! call — `None` means "nothing as of the last sweep" — and the `next` after
//! that sweeps again.
//!
//! The path pays per system call, not per frame (the paper's edge polls
//! every NIC while it is active and takes one interrupt per burst). A sweep
//! asks one `poll(2)` over the node's `rails` sockets, does one `recvmsg` on
//! each socket reported ready, and repeats until none is — an idle sweep is
//! one call, whatever the rail count, and no receive finds its socket
//! empty. [`Backplane::send_batch`] encodes each rail's consecutive frames
//! back to back, in the buffer they are sent from (a frame's length is
//! known before it is encoded, so its run is decided first), and hands every
//! run the kernel accepts (equal-sized segments, only the last may be
//! shorter, at most [`MAX_SEGMENTS`] of them in [`MAX_DATAGRAM`] bytes) to
//! one `sendmsg` with a `UDP_SEGMENT` control message; the sockets set `UDP_GRO`, so over loopback such a run arrives
//! as the one buffer it left as, with its segment size attached. Where the
//! kernel refuses `UDP_GRO` every run is one frame long — the only branch,
//! and the platform's. The system calls live in [`super::sys`].
//!
//! Frames cross the sockets in the MultiEdge wire format
//! ([`frame::encode_frame_to_slice`] / [`frame::decode_frame_shared`]); each
//! segment is one frame. This backend checksums a payload byte once and
//! copies it once each way, and asks for memory once per system call: what
//! one `recvmsg` returned is copied into **one allocation per receive**, of
//! exactly its length, and the payloads of its frames are slices of it. The
//! allocation is freed when the last of those frames is applied — a fragment
//! held behind a fence keeps its receive alive, nothing else does; there is
//! no pool, no reclaim and no receive state that outlives a sweep.
//!
//! The Ethernet MAC addresses are not carried on the wire —
//! a datagram arriving on node `n`'s rail-`r` socket is *expected* to come
//! from the peer's rail-`r` socket, so the addresses are reconstructed from
//! (node, rail) exactly as a NIC would fill them in. The expectation is
//! **checked**, not assumed: the sockets are unconnected, the source address
//! of every receive (a coalesced one has one source) is compared against
//! the peer socket bound at fabric construction, and a mismatch is counted
//! per segment, dropped, and surfaced as a typed
//! [`UdpRxError::UnknownSource`] — the multi-host-addressing gap the ROADMAP
//! notes, made visible instead of silently misattributed.
//!
//! Every segment of a coalesced receive goes through what a lone datagram
//! goes through, and the counters of [`UdpFabricStats`] count segments.
//! Segments that fail to decode split two ways, the role the Ethernet FCS
//! plays on a real wire: checksum failures count as
//! [`UdpFabricStats::frames_corrupt_dropped`] (bit damage in flight) and
//! are noted as flight-recorder `frame_corrupt` events when a recorder is
//! attached; structurally invalid ones (truncated, bad kind/length, a
//! receive the buffer could not hold) count as
//! [`UdpFabricStats::frames_malformed_dropped`]. Both kinds also
//! park a bounded [`UdpRxError`] log readable via
//! [`UdpFabric::take_rx_error`].
//!
//! The clock is wall time: nanoseconds since the fabric was created. All
//! protocol deadlines therefore run on real time here, which is the whole
//! point — the cross-validation bench compares phase attributions measured
//! on this clock against the simulator's virtual clock (see
//! `docs/BACKPLANE.md`).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use frame::{decode_frame_shared, encode_frame_to_slice, CodecError, Frame, MacAddr, HEADER_LEN};
use me_trace::{Event, EventKind, FlightRecorder, Json};

use super::sys::{self, PollSet, Received};
use super::{Backplane, BpRx};

/// Largest UDP payload over IPv4: what one send or one (coalesced) receive
/// can carry.
const MAX_DATAGRAM: usize = 65_507;

/// Most segments the kernel cuts one `UDP_SEGMENT` send into.
const MAX_SEGMENTS: usize = 64;

/// Most parked [`UdpRxError`]s retained before the oldest are discarded.
const RX_ERROR_LOG: usize = 32;

/// Busy-spin turns of the idle loop in [`Backplane::advance`]: it spins
/// briefly for the microsecond-scale loopback latencies, then yields, then
/// sleeps in slices of [`IDLE_SLEEP`] (capped by the remaining deadline) —
/// so a long protocol deadline (a backed-off RTO during a blackout) does
/// not burn a core.
const SPINS_BEFORE_YIELD: u32 = 64;

/// `yield_now` turns before the idle loop falls back to sleeping.
const YIELDS_BEFORE_SLEEP: u32 = 256;

/// The idle loop's sleep slice.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// Why a received datagram was dropped instead of delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdpRxError {
    /// A datagram arrived from an address that is not the peer socket for
    /// this `(node, rail)` — the two-node loopback reconstruction would
    /// have mislabeled it, so it is rejected instead.
    UnknownSource {
        /// Node whose socket received the datagram.
        node: usize,
        /// Rail index of that socket.
        rail: usize,
        /// The unexpected source address.
        from: SocketAddr,
    },
    /// The datagram decoded structurally but failed the frame checksum —
    /// bit damage in flight, the FCS-drop case.
    Corrupt {
        /// Node whose socket received the datagram.
        node: usize,
        /// Rail index of that socket.
        rail: usize,
        /// The checksum failure.
        err: CodecError,
    },
    /// The datagram is not a MultiEdge frame at all (truncated, bad kind,
    /// bad length).
    Malformed {
        /// Node whose socket received the datagram.
        node: usize,
        /// Rail index of that socket.
        rail: usize,
        /// The structural decode failure.
        err: CodecError,
    },
}

impl std::fmt::Display for UdpRxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UdpRxError::UnknownSource { node, rail, from } => write!(
                f,
                "datagram from unknown source {from} on node {node} rail {rail}"
            ),
            UdpRxError::Corrupt { node, rail, err } => {
                write!(f, "corrupt datagram on node {node} rail {rail}: {err:?}")
            }
            UdpRxError::Malformed { node, rail, err } => {
                write!(f, "malformed datagram on node {node} rail {rail}: {err:?}")
            }
        }
    }
}

impl std::error::Error for UdpRxError {}

impl UdpRxError {
    /// JSON rendering used by the flight-recorder context source.
    pub fn to_json(&self) -> Json {
        match self {
            UdpRxError::UnknownSource { node, rail, from } => Json::obj()
                .set("kind", "unknown_source")
                .set("node", *node)
                .set("rail", *rail)
                .set("from", from.to_string()),
            UdpRxError::Corrupt { node, rail, err } => Json::obj()
                .set("kind", "corrupt")
                .set("node", *node)
                .set("rail", *rail)
                .set("detail", format!("{err:?}")),
            UdpRxError::Malformed { node, rail, err } => Json::obj()
                .set("kind", "malformed")
                .set("node", *node)
                .set("rail", *rail)
                .set("detail", format!("{err:?}")),
        }
    }
}

/// Socket-path counters of one [`UdpFabric`]. What crossed the sockets is
/// counted in **segments** — one per frame, however the kernel batched them
/// — so `delivered` plus the three `*_dropped` counters is the number of
/// segments received; what the kernel was asked is counted in calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UdpFabricStats {
    /// Segments decoded and delivered to a node's queue.
    pub delivered: u64,
    /// Segments dropped on a checksum failure (the FCS role).
    pub frames_corrupt_dropped: u64,
    /// Segments dropped as structurally invalid (truncated, bad header), and
    /// receives the buffer could not hold (`MSG_TRUNC`, one each).
    pub frames_malformed_dropped: u64,
    /// Segments dropped because their source address was not the expected
    /// peer socket.
    pub unknown_source_dropped: u64,
    /// Parked [`UdpRxError`] entries evicted from the bounded error log
    /// before anyone read them — nonzero means the typed error detail (not
    /// the drop itself, which the counters above retain) was lost.
    pub rx_errors_dropped: u64,
    /// Send system calls made (`send_to` for one frame, `sendmsg` for a
    /// segmented run), whatever they returned.
    pub send_calls: u64,
    /// `poll(2)` readiness calls made; every sweep ends on the one that
    /// reports nothing ready.
    pub poll_calls: u64,
    /// `recvmsg` system calls made, whatever they returned.
    pub recv_calls: u64,
    /// `recvmsg` calls that found the socket empty (`EAGAIN`) although
    /// `poll` had reported it ready; at least `recv_calls -
    /// recv_would_block - rx_socket_errors` datagrams were read.
    pub recv_would_block: u64,
    /// Receives that carried more than one segment (`UDP_GRO`).
    pub recv_coalesced: u64,
    /// Frames the kernel refused to send (a full socket buffer, most
    /// likely) — every frame of a refused run: lost on the wire as far as
    /// the protocol can tell, so they come back as retransmissions.
    pub tx_failed: u64,
    /// `poll` failures and `recvmsg` errors other than `EAGAIN`; the sweep
    /// stops there.
    pub rx_socket_errors: u64,
}

impl UdpFabricStats {
    /// JSON rendering used by the flight-recorder context source and the
    /// telemetry bench report.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("delivered", self.delivered)
            .set("frames_corrupt_dropped", self.frames_corrupt_dropped)
            .set("frames_malformed_dropped", self.frames_malformed_dropped)
            .set("unknown_source_dropped", self.unknown_source_dropped)
            .set("rx_errors_dropped", self.rx_errors_dropped)
            .set("send_calls", self.send_calls)
            .set("poll_calls", self.poll_calls)
            .set("recv_calls", self.recv_calls)
            .set("recv_would_block", self.recv_would_block)
            .set("recv_coalesced", self.recv_coalesced)
            .set("tx_failed", self.tx_failed)
            .set("rx_socket_errors", self.rx_socket_errors)
    }
}

/// All sockets of one two-node loopback fabric (see module docs).
pub struct UdpFabric {
    /// `sockets[node][rail]`; unconnected, sends address
    /// `peer_addrs[node][rail]`.
    sockets: Vec<Vec<UdpSocket>>,
    /// `peer_addrs[node][rail]`: where node's rail sends, and the only
    /// source address its receives accept.
    peer_addrs: Vec<Vec<SocketAddr>>,
    /// Per node, the readiness set over its rail sockets.
    poll_sets: [RefCell<PollSet>; 2],
    /// Whether every socket accepted `UDP_GRO`; without it a run is one
    /// frame long.
    segmentation: bool,
    /// Per-node receive queues fed by [`UdpFabric::poll_node`].
    queues: [RefCell<VecDeque<BpRx>>; 2],
    /// Per node: the queue holds what a finished sweep left in it, and no
    /// [`Backplane::next`] has reported it drained yet.
    swept: [Cell<bool>; 2],
    /// Wall-clock epoch: `now_ns` is elapsed time since this instant.
    epoch: Instant,
    /// The socket-path counters; `delivered` is also the advance
    /// early-stop signal.
    stats: Cell<UdpFabricStats>,
    /// Bounded log of receive errors (newest kept, oldest discarded).
    rx_errors: RefCell<VecDeque<UdpRxError>>,
    /// Optional flight recorder: corrupt drops are noted as trace events.
    flight: RefCell<FlightRecorder>,
    /// The fabric's one datagram-sized buffer: the run
    /// [`UdpFabric::send_batch`] is encoding, frames back to back, or what a
    /// `recvmsg` of [`UdpFabric::poll_node`] returned — never both, neither
    /// outlives its call. Its pages are touched as far as the longest run.
    buf: RefCell<Box<[u8]>>,
}

impl UdpFabric {
    /// Bind `2 × rails` loopback sockets.
    ///
    /// # Errors
    ///
    /// Returns any socket `bind`/configuration error verbatim.
    pub fn new(rails: usize) -> std::io::Result<Rc<UdpFabric>> {
        assert!(rails >= 1, "a fabric needs at least one rail");
        let mut sockets: Vec<Vec<UdpSocket>> = Vec::with_capacity(2);
        let mut segmentation = true;
        for _node in 0..2 {
            let mut per_rail = Vec::with_capacity(rails);
            for _rail in 0..rails {
                let s = UdpSocket::bind("127.0.0.1:0")?;
                s.set_nonblocking(true)?;
                segmentation &= sys::enable_gro(&s).is_ok();
                per_rail.push(s);
            }
            sockets.push(per_rail);
        }
        let mut peer_addrs: Vec<Vec<SocketAddr>> = Vec::with_capacity(2);
        for node in 0..2 {
            let mut addrs = Vec::with_capacity(rails);
            for sock in &sockets[1 - node] {
                addrs.push(sock.local_addr()?);
            }
            peer_addrs.push(addrs);
        }
        let poll_sets = [0, 1].map(|node: usize| RefCell::new(PollSet::new(&sockets[node])));
        Ok(Rc::new(UdpFabric {
            sockets,
            peer_addrs,
            poll_sets,
            segmentation,
            queues: [RefCell::default(), RefCell::default()],
            swept: [Cell::new(false), Cell::new(false)],
            epoch: Instant::now(),
            stats: Cell::default(),
            rx_errors: RefCell::new(VecDeque::new()),
            flight: RefCell::new(FlightRecorder::disabled()),
            buf: RefCell::new(vec![0u8; MAX_DATAGRAM].into_boxed_slice()),
        }))
    }

    /// Both nodes' backplane views of this fabric.
    pub fn pair(self: &Rc<Self>) -> (UdpBackplane, UdpBackplane) {
        (
            UdpBackplane {
                fabric: self.clone(),
                node: 0,
            },
            UdpBackplane {
                fabric: self.clone(),
                node: 1,
            },
        )
    }

    /// Socket-path counters.
    pub fn stats(&self) -> UdpFabricStats {
        self.stats.get()
    }

    /// Apply `f` to the counters.
    fn count(&self, f: impl FnOnce(&mut UdpFabricStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// The oldest retained receive error, if any (the log keeps the newest
    /// `RX_ERROR_LOG` entries).
    pub fn take_rx_error(&self) -> Option<UdpRxError> {
        self.rx_errors.borrow_mut().pop_front()
    }

    /// Record corrupt-frame drops into `flight` as `frame_corrupt` events,
    /// and register the fabric's receive-path state as a dump-time context
    /// source: every post-mortem carries `context.udp_fabric` with the
    /// counters plus the still-parked [`UdpRxError`] log. The source holds
    /// a `Weak` back-reference — the fabric owns the recorder, so a strong
    /// one would leak both.
    pub fn set_flight(self: &Rc<Self>, flight: &FlightRecorder) {
        *self.flight.borrow_mut() = flight.clone();
        let fabric = Rc::downgrade(self);
        flight.add_context_source(
            "udp_fabric",
            Rc::new(move || {
                let Some(fabric) = fabric.upgrade() else {
                    return Json::obj().set("gone", true);
                };
                let errors: Vec<Json> = fabric
                    .rx_errors
                    .borrow()
                    .iter()
                    .map(UdpRxError::to_json)
                    .collect();
                fabric.stats().to_json().set("rx_errors", errors)
            }),
        );
    }

    /// The local address of `node`'s socket on `rail` (testing hook for
    /// foreign-datagram scenarios).
    pub fn local_addr(&self, node: usize, rail: usize) -> SocketAddr {
        self.sockets[node][rail]
            .local_addr()
            .expect("bound socket has an address")
    }

    /// Chaos/testing hook: push raw bytes from `node`'s rail socket to the
    /// peer, bypassing frame encoding — how the corrupt/malformed receive
    /// paths are exercised against a real kernel round trip.
    ///
    /// # Errors
    ///
    /// Returns the socket send error verbatim.
    pub fn inject_raw(&self, node: usize, rail: usize, bytes: &[u8]) -> std::io::Result<()> {
        self.sockets[node][rail]
            .send_to(bytes, self.peer_addrs[node][rail])
            .map(|_| ())
    }

    /// Chaos/testing hook beside [`UdpFabric::inject_raw`]: push raw bytes
    /// as **one** `UDP_SEGMENT` send cut every `seg_len` bytes, so the peer
    /// receives them coalesced — how the per-segment receive checks are
    /// exercised against a real kernel round trip.
    ///
    /// # Errors
    ///
    /// Returns the socket send error verbatim.
    pub fn inject_segments(
        &self,
        node: usize,
        rail: usize,
        seg_len: usize,
        bytes: &[u8],
    ) -> std::io::Result<()> {
        sys::send_segments(
            &self.sockets[node][rail],
            self.peer_addrs[node][rail],
            seg_len,
            bytes,
        )
        .map(|_| ())
    }

    fn rails(&self) -> usize {
        self.sockets[0].len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push_rx_error(&self, err: UdpRxError) {
        let mut log = self.rx_errors.borrow_mut();
        if log.len() >= RX_ERROR_LOG {
            log.pop_front();
            // Eviction is silent data loss without a counter: the drop
            // stays visible in `stats()` even after the detail is gone.
            self.count(|s| s.rx_errors_dropped += 1);
        }
        log.push_back(err);
    }

    /// Drain every socket of `node` into its receive queue: ask `poll(2)`
    /// which of them hold anything, read each of those once, and ask again
    /// until none does.
    fn poll_node(&self, node: usize) {
        let mut ready = self.poll_sets[node].borrow_mut();
        let mut buf = self.buf.borrow_mut();
        'sweep: loop {
            self.count(|s| s.poll_calls += 1);
            match ready.poll_now() {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) => {
                    self.count(|s| s.rx_socket_errors += 1);
                    break;
                }
            }
            let now = self.now_ns();
            for (rail, sock) in self.sockets[node].iter().enumerate() {
                if !ready.ready(rail) {
                    continue;
                }
                self.count(|s| s.recv_calls += 1);
                match sys::recv_segments(sock, &mut buf) {
                    Ok(rx) => self.admit(node, rail, now, &rx, &buf),
                    // The kernel dropped what `poll` saw (a bad UDP
                    // checksum); the next `poll` no longer reports it.
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        self.count(|s| s.recv_would_block += 1)
                    }
                    // Any other socket error ends this sweep like a dropped
                    // frame would (the protocol recovers via NACK/RTO), but
                    // is counted so it cannot pass for loss on the wire.
                    Err(_) => {
                        self.count(|s| s.rx_socket_errors += 1);
                        break 'sweep;
                    }
                }
            }
        }
        self.swept[node].set(!self.queues[node].borrow().is_empty());
    }

    /// Put one receive through the checks, segment by segment: source
    /// address (one per receive), then per segment decode with its CRC32C,
    /// corrupt vs malformed, error log, counters. What passed the source
    /// check is copied out of `buf` once, into one allocation of exactly its
    /// length; the frames' payloads are slices of it.
    fn admit(&self, node: usize, rail: usize, now: u64, rx: &Received, buf: &[u8]) {
        if rx.truncated {
            self.count(|s| s.frames_malformed_dropped += 1);
            let err = CodecError::BadLength {
                declared: rx.len,
                available: buf.len(),
            };
            self.push_rx_error(UdpRxError::Malformed { node, rail, err });
            return;
        }
        // An empty datagram is still one (malformed) segment.
        let segments = rx.len.div_ceil(rx.seg_len).max(1);
        if rx.from != self.peer_addrs[node][rail] {
            self.count(|s| s.unknown_source_dropped += segments as u64);
            let from = rx.from;
            self.push_rx_error(UdpRxError::UnknownSource { node, rail, from });
            return;
        }
        if segments > 1 {
            self.count(|s| s.recv_coalesced += 1);
        }
        let src = MacAddr::new((1 - node) as u16, rail as u8);
        let dst = MacAddr::new(node as u16, rail as u8);
        let mut queue = self.queues[node].borrow_mut();
        let received = Bytes::copy_from_slice(&buf[..rx.len]);
        for i in 0..segments {
            let seg = received.slice(i * rx.seg_len..rx.len.min((i + 1) * rx.seg_len));
            match decode_frame_shared(src, dst, &seg) {
                Ok(frame) => {
                    queue.push_back(BpRx {
                        rail: rail as u32,
                        at_ns: now,
                        frame,
                    });
                    self.count(|s| s.delivered += 1);
                }
                Err(err @ CodecError::Checksum { .. }) => {
                    self.count(|s| s.frames_corrupt_dropped += 1);
                    let (channel, seq) = (rail as u32, 0);
                    self.flight.borrow().record(Event {
                        t_ns: now,
                        node: node as u32,
                        conn: None,
                        rail: Some(channel),
                        kind: EventKind::FrameCorrupt { channel, seq },
                    });
                    self.push_rx_error(UdpRxError::Corrupt { node, rail, err });
                }
                Err(err) => {
                    self.count(|s| s.frames_malformed_dropped += 1);
                    self.push_rx_error(UdpRxError::Malformed { node, rail, err });
                }
            }
        }
    }

    /// Spend one system call on `frames` encoded frames lying back to back
    /// in `bytes`, the first `seg_len` long. Returns how many were accepted:
    /// all or none. A failed send (full socket buffer) is a transmit-queue
    /// overflow: the frames are lost and recovered by the reliability
    /// machinery.
    fn send_run(
        &self,
        node: usize,
        rail: usize,
        seg_len: usize,
        frames: usize,
        bytes: &[u8],
    ) -> usize {
        let (sock, to) = (&self.sockets[node][rail], self.peer_addrs[node][rail]);
        self.count(|s| s.send_calls += 1);
        let sent = if frames == 1 {
            sock.send_to(bytes, to)
        } else {
            sys::send_segments(sock, to, seg_len, bytes)
        };
        if sent.is_ok() {
            return frames;
        }
        self.count(|s| s.tx_failed += frames as u64);
        0
    }

    fn send(&self, node: usize, rail: usize, frame: &Frame) -> bool {
        let mut buf = self.buf.borrow_mut();
        let len = encode_frame_to_slice(frame, &mut buf);
        self.send_run(node, rail, len, 1, &buf[..len]) == 1
    }

    /// Send `frames` rail by rail, each rail's frames in order and every
    /// maximal run the kernel takes as one segmented send in one call: all
    /// segments the size of the first, only the last may be shorter (so a
    /// shorter frame closes its run), at most [`MAX_SEGMENTS`] of them in
    /// [`MAX_DATAGRAM`] bytes. A frame's length is known before it is
    /// encoded, so the run is decided first and the frame encoded where it
    /// is sent from. One rail is finished before the next starts, so the
    /// fabric's one buffer stages them all.
    fn send_batch(&self, node: usize, frames: &mut Vec<(usize, Frame)>) -> usize {
        let max_run = if self.segmentation { MAX_SEGMENTS } else { 1 };
        let mut buf = self.buf.borrow_mut();
        let mut accepted = 0;
        for rail in 0..self.rails() {
            // The run being staged: its first frame's length, its frame
            // count, its bytes, and whether a shorter frame has closed it.
            let (mut seg_len, mut run, mut staged, mut closed) = (0, 0, 0, false);
            for (_, frame) in frames.iter().filter(|(r, _)| *r == rail) {
                let len = HEADER_LEN + frame.payload.len();
                let joins = run > 0
                    && !closed
                    && run < max_run
                    && len <= seg_len
                    && staged + len <= MAX_DATAGRAM;
                if !joins {
                    if run > 0 {
                        accepted += self.send_run(node, rail, seg_len, run, &buf[..staged]);
                    }
                    (seg_len, run, staged) = (len, 0, 0);
                }
                closed = len < seg_len;
                staged += encode_frame_to_slice(frame, &mut buf[staged..]);
                run += 1;
            }
            if run > 0 {
                accepted += self.send_run(node, rail, seg_len, run, &buf[..staged]);
            }
        }
        frames.clear();
        accepted
    }
}

/// One node's view of a [`UdpFabric`].
pub struct UdpBackplane {
    fabric: Rc<UdpFabric>,
    node: usize,
}

impl UdpBackplane {
    /// The shared fabric (stats, error log, injection hooks).
    pub fn fabric(&self) -> &Rc<UdpFabric> {
        &self.fabric
    }
}

impl Backplane for UdpBackplane {
    fn rails(&self) -> usize {
        self.fabric.rails()
    }

    fn mtu(&self) -> usize {
        frame::MAX_PAYLOAD
    }

    fn peer_mtu(&self) -> usize {
        // Loopback: both ends speak the same datagram budget.
        frame::MAX_PAYLOAD
    }

    fn local_mac(&self, rail: usize) -> MacAddr {
        MacAddr::new(self.node as u16, rail as u8)
    }

    fn peer_mac(&self, rail: usize) -> MacAddr {
        MacAddr::new((1 - self.node) as u16, rail as u8)
    }

    fn now_ns(&self) -> u64 {
        self.fabric.now_ns()
    }

    fn send(&mut self, rail: usize, frame: Frame) -> bool {
        self.fabric.send(self.node, rail, &frame)
    }

    fn send_batch(&mut self, frames: &mut Vec<(usize, Frame)>) -> usize {
        self.fabric.send_batch(self.node, frames)
    }

    fn next(&mut self) -> Option<BpRx> {
        let fabric = &self.fabric;
        let (queue, swept) = (&fabric.queues[self.node], &fabric.swept[self.node]);
        let head = queue.borrow_mut().pop_front();
        // The sweep that filled the queue ended on a `poll(2)` that found
        // the sockets empty: this drain is over, without asking again.
        if head.is_some() || swept.replace(false) {
            return head;
        }
        // Nothing queued and nothing swept since the last `None`: drain this
        // node's own sockets, so a caller that never calls `advance` still
        // sees its traffic.
        fabric.poll_node(self.node);
        queue.borrow_mut().pop_front()
    }

    fn tx_backlog_ns(&self, _rail: usize) -> u64 {
        // The kernel socket buffer is opaque; report an idle queue.
        0
    }

    fn advance(&mut self, until_ns: u64) -> u64 {
        let base = self.fabric.stats().delivered;
        let mut spins = 0u32;
        loop {
            self.fabric.poll_node(0);
            self.fabric.poll_node(1);
            if self.fabric.stats().delivered != base {
                return self.fabric.now_ns();
            }
            let now = self.fabric.now_ns();
            if now >= until_ns {
                return now;
            }
            // Graduated backoff: loopback latencies are microseconds, so
            // spin first; then yield; then — waiting out a long deadline
            // (delayed acks, a backed-off RTO during a blackout) — sleep in
            // bounded slices instead of burning the core.
            spins = spins.saturating_add(1);
            if spins < SPINS_BEFORE_YIELD {
                std::hint::spin_loop();
            } else if spins < SPINS_BEFORE_YIELD + YIELDS_BEFORE_SLEEP {
                std::thread::yield_now();
            } else {
                let remaining = Duration::from_nanos(until_ns - now);
                std::thread::sleep(IDLE_SLEEP.min(remaining));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use frame::{encode_frame, FrameFlags, FrameHeader, FrameKind};

    fn data_frame(seq: u32) -> Frame {
        Frame {
            src: MacAddr::new(0, 0),
            dst: MacAddr::new(1, 0),
            header: FrameHeader {
                kind: FrameKind::Data,
                flags: FrameFlags::empty(),
                conn: 0,
                seq,
                ack: 0,
                op_id: 0,
                op_total_len: 64,
                fence_floor: 0,
                remote_addr: 0x1000,
                aux: 0,
            },
            payload: Bytes::from(vec![seq as u8; 64]),
        }
    }

    /// Sweep node 1 until `done` or ~2 s elapse; returns the seqs delivered.
    fn sweep_until(fabric: &UdpFabric, done: impl Fn(UdpFabricStats) -> bool) -> Vec<u32> {
        for _ in 0..2000 {
            fabric.poll_node(1);
            if done(fabric.stats()) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let queue = fabric.queues[1].borrow();
        queue.iter().map(|rx| rx.frame.header.seq).collect()
    }

    /// Well-formed segments from a socket that is not the peer: the one
    /// source check of the receive refuses every one of them.
    #[test]
    fn coalesced_datagram_from_a_foreign_socket_is_refused_whole() {
        let fabric = UdpFabric::new(1).expect("bind loopback sockets");
        let foreign = UdpSocket::bind("127.0.0.1:0").expect("bind foreign socket");
        let bytes: Vec<u8> = (0..3)
            .flat_map(|seq| encode_frame(&data_frame(seq)))
            .collect();
        sys::send_segments(&foreign, fabric.local_addr(1, 0), bytes.len() / 3, &bytes)
            .expect("send from foreign socket");
        let seqs = sweep_until(&fabric, |s| s.unknown_source_dropped == 3);
        let s = fabric.stats();
        assert_eq!(
            (
                s.unknown_source_dropped,
                s.delivered,
                s.frames_corrupt_dropped + s.frames_malformed_dropped
            ),
            (3, 0, 0),
            "{s:?}"
        );
        assert!(seqs.is_empty());
        let from = foreign.local_addr().unwrap();
        assert_eq!(
            fabric.take_rx_error(),
            Some(UdpRxError::UnknownSource {
                node: 1,
                rail: 0,
                from
            }),
            "one typed error names the offender"
        );
        assert!(fabric.take_rx_error().is_none());
    }

    /// Where the kernel refused `UDP_GRO` a run is one frame long: the same
    /// code, one plain send per frame.
    #[test]
    fn without_gro_every_frame_is_its_own_send() {
        let mut fabric = UdpFabric::new(1).expect("bind loopback sockets");
        Rc::get_mut(&mut fabric)
            .expect("not shared yet")
            .segmentation = false;
        let mut batch: Vec<(usize, Frame)> = (0..3).map(|seq| (0, data_frame(seq))).collect();
        assert_eq!(fabric.send_batch(0, &mut batch), 3);
        assert!(batch.is_empty());
        let seqs = sweep_until(&fabric, |s| s.delivered == 3);
        let s = fabric.stats();
        assert_eq!(seqs, [0, 1, 2]);
        assert_eq!(
            (s.send_calls, s.recv_coalesced, s.tx_failed),
            (3, 0, 0),
            "{s:?}"
        );
    }
}
