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
//! anyone's `advance`), and an idle poll costs `rails` system calls, not
//! `2 × rails`.
//!
//! Frames cross the sockets in the MultiEdge wire format
//! ([`frame::encode_frame_into`] / [`frame::decode_frame`]); each datagram
//! is one frame. The Ethernet MAC addresses are not carried on the wire —
//! a datagram arriving on node `n`'s rail-`r` socket is *expected* to come
//! from the peer's rail-`r` socket, so the addresses are reconstructed from
//! (node, rail) exactly as a NIC would fill them in. The expectation is now
//! **checked**, not assumed: the sockets are unconnected, every received
//! datagram's source address is compared against the peer socket bound at
//! fabric construction, and a mismatch is counted, dropped, and surfaced as
//! a typed [`UdpRxError::UnknownSource`] — the multi-host-addressing gap
//! the ROADMAP notes, made visible instead of silently misattributed.
//!
//! Datagrams that fail to decode split two ways, the role the Ethernet FCS
//! plays on a real wire: checksum failures count as
//! [`UdpFabricStats::frames_corrupt_dropped`] (bit damage in flight) and
//! are noted as flight-recorder `frame_corrupt` events when a recorder is
//! attached; structurally invalid datagrams (truncated, bad kind/length)
//! count as [`UdpFabricStats::frames_malformed_dropped`]. Both kinds also
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

use frame::{decode_frame, encode_frame_into, CodecError, Frame, MacAddr};
use me_trace::{FlightCode, FlightRecorder, Json};

use super::{Backplane, BpRx};

/// Largest encoded frame: header + max payload (fits any MultiEdge frame).
const DATAGRAM_BUF: usize = frame::HEADER_LEN + frame::MAX_PAYLOAD;

/// Most parked [`UdpRxError`]s retained before the oldest are discarded.
const RX_ERROR_LOG: usize = 32;

/// How the idle loop in [`Backplane::advance`] waits (see
/// [`UdpFabric::new_with`]). The defaults spin briefly for the
/// microsecond-scale loopback latencies, then yield, then sleep — so a
/// long protocol deadline (a backed-off RTO during a blackout) does not
/// burn a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpFabricConfig {
    /// Busy-spin iterations before starting to yield the core.
    pub spin_before_yield: u32,
    /// `yield_now` iterations before falling back to sleeping.
    pub yields_before_sleep: u32,
    /// Sleep granularity once spinning and yielding are exhausted (capped
    /// by the remaining deadline).
    pub idle_sleep: Duration,
}

impl Default for UdpFabricConfig {
    fn default() -> Self {
        Self {
            spin_before_yield: 64,
            yields_before_sleep: 256,
            idle_sleep: Duration::from_micros(50),
        }
    }
}

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
            UdpRxError::Corrupt { node, rail, err } => write!(
                f,
                "corrupt datagram on node {node} rail {rail}: {err:?}"
            ),
            UdpRxError::Malformed { node, rail, err } => write!(
                f,
                "malformed datagram on node {node} rail {rail}: {err:?}"
            ),
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

/// Socket-path counters of one [`UdpFabric`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UdpFabricStats {
    /// Datagrams decoded and delivered to a node's queue.
    pub delivered: u64,
    /// Datagrams dropped on a checksum failure (the FCS role).
    pub frames_corrupt_dropped: u64,
    /// Datagrams dropped as structurally invalid (truncated, bad header).
    pub frames_malformed_dropped: u64,
    /// Datagrams dropped because their source address was not the expected
    /// peer socket.
    pub unknown_source_dropped: u64,
    /// Parked [`UdpRxError`] entries evicted from the bounded error log
    /// before anyone read them — nonzero means the typed error detail (not
    /// the drop itself, which the counters above retain) was lost.
    pub rx_errors_dropped: u64,
    /// `recv_from` system calls made, whatever they returned.
    pub recv_calls: u64,
    /// `recv_from` calls that found the socket empty (`EAGAIN`) — the price
    /// of polling; `recv_calls - recv_would_block` datagrams were read.
    pub recv_would_block: u64,
    /// Frames the kernel refused on `send_to` (a full socket buffer, most
    /// likely): lost on the wire as far as the protocol can tell, so they
    /// come back as retransmissions.
    pub tx_failed: u64,
    /// `recv_from` errors other than `EAGAIN`; the sweep of that socket
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
            .set("recv_calls", self.recv_calls)
            .set("recv_would_block", self.recv_would_block)
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
    /// Per-node receive queues fed by [`UdpFabric::poll_node`].
    queues: [RefCell<VecDeque<BpRx>>; 2],
    /// Wall-clock epoch: `now_ns` is elapsed time since this instant.
    epoch: Instant,
    /// Idle-wait behavior of `advance`.
    cfg: UdpFabricConfig,
    /// Total datagrams delivered (the advance early-stop signal).
    delivered: Cell<u64>,
    /// Datagrams dropped on checksum failure.
    corrupt_dropped: Cell<u64>,
    /// Datagrams dropped as structurally invalid.
    malformed_dropped: Cell<u64>,
    /// Datagrams dropped for an unexpected source address.
    unknown_source_dropped: Cell<u64>,
    /// Bounded log of receive errors (newest kept, oldest discarded).
    rx_errors: RefCell<VecDeque<UdpRxError>>,
    /// Errors evicted from `rx_errors` unread (overflow observability).
    rx_errors_dropped: Cell<u64>,
    /// `recv_from` calls made.
    recv_calls: Cell<u64>,
    /// `recv_from` calls that returned `WouldBlock`.
    recv_would_block: Cell<u64>,
    /// `send_to` calls that failed.
    tx_failed: Cell<u64>,
    /// `recv_from` failures other than `WouldBlock`.
    rx_socket_errors: Cell<u64>,
    /// Optional flight recorder: corrupt drops are noted as trace events.
    flight: RefCell<FlightRecorder>,
    /// Reusable receive buffer.
    buf: RefCell<Box<[u8]>>,
    /// Reusable encode scratch.
    scratch: RefCell<Vec<u8>>,
}

impl UdpFabric {
    /// Bind `2 × rails` loopback sockets with the default
    /// [`UdpFabricConfig`].
    ///
    /// # Errors
    ///
    /// Returns any socket `bind`/configuration error verbatim.
    pub fn new(rails: usize) -> std::io::Result<Rc<UdpFabric>> {
        Self::new_with(rails, UdpFabricConfig::default())
    }

    /// Bind `2 × rails` loopback sockets with explicit idle-wait behavior.
    ///
    /// # Errors
    ///
    /// Returns any socket `bind`/configuration error verbatim.
    pub fn new_with(rails: usize, cfg: UdpFabricConfig) -> std::io::Result<Rc<UdpFabric>> {
        assert!(rails >= 1, "a fabric needs at least one rail");
        let mut sockets: Vec<Vec<UdpSocket>> = Vec::with_capacity(2);
        for _node in 0..2 {
            let mut per_rail = Vec::with_capacity(rails);
            for _rail in 0..rails {
                let s = UdpSocket::bind("127.0.0.1:0")?;
                s.set_nonblocking(true)?;
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
        Ok(Rc::new(UdpFabric {
            sockets,
            peer_addrs,
            queues: [RefCell::default(), RefCell::default()],
            epoch: Instant::now(),
            cfg,
            delivered: Cell::new(0),
            corrupt_dropped: Cell::new(0),
            malformed_dropped: Cell::new(0),
            unknown_source_dropped: Cell::new(0),
            rx_errors: RefCell::new(VecDeque::new()),
            rx_errors_dropped: Cell::new(0),
            recv_calls: Cell::new(0),
            recv_would_block: Cell::new(0),
            tx_failed: Cell::new(0),
            rx_socket_errors: Cell::new(0),
            flight: RefCell::new(FlightRecorder::disabled()),
            buf: RefCell::new(vec![0u8; DATAGRAM_BUF].into_boxed_slice()),
            scratch: RefCell::new(Vec::with_capacity(DATAGRAM_BUF)),
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
        UdpFabricStats {
            delivered: self.delivered.get(),
            frames_corrupt_dropped: self.corrupt_dropped.get(),
            frames_malformed_dropped: self.malformed_dropped.get(),
            unknown_source_dropped: self.unknown_source_dropped.get(),
            rx_errors_dropped: self.rx_errors_dropped.get(),
            recv_calls: self.recv_calls.get(),
            recv_would_block: self.recv_would_block.get(),
            tx_failed: self.tx_failed.get(),
            rx_socket_errors: self.rx_socket_errors.get(),
        }
    }

    /// Datagrams that failed to decode and were dropped — corrupt plus
    /// malformed, the FCS stand-in (kept for callers of the pre-split
    /// counter).
    pub fn decode_dropped(&self) -> u64 {
        self.corrupt_dropped.get() + self.malformed_dropped.get()
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
            bump(&self.rx_errors_dropped);
        }
        log.push_back(err);
    }

    /// Drain every socket of `node` into its receive queue.
    fn poll_node(&self, node: usize) {
        let now = self.now_ns();
        let mut buf = self.buf.borrow_mut();
        for (rail, sock) in self.sockets[node].iter().enumerate() {
            loop {
                bump(&self.recv_calls);
                match sock.recv_from(&mut buf[..]) {
                    Ok((n, from)) => {
                        if from != self.peer_addrs[node][rail] {
                            bump(&self.unknown_source_dropped);
                            self.push_rx_error(UdpRxError::UnknownSource { node, rail, from });
                            continue;
                        }
                        let src = MacAddr::new((1 - node) as u16, rail as u8);
                        let dst = MacAddr::new(node as u16, rail as u8);
                        match decode_frame(src, dst, &buf[..n]) {
                            Ok(frame) => {
                                self.queues[node].borrow_mut().push_back(BpRx {
                                    rail: rail as u32,
                                    at_ns: now,
                                    frame,
                                });
                                bump(&self.delivered);
                            }
                            Err(err @ CodecError::Checksum { .. }) => {
                                bump(&self.corrupt_dropped);
                                self.flight.borrow().note(
                                    FlightCode::FrameCorrupt,
                                    node,
                                    None,
                                    Some(rail as u32),
                                    0,
                                    0,
                                    now,
                                );
                                self.push_rx_error(UdpRxError::Corrupt { node, rail, err });
                            }
                            Err(err) => {
                                bump(&self.malformed_dropped);
                                self.push_rx_error(UdpRxError::Malformed { node, rail, err });
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        bump(&self.recv_would_block);
                        break;
                    }
                    // Any other socket error ends this sweep like a dropped
                    // frame would (the protocol recovers via NACK/RTO), but
                    // is counted so it cannot pass for loss on the wire.
                    Err(_) => {
                        bump(&self.rx_socket_errors);
                        break;
                    }
                }
            }
        }
    }

    fn send(&self, node: usize, rail: usize, frame: &Frame) -> bool {
        let mut scratch = self.scratch.borrow_mut();
        encode_frame_into(frame, &mut scratch);
        // A failed send (full socket buffer) is a transmit-queue overflow:
        // the frame is lost and recovered by the reliability machinery.
        let sent = self.sockets[node][rail]
            .send_to(&scratch, self.peer_addrs[node][rail])
            .is_ok();
        if !sent {
            bump(&self.tx_failed);
        }
        sent
    }
}

fn bump(counter: &Cell<u64>) {
    counter.set(counter.get() + 1);
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

    fn next(&mut self) -> Option<BpRx> {
        let head = self.fabric.queues[self.node].borrow_mut().pop_front();
        if head.is_some() {
            return head;
        }
        // Nothing queued: drain this node's own sockets, so a caller that
        // never calls `advance` still sees its traffic.
        self.fabric.poll_node(self.node);
        self.fabric.queues[self.node].borrow_mut().pop_front()
    }

    fn tx_backlog_ns(&self, _rail: usize) -> u64 {
        // The kernel socket buffer is opaque; report an idle queue.
        0
    }

    fn advance(&mut self, until_ns: u64) -> u64 {
        let base = self.fabric.delivered.get();
        let cfg = self.fabric.cfg;
        let mut spins = 0u32;
        loop {
            self.fabric.poll_node(0);
            self.fabric.poll_node(1);
            if self.fabric.delivered.get() != base {
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
            if spins < cfg.spin_before_yield {
                std::hint::spin_loop();
            } else if spins < cfg.spin_before_yield.saturating_add(cfg.yields_before_sleep) {
                std::thread::yield_now();
            } else {
                let remaining = Duration::from_nanos(until_ns - now);
                std::thread::sleep(cfg.idle_sleep.min(remaining));
            }
        }
    }
}
