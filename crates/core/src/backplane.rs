//! The transport backplane: the seam between the MultiEdge protocol state
//! machines and whatever actually carries frames.
//!
//! Everything above this trait — sliding window, striping scheduler, rail
//! health, NACK/RTO recovery, fences, remote reads, span instrumentation —
//! is [`ProtoCore`](crate::ProtoCore), pure state-machine code shared with
//! the simulator's [`Endpoint`](crate::Endpoint). Everything below it is
//! mechanics: the netsim discrete event simulator ([`SimBackplane`]) or
//! real non-blocking UDP sockets on loopback ([`UdpBackplane`]), one socket
//! per rail. [`WireEndpoint`] is the driver that runs the core over either
//! implementation **unmodified**, which is what makes the simulator's cost
//! model falsifiable: run the same workload on both backends, snapshot the
//! same span recorder, and subtract the per-phase attributions with
//! `me-inspect diff` (see `docs/BACKPLANE.md`).
//!
//! The shape follows the netmod `Endpoint` abstraction from irdest
//! (SNIPPETS.md Snippet 2): a backend advertises its frame size budget,
//! accepts sends, and yields received frames — with two MultiEdge-specific
//! additions, per-rail identity (striping needs to address each physical
//! link) and an explicit deadline-driven [`Backplane::advance`] so one
//! single-threaded poll loop can drive timers on virtual *or* wall-clock
//! time.

use frame::{Frame, MacAddr};

mod chaos;
mod sim;
mod sys;
mod udp;
mod wire;

pub use chaos::{ChaosConfig, ChaosStats, FaultBackplane};
pub use sim::SimBackplane;
pub use udp::{UdpBackplane, UdpFabric, UdpFabricStats, UdpRxError};
pub use wire::{
    drain, drive_with, CompletedWrite, DriveLimits, WireConnState, WireEndpoint, WireError,
};

/// One frame delivered by a backplane, tagged with the rail it arrived on
/// and the backplane-clock timestamp of its physical arrival.
///
/// The timestamp is captured at delivery (inside the simulator's receive
/// event, or when the datagram is drained from its socket) rather than when
/// the driver gets around to processing the frame, so the span recorder's
/// arrival milestone stays honest even when the poll loop is behind.
#[derive(Debug, Clone)]
pub struct BpRx {
    /// Rail the frame arrived on.
    pub rail: u32,
    /// Arrival timestamp on this backplane's clock (see
    /// [`Backplane::now_ns`]).
    pub at_ns: u64,
    /// The decoded frame.
    pub frame: Frame,
}

/// A transport backend: per-rail frame I/O plus the clock that drives the
/// protocol's timers.
///
/// # Contract
///
/// * **Rail identity.** A backplane exposes `rails()` independent links,
///   indexed `0..rails()`. [`Backplane::local_mac`]/[`Backplane::peer_mac`]
///   give the per-rail addresses frames must carry; the protocol stripes
///   frames across rails and routes control traffic by rail index.
/// * **Ordering.** No ordering guarantee, per rail or across rails. Frames
///   may be reordered, dropped ([`Backplane::send`] returning `true` only
///   means *accepted*, never *delivered*) or — on a lossy backend —
///   corrupted in flight; corrupted frames are discarded by the backplane
///   (they model what the Ethernet FCS would have caught) and never reach
///   [`Backplane::next`].
/// * **Batches.** [`Backplane::send_batch`] is [`Backplane::send`] for
///   every frame of the vector, and a backend may spend fewer system calls
///   on it. The same loss rules hold **per frame**: the count returned is of
///   frames *accepted*, not delivered, and any frame of a batch may be lost
///   on its own. Frames of one rail are handed to that rail in the order
///   given; nothing is promised across rails. Nothing is deferred: when the
///   call returns every frame has been handed over or refused, the vector
///   is empty, and the backend holds no staged frame — there is no flush.
/// * **MTU.** [`Backplane::mtu`] is the largest payload (in bytes, after
///   the MultiEdge header) one frame may carry; [`Backplane::peer_mtu`] is
///   the largest payload the peer can accept. Senders must fragment to
///   `mtu().min(peer_mtu())`.
/// * **Time source.** [`Backplane::now_ns`] is a monotonic nanosecond clock
///   starting near zero: virtual time on the simulator, wall-clock time
///   since fabric creation on UDP. All protocol deadlines (delayed ack,
///   NACK pacing, RTO) are expressed on this clock, which is what lets the
///   identical driver code run on both.
/// * **Progress.** [`Backplane::advance`] blocks (virtually or really)
///   until either `until_ns` is reached or new frames became available
///   *anywhere on the fabric* — not just for this node — so a driver loop
///   interleaving several endpoints never sleeps through a peer's traffic.
pub trait Backplane {
    /// Number of independent rails (physical links) this backplane spans.
    fn rails(&self) -> usize;

    /// Largest frame payload this backplane can carry, in bytes.
    fn mtu(&self) -> usize;

    /// Largest frame payload the peer can accept, in bytes. Senders
    /// fragment to `mtu().min(peer_mtu())`.
    fn peer_mtu(&self) -> usize;

    /// This node's address on `rail`.
    fn local_mac(&self, rail: usize) -> MacAddr;

    /// The peer's address on `rail` (the per-rail send target).
    fn peer_mac(&self, rail: usize) -> MacAddr;

    /// Monotonic nanoseconds on this backplane's clock.
    fn now_ns(&self) -> u64;

    /// Hand `frame` to `rail` for transmission. Returns `false` when the
    /// rail rejected it (transmit queue full) — the frame is then simply
    /// lost from the protocol's point of view and recovered like any other
    /// loss (NACK or RTO).
    fn send(&mut self, rail: usize, frame: Frame) -> bool;

    /// Hand every `(rail, frame)` of `frames` over as [`Backplane::send`]
    /// would, draining the vector (its capacity stays with the caller), and
    /// return how many were accepted. The default sends them one by one; a
    /// backend overrides it to amortise its per-call cost over the batch
    /// (see the *Batches* clause of the contract).
    fn send_batch(&mut self, frames: &mut Vec<(usize, Frame)>) -> usize {
        frames
            .drain(..)
            .map(|(rail, frame)| usize::from(self.send(rail, frame)))
            .sum()
    }

    /// The next received frame for this node, if any is pending.
    fn next(&mut self) -> Option<BpRx>;

    /// Current transmit backlog of `rail` in nanoseconds of wire time —
    /// the queue-aware scheduling signal. Backends that cannot observe
    /// their queues (UDP: the kernel socket buffer is opaque) report 0.
    fn tx_backlog_ns(&self, rail: usize) -> u64;

    /// Let the transport make progress until `until_ns` (on this
    /// backplane's clock) or until new frames arrived anywhere on the
    /// fabric, whichever is first. Returns the clock after advancing.
    fn advance(&mut self, until_ns: u64) -> u64;
}
