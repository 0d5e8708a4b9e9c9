//! [`ProtoCore`]: the MultiEdge protocol, written once.
//!
//! Everything §2.3–2.6 of the paper specifies lives here and nowhere else:
//! fragmentation, the sliding window with piggybacked / delayed / negative
//! acknowledgements and the coarse retransmission timeout, frame striping
//! with rail health, the fence-aware receive path, remote-read service.
//! The core owns the connections, the node's [`AppMemory`], the protocol
//! counters and the observability handles; it knows nothing about what
//! carries frames or what a nanosecond costs.
//!
//! # Shape
//!
//! Inputs are *op issued* ([`ProtoCore::issue`]), *frame received on rail
//! r* ([`ProtoCore::on_frame`]) and *timer due* ([`ProtoCore::on_timer`]),
//! each stamped with the driver's clock. Outputs are [`Effect`]s, appended
//! to one reused buffer in the order the protocol produces them and handed
//! to the driver's [`Host::perform`] at every point where the protocol's
//! next decision may observe their consequences (the end of a window
//! release, a retransmission batch, a read service, and of the input
//! itself). Within one such batch every rail is picked before any frame is
//! sent, so [`Host::tx_backlog_ns`] reports the backlog *before* the batch.
//!
//! What the core needs mid-computation — per-rail transmit backlog, one
//! random draw, the fragment size the transport can carry — it asks the
//! [`Host`] for. Two drivers implement it: [`Endpoint`](crate::Endpoint)
//! (simulator: cost model, interrupt moderation, awaitable handles) and
//! [`WireEndpoint`](crate::WireEndpoint) (poll/deadline loop over a
//! [`Backplane`](crate::Backplane)).
//!
//! # One owner per fact
//!
//! The core owns the due instant of every armed timer: each connection
//! records when its delayed-ack, NACK and RTO timers are due,
//! [`ProtoCore::next_deadline`] reads the earliest and
//! [`ProtoCore::fire_due`] fires what is due, so no driver keeps a copy.
//! [`Effect::Arm`] is the simulator's cue to schedule its engine event at
//! the instant the core recorded. Counters are kept once too: each
//! connection counts what it does, and [`ProtoCore::stats`] is their sum
//! plus the host counters a driver owns (interrupts, coalescing, corrupt
//! frames).
//!
//! # Completion contract
//!
//! [`Effect::OpDone`] means *the protocol is finished with the op at `now`*:
//! a write's last frame is covered by the peer's cumulative ack (so every
//! byte of it was admitted by the peer's receive window), a read's response
//! data has been applied to local memory. *When the application learns* is
//! the driver's decision — the simulator adds its wake-up cost, the wire
//! driver queues the completion at once — and the driver emits
//! `OpComplete` at that instant.
//!
//! # Observability
//!
//! The core calls one observability function, [`Observers::emit`]: every
//! fact it knows (an op issued, a frame sent or admitted, an ack, a fence
//! release, an op done, a read served) is one [`EventKind`], and the
//! tracer, the op-span recorder and the flight recorder each fold the same
//! event.

use crate::config::{
    ProtoConfig, DELAYED_ACK_TIMEOUT, NACK_DELAY, NACK_REPEAT, RAIL_DEGRADED_AFTER, RTO_INITIAL,
    RTO_MIN,
};
use crate::memory::{AppMemory, Payload};
use crate::ops::{Notification, OpFlags, OpKind};
use crate::order::{FragMeta, OpOrdering, Release};
use crate::railhealth::{RailEvent, RailSet, RailState};
use crate::recvseq::{Admit, SeqTracker};
use crate::ring::{GapRing, TxRing, TxSlot};
use crate::rtt::{RepairEstimator, RttEstimator};
use crate::sched::LinkScheduler;
use crate::seqspace::{from_wire, to_wire};
use crate::stats::ProtoStats;
use bytes::Bytes;
use frame::{FastMap, Frame, FrameFlags, FrameHeader, FrameKind, MacAddr, NackRanges};
use me_trace::EventKind;
pub use me_trace::Observers;
use netsim::time::{Dur, SimTime};
use std::collections::VecDeque;

/// The three per-connection protocol timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// Delayed explicit acknowledgement.
    Ack,
    /// Gap check: NACK what has been missing for long enough.
    Nack,
    /// Coarse retransmission timeout.
    Rto,
}

/// Host work the protocol caused, for a driver that prices it (the
/// simulator's cost model). Items are reported one by one, never summed,
/// because a cost model may round per item; and at once, outside the
/// ordered effect list, because charges commute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostWork {
    /// One control frame (explicit ACK or NACK) built and posted.
    CtrlFrame,
    /// `frames` frames rebuilt and posted for retransmission.
    Retransmit {
        /// Frames retransmitted.
        frames: u64,
    },
    /// `frames` window-released frames posted from protocol context (the
    /// application path pre-pays its own posts at issue).
    WindowPost {
        /// Frames posted.
        frames: u64,
    },
    /// A remote read served: `len` bytes copied out into `frags` frames.
    ReadServed {
        /// Bytes read from local memory.
        len: usize,
        /// Response frames built.
        frags: u64,
    },
}

/// One thing the protocol asks its driver to do.
#[derive(Debug)]
pub enum Effect<T> {
    /// Put `frame` on rail `rail`.
    Send {
        /// Rail index.
        rail: usize,
        /// The frame, addresses and piggybacked ack filled in.
        frame: Frame,
    },
    /// Timer `(conn, timer)` is now due at `at_ns`. The core owns the due
    /// instant ([`ProtoCore::next_deadline`], [`ProtoCore::fire_due`]); this
    /// is the simulator's cue to schedule the engine event that calls
    /// [`ProtoCore::on_timer`] then. Each timer is armed at most once until
    /// it fires.
    Arm {
        /// Connection the timer belongs to.
        conn: usize,
        /// Which timer.
        timer: TimerKind,
        /// Due instant on the driver's clock.
        at_ns: u64,
    },
    /// The protocol is done with op `op` (see the module docs' completion
    /// contract); `token` is what the driver passed at issue.
    OpDone {
        /// Connection the op was issued on.
        conn: usize,
        /// Operation id.
        op: u64,
        /// Write or read.
        kind: OpKind,
        /// The driver's completion token.
        token: T,
    },
    /// A notifying remote write has been fully applied here.
    Notify(Notification),
}

/// What the core asks of its driver.
pub trait Host<T> {
    /// Largest fragment payload the transport carries, in bytes, where
    /// that is a tighter bound than [`frame::MAX_PAYLOAD`].
    fn max_payload(&self) -> usize {
        usize::MAX
    }

    /// Transmit backlog of `rail` in nanoseconds of wire time (consulted by
    /// queue-aware scheduling, and by `FrameSend` when a plane observes).
    fn tx_backlog_ns(&self, rail: usize) -> u64;

    /// The backlog a retransmission joins on `rail`, for its `FrameSend`:
    /// less than [`Self::tx_backlog_ns`] where the transport sends repairs
    /// ahead of queued data (the simulator's NIC bands), the same where it
    /// has one queue.
    fn repair_backlog_ns(&self, rail: usize) -> u64 {
        self.tx_backlog_ns(rail)
    }

    /// One uniform draw from `0..n`, for
    /// [`SchedPolicy::Random`](crate::SchedPolicy::Random).
    fn draw(&self, n: usize) -> usize;

    /// The protocol did `work` on this host's behalf. A host that models no
    /// cost ignores it.
    fn work(&mut self, _work: HostWork) {}

    /// Carry out `effects` in order at `now_ns`. `obs` is the core's
    /// observability handle set, for stamping completions. What wakes the
    /// receiving application — notifications, then finished reads — always
    /// arrives as the tail of one call.
    fn perform(&mut self, obs: &Observers, now_ns: u64, effects: &mut Vec<Effect<T>>);
}

/// Payload of a fragment travelling through the reorder machinery.
#[derive(Debug, Clone)]
struct FragPayload {
    kind: FrameKind,
    addr: u64,
    data: Bytes,
}

/// Metadata retained per receiving operation until it completes.
#[derive(Debug, Clone)]
struct OpMetaInfo {
    kind: FrameKind,
    start_addr: u64,
    total: u64,
    aux: u64,
    notify: bool,
    /// For read requests: the requested length (validated at admission).
    req_len: u64,
}

/// Snapshot of one connection's sequencing and ordering state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnState {
    /// Next sequence number the sender will assign.
    pub next_seq: u64,
    /// Cumulative ack received from the peer (send direction clean iff
    /// equal to `next_seq`).
    pub acked: u64,
    /// One past the highest sequence transmitted.
    pub sent_up_to: u64,
    /// Receive-direction cumulative: all sequences below arrived.
    pub cumulative: u64,
    /// All ops below this id are fully applied at this receiver.
    pub applied_below: u64,
    /// Fragments currently held back by fences.
    pub fence_buffered: usize,
    /// The receive window currently has a sequence gap.
    pub has_gap: bool,
}

/// One connection's full state (both directions).
pub struct Conn<T> {
    peer_node: usize,
    peer_conn_id: u32,

    // ---- send direction ----
    /// Next sequence number to assign to a new frame.
    next_seq: u64,
    /// All frames with sequence < `acked` are positively acknowledged.
    acked: u64,
    /// Next sequence to put on the wire (frames in `[acked, sent_up_to)`
    /// are in flight; `[sent_up_to, next_seq)` wait for the window).
    sent_up_to: u64,
    /// In-flight frames `[acked, sent_up_to)` with their transmission
    /// bookkeeping (rail, send time, Karn retransmission mark), in a ring
    /// that grows with the depth in flight up to the window: O(1)
    /// insert/lookup/removal, no per-frame allocation once grown.
    tx: TxRing,
    /// Built frames that did not fit the window at issue, in sequence
    /// order, ending at `next_seq` (between inputs the front is
    /// `sent_up_to`). A frame that fits goes straight into `tx`, so this
    /// holds only the overflow of a large or deep burst. Unbounded — a
    /// large issued operation fragments up front — so it stays a queue
    /// rather than joining the window ring.
    send_queue: VecDeque<Frame>,
    /// Next operation id to assign (dense, issue order).
    next_op: u64,
    /// Most recent forward-fenced op issued (source of fence floors).
    last_fwd_op: Option<u64>,
    /// Write ops awaiting acknowledgement: (last frame seq, op id, token).
    pending_write_ops: VecDeque<(u64, u64, T)>,
    /// Read ops awaiting response data, keyed by our read op id.
    pending_reads: FastMap<u64, T>,
    sched: LinkScheduler,
    /// Last time the cumulative ack advanced (for the coarse timeout).
    last_progress: SimTime,
    /// Due instant (ns) of each armed timer, indexed by [`TimerKind`].
    due: [Option<u64>; 3],
    /// Per-rail health state machine driving the striping eligibility mask.
    rails: RailSet,
    /// Rail that most recently delivered any frame from the peer; control
    /// frames (acks, nacks) are sent back along it (reverse-path routing),
    /// so they avoid rails the peer has stopped using.
    last_rx_rail: Option<usize>,
    /// Adaptive retransmission timeout (RFC 6298-style SRTT/RTTVAR).
    rtt: RttEstimator,

    // ---- receive direction ----
    seqs: SeqTracker,
    order: OpOrdering<FragPayload>,
    /// When the reorder buffer last went from empty to non-empty (`None`
    /// while empty): the fence-stall clock, kept whether or not any
    /// observer is enabled.
    buffered_since: Option<u64>,
    op_meta: FastMap<u64, OpMetaInfo>,
    /// Data frames received since the last acknowledgement we sent.
    frames_since_ack: u32,
    /// One past the highest sequence whose frame carried `ACK_REQUEST`,
    /// 0 once an ack covering it has left: an explicit ack goes out in the
    /// input where the cumulative ack reaches it.
    ack_requested: u64,
    /// Per-gap-start NACK-dedup state (first seen / last NACKed), in a
    /// ring that grows with the gaps open at once up to the window, purged
    /// below the cumulative ack on every NACK check — its live size is
    /// window-bounded by construction.
    gaps: GapRing,
    /// One past the highest data-bearing sequence admitted as new on each
    /// rail from a first transmission, as a 32-bit wire value
    /// ([`every_rail_passed`] expands it). A rail delivers first
    /// transmissions in order, so a sequence still missing below every
    /// rail's mark was lost, not overtaken. Empty until the first
    /// data-bearing frame, so an idle connection keeps no buffer for it.
    rail_marks: Vec<u32>,
    /// Every sequence missing below this was NACKed as proven lost when
    /// the smallest rail mark passed it.
    proven_below: u64,
    /// How long a proven gap's repair takes: the interval after which its
    /// NACK is repeated.
    repair: RepairEstimator,

    // ---- observability ----
    /// This connection's protocol counters: the node's are these summed
    /// over its connections, plus the host counters ([`ProtoCore::stats`]).
    stats: ProtoStats,
    /// Receive ops currently held back by a fence, keyed by op id →
    /// stall start time. Populated only while an observer (tracer, span
    /// recorder, or flight recorder) is enabled.
    fence_stall_start: FastMap<u64, SimTime>,
}

impl<T> Conn<T> {
    fn new(
        peer_node: usize,
        peer_conn_id: u32,
        proto: &ProtoConfig,
        nrails: usize,
        start_rail: usize,
    ) -> Self {
        Self {
            peer_node,
            peer_conn_id,
            next_seq: 0,
            acked: 0,
            sent_up_to: 0,
            tx: TxRing::with_window(proto.window as usize),
            send_queue: VecDeque::new(),
            next_op: 0,
            last_fwd_op: None,
            pending_write_ops: VecDeque::new(),
            pending_reads: FastMap::default(),
            sched: LinkScheduler::starting_at(proto.sched, start_rail),
            last_progress: SimTime::ZERO,
            due: [None; 3],
            rails: RailSet::new(
                nrails,
                RAIL_DEGRADED_AFTER,
                proto.rail_dead_after,
                proto.rail_cooldown,
            ),
            last_rx_rail: None,
            rtt: RttEstimator::new(RTO_INITIAL, RTO_MIN, proto.rto_max),
            seqs: SeqTracker::with_window(proto.window as usize),
            order: OpOrdering::new(),
            buffered_since: None,
            op_meta: FastMap::default(),
            frames_since_ack: 0,
            ack_requested: 0,
            gaps: GapRing::with_window(proto.window as usize),
            rail_marks: Vec::new(),
            proven_below: 0,
            repair: RepairEstimator::default(),
            stats: ProtoStats::default(),
            fence_stall_start: FastMap::default(),
        }
    }

    /// Unacknowledged frames currently on the wire.
    pub fn in_flight(&self) -> u64 {
        self.sent_up_to - self.acked
    }

    /// Health state of `rail` from this connection's sending side.
    pub fn rail_state(&self, rail: usize) -> RailState {
        self.rails.state(rail)
    }

    /// Rails this connection currently stripes onto (not dead).
    pub fn active_rails(&self) -> usize {
        self.rails.active_rails()
    }

    /// Current adaptive retransmission timeout, backoff included.
    pub fn current_rto(&self) -> Dur {
        self.rtt.current_rto()
    }

    /// Smoothed RTT, once at least one sample exists.
    pub fn srtt(&self) -> Option<Dur> {
        self.rtt.srtt()
    }

    /// How long a proven gap waits after its NACK before the next, backoff
    /// included ([`RepairEstimator::interval`]).
    pub fn repair_interval(&self) -> Dur {
        self.repair.interval()
    }

    /// Exponential-backoff level of the RTO (0 = not backed off).
    pub fn rto_backoff(&self) -> u32 {
        self.rtt.backoff()
    }

    /// Connection-local slice of the protocol counters (reorder peak
    /// folded in).
    pub fn stats(&self) -> ProtoStats {
        let mut s = self.stats;
        s.reorder_peak = self.order.buffered_peak() as u64;
        s
    }

    /// Sequencing/ordering snapshot.
    pub fn state(&self) -> ConnState {
        ConnState {
            next_seq: self.next_seq,
            acked: self.acked,
            sent_up_to: self.sent_up_to,
            cumulative: self.seqs.cumulative(),
            applied_below: self.order.applied_below(),
            fence_buffered: self.order.buffered(),
            has_gap: self.seqs.has_gap(),
        }
    }

    /// Nothing queued or unacknowledged to send, no receive gap, no
    /// fence-blocked fragments.
    pub fn quiesced(&self) -> bool {
        self.send_queue.is_empty()
            && self.acked == self.next_seq
            && !self.seqs.has_gap()
            && self.order.buffered() == 0
    }

    /// Hot-path state sizes the window must bound: (in-flight tx frames,
    /// live NACK-dedup gap entries, frames held out of order).
    pub fn window_state_sizes(&self) -> (usize, usize, usize) {
        (self.tx.len(), self.gaps.len(), self.seqs.ooo_held())
    }

    /// Whether a legitimate peer can have sent a frame with header `h`. The
    /// peer sends nothing at or past `acked + window` (both ends run the
    /// same window), and its `acked` is at most our cumulative ack, so a
    /// new data-bearing frame's seq lies below `cumulative + window`. Its
    /// op id lies in `[applied_below, applied_below + window)`: the op at
    /// `applied_below` is missing a frame at or above the peer's `acked`
    /// and every later op adds at least one frame after it. A duplicate is
    /// always admissible (it is re-acked at once).
    fn admissible(&self, h: &FrameHeader, window: u64) -> bool {
        if !matches!(
            h.kind,
            FrameKind::Data | FrameKind::ReadResponse | FrameKind::ReadRequest
        ) {
            return true;
        }
        let (below, cum) = (self.order.applied_below(), self.seqs.cumulative());
        let op = from_wire(below, h.op_id);
        let seq = from_wire(cum, h.seq);
        (op.wrapping_sub(below) < window && seq.wrapping_sub(cum) < window) || self.seqs.seen(seq)
    }

    /// A frame asked for an ack, and the cumulative ack now covers it.
    fn ack_asked(&self) -> bool {
        self.ack_requested != 0 && self.seqs.cumulative() >= self.ack_requested
    }
}

/// `frame`'s ring slot before its first transmission, which stamps the rail
/// and the time.
fn unsent(seq: u64, frame: Frame) -> TxSlot {
    TxSlot {
        seq,
        rail: 0,
        sent_at: SimTime::ZERO,
        retransmitted: false,
        frame,
    }
}

/// A remote read to serve once the frame that completed its request has
/// been processed: (address here, initiator's buffer, length, initiator's
/// read-op id).
type ReadServe = (u64, u64, u64, u64);

/// The requested length carried by a well-formed read request, or `None`
/// for one no legitimate peer sends: the payload is the 8-byte length, and
/// the response's `op_total_len` is a `u32`, so no read is longer.
fn read_request_len(payload: &[u8]) -> Option<u64> {
    let len = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    (len <= u64::from(u32::MAX)).then_some(len)
}

/// An operation the application asks for.
#[derive(Debug, Clone)]
pub enum Op {
    /// Copy `data` to `remote_addr` in the peer's address space.
    Write {
        /// Destination in the peer's memory.
        remote_addr: u64,
        /// The bytes to write: memory is read when the op is issued.
        data: Payload,
    },
    /// Fetch `len` bytes at the peer's `remote_addr` into `local_addr`.
    Read {
        /// Destination in this node's memory.
        local_addr: u64,
        /// Source in the peer's memory.
        remote_addr: u64,
        /// Bytes to fetch (non-zero).
        len: usize,
    },
}

/// One node's protocol instance (see the module docs). `T` is the
/// driver's opaque per-op completion token.
pub struct ProtoCore<T> {
    /// The observability handles this instance records into.
    pub obs: Observers,
    /// This node's application memory.
    pub memory: AppMemory,
    proto: ProtoConfig,
    nrails: usize,
    conns: Vec<Conn<T>>,
    /// The host-side counters a driver owns (interrupts, coalescing,
    /// corrupt frames); every other field stays zero here.
    host: ProtoStats,
    /// NACK-triggered retransmissions suppressed by the
    /// [`ProtoConfig::nack_resend_burst`] cap, frames rejected at
    /// admission, and first transmissions that arrived late for a sequence
    /// the proof of loss had passed ([`ProtoCore::spurious_proofs`]).
    /// Endpoint-local: [`ProtoStats`] is fingerprinted.
    storm_suppressed: u64,
    rx_rejected: u64,
    spurious_proofs: u64,
    /// The instant of the input being processed.
    now: SimTime,
    /// The ordered effect buffer and the per-input scratch vectors, all
    /// drained and reused so the steady-state datapath does not allocate.
    effects: Vec<Effect<T>>,
    resend_scratch: Vec<u64>,
    serve_scratch: Vec<ReadServe>,
    notify_scratch: Vec<Notification>,
    read_done_scratch: Vec<(u64, T)>,
    nack_scratch: Vec<(u32, u32)>,
    missing_scratch: Vec<(u64, u64)>,
    release_scratch: Release<FragPayload>,
}

impl<T> ProtoCore<T> {
    /// A protocol instance for `node` striping over `rails` rails, with
    /// every observability plane disabled.
    pub fn new(node: usize, proto: ProtoConfig, rails: usize) -> Self {
        Self {
            obs: Observers::disabled(node),
            memory: AppMemory::new(),
            proto,
            nrails: rails,
            conns: Vec::new(),
            host: ProtoStats::default(),
            storm_suppressed: 0,
            rx_rejected: 0,
            spurious_proofs: 0,
            now: SimTime::ZERO,
            effects: Vec::new(),
            resend_scratch: Vec::new(),
            serve_scratch: Vec::new(),
            notify_scratch: Vec::new(),
            read_done_scratch: Vec::new(),
            nack_scratch: Vec::new(),
            missing_scratch: Vec::new(),
            release_scratch: Release::default(),
        }
    }

    /// Add a connection to `peer_node`, whose id for it is `peer_conn_id`.
    /// Returns the local connection id (dense, in call order).
    ///
    /// The connection's rail rotation starts at `(node + peer − 1) mod
    /// rails`: a node's connections start on different rails, and so do
    /// the connections into it, so many connections striping at once do
    /// not move over the same rails in lockstep. Both ends of a pair start
    /// on the same rail, and the pair (0, 1) on rail 0.
    pub fn connect(&mut self, peer_node: usize, peer_conn_id: usize) -> usize {
        let node = self.obs.node;
        assert!(node != peer_node, "cannot connect a node to itself");
        let rails = self.nrails;
        let start = (node + peer_node + rails - 1) % rails;
        let conn = Conn::new(peer_node, peer_conn_id as u32, &self.proto, rails, start);
        self.conns.push(conn);
        let id = self.conns.len() - 1;
        let (peer_node, peer_conn) = (peer_node as u32, peer_conn_id as u32);
        let event = EventKind::Connect {
            peer_node,
            peer_conn,
        };
        self.obs.emit(self.now_ns(), Some(id), None, event);
        id
    }

    /// The protocol parameters this instance runs with.
    pub fn proto(&self) -> &ProtoConfig {
        &self.proto
    }

    /// Every connection, in id order.
    pub fn conns(&self) -> &[Conn<T>] {
        &self.conns
    }

    /// Endpoint-wide protocol statistics: the connections' counters
    /// summed (peaks maxed), plus the host counters.
    pub fn stats(&self) -> ProtoStats {
        let mut s = self.host;
        for c in &self.conns {
            s.merge(&c.stats());
        }
        s
    }

    /// The host-side counters a driver owns (interrupts, coalescing,
    /// corrupt frames).
    pub fn host_stats(&mut self) -> &mut ProtoStats {
        &mut self.host
    }

    /// NACK-triggered retransmissions suppressed by the
    /// [`ProtoConfig::nack_resend_burst`] storm cap.
    pub fn storm_suppressed(&self) -> u64 {
        self.storm_suppressed
    }

    /// Received frames dropped at admission because no legitimate peer
    /// sends them: unknown connection id, a malformed read request, or a
    /// new data frame whose op id lies outside the window of ops in
    /// progress.
    pub fn rx_rejected(&self) -> u64 {
        self.rx_rejected
    }

    /// Data-bearing first transmissions that arrived below their
    /// connection's proof frontier behind a later first transmission on
    /// their own rail: each is a sequence the proof of loss took for lost
    /// while it was only late, whether it arrives before its repair (new)
    /// or after it (a duplicate). Zero wherever rails are FIFO.
    pub fn spurious_proofs(&self) -> u64 {
        self.spurious_proofs
    }

    /// Rails this instance stripes over.
    pub fn rails(&self) -> usize {
        self.nrails
    }

    /// Monotone counter that moves iff real protocol progress happened:
    /// receive counters plus acknowledgement, cumulative and fence-release
    /// frontiers. Timer fires and retransmissions deliberately do not move
    /// it — a peer retransmitting into a dead fabric is not progressing.
    pub fn progress_token(&self) -> u64 {
        let token = |c: &Conn<T>| {
            let s = &c.stats;
            let recv =
                s.data_frames_recv + s.ctrl_frames_recv + s.dup_frames_recv + s.notifications;
            recv + c.acked + c.seqs.cumulative() + c.order.applied_below()
        };
        self.conns.iter().map(token).sum()
    }

    /// True when every connection is [`Conn::quiesced`].
    pub fn quiesced(&self) -> bool {
        self.conns.iter().all(|c| c.quiesced())
    }

    /// Fewest live rails across connections (`None` with no connections).
    pub fn min_active_rails(&self) -> Option<usize> {
        self.conns.iter().map(|c| c.active_rails()).min()
    }

    /// Largest RTO backoff exponent across connections.
    pub fn max_backoff(&self) -> u32 {
        self.conns
            .iter()
            .map(|c| c.rto_backoff())
            .max()
            .unwrap_or(0)
    }

    /// Total fence-blocked fragments across connections.
    pub fn fence_buffered_total(&self) -> usize {
        self.conns.iter().map(|c| c.order.buffered()).sum()
    }

    /// Earliest instant any connection's reorder buffer became non-empty.
    pub fn fence_stall_since(&self) -> Option<u64> {
        self.conns.iter().filter_map(|c| c.buffered_since).min()
    }

    /// Earliest due instant of any armed timer.
    pub fn next_deadline(&self) -> Option<u64> {
        self.conns.iter().flat_map(|c| c.due).flatten().min()
    }

    /// Count `op` as asked for by the application. Separate from
    /// [`ProtoCore::issue`] because a driver may charge an initiation cost
    /// between the request and the instant the frames are built.
    pub fn count_op(&mut self, conn: usize, op: &Op) {
        let s = &mut self.conns[conn].stats;
        match op {
            Op::Write { data, .. } => {
                s.ops_write += 1;
                s.bytes_written += data.len() as u64;
            }
            Op::Read { len, .. } => {
                s.ops_read += 1;
                s.bytes_read += *len as u64;
            }
        }
    }

    /// Abandon connection `conn`'s in-flight sends after a fatal error:
    /// clears the send queue, disarms every timer, and returns the ids of
    /// the operations that will never complete.
    pub fn abort_pending(&mut self, conn: usize) -> Vec<u64> {
        let c = &mut self.conns[conn];
        c.send_queue.clear();
        c.due = [None; 3];
        let mut ops: Vec<u64> = c.pending_write_ops.drain(..).map(|(_, op, _)| op).collect();
        ops.extend(c.pending_reads.drain().map(|(op, _)| op));
        ops.sort_unstable();
        ops
    }

    fn now_ns(&self) -> u64 {
        self.now.as_nanos()
    }

    /// Hand the buffered effects to the driver.
    fn flush<H: Host<T>>(&mut self, host: &mut H) {
        if self.effects.is_empty() {
            return;
        }
        let mut fx = std::mem::take(&mut self.effects);
        host.perform(&self.obs, self.now.as_nanos(), &mut fx);
        fx.clear();
        self.effects = fx;
    }

    // ------------------------------------------------------------------
    // Issue path
    // ------------------------------------------------------------------

    /// Issue `op` on `conn`. Returns the operation id; [`Effect::OpDone`]
    /// carries `token` back once the covering ack arrives (write) or all
    /// response data has been applied locally (read). `created_ns` is when
    /// the application asked.
    #[allow(clippy::too_many_arguments)]
    pub fn issue<H: Host<T>>(
        &mut self,
        conn: usize,
        op: Op,
        flags: OpFlags,
        token: T,
        created_ns: u64,
        now_ns: u64,
        host: &mut H,
    ) -> u64 {
        self.now = SimTime(now_ns);
        let (op_id, read, bytes) = match op {
            Op::Write { remote_addr, data } => {
                let bytes = data.len() as u64;
                let (op_id, _, last_seq) =
                    self.queue_op(conn, FrameKind::Data, flags, remote_addr, 0, data, host);
                let c = &mut self.conns[conn];
                c.pending_write_ops.push_back((last_seq, op_id, token));
                (op_id, false, bytes)
            }
            Op::Read {
                local_addr,
                remote_addr,
                len,
            } => {
                assert!(len > 0, "zero-length remote read");
                self.conns[conn].stats.read_req_frames_sent += 1;
                // The payload carries the requested length; a read never
                // notifies.
                let payload = Bytes::copy_from_slice(&(len as u64).to_le_bytes()).into();
                let flags = OpFlags {
                    notify: false,
                    ..flags
                };
                let kind = FrameKind::ReadRequest;
                let (op_id, ..) =
                    self.queue_op(conn, kind, flags, remote_addr, local_addr, payload, host);
                self.conns[conn].pending_reads.insert(op_id, token);
                (op_id, true, len as u64)
            }
        };
        let event = EventKind::OpIssue {
            op: op_id,
            bytes,
            created_ns,
            read,
        };
        self.obs.emit(now_ns, Some(conn), None, event);
        self.pump_send(conn, false, host);
        self.ensure_rto(conn);
        self.flush(host);
        op_id
    }

    /// Fragment one operation into frames on `conn`'s send queue: assign
    /// the op id and fence floor, one sequence number per fragment, and the
    /// first/last-fragment marks. A payload from memory is cut from the
    /// page table here ([`AppMemory::fragments`]). Returns (op id,
    /// fragments, last seq).
    #[allow(clippy::too_many_arguments)]
    fn queue_op<H: Host<T>>(
        &mut self,
        conn: usize,
        kind: FrameKind,
        flags: OpFlags,
        addr: u64,
        aux: u64,
        data: Payload,
        host: &H,
    ) -> (u64, usize, u64) {
        let (node, window) = (self.obs.node, self.proto.window);
        let max_payload = frame::MAX_PAYLOAD.min(host.max_payload());
        // The strictly-ordered 2L mode fences every application op; a read
        // response is the protocol's own op and stays unfenced.
        let force = self.proto.force_ordered && kind != FrameKind::ReadResponse;
        let c = &mut self.conns[conn];
        let mut base = FrameFlags::empty();
        if flags.fence_backward || force {
            base |= FrameFlags::FENCE_BACKWARD;
        }
        if flags.fence_forward || force {
            base |= FrameFlags::FENCE_FORWARD;
        }
        if flags.notify {
            base |= FrameFlags::NOTIFY;
        }
        // A silent write with nothing else outstanding on its connection
        // asks for its ack: no read response, later op or notified answer
        // would carry it back before the delayed-ack timer.
        let ask = kind == FrameKind::Data
            && !flags.notify
            && c.pending_write_ops.is_empty()
            && c.pending_reads.is_empty();
        let op_id = c.next_op;
        c.next_op += 1;
        let fence_floor = c.last_fwd_op.map_or(0, |o| o + 1);
        if base.contains(FrameFlags::FENCE_FORWARD) {
            c.last_fwd_op = Some(op_id);
        }
        let op_total_len = match kind {
            FrameKind::ReadRequest => 0,
            _ => data.len() as u32,
        };
        let frags = self.memory.fragments(data, max_payload);
        let nfrags = frags.len();
        let mut last_seq = 0;
        for (i, payload) in frags.enumerate() {
            let off = i * max_payload;
            let mut fl = base;
            if i == 0 {
                fl |= FrameFlags::FIRST_FRAGMENT;
            }
            if i == nfrags - 1 {
                fl |= FrameFlags::LAST_FRAGMENT;
                if ask {
                    fl |= FrameFlags::ACK_REQUEST;
                }
            }
            let seq = c.next_seq;
            c.next_seq += 1;
            last_seq = seq;
            let frame = Frame {
                // The rail half of both addresses is set at transmit time.
                src: MacAddr::new(node as u16, 0),
                dst: MacAddr::new(c.peer_node as u16, 0),
                header: FrameHeader {
                    kind,
                    flags: fl,
                    conn: c.peer_conn_id,
                    seq: to_wire(seq),
                    ack: 0, // filled at transmit time
                    op_id: to_wire(op_id),
                    op_total_len,
                    fence_floor: to_wire(fence_floor),
                    remote_addr: addr + off as u64,
                    aux,
                },
                payload,
            };
            if c.send_queue.is_empty() && seq < c.acked + window {
                // It fits the window: straight into the ring, where
                // `pump_send` transmits it before this input ends.
                c.tx.insert(unsent(seq, frame));
            } else {
                c.send_queue.push_back(frame);
            }
        }
        (op_id, nfrags, last_seq)
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// A frame, which reached the node's NIC at `arrived_ns`, is processed
    /// from `rail`. Frames no legitimate peer sends are dropped here, before
    /// they touch connection state, and counted in
    /// [`ProtoCore::rx_rejected`].
    pub fn on_frame<H: Host<T>>(
        &mut self,
        rail: usize,
        f: Frame,
        arrived_ns: u64,
        now_ns: u64,
        host: &mut H,
    ) {
        let conn = f.header.conn as usize;
        let req_len = match f.header.kind {
            FrameKind::ReadRequest => read_request_len(&f.payload),
            _ => Some(0),
        };
        let window = self.proto.window;
        let admissible = |c: &Conn<T>| c.admissible(&f.header, window);
        let known = self.conns.get(conn).is_some_and(admissible);
        let Some(req_len) = req_len.filter(|_| known) else {
            self.rx_rejected += 1;
            return;
        };
        self.now = SimTime(now_ns);
        // Remember which rail delivered this frame: control frames are
        // sent back along the reverse path, so during a rail outage acks
        // and nacks follow the rails that demonstrably work instead of
        // blackholing on the dead one.
        if rail < self.nrails {
            self.conns[conn].last_rx_rail = Some(rail);
        }
        // Piggybacked cumulative ack (every frame carries one).
        self.process_ack(conn, f.header.ack, rail as u32, host);
        match f.header.kind {
            FrameKind::Ack => self.conns[conn].stats.ctrl_frames_recv += 1,
            FrameKind::Nack => {
                self.conns[conn].stats.ctrl_frames_recv += 1;
                self.process_nack(conn, &f, rail as u32, host);
            }
            FrameKind::Data | FrameKind::ReadResponse | FrameKind::ReadRequest => {
                self.process_data(conn, f, rail as u32, req_len, arrived_ns, host);
            }
            FrameKind::Connect | FrameKind::ConnectAck => {
                // Setup is collapsed into `connect` on both drivers.
            }
        }
        self.flush(host);
    }

    /// Advance the send window on a cumulative ack; transmit
    /// window-released frames, then report the write ops it covers.
    /// `rail` is the rail that delivered the frame carrying the ack.
    fn process_ack<H: Host<T>>(&mut self, conn: usize, wire_ack: u32, rail: u32, host: &mut H) {
        let (now, now_ns) = (self.now, self.now_ns());
        let Self { conns, obs, .. } = self;
        let c = &mut conns[conn];
        let ack = from_wire(c.acked, wire_ack);
        if ack <= c.acked || ack > c.next_seq {
            return;
        }
        let old_acked = c.acked;
        c.acked = ack;
        c.last_progress = now;
        let old_sent = c.sent_up_to;
        c.sent_up_to = c.sent_up_to.max(ack);
        // Acks can only cover transmitted frames, but stay defensive:
        // drop any queued-but-unsent frames the ack just covered.
        for _ in old_sent..c.sent_up_to {
            c.send_queue.pop_front();
        }
        let event = EventKind::AckPiggyback { ack };
        obs.emit(now_ns, Some(conn), Some(rail), event);
        // Credit the rails that carried the newly-covered frames, and take
        // an RTT sample from the freshest first-transmission frame (Karn's
        // algorithm: retransmitted frames have ambiguous acks).
        let mut rtt_sample = None;
        for seq in old_acked..ack {
            let Some(slot) = c.tx.remove(seq) else {
                continue;
            };
            if !slot.retransmitted {
                rtt_sample = Some(now.since(slot.sent_at));
            }
            if let Some(RailEvent::Readmitted(r)) = c.rails.on_ack(slot.rail, seq) {
                c.stats.rail_up_events += 1;
                obs.emit(now_ns, Some(conn), Some(r as u32), EventKind::RailUp);
            }
        }
        match rtt_sample {
            Some(s) => c.rtt.on_sample(s),
            None => c.rtt.on_progress(),
        }
        // The window opened: transmit whatever became eligible.
        self.pump_send(conn, true, host);
        let c = &mut self.conns[conn];
        while c
            .pending_write_ops
            .front()
            .is_some_and(|(last, _, _)| *last < ack)
        {
            let (_, op, token) = c.pending_write_ops.pop_front().expect("checked front");
            self.obs
                .emit(now_ns, Some(conn), None, EventKind::OpDone { op });
            self.effects.push(Effect::OpDone {
                conn,
                op,
                kind: OpKind::Write,
                token,
            });
        }
        self.flush(host);
    }

    /// Selective retransmission in response to a NACK. One NACK triggers at
    /// most [`ProtoConfig::nack_resend_burst`] retransmissions; what lies
    /// beyond the cap stays in the window and is recovered by the
    /// receiver's paced NACK repeats — a single control frame can never
    /// unleash a full-window salvo.
    fn process_nack<H: Host<T>>(&mut self, conn: usize, f: &Frame, rail: u32, host: &mut H) {
        let (now, now_ns) = (self.now, self.now_ns());
        let window = self.proto.window;
        let burst_cap = u64::from(self.proto.nack_resend_burst.max(1)).min(window) as usize;
        let mut to_resend = std::mem::take(&mut self.resend_scratch);
        to_resend.clear();
        let mut suppressed = 0u64;
        let c = &mut self.conns[conn];
        'outer: for (wf, wt) in NackRanges::parse(&f.payload) {
            let from = from_wire(c.acked, wf);
            let to = from_wire(c.acked, wt);
            if to <= from {
                continue;
            }
            for seq in from..to.min(from + window) {
                if c.tx.contains(seq) {
                    if to_resend.len() < burst_cap {
                        to_resend.push(seq);
                    } else {
                        suppressed += 1;
                    }
                }
                if to_resend.len() as u64 + suppressed >= window {
                    break 'outer;
                }
            }
        }
        self.storm_suppressed += suppressed;
        // Each NACKed frame is a loss attributed to the rail that last
        // carried it — debit before the retransmit reassigns the rail.
        for &seq in &to_resend {
            let Some(lost_on) = c.tx.get(seq).map(|s| s.rail) else {
                continue;
            };
            if let Some(RailEvent::Dead(r)) = c.rails.on_loss(lost_on, seq, now) {
                c.stats.rail_down_events += 1;
                let rail = Some(r as u32);
                self.obs.emit(now_ns, Some(conn), rail, EventKind::RailDown);
            }
        }
        let n = to_resend.len() as u64;
        c.stats.retransmits_nack += n;
        let gaps = NackRanges::count(&f.payload) as u32;
        self.obs
            .emit(now_ns, Some(conn), Some(rail), EventKind::NackRecv { gaps });
        host.work(HostWork::Retransmit { frames: n });
        for &seq in &to_resend {
            self.transmit(conn, seq, true, host);
        }
        self.resend_scratch = to_resend;
        self.flush(host);
    }

    /// Handle a data-bearing frame: sequence admission, fences, application
    /// to memory, read service, notifications, acknowledgement policy.
    fn process_data<H: Host<T>>(
        &mut self,
        conn: usize,
        f: Frame,
        rail: u32,
        req_len: u64,
        arrived_ns: u64,
        host: &mut H,
    ) {
        let (now, now_ns) = (self.now, self.now_ns());
        let observed = self.obs.observed();
        let bytes = match f.header.kind {
            FrameKind::ReadRequest => 0,
            _ => f.payload.len() as u64,
        };
        let nrails = self.nrails;
        let c = &mut self.conns[conn];
        let cum = c.seqs.cumulative();
        let seq = from_wire(cum, f.header.seq);
        let retransmit = f.header.flags.contains(FrameFlags::RETRANSMIT);
        // A first transmission below the proof frontier that its rail
        // delivered behind a later one: the proof took this sequence for
        // lost. Its repair may have arrived first, so it counts whether it
        // is new or a duplicate; a copy that follows its original on the
        // rail is not behind anything.
        let late = |mark: &u32| seq + 1 < from_wire(cum, *mark);
        if !retransmit && seq < c.proven_below && c.rail_marks.get(rail as usize).is_some_and(late)
        {
            self.spurious_proofs += 1;
        }
        let in_order = match c.seqs.admit(seq) {
            Admit::Duplicate => {
                c.stats.dup_frames_recv += 1;
                // Immediate explicit ack: recovers from lost acks (§2.4
                // corner cases — "link failures and lost acknowledgments").
                self.send_ctrl(conn, None, false, host);
                return;
            }
            Admit::New { in_order } => in_order,
        };
        if c.rail_marks.is_empty() {
            c.rail_marks.resize(nrails, 0);
        }
        let cum = c.seqs.cumulative();
        // A repair that fills a gap moves the cumulative ack past itself:
        // the sender's window waits for that news, so it is acked at once,
        // ahead of queued data (RFC 5681 §4.2's gap-fill ack, limited to
        // repairs: first transmissions fill reorder gaps all the time).
        let fills_gap = retransmit && cum > seq + 1;
        // Only first transmissions keep a rail's order: a retransmission
        // may overtake new frames still queued on its rail, so it proves
        // nothing about them.
        if let Some(mark) = c.rail_marks.get_mut(rail as usize).filter(|_| !retransmit) {
            if from_wire(cum, *mark) <= seq {
                *mark = to_wire(seq + 1);
            }
        }
        c.repair.on_arrival(f.header.seq, retransmit, now);
        if f.header.flags.contains(FrameFlags::ACK_REQUEST) {
            c.ack_requested = c.ack_requested.max(seq + 1);
        }
        let s = &mut c.stats;
        s.data_frames_recv += 1;
        s.data_bytes_recv += bytes;
        s.ooo_arrivals += u64::from(!in_order);
        if observed {
            let (op, resp, critical) = frame_op(&f.header);
            let cum = self.conns[conn].seqs.cumulative();
            let event = EventKind::FrameRecv {
                seq,
                in_order,
                op,
                resp,
                critical,
                cum,
                arrived_ns,
            };
            self.obs.emit(now_ns, Some(conn), Some(rail), event);
        }

        // Reconstruct op-level fields and run the fence machinery.
        let c = &mut self.conns[conn];
        let op_id = from_wire(c.order.applied_below(), f.header.op_id);
        let meta = FragMeta {
            op_id,
            op_total: f.header.op_total_len as u64,
            fence_floor: from_wire(c.order.applied_below(), f.header.fence_floor),
            fence_backward: f.header.flags.contains(FrameFlags::FENCE_BACKWARD),
            len: bytes,
        };
        let entry = c.op_meta.entry(op_id).or_insert_with(|| OpMetaInfo {
            kind: f.header.kind,
            start_addr: f.header.remote_addr,
            total: meta.op_total,
            aux: f.header.aux,
            notify: f.header.flags.contains(FrameFlags::NOTIFY),
            req_len,
        });
        entry.start_addr = entry.start_addr.min(f.header.remote_addr);
        let payload = FragPayload {
            kind: f.header.kind,
            addr: f.header.remote_addr,
            data: f.payload,
        };
        let buffered_before = c.order.buffered();
        let mut release = std::mem::take(&mut self.release_scratch);
        c.order.offer_into(meta, payload, &mut release);
        c.buffered_since = match c.order.buffered() {
            0 => None,
            _ => c.buffered_since.or(Some(now_ns)),
        };
        // The fragment was held back iff the buffer count grew.
        if observed && c.order.buffered() > buffered_before {
            c.fence_stall_start.entry(op_id).or_insert(now);
            let (origin_op, _) = origin_op(&c.op_meta, op_id);
            let event = EventKind::FenceStall { op: origin_op };
            self.obs.emit(now_ns, Some(conn), None, event);
        }
        if observed {
            for (m, _) in &release.apply {
                let c = &mut self.conns[conn];
                if let Some(start) = c.fence_stall_start.remove(&m.op_id) {
                    let stalled_ns = now.since(start).as_nanos();
                    let (op, resp) = origin_op(&c.op_meta, m.op_id);
                    let event = EventKind::FenceRelease {
                        op,
                        stalled_ns,
                        resp,
                    };
                    self.obs.emit(now_ns, Some(conn), None, event);
                }
            }
        }
        // Apply released fragments to memory (a read request carries no
        // data of its own; it is served at op completion).
        for (_, frag) in &release.apply {
            if frag.kind != FrameKind::ReadRequest {
                self.memory.write(frag.addr, &frag.data);
            }
        }
        // Handle op completions.
        let mut serves = std::mem::take(&mut self.serve_scratch);
        let mut notifs = std::mem::take(&mut self.notify_scratch);
        let mut reads_done = std::mem::take(&mut self.read_done_scratch);
        for &op in &release.completed {
            let Some(mi) = self.conns[conn].op_meta.remove(&op) else {
                continue;
            };
            match mi.kind {
                FrameKind::Data if mi.notify => notifs.push(Notification {
                    from_node: self.conns[conn].peer_node,
                    addr: mi.start_addr,
                    len: mi.total as usize,
                }),
                FrameKind::ReadRequest => serves.push((mi.start_addr, mi.aux, mi.req_len, op)),
                FrameKind::ReadResponse => {
                    let read_id = mi.aux;
                    if let Some(token) = self.conns[conn].pending_reads.remove(&read_id) {
                        reads_done.push((read_id, token));
                    }
                }
                _ => {}
            }
        }
        // Return the drained release buffers for the next frame.
        release.apply.clear();
        release.completed.clear();
        self.release_scratch = release;
        // Acknowledgement policy, decided on the state this frame found:
        // a read served below piggybacks the ack on its response frames and
        // so clears the obligation again.
        let c = &mut self.conns[conn];
        c.stats.notifications += notifs.len() as u64;
        c.frames_since_ack += 1;
        // A gap-filling repair is acked at once whatever a response carries.
        let ack_now = fills_gap || c.frames_since_ack >= self.proto.ack_every;
        // A requested ack goes out below, unless a response frame carries
        // it first: either way the delayed-ack timer has nothing to do.
        let arm_ack = !ack_now && !c.ack_asked() && c.due[TimerKind::Ack as usize].is_none();
        let arm_nack = c.seqs.has_gap() && c.due[TimerKind::Nack as usize].is_none();

        for (read_addr, resp_buf, len, initiator_op) in serves.drain(..) {
            self.serve_read(conn, read_addr, resp_buf, len as usize, initiator_op, host);
        }
        // Notifications and read completions wake the application; they go
        // out as one batch of their own (see [`Host::perform`]).
        for n in notifs.drain(..) {
            self.effects.push(Effect::Notify(n));
        }
        for (op, token) in reads_done.drain(..) {
            self.obs
                .emit(now_ns, Some(conn), None, EventKind::OpDone { op });
            self.effects.push(Effect::OpDone {
                conn,
                op,
                kind: OpKind::Read,
                token,
            });
        }
        self.flush(host);
        self.serve_scratch = serves;
        self.notify_scratch = notifs;
        self.read_done_scratch = reads_done;
        if ack_now || self.conns[conn].ack_asked() {
            self.send_ctrl(conn, None, fills_gap, host);
        }
        self.nack_proven(conn, host);
        if arm_ack {
            self.arm(conn, TimerKind::Ack, DELAYED_ACK_TIMEOUT);
        }
        if arm_nack {
            let interval = self.conns[conn].repair.interval();
            self.arm(conn, TimerKind::Nack, interval);
        }
    }

    /// Target-side service of a remote read: build and send the response op.
    fn serve_read<H: Host<T>>(
        &mut self,
        conn: usize,
        read_addr: u64,
        resp_buf: u64,
        len: usize,
        initiator_op: u64,
        host: &mut H,
    ) {
        let data = Payload::Memory {
            addr: read_addr,
            len,
        };
        let event = EventKind::ReadServe { op: initiator_op };
        self.obs.emit(self.now_ns(), Some(conn), None, event);
        let (kind, flags) = (FrameKind::ReadResponse, OpFlags::RELAXED);
        let (_, nfrags, _) = self.queue_op(conn, kind, flags, resp_buf, initiator_op, data, host);
        let frags = nfrags as u64;
        host.work(HostWork::ReadServed { len, frags });
        self.pump_send(conn, true, host);
        self.ensure_rto(conn);
        self.flush(host);
    }

    // ------------------------------------------------------------------
    // Acks, nacks, timers
    // ------------------------------------------------------------------

    /// Timer `(conn, timer)`, armed through [`Effect::Arm`], is due.
    pub fn on_timer<H: Host<T>>(
        &mut self,
        conn: usize,
        timer: TimerKind,
        now_ns: u64,
        host: &mut H,
    ) {
        self.now = SimTime(now_ns);
        self.conns[conn].due[timer as usize] = None;
        match timer {
            TimerKind::Ack => {
                if self.conns[conn].frames_since_ack > 0 {
                    self.send_ctrl(conn, None, false, host);
                }
            }
            TimerKind::Nack => self.nack_check_fire(conn, host),
            TimerKind::Rto => self.rto_fire(conn, host),
        }
        self.flush(host);
    }

    /// Fire every armed timer due by `due_ns` at `now_ns`, in (connection,
    /// [`TimerKind`]) order. Returns whether any fired. A driver that keeps
    /// the engine's order passes its earliest [`ProtoCore::next_deadline`]
    /// as `due_ns`; one that fires whatever is due passes `now_ns`.
    pub fn fire_due<H: Host<T>>(&mut self, due_ns: u64, now_ns: u64, host: &mut H) -> bool {
        let mut fired = false;
        for conn in 0..self.conns.len() {
            for timer in [TimerKind::Ack, TimerKind::Nack, TimerKind::Rto] {
                if self.conns[conn].due[timer as usize].is_some_and(|d| d <= due_ns) {
                    fired = true;
                    self.on_timer(conn, timer, now_ns, host);
                }
            }
        }
        fired
    }

    /// Arm `(conn, timer)` to fire after `delay`.
    fn arm(&mut self, conn: usize, timer: TimerKind, delay: Dur) {
        let at_ns = (self.now + delay).as_nanos();
        self.conns[conn].due[timer as usize] = Some(at_ns);
        self.effects.push(Effect::Arm { conn, timer, at_ns });
    }

    /// Build and send a control frame: a NACK for `nack`'s ranges, or an
    /// explicit positive acknowledgement. Both carry the cumulative ack.
    /// An ack that answers a repair (`repair`) is flagged `RETRANSMIT`, so
    /// it leaves ahead of queued data as the repair did.
    fn send_ctrl<H: Host<T>>(
        &mut self,
        conn: usize,
        nack: Option<&NackRanges>,
        repair: bool,
        host: &mut H,
    ) {
        let (now, now_ns) = (self.now, self.now_ns());
        let Self {
            conns,
            obs,
            effects,
            nrails,
            ..
        } = self;
        let c = &mut conns[conn];
        let cum = c.seqs.cumulative();
        if c.ack_requested <= cum {
            c.ack_requested = 0;
        }
        // Reverse-path routing: reply on the rail the peer's frames are
        // arriving on — it is demonstrably alive in at least one direction,
        // unlike a blind round-robin pick that would land half the control
        // traffic on a dead rail during an outage.
        let rail = match c.last_rx_rail {
            Some(r) if r < *nrails => r,
            _ => pick_rail(c, *nrails, now, host),
        };
        let (kind, payload) = match nack {
            Some(r) => (FrameKind::Nack, r.encode()),
            None => (FrameKind::Ack, Bytes::new()),
        };
        let frame = Frame {
            src: MacAddr::new(obs.node as u16, rail as u8),
            dst: MacAddr::new(c.peer_node as u16, rail as u8),
            header: FrameHeader {
                kind,
                conn: c.peer_conn_id,
                seq: to_wire(c.next_seq),
                ack: to_wire(cum),
                flags: match repair {
                    true => FrameFlags::RETRANSMIT,
                    false => FrameFlags::empty(),
                },
                ..FrameHeader::default()
            },
            payload,
        };
        let event = match nack {
            None => {
                c.stats.explicit_acks_sent += 1;
                c.frames_since_ack = 0;
                EventKind::ExplicitAck { ack: cum }
            }
            Some(r) => {
                c.stats.nacks_sent += 1;
                let gaps = r.ranges.len() as u32;
                EventKind::NackSend { cum, gaps }
            }
        };
        obs.emit(now_ns, Some(conn), Some(rail as u32), event);
        host.work(HostWork::CtrlFrame);
        effects.push(Effect::Send { rail, frame });
    }

    /// NACK, in one frame, every sequence the smallest rail mark has just
    /// passed while it is missing: each rail delivers first transmissions
    /// in order and has delivered a later one, so it was lost, not
    /// overtaken. With no
    /// gap open this costs one comparison; with one open, a minimum over
    /// the rail marks, and a walk only over sequences not proven before.
    /// A gap with no such proof (a rail the peer stopped using, a tail
    /// loss) waits for the NACK timer, and so does the repeat of a NACK
    /// that was lost. The first gap of the NACK times the repair
    /// ([`RepairEstimator::on_nack`]).
    fn nack_proven<H: Host<T>>(&mut self, conn: usize, host: &mut H) {
        let now = self.now;
        let c = &mut self.conns[conn];
        if !c.seqs.has_gap() {
            return;
        }
        let cum = c.seqs.cumulative();
        let proven = every_rail_passed(&c.rail_marks, cum);
        let from = c.proven_below.max(cum);
        if proven <= from {
            return;
        }
        c.proven_below = proven;
        let mut missing = std::mem::take(&mut self.missing_scratch);
        let mut due = std::mem::take(&mut self.nack_scratch);
        c.seqs.missing_in(from, proven, &mut missing);
        for &(from, to) in &missing {
            c.gaps.entry(from, now).last_nack = Some(now);
            due.push((to_wire(from), to_wire(to)));
        }
        if let Some(&(first, _)) = due.first() {
            c.repair.on_nack(first, now);
        }
        self.missing_scratch = missing;
        self.send_nack(conn, due, host);
    }

    fn nack_check_fire<H: Host<T>>(&mut self, conn: usize, host: &mut H) {
        let now = self.now;
        let mut due = std::mem::take(&mut self.nack_scratch);
        let mut missing = std::mem::take(&mut self.missing_scratch);
        let c = &mut self.conns[conn];
        c.seqs.missing_ranges_into(&mut missing);
        // Retire gap state the cumulative ack has passed; what remains is
        // bounded by the window.
        c.gaps.purge_below(c.seqs.cumulative());
        let interval = c.repair.interval();
        // The earliest last NACK of a proven gap (none is later than now).
        let mut oldest = now;
        let mut repeated = false;
        for &(from, to) in &missing {
            let g = c.gaps.entry(from, now);
            if from < c.proven_below {
                // Proven lost and NACKed at once: repeat once its repair is
                // overdue. A gap whose front was repaired since has a new
                // start, and counts as NACKed now.
                let last = g.last_nack.get_or_insert(now);
                if now.since(*last) >= interval {
                    *last = now;
                    repeated = true;
                    due.push((to_wire(from), to_wire(to)));
                }
                oldest = oldest.min(*last);
                continue;
            }
            // Any other gap is reported only once it has persisted for
            // `NACK_DELAY` — multi-link skew closes younger gaps on its
            // own, and NACKing them would trigger the unnecessary
            // retransmissions the paper's delayed-NACK design avoids —
            // and repeats after `NACK_REPEAT`.
            if now.since(g.first_seen) < NACK_DELAY {
                continue;
            }
            if g.last_nack.is_none_or(|t| now.since(t) >= NACK_REPEAT) {
                g.last_nack = Some(now);
                due.push((to_wire(from), to_wire(to)));
            }
        }
        if repeated {
            c.repair.on_repeat();
        }
        // The next check is due in one repair interval, or when a proven
        // gap's repeat falls due if that is sooner.
        let next = oldest + c.repair.interval();
        let rearm = !missing.is_empty();
        self.missing_scratch = missing;
        self.send_nack(conn, due, host);
        if rearm {
            self.arm(conn, TimerKind::Nack, next.since(now));
        }
    }

    /// Send one NACK for the wire ranges in `due`, if any, and keep the
    /// vector as the NACK scratch.
    fn send_nack<H: Host<T>>(&mut self, conn: usize, mut due: Vec<(u32, u32)>, host: &mut H) {
        if !due.is_empty() {
            let ranges = NackRanges { ranges: due };
            self.send_ctrl(conn, Some(&ranges), false, host);
            due = ranges.ranges;
            due.clear();
        }
        self.nack_scratch = due;
    }

    /// Arm the coarse retransmission timeout if frames are unacknowledged.
    fn ensure_rto(&mut self, conn: usize) {
        let c = &self.conns[conn];
        if c.due[TimerKind::Rto as usize].is_none() && c.acked != c.next_seq {
            let rto = c.rtt.current_rto();
            self.arm(conn, TimerKind::Rto, rto);
        }
    }

    fn rto_fire<H: Host<T>>(&mut self, conn: usize, host: &mut H) {
        let (now, now_ns) = (self.now, self.now_ns());
        let Self { conns, obs, .. } = self;
        let c = &mut conns[conn];
        if c.acked == c.next_seq {
            // Everything was acknowledged while the timer ran: it lapses,
            // and the next issue arms a fresh one.
            return;
        }
        if now.since(c.last_progress) >= c.rtt.current_rto() && c.sent_up_to > c.acked {
            // §2.4: retransmit the last transmitted frame; the receiver
            // will NACK anything else that is missing.
            let seq = c.sent_up_to - 1;
            c.last_progress = now;
            // A timeout means the whole window went unanswered: back the
            // timer off exponentially and debit the rail that carried the
            // frame we are about to retransmit.
            let backoff = c.rtt.on_timeout();
            let rto_ns = c.rtt.current_rto().as_nanos();
            let lost_on = c.tx.get(seq).map(|s| s.rail);
            let rail_ev = lost_on.and_then(|r| c.rails.on_loss(r, seq, now));
            let s = &mut c.stats;
            s.retransmits_rto += 1;
            s.rto_backoff_max = s.rto_backoff_max.max(u64::from(backoff));
            let lost_on = lost_on.map(|r| r as u32);
            obs.emit(now_ns, Some(conn), lost_on, EventKind::RtoFire { seq });
            let event = EventKind::RtoBackoff { rto_ns, backoff };
            obs.emit(now_ns, Some(conn), lost_on, event);
            if let Some(RailEvent::Dead(r)) = rail_ev {
                c.stats.rail_down_events += 1;
                obs.emit(now_ns, Some(conn), Some(r as u32), EventKind::RailDown);
            }
            host.work(HostWork::Retransmit { frames: 1 });
            self.transmit(conn, seq, true, host);
        }
        let rto = self.conns[conn].rtt.current_rto();
        self.arm(conn, TimerKind::Rto, rto);
    }

    // ------------------------------------------------------------------
    // Transmit path
    // ------------------------------------------------------------------

    /// Transmit window-eligible frames. `proto_ctx` reports the DMA posts
    /// as protocol-context work (the application path pre-paid its own).
    fn pump_send<H: Host<T>>(&mut self, conn: usize, proto_ctx: bool, host: &mut H) {
        let window = self.proto.window;
        let (mut posted, mut n, mut bytes) = (0u64, 0u64, 0u64);
        loop {
            let c = &mut self.conns[conn];
            if c.sent_up_to >= c.next_seq || c.in_flight() >= window {
                break;
            }
            let seq = c.sent_up_to;
            if !c.tx.contains(seq) {
                // Queued beyond the window at issue; it fits now.
                let frame = c
                    .send_queue
                    .pop_front()
                    .expect("the ring and send_queue cover [sent_up_to, next_seq)");
                c.tx.insert(unsent(seq, frame));
            }
            let frame = &c.tx.get(seq).expect("slot just ensured").frame;
            if frame.header.kind != FrameKind::ReadRequest {
                n += 1;
                bytes += frame.payload.len() as u64;
            }
            self.transmit(conn, seq, false, host);
            self.conns[conn].sent_up_to += 1;
            posted += 1;
        }
        if posted == 0 {
            return;
        }
        if proto_ctx {
            host.work(HostWork::WindowPost { frames: posted });
        }
        // Any data frame piggybacks the ack state: the receiver-side
        // obligations are satisfied by it.
        let c = &mut self.conns[conn];
        c.stats.data_frames_sent += n;
        c.stats.data_bytes_sent += bytes;
        c.frames_since_ack = 0;
        if c.ack_requested <= c.seqs.cumulative() {
            c.ack_requested = 0;
        }
    }

    /// Fetch the stored frame for `seq`, refresh its piggybacked ack,
    /// assign a rail and queue it for sending.
    fn transmit<H: Host<T>>(&mut self, conn: usize, seq: u64, retransmit: bool, host: &H) {
        let (now, now_ns, node, nrails) = (self.now, self.now_ns(), self.obs.node, self.nrails);
        let c = &mut self.conns[conn];
        let Some(slot) = c.tx.get(seq) else {
            return;
        };
        let mut f = slot.frame.clone();
        let cum = c.seqs.cumulative();
        f.header.ack = to_wire(cum);
        if retransmit {
            f.header.flags |= FrameFlags::RETRANSMIT;
        }
        let rail = pick_rail(c, nrails, now, host);
        c.rails.note_sent(rail, seq);
        let slot = c.tx.get_mut(seq).expect("slot just read");
        slot.rail = rail;
        slot.sent_at = now;
        slot.retransmitted |= retransmit;
        f.src = MacAddr::new(node as u16, rail as u8);
        f.dst = MacAddr::new(c.peer_node as u16, rail as u8);
        if self.obs.observed() {
            // The frame joins the rail's transmit backlog behind whatever
            // is already queued: that backlog is the RailQueue phase.
            let backlog_ns = match retransmit {
                true => host.repair_backlog_ns(rail),
                false => host.tx_backlog_ns(rail),
            };
            let (op, resp, critical) = frame_op(&f.header);
            let event = EventKind::FrameSend {
                seq,
                retransmit,
                op,
                resp,
                critical,
                backlog_ns,
            };
            self.obs.emit(now_ns, Some(conn), Some(rail as u32), event);
        }
        self.effects.push(Effect::Send { rail, frame: f });
    }
}

/// The op a data-bearing frame belongs to, by the 32-bit wire id its origin
/// gave it (a read response names the read it answers in `aux`), whether
/// it travels the op's response leg, and whether it can complete its leg:
/// a write's or a response's last fragment, or a read request.
fn frame_op(h: &FrameHeader) -> (u32, bool, bool) {
    let last = h.flags.contains(FrameFlags::LAST_FRAGMENT);
    match h.kind {
        FrameKind::ReadResponse => (to_wire(h.aux), true, last),
        FrameKind::ReadRequest => (h.op_id, false, true),
        _ => (h.op_id, false, last),
    }
}

/// Receive op `op` by its origin's id, and whether it is a read response
/// (whose origin is the read it answers).
fn origin_op(meta: &FastMap<u64, OpMetaInfo>, op: u64) -> (u64, bool) {
    match meta.get(&op) {
        Some(mi) if mi.kind == FrameKind::ReadResponse => (mi.aux, true),
        _ => (op, false),
    }
}

/// The sequence every rail has delivered past: the smallest rail mark, each
/// expanded against the cumulative ack `cum`. A mark more than 2^31
/// sequences behind `cum` reads as ahead, which is harmless: a rail that
/// far behind carries only lost frames.
fn every_rail_passed(marks: &[u32], cum: u64) -> u64 {
    marks.iter().map(|&m| from_wire(cum, m)).min().unwrap_or(0)
}

/// Pick the rail for `c`'s next frame among the rails its health tracking
/// leaves eligible.
fn pick_rail<T, H: Host<T>>(c: &mut Conn<T>, nrails: usize, now: SimTime, host: &H) -> usize {
    let mask = c.rails.eligible_mask(now);
    let backlog = |i| host.tx_backlog_ns(i);
    c.sched.pick(nrails, mask, backlog, |n| host.draw(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mark_far_behind_reads_as_ahead() {
        let cum = (3 << 32) + 100;
        let ahead = to_wire(cum + 5);
        // A rail that lags by less than 2^31 holds the proof back.
        let lagging = to_wire(cum - 1_000);
        assert_eq!(every_rail_passed(&[ahead, lagging], cum), cum - 1_000);
        // One that lags by more reads as ahead: the other rail proves.
        let far = to_wire(cum - (1 << 31) - 7);
        assert_eq!(from_wire(cum, far), cum + (1 << 31) - 7);
        assert_eq!(every_rail_passed(&[ahead, far], cum), cum + 5);
        assert_eq!(every_rail_passed(&[], cum), 0);
    }
}
