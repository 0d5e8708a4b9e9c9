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
//! # Completion contract
//!
//! [`Effect::OpDone`] means *the protocol is finished with the op at `now`*:
//! a write's last frame is covered by the peer's cumulative ack (so every
//! byte of it was admitted by the peer's receive window), a read's response
//! data has been applied to local memory. *When the application learns* is
//! the driver's decision — the simulator adds its wake-up cost, the wire
//! driver queues the completion at once — and the driver stamps that
//! instant through [`Observers::op_completed`].

use crate::config::ProtoConfig;
use crate::memory::AppMemory;
use crate::ops::{Notification, OpFlags, OpKind};
use crate::order::{FragMeta, OpOrdering, Release};
use crate::railhealth::{RailEvent, RailSet, RailState};
use crate::recvseq::{Admit, SeqTracker};
use crate::ring::{GapRing, TxRing, TxSlot};
use crate::rtt::RttEstimator;
use crate::sched::LinkScheduler;
use crate::seqspace::{from_wire, to_wire};
use crate::stats::ProtoStats;
use bytes::Bytes;
use frame::{FastMap, Frame, FrameFlags, FrameHeader, FrameKind, MacAddr, NackRanges};
use me_trace::{Event, EventKind, FlightRecorder, Leg, SpanKey, SpanKind, SpanRecorder, Tracer};
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
    /// Call [`ProtoCore::on_timer`] for `(conn, timer)` at `at_ns`. Each
    /// timer is armed at most once until it fires.
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
    /// that is a tighter bound than [`ProtoConfig::max_payload`].
    fn max_payload(&self) -> usize {
        usize::MAX
    }

    /// Transmit backlog of `rail` in nanoseconds of wire time (consulted by
    /// queue-aware scheduling and the span recorder's rail-queue phase).
    fn tx_backlog_ns(&self, rail: usize) -> u64;

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

/// The observability handles one endpoint records into. A disabled handle
/// costs one branch per call site.
#[derive(Clone)]
pub struct Observers {
    /// The node these handles stamp events for.
    pub node: usize,
    /// Event tracer.
    pub tracer: Tracer,
    /// Causal op-span recorder (shared across a cluster).
    pub spans: SpanRecorder,
    /// Always-on flight recorder.
    pub flight: FlightRecorder,
}

impl Observers {
    /// Stamp "the application learned op `op` completed" at `now_ns` on
    /// every plane. Drivers call this at the instant they define as
    /// completion (module docs).
    pub fn op_completed(&self, conn: usize, op: u64, latency_ns: Option<u64>, now_ns: u64) {
        self.spans.op_completed(self.key(conn, op), now_ns);
        if let Some(lat) = latency_ns {
            self.tracer.op_latency(conn as u32, lat);
        }
        let latency_ns = latency_ns.unwrap_or(0);
        let event = EventKind::OpComplete { op, latency_ns };
        self.emit(now_ns, Some(conn), None, event);
    }

    /// Record one event on this node into the tracer and the flight
    /// recorder: the same [`Event`] for both, one branch per disabled
    /// plane. Every protocol event site calls this, and only this.
    #[inline]
    pub(crate) fn emit(&self, now_ns: u64, conn: Option<usize>, rail: Option<u32>, kind: EventKind) {
        let e = Event {
            t_ns: now_ns,
            node: self.node as u32,
            conn: conn.map(|c| c as u32),
            rail,
            kind,
        };
        self.tracer.emit(e);
        self.flight.record(e);
    }

    /// Span key of op `op` issued by this node on `conn`.
    #[inline]
    fn key(&self, conn: usize, op: u64) -> SpanKey {
        SpanKey::new(self.node, conn, to_wire(op))
    }

    fn observed(&self) -> bool {
        self.tracer.is_enabled() || self.spans.is_enabled() || self.flight.is_enabled()
    }
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
    /// Built frames awaiting the window, `[sent_up_to, next_seq)` in
    /// sequence order (the front is always `sent_up_to`). Unbounded — a
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
    rto_armed: bool,
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
    op_meta: FastMap<u64, OpMetaInfo>,
    /// Data frames received since the last acknowledgement we sent.
    frames_since_ack: u32,
    ack_timer_armed: bool,
    nack_timer_armed: bool,
    /// Per-gap-start NACK-dedup state (first seen / last NACKed), in a
    /// window-sized ring (allocated on the first gap) purged below the
    /// cumulative ack on every NACK check — its live size is
    /// window-bounded by construction.
    gaps: GapRing,
    /// Scratch for [`SeqTracker::missing_ranges_into`] on the NACK timer.
    missing_scratch: Vec<(u64, u64)>,
    /// Scratch [`Release`] reused by every `offer_into` on this connection.
    release_scratch: Release<FragPayload>,

    // ---- observability ----
    /// Connection-local slice of the protocol counters: every counter that
    /// can be attributed to one connection is incremented here *and* in the
    /// endpoint-global [`ProtoStats`] (interrupt/coalescing counters stay
    /// global because one interrupt batch mixes connections).
    stats: ProtoStats,
    /// Receive ops currently held back by a fence, keyed by op id →
    /// stall start time. Populated only while an observer (tracer, span
    /// recorder, or flight recorder) is enabled.
    fence_stall_start: FastMap<u64, SimTime>,
}

impl<T> Conn<T> {
    fn new(peer_node: usize, peer_conn_id: u32, proto: &ProtoConfig, nrails: usize) -> Self {
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
            sched: LinkScheduler::new(proto.sched),
            last_progress: SimTime::ZERO,
            rto_armed: false,
            rails: RailSet::new(
                nrails,
                proto.rail_degraded_after,
                proto.rail_dead_after,
                proto.rail_cooldown,
            ),
            last_rx_rail: None,
            rtt: RttEstimator::new(proto.rto_initial, proto.rto_min, proto.rto_max),
            seqs: SeqTracker::with_window(proto.window as usize),
            order: OpOrdering::new(),
            op_meta: FastMap::default(),
            frames_since_ack: 0,
            ack_timer_armed: false,
            nack_timer_armed: false,
            gaps: GapRing::with_window(proto.window as usize),
            missing_scratch: Vec::new(),
            release_scratch: Release::default(),
            stats: ProtoStats::default(),
            fence_stall_start: FastMap::default(),
        }
    }

    /// Node at the other end.
    pub fn peer_node(&self) -> usize {
        self.peer_node
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
        /// The bytes to write.
        data: Bytes,
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
    stats: ProtoStats,
    /// NACK-triggered retransmissions suppressed by the
    /// [`ProtoConfig::nack_resend_burst`] cap, and frames rejected at
    /// admission. Endpoint-local: [`ProtoStats`] is fingerprinted.
    storm_suppressed: u64,
    rx_rejected: u64,
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
}

impl<T> ProtoCore<T> {
    /// A protocol instance for `node` striping over `rails` rails, with
    /// every observability plane disabled.
    pub fn new(node: usize, proto: ProtoConfig, rails: usize) -> Self {
        Self {
            obs: Observers {
                node,
                tracer: Tracer::disabled(),
                spans: SpanRecorder::disabled(),
                flight: FlightRecorder::disabled(),
            },
            memory: AppMemory::new(),
            proto,
            nrails: rails,
            conns: Vec::new(),
            stats: ProtoStats::default(),
            storm_suppressed: 0,
            rx_rejected: 0,
            now: SimTime::ZERO,
            effects: Vec::new(),
            resend_scratch: Vec::new(),
            serve_scratch: Vec::new(),
            notify_scratch: Vec::new(),
            read_done_scratch: Vec::new(),
            nack_scratch: Vec::new(),
        }
    }

    /// Add a connection to `peer_node`, whose id for it is `peer_conn_id`.
    /// Returns the local connection id (dense, in call order).
    pub fn connect(&mut self, peer_node: usize, peer_conn_id: usize) -> usize {
        assert!(
            self.obs.node != peer_node,
            "cannot connect a node to itself"
        );
        let conn = Conn::new(peer_node, peer_conn_id as u32, &self.proto, self.nrails);
        self.conns.push(conn);
        self.conns.len() - 1
    }

    /// The protocol parameters this instance runs with.
    pub fn proto(&self) -> &ProtoConfig {
        &self.proto
    }

    /// Every connection, in id order.
    pub fn conns(&self) -> &[Conn<T>] {
        &self.conns
    }

    /// Endpoint-wide protocol statistics (reorder peak folded in).
    pub fn stats(&self) -> ProtoStats {
        let mut s = self.stats;
        for c in &self.conns {
            s.reorder_peak = s.reorder_peak.max(c.order.buffered_peak() as u64);
        }
        s
    }

    /// The endpoint-wide counters, for the host-side ones a driver owns
    /// (interrupts, coalescing, corrupt frames).
    pub fn host_stats(&mut self) -> &mut ProtoStats {
        &mut self.stats
    }

    /// NACK-triggered retransmissions suppressed by the
    /// [`ProtoConfig::nack_resend_burst`] storm cap.
    pub fn storm_suppressed(&self) -> u64 {
        self.storm_suppressed
    }

    /// Received frames dropped at admission because no legitimate peer
    /// sends them: unknown connection id, or a malformed read request.
    pub fn rx_rejected(&self) -> u64 {
        self.rx_rejected
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
        let s = &self.stats;
        let recv = s.data_frames_recv + s.ctrl_frames_recv + s.dup_frames_recv + s.notifications;
        let frontiers = |c: &Conn<T>| c.acked + c.seqs.cumulative() + c.order.applied_below();
        recv + self.conns.iter().map(frontiers).sum::<u64>()
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
        self.conns.iter().map(|c| c.rto_backoff()).max().unwrap_or(0)
    }

    /// Total fence-blocked fragments across connections.
    pub fn fence_buffered_total(&self) -> usize {
        self.conns.iter().map(|c| c.order.buffered()).sum()
    }

    /// Count `op` as asked for by the application. Separate from
    /// [`ProtoCore::issue`] because a driver may charge an initiation cost
    /// between the request and the instant the frames are built.
    pub fn count_op(&mut self, conn: usize, op: &Op) {
        self.count(conn, |s| match op {
            Op::Write { data, .. } => {
                s.ops_write += 1;
                s.bytes_written += data.len() as u64;
            }
            Op::Read { len, .. } => {
                s.ops_read += 1;
                s.bytes_read += *len as u64;
            }
        });
    }

    /// Abandon connection `conn`'s in-flight sends after a fatal error:
    /// clears the send queue, disarms every timer, and returns the ids of
    /// the operations that will never complete.
    pub fn abort_pending(&mut self, conn: usize) -> Vec<u64> {
        let c = &mut self.conns[conn];
        c.send_queue.clear();
        c.ack_timer_armed = false;
        c.nack_timer_armed = false;
        c.rto_armed = false;
        let mut ops: Vec<u64> = c.pending_write_ops.drain(..).map(|(_, op, _)| op).collect();
        ops.extend(c.pending_reads.drain().map(|(op, _)| op));
        ops.sort_unstable();
        ops
    }

    /// Apply `f` to the endpoint-wide and the connection-local counters.
    fn count(&mut self, conn: usize, f: impl Fn(&mut ProtoStats)) {
        f(&mut self.stats);
        f(&mut self.conns[conn].stats);
    }

    fn now_ns(&self) -> u64 {
        self.now.as_nanos()
    }

    /// Span key of op `op` issued by `conn`'s peer.
    fn peer_key(&self, conn: usize, op: u64) -> SpanKey {
        let c = &self.conns[conn];
        SpanKey::new(c.peer_node, c.peer_conn_id as usize, to_wire(op))
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
        let (op_id, span_kind, nfrags, bytes) = match op {
            Op::Write { remote_addr, data } => {
                let bytes = data.len() as u64;
                let (op_id, nfrags, last_seq) =
                    self.queue_op(conn, FrameKind::Data, flags, remote_addr, 0, data, host);
                let c = &mut self.conns[conn];
                c.pending_write_ops.push_back((last_seq, op_id, token));
                (op_id, SpanKind::Write, nfrags, bytes)
            }
            Op::Read {
                local_addr,
                remote_addr,
                len,
            } => {
                assert!(len > 0, "zero-length remote read");
                self.count(conn, |s| s.read_req_frames_sent += 1);
                // The payload carries the requested length; a read never
                // notifies.
                let payload = Bytes::copy_from_slice(&(len as u64).to_le_bytes());
                let flags = OpFlags {
                    notify: false,
                    ..flags
                };
                let kind = FrameKind::ReadRequest;
                let (op_id, ..) =
                    self.queue_op(conn, kind, flags, remote_addr, local_addr, payload, host);
                self.conns[conn].pending_reads.insert(op_id, token);
                (op_id, SpanKind::Read, 1, len as u64)
            }
        };
        let event = EventKind::OpIssue { op: op_id, bytes };
        self.obs.emit(now_ns, Some(conn), None, event);
        let key = self.obs.key(conn, op_id);
        self.obs
            .spans
            .op_issued(key, span_kind, created_ns, now_ns, nfrags as u32, bytes);
        self.pump_send(conn, false, host);
        self.ensure_rto(conn);
        self.flush(host);
        op_id
    }

    /// Fragment one operation into frames on `conn`'s send queue: assign
    /// the op id and fence floor, one sequence number per fragment, and the
    /// first/last-fragment marks. Returns (op id, fragments, last seq).
    #[allow(clippy::too_many_arguments)]
    fn queue_op<H: Host<T>>(
        &mut self,
        conn: usize,
        kind: FrameKind,
        flags: OpFlags,
        addr: u64,
        aux: u64,
        data: Bytes,
        host: &H,
    ) -> (u64, usize, u64) {
        let node = self.obs.node;
        let max_payload = self.proto.max_payload.min(host.max_payload());
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
        let op_id = c.next_op;
        c.next_op += 1;
        let fence_floor = c.last_fwd_op.map_or(0, |o| o + 1);
        if base.contains(FrameFlags::FENCE_FORWARD) {
            c.last_fwd_op = Some(op_id);
        }
        let total = data.len();
        let op_total_len = match kind {
            FrameKind::ReadRequest => 0,
            _ => total as u32,
        };
        let nfrags = total.div_ceil(max_payload).max(1);
        let mut last_seq = 0;
        for i in 0..nfrags {
            let off = i * max_payload;
            let mut fl = base;
            if i == 0 {
                fl |= FrameFlags::FIRST_FRAGMENT;
            }
            if i == nfrags - 1 {
                fl |= FrameFlags::LAST_FRAGMENT;
            }
            let seq = c.next_seq;
            c.next_seq += 1;
            last_seq = seq;
            c.send_queue.push_back(Frame {
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
                payload: data.slice(off..total.min(off + max_payload)),
            });
        }
        (op_id, nfrags, last_seq)
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// A frame arrived on `rail`. Frames no legitimate peer sends are
    /// dropped here, before they touch connection state, and counted in
    /// [`ProtoCore::rx_rejected`].
    pub fn on_frame<H: Host<T>>(&mut self, rail: usize, f: Frame, now_ns: u64, host: &mut H) {
        let conn = f.header.conn as usize;
        let req_len = match f.header.kind {
            FrameKind::ReadRequest => read_request_len(&f.payload),
            _ => Some(0),
        };
        let Some(req_len) = req_len.filter(|_| conn < self.conns.len()) else {
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
            FrameKind::Ack => self.count(conn, |s| s.ctrl_frames_recv += 1),
            FrameKind::Nack => {
                self.count(conn, |s| s.ctrl_frames_recv += 1);
                self.process_nack(conn, &f, rail as u32, host);
            }
            FrameKind::Data | FrameKind::ReadResponse | FrameKind::ReadRequest => {
                self.process_data(conn, f, rail as u32, req_len, host);
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
        let Self {
            conns, stats, obs, ..
        } = self;
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
                stats.rail_up_events += 1;
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
            self.obs.spans.ack_rx(self.obs.key(conn, op), now_ns);
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
        let ranges = NackRanges::decode(&f.payload);
        let window = self.proto.window;
        let burst_cap = u64::from(self.proto.nack_resend_burst.max(1)).min(window) as usize;
        let mut to_resend = std::mem::take(&mut self.resend_scratch);
        to_resend.clear();
        let mut suppressed = 0u64;
        let c = &mut self.conns[conn];
        'outer: for &(wf, wt) in &ranges.ranges {
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
                self.stats.rail_down_events += 1;
                c.stats.rail_down_events += 1;
                let rail = Some(r as u32);
                self.obs.emit(now_ns, Some(conn), rail, EventKind::RailDown);
            }
        }
        let n = to_resend.len() as u64;
        self.count(conn, |s| s.retransmits_nack += n);
        let gaps = ranges.ranges.len() as u32;
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
        host: &mut H,
    ) {
        let (now, now_ns) = (self.now, self.now_ns());
        let node = self.obs.node;
        let bytes = match f.header.kind {
            FrameKind::ReadRequest => 0,
            _ => f.payload.len() as u64,
        };
        let c = &mut self.conns[conn];
        let seq = from_wire(c.seqs.cumulative(), f.header.seq);
        let in_order = match c.seqs.admit(seq) {
            Admit::Duplicate => {
                self.count(conn, |s| s.dup_frames_recv += 1);
                // Immediate explicit ack: recovers from lost acks (§2.4
                // corner cases — "link failures and lost acknowledgments").
                self.send_ctrl(conn, None, host);
                return;
            }
            Admit::New { in_order } => in_order,
        };
        self.count(conn, |s| {
            s.data_frames_recv += 1;
            s.data_bytes_recv += bytes;
            s.ooo_arrivals += u64::from(!in_order);
        });
        let event = EventKind::FrameRecv { seq, in_order };
        self.obs.emit(now_ns, Some(conn), Some(rail), event);
        if self.obs.spans.is_enabled() {
            // Reorder admission; a write's last fragment also joins the
            // cumulative-ack waiter queue.
            if let Some((key, leg, true)) = self.span_of(conn, &f, false) {
                self.obs.spans.frame_admitted(key, leg, now_ns);
                if f.header.kind == FrameKind::Data {
                    self.obs.spans.await_cum(node, conn, seq, key);
                }
            }
            let cum = self.conns[conn].seqs.cumulative();
            self.obs.spans.cum_advanced(node, conn, cum, now_ns);
        }

        // Reconstruct op-level fields and run the fence machinery.
        let observed = self.obs.observed();
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
        let mut release = std::mem::take(&mut c.release_scratch);
        c.order.offer_into(meta, payload, &mut release);
        // The fragment was held back iff the buffer count grew.
        if observed && c.order.buffered() > buffered_before {
            c.fence_stall_start.entry(op_id).or_insert(now);
            let event = EventKind::FenceStall { op: op_id };
            self.obs.emit(now_ns, Some(conn), None, event);
        }
        if observed {
            for (m, _) in &release.apply {
                if let Some(start) = self.conns[conn].fence_stall_start.remove(&m.op_id) {
                    self.fence_released(conn, m.op_id, now.since(start).as_nanos());
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
                FrameKind::Data => {
                    let origin = self.peer_key(conn, op);
                    self.obs.spans.delivered(origin, now_ns, 0);
                    if mi.notify {
                        notifs.push(Notification {
                            from_node: self.conns[conn].peer_node,
                            addr: mi.start_addr,
                            len: mi.total as usize,
                        });
                    }
                }
                FrameKind::ReadRequest => serves.push((mi.start_addr, mi.aux, mi.req_len, op)),
                FrameKind::ReadResponse => {
                    let read_id = mi.aux;
                    if let Some(token) = self.conns[conn].pending_reads.remove(&read_id) {
                        let key = self.obs.key(conn, read_id);
                        self.obs.spans.resp_released(key, now_ns);
                        reads_done.push((read_id, token));
                    }
                }
                _ => {}
            }
        }
        // Return the drained release buffers for the next frame.
        release.apply.clear();
        release.completed.clear();
        self.conns[conn].release_scratch = release;
        let n_notif = notifs.len() as u64;
        self.count(conn, |s| s.notifications += n_notif);
        // Acknowledgement policy, decided on the state this frame found:
        // a read served below piggybacks the ack on its response frames and
        // so clears the obligation again.
        let c = &mut self.conns[conn];
        c.frames_since_ack += 1;
        let ack_now = c.frames_since_ack >= self.proto.ack_every;
        let arm_ack = !ack_now && !std::mem::replace(&mut c.ack_timer_armed, true);
        let arm_nack = c.seqs.has_gap() && !std::mem::replace(&mut c.nack_timer_armed, true);

        for (read_addr, resp_buf, len, initiator_op) in serves.drain(..) {
            self.serve_read(conn, read_addr, resp_buf, len as usize, initiator_op, host);
        }
        // Notifications and read completions wake the application; they go
        // out as one batch of their own (see [`Host::perform`]).
        for n in notifs.drain(..) {
            self.effects.push(Effect::Notify(n));
        }
        for (op, token) in reads_done.drain(..) {
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
        if ack_now {
            self.send_ctrl(conn, None, host);
        }
        if arm_ack {
            self.arm(conn, TimerKind::Ack, self.proto.delayed_ack_timeout);
        }
        if arm_nack {
            self.arm(conn, TimerKind::Nack, self.proto.nack_delay);
        }
    }

    /// A fence released receive op `op` after `stalled_ns`: trace it and
    /// attribute the stall to the right span leg — a held write delivery is
    /// informational (acking is not blocked), a held read request delays
    /// the serve, a held read response delays the initiator's release.
    fn fence_released(&self, conn: usize, op: u64, stalled_ns: u64) {
        let (obs, now_ns) = (&self.obs, self.now_ns());
        obs.tracer.fence_stall(conn as u32, stalled_ns);
        if let Some(mi) = self.conns[conn].op_meta.get(&op) {
            let origin = self.peer_key(conn, op);
            match mi.kind {
                FrameKind::Data => obs.spans.delivered(origin, now_ns, stalled_ns),
                FrameKind::ReadRequest => obs.spans.fence_req(origin, stalled_ns),
                FrameKind::ReadResponse => {
                    obs.spans.fence_resp(obs.key(conn, mi.aux), stalled_ns);
                }
                _ => {}
            }
        }
        let event = EventKind::FenceRelease { op, stalled_ns };
        obs.emit(now_ns, Some(conn), None, event);
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
        let data = self.memory.read_bytes(read_addr, len);
        let origin = self.peer_key(conn, initiator_op);
        self.obs.spans.serve_started(origin, self.now_ns());
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
        match timer {
            TimerKind::Ack => {
                let c = &mut self.conns[conn];
                c.ack_timer_armed = false;
                if c.frames_since_ack > 0 {
                    self.send_ctrl(conn, None, host);
                }
            }
            TimerKind::Nack => self.nack_check_fire(conn, host),
            TimerKind::Rto => self.rto_fire(conn, host),
        }
        self.flush(host);
    }

    /// Ask the driver to fire `(conn, timer)` after `delay`.
    fn arm(&mut self, conn: usize, timer: TimerKind, delay: Dur) {
        let at_ns = (self.now + delay).as_nanos();
        self.effects.push(Effect::Arm { conn, timer, at_ns });
    }

    /// Build and send a control frame: a NACK for `nack`'s ranges, or an
    /// explicit positive acknowledgement. Both carry the cumulative ack.
    fn send_ctrl<H: Host<T>>(&mut self, conn: usize, nack: Option<&NackRanges>, host: &mut H) {
        let (now, now_ns) = (self.now, self.now_ns());
        let Self {
            conns,
            stats,
            obs,
            effects,
            nrails,
            ..
        } = self;
        let c = &mut conns[conn];
        let cum = c.seqs.cumulative();
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
                ..FrameHeader::default()
            },
            payload,
        };
        let event = match nack {
            None => {
                stats.explicit_acks_sent += 1;
                c.stats.explicit_acks_sent += 1;
                c.frames_since_ack = 0;
                EventKind::ExplicitAck { ack: cum }
            }
            Some(r) => {
                stats.nacks_sent += 1;
                c.stats.nacks_sent += 1;
                let gaps = r.ranges.len() as u32;
                EventKind::NackSend { cum, gaps }
            }
        };
        obs.emit(now_ns, Some(conn), Some(rail as u32), event);
        obs.spans.ack_sent(obs.node, conn, cum, now_ns);
        host.work(HostWork::CtrlFrame);
        effects.push(Effect::Send { rail, frame });
    }

    fn nack_check_fire<H: Host<T>>(&mut self, conn: usize, host: &mut H) {
        let now = self.now;
        let repeat = self.proto.nack_repeat;
        let min_age = self.proto.nack_delay;
        let mut due = std::mem::take(&mut self.nack_scratch);
        let c = &mut self.conns[conn];
        c.seqs.missing_ranges_into(&mut c.missing_scratch);
        // Retire gap state the cumulative ack has passed; what remains is
        // bounded by the window.
        c.gaps.purge_below(c.seqs.cumulative());
        for &(from, to) in &c.missing_scratch {
            // Only report gaps that have persisted for at least
            // `nack_delay` — multi-link skew closes younger gaps on its
            // own, and NACKing them would trigger the unnecessary
            // retransmissions the paper's delayed-NACK design avoids.
            let g = c.gaps.entry(from, now);
            if now.since(g.first_seen) < min_age {
                continue;
            }
            if g.last_nack.is_none_or(|t| now.since(t) >= repeat) {
                g.last_nack = Some(now);
                due.push((to_wire(from), to_wire(to)));
            }
        }
        let rearm = !c.missing_scratch.is_empty();
        c.nack_timer_armed = rearm;
        if !due.is_empty() {
            let ranges = NackRanges { ranges: due };
            self.send_ctrl(conn, Some(&ranges), host);
            due = ranges.ranges;
            due.clear();
        }
        self.nack_scratch = due;
        if rearm {
            self.arm(conn, TimerKind::Nack, min_age);
        }
    }

    /// Arm the coarse retransmission timeout if frames are unacknowledged.
    fn ensure_rto(&mut self, conn: usize) {
        let c = &mut self.conns[conn];
        if !c.rto_armed && c.acked != c.next_seq {
            c.rto_armed = true;
            let rto = c.rtt.current_rto();
            self.arm(conn, TimerKind::Rto, rto);
        }
    }

    fn rto_fire<H: Host<T>>(&mut self, conn: usize, host: &mut H) {
        let (now, now_ns) = (self.now, self.now_ns());
        let Self {
            conns, stats, obs, ..
        } = self;
        let c = &mut conns[conn];
        c.rto_armed = false;
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
            for s in [&mut *stats, &mut c.stats] {
                s.retransmits_rto += 1;
                s.rto_backoff_max = s.rto_backoff_max.max(u64::from(backoff));
            }
            let lost_on = lost_on.map(|r| r as u32);
            obs.emit(now_ns, Some(conn), lost_on, EventKind::RtoFire { seq });
            let event = EventKind::RtoBackoff { rto_ns, backoff };
            obs.emit(now_ns, Some(conn), lost_on, event);
            if rail_ev.is_some() {
                c.stats.rail_down_events += 1;
            }
            if let Some(RailEvent::Dead(r)) = rail_ev {
                stats.rail_down_events += 1;
                obs.emit(now_ns, Some(conn), Some(r as u32), EventKind::RailDown);
            }
            host.work(HostWork::Retransmit { frames: 1 });
            self.transmit(conn, seq, true, host);
        }
        let c = &mut self.conns[conn];
        c.rto_armed = true;
        let rto = c.rtt.current_rto();
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
            let frame = c
                .send_queue
                .pop_front()
                .expect("send_queue covers [sent_up_to, next_seq)");
            if frame.header.kind != FrameKind::ReadRequest {
                n += 1;
                bytes += frame.payload.len() as u64;
            }
            c.tx.insert(TxSlot {
                seq,
                rail: 0,
                sent_at: SimTime::ZERO,
                retransmitted: false,
                frame,
            });
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
        self.count(conn, |s| {
            s.data_frames_sent += n;
            s.data_bytes_sent += bytes;
        });
        // Any data frame piggybacks the ack state: the receiver-side
        // obligations are satisfied by it.
        self.conns[conn].frames_since_ack = 0;
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
        let obs = &self.obs;
        let rail32 = rail as u32;
        let event = EventKind::FrameSend { seq, retransmit };
        obs.emit(now_ns, Some(conn), Some(rail32), event);
        if obs.spans.is_enabled() {
            // The frame joins the rail's transmit backlog behind whatever
            // is already queued: that backlog is the RailQueue phase.
            let queue_ns = host.tx_backlog_ns(rail);
            if let Some((key, leg, crit)) = self.span_of(conn, &f, true) {
                obs.spans
                    .frame_tx(key, leg, crit, retransmit, rail32, queue_ns, now_ns);
            }
            // Every data-bearing frame piggybacks the cumulative ack.
            obs.spans.ack_sent(node, conn, cum, now_ns);
        }
        self.effects.push(Effect::Send { rail, frame: f });
    }

    // ------------------------------------------------------------------
    // Span stamping
    // ------------------------------------------------------------------

    /// The span a data-bearing frame on `conn` belongs to, the leg of it
    /// the frame travels on, and whether the frame is span-critical (the
    /// last fragment of a write or read response, or a read request).
    /// `sending` tells which side of the connection this node is for `f`.
    /// Spans are keyed by the *origin* of the op, which every header
    /// identifies without any lookup table: the sender of a request-leg
    /// frame, the receiver of a response-leg one.
    fn span_of(&self, conn: usize, f: &Frame, sending: bool) -> Option<(SpanKey, Leg, bool)> {
        let last = f.header.flags.contains(FrameFlags::LAST_FRAGMENT);
        let (leg, op, critical) = match f.header.kind {
            FrameKind::Data => (Leg::Req, f.header.op_id, last),
            FrameKind::ReadRequest => (Leg::Req, f.header.op_id, true),
            FrameKind::ReadResponse => (Leg::Resp, to_wire(f.header.aux), last),
            _ => return None,
        };
        let key = if (leg == Leg::Req) == sending {
            self.obs.key(conn, u64::from(op))
        } else {
            self.peer_key(conn, u64::from(op))
        };
        Some((key, leg, critical))
    }

    /// Stamp the physical-arrival milestone of `f`. Drivers call this at
    /// the instant the frame reached the node — which may be well before
    /// [`ProtoCore::on_frame`] gets to process it (interrupt moderation, a
    /// late poll), and that delay is what the attribution shows.
    pub fn span_arrival(&self, f: &Frame, at_ns: u64) {
        let conn = f.header.conn as usize;
        if !self.obs.spans.is_enabled() || conn >= self.conns.len() {
            return;
        }
        if let Some((key, leg, true)) = self.span_of(conn, f, false) {
            self.obs.spans.frame_arrival(key, leg, at_ns);
        }
    }
}

/// Pick the rail for `c`'s next frame among the rails its health tracking
/// leaves eligible.
fn pick_rail<T, H: Host<T>>(c: &mut Conn<T>, nrails: usize, now: SimTime, host: &H) -> usize {
    let mask = c.rails.eligible_mask(now);
    let backlog = |i| host.tx_backlog_ns(i);
    c.sched.pick(nrails, mask, backlog, |n| host.draw(n))
}
