//! The MultiEdge endpoint: per-node protocol instance.
//!
//! One [`Endpoint`] models everything the paper's kernel module does on one
//! node (§2): the programming API (asynchronous remote writes and reads with
//! handles and notifications), the send path (syscall, user→kernel copy,
//! fragmentation, DMA posting), the sliding-window flow control with
//! piggybacked/delayed/negative acknowledgements and coarse retransmission
//! timeout, the multi-link frame scheduler, the fence-aware receive path,
//! and the interrupt-minimizing protocol-thread model.
//!
//! # CPU model
//!
//! Each node has two CPUs (the paper dedicates one to the application and
//! one to the protocol, §3). Operation initiation (syscall + copy + frame
//! build + DMA post) is charged to the *application* CPU and delays the
//! issuing task. Everything receive-side and timer-driven is charged to the
//! *protocol* CPU: when work arrives while that CPU is idle, an interrupt +
//! kernel-thread wakeup is charged and counted; work arriving while it is
//! busy is absorbed by polling (§2.6) and counted as coalesced.

use crate::config::SystemConfig;
use crate::memory::AppMemory;
use crate::ops::{Notification, OpFlags, OpHandle, OpKind};
use crate::order::{FragMeta, OpOrdering, Release};
use crate::railhealth::{RailEvent, RailSet, RailState};
use crate::recvseq::{Admit, SeqTracker};
use crate::ring::{GapRing, TxRing, TxSlot};
use crate::rtt::RttEstimator;
use crate::sched::LinkScheduler;
use crate::seqspace::{from_wire, to_wire};
use crate::stats::{CpuSnapshot, ProtoStats};
use bytes::Bytes;
use frame::{FastMap, Frame, FrameFlags, FrameHeader, FrameKind, MacAddr, NackRanges};
use me_trace::{
    EventKind, FlightCode, FlightRecorder, Leg, SpanKey, SpanKind, SpanRecorder, Tracer,
};
use netsim::cpu::CpuTimeline;
use netsim::sync::{sleep_until, Channel};
use netsim::time::Dur;
use netsim::{Network, NicId, RxFrame, Sim, SimTime, TimerId};
use rand::Rng;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

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
    /// For read requests: the requested length (parsed from the payload).
    req_len: u64,
}

/// One connection's full state (both directions).
struct Conn {
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
    /// bookkeeping (rail, send time, Karn retransmission mark), in a
    /// window-sized ring: O(1) insert/lookup/removal, no per-frame
    /// allocation.
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
    /// Write ops awaiting acknowledgement: (last frame seq, op id, handle).
    pending_write_ops: VecDeque<(u64, u64, OpHandle)>,
    /// Read ops awaiting response data, keyed by our read op id.
    pending_reads: FastMap<u64, OpHandle>,
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
    /// window-sized ring purged below the cumulative ack on every NACK
    /// check — its live size is window-bounded by construction.
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

impl Conn {
    fn new(peer_node: usize, proto: &crate::config::ProtoConfig, nrails: usize) -> Self {
        Self {
            peer_node,
            peer_conn_id: 0,
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

    /// Unacknowledged frames currently on the wire.
    fn in_flight(&self) -> u64 {
        self.sent_up_to - self.acked
    }
}

/// An event waiting in the NIC's moderated-interrupt queue.
enum ModItem {
    Rx(RxFrame),
    TxComplete,
}

struct EndpointInner {
    node: usize,
    cfg: Rc<SystemConfig>,
    nics: Vec<NicId>,
    memory: AppMemory,
    conns: Vec<Conn>,
    cpu_app: CpuTimeline,
    cpu_proto: CpuTimeline,
    stats: ProtoStats,
    tracer: Tracer,
    /// Causal op-span recorder (disabled unless `SystemConfig::spans` is
    /// non-zero); shared by every endpoint in the cluster.
    spans: SpanRecorder,
    /// Always-on flight recorder (disabled unless `SystemConfig::flight`
    /// is set); shared by every endpoint and the network.
    flight: FlightRecorder,
    /// Events waiting for the moderated interrupt to fire.
    irq_pending: VecDeque<ModItem>,
    /// A moderation timer is armed.
    irq_armed: bool,
    /// The armed moderation timer, cancelled in O(1) when the frame cap
    /// fires the batch early ([`TimerId::NONE`] when none is armed).
    irq_timer: TimerId,
    /// Scratch buffers reused across hot-path calls (drained, never shrunk)
    /// so the steady-state datapath performs no heap allocation.
    send_scratch: Vec<(NicId, Frame)>,
    irq_batch: Vec<ModItem>,
    applies_scratch: Vec<(SimTime, Frame)>,
}

/// A node's MultiEdge protocol instance. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Endpoint {
    sim: Sim,
    net: Network,
    inner: Rc<RefCell<EndpointInner>>,
    notifications: Channel<Notification>,
}

impl Endpoint {
    /// Create the endpoint for `node`, binding its NICs' receive and
    /// transmit-completion handlers.
    pub fn new(
        sim: &Sim,
        net: &Network,
        node: usize,
        nics: Vec<NicId>,
        cfg: Rc<SystemConfig>,
    ) -> Endpoint {
        let tracer = if cfg.trace_ring > 0 {
            Tracer::enabled(cfg.trace_ring)
        } else {
            Tracer::disabled()
        };
        let ep = Endpoint {
            sim: sim.clone(),
            net: net.clone(),
            inner: Rc::new(RefCell::new(EndpointInner {
                node,
                cfg,
                nics: nics.clone(),
                memory: AppMemory::new(),
                conns: Vec::new(),
                cpu_app: CpuTimeline::new(),
                cpu_proto: CpuTimeline::new(),
                stats: ProtoStats::default(),
                tracer,
                spans: SpanRecorder::disabled(),
                flight: FlightRecorder::disabled(),
                irq_pending: VecDeque::new(),
                irq_armed: false,
                irq_timer: TimerId::NONE,
                send_scratch: Vec::new(),
                irq_batch: Vec::new(),
                applies_scratch: Vec::new(),
            })),
            notifications: Channel::new(sim),
        };
        for nic in nics {
            let e = ep.clone();
            net.set_rx_handler(nic, move |_, rx| e.on_rx(rx));
            let e = ep.clone();
            net.set_tx_complete_handler(nic, move |_, _| e.on_tx_complete());
        }
        ep
    }

    /// Build one endpoint per cluster node. When `cfg.spans` or
    /// `cfg.flight` is set, one shared [`SpanRecorder`] / [`FlightRecorder`]
    /// is created for the whole cluster (spans cross nodes, so the recorder
    /// must too), the network is wired into the flight recorder, and the
    /// flight recorder embeds span attributions in its dumps.
    pub fn for_cluster(
        sim: &Sim,
        cluster: &netsim::Cluster,
        cfg: Rc<SystemConfig>,
    ) -> Vec<Endpoint> {
        let spans = if cfg.spans > 0 {
            SpanRecorder::enabled(cfg.spans)
        } else {
            SpanRecorder::disabled()
        };
        let flight = match &cfg.flight {
            Some(fc) => FlightRecorder::enabled(fc.clone()),
            None => FlightRecorder::disabled(),
        };
        if flight.is_enabled() {
            flight.set_span_source(&spans);
            cluster.net.set_flight_recorder(flight.clone());
        }
        cluster
            .nics
            .iter()
            .enumerate()
            .map(|(node, nics)| {
                let ep = Endpoint::new(sim, &cluster.net, node, nics.clone(), cfg.clone());
                ep.set_span_recorder(spans.clone());
                ep.set_flight_recorder(flight.clone());
                ep
            })
            .collect()
    }

    /// This endpoint's node index.
    pub fn node(&self) -> usize {
        self.inner.borrow().node
    }

    /// Set up a connection between two endpoints. Returns the connection id
    /// on each side. (The wire handshake of §2.2 is collapsed to an
    /// instantaneous setup; connection establishment is not evaluated in the
    /// paper.)
    pub fn connect(a: &Endpoint, b: &Endpoint) -> (usize, usize) {
        assert!(
            !Rc::ptr_eq(&a.inner, &b.inner),
            "cannot connect a node to itself"
        );
        let (node_a, node_b) = (a.node(), b.node());
        let ida = {
            let mut ia = a.inner.borrow_mut();
            let conn = Conn::new(node_b, &ia.cfg.proto, ia.nics.len());
            ia.conns.push(conn);
            ia.conns.len() - 1
        };
        let idb = {
            let mut ib = b.inner.borrow_mut();
            let conn = Conn::new(node_a, &ib.cfg.proto, ib.nics.len());
            ib.conns.push(conn);
            ib.conns.len() - 1
        };
        a.inner.borrow_mut().conns[ida].peer_conn_id = idb as u32;
        b.inner.borrow_mut().conns[idb].peer_conn_id = ida as u32;
        (ida, idb)
    }

    /// Half of [`Endpoint::connect`] for a peer simulated in another shard,
    /// where the peer's `Endpoint` handle cannot be touched (it is
    /// `Rc`-backed and lives on another thread). Both sides must call this
    /// with mutually consistent arguments; connection ids are deterministic
    /// (`conns.len()` in call order), so a deterministic pairing scheme —
    /// e.g. every node connecting to its mesh peers in ascending node
    /// order — lets each side compute `peer_conn_id` without communication.
    pub fn connect_remote(&self, peer_node: usize, peer_conn_id: usize) -> usize {
        let mut inner = self.inner.borrow_mut();
        assert!(inner.node != peer_node, "cannot connect a node to itself");
        let mut conn = Conn::new(peer_node, &inner.cfg.proto, inner.nics.len());
        conn.peer_conn_id = peer_conn_id as u32;
        inner.conns.push(conn);
        inner.conns.len() - 1
    }

    /// Peer node of connection `conn`.
    pub fn conn_peer(&self, conn: usize) -> usize {
        self.inner.borrow().conns[conn].peer_node
    }

    /// The simulator this endpoint runs on (for crate-internal samplers).
    pub(crate) fn sim_handle(&self) -> &Sim {
        &self.sim
    }

    /// Number of NICs (rails) this endpoint stripes onto.
    pub(crate) fn nic_count(&self) -> usize {
        self.inner.borrow().nics.len()
    }

    /// Health state of every rail, from connection `conn`'s sending side.
    pub fn rail_states(&self, conn: usize) -> Vec<RailState> {
        let inner = self.inner.borrow();
        let c = &inner.conns[conn];
        (0..c.rails.len()).map(|r| c.rails.state(r)).collect()
    }

    /// Number of rails connection `conn` currently stripes onto (not dead).
    pub fn active_rails(&self, conn: usize) -> usize {
        self.inner.borrow().conns[conn].rails.active_rails()
    }

    /// Connection `conn`'s current adaptive retransmission timeout
    /// (including any accumulated backoff).
    pub fn current_rto(&self, conn: usize) -> Dur {
        self.inner.borrow().conns[conn].rtt.current_rto()
    }

    /// Connection `conn`'s smoothed RTT, once at least one sample exists.
    pub fn srtt(&self, conn: usize) -> Option<Dur> {
        self.inner.borrow().conns[conn].rtt.srtt()
    }

    /// Health state of one rail, from connection `conn`'s sending side.
    /// The allocation-free sibling of [`Endpoint::rail_states`], for
    /// samplers that poll per rail on the datapath.
    pub fn rail_state(&self, conn: usize, rail: usize) -> RailState {
        self.inner.borrow().conns[conn].rails.state(rail)
    }

    /// Sequence-space bytes connection `conn` has sent but not yet had
    /// acknowledged — the send-window occupancy.
    pub fn conn_in_flight(&self, conn: usize) -> u64 {
        self.inner.borrow().conns[conn].in_flight()
    }

    /// Connection `conn`'s current exponential-backoff level (0 = the RTO
    /// has not backed off).
    pub fn rto_backoff(&self, conn: usize) -> u32 {
        self.inner.borrow().conns[conn].rtt.backoff()
    }

    /// Transmit backlog of this node's `rail`-th NIC, in nanoseconds of
    /// serialization time still queued.
    pub fn nic_backlog_ns(&self, rail: usize) -> u64 {
        let inner = self.inner.borrow();
        self.net.nic_tx_backlog(inner.nics[rail]).as_nanos()
    }

    /// Write directly into this node's local memory (models the application
    /// touching its own address space; free of protocol cost).
    pub fn mem_write(&self, addr: u64, data: &[u8]) {
        self.inner.borrow_mut().memory.write(addr, data);
    }

    /// Read from this node's local memory.
    pub fn mem_read(&self, addr: u64, len: usize) -> Vec<u8> {
        self.inner.borrow().memory.read_vec(addr, len)
    }

    /// The paper's `RDMA_operation(conn, remote_va, local_va, size, WRITE,
    /// flags)`: asynchronously copy `len` bytes from local `local_addr` to
    /// `remote_addr` in the peer's address space. The returned future
    /// resolves (with the operation handle) once the *initiation* cost has
    /// been paid; completion is tracked by the handle.
    pub async fn write(
        &self,
        conn: usize,
        local_addr: u64,
        remote_addr: u64,
        len: usize,
        flags: OpFlags,
    ) -> OpHandle {
        let data = self.inner.borrow().memory.read_bytes(local_addr, len);
        self.write_payload(conn, remote_addr, data, flags).await
    }

    /// Like [`Endpoint::write`] but the payload is provided directly (models
    /// a user buffer that is not in the shared address space).
    pub async fn write_bytes(
        &self,
        conn: usize,
        remote_addr: u64,
        data: Vec<u8>,
        flags: OpFlags,
    ) -> OpHandle {
        self.write_payload(conn, remote_addr, Bytes::from(data), flags)
            .await
    }

    /// Common body of the two write calls: the payload is already in the
    /// buffer the frames will share.
    async fn write_payload(
        &self,
        conn: usize,
        remote_addr: u64,
        data: Bytes,
        flags: OpFlags,
    ) -> OpHandle {
        let len = data.len();
        let handle = OpHandle::new(&self.sim, OpKind::Write, len);
        let created_ns = self.sim.now().as_nanos();
        let end = {
            let mut inner = self.inner.borrow_mut();
            let cm = inner.cfg.cost.clone();
            let nframes = len.div_ceil(inner.cfg.proto.max_payload).max(1) as u64;
            let mut per_frame = cm.frame_build + cm.dma_post;
            if cm.unmaskable_tx_irq {
                per_frame += cm.tx_irq_send_tax;
            }
            let cost = cm.syscall + cm.copy_cost(len) + per_frame * nframes;
            inner.stats.ops_write += 1;
            inner.stats.bytes_written += len as u64;
            inner.conns[conn].stats.ops_write += 1;
            inner.conns[conn].stats.bytes_written += len as u64;
            let (_, end) = inner.cpu_app.reserve(self.sim.now(), cost);
            end
        };
        let ep = self.clone();
        let h = handle.clone();
        self.sim.schedule_at(end, move |_| {
            ep.issue_write(conn, remote_addr, data, flags, h, created_ns);
        });
        sleep_until(&self.sim, end).await;
        handle
    }

    /// The paper's remote read: asynchronously fetch `len` bytes from
    /// `remote_addr` in the peer's address space into local `local_addr`.
    /// The handle completes when all response data has been applied locally.
    pub async fn read(
        &self,
        conn: usize,
        local_addr: u64,
        remote_addr: u64,
        len: usize,
        flags: OpFlags,
    ) -> OpHandle {
        assert!(len > 0, "zero-length remote read");
        let handle = OpHandle::new(&self.sim, OpKind::Read, len);
        let created_ns = self.sim.now().as_nanos();
        let end = {
            let mut inner = self.inner.borrow_mut();
            let cm = inner.cfg.cost.clone();
            let cost = cm.syscall + cm.frame_build + cm.dma_post;
            inner.stats.ops_read += 1;
            inner.stats.bytes_read += len as u64;
            inner.conns[conn].stats.ops_read += 1;
            inner.conns[conn].stats.bytes_read += len as u64;
            let (_, end) = inner.cpu_app.reserve(self.sim.now(), cost);
            end
        };
        let ep = self.clone();
        let h = handle.clone();
        self.sim.schedule_at(end, move |_| {
            ep.issue_read(conn, local_addr, remote_addr, len, flags, h, created_ns);
        });
        sleep_until(&self.sim, end).await;
        handle
    }

    /// Await the next completion notification (remote writes issued with
    /// [`OpFlags::notify`] land here once fully applied locally). Resolves
    /// `None` once [`Endpoint::close_notifications`] has been called and the
    /// queue has drained.
    pub async fn next_notification(&self) -> Option<Notification> {
        self.notifications.pop().await
    }

    /// Stop notification delivery: pending notifications drain, then
    /// [`Endpoint::next_notification`] resolves `None`. Used by higher
    /// layers (the DSM) to terminate their service loops.
    pub fn close_notifications(&self) {
        self.notifications.close();
    }

    /// Non-blocking notification poll.
    pub fn try_notification(&self) -> Option<Notification> {
        self.notifications.try_pop()
    }

    /// Test hook: per-connection hot-path state sizes that the window must
    /// bound — (in-flight tx frames, live NACK-dedup gap entries, frames
    /// held out of order by the receiver).
    #[cfg(test)]
    fn window_state_sizes(&self, conn: usize) -> (usize, usize, usize) {
        let inner = self.inner.borrow();
        let c = &inner.conns[conn];
        (c.tx.len(), c.gaps.len(), c.seqs.ooo_held())
    }

    /// Snapshot of protocol statistics (reorder peak folded in).
    pub fn stats(&self) -> ProtoStats {
        let inner = self.inner.borrow();
        let mut s = inner.stats;
        for c in &inner.conns {
            s.reorder_peak = s.reorder_peak.max(c.order.buffered_peak() as u64);
        }
        s
    }

    /// Snapshot of the connection-local slice of the protocol statistics.
    ///
    /// Every connection-attributable counter (operations, frames sent and
    /// received, acks, nacks, retransmissions) is maintained both here and
    /// in the endpoint-global [`Endpoint::stats`]; summing this over all
    /// connections reproduces the global value for those counters. The
    /// interrupt/coalescing counters and `corrupt_frames` are only global:
    /// one moderated interrupt serves a batch that may mix connections, and
    /// a corrupted frame's header cannot be trusted for attribution.
    pub fn conn_stats(&self, conn: usize) -> ProtoStats {
        let inner = self.inner.borrow();
        let c = &inner.conns[conn];
        let mut s = c.stats;
        s.reorder_peak = c.order.buffered_peak() as u64;
        s
    }

    /// Number of connections on this endpoint.
    pub fn conn_count(&self) -> usize {
        self.inner.borrow().conns.len()
    }

    /// This endpoint's tracing handle (disabled unless the
    /// [`SystemConfig::trace_ring`](crate::SystemConfig) knob is non-zero).
    /// All clones share one ring and one histogram set; hand a clone to
    /// [`netsim::Network::set_tracer`] to merge wire-level events into the
    /// same timeline.
    pub fn tracer(&self) -> Tracer {
        self.inner.borrow().tracer.clone()
    }

    /// This endpoint's span recorder (disabled unless
    /// [`SystemConfig::spans`](crate::SystemConfig) is non-zero).
    /// [`Endpoint::for_cluster`] shares one recorder across the cluster so a
    /// span's sender- and receiver-side milestones land in the same record.
    pub fn span_recorder(&self) -> SpanRecorder {
        self.inner.borrow().spans.clone()
    }

    /// Install a (shared) span recorder on this endpoint.
    pub fn set_span_recorder(&self, spans: SpanRecorder) {
        self.inner.borrow_mut().spans = spans;
    }

    /// This endpoint's flight recorder (disabled unless
    /// [`SystemConfig::flight`](crate::SystemConfig) is set).
    pub fn flight_recorder(&self) -> FlightRecorder {
        self.inner.borrow().flight.clone()
    }

    /// Install a (shared) flight recorder on this endpoint.
    pub fn set_flight_recorder(&self, flight: FlightRecorder) {
        self.inner.borrow_mut().flight = flight;
    }

    /// Snapshot of CPU busy time.
    pub fn cpu(&self) -> CpuSnapshot {
        let inner = self.inner.borrow();
        CpuSnapshot {
            app_busy: inner.cpu_app.busy_time(),
            proto_busy: inner.cpu_proto.busy_time(),
        }
    }

    /// Charge `cost` of application compute to this node's application CPU
    /// (used by workloads to model computation between operations).
    pub fn charge_app(&self, cost: Dur) {
        self.inner.borrow_mut().cpu_app.account(cost);
    }

    // ------------------------------------------------------------------
    // Issue path (runs at the end of the charged initiation slot)
    // ------------------------------------------------------------------

    fn issue_write(
        &self,
        conn: usize,
        remote_addr: u64,
        data: Bytes,
        flags: OpFlags,
        handle: OpHandle,
        created_ns: u64,
    ) {
        let sends = {
            let mut inner = self.inner.borrow_mut();
            let force = inner.cfg.proto.force_ordered;
            let max_payload = inner.cfg.proto.max_payload;
            let node = inner.node;
            let c = &mut inner.conns[conn];
            let mut flags = flags;
            if force {
                flags.fence_backward = true;
                flags.fence_forward = true;
            }
            let op_id = c.next_op;
            c.next_op += 1;
            let fence_floor = c.last_fwd_op.map_or(0, |o| o + 1);
            if flags.fence_forward {
                c.last_fwd_op = Some(op_id);
            }
            let total = data.len();
            let nfrags = total.div_ceil(max_payload).max(1);
            let mut last_seq = 0;
            for i in 0..nfrags {
                let off = i * max_payload;
                let frag = data.slice(off..total.min(off + max_payload));
                let mut fl = FrameFlags::empty();
                if flags.fence_backward {
                    fl |= FrameFlags::FENCE_BACKWARD;
                }
                if flags.fence_forward {
                    fl |= FrameFlags::FENCE_FORWARD;
                }
                if flags.notify {
                    fl |= FrameFlags::NOTIFY;
                }
                if i == 0 {
                    fl |= FrameFlags::FIRST_FRAGMENT;
                }
                if i == nfrags - 1 {
                    fl |= FrameFlags::LAST_FRAGMENT;
                }
                let seq = c.next_seq;
                c.next_seq += 1;
                last_seq = seq;
                let header = FrameHeader {
                    kind: FrameKind::Data,
                    flags: fl,
                    conn: c.peer_conn_id,
                    seq: to_wire(seq),
                    ack: 0, // filled at transmit time
                    op_id: to_wire(op_id),
                    op_total_len: total as u32,
                    fence_floor: to_wire(fence_floor),
                    remote_addr: remote_addr + off as u64,
                    aux: 0,
                };
                c.send_queue.push_back(Frame {
                    // src/dst rewritten at transmit time (rail choice)
                    src: MacAddr::new(node as u16, 0),
                    dst: MacAddr::new(c.peer_node as u16, 0),
                    header,
                    payload: frag,
                });
            }
            c.pending_write_ops.push_back((last_seq, op_id, handle));
            inner.tracer.emit(
                self.sim.now().as_nanos(),
                Some(conn as u32),
                None,
                EventKind::OpIssue { op: op_id },
            );
            inner.spans.op_issued(
                SpanKey::new(node, conn, to_wire(op_id)),
                SpanKind::Write,
                created_ns,
                self.sim.now().as_nanos(),
                nfrags as u32,
                total as u64,
            );
            inner.flight.note(
                FlightCode::OpIssue,
                node,
                Some(conn),
                None,
                u64::from(to_wire(op_id)),
                total as u64,
                self.sim.now().as_nanos(),
            );
            inner.pump_send(conn, &self.net, &self.sim, false)
        };
        self.dispatch(sends);
        self.ensure_rto(conn);
    }

    #[allow(clippy::too_many_arguments)]
    fn issue_read(
        &self,
        conn: usize,
        local_addr: u64,
        remote_addr: u64,
        len: usize,
        flags: OpFlags,
        handle: OpHandle,
        created_ns: u64,
    ) {
        let sends = {
            let mut inner = self.inner.borrow_mut();
            let force = inner.cfg.proto.force_ordered;
            let node = inner.node;
            inner.stats.read_req_frames_sent += 1;
            let c = &mut inner.conns[conn];
            c.stats.read_req_frames_sent += 1;
            let mut flags = flags;
            if force {
                flags.fence_backward = true;
                flags.fence_forward = true;
            }
            let op_id = c.next_op;
            c.next_op += 1;
            let fence_floor = c.last_fwd_op.map_or(0, |o| o + 1);
            if flags.fence_forward {
                c.last_fwd_op = Some(op_id);
            }
            let mut fl = FrameFlags::FIRST_FRAGMENT | FrameFlags::LAST_FRAGMENT;
            if flags.fence_backward {
                fl |= FrameFlags::FENCE_BACKWARD;
            }
            if flags.fence_forward {
                fl |= FrameFlags::FENCE_FORWARD;
            }
            let seq = c.next_seq;
            c.next_seq += 1;
            let header = FrameHeader {
                kind: FrameKind::ReadRequest,
                flags: fl,
                conn: c.peer_conn_id,
                seq: to_wire(seq),
                ack: 0,
                op_id: to_wire(op_id),
                op_total_len: 0,
                fence_floor: to_wire(fence_floor),
                remote_addr,
                aux: local_addr,
            };
            // Payload carries the requested length.
            let payload = Bytes::copy_from_slice(&(len as u64).to_le_bytes());
            c.send_queue.push_back(Frame {
                src: MacAddr::new(node as u16, 0),
                dst: MacAddr::new(c.peer_node as u16, 0),
                header,
                payload,
            });
            c.pending_reads.insert(op_id, handle);
            inner.tracer.emit(
                self.sim.now().as_nanos(),
                Some(conn as u32),
                None,
                EventKind::OpIssue { op: op_id },
            );
            inner.spans.op_issued(
                SpanKey::new(node, conn, to_wire(op_id)),
                SpanKind::Read,
                created_ns,
                self.sim.now().as_nanos(),
                1,
                len as u64,
            );
            inner.flight.note(
                FlightCode::OpIssue,
                node,
                Some(conn),
                None,
                u64::from(to_wire(op_id)),
                len as u64,
                self.sim.now().as_nanos(),
            );
            inner.pump_send(conn, &self.net, &self.sim, false)
        };
        self.dispatch(sends);
        self.ensure_rto(conn);
    }

    /// Put frames on their NICs, then hand the drained vector back to the
    /// send scratch so steady-state sends reuse its capacity.
    fn dispatch(&self, mut sends: Vec<(NicId, Frame)>) {
        for (nic, f) in sends.drain(..) {
            self.net.nic_send(nic, f);
        }
        let mut inner = self.inner.borrow_mut();
        if sends.capacity() > inner.send_scratch.capacity() {
            inner.send_scratch = sends;
        }
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Per-frame receive processing cost (header parse + copy to user).
    fn rx_cost(cm: &crate::config::CostModel, rx: &RxFrame) -> Dur {
        let mut cost = cm.rx_frame_proc;
        if rx.frame.is_data() {
            cost += cm.copy_cost(rx.frame.payload.len());
        }
        cost
    }

    /// NIC receive callback.
    ///
    /// If the protocol thread is busy, the frame is absorbed by its polling
    /// loop (§2.6) at zero interrupt cost. If the thread is idle, the NIC's
    /// interrupt *moderation* hardware batches events: a timer of
    /// `rx_irq_delay` is armed (or an early fire happens at `rx_irq_frames`
    /// pending events), and one interrupt then processes the whole batch.
    fn on_rx(&self, rx: RxFrame) {
        let now = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        // Physical arrival at the NIC: stamped before the poll/moderate
        // decision so interrupt-moderation delay shows up as RxProcess time
        // in the attribution. Corrupted frames carry untrustworthy headers
        // and are never admitted, so they are not stamped.
        if !rx.corrupted && inner.spans.is_enabled() {
            inner.span_arrival(&rx.frame, now.as_nanos());
        }
        if inner.cpu_proto.available_at() > now {
            // Protocol thread active: polled, no interrupt.
            inner.stats.rx_coalesced += 1;
            inner
                .tracer
                .emit(now.as_nanos(), None, None, EventKind::RxPoll { batch: 1 });
            let cost = Self::rx_cost(&inner.cfg.cost, &rx);
            let (_, end) = inner.cpu_proto.reserve(now, cost);
            if rx.corrupted {
                inner.stats.corrupt_frames += 1;
                return;
            }
            drop(inner);
            let ep = self.clone();
            self.sim.schedule_at(end, move |_| ep.apply_rx(rx.frame));
        } else {
            inner.irq_pending.push_back(ModItem::Rx(rx));
            self.moderate(inner);
        }
    }

    /// Transmit-completion callback (send DMA buffer free): same
    /// poll-or-moderate decision as the receive path (the NIC shares one
    /// interrupt line).
    fn on_tx_complete(&self) {
        let now = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        if inner.cpu_proto.available_at() > now {
            inner.stats.tx_coalesced += 1;
            inner
                .tracer
                .emit(now.as_nanos(), None, None, EventKind::TxPoll);
            let cost = inner.cfg.cost.tx_complete_proc;
            inner.cpu_proto.reserve(now, cost);
        } else {
            inner.irq_pending.push_back(ModItem::TxComplete);
            self.moderate(inner);
        }
    }

    /// Decide whether the pending batch fires now (frame cap) or waits for
    /// the moderation timer.
    fn moderate(&self, mut inner: std::cell::RefMut<'_, EndpointInner>) {
        if inner.irq_pending.len() >= inner.cfg.cost.rx_irq_frames {
            inner.irq_armed = false;
            // Cancel any armed timer in O(1); its slot fires as a no-op.
            let timer = std::mem::replace(&mut inner.irq_timer, TimerId::NONE);
            drop(inner);
            self.sim.cancel_timer(timer);
            self.fire_irq();
        } else if !inner.irq_armed {
            inner.irq_armed = true;
            let delay = inner.cfg.cost.rx_irq_delay;
            drop(inner);
            let ep = self.clone();
            let id = self.sim.schedule_timer_in(delay, move |_| {
                let fire = {
                    let mut inner = ep.inner.borrow_mut();
                    inner.irq_timer = TimerId::NONE;
                    if inner.irq_armed {
                        inner.irq_armed = false;
                        true
                    } else {
                        false
                    }
                };
                if fire {
                    ep.fire_irq();
                }
            });
            self.inner.borrow_mut().irq_timer = id;
        }
    }

    /// One interrupt processes the entire pending batch.
    fn fire_irq(&self) {
        let applies = {
            let mut inner = self.inner.borrow_mut();
            if inner.irq_pending.is_empty() {
                return;
            }
            let mut batch = std::mem::take(&mut inner.irq_batch);
            batch.clear();
            while let Some(item) = inner.irq_pending.pop_front() {
                batch.push(item);
            }
            let n_rx = batch
                .iter()
                .filter(|i| matches!(i, ModItem::Rx(_)))
                .count() as u64;
            let n_tx = batch.len() as u64 - n_rx;
            // One interrupt for the batch; attribute it to the receive path
            // if any receive event is present.
            let now = self.sim.now();
            if n_rx > 0 {
                inner.stats.rx_interrupts += 1;
                inner.stats.rx_coalesced += n_rx - 1;
                inner.stats.tx_coalesced += n_tx;
                inner.tracer.emit(
                    now.as_nanos(),
                    None,
                    None,
                    EventKind::RxInterrupt {
                        batch: batch.len() as u32,
                    },
                );
            } else {
                inner.stats.tx_interrupts += 1;
                inner.stats.tx_coalesced += n_tx - 1;
                inner
                    .tracer
                    .emit(now.as_nanos(), None, None, EventKind::TxInterrupt);
            }
            let cm = inner.cfg.cost.clone();
            inner.cpu_proto.reserve(now, cm.interrupt + cm.kthread_wake);
            let mut applies = std::mem::take(&mut inner.applies_scratch);
            applies.clear();
            for item in batch.drain(..) {
                match item {
                    ModItem::Rx(rx) => {
                        let cost = Self::rx_cost(&cm, &rx);
                        let (_, end) = inner.cpu_proto.reserve(now, cost);
                        if rx.corrupted {
                            inner.stats.corrupt_frames += 1;
                        } else {
                            applies.push((end, rx.frame));
                        }
                    }
                    ModItem::TxComplete => {
                        inner.cpu_proto.reserve(now, cm.tx_complete_proc);
                    }
                }
            }
            inner.irq_batch = batch;
            applies
        };
        let mut applies = applies;
        for (at, f) in applies.drain(..) {
            let ep = self.clone();
            self.sim.schedule_at(at, move |_| ep.apply_rx(f));
        }
        self.inner.borrow_mut().applies_scratch = applies;
    }

    /// Apply a received frame to protocol state (runs at the end of its
    /// charged processing slot).
    fn apply_rx(&self, f: Frame) {
        let now = self.sim.now();
        let conn = f.header.conn as usize;
        {
            // Remember which rail delivered this frame: control frames are
            // sent back along the reverse path, so during a rail outage
            // acks and nacks follow the rails that demonstrably work
            // instead of blackholing on the dead one.
            let mut inner = self.inner.borrow_mut();
            let rail = f.dst.rail as usize;
            if rail < inner.nics.len() {
                inner.conns[conn].last_rx_rail = Some(rail);
            }
        }
        // 1. Piggybacked cumulative ack (every frame carries one).
        self.process_ack(conn, f.header.ack, f.dst.rail as u32, now);
        match f.header.kind {
            FrameKind::Ack => {
                let mut inner = self.inner.borrow_mut();
                inner.stats.ctrl_frames_recv += 1;
                inner.conns[conn].stats.ctrl_frames_recv += 1;
            }
            FrameKind::Nack => {
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.stats.ctrl_frames_recv += 1;
                    inner.conns[conn].stats.ctrl_frames_recv += 1;
                }
                self.process_nack(conn, &f);
            }
            FrameKind::Data | FrameKind::ReadResponse | FrameKind::ReadRequest => {
                self.process_data(conn, f, now);
            }
            FrameKind::Connect | FrameKind::ConnectAck => {
                // Setup collapses to Endpoint::connect in the simulator.
            }
        }
    }

    /// Advance the send window on a cumulative ack; complete write ops and
    /// transmit window-released frames. `rail` is the rail that delivered
    /// the frame carrying the ack (for event attribution).
    fn process_ack(&self, conn: usize, wire_ack: u32, rail: u32, now: SimTime) {
        let (sends, completed) = {
            let mut inner = self.inner.borrow_mut();
            let c = &mut inner.conns[conn];
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
            // Credit the rails that carried the newly-covered frames, and
            // take an RTT sample from the freshest first-transmission frame
            // (Karn's algorithm: retransmitted frames have ambiguous acks).
            let mut rail_events: Vec<RailEvent> = Vec::new();
            let mut rtt_sample = None;
            for seq in old_acked..ack {
                let Some(slot) = c.tx.remove(seq) else {
                    continue;
                };
                if !slot.retransmitted {
                    rtt_sample = Some(now.since(slot.sent_at));
                }
                if let Some(ev) = c.rails.on_ack(slot.rail, seq) {
                    rail_events.push(ev);
                }
            }
            match rtt_sample {
                Some(s) => c.rtt.on_sample(s),
                None => c.rtt.on_progress(),
            }
            let mut completed = Vec::new();
            while c
                .pending_write_ops
                .front()
                .is_some_and(|(last, _, _)| *last < ack)
            {
                let (_, op, h) = c.pending_write_ops.pop_front().expect("checked front");
                completed.push((op, h));
            }
            inner.tracer.emit(
                now.as_nanos(),
                Some(conn as u32),
                Some(rail),
                EventKind::AckPiggyback { ack },
            );
            if inner.spans.is_enabled() {
                let node = inner.node;
                for (op, _) in &completed {
                    inner
                        .spans
                        .ack_rx(SpanKey::new(node, conn, to_wire(*op)), now.as_nanos());
                }
            }
            for ev in rail_events {
                let RailEvent::Readmitted(rail) = ev else {
                    continue;
                };
                inner.stats.rail_up_events += 1;
                inner.conns[conn].stats.rail_up_events += 1;
                inner.tracer.emit(
                    now.as_nanos(),
                    Some(conn as u32),
                    Some(rail as u32),
                    EventKind::RailUp { rail: rail as u32 },
                );
            }
            let sends = inner.pump_send(conn, &self.net, &self.sim, true);
            (sends, completed)
        };
        self.dispatch(sends);
        if !completed.is_empty() {
            let (wake, tracer, spans, flight, node) = {
                let mut inner = self.inner.borrow_mut();
                let wake = inner.cfg.cost.app_wake;
                inner.cpu_app.account(wake * completed.len() as u64);
                (
                    wake,
                    inner.tracer.clone(),
                    inner.spans.clone(),
                    inner.flight.clone(),
                    inner.node,
                )
            };
            let at = now + wake;
            for (op, h) in completed {
                let tracer = tracer.clone();
                let spans = spans.clone();
                let flight = flight.clone();
                self.sim.schedule_at(at, move |sim| {
                    h.complete(sim.now());
                    spans.op_completed(SpanKey::new(node, conn, to_wire(op)), sim.now().as_nanos());
                    flight.note(
                        FlightCode::OpComplete,
                        node,
                        Some(conn),
                        None,
                        u64::from(to_wire(op)),
                        h.latency().map_or(0, |l| l.as_nanos()),
                        sim.now().as_nanos(),
                    );
                    if tracer.is_enabled() {
                        if let Some(lat) = h.latency() {
                            tracer.op_latency(conn as u32, lat.as_nanos());
                        }
                        tracer.emit(
                            sim.now().as_nanos(),
                            Some(conn as u32),
                            None,
                            EventKind::OpComplete { op },
                        );
                    }
                });
            }
        }
    }

    /// Selective retransmission in response to a NACK.
    fn process_nack(&self, conn: usize, f: &Frame) {
        let ranges = NackRanges::decode(&f.payload);
        let sends = {
            let mut inner = self.inner.borrow_mut();
            let window = inner.cfg.proto.window;
            let per_frame = inner.cfg.cost.frame_build + inner.cfg.cost.dma_post;
            let mut to_resend: Vec<u64> = Vec::new();
            {
                let c = &inner.conns[conn];
                let acked = c.acked;
                'outer: for &(wf, wt) in &ranges.ranges {
                    let from = from_wire(acked, wf);
                    let to = from_wire(acked, wt);
                    if to <= from {
                        continue;
                    }
                    for seq in from..to.min(from + window) {
                        if c.tx.contains(seq) {
                            to_resend.push(seq);
                        }
                        if to_resend.len() as u64 >= window {
                            break 'outer;
                        }
                    }
                }
            }
            let now = self.sim.now();
            // Each NACKed frame is a loss attributed to the rail that last
            // carried it — debit before the retransmit reassigns the rail.
            let mut rail_events: Vec<RailEvent> = Vec::new();
            {
                let c = &mut inner.conns[conn];
                for &seq in &to_resend {
                    let rail = c.tx.get(seq).map(|s| s.rail);
                    if let Some(rail) = rail {
                        if let Some(ev) = c.rails.on_loss(rail, seq, now) {
                            rail_events.push(ev);
                        }
                    }
                }
            }
            for ev in rail_events {
                let RailEvent::Dead(rail) = ev else {
                    continue;
                };
                inner.stats.rail_down_events += 1;
                inner.conns[conn].stats.rail_down_events += 1;
                inner.tracer.emit(
                    now.as_nanos(),
                    Some(conn as u32),
                    Some(rail as u32),
                    EventKind::RailDown { rail: rail as u32 },
                );
                let node = inner.node;
                inner
                    .flight
                    .rail_death(node, Some(conn), rail as u32, now.as_nanos());
            }
            let n = to_resend.len() as u64;
            inner.stats.retransmits_nack += n;
            inner.conns[conn].stats.retransmits_nack += n;
            inner.tracer.emit(
                now.as_nanos(),
                Some(conn as u32),
                Some(f.dst.rail as u32),
                EventKind::NackRecv {
                    gaps: ranges.ranges.len() as u32,
                },
            );
            inner.cpu_proto.account(per_frame * n);
            let mut sends = Vec::with_capacity(to_resend.len());
            for seq in to_resend {
                if let Some(fr) = inner.prepare_transmit(conn, seq, true, &self.net, &self.sim) {
                    sends.push(fr);
                }
            }
            sends
        };
        self.dispatch(sends);
    }

    /// Handle a data-bearing frame: sequence admission, fences, application
    /// to memory, notifications, read service, acknowledgement policy.
    fn process_data(&self, conn: usize, f: Frame, now: SimTime) {
        let mut notif: Vec<Notification> = Vec::new();
        // (read address at this node, initiator response buffer, length,
        //  initiator read-op id)
        let mut read_serves: Vec<(u64, u64, u64, u64)> = Vec::new();
        let mut read_completions: Vec<(u64, OpHandle)> = Vec::new();
        let mut duplicate = false;
        let mut send_ack_now = false;
        let mut arm_ack_timer = false;
        let mut arm_nack = false;
        {
            let mut inner = self.inner.borrow_mut();
            let ack_every = inner.cfg.proto.ack_every;
            let peer = inner.conns[conn].peer_node;
            let traced = inner.tracer.is_enabled();
            let observed = traced || inner.spans.is_enabled() || inner.flight.is_enabled();
            let (admit, seq) = {
                let c = &mut inner.conns[conn];
                let seq = from_wire(c.seqs.cumulative(), f.header.seq);
                (c.seqs.admit(seq), seq)
            };
            match admit {
                Admit::Duplicate => {
                    inner.stats.dup_frames_recv += 1;
                    inner.conns[conn].stats.dup_frames_recv += 1;
                    duplicate = true;
                }
                Admit::New { in_order } => {
                    let bytes = if f.header.kind == FrameKind::ReadRequest {
                        0
                    } else {
                        f.payload.len() as u64
                    };
                    inner.stats.data_frames_recv += 1;
                    inner.stats.data_bytes_recv += bytes;
                    inner.conns[conn].stats.data_frames_recv += 1;
                    inner.conns[conn].stats.data_bytes_recv += bytes;
                    if !in_order {
                        inner.stats.ooo_arrivals += 1;
                        inner.conns[conn].stats.ooo_arrivals += 1;
                    }
                    inner.tracer.emit(
                        now.as_nanos(),
                        Some(conn as u32),
                        Some(f.dst.rail as u32),
                        EventKind::FrameRecv { seq, in_order },
                    );
                    inner.flight.note(
                        FlightCode::FrameRecv,
                        inner.node,
                        Some(conn),
                        Some(f.dst.rail as u32),
                        seq,
                        u64::from(in_order),
                        now.as_nanos(),
                    );
                    if inner.spans.is_enabled() {
                        inner.span_admit(conn, &f, seq, now.as_nanos());
                        let cum = inner.conns[conn].seqs.cumulative();
                        let node = inner.node;
                        inner.spans.cum_advanced(node, conn, cum, now.as_nanos());
                    }
                }
            }
            if !duplicate {
                // Reconstruct op-level fields and run the fence machinery.
                let (mut release, stalled_op) = {
                    let c = &mut inner.conns[conn];
                    let op_id = from_wire(c.order.applied_below(), f.header.op_id);
                    let fence_floor = from_wire(c.order.applied_below(), f.header.fence_floor);
                    let meta = FragMeta {
                        op_id,
                        op_total: f.header.op_total_len as u64,
                        fence_floor,
                        fence_backward: f.header.flags.contains(FrameFlags::FENCE_BACKWARD),
                        len: if f.header.kind == FrameKind::ReadRequest {
                            0
                        } else {
                            f.payload.len() as u64
                        },
                    };
                    let entry = c.op_meta.entry(op_id).or_insert_with(|| OpMetaInfo {
                        kind: f.header.kind,
                        start_addr: f.header.remote_addr,
                        total: meta.op_total,
                        aux: f.header.aux,
                        notify: f.header.flags.contains(FrameFlags::NOTIFY),
                        req_len: if f.header.kind == FrameKind::ReadRequest {
                            u64::from_le_bytes(
                                f.payload[..8].try_into().expect("read request payload"),
                            )
                        } else {
                            0
                        },
                    });
                    entry.start_addr = entry.start_addr.min(f.header.remote_addr);
                    let payload = FragPayload {
                        kind: f.header.kind,
                        addr: f.header.remote_addr,
                        data: f.payload.clone(),
                    };
                    let buffered_before = c.order.buffered();
                    let mut release = std::mem::take(&mut c.release_scratch);
                    c.order.offer_into(meta, payload, &mut release);
                    // The fragment was held back iff the buffer count grew.
                    let stalled_op = if c.order.buffered() > buffered_before {
                        if observed {
                            c.fence_stall_start.entry(op_id).or_insert(now);
                        }
                        Some(op_id)
                    } else {
                        None
                    };
                    (release, stalled_op)
                };
                if observed {
                    if traced {
                        if let Some(op) = stalled_op {
                            inner.tracer.emit(
                                now.as_nanos(),
                                Some(conn as u32),
                                None,
                                EventKind::FenceStall { op },
                            );
                        }
                    }
                    let released: Vec<(u64, u64)> = {
                        let c = &mut inner.conns[conn];
                        release
                            .apply
                            .iter()
                            .filter_map(|(m, _)| {
                                c.fence_stall_start
                                    .remove(&m.op_id)
                                    .map(|start| (m.op_id, now.since(start).as_nanos()))
                            })
                            .collect()
                    };
                    for (op, stalled_ns) in released {
                        if traced {
                            inner.tracer.emit(
                                now.as_nanos(),
                                Some(conn as u32),
                                None,
                                EventKind::FenceRelease { op, stalled_ns },
                            );
                            inner.tracer.fence_stall(conn as u32, stalled_ns);
                        }
                        // Attribute the stall to the right span leg: a held
                        // write delivery is informational (acking is not
                        // blocked), a held read request delays the serve, a
                        // held read response delays the initiator's release.
                        if inner.spans.is_enabled() {
                            let c = &inner.conns[conn];
                            if let Some(mi) = c.op_meta.get(&op) {
                                let origin = SpanKey::new(
                                    c.peer_node,
                                    c.peer_conn_id as usize,
                                    to_wire(op),
                                );
                                match mi.kind {
                                    FrameKind::Data => {
                                        inner.spans.delivered(origin, now.as_nanos(), stalled_ns);
                                    }
                                    FrameKind::ReadRequest => {
                                        inner.spans.fence_req(origin, stalled_ns);
                                    }
                                    FrameKind::ReadResponse => {
                                        let key =
                                            SpanKey::new(inner.node, conn, to_wire(mi.aux));
                                        inner.spans.fence_resp(key, stalled_ns);
                                    }
                                    _ => {}
                                }
                            }
                        }
                        let node = inner.node;
                        inner.flight.fence_release(
                            node,
                            conn,
                            u64::from(to_wire(op)),
                            stalled_ns,
                            now.as_nanos(),
                        );
                    }
                }
                // Apply released fragments to memory.
                for (_, frag) in &release.apply {
                    match frag.kind {
                        FrameKind::Data | FrameKind::ReadResponse => {
                            inner.memory.write(frag.addr, &frag.data);
                        }
                        FrameKind::ReadRequest => {
                            // Served at op completion (single-frame op).
                        }
                        _ => unreachable!("only data-bearing kinds are ordered"),
                    }
                }
                // Handle op completions.
                for &op in &release.completed {
                    let Some(mi) = inner.conns[conn].op_meta.remove(&op) else {
                        continue;
                    };
                    if inner.spans.is_enabled() && mi.kind == FrameKind::Data {
                        let c = &inner.conns[conn];
                        inner.spans.delivered(
                            SpanKey::new(c.peer_node, c.peer_conn_id as usize, to_wire(op)),
                            now.as_nanos(),
                            0,
                        );
                    }
                    match mi.kind {
                        FrameKind::Data if mi.notify => {
                            notif.push(Notification {
                                from_node: peer,
                                addr: mi.start_addr,
                                len: mi.total as usize,
                            });
                        }
                        FrameKind::Data => {}
                        FrameKind::ReadRequest => {
                            read_serves.push((mi.start_addr, mi.aux, mi.req_len, op));
                        }
                        FrameKind::ReadResponse => {
                            let read_id = mi.aux;
                            if let Some(h) = inner.conns[conn].pending_reads.remove(&read_id) {
                                let node = inner.node;
                                inner.spans.resp_released(
                                    SpanKey::new(node, conn, to_wire(read_id)),
                                    now.as_nanos(),
                                );
                                read_completions.push((read_id, h));
                            }
                        }
                        _ => {}
                    }
                }
                inner.stats.notifications += notif.len() as u64;
                inner.conns[conn].stats.notifications += notif.len() as u64;
                // Acknowledgement policy.
                let c = &mut inner.conns[conn];
                c.frames_since_ack += 1;
                if c.frames_since_ack >= ack_every {
                    send_ack_now = true;
                } else if !c.ack_timer_armed {
                    c.ack_timer_armed = true;
                    arm_ack_timer = true;
                }
                if c.seqs.has_gap() && !c.nack_timer_armed {
                    c.nack_timer_armed = true;
                    arm_nack = true;
                }
                // Return the drained release buffers for the next frame.
                release.apply.clear();
                release.completed.clear();
                inner.conns[conn].release_scratch = release;
            }
        }
        if duplicate {
            // Immediate explicit ack: recovers from lost acks (§2.4 corner
            // cases — "link failures and lost acknowledgments").
            self.send_explicit_ack(conn);
            return;
        }
        for (read_addr, resp_buf, len, initiator_op) in read_serves {
            self.serve_read(conn, read_addr, resp_buf, len as usize, initiator_op);
        }
        // Notifications and read completions wake application tasks.
        if !notif.is_empty() || !read_completions.is_empty() {
            let (wake, tracer, spans, flight, node) = {
                let mut inner = self.inner.borrow_mut();
                let wake = inner.cfg.cost.app_wake;
                let n = (notif.len() + read_completions.len()) as u64;
                inner.cpu_app.account(wake * n);
                (
                    wake,
                    inner.tracer.clone(),
                    inner.spans.clone(),
                    inner.flight.clone(),
                    inner.node,
                )
            };
            let at = now + wake;
            let notifications = self.notifications.clone();
            self.sim.schedule_at(at, move |sim| {
                for nf in notif {
                    notifications.push(nf);
                }
                for (op, h) in read_completions {
                    h.complete(sim.now());
                    spans.op_completed(SpanKey::new(node, conn, to_wire(op)), sim.now().as_nanos());
                    flight.note(
                        FlightCode::OpComplete,
                        node,
                        Some(conn),
                        None,
                        u64::from(to_wire(op)),
                        h.latency().map_or(0, |l| l.as_nanos()),
                        sim.now().as_nanos(),
                    );
                    if tracer.is_enabled() {
                        if let Some(lat) = h.latency() {
                            tracer.op_latency(conn as u32, lat.as_nanos());
                        }
                        tracer.emit(
                            sim.now().as_nanos(),
                            Some(conn as u32),
                            None,
                            EventKind::OpComplete { op },
                        );
                    }
                }
            });
        }
        if send_ack_now {
            self.send_explicit_ack(conn);
        }
        if arm_ack_timer {
            let delay = self.inner.borrow().cfg.proto.delayed_ack_timeout;
            let ep = self.clone();
            self.sim.schedule_in(delay, move |_| ep.delayed_ack_fire(conn));
        }
        if arm_nack {
            let delay = self.inner.borrow().cfg.proto.nack_delay;
            let ep = self.clone();
            self.sim.schedule_in(delay, move |_| ep.nack_check_fire(conn));
        }
    }

    /// Target-side service of a remote read: build and send the response op.
    fn serve_read(
        &self,
        conn: usize,
        read_addr: u64,
        resp_buf: u64,
        len: usize,
        initiator_op: u64,
    ) {
        let sends = {
            let mut inner = self.inner.borrow_mut();
            let max_payload = inner.cfg.proto.max_payload;
            let node = inner.node;
            let data = inner.memory.read_bytes(read_addr, len);
            let nfrags = len.div_ceil(max_payload).max(1);
            let cost = inner.cfg.cost.copy_cost(len)
                + (inner.cfg.cost.frame_build + inner.cfg.cost.dma_post) * nfrags as u64;
            inner.cpu_proto.account(cost);
            if inner.spans.is_enabled() {
                let c = &inner.conns[conn];
                inner.spans.serve_started(
                    SpanKey::new(c.peer_node, c.peer_conn_id as usize, to_wire(initiator_op)),
                    self.sim.now().as_nanos(),
                );
            }
            let c = &mut inner.conns[conn];
            let op_id = c.next_op;
            c.next_op += 1;
            let fence_floor = c.last_fwd_op.map_or(0, |o| o + 1);
            for i in 0..nfrags {
                let off = i * max_payload;
                let frag = data.slice(off..len.min(off + max_payload));
                let mut fl = FrameFlags::empty();
                if i == 0 {
                    fl |= FrameFlags::FIRST_FRAGMENT;
                }
                if i == nfrags - 1 {
                    fl |= FrameFlags::LAST_FRAGMENT;
                }
                let seq = c.next_seq;
                c.next_seq += 1;
                let header = FrameHeader {
                    kind: FrameKind::ReadResponse,
                    flags: fl,
                    conn: c.peer_conn_id,
                    seq: to_wire(seq),
                    ack: 0,
                    op_id: to_wire(op_id),
                    op_total_len: len as u32,
                    fence_floor: to_wire(fence_floor),
                    remote_addr: resp_buf + off as u64,
                    aux: initiator_op,
                };
                c.send_queue.push_back(Frame {
                    src: MacAddr::new(node as u16, 0),
                    dst: MacAddr::new(c.peer_node as u16, 0),
                    header,
                    payload: frag,
                });
            }
            inner.pump_send(conn, &self.net, &self.sim, true)
        };
        self.dispatch(sends);
        self.ensure_rto(conn);
    }

    // ------------------------------------------------------------------
    // Acks, nacks, timers
    // ------------------------------------------------------------------

    /// Build and send an explicit positive acknowledgement.
    fn send_explicit_ack(&self, conn: usize) {
        let (nic, f) = {
            let mut inner = self.inner.borrow_mut();
            let per = inner.cfg.cost.frame_build + inner.cfg.cost.dma_post;
            inner.cpu_proto.account(per);
            inner.stats.explicit_acks_sent += 1;
            let EndpointInner {
                node,
                nics,
                conns,
                tracer,
                spans,
                flight,
                ..
            } = &mut *inner;
            let node = *node;
            let c = &mut conns[conn];
            c.stats.explicit_acks_sent += 1;
            c.frames_since_ack = 0;
            let cum = c.seqs.cumulative();
            let header = FrameHeader {
                kind: FrameKind::Ack,
                flags: FrameFlags::empty(),
                conn: c.peer_conn_id,
                seq: to_wire(c.next_seq),
                ack: to_wire(c.seqs.cumulative()),
                op_id: 0,
                op_total_len: 0,
                fence_floor: 0,
                remote_addr: 0,
                aux: 0,
            };
            // Reverse-path routing: reply on the rail the peer's frames are
            // arriving on — it is demonstrably alive in at least one
            // direction, unlike a blind round-robin pick that would land
            // half the control traffic on a dead rail during an outage.
            let rail = match c.last_rx_rail {
                Some(r) if r < nics.len() => r,
                _ => {
                    let mask = c.rails.eligible_mask(self.sim.now());
                    c.sched.pick(
                        nics.len(),
                        mask,
                        |i| self.net.nic_tx_backlog(nics[i]).as_nanos(),
                        |n| self.sim.with_rng(|r| r.gen_range(0..n)),
                    )
                }
            };
            let f = Frame {
                src: MacAddr::new(node as u16, rail as u8),
                dst: MacAddr::new(c.peer_node as u16, rail as u8),
                header,
                payload: Bytes::new(),
            };
            tracer.emit(
                self.sim.now().as_nanos(),
                Some(conn as u32),
                Some(rail as u32),
                EventKind::ExplicitAck { ack: cum },
            );
            spans.ack_sent(node, conn, cum, self.sim.now().as_nanos());
            flight.note(
                FlightCode::AckExplicit,
                node,
                Some(conn),
                Some(rail as u32),
                cum,
                0,
                self.sim.now().as_nanos(),
            );
            (nics[rail], f)
        };
        self.net.nic_send(nic, f);
    }

    fn delayed_ack_fire(&self, conn: usize) {
        let send = {
            let mut inner = self.inner.borrow_mut();
            let c = &mut inner.conns[conn];
            c.ack_timer_armed = false;
            c.frames_since_ack > 0
        };
        if send {
            self.send_explicit_ack(conn);
        }
    }

    fn nack_check_fire(&self, conn: usize) {
        let (send_ranges, rearm) = {
            let mut inner = self.inner.borrow_mut();
            let repeat = inner.cfg.proto.nack_repeat;
            let min_age = inner.cfg.proto.nack_delay;
            let now = self.sim.now();
            let c = &mut inner.conns[conn];
            c.nack_timer_armed = false;
            let Conn {
                seqs,
                gaps,
                missing_scratch,
                ..
            } = c;
            seqs.missing_ranges_into(missing_scratch);
            let cumulative = seqs.cumulative();
            // Retire gap state the cumulative ack has passed; what remains
            // is bounded by the window.
            gaps.purge_below(cumulative);
            let mut due = Vec::new();
            for &(from, to) in missing_scratch.iter() {
                // Only report gaps that have persisted for at least
                // `nack_delay` — multi-link skew closes younger gaps on its
                // own, and NACKing them would trigger the unnecessary
                // retransmissions the paper's delayed-NACK design avoids.
                let g = gaps.entry(from, now);
                if now.since(g.first_seen) < min_age {
                    continue;
                }
                if g.last_nack.is_none_or(|t| now.since(t) >= repeat) {
                    g.last_nack = Some(now);
                    due.push((to_wire(from), to_wire(to)));
                }
            }
            let rearm = !missing_scratch.is_empty();
            if rearm {
                c.nack_timer_armed = true;
            }
            (due, rearm)
        };
        if !send_ranges.is_empty() {
            self.send_nack(conn, send_ranges);
        }
        if rearm {
            let delay = self.inner.borrow().cfg.proto.nack_delay;
            let ep = self.clone();
            self.sim.schedule_in(delay, move |_| ep.nack_check_fire(conn));
        }
    }

    fn send_nack(&self, conn: usize, ranges: Vec<(u32, u32)>) {
        let (nic, f) = {
            let mut inner = self.inner.borrow_mut();
            let per = inner.cfg.cost.frame_build + inner.cfg.cost.dma_post;
            inner.cpu_proto.account(per);
            inner.stats.nacks_sent += 1;
            let EndpointInner {
                node,
                nics,
                conns,
                tracer,
                spans,
                flight,
                ..
            } = &mut *inner;
            let node = *node;
            let c = &mut conns[conn];
            c.stats.nacks_sent += 1;
            let gaps = ranges.len() as u32;
            let payload = NackRanges { ranges }.encode();
            let header = FrameHeader {
                kind: FrameKind::Nack,
                flags: FrameFlags::empty(),
                conn: c.peer_conn_id,
                seq: to_wire(c.next_seq),
                ack: to_wire(c.seqs.cumulative()),
                op_id: 0,
                op_total_len: 0,
                fence_floor: 0,
                remote_addr: 0,
                aux: 0,
            };
            // Reverse-path routing: reply on the rail the peer's frames are
            // arriving on — it is demonstrably alive in at least one
            // direction, unlike a blind round-robin pick that would land
            // half the control traffic on a dead rail during an outage.
            let rail = match c.last_rx_rail {
                Some(r) if r < nics.len() => r,
                _ => {
                    let mask = c.rails.eligible_mask(self.sim.now());
                    c.sched.pick(
                        nics.len(),
                        mask,
                        |i| self.net.nic_tx_backlog(nics[i]).as_nanos(),
                        |n| self.sim.with_rng(|r| r.gen_range(0..n)),
                    )
                }
            };
            let f = Frame {
                src: MacAddr::new(node as u16, rail as u8),
                dst: MacAddr::new(c.peer_node as u16, rail as u8),
                header,
                payload,
            };
            tracer.emit(
                self.sim.now().as_nanos(),
                Some(conn as u32),
                Some(rail as u32),
                EventKind::NackSend { gaps },
            );
            // A NACK also carries the cumulative ack.
            spans.ack_sent(node, conn, c.seqs.cumulative(), self.sim.now().as_nanos());
            flight.note(
                FlightCode::Nack,
                node,
                Some(conn),
                Some(rail as u32),
                c.seqs.cumulative(),
                u64::from(gaps),
                self.sim.now().as_nanos(),
            );
            (nics[rail], f)
        };
        self.net.nic_send(nic, f);
    }

    /// Arm the coarse retransmission timeout if frames are unacknowledged.
    fn ensure_rto(&self, conn: usize) {
        let arm = {
            let mut inner = self.inner.borrow_mut();
            let c = &mut inner.conns[conn];
            if c.rto_armed || c.acked == c.next_seq {
                false
            } else {
                c.rto_armed = true;
                true
            }
        };
        if arm {
            let rto = self.inner.borrow().conns[conn].rtt.current_rto();
            let ep = self.clone();
            self.sim.schedule_in(rto, move |_| ep.rto_fire(conn));
        }
    }

    fn rto_fire(&self, conn: usize) {
        let (resend, rearm) = {
            let mut inner = self.inner.borrow_mut();
            let per = inner.cfg.cost.frame_build + inner.cfg.cost.dma_post;
            let now = self.sim.now();
            let c = &mut inner.conns[conn];
            c.rto_armed = false;
            if c.acked == c.next_seq {
                (None, false)
            } else if now.since(c.last_progress) >= c.rtt.current_rto() && c.sent_up_to > c.acked {
                // §2.4: retransmit the last transmitted frame; the receiver
                // will NACK anything else that is missing.
                let seq = c.sent_up_to - 1;
                c.last_progress = now;
                c.stats.retransmits_rto += 1;
                // A timeout means the whole window went unanswered: back the
                // timer off exponentially and debit the rail that carried
                // the frame we are about to retransmit.
                let backoff = c.rtt.on_timeout();
                let rto_ns = c.rtt.current_rto().as_nanos();
                c.stats.rto_backoff_max = c.stats.rto_backoff_max.max(backoff as u64);
                let rail = c.tx.get(seq).map(|s| s.rail);
                let rail_ev = rail.and_then(|r| c.rails.on_loss(r, seq, now));
                if rail_ev.is_some() {
                    c.stats.rail_down_events += 1;
                }
                inner.stats.retransmits_rto += 1;
                inner.stats.rto_backoff_max = inner.stats.rto_backoff_max.max(backoff as u64);
                inner.tracer.emit(
                    now.as_nanos(),
                    Some(conn as u32),
                    rail.map(|r| r as u32),
                    EventKind::RtoFire { seq },
                );
                inner.tracer.emit(
                    now.as_nanos(),
                    Some(conn as u32),
                    rail.map(|r| r as u32),
                    EventKind::RtoBackoff { rto_ns, backoff },
                );
                let node = inner.node;
                inner.flight.note(
                    FlightCode::RtoFire,
                    node,
                    Some(conn),
                    rail.map(|r| r as u32),
                    seq,
                    0,
                    now.as_nanos(),
                );
                inner.flight.rto_backoff(
                    node,
                    conn,
                    rail.map(|r| r as u32),
                    rto_ns,
                    backoff,
                    now.as_nanos(),
                );
                if let Some(RailEvent::Dead(rail)) = rail_ev {
                    inner.stats.rail_down_events += 1;
                    inner.tracer.emit(
                        now.as_nanos(),
                        Some(conn as u32),
                        Some(rail as u32),
                        EventKind::RailDown { rail: rail as u32 },
                    );
                    inner
                        .flight
                        .rail_death(node, Some(conn), rail as u32, now.as_nanos());
                }
                inner.cpu_proto.account(per);
                (
                    inner.prepare_transmit(conn, seq, true, &self.net, &self.sim),
                    true,
                )
            } else {
                (None, true)
            }
        };
        if let Some(s) = resend {
            self.dispatch(vec![s]);
        }
        if rearm {
            let rto = {
                let mut inner = self.inner.borrow_mut();
                inner.conns[conn].rto_armed = true;
                inner.conns[conn].rtt.current_rto()
            };
            let ep = self.clone();
            self.sim.schedule_in(rto, move |_| ep.rto_fire(conn));
        }
    }
}

impl EndpointInner {
    /// Transmit window-eligible frames; `proto_ctx` charges the protocol CPU
    /// for the DMA posts (the application path pre-paid its own).
    fn pump_send(
        &mut self,
        conn: usize,
        net: &Network,
        sim: &Sim,
        proto_ctx: bool,
    ) -> Vec<(NicId, Frame)> {
        let window = self.cfg.proto.window;
        let mut out = std::mem::take(&mut self.send_scratch);
        out.clear();
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
            c.tx.insert(TxSlot {
                seq,
                rail: 0,
                sent_at: SimTime::ZERO,
                retransmitted: false,
                frame,
            });
            if let Some(send) = self.prepare_transmit(conn, seq, false, net, sim) {
                out.push(send);
            }
            self.conns[conn].sent_up_to += 1;
        }
        if proto_ctx && !out.is_empty() {
            let per = self.cfg.cost.dma_post;
            self.cpu_proto.account(per * out.len() as u64);
        }
        if !out.is_empty() {
            let (mut n, mut bytes) = (0u64, 0u64);
            for (_, f) in &out {
                if f.header.kind != FrameKind::ReadRequest {
                    n += 1;
                    bytes += f.payload.len() as u64;
                }
            }
            self.stats.data_frames_sent += n;
            self.stats.data_bytes_sent += bytes;
            self.conns[conn].stats.data_frames_sent += n;
            self.conns[conn].stats.data_bytes_sent += bytes;
            // Any data frame piggybacks the ack state: the receiver-side
            // obligations are satisfied by it.
            self.conns[conn].frames_since_ack = 0;
        }
        out
    }

    /// Fetch the stored frame for `seq`, refresh its piggybacked ack and
    /// assign a rail. `retransmit` marks the stats flag.
    fn prepare_transmit(
        &mut self,
        conn: usize,
        seq: u64,
        retransmit: bool,
        net: &Network,
        sim: &Sim,
    ) -> Option<(NicId, Frame)> {
        let EndpointInner {
            node,
            nics,
            conns,
            tracer,
            spans,
            flight,
            ..
        } = self;
        let node = *node;
        let c = &mut conns[conn];
        let mut f = c.tx.get(seq)?.frame.clone();
        f.header.ack = to_wire(c.seqs.cumulative());
        if retransmit {
            f.header.flags |= FrameFlags::RETRANSMIT;
        }
        let mask = c.rails.eligible_mask(sim.now());
        let rail = c.sched.pick(
            nics.len(),
            mask,
            |i| net.nic_tx_backlog(nics[i]).as_nanos(),
            |n| sim.with_rng(|r| r.gen_range(0..n)),
        );
        c.rails.note_sent(rail, seq);
        let slot = c.tx.get_mut(seq).expect("slot just read");
        slot.rail = rail;
        slot.sent_at = sim.now();
        slot.retransmitted = slot.retransmitted || retransmit;
        f.src = MacAddr::new(node as u16, rail as u8);
        f.dst = MacAddr::new(c.peer_node as u16, rail as u8);
        tracer.emit(
            sim.now().as_nanos(),
            Some(conn as u32),
            Some(rail as u32),
            EventKind::FrameSend { seq, retransmit },
        );
        if spans.is_enabled() {
            let now_ns = sim.now().as_nanos();
            // The frame joins the NIC's transmit backlog behind whatever is
            // already queued: that backlog is the RailQueue phase.
            let queue_ns = net.nic_tx_backlog(nics[rail]).as_nanos();
            match f.header.kind {
                FrameKind::Data => {
                    let crit = f.header.flags.contains(FrameFlags::LAST_FRAGMENT);
                    spans.frame_tx(
                        SpanKey::new(node, conn, f.header.op_id),
                        Leg::Req,
                        crit,
                        retransmit,
                        rail as u32,
                        queue_ns,
                        now_ns,
                    );
                }
                FrameKind::ReadRequest => {
                    spans.frame_tx(
                        SpanKey::new(node, conn, f.header.op_id),
                        Leg::Req,
                        true,
                        retransmit,
                        rail as u32,
                        queue_ns,
                        now_ns,
                    );
                }
                FrameKind::ReadResponse => {
                    let crit = f.header.flags.contains(FrameFlags::LAST_FRAGMENT);
                    spans.frame_tx(
                        SpanKey::new(c.peer_node, c.peer_conn_id as usize, to_wire(f.header.aux)),
                        Leg::Resp,
                        crit,
                        retransmit,
                        rail as u32,
                        queue_ns,
                        now_ns,
                    );
                }
                _ => {}
            }
            // Every data-bearing frame piggybacks the cumulative ack.
            spans.ack_sent(node, conn, c.seqs.cumulative(), now_ns);
        }
        flight.note(
            FlightCode::FrameSend,
            node,
            Some(conn),
            Some(rail as u32),
            seq,
            u64::from(retransmit),
            sim.now().as_nanos(),
        );
        Some((nics[rail], f))
    }

    /// Stamp the physical-arrival milestone for a span-critical frame: the
    /// last fragment of a write or read response, or a read request. The
    /// span is keyed by the *origin* of the op the frame belongs to, which
    /// every header identifies without any lookup table (§ spans docs).
    fn span_arrival(&self, f: &Frame, now_ns: u64) {
        let conn = f.header.conn as usize;
        if conn >= self.conns.len() {
            return;
        }
        match f.header.kind {
            FrameKind::Data if f.header.flags.contains(FrameFlags::LAST_FRAGMENT) => {
                let c = &self.conns[conn];
                self.spans.frame_arrival(
                    SpanKey::new(c.peer_node, c.peer_conn_id as usize, f.header.op_id),
                    Leg::Req,
                    now_ns,
                );
            }
            FrameKind::ReadRequest => {
                let c = &self.conns[conn];
                self.spans.frame_arrival(
                    SpanKey::new(c.peer_node, c.peer_conn_id as usize, f.header.op_id),
                    Leg::Req,
                    now_ns,
                );
            }
            FrameKind::ReadResponse if f.header.flags.contains(FrameFlags::LAST_FRAGMENT) => {
                self.spans.frame_arrival(
                    SpanKey::new(self.node, conn, to_wire(f.header.aux)),
                    Leg::Resp,
                    now_ns,
                );
            }
            _ => {}
        }
    }

    /// Stamp the reorder-admission milestone for a span-critical frame and
    /// register write last-fragments with the cumulative-ack waiter queue
    /// (`seq` is the reconstructed 64-bit sequence of this frame).
    fn span_admit(&self, conn: usize, f: &Frame, seq: u64, now_ns: u64) {
        let c = &self.conns[conn];
        match f.header.kind {
            FrameKind::Data if f.header.flags.contains(FrameFlags::LAST_FRAGMENT) => {
                let key = SpanKey::new(c.peer_node, c.peer_conn_id as usize, f.header.op_id);
                self.spans.frame_admitted(key, Leg::Req, now_ns);
                self.spans.await_cum(self.node, conn, seq, key);
            }
            FrameKind::ReadRequest => {
                self.spans.frame_admitted(
                    SpanKey::new(c.peer_node, c.peer_conn_id as usize, f.header.op_id),
                    Leg::Req,
                    now_ns,
                );
            }
            FrameKind::ReadResponse if f.header.flags.contains(FrameFlags::LAST_FRAGMENT) => {
                self.spans.frame_admitted(
                    SpanKey::new(self.node, conn, to_wire(f.header.aux)),
                    Leg::Resp,
                    now_ns,
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::{ms, us};
    use netsim::{build_cluster, FaultModel};

    /// Build a 2-node test rig with the given config.
    fn rig(mut cfg: SystemConfig) -> (Sim, netsim::Cluster, Vec<Endpoint>, (usize, usize)) {
        cfg.nodes = 2;
        let sim = Sim::new(cfg.seed);
        let cluster = build_cluster(&sim, cfg.cluster_spec());
        let cfg = Rc::new(cfg);
        let eps = Endpoint::for_cluster(&sim, &cluster, cfg);
        let conns = Endpoint::connect(&eps[0], &eps[1]);
        (sim, cluster, eps, conns)
    }

    #[test]
    fn basic_write_delivers_data_and_completes() {
        let (sim, _cluster, eps, (c0, _c1)) = rig(SystemConfig::one_link_1g(2));
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let p2 = payload.clone();
        let (a, b) = (eps[0].clone(), eps[1].clone());
        let done = sim.spawn("writer", async move {
            let h = a
                .write_bytes(c0, 0x10_000, p2, OpFlags::RELAXED.with_notify())
                .await;
            h.wait().await;
            h.latency().unwrap()
        });
        let b2 = b.clone();
        let notified = sim.spawn("receiver", async move {
            let n = b2.next_notification().await.expect("notification");
            (n.from_node, n.addr, n.len)
        });
        sim.run().expect_quiescent();
        assert_eq!(notified.try_take(), Some((0usize, 0x10_000u64, 10_000usize)));
        assert_eq!(eps[1].mem_read(0x10_000, payload.len()), payload);
        let lat = done.try_take().unwrap();
        assert!(lat > Dur::ZERO);
        // 7 full frames + ack traffic; no drops, no retransmits.
        let s0 = eps[0].stats();
        assert_eq!(s0.ops_write, 1);
        assert_eq!(s0.data_frames_sent, 7);
        assert_eq!(s0.retransmits(), 0);
        let s1 = eps[1].stats();
        assert_eq!(s1.data_frames_recv, 7);
        assert_eq!(s1.dup_frames_recv, 0);
        assert_eq!(s1.ooo_arrivals, 0, "single link delivers in order");
    }

    #[test]
    fn remote_read_round_trip() {
        let (sim, _cluster, eps, (c0, _)) = rig(SystemConfig::one_link_1g(2));
        let secret: Vec<u8> = (0..5000u32).map(|i| (i * 7 % 256) as u8).collect();
        eps[1].mem_write(0xbeef_0000, &secret);
        let a = eps[0].clone();
        let got = sim.spawn("reader", async move {
            let h = a.read(c0, 0x100, 0xbeef_0000, 5000, OpFlags::RELAXED).await;
            h.wait().await;
            a.mem_read(0x100, 5000)
        });
        sim.run().expect_quiescent();
        assert_eq!(got.try_take(), Some(secret));
        assert_eq!(eps[0].stats().ops_read, 1);
        assert!(eps[1].stats().data_frames_sent >= 4); // response frames
    }

    #[test]
    fn write_then_read_sees_data_with_fences() {
        // A backward-fenced read after a write must observe the write.
        let (sim, _cluster, eps, (c0, _)) = rig(SystemConfig::one_link_1g(2));
        let a = eps[0].clone();
        let got = sim.spawn("rw", async move {
            let _w = a
                .write_bytes(c0, 0x2000, vec![42u8; 3000], OpFlags::RELAXED)
                .await;
            let h = a
                .read(
                    c0,
                    0x9000,
                    0x2000,
                    3000,
                    OpFlags::RELAXED.with_fence_backward(),
                )
                .await;
            h.wait().await;
            a.mem_read(0x9000, 3000)
        });
        sim.run().expect_quiescent();
        assert_eq!(got.try_take(), Some(vec![42u8; 3000]));
    }

    #[test]
    fn two_rails_cause_out_of_order_arrivals_but_correct_data() {
        let (sim, _cluster, eps, (c0, _)) = rig(SystemConfig::two_link_1g_unordered(2));
        let n = 200_000usize;
        let payload: Vec<u8> = (0..n).map(|i| (i % 241) as u8).collect();
        let p2 = payload.clone();
        let a = eps[0].clone();
        sim.spawn("writer", async move {
            let h = a.write_bytes(c0, 0, p2, OpFlags::RELAXED).await;
            h.wait().await;
        });
        sim.run().expect_quiescent();
        assert_eq!(eps[1].mem_read(0, n), payload);
        let s1 = eps[1].stats();
        // Round-robin striping over two rails: a substantial fraction of
        // frames arrives out of order (the paper reports 45–50% on long
        // saturating runs; this short single-op transfer sees less).
        let frac = s1.ooo_fraction();
        assert!(
            frac > 0.1 && frac < 0.75,
            "ooo fraction {frac} out of expected band"
        );
        // ... but nothing was retransmitted: skew is not loss.
        assert_eq!(eps[0].stats().retransmits(), 0);
        assert_eq!(s1.dup_frames_recv, 0);
    }

    #[test]
    fn loss_is_recovered_by_nack_retransmission() {
        let mut cfg = SystemConfig::one_link_1g(2);
        cfg.fault = FaultModel {
            loss_rate: 0.02,
            corrupt_rate: 0.0,
        };
        let (sim, _cluster, eps, (c0, _)) = rig(cfg);
        let n = 300_000usize;
        let payload: Vec<u8> = (0..n).map(|i| (i % 239) as u8).collect();
        let p2 = payload.clone();
        let a = eps[0].clone();
        let done = sim.spawn("writer", async move {
            let h = a.write_bytes(c0, 0, p2, OpFlags::RELAXED).await;
            h.wait().await;
            true
        });
        sim.run().expect_quiescent();
        assert_eq!(done.try_take(), Some(true));
        assert_eq!(eps[1].mem_read(0, n), payload, "loss must not corrupt data");
        let s0 = eps[0].stats();
        assert!(s0.retransmits() > 0, "2% loss must cause retransmissions");
        let s1 = eps[1].stats();
        assert!(s1.nacks_sent > 0, "gaps must be NACKed");
    }

    #[test]
    fn nack_dedup_state_stays_window_bounded_after_lossy_soak() {
        // Regression for the unbounded-map version of the NACK-dedup state:
        // `last_nack` / `gap_first_seen` entries are only inserted on gaps,
        // and the ACK-advance path must purge everything below the
        // cumulative ack. After a long lossy soak (thousands of frames, many
        // distinct gaps over time) the live state must be bounded by the
        // window — and, once quiescent, empty — rather than scaling with
        // total loss history.
        let mut cfg = SystemConfig::four_link_1g(2);
        cfg.fault = FaultModel {
            loss_rate: 0.03,
            corrupt_rate: 0.005,
        };
        let window = cfg.proto.window as usize;
        let (sim, _cluster, eps, (c0, c1)) = rig(cfg);
        let n = 200_000usize;
        let payload: Vec<u8> = (0..n).map(|i| (i % 241) as u8).collect();
        // Several sequential ops so gap state churns across many windows.
        for round in 0..4u64 {
            let a = eps[0].clone();
            let p2 = payload.clone();
            sim.spawn("soak-writer", async move {
                let h = a
                    .write_bytes(c0, round * n as u64, p2, OpFlags::RELAXED)
                    .await;
                h.wait().await;
            });
            sim.run().expect_quiescent();
        }
        let s0 = eps[0].stats();
        assert!(s0.retransmits() > 0, "soak must actually lose frames");
        for (ep, conn) in [(&eps[0], c0), (&eps[1], c1)] {
            let (tx, gaps, ooo) = ep.window_state_sizes(conn);
            assert!(tx <= window, "{tx} in-flight frames exceed window");
            assert!(gaps <= window, "{gaps} live gap entries exceed window");
            assert!(ooo <= window, "{ooo} out-of-order frames exceed window");
            assert_eq!(tx, 0, "quiescent sender must have drained its ring");
            assert_eq!(gaps, 0, "quiescent receiver must have purged gaps");
        }
        assert_eq!(eps[1].mem_read(0, n), payload, "soak must still deliver");
    }

    #[test]
    fn corruption_is_recovered() {
        let mut cfg = SystemConfig::one_link_1g(2);
        cfg.fault = FaultModel {
            loss_rate: 0.0,
            // High enough that ~200 frames corrupt a few with overwhelming
            // probability regardless of the RNG stream behind the seed.
            corrupt_rate: 0.03,
        };
        let (sim, _cluster, eps, (c0, _)) = rig(cfg);
        let n = 300_000usize;
        let payload: Vec<u8> = (0..n).map(|i| (i % 233) as u8).collect();
        let p2 = payload.clone();
        let a = eps[0].clone();
        sim.spawn("writer", async move {
            let h = a.write_bytes(c0, 0, p2, OpFlags::RELAXED).await;
            h.wait().await;
        });
        sim.run().expect_quiescent();
        assert_eq!(eps[1].mem_read(0, n), payload);
        assert!(eps[1].stats().corrupt_frames > 0);
    }

    #[test]
    fn window_limits_in_flight_frames() {
        let mut cfg = SystemConfig::one_link_1g(2);
        cfg.proto.window = 4;
        let (sim, _cluster, eps, (c0, _)) = rig(cfg);
        let n = 100_000usize;
        let payload: Vec<u8> = vec![7u8; n];
        let p2 = payload.clone();
        let a = eps[0].clone();
        let done = sim.spawn("writer", async move {
            let h = a.write_bytes(c0, 0, p2, OpFlags::RELAXED).await;
            h.wait().await;
            true
        });
        sim.run().expect_quiescent();
        assert_eq!(done.try_take(), Some(true));
        assert_eq!(eps[1].mem_read(0, n), payload);
    }

    #[test]
    fn many_small_ordered_writes_apply_in_order() {
        // force_ordered (2L mode): every op is fully fenced; the final
        // memory state must reflect issue order even on two rails.
        let mut cfg = SystemConfig::two_link_1g(2);
        cfg.proto.window = 64;
        let (sim, _cluster, eps, (c0, _)) = rig(cfg);
        let a = eps[0].clone();
        sim.spawn("writer", async move {
            // All writes to the same address: last issued must win.
            let mut handles = Vec::new();
            for i in 0..50u8 {
                let h = a
                    .write_bytes(c0, 0x500, vec![i; 2000], OpFlags::RELAXED)
                    .await;
                handles.push(h);
            }
            for h in handles {
                h.wait().await;
            }
        });
        sim.run().expect_quiescent();
        assert_eq!(eps[1].mem_read(0x500, 2000), vec![49u8; 2000]);
    }

    #[test]
    fn notify_arrives_after_fenced_predecessors() {
        // The DSM idiom: bulk unfenced writes, then an ordered+notify
        // control write; the notification must imply the bulk data landed.
        let (sim, _cluster, eps, (c0, _)) = rig(SystemConfig::two_link_1g_unordered(2));
        let a = eps[0].clone();
        sim.spawn("writer", async move {
            let _bulk = a
                .write_bytes(c0, 0x0, vec![9u8; 120_000], OpFlags::RELAXED)
                .await;
            let _ctl = a
                .write_bytes(c0, 0x8_0000, vec![1u8], OpFlags::ORDERED_NOTIFY)
                .await;
        });
        let b = eps[1].clone();
        let checked = sim.spawn("receiver", async move {
            let n = b.next_notification().await.expect("notification");
            assert_eq!(n.addr, 0x8_0000);
            // Backward fence: all 120 000 bulk bytes must already be here.
            b.mem_read(0, 120_000) == vec![9u8; 120_000]
        });
        sim.run().expect_quiescent();
        assert_eq!(checked.try_take(), Some(true));
    }

    #[test]
    fn rto_recovers_when_every_nack_is_lost() {
        // Pathological: high loss on a tiny transfer; NACKs themselves can
        // be lost; the coarse timer must still complete the op.
        let mut cfg = SystemConfig::one_link_1g(2);
        cfg.fault = FaultModel {
            loss_rate: 0.30,
            corrupt_rate: 0.0,
        };
        cfg.proto.rto_initial = ms(2);
        cfg.seed = 99;
        let (sim, _cluster, eps, (c0, _)) = rig(cfg);
        let a = eps[0].clone();
        let done = sim.spawn("writer", async move {
            let h = a
                .write_bytes(c0, 0, vec![0xabu8; 40_000], OpFlags::RELAXED)
                .await;
            h.wait().await;
            true
        });
        let report = sim.run();
        report.expect_quiescent();
        assert_eq!(done.try_take(), Some(true));
        assert_eq!(eps[1].mem_read(0, 40_000), vec![0xabu8; 40_000]);
    }

    #[test]
    fn interrupt_coalescing_under_load() {
        // Back-to-back frames: only the first receive of a burst should
        // interrupt; the rest are polled.
        let (sim, _cluster, eps, (c0, _)) = rig(SystemConfig::one_link_1g(2));
        let a = eps[0].clone();
        sim.spawn("writer", async move {
            let h = a
                .write_bytes(c0, 0, vec![1u8; 400_000], OpFlags::RELAXED)
                .await;
            h.wait().await;
        });
        sim.run().expect_quiescent();
        let s1 = eps[1].stats();
        let frac = s1.rx_interrupt_fraction();
        assert!(
            frac < 0.6,
            "coalescing should absorb most of a burst, got {frac}"
        );
        assert!(s1.rx_interrupts >= 1);
    }

    #[test]
    fn bidirectional_traffic_on_one_connection() {
        let (sim, _cluster, eps, (c0, c1)) = rig(SystemConfig::one_link_1g(2));
        let a = eps[0].clone();
        let b = eps[1].clone();
        let ta = sim.spawn("a", async move {
            let h = a.write_bytes(c0, 0x1000, vec![3u8; 50_000], OpFlags::RELAXED).await;
            h.wait().await;
            true
        });
        let tb = sim.spawn("b", async move {
            let h = b.write_bytes(c1, 0x2000, vec![4u8; 50_000], OpFlags::RELAXED).await;
            h.wait().await;
            true
        });
        sim.run().expect_quiescent();
        assert_eq!(ta.try_take(), Some(true));
        assert_eq!(tb.try_take(), Some(true));
        assert_eq!(eps[1].mem_read(0x1000, 50_000), vec![3u8; 50_000]);
        assert_eq!(eps[0].mem_read(0x2000, 50_000), vec![4u8; 50_000]);
        // Piggybacking should have kept explicit acks well below one per
        // data frame in each direction.
        let s = eps[0].stats();
        assert!(s.explicit_acks_sent < s.data_frames_sent);
    }

    #[test]
    fn min_latency_is_paper_scale() {
        // Small ping on 10G: the paper reports ≈30 µs minimum one-way
        // memory-to-memory latency (ping-pong / 2). Accept a 20–45 µs band.
        let (sim, _cluster, eps, (c0, c1)) = rig(SystemConfig::one_link_10g(2));
        let a = eps[0].clone();
        let b = eps[1].clone();
        let rtt = sim.spawn("ping", async move {
            let t0 = a_now(&a);
            let _ = a
                .write_bytes(c0, 0x0, vec![1u8; 16], OpFlags::RELAXED.with_notify())
                .await;
            // b's echo task replies below.
            let _n = a.next_notification().await.expect("pong");
            a_now(&a).since(t0)
        });
        sim.spawn("echo", async move {
            b.next_notification().await.expect("ping");
            let _ = b
                .write_bytes(c1, 0x0, vec![2u8; 16], OpFlags::RELAXED.with_notify())
                .await;
        });
        sim.run().expect_quiescent();
        let rtt = rtt.try_take().unwrap();
        let one_way_us = rtt.as_micros_f64() / 2.0;
        assert!(
            (15.0..50.0).contains(&one_way_us),
            "one-way latency {one_way_us:.1}us outside the paper's scale"
        );
    }

    fn a_now(ep: &Endpoint) -> SimTime {
        ep.sim.now()
    }

    #[test]
    fn delayed_ack_fires_for_stray_frames() {
        // A single tiny write (1 frame < ack_every): the explicit ack must
        // come from the delayed-ack timer, completing the op.
        let mut cfg = SystemConfig::one_link_1g(2);
        cfg.proto.ack_every = 16;
        cfg.proto.delayed_ack_timeout = us(80);
        let (sim, _cluster, eps, (c0, _)) = rig(cfg);
        let a = eps[0].clone();
        let done = sim.spawn("writer", async move {
            let h = a.write_bytes(c0, 0, vec![1u8; 100], OpFlags::RELAXED).await;
            h.wait().await;
            true
        });
        let report = sim.run();
        report.expect_quiescent();
        assert_eq!(done.try_take(), Some(true));
        assert_eq!(eps[1].stats().explicit_acks_sent, 1);
        // The ack waited for the delayed-ack timeout.
        assert!(report.end_time.as_nanos() >= 80_000);
    }

    #[test]
    fn spans_attribute_write_and_read_latency_exactly() {
        // Spans and the tracer record the same workload; every completed
        // span's phase breakdown must telescope exactly to its end-to-end
        // latency, and the span latencies must reconcile with the tracer's
        // op-latency histograms (same ops, same nanoseconds).
        let mut cfg = SystemConfig::two_link_1g_unordered(7).with_spans(1024);
        cfg.trace_ring = 4096;
        let (sim, _cluster, eps, (c0, _c1)) = rig(cfg);
        let a = eps[0].clone();
        let done = sim.spawn("rw", async move {
            let hw = a
                .write_bytes(c0, 0x1000, vec![5u8; 30_000], OpFlags::RELAXED.with_notify())
                .await;
            hw.wait().await;
            let hr = a.read(c0, 0x100, 0x1000, 9_000, OpFlags::RELAXED).await;
            hr.wait().await;
            true
        });
        sim.run().expect_quiescent();
        assert_eq!(done.try_take(), Some(true));

        let snap = eps[0]
            .span_recorder()
            .snapshot()
            .expect("spans were enabled");
        assert_eq!(snap.completed_total, 2, "one write span + one read span");
        assert_eq!(snap.active, 0, "no spans left in flight");
        let mut span_latency_sum = 0u64;
        for s in &snap.spans {
            let b = me_trace::PhaseBreakdown::from_span(s);
            assert_eq!(
                b.phases.iter().sum::<u64>(),
                b.latency_ns,
                "phases must sum exactly to latency for {:?}",
                s.kind
            );
            assert_eq!(b.latency_ns, s.complete - s.created);
            assert!(s.frames >= 1 && s.rails_used != 0);
            span_latency_sum += b.latency_ns;
        }
        // Reconcile against the tracer: both observed the same two ops.
        let t = eps[0].tracer().snapshot().expect("tracer was enabled");
        let hist_sum: u64 = t.op_latency.values().map(|h| h.sum()).sum();
        assert_eq!(span_latency_sum, hist_sum);
    }

    #[test]
    fn flight_recorder_rides_along_and_dumps_on_demand() {
        let cfg = SystemConfig::one_link_1g(3).with_flight(me_trace::FlightConfig {
            dump_dir: None,
            ..me_trace::FlightConfig::default()
        });
        let (sim, _cluster, eps, (c0, _)) = rig(cfg);
        let a = eps[0].clone();
        sim.spawn("writer", async move {
            let h = a.write_bytes(c0, 0, vec![7u8; 20_000], OpFlags::RELAXED).await;
            h.wait().await;
        });
        sim.run().expect_quiescent();
        let fr = eps[0].flight_recorder();
        assert!(fr.is_enabled());
        let dump = fr.force_dump(sim.now().as_nanos()).expect("dump");
        let text = dump.render();
        let parsed = me_trace::Json::parse(&text).expect("dump round-trips");
        let events = parsed.get("events").expect("events array");
        assert!(
            !events.items().expect("array").is_empty(),
            "issue/send/recv/complete events must be in the ring"
        );
    }
}
