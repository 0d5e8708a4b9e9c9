//! The MultiEdge endpoint on the simulator: one node's protocol instance
//! with the host it runs on.
//!
//! One [`Endpoint`] models everything the paper's kernel module does on one
//! node (§2). The protocol itself — fragmentation, the sliding window with
//! piggybacked/delayed/negative acknowledgements and coarse retransmission
//! timeout, the multi-link frame scheduler, the fence-aware receive path —
//! is [`ProtoCore`], shared with the wire driver. This file is the
//! *simulator driver* around it: the programming API (asynchronous remote
//! writes and reads with handles and notifications), the host cost model,
//! the interrupt-minimizing protocol-thread model, and the translation of
//! the core's effects into simulator events.
//!
//! # CPU model
//!
//! Each node has two CPUs (the paper dedicates one to the application and
//! one to the protocol, §3). Operation initiation (syscall + copy + frame
//! build + DMA post) is charged to the *application* CPU and delays the
//! issuing task. Everything receive-side and timer-driven is charged to the
//! *protocol* CPU: when work arrives while that CPU is idle, an interrupt +
//! kernel-thread wakeup is charged and counted; work arriving while it is
//! busy is absorbed by polling (§2.6) and counted as coalesced. The core
//! reports the host work it caused ([`HostWork`]) and this driver prices it.
//!
//! # Completion
//!
//! The core reports an op done at the instant the protocol is finished with
//! it; the application learns `app_wake` later, when the scheduled wake-up
//! completes the [`OpHandle`] (see [`crate::proto`]'s completion contract).

use crate::config::{CostModel, SystemConfig};
use crate::memory::Payload;
use crate::ops::{Notification, OpFlags, OpHandle, OpKind};
use crate::proto::{Effect, Host, HostWork, Observers, Op, ProtoCore, TimerKind};
use crate::railhealth::RailState;
use crate::stats::{CpuSnapshot, ProtoStats};
use crate::timeline::CoreSampler;
use bytes::Bytes;
use frame::Frame;
use me_trace::{EventKind, FlightRecorder, SpanRecorder, Tracer};
use netsim::cpu::CpuTimeline;
use netsim::sync::{sleep_until, Channel};
use netsim::time::Dur;
use netsim::{Network, NicId, RxFrame, Sim, SimTime, TimerId};
use rand::Rng;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// An event waiting in the NIC's moderated-interrupt queue.
enum ModItem {
    /// A received frame and when it reached the NIC, ns.
    Rx(Frame, u64),
    /// A received frame the fabric damaged: only its processing cost is
    /// left to charge.
    Corrupt(Dur),
    TxComplete,
}

struct EndpointInner {
    cfg: Rc<SystemConfig>,
    nics: Vec<NicId>,
    core: ProtoCore<OpHandle>,
    cpu_app: CpuTimeline,
    cpu_proto: CpuTimeline,
    /// Events waiting for the moderated interrupt to fire.
    irq_pending: VecDeque<ModItem>,
    /// The armed moderation timer, cancelled in O(1) when the frame cap
    /// fires the batch early ([`TimerId::NONE`] when none is armed; a
    /// cancelled timer's closure never runs).
    irq_timer: TimerId,
}

/// A node's MultiEdge protocol instance. Cheap to clone (shared state).
#[derive(Clone)]
pub struct Endpoint {
    sim: Sim,
    net: Network,
    inner: Rc<RefCell<EndpointInner>>,
    notifications: Channel<Notification>,
}

/// The simulator as the core sees it: NIC backlogs and the simulator's RNG
/// to read, NICs, the event queue and the two CPU timelines to act on.
struct SimHost<'a> {
    ep: &'a Endpoint,
    nics: &'a [NicId],
    cost: &'a CostModel,
    cpu_app: &'a mut CpuTimeline,
    cpu_proto: &'a mut CpuTimeline,
}

impl Host<OpHandle> for SimHost<'_> {
    fn tx_backlog_ns(&self, rail: usize) -> u64 {
        self.ep.net.nic_tx_backlog(self.nics[rail]).as_nanos()
    }

    fn repair_backlog_ns(&self, rail: usize) -> u64 {
        self.ep
            .net
            .nic_tx_repair_backlog(self.nics[rail])
            .as_nanos()
    }

    fn draw(&self, n: usize) -> usize {
        self.ep.sim.with_rng(|r| r.gen_range(0..n))
    }

    fn work(&mut self, work: HostWork) {
        let cm = self.cost;
        let per_frame = cm.frame_build + cm.dma_post;
        self.cpu_proto.account(match work {
            HostWork::CtrlFrame => per_frame,
            HostWork::Retransmit { frames } => per_frame * frames,
            HostWork::WindowPost { frames } => cm.dma_post * frames,
            HostWork::ReadServed { len, frags } => cm.copy_cost(len) + per_frame * frags,
        });
    }

    fn perform(&mut self, obs: &Observers, now_ns: u64, effects: &mut Vec<Effect<OpHandle>>) {
        let (sim, wake) = (&self.ep.sim, self.cost.app_wake);
        let wake_at = SimTime(now_ns) + wake;
        // What wakes the receiving application ends the batch, and wakes it
        // in one event.
        let mut wakes = Vec::new();
        for e in effects.drain(..) {
            match e {
                Effect::Send { rail, frame } => {
                    self.ep.net.nic_send(self.nics[rail], frame);
                }
                Effect::Arm { conn, timer, at_ns } => {
                    let ep = self.ep.clone();
                    sim.schedule_at(SimTime(at_ns), move |_| ep.on_timer(conn, timer));
                }
                Effect::OpDone {
                    kind: OpKind::Write,
                    conn,
                    op,
                    token,
                } => {
                    self.cpu_app.account(wake);
                    let obs = obs.clone();
                    sim.schedule_at(wake_at, move |sim| complete_op(&obs, conn, op, &token, sim));
                }
                Effect::Notify(n) => {
                    self.cpu_app.account(wake);
                    wakes.push(Wake::Notified(n));
                }
                Effect::OpDone {
                    kind: OpKind::Read,
                    conn,
                    op,
                    token,
                } => {
                    self.cpu_app.account(wake);
                    wakes.push(Wake::ReadDone(conn, op, token));
                }
            }
        }
        if !wakes.is_empty() {
            let (obs, notifications) = (obs.clone(), self.ep.notifications.clone());
            sim.schedule_at(wake_at, move |sim| {
                for w in wakes {
                    match w {
                        Wake::Notified(n) => notifications.push(n),
                        Wake::ReadDone(conn, op, h) => complete_op(&obs, conn, op, &h, sim),
                    }
                }
            });
        }
    }
}

/// One item of the event that wakes the receiving application.
enum Wake {
    Notified(Notification),
    /// (connection, op id, handle) of a finished read.
    ReadDone(usize, u64, OpHandle),
}

/// The application learns op `op` is complete: fire its handle and stamp
/// the completion on every observability plane.
fn complete_op(obs: &Observers, conn: usize, op: u64, h: &OpHandle, sim: &Sim) {
    h.complete(sim.now());
    let latency_ns = h.latency().map_or(0, |l| l.as_nanos());
    let event = EventKind::OpComplete { op, latency_ns };
    obs.emit(sim.now().as_nanos(), Some(conn), None, event);
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
        let mut core = ProtoCore::new(node, cfg.proto.clone(), nics.len());
        if cfg.trace_ring > 0 {
            core.obs.tracer = Tracer::enabled(cfg.trace_ring);
        }
        let ep = Endpoint {
            sim: sim.clone(),
            net: net.clone(),
            inner: Rc::new(RefCell::new(EndpointInner {
                cfg,
                nics: nics.clone(),
                core,
                cpu_app: CpuTimeline::new(),
                cpu_proto: CpuTimeline::new(),
                irq_pending: VecDeque::new(),
                irq_timer: TimerId::NONE,
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

    /// Run `f` on the protocol core with this endpoint as its host.
    fn drive<R>(&self, f: impl FnOnce(&mut ProtoCore<OpHandle>, &mut SimHost<'_>) -> R) -> R {
        let mut inner = self.inner.borrow_mut();
        let EndpointInner {
            cfg,
            nics,
            core,
            cpu_app,
            cpu_proto,
            ..
        } = &mut *inner;
        let mut host = SimHost {
            ep: self,
            nics,
            cost: &cfg.cost,
            cpu_app,
            cpu_proto,
        };
        f(core, &mut host)
    }

    /// Read-only access to the protocol core.
    pub(crate) fn core<R>(&self, f: impl FnOnce(&ProtoCore<OpHandle>) -> R) -> R {
        f(&self.inner.borrow().core)
    }

    /// This endpoint's node index.
    pub fn node(&self) -> usize {
        self.core(|c| c.obs.node)
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
        let (ida, idb) = (a.conn_count(), b.conn_count());
        a.connect_remote(b.node(), idb);
        b.connect_remote(a.node(), ida);
        (ida, idb)
    }

    /// Half of [`Endpoint::connect`], for a caller that builds each node's
    /// endpoint on its own and connects it before its peers exist (the mesh
    /// cells of `multiedge_bench::scale`). Both sides must call this with
    /// mutually consistent arguments; connection ids are deterministic (the
    /// connection count, in call order), so a deterministic pairing scheme
    /// — e.g. every node connecting to its mesh peers in ascending node
    /// order — lets each side compute `peer_conn_id` without communication.
    pub fn connect_remote(&self, peer_node: usize, peer_conn_id: usize) -> usize {
        self.inner
            .borrow_mut()
            .core
            .connect(peer_node, peer_conn_id)
    }

    /// The simulator this endpoint runs on (for crate-internal samplers).
    pub(crate) fn sim_handle(&self) -> &Sim {
        &self.sim
    }

    /// Commit one row of `s` at the current virtual time. When to call it
    /// is [`crate::timeline`]'s business.
    pub(crate) fn sample(&self, s: &mut CoreSampler) {
        let now = self.sim.now().as_nanos();
        self.drive(|core, host| core.sample(s, host, now));
    }

    /// Health state of every rail, from connection `conn`'s sending side.
    pub fn rail_states(&self, conn: usize) -> Vec<RailState> {
        self.core(|c| {
            (0..c.rails())
                .map(|r| c.conns()[conn].rail_state(r))
                .collect()
        })
    }

    /// Connection `conn`'s current adaptive retransmission timeout
    /// (including any accumulated backoff).
    pub fn current_rto(&self, conn: usize) -> Dur {
        self.core(|c| c.conns()[conn].current_rto())
    }

    /// Connection `conn`'s smoothed RTT, once at least one sample exists.
    pub fn srtt(&self, conn: usize) -> Option<Dur> {
        self.core(|c| c.conns()[conn].srtt())
    }

    /// Write directly into this node's local memory (models the application
    /// touching its own address space; free of protocol cost).
    pub fn mem_write(&self, addr: u64, data: &[u8]) {
        self.inner.borrow_mut().core.memory.write(addr, data);
    }

    /// Read from this node's local memory.
    pub fn mem_read(&self, addr: u64, len: usize) -> Vec<u8> {
        self.core(|c| c.memory.read_vec(addr, len))
    }

    /// The paper's `RDMA_operation(conn, remote_va, local_va, size, WRITE,
    /// flags)`: asynchronously copy `len` bytes from local `local_addr` to
    /// `remote_addr` in the peer's address space. The returned future
    /// resolves (with the operation handle) once the *initiation* cost has
    /// been paid; completion is tracked by the handle.
    ///
    /// The peer receives the bytes `[local_addr, local_addr + len)` held
    /// *as of issue*: the instant this future resolves, at the end of the
    /// initiation slot that pays for the copy. The frames share the pages
    /// copy-on-write ([`crate::memory`]), so the application may overwrite
    /// the source as soon as the future resolves, and every
    /// retransmission still carries the issue-time bytes.
    pub async fn write(
        &self,
        conn: usize,
        local_addr: u64,
        remote_addr: u64,
        len: usize,
        flags: OpFlags,
    ) -> OpHandle {
        let data = Payload::Memory {
            addr: local_addr,
            len,
        };
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
        let data = Payload::Bytes(Bytes::from(data));
        self.write_payload(conn, remote_addr, data, flags).await
    }

    /// Common body of the two write calls.
    async fn write_payload(
        &self,
        conn: usize,
        remote_addr: u64,
        data: Payload,
        flags: OpFlags,
    ) -> OpHandle {
        let len = data.len();
        let handle = OpHandle::new(&self.sim, OpKind::Write, len);
        let cfg = self.inner.borrow().cfg.clone();
        let cm = &cfg.cost;
        let nframes = len.div_ceil(frame::MAX_PAYLOAD).max(1) as u64;
        let mut per_frame = cm.frame_build + cm.dma_post;
        if cm.unmaskable_tx_irq {
            per_frame += cm.tx_irq_send_tax;
        }
        let cost = cm.syscall + cm.copy_cost(len) + per_frame * nframes;
        let op = Op::Write { remote_addr, data };
        self.initiate(conn, op, cost, flags, handle.clone()).await;
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
        let cost = {
            let cm = &self.inner.borrow().cfg.cost;
            cm.syscall + cm.frame_build + cm.dma_post
        };
        let op = Op::Read {
            local_addr,
            remote_addr,
            len,
        };
        self.initiate(conn, op, cost, flags, handle.clone()).await;
        handle
    }

    /// Charge `op`'s initiation `cost` to the application CPU, sleep to the
    /// end of the charged slot and hand the op to the protocol core there,
    /// in the issuing task's own wake.
    ///
    /// # Panics
    ///
    /// Panics on a zero-cost initiation: the op would be issued inside the
    /// caller's poll instead of after it (every shipped `CostModel` charges
    /// at least a syscall).
    async fn initiate(&self, conn: usize, op: Op, cost: Dur, flags: OpFlags, h: OpHandle) {
        let created = self.sim.now();
        let end = {
            let mut inner = self.inner.borrow_mut();
            inner.core.count_op(conn, &op);
            inner.cpu_app.reserve(created, cost).1
        };
        assert!(end > created, "zero-cost op initiation");
        sleep_until(&self.sim, end).await;
        let (created_ns, now_ns) = (created.as_nanos(), self.sim.now().as_nanos());
        self.drive(|core, host| core.issue(conn, op, flags, h, created_ns, now_ns, host));
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

    /// Test hook: per-connection hot-path state sizes that the window must
    /// bound — (in-flight tx frames, live NACK-dedup gap entries, frames
    /// held out of order by the receiver).
    #[cfg(test)]
    fn window_state_sizes(&self, conn: usize) -> (usize, usize, usize) {
        self.core(|c| c.conns()[conn].window_state_sizes())
    }

    /// Snapshot of protocol statistics (reorder peak folded in).
    pub fn stats(&self) -> ProtoStats {
        self.core(|c| c.stats())
    }

    /// Snapshot of one connection's protocol statistics.
    ///
    /// Every connection-attributable counter (operations, frames sent and
    /// received, acks, nacks, retransmissions) is kept here only:
    /// [`Endpoint::stats`] is these summed over all connections, plus the
    /// host counters. The interrupt/coalescing counters and
    /// `corrupt_frames` are the host's: one moderated interrupt serves a
    /// batch that may mix connections, and a corrupted frame's header
    /// cannot be trusted for attribution.
    pub fn conn_stats(&self, conn: usize) -> ProtoStats {
        self.core(|c| c.conns()[conn].stats())
    }

    /// Number of connections on this endpoint.
    pub fn conn_count(&self) -> usize {
        self.core(|c| c.conns().len())
    }

    /// NACK-triggered retransmissions suppressed by the
    /// [`ProtoConfig::nack_resend_burst`](crate::ProtoConfig) storm cap
    /// (endpoint-local, outside the fingerprinted [`ProtoStats`]).
    pub fn storm_suppressed(&self) -> u64 {
        self.core(|c| c.storm_suppressed())
    }

    /// Received frames the protocol rejected at admission — unknown
    /// connection id or a malformed read request (endpoint-local, outside
    /// the fingerprinted [`ProtoStats`]).
    pub fn rx_rejected(&self) -> u64 {
        self.core(|c| c.rx_rejected())
    }

    /// First transmissions that arrived late, behind a later one on their
    /// rail, for a sequence the proof of loss had passed
    /// ([`ProtoCore::spurious_proofs`](crate::proto::ProtoCore::spurious_proofs);
    /// endpoint-local, outside the fingerprinted [`ProtoStats`]).
    pub fn spurious_proofs(&self) -> u64 {
        self.core(|c| c.spurious_proofs())
    }

    /// This endpoint's tracing handle (disabled unless the
    /// [`SystemConfig::trace_ring`](crate::SystemConfig) knob is non-zero).
    /// All clones share one ring and one histogram set; hand a clone to
    /// [`netsim::Network::set_tracer`] to merge wire-level events into the
    /// same timeline.
    pub fn tracer(&self) -> Tracer {
        self.core(|c| c.obs.tracer.clone())
    }

    /// This endpoint's span recorder (disabled unless
    /// [`SystemConfig::spans`](crate::SystemConfig) is non-zero).
    /// [`Endpoint::for_cluster`] shares one recorder across the cluster so a
    /// span's sender- and receiver-side milestones land in the same record.
    pub fn span_recorder(&self) -> SpanRecorder {
        self.core(|c| c.obs.spans.clone())
    }

    /// Install a (shared) span recorder on this endpoint, before its
    /// connections are made: the recorder keys a span's receive side by
    /// the peers their `Connect` events name.
    pub fn set_span_recorder(&self, spans: SpanRecorder) {
        self.inner.borrow_mut().core.obs.spans = spans;
    }

    /// This endpoint's flight recorder (disabled unless
    /// [`SystemConfig::flight`](crate::SystemConfig) is set).
    pub fn flight_recorder(&self) -> FlightRecorder {
        self.core(|c| c.obs.flight.clone())
    }

    /// Install a (shared) flight recorder on this endpoint.
    pub fn set_flight_recorder(&self, flight: FlightRecorder) {
        self.inner.borrow_mut().core.obs.flight = flight;
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
    // Effects and timers
    // ------------------------------------------------------------------

    /// A protocol timer armed through [`Effect::Arm`] is due.
    fn on_timer(&self, conn: usize, timer: TimerKind) {
        let now = self.sim.now().as_nanos();
        self.drive(|core, host| core.on_timer(conn, timer, now, host));
    }

    // ------------------------------------------------------------------
    // Receive path: interrupt moderation in front of the protocol core
    // ------------------------------------------------------------------

    /// Per-frame receive processing cost (header parse + copy to user).
    fn rx_cost(cm: &CostModel, f: &Frame) -> Dur {
        let mut cost = cm.rx_frame_proc;
        if f.is_data() {
            cost += cm.copy_cost(f.payload.len());
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
        // Physical arrival at the NIC travels with the frame to the core,
        // so interrupt-moderation delay shows up as RxProcess time in the
        // attribution.
        let arrived = now.as_nanos();
        let mut inner = self.inner.borrow_mut();
        if inner.cpu_proto.available_at() > now {
            // Protocol thread active: polled, no interrupt.
            inner.core.host_stats().rx_coalesced += 1;
            let event = EventKind::RxPoll { batch: 1 };
            inner.core.obs.emit(now.as_nanos(), None, None, event);
            let cost = Self::rx_cost(&inner.cfg.cost, &rx.frame);
            let (_, end) = inner.cpu_proto.reserve(now, cost);
            if rx.corrupted {
                inner.core.host_stats().corrupt_frames += 1;
                return;
            }
            drop(inner);
            let ep = self.clone();
            self.sim
                .schedule_at(end, move |_| ep.apply_rx(rx.frame, arrived));
        } else {
            let item = match rx.corrupted {
                true => ModItem::Corrupt(Self::rx_cost(&inner.cfg.cost, &rx.frame)),
                false => ModItem::Rx(rx.frame, arrived),
            };
            inner.irq_pending.push_back(item);
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
            inner.core.host_stats().tx_coalesced += 1;
            let event = EventKind::TxPoll;
            inner.core.obs.emit(now.as_nanos(), None, None, event);
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
            // Cancel any armed timer in O(1); its slot fires as a no-op.
            let timer = std::mem::replace(&mut inner.irq_timer, TimerId::NONE);
            drop(inner);
            self.sim.cancel_timer(timer);
            self.fire_irq();
        } else if inner.irq_timer == TimerId::NONE {
            let delay = inner.cfg.cost.rx_irq_delay;
            drop(inner);
            let ep = self.clone();
            let id = self.sim.schedule_timer_in(delay, move |_| {
                ep.inner.borrow_mut().irq_timer = TimerId::NONE;
                ep.fire_irq();
            });
            self.inner.borrow_mut().irq_timer = id;
        }
    }

    /// One interrupt processes the entire pending batch: each frame is
    /// handed to the core at the end of its charged processing slot.
    fn fire_irq(&self) {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let batch = inner.irq_pending.len() as u64;
        if batch == 0 {
            return;
        }
        let is_rx = |i: &&ModItem| !matches!(i, ModItem::TxComplete);
        let n_rx = inner.irq_pending.iter().filter(is_rx).count() as u64;
        let n_tx = batch - n_rx;
        // One interrupt for the batch; attribute it to the receive path
        // if any receive event is present.
        let now = self.sim.now();
        let stats = inner.core.host_stats();
        let event = if n_rx > 0 {
            stats.rx_interrupts += 1;
            stats.rx_coalesced += n_rx - 1;
            stats.tx_coalesced += n_tx;
            EventKind::RxInterrupt {
                batch: batch as u32,
            }
        } else {
            stats.tx_interrupts += 1;
            stats.tx_coalesced += n_tx - 1;
            EventKind::TxInterrupt
        };
        inner.core.obs.emit(now.as_nanos(), None, None, event);
        let cm = inner.cfg.cost.clone();
        inner.cpu_proto.reserve(now, cm.interrupt + cm.kthread_wake);
        for item in inner.irq_pending.drain(..) {
            match item {
                ModItem::Rx(f, arrived) => {
                    let (_, end) = inner.cpu_proto.reserve(now, Self::rx_cost(&cm, &f));
                    let ep = self.clone();
                    self.sim.schedule_at(end, move |_| ep.apply_rx(f, arrived));
                }
                ModItem::Corrupt(cost) => {
                    inner.cpu_proto.reserve(now, cost);
                    inner.core.host_stats().corrupt_frames += 1;
                }
                ModItem::TxComplete => {
                    inner.cpu_proto.reserve(now, cm.tx_complete_proc);
                }
            }
        }
    }

    /// Hand a received frame, which reached the NIC at `arrived`, to the
    /// protocol core (runs at the end of its charged processing slot).
    fn apply_rx(&self, f: Frame, arrived: u64) {
        let now = self.sim.now().as_nanos();
        let rail = f.dst.rail as usize;
        self.drive(|core, host| core.on_frame(rail, f, arrived, now, host));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DELAYED_ACK_TIMEOUT;
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
        assert_eq!(
            notified.try_take(),
            Some((0usize, 0x10_000u64, 10_000usize))
        );
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
    #[should_panic(expected = "zero-cost op initiation")]
    fn zero_cost_initiation_is_refused() {
        let mut cfg = SystemConfig::one_link_1g(2);
        cfg.cost.syscall = Dur::ZERO;
        cfg.cost.frame_build = Dur::ZERO;
        cfg.cost.dma_post = Dur::ZERO;
        let (sim, _cluster, eps, (c0, _)) = rig(cfg);
        let a = eps[0].clone();
        sim.spawn("reader", async move {
            a.read(c0, 0x100, 0x200, 64, OpFlags::RELAXED).await;
        });
        sim.run();
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
        assert!(eps[0].stats().retransmits_rto > 0, "the coarse timer fired");
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
            let h = a
                .write_bytes(c0, 0x1000, vec![3u8; 50_000], OpFlags::RELAXED)
                .await;
            h.wait().await;
            true
        });
        let tb = sim.spawn("b", async move {
            let h = b
                .write_bytes(c1, 0x2000, vec![4u8; 50_000], OpFlags::RELAXED)
                .await;
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
        assert!(report.end_time.as_nanos() >= DELAYED_ACK_TIMEOUT.as_nanos());
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
                .write_bytes(
                    c0,
                    0x1000,
                    vec![5u8; 30_000],
                    OpFlags::RELAXED.with_notify(),
                )
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
            assert!(s.crit_rail < 2, "the deciding rail is one of the two");
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
            let h = a
                .write_bytes(c0, 0, vec![7u8; 20_000], OpFlags::RELAXED)
                .await;
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
