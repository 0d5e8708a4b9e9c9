//! [`WireEndpoint`]: the MultiEdge protocol driven over a [`Backplane`].
//!
//! The protocol is [`ProtoCore`] — the same instance of every rule the
//! simulator [`Endpoint`] runs, not a second copy. This file is the *wire
//! driver* around it: where the simulator driver turns the core's effects
//! into closures scheduled on the simulator, this one is a synchronous
//! poll/deadline machine (`poll` + `next_deadline` + `Backplane::advance`)
//! in the PR 3 timer-wheel discipline, so it runs identically over the
//! simulated fabric and over real UDP sockets. It adds what a real
//! transport needs and a simulation does not: a progress watchdog that
//! turns a dark fabric into a typed [`WireError`], and graceful [`drain`].
//!
//! It models no host cost (CPU charges, interrupt moderation): on UDP those
//! costs are *real*, which is exactly the difference the sim-vs-real
//! attribution diff is built to measure. The core's [`HostWork`] reports
//! are ignored here, and a completion is queued the instant the core
//! reports it (see [`crate::proto`]'s completion contract).
//!
//! Events are stamped on the backplane clock with the same semantics as
//! the simulator endpoint (a frame's arrival is `BpRx::at_ns`), so
//! `me_trace::analyze` telescopes a [`WireEndpoint`] run exactly like a
//! simulated one.
//!
//! [`Endpoint`]: crate::Endpoint
//! [`HostWork`]: crate::proto::HostWork

use std::cell::Cell;
use std::collections::VecDeque;

use bytes::Bytes;
use frame::Frame;
use me_trace::{EventKind, FlightRecorder, HealthReport, SpanRecorder, Timeline};

use crate::config::{ProtoConfig, RTO_STORM_CAP};
use crate::ops::{Notification, OpFlags, OpKind};
use crate::proto::{ConnState, Effect, Host, Observers, Op, ProtoCore};
use crate::stats::ProtoStats;
use crate::timeline::CoreSampler;

use super::Backplane;

/// An operation the protocol has finished with: a write acknowledged by
/// the peer, or a read whose response data has been applied locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedWrite {
    /// Operation id (dense per connection direction).
    pub op: u64,
    /// Write or read.
    pub kind: OpKind,
    /// Backplane clock when the operation was issued.
    pub created_ns: u64,
    /// Backplane clock when the covering cumulative ack (write) or the
    /// last response fragment (read) was processed.
    pub completed_ns: u64,
}

/// Why a watchdog-guarded drive loop gave up — every chaos/soak scenario
/// terminates with either completion or one of these within the watchdog
/// deadline; the unbounded hang is not an outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The peer stopped responding: RTO backoff reached the
    /// [`RTO_STORM_CAP`] storm cap without acknowledgement progress.
    PeerUnreachable {
        /// The endpoint whose retransmissions go unanswered.
        node: usize,
        /// RTO backoff exponent at trip time.
        backoff: u32,
        /// Nanoseconds without protocol progress.
        idle_ns: u64,
    },
    /// Rail health declared every rail dead on some connection — there is
    /// no eligible link left to carry traffic.
    AllRailsDead {
        /// The endpoint with no live rails.
        node: usize,
        /// Nanoseconds without protocol progress.
        idle_ns: u64,
    },
    /// Fragments sat fence-blocked in a reorder buffer past the configured
    /// bound (or at trip time with nothing else in flight).
    FenceStallExceeded {
        /// The endpoint holding the blocked fragments.
        node: usize,
        /// How long the oldest fragment has been held.
        stalled_ns: u64,
        /// Fragments currently held.
        buffered: usize,
    },
    /// No protocol progress for the watchdog window and no sharper cause
    /// above applies; both connections' states are attached for triage.
    Stalled {
        /// Nanoseconds without protocol progress.
        idle_ns: u64,
        /// Endpoint a's connection 0 state at trip time.
        a: WireConnState,
        /// Endpoint b's connection 0 state at trip time.
        b: WireConnState,
    },
}

impl WireError {
    /// Stable discriminant recorded in flight-dump watchdog events.
    pub fn code(&self) -> u64 {
        match self {
            WireError::PeerUnreachable { .. } => 1,
            WireError::AllRailsDead { .. } => 2,
            WireError::FenceStallExceeded { .. } => 3,
            WireError::Stalled { .. } => 4,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::PeerUnreachable {
                node,
                backoff,
                idle_ns,
            } => write!(
                f,
                "peer unreachable from node {node}: RTO backoff hit the storm cap \
                 ({backoff} doublings, {idle_ns}ns without progress)"
            ),
            WireError::AllRailsDead { node, idle_ns } => write!(
                f,
                "all rails dead on node {node} ({idle_ns}ns without progress)"
            ),
            WireError::FenceStallExceeded {
                node,
                stalled_ns,
                buffered,
            } => write!(
                f,
                "fence stall exceeded on node {node}: {buffered} fragment(s) \
                 held for {stalled_ns}ns"
            ),
            WireError::Stalled { idle_ns, a, b } => write!(
                f,
                "backplane drive stalled: no protocol progress for {idle_ns}ns \
                 (a: {a:?}, b: {b:?})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Liveness bounds for [`drive_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriveLimits {
    /// Trip the watchdog after this long without protocol progress
    /// (acknowledgement, cumulative, fence-release or receive-counter
    /// movement — timer fires alone are not progress).
    pub progress_timeout_ns: u64,
    /// Absolute wall/virtual budget for the whole drive, even if progress
    /// trickles.
    pub hard_budget_ns: u64,
    /// Trip when fragments sit fence-blocked this long (0 disables the
    /// dedicated fence watchdog; a fence stall that starves all progress
    /// still trips the progress watchdog).
    pub fence_stall_limit_ns: u64,
}

impl DriveLimits {
    /// The single-budget shape: the budget is the progress window, the
    /// hard ceiling is four times that, no dedicated fence watchdog.
    pub fn budget(budget_ns: u64) -> Self {
        Self {
            progress_timeout_ns: budget_ns,
            hard_budget_ns: budget_ns.saturating_mul(4),
            fence_stall_limit_ns: 0,
        }
    }
}

/// Debug/test view of one connection's sequencing and ordering state.
pub type WireConnState = ConnState;

/// A synchronous MultiEdge endpoint speaking the protocol over any
/// [`Backplane`] (see module docs).
pub struct WireEndpoint {
    core: ProtoCore<u64>,
    io: WireIo,
    sampler: Option<CoreSampler>,
}

/// Where the core's effects land between polls. An op's completion token
/// is the backplane clock at issue.
struct WireIo {
    notifications: VecDeque<Notification>,
    completions: VecDeque<CompletedWrite>,
    /// The frames of the [`Host::perform`] call in progress, on their way to
    /// [`Backplane::send_batch`]; empty between calls, kept for its capacity.
    tx: Vec<(usize, Frame)>,
    /// State of the endpoint-local xorshift64* behind [`Host::draw`] (the
    /// sim backend's RNG lives in the simulator, which a transport-agnostic
    /// driver cannot reach).
    rng: Cell<u64>,
}

/// One backplane as the core sees it for the duration of one input.
struct WireHost<'a, B> {
    bp: &'a mut B,
    io: &'a mut WireIo,
}

impl<B: Backplane> Host<u64> for WireHost<'_, B> {
    fn max_payload(&self) -> usize {
        self.bp.mtu().min(self.bp.peer_mtu())
    }

    fn tx_backlog_ns(&self, rail: usize) -> u64 {
        self.bp.tx_backlog_ns(rail)
    }

    fn draw(&self, n: usize) -> usize {
        let mut x = self.io.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.io.rng.set(x);
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n
    }

    fn perform(&mut self, obs: &Observers, now_ns: u64, effects: &mut Vec<Effect<u64>>) {
        for e in effects.drain(..) {
            match e {
                Effect::Send { rail, mut frame } => {
                    frame.src = self.bp.local_mac(rail);
                    frame.dst = self.bp.peer_mac(rail);
                    self.io.tx.push((rail, frame));
                }
                // The core keeps the due instant; `fire_due` fires it.
                Effect::Arm { .. } => {}
                Effect::OpDone {
                    conn,
                    op,
                    kind,
                    token: created_ns,
                } => {
                    let latency_ns = now_ns.saturating_sub(created_ns);
                    let event = EventKind::OpComplete { op, latency_ns };
                    obs.emit(now_ns, Some(conn), None, event);
                    self.io.completions.push_back(CompletedWrite {
                        op,
                        kind,
                        created_ns,
                        completed_ns: now_ns,
                    });
                }
                Effect::Notify(n) => self.io.notifications.push_back(n),
            }
        }
        // The batch the core made (a window release, a retransmit burst, a
        // read service) leaves as one: nothing outlives this call.
        if !self.io.tx.is_empty() {
            self.bp.send_batch(&mut self.io.tx);
        }
    }
}

impl WireEndpoint {
    /// A connected pair of endpoints (nodes 0 and 1, one connection each,
    /// connection index 0 on both sides) sharing `spans` so one snapshot
    /// covers both directions — the same arrangement
    /// `Endpoint::for_cluster` uses.
    pub fn pair(proto: &ProtoConfig, rails: usize, spans: &SpanRecorder) -> (Self, Self) {
        let mut a = Self::new(0, proto, rails, spans.clone());
        let mut b = Self::new(1, proto, rails, spans.clone());
        // The peer's connection id is 0 on both sides by construction.
        a.core.connect(1, 0);
        b.core.connect(0, 0);
        (a, b)
    }

    fn new(node: usize, proto: &ProtoConfig, rails: usize, spans: SpanRecorder) -> Self {
        let mut core = ProtoCore::new(node, proto.clone(), rails);
        core.obs.spans = spans;
        Self {
            core,
            io: WireIo {
                notifications: VecDeque::new(),
                completions: VecDeque::new(),
                tx: Vec::new(),
                rng: Cell::new(0x9e37_79b9_7f4a_7c15 ^ (node as u64) << 32),
            },
            sampler: None,
        }
    }

    /// Start time-resolved telemetry: one row of [`ProtoCore::sample`]'s
    /// column set per `interval_ns` of the backplane clock (virtual on the
    /// simulator, wall on UDP) from now on, at most `capacity` retained
    /// rows. A streaming health monitor runs on every committed row, a
    /// newly opened incident arms the flight recorder's `Anomaly` trigger,
    /// and detector state rides along in dumps (call
    /// [`WireEndpoint::set_flight`] first). Rows are committed from inside
    /// [`WireEndpoint::poll`] when due.
    pub fn start_timeline<B: Backplane>(&mut self, bp: &B, interval_ns: u64, capacity: usize) {
        let start_ns = bp.now_ns();
        self.sampler = Some(
            self.core
                .start_sampler(None, interval_ns, capacity, start_ns),
        );
    }

    /// Snapshot the health verdict, if the timeline was started.
    pub fn health_report(&self) -> Option<HealthReport> {
        self.sampler.as_ref().map(CoreSampler::health_report)
    }

    /// Commit one timeline row right now (no-op before
    /// [`WireEndpoint::start_timeline`]). Call it once after the drive loop
    /// ends, so the deltas reconcile with [`WireEndpoint::stats`] exactly.
    pub fn sample_timeline<B: Backplane>(&mut self, bp: &mut B) {
        if let Some(s) = &mut self.sampler {
            let now = bp.now_ns();
            let io = &mut self.io;
            self.core.sample(s, &WireHost { bp, io }, now);
        }
    }

    /// Detach and return the sample ring recorded so far.
    pub fn take_timeline(&mut self) -> Option<Timeline> {
        self.sampler.take().map(CoreSampler::into_timeline)
    }

    /// Attach a flight recorder: every protocol event the simulator
    /// endpoint notes (issue, send, receive, acks, RTO backoffs, rail
    /// deaths/readmissions, fence releases, completions) plus watchdog
    /// trips are noted — and dump per the recorder's triggers — from this
    /// endpoint on.
    pub fn set_flight(&mut self, flight: &FlightRecorder) {
        self.core.obs.flight = flight.clone();
    }

    /// NACK-triggered retransmissions suppressed by the
    /// [`ProtoConfig::nack_resend_burst`] storm cap.
    pub fn storm_suppressed(&self) -> u64 {
        self.core.storm_suppressed()
    }

    /// Received frames the protocol rejected at admission: unknown
    /// connection id or a malformed read request.
    pub fn rx_rejected(&self) -> u64 {
        self.core.rx_rejected()
    }

    /// First transmissions that arrived late, behind a later one on their
    /// rail, for a sequence the proof of loss had passed
    /// ([`ProtoCore::spurious_proofs`](crate::proto::ProtoCore::spurious_proofs)).
    pub fn spurious_proofs(&self) -> u64 {
        self.core.spurious_proofs()
    }

    /// True when every connection is fully quiesced: nothing queued or
    /// unacknowledged to send, no receive gap, no fence-blocked fragments.
    /// The graceful-shutdown criterion — see [`drain`].
    pub fn quiesced(&self) -> bool {
        self.core.quiesced()
    }

    /// Abandon connection `conn`'s in-flight sends after a fatal
    /// [`WireError`]: clears the send queue, disarms every timer, and
    /// returns the operation ids that will never complete — the casualties
    /// a caller reports instead of waiting on completions that cannot
    /// arrive.
    pub fn abort_pending(&mut self, conn: usize) -> Vec<u64> {
        self.core.abort_pending(conn)
    }

    /// This endpoint's node id.
    pub fn node(&self) -> usize {
        self.core.obs.node
    }

    /// Endpoint-wide protocol statistics.
    pub fn stats(&self) -> ProtoStats {
        self.core.stats()
    }

    /// The shared span recorder.
    pub fn span_recorder(&self) -> &SpanRecorder {
        &self.core.obs.spans
    }

    /// Read `len` bytes of this node's application memory at `addr`.
    pub fn mem_read(&self, addr: u64, len: usize) -> Vec<u8> {
        self.core.memory.read_vec(addr, len)
    }

    /// Write directly into this node's application memory (what a remote
    /// read of this node then returns).
    pub fn mem_write(&mut self, addr: u64, data: &[u8]) {
        self.core.memory.write(addr, data);
    }

    /// Next pending remote-write notification, if any.
    pub fn take_notification(&mut self) -> Option<Notification> {
        self.io.notifications.pop_front()
    }

    /// Next completed operation (acknowledged write or finished read), if
    /// any.
    pub fn take_completion(&mut self) -> Option<CompletedWrite> {
        self.io.completions.pop_front()
    }

    /// Sequencing/ordering state of connection `conn` (tests, invariants).
    pub fn conn_state(&self, conn: usize) -> WireConnState {
        self.core.conns()[conn].state()
    }

    /// Earliest armed protocol deadline across all connections, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        self.core.next_deadline()
    }

    /// Issue a remote write of `data` to `remote_addr` on `conn`. Returns
    /// the operation id; completion is reported via
    /// [`WireEndpoint::take_completion`] once the covering ack arrives.
    pub fn write<B: Backplane>(
        &mut self,
        conn: usize,
        bp: &mut B,
        remote_addr: u64,
        data: Bytes,
        flags: OpFlags,
    ) -> u64 {
        let data = data.into();
        self.issue(conn, bp, Op::Write { remote_addr, data }, flags)
    }

    /// Issue a remote read of `len` bytes at the peer's `remote_addr` into
    /// local `local_addr` on `conn`. Returns the operation id; completion
    /// is reported via [`WireEndpoint::take_completion`] once all response
    /// data has been applied to local memory.
    pub fn read<B: Backplane>(
        &mut self,
        conn: usize,
        bp: &mut B,
        local_addr: u64,
        remote_addr: u64,
        len: usize,
        flags: OpFlags,
    ) -> u64 {
        let op = Op::Read {
            local_addr,
            remote_addr,
            len,
        };
        self.issue(conn, bp, op, flags)
    }

    /// Count and issue `op` now; its completion token is the clock at issue.
    fn issue<B: Backplane>(&mut self, conn: usize, bp: &mut B, op: Op, flags: OpFlags) -> u64 {
        let now = bp.now_ns();
        self.core.count_op(conn, &op);
        let io = &mut self.io;
        self.core
            .issue(conn, op, flags, now, now, now, &mut WireHost { bp, io })
    }

    /// Drain received frames and fire due timers. Returns true when any
    /// protocol work happened (the caller's idle signal).
    pub fn poll<B: Backplane>(&mut self, bp: &mut B) -> bool {
        let received = self.receive(bp);
        let fired = self.fire_due(bp, bp.now_ns());
        self.sample_if_due(bp);
        received | fired
    }

    /// Hand every frame `bp` holds to the core. Returns whether there was
    /// one; `false` means a sweep of the rails found nothing.
    fn receive<B: Backplane>(&mut self, bp: &mut B) -> bool {
        let mut received = false;
        while let Some(rx) = bp.next() {
            received = true;
            let (now, rail, io) = (bp.now_ns(), rx.rail as usize, &mut self.io);
            self.core
                .on_frame(rail, rx.frame, rx.at_ns, now, &mut WireHost { bp, io });
        }
        received
    }

    /// Fire, now, every timer due by `due_ns`. Returns true if any fired.
    fn fire_due<B: Backplane>(&mut self, bp: &mut B, due_ns: u64) -> bool {
        let (now, io) = (bp.now_ns(), &mut self.io);
        self.core.fire_due(due_ns, now, &mut WireHost { bp, io })
    }

    /// Commit a timeline row if one is due.
    fn sample_if_due<B: Backplane>(&mut self, bp: &mut B) {
        if self.sampler.as_ref().is_some_and(|s| s.due(bp.now_ns())) {
            self.sample_timeline(bp);
        }
    }
}

/// Classify a tripped watchdog into the sharpest [`WireError`] the two
/// endpoints' state supports, checked in severity order.
fn classify_stall(a: &WireEndpoint, b: &WireEndpoint, idle_ns: u64) -> WireError {
    for ep in [a, b] {
        if ep.core.min_active_rails() == Some(0) {
            return WireError::AllRailsDead {
                node: ep.node(),
                idle_ns,
            };
        }
    }
    for ep in [a, b] {
        let backoff = ep.core.max_backoff();
        if backoff >= RTO_STORM_CAP {
            return WireError::PeerUnreachable {
                node: ep.node(),
                backoff,
                idle_ns,
            };
        }
    }
    for ep in [a, b] {
        let buffered = ep.core.fence_buffered_total();
        if buffered > 0 {
            return WireError::FenceStallExceeded {
                node: ep.node(),
                stalled_ns: idle_ns,
                buffered,
            };
        }
    }
    WireError::Stalled {
        idle_ns,
        a: a.conn_state(0),
        b: b.conn_state(0),
    }
}

/// Run two endpoints over a shared fabric until `done`, under explicit
/// liveness bounds: interleaves receive processing, timer fires and the
/// caller's reaction logic (`react` runs after each round — post replies,
/// count notifications), and sleeps to the earliest armed deadline when
/// both endpoints go idle.
///
/// A round keeps the simulator's order, in which no timer fires ahead of a
/// frame that reached its node earlier: it drains both endpoints' rails
/// until a full sweep finds nothing, then fires only the earliest deadline
/// across both that was due when that sweep began, and repeats until
/// nothing is. So a thread
/// descheduled past a timeout cannot fire one node's RTO before the peer
/// has read the frames already waiting for it.
///
/// A **progress watchdog** guards the loop: if no real protocol progress
/// (acknowledgement/cumulative/fence frontiers, receive counters — *not*
/// timer fires) happens for `limits.progress_timeout_ns`, or the drive
/// exceeds `limits.hard_budget_ns` in total, the loop returns a typed
/// [`WireError`] classified from the endpoints' state — all rails dead,
/// peer unreachable past the RTO storm cap, a fence stall, or a plain
/// stall — instead of polling forever. When a flight recorder is attached
/// ([`WireEndpoint::set_flight`]), the trip is noted and a `watchdog`
/// post-mortem dump is taken on both endpoints before returning. Returns
/// elapsed backplane-clock nanoseconds on success.
pub fn drive_with<BA: Backplane, BB: Backplane>(
    a: &mut WireEndpoint,
    bpa: &mut BA,
    b: &mut WireEndpoint,
    bpb: &mut BB,
    mut react: impl FnMut(&mut WireEndpoint, &mut BA, &mut WireEndpoint, &mut BB),
    mut done: impl FnMut(&WireEndpoint, &WireEndpoint) -> bool,
    limits: DriveLimits,
) -> Result<u64, WireError> {
    let start = bpa.now_ns();
    let mut last_token = a
        .core
        .progress_token()
        .wrapping_add(b.core.progress_token());
    let mut last_progress = start;
    loop {
        let mut worked = false;
        loop {
            // Only a deadline that was due when the last, empty sweep began
            // may fire: frames that had arrived by then are all read.
            let swept_at = loop {
                let t = bpa.now_ns();
                if !(a.receive(bpa) | b.receive(bpb)) {
                    break t;
                }
                worked = true;
            };
            match (a.next_deadline(), b.next_deadline()) {
                (Some(da), db) if da <= swept_at && db.is_none_or(|db| da <= db) => {
                    a.fire_due(bpa, da)
                }
                (_, Some(db)) if db <= swept_at => b.fire_due(bpb, db),
                _ => break,
            };
            worked = true;
        }
        a.sample_if_due(bpa);
        b.sample_if_due(bpb);
        react(a, bpa, b, bpb);
        if done(a, b) {
            return Ok(bpa.now_ns() - start);
        }
        let now = bpa.now_ns();
        let token = a
            .core
            .progress_token()
            .wrapping_add(b.core.progress_token());
        if token != last_token {
            last_token = token;
            last_progress = now;
        }
        let idle = now.saturating_sub(last_progress);
        let trip = if limits.fence_stall_limit_ns > 0 {
            // The dedicated fence watchdog fires even while other traffic
            // keeps the progress token moving.
            [&*a, &*b].into_iter().find_map(|ep| {
                let since = ep.core.fence_stall_since()?;
                let stalled_ns = now.saturating_sub(since);
                (stalled_ns > limits.fence_stall_limit_ns).then(|| WireError::FenceStallExceeded {
                    node: ep.node(),
                    stalled_ns,
                    buffered: ep.core.fence_buffered_total(),
                })
            })
        } else {
            None
        };
        let trip = trip.or_else(|| {
            (idle > limits.progress_timeout_ns || now.saturating_sub(start) > limits.hard_budget_ns)
                .then(|| classify_stall(a, b, idle))
        });
        if let Some(err) = trip {
            let (error, idle_ns) = (err.code(), idle);
            let event = EventKind::Watchdog { error, idle_ns };
            for ep in [&*a, &*b] {
                ep.core.obs.emit(now, Some(0), None, event);
            }
            return Err(err);
        }
        if worked {
            continue;
        }
        // Idle: sleep to the earliest protocol deadline (or a probe tick
        // when nothing is armed), stopping early on any frame delivery —
        // but never past the watchdog's own trip points (the fence limit's
        // too), so a dead fabric or a held fence surfaces the typed error
        // promptly instead of oversleeping.
        let fallback = now + 1_000_000;
        let deadline = [a.next_deadline(), b.next_deadline()]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(fallback)
            .max(now + 1);
        let fence_trip = [&*a, &*b]
            .into_iter()
            .filter(|_| limits.fence_stall_limit_ns > 0)
            .filter_map(|ep| ep.core.fence_stall_since())
            .map(|since| since.saturating_add(limits.fence_stall_limit_ns));
        let wake = [
            last_progress.saturating_add(limits.progress_timeout_ns),
            start.saturating_add(limits.hard_budget_ns),
        ]
        .into_iter()
        .chain(fence_trip)
        .map(|trip| trip.saturating_add(1))
        .fold(deadline, u64::min)
        .max(now + 1);
        bpa.advance(wake);
    }
}

/// Graceful shutdown: drive both endpoints until every connection has
/// quiesced ([`WireEndpoint::quiesced`]) — queued sends flushed and
/// acknowledged, receive gaps closed, fences drained — so the caller can
/// drop the endpoints without abandoning in-flight operations. On a fatal
/// [`WireError`], [`WireEndpoint::abort_pending`] reports the casualties.
pub fn drain<BA: Backplane, BB: Backplane>(
    a: &mut WireEndpoint,
    bpa: &mut BA,
    b: &mut WireEndpoint,
    bpb: &mut BB,
    limits: DriveLimits,
) -> Result<u64, WireError> {
    drive_with(
        a,
        bpa,
        b,
        bpb,
        |_, _, _, _| {},
        |a, b| a.quiesced() && b.quiesced(),
        limits,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backplane::SimBackplane;
    use crate::SystemConfig;
    use netsim::{build_cluster, Sim};

    fn sim_rig(cfg: &SystemConfig) -> (Sim, SimBackplane, SimBackplane) {
        let sim = Sim::new(cfg.seed);
        let cluster = build_cluster(&sim, cfg.cluster_spec());
        let (bpa, bpb) = SimBackplane::pair(&sim, &cluster);
        (sim, bpa, bpb)
    }

    #[test]
    fn write_delivers_and_completes_on_sim_backplane() {
        let mut cfg = SystemConfig::two_link_1g(2);
        cfg.nodes = 2;
        let (_sim, mut bpa, mut bpb) = sim_rig(&cfg);
        let spans = SpanRecorder::enabled(1 << 10);
        let (mut a, mut b) = WireEndpoint::pair(&cfg.proto, 2, &spans);
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        a.write(
            0,
            &mut bpa,
            0x10_000,
            Bytes::from(payload.clone()),
            OpFlags::RELAXED.with_notify(),
        );
        drive_with(
            &mut a,
            &mut bpa,
            &mut b,
            &mut bpb,
            |_, _, _, _| {},
            |a, _| a.conn_state(0).acked == a.conn_state(0).next_seq,
            DriveLimits::budget(1_000_000_000),
        )
        .expect("completes");
        let done = a.take_completion().expect("write completion queued");
        assert_eq!(done.op, 0);
        assert!(done.completed_ns >= done.created_ns);
        assert_eq!(b.mem_read(0x10_000, payload.len()), payload);
        assert_eq!(
            b.take_notification().map(|n| (n.from_node, n.addr, n.len)),
            Some((0, 0x10_000, payload.len()))
        );
        let s = a.stats();
        assert_eq!(s.ops_write, 1);
        assert_eq!(s.data_frames_sent, 7);
        assert_eq!(s.retransmits(), 0);
        // Send window fully acknowledged, receive side clean.
        let st = a.conn_state(0);
        assert_eq!(st.acked, st.next_seq);
        let sb = b.conn_state(0);
        assert_eq!(sb.cumulative, 7);
        assert!(!sb.has_gap);
    }

    #[test]
    fn fences_hold_ordering_on_sim_backplane() {
        let mut cfg = SystemConfig::two_link_1g(2);
        cfg.nodes = 2;
        let (_sim, mut bpa, mut bpb) = sim_rig(&cfg);
        let spans = SpanRecorder::disabled();
        let (mut a, mut b) = WireEndpoint::pair(&cfg.proto, 2, &spans);
        // Three ordered writes to the same address: the final value must be
        // the last op's payload.
        for v in 1..=3u8 {
            a.write(
                0,
                &mut bpa,
                0x2000,
                Bytes::from(vec![v; 4096]),
                OpFlags::ORDERED,
            );
        }
        drive_with(
            &mut a,
            &mut bpa,
            &mut b,
            &mut bpb,
            |_, _, _, _| {},
            |a, _| a.conn_state(0).acked == a.conn_state(0).next_seq,
            DriveLimits::budget(1_000_000_000),
        )
        .expect("completes");
        assert_eq!(b.mem_read(0x2000, 4096), vec![3u8; 4096]);
        assert_eq!(b.conn_state(0).applied_below, 3);
        assert_eq!(b.conn_state(0).fence_buffered, 0);
    }
}
