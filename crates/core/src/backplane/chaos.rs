//! [`FaultBackplane`]: a backend-agnostic chaos interposer.
//!
//! Wraps *any* [`Backplane`] — the deterministic simulator or the real UDP
//! fabric — and applies a seed-deterministic fault schedule at the trait
//! seam: per-rail loss, corruption (counted and discarded, the FCS role the
//! trait contract assigns to backplanes), duplication, reordering, and
//! timed blackouts / NIC stalls / burst processes scripted by the same
//! [`FaultPlan`] DSL netsim replays natively. One schedule therefore
//! drives both transports, which is what lets the chaos soak suite assert
//! identical timing-independent protocol fingerprints sim-vs-UDP under
//! loss (`tests/tests/chaos_soak.rs`).
//!
//! Every frame's fate comes from the oracle netsim's channels use: rail
//! `rail` of node `node` owns a [`FaultStream`] keyed as netsim's uplink of
//! NIC `(node, rail)`, so under the same seed and [`FaultModel`] both decide
//! the same `(lost, corrupted)` for every attempt
//! (`tests/tests/chaos_properties.rs`); duplication and reordering are two
//! more lanes of the same draw. Blackouts, stalls and burst transitions
//! depend on the backplane clock at submission, which is exact virtual
//! time on the simulator and wall time on UDP — same schedule, same
//! *semantics*, physically different instants.
//!
//! A blackout drops frames at submission, which is netsim's rule too. The
//! one divergence from netsim's native replay, by design of a send-side
//! interposer: a peer NIC stall is modeled by holding the frame until the
//! stall ends (netsim holds it in the receiving NIC). The protocol-visible
//! effect is the same — the frame does not arrive while the stall lasts.

use frame::Frame;
use me_trace::{Event, EventKind, FaultKind, FlightRecorder, Json};
use netsim::faults::{LANE_DUP, LANE_REORDER};
use netsim::{covered, covering_end, FaultModel, FaultPlan, FaultStream, GilbertElliott};
use std::cell::Cell;
use std::rc::Rc;

use super::{Backplane, BpRx};

/// Chaos schedule for one two-node fabric: seeded random per-frame faults
/// plus the scripted [`FaultPlan`] timeline.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Seed of every per-frame draw, in the role of netsim's fault seed.
    pub seed: u64,
    /// Per-frame loss and corruption probabilities. Per the [`Backplane`]
    /// contract corrupted frames are discarded by the backplane (the
    /// Ethernet-FCS role) — counted in [`ChaosStats::corrupt_dropped`],
    /// never delivered.
    pub fault: FaultModel,
    /// Per-frame probability the frame is delivered twice.
    pub dup: f64,
    /// Per-frame probability the frame is held for
    /// [`ChaosConfig::reorder_delay_ns`], letting later frames overtake it.
    pub reorder: f64,
    /// How long a reordered frame is held back.
    pub reorder_delay_ns: u64,
    /// Scripted timeline: blackouts ([`netsim::FaultAction::LinkDown`]),
    /// NIC stalls, Gilbert–Elliott burst processes. Times are on the
    /// wrapped backplane's clock.
    pub plan: FaultPlan,
}

impl ChaosConfig {
    /// A fault-free schedule with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Set the per-frame drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.fault.loss_rate = p;
        self
    }

    /// Set the per-frame duplication probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup = p;
        self
    }

    /// Set the per-frame reorder probability and hold-back delay.
    pub fn with_reorder(mut self, p: f64, delay_ns: u64) -> Self {
        self.reorder = p;
        self.reorder_delay_ns = delay_ns;
        self
    }

    /// Set the per-frame corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.fault.corrupt_rate = p;
        self
    }

    /// Attach a scripted fault timeline.
    pub fn with_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }
}

/// Counters of everything the interposer did, summed over rails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Frames submitted through the interposer.
    pub frames_seen: u64,
    /// Frames silently dropped (base probability or burst process).
    pub dropped: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames held back to reorder.
    pub reordered: u64,
    /// Frames corrupted — counted and discarded, FCS-style.
    pub corrupt_dropped: u64,
    /// Frames dropped because a scripted blackout covered submission time.
    pub blackout_dropped: u64,
    /// Frames held until a scripted peer NIC stall ended.
    pub stall_held: u64,
    /// Frames given added delay (reorder hold or peer stall).
    pub delayed: u64,
}

impl ChaosStats {
    /// JSON rendering used by the flight-recorder context source and the
    /// telemetry bench report.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("frames_seen", self.frames_seen)
            .set("dropped", self.dropped)
            .set("duplicated", self.duplicated)
            .set("reordered", self.reordered)
            .set("corrupt_dropped", self.corrupt_dropped)
            .set("blackout_dropped", self.blackout_dropped)
            .set("stall_held", self.stall_held)
            .set("delayed", self.delayed)
    }
}

/// Apply `f` to the stats behind a shared cell (`ChaosStats` is `Copy`).
fn bump(stats: &Cell<ChaosStats>, f: impl FnOnce(&mut ChaosStats)) {
    let mut s = stats.get();
    f(&mut s);
    stats.set(s);
}

/// One frame held back (reorder or peer stall), released by `flush_due`
/// in `(release_ns, submission order)` order.
struct HeldFrame {
    release_ns: u64,
    order: u64,
    rail: usize,
    frame: Frame,
}

/// Per-rail fault state: the fault stream and the pre-interpreted scripted
/// timelines for this node's lane.
struct Lane {
    faults: FaultStream,
    /// Burst transitions; the first `bursts_applied` are in force.
    burst_timeline: Vec<(u64, Option<GilbertElliott>)>,
    bursts_applied: usize,
    /// This node's link is administratively down (frames dropped at the NIC).
    local_down: Vec<(u64, u64)>,
    /// The peer's link is down (frames lost before arrival).
    peer_down: Vec<(u64, u64)>,
    /// The peer's receive path is stalled (frames held until it ends).
    peer_stall: Vec<(u64, u64)>,
    in_blackout: bool,
}

/// A [`Backplane`] that injects the [`ChaosConfig`] schedule in front of
/// any inner backend. See the module docs for the exact semantics.
pub struct FaultBackplane<B: Backplane> {
    inner: B,
    node: usize,
    cfg: ChaosConfig,
    lanes: Vec<Lane>,
    /// Held frames sorted by `(release_ns, order)`.
    held: Vec<HeldFrame>,
    next_order: u64,
    /// Shared so a flight-recorder context source can read the tallies at
    /// dump time while the interposer keeps mutating them.
    stats: Rc<Cell<ChaosStats>>,
    flight: FlightRecorder,
}

impl<B: Backplane> FaultBackplane<B> {
    /// Wrap `inner` (node `node`'s view of the fabric) under `cfg`.
    pub fn new(inner: B, node: usize, cfg: &ChaosConfig) -> Self {
        let peer = 1 - node;
        let lanes = (0..inner.rails())
            .map(|rail| Lane {
                faults: FaultStream::link(node, rail, false),
                burst_timeline: cfg.plan.burst_timeline(node, rail),
                bursts_applied: 0,
                local_down: cfg.plan.down_intervals(node, rail),
                peer_down: cfg.plan.down_intervals(peer, rail),
                peer_stall: cfg.plan.stall_intervals(peer, rail),
                in_blackout: false,
            })
            .collect();
        Self {
            inner,
            node,
            cfg: cfg.clone(),
            lanes,
            held: Vec::new(),
            next_order: 0,
            stats: Rc::new(Cell::new(ChaosStats::default())),
            flight: FlightRecorder::disabled(),
        }
    }

    /// Everything the interposer has done so far.
    pub fn stats(&self) -> ChaosStats {
        self.stats.get()
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwrap, discarding any still-held frames (they were in flight; the
    /// protocol treats them as lost).
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Record injected faults into `flight` (drops, corruptions, blackout
    /// entries) for post-mortem dumps, and register this interposer's
    /// tallies as a dump-time context source: every post-mortem carries
    /// `context["chaos.node<N>"]` with the counts at the moment of the dump.
    pub fn set_flight(&mut self, flight: &FlightRecorder) {
        self.flight = flight.clone();
        let stats = self.stats.clone();
        flight.add_context_source(
            &format!("chaos.node{}", self.node),
            Rc::new(move || stats.get().to_json()),
        );
    }

    /// Release every held frame whose time has come, in release order.
    fn flush_due(&mut self, now: u64) {
        while self.held.first().is_some_and(|h| h.release_ns <= now) {
            let h = self.held.remove(0);
            // A rejected send is a transmit-queue loss; the protocol
            // recovers it like any other.
            let _ = self.inner.send(h.rail, h.frame);
        }
    }

    /// Queue a frame for release at `release_ns`, keeping release order.
    fn hold(&mut self, release_ns: u64, rail: usize, frame: Frame) {
        let order = self.next_order;
        self.next_order += 1;
        let key = (release_ns, order);
        let pos = self
            .held
            .partition_point(|h| (h.release_ns, h.order) <= key);
        self.held.insert(
            pos,
            HeldFrame {
                release_ns,
                order,
                rail,
                frame,
            },
        );
    }
}

impl<B: Backplane> Backplane for FaultBackplane<B> {
    fn rails(&self) -> usize {
        self.inner.rails()
    }

    fn mtu(&self) -> usize {
        self.inner.mtu()
    }

    fn peer_mtu(&self) -> usize {
        self.inner.peer_mtu()
    }

    fn local_mac(&self, rail: usize) -> frame::MacAddr {
        self.inner.local_mac(rail)
    }

    fn peer_mac(&self, rail: usize) -> frame::MacAddr {
        self.inner.peer_mac(rail)
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn send(&mut self, rail: usize, frame: Frame) -> bool {
        let now = self.inner.now_ns();
        self.flush_due(now);
        bump(&self.stats, |s| s.frames_seen += 1);
        let seq = frame.header.seq;
        let seed = self.cfg.seed;
        let (node, channel) = (self.node as u32, rail as u32);
        let event = |kind| Event {
            t_ns: now,
            node,
            conn: None,
            rail: Some(channel),
            kind,
        };
        let lane = &mut self.lanes[rail];
        while let Some(&(at, model)) = lane.burst_timeline.get(lane.bursts_applied) {
            if at > now {
                break;
            }
            lane.faults.set_burst(model);
            lane.bursts_applied += 1;
        }
        let attempt = lane.faults.next_attempt();

        // Scripted blackout: the frame never makes it onto the wire, and
        // the burst chain does not step (netsim's downed-link rule). The
        // send still "succeeds" — accepted, not delivered, exactly the
        // trait's loss semantics.
        if covered(&lane.local_down, now) || covered(&lane.peer_down, now) {
            bump(&self.stats, |s| s.blackout_dropped += 1);
            if !lane.in_blackout {
                lane.in_blackout = true;
                let fault = FaultKind::LinkDown;
                let kind = EventKind::FaultInjected { fault };
                self.flight.record(event(kind));
            }
            return true;
        }
        lane.in_blackout = false;

        let (lost, corrupted) = lane.faults.decide(seed, self.cfg.fault, attempt);
        if lost || corrupted {
            let kind = if lost {
                bump(&self.stats, |s| s.dropped += 1);
                EventKind::FrameDrop { channel, seq }
            } else {
                bump(&self.stats, |s| s.corrupt_dropped += 1);
                EventKind::FrameCorrupt { channel, seq }
            };
            self.flight.record(event(kind));
            return true;
        }

        let mut release = now;
        if lane
            .faults
            .hit(seed, attempt, LANE_REORDER, self.cfg.reorder)
        {
            bump(&self.stats, |s| s.reordered += 1);
            release = release.saturating_add(self.cfg.reorder_delay_ns);
        }
        // Peer receive path stalled: hold until the stall ends (the frames
        // netsim would park in the frozen NIC).
        if let Some(end) = covering_end(&lane.peer_stall, release) {
            bump(&self.stats, |s| s.stall_held += 1);
            release = end;
        }

        let dup = lane.faults.hit(seed, attempt, LANE_DUP, self.cfg.dup);
        if dup {
            bump(&self.stats, |s| s.duplicated += 1);
        }
        let accepted = if release > now {
            bump(&self.stats, |s| s.delayed += 1);
            self.hold(release, rail, frame.clone());
            true
        } else {
            self.inner.send(rail, frame.clone())
        };
        if dup {
            // The duplicate goes out immediately — if the original is
            // held, the copy overtakes it, which is also a reordering.
            let _ = self.inner.send(rail, frame);
        }
        accepted
    }

    fn next(&mut self) -> Option<BpRx> {
        self.flush_due(self.inner.now_ns());
        self.inner.next()
    }

    fn tx_backlog_ns(&self, rail: usize) -> u64 {
        self.inner.tx_backlog_ns(rail)
    }

    fn advance(&mut self, until_ns: u64) -> u64 {
        loop {
            let now = self.inner.now_ns();
            self.flush_due(now);
            // Never sleep through a hold-queue release: advance in steps
            // bounded by the earliest pending release.
            let target = match self.held.first().map(|h| h.release_ns) {
                Some(r) if r < until_ns => r.max(now.saturating_add(1)),
                _ => until_ns,
            };
            let reached = self.inner.advance(target);
            self.flush_due(reached);
            if reached >= until_ns {
                return reached;
            }
            if reached < target {
                // The inner backend stopped early: frames arrived somewhere
                // on the fabric. Hand control back so the driver polls.
                return reached;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use frame::{FrameFlags, FrameHeader, FrameKind, MacAddr};
    use netsim::time::ms;

    /// A recording backend with a manually stepped clock: `advance` jumps
    /// straight to the deadline, `send` logs `(rail, seq)`.
    struct MockBp {
        rails: usize,
        now: u64,
        sent: Vec<(usize, u32)>,
    }

    impl MockBp {
        fn new(rails: usize) -> Self {
            Self {
                rails,
                now: 0,
                sent: Vec::new(),
            }
        }
    }

    impl Backplane for MockBp {
        fn rails(&self) -> usize {
            self.rails
        }
        fn mtu(&self) -> usize {
            frame::MAX_PAYLOAD
        }
        fn peer_mtu(&self) -> usize {
            frame::MAX_PAYLOAD
        }
        fn local_mac(&self, rail: usize) -> MacAddr {
            MacAddr::new(0, rail as u8)
        }
        fn peer_mac(&self, rail: usize) -> MacAddr {
            MacAddr::new(1, rail as u8)
        }
        fn now_ns(&self) -> u64 {
            self.now
        }
        fn send(&mut self, rail: usize, frame: Frame) -> bool {
            self.sent.push((rail, frame.header.seq));
            true
        }
        fn next(&mut self) -> Option<BpRx> {
            None
        }
        fn tx_backlog_ns(&self, _rail: usize) -> u64 {
            0
        }
        fn advance(&mut self, until_ns: u64) -> u64 {
            self.now = self.now.max(until_ns);
            self.now
        }
    }

    fn test_frame(seq: u32) -> Frame {
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
                op_total_len: 0,
                fence_floor: 0,
                remote_addr: 0,
                aux: 0,
            },
            payload: Bytes::new(),
        }
    }

    #[test]
    fn decisions_match_observed_effects_with_zero_delay() {
        let cfg = ChaosConfig::new(42)
            .with_drop(0.3)
            .with_dup(0.2)
            .with_corrupt(0.1);
        let n = 200;
        let mut bp = FaultBackplane::new(MockBp::new(1), 0, &cfg);
        for seq in 0..n as u32 {
            assert!(bp.send(0, test_frame(seq)));
        }
        // The oracle, asked directly: node 0's uplink on rail 0.
        let mut stream = FaultStream::link(0, 0, false);
        let mut expect: Vec<(usize, u32)> = Vec::new();
        for seq in 0..n as u32 {
            let attempt = stream.next_attempt();
            if stream.decide(cfg.seed, cfg.fault, attempt) != (false, false) {
                continue;
            }
            expect.push((0, seq));
            if stream.hit(cfg.seed, attempt, LANE_DUP, cfg.dup) {
                expect.push((0, seq));
            }
        }
        assert_eq!(bp.inner().sent, expect);
        let s = bp.stats();
        assert_eq!(s.frames_seen, n as u64);
        assert!(s.dropped > 0 && s.duplicated > 0 && s.corrupt_dropped > 0);
        assert_eq!(
            s.frames_seen - s.dropped - s.corrupt_dropped + s.duplicated,
            bp.inner().sent.len() as u64
        );
    }

    #[test]
    fn same_seed_same_stream_per_lane() {
        let cfg = ChaosConfig::new(7).with_drop(0.5);
        // The seqs node `node` delivers on `rail` out of 64 submitted.
        let survivors = |node: usize, rail: usize| {
            let mut bp = FaultBackplane::new(MockBp::new(2), node, &cfg);
            for seq in 0..64 {
                bp.send(rail, test_frame(seq));
            }
            bp.inner()
                .sent
                .iter()
                .map(|&(_, seq)| seq)
                .collect::<Vec<_>>()
        };
        assert_eq!(survivors(0, 1), survivors(0, 1));
        // Different lanes draw different streams (overwhelmingly likely to
        // differ over 64 frames at p=0.5).
        assert_ne!(survivors(0, 0), survivors(0, 1));
        assert_ne!(survivors(0, 0), survivors(1, 0));
    }

    #[test]
    fn blackout_window_drops_then_recovers() {
        let plan = netsim::FaultPlan::new()
            .rail_down(ms(1), 0)
            .rail_up(ms(2), 0);
        let cfg = ChaosConfig::new(1).with_plan(plan);
        let mut bp = FaultBackplane::new(MockBp::new(1), 0, &cfg);
        bp.send(0, test_frame(0)); // t=0: before the blackout
        bp.advance(ms(1).as_nanos() + 1);
        assert!(bp.send(0, test_frame(1))); // inside: accepted, dropped
        bp.advance(ms(2).as_nanos() + 1);
        bp.send(0, test_frame(2)); // after: delivered
        assert_eq!(bp.inner().sent, vec![(0, 0), (0, 2)]);
        assert_eq!(bp.stats().blackout_dropped, 1);
    }

    #[test]
    fn peer_blackout_also_drops() {
        // Peer (node 1) link down forever: node 0's frames are lost at
        // arrival, so the interposer drops them at submission.
        let plan = netsim::FaultPlan::new().link_down(ms(0), 1, 0);
        let cfg = ChaosConfig::new(1).with_plan(plan);
        let mut bp = FaultBackplane::new(MockBp::new(1), 0, &cfg);
        bp.advance(1);
        assert!(bp.send(0, test_frame(0)));
        assert!(bp.inner().sent.is_empty());
        assert_eq!(bp.stats().blackout_dropped, 1);
    }

    #[test]
    fn reorder_holds_until_release() {
        let cfg = ChaosConfig::new(3).with_reorder(1.0, 1000);
        let mut bp = FaultBackplane::new(MockBp::new(1), 0, &cfg);
        bp.send(0, test_frame(0));
        assert!(bp.inner().sent.is_empty(), "held for reordering");
        bp.advance(500);
        assert!(bp.inner().sent.is_empty(), "not due yet");
        bp.advance(2000);
        assert_eq!(bp.inner().sent, vec![(0, 0)]);
        assert_eq!(bp.stats().reordered, 1);
        assert_eq!(bp.stats().delayed, 1);
    }

    #[test]
    fn nic_stall_holds_frames_until_stall_end() {
        let plan = netsim::FaultPlan::new().nic_stall(ms(1), 1, 0, ms(4));
        let cfg = ChaosConfig::new(9).with_plan(plan);
        let mut bp = FaultBackplane::new(MockBp::new(1), 0, &cfg);
        bp.advance(ms(2).as_nanos()); // inside the peer's stall window
        bp.send(0, test_frame(0));
        assert!(bp.inner().sent.is_empty(), "held by the peer stall");
        bp.advance(ms(5).as_nanos() + 1);
        assert_eq!(bp.inner().sent, vec![(0, 0)]);
        assert_eq!(bp.stats().stall_held, 1);
    }

    #[test]
    fn duplicate_overtakes_held_original() {
        let cfg = ChaosConfig::new(11).with_reorder(1.0, 100).with_dup(1.0);
        let mut bp = FaultBackplane::new(MockBp::new(1), 0, &cfg);
        bp.send(0, test_frame(5));
        // The copy went straight through; the original is still held.
        assert_eq!(bp.inner().sent, vec![(0, 5)]);
        bp.advance(200);
        assert_eq!(bp.inner().sent, vec![(0, 5), (0, 5)]);
        assert_eq!(bp.stats().duplicated, 1);
        assert_eq!(bp.stats().reordered, 1);
    }

    #[test]
    fn burst_process_loses_frames_in_bad_state() {
        let ge = GilbertElliott::bursty_loss(0.5, 0.1, 1.0);
        let plan = netsim::FaultPlan::new().burst(
            netsim::time::ms(0),
            netsim::FaultTarget::Rail { rail: 0 },
            ge,
        );
        let cfg = ChaosConfig::new(17).with_plan(plan);
        let mut bp = FaultBackplane::new(MockBp::new(1), 0, &cfg);
        for seq in 0..200u32 {
            bp.send(0, test_frame(seq));
        }
        let s = bp.stats();
        assert!(s.dropped > 0, "bad state at loss 1.0 must drop: {s:?}");
        assert!(
            (bp.inner().sent.len() as u64) + s.dropped == 200,
            "every frame either delivered or burst-dropped: {s:?}"
        );
    }
}
