//! Network component models: channels (unidirectional links), switches, NICs.
//!
//! The model is frame-granular and store-and-forward, matching the paper's
//! D-Link / HP ProCurve Ethernet switches:
//!
//! * A **channel** is one direction of a full-duplex link. It serializes
//!   frames at the link rate (wire time includes preamble, MACs, FCS and
//!   inter-frame gap via [`frame::Frame::wire_len`]), adds a fixed
//!   propagation/PHY latency, and bounds the number of frames queued waiting
//!   for the wire; overflow drops the frame (congestion loss).
//! * A **switch** receives a full frame, looks up the destination MAC in a
//!   static table, waits a fixed forwarding delay and retransmits on the
//!   output port's channel.
//! * A **NIC** hands received frames to a protocol-layer callback and
//!   reports transmit completions (the hook the paper's send-path interrupt
//!   discussion needs).
//!
//! Transient faults (§2.4's "contention, bit errors, or transient link
//! failures") are modeled by a per-hop random loss rate and a corruption
//! rate; corrupted frames are delivered but flagged, and the receive path
//! treats them as damaged (checksum failure → NACK).
//!
//! # One delivery path, decided at submit
//!
//! A frame's whole fate on a channel — link state, queue overflow, jitter,
//! loss, corruption — is decided when it is *submitted*, and every random
//! draw is a pure function of `(seed, channel stream key, attempt index)`
//! made by the channel's [`FaultStream`]: the stream key is the link's
//! identity `(node, rail, direction)`, the attempt index counts submissions
//! on that channel. No draw depends on what other channels do or on how
//! events interleave, so the channels are independent: traffic on one link
//! moves no fate on another (`tests/tests/determinism.rs`). A channel's far
//! end is a switch or a NIC.

use crate::engine::Sim;
use crate::faults::{splitmix64, FaultAction, FaultModel, FaultStream, LANE_JITTER};
use crate::time::{Dur, SimTime};
use frame::{FastMap, Frame, MacAddr};
use me_trace::{Event, EventKind, FaultKind, FlightRecorder, Tracer};
use std::cell::RefCell;
use std::rc::Rc;

/// One direction of a link: bandwidth, fixed latency, bounded queue.
#[derive(Debug, Clone, Copy)]
pub struct ChannelParams {
    /// Link rate in bytes per second (1-GbE = 125e6, 10-GbE = 1.25e9).
    pub bytes_per_sec: f64,
    /// Propagation plus PHY/DMA latency added after serialization.
    pub latency: Dur,
    /// Uniform random extra latency in `[0, jitter)` per frame, modeling
    /// variable NIC DMA and switch processing time. Delivery stays FIFO
    /// within one channel, so a single link never reorders; across rails
    /// the jitter produces the closely-spaced out-of-order arrivals the
    /// paper measures on multi-link setups.
    pub jitter: Dur,
    /// Maximum frames queued awaiting the wire; overflow is dropped.
    pub queue_cap: usize,
}

impl ChannelParams {
    /// 1-Gbit/s Ethernet with defaults used throughout the evaluation.
    pub fn gbe_1() -> Self {
        Self {
            bytes_per_sec: 125e6,
            latency: crate::time::us_f64(2.0),
            jitter: crate::time::us_f64(1.0),
            // Shared-memory commodity switches can dedicate on the order
            // of a megabyte to a single congested port.
            queue_cap: 1024,
        }
    }

    /// 10-Gbit/s Ethernet.
    pub fn gbe_10() -> Self {
        Self {
            bytes_per_sec: 1.25e9,
            latency: crate::time::us_f64(2.0),
            jitter: crate::time::us_f64(1.0),
            queue_cap: 768,
        }
    }
}

/// Identifier of a channel within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelId(usize);

/// Identifier of a switch within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SwitchId(usize);

/// Identifier of a NIC within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NicId(pub usize);

/// One recorded fault decision: `(channel stream key, per-channel attempt
/// index, lost, corrupted)`. The stream key names the link direction and
/// the attempt counts that channel's submissions, so a channel's log is the
/// same whatever other channels carry (the determinism witness filters a
/// run's log to some channels and compares).
pub type FaultDecision = (u64, u64, bool, bool);

#[derive(Debug, Clone, Copy)]
enum Endpoint {
    Switch(SwitchId),
    Nic(NicId),
}

/// A frame as delivered to a NIC's receive handler.
#[derive(Debug, Clone)]
pub struct RxFrame {
    /// The frame (payload intact even when corrupted — the corruption flag
    /// models what the checksum would have caught).
    pub frame: Frame,
    /// True if a transient error damaged the frame in flight; the protocol
    /// layer must discard it and NACK.
    pub corrupted: bool,
}

type RxHandler = Rc<dyn Fn(&Sim, RxFrame)>;
type TxCompleteHandler = Rc<dyn Fn(&Sim, usize)>;

struct ChannelState {
    params: ChannelParams,
    to: Endpoint,
    busy_until: SimTime,
    /// Serialization start times of frames still queued ahead of the wire,
    /// oldest first. A frame stops occupying the queue once its
    /// serialization has started, so the live queue depth is the number of
    /// entries with `start > now` — entries at the front expire lazily on
    /// the next submission instead of costing a simulation event each.
    queued_starts: std::collections::VecDeque<SimTime>,
    tx_frames: u64,
    tx_bytes: u64,
    drop_overflow: u64,
    drop_loss: u64,
    drop_link_down: u64,
    corrupted: u64,
    /// Latest scheduled arrival: enforces FIFO delivery despite jitter.
    last_arrival: SimTime,
    /// Administrative link state; frames are dropped while `false`.
    link_up: bool,
    /// The jitter/fault draws and the scripted burst process. Attempts
    /// include submissions dropped at the queue or a downed link.
    faults: FaultStream,
}

impl ChannelState {
    fn new(params: ChannelParams, to: Endpoint, faults: FaultStream) -> Self {
        Self {
            params,
            to,
            busy_until: SimTime::ZERO,
            queued_starts: std::collections::VecDeque::new(),
            tx_frames: 0,
            tx_bytes: 0,
            drop_overflow: 0,
            drop_loss: 0,
            drop_link_down: 0,
            corrupted: 0,
            last_arrival: SimTime::ZERO,
            link_up: true,
            faults,
        }
    }

    /// Apply a scripted fault's effect on this channel: link state or
    /// burst process. A NIC stall is the NIC's, not a channel's.
    fn apply(&mut self, action: FaultAction) {
        match action {
            FaultAction::LinkDown => self.link_up = false,
            FaultAction::LinkUp => self.link_up = true,
            FaultAction::NicStall { .. } => {}
            FaultAction::SetBurst { model } => self.faults.set_burst(Some(model)),
            FaultAction::ClearBurst => self.faults.set_burst(None),
        }
    }
}

struct SwitchState {
    forward_delay: Dur,
    table: FastMap<MacAddr, ChannelId>,
    drop_unknown: u64,
}

struct NicState {
    mac: MacAddr,
    tx_channel: Option<ChannelId>,
    /// The switch→NIC leg of this NIC's link (set by [`Network::connect`]).
    rx_channel: Option<ChannelId>,
    rx_handler: Option<RxHandler>,
    tx_complete: Option<TxCompleteHandler>,
    rx_frames: u64,
    tx_submitted: u64,
    /// Receive path frozen until this time (scripted NIC stall).
    stall_until: SimTime,
}

/// Aggregate counters for a whole network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames dropped because an output queue overflowed (congestion).
    pub drops_overflow: u64,
    /// Frames dropped by the random transient-loss process (stationary
    /// model or a scripted burst process).
    pub drops_loss: u64,
    /// Frames dropped because a link was administratively down.
    pub drops_link_down: u64,
    /// Frames delivered with injected corruption.
    pub corrupted: u64,
    /// Frames dropped at a switch due to an unknown destination.
    pub drops_unknown_mac: u64,
    /// Total frames serialized onto any channel.
    pub channel_frames: u64,
    /// Total wire bytes serialized onto any channel.
    pub channel_bytes: u64,
}

struct NetInner {
    channels: Vec<ChannelState>,
    switches: Vec<SwitchState>,
    nics: Vec<NicState>,
    fault: FaultModel,
    /// Seed of the loss/corruption/burst-transition streams.
    fault_seed: u64,
    /// Seed of the jitter streams, kept separate so a fault seed pins the
    /// loss pattern regardless of timing randomness.
    jitter_seed: u64,
    /// When `Some`, every fault decision is appended here (the determinism
    /// witness compares these logs channel by channel).
    decisions: Option<Vec<FaultDecision>>,
    tracer: Tracer,
    flight: FlightRecorder,
}

/// The simulated network: a set of NICs and switches connected by channels.
#[derive(Clone)]
pub struct Network {
    sim: Sim,
    inner: Rc<RefCell<NetInner>>,
}

/// Record a frame's drop (or, with `corrupted`, its corruption) at its
/// site into the tracer and the flight recorder, attributed to the sending
/// node/conn/rail.
fn note_fate(
    tracer: &Tracer,
    flight: &FlightRecorder,
    f: &Frame,
    ch: ChannelId,
    t_ns: u64,
    corrupted: bool,
) {
    let (channel, seq) = (ch.0 as u32, f.header.seq);
    let kind = if corrupted {
        EventKind::FrameCorrupt { channel, seq }
    } else {
        EventKind::FrameDrop { channel, seq }
    };
    let e = Event {
        t_ns,
        node: f.src.node.into(),
        conn: Some(f.header.conn),
        rail: Some(f.src.rail.into()),
        kind,
    };
    tracer.emit(e);
    flight.record(e);
}

/// The stream of `mac`'s link, one direction of it.
fn link_stream(mac: MacAddr, downlink: bool) -> FaultStream {
    FaultStream::link(mac.node.into(), mac.rail.into(), downlink)
}

impl Network {
    /// Empty network attached to `sim`, with the default fault seed and the
    /// simulator's seed as the run seed.
    pub fn new(sim: &Sim, fault: FaultModel) -> Self {
        Self::with_seeds(sim, fault, crate::topology::DEFAULT_FAULT_SEED, sim.seed())
    }

    /// Empty network whose loss/corruption/burst streams are keyed by
    /// `fault_seed` ([`ClusterSpec::fault_seed`](crate::topology::ClusterSpec::fault_seed))
    /// and whose jitter streams are keyed by `run_seed`, the seed of the
    /// whole run. The two are independent: a fault seed pins the loss
    /// pattern whatever the timing randomness. Both are drawn per channel,
    /// so a link jitters identically whatever the rest of the fabric does.
    pub fn with_seeds(sim: &Sim, fault: FaultModel, fault_seed: u64, run_seed: u64) -> Self {
        Self {
            sim: sim.clone(),
            inner: Rc::new(RefCell::new(NetInner {
                channels: Vec::new(),
                switches: Vec::new(),
                nics: Vec::new(),
                fault,
                fault_seed,
                jitter_seed: splitmix64(run_seed ^ 0x9E6C_63D0_985B_4C9D),
                decisions: None,
                tracer: Tracer::disabled(),
                flight: FlightRecorder::disabled(),
            })),
        }
    }

    /// Attach a [`Tracer`]: the network then records each channel
    /// traversal's wire time (submit → arrival, keyed by the sending rail)
    /// and emits `frame_drop` / `frame_corrupt` events at the exact
    /// overflow, loss and corruption sites. A switched path contributes
    /// two wire-time samples per frame (uplink and downlink legs).
    pub fn set_tracer(&self, t: Tracer) {
        self.inner.borrow_mut().tracer = t;
    }

    /// Attach a [`FlightRecorder`]: the network then notes frame drops,
    /// corruptions, and scripted fault injections into the always-on ring
    /// (attributed to the sending node/conn/rail) so post-mortem dumps show
    /// the network's side of an incident.
    pub fn set_flight_recorder(&self, fr: FlightRecorder) {
        self.inner.borrow_mut().flight = fr;
    }

    /// Add a switch with the given per-frame forwarding delay.
    pub fn add_switch(&self, forward_delay: Dur) -> SwitchId {
        let mut inner = self.inner.borrow_mut();
        inner.switches.push(SwitchState {
            forward_delay,
            table: FastMap::default(),
            drop_unknown: 0,
        });
        SwitchId(inner.switches.len() - 1)
    }

    /// Add a NIC with Ethernet address `mac`.
    pub fn add_nic(&self, mac: MacAddr) -> NicId {
        let mut inner = self.inner.borrow_mut();
        inner.nics.push(NicState {
            mac,
            tx_channel: None,
            rx_channel: None,
            rx_handler: None,
            tx_complete: None,
            rx_frames: 0,
            tx_submitted: 0,
            stall_until: SimTime::ZERO,
        });
        NicId(inner.nics.len() - 1)
    }

    /// Connect `nic` to `switch` with a full-duplex link (`params` each
    /// direction) and register the NIC's MAC in the switch table.
    ///
    /// The uplink (NIC→switch) queue is effectively unbounded: it models the
    /// NIC's DMA ring, where the kernel driver backpressures instead of
    /// dropping. The downlink (switch→NIC) queue is the switch's output
    /// port buffer, where congestion drops happen.
    pub fn connect(&self, nic: NicId, switch: SwitchId, params: ChannelParams) {
        let mut inner = self.inner.borrow_mut();
        let mac = inner.nics[nic.0].mac;
        let up_params = ChannelParams {
            queue_cap: usize::MAX / 2,
            ..params
        };
        let up = ChannelId(inner.channels.len());
        inner.channels.push(ChannelState::new(
            up_params,
            Endpoint::Switch(switch),
            link_stream(mac, false),
        ));
        let down = ChannelId(inner.channels.len());
        inner.channels.push(ChannelState::new(
            params,
            Endpoint::Nic(nic),
            link_stream(mac, true),
        ));
        inner.nics[nic.0].tx_channel = Some(up);
        inner.nics[nic.0].rx_channel = Some(down);
        inner.switches[switch.0].table.insert(mac, down);
    }

    /// Install the receive callback for `nic` (protocol layer entry point).
    pub fn set_rx_handler(&self, nic: NicId, h: impl Fn(&Sim, RxFrame) + 'static) {
        self.inner.borrow_mut().nics[nic.0].rx_handler = Some(Rc::new(h));
    }

    /// Install the transmit-completion callback for `nic`; invoked with the
    /// frame's wire length once its serialization onto the link finishes
    /// (i.e. when the send DMA buffer becomes free).
    pub fn set_tx_complete_handler(&self, nic: NicId, h: impl Fn(&Sim, usize) + 'static) {
        self.inner.borrow_mut().nics[nic.0].tx_complete = Some(Rc::new(h));
    }

    /// MAC address of `nic`.
    pub fn nic_mac(&self, nic: NicId) -> MacAddr {
        self.inner.borrow().nics[nic.0].mac
    }

    /// Submit `f` for transmission on `nic` at the current virtual time.
    /// Returns `false` if the frame was dropped at the NIC's output queue.
    pub fn nic_send(&self, nic: NicId, f: Frame) -> bool {
        let ch = {
            let mut inner = self.inner.borrow_mut();
            inner.nics[nic.0].tx_submitted += 1;
            inner.nics[nic.0]
                .tx_channel
                .expect("nic_send on unconnected NIC")
        };
        self.channel_transmit(ch, f, Some(nic), false)
    }

    /// Hand a frame to `nic`'s receive handler, honoring any active receive
    /// stall: frames arriving while stalled are re-scheduled to the stall's
    /// end, preserving arrival order (the event heap is FIFO per timestamp).
    fn deliver_to_nic(&self, sim: &Sim, nic: NicId, f: Frame, corrupted: bool) {
        let handler = {
            let mut inner = self.inner.borrow_mut();
            let n = &mut inner.nics[nic.0];
            if sim.now() < n.stall_until {
                let stall_until = n.stall_until;
                drop(inner);
                let this = self.clone();
                sim.schedule_at(stall_until, move |sim| {
                    this.deliver_to_nic(sim, nic, f, corrupted);
                });
                return;
            }
            n.rx_frames += 1;
            n.rx_handler.clone()
        };
        if let Some(h) = handler {
            h(sim, RxFrame { frame: f, corrupted });
        }
    }

    /// Apply one scripted fault action to `nic`'s link (both directions for
    /// link state and burst models; the NIC itself for stalls), emitting a
    /// [`EventKind::FaultInjected`] trace event attributed to the NIC's rail.
    pub fn apply_fault(&self, nic: NicId, action: FaultAction) {
        let now = self.sim.now();
        let mut inner = self.inner.borrow_mut();
        let n = &mut inner.nics[nic.0];
        let (channels, rail, node) = ([n.tx_channel, n.rx_channel], n.mac.rail as u32, n.mac.node);
        if let FaultAction::NicStall { dur } = action {
            n.stall_until = n.stall_until.max(now + dur);
        }
        for ch in channels.into_iter().flatten() {
            inner.channels[ch.0].apply(action);
        }
        let fault = match action {
            FaultAction::LinkDown => FaultKind::LinkDown,
            FaultAction::LinkUp => FaultKind::LinkUp,
            FaultAction::NicStall { .. } => FaultKind::NicStall,
            FaultAction::SetBurst { .. } | FaultAction::ClearBurst => FaultKind::BurstModel,
        };
        let e = Event {
            t_ns: now.as_nanos(),
            node: node.into(),
            conn: None,
            rail: Some(rail),
            kind: EventKind::FaultInjected { fault },
        };
        inner.tracer.emit(e);
        inner.flight.record(e);
    }

    /// Whether `nic`'s link is administratively up (its transmit leg).
    pub fn link_is_up(&self, nic: NicId) -> bool {
        let inner = self.inner.borrow();
        match inner.nics[nic.0].tx_channel {
            Some(ch) => inner.channels[ch.0].link_up,
            None => false,
        }
    }

    /// Serialize `f` onto channel `ch`; `completion_nic` receives the
    /// tx-complete callback, `pre_corrupt` marks a frame an earlier hop
    /// already damaged. One borrow decides the frame's entire fate on this
    /// channel at submit time — link state, queue, jitter, loss, corruption
    /// — then schedules what happens at the far end: delivery to a NIC, or,
    /// at a switch, the transmit on its output port one forwarding delay
    /// after the frame lands. Link state is checked here only: a frame
    /// submitted before a link goes down still lands.
    /// Returns `false` if the frame never occupied the wire.
    fn channel_transmit(
        &self,
        ch: ChannelId,
        f: Frame,
        completion_nic: Option<NicId>,
        pre_corrupt: bool,
    ) -> bool {
        let now = self.sim.now();
        let wire_len = f.wire_len();
        let (end, landing) = {
            let mut inner = self.inner.borrow_mut();
            let NetInner {
                channels,
                fault,
                fault_seed,
                jitter_seed,
                tracer,
                flight,
                decisions,
                ..
            } = &mut *inner;
            let c = &mut channels[ch.0];
            // Taken before any drop, so later frames' draws never shift.
            let attempt = c.faults.next_attempt();
            if !c.link_up {
                c.drop_link_down += 1;
                note_fate(tracer, flight, &f, ch, now.as_nanos(), false);
                return false;
            }
            // Lazily expire queue entries whose serialization has started.
            while c.queued_starts.front().is_some_and(|&s| s <= now) {
                c.queued_starts.pop_front();
            }
            if c.queued_starts.len() >= c.params.queue_cap {
                c.drop_overflow += 1;
                note_fate(tracer, flight, &f, ch, now.as_nanos(), false);
                return false;
            }
            let (lost, fresh_corrupt) = c.faults.decide(*fault_seed, *fault, attempt);
            if let Some(log) = decisions.as_mut() {
                log.push((c.faults.key(), attempt, lost, fresh_corrupt));
            }
            let start = now.max(c.busy_until);
            let end = start + Dur::for_bytes(wire_len, c.params.bytes_per_sec);
            c.busy_until = end;
            if start > now {
                c.queued_starts.push_back(start);
            }
            c.tx_frames += 1;
            c.tx_bytes += wire_len as u64;
            let jitter = match c.params.jitter.as_nanos() {
                0 => 0,
                j => c.faults.draw(*jitter_seed, attempt, LANE_JITTER) % j,
            };
            // FIFO within a channel: never overtake the previous frame.
            let arrival = (end + c.params.latency + Dur(jitter)).max(c.last_arrival);
            c.last_arrival = arrival;
            tracer.wire_time(f.src.rail as u32, arrival.since(now).as_nanos());
            let landing = if lost {
                // A lost frame still occupied the wire (counted above); it
                // just never lands.
                c.drop_loss += 1;
                note_fate(tracer, flight, &f, ch, now.as_nanos(), false);
                None
            } else {
                if fresh_corrupt {
                    c.corrupted += 1;
                    note_fate(tracer, flight, &f, ch, now.as_nanos(), true);
                }
                Some((arrival, c.to, pre_corrupt || fresh_corrupt))
            };
            (end, landing)
        };
        // Transmit completion back to the sending NIC (DMA buffer free).
        if let Some(nic) = completion_nic {
            let this = self.clone();
            self.sim.schedule_at(end, move |sim| {
                let cb = this.inner.borrow().nics[nic.0].tx_complete.clone();
                if let Some(cb) = cb {
                    cb(sim, wire_len);
                }
            });
        }
        let Some((arrival, to, corrupted)) = landing else {
            return true;
        };
        match to {
            // A corrupted frame is forwarded anyway (our switches do not
            // verify FCS, like cheap store-and-forward hardware); the end
            // host's checksum catches it.
            // The switch's MAC table is static, so its output port is
            // known now: the frame leaves on it one forwarding delay after
            // it lands, and that channel decides its fate then.
            Endpoint::Switch(sw) => {
                let hop = {
                    let mut inner = self.inner.borrow_mut();
                    let s = &mut inner.switches[sw.0];
                    match s.table.get(&f.dst) {
                        Some(&out) => Some((out, s.forward_delay)),
                        None => {
                            s.drop_unknown += 1;
                            None
                        }
                    }
                };
                if let Some((out, delay)) = hop {
                    let this = self.clone();
                    self.sim.schedule_at(arrival + delay, move |_| {
                        this.channel_transmit(out, f, None, corrupted);
                    });
                }
            }
            Endpoint::Nic(nic) => {
                let this = self.clone();
                self.sim.schedule_at(arrival, move |sim| {
                    this.deliver_to_nic(sim, nic, f, corrupted);
                });
            }
        }
        true
    }

    /// Drop every installed callback: per-NIC receive and tx-complete
    /// handlers. Protocol layers capture their own state (which in turn
    /// holds this `Network`) in those closures, so a finished cluster is a
    /// reference cycle the allocator can never reclaim — a long-lived
    /// process that builds clusters repeatedly (sweep harnesses, the
    /// benchmark) leaks one full cluster per run without this. Call only when the simulation is done: afterwards,
    /// delivered frames fall on the floor.
    pub fn clear_handlers(&self) {
        let mut inner = self.inner.borrow_mut();
        for nic in &mut inner.nics {
            nic.rx_handler = None;
            nic.tx_complete = None;
        }
    }

    /// Deliver a frame to `nic`'s receive path now, as if it had just
    /// arrived off the wire; NIC stalls are honored.
    pub fn inject_nic_rx(&self, nic: NicId, f: Frame, corrupted: bool) {
        let sim = self.sim.clone();
        self.deliver_to_nic(&sim, nic, f, corrupted);
    }

    /// Start (or stop) logging fault decisions.
    pub fn record_fault_decisions(&self, on: bool) {
        self.inner.borrow_mut().decisions = if on { Some(Vec::new()) } else { None };
    }

    /// Take the fault-decision log accumulated since
    /// [`Self::record_fault_decisions`] (empty if recording is off).
    pub fn take_fault_decisions(&self) -> Vec<FaultDecision> {
        match self.inner.borrow_mut().decisions.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Aggregate network statistics.
    pub fn stats(&self) -> NetStats {
        let inner = self.inner.borrow();
        let mut s = NetStats::default();
        for c in &inner.channels {
            s.drops_overflow += c.drop_overflow;
            s.drops_loss += c.drop_loss;
            s.drops_link_down += c.drop_link_down;
            s.corrupted += c.corrupted;
            s.channel_frames += c.tx_frames;
            s.channel_bytes += c.tx_bytes;
        }
        for sw in &inner.switches {
            s.drops_unknown_mac += sw.drop_unknown;
        }
        s
    }

    /// Frames received by `nic` so far.
    pub fn nic_rx_frames(&self, nic: NicId) -> u64 {
        self.inner.borrow().nics[nic.0].rx_frames
    }

    /// How much serialization work is queued ahead of a new frame on `nic`'s
    /// transmit channel (zero when the wire is idle). Used by queue-aware
    /// link-scheduling policies.
    pub fn nic_tx_backlog(&self, nic: NicId) -> Dur {
        let inner = self.inner.borrow();
        let ch = inner.nics[nic.0]
            .tx_channel
            .expect("backlog query on unconnected NIC");
        inner.channels[ch.0].busy_until.since(self.sim.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::us;
    use bytes::Bytes;
    use frame::{FrameHeader, HEADER_LEN};

    fn data_frame(src: MacAddr, dst: MacAddr, len: usize) -> Frame {
        Frame {
            src,
            dst,
            header: FrameHeader::default(),
            payload: Bytes::from(vec![0u8; len]),
        }
    }

    /// 1-GbE parameters with deterministic (jitter-free) latency, so the
    /// timing assertions below are exact.
    fn quiet_gbe_1() -> ChannelParams {
        ChannelParams {
            jitter: Dur::ZERO,
            ..ChannelParams::gbe_1()
        }
    }

    /// Two NICs through one switch; checks delivery and timing.
    fn two_node_net(fault: FaultModel) -> (Sim, Network, NicId, NicId) {
        let sim = Sim::new(42);
        let net = Network::new(&sim, fault);
        let sw = net.add_switch(us(1));
        let a = net.add_nic(MacAddr::new(0, 0));
        let b = net.add_nic(MacAddr::new(1, 0));
        net.connect(a, sw, quiet_gbe_1());
        net.connect(b, sw, quiet_gbe_1());
        (sim, net, a, b)
    }

    #[test]
    fn frame_traverses_switch_with_expected_latency() {
        let (sim, net, a, b) = two_node_net(FaultModel::default());
        let got: Rc<RefCell<Vec<(u64, usize)>>> = Rc::default();
        let g = got.clone();
        net.set_rx_handler(b, move |sim, rx| {
            assert!(!rx.corrupted);
            g.borrow_mut()
                .push((sim.now().as_nanos(), rx.frame.payload.len()));
        });
        let f = data_frame(MacAddr::new(0, 0), MacAddr::new(1, 0), 1000);
        let wire = f.wire_len();
        assert!(net.nic_send(a, f));
        sim.run();
        let (t, len) = got.borrow()[0];
        assert_eq!(len, 1000);
        // Two serializations at 125 MB/s + 2 × 2us latency + 1us switch.
        let ser = Dur::for_bytes(wire, 125e6).as_nanos();
        assert_eq!(t, 2 * ser + 2_000 + 2_000 + 1_000);
    }

    #[test]
    fn back_to_back_frames_serialize_on_the_link() {
        let (sim, net, a, b) = two_node_net(FaultModel::default());
        let times: Rc<RefCell<Vec<u64>>> = Rc::default();
        let t = times.clone();
        net.set_rx_handler(b, move |sim, _| t.borrow_mut().push(sim.now().as_nanos()));
        for _ in 0..3 {
            let f = data_frame(MacAddr::new(0, 0), MacAddr::new(1, 0), 1454);
            assert!(net.nic_send(a, f));
        }
        sim.run();
        let times = times.borrow();
        assert_eq!(times.len(), 3);
        let wire = HEADER_LEN + 1454 + frame::ETHERNET_WIRE_OVERHEAD;
        let ser = Dur::for_bytes(wire, 125e6).as_nanos();
        // Arrival spacing equals one serialization time (pipeline full).
        assert_eq!(times[1] - times[0], ser);
        assert_eq!(times[2] - times[1], ser);
    }

    #[test]
    fn switch_output_queue_overflow_drops() {
        // Two senders blast one receiver: the receiver's switch output port
        // (cap 2) is the congestion point; the NIC uplinks never drop.
        let sim = Sim::new(0);
        let net = Network::new(&sim, FaultModel::default());
        let sw = net.add_switch(us(1));
        let a = net.add_nic(MacAddr::new(0, 0));
        let b = net.add_nic(MacAddr::new(1, 0));
        let c = net.add_nic(MacAddr::new(2, 0));
        let tiny = ChannelParams {
            queue_cap: 2,
            ..quiet_gbe_1()
        };
        net.connect(a, sw, tiny);
        net.connect(b, sw, tiny);
        net.connect(c, sw, tiny);
        let n = 20;
        for _ in 0..n {
            assert!(
                net.nic_send(a, data_frame(MacAddr::new(0, 0), MacAddr::new(2, 0), 1400)),
                "uplink must backpressure, not drop"
            );
            assert!(net.nic_send(
                b,
                data_frame(MacAddr::new(1, 0), MacAddr::new(2, 0), 1400)
            ));
        }
        sim.run();
        let stats = net.stats();
        assert!(stats.drops_overflow > 0, "2:1 incast must overflow cap 2");
        assert_eq!(
            net.nic_rx_frames(c) + stats.drops_overflow,
            2 * n,
            "every frame is either delivered or dropped at the output port"
        );
    }

    #[test]
    fn random_loss_drops_approximately_at_rate() {
        let (sim, net, a, b) = two_node_net(FaultModel {
            loss_rate: 0.3,
            corrupt_rate: 0.0,
        });
        let got: Rc<RefCell<u32>> = Rc::default();
        let g = got.clone();
        net.set_rx_handler(b, move |_, _| *g.borrow_mut() += 1);
        let n = 2000;
        let net2 = net.clone();
        sim.spawn("sender", {
            let sim = sim.clone();
            async move {
                for _ in 0..n {
                    net2.nic_send(a, data_frame(MacAddr::new(0, 0), MacAddr::new(1, 0), 100));
                    crate::sync::sleep(&sim, us(20)).await;
                }
            }
        });
        sim.run().expect_quiescent();
        let received = *got.borrow();
        // Two hops, p=0.3 each: survival (0.7)^2 = 0.49.
        let expect = (n as f64) * 0.49;
        assert!(
            (received as f64 - expect).abs() < expect * 0.15,
            "received {received}, expected ≈ {expect}"
        );
    }

    #[test]
    fn corruption_is_flagged_not_dropped() {
        let (sim, net, a, b) = two_node_net(FaultModel {
            loss_rate: 0.0,
            corrupt_rate: 1.0,
        });
        let got: Rc<RefCell<Vec<bool>>> = Rc::default();
        let g = got.clone();
        net.set_rx_handler(b, move |_, rx| g.borrow_mut().push(rx.corrupted));
        net.nic_send(a, data_frame(MacAddr::new(0, 0), MacAddr::new(1, 0), 64));
        sim.run();
        assert_eq!(*got.borrow(), vec![true]);
    }

    #[test]
    fn tx_complete_fires_at_serialization_end() {
        let (sim, net, a, b) = two_node_net(FaultModel::default());
        net.set_rx_handler(b, |_, _| {});
        let done: Rc<RefCell<Vec<u64>>> = Rc::default();
        let d = done.clone();
        net.set_tx_complete_handler(a, move |sim, wire_len| {
            d.borrow_mut().push(sim.now().as_nanos());
            assert!(wire_len > 0);
        });
        let f = data_frame(MacAddr::new(0, 0), MacAddr::new(1, 0), 1000);
        let wire = f.wire_len();
        net.nic_send(a, f);
        sim.run();
        let ser = Dur::for_bytes(wire, 125e6).as_nanos();
        assert_eq!(*done.borrow(), vec![ser]);
    }

    /// The invariant the single delivery path rests on: every channel of a
    /// network — hand-built or from `build_cluster` — draws from its own
    /// stream, so two links at the same attempt index jitter differently.
    #[test]
    fn every_channel_has_its_own_stream() {
        let sim = Sim::new(3);
        let hand = Network::new(&sim, FaultModel::default());
        let sw = hand.add_switch(us(1));
        for node in 0..3 {
            let nic = hand.add_nic(MacAddr::new(node, 0));
            hand.connect(nic, sw, ChannelParams::gbe_1());
        }
        let spec = crate::topology::ClusterSpec::gbe_1(4, 2);
        let built = crate::topology::build_cluster(&sim, spec).net;
        for (net, channels) in [(&hand, 6), (&built, 16)] {
            let inner = net.inner.borrow();
            let keys: std::collections::BTreeSet<u64> =
                inner.channels.iter().map(|c| c.faults.key()).collect();
            assert_eq!(keys.len(), channels, "one distinct stream key per channel");
            let draws: std::collections::BTreeSet<u64> = inner
                .channels
                .iter()
                .map(|c| c.faults.draw(inner.jitter_seed, 0, LANE_JITTER) % 1_000)
                .collect();
            assert!(
                draws.len() > channels / 2,
                "links must not jitter in lockstep"
            );
        }
    }

    /// Link state is checked at submit only: a frame already on the wire
    /// when its link goes down still lands, one submitted during the outage
    /// is counted in `drops_link_down`.
    #[test]
    fn link_down_applies_at_submit() {
        use crate::topology::{build_cluster, ClusterSpec};
        let mut spec = ClusterSpec::gbe_1(2, 1);
        spec.link.jitter = Dur::ZERO;
        // 1000 B take 8.3 us to serialize: the frame sent at 0 is mid-wire
        // when node 0's link drops at 5 us and due at the switch at 10.4 us.
        let plan = crate::faults::FaultPlan::new()
            .link_down(us(5), 0, 0)
            .link_up(us(20), 0, 0);
        let sim = Sim::new(9);
        let cluster = build_cluster(&sim, spec);
        cluster.apply_fault_plan(&sim, &plan);
        let tx = cluster.nics[0][0];
        for at in [us(0), us(6), us(25)] {
            let net = cluster.net.clone();
            sim.schedule_at(SimTime::ZERO + at, move |_| {
                net.nic_send(tx, data_frame(MacAddr::new(0, 0), MacAddr::new(1, 0), 1000));
            });
        }
        sim.run();
        assert_eq!(
            (
                cluster.net.nic_rx_frames(cluster.nics[1][0]),
                cluster.net.stats().drops_link_down,
            ),
            (2, 1),
            "the mid-wire and post-outage frames land; only the mid-outage one drops"
        );
    }

    #[test]
    fn unknown_mac_dropped_at_switch() {
        let (sim, net, a, _b) = two_node_net(FaultModel::default());
        net.nic_send(a, data_frame(MacAddr::new(0, 0), MacAddr::new(9, 0), 64));
        sim.run();
        assert_eq!(net.stats().drops_unknown_mac, 1);
    }
}
