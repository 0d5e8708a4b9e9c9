//! The chaos interposer's determinism contract, checked across runtimes:
//! an interposer lane and netsim's uplink of the same NIC draw every
//! frame's fate from one oracle, the link's [`FaultStream`], so under one
//! seed they decide alike attempt by attempt; the fates cannot depend on
//! how the caller interleaves `send` and `advance` (backend polling
//! cadence), and the stream, asked directly, predicts the observed effects
//! exactly. Also pins the [`FaultPlan`] interval interpretation shared with
//! netsim.

use bytes::Bytes;
use frame::{Frame, FrameFlags, FrameHeader, FrameKind, MacAddr};
use multiedge::backplane::{Backplane, BpRx, ChaosConfig, FaultBackplane};
use netsim::faults::LANE_DUP;
use netsim::time::{ns, us};
use netsim::{covered, ChannelParams, FaultModel, FaultPlan, FaultStream, Network, Sim};
use proptest::prelude::*;

/// A recording backend with a manually stepped clock: `advance` jumps
/// straight to the deadline, `send` logs `(rail, seq)` in arrival order.
struct Probe {
    rails: usize,
    now: u64,
    sent: Vec<(usize, u32)>,
}

impl Probe {
    fn new(rails: usize) -> Self {
        Self {
            rails,
            now: 0,
            sent: Vec::new(),
        }
    }
}

impl Backplane for Probe {
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

/// Submit `n` frames round-robin over two rails, advancing the clock by
/// the scheduled gap before each send — the "polling cadence". Returns the
/// delivered `(rail, seq)` log.
fn run_cadence(cfg: &ChaosConfig, gaps: &[u64]) -> Vec<(usize, u32)> {
    let mut bp = FaultBackplane::new(Probe::new(2), 0, cfg);
    for (i, gap) in gaps.iter().enumerate() {
        let t = bp.now_ns().saturating_add(*gap);
        bp.advance(t);
        bp.send(i % 2, test_frame(i as u32));
    }
    // Flush anything still held (reorder holds with delay 0 release
    // immediately, but a belt-and-suspenders drain keeps the log total).
    let t = bp.now_ns().saturating_add(1);
    bp.advance(t);
    bp.into_inner().sent
}

/// The delivered log node 0's uplink streams predict for an n-frame
/// round-robin submission with zero hold-back: lost and corrupted frames
/// vanish, a duplicate doubles.
fn predicted(cfg: &ChaosConfig, n: usize) -> Vec<(usize, u32)> {
    let mut lanes = [
        FaultStream::link(0, 0, false),
        FaultStream::link(0, 1, false),
    ];
    let mut out = Vec::new();
    for i in 0..n {
        let rail = i % 2;
        let stream = &mut lanes[rail];
        let attempt = stream.next_attempt();
        if stream.decide(cfg.seed, cfg.fault, attempt) != (false, false) {
            continue;
        }
        out.push((rail, i as u32));
        if stream.hit(cfg.seed, attempt, LANE_DUP, cfg.dup) {
            out.push((rail, i as u32));
        }
    }
    out
}

/// One oracle on both runtimes: 500 frames through netsim's uplink of NIC
/// (0, 1) and 500 through interposer lane (0, 1), same seed and model, get
/// the same `(lost, corrupted)` at every attempt and the same tallies.
#[test]
fn interposer_lane_decides_like_the_netsim_uplink() {
    const SEED: u64 = 0x0AC1E;
    const N: u32 = 500;
    let model = FaultModel {
        loss_rate: 0.2,
        corrupt_rate: 0.1,
    };

    // The switch knows no destination, so the uplink is the only channel
    // that decides anything.
    let sim = Sim::new(1);
    let net = Network::with_seeds(&sim, model, SEED, 1);
    let switch = net.add_switch(us(1));
    let nic = net.add_nic(MacAddr::new(0, 1));
    net.connect(nic, switch, ChannelParams::gbe_1());
    net.record_fault_decisions(true);
    for seq in 0..N {
        net.nic_send(nic, test_frame(seq));
    }
    sim.run();
    let log = net.take_fault_decisions();
    assert!(
        log.iter().map(|d| d.1).eq(0..u64::from(N)),
        "one attempt per frame"
    );
    let netsim: Vec<(bool, bool)> = log.iter().map(|&(_, _, l, c)| (l, c)).collect();

    let cfg = ChaosConfig::new(SEED)
        .with_drop(model.loss_rate)
        .with_corrupt(model.corrupt_rate);
    let mut bp = FaultBackplane::new(Probe::new(2), 0, &cfg);
    let mut chaos = Vec::new();
    for seq in 0..N {
        let before = bp.stats();
        bp.send(1, test_frame(seq));
        let after = bp.stats();
        chaos.push((
            after.dropped > before.dropped,
            after.corrupt_dropped > before.corrupt_dropped,
        ));
    }

    assert_eq!(netsim.len(), chaos.len());
    let first_diff = chaos.iter().zip(&netsim).position(|(c, n)| c != n);
    assert_eq!(first_diff, None, "first attempt whose fate differs");
    let (s, n) = (bp.stats(), net.stats());
    assert!(s.dropped > 0 && s.corrupt_dropped > 0);
    assert_eq!((s.dropped, s.corrupt_dropped), (n.drops_loss, n.corrupted));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same seed, two arbitrary polling cadences: identical effects — and
    /// both equal to what the fault streams predict without a backplane.
    #[test]
    fn same_seed_same_decisions_regardless_of_cadence(
        seed in any::<u64>(),
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.3,
        reorder in 0.0f64..0.3,
        corrupt in 0.0f64..0.2,
        gaps_a in proptest::collection::vec(0u64..1_000_000, 96),
        gaps_b in proptest::collection::vec(0u64..1_000_000, 96),
    ) {
        // Zero hold-back delay keeps ordering cadence-free, so the entire
        // effect sequence — not just per-frame verdicts — must match.
        let cfg = ChaosConfig::new(seed)
            .with_drop(drop)
            .with_dup(dup)
            .with_reorder(reorder, 0)
            .with_corrupt(corrupt);
        let a = run_cadence(&cfg, &gaps_a);
        let b = run_cadence(&cfg, &gaps_b);
        prop_assert_eq!(&a, &b, "cadence must not change chaos decisions");
        prop_assert_eq!(a, predicted(&cfg, gaps_a.len()),
            "the fault streams must predict the observed effects exactly");
    }

    /// `down_intervals` + `covered` agree with a naive replay of the
    /// LinkDown/LinkUp event sequence at every probed instant.
    #[test]
    fn down_intervals_match_naive_event_replay(
        flips in proptest::collection::vec((1u64..10_000, any::<bool>()), 1..20),
        probes in proptest::collection::vec(0u64..200_000, 32),
    ) {
        // Build a strictly increasing event timeline from cumulative gaps.
        let mut plan = FaultPlan::new();
        let mut at = 0u64;
        let mut events = Vec::new();
        for (gap, down) in &flips {
            at += gap;
            plan = if *down {
                plan.link_down(ns(at), 0, 0)
            } else {
                plan.link_up(ns(at), 0, 0)
            };
            events.push((at, *down));
        }
        let intervals = plan.down_intervals(0, 0);
        for t in probes {
            // Naive state machine: the last event at or before `t` wins.
            let naive = events
                .iter()
                .take_while(|&&(e, _)| e <= t)
                .last()
                .map(|&(_, down)| down)
                .unwrap_or(false);
            prop_assert_eq!(
                covered(&intervals, t),
                naive,
                "t={} intervals={:?} events={:?}",
                t,
                &intervals,
                &events
            );
        }
    }
}
