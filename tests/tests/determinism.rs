//! Determinism on one engine.
//!
//! A frame's fate on a channel — jitter, loss, corruption, burst state — is
//! a pure function of `(seed, link, attempt)`, drawn from the channel's own
//! `FaultStream`. So the channels of a cluster are independent: traffic on
//! one pair of nodes cannot move a single decision, timestamp or byte of
//! another pair, even when both pairs cross the same switches. That is the
//! property a partitioned engine would rest on, and it is checked here
//! without one.

use multiedge::{Endpoint, OpFlags, OpHandle, ProtoStats, SchedPolicy, SystemConfig};
use multiedge_bench::scale::{lossy_determinism_cell, run_scale_cell};
use netsim::sync::join_all;
use netsim::time::{ms, us};
use netsim::{build_cluster, FaultDecision, FaultPlan, FaultTarget, GilbertElliott, Sim};
use std::cell::RefCell;
use std::rc::Rc;

/// Writes each node of a pair issues to its peer, pipelined.
const WRITES: usize = 24;
const BYTES: usize = 6 << 10;
const REGION: u64 = 0x10_0000;

/// 4 nodes on 2 rails (so every pair shares both switches), stationary loss
/// and corruption, plus a script that hits links of both pairs.
fn cell() -> (SystemConfig, FaultPlan) {
    let mut cfg = SystemConfig::two_link_1g_unordered(4);
    cfg.seed = 23;
    cfg.fault.loss_rate = 0.01;
    cfg.fault.corrupt_rate = 0.002;
    let bursty = FaultTarget::Link { node: 1, rail: 0 };
    let plan = FaultPlan::new()
        .flap_link(us(300), 0, 1, us(200), us(200), 2)
        .flap_link(us(300), 3, 1, us(200), us(200), 2)
        .nic_stall(us(700), 1, 1, us(150))
        .burst(us(100), bursty, GilbertElliott::bursty_loss(0.02, 0.3, 0.6))
        .clear_burst(ms(2), bursty);
    (cfg, plan)
}

/// What one node of a pair saw: its stats, every op's latency in issue
/// order, and a checksum of the region its peer wrote.
#[derive(Debug, PartialEq)]
struct NodeOut {
    proto: ProtoStats,
    latencies: Vec<u64>,
    checksum: u64,
}

fn fnv1a(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Run the cell with two-way traffic on each of `pairs`; return nodes 0
/// and 1's outcome and the fault decisions of their channels.
fn run(pairs: &[(usize, usize)]) -> ([NodeOut; 2], Vec<FaultDecision>) {
    let (cfg, plan) = cell();
    assert_ne!(
        cfg.proto.sched,
        SchedPolicy::Random,
        "Random draws from the engine's shared RNG, which couples the pairs"
    );
    let sim = Sim::new(cfg.seed);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    cluster.apply_fault_plan(&sim, &plan);
    cluster.net.record_fault_decisions(true);
    let rc = Rc::new(cfg);
    let eps: Vec<Endpoint> = (0..4)
        .map(|node| {
            Endpoint::new(
                &sim,
                &cluster.net,
                node,
                cluster.nics[node].clone(),
                rc.clone(),
            )
        })
        .collect();
    let handles: Rc<RefCell<Vec<Vec<OpHandle>>>> = Rc::new(RefCell::new(vec![Vec::new(); 4]));
    for &(a, b) in pairs {
        for (node, peer) in [(a, b), (b, a)] {
            let ep = eps[node].clone();
            let conn = ep.connect_remote(peer, 0);
            let hs = handles.clone();
            sim.spawn(format!("writer-{node}"), async move {
                let mut mine = Vec::with_capacity(WRITES);
                for i in 0..WRITES {
                    let data = vec![(node * 31 + i) as u8; BYTES];
                    let addr = REGION + (i * BYTES) as u64;
                    mine.push(ep.write_bytes(conn, addr, data, OpFlags::RELAXED).await);
                }
                join_all(mine.iter().map(OpHandle::wait)).await;
                hs.borrow_mut()[node] = mine;
            });
        }
    }
    sim.run().expect_quiescent();
    let handles = handles.take();
    let out = [0, 1].map(|node| NodeOut {
        proto: eps[node].stats(),
        latencies: handles[node]
            .iter()
            .map(|h| h.latency().expect("op completed").as_nanos())
            .collect(),
        checksum: fnv1a(&eps[node].mem_read(REGION, WRITES * BYTES)),
    });
    let mine = cluster
        .net
        .take_fault_decisions()
        .into_iter()
        .filter(|&(key, ..)| key >> 32 < 2)
        .collect();
    cluster.net.clear_handlers();
    (out, mine)
}

/// The witness: adding traffic on the 2↔3 pair, through the same two
/// switches, changes nothing nodes 0 and 1 see — their channels' fault
/// decisions attempt for attempt, their protocol stats, every op's latency
/// and the bytes that landed in their memory.
#[test]
fn other_channels_traffic_changes_no_fate() {
    let (alone, alone_log) = run(&[(0, 1)]);
    let (crowded, crowded_log) = run(&[(0, 1), (2, 3)]);
    let stats = &alone[0].proto;
    assert!(
        stats.retransmits_nack + stats.retransmits_rto > 0,
        "the cell must exercise loss for the witness to mean anything"
    );
    assert_eq!(alone[1].latencies.len(), WRITES);
    assert!(!alone_log.is_empty());
    assert_eq!(alone_log, crowded_log, "nodes 0/1's fault decisions moved");
    for node in 0..2 {
        assert_eq!(alone[node], crowded[node], "node {node} moved");
    }
}

/// Same seed, run twice: everything identical, including the raw decision
/// logs and the event count.
#[test]
fn repeat_runs_are_bit_identical() {
    let cell = lossy_determinism_cell();
    let (a, a_events, _) = run_scale_cell(&cell, None);
    let (b, b_events, _) = run_scale_cell(&cell, None);
    assert_eq!(a.fingerprints, b.fingerprints);
    assert_eq!(a.proto, b.proto);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a_events, b_events);
}

/// A different seed actually changes the fault streams — the determinism
/// above is seed-pinning, not a degenerate constant.
#[test]
fn different_seed_changes_the_run() {
    let cell = lossy_determinism_cell();
    let mut other = lossy_determinism_cell();
    other.cfg.seed = cell.cfg.seed + 1;
    let (a, ..) = run_scale_cell(&cell, None);
    let (b, ..) = run_scale_cell(&other, None);
    assert_ne!(
        (a.fingerprints, a.decisions),
        (b.fingerprints, b.decisions),
        "seed must steer the fault streams"
    );
}
