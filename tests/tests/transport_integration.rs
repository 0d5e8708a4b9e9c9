//! End-to-end transport tests across crates: multi-node meshes, multi-link
//! reordering, fault injection, fences, reads.

use integration_tests::{payload, rig};
use me_trace::{analyze, EventKind, Phase, PhaseBreakdown};
use multiedge::config::DELAYED_ACK_TIMEOUT;
use multiedge::{OpFlags, SystemConfig};
use netsim::FaultModel;

#[test]
#[allow(clippy::needless_range_loop)] // i/j jointly index the mesh
fn all_to_all_transfers_on_eight_nodes() {
    let (sim, _cl, eps, conns) = rig(SystemConfig::one_link_1g(8));
    let n = eps.len();
    let size = 40_000usize;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let ep = eps[i].clone();
            let conn = conns[i][j].unwrap();
            let data = payload((i * 100 + j) as u64, size);
            sim.spawn(format!("w{i}-{j}"), async move {
                let h = ep
                    .write_bytes(conn, (i * n + 1) as u64 * 0x10_0000, data, OpFlags::RELAXED)
                    .await;
                h.wait().await;
            });
        }
    }
    sim.run().expect_quiescent();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let got = eps[j].mem_read((i * n + 1) as u64 * 0x10_0000, size);
            assert_eq!(got, payload((i * 100 + j) as u64, size), "{i}->{j}");
        }
    }
}

#[test]
fn four_rails_heavy_reordering_still_exact() {
    let mut cfg = SystemConfig::two_link_1g_unordered(2);
    cfg.rails = 4;
    let (sim, _cl, eps, conns) = rig(cfg);
    let data = payload(5, 2_000_000);
    let d2 = data.clone();
    let ep = eps[0].clone();
    let c = conns[0][1].unwrap();
    sim.spawn("w", async move {
        let h = ep.write_bytes(c, 0, d2, OpFlags::RELAXED).await;
        h.wait().await;
    });
    sim.run().expect_quiescent();
    assert_eq!(eps[1].mem_read(0, data.len()), data);
    let frac = eps[1].stats().ooo_fraction();
    assert!(frac > 0.2, "4 rails must reorder substantially: {frac}");
}

#[test]
fn severe_loss_and_corruption_completes_exactly() {
    let mut cfg = SystemConfig::one_link_1g(2);
    cfg.fault = FaultModel {
        loss_rate: 0.20,
        corrupt_rate: 0.03,
    };
    cfg.seed = 1234;
    let (sim, _cl, eps, conns) = rig(cfg);
    let data = payload(9, 300_000);
    let d2 = data.clone();
    let ep = eps[0].clone();
    let c = conns[0][1].unwrap();
    let done = sim.spawn("w", async move {
        let h = ep.write_bytes(c, 0x400, d2, OpFlags::RELAXED).await;
        h.wait().await;
        true
    });
    sim.run().expect_quiescent();
    assert_eq!(done.try_take(), Some(true));
    assert_eq!(eps[1].mem_read(0x400, data.len()), data);
    assert!(eps[0].stats().retransmits() > 0);
}

#[test]
fn fences_order_across_interleaved_streams() {
    // Two interleaved op streams to the same peer on 2 unordered rails:
    // stream A writes a log + forward-fenced commit pointer; the reader
    // (via notification on the commit) must always see the log complete.
    let (sim, _cl, eps, conns) = rig(SystemConfig::two_link_1g_unordered(2));
    let ep = eps[0].clone();
    let c = conns[0][1].unwrap();
    sim.spawn("w", async move {
        for round in 0..20u64 {
            let log = payload(round, 30_000);
            // Each round gets its own log region; the commit pointer is
            // ordered behind it by the fences.
            let _ = ep
                .write_bytes(c, 0x10_0000 + round * 0x1_0000, log, OpFlags::RELAXED)
                .await;
            let _ = ep
                .write_bytes(
                    c,
                    0x90_0000,
                    round.to_le_bytes().to_vec(),
                    OpFlags::ORDERED_NOTIFY,
                )
                .await;
        }
    });
    let rd = eps[1].clone();
    let checked = sim.spawn("r", async move {
        for _ in 0..20 {
            let n = rd.next_notification().await.expect("commit");
            let round = u64::from_le_bytes(rd.mem_read(n.addr, 8).try_into().unwrap());
            // The backward fence on the commit guarantees the whole log of
            // `round` (and all earlier rounds) is already applied.
            let log = rd.mem_read(0x10_0000 + round * 0x1_0000, 30_000);
            assert_eq!(log, payload(round, 30_000), "torn log at round {round}");
        }
        true
    });
    sim.run().expect_quiescent();
    assert_eq!(checked.try_take(), Some(true));
}

#[test]
fn remote_reads_observe_prior_writes_under_load() {
    let (sim, _cl, eps, conns) = rig(SystemConfig::one_link_10g(2));
    let ep = eps[0].clone();
    let c = conns[0][1].unwrap();
    let ok = sim.spawn("rw", async move {
        for i in 0..10u64 {
            let data = payload(i, 50_000);
            let w = ep
                .write_bytes(c, 0x1000, data.clone(), OpFlags::RELAXED)
                .await;
            w.wait().await;
            let r = ep
                .read(
                    c,
                    0x80_0000,
                    0x1000,
                    50_000,
                    OpFlags::RELAXED.with_fence_backward(),
                )
                .await;
            r.wait().await;
            assert_eq!(ep.mem_read(0x80_0000, 50_000), data, "round {i}");
        }
        true
    });
    sim.run().expect_quiescent();
    assert_eq!(ok.try_take(), Some(true));
}

#[test]
fn sixteen_node_incast_congestion_recovers() {
    // All 15 peers blast node 0 simultaneously through a switch with small
    // output-port buffers: the port to node 0 overflows; NACK recovery must
    // still deliver everything.
    let mut cfg = SystemConfig::one_link_1g(16);
    cfg.link.queue_cap = 64; // force congestion drops at the output port
    let (sim, cl, eps, conns) = rig(cfg);
    let size = 120_000usize;
    for i in 1..16 {
        let ep = eps[i].clone();
        let c = conns[i][0].unwrap();
        sim.spawn(format!("blast-{i}"), async move {
            let h = ep
                .write_bytes(
                    c,
                    (i as u64) << 20,
                    payload(i as u64, size),
                    OpFlags::RELAXED,
                )
                .await;
            h.wait().await;
        });
    }
    sim.run().expect_quiescent();
    for i in 1..16u64 {
        assert_eq!(eps[0].mem_read(i << 20, size), payload(i, size), "from {i}");
    }
    let drops = cl.net.stats().drops_overflow;
    assert!(drops > 0, "15:1 incast should overflow the output port");
}

#[test]
#[allow(clippy::needless_range_loop)] // i/j jointly index the mesh
fn per_conn_stats_sum_to_global() {
    // Exercise writes, reads and notifications on a 4-node mesh, then check
    // that every endpoint's per-connection rollups add up to its global
    // counters for all connection-attributable fields.
    let (sim, _cl, eps, conns) = rig(SystemConfig::two_link_1g_unordered(4));
    let n = eps.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let ep = eps[i].clone();
            let conn = conns[i][j].unwrap();
            let data = payload((i * 10 + j) as u64, 60_000);
            sim.spawn(format!("mix-{i}-{j}"), async move {
                let h = ep
                    .write_bytes(conn, (i as u64) << 24, data, OpFlags::RELAXED.with_notify())
                    .await;
                h.wait().await;
                let r = ep
                    .read(conn, 0x9000, (i as u64) << 24, 5_000, OpFlags::RELAXED)
                    .await;
                r.wait().await;
            });
        }
    }
    sim.run().expect_quiescent();
    for (idx, ep) in eps.iter().enumerate() {
        let global = ep.stats();
        let mut summed = multiedge::ProtoStats::default();
        for c in 0..ep.conn_count() {
            summed.merge(&ep.conn_stats(c));
        }
        let per_conn_view = |s: &multiedge::ProtoStats| {
            [
                s.ops_write,
                s.ops_read,
                s.bytes_written,
                s.bytes_read,
                s.data_frames_sent,
                s.data_bytes_sent,
                s.read_req_frames_sent,
                s.explicit_acks_sent,
                s.nacks_sent,
                s.retransmits_nack,
                s.retransmits_rto,
                s.data_frames_recv,
                s.ctrl_frames_recv,
                s.dup_frames_recv,
                s.ooo_arrivals,
                s.notifications,
            ]
        };
        assert_eq!(
            per_conn_view(&summed),
            per_conn_view(&global),
            "node {idx}: per-connection stats must sum to the global block"
        );
        assert!(global.ops_write > 0 && global.ops_read > 0);
    }
}

#[test]
fn traced_pingpong_is_causally_ordered() {
    // With tracing on, a two-node ping-pong must leave a causally consistent
    // event timeline: issue before send, send before the peer's receive,
    // receive before the originator's completion — with timestamps from the
    // one shared simulated clock. And with no ring wraparound each node's
    // event counts must equal its ProtoStats exactly, on one rail and on
    // striped rails (ordered and unordered).
    for cfg in [
        SystemConfig::one_link_1g(2),
        SystemConfig::two_link_1g_unordered(2),
        SystemConfig::two_link_1g(2),
        SystemConfig::one_link_10g(2),
    ] {
        traced_pingpong(cfg.with_tracing(4096));
    }
}

fn traced_pingpong(cfg: SystemConfig) {
    let iters = 5usize;
    let name = cfg.name.clone();
    let (sim, _cl, eps, conns) = rig(cfg);
    let (a, b) = (eps[0].clone(), eps[1].clone());
    let (c0, c1) = (conns[0][1].unwrap(), conns[1][0].unwrap());
    sim.spawn("ping", async move {
        for _ in 0..iters {
            let h = a
                .write_bytes(c0, 0x100, payload(1, 2_000), OpFlags::RELAXED.with_notify())
                .await;
            a.next_notification().await.expect("pong");
            h.wait().await;
        }
    });
    sim.spawn("pong", async move {
        for _ in 0..iters {
            b.next_notification().await.expect("ping");
            let h = b
                .write_bytes(c1, 0x200, payload(2, 2_000), OpFlags::RELAXED.with_notify())
                .await;
            h.wait().await;
        }
    });
    sim.run().expect_quiescent();

    let snap0 = eps[0].tracer().snapshot().expect("tracing enabled");
    let snap1 = eps[1].tracer().snapshot().expect("tracing enabled");
    assert_eq!(
        snap0.overwritten + snap1.overwritten,
        0,
        "{name}: ring too small"
    );

    // Each ring is an arrival-order timeline of one shared clock.
    for snap in [&snap0, &snap1] {
        let mut prev = 0u64;
        for e in &snap.events {
            assert!(e.t_ns >= prev, "{name}: timeline not monotone at {:?}", e);
            prev = e.t_ns;
        }
    }

    let first = |snap: &me_trace::TraceSnapshot, pred: &dyn Fn(&EventKind) -> bool| {
        snap.events
            .iter()
            .find(|e| pred(&e.kind))
            .map(|e| e.t_ns)
            .expect("event kind present")
    };
    let issue0 = first(&snap0, &|k| matches!(k, EventKind::OpIssue { .. }));
    let send0 = first(&snap0, &|k| matches!(k, EventKind::FrameSend { .. }));
    let recv1 = first(&snap1, &|k| matches!(k, EventKind::FrameRecv { .. }));
    let send1 = first(&snap1, &|k| matches!(k, EventKind::FrameSend { .. }));
    let complete0 = first(&snap0, &|k| matches!(k, EventKind::OpComplete { .. }));
    assert!(issue0 <= send0, "{name}: issue {issue0} after send {send0}");
    assert!(
        send0 < recv1,
        "{name}: send {send0} not before peer recv {recv1}"
    );
    assert!(
        recv1 < send1,
        "{name}: pong sent {send1} before ping arrived {recv1}"
    );
    assert!(
        recv1 < complete0,
        "{name}: op completed at {complete0} before the frame even arrived at {recv1}"
    );

    // Per node, every event count equals its ProtoStats counter: sends
    // (first transmissions and retransmissions), receives (duplicates emit
    // none), out-of-order receives, explicit acks, completions, and one
    // latency sample per completed op.
    for (snap, ep) in [(&snap0, &eps[0]), (&snap1, &eps[1])] {
        let s = ep.stats();
        let count = |pred: fn(&EventKind) -> bool| snap.count_events(pred);
        let ops = s.ops_write + s.ops_read;
        assert_eq!(s.ops_write, iters as u64, "{name}");
        assert_eq!(
            count(|k| matches!(k, EventKind::FrameSend { .. })),
            s.data_frames_sent + s.read_req_frames_sent + s.retransmits_nack + s.retransmits_rto,
            "{name}: frame sends"
        );
        assert_eq!(
            count(|k| matches!(k, EventKind::FrameRecv { .. })),
            s.data_frames_recv,
            "{name}: frame receives"
        );
        assert_eq!(
            count(|k| matches!(
                k,
                EventKind::FrameRecv {
                    in_order: false,
                    ..
                }
            )),
            s.ooo_arrivals,
            "{name}: out-of-order receives"
        );
        assert_eq!(
            count(|k| matches!(k, EventKind::ExplicitAck { .. })),
            s.explicit_acks_sent,
            "{name}: explicit acks"
        );
        assert_eq!(
            count(|k| matches!(k, EventKind::OpComplete { .. })),
            ops,
            "{name}"
        );
        assert_eq!(
            snap.op_latency_merged().count(),
            ops,
            "{name}: latency samples"
        );
    }
}

/// Single-frame writes [`single_frame_writes_execute_a_pinned_event_count`]
/// issues, one at a time.
const PINNED_WRITES: u64 = 100;
/// Engine events those writes execute, from the first poll to quiescence.
const PINNED_WRITE_EVENTS: u64 = 1502;

/// The simulator's cost is its events, so their count is pinned exactly on
/// the simplest shape there is: `PINNED_WRITES` 64 B writes, each waited
/// for, on a clean 1L-10G pair. A hop added to (or folded out of) the op or
/// frame path moves this number; update it only for a deliberate change.
#[test]
fn single_frame_writes_execute_a_pinned_event_count() {
    let (sim, _cl, eps, conns) = rig(SystemConfig::one_link_10g(2));
    let ep = eps[0].clone();
    let c = conns[0][1].unwrap();
    sim.spawn("w", async move {
        for i in 0..PINNED_WRITES {
            let h = ep
                .write_bytes(c, i * 64, payload(i, 64), OpFlags::RELAXED)
                .await;
            h.wait().await;
        }
    });
    sim.run().expect_quiescent();
    assert_eq!(eps[1].stats().data_frames_recv, PINNED_WRITES);
    assert_eq!(sim.events_executed(), PINNED_WRITE_EVENTS);
}

/// A repair reports the backlog it actually waits for. Node 0 streams
/// 64 KiB writes over one 1-GbE rail, so its NIC holds dozens of data
/// frames; node 1's link goes down for 10 us mid-stream, less than the
/// 12.3 us between two MTU frames, which loses one data frame at the
/// switch. Its NACK retransmission takes the repair band:
/// its `FrameSend` reports at most the rest of the frame on the wire, one
/// MTU frame time, where the data frames around it report many.
#[test]
fn a_repair_on_a_saturated_rail_reports_one_frame_of_backlog() {
    let mut cfg = SystemConfig::one_link_1g(2).with_tracing(1 << 14);
    cfg.seed = 3;
    let (sim, cluster, eps, conns) = rig(cfg);
    let at = netsim::time::us(620);
    let plan =
        netsim::FaultPlan::new()
            .link_down(at, 1, 0)
            .link_up(at + netsim::time::us(10), 1, 0);
    cluster.apply_fault_plan(&sim, &plan);
    let (a, c) = (eps[0].clone(), conns[0][1].unwrap());
    sim.spawn("stream", async move {
        let mut handles = Vec::new();
        for i in 0..16u64 {
            let data = payload(i, 64 << 10);
            handles.push(a.write_bytes(c, i << 20, data, OpFlags::RELAXED).await);
        }
        for h in &handles {
            h.wait().await;
        }
    });
    sim.run().expect_quiescent();

    let s = eps[0].stats();
    assert_eq!(
        (s.retransmits_nack, s.retransmits_rto),
        (1, 0),
        "one loss, one repair"
    );
    let frame_ns =
        netsim::Dur::for_bytes(frame::ETHERNET_MTU + frame::ETHERNET_WIRE_OVERHEAD, 125e6)
            .as_nanos();
    let snap = eps[0].tracer().snapshot().expect("tracing enabled");
    assert_eq!(snap.overwritten, 0);
    let sends: Vec<(u64, bool, u64)> = snap
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::FrameSend {
                retransmit,
                backlog_ns,
                ..
            } => Some((e.t_ns, retransmit, backlog_ns)),
            _ => None,
        })
        .collect();
    let repair = sends.iter().position(|s| s.1).expect("the repair was sent");
    let (t, _, backlog) = sends[repair];
    assert!(
        backlog <= frame_ns,
        "the repair reported {backlog} ns of backlog, more than one {frame_ns} ns frame"
    );
    let data_before = sends[..repair]
        .iter()
        .rev()
        .find(|s| !s.1)
        .expect("data sent first");
    assert!(
        data_before.2 >= 10 * frame_ns,
        "the rail was not saturated at {t} ns: {data_before:?}"
    );
}

/// Every ordered pair of an 8-node, 4-rail mesh writes `len` bytes at once,
/// and the run completes with every payload in place.
fn all_to_all_on_four_rails(cfg: SystemConfig, len: usize) -> Vec<multiedge::Endpoint> {
    let (sim, _cl, eps, conns) = rig(cfg);
    let n = eps.len();
    for (i, ep) in eps.iter().enumerate() {
        for j in (0..n).filter(|&j| j != i) {
            let (ep, conn) = (ep.clone(), conns[i][j].unwrap());
            let data = payload((i * n + j) as u64, len);
            sim.spawn(format!("w{i}-{j}"), async move {
                let addr = (i as u64) << 20;
                ep.write_bytes(conn, addr, data, OpFlags::RELAXED)
                    .await
                    .wait()
                    .await;
            });
        }
    }
    sim.run().expect_quiescent();
    for (j, ep) in eps.iter().enumerate() {
        for i in (0..n).filter(|&i| i != j) {
            let want = payload((i * n + j) as u64, len);
            assert_eq!(ep.mem_read((i as u64) << 20, len), want, "{i}->{j}");
        }
    }
    eps
}

fn four_rail_mesh() -> SystemConfig {
    let mut cfg = SystemConfig::two_link_1g_unordered(8);
    cfg.rails = 4;
    cfg
}

/// Each connection's rotation starts at rail (node + peer − 1) mod rails,
/// so a node's connections do not all put their first frame on one rail:
/// with one single-frame write per ordered pair, every node's NICs send,
/// and receive, data frames that differ by at most one from NIC to NIC.
/// The pair (0, 1) starts on rail 0, as every two-node run does.
#[test]
fn all_to_all_connections_balance_a_nodes_rails() {
    let eps = all_to_all_on_four_rails(four_rail_mesh().with_tracing(1 << 12), 64);
    let rails = 4;
    for (node, ep) in eps.iter().enumerate() {
        let snap = ep.tracer().snapshot().expect("tracing enabled");
        assert_eq!(snap.overwritten, 0);
        let (mut sent, mut recv) = (vec![0u32; rails], vec![0u32; rails]);
        for e in snap.events.iter().filter(|e| e.node as usize == node) {
            let rail = e.rail.map(|r| r as usize);
            match e.kind {
                EventKind::FrameSend { .. } => sent[rail.expect("a send has a rail")] += 1,
                EventKind::FrameRecv { .. } => recv[rail.expect("a receive has a rail")] += 1,
                _ => {}
            }
        }
        for (dir, counts) in [("sent", &sent), ("received", &recv)] {
            assert_eq!(counts.iter().sum::<u32>(), 7, "node {node} {dir}");
            let (lo, hi) = (counts.iter().min(), counts.iter().max());
            assert!(
                hi.unwrap() - lo.unwrap() <= 1,
                "node {node}'s NICs {dir} {counts:?} data frames"
            );
        }
        if node < 2 {
            let first = snap
                .events
                .iter()
                .find(|e| matches!(e.kind, EventKind::FrameSend { .. }) && e.conn == Some(0))
                .expect("the connection to the other of nodes 0 and 1 sent");
            assert_eq!(first.rail, Some(0), "pair (0, 1) starts on rail 0");
        }
    }
}

/// The same mesh at 1 % loss, with writes long enough that gaps are
/// proven: every proof of loss NACKs a frame that was lost, never one that
/// was only late, whatever rail each connection started on.
#[test]
fn all_to_all_proofs_of_loss_are_sound_on_four_rails() {
    let mut cfg = four_rail_mesh();
    cfg.fault = FaultModel {
        loss_rate: 0.01,
        corrupt_rate: 0.0,
    };
    let eps = all_to_all_on_four_rails(cfg, 64 << 10);
    let nacks: u64 = eps.iter().map(|ep| ep.stats().nacks_sent).sum();
    assert!(nacks > 0, "no gap was NACKed, so the run checks nothing");
    for (node, ep) in eps.iter().enumerate() {
        assert_eq!(ep.spurious_proofs(), 0, "node {node} NACKed a late frame");
    }
}

/// A silent write alone on its connection asks for its ack: with one 8 KiB
/// write per ordered pair of the 4-rail mesh, every op completes in less
/// than the delayed-ack timer it would otherwise wait out, and the
/// requested ack leaves in the input where the cumulative ack reaches the
/// op's last fragment, so the span attribution charges no ack delay at all.
/// Were the timer the only way to an ack, the 56 ops would spend 12.35 ms
/// in that phase and the slowest would take 515 us.
#[test]
fn a_lone_write_is_acked_before_the_delayed_ack_timer() {
    let eps = all_to_all_on_four_rails(four_rail_mesh().with_spans(1 << 12), 8 << 10);
    let snap = eps[0].span_recorder().snapshot().expect("spans enabled");
    assert_eq!((snap.spans.len(), snap.overwritten), (56, 0));
    let timer = DELAYED_ACK_TIMEOUT.as_nanos();
    for span in &snap.spans {
        let latency = PhaseBreakdown::from_span(span).latency_ns;
        assert!(latency < timer, "{:?} took {latency} ns", span.key);
    }
    let ack_delay = analyze(&snap).overall.phase_total_ns[Phase::AckDelay.idx()];
    assert_eq!(ack_delay, 0, "an op waited for its ack to be sent");
}
