//! End-to-end transport tests across crates: multi-node meshes, multi-link
//! reordering, fault injection, fences, reads.

use integration_tests::{payload, rig};
use me_trace::EventKind;
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
                .read(c, 0x80_0000, 0x1000, 50_000, OpFlags::RELAXED.with_fence_backward())
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
                .write_bytes(c, (i as u64) << 20, payload(i as u64, size), OpFlags::RELAXED)
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
    assert_eq!(snap0.overwritten + snap1.overwritten, 0, "{name}: ring too small");

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
    assert!(send0 < recv1, "{name}: send {send0} not before peer recv {recv1}");
    assert!(recv1 < send1, "{name}: pong sent {send1} before ping arrived {recv1}");
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
            count(|k| matches!(k, EventKind::FrameRecv { in_order: false, .. })),
            s.ooo_arrivals,
            "{name}: out-of-order receives"
        );
        assert_eq!(
            count(|k| matches!(k, EventKind::ExplicitAck { .. })),
            s.explicit_acks_sent,
            "{name}: explicit acks"
        );
        assert_eq!(count(|k| matches!(k, EventKind::OpComplete { .. })), ops, "{name}");
        assert_eq!(snap.op_latency_merged().count(), ops, "{name}: latency samples");
    }
}

/// Single-frame writes [`single_frame_writes_execute_a_pinned_event_count`]
/// issues, one at a time.
const PINNED_WRITES: u64 = 100;
/// Engine events those writes execute, from the first poll to quiescence.
const PINNED_WRITE_EVENTS: u64 = 1615;

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
