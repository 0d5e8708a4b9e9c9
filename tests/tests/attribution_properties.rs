//! Property-based soundness of critical-path latency attribution: for
//! arbitrary mixed read/write workloads — random sizes, fence flags, rail
//! counts, and loss rates — every completed op's exclusive phase durations
//! must sum *exactly* (to the nanosecond) to its measured issue→completion
//! latency, and the span population must reconcile with the tracer's
//! independently-stamped op-latency histograms. The events both planes
//! fold keep their own contract: an op is done before the application
//! learns it, a read is served once on the peer in between, and every
//! connection end announces its peer once.

use integration_tests::rig;
use me_trace::{analyze, Event, EventKind, PhaseBreakdown, TraceSnapshot};
use multiedge::{Endpoint, OpFlags, SystemConfig};
use netsim::FaultModel;
use proptest::prelude::*;

const CAP: usize = 1 << 14;

/// One randomized operation: a write or a read with a fence choice.
#[derive(Debug, Clone)]
struct MixedOp {
    read: bool,
    bucket: u8,
    len: usize,
    fwd: bool,
    bwd: bool,
    notify: bool,
}

fn arb_op() -> impl Strategy<Value = MixedOp> {
    (
        any::<bool>(),
        0u8..6,
        1usize..24_000,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(read, bucket, len, fwd, bwd, notify)| MixedOp {
            read,
            bucket,
            len,
            fwd,
            bwd,
            notify,
        })
}

/// Run `ops` from node 0 to node 1, with spans and tracing on, and return
/// the two endpoints.
fn run_ops(ops: Vec<MixedOp>, rails: usize, loss: f64, seed: u64) -> Vec<Endpoint> {
    let mut cfg = if rails == 2 {
        SystemConfig::two_link_1g_unordered(2)
    } else {
        SystemConfig::one_link_1g(2)
    };
    cfg.fault = FaultModel {
        loss_rate: loss,
        corrupt_rate: loss / 4.0,
    };
    cfg.seed = seed;
    cfg = cfg.with_spans(CAP).with_tracing(CAP);
    let (sim, _cl, eps, conns) = rig(cfg);
    let ep = eps[0].clone();
    let c = conns[0][1].unwrap();
    let done = sim.spawn("mixed-writer", async move {
        let mut handles = Vec::new();
        for op in ops {
            let flags = OpFlags {
                fence_backward: op.bwd,
                fence_forward: op.fwd,
                notify: op.notify && !op.read,
            };
            let addr = (op.bucket as u64) << 20;
            let h = if op.read {
                ep.read(c, 0x40_0000 + addr, addr, op.len, flags).await
            } else {
                ep.write_bytes(c, addr, vec![0xA5; op.len], flags).await
            };
            handles.push(h);
        }
        for h in &handles {
            h.wait().await;
        }
        true
    });
    sim.run().expect_quiescent();
    assert_eq!(done.try_take(), Some(true), "workload must complete");
    eps
}

fn run_case(ops: Vec<MixedOp>, rails: usize, loss: f64, seed: u64) {
    let n_ops = ops.len() as u64;
    let eps = run_ops(ops, rails, loss, seed);
    let snap = eps[0].span_recorder().snapshot().expect("spans enabled");
    assert_eq!(snap.overwritten, 0, "span ring must hold the whole run");
    assert_eq!(snap.active, 0, "all spans must have completed");
    assert_eq!(snap.completed_total, n_ops, "one span per op");

    // The core soundness property: exclusive phases telescope exactly.
    let mut span_latency_sum = 0u64;
    for s in &snap.spans {
        let b = PhaseBreakdown::from_span(s);
        assert_eq!(
            b.phases.iter().sum::<u64>(),
            b.latency_ns,
            "phases must sum to latency for op {:?} (rails={rails} loss={loss})",
            s.key,
        );
        assert_eq!(b.latency_ns, s.complete - s.created);
        span_latency_sum += b.latency_ns;
    }

    // The rollup conserves every nanosecond it was fed.
    let att = analyze(&snap);
    assert_eq!(att.overall.ops, n_ops);
    assert_eq!(att.overall.latency_total_ns, span_latency_sum);
    assert_eq!(att.overall.phase_sum_ns(), att.overall.latency_total_ns);

    // Reconcile against the tracer, whose histogram folds the latency the
    // op handle measured, where a span runs from `OpIssue`'s `created_ns`
    // to the `OpComplete` instant — same ops, same nanoseconds.
    let trace = eps[0].tracer().snapshot().expect("tracing enabled");
    let hist_count: u64 = trace.op_latency.values().map(|h| h.count()).sum();
    let hist_sum: u64 = trace.op_latency.values().map(|h| h.sum()).sum();
    assert_eq!(hist_count, n_ops, "tracer saw every op");
    assert_eq!(
        hist_sum, span_latency_sum,
        "span and tracer latencies agree"
    );
}

/// Every op's `OpDone` precedes its `OpComplete`; every read has exactly
/// one `ReadServe` on the peer between its `OpIssue` and its `OpDone`;
/// every connection end emits one `Connect`, naming its peer.
fn check_event_contract(ops: Vec<MixedOp>, rails: usize, loss: f64, seed: u64) {
    let n_ops = ops.len() as u64;
    let eps = run_ops(ops, rails, loss, seed);
    let snaps: Vec<TraceSnapshot> = eps.iter().map(|e| e.tracer().snapshot().unwrap()).collect();
    for (node, s) in snaps.iter().enumerate() {
        assert_eq!(s.overwritten, 0, "the ring must hold the whole run");
        let connects: Vec<_> = s
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Connect {
                    peer_node,
                    peer_conn,
                } => Some((e.conn, peer_node, peer_conn)),
                _ => None,
            })
            .collect();
        assert_eq!(connects, [(Some(0), 1 - node as u32, 0)], "node {node}");
    }
    let (origin, peer) = (&snaps[0].events, &snaps[1].events);
    // The one event of `label` for op `op` on the origin, and its position.
    let find = |label: &str, op: u64| -> (usize, Event) {
        let hits: Vec<usize> = (0..origin.len())
            .filter(|&i| origin[i].kind.label() == label && op_of(&origin[i].kind) == op)
            .collect();
        assert_eq!(hits.len(), 1, "op {op}: exactly one {label}");
        (hits[0], origin[hits[0]])
    };
    for op in 0..n_ops {
        let (_, issue) = find("op_issue", op);
        let (done_at, done) = find("op_done", op);
        let (complete_at, _) = find("op_complete", op);
        assert!(
            done_at < complete_at,
            "op {op}: done before the application learns it"
        );
        let serves: Vec<u64> = peer
            .iter()
            .filter(|e| e.kind == EventKind::ReadServe { op })
            .map(|e| e.t_ns)
            .collect();
        match issue.kind {
            EventKind::OpIssue { read: true, .. } => {
                assert_eq!(serves.len(), 1, "read {op}: served once");
                let served = serves[0];
                assert!(issue.t_ns <= served && served <= done.t_ns, "read {op}");
            }
            _ => assert!(serves.is_empty(), "write {op}: nothing served"),
        }
    }
}

/// The op id an event names, if it is one of an op's lifecycle events.
fn op_of(k: &EventKind) -> u64 {
    match *k {
        EventKind::OpIssue { op, .. } | EventKind::OpDone { op } => op,
        EventKind::OpComplete { op, .. } => op,
        _ => u64::MAX,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Clean single link: attribution is exact for any op mix.
    #[test]
    fn attribution_exact_on_clean_link(
        ops in proptest::collection::vec(arb_op(), 1..20),
        seed in 0u64..1000,
    ) {
        run_case(ops, 1, 0.0, seed);
    }

    /// Two unordered rails: reordering and striping never break the
    /// telescoping.
    #[test]
    fn attribution_exact_on_two_rails(
        ops in proptest::collection::vec(arb_op(), 1..20),
        seed in 0u64..1000,
    ) {
        run_case(ops, 2, 0.0, seed);
    }

    /// Loss and corruption: retransmit repair lands in its own phase and
    /// the sums still telescope exactly.
    #[test]
    fn attribution_exact_under_loss(
        ops in proptest::collection::vec(arb_op(), 1..12),
        loss in 0.0f64..0.08,
        seed in 0u64..1000,
    ) {
        run_case(ops, 2, loss, seed);
    }

    /// The op lifecycle events keep their order on every cell: clean or
    /// lossy, one rail or two, with fences.
    #[test]
    fn op_lifecycle_events_keep_their_order(
        ops in proptest::collection::vec(arb_op(), 1..16),
        rails in 1usize..3,
        loss in (any::<bool>(), 0.0f64..0.08).prop_map(|(clean, l)| if clean { 0.0 } else { l }),
        seed in 0u64..1000,
    ) {
        check_event_contract(ops, rails, loss, seed);
    }
}
