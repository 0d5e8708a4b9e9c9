//! The per-layer section of a traced run: isolated drives of single layers
//! fed the workload's shape, the fabric-only replay, and the arithmetic
//! that turns spans, counters and `ProtoStats` into the named metrics.
//!
//! Layer = module name. A metric whose layer a workload does not cross is
//! reported as 0.

use crate::report::{Facts, RunOut};
use crate::spans::{Sp, Spans};
use bytes::Bytes;
use frame::{
    decode_frame, encode_frame_into, Frame, FrameHeader, MacAddr, HEADER_LEN, MAX_PAYLOAD,
};
use multiedge::order::{FragMeta, OpOrdering, Release};
use multiedge::recvseq::SeqTracker;
use multiedge::ring::{TxRing, TxSlot};
use multiedge::{LinkScheduler, SchedPolicy};
use netsim::{build_cluster, ClusterSpec, Sim, SimTime};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Name and unit of every per-layer metric, in print order.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("frame.encode_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("frame.wire_overhead_ratio", "ratio"),
    ("core.extra_frame_ratio", "ratio"),
    ("core.retransmit_ratio", "ratio"),
    ("core.dup_ratio", "ratio"),
    ("core.rto_share", "ratio"),
    ("core.ooo_fraction", "ratio"),
    ("core.reorder_peak", "count"),
    ("core.irq_fraction", "ratio"),
    ("core.cpu_util_pct", "%"),
    ("core.issue_ns", "ns"),
    ("core.allocs_per_op", "count"),
    ("core.allocs_per_frame", "count"),
    ("core.alloc_bytes_per_op", "B"),
    ("core.self_ns_per_frame", "ns"),
    ("core.recvseq_admit_ns", "ns"),
    ("core.order_offer_ns", "ns"),
    ("core.txring_cycle_ns", "ns"),
    ("core.sched_pick_ns", "ns"),
    ("core.read_p50_us", "us"),
    ("core.write_p50_us", "us"),
    ("engine.events", "count"),
    ("engine.events_per_frame", "count"),
    ("engine.events_per_wall_s", "1/s"),
    ("engine.pending_peak", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.sparse_ns_per_event", "ns"),
    ("engine.share", "ratio"),
    ("net.hop_ns_per_frame", "ns"),
    ("net.channel_frames", "count"),
    ("net.drop_ratio", "ratio"),
    ("net.drops_overflow", "count"),
    ("shard.windows", "count"),
    ("shard.idle_window_share", "ratio"),
    ("shard.advance_share", "ratio"),
    ("shard.exchange_share", "ratio"),
    ("udp.send_ns", "ns"),
    ("udp.recv_ns", "ns"),
    ("udp.recv_empty_share", "ratio"),
    ("udp.calls_per_frame", "count"),
    ("udp.advance_share", "ratio"),
    ("udp.rx_errors", "count"),
    ("wire.write_ns", "ns"),
    ("wire.poll_self_ns_per_frame", "ns"),
    ("wire.polls_per_frame", "count"),
    ("wire.empty_poll_share", "ratio"),
    ("wire.retransmit_ratio", "ratio"),
    ("wire.storm_suppressed", "count"),
    ("trace.planes_on_fps_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// What the isolated drives need to know about a workload.
pub struct Shape {
    /// Payload bytes per op.
    pub op_bytes: usize,
    /// Rails a connection stripes over.
    pub rails: usize,
    /// The simulated fabric, when there is one (for the replay).
    pub fabric: Option<ClusterSpec>,
}

/// Reschedule period of the sparse engine drive: wire time of one full
/// frame at 1 Gbit/s plus the link latency.
const SPARSE_PERIOD_NS: u64 = 14_304;
/// The engine's wheel quantum (2^15 ns); density is counted per quantum.
const QUANTUM_NS: f64 = 32_768.0;
/// Lanes of the sparse engine drive (also the host calibration unit).
const SPARSE_LANES: usize = 16;

fn div(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// ns per call of `f` over `iters` calls.
fn time_loop(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Payload lengths of the frames one op fragments into.
fn fragments(op_bytes: usize) -> Vec<usize> {
    let n = op_bytes.div_ceil(MAX_PAYLOAD).max(1);
    (0..n)
        .map(|i| (op_bytes - i * MAX_PAYLOAD).min(MAX_PAYLOAD))
        .collect()
}

fn data_frame(payload: usize) -> Frame {
    Frame {
        src: MacAddr::new(0, 0),
        dst: MacAddr::new(1, 0),
        header: FrameHeader::default(),
        payload: Bytes::from(vec![0xA5u8; payload]),
    }
}

/// `frame`: encode and decode one full-size fragment of the workload.
fn codec_ns(op_bytes: usize) -> (f64, f64) {
    let f = data_frame(op_bytes.min(MAX_PAYLOAD));
    let mut wire = Vec::new();
    let enc = time_loop(200_000, |_| {
        encode_frame_into(black_box(&f), &mut wire);
        black_box(wire.len());
    });
    let dec = time_loop(200_000, |_| {
        black_box(decode_frame(f.src, f.dst, black_box(&wire)).expect("own encoding decodes"));
    });
    (enc, dec)
}

/// `core.recvseq`: admit a sequence stream in which a fraction `ooo` of
/// the frames arrive one position late (adjacent swap, the multi-rail
/// skew pattern).
fn recvseq_ns(ooo: f64) -> f64 {
    let mut t = SeqTracker::with_window(64);
    let every = if ooo > 0.0 {
        (1.0 / ooo).round().max(2.0) as u64
    } else {
        u64::MAX
    };
    time_loop(2_000_000, |i| {
        let seq = match i % every {
            0 if every != u64::MAX => i + 1,
            1 if every != u64::MAX => i - 1,
            _ => i,
        };
        black_box(t.admit(seq));
    })
}

/// `core.order`: offer unfenced fragments, op after op.
fn order_ns(frags: &[usize], op_bytes: usize) -> f64 {
    let mut o: OpOrdering<u32> = OpOrdering::new();
    let mut out = Release::default();
    let per_op = frags.len() as u64;
    time_loop(1_000_000, |i| {
        let meta = FragMeta {
            op_id: i / per_op,
            op_total: op_bytes as u64,
            fence_floor: 0,
            fence_backward: false,
            len: frags[(i % per_op) as usize] as u64,
        };
        o.offer_into(meta, i as u32, &mut out);
        black_box(out.apply.len());
    })
}

/// `core.ring`: insert a frame's slot and retire the one a window behind.
fn txring_ns(payload: usize, rails: usize) -> f64 {
    let mut ring = TxRing::with_window(64);
    let f = data_frame(payload);
    time_loop(1_000_000, |i| {
        ring.insert(TxSlot {
            seq: i,
            rail: i as usize % rails,
            sent_at: SimTime(i),
            retransmitted: false,
            frame: f.clone(),
        });
        if i >= 32 {
            black_box(ring.remove(i - 32));
        }
    })
}

/// `core.sched`: the paper's round-robin pick over the workload's rails.
fn sched_ns(rails: usize) -> f64 {
    let mut s = LinkScheduler::new(SchedPolicy::RoundRobin);
    time_loop(2_000_000, |_| {
        black_box(s.pick(black_box(rails), u64::MAX, |_| 0, |n| n - 1));
    })
}

fn arm_lane(sim: &Sim, period: u64) {
    sim.schedule_in(netsim::time::ns(period), move |sim| arm_lane(sim, period));
}

/// `netsim.engine`: schedule + dispatch cost with `lanes` self-rescheduling
/// events in flight, each `period` ns ahead (one frame's wire time plus the
/// link latency: how far ahead the fabric schedules). A wheel quantum then
/// holds `lanes x quantum / period` entries and an insert walks `lanes` of
/// them in the slot being drained, as in the workload it stands for.
fn engine_ns_per_event(lanes: usize, period: u64) -> f64 {
    let sim = Sim::new(1);
    for k in 0..lanes as u64 {
        let first = netsim::time::ns(1 + k * period / lanes as u64);
        sim.schedule_in(first, move |sim| arm_lane(sim, period));
    }
    // Let every lane settle into the wheel before timing.
    sim.run_with_limit(Some(SimTime(4 * period)));
    let (t0, e0) = (Instant::now(), sim.events_executed());
    let mut limit = sim.now().as_nanos();
    while t0.elapsed().as_millis() < 250 || sim.events_executed() - e0 < 50_000 {
        limit += 8 * period;
        sim.run_with_limit(Some(SimTime(limit)));
    }
    t0.elapsed().as_nanos() as f64 / (sim.events_executed() - e0) as f64
}

/// `netsim.net`: push `frames` frames of the workload's sizes through
/// NIC -> link -> switch -> link -> NIC into sink handlers, no protocol on
/// either end. Returns host ns per frame.
fn hop_ns_per_frame(spec: ClusterSpec, frames: u64, frags: &[usize]) -> f64 {
    const BATCH: u64 = 256;
    let sim = Sim::new(spec.fault_seed);
    let clean = ClusterSpec {
        fault: Default::default(),
        ..spec
    };
    let cluster = build_cluster(&sim, clean);
    let sunk = Rc::new(Cell::new(0u64));
    for nic in cluster.nics.iter().flatten() {
        let sunk = sunk.clone();
        cluster
            .net
            .set_rx_handler(*nic, move |_, _| sunk.set(sunk.get() + 1));
    }
    let templates: Vec<Frame> = frags.iter().map(|&len| data_frame(len)).collect();
    let (nodes, rails) = (spec.nodes as u64, spec.rails as u64);
    let t0 = Instant::now();
    let mut sent = 0u64;
    while sent < frames {
        for _ in 0..BATCH.min(frames - sent) {
            let src = sent % nodes;
            let dst = (src + 1 + (sent / nodes) % (nodes - 1)) % nodes;
            let rail = (sent / (nodes * (nodes - 1))) % rails;
            let mut f = templates[(sent % templates.len() as u64) as usize].clone();
            f.src = MacAddr::new(src as u16, rail as u8);
            f.dst = MacAddr::new(dst as u16, rail as u8);
            cluster
                .net
                .nic_send(cluster.nics[src as usize][rail as usize], f);
            sent += 1;
        }
        sim.run();
    }
    let ns = t0.elapsed().as_nanos() as f64 / frames as f64;
    cluster.net.clear_handlers();
    assert_eq!(sunk.get(), frames, "fabric replay lost frames");
    ns
}

/// Every per-layer metric of one workload, in [`PER_LAYER`] order.
///
/// `plain` and `traced` are the same reduced run without and with spans;
/// `planes_fps` is the frames/wall-s of the all-planes-on run when the
/// workload has one.
pub fn per_layer(
    shape: &Shape,
    plain: &(RunOut, Facts),
    traced: &(RunOut, Facts),
    spans: &Spans,
    planes_fps: Option<f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    let (out, facts) = traced;
    let udp = shape.fabric.is_none();
    let p = &out.proto;
    let frames = out.frames as f64;
    let ops = out.attempted as f64;
    let wall_ns = out.wall_s * 1e9;
    let plain_ns_per_frame = div(plain.0.wall_s * 1e9, plain.0.frames as f64);
    let frags = fragments(shape.op_bytes);
    let agg = |n| spans.agg(n);

    let (encode_ns, decode_ns) = codec_ns(shape.op_bytes);
    let wire_bytes: usize = frags
        .iter()
        .map(|&len| {
            if udp {
                HEADER_LEN + len
            } else {
                data_frame(len).wire_len()
            }
        })
        .sum();

    let retx = p.retransmits() as f64;
    let issue = agg(Sp::EpWrite).total_ns + agg(Sp::EpRead).total_ns;

    let sim = shape.fabric.is_some();
    let hop_ns = shape.fabric.map_or(0.0, |spec| {
        hop_ns_per_frame(spec, out.frames.min(400_000), &frags)
    });
    // Events per wheel quantum, as measured; and how far ahead this fabric
    // schedules a frame's next hop.
    let density = div(facts.events as f64, out.transport_ns as f64 / QUANTUM_NS);
    let (ns_per_event, sparse_ns) = shape.fabric.map_or((0.0, 0.0), |spec| {
        let wire = netsim::Dur::for_bytes(data_frame(frags[0]).wire_len(), spec.link.bytes_per_sec);
        let period = (wire + spec.link.latency).as_nanos();
        let lanes = ((density * period as f64 / QUANTUM_NS).round() as usize).max(1);
        (
            engine_ns_per_event(lanes, period),
            engine_ns_per_event(SPARSE_LANES, SPARSE_PERIOD_NS),
        )
    });
    let plain_events_per_ns = div(plain.1.events as f64, plain.0.wall_s * 1e9);

    let net = &facts.net;
    let drops = net.drops_overflow + net.drops_loss + net.drops_link_down + net.corrupted;
    let [windows, idle, advance_ns, exchange_ns, sharded_ns] = facts.shard.map(|v| v as f64);
    let [sends, nexts, nexts_empty, advances] = facts.bp_calls.map(|v| v as f64);
    let [polls, polls_empty] = facts.polls.map(|v| v as f64);

    let values = [
        encode_ns,
        decode_ns,
        div(wire_bytes as f64, shape.op_bytes as f64),
        p.extra_frame_fraction(),
        div(retx, p.data_frames_sent as f64),
        div(p.dup_frames_recv as f64, retx),
        div(p.retransmits_rto as f64, retx),
        p.ooo_fraction(),
        p.reorder_peak as f64,
        p.rx_interrupt_fraction(),
        facts.cpu_util_pct,
        div(issue as f64, ops),
        div(facts.allocs.0 as f64, ops),
        div(facts.allocs.0 as f64, frames),
        div(facts.allocs.1 as f64, ops),
        if sim {
            plain_ns_per_frame - hop_ns
        } else {
            0.0
        },
        recvseq_ns(p.ooo_fraction()),
        order_ns(&frags, shape.op_bytes),
        txring_ns(frags[0], shape.rails),
        sched_ns(shape.rails),
        facts.p50_by_kind[1] as f64 / 1e3,
        facts.p50_by_kind[0] as f64 / 1e3,
        facts.events as f64,
        div(facts.events as f64, frames),
        plain_events_per_ns * 1e9,
        facts.pending_peak as f64,
        ns_per_event,
        sparse_ns,
        plain_events_per_ns * ns_per_event,
        hop_ns,
        net.channel_frames as f64,
        div(drops as f64, net.channel_frames as f64),
        net.drops_overflow as f64,
        windows,
        div(idle, windows),
        div(advance_ns, sharded_ns),
        div(exchange_ns, sharded_ns),
        div(
            agg(Sp::BpSend).total_ns as f64,
            agg(Sp::BpSend).count as f64,
        ),
        div(
            agg(Sp::BpNext).total_ns as f64,
            agg(Sp::BpNext).count as f64,
        ),
        div(nexts_empty, nexts),
        div(sends + nexts + advances, frames),
        div(agg(Sp::BpAdvance).total_ns as f64, wall_ns),
        facts.rx_errors as f64,
        div(
            agg(Sp::WireWrite).total_ns as f64,
            agg(Sp::WireWrite).count as f64,
        ),
        div(agg(Sp::WirePoll).self_ns as f64, frames),
        div(polls, frames),
        div(polls_empty, polls),
        if udp {
            div(retx, p.data_frames_sent as f64)
        } else {
            0.0
        },
        facts.storm_suppressed as f64,
        planes_fps.map_or(0.0, |fps| {
            div(fps, div(plain.0.frames as f64, plain.0.wall_s))
        }),
        div(out.wall_s, plain.0.wall_s),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect()
}
