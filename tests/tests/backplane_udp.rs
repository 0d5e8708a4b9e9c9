//! Integration tests for the UDP backplane: the same `WireEndpoint`
//! protocol driver the simulator backend runs, over real loopback
//! sockets — round-trip integrity, MTU-boundary fragmentation, and a
//! sim-vs-UDP stats fingerprint that must match exactly in every
//! timing-independent counter.

use bytes::Bytes;
use me_trace::{FlightConfig, FlightRecorder, SpanRecorder};
use multiedge::backplane::{
    drive_with, Backplane, BpRx, ChaosConfig, DriveLimits, FaultBackplane, SimBackplane, UdpFabric,
    UdpFabricStats, UdpRxError, WireEndpoint,
};
use multiedge::{OpFlags, ProtoStats, SystemConfig};
use netsim::{build_cluster, Sim};
use proptest::prelude::*;
use std::cell::Cell;

/// Wall-clock stall budget per test drive: loopback traffic completes in
/// milliseconds; hitting this means the protocol wedged.
const BUDGET_NS: u64 = 20_000_000_000;

fn patterned(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ salt)
        .collect()
}

fn proto_config() -> SystemConfig {
    SystemConfig::two_link_1g(2)
}

/// Drive until node 0's send direction is fully acknowledged.
fn drive_until_quiesced<BA: Backplane, BB: Backplane>(
    a: &mut WireEndpoint,
    bpa: &mut BA,
    b: &mut WireEndpoint,
    bpb: &mut BB,
) {
    drive_with(
        a,
        bpa,
        b,
        bpb,
        |_, _, _, _| {},
        |a, b| {
            a.conn_state(0).acked == a.conn_state(0).next_seq
                && b.conn_state(0).acked == b.conn_state(0).next_seq
        },
        DriveLimits::budget(BUDGET_NS),
    )
    .expect("loopback transfer quiesces");
}

#[test]
fn udp_round_trip_preserves_data_and_invariants() {
    let cfg = proto_config();
    let fabric = UdpFabric::new(2).expect("bind loopback sockets");
    let (mut bpa, mut bpb) = fabric.pair();
    let spans = SpanRecorder::enabled(1 << 12);
    let (mut a, mut b) = WireEndpoint::pair(&cfg.proto, 2, &spans);

    // A mix of sizes and ordering flags, including a multi-fragment
    // ordered write and a fenced notify, all to distinct addresses.
    let writes: Vec<(u64, Vec<u8>, OpFlags)> = vec![
        (0x1000, patterned(100, 1), OpFlags::RELAXED),
        (0x2000, patterned(10_000, 2), OpFlags::ORDERED),
        (0x8000, patterned(40_000, 3), OpFlags::RELAXED),
        (0x20_000, patterned(5_000, 4), OpFlags::ORDERED_NOTIFY),
    ];
    let mut ops = Vec::new();
    for (addr, data, flags) in &writes {
        ops.push(a.write(0, &mut bpa, *addr, Bytes::from(data.clone()), *flags));
    }
    drive_until_quiesced(&mut a, &mut bpa, &mut b, &mut bpb);

    // Payload integrity at the receiver.
    for (addr, data, _) in &writes {
        assert_eq!(&b.mem_read(*addr, data.len()), data, "payload at {addr:#x}");
    }
    // Every op completed, in issue order (cumulative acks are ordered).
    let completed: Vec<u64> = std::iter::from_fn(|| a.take_completion().map(|c| c.op)).collect();
    assert_eq!(completed, ops);
    // The fenced notify arrived exactly once.
    let n = b
        .take_notification()
        .expect("notify flag produces a notification");
    assert_eq!((n.from_node, n.addr, n.len), (0, 0x20_000, 5_000));
    assert!(b.take_notification().is_none());

    // Loss-free sequence/fence invariants on both sides.
    let sa = a.conn_state(0);
    assert_eq!(sa.acked, sa.next_seq, "send window fully acknowledged");
    let sb = b.conn_state(0);
    assert_eq!(sb.cumulative, sa.next_seq, "receiver admitted every frame");
    assert!(!sb.has_gap, "no receive gap after quiesce");
    assert_eq!(sb.fence_buffered, 0, "no fragment stuck behind a fence");
    assert_eq!(
        sb.applied_below,
        writes.len() as u64,
        "all ops applied in fence order"
    );
    // Nothing was mangled on the wire.
    let f = fabric.stats();
    assert_eq!(f.frames_corrupt_dropped + f.frames_malformed_dropped, 0);
    let stats = a.stats();
    assert_eq!(stats.ops_write, writes.len() as u64);
    assert_eq!(stats.retransmits(), 0, "loopback run must be loss-free");
    assert_eq!(b.stats().dup_frames_recv, 0);
}

#[test]
fn udp_mtu_boundary_fragmentation() {
    let cfg = proto_config();
    let mtu = frame::MAX_PAYLOAD;
    // (payload length, expected frame count): exactly one MTU stays one
    // frame, one byte more must fragment, one byte less stays one frame.
    let cases = [
        (mtu - 1, 1u64),
        (mtu, 1),
        (mtu + 1, 2),
        (2 * mtu, 2),
        (2 * mtu + 1, 3),
    ];
    for (len, frames) in cases {
        let fabric = UdpFabric::new(1).expect("bind loopback sockets");
        let (mut bpa, mut bpb) = fabric.pair();
        let spans = SpanRecorder::disabled();
        let (mut a, mut b) = WireEndpoint::pair(&cfg.proto, 1, &spans);
        let data = patterned(len, len as u8);
        a.write(
            0,
            &mut bpa,
            0x4000,
            Bytes::from(data.clone()),
            OpFlags::RELAXED,
        );
        drive_until_quiesced(&mut a, &mut bpa, &mut b, &mut bpb);
        assert_eq!(b.mem_read(0x4000, len), data, "payload of length {len}");
        let s = a.stats();
        assert_eq!(
            (s.data_frames_sent, s.data_bytes_sent),
            (frames, len as u64),
            "fragmentation of a {len}-byte write (MTU {mtu})"
        );
        let f = fabric.stats();
        assert_eq!(f.frames_corrupt_dropped + f.frames_malformed_dropped, 0);
    }
}

/// Three frames no legitimate peer sends, each of which used to reach
/// connection state: an unknown connection id, a read request whose
/// payload is too short to carry a length, and one asking for more than a
/// response's `u32` total length can describe.
fn hostile_frames() -> [frame::Frame; 3] {
    let frame = |kind, conn, payload: Vec<u8>| frame::Frame {
        src: frame::MacAddr::new(0, 0),
        dst: frame::MacAddr::new(1, 0),
        header: frame::FrameHeader {
            kind,
            flags: frame::FrameFlags::FIRST_FRAGMENT | frame::FrameFlags::LAST_FRAGMENT,
            conn,
            seq: 0,
            ack: 0,
            op_id: 0,
            op_total_len: 0,
            fence_floor: 0,
            remote_addr: 0x1000,
            aux: 0x2000,
        },
        payload: Bytes::from(payload),
    };
    [
        frame(frame::FrameKind::Data, 7, vec![1, 2, 3]),
        frame(frame::FrameKind::ReadRequest, 0, vec![9, 9, 9]),
        frame(
            frame::FrameKind::ReadRequest,
            0,
            (u64::from(u32::MAX) + 1).to_le_bytes().to_vec(),
        ),
    ]
}

/// Nothing that arrives off a wire may panic an endpoint: both drivers drop
/// the hostile frames at admission, count them, and carry on.
#[test]
fn hostile_frames_are_rejected_by_both_drivers() {
    // Simulator driver: frames injected straight into node 1's NIC.
    let cfg = std::rc::Rc::new(SystemConfig::one_link_1g(2));
    let sim = Sim::new(cfg.seed);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let eps = multiedge::Endpoint::for_cluster(&sim, &cluster, cfg);
    let (c0, _) = multiedge::Endpoint::connect(&eps[0], &eps[1]);
    for f in hostile_frames() {
        cluster.net.inject_nic_rx(cluster.nics[1][0], f, false);
    }
    let a = eps[0].clone();
    sim.spawn("writer", async move {
        let h = a
            .write_bytes(c0, 0x4000, patterned(5_000, 7), OpFlags::RELAXED)
            .await;
        h.wait().await;
    });
    sim.run().expect_quiescent();
    assert_eq!(eps[1].rx_rejected(), 3);
    assert_eq!(eps[1].mem_read(0x4000, 5_000), patterned(5_000, 7));

    // Wire driver: the same frames as raw datagrams over loopback.
    let fabric = UdpFabric::new(1).expect("bind loopback sockets");
    let (mut bpa, mut bpb) = fabric.pair();
    let (mut a, mut b) = WireEndpoint::pair(&proto_config().proto, 1, &SpanRecorder::disabled());
    for f in hostile_frames() {
        let mut bytes = Vec::new();
        frame::encode_frame_into(&f, &mut bytes);
        fabric
            .inject_raw(0, 0, &bytes)
            .expect("inject over loopback");
    }
    for _ in 0..2000 {
        b.poll(&mut bpb);
        if b.rx_rejected() == 3 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(b.rx_rejected(), 3, "fabric stats: {:?}", fabric.stats());
    a.write(
        0,
        &mut bpa,
        0x4000,
        Bytes::from(patterned(5_000, 7)),
        OpFlags::RELAXED,
    );
    drive_until_quiesced(&mut a, &mut bpa, &mut b, &mut bpb);
    assert_eq!(b.mem_read(0x4000, 5_000), patterned(5_000, 7));
    assert!(a.take_completion().is_some());
}

/// A data frame of the 0 → 1 direction on rail 0, told apart by `seq`.
fn data_frame(seq: u32, payload: Vec<u8>) -> frame::Frame {
    frame::Frame {
        src: frame::MacAddr::new(0, 0),
        dst: frame::MacAddr::new(1, 0),
        header: frame::FrameHeader {
            kind: frame::FrameKind::Data,
            flags: frame::FrameFlags::empty(),
            conn: 0,
            seq,
            ack: 0,
            op_id: 0,
            op_total_len: payload.len() as u32,
            fence_floor: 0,
            remote_addr: 0x1000,
            aux: 0,
        },
        payload: Bytes::from(payload),
    }
}

/// Two forged data frames no legitimate peer sends: seq `window` and seq
/// 2^27, both at or past `cumulative + window` while node 1 has received
/// nothing. Their op id is in range, so only the window check stops them.
fn past_window_frames(window: u64) -> [frame::Frame; 2] {
    [window as u32, 1 << 27].map(|seq| data_frame(seq, vec![0xEE; 16]))
}

/// Virtual time the forged frames are given to be received before the
/// write is issued: past the receive interrupt's coalescing.
const SETTLE_NS: u64 = 1_000_000;

/// Node 1's NACKs and the virtual instant the write from node 0
/// completes, on the simulator driver, with `forged` injected into node
/// 1's NIC first. Asserts each forged frame is rejected before the write
/// is issued, and the write's bytes arrive.
fn sim_driver_write(cfg: &SystemConfig, forged: &[frame::Frame]) -> (u64, u64) {
    let (sim, cluster, eps, conns) = integration_tests::rig(cfg.clone());
    for f in forged {
        cluster
            .net
            .inject_nic_rx(cluster.nics[1][0], f.clone(), false);
    }
    sim.advance_until(netsim::SimTime(SETTLE_NS), || false);
    assert_eq!(
        eps[1].rx_rejected(),
        forged.len() as u64,
        "simulator driver admitted a frame past the window"
    );
    let (a, c0, clock) = (eps[0].clone(), conns[0][1].unwrap(), sim.clone());
    let writer = sim.spawn("writer", async move {
        let h = a
            .write_bytes(c0, 0x4000, patterned(5_000, 9), OpFlags::RELAXED)
            .await;
        h.wait().await;
        clock.now().as_nanos()
    });
    sim.run().expect_quiescent();
    assert_eq!(eps[1].mem_read(0x4000, 5_000), patterned(5_000, 9));
    let done_ns = writer.try_take().expect("the write completed");
    (eps[1].stats().nacks_sent, done_ns)
}

/// The same on the wire driver, over the simulated fabric so that its
/// clock is virtual and its end time exact.
fn wire_driver_write(cfg: &SystemConfig, forged: &[frame::Frame]) -> (u64, u64) {
    let sim = Sim::new(cfg.seed);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let (mut bpa, mut bpb) = SimBackplane::pair(&sim, &cluster);
    let spans = SpanRecorder::disabled();
    let (mut a, mut b) = WireEndpoint::pair(&cfg.proto, bpa.rails(), &spans);
    for f in forged {
        cluster
            .net
            .inject_nic_rx(cluster.nics[1][0], f.clone(), false);
    }
    while bpb.now_ns() < SETTLE_NS {
        bpb.advance(SETTLE_NS);
        b.poll(&mut bpb);
    }
    assert_eq!(
        b.rx_rejected(),
        forged.len() as u64,
        "wire driver admitted a frame past the window"
    );
    a.write(
        0,
        &mut bpa,
        0x4000,
        Bytes::from(patterned(5_000, 9)),
        OpFlags::RELAXED,
    );
    drive_until_quiesced(&mut a, &mut bpa, &mut b, &mut bpb);
    assert_eq!(b.mem_read(0x4000, 5_000), patterned(5_000, 9));
    assert!(a.take_completion().is_some());
    (b.stats().nacks_sent, bpa.now_ns())
}

/// Nothing off a wire costs more than the window: a data frame at or past
/// `cumulative + window` is dropped at admission by both drivers and
/// counted, sends no NACK, and leaves no trace — the write that follows
/// ends at the clean run's instant. Before the window check, the frame at
/// 2^27 grew the receive bitmap to cover the distance and every NACK
/// check walked it; the rejection is asserted before anything runs, so
/// that cannot hang this test, and the whole test has a wall-clock bound.
#[test]
fn frames_past_the_receive_window_are_rejected_by_both_drivers() {
    let started = std::time::Instant::now();
    let cfg = SystemConfig::one_link_1g(2);
    let forged = past_window_frames(cfg.proto.window);
    let sim = [&forged[..], &[]].map(|f| sim_driver_write(&cfg, f));
    let wire = [&forged[..], &[]].map(|f| wire_driver_write(&cfg, f));
    for [(nacks, forged_ns), (_, clean_ns)] in [sim, wire] {
        assert_eq!(nacks, 0, "a NACK went out for a rejected frame");
        assert_eq!(forged_ns, clean_ns, "the rejected frames moved the run");
    }
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "took {:?}",
        started.elapsed()
    );
}

/// A coalesced receive is refused segment by segment: what is wrong with
/// one segment costs that segment alone, with the typed error a lone
/// datagram would have raised, and every segment is accounted for. What is
/// delivered was copied once, as one piece: the payloads lie in one
/// allocation, as far apart as their segments arrived.
#[test]
fn udp_hostile_coalesced_datagram_is_refused_segment_by_segment() {
    const SEG: usize = frame::HEADER_LEN + 64;
    // Three well-formed 64-byte-payload frames back to back, seq 0..3.
    let clean: Vec<u8> = (0..3u32)
        .flat_map(|seq| frame::encode_frame(&data_frame(seq, patterned(64, seq as u8))))
        .collect();
    assert_eq!(clean.len(), 3 * SEG);

    // (what is done to the bytes, segments they arrive as, seqs delivered)
    type Case = (&'static str, fn(&mut Vec<u8>), u64, &'static [u32]);
    let cases: [Case; 4] = [
        ("untouched", |_| {}, 3, &[0, 1, 2]),
        // One flipped payload bit in the middle segment.
        (
            "corrupt",
            |b| b[SEG + frame::HEADER_LEN + 5] ^= 0x10,
            3,
            &[0, 2],
        ),
        // A fourth segment too short to hold a header.
        (
            "malformed",
            |b| b.extend_from_slice(&[0xAB; frame::HEADER_LEN - 1]),
            4,
            &[0, 1, 2],
        ),
        // The first segment's `payload_len` (bytes 44..46) runs 100 bytes
        // past its own end, into the second segment.
        (
            "malformed",
            |b| b[44..46].copy_from_slice(&164u16.to_le_bytes()),
            3,
            &[1, 2],
        ),
    ];
    for (kind, mangle, segments, survivors) in cases {
        let fabric = UdpFabric::new(1).expect("bind loopback sockets");
        let (_bpa, mut bpb) = fabric.pair();
        let mut bytes = clean.clone();
        mangle(&mut bytes);
        fabric
            .inject_segments(0, 0, SEG, &bytes)
            .expect("inject over loopback");
        let accounted = |s: UdpFabricStats| {
            s.delivered
                + s.frames_corrupt_dropped
                + s.frames_malformed_dropped
                + s.unknown_source_dropped
        };
        let got = collect_until(&mut bpb, |_| accounted(fabric.stats()) == segments);
        let s = fabric.stats();
        assert_eq!(
            accounted(s),
            segments,
            "{kind}: every segment is counted once: {s:?}"
        );
        let seqs: Vec<u32> = got.iter().map(|rx| rx.frame.header.seq).collect();
        assert_eq!(
            seqs, survivors,
            "{kind}: the neighbours are delivered, in order"
        );
        for pair in got.windows(2) {
            let at = |rx: &BpRx| rx.frame.payload.as_ptr() as usize;
            let apart = (pair[1].frame.header.seq - pair[0].frame.header.seq) as usize * SEG;
            assert_eq!(
                at(&pair[1]) - at(&pair[0]),
                apart,
                "{kind}: one allocation per receive"
            );
        }
        assert_eq!(
            (s.recv_coalesced, s.unknown_source_dropped),
            (1, 0),
            "{kind}: {s:?}"
        );
        let dropped = segments - survivors.len() as u64;
        let err = fabric.take_rx_error();
        match kind {
            "untouched" => assert!(err.is_none(), "{err:?}"),
            "corrupt" => {
                assert_eq!(s.frames_corrupt_dropped, dropped, "{s:?}");
                assert!(
                    matches!(
                        err,
                        Some(UdpRxError::Corrupt {
                            node: 1,
                            rail: 0,
                            ..
                        })
                    ),
                    "{err:?}"
                );
            }
            _ => {
                assert_eq!(s.frames_malformed_dropped, dropped, "{s:?}");
                assert!(
                    matches!(
                        err,
                        Some(UdpRxError::Malformed {
                            node: 1,
                            rail: 0,
                            ..
                        })
                    ),
                    "{err:?}"
                );
            }
        }
        assert!(
            fabric.take_rx_error().is_none(),
            "{kind}: exactly one typed error"
        );
    }
}

/// A fragment held behind a fence outlives the receive it came in: its
/// payload is a slice of that receive's own allocation, not of the buffer
/// the next `recvmsg` fills, so it reads back intact once the fence opens.
#[test]
fn udp_fence_held_fragment_outlives_its_receive() {
    let fabric = UdpFabric::new(1).expect("bind loopback sockets");
    let (_bpa, mut bpb) = fabric.pair();
    let (_a, mut b) = WireEndpoint::pair(&proto_config().proto, 1, &SpanRecorder::disabled());
    let whole = frame::FrameFlags::FIRST_FRAGMENT | frame::FrameFlags::LAST_FRAGMENT;
    // Op 1 may not be applied before op 0, and arrives first.
    let mut fenced = data_frame(1, patterned(1_000, 0x11));
    fenced.header.op_id = 1;
    fenced.header.flags = whole | frame::FrameFlags::FENCE_BACKWARD;
    fenced.header.remote_addr = 0x2000;
    let mut first = data_frame(0, patterned(1_000, 0x22));
    first.header.flags = whole;
    let mut poll_b_until = |done: &dyn Fn(&WireEndpoint) -> bool| {
        for _ in 0..2000 {
            b.poll(&mut bpb);
            if done(&b) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("never got there, fabric stats: {:?}", fabric.stats());
    };

    fabric
        .inject_raw(0, 0, &frame::encode_frame(&fenced))
        .expect("inject over loopback");
    poll_b_until(&|b| b.conn_state(0).fence_buffered == 1);
    // Later receives of the same size go through the same buffer.
    for fill in [0xEE, 0xDD] {
        let junk = vec![fill; frame::HEADER_LEN + 1_000];
        fabric
            .inject_raw(0, 0, &junk)
            .expect("inject over loopback");
    }
    poll_b_until(&|_| fabric.stats().frames_malformed_dropped == 2);
    fabric
        .inject_raw(0, 0, &frame::encode_frame(&first))
        .expect("inject over loopback");
    poll_b_until(&|b| b.conn_state(0).applied_below == 2);

    assert_eq!(b.conn_state(0).fence_buffered, 0);
    assert_eq!(b.mem_read(0x1000, 1_000), patterned(1_000, 0x22));
    assert_eq!(
        b.mem_read(0x2000, 1_000),
        patterned(1_000, 0x11),
        "the held fragment"
    );
}

/// Timing-independent protocol counters that must agree exactly between a
/// run over the simulator and a run over real sockets. Timing-dependent
/// counters (out-of-order arrivals, explicit-ack counts, delayed-ack
/// behavior) legitimately differ between virtual and wall-clock time and
/// are deliberately excluded.
fn fingerprint(s: &ProtoStats) -> [u64; 9] {
    [
        s.ops_write,
        s.ops_read,
        s.bytes_written,
        s.data_frames_sent,
        s.data_bytes_sent,
        s.data_frames_recv,
        s.data_bytes_recv,
        s.retransmits(),
        s.dup_frames_recv,
    ]
}

/// The fingerprint workload: streaming writes one way plus a notified
/// request/reply, exercising fragmentation, fences and both directions.
fn run_fingerprint<BA: Backplane, BB: Backplane>(
    proto: &multiedge::ProtoConfig,
    rails: usize,
    bpa: &mut BA,
    bpb: &mut BB,
) -> ([u64; 9], [u64; 9]) {
    let spans = SpanRecorder::disabled();
    let (mut a, mut b) = WireEndpoint::pair(proto, rails, &spans);
    for i in 0..6u64 {
        let flags = if i % 2 == 0 {
            OpFlags::RELAXED
        } else {
            OpFlags::ORDERED
        };
        a.write(
            0,
            bpa,
            0x1_0000 + i * 0x1_0000,
            Bytes::from(patterned(10_000, i as u8)),
            flags,
        );
    }
    a.write(
        0,
        bpa,
        0x10_0000,
        Bytes::from(patterned(2_000, 0xEE)),
        OpFlags::RELAXED.with_notify(),
    );
    // A remote read of memory the peer already holds, and a write followed
    // by a backward-fenced read of the same bytes: the read must observe
    // the write on every backend.
    b.mem_write(0x30_0000, &patterned(7_000, 0x51));
    a.read(0, bpa, 0x31_0000, 0x30_0000, 7_000, OpFlags::RELAXED);
    a.write(
        0,
        bpa,
        0x40_0000,
        Bytes::from(patterned(12_000, 0x52)),
        OpFlags::RELAXED,
    );
    a.read(
        0,
        bpa,
        0x41_0000,
        0x40_0000,
        12_000,
        OpFlags::RELAXED.with_fence_backward(),
    );
    let replied = Cell::new(false);
    drive_with(
        &mut a,
        bpa,
        &mut b,
        bpb,
        |_a, _bpa, b, bpb| {
            if b.take_notification().is_some() {
                replied.set(true);
                b.write(
                    0,
                    bpb,
                    0x20_0000,
                    Bytes::from(patterned(2_000, 0xFF)),
                    OpFlags::RELAXED,
                );
            }
        },
        |a, b| replied.get() && a.quiesced() && b.quiesced(),
        DriveLimits::budget(BUDGET_NS),
    )
    .expect("fingerprint workload quiesces");
    assert_eq!(a.mem_read(0x31_0000, 7_000), patterned(7_000, 0x51));
    assert_eq!(a.mem_read(0x41_0000, 12_000), patterned(12_000, 0x52));
    let reads = std::iter::from_fn(|| a.take_completion())
        .filter(|c| c.kind == multiedge::OpKind::Read)
        .count();
    assert_eq!(reads, 2, "both reads complete through the completion queue");
    (fingerprint(&a.stats()), fingerprint(&b.stats()))
}

/// Drain node `node`'s receive path until `pred` holds or ~2s elapse —
/// loopback delivery is fast but not instantaneous, and the receive
/// counters only move when a poll drains the sockets.
fn poll_until<B: Backplane>(bp: &mut B, mut pred: impl FnMut() -> bool) -> bool {
    let mut held = false;
    collect_until(bp, |_| {
        held = pred();
        held
    });
    held
}

/// Everything `bp`'s node receives until `done` (asked after each sweep,
/// given what has arrived so far) or ~2s elapse.
fn collect_until<B: Backplane>(bp: &mut B, mut done: impl FnMut(&[BpRx]) -> bool) -> Vec<BpRx> {
    let mut got = Vec::new();
    for _ in 0..2000 {
        got.extend(std::iter::from_fn(|| bp.next()));
        if done(&got) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    got
}

/// A checksum-damaged datagram must be counted as a *corrupt* drop —
/// distinct from malformed — and surface a typed receive error, never a
/// decoded frame.
#[test]
fn udp_corrupt_datagram_splits_from_malformed() {
    let fabric = UdpFabric::new(1).expect("bind loopback sockets");
    let (_bpa, mut bpb) = fabric.pair();

    // A structurally valid frame with one payload byte flipped after
    // encoding: the header parses, the checksum does not.
    let f = data_frame(7, vec![0xAB; 64]);
    let mut bytes = Vec::new();
    frame::encode_frame_into(&f, &mut bytes);
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    fabric
        .inject_raw(0, 0, &bytes)
        .expect("inject over loopback");
    assert!(
        poll_until(&mut bpb, || fabric.stats().frames_corrupt_dropped == 1),
        "corrupt datagram must be counted, stats: {:?}",
        fabric.stats()
    );
    assert!(
        matches!(
            fabric.take_rx_error(),
            Some(UdpRxError::Corrupt {
                node: 1,
                rail: 0,
                ..
            })
        ),
        "checksum damage surfaces as a typed Corrupt error"
    );

    // Garbage that is not a MultiEdge frame at all: malformed, not corrupt.
    fabric
        .inject_raw(0, 0, &[0xDE, 0xAD, 0xBE, 0xEF])
        .expect("inject over loopback");
    assert!(
        poll_until(&mut bpb, || fabric.stats().frames_malformed_dropped == 1),
        "malformed datagram must be counted, stats: {:?}",
        fabric.stats()
    );
    assert!(matches!(
        fabric.take_rx_error(),
        Some(UdpRxError::Malformed {
            node: 1,
            rail: 0,
            ..
        })
    ));
    let s = fabric.stats();
    assert_eq!(
        (
            s.frames_corrupt_dropped,
            s.frames_malformed_dropped,
            s.delivered
        ),
        (1, 1, 0),
        "the two decode-failure classes stay distinct and deliver nothing"
    );
}

/// The receive-error log is bounded: overflowing it must evict the oldest
/// entries *and say so*. Before the `rx_errors_dropped` counter, evictions
/// were silent — a burst of errors could vanish without any trace that the
/// log had wrapped.
#[test]
fn udp_rx_error_ring_overflow_is_counted_not_silent() {
    const RING: u64 = 32;
    const INJECTED: u64 = RING + 9;
    let fabric = UdpFabric::new(1).expect("bind loopback sockets");
    let (_bpa, mut bpb) = fabric.pair();
    for i in 0..INJECTED {
        // Malformed on purpose: not a decodable frame, so each datagram
        // parks exactly one typed error.
        fabric
            .inject_raw(0, 0, &[0xDE, 0xAD, i as u8])
            .expect("inject over loopback");
        // Inject-then-drain one at a time: UDP datagrams may be dropped
        // under burst even on loopback, and the test needs an exact count.
        assert!(
            poll_until(&mut bpb, || fabric.stats().frames_malformed_dropped
                == i + 1),
            "malformed datagram {i} must be counted, stats: {:?}",
            fabric.stats()
        );
    }
    let s = fabric.stats();
    assert_eq!(s.frames_malformed_dropped, INJECTED);
    assert_eq!(
        s.rx_errors_dropped,
        INJECTED - RING,
        "every eviction from the bounded error log must be counted"
    );
    // The ring keeps exactly the newest RING errors.
    let drained = std::iter::from_fn(|| fabric.take_rx_error()).count() as u64;
    assert_eq!(drained, RING, "log retains exactly its bound");
    assert_eq!(
        fabric.stats().rx_errors_dropped,
        INJECTED - RING,
        "draining the log does not change the overflow count"
    );
}

/// A datagram from a socket that is not the expected peer must be dropped
/// with a typed `UnknownSource` error — not decoded under a reconstructed
/// (and wrong) source MAC.
#[test]
fn udp_unknown_source_is_rejected_and_typed() {
    let fabric = UdpFabric::new(1).expect("bind loopback sockets");
    let (_bpa, mut bpb) = fabric.pair();
    let foreign = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind foreign socket");
    let foreign_addr = foreign.local_addr().unwrap();
    foreign
        .send_to(&[1, 2, 3], fabric.local_addr(1, 0))
        .expect("send from foreign socket");
    assert!(
        poll_until(&mut bpb, || fabric.stats().unknown_source_dropped == 1),
        "foreign datagram must be counted, stats: {:?}",
        fabric.stats()
    );
    match fabric.take_rx_error() {
        Some(UdpRxError::UnknownSource {
            node: 1,
            rail: 0,
            from,
        }) => {
            assert_eq!(from, foreign_addr, "the error names the offender");
        }
        other => panic!("expected UnknownSource, got {other:?}"),
    }
    assert_eq!(fabric.stats().delivered, 0);
}

/// The fabric counts its own system calls and failures, and an endpoint's
/// poll pays only for its own node's sockets. A sweep asks `poll(2)` which
/// sockets hold anything and reads only those, so no receive finds its
/// socket empty. An endpoint's poll sweeps once: the sweep asks once per
/// round of receives — at most one round per datagram — and once more to
/// learn that nothing is left, and the `next` that finds its queue drained
/// takes that last answer instead of sweeping again. So over a run driven
/// by polls alone `poll_calls <= delivered + polls`.
#[test]
fn udp_pingpong_counts_syscalls_and_sweeps_only_its_own_node() {
    const ROUNDS: u64 = 200;
    let fabric = UdpFabric::new(1).expect("bind loopback sockets");
    let (mut bpa, mut bpb) = fabric.pair();
    let (mut a, mut b) = WireEndpoint::pair(&proto_config().proto, 1, &SpanRecorder::disabled());
    let notify = OpFlags::RELAXED.with_notify();
    let ball = Bytes::from(patterned(64, 9));
    let start = std::time::Instant::now();
    let mut polls = 0u64;
    // Poll `ep` (never `advance`, which sweeps the whole fabric by
    // contract) until the ball lands.
    let mut await_ball = |ep: &mut WireEndpoint, bp: &mut multiedge::UdpBackplane| {
        while ep.take_notification().is_none() {
            ep.poll(bp);
            polls += 1;
            assert!(
                start.elapsed().as_nanos() < u128::from(BUDGET_NS),
                "ping-pong wedged, stats: {:?}",
                fabric.stats()
            );
        }
    };
    for _ in 0..ROUNDS {
        a.write(0, &mut bpa, 0x1000, ball.clone(), notify);
        await_ball(&mut b, &mut bpb);
        b.write(0, &mut bpb, 0x1000, ball.clone(), notify);
        await_ball(&mut a, &mut bpa);
    }
    let s = fabric.stats();
    assert_eq!((s.tx_failed, s.rx_socket_errors), (0, 0), "{s:?}");
    assert!(s.delivered >= 2 * ROUNDS, "{s:?}");
    assert!(
        s.recv_calls - s.recv_would_block - s.rx_socket_errors <= s.delivered,
        "every datagram read was delivered, as one segment or several: {s:?}"
    );
    assert_eq!(
        s.recv_would_block, 0,
        "a receive on a socket poll(2) did not report: {s:?}"
    );
    assert!(
        s.poll_calls <= s.delivered + polls,
        "{} readiness polls for {} frames over {polls} polls: a sweep was repeated to learn \
         that it was over",
        s.poll_calls,
        s.delivered
    );
}

/// A flight-recorder post-mortem taken on a faulted wire path must carry
/// the transport's live state as context: the chaos interposer's tallies
/// and the UDP fabric's counters plus its parked receive-error log —
/// state that never flows through the event ring but explains it.
#[test]
fn flight_dump_carries_chaos_and_fabric_context() {
    let fabric = UdpFabric::new(1).expect("bind loopback sockets");
    let (bpa, mut bpb) = fabric.pair();
    let flight = FlightRecorder::enabled(FlightConfig::default());
    fabric.set_flight(&flight);
    let mut a = FaultBackplane::new(bpa, 0, &ChaosConfig::new(5).with_drop(1.0));
    a.set_flight(&flight);

    // One frame eaten by the interposer, one malformed datagram parked in
    // the fabric's error log: both must show up in the dump's context.
    let f = data_frame(1, vec![0; 8]);
    assert!(a.send(0, f), "chaos drop still reports accepted");
    fabric
        .inject_raw(0, 0, &[1, 2, 3])
        .expect("inject over loopback");
    assert!(
        poll_until(&mut bpb, || fabric.stats().frames_malformed_dropped == 1),
        "malformed datagram must be counted, stats: {:?}",
        fabric.stats()
    );

    let doc = flight.force_dump(123).expect("forced dump");
    let ctx = doc.get("context").expect("dump carries transport context");
    let chaos = ctx.get("chaos.node0").expect("chaos interposer context");
    assert_eq!(chaos.get("frames_seen").unwrap().as_u64(), Some(1));
    assert_eq!(chaos.get("dropped").unwrap().as_u64(), Some(1));
    let fab = ctx.get("udp_fabric").expect("fabric context");
    assert_eq!(
        fab.get("frames_malformed_dropped").unwrap().as_u64(),
        Some(1)
    );
    for counter in [
        "send_calls",
        "poll_calls",
        "recv_calls",
        "recv_would_block",
        "recv_coalesced",
        "tx_failed",
        "rx_socket_errors",
    ] {
        assert!(fab.get(counter).is_some(), "{counter} rides along");
    }
    let errors = fab.get("rx_errors").unwrap().items().unwrap();
    assert_eq!(errors.len(), 1, "the parked error log rides along");
    assert_eq!(errors[0].get("kind").unwrap().as_str(), Some("malformed"));
    // And the dump text renders/parses cleanly with the context embedded.
    let parsed = me_trace::Json::parse(&doc.render_pretty()).unwrap();
    assert_eq!(parsed, doc);
}

/// The advance idle loop spends its spin and yield budget, then sleeps:
/// with nothing arriving it waits out the deadline and reaches it.
#[test]
fn udp_advance_idle_loop_respects_deadline_with_spin_budget() {
    let fabric = UdpFabric::new(1).expect("bind loopback sockets");
    let (mut bpa, _bpb) = fabric.pair();
    let start = std::time::Instant::now();
    let until = bpa.now_ns() + 5_000_000;
    let reached = bpa.advance(until);
    assert!(
        reached >= until,
        "advance reaches the deadline on a quiet fabric"
    );
    let elapsed = start.elapsed();
    assert!(
        elapsed >= std::time::Duration::from_millis(4),
        "the idle loop must actually wait out the deadline, waited {elapsed:?}"
    );
}

#[test]
fn sim_and_udp_backends_agree_on_protocol_fingerprint() {
    let cfg = proto_config();

    let sim = Sim::new(cfg.seed);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let (mut sa, mut sb) = SimBackplane::pair(&sim, &cluster);
    let sim_fp = run_fingerprint(&cfg.proto, 2, &mut sa, &mut sb);

    let fabric = UdpFabric::new(2).expect("bind loopback sockets");
    let (mut ua, mut ub) = fabric.pair();
    let udp_fp = run_fingerprint(&cfg.proto, 2, &mut ua, &mut ub);

    assert_eq!(
        sim_fp, udp_fp,
        "identical protocol code must move identical frames over both backends \
         (ops, bytes, frames, retransmits, dups)"
    );
    // And the run must be clean on both: no recovery machinery involved.
    assert_eq!(sim_fp.0[1], 2, "both reads counted");
    assert_eq!(sim_fp.0[7], 0, "no retransmits on a loss-free fabric");
    assert_eq!(sim_fp.0[8], 0, "no duplicates on a loss-free fabric");
}

/// Encoded lengths `send_batch` is fed: a bare header, one byte, a small
/// op, one byte under the MTU, the MTU.
const BATCH_PAYLOADS: [usize; 5] = [0, 1, 64, frame::MAX_PAYLOAD - 1, frame::MAX_PAYLOAD];

/// The sends a batch needs, worked out from the rule alone: on each rail,
/// in order, a send takes the longest run whose segments all have the first
/// one's length except a shorter last, within 64 segments and one datagram.
fn maximal_runs(rails: usize, frames: &[(usize, usize)]) -> u64 {
    let mut calls = 0;
    for rail in 0..rails {
        let lens: Vec<usize> = frames.iter().filter(|f| f.0 == rail).map(|f| f.1).collect();
        let mut i = 0;
        while i < lens.len() {
            let (mut n, mut bytes) = (1, lens[i]);
            while i + n < lens.len()
                && lens[i + n - 1] == lens[i]
                && lens[i + n] <= lens[i]
                && n < 64
                && bytes + lens[i + n] <= 65_507
            {
                bytes += lens[i + n];
                n += 1;
            }
            calls += 1;
            i += n;
        }
    }
    calls
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batches are invisible to the protocol: whatever mix of rails and
    /// sizes goes into `send_batch` comes out of the peer's `next` as the
    /// same frames, byte for byte, each rail's in the order given — in as
    /// few sends as the segmentation rule allows. Frames come in stretches
    /// of one rail and size, long enough to meet the 64-segment and the
    /// one-datagram limit, and at most 80 a case, which a default socket
    /// buffer holds.
    #[test]
    fn udp_send_batch_is_invisible_to_the_protocol(
        rails in 1usize..4,
        stretches in proptest::collection::vec(
            (0usize..3, 0usize..BATCH_PAYLOADS.len(), 1usize..71),
            1..6,
        ),
    ) {
        let fabric = UdpFabric::new(rails).expect("bind loopback sockets");
        let (mut bpa, mut bpb) = fabric.pair();
        let sent: Vec<(usize, frame::Frame)> = stretches
            .iter()
            .flat_map(|&(rail, size, repeat)| std::iter::repeat_n((rail, size), repeat))
            .take(80)
            .enumerate()
            .map(|(i, (rail, size))| {
                (rail % rails, data_frame(i as u32, patterned(BATCH_PAYLOADS[size], i as u8)))
            })
            .collect();
        let lens: Vec<(usize, usize)> =
            sent.iter().map(|(r, f)| (*r, frame::HEADER_LEN + f.payload.len())).collect();

        let mut batch = sent.clone();
        prop_assert_eq!(bpa.send_batch(&mut batch), sent.len());
        prop_assert!(batch.is_empty(), "the batch is drained");

        let got: Vec<(usize, frame::Frame)> = collect_until(&mut bpb, |got| got.len() == sent.len())
            .into_iter()
            .map(|rx| (rx.rail as usize, rx.frame))
            .collect();
        let s = fabric.stats();
        for rail in 0..rails {
            let on_rail = |v: &[(usize, frame::Frame)]| -> Vec<(u32, Bytes)> {
                v.iter()
                    .filter(|(r, _)| *r == rail)
                    .map(|(_, f)| (f.header.seq, f.payload.clone()))
                    .collect()
            };
            prop_assert_eq!(on_rail(&got), on_rail(&sent), "rail {}: {:?}", rail, s);
        }
        prop_assert_eq!(s.send_calls, maximal_runs(rails, &lens), "{:?} {:?}", lens, s);
        prop_assert_eq!(
            (s.delivered, s.tx_failed, s.recv_would_block, s.frames_corrupt_dropped + s.frames_malformed_dropped),
            (sent.len() as u64, 0, 0, 0),
            "{:?}", s
        );
    }
}

/// The stream the batch path exists for — 2 rails, 32 KiB one-way writes,
/// four outstanding, as `perf`'s `udp_stream` issues them: the fabric's own
/// counters show the mechanism. A window release or an ack's worth of
/// frames leaves in one send per rail and arrives in one receive, and no
/// receive finds its socket empty.
#[test]
fn udp_stream_spends_a_fraction_of_a_system_call_per_frame() {
    const OPS: u64 = 256;
    const DEPTH: u64 = 4;
    let fabric = UdpFabric::new(2).expect("bind loopback sockets");
    let (mut bpa, mut bpb) = fabric.pair();
    let (mut a, mut b) = WireEndpoint::pair(
        &multiedge::ProtoConfig::default(),
        2,
        &SpanRecorder::disabled(),
    );
    let data = Bytes::from(patterned(32 << 10, 0x5A));
    let (issued, completed) = (Cell::new(0u64), Cell::new(0u64));
    drive_with(
        &mut a,
        &mut bpa,
        &mut b,
        &mut bpb,
        |a, bpa, _, _| {
            while a.take_completion().is_some() {
                completed.set(completed.get() + 1);
            }
            while issued.get() < OPS && issued.get() - completed.get() < DEPTH {
                let slot = issued.get() % DEPTH;
                a.write(
                    0,
                    bpa,
                    0x10_0000 + slot * (32 << 10),
                    data.clone(),
                    OpFlags::RELAXED,
                );
                issued.set(issued.get() + 1);
            }
        },
        |_, _| completed.get() == OPS,
        DriveLimits::budget(BUDGET_NS),
    )
    .expect("stream completes");
    assert_eq!(b.mem_read(0x10_0000, 32 << 10), &data[..]);

    let frames = a.stats().data_frames_sent;
    let s = fabric.stats();
    println!(
        "stream cell: {frames} data frames, {} delivered; send_calls {} ({:.3}/frame), \
         recv_calls {} ({} coalesced), poll_calls {}; system calls per delivered frame {:.3}",
        s.delivered,
        s.send_calls,
        s.send_calls as f64 / frames as f64,
        s.recv_calls,
        s.recv_coalesced,
        s.poll_calls,
        (s.send_calls + s.recv_calls + s.poll_calls) as f64 / s.delivered as f64,
    );
    assert_eq!(
        frames,
        OPS * 23,
        "a 32 KiB write is 22 full frames and a 918-byte one"
    );
    assert!(
        s.send_calls <= frames / 4,
        "{} sends for {frames} frames: {s:?}",
        s.send_calls
    );
    assert_eq!((s.recv_would_block, s.tx_failed), (0, 0), "{s:?}");
    assert_eq!(
        a.stats().retransmits() + b.stats().retransmits(),
        0,
        "loopback run must be loss-free"
    );
}
