//! The protocol core alone, under a hostile channel: two [`ProtoCore`]s
//! joined by an in-memory channel and a manual clock — no simulator, no
//! sockets, no driver. The channel drops, duplicates, reorders and delays
//! frames from a generated script, then turns fair; timers fire from the
//! core's own arm requests.
//!
//! Checked against a map-based reference (every op writes or reads its own
//! region, so the model is order-independent): receiver memory equals the
//! model and every byte is admitted exactly once, a backward-fenced write is
//! applied after every earlier write and nothing passes a forward fence, a
//! backward-fenced read observes the write before it, in-flight never
//! exceeds the window, every timer is armed at most once until it fires,
//! every op completes exactly once after the channel turns fair, and the
//! core rejects none of its peer's frames.

use bytes::Bytes;
use frame::Frame;
use multiedge::config::{NACK_DELAY, RTO_INITIAL};
use multiedge::proto::{Effect, Host, Observers, Op, ProtoCore, TimerKind};
use multiedge::{Notification, OpFlags, Payload, ProtoConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Fragment size: small, so a 150-byte op is already multi-fragment.
const FRAG: usize = 48;
const WINDOW: u64 = 8;
const RAILS: usize = 2;
/// Node 1 memory no op writes: what unfenced reads fetch.
const STATIC_BASE: u64 = 0x100_0000;
/// One frame's flight time once the channel is fair.
const FAIR_DELAY_NS: u64 = 10_000;

fn pattern(len: usize, salt: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(31) ^ salt.wrapping_mul(0x9d)) as u8)
        .collect()
}

/// Region of op `i` (in the target's memory for a write, in the initiator's
/// for a read).
fn region(i: usize) -> u64 {
    0x1000 * (i as u64 + 1)
}

enum Event {
    Frame {
        to: usize,
        rail: usize,
        frame: Frame,
    },
    Timer {
        node: usize,
        timer: TimerKind,
    },
}

/// The channel and the clock: a time-ordered event queue plus the script of
/// per-frame fates, consumed one per frame sent; past its end the channel
/// is fair. `drops` names frames, by sending node and sequence number, one
/// lost copy per entry whatever the script says: a frame named twice loses
/// its first copy and its first retransmission. With `fifo` set the
/// fates are ignored: frame `i` takes `fifo[i % len]` ns, but never
/// arrives before the frame sent ahead of it on its rail (`rail_last`).
struct World {
    now: u64,
    queue: BTreeMap<(u64, u64), Event>,
    next_id: u64,
    fates: Vec<u8>,
    sent: usize,
    drops: Vec<(usize, u32)>,
    fifo: Vec<u64>,
    rail_last: [u64; RAILS],
}

impl World {
    fn new(fates: Vec<u8>, drops: &[(usize, u32)], fifo: Vec<u64>) -> Self {
        World {
            now: 0,
            queue: BTreeMap::new(),
            next_id: 0,
            fates,
            sent: 0,
            drops: drops.to_vec(),
            fifo,
            rail_last: [0; RAILS],
        }
    }
}

impl World {
    fn push(&mut self, at: u64, e: Event) {
        self.queue.insert((at, self.next_id), e);
        self.next_id += 1;
    }

    fn send(&mut self, to: usize, rail: usize, frame: Frame) {
        let fate = self.fates.get(self.sent).copied();
        self.sent += 1;
        let key = (1 - to, frame.header.seq);
        if let Some(i) = self.drops.iter().position(|&d| d == key) {
            self.drops.remove(i);
            return;
        }
        if !self.fifo.is_empty() {
            let delay = self.fifo[(self.sent - 1) % self.fifo.len()];
            let at = (self.now + delay).max(self.rail_last[rail]);
            self.rail_last[rail] = at;
            return self.push(at, Event::Frame { to, rail, frame });
        }
        let Some(fate) = fate else {
            return self.push(self.now + FAIR_DELAY_NS, Event::Frame { to, rail, frame });
        };
        // Low three bits pick the fate, the rest the delay (0–217 µs, so
        // frames overtake each other freely).
        let delay = 1_000 + u64::from(fate >> 3) * 7_000;
        match fate & 7 {
            0 | 1 => {} // dropped
            2 => {
                let again = Event::Frame {
                    to,
                    rail,
                    frame: frame.clone(),
                };
                self.push(self.now + delay, Event::Frame { to, rail, frame });
                self.push(self.now + 2 * delay + 500, again);
            }
            _ => self.push(self.now + delay, Event::Frame { to, rail, frame }),
        }
    }
}

/// What one node's effects land in.
#[derive(Default)]
struct Outbox {
    done: Vec<u64>,
    notes: Vec<Notification>,
    armed: BTreeSet<u8>,
}

struct TestHost<'a> {
    node: usize,
    world: &'a mut World,
    out: &'a mut Outbox,
}

impl Host<u64> for TestHost<'_> {
    fn max_payload(&self) -> usize {
        FRAG
    }
    fn tx_backlog_ns(&self, _rail: usize) -> u64 {
        0
    }
    fn draw(&self, _n: usize) -> usize {
        0
    }
    fn perform(&mut self, _obs: &Observers, now_ns: u64, effects: &mut Vec<Effect<u64>>) {
        assert_eq!(now_ns, self.world.now);
        for e in effects.drain(..) {
            match e {
                Effect::Send { rail, frame } => self.world.send(1 - self.node, rail, frame),
                Effect::Arm { conn, timer, at_ns } => {
                    assert_eq!(conn, 0);
                    assert!(at_ns >= now_ns, "timer armed in the past");
                    assert!(
                        self.out.armed.insert(timer as u8),
                        "{timer:?} armed twice before firing"
                    );
                    let node = self.node;
                    self.world.push(at_ns, Event::Timer { node, timer });
                }
                Effect::OpDone { token, .. } => self.out.done.push(token),
                Effect::Notify(n) => self.out.notes.push(n),
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OpSpec {
    read: bool,
    len: usize,
    flags: OpFlags,
}

fn arb_op() -> impl Strategy<Value = OpSpec> {
    (
        0u8..3,
        1usize..150,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(kind, len, fence_backward, fence_forward, notify)| OpSpec {
                read: kind == 0,
                len,
                flags: OpFlags {
                    fence_backward,
                    fence_forward,
                    notify,
                },
            },
        )
}

/// Run `ops` from node 0 to node 1 over a channel scripted by `fates`.
fn run(ops: &[OpSpec], fates: Vec<u8>, force_ordered: bool) -> Result<(), String> {
    let proto = ProtoConfig {
        window: WINDOW,
        ack_every: 3,
        nack_resend_burst: 3,
        force_ordered,
        ..ProtoConfig::default()
    };
    let mut cores: Vec<ProtoCore<u64>> = (0..2)
        .map(|n| ProtoCore::new(n, proto.clone(), RAILS))
        .collect();
    cores[0].connect(1, 0);
    cores[1].connect(0, 0);
    let mut out = [Outbox::default(), Outbox::default()];
    let mut world = World::new(fates, &[], Vec::new());

    // The reference: what each write must leave at node 1, what each read
    // must fetch into node 0.
    cores[1].memory.write(STATIC_BASE, &pattern(256, 0xabc));
    let mut expect: Vec<Vec<u8>> = Vec::new();
    let mut last_write: Option<usize> = None;
    for (i, op) in ops.iter().enumerate() {
        let mut host = TestHost {
            node: 0,
            world: &mut world,
            out: &mut out[0],
        };
        let (req, data) = if op.read {
            // A backward-fenced read of the latest write must observe it;
            // any other read fetches memory no op touches.
            let fenced = op.flags.fence_backward || force_ordered;
            let (remote_addr, data) = match last_write.filter(|_| fenced) {
                Some(w) => (region(w), expect[w][..op.len.min(expect[w].len())].to_vec()),
                None => (STATIC_BASE, pattern(256, 0xabc)[..op.len].to_vec()),
            };
            let (local_addr, len) = (region(i), data.len());
            let req = Op::Read {
                local_addr,
                remote_addr,
                len,
            };
            (req, data)
        } else {
            let data = pattern(op.len, i as u64);
            last_write = Some(i);
            let req = Op::Write {
                remote_addr: region(i),
                data: Bytes::from(data.clone()).into(),
            };
            (req, data)
        };
        cores[0].issue(0, req, op.flags, i as u64, 0, 0, &mut host);
        expect.push(data);
    }

    let held = |core: &ProtoCore<u64>, i: usize| {
        core.memory.read_vec(region(i), expect[i].len()) == expect[i]
    };
    let mut seen_notes = 0;
    let mut events = 0u32;
    while step(&mut cores, &mut out, &mut world) {
        events += 1;
        prop_assert!(events < 200_000, "no quiescence after {events} events");
        for c in &cores {
            prop_assert!(c.conns()[0].in_flight() <= WINDOW, "window exceeded");
        }
        // Fence order, observed at the instant each notifying write lands.
        for note in &out[1].notes[seen_notes..] {
            let m = (note.addr / 0x1000 - 1) as usize;
            prop_assert_eq!(note.len, expect[m].len());
            let m_back = ops[m].flags.fence_backward || force_ordered;
            for (j, earlier) in ops[..m].iter().enumerate().filter(|(_, o)| !o.read) {
                if m_back || earlier.flags.fence_forward {
                    prop_assert!(held(&cores[1], j), "write {m} applied before write {j}");
                }
            }
        }
        seen_notes = out[1].notes.len();
    }

    // Liveness and exactly-once.
    let mut done = out[0].done.clone();
    done.sort_unstable();
    let all: Vec<u64> = (0..ops.len() as u64).collect();
    prop_assert_eq!(done, all, "every op completes exactly once");
    for (i, op) in ops.iter().enumerate() {
        let at = if op.read { &cores[0] } else { &cores[1] };
        prop_assert!(held(at, i), "op {i} ({op:?}) left the wrong bytes");
    }
    let bytes = |read: bool| -> u64 {
        let of_kind = ops.iter().zip(&expect).filter(|(o, _)| o.read == read);
        of_kind.map(|(_, e)| e.len() as u64).sum()
    };
    prop_assert_eq!(cores[1].stats().data_bytes_recv, bytes(false));
    prop_assert_eq!(cores[0].stats().data_bytes_recv, bytes(true));
    let notifying = ops.iter().filter(|o| !o.read && o.flags.notify).count();
    prop_assert_eq!(
        out[1].notes.len(),
        notifying,
        "one notification per notify write"
    );
    for c in &cores {
        prop_assert!(
            c.conns()[0].quiesced(),
            "not quiesced: {:?}",
            c.conns()[0].state()
        );
        prop_assert_eq!(c.rx_rejected(), 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn core_survives_a_hostile_channel(
        ops in proptest::collection::vec(arb_op(), 1..14),
        fates in proptest::collection::vec(any::<u8>(), 0..160),
        force_ordered in any::<bool>(),
    ) {
        run(&ops, fates, force_ordered)?;
    }
}

/// A host for one core fed by hand: it keeps the notifications, counts
/// the frames the core sends back, keeps the sequences of those that ask
/// for an ack and, per explicit ack, whether it is flagged `RETRANSMIT`.
#[derive(Default)]
struct Sink {
    notes: Vec<u64>,
    sent: usize,
    asks: Vec<u32>,
    acks: Vec<bool>,
}

impl Host<u64> for Sink {
    fn tx_backlog_ns(&self, _rail: usize) -> u64 {
        0
    }
    fn draw(&self, _n: usize) -> usize {
        0
    }
    fn perform(&mut self, _obs: &Observers, _now_ns: u64, effects: &mut Vec<Effect<u64>>) {
        for e in effects.drain(..) {
            match e {
                Effect::Send { frame, .. } => {
                    self.sent += 1;
                    let flags = frame.header.flags;
                    if flags.contains(frame::FrameFlags::ACK_REQUEST) {
                        self.asks.push(frame.header.seq);
                    }
                    if frame.header.kind == frame::FrameKind::Ack {
                        self.acks
                            .push(flags.contains(frame::FrameFlags::RETRANSMIT));
                    }
                }
                Effect::Notify(n) => self.notes.push(n.addr),
                Effect::Arm { .. } | Effect::OpDone { .. } => {}
            }
        }
    }
}

/// A one-fragment notifying 16-byte write of op `op` at sequence `seq`,
/// to a region of its own.
fn write_frame(seq: u64, op: u64) -> Frame {
    use frame::{FrameFlags, FrameHeader, FrameKind, MacAddr};
    let flags = FrameFlags::FIRST_FRAGMENT | FrameFlags::LAST_FRAGMENT | FrameFlags::NOTIFY;
    Frame {
        src: MacAddr::new(0, 0),
        dst: MacAddr::new(1, 0),
        header: FrameHeader {
            kind: FrameKind::Data,
            flags,
            seq: seq as u32,
            op_id: op as u32,
            op_total_len: 16,
            remote_addr: region(op as usize),
            ..FrameHeader::default()
        },
        payload: Bytes::from(vec![op as u8 + 1; 16]),
    }
}

/// A new data frame whose op id lies outside `[applied_below,
/// applied_below + window)` is dropped before it reaches the reorder
/// buffer and counted in `rx_rejected`, on both sides of the range; the
/// in-range edge, duplicates and the ops that follow go through.
#[test]
fn out_of_window_op_ids_are_rejected() {
    let proto = ProtoConfig {
        window: WINDOW,
        ..ProtoConfig::default()
    };
    let mut rx: ProtoCore<u64> = ProtoCore::new(1, proto, RAILS);
    rx.connect(0, 0);
    let mut sink = Sink::default();
    let mut now = 0;
    let mut feed = |rx: &mut ProtoCore<u64>, sink: &mut Sink, seq, op| {
        now += 1_000;
        rx.on_frame(0, write_frame(seq, op), now, now, sink);
    };
    let untouched =
        |rx: &ProtoCore<u64>, op: u64| rx.memory.read_vec(region(op as usize), 16) == [0; 16];

    // Op 0 lands: the frontier is op 1, the ops a peer can have in
    // flight are 1..=WINDOW.
    feed(&mut rx, &mut sink, 0, 0);
    assert_eq!(rx.conns()[0].state().applied_below, 1);

    // Fresh sequences carrying op ids just below and just above the range,
    // and one a wire lap away.
    feed(&mut rx, &mut sink, 1, 0);
    feed(&mut rx, &mut sink, WINDOW + 1, WINDOW + 1);
    feed(&mut rx, &mut sink, 2, 1 + WINDOW + (1 << 20));
    assert_eq!(rx.rx_rejected(), 3);
    let s = rx.conns()[0].state();
    assert_eq!((s.cumulative, s.applied_below, s.fence_buffered), (1, 1, 0));
    assert_eq!(rx.stats().data_frames_recv, 1);
    assert!(untouched(&rx, WINDOW + 1), "a rejected frame wrote memory");

    // The edge of the range is a legitimate peer's deepest op; the ops
    // before it then arrive and everything completes.
    feed(&mut rx, &mut sink, WINDOW, WINDOW);
    for op in 1..WINDOW {
        feed(&mut rx, &mut sink, op, op);
    }
    assert_eq!(rx.rx_rejected(), 3);
    assert_eq!(rx.conns()[0].state().applied_below, WINDOW + 1);

    // A retransmitted duplicate keeps its immediate ack, though its op id
    // is now below the range.
    let sent = sink.sent;
    feed(&mut rx, &mut sink, 3, 3);
    assert_eq!(rx.rx_rejected(), 3);
    assert_eq!(rx.stats().dup_frames_recv, 1);
    assert_eq!(sink.sent, sent + 1, "a duplicate is acked at once");

    // The op id rejected above is legitimate now, and completes.
    feed(&mut rx, &mut sink, WINDOW + 1, WINDOW + 1);
    assert_eq!(rx.rx_rejected(), 3);
    let expect: Vec<u64> = [0, WINDOW]
        .into_iter()
        .chain(1..WINDOW)
        .chain([WINDOW + 1])
        .map(|op| region(op as usize))
        .collect();
    assert_eq!(sink.notes, expect, "one notification per legitimate op");
    assert!(!untouched(&rx, WINDOW + 1));
    assert!(rx.conns()[0].quiesced());
}

/// A retransmission proves nothing about the frames queued behind it on its
/// rail: a transmitter that sends repairs ahead of queued data (the
/// simulator's NIC bands) lets an RTO retransmission, which carries the
/// highest sequence sent, overtake lower first transmissions. Here seq 3
/// on rail 1 leaves seq 2 missing while rail 0 still queues it; seq 5's
/// retransmission then overtakes 2 and 4 on rail 0. Were rail 0's mark
/// moved to 6, every rail would seem to have passed seq 2 and it would be
/// NACKed as lost. It is not: 2 and 4 arrive in order behind the repair,
/// the first copy of 5 arrives as a duplicate, and nothing is NACKed.
#[test]
fn an_overtaking_retransmission_proves_no_loss() {
    use frame::FrameFlags;
    let mut rx: ProtoCore<u64> = ProtoCore::new(1, ProtoConfig::default(), RAILS);
    rx.connect(0, 0);
    let mut sink = Sink::default();
    let retransmit = |seq| {
        let mut f = write_frame(seq, seq);
        f.header.flags |= FrameFlags::RETRANSMIT;
        f
    };
    let script = [
        (0, write_frame(0, 0)),
        (1, write_frame(1, 1)),
        (1, write_frame(3, 3)),
        (0, retransmit(5)),
        (0, write_frame(2, 2)),
        (0, write_frame(4, 4)),
        (1, write_frame(5, 5)),
    ];
    for (i, (rail, f)) in script.into_iter().enumerate() {
        let now = 1_000 * (i as u64 + 1);
        rx.on_frame(rail, f, now, now, &mut sink);
        assert_eq!(rx.stats().nacks_sent, 0, "frame {i} drew a NACK");
    }
    let s = rx.stats();
    assert_eq!((s.data_frames_recv, s.dup_frames_recv), (6, 1));
    let applied: Vec<u64> = [0, 1, 3, 5, 2, 4].into_iter().map(region).collect();
    assert_eq!(sink.notes, applied, "each op applied once, as it arrived");
    assert!(rx.conns()[0].quiesced());
}

/// The last fragment of a silent write asks for its ack, and it can arrive
/// first: an op's fragments are striped over the rails. Op 0's fragments
/// (seqs 0-2) arrive 2 (rail 1), then 0 and 1 (rail 0), and op 1's one
/// silent fragment (seq 3, rail 1) after them. Exactly one explicit ack
/// goes out, at seq 1's arrival, where the cumulative ack passes seq 2:
/// none when the asking fragment lands ahead of its gap, and none for
/// seq 3, whose arrival finds the request already answered.
#[test]
fn an_early_asking_fragment_is_acked_once_the_cumulative_ack_passes_it() {
    use frame::{FrameFlags, FrameHeader, FrameKind, MacAddr};
    let frag = |seq: u64, op: u64, flags: FrameFlags| Frame {
        src: MacAddr::new(0, 0),
        dst: MacAddr::new(1, 0),
        header: FrameHeader {
            kind: FrameKind::Data,
            flags,
            seq: seq as u32,
            op_id: op as u32,
            op_total_len: if op == 0 { 48 } else { 16 },
            remote_addr: region(op as usize) + 16 * (seq % 3),
            ..FrameHeader::default()
        },
        payload: Bytes::from(vec![seq as u8 + 1; 16]),
    };
    let (first, last) = (FrameFlags::FIRST_FRAGMENT, FrameFlags::LAST_FRAGMENT);
    let script = [
        (1, frag(2, 0, last | FrameFlags::ACK_REQUEST), 0),
        (0, frag(0, 0, first), 0),
        (0, frag(1, 0, FrameFlags::empty()), 1),
        (1, frag(3, 1, first | last), 1),
    ];
    let mut rx: ProtoCore<u64> = ProtoCore::new(1, ProtoConfig::default(), RAILS);
    rx.connect(0, 0);
    let mut sink = Sink::default();
    for (i, (rail, f, acks)) in script.into_iter().enumerate() {
        let now = 1_000 * (i as u64 + 1);
        rx.on_frame(rail, f, now, now, &mut sink);
        assert_eq!(rx.stats().explicit_acks_sent, acks, "after frame {i}");
    }
    assert_eq!(sink.sent, 1, "the receiver sent nothing but the one ack");
    assert_eq!(rx.conns()[0].state().cumulative, 4);
}

/// Feed `script` — (rail, seq, retransmitted) of one-fragment writes — to
/// a fresh receiver and return, per frame, the explicit acks it sent in
/// that input (`true` for one flagged `RETRANSMIT`).
fn acks_per_input(script: &[(usize, u64, bool)]) -> Vec<Vec<bool>> {
    let mut rx: ProtoCore<u64> = ProtoCore::new(1, ProtoConfig::default(), RAILS);
    rx.connect(0, 0);
    let mut sink = Sink::default();
    let mut out = Vec::new();
    for (i, &(rail, seq, retransmit)) in script.iter().enumerate() {
        let mut f = write_frame(seq, seq);
        if retransmit {
            f.header.flags |= frame::FrameFlags::RETRANSMIT;
        }
        let now = 1_000 * (i as u64 + 1);
        rx.on_frame(rail, f, now, now, &mut sink);
        out.push(std::mem::take(&mut sink.acks));
    }
    assert_eq!(rx.stats().nacks_sent, 0, "no gap here is proven");
    out
}

/// A retransmission that fills a gap moves the cumulative ack past itself
/// and is acked in its own input, flagged `RETRANSMIT` so the ack leaves
/// ahead of queued data. Seq 1 is missing between 0 (rail 0) and 2 (rail
/// 1); its repair draws exactly one flagged ack. A repair with nothing
/// beyond it (seq 3, a tail) fills no gap and draws none.
#[test]
fn a_repair_that_fills_a_gap_is_acked_at_once_as_a_repair() {
    let script = [(0, 0, false), (1, 2, false), (0, 1, true), (1, 3, true)];
    assert_eq!(
        acks_per_input(&script),
        [vec![], vec![], vec![true], vec![]]
    );
}

/// Two-rail runs reorder first transmissions all the time: a first
/// transmission that fills the same gap draws no ack of its own.
#[test]
fn a_first_transmission_that_fills_a_reorder_gap_draws_no_ack() {
    let script = [(0, 0, false), (1, 2, false), (0, 1, false)];
    assert_eq!(acks_per_input(&script), [vec![], vec![], vec![]]);
}

/// A duplicate retransmission is acked at once as before, unflagged: it
/// fills nothing, and its ack recovers a lost one.
#[test]
fn a_duplicate_retransmission_draws_an_unflagged_ack() {
    let script = [(0, 0, false), (1, 1, false), (0, 1, true)];
    assert_eq!(acks_per_input(&script), [vec![], vec![], vec![false]]);
}

/// Only a silent write alone on its connection asks, on its last fragment:
/// a notified write does not (the peer's answer carries the ack), nor does
/// a write issued behind an outstanding write or read (the ops ahead of it
/// keep frames flowing back).
#[test]
fn only_a_silent_write_alone_on_its_connection_asks_for_its_ack() {
    let write = |len| Op::Write {
        remote_addr: 0x1000,
        data: Payload::Bytes(Bytes::from(vec![7u8; len])),
    };
    let read = || Op::Read {
        local_addr: 0x1000,
        remote_addr: 0x2000,
        len: 64,
    };
    let asks = |ops: Vec<(Op, OpFlags)>| {
        let mut core = ProtoCore::<u64>::new(0, ProtoConfig::default(), RAILS);
        core.connect(1, 0);
        let mut sink = Sink::default();
        for (op, flags) in ops {
            core.issue(0, op, flags, 0, 0, 0, &mut sink);
        }
        sink.asks
    };
    let (silent, notify) = (OpFlags::RELAXED, OpFlags::RELAXED.with_notify());
    let three_frags = 3 * frame::MAX_PAYLOAD;
    let cases = [
        ("a lone write", vec![(write(64), silent)], vec![0]),
        (
            "its last fragment",
            vec![(write(three_frags), silent)],
            vec![2],
        ),
        ("a notified write", vec![(write(64), notify)], vec![]),
        (
            "behind a write",
            vec![(write(64), silent), (write(64), silent)],
            vec![0],
        ),
        (
            "behind a read",
            vec![(read(), silent), (write(64), silent)],
            vec![],
        ),
    ];
    for (case, ops, want) in cases {
        assert_eq!(asks(ops), want, "{case}");
    }
}

/// Two connected cores (default protocol, fragments of [`FRAG`] bytes) over
/// a fair channel that loses a copy of a frame per entry in `drops`.
fn lossy_pair(drops: &[(usize, u32)]) -> (Vec<ProtoCore<u64>>, [Outbox; 2], World) {
    let mut cores: Vec<ProtoCore<u64>> = (0..2)
        .map(|n| ProtoCore::new(n, ProtoConfig::default(), RAILS))
        .collect();
    cores[0].connect(1, 0);
    cores[1].connect(0, 0);
    let world = World::new(Vec::new(), drops, Vec::new());
    (cores, [Outbox::default(), Outbox::default()], world)
}

/// Deliver the next event; false once the queue is empty.
fn step(cores: &mut [ProtoCore<u64>], out: &mut [Outbox; 2], world: &mut World) -> bool {
    let Some((&key, _)) = world.queue.first_key_value() else {
        return false;
    };
    let ev = world.queue.remove(&key).expect("first key");
    world.now = key.0;
    let node = match &ev {
        Event::Frame { to, .. } => *to,
        Event::Timer { node, .. } => *node,
    };
    let mut host = TestHost {
        node,
        world,
        out: &mut out[node],
    };
    match ev {
        Event::Frame { rail, frame, .. } => {
            cores[node].on_frame(rail, frame, key.0, key.0, &mut host);
        }
        Event::Timer { timer, .. } => {
            host.out.armed.remove(&(timer as u8));
            cores[node].on_timer(0, timer, key.0, &mut host);
        }
    }
    true
}

/// A write from memory sends the bytes its source held at issue. The
/// application overwrites the source as soon as `issue` returns (where the
/// simulator's write future resolves), and the first copies of an in-page
/// fragment (seq 0) and of the fragment that straddles the page boundary
/// (seq 2) are lost: their retransmissions must still carry the old bytes.
/// Here the source's two pages were written one at a time, so the
/// straddler is a copy.
#[test]
fn a_write_sends_its_source_as_of_issue() {
    write_sends_its_source_as_of_issue(false);
}

/// The same, with the source written in one go, so its two pages are one
/// run and the straddler is a slice of it: the overwrite copies each page
/// out of the run the payloads hold.
#[test]
fn a_write_from_a_run_sends_its_source_as_of_issue() {
    write_sends_its_source_as_of_issue(true);
}

fn write_sends_its_source_as_of_issue(run: bool) {
    // Five fragments: two in page 3, one across the boundary, two in page 4.
    const SRC: u64 = 0x4000 - 100;
    const DST: u64 = 0x9000;
    let (old, new) = (pattern(200, 1), pattern(200, 2));
    let (mut cores, mut out, mut world) = lossy_pair(&[(0, 0), (0, 2)]);
    if run {
        cores[0].memory.write(SRC, &old);
    } else {
        cores[0].memory.write(SRC, &old[..100]);
        cores[0].memory.write(SRC + 100, &old[100..]);
    }
    let src = Payload::Memory {
        addr: SRC,
        len: 200,
    };
    let cut: Vec<Bytes> = cores[0].memory.fragments(src.clone(), FRAG).collect();
    let adjacent = cut[2].as_ptr() == cut[1].as_ptr().wrapping_add(FRAG);
    assert_eq!(
        adjacent, run,
        "the straddler is a slice iff the source is a run"
    );
    drop(cut);
    let mut host = TestHost {
        node: 0,
        world: &mut world,
        out: &mut out[0],
    };
    let op = Op::Write {
        remote_addr: DST,
        data: src,
    };
    cores[0].issue(0, op, OpFlags::RELAXED, 7, 0, 0, &mut host);
    cores[0].memory.write(SRC, &new);
    while step(&mut cores, &mut out, &mut world) {}

    assert_eq!(out[0].done, [7]);
    assert!(world.drops.is_empty(), "both planned losses happened");
    let s = cores[0].stats();
    assert_eq!(s.retransmits_nack + s.retransmits_rto, 2);
    assert_eq!(
        cores[1].memory.read_vec(DST, 200),
        old,
        "the peer got the issue-time bytes"
    );
    assert_eq!(
        cores[0].memory.read_vec(SRC, 200),
        new,
        "the sender keeps its own write"
    );
    assert!(cores.iter().all(|c| c.conns()[0].quiesced()));
}

/// A served read returns the bytes as of the serve. The reader asks for a
/// region and, right behind the request, writes new bytes over it; the
/// target serves the read, then applies the write, and the first copy of
/// the response's first fragment is lost, so its retransmission leaves
/// after the overwrite.
#[test]
fn a_served_read_returns_its_source_as_of_the_serve() {
    const AT: u64 = 0x8000 + 10;
    const LOCAL: u64 = 0x2_0000;
    let (old, new) = (pattern(100, 3), pattern(100, 4));
    let (mut cores, mut out, mut world) = lossy_pair(&[(1, 0)]);
    cores[1].memory.write(AT, &old);
    let mut host = TestHost {
        node: 0,
        world: &mut world,
        out: &mut out[0],
    };
    let read = Op::Read {
        local_addr: LOCAL,
        remote_addr: AT,
        len: 100,
    };
    cores[0].issue(0, read, OpFlags::RELAXED, 1, 0, 0, &mut host);
    let write = Op::Write {
        remote_addr: AT,
        data: Bytes::from(new.clone()).into(),
    };
    cores[0].issue(0, write, OpFlags::RELAXED, 2, 0, 0, &mut host);

    // Up to the overwrite: the read is served, its response not complete.
    while cores[1].memory.read_vec(AT, 100) != new {
        assert!(
            step(&mut cores, &mut out, &mut world),
            "the write never landed"
        );
    }
    assert!(
        !out[0].done.contains(&1),
        "the read completed before the overwrite"
    );
    while step(&mut cores, &mut out, &mut world) {}

    out[0].done.sort_unstable();
    assert_eq!(out[0].done, [1, 2]);
    assert!(world.drops.is_empty(), "the planned loss happened");
    assert!(cores[1].stats().retransmits_nack + cores[1].stats().retransmits_rto >= 1);
    assert_eq!(
        cores[0].memory.read_vec(LOCAL, 100),
        old,
        "the reader got the bytes as of the serve"
    );
    assert!(cores.iter().all(|c| c.conns()[0].quiesced()));
}

/// The core owns its armed timers: an issue arms the RTO at the instant
/// `next_deadline` reports, `fire_due` fires nothing before it and the
/// timer at it, and an abort disarms every timer.
#[test]
fn the_core_owns_its_armed_timers() {
    let proto = ProtoConfig::default();
    let rto = RTO_INITIAL.as_nanos();
    let mut core = ProtoCore::<u64>::new(0, proto, RAILS);
    core.connect(1, 0);
    let mut host = Sink::default();
    assert_eq!(core.next_deadline(), None);
    let data = Payload::Bytes(Bytes::from(vec![7u8; 64]));
    let write = Op::Write {
        remote_addr: 0x1000,
        data,
    };
    core.issue(0, write, OpFlags::RELAXED, 0, 1_000, 1_000, &mut host);
    let due = 1_000 + rto;
    assert_eq!(core.next_deadline(), Some(due), "the RTO, armed at issue");
    assert!(
        !core.fire_due(due - 1, due - 1, &mut host),
        "nothing is due yet"
    );
    assert!(core.fire_due(due, due, &mut host));
    assert_eq!(
        core.stats().retransmits_rto,
        1,
        "no ack came back: the RTO resent"
    );
    assert_eq!(
        core.stats(),
        core.conns()[0].stats(),
        "the node's counters are its one connection's"
    );
    assert!(
        core.next_deadline().is_some_and(|d| d > due),
        "re-armed, backed off"
    );
    assert_eq!(core.abort_pending(0), vec![0]);
    assert_eq!(core.next_deadline(), None);
}

/// A loss is NACKed at the arrival that proves it. Node 0 writes four
/// fragments round-robin over the two rails, and the first copy of seq 1
/// (rail 1) is lost. Seq 3 then arrives on rail 1 behind it: every rail has
/// delivered a later sequence, so seq 1 was lost, not overtaken, and node 1
/// NACKs it right then instead of `NACK_DELAY` later. One retransmission
/// repairs it.
#[test]
fn a_loss_every_rail_has_passed_is_nacked_at_once() {
    let (mut cores, mut out, mut world) = lossy_pair(&[(0, 1)]);
    let mut host = TestHost {
        node: 0,
        world: &mut world,
        out: &mut out[0],
    };
    let write = Op::Write {
        remote_addr: 0x1000,
        data: Bytes::from(pattern(4 * FRAG, 5)).into(),
    };
    cores[0].issue(0, write, OpFlags::RELAXED, 9, 0, 0, &mut host);
    let rails: Vec<(usize, u32)> = world
        .queue
        .values()
        .filter_map(|e| match e {
            Event::Frame { rail, frame, .. } => Some((*rail, frame.header.seq)),
            Event::Timer { .. } => None,
        })
        .collect();
    assert_eq!(rails, [(0, 0), (0, 2), (1, 3)], "seq 1 went out on rail 1");

    let mut nacked_at = None;
    while step(&mut cores, &mut out, &mut world) {
        let rx = cores[1].stats();
        if rx.nacks_sent > 0 && nacked_at.is_none() {
            nacked_at = Some((world.now, rx.data_frames_recv));
        }
    }
    assert_eq!(
        nacked_at,
        Some((FAIR_DELAY_NS, 3)),
        "NACKed when seq 3 arrived, the third frame in"
    );
    assert_eq!(out[0].done, [9]);
    let (tx, rx) = (cores[0].stats(), cores[1].stats());
    assert_eq!(rx.nacks_sent, 1);
    assert_eq!((tx.retransmits_nack, tx.retransmits_rto), (1, 0));
    assert_eq!(rx.dup_frames_recv, 0);
    assert_eq!(
        cores[1].memory.read_vec(0x1000, 4 * FRAG),
        pattern(4 * FRAG, 5)
    );
    assert!(cores.iter().all(|c| c.conns()[0].quiesced()));
}

/// Node 0 writes four fragments, seqs `base..base + 4`, at the current
/// instant, and a copy of seq `base + 1` is lost per count of `lost` (its
/// first copy, then its retransmissions); then every event runs out.
/// Returns the instants, counted from the write, at which node 1 sent
/// NACKs. Round robin puts `base + 1` and `base + 3` on one rail, so the
/// loss is proven when `base + 3` arrives, one flight time in.
fn nacks_for_a_loss(
    cores: &mut [ProtoCore<u64>],
    out: &mut [Outbox; 2],
    world: &mut World,
    base: u32,
    lost: usize,
) -> Vec<u64> {
    let t0 = world.now;
    world.drops.extend(std::iter::repeat_n((0, base + 1), lost));
    let data = pattern(4 * FRAG, u64::from(base));
    let mut host = TestHost {
        node: 0,
        world,
        out: &mut out[0],
    };
    let write = Op::Write {
        remote_addr: 0x1000,
        data: Bytes::from(data.clone()).into(),
    };
    cores[0].issue(0, write, OpFlags::RELAXED, 0, t0, t0, &mut host);
    let mut nacks = Vec::new();
    let mut seen = cores[1].stats().nacks_sent;
    while step(cores, out, world) {
        let sent = cores[1].stats().nacks_sent;
        nacks.extend((seen..sent).map(|_| world.now - t0));
        seen = sent;
    }
    assert!(world.drops.is_empty(), "every planned loss happened");
    assert_eq!(cores[1].memory.read_vec(0x1000, 4 * FRAG), data);
    nacks
}

/// Node 1's repair interval, in ns.
fn repair_ns(cores: &[ProtoCore<u64>]) -> u64 {
    cores[1].conns()[0].repair_interval().as_nanos()
}

/// A lost repair is NACKed again once the measured repair round trip is
/// overdue. The first loss (seq 1) is NACKed one flight in, and its
/// retransmission is back two flights later: a 20 us sample, so the
/// interval is SRTT + 4 RTTVAR = 20 + 4 x 10 = 60 us. A later loss (seq 5)
/// whose retransmission is lost too is NACKed again 60 us after its first
/// NACK, not `NACK_DELAY` later, and nothing waits for the RTO.
#[test]
fn a_lost_repair_is_nacked_again_after_the_measured_round_trip() {
    let (mut cores, mut out, mut world) = lossy_pair(&[]);
    assert_eq!(repair_ns(&cores), NACK_DELAY.as_nanos(), "no sample yet");
    let f = FAIR_DELAY_NS;
    let nacks = nacks_for_a_loss(&mut cores, &mut out, &mut world, 0, 1);
    assert_eq!(nacks, [f]);
    assert_eq!(repair_ns(&cores), 60_000, "seeded by a 20 us repair");
    let nacks = nacks_for_a_loss(&mut cores, &mut out, &mut world, 4, 2);
    assert_eq!(nacks, [f, f + 60_000], "repeated one interval later");
    let tx = cores[0].stats();
    assert_eq!((tx.retransmits_nack, tx.retransmits_rto), (3, 0));
    assert!(cores.iter().all(|c| c.conns()[0].quiesced()));
}

/// Each repeat without a fresh sample in between doubles the interval, and
/// the next sample ends the backoff. After a 20 us first repair (60 us),
/// seq 5 is lost three times: NACKs at 10, 70 and 190 us, and the
/// retransmission that finally lands answers a repeat, so it is no sample
/// (Karn) and the interval stays doubled twice, 240 us. Seq 9's repair is
/// a first-time one again, another 20 us sample: RTTVAR falls to 7.5 us
/// and the interval to 20 + 4 x 7.5 = 50 us.
#[test]
fn the_repair_interval_doubles_per_repeat_and_resets_on_a_sample() {
    let (mut cores, mut out, mut world) = lossy_pair(&[]);
    let f = FAIR_DELAY_NS;
    nacks_for_a_loss(&mut cores, &mut out, &mut world, 0, 1);
    assert_eq!(repair_ns(&cores), 60_000);
    let nacks = nacks_for_a_loss(&mut cores, &mut out, &mut world, 4, 3);
    assert_eq!(nacks, [f, f + 60_000, f + 180_000], "60 us, then 120 us");
    assert_eq!(repair_ns(&cores), 240_000, "two repeats, no sample");
    let nacks = nacks_for_a_loss(&mut cores, &mut out, &mut world, 8, 1);
    assert_eq!(nacks, [f]);
    assert_eq!(repair_ns(&cores), 50_000, "a sample ends the backoff");
    assert_eq!(cores[0].stats().retransmits_rto, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Skew across rails is not loss. Each rail delivers in order, each
    /// frame after its own delay of up to 500 us — so one rail can deliver
    /// a whole window before the other delivers its first frame — and
    /// nothing is lost: no NACK may be sent, nothing retransmitted, and
    /// the repair interval never leaves `NACK_DELAY`.
    #[test]
    fn per_rail_fifo_skew_is_never_nacked(
        ops in proptest::collection::vec(arb_op(), 1..14),
        delays in proptest::collection::vec(0u64..500_000, 1..64),
    ) {
        let proto = ProtoConfig {
            window: WINDOW,
            ack_every: 3,
            ..ProtoConfig::default()
        };
        let mut cores: Vec<ProtoCore<u64>> = (0..2)
            .map(|n| ProtoCore::new(n, proto.clone(), RAILS))
            .collect();
        cores[0].connect(1, 0);
        cores[1].connect(0, 0);
        let mut out = [Outbox::default(), Outbox::default()];
        let mut world = World::new(Vec::new(), &[], delays);
        cores[1].memory.write(STATIC_BASE, &pattern(256, 0xabc));
        for (i, op) in ops.iter().enumerate() {
            let mut host = TestHost { node: 0, world: &mut world, out: &mut out[0] };
            let req = match op.read {
                true => Op::Read { local_addr: region(i), remote_addr: STATIC_BASE, len: op.len },
                false => Op::Write {
                    remote_addr: region(i),
                    data: Bytes::from(pattern(op.len, i as u64)).into(),
                },
            };
            cores[0].issue(0, req, op.flags, i as u64, 0, 0, &mut host);
        }
        while step(&mut cores, &mut out, &mut world) {
            for c in &cores {
                let repair = c.conns()[0].repair_interval();
                prop_assert_eq!(repair, NACK_DELAY, "no proven gap, yet a repair interval");
            }
        }

        prop_assert_eq!(out[0].done.len(), ops.len(), "every op completes");
        for c in &cores {
            let s = c.stats();
            prop_assert_eq!(s.nacks_sent, 0, "skew was NACKed as loss");
            prop_assert_eq!(s.retransmits(), 0);
            prop_assert_eq!(s.dup_frames_recv, 0);
            prop_assert_eq!(c.spurious_proofs(), 0, "a FIFO rail broke a proof");
            prop_assert!(c.conns()[0].quiesced());
        }
    }
}
