//! The wire driver keeps the simulator's order: a timer fires only after
//! every frame that reached either node before it has been handed to its
//! core. The witness is a pair of in-memory backplanes that deliver at once,
//! as loopback does, on a clock the test sets: a jump of the clock past the
//! RTO between a send and the peer's next poll is a drive thread that was
//! descheduled, made exact. The same pair, told to lose the first frame
//! each node sends, witnesses that an idle drive wakes for the fence
//! watchdog.

use bytes::Bytes;
use frame::{Frame, MacAddr};
use me_trace::SpanRecorder;
use multiedge::backplane::{drive_with, Backplane, BpRx, DriveLimits, WireEndpoint, WireError};
use multiedge::config::RTO_INITIAL;
use multiedge::{OpFlags, ProtoConfig};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

/// Payload bytes per frame: a write of `ack_every` frames is acknowledged
/// the moment its last frame is received.
const MTU: usize = 1024;

/// What both ends share: the clock, each node's inbox, and whether the
/// next frame each node sends is lost.
#[derive(Default)]
struct Wire {
    now_ns: Cell<u64>,
    inbox: [RefCell<VecDeque<BpRx>>; 2],
    drop_next: [Cell<bool>; 2],
}

/// One node's end of a [`Wire`]: one rail, delivery at once, no loss
/// unless its [`Wire::drop_next`] flag is set.
struct MemBackplane {
    wire: Rc<Wire>,
    node: usize,
}

fn pair() -> (MemBackplane, MemBackplane) {
    let wire = Rc::new(Wire::default());
    let end = |node| MemBackplane {
        wire: wire.clone(),
        node,
    };
    (end(0), end(1))
}

impl Backplane for MemBackplane {
    fn rails(&self) -> usize {
        1
    }

    fn mtu(&self) -> usize {
        MTU
    }

    fn peer_mtu(&self) -> usize {
        MTU
    }

    fn local_mac(&self, rail: usize) -> MacAddr {
        MacAddr::new(self.node as u16, rail as u8)
    }

    fn peer_mac(&self, rail: usize) -> MacAddr {
        MacAddr::new(1 - self.node as u16, rail as u8)
    }

    fn now_ns(&self) -> u64 {
        self.wire.now_ns.get()
    }

    fn send(&mut self, rail: usize, frame: Frame) -> bool {
        if self.wire.drop_next[self.node].replace(false) {
            return true;
        }
        let at_ns = self.now_ns();
        let rx = BpRx {
            rail: rail as u32,
            at_ns,
            frame,
        };
        self.wire.inbox[1 - self.node].borrow_mut().push_back(rx);
        true
    }

    fn next(&mut self) -> Option<BpRx> {
        self.wire.inbox[self.node].borrow_mut().pop_front()
    }

    fn tx_backlog_ns(&self, _rail: usize) -> u64 {
        0
    }

    fn advance(&mut self, until_ns: u64) -> u64 {
        if self.wire.inbox.iter().all(|q| q.borrow().is_empty()) {
            self.wire.now_ns.set(self.now_ns().max(until_ns));
        }
        self.now_ns()
    }
}

/// Node 0 writes `ack_every` frames to node 1, and the clock then jumps
/// past node 0's RTO before node 1 has read any of them.
fn stalled_write() -> (MemBackplane, MemBackplane, WireEndpoint, WireEndpoint) {
    let proto = ProtoConfig::default();
    let (mut bpa, bpb) = pair();
    let (mut a, b) = WireEndpoint::pair(&proto, 1, &SpanRecorder::disabled());
    let data = Bytes::from(vec![0x5A; proto.ack_every as usize * MTU]);
    a.write(0, &mut bpa, 0x1000, data, OpFlags::RELAXED);
    let clock = &bpa.wire.now_ns;
    clock.set(clock.get() + 3 * RTO_INITIAL.as_nanos());
    (bpa, bpb, a, b)
}

#[test]
fn a_stalled_drive_reads_waiting_frames_before_firing_a_timeout() {
    let (mut bpa, mut bpb, mut a, mut b) = stalled_write();
    drive_with(
        &mut a,
        &mut bpa,
        &mut b,
        &mut bpb,
        |_, _, _, _| {},
        |a, _| a.conn_state(0).acked == a.conn_state(0).next_seq,
        DriveLimits::budget(1_000_000_000),
    )
    .expect("the write completes");
    assert!(a.take_completion().is_some());
    assert_eq!(b.mem_read(0x1000, MTU), vec![0x5A; MTU]);
    // Node 1 acknowledged every frame the instant it read them; a timeout
    // fired ahead of that read would have retransmitted one.
    assert_eq!(
        a.stats().retransmits_rto,
        0,
        "RTO fired ahead of a waiting ack"
    );
    assert_eq!(a.stats().retransmits() + b.stats().retransmits(), 0);
}

#[test]
fn polling_one_endpoint_fires_what_is_due_on_it() {
    // `poll` drives one endpoint: its due RTO fires, whatever the peer
    // holds unread. This is the order `drive` must not take.
    let (mut bpa, _bpb, mut a, _b) = stalled_write();
    assert!(a.poll(&mut bpa));
    assert_eq!(a.stats().retransmits_rto, 1);
}

#[test]
fn an_idle_drive_wakes_for_the_fence_watchdog() {
    // The first copy of seq 0 is lost, so the backward-fenced write behind
    // the relaxed one sits buffered at node 1 until a NACK repairs it. Seq
    // 1 proves the loss on the one rail, but the NACK sent for it at once
    // is lost too, and the repeat waits for the NACK timer. The drive has
    // nothing to do meanwhile; it must wake when the fence limit runs out,
    // not at the next protocol deadline.
    let limit_ns = 500_000;
    let (mut bpa, mut bpb) = pair();
    let (mut a, mut b) = WireEndpoint::pair(&ProtoConfig::default(), 1, &SpanRecorder::disabled());
    for node in 0..2 {
        bpa.wire.drop_next[node].set(true);
    }
    a.write(
        0,
        &mut bpa,
        0x1000,
        Bytes::from(vec![1; 2 * MTU]),
        OpFlags::RELAXED,
    );
    let fenced = OpFlags::RELAXED.with_fence_backward();
    a.write(0, &mut bpa, 0x8000, Bytes::from(vec![2; MTU]), fenced);
    let limits = DriveLimits {
        fence_stall_limit_ns: limit_ns,
        ..DriveLimits::budget(1_000_000_000)
    };
    let err = drive_with(
        &mut a,
        &mut bpa,
        &mut b,
        &mut bpb,
        |_, _, _, _| {},
        |_, _| false,
        limits,
    )
    .expect_err("the fence stall must trip");
    let WireError::FenceStallExceeded {
        stalled_ns,
        buffered,
        ..
    } = err
    else {
        panic!("expected FenceStallExceeded, got {err}");
    };
    assert!(buffered >= 1, "the fenced write is held");
    assert_eq!(
        b.stats().nacks_sent,
        1,
        "only the lost proven NACK went out"
    );
    assert!(
        stalled_ns < 2 * limit_ns,
        "tripped {stalled_ns} ns into the stall, limit {limit_ns} ns"
    );
}
