//! The two UDP-loopback workloads: `udp_stream` and `udp_pingpong`.
//!
//! One thread drives both `WireEndpoint`s of a `UdpFabric::new(2)` fabric
//! (two rails, one socket per node per rail). The harness owns the drive
//! loop, so in a traced run every `WireEndpoint::write` / `poll` call is a
//! span and every `Backplane` call underneath is a child span, recorded by
//! the [`TimedBackplane`] interposer. All ops slice one shared `Bytes`.

use crate::report::{Facts, RunOut};
use crate::spans::{Sp, Spans};
use crate::util::{last_into_slot, pattern, sample_buf, sample_ns, src_slot, status_kb, SRC_SLOTS};
use bytes::Bytes;
use frame::{Frame, MacAddr};
use me_trace::SpanRecorder;
use multiedge::backplane::{drain, Backplane, BpRx, DriveLimits, UdpFabric, WireEndpoint};
use multiedge::{OpFlags, ProtoConfig, ProtoStats};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

pub const RAILS: usize = 2;
/// Region remote writes land in (both nodes).
const DST: u64 = 0x0800_0000;
/// No op completing for this long fails the remaining ops (wall clock).
const STALL_NS: u64 = 3_000_000_000;

/// A UDP workload definition.
pub struct Spec {
    /// Payload bytes per op.
    pub op_bytes: usize,
    /// Outstanding ops.
    pub depth: u64,
    /// Ops at `--seconds 10` (round trips for ping-pong).
    pub ops: u64,
    /// Request-reply with notifications instead of one-way streaming.
    pub pingpong: bool,
}

pub const STREAM: Spec = Spec {
    op_bytes: 32 << 10,
    depth: 4,
    ops: 64_000,
    pingpong: false,
};
pub const PINGPONG: Spec = Spec {
    op_bytes: 64,
    depth: 1,
    ops: 1_040_000,
    pingpong: true,
};

/// What the traced run shares between the drive loop and the interposer.
#[derive(Default)]
pub struct Probe {
    spans: Rc<Spans>,
    /// `Backplane` calls: sends, nexts, nexts returning nothing, advances.
    calls: Cell<[u64; 4]>,
    /// Current turn of the drive loop: the op id of every span opened in it.
    turn: Cell<u64>,
}

impl Probe {
    fn bump(&self, i: usize) {
        let mut c = self.calls.get();
        c[i] += 1;
        self.calls.set(c);
    }
}

/// Interposer that records every `Backplane` call as a span and counts
/// calls (`core.backplane.udp` seen from outside).
pub struct TimedBackplane<B> {
    inner: B,
    probe: Rc<Probe>,
}

impl<B: Backplane> Backplane for TimedBackplane<B> {
    fn rails(&self) -> usize {
        self.inner.rails()
    }
    fn mtu(&self) -> usize {
        self.inner.mtu()
    }
    fn peer_mtu(&self) -> usize {
        self.inner.peer_mtu()
    }
    fn local_mac(&self, rail: usize) -> MacAddr {
        self.inner.local_mac(rail)
    }
    fn peer_mac(&self, rail: usize) -> MacAddr {
        self.inner.peer_mac(rail)
    }
    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }
    fn send(&mut self, rail: usize, frame: Frame) -> bool {
        self.probe.spans.enter(Sp::BpSend, self.probe.turn.get());
        let ok = self.inner.send(rail, frame);
        self.probe.spans.exit();
        self.probe.bump(0);
        ok
    }
    fn next(&mut self) -> Option<BpRx> {
        self.probe.spans.enter(Sp::BpNext, self.probe.turn.get());
        let rx = self.inner.next();
        self.probe.spans.exit();
        self.probe.bump(1);
        if rx.is_none() {
            self.probe.bump(2);
        }
        rx
    }
    fn tx_backlog_ns(&self, rail: usize) -> u64 {
        self.inner.tx_backlog_ns(rail)
    }
    fn advance(&mut self, until_ns: u64) -> u64 {
        self.probe.spans.enter(Sp::BpAdvance, self.probe.turn.get());
        let now = self.inner.advance(until_ns);
        self.probe.spans.exit();
        self.probe.bump(3);
        now
    }
}

struct Rig<B> {
    fabric: Rc<UdpFabric>,
    a: WireEndpoint,
    b: WireEndpoint,
    bpa: B,
    bpb: B,
    payload: Bytes,
    lat: Vec<u32>,
    probe: Option<Rc<Probe>>,
    /// `WireEndpoint::poll` calls, and those that did no protocol work.
    polls: [u64; 2],
}

struct Phase {
    wall_s: f64,
    transport_ns: u64,
    completed: u64,
}

impl<B: Backplane> Rig<B> {
    fn op_payload(&self, spec: &Spec, i: u64) -> Bytes {
        let off = src_slot(i) as usize * spec.op_bytes;
        self.payload.slice(off..off + spec.op_bytes)
    }

    fn poll_both(&mut self, turn: u64) -> bool {
        let mut any = false;
        for (ep, bp) in [(&mut self.a, &mut self.bpa), (&mut self.b, &mut self.bpb)] {
            if let Some(p) = &self.probe {
                p.turn.set(turn);
                p.spans.enter(Sp::WirePoll, turn);
            }
            let worked = ep.poll(bp);
            if let Some(p) = &self.probe {
                p.spans.exit();
            }
            self.polls[0] += 1;
            self.polls[1] += u64::from(!worked);
            any |= worked;
        }
        any
    }

    /// `a` (or `b` when `from_b`) writes op `i` into the peer's slot.
    fn write(&mut self, spec: &Spec, from_b: bool, i: u64, flags: OpFlags) {
        let data = self.op_payload(spec, i);
        let addr = DST + (i % spec.depth) * spec.op_bytes as u64;
        let (ep, bp) = if from_b {
            (&mut self.b, &mut self.bpb)
        } else {
            (&mut self.a, &mut self.bpa)
        };
        if let Some(p) = &self.probe {
            p.spans.enter(Sp::WireWrite, i);
        }
        ep.write(0, bp, addr, data, flags);
        if let Some(p) = &self.probe {
            p.spans.exit();
        }
    }

    /// Closed loop over ops `first..first + n`; returns when all completed
    /// or nothing completed for [`STALL_NS`].
    fn run_phase(&mut self, spec: &Spec, first: u64, n: u64) -> Phase {
        let t0 = Instant::now();
        let start = self.bpa.now_ns();
        let (mut issued, mut completed) = (0u64, 0u64);
        let mut last_progress = start;
        // Ping-pong: when the outstanding request was issued, and how many
        // replies `b` has sent.
        let mut sent_at = start;
        let mut replies = 0u64;
        let notify = OpFlags::RELAXED.with_notify();
        let mut turn = 0u64;
        while completed < n {
            let worked = self.poll_both(turn);
            turn += 1;
            let now = self.bpa.now_ns();
            if spec.pingpong {
                while self.b.take_notification().is_some() {
                    self.write(spec, true, first + replies + 1, notify);
                    replies += 1;
                }
                while self.a.take_notification().is_some() {
                    // Half the round trip, as the paper's Figure 2 plots it.
                    self.lat.push(sample_ns((now - sent_at) / 2));
                    completed += 1;
                    last_progress = now;
                }
                while self.a.take_completion().is_some() {}
                while self.b.take_completion().is_some() {}
            } else {
                while let Some(c) = self.a.take_completion() {
                    self.lat.push(sample_ns(c.completed_ns - c.created_ns));
                    completed += 1;
                    last_progress = now;
                }
            }
            while issued < n && issued - completed < spec.depth {
                sent_at = self.bpa.now_ns();
                let flags = if spec.pingpong {
                    notify
                } else {
                    OpFlags::RELAXED
                };
                self.write(spec, false, first + issued, flags);
                issued += 1;
            }
            if now - last_progress > STALL_NS {
                break;
            }
            if !worked {
                let wake = [self.a.next_deadline(), self.b.next_deadline()]
                    .into_iter()
                    .flatten()
                    .min()
                    .unwrap_or(now + 1_000_000)
                    .max(now + 1);
                self.bpa.advance(wake);
            }
        }
        Phase {
            wall_s: t0.elapsed().as_secs_f64(),
            transport_ns: self.bpa.now_ns() - start,
            completed,
        }
    }

    fn proto(&self) -> ProtoStats {
        let mut p = self.a.stats();
        p.merge(&self.b.stats());
        p
    }

    /// Slots whose final content is not what the last op into them wrote.
    fn bad_slots(&self, spec: &Spec, total: u64) -> u64 {
        let b = spec.op_bytes;
        let expect = |i: u64| {
            let off = src_slot(i) as usize * b;
            &self.payload[off..off + b]
        };
        let mut bad = 0;
        for slot in 0..spec.depth.min(total) {
            let last = last_into_slot(total, spec.depth, slot);
            let addr = DST + slot * b as u64;
            bad += u64::from(self.b.mem_read(addr, b) != expect(last));
            if spec.pingpong {
                // The reply to request `i` carries op payload `i + 1`.
                bad += u64::from(self.a.mem_read(addr, b) != expect(last + 1));
            }
        }
        bad
    }
}

fn build<B: Backplane>(
    spec: &Spec,
    seed: u64,
    samples: usize,
    probe: Option<Rc<Probe>>,
    wrap: impl Fn(multiedge::UdpBackplane) -> B,
) -> std::io::Result<Rig<B>> {
    let fabric = UdpFabric::new(RAILS)?;
    let (bpa, bpb) = fabric.pair();
    let (a, b) = WireEndpoint::pair(&ProtoConfig::default(), RAILS, &SpanRecorder::disabled());
    Ok(Rig {
        fabric,
        a,
        b,
        bpa: wrap(bpa),
        bpb: wrap(bpb),
        payload: Bytes::from(pattern(seed, 7, SRC_SLOTS as usize * spec.op_bytes)),
        lat: sample_buf(samples),
        probe,
        polls: [0; 2],
    })
}

fn run_with<B: Backplane>(
    spec: &Spec,
    seed: u64,
    scale: f64,
    reps: usize,
    probe: Option<Rc<Probe>>,
    wrap: impl Fn(multiedge::UdpBackplane) -> B,
) -> (RunOut, Facts) {
    let n = ((spec.ops as f64 * scale) as u64).max(2 * spec.depth);
    let warm = n * 15 / 100;
    let mut out = RunOut {
        attempted: n,
        ..RunOut::default()
    };
    let limits = DriveLimits::budget(STALL_NS);
    let mut rig = None;
    if let Some(p) = &probe {
        p.spans.pause(true);
    }
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut r = match build(spec, seed, n as usize, probe.clone(), &wrap) {
            Ok(r) => r,
            Err(e) => {
                out.errors
                    .push(format!("cannot bind loopback sockets: {e}"));
                out.failed = n;
                out.setup_s.push(t0.elapsed().as_secs_f64());
                return (out, Facts::default());
            }
        };
        let phase = r.run_phase(spec, 0, warm);
        let drained = drain(&mut r.a, &mut r.bpa, &mut r.b, &mut r.bpb, limits);
        out.check(phase.completed == warm && drained.is_ok(), || {
            format!(
                "warm-up completed {} of {warm} ops ({drained:?})",
                phase.completed
            )
        });
        r.lat.clear();
        r.polls = [0; 2];
        out.setup_s.push(t0.elapsed().as_secs_f64());
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one setup repetition");
    if let Some(p) = &probe {
        p.calls.set([0; 4]);
        p.spans.pause(false);
    }
    let before = rig.proto();
    out.rss_kb.0 = status_kb("VmRSS");
    let phase = rig.run_phase(spec, warm, n);
    out.rss_kb.1 = status_kb("VmRSS");
    // A traced run grows by the span records it retains.
    if probe.is_none() {
        out.check_rss_steady();
    }
    if let Some(p) = &probe {
        p.spans.pause(true);
    }
    // Quiesce outside the measured phase so the frame counts reconcile.
    let drained = drain(&mut rig.a, &mut rig.bpa, &mut rig.b, &mut rig.bpb, limits);

    let proto = rig.proto();
    out.wall_s = phase.wall_s;
    out.transport_ns = phase.transport_ns;
    out.frames = proto.data_frames_recv - before.data_frames_recv;
    out.bytes = proto.data_bytes_recv - before.data_bytes_recv;
    out.proto = proto;
    out.check_delivery(phase.completed, rig.bad_slots(spec, warm + n), None);
    if let Err(e) = &drained {
        out.errors.push(format!("fabric did not quiesce: {e}"));
    }
    out.lat = std::mem::take(&mut rig.lat);
    let fs = rig.fabric.stats();
    let facts = Facts {
        bp_calls: probe.map_or([0; 4], |p| p.calls.get()),
        rx_errors: fs.frames_corrupt_dropped
            + fs.frames_malformed_dropped
            + fs.unknown_source_dropped,
        polls: rig.polls,
        storm_suppressed: rig.a.storm_suppressed() + rig.b.storm_suppressed(),
        ..Facts::default()
    };
    (out, facts)
}

/// Run the workload: `reps` setups (sockets, endpoints, buffers, warm-up),
/// the last one continuing into the measured phase. With `spans`, the rig
/// runs over [`TimedBackplane`] and the measured phase is recorded.
pub fn run(
    spec: &Spec,
    seed: u64,
    scale: f64,
    reps: usize,
    spans: Option<Rc<Spans>>,
) -> (RunOut, Facts) {
    match spans {
        None => run_with(spec, seed, scale, reps, None, |bp| bp),
        Some(spans) => {
            let probe = Rc::new(Probe {
                spans,
                ..Probe::default()
            });
            run_with(spec, seed, scale, reps, Some(probe.clone()), |inner| {
                TimedBackplane {
                    inner,
                    probe: probe.clone(),
                }
            })
        }
    }
}
