//! The three two-node simulator workloads: `sim_stream`, `sim_smallop`,
//! `sim_lossy`.
//!
//! Each direction is one task holding a closed loop of `depth` operations:
//! it issues from endpoint memory until `depth` handles are outstanding,
//! then waits for the oldest before issuing the next. Op `i` copies source
//! slot `src_slot(i)` of the issuer's pattern region to slot `i % depth` of
//! the peer (or, for a read, fetches the peer's source slot into the local
//! read region), so the final content of every slot is known and a lost or
//! misplaced op shows in the memory check.

use crate::report::{Facts, RunOut};
use crate::spans::{Sp, Spans, Timed};
use crate::util::{
    alloc_counts, fnv1a, last_into_slot, pattern, sample_buf, sample_ns, src_slot, status_kb,
    SRC_SLOTS,
};
use me_trace::{FlightConfig, HealthConfig};
use multiedge::{Endpoint, OpFlags, OpHandle, OpKind, ProtoStats, SystemConfig};
use netsim::time::ms;
use netsim::{build_cluster, Cluster, Dur, NetStats, Sim};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::pin::pin;
use std::rc::Rc;
use std::time::Instant;

/// Source pattern region (issuer side of writes, target side of reads).
const SRC: u64 = 0x0100_0000;
/// Region remote writes land in.
const DST: u64 = 0x0800_0000;
/// Region remote reads land in.
const RDST: u64 = 0x0c00_0000;
/// Virtual time per `Sim::advance_until` call.
const SLICE: Dur = ms(1);

/// A two-node workload definition.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Paper configuration the cluster is built from.
    pub cfg: fn(usize) -> SystemConfig,
    /// Stationary loss / corruption rates (0 = clean).
    pub loss: (f64, f64),
    /// Payload bytes per op.
    pub op_bytes: usize,
    /// Outstanding ops per direction.
    pub depth: usize,
    /// Ops per direction at `--seconds 10`.
    pub ops_per_dir: u64,
    /// Alternate remote write / remote read instead of writes only.
    pub mixed: bool,
    /// Switch every observability plane on (tracer, spans, flight
    /// recorder, timeline, health): the `trace.planes_on_fps_ratio` run.
    pub planes: bool,
}

struct Rig {
    sim: Sim,
    cluster: Cluster,
    eps: Vec<Endpoint>,
    conns: [usize; 2],
    pats: [Vec<u8>; 2],
    /// Latency samples of both directions: `ns << 1 | is_read`, so one
    /// resident buffer serves the overall and the per-kind percentiles.
    lat: Rc<RefCell<Vec<u32>>>,
}

impl Drop for Rig {
    /// Break the Network -> handler -> Endpoint -> Network cycle, or every
    /// rig stays resident for the rest of the process.
    fn drop(&mut self) {
        self.cluster.net.clear_handlers();
    }
}

/// Shared state of one phase (warm-up or measured).
struct PhaseCtx {
    op_bytes: usize,
    depth: usize,
    mixed: bool,
    completed: Cell<u64>,
    last_done_ns: Cell<u64>,
    spans: Option<Rc<Spans>>,
}

async fn issue(ctx: &PhaseCtx, ep: &Endpoint, conn: usize, i: u64) -> OpHandle {
    let b = ctx.op_bytes as u64;
    let src = SRC + src_slot(i) * b;
    let slot = (i % ctx.depth as u64) * b;
    let read = ctx.mixed && i % 2 == 1;
    let flags = OpFlags::RELAXED;
    match (&ctx.spans, read) {
        (None, false) => ep.write(conn, src, DST + slot, ctx.op_bytes, flags).await,
        (None, true) => ep.read(conn, RDST + slot, src, ctx.op_bytes, flags).await,
        (Some(s), false) => {
            let fut = pin!(ep.write(conn, src, DST + slot, ctx.op_bytes, flags));
            Timed::new(fut, s, Sp::EpWrite, i).await
        }
        (Some(s), true) => {
            let fut = pin!(ep.read(conn, RDST + slot, src, ctx.op_bytes, flags));
            Timed::new(fut, s, Sp::EpRead, i).await
        }
    }
}

/// One direction's closed loop over ops `first..first + n`.
async fn drive_dir(
    ctx: Rc<PhaseCtx>,
    sim: Sim,
    ep: Endpoint,
    conn: usize,
    lat: Rc<RefCell<Vec<u32>>>,
    first: u64,
    n: u64,
) {
    let mut ring: VecDeque<OpHandle> = VecDeque::with_capacity(ctx.depth);
    let retire = |h: OpHandle| {
        let ns = h.latency().map_or(u64::MAX, |d| d.as_nanos());
        let tagged = sample_ns(ns << 1 | u64::from(h.kind() == OpKind::Read));
        lat.borrow_mut().push(tagged);
        ctx.completed.set(ctx.completed.get() + 1);
        ctx.last_done_ns.set(sim.now().as_nanos());
    };
    for i in first..first + n {
        if ring.len() == ctx.depth {
            let h = ring.pop_front().expect("ring is full");
            h.wait().await;
            retire(h);
        }
        ring.push_back(issue(&ctx, &ep, conn, i).await);
    }
    while let Some(h) = ring.pop_front() {
        h.wait().await;
        retire(h);
    }
}

struct Phase {
    wall_s: f64,
    virt_ns: u64,
    completed: u64,
    events: u64,
    pending_peak: usize,
}

impl Rig {
    fn build(spec: &Spec, seed: u64, n: usize) -> Rig {
        let mut cfg = (spec.cfg)(2);
        cfg.seed = seed;
        (cfg.fault.loss_rate, cfg.fault.corrupt_rate) = spec.loss;
        if spec.planes {
            cfg = cfg
                .with_tracing(4096)
                .with_spans(4096)
                .with_flight(FlightConfig::default());
        }
        let sim = Sim::new(cfg.seed);
        let cluster = build_cluster(&sim, cfg.cluster_spec());
        let eps = Endpoint::for_cluster(&sim, &cluster, Rc::new(cfg));
        if spec.planes {
            cluster.net.set_tracer(eps[0].tracer());
        }
        let (c0, c1) = Endpoint::connect(&eps[0], &eps[1]);
        let len = SRC_SLOTS as usize * spec.op_bytes;
        let pats = [pattern(seed, 0, len), pattern(seed, 1, len)];
        for (ep, pat) in eps.iter().zip(&pats) {
            ep.mem_write(SRC, pat);
        }
        let lat = Rc::new(RefCell::new(sample_buf(2 * n)));
        Rig {
            sim,
            cluster,
            eps,
            conns: [c0, c1],
            pats,
            lat,
        }
    }

    /// Run ops `first..first + n` in both directions to quiescence.
    fn run_phase(&self, spec: &Spec, first: u64, n: u64, spans: Option<Rc<Spans>>) -> Phase {
        let t0 = Instant::now();
        let v0 = self.sim.now().as_nanos();
        let e0 = self.sim.events_executed();
        let ctx = Rc::new(PhaseCtx {
            op_bytes: spec.op_bytes,
            depth: spec.depth,
            mixed: spec.mixed,
            completed: Cell::new(0),
            last_done_ns: Cell::new(v0),
            spans: spans.clone(),
        });
        for dir in 0..2 {
            self.sim.spawn(
                format!("{}-dir{dir}", spec.name),
                drive_dir(
                    ctx.clone(),
                    self.sim.clone(),
                    self.eps[dir].clone(),
                    self.conns[dir],
                    self.lat.clone(),
                    first,
                    n,
                ),
            );
        }
        // The sampler disarms when no task is live, so each phase arms its own.
        let sampler = spec.planes.then(|| {
            self.eps[0].start_timeline_with_health(
                self.conns[0],
                SLICE,
                512,
                HealthConfig::default(),
            )
        });
        let mut pending_peak = 0;
        let mut slice = 0u64;
        while self.sim.next_event_time().is_some() {
            let limit = self.sim.now() + SLICE;
            match &spans {
                None => {
                    self.sim.advance_until(limit, || false);
                }
                Some(s) => {
                    let (ev, fr) = (self.sim.events_executed(), self.net_stats().channel_frames);
                    s.enter(Sp::SimAdvance, slice);
                    self.sim.advance_until(limit, || false);
                    s.exit_with(
                        self.sim.events_executed() - ev,
                        self.net_stats().channel_frames - fr,
                    );
                }
            }
            pending_peak = pending_peak.max(self.sim.pending_events());
            slice += 1;
        }
        drop(sampler.map(|s| s.finish()));
        Phase {
            wall_s: t0.elapsed().as_secs_f64(),
            virt_ns: ctx.last_done_ns.get() - v0,
            completed: ctx.completed.get(),
            events: self.sim.events_executed() - e0,
            pending_peak,
        }
    }

    fn proto(&self) -> ProtoStats {
        let mut p = self.eps[0].stats();
        p.merge(&self.eps[1].stats());
        p
    }

    fn net_stats(&self) -> NetStats {
        self.cluster.net.stats()
    }

    /// Slots whose final content is not what the last op into them wrote.
    fn bad_slots(&self, spec: &Spec, total: u64) -> u64 {
        let b = spec.op_bytes;
        let mut bad = 0;
        for node in 0..2 {
            let peer = &self.pats[1 - node];
            for slot in 0..(spec.depth as u64).min(total) {
                // Last op index with `i % depth == slot`; with `mixed`, odd
                // ops are reads (land locally), even ops are writes (land
                // at the peer, i.e. the peer's op lands here).
                let last = last_into_slot(total, spec.depth as u64, slot);
                let read = spec.mixed && last % 2 == 1;
                let base = if read { RDST } else { DST };
                let off = src_slot(last) as usize * b;
                let got = self.eps[node].mem_read(base + slot * b as u64, b);
                bad += u64::from(got != peer[off..off + b]);
            }
        }
        bad
    }
}

/// Run the workload: `reps` setups (the last one continues into the
/// measured phase), checks, teardown.
pub fn run(
    spec: &Spec,
    seed: u64,
    scale: f64,
    reps: usize,
    spans: Option<Rc<Spans>>,
) -> (RunOut, Facts) {
    let traced = spans.is_some();
    let n = ((spec.ops_per_dir as f64 * scale) as u64).max(2 * spec.depth as u64);
    let warm = n * 15 / 100;
    let mut out = RunOut::default();
    let setup = || {
        let t0 = Instant::now();
        let rig = Rig::build(spec, seed, n as usize);
        let phase = rig.run_phase(spec, 0, warm, None);
        rig.lat.borrow_mut().clear();
        (rig, phase, t0.elapsed().as_secs_f64())
    };
    for _ in 1..reps {
        out.setup_s.push(setup().2);
    }
    let (rig, warm_phase, s) = setup();
    out.setup_s.push(s);
    let before = rig.proto();
    let cpu0 = rig.eps[0].cpu();
    out.rss_kb.0 = status_kb("VmRSS");
    let allocs0 = alloc_counts();
    let phase = rig.run_phase(spec, warm, n, spans);
    let allocs1 = alloc_counts();
    out.rss_kb.1 = status_kb("VmRSS");
    // A traced run grows by the span records it retains.
    if !traced {
        out.check_rss_steady();
    }

    let report = rig.sim.run();
    let (proto, net) = (rig.proto(), rig.net_stats());
    let total = warm + n;
    out.attempted = 2 * n;
    out.wall_s = phase.wall_s;
    out.transport_ns = phase.virt_ns;
    out.frames = proto.data_frames_recv - before.data_frames_recv;
    out.bytes = proto.data_bytes_recv - before.data_bytes_recv;
    out.proto = proto;
    out.fingerprint = Some(fnv1a(
        format!("{proto:?}|{net:?}|{}", rig.sim.now().as_nanos()).as_bytes(),
    ));

    out.check(report.stuck_tasks.is_empty(), || {
        format!("not quiescent: stuck tasks {:?}", report.stuck_tasks)
    });
    out.check(warm_phase.completed == 2 * warm, || {
        format!(
            "warm-up completed {} of {} ops",
            warm_phase.completed,
            2 * warm
        )
    });
    let clean = (spec.loss == (0.0, 0.0)).then_some(&net);
    out.check_delivery(phase.completed, rig.bad_slots(spec, total), clean);

    let cpu1 = rig.eps[0].cpu();
    let busy = (cpu1.app_busy.as_nanos() + cpu1.proto_busy.as_nanos())
        - (cpu0.app_busy.as_nanos() + cpu0.proto_busy.as_nanos());
    out.lat = rig.lat.take();
    let mut p50_by_kind = [0u32; 2];
    if traced {
        // Median per kind: walk the ascending samples to the middle one of
        // each.
        out.lat.sort_unstable();
        let reads = out.lat.iter().filter(|&&v| v & 1 == 1).count();
        let mid = [(out.lat.len() - reads).div_ceil(2), reads.div_ceil(2)];
        let mut seen = [0usize; 2];
        for v in &out.lat {
            let kind = (v & 1) as usize;
            seen[kind] += 1;
            if seen[kind] == mid[kind] {
                p50_by_kind[kind] = v >> 1;
            }
        }
    }
    out.lat.iter_mut().for_each(|v| *v >>= 1);
    let facts = Facts {
        events: phase.events,
        pending_peak: phase.pending_peak,
        net,
        cpu_util_pct: busy as f64 / phase.virt_ns.max(1) as f64 * 100.0,
        p50_by_kind,
        allocs: (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1),
        ..Facts::default()
    };
    (out, facts)
}
