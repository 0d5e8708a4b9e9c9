//! `sim_mesh64`: 64 nodes x 16 rails, all-to-all rounds, through
//! `run_sharded` at one cooperative shard.
//!
//! Every node is one task. A round writes 8 KiB from endpoint memory to
//! each of the 63 peers, then waits for all 63 handles (depth 63, closed
//! loop). Warm-up rounds and measured rounds are separated by a barrier all
//! node tasks cross, where the setup clock stops and the measured one
//! starts. Rounds of small writes keep the footprint at tens of MB; one
//! large write per pair would spend seconds in first-touch page faults.

use crate::report::{Facts, RunOut};
use crate::spans::{Sp, Spans, Timed};
use crate::util::{alloc_counts, fnv1a, pattern, sample_buf, sample_ns, status_kb};
use multiedge::{Endpoint, OpFlags, OpHandle, ProtoStats, SystemConfig};
use netsim::shard::{run_sharded, ShardMode, ShardNet, ShardRunConfig};
use netsim::sync::{sleep, Flag};
use netsim::time::us;
use netsim::NetStats;
use std::cell::{Cell, RefCell};
use std::pin::pin;
use std::rc::Rc;
use std::time::{Duration, Instant};

pub const NODES: usize = 64;
pub const RAILS: usize = 16;
/// Payload bytes per write.
pub const OP_BYTES: usize = 8 << 10;
/// Measured rounds at `--seconds 10`.
const ROUNDS: f64 = 16.0;
const SRC: u64 = 0x0100_0000;
const SRC_SLOTS: usize = 5;

/// The cluster configuration (also used by the fabric-only replay).
pub fn config(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::four_link_1g(NODES);
    cfg.rails = RAILS;
    cfg.seed = seed;
    cfg
}

/// Where `writer`'s data lands on every peer (disjoint per writer).
fn region(writer: usize) -> u64 {
    0x0800_0000 + (writer * OP_BYTES) as u64
}

fn src_off(round: u64, peer: usize) -> usize {
    ((round as usize * 3 + peer) % SRC_SLOTS) * OP_BYTES
}

/// Connection id of `node`'s connection to `peer` when every node connects
/// to its peers in ascending order.
fn conn_id(node: usize, peer: usize) -> usize {
    peer - usize::from(peer > node)
}

thread_local! {
    /// Hands the span recorder to the `setup` closure, which `run_sharded`
    /// requires to be `Send + Sync` and so cannot capture an `Rc`. The one
    /// cooperative shard is set up on the calling thread.
    static SPANS: RefCell<Option<Rc<Spans>>> = const { RefCell::new(None) };
}

struct Ctx {
    t0: Instant,
    warm: u64,
    rounds: u64,
    eps: RefCell<Vec<Endpoint>>,
    lat: RefCell<Vec<u32>>,
    arrived: Cell<usize>,
    finished: Cell<usize>,
    go: Flag,
    completed: Cell<u64>,
    pending_peak: Cell<usize>,
    /// Taken when the last node reaches the barrier.
    mark: Cell<Option<Mark>>,
    /// Taken when the last node finishes.
    end: Cell<Option<End>>,
    spans: Option<Rc<Spans>>,
}

#[derive(Clone, Copy)]
struct End {
    wall: Instant,
    virt_ns: u64,
    allocs: (u64, u64),
}

#[derive(Clone, Copy)]
struct Mark {
    setup_s: f64,
    wall: Instant,
    virt_ns: u64,
    events: u64,
    proto: ProtoStats,
    rss_kb: u64,
    allocs: (u64, u64),
}

fn merged(eps: &[Endpoint]) -> ProtoStats {
    let mut p = ProtoStats::default();
    for e in eps {
        p.merge(&e.stats());
    }
    p
}

async fn node_task(ctx: Rc<Ctx>, sn_sim: netsim::Sim, ep: Endpoint, node: usize) {
    let mut handles: Vec<OpHandle> = Vec::with_capacity(NODES - 1);
    for r in 0..ctx.warm + ctx.rounds {
        if r == ctx.warm {
            barrier(&ctx, &sn_sim).await;
        }
        for peer in (0..NODES).filter(|&p| p != node) {
            let src = SRC + src_off(r, peer) as u64;
            let fut = ep.write(
                conn_id(node, peer),
                src,
                region(node),
                OP_BYTES,
                OpFlags::RELAXED,
            );
            handles.push(match ctx.spans.as_ref().filter(|_| r >= ctx.warm) {
                None => fut.await,
                Some(s) => {
                    Timed::new(pin!(fut), s, Sp::EpWrite, r * NODES as u64 + node as u64).await
                }
            });
        }
        for h in handles.drain(..) {
            h.wait().await;
            if r >= ctx.warm {
                let ns = h.latency().map_or(u64::MAX, |d| d.as_nanos());
                ctx.lat.borrow_mut().push(sample_ns(ns));
                ctx.completed.set(ctx.completed.get() + 1);
            }
        }
    }
    if ctx.rounds == 0 {
        barrier(&ctx, &sn_sim).await;
    }
    ctx.finished.set(ctx.finished.get() + 1);
    if ctx.finished.get() == NODES {
        ctx.end.set(Some(End {
            wall: Instant::now(),
            virt_ns: sn_sim.now().as_nanos(),
            allocs: alloc_counts(),
        }));
    }
}

/// All node tasks meet here between warm-up and the measured rounds; the
/// last one to arrive stops the setup clock and starts the measured one.
async fn barrier(ctx: &Ctx, sim: &netsim::Sim) {
    ctx.arrived.set(ctx.arrived.get() + 1);
    if ctx.arrived.get() == NODES {
        ctx.mark.set(Some(Mark {
            setup_s: ctx.t0.elapsed().as_secs_f64(),
            wall: Instant::now(),
            virt_ns: sim.now().as_nanos(),
            events: sim.events_executed(),
            proto: merged(&ctx.eps.borrow()),
            rss_kb: status_kb("VmRSS"),
            allocs: alloc_counts(),
        }));
        ctx.go.fire();
    }
    ctx.go.wait().await;
}

fn setup(
    sn: &ShardNet,
    seed: u64,
    t0: Instant,
    warm: u64,
    rounds: u64,
    spans: Option<Rc<Spans>>,
) -> Rc<Ctx> {
    let sample = spans.is_some();
    let cfg = Rc::new(config(seed));
    let samples = (rounds as usize) * NODES * (NODES - 1);
    let ctx = Rc::new(Ctx {
        t0,
        warm,
        rounds,
        eps: RefCell::default(),
        lat: RefCell::new(sample_buf(samples)),
        arrived: Cell::new(0),
        finished: Cell::new(0),
        go: Flag::new(sn.sim()),
        completed: Cell::new(0),
        pending_peak: Cell::new(0),
        mark: Cell::new(None),
        end: Cell::new(None),
        spans,
    });
    for &node in sn.local_nodes() {
        let ep = Endpoint::new(
            sn.sim(),
            sn.net(),
            node,
            sn.nics(node).to_vec(),
            cfg.clone(),
        );
        for peer in (0..NODES).filter(|&p| p != node) {
            ep.connect_remote(peer, conn_id(peer, node));
        }
        ep.mem_write(SRC, &pattern(seed, node as u64, SRC_SLOTS * OP_BYTES));
        ctx.eps.borrow_mut().push(ep);
    }
    for (node, ep) in ctx.eps.borrow().iter().enumerate() {
        let task = node_task(ctx.clone(), sn.sim().clone(), ep.clone(), node);
        sn.sim().spawn(format!("mesh-node-{node}"), task);
    }
    if sample {
        // Traced run only: `run_sharded` owns the event loop, so the queue
        // depth is sampled from inside, every 10 us of virtual time.
        let (c, sim) = (ctx.clone(), sn.sim().clone());
        sn.sim().spawn("mesh-pending-sampler", async move {
            while c.finished.get() < NODES {
                c.pending_peak
                    .set(c.pending_peak.get().max(sim.pending_events()));
                sleep(&sim, us(10)).await;
            }
        });
    }
    ctx
}

/// What one `run_sharded` call hands back (`Send`, unlike the endpoints).
struct Collected {
    mark: Option<Mark>,
    end: Option<End>,
    completed: u64,
    lat: Vec<u32>,
    proto: ProtoStats,
    net: NetStats,
    events: u64,
    end_virt_ns: u64,
    pending_peak: usize,
    bad_regions: u64,
    rss_end_kb: u64,
    /// Tasks still live and events still queued once `run_sharded` stopped.
    stuck_tasks: Vec<String>,
    pending_events: usize,
}

fn collect(sn: &ShardNet, ctx: Rc<Ctx>, seed: u64) -> Collected {
    let rss_end_kb = status_kb("VmRSS");
    let eps = ctx.eps.take();
    let total = ctx.warm + ctx.rounds;
    let mut bad_regions = 0;
    if total > 0 {
        let pats: Vec<Vec<u8>> = (0..NODES as u64)
            .map(|w| pattern(seed, w, SRC_SLOTS * OP_BYTES))
            .collect();
        for (node, ep) in eps.iter().enumerate() {
            for writer in (0..NODES).filter(|&w| w != node) {
                let pat = &pats[writer];
                let off = src_off(total - 1, node);
                let got = ep.mem_read(region(writer), OP_BYTES);
                bad_regions += u64::from(got != pat[off..off + OP_BYTES]);
            }
        }
    }
    Collected {
        mark: ctx.mark.get(),
        end: ctx.end.get(),
        completed: ctx.completed.get(),
        lat: ctx.lat.take(),
        proto: merged(&eps),
        net: sn.net().stats(),
        events: sn.sim().events_executed(),
        end_virt_ns: sn.sim().now().as_nanos(),
        pending_peak: ctx.pending_peak.get(),
        bad_regions,
        rss_end_kb,
        stuck_tasks: sn.sim().stuck_task_names(),
        pending_events: sn.sim().pending_events(),
    }
}

/// Run the workload: `reps` setups (build + mesh connect + warm-up rounds),
/// the last one continuing into the measured rounds.
pub fn run(seed: u64, scale: f64, reps: usize, spans: Option<Rc<Spans>>) -> (RunOut, Facts) {
    let rounds = ((ROUNDS * scale).round() as u64).max(1);
    let warm = (rounds * 15 / 100).max(1);
    let spec = config(seed).cluster_spec();
    let shard_cfg = ShardRunConfig {
        mode: ShardMode::Cooperative,
        wall_limit: Some(Duration::from_secs(150)),
        ..Default::default()
    };
    let mut out = RunOut::default();
    let mut facts = Facts::default();
    let ops_per_round = (NODES * (NODES - 1)) as u64;
    out.attempted = rounds * ops_per_round;
    for rep in 0..reps {
        let last = rep + 1 == reps;
        let measured = if last { rounds } else { 0 };
        SPANS.set(spans.clone().filter(|_| last));
        let t0 = Instant::now();
        let res = run_sharded(
            &spec,
            1,
            seed,
            None,
            &shard_cfg,
            |sn| setup(sn, seed, t0, warm, measured, SPANS.take()),
            |sn, ctx| collect(sn, ctx, seed),
        );
        let sharded_ns = t0.elapsed().as_nanos() as u64;
        let (report, c) = match res {
            Ok((report, mut outs)) => (report, outs.pop().expect("one shard")),
            Err(e) => {
                out.errors.push(format!("run_sharded failed: {e}"));
                out.failed = out.attempted;
                out.setup_s.push(t0.elapsed().as_secs_f64());
                continue;
            }
        };
        out.check(c.stuck_tasks.is_empty() && c.pending_events == 0, || {
            format!(
                "not quiescent: stuck tasks {:?}, {} events pending",
                c.stuck_tasks, c.pending_events
            )
        });
        let Some(mark) = c.mark else {
            out.errors.push("warm-up never reached the barrier".into());
            out.failed = out.attempted;
            out.setup_s.push(t0.elapsed().as_secs_f64());
            continue;
        };
        out.setup_s.push(mark.setup_s);
        if !last {
            continue;
        }
        let end = c.end.unwrap_or(End {
            wall: Instant::now(),
            virt_ns: c.end_virt_ns,
            allocs: mark.allocs,
        });
        out.wall_s = (end.wall - mark.wall).as_secs_f64();
        out.transport_ns = end.virt_ns - mark.virt_ns;
        out.frames = c.proto.data_frames_recv - mark.proto.data_frames_recv;
        out.bytes = c.proto.data_bytes_recv - mark.proto.data_bytes_recv;
        out.rss_kb = (mark.rss_kb, c.rss_end_kb);
        out.proto = c.proto;
        out.fingerprint = Some(fnv1a(
            format!("{:?}|{:?}|{}", c.proto, c.net, c.end_virt_ns).as_bytes(),
        ));
        out.lat = c.lat;
        out.check_delivery(c.completed, c.bad_regions, Some(&c.net));
        let st = report.per_shard[0];
        facts = Facts {
            events: c.events - mark.events,
            pending_peak: c.pending_peak,
            net: c.net,
            allocs: (end.allocs.0 - mark.allocs.0, end.allocs.1 - mark.allocs.1),
            shard: [
                report.windows,
                st.idle_windows,
                st.advance_ns,
                st.exchange_ns,
                sharded_ns,
            ],
            ..Facts::default()
        };
    }
    (out, facts)
}
