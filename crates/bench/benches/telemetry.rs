//! Datapath and flight-recorder cost gates.
//!
//! Three cost gates on the clean 1L-1G cell (seed 7), all read from
//! [`multiedge_bench::CountingAlloc`]:
//!
//! * **datapath** — the steady-state datapath allocates nothing per data
//!   frame, and a ping-pong op allocates no more than a fixed ceiling (the
//!   2×2 double difference of [`datapath_gate`]); a 64 B ping-pong op
//!   written from endpoint memory has a ceiling of its own
//!   ([`smallop_gate`]);
//! * **flight recorder** — the always-on recorder on the two-way 64 KiB
//!   stream is purely observational ([`multiedge_bench::plane_overhead`]):
//!   no allocation per frame with it armed and an identical stats
//!   fingerprint are asserted; the frames/wall-s ratio is printed,
//!   neither judged nor written (that claim is
//!   `trace.planes_on_fps_ratio` in `perf/`).
//!
//! The sampler's and the health monitor's gates, and the timeline
//! artifacts, are the doctor bench's. This bench writes the committed
//! `results/BENCH_telemetry.json`.
//!
//! `SMOKE=1` runs small cells for CI: every gate still enforced, the
//! report still written (marked `"mode": "smoke"`).

use me_trace::{Json, SCHEMA_VERSION};
use multiedge::{Endpoint, OpFlags, SystemConfig};
use multiedge_bench::micro::{run_micro, MicroKind, MicroResult};
use multiedge_bench::{allocs, plane_overhead, results_dir, smoke, CountingAlloc};
use netsim::{build_cluster, Sim};
use std::rc::Rc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The clean 1L-1G two-way cell every gate measures (seed 7).
fn clean_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::one_link_1g(2);
    cfg.seed = 7;
    cfg
}

/// Marginal allocations per data frame and per op of `kind` on the clean
/// cell. A run also allocates per run (setup) and per op (handles,
/// payloads), so a 2×2 grid — `iters` and `2 * iters` iterations × 32 and
/// 64 KiB — is differenced twice: across run lengths (cancels setup), then
/// across sizes (both columns add the same ops, so per-op costs cancel),
/// leaving only what scales with frames. What the small column added
/// beyond its frames is then per op (every kind issues two ops per
/// iteration: one per direction, or ping and pong).
fn marginal_allocs(kind: MicroKind, iters: usize) -> (f64, f64) {
    let count = |size: usize, iters: usize| {
        let a0 = allocs();
        let r = run_micro(&clean_cfg(), kind, size, iters);
        ((allocs() - a0) as i64, r.proto.data_frames_sent as i64)
    };
    let extra = |size: usize| {
        let ((a1, f1), (a2, f2)) = (count(size, iters), count(size, 2 * iters));
        (a2 - a1, f2 - f1)
    };
    let ((a_small, f_small), (a_big, f_big)) = (extra(32 << 10), extra(64 << 10));
    assert!(f_big > f_small, "the grid produced no frame delta");
    let per_frame = (a_big - a_small) as f64 / (f_big - f_small) as f64;
    let per_op = (a_small as f64 - per_frame * f_small as f64) / (2 * iters) as f64;
    (per_frame, per_op)
}

/// The allocation gates: on the clean network the steady-state datapath
/// allocates nothing per data frame (two-way streams), and no more per op
/// than `max_per_op` (ping-pong, where every op's frames fit the window
/// and its queues drain before the next op).
fn datapath_gate(iters: usize, max_per_op: f64) -> Json {
    let (per_frame, _) = marginal_allocs(MicroKind::TwoWay, iters);
    let (_, per_op) = marginal_allocs(MicroKind::PingPong, iters);
    println!("datapath       {per_frame:+.3} allocs/frame  {per_op:.4} allocs/op");
    assert!(
        per_frame.abs() < 0.01,
        "steady-state allocations per data frame on the clean 1L config: {per_frame:.4} (must be 0)"
    );
    assert!(
        per_op <= max_per_op + 1e-9,
        "allocations per ping-pong op on the clean 1L config: {per_op:.4} (at most {max_per_op})"
    );
    Json::obj()
        .set("config", "1L-1G")
        .set("kind", "two-way")
        .set("allocs_per_frame", per_frame)
        .set("op_kind", "ping-pong")
        .set("allocs_per_op", per_op)
        .set("allocs_per_op_max", max_per_op)
        .set(
            "gate",
            "2x2 grid (iters x payload size): two-way |double difference allocs_per_frame| < 0.01; ping-pong small-column allocs_per_op <= allocs_per_op_max",
        )
}

/// Run `iters` round trips of a 64 B ping-pong on the clean cell, each
/// write sourced from endpoint memory ([`Endpoint::write`]) and notifying.
fn smallop_pingpong(iters: usize) {
    const SRC: u64 = 0x8000;
    let cfg = Rc::new(clean_cfg());
    let sim = Sim::new(cfg.seed);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let eps = Endpoint::for_cluster(&sim, &cluster, cfg);
    let (c0, c1) = Endpoint::connect(&eps[0], &eps[1]);
    for ep in &eps {
        ep.mem_write(SRC, &[ep.node() as u8 + 1; 64]);
    }
    let notify = OpFlags::RELAXED.with_notify();
    let (a, b) = (eps[0].clone(), eps[1].clone());
    sim.spawn("smallop-ping", async move {
        for _ in 0..iters {
            let _h = a.write(c0, SRC, 0x1000, 64, notify).await;
            a.next_notification().await.expect("pong");
        }
    });
    sim.spawn("smallop-pong", async move {
        for _ in 0..iters {
            b.next_notification().await.expect("ping");
            let _h = b.write(c1, SRC, 0x1000, 64, notify).await;
        }
    });
    sim.run().expect_quiescent();
}

/// The small-op gate: allocations per op of a 64 B ping-pong written from
/// endpoint memory, held to `max_per_op`. Every frame of it is one op, so
/// the difference of two run lengths (setup cancels) over the ops it adds
/// is the per-op count; a 64 B payload lies in one page and is cut from
/// it without a copy.
fn smallop_gate(iters: usize, max_per_op: f64) -> Json {
    let count = |iters: usize| {
        let a0 = allocs();
        smallop_pingpong(iters);
        allocs() - a0
    };
    let (a1, a2) = (count(iters), count(2 * iters));
    let per_op = (a2 as f64 - a1 as f64) / (2 * iters) as f64;
    println!("small op       {per_op:.4} allocs/op (64 B ping-pong from memory)");
    assert!(
        per_op <= max_per_op + 1e-9,
        "allocations per 64 B ping-pong op from memory on the clean 1L config: {per_op:.4} (at most {max_per_op})"
    );
    Json::obj()
        .set("config", "1L-1G")
        .set("kind", "ping-pong 64 B from memory")
        .set("allocs_per_op", per_op)
        .set("allocs_per_op_max", max_per_op)
        .set(
            "gate",
            "run-length difference: allocs_per_op <= allocs_per_op_max",
        )
}

/// The flight-recorder gate: the always-on recorder (defaults: 4096-event
/// ring, triggers armed, no dump directory) rides along without
/// allocating per frame or perturbing the protocol.
fn flight_recorder_gate(iters: usize) -> Json {
    let run = |flight: bool, iters: usize| {
        let mut cfg = clean_cfg();
        if flight {
            cfg = cfg.with_flight(me_trace::FlightConfig::default());
        }
        run_micro(&cfg, MicroKind::TwoWay, 64 << 10, iters)
    };
    let frames = |r: &MicroResult| r.proto.data_frames_sent;
    plane_overhead("flight recorder", "frame", iters, run, frames)
        .set("config", "1L-1G")
        .set("kind", "two-way")
}

fn main() {
    let smoke = smoke();
    // Allocation-per-op ceilings: the counts this grid measured when the
    // gate was set, 5 per op plus, in the short grid, 0.1 from run-length
    // doublings of per-run vectors. A send queue that every frame passes
    // through and that frees its buffer whenever it drains reads 8.1 in
    // the short grid.
    let (iters, max_allocs_per_op) = if smoke { (10, 5.1) } else { (40, 5.0) };
    // The 64 B small op from memory measured 4 per op in both profiles
    // while every memory-sourced write copied its payload, and 3 since it
    // is cut from the page it lies in.
    let max_smallop_allocs_per_op = 3.0;

    // Warm up lazy runtime initialization outside the measured cells.
    let _ = run_micro(&clean_cfg(), MicroKind::TwoWay, 4 << 10, 4);

    let datapath = datapath_gate(iters, max_allocs_per_op);
    let smallop = smallop_gate(iters, max_smallop_allocs_per_op);
    let flight = flight_recorder_gate(iters);

    let doc = Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("bench", "telemetry")
        .set("mode", if smoke { "smoke" } else { "full" })
        .set(
            "methodology",
            "datapath: 2x2 double difference, marginal allocs/frame asserted 0 and allocs/op held to a ceiling; smallop: 64 B ping-pong from memory, run-length difference, allocs/op held to a ceiling; flight recorder: off/on pair at two run lengths, fingerprints equal and marginal allocs/frame asserted, fps ratio printed, not written",
        )
        .set("datapath", datapath)
        .set("smallop", smallop)
        .set("flight_recorder", flight);
    std::fs::write(
        results_dir().join("BENCH_telemetry.json"),
        doc.render_pretty(),
    )
    .expect("write json");
    println!("wrote results/BENCH_telemetry.json");
}
