//! Telemetry-plane cost and fidelity gates.
//!
//! The interval sampler ([`me_trace::Timeline`]) promises to be purely
//! observational: allocation-free on the datapath, ≤5% frames/wall-s, and
//! bit-identical protocol behaviour with sampling on. This bench enforces
//! all three, then runs the time-resolved cells
//! ([`multiedge_bench::telemetry`]) and writes the committed
//! `results/BENCH_telemetry.json` plus the
//! `results/telemetry_failover.jsonl` timeline artifact that
//! `me-inspect timeline` renders.
//!
//! Modes (environment variables):
//!
//! * default — full cells, all gates, JSON + JSONL artifacts written.
//! * `TELEMETRY_SMOKE=1` — CI smoke: small cells, every gate still
//!   enforced, artifacts still written (marked `"mode": "smoke"`).
//!
//! # Isolating the sampler's marginal cost
//!
//! Wall-clock noise dwarfs the sampler's real cost on shared machines, so
//! the overhead gate interleaves sampling-off / sampling-on rounds and
//! compares each side's *minimum* wall time (scheduler noise only ever
//! adds time). Allocation cost uses the same 2×2 double-difference grid
//! as the datapath bench: two iteration counts × two payload sizes cancel
//! per-run and per-operation allocations, leaving the per-frame marginal
//! cost — which must stay zero with the sampler armed.

use me_trace::{Json, SCHEMA_VERSION};
use multiedge::SystemConfig;
use multiedge_bench::micro::{run_micro_sampled, MicroKind};
use multiedge_bench::telemetry::{failover_telemetry, incast_telemetry, wire_telemetry};
use netsim::time::us;
use netsim::Dur;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counting global allocator
// ---------------------------------------------------------------------------

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            ALLOC_CALLS.fetch_add(1, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Overhead gate
// ---------------------------------------------------------------------------

/// FNV-1a over a string — compact fingerprint for the stats Debug output.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Measure {
    frames: u64,
    wall_s: f64,
    allocs: u64,
    fingerprint: String,
}

/// One two-way run on the clean 1L-1G config, sampled every 1 ms of
/// virtual time when `sampled` is set (the production-style cadence: each
/// interval covers ~80 frames on this cell, so the row cost amortizes).
/// Sampled runs also enforce the exact reconciliation gate before
/// returning.
fn measure(size: usize, iters: usize, sampled: bool) -> Measure {
    let mut cfg = SystemConfig::one_link_1g(2);
    cfg.seed = 7;
    let interval = sampled.then_some(Dur(us(1000).as_nanos()));
    let a0 = ALLOC_CALLS.load(Relaxed);
    let t0 = Instant::now();
    let r = run_micro_sampled(
        &cfg,
        MicroKind::TwoWay,
        size,
        iters,
        &netsim::FaultPlan::new(),
        interval,
    );
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = ALLOC_CALLS.load(Relaxed) - a0;
    if let (Some(tl), Some(end)) = (&r.timeline, &r.timeline_proto) {
        multiedge_bench::telemetry::reconcile_proto(tl, end)
            .expect("sampled datapath run must reconcile exactly");
    }
    Measure {
        frames: r.proto.data_frames_sent,
        wall_s,
        allocs,
        fingerprint: format!("{:016x}", fnv1a(&format!("{:?}|{:?}", r.proto, r.net))),
    }
}

/// Marginal allocations per data frame with the sampler armed, via the
/// 2×2 double-difference grid (see module docs).
fn allocs_per_frame(iters: usize) -> f64 {
    const S1: usize = 32 << 10;
    const S2: usize = 64 << 10;
    let m_k_s1 = measure(S1, iters, true);
    let m_2k_s1 = measure(S1, 2 * iters, true);
    let m_k_s2 = measure(S2, iters, true);
    let m_2k_s2 = measure(S2, 2 * iters, true);
    let d1 = m_2k_s1.allocs as i64 - m_k_s1.allocs as i64;
    let d2 = m_2k_s2.allocs as i64 - m_k_s2.allocs as i64;
    let df1 = m_2k_s1.frames as i64 - m_k_s1.frames as i64;
    let df2 = m_2k_s2.frames as i64 - m_k_s2.frames as i64;
    let frame_delta = df2 - df1;
    assert!(frame_delta > 0, "grid produced no frame delta");
    (d2 - d1) as f64 / frame_delta as f64
}

/// The sampler overhead gate on the datapath cell: interleaved min-wall
/// rounds until the frames/wall-s ratio clears 0.95 (or a round cap is
/// hit, at which point a genuine regression fails the assert), plus the
/// allocation and fingerprint gates.
fn overhead_gate(iters: usize) -> Json {
    const S: usize = 64 << 10;
    // Long enough that per-run setup (cluster build, timeline prealloc)
    // amortizes and the ratio measures the per-frame marginal cost.
    let iters = iters.max(20);
    let mut off: Option<Measure> = None;
    let mut on: Option<Measure> = None;
    let mut rounds = 0usize;
    loop {
        let m = measure(S, 2 * iters, false);
        if off.as_ref().is_none_or(|b| m.wall_s < b.wall_s) {
            off = Some(m);
        }
        let m = measure(S, 2 * iters, true);
        if on.as_ref().is_none_or(|b| m.wall_s < b.wall_s) {
            on = Some(m);
        }
        rounds += 1;
        let (o, s) = (off.as_ref().unwrap(), on.as_ref().unwrap());
        let ratio = (s.frames as f64 / s.wall_s) / (o.frames as f64 / o.wall_s);
        if (rounds >= 5 && ratio >= 0.95) || rounds >= 20 {
            break;
        }
    }
    let (off, on) = (off.expect("measured"), on.expect("measured"));
    assert_eq!(
        off.fingerprint, on.fingerprint,
        "sampling must be purely observational (stats fingerprint changed)"
    );
    let off_fps = off.frames as f64 / off.wall_s;
    let on_fps = on.frames as f64 / on.wall_s;
    let ratio = on_fps / off_fps;
    let apf = allocs_per_frame(iters);
    println!(
        "overhead {off_fps:>9.0} -> {on_fps:>9.0} frames/wall-s  ratio {ratio:.3}  {apf:+.3} allocs/frame"
    );
    assert!(
        apf.abs() < 0.01,
        "sampler allocates per frame on the datapath: {apf:.4}"
    );
    assert!(
        ratio >= 0.95,
        "sampler costs more than 5% frames/wall-s: ratio {ratio:.3}"
    );
    Json::obj()
        .set("config", "1L-1G")
        .set("kind", "two-way")
        .set("plain_frames_per_wall_s", off_fps)
        .set("sampled_frames_per_wall_s", on_fps)
        .set("fps_ratio", ratio)
        .set("allocs_per_frame", apf)
        .set("stats_match", true)
        .set("gate", "fps_ratio >= 0.95 && |allocs_per_frame| < 0.01 && exact reconciliation")
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Workspace-root `results/` dir, independent of cargo's bench CWD.
fn results_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file)
}

fn main() {
    let smoke = std::env::var("TELEMETRY_SMOKE").is_ok();
    let iters = if smoke { 10 } else { 40 };

    // Warm up lazy runtime initialization outside the measured cells.
    let mut warm = SystemConfig::one_link_1g(2);
    warm.seed = 7;
    let _ = run_micro_sampled(
        &warm,
        MicroKind::TwoWay,
        4 << 10,
        4,
        &netsim::FaultPlan::new(),
        None,
    );

    let overhead = overhead_gate(iters);

    let f = failover_telemetry(smoke);
    let end = f.result.timeline_proto.as_ref().expect("sampled");
    println!(
        "failover {} rows  {} retransmit intervals  {} rail-dead intervals  ({} retransmits total)",
        f.rows,
        f.retransmit_intervals,
        f.rail_dead_intervals,
        end.retransmits()
    );
    assert!(f.retransmit_intervals >= 1, "outage must localise to intervals");
    assert!(f.rail_dead_intervals >= 1, "dead rail must localise to intervals");
    let failover = Json::obj()
        .set("config", "2Lu-1G")
        .set("kind", "one-way")
        .set("rows", f.rows)
        .set("retransmit_intervals", f.retransmit_intervals)
        .set("rail_dead_intervals", f.rail_dead_intervals)
        .set("retransmits_total", end.retransmits())
        .set("reconciled", true)
        .set("artifact", "results/telemetry_failover.jsonl");

    let w = wire_telemetry(smoke);
    println!(
        "wire     {} rows  {} retransmit intervals  chaos dropped {}",
        w.timeline.len(),
        w.retransmit_intervals,
        w.chaos.dropped
    );
    assert!(w.retransmit_intervals >= 1, "chaos loss must localise to intervals");
    let wire = Json::obj()
        .set("config", "BP-2L+chaos(drop=0.02)")
        .set("kind", "one-way")
        .set("rows", w.timeline.len())
        .set("retransmit_intervals", w.retransmit_intervals)
        .set("chaos_dropped", w.chaos.dropped)
        .set("retransmits_total", w.end.retransmits())
        .set("reconciled", true);

    let t = incast_telemetry(smoke);
    println!(
        "incast   4 shards  hot shard {}  peak imbalance {:.2}x over {} intervals",
        t.hot_shard,
        t.peak_imbalance,
        t.intervals.len()
    );
    // Node 0 is the incast receiver; the contiguous partition puts it in
    // shard 0, which the per-interval index must name as hot.
    assert_eq!(t.hot_shard, 0, "imbalance index must name the receiver's shard");
    assert!(t.peak_imbalance > 1.0, "incast must be measurably imbalanced");
    let intervals: Vec<Json> = t
        .intervals
        .iter()
        .map(|(t_ns, idx, hot)| {
            Json::obj()
                .set("t_ns", *t_ns)
                .set("imbalance", *idx)
                .set("hot_shard", *hot)
        })
        .collect();
    let incast = Json::obj()
        .set("config", "2Lu-1G incast-8")
        .set("shards", t.cell.shards)
        .set("hot_shard", t.hot_shard)
        .set("peak_imbalance", t.peak_imbalance)
        .set("intervals", intervals);

    std::fs::create_dir_all(results_path("")).expect("create results dir");
    std::fs::write(results_path("telemetry_failover.jsonl"), &f.jsonl)
        .expect("write failover timeline artifact");
    // One artifact per shard: `me-inspect timeline shard0.jsonl … shard3.jsonl`
    // renders the cross-shard imbalance table from these.
    for (i, tl) in t.cell.shard_samples.iter().enumerate() {
        std::fs::write(
            results_path(&format!("telemetry_incast_shard{i}.jsonl")),
            tl.to_jsonl(),
        )
        .expect("write shard timeline artifact");
    }
    let doc = Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("bench", "telemetry")
        .set("mode", if smoke { "smoke" } else { "full" })
        .set(
            "methodology",
            "interleaved min-wall off/on rounds for fps ratio; 2x2 double-difference for allocs/frame; base + per-interval deltas reconciled exactly against end-of-run ProtoStats in every sampled cell",
        )
        .set("overhead", overhead)
        .set("failover", failover)
        .set("wire", wire)
        .set("incast", incast);
    std::fs::write(results_path("BENCH_telemetry.json"), doc.render_pretty())
        .expect("write json");
    println!("wrote results/BENCH_telemetry.json and results/telemetry_failover.jsonl");
}
