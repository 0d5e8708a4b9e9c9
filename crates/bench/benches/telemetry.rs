//! Telemetry-plane cost and fidelity gates.
//!
//! The interval sampler ([`me_trace::Timeline`]) promises to be purely
//! observational: allocation-free on the datapath and bit-identical
//! protocol behaviour with sampling on (what it costs in frames/wall-s is
//! `trace.planes_on_fps_ratio` in `perf/`). This bench enforces both, then
//! runs the time-resolved cells
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
//! The cost gate is [`multiedge_bench::plane_overhead`]: no allocation per
//! frame with the sampler armed and an identical stats fingerprint are
//! asserted; the frames/wall-s ratio is printed, not judged.

use me_trace::{Json, SCHEMA_VERSION};
use multiedge::SystemConfig;
use multiedge_bench::micro::{run_micro_sampled, MicroKind, MicroResult};
use multiedge_bench::plane_overhead;
use multiedge_bench::telemetry::{failover_telemetry, incast_telemetry, wire_telemetry};
use netsim::time::us;
use netsim::Dur;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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

/// The sampler gate on the clean 1L-1G two-way cell, sampled every 1 ms of
/// virtual time (the production-style cadence: each interval covers ~80
/// frames, so the row cost amortizes). Every sampled run must also
/// reconcile exactly.
fn overhead_gate(iters: usize) -> Json {
    let run = |sampled: bool, iters: usize| {
        let mut cfg = SystemConfig::one_link_1g(2);
        cfg.seed = 7;
        let interval = sampled.then_some(Dur(us(1000).as_nanos()));
        let plan = netsim::FaultPlan::new();
        let r = run_micro_sampled(&cfg, MicroKind::TwoWay, 64 << 10, iters, &plan, interval);
        if let (Some(tl), Some(end)) = (&r.timeline, &r.timeline_proto) {
            multiedge_bench::telemetry::reconcile_proto(tl, end)
                .expect("sampled datapath run must reconcile exactly");
        }
        r
    };
    let allocs = || ALLOC_CALLS.load(Relaxed);
    let frames = |r: &MicroResult| r.proto.data_frames_sent;
    plane_overhead("sampler", "frame", iters, allocs, run, frames)
        .set("config", "1L-1G")
        .set("kind", "two-way")
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
            "off/on pair at two run lengths: fingerprints equal and marginal allocs/frame asserted, fps ratio reported only; base + per-interval deltas reconciled exactly against end-of-run ProtoStats in every sampled cell",
        )
        .set("overhead", overhead)
        .set("failover", failover)
        .set("wire", wire)
        .set("incast", incast);
    std::fs::write(results_path("BENCH_telemetry.json"), doc.render_pretty())
        .expect("write json");
    println!("wrote results/BENCH_telemetry.json and results/telemetry_failover.jsonl");
}
