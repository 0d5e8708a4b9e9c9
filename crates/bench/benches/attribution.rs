//! Critical-path latency attribution: runs span-instrumented workloads and
//! writes `results/BENCH_attribution.json` — per-connection and per-rail
//! phase breakdowns of end-to-end op latency (host issue, send window, rail
//! queue, wire, rx processing, reorder, fence, retransmit repair, ack
//! return, completion wake), each phase *exclusive* so the per-op phases sum
//! exactly to the measured issue→completion latency.
//!
//! Every cell carries a reconciliation section proving three independent
//! observers agree to the nanosecond:
//!
//! 1. per-span exactness — Σ phases == complete − created for every span;
//! 2. spans vs. tracer — Σ span latencies == Σ `op_latency` histogram sums
//!    (the tracer stamps ops on a completely separate code path);
//! 3. spans vs. `ProtoStats` — completed span count == ops issued, span
//!    retransmit attributions == retransmission counters' transmissions.
//!
//! `SMOKE=1` runs a reduced sweep (CI); the JSON is written in
//! both modes and the bench asserts every cell reconciles.

use me_trace::{analyze, Json, PhaseBreakdown, SpanSnapshot, TraceSnapshot, SCHEMA_VERSION};
use multiedge::{Endpoint, OpFlags, ProtoStats, SystemConfig};
use multiedge_bench::{run_micro, MicroKind};
use netsim::sync::join_all;
use netsim::{build_cluster, Sim};
use std::rc::Rc;

const CAP: usize = 1 << 16;

/// Everything a cell needs for analysis + reconciliation.
struct CellData {
    spans: SpanSnapshot,
    traces: Vec<TraceSnapshot>,
    proto: ProtoStats,
}

/// A micro-benchmark cell (writes only) with spans + tracing enabled.
fn run_micro_cell(cfg: &SystemConfig, kind: MicroKind, size: usize, iters: usize) -> CellData {
    let cfg = cfg.clone().with_spans(CAP).with_tracing(CAP);
    let r = run_micro(&cfg, kind, size, iters);
    CellData {
        spans: r.spans.expect("spans enabled"),
        traces: r.traces,
        proto: r.proto,
    }
}

/// A mixed workload no micro kind covers: pipelined writes with periodic
/// forward fences and interleaved remote reads, so the Fence, SendWindow and
/// read-leg phases all appear in the breakdown.
fn run_mixed_cell(cfg: &SystemConfig, iters: usize) -> CellData {
    let mut cfg = cfg.clone().with_spans(CAP).with_tracing(CAP);
    cfg.nodes = 2;
    let sim = Sim::new(cfg.seed);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let cfg = Rc::new(cfg);
    let eps = Endpoint::for_cluster(&sim, &cluster, cfg.clone());
    cluster.net.set_tracer(eps[0].tracer());
    let (c0, _c1) = Endpoint::connect(&eps[0], &eps[1]);
    let a = eps[0].clone();
    sim.spawn("mixed", async move {
        let mut handles = Vec::new();
        for i in 0..iters {
            let flags = if i % 4 == 3 {
                OpFlags::RELAXED.with_fence_forward()
            } else {
                OpFlags::RELAXED
            };
            let addr = 0x1_0000 + (i as u64 % 8) * 0x4000;
            let h = a.write_bytes(c0, addr, vec![i as u8; 8 << 10], flags).await;
            handles.push(h);
            if i % 3 == 0 {
                let h = a.read(c0, 0x100, addr, 4 << 10, OpFlags::RELAXED).await;
                handles.push(h);
            }
        }
        let waits: Vec<_> = handles.iter().map(|h| h.wait()).collect();
        join_all(waits).await;
    });
    sim.run().expect_quiescent();
    let spans = eps[0].span_recorder().snapshot().expect("spans enabled");
    let traces = eps.iter().filter_map(|e| e.tracer().snapshot()).collect();
    let mut proto = eps[0].stats();
    proto.merge(&eps[1].stats());
    CellData {
        spans,
        traces,
        proto,
    }
}

/// Cross-check spans against the tracer and the flat counters.
fn reconcile(d: &CellData) -> (Json, bool) {
    let spans = &d.spans;
    // 1. Per-span exactness: the exclusive phases telescope to the latency.
    let mut exact = true;
    let mut span_latency_sum = 0u64;
    let mut span_retransmits = 0u64;
    for s in &spans.spans {
        let b = PhaseBreakdown::from_span(s);
        exact &= b.phases.iter().sum::<u64>() == b.latency_ns;
        exact &= b.latency_ns == s.complete.saturating_sub(s.created);
        span_latency_sum += b.latency_ns;
        span_retransmits += u64::from(s.retransmits);
    }
    // 2. Against the tracer: same ops, same nanoseconds (the tracer stamps
    // completion latency via the op handle, spans via milestone math).
    let hist_count: u64 = d
        .traces
        .iter()
        .flat_map(|t| t.op_latency.values())
        .map(|h| h.count())
        .sum();
    let hist_sum: u64 = d
        .traces
        .iter()
        .flat_map(|t| t.op_latency.values())
        .map(|h| h.sum())
        .sum();
    // 3. Against ProtoStats: every issued op produced exactly one span.
    let ops = d.proto.ops_write + d.proto.ops_read;
    // 4. The rollup conserves what the per-span pass measured.
    let att = analyze(spans);
    let rollup_ok = att.overall.ops == spans.spans.len() as u64
        && att.overall.latency_total_ns == span_latency_sum
        && att.overall.phase_sum_ns() == att.overall.latency_total_ns
        && att.overall.latency_hist.count() == att.overall.ops;
    // 5. Per-connection rollups match the per-endpoint tracer histograms
    // (node i's tracer keys op latency by its local connection id, which is
    // exactly the span key's origin `(node, conn)`).
    let mut per_conn_ok = true;
    for (i, t) in d.traces.iter().enumerate() {
        for (conn, h) in &t.op_latency {
            let r = att.per_conn.get(&(i as u16, *conn as u16));
            per_conn_ok &= r.is_some_and(|r| r.latency_total_ns == h.sum() && r.ops == h.count());
        }
    }
    let complete = spans.overwritten == 0 && spans.dropped_active == 0;
    let ok = exact
        && complete
        && spans.completed_total == ops
        && spans.active == 0
        && hist_count == ops
        && hist_sum == span_latency_sum
        && rollup_ok
        && per_conn_ok;
    let rec = Json::obj()
        .set("per_span_phases_exact", exact)
        .set("spans_completed", spans.completed_total)
        .set("ops_expected", ops)
        .set("spans_active_at_end", spans.active)
        .set("spans_overwritten", spans.overwritten)
        .set("span_latency_sum_ns", span_latency_sum)
        .set("tracer_latency_sum_ns", hist_sum)
        .set("tracer_latency_samples", hist_count)
        .set("span_retransmit_transmissions", span_retransmits)
        .set(
            "proto_retransmits",
            d.proto.retransmits_nack + d.proto.retransmits_rto,
        )
        .set("rollup_conserves", rollup_ok)
        .set("per_conn_matches_tracer", per_conn_ok)
        .set("ok", ok);
    (rec, ok)
}

fn cell_json(name: &str, workload: &str, size: usize, iters: usize, d: &CellData) -> (Json, bool) {
    let (rec, ok) = reconcile(d);
    let att = analyze(&d.spans);
    let cell = Json::obj()
        .set("config", name)
        .set("workload", workload)
        .set("size", size)
        .set("iters", iters)
        .set("attribution", att.to_json())
        .set("reconciliation", rec)
        .set("reconciles", ok);
    (cell, ok)
}

fn main() {
    let smoke = multiedge_bench::smoke();
    let iters = if smoke { 24 } else { 120 };
    let size = 32 << 10;

    let configs = [
        ("1L-1G", SystemConfig::one_link_1g(2)),
        ("2Lu-1G", SystemConfig::two_link_1g_unordered(2)),
        ("4L-1G", SystemConfig::four_link_1g(2)),
    ];

    let mut cells = Vec::new();
    let mut all_ok = true;
    for (name, cfg) in &configs {
        let d = run_micro_cell(cfg, MicroKind::OneWay, size, iters);
        let (cell, ok) = cell_json(name, "one-way", size, iters, &d);
        println!(
            "{name:8} one-way  {} spans  latency_total {:.3} ms  reconciles={ok}",
            d.spans.completed_total,
            analyze(&d.spans).overall.latency_total_ns as f64 / 1e6,
        );
        cells.push(cell);
        all_ok &= ok;

        let d = run_mixed_cell(cfg, iters);
        let (cell, ok) = cell_json(name, "mixed-rw-fence", 8 << 10, iters, &d);
        println!(
            "{name:8} mixed    {} spans  latency_total {:.3} ms  reconciles={ok}",
            d.spans.completed_total,
            analyze(&d.spans).overall.latency_total_ns as f64 / 1e6,
        );
        cells.push(cell);
        all_ok &= ok;
    }
    // Ping-pong on the fast link: latency-dominated, so Wire/RxProcess
    // should dominate the breakdown rather than SendWindow.
    let d = run_micro_cell(
        &SystemConfig::one_link_10g(2),
        MicroKind::PingPong,
        4 << 10,
        iters,
    );
    let (cell, ok) = cell_json("1L-10G", "ping-pong", 4 << 10, iters, &d);
    cells.push(cell);
    all_ok &= ok;

    let doc = Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("bench", "attribution")
        .set("smoke", smoke)
        .set(
            "methodology",
            "per-op exclusive phase decomposition from span milestones; phases sum exactly to issue->completion latency; rolled up per connection and per rail; reconciled against tracer op-latency histograms and ProtoStats",
        )
        .set("cells", cells)
        .set("all_reconcile", all_ok);
    let file = multiedge_bench::results_dir().join("BENCH_attribution.json");
    std::fs::write(&file, doc.render_pretty()).expect("write json");
    println!("wrote results/BENCH_attribution.json (all_reconcile={all_ok})");
    assert!(all_ok, "span attribution failed to reconcile");
}
