//! Ablation: rail failure and recovery under load.
//!
//! Extends the loss ablation from stationary i.i.d. drops to a scripted hard
//! outage: a 2-rail connection streams a large transfer while rail 1 goes
//! down mid-flight and comes back 20 ms later. For a sweep of seeds the
//! bench measures goodput before / during / after the outage, how fast the
//! rail-health layer detects the failure (first `RailDown` trace event after
//! the injection) and how fast it re-admits the restored rail (first
//! `RailUp` after the repair), then writes the aggregate —
//! p50/p99 detection and recovery latency plus per-phase goodput — to
//! `results/BENCH_failover.json`.

use me_stats::table::fmt_f;
use me_stats::Table;
use me_trace::{EventKind, Json, LogHistogram, SCHEMA_VERSION};
use multiedge::{Endpoint, OpFlags, RailState, SystemConfig};
use netsim::time::{ms, SimTime};
use netsim::{build_cluster, FaultPlan, Sim};
use std::rc::Rc;

/// Outage window: rail 1 dies at 10 ms and is repaired at 30 ms.
const T_DOWN_MS: u64 = 10;
const T_UP_MS: u64 = 30;
/// Total streamed bytes; sized so the transfer spans well past the repair
/// (≈2.5 MB move before the outage, ≈2.4 MB during, the rest after).
const TOTAL: usize = 8 << 20;
const CHUNK: usize = 256 << 10;
/// Ring large enough to retain every event of a run, so the first
/// RailDown/RailUp after each injection is really the first.
const RING: usize = 1 << 17;

/// One seed's measurements.
struct SeedRun {
    seed: u64,
    goodput_before_mb_s: f64,
    goodput_during_mb_s: f64,
    goodput_after_mb_s: f64,
    /// Injection → first `RailDown` (rail declared dead), ns.
    detect_ns: u64,
    /// Repair → first `RailUp` (rail re-admitted), ns.
    readmit_ns: u64,
    rto_backoff_max: u64,
    retransmits: u64,
    elapsed_ms: f64,
}

/// Deterministic filler so payload integrity is checkable per seed.
fn pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64) >> 3) as u8)
        .collect()
}

fn run_seed(seed: u64) -> SeedRun {
    let mut cfg = SystemConfig::two_link_1g_unordered(2).with_tracing(RING);
    cfg.seed = seed;
    // Cooldown short enough that the probe cycle lands promptly after the
    // repair while the stream is still running.
    cfg.proto.rail_cooldown = ms(8);
    let sim = Sim::new(cfg.seed);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let cfg = Rc::new(cfg);
    let eps = Endpoint::for_cluster(&sim, &cluster, cfg);
    cluster.net.set_tracer(eps[0].tracer());
    let plan = FaultPlan::new()
        .rail_down(ms(T_DOWN_MS), 1)
        .rail_up(ms(T_UP_MS), 1);
    cluster.apply_fault_plan(&sim, &plan);
    let (c0, c1) = Endpoint::connect(&eps[0], &eps[1]);

    let data = pattern(seed, TOTAL);
    let expect = data.clone();
    let ep = eps[0].clone();
    let done = sim.spawn("failover-writer", async move {
        let mut handles = Vec::new();
        for (i, part) in data.chunks(CHUNK).enumerate() {
            handles.push(
                ep.write_bytes(c0, (i * CHUNK) as u64, part.to_vec(), OpFlags::RELAXED)
                    .await,
            );
        }
        for h in handles {
            h.wait().await;
        }
    });

    // Phase boundaries straddling the fault plan.
    sim.run_with_limit(Some(SimTime::ZERO + ms(T_DOWN_MS)));
    let b0 = eps[1].conn_stats(c1).data_bytes_recv;
    sim.run_with_limit(Some(SimTime::ZERO + ms(T_UP_MS)));
    let b1 = eps[1].conn_stats(c1).data_bytes_recv;
    sim.run().expect_quiescent();
    assert!(done.try_take().is_some(), "seed {seed}: writer must finish");
    let end = sim.now();

    // Sanity: reliability must hold through the outage.
    assert_eq!(eps[1].mem_read(0, TOTAL), expect, "seed {seed}: corruption");
    let tx = eps[0].conn_stats(c0);
    let rx = eps[1].conn_stats(c1);
    assert_eq!(
        tx.data_frames_sent, rx.data_frames_recv,
        "seed {seed}: exactly-once delivery violated"
    );
    assert!(tx.rail_down_events >= 1, "seed {seed}: rail never died");
    assert!(
        tx.rail_up_events >= 1,
        "seed {seed}: rail never re-admitted"
    );
    assert!(
        eps[0]
            .rail_states(c0)
            .iter()
            .all(|s| *s == RailState::Healthy),
        "seed {seed}: rails not healthy at the end: {:?}",
        eps[0].rail_states(c0)
    );

    // Detection and re-admission latency from the trace timeline.
    let snap = eps[0].tracer().snapshot().expect("tracing enabled");
    assert_eq!(snap.overwritten, 0, "seed {seed}: trace ring wrapped");
    let first_at = |after_ns: u64, pred: &dyn Fn(&EventKind) -> bool| {
        snap.events
            .iter()
            .find(|e| e.t_ns >= after_ns && pred(&e.kind))
            .map(|e| e.t_ns - after_ns)
    };
    let detect_ns = first_at(T_DOWN_MS * 1_000_000, &|k| matches!(k, EventKind::RailDown))
        .expect("a RailDown event after the injection");
    let readmit_ns = first_at(T_UP_MS * 1_000_000, &|k| matches!(k, EventKind::RailUp))
        .expect("a RailUp event after the repair");

    let phase = |bytes: f64, window_ns: u64| bytes / (window_ns as f64 / 1e9) / 1e6;
    let after_ns = end.since(SimTime::ZERO + ms(T_UP_MS)).as_nanos();
    SeedRun {
        seed,
        goodput_before_mb_s: phase(b0 as f64, T_DOWN_MS * 1_000_000),
        goodput_during_mb_s: phase((b1 - b0) as f64, (T_UP_MS - T_DOWN_MS) * 1_000_000),
        goodput_after_mb_s: phase((TOTAL as u64 - b1) as f64, after_ns),
        detect_ns,
        readmit_ns,
        rto_backoff_max: tx.rto_backoff_max,
        retransmits: tx.retransmits_nack + tx.retransmits_rto,
        elapsed_ms: end.since(SimTime::ZERO).as_nanos() as f64 / 1e6,
    }
}

fn main() {
    let seeds: Vec<u64> = (1..=12).collect();
    let mut t = Table::new(
        "Ablation: rail-1 outage 10–30 ms (2Lu-1G one-way stream, 8 MiB)",
        &[
            "seed",
            "before MB/s",
            "during MB/s",
            "after MB/s",
            "detect ms",
            "readmit ms",
            "backoff",
            "rexmit",
        ],
    );
    let mut detect = LogHistogram::new();
    let mut readmit = LogHistogram::new();
    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for &seed in &seeds {
        let r = run_seed(seed);
        detect.record(r.detect_ns);
        readmit.record(r.readmit_ns);
        t.row(vec![
            format!("{seed}"),
            fmt_f(r.goodput_before_mb_s),
            fmt_f(r.goodput_during_mb_s),
            fmt_f(r.goodput_after_mb_s),
            fmt_f(r.detect_ns as f64 / 1e6),
            fmt_f(r.readmit_ns as f64 / 1e6),
            format!("{}", r.rto_backoff_max),
            format!("{}", r.retransmits),
        ]);
        rows.push(
            Json::obj()
                .set("seed", r.seed)
                .set("goodput_before_mb_s", r.goodput_before_mb_s)
                .set("goodput_during_mb_s", r.goodput_during_mb_s)
                .set("goodput_after_mb_s", r.goodput_after_mb_s)
                .set("detect_ns", r.detect_ns)
                .set("readmit_ns", r.readmit_ns)
                .set("rto_backoff_max", r.rto_backoff_max)
                .set("retransmits", r.retransmits)
                .set("elapsed_ms", r.elapsed_ms),
        );
        runs.push(r);
    }
    t.print();

    let n = runs.len() as f64;
    let mean = |f: &dyn Fn(&SeedRun) -> f64| runs.iter().map(f).sum::<f64>() / n;
    let before = mean(&|r| r.goodput_before_mb_s);
    let during = mean(&|r| r.goodput_during_mb_s);
    let after = mean(&|r| r.goodput_after_mb_s);
    println!(
        "mean goodput: before {before:.0} MB/s, during {during:.0} MB/s, after {after:.0} MB/s"
    );
    println!(
        "detection latency p50 {:.2} ms, p99 {:.2} ms; re-admission p50 {:.2} ms, p99 {:.2} ms",
        detect.percentile(50.0) as f64 / 1e6,
        detect.percentile(99.0) as f64 / 1e6,
        readmit.percentile(50.0) as f64 / 1e6,
        readmit.percentile(99.0) as f64 / 1e6,
    );

    let doc = Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("bench", "ablation_failover")
        .set("config", "2Lu-1G")
        .set(
            "fault_plan",
            format!("rail 1 down at {T_DOWN_MS} ms, up at {T_UP_MS} ms"),
        )
        .set("total_bytes", TOTAL)
        .set("seeds", seeds.len())
        .set(
            "goodput_mb_s",
            Json::obj()
                .set("before_mean", before)
                .set("during_mean", during)
                .set("after_mean", after),
        )
        .set(
            "detect_latency_ns",
            Json::obj()
                .set("p50", detect.percentile(50.0))
                .set("p99", detect.percentile(99.0))
                .set("mean", detect.mean())
                .set("max", detect.max()),
        )
        .set(
            "recovery_latency_ns",
            Json::obj()
                .set("p50", readmit.percentile(50.0))
                .set("p99", readmit.percentile(99.0))
                .set("mean", readmit.mean())
                .set("max", readmit.max()),
        )
        .set("runs", rows);
    let out = multiedge_bench::results_dir().join("BENCH_failover.json");
    std::fs::write(out, doc.render_pretty()).expect("write json");
    println!("wrote results/BENCH_failover.json");

    // A 1-GbE rail tops out at 125 MB/s: the during-phase must converge to
    // single-rail goodput (not stall), and the surrounding phases must
    // show both rails striping.
    assert!(
        during > 60.0 && during <= 126.0,
        "during-outage goodput {during:.0} MB/s did not converge to the surviving rail"
    );
    assert!(
        before > 180.0 && after > 150.0,
        "two-rail phases too slow: before {before:.0}, after {after:.0} MB/s"
    );
    // Detection must beat the paper's fixed 10 ms timer; re-admission is
    // probe-paced, so it lands within about one cooldown of the repair.
    assert!(
        detect.percentile(99.0) < 10_000_000,
        "detection p99 {} ns slower than the fixed 10 ms timer",
        detect.percentile(99.0)
    );
    assert!(
        readmit.percentile(99.0) < 20_000_000,
        "re-admission p99 {} ns beyond two cooldowns",
        readmit.percentile(99.0)
    );
}
