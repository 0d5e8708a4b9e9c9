//! The paper's three micro-benchmarks (§3): ping-pong, one-way, two-way.
//!
//! Each runs two nodes of a given [`SystemConfig`] inside the simulator and
//! reports the metrics Figure 2 plots: per-operation latency (one-way
//! memory-to-memory time for ping-pong; host initiation overhead for
//! one-way/two-way), delivered throughput, and node-0 CPU utilization out
//! of 200% — plus the §4 network-level statistics (out-of-order fraction,
//! extra frames, drops).

use multiedge::{Endpoint, OpFlags, SystemConfig};
use netsim::sync::join_all;
use netsim::{build_cluster, Dur, FaultPlan, NetStats, Sim};
use std::rc::Rc;

/// Which micro-benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroKind {
    /// Request-reply remote writes; equal sizes both ways.
    PingPong,
    /// Back-to-back remote writes in one direction.
    OneWay,
    /// Simultaneous one-way transfers in both directions; throughput is the
    /// sum of both nodes' transfers (§3).
    TwoWay,
}

impl MicroKind {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Self::PingPong => "ping-pong",
            Self::OneWay => "one-way",
            Self::TwoWay => "two-way",
        }
    }
}

/// Result of one micro-benchmark cell (one configuration × size).
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Operation payload size in bytes.
    pub size: usize,
    /// Operations issued (per direction).
    pub iters: usize,
    /// Figure 2a's latency metric in µs: one-way memory-to-memory time for
    /// ping-pong; host overhead to initiate an operation for one/two-way.
    pub latency_us: f64,
    /// Delivered payload throughput in MB/s (two-way sums both directions).
    pub throughput_mb_s: f64,
    /// Node-0 CPU utilization of the two CPUs, in percent of 200%.
    pub cpu_util_pct: f64,
    /// Merged protocol statistics of both nodes.
    pub proto: multiedge::ProtoStats,
    /// Network-level counters (drops etc.).
    pub net: NetStats,
    /// Virtual elapsed time of the measured section, in seconds.
    pub elapsed_s: f64,
    /// Per-endpoint trace snapshots (one per node, node 0 first). Empty
    /// unless the config enables tracing (`SystemConfig::with_tracing`).
    pub traces: Vec<me_trace::TraceSnapshot>,
    /// Cluster-wide op-span snapshot (the recorder is shared by all nodes).
    /// `None` unless the config enables spans (`SystemConfig::with_spans`).
    pub spans: Option<me_trace::SpanSnapshot>,
    /// Per-endpoint, per-connection protocol statistics (outer index: node,
    /// inner index: connection id on that node).
    pub conn_proto: Vec<Vec<multiedge::ProtoStats>>,
    /// Node 0's interval-sampled timeline when the run was started via
    /// [`run_micro_sampled`]; `None` otherwise.
    pub timeline: Option<me_trace::Timeline>,
    /// Node 0's own end-of-run stats (not merged with node 1) — the
    /// aggregate the timeline's per-interval deltas must reconcile with.
    pub timeline_proto: Option<multiedge::ProtoStats>,
    /// Node 0's streaming health verdict when the run was started via
    /// [`run_micro_sampled`]; `None` otherwise.
    pub health: Option<me_trace::HealthReport>,
    /// Both nodes' proofs of loss that NACKed a frame which was only late
    /// ([`Endpoint::spurious_proofs`]): 0 wherever rails are FIFO.
    pub spurious_proofs: u64,
}

/// How many operations to run for a given size (bounded total volume).
pub fn default_iters(size: usize) -> usize {
    let budget_bytes = 6 << 20; // 6 MiB per direction per cell
    (budget_bytes / size.max(1)).clamp(24, 1500)
}

/// Run one micro-benchmark cell. `cfg.nodes` is forced to 2.
pub fn run_micro(cfg: &SystemConfig, kind: MicroKind, size: usize, iters: usize) -> MicroResult {
    run_micro_with_plan(cfg, kind, size, iters, &FaultPlan::new())
}

/// Like [`run_micro`], but arms a scripted [`FaultPlan`] on the cluster
/// before the drivers start, so the transfer runs through the scripted
/// outages/bursts. An empty plan is exactly `run_micro`.
pub fn run_micro_with_plan(
    cfg: &SystemConfig,
    kind: MicroKind,
    size: usize,
    iters: usize,
    plan: &FaultPlan,
) -> MicroResult {
    run_micro_sampled(cfg, kind, size, iters, plan, None)
}

/// Like [`run_micro_with_plan`], but additionally arms node 0's
/// [`Endpoint::start_timeline`] sampler every
/// `sample_interval` of virtual time (capacity 512 rows — micro runs span
/// milliseconds, and a bigger preallocation would dominate the short
/// runs' wall time), publishing the finished timeline, node 0's
/// end-of-run stats and its health verdict in the result.
pub fn run_micro_sampled(
    cfg: &SystemConfig,
    kind: MicroKind,
    size: usize,
    iters: usize,
    plan: &FaultPlan,
    sample_interval: Option<Dur>,
) -> MicroResult {
    let mut cfg = cfg.clone();
    cfg.nodes = 2;
    let sim = Sim::new(cfg.seed);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let cfg = Rc::new(cfg);
    let eps = Endpoint::for_cluster(&sim, &cluster, cfg.clone());
    if cfg.trace_ring > 0 {
        // Wire-time histograms and drop/corrupt events land in node 0's
        // tracer (all endpoint tracers are independent; the network gets one).
        cluster.net.set_tracer(eps[0].tracer());
    }
    cluster.apply_fault_plan(&sim, plan);
    let (c0, c1) = Endpoint::connect(&eps[0], &eps[1]);
    let sampler = sample_interval.map(|iv| eps[0].start_timeline(c0, iv, 512));

    // Average host-initiation overhead is measured inside the driver tasks.
    let (a, b) = (eps[0].clone(), eps[1].clone());
    let sim2 = sim.clone();
    let elapsed_task = match kind {
        MicroKind::PingPong => {
            let s = sim.clone();
            let t = sim.spawn("pingpong-a", async move {
                let t0 = s.now();
                for _ in 0..iters {
                    let _h = a
                        .write_bytes(c0, 0x1000, vec![1u8; size], OpFlags::RELAXED.with_notify())
                        .await;
                    a.next_notification().await.expect("pong");
                }
                (s.now().since(t0), 0u64)
            });
            let s = sim2;
            sim.spawn("pingpong-b", async move {
                for _ in 0..iters {
                    b.next_notification().await.expect("ping");
                    let _h = b
                        .write_bytes(c1, 0x1000, vec![2u8; size], OpFlags::RELAXED.with_notify())
                        .await;
                }
                let _ = s;
            });
            t
        }
        MicroKind::OneWay => {
            let s = sim.clone();
            sim.spawn("oneway-a", async move {
                let t0 = s.now();
                let mut init_ns = 0u64;
                let mut handles = Vec::with_capacity(iters);
                for _ in 0..iters {
                    let i0 = s.now();
                    let h = a
                        .write_bytes(c0, 0x1000, vec![1u8; size], OpFlags::RELAXED)
                        .await;
                    init_ns += s.now().since(i0).as_nanos();
                    handles.push(h);
                }
                let waits: Vec<_> = handles.iter().map(|h| h.wait()).collect();
                join_all(waits).await;
                (s.now().since(t0), init_ns / iters as u64)
            })
        }
        MicroKind::TwoWay => {
            let s = sim.clone();
            let b2 = b.clone();
            sim.spawn("twoway-b", async move {
                let mut handles = Vec::with_capacity(iters);
                for _ in 0..iters {
                    let h = b2
                        .write_bytes(c1, 0x2000, vec![2u8; size], OpFlags::RELAXED)
                        .await;
                    handles.push(h);
                }
                let waits: Vec<_> = handles.iter().map(|h| h.wait()).collect();
                join_all(waits).await;
            });
            sim.spawn("twoway-a", async move {
                let t0 = s.now();
                let mut init_ns = 0u64;
                let mut handles = Vec::with_capacity(iters);
                for _ in 0..iters {
                    let i0 = s.now();
                    let h = a
                        .write_bytes(c0, 0x1000, vec![1u8; size], OpFlags::RELAXED)
                        .await;
                    init_ns += s.now().since(i0).as_nanos();
                    handles.push(h);
                }
                let waits: Vec<_> = handles.iter().map(|h| h.wait()).collect();
                join_all(waits).await;
                (s.now().since(t0), init_ns / iters as u64)
            })
        }
    };

    let report = sim.run();
    report.expect_quiescent();
    let (timeline, health) = sampler.map(|s| s.finish()).unzip();
    let timeline_proto = timeline.as_ref().map(|_| eps[0].stats());
    let (elapsed, avg_init_ns) = elapsed_task.try_take().expect("driver finished");
    let elapsed_s = elapsed.as_secs_f64();

    let latency_us = match kind {
        // One-way memory-to-memory time per operation: half the round trip.
        MicroKind::PingPong => elapsed.as_micros_f64() / (2.0 * iters as f64),
        // Host overhead to initiate an operation.
        MicroKind::OneWay | MicroKind::TwoWay => avg_init_ns as f64 / 1e3,
    };
    let dirs = match kind {
        MicroKind::OneWay => 1.0,
        // Ping-pong moves size bytes each way per iteration; two-way reports
        // the sum of both nodes' transfers (§3).
        MicroKind::PingPong | MicroKind::TwoWay => 2.0,
    };
    let throughput_mb_s = if elapsed_s > 0.0 {
        dirs * (size as f64) * (iters as f64) / elapsed_s / 1e6
    } else {
        0.0
    };
    let mut proto = eps[0].stats();
    proto.merge(&eps[1].stats());
    let cpu0 = eps[0].cpu();
    let cpu_util_pct = cpu0.utilization_of_two(elapsed) * 100.0;
    let traces = eps.iter().filter_map(|e| e.tracer().snapshot()).collect();
    let spans = eps[0].span_recorder().snapshot();
    let conn_proto = eps
        .iter()
        .map(|e| (0..e.conn_count()).map(|c| e.conn_stats(c)).collect())
        .collect();
    MicroResult {
        size,
        iters,
        latency_us,
        throughput_mb_s,
        cpu_util_pct,
        proto,
        net: cluster.net.stats(),
        elapsed_s,
        traces,
        spans,
        conn_proto,
        timeline,
        timeline_proto,
        health,
        spurious_proofs: eps.iter().map(|e| e.spurious_proofs()).sum(),
    }
}

/// The size sweep Figure 2 plots.
pub fn fig2_sizes() -> Vec<usize> {
    vec![
        16,
        64,
        256,
        1 << 10,
        4 << 10,
        16 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_1g_saturates_link() {
        // The paper: ≈120 MB/s on 1L-1G (≈95% of nominal 125 MB/s).
        let cfg = SystemConfig::one_link_1g(2);
        let r = run_micro(&cfg, MicroKind::OneWay, 1 << 20, 12);
        assert!(
            r.throughput_mb_s > 110.0 && r.throughput_mb_s <= 125.0,
            "1L-1G one-way got {:.1} MB/s",
            r.throughput_mb_s
        );
    }

    #[test]
    fn one_way_2l_1g_doubles() {
        // The paper: ≈240 MB/s with two links.
        let cfg = SystemConfig::two_link_1g_unordered(2);
        let r = run_micro(&cfg, MicroKind::OneWay, 1 << 20, 12);
        assert!(
            r.throughput_mb_s > 215.0 && r.throughput_mb_s <= 250.0,
            "2L-1G one-way got {:.1} MB/s",
            r.throughput_mb_s
        );
    }

    #[test]
    fn one_way_10g_lands_near_paper() {
        // The paper: ≈1100 MB/s (88% of nominal 1250).
        let cfg = SystemConfig::one_link_10g(2);
        let r = run_micro(&cfg, MicroKind::OneWay, 1 << 20, 24);
        assert!(
            r.throughput_mb_s > 950.0 && r.throughput_mb_s < 1250.0,
            "1L-10G one-way got {:.1} MB/s",
            r.throughput_mb_s
        );
    }

    #[test]
    fn ping_pong_small_latency_is_30us_scale() {
        let cfg = SystemConfig::one_link_10g(2);
        let r = run_micro(&cfg, MicroKind::PingPong, 16, 40);
        assert!(
            (20.0..45.0).contains(&r.latency_us),
            "min latency {:.1}us",
            r.latency_us
        );
    }

    #[test]
    fn host_overhead_is_2us_scale() {
        let cfg = SystemConfig::one_link_1g(2);
        let r = run_micro(&cfg, MicroKind::OneWay, 16, 100);
        assert!(
            (0.9..4.0).contains(&r.latency_us),
            "host overhead {:.2}us",
            r.latency_us
        );
    }

    #[test]
    fn two_way_exceeds_one_way() {
        let cfg = SystemConfig::one_link_1g(2);
        let one = run_micro(&cfg, MicroKind::OneWay, 64 << 10, 40);
        let two = run_micro(&cfg, MicroKind::TwoWay, 64 << 10, 40);
        assert!(
            two.throughput_mb_s > one.throughput_mb_s * 1.5,
            "two-way {:.0} vs one-way {:.0}",
            two.throughput_mb_s,
            one.throughput_mb_s
        );
    }
}
