//! Time-resolved telemetry cells: drivers behind `cargo bench --bench
//! telemetry`.
//!
//! The aggregate benches answer "how much, in total"; these cells answer
//! "when". Each one runs a workload with the interval sampler armed
//! ([`me_trace::Timeline`]) and returns the per-interval rows next to the
//! end-of-run aggregates so the harness can enforce the telemetry plane's
//! two core promises:
//!
//! 1. **Exact reconciliation** — for every monotone [`ProtoStats`]
//!    counter, `base + Σ per-interval deltas == end-of-run value`, no
//!    sampling loss, no off-by-one at the edges ([`reconcile_proto`]).
//! 2. **Observational cost only** — the sampler adds no allocations to
//!    the datapath and ≤5% frames/wall-s (gated in the bench binary,
//!    which owns the counting allocator and the wall clock).
//!
//! Three deterministic cells cover the two runtimes the timeline plane is
//! wired through: the simulator endpoint under a rail outage
//! ([`failover_telemetry`]), every node of an incast fan-in on one engine
//! ([`incast_telemetry`] — the cross-node imbalance names the receiver
//! hot), and the wire-protocol endpoint over a chaos-wrapped backplane
//! ([`wire_telemetry`]).

use crate::micro::{run_micro_sampled, MicroKind, MicroResult};
use crate::scale::{incast_cell, run_scale_cell, MEMBER_COUNTER};
use bytes::Bytes;
use me_trace::{diagnose_member_timelines, imbalance, HealthReport, SpanRecorder, Timeline};
use multiedge::backplane::{
    drive, Backplane, ChaosConfig, ChaosStats, FaultBackplane, SimBackplane, WireEndpoint,
};
use multiedge::{OpFlags, ProtoStats, SystemConfig};
use netsim::time::{ms, us};
use netsim::{build_cluster, FaultPlan, Sim};

/// Exact reconciliation gate: every monotone [`ProtoStats`] counter in
/// `end` must equal the timeline's `base + Σ retained deltas` for the
/// column of the same name.
///
/// # Errors
///
/// Returns the first counter whose telescoped sum disagrees with the
/// end-of-run aggregate (or that the timeline does not carry at all).
pub fn reconcile_proto(tl: &Timeline, end: &ProtoStats) -> Result<(), String> {
    for (name, value) in end.monotone_counters() {
        let id = tl
            .source_id(name)
            .ok_or_else(|| format!("timeline has no column {name}"))?;
        let sum = tl.base_raw(id) + tl.column_sum(id);
        if sum != value {
            return Err(format!(
                "{name}: base + Σ deltas = {sum}, end-of-run = {value}"
            ));
        }
    }
    Ok(())
}

/// Sum of the per-row deltas of two counter columns at row `i`.
fn row_delta2(tl: &Timeline, i: usize, a: &str, b: &str) -> u64 {
    let (ia, ib) = (tl.source_id(a).expect(a), tl.source_id(b).expect(b));
    let (_, vals) = tl.row(i);
    vals[ia.index()] + vals[ib.index()]
}

// ---------------------------------------------------------------------------
// Failover cell (simulator endpoint)
// ---------------------------------------------------------------------------

/// Result of [`failover_telemetry`]: the sampled micro run plus the
/// derived interval facts the gates consume.
pub struct FailoverTelemetry {
    /// The underlying one-way run (timeline + node-0 end stats inside).
    pub result: MicroResult,
    /// The timeline rendered as a schema-versioned JSONL artifact.
    pub jsonl: String,
    /// Retained rows.
    pub rows: usize,
    /// Intervals whose retransmit delta (NACK + RTO) was non-zero.
    pub retransmit_intervals: usize,
    /// Intervals during which rail 1's health gauge read `Dead`.
    pub rail_dead_intervals: usize,
}

/// A 2Lu-1G one-way stream through a scripted rail outage (rail 1 dies
/// early in the stream and is repaired mid-way), sampled every 1 ms of
/// virtual time. The timeline localises the retransmit burst and the
/// dead-rail window to their intervals — the aggregate stats can only say
/// they happened.
pub fn failover_telemetry(smoke: bool) -> FailoverTelemetry {
    let mut cfg = SystemConfig::two_link_1g_unordered(2);
    cfg.seed = 7;
    cfg.proto.rail_cooldown = ms(4);
    // The stream moves ~2 MB (smoke) / ~5 MB at an aggregate ~2 Gb/s:
    // ~8 ms / ~21 ms of virtual time. The outage must land inside that.
    let (down, up) = if smoke { (ms(2), ms(5)) } else { (ms(5), ms(12)) };
    let plan = FaultPlan::new().rail_down(down, 1).rail_up(up, 1);
    let iters = if smoke { 60 } else { 160 };
    let result = run_micro_sampled(&cfg, MicroKind::OneWay, 32 << 10, iters, &plan, Some(ms(1)));
    let tl = result.timeline.as_ref().expect("sampling was requested");
    let end = result.timeline_proto.as_ref().expect("sampling was requested");
    reconcile_proto(tl, end).expect("failover timeline must reconcile exactly");

    let rail1 = tl.source_id("rail1.state").expect("rail 1 gauge");
    let dead = multiedge::rail_state_code(multiedge::RailState::Dead);
    let mut retransmit_intervals = 0;
    let mut rail_dead_intervals = 0;
    for i in 0..tl.len() {
        if row_delta2(tl, i, "retransmits_nack", "retransmits_rto") > 0 {
            retransmit_intervals += 1;
        }
        if tl.row(i).1[rail1.index()] == dead {
            rail_dead_intervals += 1;
        }
    }
    let jsonl = tl.to_jsonl();
    let rows = tl.len();
    FailoverTelemetry {
        result,
        jsonl,
        rows,
        retransmit_intervals,
        rail_dead_intervals,
    }
}

// ---------------------------------------------------------------------------
// Incast cell (one timeline per node)
// ---------------------------------------------------------------------------

/// Result of [`incast_telemetry`]: one timeline per node plus the
/// cross-node verdicts drawn from them.
pub struct IncastTelemetry {
    /// One timeline per node, node order (node 0 is the receiver).
    pub timelines: Vec<Timeline>,
    /// Node that received the most data bytes overall (expected: node 0).
    pub hot_node: usize,
    /// Imbalance index (`max / mean`) of the per-node received-byte totals.
    pub imbalance: f64,
    /// The imbalance diagnosis over the per-interval received-byte deltas.
    pub health: HealthReport,
}

/// The 8-node incast fan-in on one engine, every node sampled every
/// 200 µs of virtual time. Each node's `data_bytes_recv` telescopes to its
/// end-of-run [`ProtoStats`] exactly (asserted here); the per-node deltas
/// are the members of the imbalance index and of its diagnosis.
pub fn incast_telemetry(smoke: bool) -> IncastTelemetry {
    let bytes = if smoke { 32 << 10 } else { 128 << 10 };
    let (out, _, timelines) = run_scale_cell(&incast_cell(8, bytes), Some(us(200)));
    // Fingerprint column 3 is the node's end-of-run `data_bytes_recv`.
    let totals: Vec<u64> = timelines
        .iter()
        .zip(&out.fingerprints)
        .map(|(tl, (node, fp))| {
            let id = tl
                .source_id(MEMBER_COUNTER)
                .expect("node timelines carry the member counter");
            let sum = tl.base_raw(id) + tl.column_sum(id);
            assert_eq!(
                sum, fp[3],
                "node {node}: base + Σ deltas of {MEMBER_COUNTER} != ProtoStats"
            );
            sum
        })
        .collect();
    let (imbalance, hot_node) = imbalance(&totals);
    let health = diagnose_member_timelines(&timelines, MEMBER_COUNTER);
    IncastTelemetry {
        timelines,
        hot_node,
        imbalance,
        health,
    }
}

// ---------------------------------------------------------------------------
// Wire cell (backplane endpoint under chaos)
// ---------------------------------------------------------------------------

/// Result of [`wire_telemetry`].
pub struct WireTelemetry {
    /// The finished wire-endpoint timeline (node 0 side).
    pub timeline: Timeline,
    /// The timeline rendered as a schema-versioned JSONL artifact.
    pub jsonl: String,
    /// Node 0's end-of-run protocol stats.
    pub end: ProtoStats,
    /// Node 0 interposer's chaos decisions for the run.
    pub chaos: ChaosStats,
    /// Intervals whose retransmit delta (NACK + RTO) was non-zero.
    pub retransmit_intervals: usize,
}

/// A two-rail wire-endpoint stream over a chaos-wrapped simulator
/// backplane (2% drop): the per-interval rows localise the loss-recovery
/// retransmits; the token-age gauge rides along for watchdog forensics.
pub fn wire_telemetry(smoke: bool) -> WireTelemetry {
    const BUDGET_NS: u64 = 20_000_000_000;
    let cfg = SystemConfig::two_link_1g(2);
    let sim = Sim::new(23);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let (bpa, bpb) = SimBackplane::pair(&sim, &cluster);
    let chaos = ChaosConfig::new(23).with_drop(0.02);
    let mut bpa = FaultBackplane::new(bpa, 0, &chaos);
    let mut bpb = FaultBackplane::new(bpb, 1, &chaos);
    let spans = SpanRecorder::disabled();
    let (mut a, mut b) = WireEndpoint::pair(&cfg.proto, bpa.rails(), &spans);
    a.start_timeline(&bpa, us(200).as_nanos(), 4096, false);

    let iters = if smoke { 24 } else { 96 };
    let size = 16usize << 10;
    let ops: u64 = iters as u64;
    for i in 0..iters {
        let payload = Bytes::from(vec![(i as u8).wrapping_mul(31) ^ 0x5A; size]);
        a.write(
            0,
            &mut bpa,
            0x10_0000 + (i as u64) * 0x1_0000,
            payload,
            OpFlags::RELAXED,
        );
    }
    drive(
        &mut a,
        &mut bpa,
        &mut b,
        &mut bpb,
        |_, _, _, _| {},
        |a, b| {
            let (sa, sb) = (a.conn_state(0), b.conn_state(0));
            sa.acked == sa.next_seq && sb.applied_below == ops && !sb.has_gap
        },
        BUDGET_NS,
    )
    .expect("wire telemetry stream must complete under 2% loss");

    // One final row after the drive loop so the deltas telescope to the
    // end-of-run aggregates exactly.
    a.sample_timeline(&mut bpa);
    let end = a.stats();
    let timeline = a.take_timeline().expect("timeline was enabled");
    reconcile_proto(&timeline, &end).expect("wire timeline must reconcile exactly");

    let retransmit_intervals = (0..timeline.len())
        .filter(|&i| row_delta2(&timeline, i, "retransmits_nack", "retransmits_rto") > 0)
        .count();
    let jsonl = timeline.to_jsonl();
    WireTelemetry {
        timeline,
        jsonl,
        end,
        chaos: bpa.stats(),
        retransmit_intervals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use me_trace::TimelineDoc;

    #[test]
    fn failover_cell_reconciles_and_localises_the_outage() {
        let f = failover_telemetry(true);
        assert!(f.rows >= 5, "expected a multi-interval run, got {}", f.rows);
        assert!(
            f.retransmit_intervals >= 1,
            "the outage must surface as retransmit intervals"
        );
        assert!(
            f.rail_dead_intervals >= 1,
            "rail 1 must read Dead during the outage window"
        );
        // The JSONL artifact round-trips and carries the same invariant.
        let doc = TimelineDoc::parse_jsonl(&f.jsonl).expect("parse");
        doc.reconcile().expect("telescoping holds in the artifact");
        assert_eq!(doc.samples.len(), f.rows);
    }

    #[test]
    fn incast_cell_names_the_receiver_node_as_hot() {
        // The cell itself asserts each node's data_bytes_recv reconciles.
        let t = incast_telemetry(true);
        assert_eq!(t.timelines.len(), 8, "one timeline per node");
        assert_eq!(t.hot_node, 0, "the receiver must dominate received bytes");
        let inc = t
            .health
            .first(me_trace::IncidentCause::IncastImbalance)
            .expect("incast must diagnose as IncastImbalance");
        assert_eq!(
            inc.evidence()[0].column,
            0,
            "the receiver must be named hot"
        );
    }

    #[test]
    fn wire_cell_reconciles_under_chaos() {
        let w = wire_telemetry(true);
        assert!(w.chaos.dropped > 0, "2% drop must fire at least once");
        assert!(
            w.retransmit_intervals >= 1,
            "loss recovery must surface as retransmit intervals"
        );
        assert!(w.end.retransmits() > 0);
        let doc = TimelineDoc::parse_jsonl(&w.jsonl).expect("parse");
        doc.reconcile().expect("telescoping holds in the artifact");
    }
}
