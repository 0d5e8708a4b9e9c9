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
//! Three deterministic cells cover the three runtimes the timeline plane
//! is wired through: the simulator endpoint under a rail outage
//! ([`failover_telemetry`]), the sharded engine under incast fan-in
//! ([`incast_telemetry`] — the per-interval shard imbalance index names
//! the hot shard), and the wire-protocol endpoint over a chaos-wrapped
//! backplane ([`wire_telemetry`]).

use crate::micro::{run_micro_sampled, MicroKind, MicroResult};
use crate::scale::{incast_cell, run_scale_cell_sampled, ScaleCellResult};
use bytes::Bytes;
use me_trace::{imbalance, SpanRecorder, Timeline};
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
// Incast cell (sharded engine)
// ---------------------------------------------------------------------------

/// Result of [`incast_telemetry`]: the scale-cell run plus the derived
/// per-interval imbalance series.
pub struct IncastTelemetry {
    /// The underlying sharded run (per-shard timelines inside).
    pub cell: ScaleCellResult,
    /// Shard with the most events overall (expected: the shard owning
    /// node 0, the incast receiver — shard 0 under contiguous partition).
    pub hot_shard: usize,
    /// Highest per-interval imbalance index (`max / mean` events).
    pub peak_imbalance: f64,
    /// Per interval: `(t_ns, imbalance index, hottest shard)`.
    pub intervals: Vec<(u64, f64, usize)>,
}

/// The 8-node incast fan-in on 4 shards, each shard's event counter
/// sampled every 200 µs of virtual time. Because rows are stamped at
/// global window boundaries, the per-shard grids align exactly and each
/// row yields one cross-shard imbalance reading.
pub fn incast_telemetry(smoke: bool) -> IncastTelemetry {
    let bytes = if smoke { 32 << 10 } else { 128 << 10 };
    let cell = incast_cell(8, bytes);
    let r = run_scale_cell_sampled(&cell, 4, Some(us(200)))
        .expect("incast telemetry cell must partition and complete");
    assert_eq!(r.shard_samples.len(), 4, "one timeline per shard");

    let events: Vec<_> = r
        .shard_samples
        .iter()
        .map(|tl| tl.source_id("events").expect("shard timelines carry events"))
        .collect();
    let totals: Vec<u64> = r
        .shard_samples
        .iter()
        .zip(&events)
        .map(|(tl, &id)| tl.base_raw(id) + tl.column_sum(id))
        .collect();
    let (_, hot_shard) = imbalance(&totals);

    let rows = r
        .shard_samples
        .iter()
        .map(Timeline::len)
        .min()
        .unwrap_or(0);
    let mut intervals = Vec::with_capacity(rows);
    let mut peak_imbalance = 0.0f64;
    for i in 0..rows {
        let t = r.shard_samples[0].row(i).0;
        let deltas: Vec<u64> = r
            .shard_samples
            .iter()
            .zip(&events)
            .map(|(tl, &id)| {
                debug_assert_eq!(tl.row(i).0, t, "shard grids must align");
                tl.row(i).1[id.index()]
            })
            .collect();
        let (idx, hot) = imbalance(&deltas);
        peak_imbalance = peak_imbalance.max(idx);
        intervals.push((t, idx, hot));
    }
    IncastTelemetry {
        cell: r,
        hot_shard,
        peak_imbalance,
        intervals,
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
    a.start_timeline(&bpa, us(200).as_nanos(), 4096, None);

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
    fn incast_cell_names_the_receiver_shard_as_hot() {
        let t = incast_telemetry(true);
        // Node 0 is the incast receiver; the contiguous partition puts it
        // in shard 0, which must dominate the event counts.
        assert_eq!(t.hot_shard, 0, "hot shard must be the receiver's");
        assert!(
            t.peak_imbalance > 1.0,
            "incast must be measurably imbalanced, got {}",
            t.peak_imbalance
        );
        assert!(!t.intervals.is_empty(), "expected per-interval rows");
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
