//! Observability cells: drivers behind `cargo bench --bench doctor`.
//!
//! Each cell runs a seeded workload once, with the interval sampler and its
//! streaming [`me_trace::HealthMonitor`] armed, and returns the timeline
//! and the incident verdict next to the ground truth of the injected
//! fault. The harness reads both planes' promises off that one run:
//!
//! 1. **Exact reconciliation** — for every monotone [`ProtoStats`]
//!    counter, `base + Σ per-interval deltas == end-of-run value`, no
//!    sampling loss, no off-by-one at the edges ([`reconcile_proto`]; the
//!    rail-outage and chaos-burst cells), and every incast node's received
//!    bytes telescope to its end-of-run count.
//! 2. **Localisation** — the rows name the intervals of a retransmit burst
//!    and of a dead rail, which the aggregates can only count
//!    ([`retransmit_intervals`]).
//! 3. **Detection latency** — a scripted rail outage opens a `RailOutage`
//!    incident within a bounded number of sample intervals of injection
//!    ([`rail_outage_doctor`]).
//! 4. **No false alarms** — clean runs across a seed sweep open zero
//!    incidents ([`clean_seeds_doctor`]).
//! 5. **Named causes** — every cause is the first incident of the cell
//!    [`cause_gate`] names: a chaos loss burst diagnoses as
//!    `RetransmitStorm`, at smoke size as nothing else
//!    ([`chaos_burst_doctor`]), a
//!    stalled receiver NIC as `CongestionBacklog` inside the stall while a
//!    short stall opens nothing ([`nic_stall_doctor`]), incast fan-in as
//!    `IncastImbalance` with the receiver node named hot (by the
//!    received-byte totals too), and a balanced all-to-all stays clean
//!    ([`incast_doctor`], [`balanced_doctor`]).
//! 6. **Offline ≡ online** — replaying the run's JSONL artifact through
//!    [`me_trace::HealthMonitor::replay_doc`] reproduces the online
//!    monitor's report byte-for-byte (every cell that exports JSONL).
//!
//! The overhead gates (the sampler and its monitor add no allocations per
//! data frame or per sample row and leave the stats fingerprint unchanged)
//! live in the bench binary, which owns the counting allocator and the wall clock.

use crate::micro::{run_micro_sampled, MicroKind, MicroResult};
use crate::scale::{
    all_to_all_cell, incast_cell, run_scale_cell, EngineOut, ScaleCell, MEMBER_COUNTER,
};
use bytes::Bytes;
use me_trace::{
    diagnose_member_timelines, imbalance, AlarmKind, HealthMonitor, HealthReport, IncidentCause,
    SpanRecorder, Timeline, TimelineDoc,
};
use multiedge::backplane::{
    drive_with, Backplane, ChaosConfig, ChaosStats, DriveLimits, FaultBackplane, SimBackplane,
    WireEndpoint,
};
use multiedge::{rail_state_code, OpFlags, ProtoStats, RailState, SystemConfig};
use netsim::time::{ms, us};
use netsim::{build_cluster, Dur, FaultPlan, GilbertElliott, Sim};

/// Where a diagnosis is checked: a doctor bench cell (by its name in
/// `results/doctor_incidents.json`) whose first incident it decides, or a
/// named test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// A doctor bench cell.
    Cell(&'static str),
    /// A test outside the doctor bench, as `file::name`.
    Test(&'static str),
}

impl Gate {
    /// `cell:<name>` or `test:<file::name>`, for the bench report.
    pub fn label(&self) -> String {
        match self {
            Gate::Cell(c) => format!("cell:{c}"),
            Gate::Test(t) => format!("test:{t}"),
        }
    }
}

const FENCE_STALL_TEST: &str = "timeline_properties.rs::simulator_sees_a_fence_stall";

/// The gate of every incident cause. No `_` arm: a new cause does not
/// compile until its gate is named.
pub fn cause_gate(cause: IncidentCause) -> Gate {
    match cause {
        IncidentCause::RailOutage => Gate::Cell("rail_outage"),
        IncidentCause::RetransmitStorm => Gate::Cell("chaos_burst"),
        IncidentCause::FenceStall => Gate::Test(FENCE_STALL_TEST),
        IncidentCause::IncastImbalance => Gate::Cell("incast"),
        IncidentCause::CongestionBacklog => Gate::Cell("nic_stall"),
    }
}

/// The gate of every detector: the cell whose first incident its alarm
/// decides. No `_` arm, as in [`cause_gate`].
pub fn alarm_gate(kind: AlarmKind) -> Gate {
    match kind {
        AlarmKind::Drift => Gate::Cell("nic_stall"),
        AlarmKind::RepairStall => Gate::Cell("chaos_burst"),
        AlarmKind::Burst => Gate::Cell("chaos_burst"),
        AlarmKind::RailDead => Gate::Cell("rail_outage"),
        AlarmKind::FenceStuck => Gate::Test(FENCE_STALL_TEST),
        AlarmKind::Imbalance => Gate::Cell("incast"),
    }
}

/// The cause-naming gate over a bench run's `(cell, report)` list: each of
/// `causes` that [`cause_gate`] puts in a doctor cell is that cell's first
/// incident, and that incident's evidence holds an alarm whose
/// [`alarm_gate`] is the same cell.
///
/// # Errors
///
/// Names the first cell that is missing or whose first incident is wrong.
pub fn check_cause_gates(
    cells: &[(&str, &HealthReport)],
    causes: &[IncidentCause],
) -> Result<(), String> {
    for &cause in causes {
        let Gate::Cell(name) = cause_gate(cause) else {
            continue;
        };
        let (_, report) = cells
            .iter()
            .find(|(n, _)| *n == name)
            .ok_or_else(|| format!("cell {name} (gate of {}) did not run", cause.label()))?;
        let first = report
            .incidents
            .first()
            .ok_or_else(|| format!("cell {name} opened no incident; {} gates it", cause.label()))?;
        if first.cause != cause {
            return Err(format!(
                "cell {name}: first incident is {}, not {}:\n{}",
                first.cause.label(),
                cause.label(),
                report.render_human()
            ));
        }
        if !first
            .evidence()
            .iter()
            .any(|a| alarm_gate(a.kind) == Gate::Cell(name))
        {
            return Err(format!(
                "cell {name}: no alarm gated by it decided its first incident"
            ));
        }
    }
    Ok(())
}

/// Offline ≡ online gate: replay a finished timeline's JSONL export
/// through a fresh monitor and require the rendered report to match the
/// online one byte-for-byte.
///
/// # Errors
///
/// Returns the two rendered reports when they differ (or a parse error for
/// a malformed artifact — impossible for `Timeline::to_jsonl` output).
pub fn offline_matches_online(tl: &Timeline, online: &HealthReport) -> Result<(), String> {
    let doc = TimelineDoc::parse_jsonl(&tl.to_jsonl()).map_err(|e| format!("parse: {e}"))?;
    let mut mon = HealthMonitor::for_doc(&doc);
    mon.replay_doc(&doc);
    let (off, on) = (mon.report().to_json().render(), online.to_json().render());
    if off == on {
        Ok(())
    } else {
        Err(format!(
            "offline replay diverged:\n offline: {off}\n online:  {on}"
        ))
    }
}

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

/// Rows whose retransmit delta (NACK + RTO) is non-zero.
pub fn retransmit_intervals(tl: &Timeline) -> usize {
    let nack = tl
        .source_id("retransmits_nack")
        .expect("retransmits_nack column");
    let rto = tl
        .source_id("retransmits_rto")
        .expect("retransmits_rto column");
    (0..tl.len())
        .filter(|&i| {
            let vals = tl.row(i).1;
            vals[nack.index()] + vals[rto.index()] > 0
        })
        .count()
}

// ---------------------------------------------------------------------------
// Rail-outage cell (simulator endpoint)
// ---------------------------------------------------------------------------

/// Result of [`rail_outage_doctor`].
pub struct RailOutageDoctor {
    /// The underlying run (timeline, node-0 end stats and health report
    /// inside).
    pub result: MicroResult,
    /// Virtual time the fault plan killed rail 1.
    pub injected_ns: u64,
    /// Virtual time the `RailOutage` incident opened.
    pub opened_ns: u64,
    /// Detection latency in sample intervals:
    /// `ceil((opened - injected) / interval)`.
    pub detect_intervals: u64,
    /// Rows whose retransmit delta was non-zero.
    pub retransmit_intervals: usize,
    /// Rows at which rail 1's health gauge read `Dead`.
    pub rail_dead_intervals: usize,
}

/// A 2Lu-1G one-way stream (160 × 32 KiB, seed 7) through a scripted
/// rail-1 outage (5–12 ms), sampled every 2 ms of virtual time. The
/// timeline must reconcile exactly with node 0's end-of-run stats; its
/// rows localise the retransmit burst and the dead-rail window. The
/// rail-dead rule detector must open a `RailOutage` incident, the run's
/// first, within 3 sample intervals of injection (the protocol's own
/// dead-rail detection latency is ~3–5 ms, under two intervals at this
/// cadence; the third absorbs grid alignment), and the offline replay of
/// the run's JSONL artifact must reproduce the online report
/// byte-for-byte. The cell has one size: a shorter outage ends before the
/// strike budget declares the rail dead, and its first incident is the
/// NACK repair's `RetransmitStorm`.
pub fn rail_outage_doctor() -> RailOutageDoctor {
    let mut cfg = SystemConfig::two_link_1g_unordered(2);
    cfg.seed = 7;
    cfg.proto.rail_cooldown = ms(4);
    let (down, up) = (ms(5), ms(12));
    let plan = FaultPlan::new().rail_down(down, 1).rail_up(up, 1);
    let result = run_micro_sampled(&cfg, MicroKind::OneWay, 32 << 10, 160, &plan, Some(ms(2)));
    let health = result.health.as_ref().expect("sampling was requested");
    let tl = result.timeline.as_ref().expect("sampling was requested");
    let end = result
        .timeline_proto
        .as_ref()
        .expect("sampling was requested");
    reconcile_proto(tl, end).expect("rail-outage timeline must reconcile exactly");
    offline_matches_online(tl, health).expect("doctor replay must be bit-identical");
    let inc = health
        .first(IncidentCause::RailOutage)
        .expect("a dead rail must open a RailOutage incident");
    let injected_ns = down.as_nanos();
    let opened_ns = inc.opened_t_ns;
    let detect_intervals = opened_ns
        .saturating_sub(injected_ns)
        .div_ceil(tl.interval_ns());
    let rail1 = tl.source_id("rail1.state").expect("rail 1 gauge");
    let dead = rail_state_code(RailState::Dead);
    let rail_dead_intervals = (0..tl.len())
        .filter(|&i| tl.row(i).1[rail1.index()] == dead)
        .count();
    let retransmit_intervals = retransmit_intervals(tl);
    RailOutageDoctor {
        result,
        injected_ns,
        opened_ns,
        detect_intervals,
        retransmit_intervals,
        rail_dead_intervals,
    }
}

// ---------------------------------------------------------------------------
// Clean-seed sweep (false-alarm gate)
// ---------------------------------------------------------------------------

/// Fault-free two-way runs across `seeds` with the monitor armed; the
/// false-alarm gate requires every returned report to carry zero
/// incidents. Each run's JSONL replay is also checked against the online
/// report.
pub fn clean_seeds_doctor(smoke: bool, seeds: &[u64]) -> Vec<(u64, HealthReport)> {
    let iters = if smoke { 24 } else { 80 };
    seeds
        .iter()
        .map(|&seed| {
            let mut cfg = SystemConfig::two_link_1g_unordered(2);
            cfg.seed = seed;
            let plan = FaultPlan::new();
            let r = run_micro_sampled(&cfg, MicroKind::TwoWay, 32 << 10, iters, &plan, Some(ms(1)));
            let health = r.health.expect("sampling was requested");
            let tl = r.timeline.as_ref().expect("sampling was requested");
            offline_matches_online(tl, &health).expect("doctor replay must be bit-identical");
            (seed, health)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Chaos-burst cell (wire endpoint over a chaos backplane)
// ---------------------------------------------------------------------------

/// Result of [`chaos_burst_doctor`].
pub struct ChaosBurstDoctor {
    /// The finished wire-endpoint timeline (node 0 side).
    pub timeline: Timeline,
    /// Node 0's end-of-run protocol stats.
    pub end: ProtoStats,
    /// Node 0's health verdict.
    pub health: HealthReport,
    /// Node 0 interposer's chaos decisions for the run.
    pub chaos: ChaosStats,
    /// Virtual time the burst-loss process was armed.
    pub burst_at_ns: u64,
    /// Rows whose retransmit delta was non-zero.
    pub retransmit_intervals: usize,
}

/// A two-rail wire-endpoint stream over a chaos backplane whose loss is a
/// mid-stream Gilbert–Elliott burst (clean good state, lossy bad state):
/// the timeline must reconcile exactly and localise the retransmits, the
/// NACK/RTO retransmit storm the burst provokes must diagnose as
/// `RetransmitStorm`, and the offline replay must match. At smoke size the
/// storm is the run's one incident, opened by a burst of NACK
/// retransmissions; at full size a second storm incident follows the
/// first, opened by the ack token ageing while repairs the burst also
/// dropped are awaited.
pub fn chaos_burst_doctor(smoke: bool) -> ChaosBurstDoctor {
    const BUDGET_NS: u64 = 20_000_000_000;
    let mut cfg = SystemConfig::two_link_1g(2);
    // This cell is about diagnosing the *storm*, not a rail death: give
    // the rails a strike budget the burst cannot exhaust, so the NACK
    // losses never escalate to a RailDead verdict (which would out-rank
    // the storm as a RailOutage in same-tick correlation).
    cfg.proto.rail_dead_after = 10_000;
    let sim = Sim::new(29);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let (bpa, bpb) = SimBackplane::pair(&sim, &cluster);
    // The smoke stream only spans ~2 ms of virtual time, so the burst
    // window scales with the run. Bad states are short and lossy rather
    // than absolute: enough to provoke a NACK retransmit storm without
    // stalling the stream. At full size they last ~3 frames on average.
    // The smoke burst's last ~5: with ~3 its losses are repaired within a
    // repair round trip, spread over rows below the burst floor, and
    // leave no stall behind, so the short run shows no storm at all.
    let (burst_at, burst_off, to_good) = if smoke {
        (us(500), ms(2), 0.2)
    } else {
        (ms(2), ms(4), 0.3)
    };
    let ge = GilbertElliott::bursty_loss(0.15, to_good, 0.6);
    let plan = FaultPlan::new()
        .burst(burst_at, netsim::FaultTarget::Rail { rail: 0 }, ge)
        .burst(burst_at, netsim::FaultTarget::Rail { rail: 1 }, ge)
        .clear_burst(burst_off, netsim::FaultTarget::Rail { rail: 0 })
        .clear_burst(burst_off, netsim::FaultTarget::Rail { rail: 1 });
    let chaos = ChaosConfig::new(29).with_plan(plan);
    let mut bpa = FaultBackplane::new(bpa, 0, &chaos);
    let mut bpb = FaultBackplane::new(bpb, 1, &chaos);
    let spans = SpanRecorder::disabled();
    let (mut a, mut b) = WireEndpoint::pair(&cfg.proto, bpa.rails(), &spans);
    a.start_timeline(&bpa, us(200).as_nanos(), 4096);

    let iters = if smoke { 24 } else { 96 };
    let size = 16usize << 10;
    let ops: u64 = iters as u64;
    for i in 0..iters {
        let payload = Bytes::from(vec![(i as u8).wrapping_mul(17) ^ 0xA5; size]);
        a.write(
            0,
            &mut bpa,
            0x20_0000 + (i as u64) * 0x1_0000,
            payload,
            OpFlags::RELAXED,
        );
    }
    drive_with(
        &mut a,
        &mut bpa,
        &mut b,
        &mut bpb,
        |_, _, _, _| {},
        |a, b| {
            let (sa, sb) = (a.conn_state(0), b.conn_state(0));
            sa.acked == sa.next_seq && sb.applied_below == ops && !sb.has_gap
        },
        DriveLimits::budget(BUDGET_NS),
    )
    .expect("chaos-burst stream must complete after the burst clears");

    // One final row after the drive loop so the deltas telescope to the
    // end-of-run aggregates exactly.
    a.sample_timeline(&mut bpa);
    let end = a.stats();
    let health = a.health_report().expect("the timeline was started");
    let timeline = a.take_timeline().expect("the timeline was started");
    reconcile_proto(&timeline, &end).expect("chaos-burst timeline must reconcile exactly");
    offline_matches_online(&timeline, &health).expect("doctor replay must be bit-identical");
    ChaosBurstDoctor {
        retransmit_intervals: retransmit_intervals(&timeline),
        timeline,
        end,
        health,
        chaos: bpa.stats(),
        burst_at_ns: burst_at.as_nanos(),
    }
}

// ---------------------------------------------------------------------------
// NIC-stall cell (simulator endpoint)
// ---------------------------------------------------------------------------

/// Result of [`nic_stall_doctor`].
pub struct NicStallDoctor {
    /// Node 0's health verdict.
    pub health: HealthReport,
    /// Virtual time the stall began.
    pub stall_from_ns: u64,
    /// Virtual time the stall ended.
    pub stall_until_ns: u64,
}

/// A 2Lu-1G one-way stream (64 × 32 KiB relaxed writes, node 0 → node 1,
/// node 0 sampled every 100 µs) through a `stall`-long freeze of node 1's
/// rail-0 receive path from 2 ms. The receiver holds the
/// stream's frames, so node 0's ack token keeps ageing: a 4 ms stall must
/// first diagnose as `CongestionBacklog` inside the stall window, and a
/// 300 µs one must open nothing. The offline replay must match.
pub fn nic_stall_doctor(stall: Dur) -> NicStallDoctor {
    let cfg = SystemConfig::two_link_1g_unordered(2);
    let at = ms(2);
    let plan = FaultPlan::new().nic_stall(at, 1, 0, stall);
    let r = run_micro_sampled(&cfg, MicroKind::OneWay, 32 << 10, 64, &plan, Some(us(100)));
    let health = r.health.expect("sampling was requested");
    let tl = r.timeline.as_ref().expect("sampling was requested");
    offline_matches_online(tl, &health).expect("doctor replay must be bit-identical");
    let stall_from_ns = at.as_nanos();
    NicStallDoctor {
        health,
        stall_from_ns,
        stall_until_ns: stall_from_ns + stall.as_nanos(),
    }
}

// ---------------------------------------------------------------------------
// Incast / balanced cells (members = nodes)
// ---------------------------------------------------------------------------

/// Result of [`incast_doctor`].
pub struct IncastDoctor {
    /// One timeline per node, node order (node 0 is the receiver).
    pub timelines: Vec<Timeline>,
    /// Node that received the most data bytes overall (expected: node 0).
    pub hot_node: usize,
    /// Imbalance index (`max / mean`) of the per-node received-byte totals.
    pub imbalance: f64,
    /// The imbalance diagnosis over the per-interval received-byte deltas.
    pub health: HealthReport,
}

/// Run `cell` with every node sampled every 200 µs and return its timelines
/// in node order. An imbalance shows only across nodes, so no node's own
/// health monitor may open an incident (asserted here).
fn run_sampled_nodes(cell: &ScaleCell) -> (EngineOut, Vec<Timeline>) {
    let (out, _, sampled) = run_scale_cell(cell, Some(us(200)));
    let timelines = sampled
        .into_iter()
        .enumerate()
        .map(|(node, (tl, health))| {
            let clean = health.incidents.is_empty();
            assert!(
                clean,
                "{} node {node}'s own monitor:\n{}",
                cell.name,
                health.render_human()
            );
            tl
        })
        .collect();
    (out, timelines)
}

/// The 8-node incast fan-in on one engine, every node sampled every
/// 200 µs of virtual time. Each node's `data_bytes_recv` telescopes to its
/// end-of-run count exactly (asserted here); the per-node deltas are the
/// members of the imbalance diagnosis, which must name the receiver
/// (member 0 = node 0) hot by an `IncastImbalance` incident.
pub fn incast_doctor(smoke: bool) -> IncastDoctor {
    let bytes = if smoke { 32 << 10 } else { 128 << 10 };
    let (out, timelines) = run_sampled_nodes(&incast_cell(8, bytes));
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
    IncastDoctor {
        timelines,
        hot_node,
        imbalance,
        health,
    }
}

/// The balanced 8-node all-to-all under the same diagnosis: the report
/// must stay clean.
pub fn balanced_doctor(smoke: bool) -> HealthReport {
    let bytes = if smoke { 8 << 10 } else { 32 << 10 };
    let (_, timelines) = run_sampled_nodes(&all_to_all_cell(8, bytes));
    diagnose_member_timelines(&timelines, MEMBER_COUNTER)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rail_outage_opens_within_three_intervals() {
        let r = rail_outage_doctor();
        let health = r.result.health.as_ref().expect("sampling was requested");
        assert_eq!(health.incidents[0].cause, IncidentCause::RailOutage);
        assert!(
            r.detect_intervals <= 3,
            "RailOutage opened {} intervals after injection (injected {} ns, opened {} ns)",
            r.detect_intervals,
            r.injected_ns,
            r.opened_ns
        );
        // The cell reconciled exactly; its rows localise the outage.
        let tl = r.result.timeline.as_ref().expect("sampling was requested");
        assert!(
            tl.len() >= 5,
            "expected a multi-interval run, got {}",
            tl.len()
        );
        assert!(
            r.retransmit_intervals >= 1,
            "the outage must surface as retransmit intervals"
        );
        assert!(
            r.rail_dead_intervals >= 1,
            "rail 1 must read Dead during the outage window"
        );
        // The JSONL artifact round-trips and carries the same invariant.
        let doc = TimelineDoc::parse_jsonl(&tl.to_jsonl()).expect("parse");
        doc.reconcile().expect("telescoping holds in the artifact");
        assert_eq!(doc.samples.len(), tl.len());
    }

    #[test]
    fn clean_seeds_raise_no_incidents() {
        for (seed, report) in clean_seeds_doctor(true, &[3, 11, 19]) {
            assert!(
                report.incidents.is_empty(),
                "seed {seed} raised incidents on a clean run:\n{}",
                report.render_human()
            );
        }
    }

    #[test]
    fn chaos_burst_diagnoses_as_retransmit_storm() {
        let r = chaos_burst_doctor(true);
        assert!(r.chaos.dropped > 0, "the burst must drop frames");
        let causes: Vec<_> = r.health.incidents.iter().map(|i| i.cause).collect();
        assert_eq!(
            causes,
            [IncidentCause::RetransmitStorm],
            "{}",
            r.health.render_human()
        );
        assert!(
            r.health.incidents[0].opened_t_ns >= r.burst_at_ns,
            "storm cannot open before the burst was armed"
        );
        // The cell reconciled exactly; its rows localise the recovery.
        assert!(
            r.retransmit_intervals >= 1,
            "loss recovery must surface as retransmit intervals"
        );
        assert!(r.end.retransmits() > 0);
        let doc = TimelineDoc::parse_jsonl(&r.timeline.to_jsonl()).expect("parse");
        doc.reconcile().expect("telescoping holds in the artifact");
    }

    #[test]
    fn nic_stall_diagnoses_as_congestion_inside_the_stall() {
        let r = nic_stall_doctor(ms(4));
        let first = r
            .health
            .incidents
            .first()
            .expect("a 4 ms stall must open an incident");
        assert_eq!(
            first.cause,
            IncidentCause::CongestionBacklog,
            "{}",
            r.health.render_human()
        );
        assert!((r.stall_from_ns..r.stall_until_ns).contains(&first.opened_t_ns));
        let short = nic_stall_doctor(us(300));
        assert!(
            short.health.incidents.is_empty(),
            "{}",
            short.health.render_human()
        );
    }

    #[test]
    fn incast_flags_receiver_node_and_balanced_stays_clean() {
        // The cell itself asserts each node's data_bytes_recv reconciles.
        let r = incast_doctor(true);
        assert_eq!(r.timelines.len(), 8, "one timeline per node");
        assert_eq!(r.hot_node, 0, "the receiver must dominate received bytes");
        let i = r
            .health
            .first(IncidentCause::IncastImbalance)
            .expect("incast must diagnose as IncastImbalance");
        let hot = i.evidence()[0].column as usize;
        assert_eq!(hot, 0, "the receiver node must be named hot");
        let report = balanced_doctor(true);
        assert!(
            report.incidents.is_empty(),
            "balanced all-to-all must stay clean:\n{}",
            report.render_human()
        );
    }
}
