//! Health-plane (doctor) cells: drivers behind `cargo bench --bench
//! doctor`.
//!
//! The telemetry cells prove the timeline plane records faithfully; these
//! cells prove the detection layer on top of it ([`me_trace::detect`])
//! *diagnoses* faithfully. Each one runs a seeded workload with the
//! streaming [`me_trace::HealthMonitor`] armed and returns the incident
//! verdict next to the ground truth of the injected fault, so the harness
//! can enforce the health plane's promises:
//!
//! 1. **Detection latency** — a scripted rail outage opens a `RailOutage`
//!    incident within a bounded number of sample intervals of injection
//!    ([`rail_outage_doctor`]).
//! 2. **No false alarms** — clean runs across a seed sweep open zero
//!    incidents ([`clean_seeds_doctor`]).
//! 3. **Named causes** — a chaos loss burst diagnoses as
//!    `RetransmitStorm` ([`chaos_burst_doctor`]), incast fan-in as
//!    `IncastImbalance` with the receiver node named hot, and a balanced
//!    all-to-all stays clean ([`incast_doctor`], [`balanced_doctor`]).
//! 4. **Offline ≡ online** — replaying the run's JSONL artifact through
//!    [`me_trace::HealthMonitor::replay_doc`] reproduces the online
//!    monitor's report byte-for-byte (every cell that exports JSONL).
//!
//! The overhead gate (detectors add no allocations per sample and ≤5%
//! frames/wall-s) lives in the bench binary, which owns the counting
//! allocator and the wall clock.

use crate::micro::{run_micro_doctor, MicroKind, MicroResult};
use crate::scale::{
    all_to_all_cell, incast_cell, run_scale_cell_unsharded, ScaleCell, MEMBER_COUNTER,
};
use bytes::Bytes;
use me_trace::{
    diagnose_member_timelines, HealthMonitor, HealthReport, IncidentCause, SpanRecorder, Timeline,
    TimelineDoc,
};
use multiedge::backplane::{
    drive, Backplane, ChaosConfig, ChaosStats, FaultBackplane, SimBackplane, WireEndpoint,
};
use multiedge::{OpFlags, SystemConfig};
use netsim::time::{ms, us};
use netsim::{build_cluster, FaultPlan, GilbertElliott, Sim};

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
        Err(format!("offline replay diverged:\n offline: {off}\n online:  {on}"))
    }
}

// ---------------------------------------------------------------------------
// Rail-outage cell (simulator endpoint)
// ---------------------------------------------------------------------------

/// Result of [`rail_outage_doctor`].
pub struct RailOutageDoctor {
    /// The underlying run (timeline + health report inside).
    pub result: MicroResult,
    /// Virtual time the fault plan killed rail 1.
    pub injected_ns: u64,
    /// Virtual time the `RailOutage` incident opened.
    pub opened_ns: u64,
    /// Detection latency in sample intervals:
    /// `ceil((opened - injected) / interval)`.
    pub detect_intervals: u64,
}

/// A 2Lu-1G one-way stream through a scripted rail-1 outage with the
/// health monitor armed, sampled every 2 ms of virtual time. The rail-dead
/// rule detector must open a `RailOutage` incident within 3 sample
/// intervals of injection (the protocol's own dead-rail detection latency
/// is ~3–5 ms, under two intervals at this cadence; the third absorbs grid
/// alignment), and the offline replay of the run's JSONL artifact must
/// reproduce the online report byte-for-byte.
pub fn rail_outage_doctor(smoke: bool) -> RailOutageDoctor {
    let mut cfg = SystemConfig::two_link_1g_unordered(2);
    cfg.seed = 7;
    cfg.proto.rail_cooldown = ms(4);
    let (down, up) = if smoke { (ms(2), ms(5)) } else { (ms(5), ms(12)) };
    let plan = FaultPlan::new().rail_down(down, 1).rail_up(up, 1);
    let iters = if smoke { 60 } else { 160 };
    let result = run_micro_doctor(&cfg, MicroKind::OneWay, 32 << 10, iters, &plan, ms(2));
    let health = result.health.as_ref().expect("health was armed");
    let tl = result.timeline.as_ref().expect("sampling was requested");
    offline_matches_online(tl, health).expect("doctor replay must be bit-identical");
    let inc = health
        .first(IncidentCause::RailOutage)
        .expect("a dead rail must open a RailOutage incident");
    let injected_ns = down.as_nanos();
    let opened_ns = inc.opened_t_ns;
    let detect_intervals = opened_ns
        .saturating_sub(injected_ns)
        .div_ceil(tl.interval_ns());
    RailOutageDoctor {
        result,
        injected_ns,
        opened_ns,
        detect_intervals,
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
            let r = run_micro_doctor(
                &cfg,
                MicroKind::TwoWay,
                32 << 10,
                iters,
                &FaultPlan::new(),
                ms(1),
            );
            let health = r.health.expect("health was armed");
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
    /// Node 0's health verdict.
    pub health: HealthReport,
    /// Node 0 interposer's chaos decisions for the run.
    pub chaos: ChaosStats,
    /// Virtual time the burst-loss process was armed.
    pub burst_at_ns: u64,
}

/// A two-rail wire-endpoint stream over a chaos backplane whose loss is a
/// mid-stream Gilbert–Elliott burst (clean good state, loss-1.0 bad
/// state): the NACK/RTO retransmit storm the burst provokes must diagnose
/// as `RetransmitStorm`, and the offline replay must match.
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
    // window scales with the run. Bad states are short (mean ~3 frames)
    // and lossy rather than absolute: enough to provoke a NACK retransmit
    // storm without stalling the stream.
    let (burst_at, burst_off) = if smoke { (us(500), ms(2)) } else { (ms(2), ms(4)) };
    let ge = GilbertElliott::bursty_loss(0.15, 0.3, 0.6);
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
    a.start_timeline(&bpa, us(200).as_nanos(), 4096, true);

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
    .expect("chaos-burst stream must complete after the burst clears");

    a.sample_timeline(&mut bpa);
    let health = a.health_report().expect("health was armed");
    let timeline = a.take_timeline().expect("timeline was enabled");
    offline_matches_online(&timeline, &health).expect("doctor replay must be bit-identical");
    ChaosBurstDoctor {
        timeline,
        health,
        chaos: bpa.stats(),
        burst_at_ns: burst_at.as_nanos(),
    }
}

// ---------------------------------------------------------------------------
// Incast / balanced cells (members = nodes)
// ---------------------------------------------------------------------------

/// Run `cell` on one engine with every node sampled every 200 µs and
/// diagnose cross-node imbalance on each node's received data bytes.
fn node_diagnosis(cell: &ScaleCell) -> HealthReport {
    let (_, _, timelines) = run_scale_cell_unsharded(cell, Some(us(200)));
    diagnose_member_timelines(&timelines, MEMBER_COUNTER)
}

/// The 8-node incast fan-in: the receiver (member 0 = node 0) must be named
/// hot by an `IncastImbalance` incident.
pub fn incast_doctor(smoke: bool) -> HealthReport {
    let bytes = if smoke { 32 << 10 } else { 128 << 10 };
    node_diagnosis(&incast_cell(8, bytes))
}

/// The balanced 8-node all-to-all under the same diagnosis: the report
/// must stay clean.
pub fn balanced_doctor(smoke: bool) -> HealthReport {
    let bytes = if smoke { 8 << 10 } else { 32 << 10 };
    node_diagnosis(&all_to_all_cell(8, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rail_outage_opens_within_three_intervals() {
        let r = rail_outage_doctor(true);
        assert!(
            r.detect_intervals <= 3,
            "RailOutage opened {} intervals after injection (injected {} ns, opened {} ns)",
            r.detect_intervals,
            r.injected_ns,
            r.opened_ns
        );
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
        let inc = r
            .health
            .first(IncidentCause::RetransmitStorm)
            .expect("a loss burst must diagnose as RetransmitStorm");
        assert!(
            inc.opened_t_ns >= r.burst_at_ns,
            "storm cannot open before the burst was armed"
        );
    }

    #[test]
    fn incast_flags_receiver_node_and_balanced_stays_clean() {
        let report = incast_doctor(true);
        let i = report
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
