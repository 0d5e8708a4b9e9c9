//! Health-plane cost and fidelity gates (`me-doctor`).
//!
//! The streaming detectors ([`me_trace::detect`]) promise to be purely
//! observational — allocation-free at every sample tick, bit-identical
//! protocol stats; what they cost in frames/wall-s is
//! `trace.planes_on_fps_ratio` in `perf/` — and to diagnose correctly: a
//! scripted rail outage opens `RailOutage` within 3 sample intervals of
//! injection, a clean seed sweep opens nothing, a chaos loss burst names
//! `RetransmitStorm` (at smoke size, nothing else), a 4 ms receiver NIC
//! stall names `CongestionBacklog` inside the stall while a 300 µs one
//! opens nothing, incast fan-in names the receiver node hot, every cause a
//! cell gates (`doctor::cause_gate`) is that cell's first incident, and
//! the offline JSONL replay reproduces every online verdict byte-for-byte
//! (asserted inside each cell). This bench enforces all of it and writes the
//! committed `results/BENCH_doctor.json` and `results/doctor_incidents.json`
//! (every cell's incident report).
//!
//! `SMOKE=1` runs small cells for CI: every gate still enforced (and the
//! chaos cell's one-incident gate only there), artifacts still written
//! (marked `"mode": "smoke"`).
//!
//! The cost gate is [`multiedge_bench::plane_overhead`] over a sampled run
//! with and without the monitor: no allocation per extra sample row and an
//! identical stats fingerprint are asserted; the frames/wall-s ratio is
//! printed, not judged.

use me_trace::{AlarmKind, HealthReport, IncidentCause, Json, SCHEMA_VERSION};
use multiedge::SystemConfig;
use multiedge_bench::doctor::{
    alarm_gate, balanced_doctor, cause_gate, chaos_burst_doctor, check_cause_gates,
    clean_seeds_doctor, incast_doctor, nic_stall_doctor, rail_outage_doctor,
};
use multiedge_bench::micro::{run_micro_doctor, run_micro_sampled, MicroKind, MicroResult};
use multiedge_bench::{plane_overhead, results_dir, smoke, CountingAlloc};
use multiedge_bench::scale::MEMBER_COUNTER;
use netsim::time::{ms, us};
use netsim::{Dur, FaultPlan};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Overhead gate
// ---------------------------------------------------------------------------

/// The detector gate on the clean 1L-1G two-way cell, sampled every 1 ms.
/// Both sides sample; only the detector work differs, so the comparison
/// isolates its cost per sample row.
fn overhead_gate(iters: usize) -> Json {
    let run = |health: bool, iters: usize| {
        let mut cfg = SystemConfig::one_link_1g(2);
        cfg.seed = 7;
        let (interval, plan) = (Dur(us(1000).as_nanos()), FaultPlan::new());
        let kind = MicroKind::TwoWay;
        if health {
            run_micro_doctor(&cfg, kind, 64 << 10, iters, &plan, interval)
        } else {
            run_micro_sampled(&cfg, kind, 64 << 10, iters, &plan, Some(interval))
        }
    };
    let rows = |r: &MicroResult| r.timeline.as_ref().map_or(0, |tl| tl.len() as u64);
    plane_overhead("health monitor", "sample", iters, run, rows)
        .set("config", "1L-1G")
        .set("kind", "two-way")
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

fn incident_artifact(cells: &[(&str, &HealthReport)]) -> Json {
    let entries: Vec<Json> = cells
        .iter()
        .map(|(name, r)| Json::obj().set("cell", *name).set("report", r.to_json()))
        .collect();
    Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("kind", "multiedge_doctor_incidents")
        .set("cells", entries)
}

fn main() {
    let smoke = smoke();
    let iters = if smoke { 10 } else { 40 };

    // Warm up lazy runtime initialization outside the measured cells.
    let mut warm = SystemConfig::one_link_1g(2);
    warm.seed = 7;
    let _ = run_micro_sampled(
        &warm,
        MicroKind::TwoWay,
        4 << 10,
        4,
        &FaultPlan::new(),
        None,
    );

    let overhead = overhead_gate(iters);

    // Rail outage: detection latency gate. The offline ≡ online replay
    // gate runs inside the cell.
    let r = rail_outage_doctor();
    let rail_health = r.result.health.clone().expect("health armed");
    println!(
        "rail-outage  injected {:.2}ms  opened {:.2}ms  ({} interval(s), gate <= 3)",
        r.injected_ns as f64 / 1e6,
        r.opened_ns as f64 / 1e6,
        r.detect_intervals
    );
    assert!(
        r.detect_intervals <= 3,
        "RailOutage opened {} intervals after injection",
        r.detect_intervals
    );
    let rail = Json::obj()
        .set("config", "2Lu-1G")
        .set("kind", "one-way")
        .set("injected_t_ns", r.injected_ns)
        .set("opened_t_ns", r.opened_ns)
        .set("detect_intervals", r.detect_intervals)
        .set("incidents", rail_health.incidents.len())
        .set("offline_identical", true)
        .set("gate", "RailOutage opens within 3 sample intervals of injection");

    // Clean seeds: false-alarm gate.
    let seeds: &[u64] = &[3, 5, 7, 11, 13, 17, 19, 23];
    let clean = clean_seeds_doctor(smoke, seeds);
    let false_alarms: u64 = clean.iter().map(|(_, r)| r.incidents.len() as u64).sum();
    println!(
        "clean-seeds  {} seeds  {} incidents (gate: 0)",
        clean.len(),
        false_alarms
    );
    for (seed, report) in &clean {
        assert!(
            report.incidents.is_empty(),
            "seed {seed} raised incidents on a clean run:\n{}",
            report.render_human()
        );
    }
    let clean_json = Json::obj()
        .set("config", "2Lu-1G")
        .set("kind", "two-way")
        .set("seeds", seeds.iter().map(|&s| Json::from(s)).collect::<Vec<_>>())
        .set("false_alarms", false_alarms)
        .set("gate", "zero incidents across every clean seed");

    // Chaos burst: cause-naming gate on the wire runtime.
    let c = chaos_burst_doctor(smoke);
    let storm = c
        .health
        .first(IncidentCause::RetransmitStorm)
        .expect("a loss burst must diagnose as RetransmitStorm");
    let first_cause = c.health.incidents[0].cause;
    println!(
        "chaos-burst  {} dropped  storm opened {:.2}ms (burst armed {:.2}ms)  first {}  {} incident(s)",
        c.chaos.dropped,
        storm.opened_t_ns as f64 / 1e6,
        c.burst_at_ns as f64 / 1e6,
        first_cause.label(),
        c.health.incidents.len()
    );
    assert!(c.chaos.dropped > 0, "the burst must drop frames");
    assert!(storm.opened_t_ns >= c.burst_at_ns);
    // At full size the burst's tail loss holds a full window until the
    // 2 ms RTO, and the ageing ack token opens congestion_backlog 0.3 ms
    // before the storm: node 0's counters cannot tell that stall from a
    // NIC stall until repair starts. The one-incident gate, and with it the
    // storm's first-incident gate, holds at smoke size only.
    if smoke {
        assert_eq!(
            c.health.incidents.len(),
            1,
            "the burst must open one incident:\n{}",
            c.health.render_human()
        );
    }
    let chaos_json = Json::obj()
        .set("config", "BP-2L+chaos(burst GE 0.15/0.3 loss 0.6)")
        .set("kind", "one-way")
        .set("chaos_dropped", c.chaos.dropped)
        .set("burst_at_ns", c.burst_at_ns)
        .set("storm_opened_t_ns", storm.opened_t_ns)
        .set("first_cause", first_cause.label())
        .set("incidents", c.health.incidents.len())
        .set("offline_identical", true)
        .set(
            "gate",
            "RetransmitStorm opens after the burst arms; SMOKE=1: it is the one incident",
        );

    // NIC stall: the receiver's NIC freezes; node 0's ack token ages.
    let stall = nic_stall_doctor(ms(4));
    let short = nic_stall_doctor(us(300));
    let first = stall
        .health
        .incidents
        .first()
        .expect("a 4 ms NIC stall must open an incident");
    println!(
        "nic-stall    {:.2}..{:.2}ms  first {} opened {:.2}ms  300us stall: {} incidents (gate: 0)",
        stall.stall_from_ns as f64 / 1e6,
        stall.stall_until_ns as f64 / 1e6,
        first.cause.label(),
        first.opened_t_ns as f64 / 1e6,
        short.health.incidents.len()
    );
    assert_eq!(first.cause, IncidentCause::CongestionBacklog);
    assert!(
        (stall.stall_from_ns..stall.stall_until_ns).contains(&first.opened_t_ns),
        "CongestionBacklog must open inside the stall"
    );
    assert!(
        short.health.incidents.is_empty(),
        "a 300 us stall must open nothing:\n{}",
        short.health.render_human()
    );
    let stall_json = Json::obj()
        .set("config", "2Lu-1G")
        .set("kind", "one-way")
        .set("stalled", "node 1 rail 0 receive path")
        .set("stall_from_ns", stall.stall_from_ns)
        .set("stall_until_ns", stall.stall_until_ns)
        .set("first_cause", first.cause.label())
        .set("opened_t_ns", first.opened_t_ns)
        .set("incidents", stall.health.incidents.len())
        .set("short_stall_ns", short.stall_until_ns - short.stall_from_ns)
        .set("short_stall_incidents", short.health.incidents.len())
        .set("offline_identical", true)
        .set(
            "gate",
            "a 4 ms stall first diagnoses as CongestionBacklog inside the stall; a 300 us stall opens nothing",
        );

    // Incast vs balanced: the cross-node diagnosis (members = nodes).
    let inc_health = incast_doctor(smoke);
    let i = inc_health
        .first(IncidentCause::IncastImbalance)
        .expect("incast must diagnose as IncastImbalance");
    let hot = i.evidence()[0].column as usize;
    println!(
        "incast       hot member {} ({} alarms)  balanced: checking...",
        hot, i.alarms
    );
    assert_eq!(hot, 0, "the receiver node must be named hot");
    let bal_health = balanced_doctor(smoke);
    println!(
        "balanced     {} incidents (gate: 0)",
        bal_health.incidents.len()
    );
    assert!(
        bal_health.incidents.is_empty(),
        "balanced all-to-all must stay clean:\n{}",
        bal_health.render_human()
    );
    let nodes_json = Json::obj()
        .set("incast_config", "2Lu-1G incast-8, members = nodes")
        .set("balanced_config", "4L-1G all-to-all-8, members = nodes")
        .set("member_counter", MEMBER_COUNTER)
        .set("incast_hot_member", hot)
        .set("incast_alarms", i.alarms)
        .set("balanced_incidents", bal_health.incidents.len())
        .set("gate", "incast names node 0 hot; balanced stays clean");

    // Incident-report artifact: every cell's full report, uploaded by CI
    // for post-mortem triage.
    let clean_reports: Vec<(String, &HealthReport)> = clean
        .iter()
        .map(|(s, r)| (format!("clean_seed_{s}"), r))
        .collect();
    let mut cells: Vec<(&str, &HealthReport)> = vec![
        ("rail_outage", &rail_health),
        ("chaos_burst", &c.health),
        ("nic_stall", &stall.health),
        ("nic_stall_short", &short.health),
        ("incast", &inc_health),
        ("balanced", &bal_health),
    ];
    cells.extend(clean_reports.iter().map(|(n, r)| (n.as_str(), *r)));
    let gated: &[IncidentCause] = if smoke {
        &IncidentCause::ALL
    } else {
        use IncidentCause::{CongestionBacklog, IncastImbalance, RailOutage};
        &[RailOutage, IncastImbalance, CongestionBacklog]
    };
    check_cause_gates(&cells, gated).unwrap_or_else(|e| panic!("cause gate: {e}"));
    let gates = Json::obj()
        .set(
            "causes",
            IncidentCause::ALL
                .iter()
                .fold(Json::obj(), |o, &k| o.set(k.label(), cause_gate(k).label())),
        )
        .set(
            "alarms",
            AlarmKind::ALL
                .iter()
                .fold(Json::obj(), |o, &k| o.set(k.label(), alarm_gate(k).label())),
        )
        .set("checked", gated.iter().map(|k| Json::from(k.label())).collect::<Vec<_>>())
        .set("gate", "every checked cause is the first incident of the cell that gates it");
    let results = results_dir();
    std::fs::write(
        results.join("doctor_incidents.json"),
        incident_artifact(&cells).render_pretty(),
    )
    .expect("write incident artifact");

    let doc = Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("bench", "doctor")
        .set("mode", if smoke { "smoke" } else { "full" })
        .set(
            "methodology",
            "health-off/on pair at two run lengths: fingerprints equal and marginal allocs/sample asserted, fps ratio reported only; every cell replays its JSONL artifact offline and requires a byte-identical report",
        )
        .set("overhead", overhead)
        .set("rail_outage", rail)
        .set("clean_seeds", clean_json)
        .set("chaos_burst", chaos_json)
        .set("nic_stall", stall_json)
        .set("nodes", nodes_json)
        .set("gates", gates);
    std::fs::write(results.join("BENCH_doctor.json"), doc.render_pretty())
        .expect("write json");
    println!("wrote results/BENCH_doctor.json and results/doctor_incidents.json");
}
