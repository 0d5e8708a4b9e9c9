//! Timeline and health-plane cost and fidelity gates (`me-doctor`).
//!
//! Every observability scenario runs once, with the sampler and its
//! streaming detectors ([`me_trace::detect`]) armed, and both planes are
//! judged on that run. They promise to be purely observational —
//! no allocation per data frame or sample row, bit-identical protocol stats; what
//! they cost in frames/wall-s is `trace.planes_on_fps_ratio` in `perf/` —
//! to record faithfully: the rail-outage and chaos-burst timelines
//! reconcile exactly with the end-of-run stats and localise their
//! retransmits (and the dead rail), and every incast node's received bytes
//! reconcile — and to diagnose correctly: a
//! scripted rail outage opens `RailOutage` within 3 sample intervals of
//! injection, a clean seed sweep opens nothing, a chaos loss burst names
//! `RetransmitStorm` (at smoke size, nothing else), a 4 ms receiver NIC
//! stall names `CongestionBacklog` inside the stall while a 300 µs one
//! opens nothing, incast fan-in names the receiver node hot, every cause a
//! cell gates (`doctor::cause_gate`) is that cell's first incident, and
//! the offline JSONL replay reproduces every online verdict byte-for-byte
//! (asserted inside each cell). This bench enforces all of it and writes the
//! committed `results/BENCH_doctor.json`, `results/doctor_incidents.json`
//! (every cell's incident report), `results/telemetry_failover.jsonl` (the
//! rail-outage timeline) and `results/telemetry_incast_node{0..7}.jsonl`
//! (one incast timeline per node), which `me-inspect timeline` and
//! `me-inspect doctor` read.
//!
//! `SMOKE=1` runs small cells for CI: every gate still enforced (and the
//! chaos cell's one-incident gate only there), artifacts still written
//! (marked `"mode": "smoke"`).
//!
//! The cost gates: [`multiedge_bench::plane_overhead`] over a run with
//! sampling off and one with the sampler and its monitor asserts no
//! allocation per data frame and an identical stats fingerprint (the
//! frames/wall-s ratio is printed, neither judged nor written); a second
//! pair, sampled every 1 ms and every 250 µs, asserts no allocation per
//! sample row.

use me_trace::{AlarmKind, HealthReport, IncidentCause, Json, SCHEMA_VERSION};
use multiedge::SystemConfig;
use multiedge_bench::doctor::{
    alarm_gate, balanced_doctor, cause_gate, chaos_burst_doctor, check_cause_gates,
    clean_seeds_doctor, incast_doctor, nic_stall_doctor, rail_outage_doctor, reconcile_proto,
};
use multiedge_bench::micro::{run_micro, run_micro_sampled, MicroKind, MicroResult};
use multiedge_bench::scale::MEMBER_COUNTER;
use multiedge_bench::{allocs, plane_overhead, results_dir, smoke, CountingAlloc};
use netsim::time::{ms, us};
use netsim::{Dur, FaultPlan};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Overhead gate
// ---------------------------------------------------------------------------

/// The clean 1L-1G cell the overhead gate measures (seed 7).
fn clean_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::one_link_1g(2);
    cfg.seed = 7;
    cfg
}

/// The sampler-and-monitor gate on the clean 1L-1G two-way 64 KiB cell
/// (seed 7), sampled every 1 ms of virtual time (the production-style
/// cadence: each row covers ~80 frames) against the same run unsampled,
/// counted per data frame. Every sampled run must also reconcile exactly.
fn frame_gate(iters: usize) -> Json {
    let run = |sampled: bool, iters: usize| {
        let (interval, plan) = (sampled.then_some(ms(1)), FaultPlan::new());
        let r = run_micro_sampled(
            &clean_cfg(),
            MicroKind::TwoWay,
            64 << 10,
            iters,
            &plan,
            interval,
        );
        if let (Some(tl), Some(end)) = (&r.timeline, &r.timeline_proto) {
            reconcile_proto(tl, end).expect("sampled datapath run must reconcile exactly");
        }
        r
    };
    let frames = |r: &MicroResult| r.proto.data_frames_sent;
    plane_overhead("sampler+monitor", "frame", iters, run, frames)
        .set("config", "1L-1G")
        .set("kind", "two-way")
}

/// The per-row gate: the same cell sampled on both sides, every 1 ms and
/// every 250 µs, at `iters` and `4 * iters` operations. The allocations the
/// finer run adds over the coarser one, differenced across the two lengths,
/// are divided by the rows it adds, differenced likewise. Both sides carry
/// the sampler and its monitor, so their setup, and a block the engine's
/// pools take once per run, cancel; what is left is the cost of a row.
fn row_gate(iters: usize) -> Json {
    let run = |interval: Dur, iters: usize| {
        let a0 = allocs();
        let plan = FaultPlan::new();
        let r = run_micro_sampled(
            &clean_cfg(),
            MicroKind::TwoWay,
            64 << 10,
            iters,
            &plan,
            Some(interval),
        );
        let tl = r.timeline.as_ref().expect("sampling was requested");
        let end = r.timeline_proto.as_ref().expect("sampling was requested");
        reconcile_proto(tl, end).expect("sampled datapath run must reconcile exactly");
        ((allocs() - a0) as i64, tl.len() as i64, (r.proto, r.net))
    };
    let (mut d_allocs, mut d_rows) = (0, 0);
    for (n, sign) in [(iters, -1), (4 * iters, 1)] {
        let (coarse, fine) = (run(ms(1), n), run(us(250), n));
        assert_eq!(
            coarse.2, fine.2,
            "the sampling interval must not change the run's stats"
        );
        d_allocs += sign * (fine.0 - coarse.0);
        d_rows += sign * (fine.1 - coarse.1);
    }
    assert!(
        d_rows > 0,
        "the finer sampling must add more rows to the longer run"
    );
    let per_row = d_allocs as f64 / d_rows as f64;
    println!(
        "sampler+monitor  1 ms vs 250 us: {d_rows} extra rows  {per_row:+.3} allocs/sample row"
    );
    assert!(
        per_row.abs() < 0.01,
        "the sampler+monitor allocates per sample row: {per_row:.4}"
    );
    Json::obj()
        .set(
            "intervals_ns",
            vec![Json::from(ms(1).as_nanos()), Json::from(us(250).as_nanos())],
        )
        .set("extra_rows", d_rows)
        .set("allocs_per_sample", per_row)
        .set("gate", "both sides sampled: |allocs_per_sample| < 0.01")
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
    let _ = run_micro(&clean_cfg(), MicroKind::TwoWay, 4 << 10, 4);

    let overhead = frame_gate(iters).set("per_sample_row", row_gate(iters));

    // Rail outage: localisation and detection latency gates. The exact
    // reconciliation and offline ≡ online replay gates run inside the cell.
    let r = rail_outage_doctor();
    let rail_health = r.result.health.clone().expect("sampling was requested");
    let rail_tl = r.result.timeline.as_ref().expect("sampling was requested");
    let rail_end = r
        .result
        .timeline_proto
        .as_ref()
        .expect("sampling was requested");
    println!(
        "rail-outage  injected {:.2}ms  opened {:.2}ms  ({} interval(s), gate <= 3)  \
         {} rows  {} retransmit intervals  {} rail-dead intervals  ({} retransmits total)",
        r.injected_ns as f64 / 1e6,
        r.opened_ns as f64 / 1e6,
        r.detect_intervals,
        rail_tl.len(),
        r.retransmit_intervals,
        r.rail_dead_intervals,
        rail_end.retransmits()
    );
    assert!(
        r.detect_intervals <= 3,
        "RailOutage opened {} intervals after injection",
        r.detect_intervals
    );
    assert!(
        r.retransmit_intervals >= 1,
        "outage must localise to intervals"
    );
    assert!(
        r.rail_dead_intervals >= 1,
        "dead rail must localise to intervals"
    );
    let rail = Json::obj()
        .set("config", "2Lu-1G")
        .set("kind", "one-way")
        .set("injected_t_ns", r.injected_ns)
        .set("opened_t_ns", r.opened_ns)
        .set("detect_intervals", r.detect_intervals)
        .set("incidents", rail_health.incidents.len())
        .set("rows", rail_tl.len())
        .set("retransmit_intervals", r.retransmit_intervals)
        .set("rail_dead_intervals", r.rail_dead_intervals)
        .set("retransmits_total", rail_end.retransmits())
        .set("reconciled", true)
        .set("offline_identical", true)
        .set("artifact", "results/telemetry_failover.jsonl")
        .set(
            "gate",
            "reconciles exactly; >= 1 retransmit and >= 1 rail-dead interval; RailOutage opens within 3 sample intervals of injection",
        );

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
        .set(
            "seeds",
            seeds.iter().map(|&s| Json::from(s)).collect::<Vec<_>>(),
        )
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
        "chaos-burst  {} dropped  storm opened {:.2}ms (burst armed {:.2}ms)  first {}  {} incident(s)  \
         {} rows  {} retransmit intervals",
        c.chaos.dropped,
        storm.opened_t_ns as f64 / 1e6,
        c.burst_at_ns as f64 / 1e6,
        first_cause.label(),
        c.health.incidents.len(),
        c.timeline.len(),
        c.retransmit_intervals
    );
    assert!(c.chaos.dropped > 0, "the burst must drop frames");
    assert!(storm.opened_t_ns >= c.burst_at_ns);
    assert!(
        c.retransmit_intervals >= 1,
        "loss recovery must localise to intervals"
    );
    // At full size the ack token ages while the burst's last lost frames
    // are repaired, and opens a second storm incident (a repair stall)
    // after the first has closed. The one-incident gate holds at smoke
    // size only.
    if smoke {
        assert_eq!(
            c.health.incidents.len(),
            1,
            "the burst must open one incident:\n{}",
            c.health.render_human()
        );
    }
    let chaos_json = Json::obj()
        .set(
            "config",
            match smoke {
                true => "BP-2L+chaos(burst GE 0.15/0.2 loss 0.6)",
                false => "BP-2L+chaos(burst GE 0.15/0.3 loss 0.6)",
            },
        )
        .set("kind", "one-way")
        .set("chaos_dropped", c.chaos.dropped)
        .set("burst_at_ns", c.burst_at_ns)
        .set("storm_opened_t_ns", storm.opened_t_ns)
        .set("first_cause", first_cause.label())
        .set("incidents", c.health.incidents.len())
        .set("rows", c.timeline.len())
        .set("retransmit_intervals", c.retransmit_intervals)
        .set("retransmits_total", c.end.retransmits())
        .set("reconciled", true)
        .set("offline_identical", true)
        .set(
            "gate",
            "reconciles exactly; >= 1 retransmit interval; RetransmitStorm opens after the burst arms; SMOKE=1: it is the one incident",
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

    // Incast vs balanced: the cross-node diagnosis (members = nodes). Each
    // node's received bytes reconcile inside the cell.
    let incast = incast_doctor(smoke);
    let i = incast
        .health
        .first(IncidentCause::IncastImbalance)
        .expect("incast must diagnose as IncastImbalance");
    let hot = i.evidence()[0].column as usize;
    println!(
        "incast       {} nodes  hot node {} by totals  imbalance {:.2}x  hot member {} ({} alarms, {} rows)",
        incast.timelines.len(),
        incast.hot_node,
        incast.imbalance,
        hot,
        i.alarms,
        incast.timelines[0].len()
    );
    assert_eq!(
        incast.hot_node, 0,
        "the received-byte totals must name the receiver node"
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
        .set("incast_members", incast.timelines.len())
        .set("incast_rows", incast.timelines[0].len())
        .set("incast_hot_node", incast.hot_node)
        .set("incast_imbalance", incast.imbalance)
        .set("incast_hot_member", hot)
        .set("incast_opened_t_ns", i.opened_t_ns)
        .set("incast_alarms", i.alarms)
        .set("incast_reconciled", true)
        .set("incast_artifacts", "results/telemetry_incast_node{0..7}.jsonl")
        .set("balanced_incidents", bal_health.incidents.len())
        .set(
            "gate",
            "incast: every node reconciles, totals and diagnosis name node 0 hot; balanced stays clean",
        );

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
        ("incast", &incast.health),
        ("balanced", &bal_health),
    ];
    cells.extend(clean_reports.iter().map(|(n, r)| (n.as_str(), *r)));
    check_cause_gates(&cells, &IncidentCause::ALL).unwrap_or_else(|e| panic!("cause gate: {e}"));
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
        .set(
            "checked",
            IncidentCause::ALL
                .iter()
                .map(|k| Json::from(k.label()))
                .collect::<Vec<_>>(),
        )
        .set(
            "gate",
            "every checked cause is the first incident of the cell that gates it",
        );
    let results = results_dir();
    std::fs::write(
        results.join("doctor_incidents.json"),
        incident_artifact(&cells).render_pretty(),
    )
    .expect("write incident artifact");
    std::fs::write(results.join("telemetry_failover.jsonl"), rail_tl.to_jsonl())
        .expect("write rail-outage timeline artifact");
    // One artifact per node: `me-inspect timeline node0.jsonl … node7.jsonl`
    // renders the cross-node imbalance table from these.
    for (i, tl) in incast.timelines.iter().enumerate() {
        std::fs::write(
            results.join(format!("telemetry_incast_node{i}.jsonl")),
            tl.to_jsonl(),
        )
        .expect("write node timeline artifact");
    }

    let doc = Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("bench", "doctor")
        .set("mode", if smoke { "smoke" } else { "full" })
        .set(
            "methodology",
            "sampling off / sampler+monitor on pair at two run lengths: fingerprints equal and marginal allocs/frame asserted, fps ratio printed, not written; 1 ms / 250 us sampled pair at the same two lengths: stats equal and marginal allocs/sample row asserted; base + per-interval deltas reconciled exactly against end-of-run ProtoStats in the overhead, rail-outage and chaos-burst runs, and each incast node's data_bytes_recv against its end-of-run count; every cell replays its JSONL artifact offline and requires a byte-identical report",
        )
        .set("overhead", overhead)
        .set("rail_outage", rail)
        .set("clean_seeds", clean_json)
        .set("chaos_burst", chaos_json)
        .set("nic_stall", stall_json)
        .set("nodes", nodes_json)
        .set("gates", gates);
    std::fs::write(results.join("BENCH_doctor.json"), doc.render_pretty()).expect("write json");
    println!(
        "wrote results/BENCH_doctor.json, results/doctor_incidents.json and results/telemetry_*.jsonl"
    );
}
