//! Health-plane cost and fidelity gates (`me-doctor`).
//!
//! The streaming detectors ([`me_trace::detect`]) promise to be purely
//! observational — allocation-free at every sample tick, bit-identical
//! protocol stats; what they cost in frames/wall-s is
//! `trace.planes_on_fps_ratio` in `perf/` — and to diagnose correctly: a
//! scripted rail outage opens `RailOutage` within 3 sample intervals of
//! injection, a clean seed sweep opens nothing, a chaos loss burst names
//! `RetransmitStorm`, incast fan-in names the receiver node hot, and
//! the offline JSONL replay reproduces every online verdict byte-for-byte
//! (asserted inside each cell). This bench enforces all of it and writes
//! the committed `results/BENCH_doctor.json` plus
//! `results/doctor_incidents.json` (every cell's incident report, the
//! artifact CI uploads on failure).
//!
//! Modes (environment variables):
//!
//! * default — full cells, all gates, artifacts written.
//! * `DOCTOR_SMOKE=1` — CI smoke: small cells, every gate still enforced,
//!   artifacts still written (marked `"mode": "smoke"`).
//!
//! The cost gate is [`multiedge_bench::plane_overhead`] over a sampled run
//! with and without the monitor: no allocation per extra sample row and an
//! identical stats fingerprint are asserted; the frames/wall-s ratio is
//! printed, not judged.

use me_trace::{HealthConfig, HealthReport, IncidentCause, Json, SCHEMA_VERSION};
use multiedge::SystemConfig;
use multiedge_bench::doctor::{
    balanced_doctor, chaos_burst_doctor, clean_seeds_doctor, incast_doctor, rail_outage_doctor,
};
use multiedge_bench::micro::{run_micro_doctor, run_micro_sampled, MicroKind, MicroResult};
use multiedge_bench::plane_overhead;
use multiedge_bench::scale::MEMBER_COUNTER;
use netsim::time::us;
use netsim::{Dur, FaultPlan};
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
            let hc = HealthConfig::default();
            run_micro_doctor(&cfg, kind, 64 << 10, iters, &plan, interval, hc)
        } else {
            run_micro_sampled(&cfg, kind, 64 << 10, iters, &plan, Some(interval))
        }
    };
    let allocs = || ALLOC_CALLS.load(Relaxed);
    let rows = |r: &MicroResult| r.timeline.as_ref().map_or(0, |tl| tl.len() as u64);
    plane_overhead("health monitor", "sample", iters, allocs, run, rows)
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
    let smoke = std::env::var("DOCTOR_SMOKE").is_ok();
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
    let r = rail_outage_doctor(smoke);
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
    println!(
        "chaos-burst  {} dropped  storm opened {:.2}ms (burst armed {:.2}ms)",
        c.chaos.dropped,
        storm.opened_t_ns as f64 / 1e6,
        c.burst_at_ns as f64 / 1e6
    );
    assert!(c.chaos.dropped > 0, "the burst must drop frames");
    assert!(storm.opened_t_ns >= c.burst_at_ns);
    let chaos_json = Json::obj()
        .set("config", "BP-2L+chaos(burst GE 0.15/0.3 loss 0.6)")
        .set("kind", "one-way")
        .set("chaos_dropped", c.chaos.dropped)
        .set("burst_at_ns", c.burst_at_ns)
        .set("storm_opened_t_ns", storm.opened_t_ns)
        .set("incidents", c.health.incidents.len())
        .set("offline_identical", true)
        .set("gate", "burst loss diagnoses as RetransmitStorm after the burst arms");

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
    // on failure for post-mortem triage.
    let clean_reports: Vec<(String, &HealthReport)> = clean
        .iter()
        .map(|(s, r)| (format!("clean_seed_{s}"), r))
        .collect();
    let mut cells: Vec<(&str, &HealthReport)> = vec![
        ("rail_outage", &rail_health),
        ("chaos_burst", &c.health),
        ("incast", &inc_health),
        ("balanced", &bal_health),
    ];
    cells.extend(clean_reports.iter().map(|(n, r)| (n.as_str(), *r)));
    std::fs::create_dir_all(results_path("")).expect("create results dir");
    std::fs::write(
        results_path("doctor_incidents.json"),
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
        .set("nodes", nodes_json);
    std::fs::write(results_path("BENCH_doctor.json"), doc.render_pretty())
        .expect("write json");
    println!("wrote results/BENCH_doctor.json and results/doctor_incidents.json");
}
