//! End-to-end flight recorder: a scripted rail outage on a live transfer
//! must trigger a post-mortem dump, write the configured artifact file, and
//! produce a document that round-trips through the JSON parser with a
//! non-empty event timeline and a self-consistent attribution section. The
//! recorder and the tracer keep one event vocabulary: a node's events in a
//! dump are its tracer's, event for event.

use integration_tests::{payload, rig};
use me_trace::{report, FlightConfig, Json};
use multiedge::{OpFlags, SystemConfig};
use netsim::time::ms;
use netsim::FaultPlan;

/// A unique-per-test scratch dir under the target directory.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn rail_outage_triggers_post_mortem_dump_artifact() {
    let dir = scratch("fr_rail_outage");
    let fc = FlightConfig {
        dump_dir: Some(dir.to_string_lossy().into_owned()),
        ..FlightConfig::default()
    };
    let cfg = SystemConfig::two_link_1g_unordered(2)
        .with_spans(1 << 12)
        .with_flight(fc);
    let (sim, cluster, eps, conns) = rig(cfg);
    // Kill rail 1 early enough that the stream is still running, repair it
    // later so the run drains to quiescence on both rails.
    let plan = FaultPlan::new().rail_down(ms(4), 1).rail_up(ms(80), 1);
    cluster.apply_fault_plan(&sim, &plan);
    let c = conns[0][1].unwrap();
    let ep = eps[0].clone();
    let data = payload(7, 48 * (64 << 10));
    let expect = data.clone();
    sim.spawn("outage-writer", async move {
        let mut handles = Vec::new();
        for (i, part) in data.chunks(64 << 10).enumerate() {
            let h = ep
                .write_bytes(c, (i as u64) * 0x1_0000, part.to_vec(), OpFlags::RELAXED)
                .await;
            handles.push(h);
        }
        for h in handles {
            h.wait().await;
        }
    });
    sim.run().expect_quiescent();
    assert_eq!(
        eps[1].mem_read(0, expect.len()),
        expect,
        "data must be exact"
    );

    // The outage must have produced at least one triggered dump.
    let fr = eps[0].flight_recorder();
    assert!(fr.is_enabled());
    let dumps = fr.dumps();
    assert!(
        !dumps.is_empty(),
        "rail outage produced no post-mortem dump"
    );
    let dump = &dumps[0];
    assert_eq!(dump.trigger, "rail_death");

    // The artifact file exists and parses back to the retained document.
    let path = dump.path.as_ref().expect("dump_dir set => file written");
    let text = std::fs::read_to_string(path).expect("dump artifact readable");
    let parsed = Json::parse(&text).expect("dump artifact is valid JSON");
    assert_eq!(parsed, dump.json);
    assert_eq!(
        parsed.get("kind").and_then(|k| k.as_str()),
        Some("multiedge_flight_dump")
    );
    assert_eq!(
        parsed.get("trigger").and_then(|t| t.as_str()),
        Some("rail_death")
    );

    // The timeline is non-empty and contains the rail_down event itself.
    let events = parsed
        .get("events")
        .and_then(|e| e.items())
        .expect("events");
    assert!(!events.is_empty());
    assert!(
        events
            .iter()
            .any(|e| e.get("kind").and_then(|c| c.as_str()) == Some("rail_down")),
        "timeline must include the rail death"
    );

    // The embedded attribution is self-consistent: phase sums equal the
    // latency total, for however many ops had completed at dump time.
    let overall = parsed
        .get("attribution")
        .and_then(|a| a.get("overall"))
        .expect("span source attached => attribution embedded");
    assert_eq!(
        overall.get("phase_sum_ns").and_then(|v| v.as_u64()),
        overall.get("latency_total_ns").and_then(|v| v.as_u64()),
    );
}

#[test]
fn quiet_run_takes_no_dumps() {
    let dir = scratch("fr_quiet");
    let fc = FlightConfig {
        dump_dir: Some(dir.to_string_lossy().into_owned()),
        ..FlightConfig::default()
    };
    let cfg = SystemConfig::one_link_1g(2).with_flight(fc);
    let (sim, _cl, eps, conns) = rig(cfg);
    let c = conns[0][1].unwrap();
    let ep = eps[0].clone();
    sim.spawn("quiet-writer", async move {
        let h = ep
            .write_bytes(c, 0, vec![3u8; 256 << 10], OpFlags::RELAXED)
            .await;
        h.wait().await;
    });
    sim.run().expect_quiescent();
    let fr = eps[0].flight_recorder();
    let (events, dumps, suppressed) = fr.counters();
    assert!(events > 0, "always-on recorder must have recorded the run");
    assert_eq!((dumps, suppressed), (0, 0), "clean run must not dump");
    assert!(
        !dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none(),
        "no artifacts on a clean run"
    );
}

#[test]
fn flight_dump_and_tracer_see_the_same_events() {
    let cfg = SystemConfig::one_link_1g(2)
        .with_tracing(1 << 16)
        .with_flight(FlightConfig::default());
    let (sim, _cl, eps, conns) = rig(cfg);
    let c = conns[0][1].unwrap();
    let ep = eps[0].clone();
    sim.spawn("same-events-writer", async move {
        for i in 0..4u64 {
            let h = ep
                .write_bytes(c, i << 14, vec![i as u8; 16 << 10], OpFlags::RELAXED)
                .await;
            h.wait().await;
        }
    });
    sim.run().expect_quiescent();

    let dump = eps[0]
        .flight_recorder()
        .force_dump(sim.now().as_nanos())
        .expect("flight recorder enabled");
    let events_total = dump.get("events_total").and_then(|n| n.as_u64());
    assert_eq!(
        events_total,
        dump.get("events_retained").and_then(|n| n.as_u64()),
        "the flight ring must hold the whole run"
    );
    let node0: Vec<&Json> = dump
        .get("events")
        .and_then(|e| e.items())
        .expect("events")
        .iter()
        .filter(|e| e.get("node").and_then(|n| n.as_u64()) == Some(0))
        .collect();

    let snap = eps[0].tracer().snapshot().expect("tracing enabled");
    assert_eq!(snap.overwritten, 0);
    let traced = report::snapshot_to_json(&snap);
    let traced: Vec<&Json> = traced
        .get("events")
        .and_then(|e| e.items())
        .expect("events")
        .iter()
        .collect();
    assert!(traced.len() > 20, "only {} events traced", traced.len());
    assert_eq!(node0.len(), traced.len(), "same event count on both planes");
    for (i, (f, t)) in node0.iter().zip(&traced).enumerate() {
        assert_eq!(f, t, "event {i} differs between flight dump and tracer");
    }
}
