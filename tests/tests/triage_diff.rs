//! End-to-end regression triage: run real triage cells, inject a deliberate
//! slowdown into one protocol layer on the "new" side, and assert the diff
//! engine's verdict *names the phase and layer that moved* — the property
//! `me-inspect diff` relies on to turn a broken `stats_equivalence` golden
//! into a diagnosis.

use me_trace::diff::layer;
use me_trace::{diff_cell, diff_docs, DiffConfig, Json, Phase, Verdict};
use multiedge_bench::triage::{cell_doc, run_cell, run_cell_with, CellSpec};
use multiedge_bench::MicroKind;
use netsim::time::us_f64;

/// A latency-dominated ping-pong cell: with no pipelining there is no
/// send-window backpressure to soak up an injected delay, so a slowdown
/// surfaces in the phase that actually caused it.
fn pingpong_cell() -> CellSpec {
    CellSpec {
        config: "1L-10G",
        kind: MicroKind::PingPong,
        size: 4 << 10,
        iters: 16,
        rounds: 2,
        base_seed: 4_200,
    }
}

/// Run `spec` clean and with `tweak`, and diff old → new as the gate does.
fn diff_injected(
    spec: &CellSpec,
    tweak: &dyn Fn(&mut multiedge::SystemConfig),
) -> me_trace::CellDiff {
    let old = cell_doc(spec, "test", &run_cell(spec));
    let new = cell_doc(spec, "test", &run_cell_with(spec, tweak));
    diff_cell(&spec.name(), &old, &new, &DiffConfig::default()).expect("cells comparable")
}

/// The determinism guarantee the whole scheme rests on: the same build
/// re-running a cell reproduces the document bit for bit, so two identical
/// builds diff to *exactly* zero — not merely "within noise".
#[test]
fn identical_builds_diff_to_unchanged() {
    let spec = pingpong_cell();
    let d = diff_injected(&spec, &|_| {});
    assert_eq!(d.verdict, Verdict::Unchanged, "headline: {}", d.headline);
    assert_eq!(d.overall.p50_log_ratio, 0.0);
    assert_eq!(d.overall.p99_log_ratio, 0.0);
    for pd in &d.overall.phases {
        assert_eq!(pd.growth_per_op_ns, 0.0, "{} moved", pd.phase.label());
    }
}

/// Injected switch-forwarding delay must be pinned on the network layer,
/// by name, in the human-readable headline. The delay taxes both
/// directions of a ping-pong — data frames (wire) and the acknowledgement
/// path back (ack_return) — so either network-layer phase may dominate,
/// but both must grow and nothing host-side may be blamed.
#[test]
fn switch_delay_regression_names_network_layer() {
    let spec = pingpong_cell();
    let d = diff_injected(&spec, &|cfg| {
        cfg.switch_delay += us_f64(20.0);
    });
    assert_eq!(d.verdict, Verdict::Regressed, "headline: {}", d.headline);
    let dom = d.overall.dominant(false).expect("a phase grew");
    assert!(
        matches!(dom.phase, Phase::Wire | Phase::AckReturn),
        "dominant: {}",
        dom.phase.label()
    );
    assert_eq!(layer(dom.phase), "network");
    assert!(
        d.headline.contains(&format!("+{}", dom.phase.label()))
            && d.headline.contains("network"),
        "headline must name phase and layer: {}",
        d.headline
    );
    let grows = |p: Phase| {
        d.overall.phases.iter().find(|x| x.phase == p).unwrap().growth_per_op_ns > 0.0
    };
    assert!(grows(Phase::Wire), "wire must grow under switch delay");
    assert!(grows(Phase::AckReturn), "ack return must grow under switch delay");
}

/// Injected receive-path processing cost must be pinned on rx_process.
#[test]
fn rx_proc_regression_names_rx_process_phase() {
    let spec = pingpong_cell();
    let d = diff_injected(&spec, &|cfg| {
        cfg.cost.rx_frame_proc += us_f64(15.0);
    });
    assert_eq!(d.verdict, Verdict::Regressed, "headline: {}", d.headline);
    let dom = d.overall.dominant(false).expect("a phase grew");
    assert_eq!(dom.phase, Phase::RxProcess, "dominant: {}", dom.phase.label());
    assert!(
        d.headline.contains("+rx_process"),
        "headline must name the phase: {}",
        d.headline
    );
}

/// Link jitter on a striped topology produces closely-spaced out-of-order
/// arrivals: the reorder phase must visibly gain latency mass. (Jitter also
/// inflates raw wire time, so the *dominant* phase may be either — the
/// point is that the ordering cost is surfaced, not hidden in "wire".)
#[test]
fn jitter_on_striped_rails_grows_reorder_mass() {
    // Small enough that the pipelined frames fit inside the send window —
    // with backpressure the window would soak up the delay and the diff
    // would (correctly but unhelpfully for this test) blame send_window.
    let spec = CellSpec {
        config: "2Lu-1G",
        kind: MicroKind::TwoWay,
        size: 4 << 10,
        iters: 12,
        rounds: 2,
        base_seed: 4_300,
    };
    let d = diff_injected(&spec, &|cfg| {
        cfg.link.jitter = us_f64(300.0);
    });
    assert_eq!(d.verdict, Verdict::Regressed, "headline: {}", d.headline);
    let reorder = d
        .overall
        .phases
        .iter()
        .find(|p| p.phase == Phase::Reorder)
        .expect("reorder delta present");
    assert!(
        reorder.growth_per_op_ns > 0.0,
        "reorder must gain per-op time under jitter (got {} ns)",
        reorder.growth_per_op_ns
    );
    let dom = d.overall.dominant(false).expect("a phase grew");
    assert!(
        matches!(dom.phase, Phase::Reorder | Phase::Wire),
        "dominant should be reorder or wire, got {}",
        dom.phase.label()
    );
}

/// The acceptance-criterion path end to end: two *documents* (as
/// `me-inspect diff` reads them, with a `cells` array), one carrying an
/// injected slowdown — the report must regress and its headline must name
/// the phase, and the machine-readable JSON must carry the same verdict.
#[test]
fn document_level_diff_names_regressed_phase() {
    let spec = pingpong_cell();
    let wrap = |cell: Json| {
        Json::obj()
            .set("schema_version", me_trace::SCHEMA_VERSION)
            .set("bench", "triage")
            .set("cells", vec![cell])
    };
    let old = wrap(cell_doc(&spec, "test", &run_cell(&spec)));
    let new = wrap(cell_doc(
        &spec,
        "test",
        &run_cell_with(&spec, &|cfg| {
            cfg.switch_delay += us_f64(20.0);
        }),
    ));
    let cfg = DiffConfig::default();
    let report = diff_docs(&old, &new, &cfg).expect("documents diffable");
    assert!(report.regressed());
    let dom = report.cells[0]
        .overall
        .dominant(false)
        .expect("a phase grew")
        .phase;
    assert_eq!(layer(dom), "network", "switch delay is a network-layer fault");
    let human = report.render_human(&cfg);
    assert!(
        human.contains(&format!("+{}", dom.label())) && human.contains("REGRESSED"),
        "human report must name the phase:\n{human}"
    );
    let json = report.to_json();
    assert_eq!(json.get("regressed").and_then(|v| v.as_bool()), Some(true));
    me_trace::require_schema(&json).expect("report is schema-stamped");

    // And the reverse direction reads as an improvement of the same phase.
    let rev = diff_docs(&new, &old, &cfg).expect("documents diffable");
    assert!(!rev.regressed());
    assert_eq!(rev.cells[0].verdict, Verdict::Improved);
    let rev_dom = rev.cells[0].overall.dominant(true).expect("a phase shrank");
    assert_eq!(rev_dom.phase, dom, "improvement mirrors the regression");
    assert!(
        rev.cells[0].headline.contains(&format!("-{}", dom.label())),
        "improvement headline: {}",
        rev.cells[0].headline
    );
}
