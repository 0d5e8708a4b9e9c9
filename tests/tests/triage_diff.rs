//! End-to-end regression diagnosis: run real attribution cells, inject a
//! deliberate slowdown into one protocol layer on the "new" side, and
//! assert the per-phase subtraction *names the phase and layer that moved*
//! — the property the `stats_equivalence` golden's failure message and
//! `me-inspect diff` rely on.

use me_trace::diff::layer;
use me_trace::{analyze, diff_docs, diff_rollups, Attribution, Json, Phase, RollupDelta, PHASES};
use multiedge::SystemConfig;
use multiedge_bench::{run_micro, MicroKind};
use netsim::time::us_f64;

/// A cell: topology, workload, op size, ops per run, first of two seeds.
type Cell = (fn(usize) -> SystemConfig, MicroKind, usize, usize, u64);

/// A latency-dominated ping-pong cell: with no pipelining there is no
/// send-window backpressure to soak up an injected delay, so a slowdown
/// surfaces in the phase that actually caused it.
const PINGPONG: Cell = (
    SystemConfig::one_link_10g,
    MicroKind::PingPong,
    4 << 10,
    16,
    4_200,
);

/// Run a cell over two seeds (`base_seed`, `base_seed + 1`) with `tweak`
/// applied, merging the span attributions.
fn run(
    (config, kind, size, iters, base_seed): Cell,
    tweak: &dyn Fn(&mut SystemConfig),
) -> Attribution {
    let mut attr = Attribution::default();
    for seed in [base_seed, base_seed + 1] {
        let mut cfg = config(2).with_spans(1 << 16);
        cfg.seed = seed;
        tweak(&mut cfg);
        let snap = run_micro(&cfg, kind, size, iters)
            .spans
            .expect("spans enabled");
        assert_eq!(snap.overwritten, 0, "span ring must retain the whole run");
        attr.merge(&analyze(&snap));
    }
    attr
}

/// Run the cell clean and with `tweak`, and subtract old from new; also
/// check that swapping the sides negates every per-op delta exactly.
fn diff_injected(cell: Cell, tweak: &dyn Fn(&mut SystemConfig)) -> RollupDelta {
    let (old, new) = (run(cell, &|_| {}), run(cell, tweak));
    let d = diff_rollups("cell", &old.overall, &new.overall);
    let rev = diff_rollups("cell", &new.overall, &old.overall);
    for (f, r) in d.per_op_delta_ns().iter().zip(rev.per_op_delta_ns()) {
        assert_eq!(*f, -r, "swapping old and new must negate every delta");
    }
    assert_eq!(d.dominant().map(|(p, _)| p), rev.dominant().map(|(p, _)| p));
    d
}

/// The per-op delta of `phase`.
fn delta(d: &RollupDelta, phase: Phase) -> f64 {
    d.per_op_delta_ns()[phase.idx()]
}

/// The determinism guarantee the whole scheme rests on: the same build
/// re-running a cell reproduces it bit for bit, so two identical builds
/// subtract to *exactly* zero.
#[test]
fn identical_builds_diff_to_unchanged() {
    let d = diff_injected(PINGPONG, &|_| {});
    assert!(d.identical(), "headline: {}", d.headline());
    assert_eq!(d.headline(), "cell: identical");
    assert_eq!(d.per_op_delta_ns(), [0.0; PHASES.len()]);
}

/// Injected switch-forwarding delay must be pinned on the network layer,
/// by name, in the headline. The delay taxes both directions of a
/// ping-pong — data frames (wire) and the acknowledgement path back
/// (ack_return) — so either network-layer phase may dominate, but both
/// must grow and nothing host-side may be blamed.
#[test]
fn switch_delay_regression_names_network_layer() {
    let d = diff_injected(PINGPONG, &|cfg| cfg.switch_delay += us_f64(20.0));
    let (dom, growth) = d.dominant().expect("a phase grew");
    assert!(
        matches!(dom, Phase::Wire | Phase::AckReturn),
        "dominant: {}",
        dom.label()
    );
    assert!(growth > 0.0);
    assert_eq!(layer(dom), "network");
    let named = format!("largest mover {} (network)", dom.label());
    assert!(d.headline().contains(&named), "headline: {}", d.headline());
    assert!(
        delta(&d, Phase::Wire) > 0.0,
        "wire must grow under switch delay"
    );
    assert!(
        delta(&d, Phase::AckReturn) > 0.0,
        "ack return must grow under switch delay"
    );
}

/// Injected receive-path processing cost must be pinned on rx_process.
#[test]
fn rx_proc_regression_names_rx_process_phase() {
    let d = diff_injected(PINGPONG, &|cfg| cfg.cost.rx_frame_proc += us_f64(15.0));
    assert_eq!(d.dominant().map(|(p, _)| p), Some(Phase::RxProcess));
    assert!(
        d.headline()
            .contains("largest mover rx_process (host rx path) +"),
        "headline: {}",
        d.headline()
    );
}

/// Link jitter on a striped topology produces closely-spaced out-of-order
/// arrivals: the reorder phase must gain per-op time. (Jitter also
/// inflates raw wire time, so the *dominant* phase may be either — the
/// point is that the ordering cost is surfaced, not hidden in "wire".)
#[test]
fn jitter_on_striped_rails_grows_reorder_mass() {
    // Small enough that the pipelined frames fit inside the send window —
    // with backpressure the window would soak up the delay and the diff
    // would (correctly but unhelpfully for this test) blame send_window.
    let cell: Cell = (
        SystemConfig::two_link_1g_unordered,
        MicroKind::TwoWay,
        4 << 10,
        12,
        4_300,
    );
    let d = diff_injected(cell, &|cfg| cfg.link.jitter = us_f64(300.0));
    assert!(
        delta(&d, Phase::Reorder) > 0.0,
        "reorder must gain per-op time under jitter"
    );
    let (dom, _) = d.dominant().expect("a phase grew");
    assert!(
        matches!(dom, Phase::Reorder | Phase::Wire),
        "dominant should be reorder or wire, got {}",
        dom.label()
    );
}

/// The `me-inspect diff` path end to end: two *documents* with a `cells`
/// array, one carrying an injected slowdown. The report must differ, its
/// human rendering and machine JSON must carry the same headline, and the
/// reverse direction must name the same phase with the sign flipped.
#[test]
fn document_level_diff_names_regressed_phase() {
    let doc = |attr: &Attribution| {
        let cell = Json::obj()
            .set("config", "1L-10G")
            .set("workload", "ping-pong")
            .set("attribution", attr.to_json());
        Json::obj()
            .set("schema_version", me_trace::SCHEMA_VERSION)
            .set("cells", vec![cell])
    };
    let old = doc(&run(PINGPONG, &|_| {}));
    let new = doc(&run(PINGPONG, &|cfg| cfg.switch_delay += us_f64(20.0)));
    let report = diff_docs(&old, &new).expect("documents diffable");
    assert!(report.differs());
    let overall = &report.cells[0].overall;
    let (dom, growth) = overall.dominant().expect("a phase grew");
    assert_eq!(
        layer(dom),
        "network",
        "switch delay is a network-layer fault"
    );
    let headline = overall.headline();
    assert!(
        headline.starts_with("1L-10G ping-pong: largest mover"),
        "{headline}"
    );
    assert!(report.render_human().contains(&headline));
    let json = report.to_json();
    me_trace::require_schema(&json).expect("report is schema-stamped");
    assert_eq!(json.get("differs").and_then(|v| v.as_bool()), Some(true));
    let cell = &json.get("cells").and_then(|c| c.items()).expect("cells")[0];
    assert_eq!(
        cell.get("headline").and_then(|h| h.as_str()),
        Some(headline.as_str())
    );

    let rev = diff_docs(&new, &old).expect("documents diffable");
    assert_eq!(rev.cells[0].overall.dominant(), Some((dom, -growth)));
}
