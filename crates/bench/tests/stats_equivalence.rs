//! Golden protocol/network statistics for fixed seeds: the one exact pin
//! of simulated behaviour.
//!
//! Mechanical-sympathy work on the datapath (window rings, timer wheel,
//! scratch buffers) must not change a single protocol decision. This test
//! pins the complete `ProtoStats` and `NetStats` Debug output of
//! `run_micro` for fixed seeds against `stats_equivalence.golden` (one
//! `label = fingerprint` line per cell × seed): the paper's 1L/2Lu/4L
//! two-way configurations, and the attribution cells (one-way, two-way and
//! ping-pong on 1L-1G, 2Lu-1G, 4L-1G and 1L-10G), whose lines also pin the
//! span attribution — op latency p50/p99 and every phase's exclusive total
//! in nanoseconds. Any divergence — one extra retransmission, one reordered
//! draw, one nanosecond moved between phases — fails the test.
//!
//! To see *which* phase a break moved, run `make bench-attribution` on
//! both trees and `me-inspect diff` the two `BENCH_attribution.json`
//! (docs/OBSERVABILITY.md § Diagnosing a golden break). To regenerate
//! after an *intentional* behaviour change (`make rebaseline` does this
//! along with every other pinned artifact):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --offline -p multiedge-bench --test stats_equivalence
//! ```

use me_trace::{analyze, PHASES};
use multiedge_bench::micro::{run_micro, MicroKind};
use multiedge_bench::triage::base_config;

const GOLDEN: &str = include_str!("stats_equivalence.golden");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/stats_equivalence.golden"
);

const ITERS: usize = 24;
/// Span-ring capacity: above any cell's op count, so every op is analysed.
const SPANS: usize = 1 << 16;

/// A golden cell: config name, workload, op size, seeds, and whether its
/// lines also pin the span attribution.
type Cell = (&'static str, MicroKind, usize, [u64; 2], bool);

const CELLS: [Cell; 8] = [
    ("1L-1G", MicroKind::TwoWay, 64 << 10, [1, 42], false),
    ("2Lu-1G", MicroKind::TwoWay, 64 << 10, [1, 42], false),
    ("4L-1G", MicroKind::TwoWay, 64 << 10, [1, 42], false),
    ("1L-1G", MicroKind::OneWay, 32 << 10, [7_700, 7_701], true),
    ("2Lu-1G", MicroKind::TwoWay, 32 << 10, [7_800, 7_801], true),
    ("1L-10G", MicroKind::PingPong, 4 << 10, [7_900, 7_901], true),
    ("2Lu-1G", MicroKind::OneWay, 32 << 10, [8_000, 8_001], true),
    ("4L-1G", MicroKind::TwoWay, 32 << 10, [8_100, 8_101], true),
];

/// One golden line: the counters, then (for attributed cells) latency
/// p50/p99 and the per-phase exclusive totals, all in ns. Attributed cells
/// are labelled with their workload; the first three predate them.
fn line((config, kind, size, _, spans): Cell, seed: u64) -> String {
    let mut cfg = base_config(config);
    cfg.seed = seed;
    let mut line = format!("{config}/seed{seed}");
    if spans {
        cfg = cfg.with_spans(SPANS);
        line = format!("{config} {}/seed{seed}", kind.name());
    }
    let r = run_micro(&cfg, kind, size, ITERS);
    line += &format!(" = {:?}|{:?}", r.proto, r.net);
    if let Some(snap) = r.spans {
        assert_eq!(snap.overwritten, 0, "{line}: the span ring lost ops");
        let a = analyze(&snap).overall;
        let h = &a.latency_hist;
        line += &format!(
            "|latency p50 {} p99 {}|",
            h.percentile(50.0),
            h.percentile(99.0)
        );
        for (p, ns) in PHASES.iter().zip(a.phase_total_ns) {
            line += &format!(" {}={ns}", p.label());
        }
    }
    line + "\n"
}

#[test]
fn stats_identical_for_fixed_seeds() {
    let got: String = CELLS
        .iter()
        .flat_map(|&cell| cell.3.map(|seed| line(cell, seed)))
        .collect();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &got).expect("rewrite stats_equivalence.golden");
        return;
    }
    let drifted: Vec<String> = got
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(g, e)| g != e)
        .map(|(g, e)| format!("  expected: {e}\n  got:      {g}"))
        .collect();
    assert!(
        drifted.is_empty() && got.lines().count() == GOLDEN.lines().count(),
        "protocol/network stats drifted from {GOLDEN_PATH}:\n{}",
        drifted.join("\n")
    );
}
