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
//! A drifted attributed line names its own phase: the failure message
//! subtracts the expected line's phase totals and p50/p99 from the actual
//! line's and prints `me_trace::diff`'s headline — the largest per-op mover
//! and its protocol layer (docs/OBSERVABILITY.md § Diagnosing a golden
//! break). To regenerate after an *intentional* behaviour change (`make
//! rebaseline` does this along with every other pinned artifact):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --offline -p multiedge-bench --test stats_equivalence
//! ```

use me_trace::diff::layer;
use me_trace::{analyze, RollupDelta, Totals, PHASES};
use multiedge::SystemConfig;
use multiedge_bench::micro::{run_micro, MicroKind};

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

/// A cell's topology by name.
fn base_config(name: &str) -> SystemConfig {
    match name {
        "1L-1G" => SystemConfig::one_link_1g(2),
        "2Lu-1G" => SystemConfig::two_link_1g_unordered(2),
        "4L-1G" => SystemConfig::four_link_1g(2),
        "1L-10G" => SystemConfig::one_link_10g(2),
        other => panic!("unknown golden config '{other}'"),
    }
}

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
    // The simulator's rails are FIFO, so no proof of loss may be spurious.
    assert_eq!(r.spurious_proofs, 0, "{line}: a late frame was NACKed");
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

/// Read an attributed line back into the [`Totals`] a diff subtracts: ops
/// (`ops_write + ops_read`), latency p50/p99 and every phase's total.
/// `None` for the unattributed lines.
fn totals(line: &str) -> Option<Totals> {
    let num = |key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        rest[..rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len())]
            .parse()
            .ok()
    };
    let mut t = Totals {
        ops: num("ops_write: ")? + num("ops_read: ")?,
        p50_ns: num("|latency p50 ")?,
        p99_ns: num(" p99 ")?,
        ..Totals::default()
    };
    for (ns, p) in t.phase_ns.iter_mut().zip(PHASES) {
        *ns = num(&format!(" {}=", p.label()))?;
    }
    Some(t)
}

/// The failure text for one drifted line: both lines, then for an
/// attributed cell the headline naming the phase that moved.
fn drift(expected: &str, got: &str) -> String {
    let mut msg = format!("  expected: {expected}\n  got:      {got}");
    if let (Some(old), Some(new)) = (totals(expected), totals(got)) {
        let name = got.split(" = ").next().unwrap_or(got).to_string();
        msg += &format!("\n  => {}", RollupDelta { name, old, new }.headline());
    }
    msg
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
        .map(|(g, e)| drift(e, g))
        .collect();
    assert!(
        drifted.is_empty() && got.lines().count() == GOLDEN.lines().count(),
        "protocol/network stats drifted from {GOLDEN_PATH}:\n{}",
        drifted.join("\n")
    );
}

/// Moving one phase token of an attributed golden line names that phase
/// and its layer in the failure message, for every phase.
#[test]
fn a_drifted_line_names_its_phase() {
    let line = GOLDEN
        .lines()
        .find(|l| totals(l).is_some())
        .expect("an attributed line");
    for p in PHASES {
        let key = format!(" {}=", p.label());
        let (head, tail) = line.split_once(&key).expect("every phase is on the line");
        let end = tail.find(' ').unwrap_or(tail.len());
        let moved: u64 = tail[..end].parse::<u64>().unwrap() + 24_000;
        let msg = drift(line, &format!("{head}{key}{moved}{}", &tail[end..]));
        let named = format!("largest mover {} ({}) +1.0us/op", p.label(), layer(p));
        assert!(msg.contains(&named), "expected `{named}` in:\n{msg}");
    }
}
