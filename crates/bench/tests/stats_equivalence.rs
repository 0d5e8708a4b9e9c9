//! Golden protocol/network statistics for fixed seeds.
//!
//! Mechanical-sympathy work on the datapath (window rings, timer wheel,
//! scratch buffers) must not change a single protocol decision. This test
//! pins the complete `ProtoStats` and `NetStats` Debug output of
//! `run_micro` for fixed seeds on the paper's 1L/2L/4L two-way
//! configurations against `stats_equivalence.golden` (one
//! `label = fingerprint` line per cell). Any divergence — one extra
//! retransmission, one reordered draw — fails the test.
//!
//! To regenerate after an *intentional* behaviour change (`make
//! rebaseline` does this along with every other pinned artifact):
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --offline -p multiedge-bench --test stats_equivalence
//! ```

use multiedge::SystemConfig;
use multiedge_bench::micro::{run_micro, MicroKind};

const GOLDEN: &str = include_str!("stats_equivalence.golden");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/stats_equivalence.golden"
);

const SIZE: usize = 64 << 10;
const ITERS: usize = 24;

/// A golden cell: label, config constructor, seed.
type Cell = (&'static str, fn(usize) -> SystemConfig, u64);

const CELLS: [Cell; 6] = [
    ("1L-1G/seed1", SystemConfig::one_link_1g, 1),
    ("1L-1G/seed42", SystemConfig::one_link_1g, 42),
    ("2Lu-1G/seed1", SystemConfig::two_link_1g_unordered, 1),
    ("2Lu-1G/seed42", SystemConfig::two_link_1g_unordered, 42),
    ("4L-1G/seed1", SystemConfig::four_link_1g, 1),
    ("4L-1G/seed42", SystemConfig::four_link_1g, 42),
];

#[test]
fn stats_identical_for_fixed_seeds() {
    let got: String = CELLS
        .iter()
        .map(|&(label, cfg, seed)| {
            let mut cfg = cfg(2);
            cfg.seed = seed;
            let r = run_micro(&cfg, MicroKind::TwoWay, SIZE, ITERS);
            format!("{label} = {:?}|{:?}\n", r.proto, r.net)
        })
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
