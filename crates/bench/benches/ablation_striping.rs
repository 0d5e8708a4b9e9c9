//! Ablation: frame-level striping (MultiEdge) vs the byte-level striping
//! baseline of §1 ("tightly controlled" links), including a skewed-link
//! scenario.

use me_stats::table::fmt_f;
use me_stats::Table;
use multiedge::striping::ByteStriper;
use multiedge::SystemConfig;
use multiedge_bench::{run_micro, MicroKind};
use netsim::time::us_f64;

fn main() {
    // MultiEdge on 1 and 2 rails (simulated end to end).
    let me1 = run_micro(
        &SystemConfig::one_link_1g(2),
        MicroKind::OneWay,
        1 << 20,
        12,
    );
    let me2 = run_micro(
        &SystemConfig::two_link_1g_unordered(2),
        MicroKind::OneWay,
        1 << 20,
        12,
    );
    // Byte striper (analytical model) with per-unit sync overhead.
    let unit = 64 << 10;
    let bs = |k: usize| ByteStriper::uniform(k, 125e6, us_f64(2.0)).throughput(unit) / 1e6;
    let mut t = Table::new(
        "Ablation: striping granularity (MB/s, 1GbE rails)",
        &["links", "MultiEdge (frames)", "byte striping (64K units)"],
    );
    t.row(vec!["1".into(), fmt_f(me1.throughput_mb_s), fmt_f(bs(1))]);
    t.row(vec!["2".into(), fmt_f(me2.throughput_mb_s), fmt_f(bs(2))]);
    t.row(vec!["4".into(), "-".into(), fmt_f(bs(4))]);
    t.row(vec!["8".into(), "-".into(), fmt_f(bs(8))]);
    t.print();

    // Skew: one of four links at 10% speed.
    let mut skew = ByteStriper::uniform(4, 125e6, us_f64(2.0));
    skew.link_bytes_per_sec[3] = 12.5e6;
    let healthy = ByteStriper::uniform(4, 125e6, us_f64(2.0));
    let mut t2 = Table::new(
        "Ablation: one slow link out of four (byte striping stalls on the slowest slice)",
        &["scenario", "MB/s"],
    );
    t2.row(vec![
        "4 healthy links".into(),
        fmt_f(healthy.throughput(unit) / 1e6),
    ]);
    t2.row(vec![
        "3 healthy + 1 at 10%".into(),
        fmt_f(skew.throughput(unit) / 1e6),
    ]);
    t2.print();
    println!(
        "frame-level striping degrades proportionally; byte striping collapses to the slow link"
    );
}
