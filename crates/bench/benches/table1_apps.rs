//! Table 1 — benchmark applications: problem sizes, modeled sequential
//! execution times (calibrated against the paper), and shared-data
//! footprints.

use apps::table::{paper_workloads, TABLE1_SEQ_MS};
use me_stats::Table;

fn main() {
    let mut t = Table::new(
        "Table 1: benchmark applications",
        &[
            "Application",
            "Problem Size",
            "Seq. Exec. Time (ms)",
            "Paper (ms)",
            "Footprint (MBytes)",
        ],
    );
    for (w, paper_ms) in paper_workloads().iter().zip(TABLE1_SEQ_MS) {
        t.row(vec![
            w.name().to_string(),
            w.problem(),
            format!("{:.0}", w.modeled_seq_ns() / 1e6),
            format!("{paper_ms:.0}"),
            format!("{:.0}", w.footprint_bytes() as f64 / 1e6),
        ]);
    }
    t.print();
    println!(
        "(sequential times are the calibrated cost model; see DESIGN.md §4.2 and EXPERIMENTS.md)"
    );
}
