//! Shared driver for the application figures (3, 4, 5, 6).
//!
//! Each figure harness picks a system configuration and a set of cluster
//! sizes; this module runs every Table 1 workload, prints the speedup
//! table, the execution-time breakdowns and the network-level statistics
//! the corresponding paper figure plots.

use apps::table::{scaled_workloads, tiny_workloads};
use apps::workload::{run_app, AppRun, Workload};
use me_stats::table::{fmt_f, fmt_pct};
use me_stats::Table;
use multiedge::SystemConfig;

/// Problem-size scale selected by `MULTIEDGE_SCALE` (tiny | scaled).
pub fn workloads_for_env() -> Vec<Box<dyn Workload>> {
    match std::env::var("MULTIEDGE_SCALE").as_deref() {
        Ok("tiny") => tiny_workloads(),
        _ => scaled_workloads(),
    }
}

/// Run every workload on every node count; print speedups, breakdowns and
/// network statistics. Returns all runs for further inspection.
pub fn app_figure(
    figure: &str,
    mk_system: impl Fn(usize) -> SystemConfig,
    node_counts: &[usize],
) -> Vec<AppRun> {
    let workloads = workloads_for_env();
    let mut all: Vec<AppRun> = Vec::new();
    // Speedup table (one row per app, one column per node count).
    let mut headers: Vec<String> = vec!["app".into()];
    headers.extend(node_counts.iter().map(|n| format!("S({n})")));
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut speedups = Table::new(format!("{figure}: speedups"), &headers_ref);
    for w in &workloads {
        let mut row = vec![w.name().to_string()];
        for &n in node_counts {
            let run = run_app(mk_system(n), w.as_ref());
            row.push(fmt_f(run.speedup()));
            all.push(run);
        }
        speedups.row(row);
    }
    speedups.print();

    // Breakdown + network statistics at the largest node count.
    let &max_n = node_counts.iter().max().expect("non-empty node counts");
    let mut bd = Table::new(
        format!("{figure}: execution-time breakdown at {max_n} nodes"),
        &["app", "compute", "data-wait", "sync", "other", "protoCPU"],
    );
    let mut net = Table::new(
        format!("{figure}: network statistics at {max_n} nodes"),
        &[
            "app",
            "ooo-frames",
            "extra-traffic",
            "rx-irq-frac",
            "retransmits",
            "drops",
            "reorder-peak",
        ],
    );
    for run in all.iter().filter(|r| r.nodes == max_n) {
        let b = &run.breakdown;
        bd.row(vec![
            run.name.to_string(),
            fmt_pct(b.frac(b.compute_ns)),
            fmt_pct(b.frac(b.data_wait_ns)),
            fmt_pct(b.frac(b.sync_ns)),
            fmt_pct(b.frac(b.other_ns())),
            fmt_pct(run.protocol_cpu_fraction()),
        ]);
        net.row(vec![
            run.name.to_string(),
            fmt_pct(run.proto.ooo_fraction()),
            fmt_pct(run.extra_traffic_fraction()),
            fmt_pct(run.proto.rx_interrupt_fraction()),
            format!("{}", run.proto.retransmits()),
            format!("{}", run.net.drops_overflow + run.net.drops_loss),
            format!("{}", run.proto.reorder_peak),
        ]);
    }
    bd.print();
    net.print();
    all
}
