//! Figure 2 — micro-benchmark latency, throughput and CPU utilization for
//! ping-pong / one-way / two-way over 1L-1G, 2L-1G and 1L-10G, plus the §4
//! network-level statistics (out-of-order fractions, extra frames, drops).

use me_stats::table::{fmt_f, fmt_pct, fmt_size};
use me_stats::Table;
use multiedge::SystemConfig;
use multiedge_bench::{default_iters, fig2_sizes, run_micro, MicroKind};

fn main() {
    let configs: Vec<SystemConfig> = vec![
        SystemConfig::one_link_1g(2),
        SystemConfig::two_link_1g_unordered(2),
        SystemConfig::one_link_10g(2),
    ];
    let kinds = [MicroKind::PingPong, MicroKind::OneWay, MicroKind::TwoWay];
    let sizes = fig2_sizes();

    for kind in kinds {
        let mut headers: Vec<String> = vec!["size".into()];
        for c in &configs {
            headers.push(format!("{} lat(us)", c.name));
            headers.push(format!("{} MB/s", c.name));
            headers.push(format!("{} cpu%", c.name));
        }
        let hr: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(format!("Figure 2: {}", kind.name()), &hr);
        let mut net_rows: Vec<Vec<String>> = Vec::new();
        for &size in &sizes {
            let mut row = vec![fmt_size(size)];
            let mut nrow = vec![fmt_size(size)];
            for cfg in &configs {
                let r = run_micro(cfg, kind, size, default_iters(size));
                row.push(fmt_f(r.latency_us));
                row.push(fmt_f(r.throughput_mb_s));
                row.push(fmt_f(r.cpu_util_pct));
                nrow.push(fmt_pct(r.proto.ooo_fraction()));
                nrow.push(fmt_pct(r.proto.extra_frame_fraction()));
                nrow.push(format!("{}", r.net.drops_overflow + r.net.drops_loss));
            }
            t.row(row);
            net_rows.push(nrow);
        }
        t.print();
        // §4 network statistics for the same runs.
        let mut nh: Vec<String> = vec!["size".into()];
        for c in &configs {
            nh.push(format!("{} ooo", c.name));
            nh.push(format!("{} extra", c.name));
            nh.push(format!("{} drops", c.name));
        }
        let nhr: Vec<&str> = nh.iter().map(|s| s.as_str()).collect();
        let mut nt = Table::new(
            format!("Figure 2 (§4 text): network stats, {}", kind.name()),
            &nhr,
        );
        for row in net_rows {
            nt.row(row);
        }
        nt.print();
    }
    println!("paper targets: one-way ≈120 MB/s (1L-1G), ≈240 MB/s (2L-1G), ≈1100 MB/s (1L-10G);");
    println!(
        "ping-pong 10G ≈710 MB/s; two-way 10G ≈1500 MB/s; min latency ≈30 us; 2L ooo ≈45-50%; extra ≤5.5%"
    );
}
