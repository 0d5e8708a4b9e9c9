//! Figure 5 — application statistics over two 1-GBit/s links with strictly
//! ordered delivery (2L-1G): breakdowns ≈ 1L-1G; 10-50% of frames arrive
//! out of order; extra traffic ≤ 10%; 10-35% of frames cause interrupts.

use multiedge::SystemConfig;
use multiedge_bench::app_figure;

fn main() {
    let counts: Vec<usize> = match std::env::var("MULTIEDGE_SCALE").as_deref() {
        Ok("tiny") => vec![4],
        _ => vec![16],
    };
    app_figure(
        "Figure 5 (2L-1G ordered)",
        SystemConfig::two_link_1g,
        &counts,
    );
    println!("paper shape: ooo 10-50% (reorder every 2-10 frames); extra traffic <= 10%;");
    println!("protocol CPU <= 12%; execution times similar to 1L-1G");
}
