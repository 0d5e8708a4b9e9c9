//! A complete application on the full stack: the six-step FFT running on
//! the GeNIMA-style DSM over MultiEdge, on eight simulated nodes — with
//! result verification against the sequential oracle.
//!
//! Run with: `cargo run --release --bin dsm_app`

use apps::fft::Fft;
use apps::workload::{run_app, Workload};
use multiedge::SystemConfig;

fn main() {
    let app = Fft { m: 14 }; // 16K complex points
    println!(
        "running {} ({}) on 8 nodes over 1L-1G...",
        app.name(),
        app.problem()
    );
    let run = run_app(SystemConfig::one_link_1g(8), &app);
    println!(
        "verified OK. parallel time {:.2} ms, modeled sequential {:.2} ms, speedup {:.2}",
        run.elapsed_ns as f64 / 1e6,
        run.seq_ns / 1e6,
        run.speedup()
    );
    let b = &run.breakdown;
    println!(
        "breakdown: compute {:.0}%, data wait {:.0}%, sync {:.0}%, protocol CPU {:.1}%",
        100.0 * b.frac(b.compute_ns),
        100.0 * b.frac(b.data_wait_ns),
        100.0 * b.frac(b.sync_ns),
        100.0 * run.protocol_cpu_fraction()
    );
    println!(
        "dsm: {} page fetches, {} diff writes, {} barriers; net: {} data frames, {:.1}% extra",
        run.dsm.page_fetches,
        run.dsm.diff_ops,
        run.dsm.barriers,
        run.proto.data_frames_sent,
        100.0 * run.extra_traffic_fraction()
    );
}
