//! Spatial parallelism: one connection striped over multiple rails.
//!
//! Shows the paper's §2.5 contribution: frame-level round-robin striping,
//! the out-of-order arrivals it causes, and the fence flags that restore
//! ordering exactly where the application asks for it.
//!
//! Run with: `cargo run --release --bin multilink_striping`

use multiedge::{Endpoint, OpFlags, SystemConfig};
use netsim::{build_cluster, Sim};
use std::rc::Rc;

fn run(rails: usize) {
    let mut cfg = SystemConfig::two_link_1g_unordered(2);
    cfg.rails = rails;
    cfg.name = format!("{rails}L-1G");
    let sim = Sim::new(7);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let cfg = Rc::new(cfg);
    let eps = Endpoint::for_cluster(&sim, &cluster, cfg);
    let (c0, _) = Endpoint::connect(&eps[0], &eps[1]);
    let a = eps[0].clone();
    let b = eps[1].clone();
    let s = sim.clone();
    sim.spawn("sender", async move {
        let t0 = s.now();
        // Bulk data: no fences, frames free to arrive out of order.
        let h = a
            .write_bytes(c0, 0, vec![1u8; 8 << 20], OpFlags::RELAXED)
            .await;
        // Control message: ordered behind the bulk + notify (the DSM idiom).
        let ctl = a
            .write_bytes(
                c0,
                0x900_0000,
                b"bulk done".to_vec(),
                OpFlags::ORDERED_NOTIFY,
            )
            .await;
        h.wait().await;
        ctl.wait().await;
        let dt = s.now().since(t0);
        println!(
            "{rails} rail(s): {:7.1} MB/s",
            (8 << 20) as f64 / dt.as_secs_f64() / 1e6
        );
    });
    sim.spawn("receiver", async move {
        let n = b.next_notification().await.expect("ctl notification");
        // The backward fence guarantees all 8 MiB landed before this.
        assert_eq!(b.mem_read(0, 8 << 20), vec![1u8; 8 << 20]);
        assert_eq!(n.len, 9);
        println!("   control message delivered strictly after the bulk data");
        b.close_notifications();
    });
    sim.run().expect_quiescent();
    let st = eps[1].stats();
    println!(
        "   out-of-order arrivals: {:.1}%   extra frames: {:.1}%   retransmits: {}",
        100.0 * st.ooo_fraction(),
        100.0 * eps[0].stats().extra_frame_fraction(),
        eps[0].stats().retransmits()
    );
}

fn main() {
    for rails in [1, 2, 4] {
        run(rails);
    }
}
