//! Quickstart: two simulated nodes, one MultiEdge connection.
//!
//! Demonstrates the paper's core API: asynchronous remote writes with
//! completion handles and notifications, and an asynchronous remote read —
//! then prints the measured latency and throughput.
//!
//! Run with: `cargo run --release --bin quickstart`

use multiedge::{Endpoint, OpFlags, SystemConfig};
use netsim::{build_cluster, Sim};
use std::rc::Rc;

fn main() {
    let cfg = Rc::new(SystemConfig::one_link_1g(2));
    let sim = Sim::new(42);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let eps = Endpoint::for_cluster(&sim, &cluster, cfg);
    let (c0, _c1) = Endpoint::connect(&eps[0], &eps[1]);

    let (a, b) = (eps[0].clone(), eps[1].clone());
    let s = sim.clone();
    sim.spawn("initiator", async move {
        // 1. Remote write with a notification at the target.
        let h = a
            .write_bytes(
                c0,
                0x1000,
                b"hello, multiedge!".to_vec(),
                OpFlags::RELAXED.with_notify(),
            )
            .await;
        h.wait().await;
        println!(
            "[{}] write of {} bytes fully acknowledged (latency {})",
            s.now(),
            h.len(),
            h.latency().unwrap()
        );

        // 2. Bulk transfer: 4 MB, measure throughput.
        let t0 = s.now();
        let big = a
            .write_bytes(c0, 0x100_000, vec![7u8; 4 << 20], OpFlags::RELAXED)
            .await;
        big.wait().await;
        let dt = s.now().since(t0);
        println!(
            "[{}] 4 MiB transferred: {:.1} MB/s",
            s.now(),
            (4 << 20) as f64 / dt.as_secs_f64() / 1e6
        );

        // 3. Remote read from the peer's address space.
        let r = a.read(c0, 0x9000, 0x1000, 17, OpFlags::RELAXED).await;
        r.wait().await;
        let got = a.mem_read(0x9000, 17);
        println!(
            "[{}] remote read returned: {:?}",
            s.now(),
            String::from_utf8_lossy(&got)
        );
    });
    let s2 = sim.clone();
    sim.spawn("target", async move {
        let n = b.next_notification().await.expect("notification");
        println!(
            "[{}] target notified: {} bytes from node {} at {:#x}: {:?}",
            s2.now(),
            n.len,
            n.from_node,
            n.addr,
            String::from_utf8_lossy(&b.mem_read(n.addr, n.len))
        );
        b.close_notifications();
    });
    sim.run().expect_quiescent();
    let st = eps[0].stats();
    println!(
        "stats: {} data frames sent, {} retransmits, {} explicit acks received by peer",
        st.data_frames_sent,
        st.retransmits(),
        eps[1].stats().explicit_acks_sent
    );
}
