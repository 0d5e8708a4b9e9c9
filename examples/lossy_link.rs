//! Fault injection: a lossy, corrupting link. NACK-driven selective
//! retransmission and the coarse timeout keep every transfer exact.
//!
//! Run with: `cargo run --release --bin lossy_link`

use multiedge::{Endpoint, OpFlags, SystemConfig};
use netsim::{build_cluster, FaultModel, Sim};
use std::rc::Rc;

fn main() {
    for (loss, corrupt) in [(0.0, 0.0), (0.01, 0.002), (0.05, 0.01), (0.20, 0.02)] {
        let mut cfg = SystemConfig::one_link_1g(2);
        cfg.fault = FaultModel {
            loss_rate: loss,
            corrupt_rate: corrupt,
        };
        let sim = Sim::new(11);
        let cluster = build_cluster(&sim, cfg.cluster_spec());
        let cfg = Rc::new(cfg);
        let eps = Endpoint::for_cluster(&sim, &cluster, cfg);
        let (c0, _) = Endpoint::connect(&eps[0], &eps[1]);
        let payload: Vec<u8> = (0..2_000_000u32).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        let a = eps[0].clone();
        let s = sim.clone();
        let done = sim.spawn("sender", async move {
            let t0 = s.now();
            let h = a.write_bytes(c0, 0, payload, OpFlags::RELAXED).await;
            h.wait().await;
            s.now().since(t0)
        });
        sim.run().expect_quiescent();
        let dt = done.try_take().unwrap();
        assert_eq!(
            eps[1].mem_read(0, 2_000_000),
            expected,
            "data must be exact"
        );
        let st = eps[0].stats();
        let st1 = eps[1].stats();
        println!(
            "loss {:>4.1}% corrupt {:>4.1}%: {:6.1} MB/s | {} NACK rtx, {} RTO rtx, {} NACKs, {} corrupt frames — data exact",
            loss * 100.0,
            corrupt * 100.0,
            2.0 / dt.as_secs_f64(),
            st.retransmits_nack,
            st.retransmits_rto,
            st1.nacks_sent,
            st1.corrupt_frames,
        );
    }
}
