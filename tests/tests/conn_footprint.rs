//! What an idle connection costs in host memory.
//!
//! MultiEdge keeps every connection's reliability state at the edge: the
//! window of retransmission copies, the NACK bookkeeping, the receive
//! bitmap. A server that keeps a connection to every peer can afford that
//! only if a connection that carries nothing is cheap, so the window rings
//! grow with the traffic a connection carries instead of being allocated
//! whole when it connects. This file is its own process so the counting
//! allocator sees nothing but this one test.

use multiedge::{Endpoint, SystemConfig};
use multiedge_bench::{live_bytes, CountingAlloc};
use netsim::{build_cluster, Sim};
use std::rc::Rc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap an idle connection end may hold, struct included.
const IDLE_CONN_BUDGET: u64 = 2 << 10;

#[test]
fn idle_connection_holds_at_most_2_kib() {
    // The `sim_mesh64` cell: 64 nodes on 16 rails, every pair connected.
    let mut cfg = SystemConfig::four_link_1g(64);
    cfg.rails = 16;
    let sim = Sim::new(1);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let eps = Endpoint::for_cluster(&sim, &cluster, Rc::new(cfg));
    let before = live_bytes();
    for a in 0..eps.len() {
        for b in a + 1..eps.len() {
            Endpoint::connect(&eps[a], &eps[b]);
        }
    }
    let ends = (eps.len() * (eps.len() - 1)) as u64;
    let per_end = (live_bytes() - before) / ends;
    println!("idle connection end: {per_end} B of heap ({ends} ends)");
    assert!(
        per_end <= IDLE_CONN_BUDGET,
        "an idle connection holds {per_end} B of heap, over its {IDLE_CONN_BUDGET} B budget"
    );
}
