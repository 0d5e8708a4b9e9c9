//! What a connection costs in host memory, idle and after it has carried
//! traffic.
//!
//! MultiEdge keeps every connection's reliability state at the edge: the
//! window of retransmission copies, the NACK bookkeeping, the receive
//! bitmap, the reorder buffer, per-rail health. A server that keeps a
//! connection to every peer can afford that only if a connection holds
//! what it carries: nothing is allocated whole when it connects, and what
//! a round of traffic grew stays small once the round is over. This file
//! is its own process so the counting allocator sees nothing but these
//! tests, which take turns.

use multiedge::{Endpoint, OpFlags, SystemConfig};
use multiedge_bench::{live_bytes, CountingAlloc};
use netsim::sync::join_all;
use netsim::{build_cluster, Sim};
use std::rc::Rc;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The heap count is process-wide: one test measures at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Heap an idle connection end may hold, struct included.
const IDLE_CONN_BUDGET: u64 = 1 << 10;

/// Heap a connection end may hold after one all-to-all 8 KiB round has run
/// to quiescence, struct included. The count also shares out over the ends
/// what the simulator and fabric keep of the round (about 3.8 KiB an end:
/// queue capacity), so this budget moves with them too.
const CARRIED_CONN_BUDGET: u64 = 6_656;

/// Payload of each write in the carried round.
const OP_BYTES: usize = 8 << 10;
/// Where every write of the carried round lands (the same region on every
/// node, touched before the count starts).
const DST: u64 = 0x10_0000;

/// The `sim_mesh64` cell: 64 nodes on 16 rails.
fn mesh() -> (Sim, Vec<Endpoint>) {
    let mut cfg = SystemConfig::four_link_1g(64);
    cfg.rails = 16;
    let sim = Sim::new(1);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let eps = Endpoint::for_cluster(&sim, &cluster, Rc::new(cfg));
    (sim, eps)
}

/// Connect every pair; returns the number of connection ends.
fn connect_all(eps: &[Endpoint]) -> u64 {
    for a in 0..eps.len() {
        for b in a + 1..eps.len() {
            Endpoint::connect(&eps[a], &eps[b]);
        }
    }
    (eps.len() * (eps.len() - 1)) as u64
}

#[test]
fn idle_connection_holds_at_most_1_kib() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (_sim, eps) = mesh();
    let before = live_bytes();
    let ends = connect_all(&eps);
    let per_end = (live_bytes() - before) / ends;
    println!("idle connection end: {per_end} B of heap ({ends} ends)");
    assert!(
        per_end <= IDLE_CONN_BUDGET,
        "an idle connection holds {per_end} B of heap, over its {IDLE_CONN_BUDGET} B budget"
    );
}

#[test]
fn carried_connection_holds_at_most_6_5_kib() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (sim, eps) = mesh();
    for ep in &eps {
        ep.mem_write(DST, &[0; OP_BYTES]);
    }
    let before = live_bytes();
    let ends = connect_all(&eps);
    // One round: every node writes 8 KiB to each peer, then waits for all.
    for ep in &eps {
        let ep = ep.clone();
        sim.spawn("round", async move {
            let mut handles = Vec::new();
            for conn in 0..ep.conn_count() {
                let data = vec![ep.node() as u8; OP_BYTES];
                handles.push(ep.write_bytes(conn, DST, data, OpFlags::RELAXED).await);
            }
            let waits: Vec<_> = handles.iter().map(|h| h.wait()).collect();
            join_all(waits).await;
        });
    }
    sim.run().expect_quiescent();
    let per_end = (live_bytes() - before) / ends;
    println!("carried connection end: {per_end} B of heap ({ends} ends)");
    assert!(
        per_end <= CARRIED_CONN_BUDGET,
        "a connection that carried one round holds {per_end} B of heap, over its {CARRIED_CONN_BUDGET} B budget"
    );
}
