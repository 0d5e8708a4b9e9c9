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

use multiedge::{AppMemory, Endpoint, OpFlags, Payload, SystemConfig, PAGE_SIZE};
use multiedge_bench::{allocs, live_bytes, CountingAlloc};
use netsim::sync::join_all;
use netsim::{build_cluster, Sim};
use std::cell::Cell;
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
/// what the simulator keeps of the round. About 1.4 KiB an end of that is
/// the engine's storage, grown in blocks of 512 to the round's peaks: its
/// closure slots of one, two and three cache lines (64, 128 and 192 B; the
/// test prints the peak of each, about 37 000 closures in all) and its
/// timer-wheel chunks of seven entries in 256 B. This budget moves with
/// them too.
const CARRIED_CONN_BUDGET: u64 = 5_120;

/// Heap an issued, unacknowledged 8 KiB write from memory may hold: its
/// frames, handle and events, but no copy of its payload, which is cut
/// from the run its source was written as (about 64 B; copying the one
/// fragment that straddles a page boundary adds 1.5 KiB, a private copy of
/// the payload 8.2 KiB).
const IN_FLIGHT_OP_BUDGET: u64 = 512;

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
fn carried_connection_holds_at_most_5_kib() {
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
    let [one, two, three] = sim.queue_stats().slots_peak;
    println!("closures at once, at most: {one} in one line, {two} in two, {three} in three");
    assert!(
        per_end <= CARRIED_CONN_BUDGET,
        "a connection that carried one round holds {per_end} B of heap, over its {CARRIED_CONN_BUDGET} B budget"
    );
}

#[test]
fn in_flight_writes_share_their_source_pages() {
    const BURST: usize = 16;
    const SRC: u64 = 0x10_0000;
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SystemConfig::one_link_1g(2);
    let sim = Sim::new(1);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let eps = Endpoint::for_cluster(&sim, &cluster, Rc::new(cfg));
    let (conn, _) = Endpoint::connect(&eps[0], &eps[1]);
    eps[0].mem_write(SRC, &[7; BURST * OP_BYTES]);
    eps[1].mem_write(DST, &[0; OP_BYTES]);
    let held = Rc::new(Cell::new(0));
    let (ep, out) = (eps[0].clone(), held.clone());
    sim.spawn("bursts", async move {
        // The first burst grows the simulator's and the connection's
        // queues; the second, issued into them, is measured.
        for burst in 0..2 {
            let mut handles = Vec::with_capacity(BURST);
            let (before, acks) = (live_bytes(), ep.stats().ctrl_frames_recv);
            for i in 0..BURST {
                let src = SRC + (i * OP_BYTES) as u64;
                handles.push(ep.write(conn, src, DST, OP_BYTES, OpFlags::RELAXED).await);
            }
            out.set(live_bytes().saturating_sub(before));
            assert_eq!(ep.stats().ctrl_frames_recv, acks, "an ack arrived mid-burst {burst}");
            let waits: Vec<_> = handles.iter().map(|h| h.wait()).collect();
            join_all(waits).await;
        }
    });
    sim.run().expect_quiescent();
    assert_eq!(eps[1].mem_read(DST, OP_BYTES), [7; OP_BYTES]);
    let per_op = held.get() / BURST as u64;
    println!("in-flight 8 KiB write from memory: {per_op} B of heap");
    assert!(
        per_op <= IN_FLIGHT_OP_BUDGET,
        "an in-flight write holds {per_op} B of heap, over its {IN_FLIGHT_OP_BUDGET} B budget: is its payload a copy?"
    );
}

/// Cutting a payload from memory allocates its copy buffer, if any, and
/// nothing else: once when a fragment crosses from one buffer into
/// another (a page, a run, or the zero page of a page never written), and
/// not at all when every fragment that straddles a page boundary lies
/// inside one run. (The rest of the contract of `AppMemory::fragments` is
/// a property test next to it; the count needs this binary's allocator,
/// and counts this thread's allocations only.)
#[test]
fn cutting_a_payload_allocates_at_most_its_copy_buffer() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let page = PAGE_SIZE as u64;
    let mut m = AppMemory::new();
    // Pages 1–3 are one run, 4 a page of its own, 5–6 a run; 0 and 7 were
    // never written.
    m.write(page, &vec![5; 3 * PAGE_SIZE]);
    m.write(4 * page, &vec![6; PAGE_SIZE]);
    m.write(5 * page, &vec![7; 2 * PAGE_SIZE]);
    let run_of = |p: u64| match p {
        1..=3 => Some(1),
        5..=6 => Some(5),
        _ => None,
    };
    // The first cut of a page that is not resident builds this thread's
    // zero page.
    m.fragments(Payload::Memory { addr: 0, len: 1 }, 1).for_each(drop);
    let mut in_run = 0;
    for addr in [0, 1, page - 1, page - 64, 2 * page - 700, 3 * page + 5, 5 * page + 9] {
        for len in [0, 1, 64, 1450, PAGE_SIZE, 5020, 3 * PAGE_SIZE + 100] {
            for max in [1, 64, 1450, PAGE_SIZE, 5000] {
                let mut crosses = false;
                for off in (0..len).step_by(max) {
                    let a = addr + off as u64;
                    let (first, last) = (a / page, (a + max.min(len - off) as u64 - 1) / page);
                    if first < last {
                        let run = run_of(first);
                        let one_run = run.is_some() && (first..=last).all(|p| run_of(p) == run);
                        in_run += u64::from(one_run);
                        crosses |= !one_run;
                    }
                }
                let a0 = allocs();
                let src = Payload::Memory { addr, len };
                let cut: usize = m.fragments(src, max).map(|f| f.len()).sum();
                let n = allocs() - a0;
                assert_eq!(cut, len);
                assert_eq!(
                    n,
                    u64::from(crosses),
                    "{addr:#x}+{len} at {max}: {n} allocations (crosses buffers: {crosses})"
                );
            }
        }
    }
    assert!(in_run > 0, "no fragment straddled a page inside a run");
}
