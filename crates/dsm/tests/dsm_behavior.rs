//! Behavioral tests of the DSM protocol: coherence, locks, barriers,
//! false sharing, invalidation, and the ordered vs relaxed transport modes.

use dsm::DsmCluster;
use multiedge::SystemConfig;
use netsim::Sim;
use std::cell::RefCell;
use std::rc::Rc;

fn cluster(nodes: usize) -> (Sim, DsmCluster) {
    let sim = Sim::new(7);
    let dsm = DsmCluster::build(&sim, SystemConfig::one_link_1g(nodes));
    (sim, dsm)
}

#[test]
fn producer_consumer_through_barrier() {
    let (_sim, dsm) = cluster(4);
    let arr = dsm.alloc_array::<u64>(4096);
    let n = arr.len();
    dsm.run_spmd(move |node| async move {
        let nodes = node.nodes();
        let chunk = n / nodes;
        let me = node.id();
        // Everyone writes its chunk, then reads the next node's chunk.
        let data: Vec<u64> = (0..chunk).map(|i| (me * 1000 + i) as u64).collect();
        arr.write(&node, me * chunk, &data).await;
        node.barrier(0).await;
        let peer = (me + 1) % nodes;
        let got = arr.read(&node, peer * chunk..(peer + 1) * chunk).await;
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, (peer * 1000 + i) as u64, "node {me} reading {peer}");
        }
        node.barrier(0).await;
    });
    let stats = dsm.dsm_stats();
    assert!(stats.page_fetches > 0, "remote chunks require fetches");
    assert_eq!(stats.barriers, 8);
}

#[test]
fn repeated_epochs_propagate_fresh_values() {
    // Invalidation really happens: each epoch the consumer must see the
    // producer's new value, not its stale cached page.
    let (_sim, dsm) = cluster(2);
    let arr = dsm.alloc_array::<u64>(16);
    dsm.run_spmd(move |node| async move {
        for epoch in 0..5u64 {
            if node.id() == 0 {
                arr.set(&node, 3, 100 + epoch).await;
            }
            node.barrier(0).await;
            let v = arr.get(&node, 3).await;
            assert_eq!(v, 100 + epoch, "node {} epoch {epoch}", node.id());
            node.barrier(0).await;
        }
    });
    let stats = dsm.dsm_stats();
    assert!(
        stats.invalidations >= 4,
        "consumer must invalidate its cached copy each epoch: {stats:?}"
    );
}

#[test]
fn false_sharing_on_one_page_preserves_all_writers() {
    // All nodes write disjoint 8-byte slots of the SAME page between the
    // same barriers; exact diffs must preserve every writer's data.
    let (_sim, dsm) = cluster(4);
    let arr = dsm.alloc_array::<u64>(512); // exactly one page
    dsm.run_spmd(move |node| async move {
        let me = node.id();
        let nodes = node.nodes();
        // Interleaved slots: node i writes slots i, i+nodes, i+2*nodes, ...
        let mut i = me;
        while i < 512 {
            arr.set(&node, i, (me as u64 + 1) * 1_000_000 + i as u64)
                .await;
            i += nodes;
        }
        node.barrier(0).await;
        // Every node verifies the whole page.
        let all = arr.read(&node, 0..512).await;
        for (i, v) in all.iter().enumerate() {
            let owner = i % nodes;
            assert_eq!(*v, (owner as u64 + 1) * 1_000_000 + i as u64, "slot {i}");
        }
        node.barrier(0).await;
    });
}

#[test]
fn lock_provides_mutual_exclusion_and_coherent_increments() {
    let (_sim, dsm) = cluster(4);
    let counter = dsm.alloc_array::<u64>(1);
    let in_cs: Rc<RefCell<u32>> = Rc::default();
    let max_in_cs: Rc<RefCell<u32>> = Rc::default();
    let (a, b) = (in_cs.clone(), max_in_cs.clone());
    let iters = 6usize;
    dsm.run_spmd(move |node| {
        let in_cs = a.clone();
        let max_in_cs = b.clone();
        async move {
            for _ in 0..iters {
                node.lock(1).await;
                {
                    let mut g = in_cs.borrow_mut();
                    *g += 1;
                    let mut m = max_in_cs.borrow_mut();
                    *m = (*m).max(*g);
                }
                let v = counter.get(&node, 0).await;
                counter.set(&node, 0, v + 1).await;
                *in_cs.borrow_mut() -= 1;
                node.unlock(1).await;
            }
            node.barrier(0).await;
            let total = counter.get(&node, 0).await;
            assert_eq!(total, (node.nodes() * iters) as u64);
        }
    });
    assert_eq!(*max_in_cs.borrow(), 1, "critical sections must not overlap");
    assert_eq!(dsm.dsm_stats().lock_acquires, 24);
}

#[test]
fn barrier_joins_all_nodes_in_time() {
    // A node arriving late must hold everyone; release times must be
    // (virtually) after the last arrival.
    let (_sim, dsm) = cluster(4);
    let arrivals: Rc<RefCell<Vec<u64>>> = Rc::default();
    let releases: Rc<RefCell<Vec<u64>>> = Rc::default();
    let (arr2, rel2) = (arrivals.clone(), releases.clone());
    dsm.run_spmd(move |node| {
        let arrivals = arr2.clone();
        let releases = rel2.clone();
        async move {
            // Stagger arrivals by computing different amounts.
            node.compute(netsim::time::us(50 * (node.id() as u64 + 1)))
                .await;
            arrivals.borrow_mut().push(node.sim().now().as_nanos());
            node.barrier(0).await;
            releases.borrow_mut().push(node.sim().now().as_nanos());
        }
    });
    let last_arrival = *arrivals.borrow().iter().max().unwrap();
    for &r in releases.borrow().iter() {
        assert!(
            r >= last_arrival,
            "release {r} before last arrival {last_arrival}"
        );
    }
}

#[test]
fn ordered_and_relaxed_modes_agree_on_results() {
    for sys in [
        SystemConfig::two_link_1g(4),           // strictly ordered (2L)
        SystemConfig::two_link_1g_unordered(4), // relaxed (2Lu)
    ] {
        let sim = Sim::new(11);
        let dsm = DsmCluster::build(&sim, sys);
        let arr = dsm.alloc_array::<u64>(2048);
        let n = arr.len();
        dsm.run_spmd(move |node| async move {
            let nodes = node.nodes();
            let chunk = n / nodes;
            let me = node.id();
            let data: Vec<u64> = (0..chunk).map(|i| (me * 7 + i) as u64).collect();
            arr.write(&node, me * chunk, &data).await;
            node.barrier(0).await;
            // Read everything and checksum.
            let all = arr.read(&node, 0..n).await;
            let mut sum = 0u64;
            for (i, v) in all.iter().enumerate() {
                let owner = i / chunk;
                assert_eq!(*v, (owner * 7 + (i % chunk)) as u64);
                sum = sum.wrapping_add(*v);
            }
            assert!(sum > 0);
            node.barrier(0).await;
        });
    }
}

#[test]
fn lossy_network_does_not_break_coherence() {
    let mut sys = SystemConfig::one_link_1g(3);
    sys.fault = netsim::FaultModel {
        loss_rate: 0.01,
        corrupt_rate: 0.002,
    };
    let sim = Sim::new(5);
    let dsm = DsmCluster::build(&sim, sys);
    let arr = dsm.alloc_array::<u64>(1024);
    let n = arr.len();
    dsm.run_spmd(move |node| async move {
        let nodes = node.nodes();
        let chunk = n / nodes;
        let me = node.id();
        let data: Vec<u64> = (0..chunk).map(|i| (me * 31 + i) as u64).collect();
        arr.write(&node, me * chunk, &data).await;
        node.barrier(0).await;
        let all = arr.read(&node, 0..chunk * nodes).await;
        for (i, v) in all.iter().enumerate() {
            let owner = i / chunk;
            assert_eq!(*v, (owner * 31 + (i % chunk)) as u64);
        }
        node.barrier(0).await;
    });
    let proto = dsm.proto_stats();
    assert!(
        proto.retransmits() > 0 || proto.corrupt_frames > 0,
        "faults should have been injected: {proto:?}"
    );
}

#[test]
fn sixteen_node_cluster_scales_barriers() {
    let (_sim, dsm) = cluster(16);
    let arr = dsm.alloc_array::<u64>(16);
    dsm.run_spmd(move |node| async move {
        arr.set(&node, node.id(), node.id() as u64).await;
        node.barrier(0).await;
        for i in 0..node.nodes() {
            assert_eq!(arr.get(&node, i).await, i as u64);
        }
        node.barrier(0).await;
    });
    assert_eq!(dsm.dsm_stats().barriers, 32);
}

#[test]
fn single_node_cluster_degenerates_gracefully() {
    // Everything is home, no traffic, all sync local.
    let (_sim, dsm) = cluster(1);
    let arr = dsm.alloc_array::<u64>(256);
    dsm.run_spmd(move |node| async move {
        for i in 0..256 {
            arr.set(&node, i, (i * 3) as u64).await;
        }
        node.lock(0).await;
        node.unlock(0).await;
        node.barrier(0).await;
        for i in 0..256 {
            assert_eq!(arr.get(&node, i).await, (i * 3) as u64);
        }
    });
    let stats = dsm.dsm_stats();
    assert_eq!(stats.page_fetches, 0, "single node never fetches");
    let proto = dsm.proto_stats();
    assert_eq!(proto.data_frames_sent, 0, "single node sends nothing");
}

#[test]
fn stats_track_diffs_and_ctl_traffic() {
    let (_sim, dsm) = cluster(2);
    let arr = dsm.alloc_array::<u64>(512);
    dsm.run_spmd(move |node| async move {
        if node.id() == 1 {
            // Node 1 writes into node-0-homed pages → twins + diffs.
            arr.set(&node, 0, 42).await;
        }
        node.barrier(0).await;
        assert_eq!(arr.get(&node, 0).await, 42);
        node.barrier(0).await;
    });
    let stats = dsm.dsm_stats();
    assert!(stats.diff_ops >= 1, "node 1 must flush a diff: {stats:?}");
    // Byte-exact diffing: writing 42u64 over zeros modifies a single byte.
    assert!(stats.diff_bytes >= 1);
    assert!(stats.ctl_msgs >= 4, "barrier traffic: {stats:?}");
}
