//! Building a DSM cluster over MultiEdge endpoints.

use crate::array::{Pod, SharedArray};
use crate::layout::HeapAllocator;
use crate::node::DsmNode;
use crate::stats::DsmStats;
use frame::FastMap;
use me_stats::Breakdown;
use multiedge::PAGE_SIZE;
use multiedge::{Endpoint, SystemConfig};
use netsim::{build_cluster, Sim};
use std::cell::RefCell;
use std::rc::Rc;

/// How a shared allocation's pages are distributed over home nodes.
#[derive(Debug, Clone)]
pub enum Dist {
    /// Contiguous chunks: node `i` homes the `i`-th `1/n` of the pages —
    /// aligns homes with the typical SPLASH-2 "node owns a contiguous
    /// block" decomposition (first-touch placement on real systems).
    Block,
    /// Round-robin pages over nodes.
    Cyclic,
    /// Explicit home per page (length must equal the page count).
    Custom(Vec<usize>),
}

/// A complete simulated DSM cluster: network, endpoints, DSM nodes, and
/// the SPMD heap allocator.
pub struct DsmCluster {
    /// The simulator driving everything.
    pub sim: Sim,
    /// One DSM node per cluster node.
    pub nodes: Vec<DsmNode>,
    /// The underlying protocol endpoints (for protocol-level statistics).
    pub endpoints: Vec<Endpoint>,
    /// The system configuration the cluster was built with.
    pub system: Rc<SystemConfig>,
    /// The netsim cluster (for network-level statistics).
    pub cluster: netsim::Cluster,
    alloc: Rc<RefCell<HeapAllocator>>,
    homes: Rc<RefCell<FastMap<u64, u16>>>,
}

impl DsmCluster {
    /// Build the full stack for `system`: rail topology, endpoints,
    /// all-to-all connections, DSM nodes, and one service task per node.
    pub fn build(sim: &Sim, system: SystemConfig) -> DsmCluster {
        let n = system.nodes;
        let cluster = build_cluster(sim, system.cluster_spec());
        let system = Rc::new(system);
        let endpoints = Endpoint::for_cluster(sim, &cluster, system.clone());
        // All-to-all connections: conns[i][j] = connection id at i toward j.
        let mut conns: Vec<Vec<Option<usize>>> = vec![vec![None; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let (cij, cji) = Endpoint::connect(&endpoints[i], &endpoints[j]);
                conns[i][j] = Some(cij);
                conns[j][i] = Some(cji);
            }
        }
        let homes: Rc<RefCell<FastMap<u64, u16>>> = Rc::default();
        let nodes: Vec<DsmNode> = (0..n)
            .map(|i| {
                DsmNode::new(
                    sim,
                    endpoints[i].clone(),
                    i,
                    n,
                    conns[i].clone(),
                    homes.clone(),
                )
            })
            .collect();
        for node in &nodes {
            let nd = node.clone();
            sim.spawn(format!("dsm-service-{}", node.id()), async move {
                nd.service_loop().await;
            });
        }
        DsmCluster {
            sim: sim.clone(),
            nodes,
            endpoints,
            system,
            cluster,
            alloc: Rc::new(RefCell::new(HeapAllocator::new())),
            homes,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a 1-node cluster.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// SPMD allocation of a shared array of `len` elements with
    /// [`Dist::Block`] placement.
    pub fn alloc_array<T: Pod>(&self, len: usize) -> SharedArray<T> {
        self.alloc_array_dist(len, Dist::Block)
    }

    /// SPMD allocation with explicit home placement.
    pub fn alloc_array_dist<T: Pod>(&self, len: usize, dist: Dist) -> SharedArray<T> {
        let bytes = (len * T::SIZE) as u64;
        let addr = self.alloc.borrow_mut().alloc(bytes);
        let first_page = addr / PAGE_SIZE as u64;
        let npages = bytes.div_ceil(PAGE_SIZE as u64).max(1);
        let n = self.nodes.len() as u64;
        let mut homes = self.homes.borrow_mut();
        match dist {
            Dist::Block => {
                for p in 0..npages {
                    // Node i homes pages [i*npages/n, (i+1)*npages/n).
                    let home = (p * n / npages).min(n - 1);
                    homes.insert(first_page + p, home as u16);
                }
            }
            Dist::Cyclic => {
                for p in 0..npages {
                    homes.insert(first_page + p, (p % n) as u16);
                }
            }
            Dist::Custom(v) => {
                assert_eq!(v.len() as u64, npages, "custom home map length");
                for (p, &h) in v.iter().enumerate() {
                    assert!(h < n as usize, "home out of range");
                    homes.insert(first_page + p as u64, h as u16);
                }
            }
        }
        SharedArray::new(addr, len)
    }

    /// Bytes of shared heap allocated so far (Table 1's footprint column).
    pub fn footprint_bytes(&self) -> u64 {
        self.alloc.borrow().allocated()
    }

    /// Stop the service tasks: call after all application tasks have
    /// finished so `sim.run()` can reach quiescence.
    pub fn shutdown(&self) {
        for ep in &self.endpoints {
            ep.close_notifications();
        }
    }

    /// Run one application task per node (SPMD), wait for all of them,
    /// shut down the service tasks and drive the simulation to quiescence.
    /// Returns the virtual time (ns) at which the last application task
    /// finished — the parallel execution time.
    pub fn run_spmd<F, Fut>(&self, f: F) -> u64
    where
        F: Fn(DsmNode) -> Fut,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let mut joins = Vec::new();
        for node in &self.nodes {
            let fut = f(node.clone());
            joins.push(self.sim.spawn(format!("app-{}", node.id()), fut));
        }
        let endpoints = self.endpoints.clone();
        let done_at: Rc<RefCell<u64>> = Rc::new(RefCell::new(0));
        let d = done_at.clone();
        let s = self.sim.clone();
        self.sim.spawn("spmd-closer", async move {
            for j in joins {
                j.await;
            }
            *d.borrow_mut() = s.now().as_nanos();
            for ep in &endpoints {
                ep.close_notifications();
            }
        });
        self.sim.run().expect_quiescent();
        let t = *done_at.borrow();
        t
    }

    /// Cluster-wide DSM statistics (summed).
    pub fn dsm_stats(&self) -> DsmStats {
        let mut s = DsmStats::default();
        for n in &self.nodes {
            s.merge(&n.stats());
        }
        s
    }

    /// Cluster-wide protocol statistics (summed).
    pub fn proto_stats(&self) -> multiedge::ProtoStats {
        let mut s = multiedge::ProtoStats::default();
        for ep in &self.endpoints {
            s.merge(&ep.stats());
        }
        s
    }

    /// Per-node execution-time breakdown for a parallel section that ran
    /// from time zero to `elapsed_ns` of virtual time.
    pub fn breakdowns(&self, elapsed_ns: u64) -> Vec<Breakdown> {
        self.nodes
            .iter()
            .zip(&self.endpoints)
            .map(|(n, ep)| {
                let s = n.stats();
                Breakdown {
                    compute_ns: s.compute_ns,
                    data_wait_ns: s.data_wait_ns,
                    sync_ns: s.sync_ns,
                    protocol_ns: ep.cpu().proto_busy.as_nanos(),
                    elapsed_ns,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multiedge::SystemConfig;

    /// Smoke: build, run one barrier on every node, shut down cleanly.
    #[test]
    fn build_and_barrier() {
        let sim = Sim::new(3);
        let dsm = DsmCluster::build(&sim, SystemConfig::one_link_1g(4));
        let elapsed = dsm.run_spmd(|node| async move {
            node.barrier(0).await;
        });
        assert!(elapsed > 0);
        assert_eq!(dsm.dsm_stats().barriers, 4);
    }
}
