//! Collective-traffic cells on one [`Sim`].
//!
//! Two traffic cells exercise the patterns the ROADMAP's marquee
//! experiments need — an **all-to-all** transpose (every node writes to
//! every other node) and an **incast** fan-in (everyone writes to node 0).
//! Connections are created with [`Endpoint::connect_remote`] in a
//! deterministic mesh order, so connection ids are a function of the node
//! pair alone.
//!
//! Every run extracts a **timing-independent fingerprint** (per node:
//! operations issued, bytes written, unique data frames/bytes received, and
//! a checksum of the receiving memory regions) plus the fault-decision
//! log, and can sample every node's timeline: the members an imbalance
//! diagnosis compares are nodes, each the protocol engine of one host.

use me_trace::{HealthReport, Timeline};
use multiedge::{Endpoint, EndpointSampler, OpFlags, ProtoStats, SystemConfig};
use netsim::sync::join_all;
use netsim::{build_cluster, Dur, FaultDecision, FaultPlan, NetStats, Network, NicId, Sim};
use std::rc::Rc;

/// The timeline counter a node contributes as one member of an imbalance
/// diagnosis: the data bytes it received.
pub const MEMBER_COUNTER: &str = "data_bytes_recv";

/// Traffic pattern of a scale cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Every node writes `bytes` to every other node (transpose).
    AllToAll {
        /// Payload bytes per (writer, reader) pair.
        bytes: usize,
    },
    /// Every node except 0 writes `bytes` to node 0 (fan-in).
    Incast {
        /// Payload bytes per sender.
        bytes: usize,
    },
}

/// One scale-cell definition: cluster shape + traffic + optional faults.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Report name.
    pub name: String,
    /// Cluster + protocol configuration (`cfg.nodes`/`cfg.rails` define the
    /// topology; `cfg.seed` seeds the whole run).
    pub cfg: SystemConfig,
    /// Traffic pattern.
    pub pattern: Pattern,
    /// Scripted fault plan (empty = fault-free).
    pub plan: FaultPlan,
}

/// The memory region node `writer` writes into on every destination node.
/// Regions are disjoint per writer so receiver memory is a deterministic
/// function of the delivered data, independent of arrival interleaving.
fn region_addr(writer: usize) -> u64 {
    0x10_0000 + (writer as u64) * 0x8_0000
}

/// Deterministic payload fill byte for a (writer, reader) pair.
fn fill_byte(writer: usize, reader: usize) -> u8 {
    (writer.wrapping_mul(31) ^ reader.wrapping_mul(7)) as u8
}

/// Connection id of the conn from `node` to `peer` under the deterministic
/// mesh order (each node connects to all peers in ascending peer order):
/// peers below `node` keep their index, peers above shift down by one.
pub fn mesh_conn_id(node: usize, peer: usize) -> usize {
    debug_assert_ne!(node, peer);
    peer - usize::from(peer > node)
}

/// Per-node timing-independent fingerprint: `(node, [ops_write,
/// bytes_written, unique data frames recv, unique data bytes recv,
/// memory checksum])`.
pub type NodeFingerprint = (u64, [u64; 5]);

/// What a cell's run hands back after quiescence.
pub struct EngineOut {
    /// Fingerprints of the nodes it simulated, ascending.
    pub fingerprints: Vec<NodeFingerprint>,
    /// Their merged protocol stats.
    pub proto: ProtoStats,
    /// Its network's stats.
    pub net: NetStats,
    /// Its network's fault-decision log.
    pub decisions: Vec<FaultDecision>,
}

/// FNV-1a over the memory regions `node` received, per the cell's pattern.
fn memory_checksum(ep: &Endpoint, node: usize, nodes: usize, pattern: Pattern) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |addr: u64, len: usize| {
        // FNV-1a over 8-byte words (tail bytes zero-padded): still a pure
        // function of the region contents, ~8x faster than per-byte.
        let data = ep.mem_read(addr, len);
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            h = (h ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .wrapping_mul(0x100_0000_01b3);
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        if !rest.is_empty() {
            h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(0x100_0000_01b3);
        }
    };
    match pattern {
        Pattern::AllToAll { bytes } => {
            for writer in (0..nodes).filter(|&w| w != node) {
                eat(region_addr(writer), bytes);
            }
        }
        Pattern::Incast { bytes } => {
            if node == 0 {
                for writer in 1..nodes {
                    eat(region_addr(writer), bytes);
                }
            }
        }
    }
    h
}

/// Build every node's endpoint (`nics[node][rail]`), wire the deterministic
/// connection mesh, start logging fault decisions and spawn the writer
/// tasks.
pub fn setup_nodes(
    sim: &Sim,
    net: &Network,
    nics: &[Vec<NicId>],
    cfg: &SystemConfig,
    pattern: Pattern,
) -> Vec<Endpoint> {
    let nodes = cfg.nodes;
    let rc = Rc::new(cfg.clone());
    net.record_fault_decisions(true);
    let mut eps = Vec::new();
    for (node, nics) in nics.iter().enumerate() {
        let ep = Endpoint::new(sim, net, node, nics.clone(), rc.clone());
        match pattern {
            Pattern::AllToAll { .. } => {
                for peer in (0..nodes).filter(|&p| p != node) {
                    let id = ep.connect_remote(peer, mesh_conn_id(peer, node));
                    debug_assert_eq!(id, mesh_conn_id(node, peer));
                }
            }
            Pattern::Incast { .. } => {
                if node == 0 {
                    for peer in 1..nodes {
                        let id = ep.connect_remote(peer, 0);
                        debug_assert_eq!(id, peer - 1);
                    }
                } else {
                    let id = ep.connect_remote(0, node - 1);
                    debug_assert_eq!(id, 0);
                }
            }
        }
        // Writer tasks: issue all writes, then wait for every completion.
        let writes: Vec<(usize, usize)> = match pattern {
            Pattern::AllToAll { bytes } => (0..nodes)
                .filter(|&p| p != node)
                .map(|p| (p, bytes))
                .collect(),
            Pattern::Incast { bytes } => {
                if node == 0 {
                    Vec::new()
                } else {
                    vec![(0, bytes)]
                }
            }
        };
        if !writes.is_empty() {
            let e = ep.clone();
            sim.spawn(format!("scale-writer-{node}"), async move {
                let mut handles = Vec::with_capacity(writes.len());
                for (peer, bytes) in writes {
                    let conn = mesh_conn_id(node, peer);
                    let data = vec![fill_byte(node, peer); bytes];
                    let h = e
                        .write_bytes(conn, region_addr(node), data, OpFlags::RELAXED)
                        .await;
                    handles.push(h);
                }
                let waits: Vec<_> = handles.iter().map(|h| h.wait()).collect();
                join_all(waits).await;
            });
        }
        eps.push(ep);
    }
    eps
}

/// Extract the run's fingerprints, stats, and fault-decision log.
pub fn collect_nodes(
    net: &Network,
    eps: &[Endpoint],
    cfg: &SystemConfig,
    pattern: Pattern,
) -> EngineOut {
    let mut fingerprints = Vec::with_capacity(eps.len());
    let mut proto = ProtoStats::default();
    for ep in eps {
        let (st, node) = (ep.stats(), ep.node());
        fingerprints.push((
            node as u64,
            [
                st.ops_write,
                st.bytes_written,
                st.data_frames_recv,
                st.data_bytes_recv,
                memory_checksum(ep, node, cfg.nodes, pattern),
            ],
        ));
        proto.merge(&st);
    }
    EngineOut {
        fingerprints,
        proto,
        net: net.stats(),
        decisions: net.take_fault_decisions(),
    }
}

/// Run one cell on one [`Sim`] and return its outcome plus the events
/// executed.
///
/// With `sample_interval`, every node's [`Endpoint::start_timeline`] is
/// armed at t = 0 and one finished [`Timeline`] per node comes back with
/// that node's own [`HealthReport`], in node order (empty otherwise). The
/// samplers share one engine and one grid, so row `i` of every timeline
/// covers the same slice of virtual time. Sampler ticks are events, so a
/// sampled run's event count is not the unsampled run's.
pub fn run_scale_cell(
    cell: &ScaleCell,
    sample_interval: Option<Dur>,
) -> (EngineOut, u64, Vec<(Timeline, HealthReport)>) {
    let sim = Sim::new(cell.cfg.seed);
    let cluster = build_cluster(&sim, cell.cfg.cluster_spec());
    cluster.apply_fault_plan(&sim, &cell.plan);
    let eps = setup_nodes(&sim, &cluster.net, &cluster.nics, &cell.cfg, cell.pattern);
    let samplers: Vec<EndpointSampler> = match sample_interval {
        Some(iv) => eps
            .iter()
            .map(|ep| ep.start_timeline(0, iv, 4096))
            .collect(),
        None => Vec::new(),
    };
    sim.run().expect_quiescent();
    let events = sim.events_executed();
    let sampled = samplers.into_iter().map(EndpointSampler::finish).collect();
    let out = collect_nodes(&cluster.net, &eps, &cell.cfg, cell.pattern);
    cluster.net.clear_handlers();
    (out, events, sampled)
}

/// The all-to-all transpose on 16 1-GbE rails.
pub fn all_to_all_cell(nodes: usize, bytes: usize) -> ScaleCell {
    let mut cfg = SystemConfig::four_link_1g(nodes);
    cfg.name = format!("all-to-all-{nodes}");
    cfg.rails = 16;
    cfg.seed = 11;
    ScaleCell {
        name: format!("all_to_all_{nodes}"),
        cfg,
        pattern: Pattern::AllToAll { bytes },
        plan: FaultPlan::new(),
    }
}

/// The incast fan-in: every node writes to node 0.
pub fn incast_cell(nodes: usize, bytes: usize) -> ScaleCell {
    let mut cfg = SystemConfig::two_link_1g_unordered(nodes);
    cfg.name = format!("incast-{nodes}");
    cfg.seed = 13;
    ScaleCell {
        name: format!("incast_{nodes}"),
        cfg,
        pattern: Pattern::Incast { bytes },
        plan: FaultPlan::new(),
    }
}

/// A lossy chaos cell for the determinism tests: stationary loss +
/// corruption, a scripted link flap, a NIC stall, and a burst-error window,
/// all over an 8-node all-to-all.
pub fn lossy_determinism_cell() -> ScaleCell {
    use netsim::time::{ms, us};
    let mut cfg = SystemConfig::two_link_1g_unordered(8);
    cfg.name = "lossy-determinism".to_string();
    cfg.seed = 17;
    cfg.fault.loss_rate = 0.01;
    cfg.fault.corrupt_rate = 0.002;
    let bursty = netsim::FaultTarget::Link { node: 1, rail: 1 };
    let plan = FaultPlan::new()
        .flap_link(ms(2), 3, 0, ms(1), ms(1), 2)
        .nic_stall(ms(4), 5, 1, us(300))
        .burst(
            ms(1),
            bursty,
            netsim::GilbertElliott::bursty_loss(0.02, 0.3, 0.6),
        )
        .clear_burst(ms(6), bursty);
    ScaleCell {
        name: "lossy_determinism_8".to_string(),
        cfg,
        pattern: Pattern::AllToAll { bytes: 6 << 10 },
        plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_conn_ids_are_mutually_consistent() {
        let nodes = 8;
        for i in 0..nodes {
            let ids: Vec<usize> = (0..nodes)
                .filter(|&j| j != i)
                .map(|j| mesh_conn_id(i, j))
                .collect();
            // Ascending-peer order yields 0..nodes-2 exactly.
            assert_eq!(ids, (0..nodes - 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn tiny_incast_completes_and_checksums() {
        let cell = incast_cell(8, 4 << 10);
        let (r, ..) = run_scale_cell(&cell, None);
        // 7 senders × 4 KiB delivered to node 0.
        assert_eq!(r.proto.bytes_written, 7 * (4 << 10));
        assert_eq!(r.proto.data_bytes_recv, 7 * (4 << 10));
    }
}
