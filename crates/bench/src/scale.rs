//! Collective-traffic cells, runnable on the sharded engine
//! ([`netsim::shard`]) or unsharded on one [`Sim`].
//!
//! Two traffic cells exercise the patterns the ROADMAP's marquee
//! experiments need — an **all-to-all** transpose (every node writes to
//! every other node) and an **incast** fan-in (everyone writes to node 0) —
//! each runnable at any shard count with *identical workload structure*:
//! connections are created with [`Endpoint::connect_remote`] on both sides
//! in a deterministic mesh order, so connection ids, sequence spaces and
//! frame contents never depend on how the cluster is partitioned.
//!
//! Every run extracts a **timing-independent fingerprint** (per node:
//! operations issued, bytes written, unique data frames/bytes received, and
//! a checksum of the receiving memory regions) plus the fault-decision
//! log. The determinism gate (`tests/tests/shard_determinism.rs`) asserts
//! these match across shard counts {1, 2, 4}. The unsharded run can also
//! sample every node's timeline: the members an imbalance diagnosis
//! compares are nodes, each the protocol engine of one host.

use me_trace::Timeline;
use multiedge::{Endpoint, EndpointSampler, OpFlags, ProtoStats, SystemConfig};
use netsim::shard::{run_sharded, ShardError, ShardRunConfig};
use netsim::sync::join_all;
use netsim::{build_cluster, Dur, FaultDecision, FaultPlan, NetStats, Network, NicId, Sim};
use std::rc::Rc;
use std::time::Duration;

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
    /// Scripted fault plan replayed on every shard (empty = fault-free).
    pub plan: FaultPlan,
    /// Wall-clock budget per run.
    pub wall_limit: Duration,
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

/// What one engine (a shard, or the unsharded simulator) hands back after
/// quiescence.
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

/// Result of one `(cell, shard count)` run.
#[derive(Debug, Clone)]
pub struct ScaleCellResult {
    /// Synchronization windows executed.
    pub windows: u64,
    /// Total simulator events executed, across all shards.
    pub events: u64,
    /// Flattened per-node fingerprints, ascending node order.
    pub fingerprint: Vec<NodeFingerprint>,
    /// Fault decisions, sorted by `(stream key, attempt)`.
    pub decisions: Vec<FaultDecision>,
    /// Cluster-wide protocol stats (timing-dependent fields included —
    /// reported, but not part of the determinism gate).
    pub proto: ProtoStats,
    /// Cluster-wide network stats (ditto).
    pub net: NetStats,
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

/// Build the endpoints of `local` (node, its NICs) on one engine — a shard's
/// slice or the whole cluster — wire the deterministic connection mesh, and
/// spawn the writer tasks.
fn setup_nodes(
    sim: &Sim,
    net: &Network,
    local: &[(usize, &[NicId])],
    cfg: &SystemConfig,
    pattern: Pattern,
) -> Vec<Endpoint> {
    let nodes = cfg.nodes;
    let rc = Rc::new(cfg.clone());
    net.record_fault_decisions(true);
    let mut eps = Vec::new();
    for &(node, nics) in local {
        let ep = Endpoint::new(sim, net, node, nics.to_vec(), rc.clone());
        // Mesh connections via connect_remote on *both* sides — also when
        // the peer happens to be local — so the connection tables are
        // bit-identical at every shard count.
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

/// Extract one engine's fingerprints, stats, and fault-decision log.
fn collect_nodes(
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

/// Run one cell unsharded — `build_cluster` on a single [`Sim`] — and
/// return its outcome plus the events executed: the reference a one-shard
/// [`run_scale_cell`] must equal exactly.
///
/// With `sample_interval`, every node's [`Endpoint::start_timeline`] is
/// armed at t = 0 and one finished [`Timeline`] per node comes back, in
/// node order (empty otherwise). The samplers share one engine and one
/// grid, so row `i` of every timeline covers the same slice of virtual
/// time. Sampler ticks are events, so a sampled run's event count is not
/// the reference's.
pub fn run_scale_cell_unsharded(
    cell: &ScaleCell,
    sample_interval: Option<Dur>,
) -> (EngineOut, u64, Vec<Timeline>) {
    let sim = Sim::new(cell.cfg.seed);
    let cluster = build_cluster(&sim, cell.cfg.cluster_spec());
    cluster.apply_fault_plan(&sim, &cell.plan);
    let local: Vec<_> = cluster.nics.iter().map(Vec::as_slice).enumerate().collect();
    let eps = setup_nodes(&sim, &cluster.net, &local, &cell.cfg, cell.pattern);
    let samplers: Vec<EndpointSampler> = match sample_interval {
        Some(iv) => eps
            .iter()
            .map(|ep| ep.start_timeline(0, iv, 4096))
            .collect(),
        None => Vec::new(),
    };
    sim.run().expect_quiescent();
    let events = sim.events_executed();
    let timelines = samplers.into_iter().map(EndpointSampler::finish).collect();
    let out = collect_nodes(&cluster.net, &eps, &cell.cfg, cell.pattern);
    cluster.net.clear_handlers();
    (out, events, timelines)
}

/// Run one cell at one shard count.
pub fn run_scale_cell(cell: &ScaleCell, shards: usize) -> Result<ScaleCellResult, ShardError> {
    let spec = cell.cfg.cluster_spec();
    let shard_cfg = ShardRunConfig {
        wall_limit: Some(cell.wall_limit),
        ..Default::default()
    };
    let pattern = cell.pattern;
    let plan = (!cell.plan.events().is_empty()).then_some(&cell.plan);
    let (report, outs) = run_sharded(
        &spec,
        shards,
        cell.cfg.seed,
        plan,
        &shard_cfg,
        |sn| {
            let local: Vec<_> = sn.local_nodes().iter().map(|&n| (n, sn.nics(n))).collect();
            setup_nodes(sn.sim(), sn.net(), &local, &cell.cfg, pattern)
        },
        |sn, eps| collect_nodes(sn.net(), &eps, &cell.cfg, pattern),
    )?;
    let mut fingerprint = Vec::new();
    let mut decisions = Vec::new();
    let mut proto = ProtoStats::default();
    let mut net = NetStats::default();
    for out in outs {
        fingerprint.extend(out.fingerprints);
        decisions.extend(out.decisions);
        proto.merge(&out.proto);
        net.drops_overflow += out.net.drops_overflow;
        net.drops_loss += out.net.drops_loss;
        net.drops_link_down += out.net.drops_link_down;
        net.corrupted += out.net.corrupted;
        net.drops_unknown_mac += out.net.drops_unknown_mac;
        net.channel_frames += out.net.channel_frames;
        net.channel_bytes += out.net.channel_bytes;
    }
    fingerprint.sort_by_key(|&(node, _)| node);
    decisions.sort_by_key(|&(key, attempt, ..)| (key, attempt));
    Ok(ScaleCellResult {
        windows: report.windows,
        events: report.per_shard.iter().map(|s| s.events).sum(),
        fingerprint,
        decisions,
        proto,
        net,
    })
}

/// Check two runs' fault-decision logs describe the *same random streams*:
/// identical stream-key sets, and identical `(lost, corrupted)` outcomes
/// for every `(key, attempt)` both runs drew. (Attempt *counts* per channel
/// may legitimately differ across shard counts — retransmission schedules
/// are timing-dependent — but an outcome differing at the same index would
/// mean the streams themselves diverged.)
pub fn decisions_consistent(
    a: &[FaultDecision],
    b: &[FaultDecision],
) -> Result<(), String> {
    use std::collections::{BTreeMap, BTreeSet};
    let keys = |log: &[FaultDecision]| log.iter().map(|d| d.0).collect::<BTreeSet<u64>>();
    let (ka, kb) = (keys(a), keys(b));
    if ka != kb {
        return Err(format!(
            "stream-key sets differ: {} vs {} keys",
            ka.len(),
            kb.len()
        ));
    }
    let map = |log: &[FaultDecision]| {
        log.iter()
            .map(|&(k, at, l, c)| ((k, at), (l, c)))
            .collect::<BTreeMap<(u64, u64), (bool, bool)>>()
    };
    let (ma, mb) = (map(a), map(b));
    for (idx, va) in &ma {
        if let Some(vb) = mb.get(idx) {
            if va != vb {
                return Err(format!(
                    "decision at (key={:#x}, attempt={}) differs: {:?} vs {:?}",
                    idx.0, idx.1, va, vb
                ));
            }
        }
    }
    Ok(())
}

/// The 64-node all-to-all transpose (four 1-GbE rails so switches spread
/// evenly across up to four shards).
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
        wall_limit: Duration::from_secs(240),
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
        wall_limit: Duration::from_secs(240),
    }
}

/// A lossy chaos cell for the determinism gate: stationary loss +
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
        .burst(ms(1), bursty, netsim::GilbertElliott::bursty_loss(0.02, 0.3, 0.6))
        .clear_burst(ms(6), bursty);
    ScaleCell {
        name: "lossy_determinism_8".to_string(),
        cfg,
        pattern: Pattern::AllToAll { bytes: 6 << 10 },
        plan,
        wall_limit: Duration::from_secs(120),
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
    fn tiny_all_to_all_fingerprints_match_across_shard_counts() {
        let cell = all_to_all_cell(8, 2 << 10);
        let base = run_scale_cell(&cell, 1).unwrap();
        for shards in [2, 4] {
            let r = run_scale_cell(&cell, shards).unwrap();
            assert_eq!(base.fingerprint, r.fingerprint, "shards={shards}");
        }
    }

    #[test]
    fn tiny_incast_completes_and_checksums() {
        let cell = incast_cell(8, 4 << 10);
        let r = run_scale_cell(&cell, 2).unwrap();
        // 7 senders × 4 KiB delivered to node 0.
        assert_eq!(r.proto.bytes_written, 7 * (4 << 10));
        assert_eq!(r.proto.data_bytes_recv, 7 * (4 << 10));
    }
}
