//! Cluster topology builder.
//!
//! The paper's testbeds are "rail" topologies: NIC `r` of every node attaches
//! to switch `r`. The 16-node 1-GbE cluster has one or two rails; the 4-node
//! 10-GbE cluster has one. [`build_cluster`] constructs exactly that shape,
//! with the simulator's seed as the run seed.

use crate::engine::Sim;
use crate::faults::{FaultModel, FaultPlan, FaultTarget};
use crate::net::{ChannelParams, Network, NicId};
use crate::time::{us_f64, Dur};
use frame::MacAddr;

/// Fault-stream seed used when a spec does not choose one explicitly.
pub const DEFAULT_FAULT_SEED: u64 = 0x5EED_F417;

/// Shape and parameters of a rail-connected cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of rails (NICs per node, switches total).
    pub rails: usize,
    /// Link parameters, identical for every NIC↔switch link.
    pub link: ChannelParams,
    /// Per-frame store-and-forward delay at each switch.
    pub switch_delay: Dur,
    /// Transient-fault model applied on every hop.
    pub fault: FaultModel,
    /// Seed of the network's fault streams: every loss/corruption/burst
    /// draw is a pure function of `(fault_seed, link, attempt)`,
    /// independent of timing jitter, so fault scenarios are reproducible.
    pub fault_seed: u64,
}

impl ClusterSpec {
    /// `nodes` nodes, `rails` 1-GbE rails (the paper's 1L-1G / 2L-1G).
    pub fn gbe_1(nodes: usize, rails: usize) -> Self {
        Self {
            nodes,
            rails,
            link: ChannelParams::gbe_1(),
            switch_delay: us_f64(1.0),
            fault: FaultModel::default(),
            fault_seed: DEFAULT_FAULT_SEED,
        }
    }

    /// `nodes` nodes on a single 10-GbE rail (the paper's 1L-10G).
    pub fn gbe_10(nodes: usize) -> Self {
        Self {
            nodes,
            rails: 1,
            link: ChannelParams::gbe_10(),
            switch_delay: us_f64(1.0),
            fault: FaultModel::default(),
            fault_seed: DEFAULT_FAULT_SEED,
        }
    }
}

/// A built cluster: the network plus each node's NICs.
pub struct Cluster {
    /// The underlying network.
    pub net: Network,
    /// `nics[node][rail]`.
    pub nics: Vec<Vec<NicId>>,
    /// The spec this cluster was built from.
    pub spec: ClusterSpec,
}

impl Cluster {
    /// The NICs a fault target resolves to in this cluster's rail shape.
    pub fn resolve_target(&self, target: FaultTarget) -> Vec<NicId> {
        match target {
            FaultTarget::Link { node, rail } => vec![self.nics[node][rail]],
            FaultTarget::Rail { rail } => self.nics.iter().map(|row| row[rail]).collect(),
        }
    }

    /// Schedule every event of `plan` onto `sim`: at each event's virtual
    /// time the action is applied to every NIC its target resolves to (a
    /// [`FaultTarget::Rail`] hits all nodes' links on that rail at once).
    pub fn apply_fault_plan(&self, sim: &Sim, plan: &FaultPlan) {
        for ev in plan.events() {
            let nics = self.resolve_target(ev.target);
            let net = self.net.clone();
            let action = ev.action;
            sim.schedule_at(ev.at, move |_| {
                for nic in nics {
                    net.apply_fault(nic, action);
                }
            });
        }
    }
}

/// Build a rail topology per `spec`.
pub fn build_cluster(sim: &Sim, spec: ClusterSpec) -> Cluster {
    assert!(spec.nodes >= 1 && spec.rails >= 1);
    let net = Network::with_seeds(sim, spec.fault, spec.fault_seed, sim.seed());
    let switches: Vec<_> = (0..spec.rails)
        .map(|_| net.add_switch(spec.switch_delay))
        .collect();
    let mut nics = Vec::with_capacity(spec.nodes);
    for node in 0..spec.nodes {
        let mut row = Vec::with_capacity(spec.rails);
        for (rail, &switch) in switches.iter().enumerate() {
            let nic = net.add_nic(MacAddr::new(node as u16, rail as u8));
            net.connect(nic, switch, spec.link);
            row.push(nic);
        }
        nics.push(row);
    }
    Cluster { net, nics, spec }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use frame::{Frame, FrameHeader};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn netsim_zero_jitter() -> Dur {
        Dur::ZERO
    }

    #[test]
    fn rails_are_independent() {
        // A frame on rail 0 and a frame on rail 1 between the same pair of
        // nodes never share a switch or link: both arrive after exactly the
        // single-frame path latency (no serialization behind each other).
        let sim = Sim::new(0);
        let mut spec = ClusterSpec::gbe_1(2, 2);
        spec.link.jitter = netsim_zero_jitter();
        let cluster = build_cluster(&sim, spec);
        let times: Rc<RefCell<Vec<u64>>> = Rc::default();
        for rail in 0..2 {
            let t = times.clone();
            cluster
                .net
                .set_rx_handler(cluster.nics[1][rail], move |sim, _| {
                    t.borrow_mut().push(sim.now().as_nanos())
                });
        }
        for rail in 0..2u8 {
            let f = Frame {
                src: MacAddr::new(0, rail),
                dst: MacAddr::new(1, rail),
                header: FrameHeader::default(),
                payload: Bytes::from(vec![0u8; 1000]),
            };
            cluster.net.nic_send(cluster.nics[0][rail as usize], f);
        }
        sim.run();
        let times = times.borrow();
        assert_eq!(times.len(), 2);
        assert_eq!(times[0], times[1], "rails should not interfere");
    }

    #[test]
    fn all_pairs_reachable() {
        let sim = Sim::new(0);
        let cluster = build_cluster(&sim, ClusterSpec::gbe_1(4, 1));
        let got: Rc<RefCell<u32>> = Rc::default();
        for n in 0..4 {
            let g = got.clone();
            cluster
                .net
                .set_rx_handler(cluster.nics[n][0], move |_, _| *g.borrow_mut() += 1);
        }
        for s in 0..4u16 {
            for d in 0..4u16 {
                if s != d {
                    let f = Frame {
                        src: MacAddr::new(s, 0),
                        dst: MacAddr::new(d, 0),
                        header: FrameHeader::default(),
                        payload: Bytes::new(),
                    };
                    cluster.net.nic_send(cluster.nics[s as usize][0], f);
                }
            }
        }
        sim.run();
        assert_eq!(*got.borrow(), 12);
    }
}
