//! The netsim implementation of the [`Backplane`] trait.
//!
//! Wraps one node of a built [`Cluster`]: sends go straight to that node's
//! simulated NICs, receives are collected by per-NIC rx handlers into a
//! per-node queue, and [`Backplane::advance`] drives the shared discrete
//! event simulator with [`Sim::advance_until`] — stopping early the moment
//! *any* node on the fabric receives a frame, so an external poll loop
//! interleaving both endpoints processes every frame at the right virtual
//! time.
//!
//! Corrupted frames (transient-fault model) are counted and dropped here:
//! on a real wire the Ethernet FCS discards them before the host ever sees
//! them, and the UDP backend's codec checksum does the same.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use frame::MacAddr;
use netsim::{Cluster, Network, NicId, Sim, SimTime};

use super::{Backplane, BpRx};

/// Shared across every [`SimBackplane`] of one fabric: bumped on each frame
/// delivery so an in-progress [`Backplane::advance`] can stop early.
type Activity = Rc<Cell<u64>>;

/// One node's view of a simulated fabric (see module docs).
pub struct SimBackplane {
    sim: Sim,
    net: Network,
    nics: Vec<NicId>,
    macs: Vec<MacAddr>,
    peer_macs: Vec<MacAddr>,
    rx: Rc<RefCell<VecDeque<BpRx>>>,
    activity: Activity,
    corrupt_dropped: Rc<Cell<u64>>,
    mtu: usize,
}

impl SimBackplane {
    /// Wire both nodes of a two-node cluster into a pair of backplanes.
    ///
    /// Installs rx handlers on every NIC, so the cluster's NICs must not
    /// already be claimed by the simulator driver,
    /// [`Endpoint`](crate::Endpoint).
    ///
    /// # Panics
    ///
    /// Panics if the cluster does not have exactly two nodes.
    pub fn pair(sim: &Sim, cluster: &Cluster) -> (SimBackplane, SimBackplane) {
        assert_eq!(
            cluster.nics.len(),
            2,
            "SimBackplane::pair needs a two-node cluster"
        );
        let activity: Activity = Rc::new(Cell::new(0));
        let corrupt = Rc::new(Cell::new(0u64));
        let mut nodes = Vec::with_capacity(2);
        for node in 0..2 {
            let nics = cluster.nics[node].clone();
            let rx: Rc<RefCell<VecDeque<BpRx>>> = Rc::default();
            for (rail, &nic) in nics.iter().enumerate() {
                let q = rx.clone();
                let act = activity.clone();
                let cor = corrupt.clone();
                cluster.net.set_rx_handler(nic, move |sim, rxf| {
                    if rxf.corrupted {
                        cor.set(cor.get() + 1);
                        return;
                    }
                    q.borrow_mut().push_back(BpRx {
                        rail: rail as u32,
                        at_ns: sim.now().as_nanos(),
                        frame: rxf.frame,
                    });
                    act.set(act.get() + 1);
                });
            }
            let macs: Vec<MacAddr> = nics.iter().map(|&n| cluster.net.nic_mac(n)).collect();
            nodes.push(SimBackplane {
                sim: sim.clone(),
                net: cluster.net.clone(),
                nics,
                macs,
                peer_macs: Vec::new(),
                rx,
                activity: activity.clone(),
                corrupt_dropped: corrupt.clone(),
                mtu: frame::MAX_PAYLOAD,
            });
        }
        let (mut a, mut b) = {
            let b = nodes.pop().expect("two nodes");
            let a = nodes.pop().expect("two nodes");
            (a, b)
        };
        a.peer_macs = b.macs.clone();
        b.peer_macs = a.macs.clone();
        (a, b)
    }

    /// Corrupted frames the fault model damaged in flight and this fabric
    /// discarded (shared count across both nodes).
    pub fn corrupt_dropped(&self) -> u64 {
        self.corrupt_dropped.get()
    }
}

impl Backplane for SimBackplane {
    fn rails(&self) -> usize {
        self.nics.len()
    }

    fn mtu(&self) -> usize {
        self.mtu
    }

    fn peer_mtu(&self) -> usize {
        // Symmetric fabric: every simulated NIC speaks the same MTU.
        self.mtu
    }

    fn local_mac(&self, rail: usize) -> MacAddr {
        self.macs[rail]
    }

    fn peer_mac(&self, rail: usize) -> MacAddr {
        self.peer_macs[rail]
    }

    fn now_ns(&self) -> u64 {
        self.sim.now().as_nanos()
    }

    fn send(&mut self, rail: usize, frame: frame::Frame) -> bool {
        self.net.nic_send(self.nics[rail], frame)
    }

    fn next(&mut self) -> Option<BpRx> {
        self.rx.borrow_mut().pop_front()
    }

    fn tx_backlog_ns(&self, rail: usize) -> u64 {
        self.net.nic_tx_backlog(self.nics[rail]).as_nanos()
    }

    fn advance(&mut self, until_ns: u64) -> u64 {
        let base = self.activity.get();
        let act = self.activity.clone();
        self.sim
            .advance_until(SimTime(until_ns), move || act.get() != base)
            .as_nanos()
    }
}
