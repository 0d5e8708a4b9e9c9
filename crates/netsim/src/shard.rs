//! Conservative-lookahead sharded discrete-event runtime.
//!
//! A cluster is partitioned into **shards**: each shard owns a contiguous
//! block of nodes plus a round-robin subset of the rail switches, and runs
//! its own [`Sim`] over a [`Network`] holding that slice. Shards
//! synchronize in **windows** of length `L` = the minimum cross-shard link
//! propagation delay (the *lookahead*): because every frame submitted
//! inside window `k` arrives at its far end no earlier than
//! `submit + L ≥ (k+1)·L`, a shard can execute window `k` to completion
//! knowing every boundary frame that could land inside it was produced in
//! an *earlier* window and has already been exchanged.
//!
//! ```text
//!   shard 0  ─┐ window k ┌─ exchange ─┐ window k+1 ┌─ …
//!   shard 1  ─┤ (advance │  boundary  │  (inject   │
//!   shard 2  ─┤  to kL+L)│  frames    │   + run)   │
//!   shard 3  ─┘          └────────────┘            └─ …
//! ```
//!
//! All shards take turns on the calling thread. The runtime is the
//! **determinism witness** for the fabric: it shows that a frame's fate is
//! a function of the seed and the link it crosses, not of which engine
//! simulates it or how events interleave. (Worker threads behind two
//! barriers per window were measured at 0.06–0.75× one engine and deleted;
//! docs/PERFORMANCE.md § Scaling out has the table.)
//!
//! Cross-shard frames travel as [`BoundaryMsg`] and are injected in
//! `(arrival time, source shard, per-source sequence)` order, so a shard's
//! event stream is a pure function of the seed and the topology.
//!
//! # Determinism contract
//!
//! For a fixed seed the runtime guarantees, at every shard count:
//! * each channel's jitter and loss/corruption stream is identical (pure
//!   functions of `(seed, channel stream key, attempt index)` — see
//!   `net.rs`),
//! * boundary deliveries are injected in the same total order,
//! * per-shard protocol RNGs are seeded as `mix(seed, shard)` (shard 0's
//!   exactly like an unsharded `Sim::new(seed)`) and drawn only by
//!   shard-local decisions.
//!
//! One shard is the unsharded simulation: `run_sharded(spec, 1, seed, …)`
//! executes the same events as `build_cluster(&Sim::new(seed), spec)` +
//! `sim.run()`.
//!
//! What it does **not** guarantee is that same-timestamp events interleave
//! identically across shard counts (event sequence numbers depend on
//! scheduling history). Timing-*independent* outcomes — bytes delivered,
//! receiver memory contents, completed operations — are bit-identical;
//! timing-*dependent* counters (retransmit counts, exact drop totals under
//! congestion) may differ. The determinism tests and CI gate compare the
//! former.

use crate::engine::Sim;
use crate::faults::{FaultPlan, FaultTarget};
use crate::net::{BoundaryTx, ChannelId, Network, NicId, RemoteDest, SwitchId};
use crate::time::{Dur, SimTime};
use crate::topology::ClusterSpec;
use frame::{FastMap, MacAddr};
use me_trace::{HealthConfig, HealthReport, SourceId, Timeline, TimelineBuilder};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Instant;

/// Why a cluster could not be partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// Zero shards requested.
    ZeroShards,
    /// The spec has no nodes.
    NoNodes,
    /// More shards than nodes — some shard would own nothing.
    TooManyShards {
        /// Requested shard count.
        shards: usize,
        /// Nodes available.
        nodes: usize,
    },
    /// The minimum cross-shard link latency is zero: conservative lookahead
    /// degenerates to zero-length windows (no parallelism, no progress
    /// bound), so the partition is rejected instead of hanging.
    ZeroLookahead,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ZeroShards => write!(f, "cannot partition into zero shards"),
            Self::NoNodes => write!(f, "cluster has no nodes"),
            Self::TooManyShards { shards, nodes } => {
                write!(f, "{shards} shards requested but only {nodes} nodes")
            }
            Self::ZeroLookahead => {
                write!(f, "zero link latency leaves no lookahead window")
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// Deterministic balanced partition of a rail cluster.
///
/// Nodes are split into contiguous blocks (`node_shard(n) = n·K / N`, so
/// shard sizes differ by at most one); rail switches are dealt round-robin
/// (`switch_shard(r) = r mod K`). The lookahead window is the minimum
/// propagation delay over all cross-shard links — with a homogeneous
/// [`ClusterSpec`] that is simply `spec.link.latency`, but the bound is
/// validated so a future heterogeneous topology cannot silently violate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    nodes: usize,
    rails: usize,
    shards: usize,
    lookahead: Dur,
}

impl ShardPlan {
    /// Partition `spec` into `shards` shards, or say precisely why not.
    pub fn partition(spec: &ClusterSpec, shards: usize) -> Result<Self, PartitionError> {
        if shards == 0 {
            return Err(PartitionError::ZeroShards);
        }
        if spec.nodes == 0 {
            return Err(PartitionError::NoNodes);
        }
        if shards > spec.nodes {
            return Err(PartitionError::TooManyShards {
                shards,
                nodes: spec.nodes,
            });
        }
        let lookahead = spec.link.latency;
        if lookahead == Dur::ZERO {
            return Err(PartitionError::ZeroLookahead);
        }
        Ok(Self {
            nodes: spec.nodes,
            rails: spec.rails,
            shards,
            lookahead,
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The synchronization window: every cross-shard frame arrives at least
    /// this far in the future.
    pub fn lookahead(&self) -> Dur {
        self.lookahead
    }

    /// Which shard owns node `node`.
    pub fn node_shard(&self, node: usize) -> usize {
        node * self.shards / self.nodes
    }

    /// Which shard owns rail `rail`'s switch.
    pub fn switch_shard(&self, rail: usize) -> usize {
        rail % self.shards
    }

    /// The (contiguous, ascending) nodes owned by `shard`.
    pub fn local_nodes(&self, shard: usize) -> Vec<usize> {
        (0..self.nodes)
            .filter(|&n| self.node_shard(n) == shard)
            .collect()
    }

    /// Number of rails in the partitioned spec.
    pub fn rails(&self) -> usize {
        self.rails
    }
}

/// A frame crossing between shards, totally ordered by
/// `(tx.at, src_shard, seq)` at injection.
#[derive(Debug, Clone)]
pub struct BoundaryMsg {
    /// Shard that produced the frame.
    pub src_shard: usize,
    /// Production order within the source shard (monotonic per source).
    pub seq: u64,
    /// The frame and its arrival coordinates.
    pub tx: BoundaryTx,
}

/// One shard's world: a private [`Sim`], a [`Network`] holding the shard's
/// nodes, its subset of switches, and stub channels for every link that
/// crosses the boundary.
pub struct ShardNet {
    shard: usize,
    plan: ShardPlan,
    spec: ClusterSpec,
    sim: Sim,
    net: Network,
    /// Global indices of the nodes this shard owns (contiguous, ascending).
    nodes: Vec<usize>,
    /// `nics[local node index][rail]`.
    nics: Vec<Vec<NicId>>,
    /// Per rail: the switch, if this shard owns it.
    switches: Vec<Option<SwitchId>>,
    /// Locally-owned switch→NIC channels whose NIC lives elsewhere.
    remote_down: FastMap<MacAddr, ChannelId>,
    /// Boundary frames produced since the last drain.
    outbox: Rc<RefCell<Vec<BoundaryTx>>>,
}

impl Drop for ShardNet {
    /// Break the `Network → handler → protocol state → Network` reference
    /// cycles. Sweep harnesses run many shard worlds in one process; every
    /// world would otherwise stay resident forever, and the growing heap
    /// measurably slows later runs (allocator pressure + page faults).
    fn drop(&mut self) {
        self.net.clear_handlers();
    }
}

impl ShardNet {
    /// Build shard `shard`'s slice of the cluster. `seed` is the *global*
    /// run seed: the shard's protocol RNG is seeded `mix(seed, shard)`
    /// (shard-local draws only; shard 0's is `seed` itself, like the
    /// unsharded simulator's), while jitter streams are keyed off the
    /// global seed so they are identical at every shard count.
    pub fn build(spec: &ClusterSpec, plan: &ShardPlan, shard: usize, seed: u64) -> Self {
        let sim = Sim::new(seed ^ (shard as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let net = Network::with_seeds(&sim, spec.fault, spec.fault_seed, seed);
        let switches: Vec<Option<SwitchId>> = (0..spec.rails)
            .map(|rail| {
                (plan.switch_shard(rail) == shard).then(|| net.add_switch(spec.switch_delay))
            })
            .collect();
        let nodes = plan.local_nodes(shard);
        let mut nics = Vec::with_capacity(nodes.len());
        for &node in &nodes {
            let mut row = Vec::with_capacity(spec.rails);
            for (rail, sw) in switches.iter().enumerate() {
                let nic = net.add_nic(MacAddr::new(node as u16, rail as u8));
                match sw {
                    Some(sw) => net.connect(nic, *sw, spec.link),
                    None => {
                        net.add_remote_uplink(nic, rail as u8, spec.link);
                    }
                }
                row.push(nic);
            }
            nics.push(row);
        }
        // For every local switch, stub downlinks to the nodes other shards
        // own (and register their MACs, so forwarding finds them).
        let mut remote_down = FastMap::default();
        for (rail, sw) in switches.iter().enumerate() {
            let Some(sw) = sw else { continue };
            for node in 0..spec.nodes {
                if plan.node_shard(node) == shard {
                    continue;
                }
                let mac = MacAddr::new(node as u16, rail as u8);
                let ch = net.add_remote_downlink(*sw, mac, spec.link);
                remote_down.insert(mac, ch);
            }
        }
        let outbox: Rc<RefCell<Vec<BoundaryTx>>> = Rc::default();
        let ob = outbox.clone();
        net.set_boundary_tx(move |tx| ob.borrow_mut().push(tx));
        Self {
            shard,
            plan: *plan,
            spec: *spec,
            sim,
            net,
            nodes,
            nics,
            switches,
            remote_down,
            outbox,
        }
    }

    /// This shard's index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The shard's private simulator.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The shard's network slice.
    pub fn net(&self) -> &Network {
        &self.net
    }

    /// The spec the shard was built from.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Global indices of the nodes this shard owns, ascending.
    pub fn local_nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// Whether `node` is simulated here.
    pub fn is_local(&self, node: usize) -> bool {
        self.plan.node_shard(node) == self.shard
    }

    /// NICs of local node `node` (global index), one per rail.
    /// Panics if the node lives in another shard.
    pub fn nics(&self, node: usize) -> &[NicId] {
        assert!(
            self.is_local(node),
            "node {node} is not owned by shard {}",
            self.shard
        );
        &self.nics[node - self.nodes[0]]
    }

    /// Replay the shard-relevant slice of a fault plan: actions on local
    /// nodes hit the NIC (both owned channels + stalls, exactly like the
    /// unsharded [`crate::Cluster::apply_fault_plan`]); actions on remote
    /// nodes whose downlink this shard owns hit that channel half. Every
    /// shard replays the same plan, so a split link's two halves go down in
    /// the same window on both sides.
    pub fn apply_fault_plan(&self, plan: &FaultPlan) {
        for ev in plan.events() {
            let pairs: Vec<(usize, usize)> = match ev.target {
                FaultTarget::Link { node, rail } => vec![(node, rail)],
                FaultTarget::Rail { rail } => (0..self.spec.nodes).map(|n| (n, rail)).collect(),
            };
            for (node, rail) in pairs {
                let action = ev.action;
                if self.is_local(node) {
                    let nic = self.nics(node)[rail];
                    let net = self.net.clone();
                    self.sim
                        .schedule_at(ev.at, move |_| net.apply_fault(nic, action));
                } else if let Some(&ch) = self.remote_down.get(&MacAddr::new(node as u16, rail as u8))
                {
                    let net = self.net.clone();
                    self.sim
                        .schedule_at(ev.at, move |_| net.apply_channel_fault(ch, action));
                }
            }
        }
    }

    /// Schedule one boundary frame's terminal hand-off in this shard.
    fn schedule_boundary(&self, tx: BoundaryTx) {
        let net = self.net.clone();
        match tx.dest {
            RemoteDest::Switch { rail } => {
                let sw = self.switches[rail as usize]
                    .expect("boundary frame routed to a switch this shard does not own");
                self.sim.schedule_at(tx.at, move |_| {
                    net.inject_switch_ingress(sw, tx.frame, tx.corrupted);
                });
            }
            RemoteDest::Nic { node, rail } => {
                let nic = self.nics(node as usize)[rail as usize];
                self.sim.schedule_at(tx.at, move |_| {
                    net.inject_nic_rx(nic, tx.frame, tx.corrupted);
                });
            }
        }
    }

    /// Destination shard of a boundary frame.
    fn dest_shard(&self, tx: &BoundaryTx) -> usize {
        match tx.dest {
            RemoteDest::Switch { rail } => self.plan.switch_shard(rail as usize),
            RemoteDest::Nic { node, .. } => self.plan.node_shard(node as usize),
        }
    }
}

/// How to execute the shard set. There is one way; the enum and
/// [`ShardRunConfig::mode`] survive only because `perf/src/mesh.rs` names
/// `ShardMode::Cooperative` and the benchmark's files are frozen. Both go
/// when a `benchmark` PR drops that line (ROADMAP item 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// All shards round-robin on the calling thread.
    Cooperative,
}

/// Knobs for [`run_sharded`].
#[derive(Debug, Clone, Copy)]
pub struct ShardRunConfig {
    /// Ignored: its only value is its default (see [`ShardMode`]).
    pub mode: ShardMode,
    /// Abort (with [`ShardError::VirtualLimitExceeded`]) if the simulation
    /// is still active past this virtual time.
    pub virtual_limit: Option<Dur>,
    /// Abort (with [`ShardError::WallClockExceeded`]) past this wall time.
    pub wall_limit: Option<std::time::Duration>,
    /// When set, each shard samples its cumulative event count onto a
    /// virtual-time grid of this spacing, published as one
    /// [`me_trace::Timeline`] per shard in [`ShardRunReport::samples`].
    /// Rows land at window boundaries, which every shard crosses at the
    /// same virtual instants — so the sample grids are identical across
    /// shards, and per-interval deltas can be compared shard-against-shard
    /// (the imbalance index).
    pub sample_interval: Option<Dur>,
    /// Most retained rows per shard timeline when sampling is on; the
    /// oldest rows are evicted (their deltas fold into the base) beyond
    /// this.
    pub sample_capacity: usize,
    /// When set (and [`ShardRunConfig::sample_interval`] is on), run the
    /// streaming health detectors over the per-shard event timelines after
    /// the run: each shard's per-interval event deltas become one member
    /// series, and a persistently hot shard opens an `IncastImbalance`
    /// incident in [`ShardRunReport::health`]. The diagnosis is a pure
    /// function of the sample grids.
    pub health: Option<HealthConfig>,
}

impl Default for ShardRunConfig {
    fn default() -> Self {
        Self {
            mode: ShardMode::Cooperative,
            virtual_limit: None,
            wall_limit: None,
            sample_interval: None,
            sample_capacity: 4096,
            health: None,
        }
    }
}

/// Why a sharded run stopped without quiescing.
#[derive(Debug)]
pub enum ShardError {
    /// The partition itself was invalid.
    Partition(PartitionError),
    /// Wall-clock budget exhausted.
    WallClockExceeded {
        /// Windows completed before the deadline fired.
        windows: u64,
    },
    /// Virtual-time budget exhausted.
    VirtualLimitExceeded {
        /// The configured limit.
        limit: Dur,
    },
    /// Every queue drained but tasks remain: a deadlock, same as
    /// `RunReport::stuck_tasks` in the single-`Sim` world.
    StuckTasks {
        /// Shard with incomplete tasks.
        shard: usize,
        /// Their names.
        tasks: Vec<String>,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Partition(e) => write!(f, "partition error: {e}"),
            Self::WallClockExceeded { windows } => {
                write!(f, "wall-clock limit exceeded after {windows} windows")
            }
            Self::VirtualLimitExceeded { limit } => {
                write!(f, "virtual-time limit {limit:?} exceeded")
            }
            Self::StuckTasks { shard, tasks } => {
                write!(f, "shard {shard} deadlocked with stuck tasks {tasks:?}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<PartitionError> for ShardError {
    fn from(e: PartitionError) -> Self {
        Self::Partition(e)
    }
}

/// Per-shard accounting for one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Events executed by the shard's `Sim`.
    pub events: u64,
    /// Windows in which the shard executed zero events — lookahead stalls:
    /// it only waited for its neighbors.
    pub idle_windows: u64,
    /// Boundary frames received.
    pub boundary_in: u64,
    /// Boundary frames sent.
    pub boundary_out: u64,
    /// Deepest single-round boundary-inbox backlog observed.
    pub max_inbox_depth: usize,
    /// Wall nanoseconds spent inside the shard's `advance_until` (event
    /// execution). The window-machinery overhead is the run's wall time
    /// minus this.
    pub advance_ns: u64,
    /// Wall nanoseconds spent on window bookkeeping: injecting due
    /// boundary frames, draining the outbox, computing the round report.
    pub exchange_ns: u64,
}

/// Outcome of a successful [`run_sharded`].
#[derive(Debug, Clone)]
pub struct ShardRunReport {
    /// Shard count.
    pub shards: usize,
    /// Synchronization windows executed.
    pub windows: u64,
    /// Virtual time at quiescence.
    pub end_time: SimTime,
    /// The lookahead window length.
    pub lookahead: Dur,
    /// Per-shard accounting.
    pub per_shard: Vec<ShardStats>,
    /// Per-shard event timelines, one per shard in shard order, when
    /// [`ShardRunConfig::sample_interval`] was set; empty otherwise. Each
    /// carries a single `events` counter whose per-interval deltas are the
    /// events that shard executed in that slice of virtual time.
    pub samples: Vec<Timeline>,
    /// Cross-shard health diagnosis over [`ShardRunReport::samples`], when
    /// [`ShardRunConfig::health`] was set: the per-shard event-delta series
    /// run through the imbalance detector, flagging a persistently hot
    /// shard as an `IncastImbalance` incident.
    pub health: Option<HealthReport>,
}

/// Everything one shard publishes after executing a window; the inputs to
/// the (symmetric, deterministic) end-of-round decision.
#[derive(Clone, Copy)]
struct RoundReport {
    /// Earliest future work: next local event or earliest held boundary
    /// frame (ns), `u64::MAX` when none.
    next_ns: u64,
    /// Boundary frames sent this round.
    sent: u64,
    /// Live (incomplete) tasks.
    live: u64,
}

/// The end-of-round decision, computed identically by every participant
/// from the full set of [`RoundReport`]s.
enum Decision {
    /// Run window `w` next.
    Continue(u64),
    /// All queues drained, no frames in flight, no tasks pending.
    Done,
    /// Queues drained but some shard still has tasks: deadlock.
    Stuck(usize),
}

fn decide(window: u64, lookahead_ns: u64, reports: &[RoundReport]) -> Decision {
    let any_sent = reports.iter().any(|r| r.sent > 0);
    let global_min = reports.iter().map(|r| r.next_ns).min().unwrap_or(u64::MAX);
    if !any_sent && global_min == u64::MAX {
        return match reports.iter().position(|r| r.live > 0) {
            Some(shard) => Decision::Stuck(shard),
            None => Decision::Done,
        };
    }
    if any_sent {
        // Frames exchanged this round land no earlier than next window;
        // their exact times are unknown here, so no skipping.
        Decision::Continue(window + 1)
    } else {
        // Idle fast-forward: jump to the window containing the earliest
        // future work.
        Decision::Continue((window + 1).max(global_min / lookahead_ns))
    }
}

/// One shard's event-count sampler: a single-counter [`Timeline`] fed the
/// shard's cumulative event count at every window boundary where a grid
/// row is due. Window boundaries are the same virtual instants on every
/// shard, so the committed rows line up exactly across shards — the
/// property the imbalance index depends on.
struct ShardSampler {
    tl: Timeline,
    events: SourceId,
}

impl ShardSampler {
    fn new(interval: Dur, capacity: usize) -> Self {
        let mut b = TimelineBuilder::new();
        let events = b.counter("events");
        ShardSampler {
            tl: b.build(interval.as_nanos(), capacity, 0),
            events,
        }
    }

    /// Commit a row stamped `window_end_ns` if one is due there.
    fn observe(&mut self, window_end_ns: u64, events: u64) {
        if self.tl.due(window_end_ns) {
            self.tl.set(self.events, events);
            self.tl.sample(window_end_ns);
        }
    }

    /// Final reconciliation row stamped at the last round's window end (an
    /// instant every shard crossed): afterwards the
    /// timeline's base plus the sum of retained deltas equals `events`
    /// exactly.
    fn finish(mut self, end_ns: u64, events: u64) -> Timeline {
        let stale = self
            .tl
            .len()
            .checked_sub(1)
            .is_none_or(|last| self.tl.row(last).0 < end_ns);
        if stale {
            self.tl.set(self.events, events);
            self.tl.sample(end_ns);
        }
        self.tl
    }
}

/// A boundary message parked until its delivery window, ordered as a
/// min-heap entry by the total delivery order `(time, src shard, seq)`.
/// Popping due entries in heap order *is* the deterministic injection
/// order, and the not-yet-due majority is never touched — under
/// congestion, arrivals spread hundreds of windows ahead, and re-scanning
/// the whole backlog every window dominated the runtime's cost.
struct HeldMsg(BoundaryMsg);

impl HeldMsg {
    fn key(&self) -> Reverse<(SimTime, usize, u64)> {
        Reverse((self.0.tx.at, self.0.src_shard, self.0.seq))
    }
}
impl PartialEq for HeldMsg {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for HeldMsg {}
impl PartialOrd for HeldMsg {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeldMsg {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// One shard's window execution: inject due boundary frames in total order,
/// advance to the window end (exclusive), then drain the outbox. Returns
/// the messages to exchange and the shard's [`RoundReport`].
fn run_window(
    sn: &ShardNet,
    held: &mut BinaryHeap<HeldMsg>,
    seq: &mut u64,
    window_end_ns: u64,
    stats: &mut ShardStats,
) -> (Vec<(usize, BoundaryMsg)>, RoundReport) {
    let t0 = std::time::Instant::now();
    // Pop the deliveries due inside this window — heap order is the
    // deterministic `(time, src shard, seq)` injection order. Lookahead
    // guarantees they were all received in earlier rounds.
    while held
        .peek()
        .is_some_and(|m| m.0.tx.at.as_nanos() < window_end_ns)
    {
        let m = held.pop().expect("peeked").0;
        sn.schedule_boundary(m.tx);
    }
    let before = sn.sim.events_executed();
    let t1 = std::time::Instant::now();
    // Execute strictly inside [window start, window end): `advance_until`
    // is inclusive, so the limit is the last nanosecond *before* the end.
    sn.sim
        .advance_until(SimTime(window_end_ns - 1), || false);
    let t2 = std::time::Instant::now();
    let executed = sn.sim.events_executed() - before;
    stats.events = sn.sim.events_executed();
    if executed == 0 {
        stats.idle_windows += 1;
    }
    stats.advance_ns += (t2 - t1).as_nanos() as u64;
    let mut out = Vec::new();
    for tx in sn.outbox.borrow_mut().drain(..) {
        let dst = sn.dest_shard(&tx);
        let msg = BoundaryMsg {
            src_shard: sn.shard,
            seq: *seq,
            tx,
        };
        *seq += 1;
        stats.boundary_out += 1;
        out.push((dst, msg));
    }
    let held_min = held.peek().map(|m| m.0.tx.at.as_nanos()).unwrap_or(u64::MAX);
    let next_ns = sn
        .sim
        .next_event_time()
        .map(|t| t.as_nanos())
        .unwrap_or(u64::MAX)
        .min(held_min);
    let report = RoundReport {
        next_ns,
        sent: out.len() as u64,
        live: sn.sim.live_tasks() as u64,
    };
    stats.exchange_ns += (t1 - t0 + t2.elapsed()).as_nanos() as u64;
    (out, report)
}

/// Partition `spec` into `shards` shards and run them to quiescence.
///
/// `setup` runs once per shard — build endpoints, spawn driver tasks,
/// schedule traffic. `collect` runs after global quiescence and extracts a
/// result per shard. `fault_plan`, when given, is replayed on every shard
/// (each applies the slice it owns).
///
/// Returns the per-shard `collect` results in shard order plus a
/// [`ShardRunReport`]; any failure reports a typed [`ShardError`] — never a
/// hang (configure `wall_limit` / `virtual_limit` to bound runaway
/// workloads).
pub fn run_sharded<S, Out>(
    spec: &ClusterSpec,
    shards: usize,
    seed: u64,
    fault_plan: Option<&FaultPlan>,
    cfg: &ShardRunConfig,
    setup: impl Fn(&ShardNet) -> S,
    collect: impl Fn(&ShardNet, S) -> Out,
) -> Result<(ShardRunReport, Vec<Out>), ShardError> {
    let plan = ShardPlan::partition(spec, shards)?;
    let lookahead_ns = plan.lookahead().as_nanos();
    let nets: Vec<ShardNet> = (0..shards)
        .map(|s| ShardNet::build(spec, &plan, s, seed))
        .collect();
    if let Some(p) = fault_plan {
        for sn in &nets {
            sn.apply_fault_plan(p);
        }
    }
    let states: Vec<S> = nets.iter().map(&setup).collect();
    let mut held: Vec<BinaryHeap<HeldMsg>> = (0..shards).map(|_| BinaryHeap::new()).collect();
    let mut seqs = vec![0u64; shards];
    let mut stats = vec![ShardStats::default(); shards];
    let mut samplers: Vec<Option<ShardSampler>> = (0..shards)
        .map(|_| {
            cfg.sample_interval
                .map(|iv| ShardSampler::new(iv, cfg.sample_capacity))
        })
        .collect();
    let mut window = 0u64;
    let mut windows_run = 0u64;
    let mut last_window_end_ns;
    let started = Instant::now();
    let decision = loop {
        if let Some(wall) = cfg.wall_limit {
            if started.elapsed() > wall {
                return Err(ShardError::WallClockExceeded {
                    windows: windows_run,
                });
            }
        }
        let window_end_ns = (window + 1) * lookahead_ns;
        last_window_end_ns = window_end_ns;
        let mut staged: Vec<(usize, BoundaryMsg)> = Vec::new();
        let mut reports = Vec::with_capacity(shards);
        for s in 0..shards {
            let (out, report) = run_window(
                &nets[s],
                &mut held[s],
                &mut seqs[s],
                window_end_ns,
                &mut stats[s],
            );
            if let Some(smp) = &mut samplers[s] {
                smp.observe(window_end_ns, stats[s].events);
            }
            staged.extend(out);
            reports.push(report);
        }
        windows_run += 1;
        // Exchange after the whole round: frames produced in round r become
        // visible in round r+1.
        let mut depth = vec![0usize; shards];
        for (dst, msg) in staged {
            stats[dst].boundary_in += 1;
            depth[dst] += 1;
            held[dst].push(HeldMsg(msg));
        }
        for s in 0..shards {
            stats[s].max_inbox_depth = stats[s].max_inbox_depth.max(depth[s]);
        }
        match decide(window, lookahead_ns, &reports) {
            Decision::Continue(w) => {
                if let Some(limit) = cfg.virtual_limit {
                    if w * lookahead_ns >= limit.as_nanos() {
                        return Err(ShardError::VirtualLimitExceeded { limit });
                    }
                }
                window = w;
            }
            d => break d,
        }
    };
    match decision {
        Decision::Stuck(shard) => Err(ShardError::StuckTasks {
            shard,
            tasks: nets[shard].sim.stuck_task_names(),
        }),
        _ => {
            let outs = nets
                .iter()
                .zip(states)
                .map(|(sn, st)| collect(sn, st))
                .collect();
            let end_time = nets.iter().map(|sn| sn.sim.now()).max().unwrap_or(SimTime::ZERO);
            let samples: Vec<Timeline> = samplers
                .into_iter()
                .zip(&stats)
                .flat_map(|(smp, st)| smp.map(|s| s.finish(last_window_end_ns, st.events)))
                .collect();
            let health = shard_health(cfg, &samples);
            Ok((
                ShardRunReport {
                    shards,
                    windows: windows_run,
                    end_time,
                    lookahead: plan.lookahead(),
                    per_shard: stats,
                    samples,
                    health,
                },
                outs,
            ))
        }
    }
}

/// Post-run cross-shard diagnosis: feed each shard's per-interval event
/// deltas to the imbalance detector as one member series. Runs only when
/// both sampling and [`ShardRunConfig::health`] are on; a pure function of
/// the sample grids.
fn shard_health(cfg: &ShardRunConfig, samples: &[Timeline]) -> Option<HealthReport> {
    let hc = cfg.health?;
    if samples.is_empty() {
        return None;
    }
    Some(me_trace::diagnose_member_timelines(samples, "events", hc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::RxFrame;
    use bytes::Bytes;
    use frame::{Frame, FrameHeader};
    use std::cell::Cell;

    fn spec(nodes: usize, rails: usize) -> ClusterSpec {
        ClusterSpec::gbe_1(nodes, rails)
    }

    #[test]
    fn partition_is_balanced_and_total() {
        for nodes in [1, 2, 3, 7, 16, 64, 257] {
            for shards in [1, 2, 3, 4, 8] {
                if shards > nodes {
                    continue;
                }
                let plan = ShardPlan::partition(&spec(nodes, 2), shards).unwrap();
                let mut counts = vec![0usize; shards];
                for n in 0..nodes {
                    counts[plan.node_shard(n)] += 1;
                }
                let (min, max) = (
                    *counts.iter().min().unwrap(),
                    *counts.iter().max().unwrap(),
                );
                assert!(max - min <= 1, "{nodes} nodes / {shards} shards: {counts:?}");
                assert_eq!(counts.iter().sum::<usize>(), nodes);
            }
        }
    }

    #[test]
    fn partition_rejects_degenerate_requests() {
        assert_eq!(
            ShardPlan::partition(&spec(4, 1), 0),
            Err(PartitionError::ZeroShards)
        );
        assert_eq!(
            ShardPlan::partition(&spec(2, 1), 5),
            Err(PartitionError::TooManyShards { shards: 5, nodes: 2 })
        );
        let mut zero_lat = spec(4, 1);
        zero_lat.link.latency = Dur::ZERO;
        assert_eq!(
            ShardPlan::partition(&zero_lat, 2),
            Err(PartitionError::ZeroLookahead)
        );
    }

    /// Raw-frame all-to-all across a sharded 4-node cluster: every frame is
    /// delivered exactly once regardless of shard count.
    fn all_to_all_received(shards: usize) -> Vec<u64> {
        let spec = spec(4, 1);
        let cfg = ShardRunConfig {
            wall_limit: Some(std::time::Duration::from_secs(30)),
            ..Default::default()
        };
        let (_, outs) = run_sharded(
            &spec,
            shards,
            7,
            None,
            &cfg,
            |sn: &ShardNet| {
                let counts: Rc<Vec<Cell<u64>>> =
                    Rc::new(sn.local_nodes().iter().map(|_| Cell::new(0)).collect());
                for (i, &node) in sn.local_nodes().iter().enumerate() {
                    let c = counts.clone();
                    sn.net().set_rx_handler(sn.nics(node)[0], move |_, _: RxFrame| {
                        c[i].set(c[i].get() + 1);
                    });
                    // Each node sends one frame to every other node.
                    for peer in 0..4u16 {
                        if peer as usize == node {
                            continue;
                        }
                        let f = Frame {
                            src: MacAddr::new(node as u16, 0),
                            dst: MacAddr::new(peer, 0),
                            header: FrameHeader::default(),
                            payload: Bytes::from(vec![0u8; 256]),
                        };
                        let net = sn.net().clone();
                        let nic = sn.nics(node)[0];
                        sn.sim().schedule_at(SimTime::ZERO, move |_| {
                            net.nic_send(nic, f);
                        });
                    }
                }
                counts
            },
            |_, counts| counts.iter().map(Cell::get).collect::<Vec<u64>>(),
        )
        .unwrap();
        outs.into_iter().flatten().collect()
    }

    #[test]
    fn sharded_all_to_all_delivers_everything() {
        for shards in [1, 2, 4] {
            let got = all_to_all_received(shards);
            assert_eq!(got, vec![3u64; 4], "shards={shards}");
        }
    }

    /// The all-to-all workload with event sampling on.
    fn sampled_all_to_all(shards: usize) -> ShardRunReport {
        let spec = spec(4, 1);
        let cfg = ShardRunConfig {
            wall_limit: Some(std::time::Duration::from_secs(30)),
            sample_interval: Some(Dur(2_000)),
            ..Default::default()
        };
        let (report, _) = run_sharded(
            &spec,
            shards,
            7,
            None,
            &cfg,
            |sn: &ShardNet| {
                for &node in sn.local_nodes() {
                    for peer in 0..4u16 {
                        if peer as usize == node {
                            continue;
                        }
                        let f = Frame {
                            src: MacAddr::new(node as u16, 0),
                            dst: MacAddr::new(peer, 0),
                            header: FrameHeader::default(),
                            payload: Bytes::from(vec![0u8; 256]),
                        };
                        let net = sn.net().clone();
                        let nic = sn.nics(node)[0];
                        sn.sim().schedule_at(SimTime::ZERO, move |_| {
                            net.nic_send(nic, f);
                        });
                    }
                }
            },
            |_, _| (),
        )
        .unwrap();
        report
    }

    #[test]
    fn event_samples_reconcile() {
        let report = sampled_all_to_all(2);
        assert_eq!(report.samples.len(), 2, "one timeline per shard");
        for (tl, st) in report.samples.iter().zip(&report.per_shard) {
            let events = tl.source_id("events").expect("shard timelines carry events");
            // Telescoping: base + retained deltas == the shard's final
            // cumulative event count.
            assert_eq!(
                tl.base_raw(events) + tl.column_sum(events),
                st.events,
                "sampled deltas must reconcile with ShardStats.events"
            );
        }
    }

    /// 8 nodes, 4 rails, 4 shards, health diagnosis enabled. Rail `r`'s
    /// switch lands on shard `r`, so in the balanced case each adjacent
    /// node pair bursts over its own shard's rail (every shard runs the
    /// same pair plus one switch); `hot` routes only the shard-0 pair,
    /// over rail 0, leaving the other shards idle.
    fn health_run(hot: bool) -> ShardRunReport {
        let spec = spec(8, 4);
        // The lopsided case relies on both chatty nodes landing on the
        // same shard, so the hot load stays intra-shard.
        let plan = ShardPlan::partition(&spec, 4).unwrap();
        assert_eq!(plan.node_shard(0), plan.node_shard(1));
        assert_eq!(plan.switch_shard(0), 0);
        let hc = HealthConfig {
            imbalance_min_total: 8,
            ..Default::default()
        };
        let cfg = ShardRunConfig {
            wall_limit: Some(std::time::Duration::from_secs(30)),
            sample_interval: Some(Dur(20_000)),
            health: Some(hc),
            ..Default::default()
        };
        let (report, _) = run_sharded(
            &spec,
            4,
            7,
            None,
            &cfg,
            |sn: &ShardNet| {
                for &node in sn.local_nodes() {
                    if hot && node > 1 {
                        continue;
                    }
                    let peer = (node ^ 1) as u16;
                    let rail = if hot { 0 } else { node / 2 };
                    for _ in 0..128 {
                        let f = Frame {
                            src: MacAddr::new(node as u16, rail as u8),
                            dst: MacAddr::new(peer, rail as u8),
                            header: FrameHeader::default(),
                            payload: Bytes::from(vec![0u8; 64]),
                        };
                        let net = sn.net().clone();
                        let nic = sn.nics(node)[rail];
                        sn.sim().schedule_at(SimTime::ZERO, move |_| {
                            net.nic_send(nic, f);
                        });
                    }
                }
            },
            |_, _| (),
        )
        .unwrap();
        report
    }

    #[test]
    fn shard_health_flags_hot_shard_and_stays_quiet_when_balanced() {
        let hot = health_run(true);
        let report = hot.health.expect("health was configured");
        let inc = report
            .first(me_trace::IncidentCause::IncastImbalance)
            .expect("a persistently hot shard must open an IncastImbalance incident");
        assert!(inc.alarms > 0);
        let clean = health_run(false);
        let report = clean.health.expect("health was configured");
        assert!(
            report.incidents.is_empty(),
            "balanced load must stay clean:\n{}",
            report.render_human()
        );
    }

    #[test]
    fn sampling_off_publishes_no_timelines() {
        let spec = spec(4, 1);
        let cfg = ShardRunConfig {
            wall_limit: Some(std::time::Duration::from_secs(30)),
            ..Default::default()
        };
        let (report, _) = run_sharded(&spec, 2, 7, None, &cfg, |_| (), |_, _| ()).unwrap();
        assert!(report.samples.is_empty());
    }

    #[test]
    fn wall_limit_fails_cleanly_not_hangs() {
        // A self-rescheduling event chain never quiesces; the wall limit
        // must produce a typed error.
        let cfg = ShardRunConfig {
            wall_limit: Some(std::time::Duration::from_millis(50)),
            ..Default::default()
        };
        let err = run_sharded(
            &spec(4, 1),
            2,
            0,
            None,
            &cfg,
            |sn: &ShardNet| {
                fn tick(sim: &Sim) {
                    let s = sim.clone();
                    sim.schedule_in(Dur(1_000), move |_| tick(&s));
                }
                tick(sn.sim());
            },
            |_, _| (),
        )
        .unwrap_err();
        assert!(matches!(err, ShardError::WallClockExceeded { .. }), "{err}");
    }

    #[test]
    fn virtual_limit_fails_cleanly() {
        let cfg = ShardRunConfig {
            virtual_limit: Some(Dur(50_000)),
            wall_limit: Some(std::time::Duration::from_secs(10)),
            ..Default::default()
        };
        let err = run_sharded(
            &spec(4, 1),
            2,
            0,
            None,
            &cfg,
            |sn: &ShardNet| {
                fn tick(sim: &Sim) {
                    let s = sim.clone();
                    sim.schedule_in(Dur(1_000), move |_| tick(&s));
                }
                tick(sn.sim());
            },
            |_, _| (),
        )
        .unwrap_err();
        assert!(matches!(err, ShardError::VirtualLimitExceeded { .. }), "{err}");
    }

    #[test]
    fn stuck_tasks_reported_not_hung() {
        let cfg = ShardRunConfig {
            wall_limit: Some(std::time::Duration::from_secs(10)),
            ..Default::default()
        };
        let err = run_sharded(
            &spec(4, 1),
            2,
            0,
            None,
            &cfg,
            |sn: &ShardNet| {
                if sn.shard() == 1 {
                    sn.sim().spawn("never-completes", std::future::pending::<()>());
                }
            },
            |_, _| (),
        )
        .unwrap_err();
        match err {
            ShardError::StuckTasks { shard, tasks } => {
                assert_eq!(shard, 1);
                assert_eq!(tasks, vec!["never-completes".to_string()]);
            }
            other => panic!("expected StuckTasks, got {other}"),
        }
    }
}
