//! A one-shard `run_sharded` over [`build_cluster`], kept only because the
//! benchmark's `sim_mesh64` (`perf/src/mesh.rs`) names it. It walks windows
//! of one link latency as the deleted partitioned runtime did, so the final
//! clock `sim_mesh64` fingerprints is unchanged. It goes with ROADMAP 1(c).

use crate::net::{Network, NicId};
use crate::topology::{build_cluster, Cluster, ClusterSpec};
use crate::{engine::Sim, faults::FaultPlan, time::SimTime};
use std::time::{Duration, Instant};

/// The one engine, behind the partitioned runtime's accessors.
pub struct ShardNet {
    sim: Sim,
    cluster: Cluster,
    nodes: Vec<usize>,
}

impl Drop for ShardNet {
    fn drop(&mut self) {
        self.cluster.net.clear_handlers();
    }
}

impl ShardNet {
    /// The simulator.
    pub fn sim(&self) -> &Sim {
        &self.sim
    }

    /// The network.
    pub fn net(&self) -> &Network {
        &self.cluster.net
    }

    /// Every node, ascending.
    pub fn local_nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// NICs of `node`, one per rail.
    pub fn nics(&self, node: usize) -> &[NicId] {
        &self.cluster.nics[node]
    }
}

/// The one way to execute (`perf/src/mesh.rs` names it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShardMode {
    /// On the calling thread.
    #[default]
    Cooperative,
}

/// Knobs for [`run_sharded`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardRunConfig {
    /// Ignored: its only value is its default.
    pub mode: ShardMode,
    /// Abort with [`ShardError::WallClockExceeded`] past this wall time.
    pub wall_limit: Option<Duration>,
}

/// Why a run stopped without quiescing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A shard count other than one was requested.
    ShardCount(usize),
    /// The link latency is zero, so a window is empty.
    ZeroLookahead,
    /// The wall-clock budget ran out after this many windows.
    WallClockExceeded(u64),
    /// The queue drained but these tasks remain: a deadlock.
    StuckTasks(Vec<String>),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run_sharded: {self:?}")
    }
}

/// The window walk's accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Windows in which no event executed.
    pub idle_windows: u64,
    /// Wall nanoseconds inside `advance_until`.
    pub advance_ns: u64,
    /// Wall nanoseconds on window bookkeeping.
    pub exchange_ns: u64,
}

/// Outcome of a successful [`run_sharded`].
#[derive(Debug, Clone)]
pub struct ShardRunReport {
    /// Windows executed.
    pub windows: u64,
    /// The one shard's accounting.
    pub per_shard: Vec<ShardStats>,
}

/// Build `spec` on a [`Sim`] seeded `seed`, replay `fault_plan`, run `setup`,
/// walk the windows to quiescence (skipping idle ones), return `collect`'s
/// result. Every failure is a typed [`ShardError`], never a panic or hang.
pub fn run_sharded<S, Out>(
    spec: &ClusterSpec,
    shards: usize,
    seed: u64,
    fault_plan: Option<&FaultPlan>,
    cfg: &ShardRunConfig,
    setup: impl Fn(&ShardNet) -> S,
    collect: impl Fn(&ShardNet, S) -> Out,
) -> Result<(ShardRunReport, Vec<Out>), ShardError> {
    let lookahead = spec.link.latency.as_nanos();
    if shards != 1 {
        return Err(ShardError::ShardCount(shards));
    } else if lookahead == 0 {
        return Err(ShardError::ZeroLookahead);
    }
    let sim = Sim::new(seed);
    let cluster = build_cluster(&sim, *spec);
    let sn = ShardNet {
        sim,
        cluster,
        nodes: (0..spec.nodes).collect(),
    };
    if let Some(plan) = fault_plan {
        sn.cluster.apply_fault_plan(&sn.sim, plan);
    }
    let state = setup(&sn);
    let (mut st, mut window, mut windows) = (ShardStats::default(), 0, 0);
    let started = Instant::now();
    loop {
        if cfg.wall_limit.is_some_and(|wall| started.elapsed() > wall) {
            return Err(ShardError::WallClockExceeded(windows));
        }
        let (before, t0) = (sn.sim.events_executed(), Instant::now());
        // `advance_until` is inclusive: stop one nanosecond before the end.
        sn.sim
            .advance_until(SimTime((window + 1) * lookahead - 1), || false);
        let t1 = Instant::now();
        st.advance_ns += (t1 - t0).as_nanos() as u64;
        st.idle_windows += u64::from(sn.sim.events_executed() == before);
        windows += 1;
        let next = sn.sim.next_event_time();
        st.exchange_ns += t1.elapsed().as_nanos() as u64;
        match next {
            Some(t) => window = (window + 1).max(t.as_nanos() / lookahead),
            None if sn.sim.live_tasks() == 0 => break,
            None => return Err(ShardError::StuckTasks(sn.sim.stuck_task_names())),
        }
    }
    Ok((
        ShardRunReport {
            windows,
            per_shard: vec![st],
        },
        vec![collect(&sn, state)],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::RxFrame;
    use crate::time::Dur;
    use bytes::Bytes;
    use frame::{Frame, FrameHeader, MacAddr};
    use std::cell::Cell;
    use std::rc::Rc;

    fn spec(nodes: usize, rails: usize) -> ClusterSpec {
        ClusterSpec::gbe_1(nodes, rails)
    }

    fn tick(sim: &Sim) {
        let s = sim.clone();
        sim.schedule_in(Dur(1_000), move |_| tick(&s));
    }

    #[test]
    fn only_one_shard_and_a_nonzero_lookahead_are_accepted() {
        let cfg = ShardRunConfig::default();
        for shards in [0, 2, 4] {
            let err = run_sharded(&spec(4, 1), shards, 0, None, &cfg, |_| (), |_, _| ());
            assert_eq!(err.unwrap_err(), ShardError::ShardCount(shards));
        }
        let mut zero = spec(4, 1);
        zero.link.latency = Dur::ZERO;
        let err = run_sharded(&zero, 1, 0, None, &cfg, |_| (), |_, _| ());
        assert_eq!(err.unwrap_err(), ShardError::ZeroLookahead);
    }

    /// Raw-frame all-to-all on 4 nodes: every frame is delivered once.
    #[test]
    fn sharded_all_to_all_delivers_everything() {
        let cfg = ShardRunConfig {
            wall_limit: Some(Duration::from_secs(30)),
            ..Default::default()
        };
        let (_, outs) = run_sharded(
            &spec(4, 1),
            1,
            7,
            None,
            &cfg,
            |sn: &ShardNet| {
                let counts: Rc<Vec<Cell<u64>>> = Rc::new((0..4).map(|_| Cell::new(0)).collect());
                for &node in sn.local_nodes() {
                    let c = counts.clone();
                    sn.net()
                        .set_rx_handler(sn.nics(node)[0], move |_, _: RxFrame| {
                            c[node].set(c[node].get() + 1);
                        });
                    for peer in (0..4u16).filter(|&p| p as usize != node) {
                        let f = Frame {
                            src: MacAddr::new(node as u16, 0),
                            dst: MacAddr::new(peer, 0),
                            header: FrameHeader::default(),
                            payload: Bytes::from(vec![0u8; 256]),
                        };
                        let (net, nic) = (sn.net().clone(), sn.nics(node)[0]);
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
        assert_eq!(outs, vec![vec![3u64; 4]]);
    }

    #[test]
    fn wall_limit_fails_cleanly_not_hangs() {
        // A self-rescheduling event chain never quiesces; the wall limit
        // must produce a typed error.
        let cfg = ShardRunConfig {
            wall_limit: Some(Duration::from_millis(50)),
            ..Default::default()
        };
        let err = run_sharded(
            &spec(4, 1),
            1,
            0,
            None,
            &cfg,
            |sn| tick(sn.sim()),
            |_, _| (),
        );
        assert!(
            matches!(err, Err(ShardError::WallClockExceeded(_))),
            "{err:?}"
        );
    }

    #[test]
    fn stuck_tasks_reported_not_hung() {
        let cfg = ShardRunConfig {
            wall_limit: Some(Duration::from_secs(10)),
            ..Default::default()
        };
        let err = run_sharded(
            &spec(4, 1),
            1,
            0,
            None,
            &cfg,
            |sn: &ShardNet| {
                sn.sim()
                    .spawn("never-completes", std::future::pending::<()>());
            },
            |_, _| (),
        )
        .unwrap_err();
        assert_eq!(err, ShardError::StuckTasks(vec!["never-completes".into()]));
    }
}
