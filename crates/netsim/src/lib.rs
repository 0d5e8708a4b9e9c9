//! `netsim` — a deterministic discrete-event network simulator.
//!
//! This crate is the hardware substrate for the MultiEdge reproduction: it
//! stands in for the paper's 16-node Opteron cluster, its Broadcom/Myricom
//! NICs and its D-Link/HP Ethernet switches. Everything above this crate
//! (the MultiEdge protocol, the DSM, the applications) is a faithful
//! implementation of the published system; everything inside this crate is a
//! timing model.
//!
//! # Pieces
//!
//! * [`Sim`] — event queue + virtual clock + a cooperative, single-threaded
//!   async task executor ([`Sim::spawn`]). Deterministic for a given seed.
//! * [`sync`] — futures for simulation tasks: [`sync::sleep`],
//!   [`sync::Flag`], [`sync::Channel`], [`sync::Semaphore`],
//!   [`sync::join_all`].
//! * [`net`] — frame-granular models of links, store-and-forward switches
//!   and NICs, with bounded queues (congestion loss) and a transient-fault
//!   model (random loss / corruption). One delivery path: a frame's fate
//!   is decided at submit from stateless per-channel streams, so channels
//!   are independent and one engine is the whole determinism story.
//! * [`cpu`] — per-CPU busy-time accounting used to report the paper's
//!   CPU-utilization figures.
//! * [`topology`] — the paper's rail-shaped cluster builder.
//! * [`faults`] — scripted, seed-deterministic fault plans layered on the
//!   stationary model: timed link outages, flapping, NIC stalls, and
//!   [`GilbertElliott`] burst loss/corruption ([`FaultPlan`]), and the
//!   one oracle every frame's fate is drawn from ([`FaultStream`]).
//! * [`shard`] — a one-shard [`shard::run_sharded`] over [`build_cluster`],
//!   kept only while the benchmark's `sim_mesh64` names it.
//!
//! # Example
//!
//! ```
//! use netsim::{Sim, sync::sleep, time::us};
//!
//! let sim = Sim::new(7);
//! let s = sim.clone();
//! let task = sim.spawn("hello", async move {
//!     sleep(&s, us(10)).await;
//!     s.now().as_nanos()
//! });
//! sim.run().expect_quiescent();
//! assert_eq!(task.try_take(), Some(10_000));
//! ```

#![warn(missing_docs)]

pub mod cpu;
pub mod engine;
pub mod faults;
pub mod net;
pub mod shard;
pub mod sync;
pub mod time;
pub mod topology;

pub use engine::{QueueStats, RunReport, Sim, TaskId, TimerId};
pub use faults::{
    covered, covering_end, FaultAction, FaultEvent, FaultModel, FaultPlan, FaultStream,
    FaultTarget, GilbertElliott,
};
pub use net::{ChannelParams, FaultDecision, NetStats, Network, NicId, RxFrame, SwitchId};
pub use shard::{
    run_sharded, ShardError, ShardMode, ShardNet, ShardRunConfig, ShardRunReport, ShardStats,
};
pub use time::{Dur, SimTime};
pub use topology::{build_cluster, Cluster, ClusterSpec, DEFAULT_FAULT_SEED};
