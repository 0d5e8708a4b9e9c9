//! **MultiEdge** — an edge-based communication subsystem for scalable
//! commodity servers (Karlsson, Passas, Kotsis, Bilas — IPPS 2007), in Rust,
//! over a deterministic network simulation.
//!
//! MultiEdge is a connection-oriented, kernel-level protocol running on raw
//! Ethernet frames. It provides:
//!
//! * **RDMA-style remote memory operations** — asynchronous remote write and
//!   remote read into the peer process's virtual address space, with
//!   completion handles and optional remote notifications
//!   ([`Endpoint::write`], [`Endpoint::read`], [`OpHandle`]).
//! * **End-to-end flow control and reliability** — fixed-size sliding window
//!   counted in frames, positive acks piggybacked on every data frame,
//!   delayed explicit acks, NACK-driven selective retransmission, and a
//!   coarse retransmission timeout ([`ProtoConfig`]).
//! * **Spatial parallelism** — transparent frame-level striping of a single
//!   connection across multiple physical links with round-robin scheduling
//!   ([`SchedPolicy`]), plus the paper's novel ordering API: per-operation
//!   **backward** and **forward fences** that let applications permit
//!   out-of-order delivery wherever safe ([`OpFlags`]).
//! * **Interrupt minimization** — receive/transmit events arriving while the
//!   protocol thread is active are absorbed by polling; only events that find
//!   it idle pay interrupt cost (§2.6 of the paper).
//! * **Failure resilience** — per-rail health tracking fed by loss
//!   attribution ([`RailState`]): rails that keep losing frames are excluded
//!   from striping and probed back in after a cooldown, while an adaptive
//!   RFC 6298-style retransmission timeout with exponential backoff
//!   ([`rtt::RttEstimator`]) replaces the paper's fixed coarse timer.
//!
//! # Architecture
//!
//! Every protocol rule lives once, in the sans-IO [`ProtoCore`]
//! ([`proto`]). Two drivers run it: [`Endpoint`] on the simulator (host
//! cost model, interrupt moderation, async handles) and [`WireEndpoint`]
//! over any [`Backplane`] (poll/deadline loop, liveness watchdog).
//!
//! # Quick start
//!
//! ```
//! use multiedge::{Endpoint, OpFlags, SystemConfig};
//! use netsim::{build_cluster, Sim};
//! use std::rc::Rc;
//!
//! let cfg = Rc::new(SystemConfig::one_link_1g(2));
//! let sim = Sim::new(1);
//! let cluster = build_cluster(&sim, cfg.cluster_spec());
//! let eps = Endpoint::for_cluster(&sim, &cluster, cfg);
//! let (c0, _c1) = Endpoint::connect(&eps[0], &eps[1]);
//!
//! let a = eps[0].clone();
//! sim.spawn("writer", async move {
//!     let h = a.write_bytes(c0, 0x1000, b"hello".to_vec(), OpFlags::RELAXED).await;
//!     h.wait().await;
//! });
//! sim.run().expect_quiescent();
//! assert_eq!(eps[1].mem_read(0x1000, 5), b"hello");
//! ```

#![warn(missing_docs)]

pub mod backplane;
pub mod config;
pub mod endpoint;
pub mod memory;
pub mod ops;
pub mod order;
pub mod proto;
pub mod railhealth;
pub mod recvseq;
pub mod ring;
pub mod rtt;
pub mod sched;
pub mod seqspace;
pub mod stats;
pub mod striping;
pub mod timeline;

pub use backplane::{
    Backplane, BpRx, ChaosConfig, FaultBackplane, SimBackplane, UdpBackplane, UdpFabric,
    WireEndpoint, WireError,
};
pub use config::{CostModel, ProtoConfig, SystemConfig};
pub use endpoint::Endpoint;
pub use memory::{AppMemory, Payload, PAGE_SIZE};
pub use ops::{Notification, OpFlags, OpHandle, OpKind};
pub use proto::ProtoCore;
pub use railhealth::{RailEvent, RailSet, RailState};
pub use rtt::RttEstimator;
pub use sched::{LinkScheduler, SchedPolicy};
pub use stats::{CpuSnapshot, ProtoStats};
pub use timeline::{rail_state_code, CoreSampler, EndpointSampler};
