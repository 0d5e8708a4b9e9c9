//! Sim-vs-real cross-validation cells for the transport backplane.
//!
//! Runs the same [`WireEndpoint`] protocol driver — the identical state
//! machines, byte for byte — over both [`Backplane`] implementations:
//! the deterministic network simulator and real UDP sockets on loopback.
//! Each backend's run becomes a span-attribution cell document
//! ([`cell_doc`]) with **matching `config`/`workload` strings**, so
//! `me_trace::diff_docs` pairs the cells; the backend identity goes in the
//! `profile` field. `me-inspect diff results/backplane/sim.json
//! results/backplane/udp.json` then subtracts, phase by phase, where the
//! simulator's cost model and a real kernel/network path disagree.
//!
//! The UDP rounds run on the wall clock, so unlike the simulator they are
//! **not** bit-reproducible: the committed `results/BENCH_backplane.json`
//! keeps only the simulator's cells and the UDP side's completed op
//! counts (see `docs/BACKPLANE.md`).

use bytes::Bytes;
use me_trace::{analyze, Attribution, Json, SpanRecorder, SpanSnapshot, SCHEMA_VERSION};
use multiedge::backplane::{
    drive_with, Backplane, DriveLimits, SimBackplane, UdpFabric, WireEndpoint,
};
use multiedge::{OpFlags, ProtoConfig, SystemConfig};
use netsim::{build_cluster, Sim};
use std::cell::Cell;

use crate::micro::MicroKind;

/// One cross-validation cell: a workload run over several rounds (seeds
/// `base_seed..base_seed + rounds`), merged bucket-wise.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// Topology label, the first half of the pairing key.
    pub config: &'static str,
    /// Micro-benchmark workload.
    pub kind: MicroKind,
    /// Op payload size in bytes.
    pub size: usize,
    /// Ops per round.
    pub iters: usize,
    /// Rounds merged into the document.
    pub rounds: u64,
    /// First seed of the round sweep.
    pub base_seed: u64,
}

impl CellSpec {
    /// Display name, the diff's cell pairing key (`"<config> <workload>"`).
    pub fn name(&self) -> String {
        format!("{} {}", self.config, self.kind.name())
    }
}

/// A cell's merged attribution as the document `me_trace::diff_docs`
/// reads: schema-stamped and self-describing (config, workload, seeds),
/// with the exact histograms.
pub fn cell_doc(spec: &CellSpec, profile: &str, attr: &Attribution) -> Json {
    Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("kind", "multiedge_attribution_cell")
        .set("profile", profile)
        .set("config", spec.config)
        .set("workload", spec.kind.name())
        .set("size", spec.size)
        .set("iters", spec.iters)
        .set("rounds", spec.rounds)
        .set("base_seed", spec.base_seed)
        .set("attribution", attr.to_json())
}

/// Span-ring capacity for cross-validation rounds.
const SPAN_CAP: usize = 1 << 16;

/// Maximum write ops in flight for the one-way streaming workload: deep
/// enough to keep the window busy, shallow enough that per-op latency
/// measures the protocol rather than the issue queue.
const ONEWAY_INFLIGHT: usize = 4;

/// Which transport carries a cross-validation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireBackend {
    /// The netsim discrete-event fabric (virtual time).
    Sim,
    /// Real UDP sockets on loopback (wall-clock time).
    Udp,
}

impl WireBackend {
    /// Label used in document `profile` fields and artifact filenames.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Sim => "sim",
            Self::Udp => "udp",
        }
    }
}

/// The cross-validation sweep: the latency-dominated ping-pong shape and
/// bandwidth-dominated one-way streaming, both striped across two rails.
///
/// The `config` string names the backplane topology (two rails); these
/// specs are paired sim-vs-udp only.
pub fn wire_cells(smoke: bool) -> Vec<CellSpec> {
    let (pp_iters, ow_iters, rounds) = if smoke { (48, 24, 2) } else { (160, 60, 3) };
    vec![
        CellSpec {
            config: "BP-2L",
            kind: MicroKind::PingPong,
            size: 4 << 10,
            iters: pp_iters,
            rounds,
            base_seed: 9_100,
        },
        CellSpec {
            config: "BP-2L",
            kind: MicroKind::OneWay,
            size: 32 << 10,
            iters: ow_iters,
            rounds,
            base_seed: 9_200,
        },
    ]
}

/// Protocol parameters for a cross-validation round: the standard
/// two-rail profile (the sim backend also builds its fabric from this).
fn wire_config(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::two_link_1g(2);
    cfg.seed = seed;
    cfg
}

/// Run one cell on one backend: every round on a fresh fabric, the
/// rounds' attributions merged bucket-wise.
pub fn run_wire_cell(spec: &CellSpec, backend: WireBackend) -> Attribution {
    let mut attr = Attribution::default();
    for r in 0..spec.rounds {
        let seed = spec.base_seed + r;
        let cfg = wire_config(seed);
        let rails = 2;
        let snap = match backend {
            WireBackend::Sim => {
                let sim = Sim::new(seed);
                let cluster = build_cluster(&sim, cfg.cluster_spec());
                let (mut bpa, mut bpb) = SimBackplane::pair(&sim, &cluster);
                run_round(&cfg.proto, rails, spec, &mut bpa, &mut bpb)
            }
            WireBackend::Udp => {
                let fabric = UdpFabric::new(rails).expect("bind loopback UDP sockets");
                let (mut bpa, mut bpb) = fabric.pair();
                run_round(&cfg.proto, rails, spec, &mut bpa, &mut bpb)
            }
        };
        assert_eq!(snap.overwritten, 0, "span ring must retain the whole round");
        attr.merge(&analyze(&snap));
    }
    attr
}

/// Drive one round of `spec`'s workload over an already-built fabric and
/// return the span snapshot covering both endpoints.
fn run_round<BA: Backplane, BB: Backplane>(
    proto: &ProtoConfig,
    rails: usize,
    spec: &CellSpec,
    bpa: &mut BA,
    bpb: &mut BB,
) -> SpanSnapshot {
    // Generous stall budget (per round, backplane clock): virtual time on
    // sim, wall time on UDP. Hitting it means the protocol wedged.
    const BUDGET_NS: u64 = 20_000_000_000;
    let spans = SpanRecorder::enabled(SPAN_CAP);
    let (mut a, mut b) = WireEndpoint::pair(proto, rails, &spans);
    let payload = Bytes::from(vec![0xA5u8; spec.size]);
    let addr = 0x10_0000u64;
    match spec.kind {
        MicroKind::PingPong => {
            // Request-reply remote writes with notifications, mirroring the
            // simulator micro-benchmark: A initiates, B's notification
            // handler replies, A's reply handler starts the next iteration.
            let iters = spec.iters;
            let replies = Cell::new(0usize);
            let initiated = Cell::new(1usize);
            a.write(
                0,
                bpa,
                addr,
                payload.clone(),
                OpFlags::RELAXED.with_notify(),
            );
            drive_with(
                &mut a,
                bpa,
                &mut b,
                bpb,
                |a, bpa, b, bpb| {
                    while b.take_notification().is_some() {
                        b.write(
                            0,
                            bpb,
                            addr,
                            payload.clone(),
                            OpFlags::RELAXED.with_notify(),
                        );
                    }
                    while a.take_notification().is_some() {
                        replies.set(replies.get() + 1);
                        if initiated.get() < iters {
                            initiated.set(initiated.get() + 1);
                            a.write(
                                0,
                                bpa,
                                addr,
                                payload.clone(),
                                OpFlags::RELAXED.with_notify(),
                            );
                        }
                    }
                },
                |a, b| {
                    // All replies in, and both send directions fully acked
                    // so every op span has reached its completion milestone.
                    replies.get() == iters
                        && a.conn_state(0).acked == a.conn_state(0).next_seq
                        && b.conn_state(0).acked == b.conn_state(0).next_seq
                },
                DriveLimits::budget(BUDGET_NS),
            )
            .unwrap_or_else(|e| panic!("{} ping-pong round stalled: {e}", spec.config));
        }
        MicroKind::OneWay => {
            // Streaming writes A→B with a bounded issue queue.
            let iters = spec.iters;
            let issued = Cell::new(0usize);
            let completed = Cell::new(0usize);
            drive_with(
                &mut a,
                bpa,
                &mut b,
                bpb,
                |a, bpa, _b, _bpb| {
                    while a.take_completion().is_some() {
                        completed.set(completed.get() + 1);
                    }
                    while issued.get() < iters && issued.get() - completed.get() < ONEWAY_INFLIGHT {
                        issued.set(issued.get() + 1);
                        a.write(0, bpa, addr, payload.clone(), OpFlags::RELAXED);
                    }
                },
                |_a, _b| completed.get() == iters,
                DriveLimits::budget(BUDGET_NS),
            )
            .unwrap_or_else(|e| panic!("{} one-way round stalled: {e}", spec.config));
        }
        MicroKind::TwoWay => panic!("two-way is not a cross-validation workload"),
    }
    spans.snapshot().expect("recorder is enabled")
}
