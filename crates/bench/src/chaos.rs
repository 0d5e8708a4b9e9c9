//! Chaos soak cells: seeded fault schedules driven through the
//! backend-agnostic [`FaultBackplane`] interposer over both transports.
//!
//! Each cell is one [`ChaosConfig`] schedule — random loss, duplication,
//! reordering, corruption, burst processes, scripted rail blackouts — run
//! with the identical [`WireEndpoint`] protocol driver over the netsim
//! fabric and over real UDP loopback sockets. A cell passes when both
//! backends finish with exactly-once delivery, intact fence ordering and
//! the **same timing-independent fingerprint**; rail-death schedules must
//! additionally leave flight-recorder post-mortem artifacts in the
//! configured dump directory. The `chaos` bench harness aggregates the
//! cells into `results/BENCH_chaos.json` (see `docs/FAULTS.md`).

use std::path::Path;

use bytes::Bytes;
use me_trace::{FlightConfig, FlightRecorder, SpanRecorder};
use multiedge::backplane::{
    drive_with, Backplane, ChaosConfig, ChaosStats, DriveLimits, FaultBackplane, SimBackplane,
    UdpFabric, WireEndpoint, WireError,
};
use multiedge::{OpFlags, ProtoConfig, SystemConfig};
use netsim::time::ms;
use netsim::{build_cluster, FaultPlan, FaultTarget, GilbertElliott, Sim};

use crate::backplane::WireBackend;

/// One seeded chaos schedule plus its workload size.
pub struct ChaosCellSpec {
    /// Cell name (also the dump-directory component).
    pub name: &'static str,
    /// The fault schedule, shared verbatim by both backends.
    pub chaos: ChaosConfig,
    /// Write operations issued by the workload.
    pub ops: usize,
    /// Whether the schedule is expected to kill a rail (and therefore to
    /// leave a `rail_death` flight dump).
    pub expects_rail_death: bool,
}

/// The soak sweep. Every schedule is recoverable by construction — the
/// harness treats a [`WireError`] from any cell as a failure (after which
/// the flight dumps on disk are the triage artifact).
pub fn chaos_cells(smoke: bool) -> Vec<ChaosCellSpec> {
    let ops = if smoke { 6 } else { 16 };
    vec![
        ChaosCellSpec {
            name: "lossy",
            chaos: ChaosConfig::new(0xC0FFEE)
                .with_drop(0.05)
                .with_dup(0.02)
                .with_reorder(0.05, 200_000)
                .with_corrupt(0.01),
            ops,
            expects_rail_death: false,
        },
        ChaosCellSpec {
            name: "bursty",
            chaos: ChaosConfig::new(0xB00B5).with_reorder(0.03, 100_000).with_plan(
                FaultPlan::new().burst(
                    ms(0),
                    FaultTarget::Rail { rail: 0 },
                    GilbertElliott::bursty_loss(0.02, 0.4, 0.6),
                ),
            ),
            ops,
            expects_rail_death: false,
        },
        ChaosCellSpec {
            name: "rail-blackout",
            chaos: ChaosConfig::new(0xDEAD)
                .with_drop(0.01)
                .with_plan(FaultPlan::new().rail_down(ms(0), 1)),
            ops,
            expects_rail_death: true,
        },
    ]
}

/// Protocol tuning for chaos runs — identical on both backends, with
/// faster tail recovery (capped RTO, quicker rail verdicts) so lossy UDP
/// rounds stay in wall-clock milliseconds.
pub fn chaos_proto() -> ProtoConfig {
    let mut p = SystemConfig::two_link_1g(2).proto;
    p.rto_max = ms(20);
    p.rail_dead_after = 4;
    p
}

/// Outcome of one cell on one backend.
pub struct ChaosCellRun {
    /// Timing-independent fingerprint: `[ops_write, bytes_written,
    /// unique_frames_recv, unique_bytes_recv, notifications,
    /// applied_below, cumulative, completions]`. Identical across backends
    /// for a completing run.
    pub fingerprint: [u64; 8],
    /// What the interposer did (node 0's wrapper + node 1's wrapper).
    pub chaos: ChaosStats,
    /// Total retransmissions the protocol needed (timing-dependent).
    pub retransmits: u64,
    /// NACK resends suppressed by the storm cap (both endpoints).
    pub storm_suppressed: u64,
    /// Backplane-clock nanoseconds the drive took.
    pub elapsed_ns: u64,
    /// Flight-dump artifacts written during the run.
    pub dump_paths: Vec<String>,
}

fn sum_stats(a: ChaosStats, b: ChaosStats) -> ChaosStats {
    ChaosStats {
        frames_seen: a.frames_seen + b.frames_seen,
        dropped: a.dropped + b.dropped,
        duplicated: a.duplicated + b.duplicated,
        reordered: a.reordered + b.reordered,
        corrupt_dropped: a.corrupt_dropped + b.corrupt_dropped,
        blackout_dropped: a.blackout_dropped + b.blackout_dropped,
        stall_held: a.stall_held + b.stall_held,
        delayed: a.delayed + b.delayed,
    }
}

fn patterned(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect()
}

fn workload(ops: usize) -> Vec<(u64, Vec<u8>, OpFlags)> {
    (0..ops)
        .map(|i| {
            let len = 8_000 + (i % 4) * 6_000;
            let flags = if i == ops - 1 {
                OpFlags::ORDERED_NOTIFY
            } else if i % 2 == 0 {
                OpFlags::RELAXED
            } else {
                OpFlags::ORDERED
            };
            (0x10_0000 + (i as u64) * 0x1_0000, patterned(len, i as u8), flags)
        })
        .collect()
}

/// Run `spec` over `backend`, both endpoints wrapped in the interposer and
/// wired to a flight recorder dumping into `dump_dir`. Asserts the
/// exactly-once / fence-ordering contract on completion.
///
/// # Errors
///
/// Propagates the watchdog's typed [`WireError`] when the drive cannot
/// complete — the flight dumps written to `dump_dir` are the post-mortem.
pub fn run_chaos_cell(
    spec: &ChaosCellSpec,
    backend: WireBackend,
    dump_dir: &Path,
) -> Result<ChaosCellRun, WireError> {
    let fr = FlightRecorder::enabled(FlightConfig {
        rto_backoff_trigger: 0,
        fence_stall_trigger_ns: 0,
        dump_on_rail_death: true,
        dump_dir: Some(dump_dir.to_string_lossy().into_owned()),
    });
    let proto = chaos_proto();
    match backend {
        WireBackend::Sim => {
            let cfg = SystemConfig::two_link_1g(2);
            let sim = Sim::new(cfg.seed);
            let cluster = build_cluster(&sim, cfg.cluster_spec());
            let (bpa, bpb) = SimBackplane::pair(&sim, &cluster);
            let mut ca = FaultBackplane::new(bpa, 0, &spec.chaos);
            let mut cb = FaultBackplane::new(bpb, 1, &spec.chaos);
            ca.set_flight(&fr);
            cb.set_flight(&fr);
            run_wrapped(spec, &proto, &mut ca, &mut cb, &fr)
        }
        WireBackend::Udp => {
            let fabric = UdpFabric::new(2).expect("bind loopback sockets");
            let (bpa, bpb) = fabric.pair();
            let mut ca = FaultBackplane::new(bpa, 0, &spec.chaos);
            let mut cb = FaultBackplane::new(bpb, 1, &spec.chaos);
            ca.set_flight(&fr);
            cb.set_flight(&fr);
            run_wrapped(spec, &proto, &mut ca, &mut cb, &fr)
        }
    }
}

fn run_wrapped<BA: Backplane, BB: Backplane>(
    spec: &ChaosCellSpec,
    proto: &ProtoConfig,
    bpa: &mut FaultBackplane<BA>,
    bpb: &mut FaultBackplane<BB>,
    fr: &FlightRecorder,
) -> Result<ChaosCellRun, WireError> {
    let limits = DriveLimits {
        progress_timeout_ns: 2_000_000_000,
        hard_budget_ns: 60_000_000_000,
        fence_stall_limit_ns: 0,
    };
    let spans = SpanRecorder::disabled();
    let (mut a, mut b) = WireEndpoint::pair(proto, bpa.rails(), &spans);
    a.set_flight(fr);
    b.set_flight(fr);
    let writes = workload(spec.ops);
    let total_ops = writes.len() as u64;
    let mut ops = Vec::new();
    for (addr, data, flags) in &writes {
        ops.push(a.write(0, bpa, *addr, Bytes::from(data.clone()), *flags));
    }
    let elapsed_ns = drive_with(
        &mut a,
        bpa,
        &mut b,
        bpb,
        |_, _, _, _| {},
        |a, b| {
            let sa = a.conn_state(0);
            let sb = b.conn_state(0);
            sa.acked == sa.next_seq && sb.applied_below == total_ops && !sb.has_gap
        },
        limits,
    )?;

    for (addr, data, _) in &writes {
        assert_eq!(
            &b.mem_read(*addr, data.len()),
            data,
            "[{}] payload at {addr:#x}",
            spec.name
        );
    }
    let completed: Vec<u64> = std::iter::from_fn(|| a.take_completion().map(|c| c.op)).collect();
    assert_eq!(
        completed, ops,
        "[{}] every op completes exactly once, in order",
        spec.name
    );
    let sb = b.conn_state(0);
    assert_eq!(sb.fence_buffered, 0, "[{}] fences drained", spec.name);

    let sa_stats = a.stats();
    let sb_stats = b.stats();
    Ok(ChaosCellRun {
        fingerprint: [
            sa_stats.ops_write,
            sa_stats.bytes_written,
            sb_stats.data_frames_recv,
            sb_stats.data_bytes_recv,
            sb_stats.notifications,
            sb.applied_below,
            sb.cumulative,
            completed.len() as u64,
        ],
        chaos: sum_stats(bpa.stats(), bpb.stats()),
        retransmits: sa_stats.retransmits() + sb_stats.retransmits(),
        storm_suppressed: a.storm_suppressed() + b.storm_suppressed(),
        elapsed_ns,
        dump_paths: fr
            .dumps()
            .into_iter()
            .filter_map(|d| d.path)
            .collect(),
    })
}
