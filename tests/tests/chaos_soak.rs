//! Chaos soak, the one chaos harness: identical seeded fault schedules
//! driven through the backend-agnostic [`FaultBackplane`] interposer over
//! BOTH backends — the deterministic simulator and real UDP loopback
//! sockets. Every schedule must end in exactly-once delivery with fence
//! ordering intact, and the two backends must agree on every
//! timing-independent protocol counter. On the simulator a schedule must
//! also inject what it is named for. Liveness scenarios (total blackout)
//! must terminate with a typed [`WireError`] and a `watchdog` flight dump
//! instead of hanging; rail blackouts must leave a `rail_death`
//! post-mortem artifact on both backends.

use bytes::Bytes;
use me_trace::{FlightConfig, FlightRecorder, SpanRecorder};
use multiedge::backplane::{
    drain, drive_with, Backplane, ChaosConfig, ChaosStats, DriveLimits, FaultBackplane,
    SimBackplane, UdpBackplane, UdpFabric, WireEndpoint, WireError,
};
use multiedge::{OpFlags, ProtoConfig, SystemConfig};
use netsim::time::ms;
use netsim::{build_cluster, FaultPlan, FaultTarget, GilbertElliott, Sim};

/// Liveness bounds for a soak drive. On UDP the clock is wall time, so
/// these are real seconds: two without progress trips the watchdog, thirty
/// total caps a slow CI machine.
fn soak_limits() -> DriveLimits {
    DriveLimits {
        progress_timeout_ns: 2_000_000_000,
        hard_budget_ns: 30_000_000_000,
        fence_stall_limit_ns: 0,
    }
}

/// Protocol tuning for chaos runs: identical on both backends, with faster
/// tail recovery (capped RTO, quicker rail verdicts) so a lossy UDP run
/// stays in wall-clock milliseconds.
fn chaos_proto() -> ProtoConfig {
    let mut p = SystemConfig::two_link_1g(2).proto;
    p.rto_max = netsim::time::ms(20);
    p.rail_dead_after = 4;
    p
}

fn patterned(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ salt)
        .collect()
}

/// The soak workload: mixed sizes, relaxed and fenced ops, one notify.
fn workload() -> Vec<(u64, Vec<u8>, OpFlags)> {
    vec![
        (0x1_0000, patterned(12_000, 1), OpFlags::RELAXED),
        (0x2_0000, patterned(30_000, 2), OpFlags::ORDERED),
        (0x4_0000, patterned(8_000, 3), OpFlags::RELAXED),
        (0x8_0000, patterned(20_000, 4), OpFlags::ORDERED),
        (0x10_0000, patterned(5_000, 5), OpFlags::ORDERED_NOTIFY),
        (0x20_0000, patterned(16_000, 6), OpFlags::RELAXED),
    ]
}

/// Both nodes' backplanes, each wrapped in the chaos interposer.
type Pair<B> = (FaultBackplane<B>, FaultBackplane<B>);

fn wrap<B: Backplane>((a, b): (B, B), chaos: &ChaosConfig) -> Pair<B> {
    (
        FaultBackplane::new(a, 0, chaos),
        FaultBackplane::new(b, 1, chaos),
    )
}

/// Two nodes on two rails of the simulated fabric, under `chaos`.
fn sim_pair(chaos: &ChaosConfig) -> Pair<SimBackplane> {
    let cfg = SystemConfig::two_link_1g(2);
    let sim = Sim::new(cfg.seed);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    wrap(SimBackplane::pair(&sim, &cluster), chaos)
}

/// Two nodes on two rails of real UDP loopback sockets, under `chaos`.
fn udp_pair(chaos: &ChaosConfig) -> Pair<UdpBackplane> {
    wrap(
        UdpFabric::new(2).expect("bind loopback sockets").pair(),
        chaos,
    )
}

/// Timing-independent fingerprint of a *completed* chaos run. Unique
/// deliveries (`data_frames_recv` counts first copies only), byte totals,
/// fence frontiers and op counts are workload-determined once every op
/// lands exactly once — identical on both backends no matter how the loss
/// pattern unfolded. Retransmit, duplicate and out-of-order counters are
/// timing-dependent and deliberately excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChaosFingerprint {
    ops_write: u64,
    bytes_written: u64,
    unique_frames_recv: u64,
    unique_bytes_recv: u64,
    notifications: u64,
    applied_below: u64,
    cumulative: u64,
    completions: u64,
}

/// Outcome of one schedule on one backend.
struct ChaosRun {
    fp: ChaosFingerprint,
    /// What the two interposers injected, added together.
    chaos: ChaosStats,
    storm_suppressed: u64,
    /// First transmissions that arrived late for a sequence the proof of
    /// loss had passed, both endpoints added together.
    spurious_proofs: u64,
}

fn sum(a: ChaosStats, b: ChaosStats) -> ChaosStats {
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

/// Issue the workload from node 0, drive both endpoints to completion
/// under [`soak_limits`], and assert the exactly-once / fence-ordering
/// contract before returning the fingerprint. `flight`, when given, is
/// wired to both endpoints and both interposers. `label` names the
/// backend+schedule in assertion messages.
fn run_schedule<B: Backplane>(
    proto: &ProtoConfig,
    (mut bpa, mut bpb): Pair<B>,
    flight: Option<&FlightRecorder>,
    label: &str,
) -> Result<ChaosRun, WireError> {
    let spans = SpanRecorder::disabled();
    let (mut a, mut b) = WireEndpoint::pair(proto, bpa.rails(), &spans);
    if let Some(fr) = flight {
        a.set_flight(fr);
        b.set_flight(fr);
        bpa.set_flight(fr);
        bpb.set_flight(fr);
    }
    let writes = workload();
    let total_ops = writes.len() as u64;
    let mut ops = Vec::new();
    for (addr, data, flags) in &writes {
        ops.push(a.write(0, &mut bpa, *addr, Bytes::from(data.clone()), *flags));
    }
    drive_with(
        &mut a,
        &mut bpa,
        &mut b,
        &mut bpb,
        |_, _, _, _| {},
        |a, b| {
            let sa = a.conn_state(0);
            let sb = b.conn_state(0);
            sa.acked == sa.next_seq && sb.applied_below == total_ops && !sb.has_gap
        },
        soak_limits(),
    )?;

    // Exactly-once delivery: every byte of every op is present exactly as
    // written, every op completed exactly once, in issue order.
    for (addr, data, _) in &writes {
        assert_eq!(
            &b.mem_read(*addr, data.len()),
            data,
            "[{label}] payload at {addr:#x}"
        );
    }
    let completed: Vec<u64> = std::iter::from_fn(|| a.take_completion().map(|c| c.op)).collect();
    assert_eq!(
        completed, ops,
        "[{label}] ops complete exactly once, in order"
    );
    let n = b
        .take_notification()
        .unwrap_or_else(|| panic!("[{label}] the notify op must notify"));
    assert_eq!(
        (n.from_node, n.addr),
        (0, 0x10_0000),
        "[{label}] notification"
    );
    assert!(
        b.take_notification().is_none(),
        "[{label}] notification arrives exactly once"
    );
    // Fence ordering: every op applied in order, nothing left buffered.
    let sb = b.conn_state(0);
    assert_eq!(
        sb.applied_below, total_ops,
        "[{label}] all ops fence-applied"
    );
    assert_eq!(
        sb.fence_buffered, 0,
        "[{label}] no fragment left behind a fence"
    );
    assert!(!sb.has_gap, "[{label}] no receive gap after completion");

    let sa = a.stats();
    let sbs = b.stats();
    Ok(ChaosRun {
        fp: ChaosFingerprint {
            ops_write: sa.ops_write,
            bytes_written: sa.bytes_written,
            unique_frames_recv: sbs.data_frames_recv,
            unique_bytes_recv: sbs.data_bytes_recv,
            notifications: sbs.notifications,
            applied_below: sb.applied_below,
            cumulative: sb.cumulative,
            completions: completed.len() as u64,
        },
        chaos: sum(bpa.stats(), bpb.stats()),
        storm_suppressed: a.storm_suppressed() + b.storm_suppressed(),
        spurious_proofs: a.spurious_proofs() + b.spurious_proofs(),
    })
}

/// Whether a run's [`ChaosStats`] show what its schedule is named for.
type Injects = fn(&ChaosStats) -> bool;

/// The seeded schedules of the soak: random loss/dup/reorder/corruption, a
/// Gilbert–Elliott burst process, and a scripted NIC stall, each with the
/// counters it must move. (Scenarios with scripted blackouts get dedicated
/// tests below because they also assert flight-dump artifacts.)
fn schedules() -> Vec<(&'static str, ChaosConfig, Injects)> {
    vec![
        (
            "lossy",
            ChaosConfig::new(0xC0FFEE)
                .with_drop(0.05)
                .with_dup(0.02)
                .with_reorder(0.05, 200_000)
                .with_corrupt(0.02),
            |s| s.dropped > 0 && s.duplicated > 0 && s.reordered > 0 && s.corrupt_dropped > 0,
        ),
        (
            "bursty",
            ChaosConfig::new(0xB00B5)
                .with_reorder(0.03, 100_000)
                .with_plan(FaultPlan::new().burst(
                    ms(0),
                    FaultTarget::Rail { rail: 0 },
                    GilbertElliott::bursty_loss(0.02, 0.4, 0.6),
                )),
            |s| s.dropped > 0,
        ),
        (
            "stall",
            ChaosConfig::new(0x5EED)
                .with_drop(0.03)
                .with_plan(FaultPlan::new().nic_stall(ms(0), 1, 0, ms(3))),
            |s| s.stall_held > 0,
        ),
    ]
}

/// Every schedule completes exactly once on both backends, with identical
/// fingerprints. Only the simulator, which is deterministic, is held to
/// the injection check and to the count of spurious proofs of loss: on UDP
/// a stall at t = 0 can be over before the first wall-clock send.
#[test]
fn seeded_schedules_deliver_exactly_once_on_both_backends() {
    let proto = chaos_proto();
    for (name, chaos, injects) in schedules() {
        let sim = run_schedule(&proto, sim_pair(&chaos), None, &format!("sim/{name}"))
            .unwrap_or_else(|e| panic!("sim run of schedule '{name}' failed: {e}"));
        assert!(
            injects(&sim.chaos),
            "schedule '{name}' did not inject what it is named for on the simulator: {:?}",
            sim.chaos
        );
        // The reorder lane holds frames back within a rail, which breaks
        // the premise of the proof of loss; the other lanes keep rails FIFO.
        assert_eq!(
            sim.spurious_proofs > 0,
            chaos.reorder > 0.0,
            "schedule '{name}': {} spurious proofs",
            sim.spurious_proofs
        );
        let udp = run_schedule(&proto, udp_pair(&chaos), None, &format!("udp/{name}"))
            .unwrap_or_else(|e| panic!("udp run of schedule '{name}' failed: {e}"));
        assert_eq!(
            sim.fp, udp.fp,
            "schedule '{name}': timing-independent fingerprints must be \
             identical across backends"
        );
    }
}

/// A flight recorder whose only dump trigger is the one under test,
/// dumping into a unique-per-test scratch dir under the target directory.
fn flight_for(name: &str, dump_on_rail_death: bool) -> FlightRecorder {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    FlightRecorder::enabled(FlightConfig {
        rto_backoff_trigger: 0,
        fence_stall_trigger_ns: 0,
        dump_on_rail_death,
        dump_dir: Some(dir.to_string_lossy().into_owned()),
    })
}

/// One rail dark from the start: the run must complete on the surviving
/// rail with the same fingerprint on both backends, rail health must
/// declare the dead rail, and the flight recorder must leave a
/// `rail_death` post-mortem artifact — on both backends.
#[test]
fn rail_blackout_completes_and_dumps_rail_death() {
    let proto = chaos_proto();
    let chaos = ChaosConfig::new(0xDEAD).with_plan(FaultPlan::new().rail_down(ms(0), 1));
    let sim_fr = flight_for("chaos_rail_death_sim", true);
    let udp_fr = flight_for("chaos_rail_death_udp", true);
    let sim = run_schedule(&proto, sim_pair(&chaos), Some(&sim_fr), "sim/rail-blackout")
        .unwrap_or_else(|e| panic!("[sim/rail-blackout] must survive on the live rail: {e}"));
    let udp = run_schedule(&proto, udp_pair(&chaos), Some(&udp_fr), "udp/rail-blackout")
        .unwrap_or_else(|e| panic!("[udp/rail-blackout] must survive on the live rail: {e}"));
    assert_eq!(sim.fp.ops_write, workload().len() as u64);
    assert!(
        sim.chaos.blackout_dropped > 0,
        "the blackout must drop frames on the simulator: {:?}",
        sim.chaos
    );
    assert_eq!(
        sim.fp, udp.fp,
        "rail blackout: timing-independent fingerprints must be identical across backends"
    );

    for (label, fr) in [
        ("sim/rail-blackout", &sim_fr),
        ("udp/rail-blackout", &udp_fr),
    ] {
        let dumps = fr.dumps();
        assert!(
            dumps.iter().any(|d| d.trigger == "rail_death"),
            "[{label}] rail blackout must produce a rail_death dump \
             (got {:?})",
            dumps.iter().map(|d| d.trigger.clone()).collect::<Vec<_>>()
        );
        let dump = dumps.iter().find(|d| d.trigger == "rail_death").unwrap();
        let path = dump
            .path
            .as_ref()
            .expect("dump_dir set => artifact written");
        let text = std::fs::read_to_string(path).expect("dump artifact readable");
        let parsed = me_trace::Json::parse(&text).expect("artifact is valid JSON");
        assert_eq!(
            parsed.get("trigger").and_then(|t| t.as_str()),
            Some("rail_death"),
            "[{label}] artifact carries the trigger"
        );
    }
}

/// Every rail dark from the start: the drive must terminate with a typed
/// [`WireError`] within the watchdog deadline — never hang — and leave a
/// `watchdog` flight dump, on both backends.
#[test]
fn total_blackout_trips_typed_error_within_deadline() {
    let chaos =
        ChaosConfig::new(0x0FF).with_plan(FaultPlan::new().rail_down(ms(0), 0).rail_down(ms(0), 1));
    blackout_trips("sim", sim_pair(&chaos));
    blackout_trips("udp", udp_pair(&chaos));
}

fn blackout_trips<B: Backplane>(backend: &str, (mut ca, mut cb): Pair<B>) {
    // Tight bounds: the wall clock proves the "never hangs" claim on UDP.
    let limits = DriveLimits {
        progress_timeout_ns: 300_000_000,
        hard_budget_ns: 5_000_000_000,
        fence_stall_limit_ns: 0,
    };
    let fr = flight_for(&format!("chaos_watchdog_{backend}"), false);
    let spans = SpanRecorder::disabled();
    let (mut a, mut b) = WireEndpoint::pair(&chaos_proto(), ca.rails(), &spans);
    a.set_flight(&fr);
    b.set_flight(&fr);
    let started = std::time::Instant::now();
    let op = a.write(
        0,
        &mut ca,
        0x1000,
        Bytes::from(patterned(10_000, 9)),
        OpFlags::ORDERED,
    );
    let err = drain(&mut a, &mut ca, &mut b, &mut cb, limits)
        .expect_err("a fully dark fabric cannot quiesce");
    // UDP runs on the wall clock: the typed error must arrive within
    // the hard budget (plus slack for a loaded CI machine), which is
    // the "never hangs" guarantee in wall time.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "[{backend}] watchdog must trip within its deadline, took {:?}",
        started.elapsed()
    );
    assert!(
        matches!(
            err,
            WireError::PeerUnreachable { .. }
                | WireError::AllRailsDead { .. }
                | WireError::Stalled { .. }
        ),
        "[{backend}] blackout classifies as unreachable/dead-rails, got {err}"
    );
    // The watchdog trip left a post-mortem dump on disk.
    let dumps = fr.dumps();
    assert!(
        dumps.iter().any(|d| d.trigger == "watchdog"),
        "[{backend}] watchdog trip must dump (got {:?})",
        dumps.iter().map(|d| d.trigger.clone()).collect::<Vec<_>>()
    );
    // Graceful failure: the casualty list names the abandoned op and
    // the endpoint stops retrying.
    let casualties = a.abort_pending(0);
    assert_eq!(
        casualties,
        vec![op],
        "[{backend}] abort reports the lost op"
    );
}

/// Graceful shutdown under loss: `drain` flushes queued sends, closes
/// gaps and empties fences before returning, so dropping the endpoints
/// abandons nothing.
#[test]
fn drain_quiesces_under_loss_on_both_backends() {
    let chaos = ChaosConfig::new(0xD0D0).with_drop(0.06).with_dup(0.02);
    drain_quiesces("sim", sim_pair(&chaos));
    drain_quiesces("udp", udp_pair(&chaos));
}

fn drain_quiesces<B: Backplane>(backend: &str, (mut ca, mut cb): Pair<B>) {
    let spans = SpanRecorder::disabled();
    let (mut a, mut b) = WireEndpoint::pair(&chaos_proto(), ca.rails(), &spans);
    let writes = workload();
    for (addr, data, flags) in &writes {
        a.write(0, &mut ca, *addr, Bytes::from(data.clone()), *flags);
    }
    drain(&mut a, &mut ca, &mut b, &mut cb, soak_limits())
        .unwrap_or_else(|e| panic!("{backend} drain: {e}"));
    assert!(
        a.quiesced() && b.quiesced(),
        "{backend}: both sides quiesced"
    );
    for (addr, data, _) in &writes {
        assert_eq!(
            &b.mem_read(*addr, data.len()),
            data,
            "{backend}: payload at {addr:#x}"
        );
    }
}

/// The NACK storm cap: with a burst budget of 1 under heavy loss, the
/// endpoint must suppress (and later recover) the excess retransmissions
/// instead of flooding the fabric — and the run still completes
/// exactly-once.
#[test]
fn nack_storm_cap_suppresses_and_still_completes() {
    let mut proto = chaos_proto();
    proto.nack_resend_burst = 1;
    let chaos = ChaosConfig::new(0x57012).with_drop(0.20);
    let run =
        run_schedule(&proto, sim_pair(&chaos), None, "sim/storm").expect("storm run completes");
    assert!(
        run.storm_suppressed > 0,
        "heavy loss with burst budget 1 must suppress some NACK resends"
    );
}
