//! Seeded fault-injection soak tests.
//!
//! Rails fail, flap, stall and burst-lose frames mid-transfer while the
//! protocol must keep delivering every byte exactly once, converge to the
//! surviving rails' goodput, and re-admit recovered rails — all of it
//! bit-for-bit reproducible from the config seed.

use integration_tests::{payload, rig};
use me_trace::{EventKind, FlightConfig, FlightDump, Json};
use multiedge::recvseq::{Admit, SeqTracker};
use multiedge::{OpFlags, RailState, SystemConfig};
use netsim::time::{ms, us, SimTime};
use netsim::{FaultPlan, FaultTarget, GilbertElliott};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A 2-rail connection loses rail 1 mid-transfer: goodput must converge to
/// the surviving rail instead of stalling, and after the link is restored
/// the rail must be probed back into the striping rotation. Every fault and
/// recovery transition must be visible as trace events that reconcile with
/// the protocol counters.
#[test]
fn rail_down_mid_transfer_converges_and_readmits() {
    let mut cfg = SystemConfig::two_link_1g_unordered(2).with_tracing(1 << 17);
    cfg.seed = 7;
    // Cooldown short enough that the probe lands after the 12 ms restore
    // while the transfer is still running.
    cfg.proto.rail_cooldown = ms(10);
    let (sim, cluster, eps, conns) = rig(cfg);
    // Network-level fault events (FaultInjected, FrameDrop) should land in
    // the same trace as the sender's protocol events.
    cluster.net.set_tracer(eps[0].tracer());
    let plan = FaultPlan::new().rail_down(ms(2), 1).rail_up(ms(12), 1);
    cluster.apply_fault_plan(&sim, &plan);

    let total: usize = 4 << 20;
    let data = payload(1, total);
    let expect = data.clone();
    let ep = eps[0].clone();
    let c01 = conns[0][1].unwrap();
    let c10 = conns[1][0].unwrap();
    let done = sim.spawn("writer", async move {
        // Stream in chunks so the transfer spans the whole fault timeline.
        let chunk = 256 << 10;
        let mut handles = Vec::new();
        for (i, part) in data.chunks(chunk).enumerate() {
            handles.push(
                ep.write_bytes(c01, (i * chunk) as u64, part.to_vec(), OpFlags::RELAXED)
                    .await,
            );
        }
        for h in handles {
            h.wait().await;
        }
    });

    // Phase boundaries matching the fault plan: before / during / after.
    sim.run_with_limit(Some(SimTime::ZERO + ms(2)));
    let before = eps[1].conn_stats(c10).data_bytes_recv;
    sim.run_with_limit(Some(SimTime::ZERO + ms(12)));
    let during = eps[1].conn_stats(c10).data_bytes_recv - before;
    sim.run().expect_quiescent();
    assert!(done.try_take().is_some(), "writer task must finish");

    // Exactly-once delivery and payload integrity.
    assert_eq!(eps[1].mem_read(0, total), expect);
    let tx = eps[0].conn_stats(c01);
    let rx = eps[1].conn_stats(c10);
    assert_eq!(
        tx.data_frames_sent, rx.data_frames_recv,
        "every unique frame must be delivered exactly once"
    );

    // Goodput through the outage: one 1-GbE rail moves ~1.25 MB in the
    // 10 ms fault window. Failover is not instant (losses must accumulate
    // to the death threshold first), but well over a third of the
    // single-rail budget must still get through — and it cannot exceed it.
    let single_rail_budget = 1.25e6;
    assert!(
        during as f64 > 0.35 * single_rail_budget,
        "goodput during outage too low: {during} bytes in 10 ms"
    );
    assert!(
        (during as f64) < 1.05 * single_rail_budget,
        "goodput during outage above single-rail capacity: {during}"
    );

    // The rail must have died and been re-admitted after the restore.
    assert!(tx.rail_down_events >= 1, "rail 1 never declared dead");
    assert!(tx.rail_up_events >= 1, "rail 1 never re-admitted");
    assert!(
        eps[0]
            .rail_states(c01)
            .iter()
            .all(|s| *s == RailState::Healthy),
        "all rails healthy at the end: {:?}",
        eps[0].rail_states(c01)
    );

    // Trace events reconcile with the counters.
    let snap = eps[0].tracer().snapshot().expect("tracing enabled");
    assert_eq!(snap.overwritten, 0, "trace ring must hold the whole run");
    assert_eq!(
        snap.count_events(|k| matches!(k, EventKind::RailDown)),
        tx.rail_down_events
    );
    assert_eq!(
        snap.count_events(|k| matches!(k, EventKind::RailUp)),
        tx.rail_up_events
    );
    // A `Rail` target resolves to one NIC per node, and the injection is
    // traced per NIC: 2 plan events × 2 nodes.
    assert_eq!(
        snap.count_events(|k| matches!(k, EventKind::FaultInjected { .. })),
        2 * plan.events().len() as u64
    );
    assert_eq!(
        snap.count_events(|k| matches!(k, EventKind::RtoBackoff { .. })),
        tx.retransmits_rto
    );
}

/// The adaptive RTO must learn the path and detect a total outage much
/// faster than the paper's fixed 10 ms timer, then back off exponentially
/// while the outage lasts (visible in `rto_backoff_max`).
#[test]
fn adaptive_rto_learns_path_and_backs_off_during_outage() {
    let mut cfg = SystemConfig::two_link_1g_unordered(2);
    cfg.seed = 3;
    let (sim, cluster, eps, conns) = rig(cfg);
    // Both rails die at 5 ms and come back at 25 ms: total outage.
    let plan = FaultPlan::new()
        .rail_down(ms(5), 0)
        .rail_down(ms(5), 1)
        .rail_up(ms(25), 0)
        .rail_up(ms(25), 1);
    cluster.apply_fault_plan(&sim, &plan);

    let total: usize = 2 << 20;
    let data = payload(9, total);
    let expect = data.clone();
    let ep = eps[0].clone();
    let c01 = conns[0][1].unwrap();
    let done = sim.spawn("writer", async move {
        let chunk = 128 << 10;
        let mut handles = Vec::new();
        for (i, part) in data.chunks(chunk).enumerate() {
            handles.push(
                ep.write_bytes(c01, (i * chunk) as u64, part.to_vec(), OpFlags::RELAXED)
                    .await,
            );
        }
        for h in handles {
            h.wait().await;
        }
    });
    sim.run_with_limit(Some(SimTime::ZERO + ms(5)));
    // By the time the outage hits, RTT samples must have pulled the timer
    // far below the 10 ms initial value.
    let learned = eps[0].current_rto(c01);
    assert!(
        learned < ms(5),
        "adaptive RTO should have adapted below the initial 10 ms: {learned:?}"
    );
    assert!(eps[0].srtt(c01).is_some(), "RTT samples must have arrived");

    sim.run().expect_quiescent();
    assert!(done.try_take().is_some(), "writer task must finish");
    assert_eq!(eps[1].mem_read(0, total), expect);
    let tx = eps[0].conn_stats(c01);
    assert!(
        tx.rto_backoff_max >= 1,
        "a 20 ms total outage must force exponential backoff (max {})",
        tx.rto_backoff_max
    );
    assert!(tx.retransmits_rto >= 1);
}

/// Build a 2-node cluster with four rails.
fn four_rail_cfg(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::two_link_1g_unordered(2);
    cfg.name = "4Lu-1G".to_string();
    cfg.rails = 4;
    cfg.seed = seed;
    cfg.proto.rail_cooldown = ms(5);
    cfg
}

/// Generate a randomized but seed-deterministic fault schedule over a
/// 4-rail, 2-node cluster: link outages, flaps, NIC stalls and loss bursts,
/// every outage paired with a restore so the run can quiesce.
fn random_plan(rng: &mut SmallRng) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for rail in 0..4usize {
        if rng.gen_bool(0.7) {
            let node = rng.gen_range(0..2usize);
            let down = ms(1 + rng.gen_range(0..10u64));
            let dur = ms(2 + rng.gen_range(0..8u64));
            plan = plan
                .link_down(down, node, rail)
                .link_up(down + dur, node, rail);
        }
        if rng.gen_bool(0.4) {
            let node = rng.gen_range(0..2usize);
            plan = plan.flap_link(
                ms(rng.gen_range(1..8u64)),
                node,
                rail,
                us(200 + rng.gen_range(0..800u64)),
                us(300 + rng.gen_range(0..900u64)),
                2,
            );
        }
        if rng.gen_bool(0.5) {
            let node = rng.gen_range(0..2usize);
            plan = plan.nic_stall(
                ms(rng.gen_range(1..12u64)),
                node,
                rail,
                us(100 + rng.gen_range(0..2000u64)),
            );
        }
        if rng.gen_bool(0.5) {
            let target = FaultTarget::Rail { rail };
            let at = ms(rng.gen_range(0..6u64));
            plan = plan
                .burst(at, target, GilbertElliott::bursty_loss(0.05, 0.25, 0.5))
                .clear_burst(at + ms(2 + rng.gen_range(0..8u64)), target);
        }
    }
    plan
}

/// Soak: randomized seeded fault schedules over a 4-rail topology while a
/// mixed, partly fenced workload runs. Every byte must land exactly once,
/// fence ordering must hold, and the run must be quiescent at the end.
#[test]
fn randomized_fault_schedules_deliver_exactly_once() {
    for seed in [11u64, 23, 47] {
        let (sim, cluster, eps, conns) = rig(four_rail_cfg(seed));
        let mut frng = SmallRng::seed_from_u64(seed ^ 0xFA17);
        cluster.apply_fault_plan(&sim, &random_plan(&mut frng));

        let c01 = conns[0][1].unwrap();
        let c10 = conns[1][0].unwrap();
        let nops = 24usize;
        let region = 64 << 10;
        let mut expects: Vec<(u64, Vec<u8>)> = Vec::new();
        for i in 0..nops {
            expects.push((
                (i * region) as u64,
                payload(seed.wrapping_add(i as u64), region / 2 + i * 512),
            ));
        }
        // Fence-ordering check: two overlapping writes to one region where
        // the second carries a backward fence — it must apply last, no
        // matter how the rails reorder or retransmit the fragments.
        let clobber_addr = (nops * region) as u64;
        let first = payload(seed ^ 1, 40_000);
        let last = payload(seed ^ 2, 40_000);
        expects.push((clobber_addr, last.clone()));

        let ep = eps[0].clone();
        let ops = expects.clone();
        let done = sim.spawn("writer", async move {
            let mut handles = Vec::new();
            for (addr, data) in ops.iter().take(nops) {
                handles.push(
                    ep.write_bytes(c01, *addr, data.clone(), OpFlags::RELAXED)
                        .await,
                );
            }
            handles.push(
                ep.write_bytes(c01, clobber_addr, first, OpFlags::RELAXED)
                    .await,
            );
            handles.push(
                ep.write_bytes(
                    c01,
                    clobber_addr,
                    last,
                    OpFlags::RELAXED.with_fence_backward(),
                )
                .await,
            );
            for h in handles {
                h.wait().await;
            }
        });
        sim.run().expect_quiescent();
        assert!(done.try_take().is_some(), "seed {seed}: writer must finish");

        for (addr, data) in &expects {
            assert_eq!(
                &eps[1].mem_read(*addr, data.len()),
                data,
                "seed {seed}: payload at {addr:#x} corrupted"
            );
        }
        let tx = eps[0].conn_stats(c01);
        let rx = eps[1].conn_stats(c10);
        assert_eq!(
            tx.data_frames_sent, rx.data_frames_recv,
            "seed {seed}: exactly-once delivery violated"
        );
        // The fabric's rails stay FIFO under every fault: a proof of loss
        // never NACKs a frame that was only late.
        assert_eq!(eps[1].spurious_proofs(), 0, "seed {seed}: unsound proof");

        // Determinism: the same seed must reproduce the same fault pattern
        // and therefore the same protocol-level loss accounting.
        let (sim2, cluster2, eps2, conns2) = rig(four_rail_cfg(seed));
        let mut frng2 = SmallRng::seed_from_u64(seed ^ 0xFA17);
        cluster2.apply_fault_plan(&sim2, &random_plan(&mut frng2));
        let ep2 = eps2[0].clone();
        let c01b = conns2[0][1].unwrap();
        let ops2 = expects.clone();
        let first2 = payload(seed ^ 1, 40_000);
        let last2 = payload(seed ^ 2, 40_000);
        sim2.spawn("writer", async move {
            let mut handles = Vec::new();
            for (addr, data) in ops2.iter().take(nops) {
                handles.push(
                    ep2.write_bytes(c01b, *addr, data.clone(), OpFlags::RELAXED)
                        .await,
                );
            }
            handles.push(
                ep2.write_bytes(c01b, clobber_addr, first2, OpFlags::RELAXED)
                    .await,
            );
            handles.push(
                ep2.write_bytes(
                    c01b,
                    clobber_addr,
                    last2,
                    OpFlags::RELAXED.with_fence_backward(),
                )
                .await,
            );
            for h in handles {
                h.wait().await;
            }
        });
        sim2.run().expect_quiescent();
        let tx2 = eps2[0].conn_stats(c01b);
        assert_eq!(
            (tx.retransmits_nack, tx.retransmits_rto, tx.rail_down_events),
            (
                tx2.retransmits_nack,
                tx2.retransmits_rto,
                tx2.rail_down_events
            ),
            "seed {seed}: fault schedule not reproducible"
        );
    }
}

/// A scratch dump dir under the target tmpdir, cleaned per scenario.
fn flight_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Arm the flight recorder (with exactly one trigger class enabled), stream
/// a chunked transfer through `plan`, verify delivery, and return node 0's
/// retained post-mortem dumps.
fn soak_dumps(
    cfg: SystemConfig,
    fc: FlightConfig,
    plan: FaultPlan,
    total: usize,
) -> Vec<FlightDump> {
    let cfg = cfg.with_spans(1 << 13).with_flight(fc);
    let (sim, cluster, eps, conns) = rig(cfg);
    cluster.apply_fault_plan(&sim, &plan);
    let c01 = conns[0][1].unwrap();
    let data = payload(5, total);
    let expect = data.clone();
    let ep = eps[0].clone();
    let done = sim.spawn("flight-writer", async move {
        let chunk = 128 << 10;
        let mut handles = Vec::new();
        for (i, part) in data.chunks(chunk).enumerate() {
            handles.push(
                ep.write_bytes(c01, (i * chunk) as u64, part.to_vec(), OpFlags::RELAXED)
                    .await,
            );
        }
        for h in handles {
            h.wait().await;
        }
    });
    sim.run().expect_quiescent();
    assert!(done.try_take().is_some(), "writer must finish");
    assert_eq!(eps[1].mem_read(0, total), expect, "payload integrity");
    eps[0].flight_recorder().dumps()
}

/// Artifact checks shared by every outage class: a dump fired with the
/// expected trigger, its artifact file was written, parses back to the
/// retained document, is schema-stamped, and carries a non-empty timeline.
fn assert_dump_artifact(class: &str, dumps: &[FlightDump]) {
    assert!(
        !dumps.is_empty(),
        "{class}: outage produced no post-mortem dump"
    );
    let dump = &dumps[0];
    assert_eq!(dump.trigger, class, "wrong trigger class");
    let path = dump
        .path
        .as_ref()
        .expect("dump_dir set => artifact written");
    let text = std::fs::read_to_string(path).expect("artifact readable");
    let parsed = Json::parse(&text).expect("artifact is valid JSON");
    assert_eq!(parsed, dump.json, "{class}: artifact diverges from dump");
    me_trace::require_schema(&parsed).expect("dump artifacts are schema-stamped");
    assert!(
        parsed
            .get("events")
            .and_then(|e| e.items())
            .is_some_and(|e| !e.is_empty()),
        "{class}: dump carries no timeline"
    );
}

/// Outage class 1: rail death. Only the rail-death trigger is armed, so the
/// dump the outage produces is attributable to exactly that class.
#[test]
fn rail_death_outage_class_dumps_post_mortem() {
    let fc = FlightConfig {
        rto_backoff_trigger: 0,
        fence_stall_trigger_ns: 0,
        dump_dir: Some(
            flight_dir("soak_fr_rail_death")
                .to_string_lossy()
                .into_owned(),
        ),
        ..FlightConfig::default()
    };
    let mut cfg = SystemConfig::two_link_1g_unordered(2);
    cfg.seed = 21;
    let plan = FaultPlan::new().rail_down(ms(2), 1).rail_up(ms(40), 1);
    let dumps = soak_dumps(cfg, fc, plan, 3 << 20);
    assert_dump_artifact("rail_death", &dumps);
}

/// Outage class 2: RTO exponential backoff. Both rails die so every
/// retransmission times out and the backoff exponent climbs past the
/// trigger; rail-death dumps are disabled to isolate the class.
#[test]
fn rto_backoff_outage_class_dumps_post_mortem() {
    let fc = FlightConfig {
        rto_backoff_trigger: 2,
        fence_stall_trigger_ns: 0,
        dump_on_rail_death: false,
        dump_dir: Some(
            flight_dir("soak_fr_rto_backoff")
                .to_string_lossy()
                .into_owned(),
        ),
    };
    let mut cfg = SystemConfig::two_link_1g_unordered(2);
    cfg.seed = 22;
    let plan = FaultPlan::new()
        .rail_down(ms(3), 0)
        .rail_down(ms(3), 1)
        .rail_up(ms(60), 0)
        .rail_up(ms(60), 1);
    let dumps = soak_dumps(cfg, fc, plan, 2 << 20);
    assert_dump_artifact("rto_backoff", &dumps);
    // With the other triggers disarmed, every retained dump is this class.
    assert!(dumps.iter().all(|d| d.trigger == "rto_backoff"));
}

/// Outage class 3: fence stall. Ordered mode holds later fragments back
/// until retransmission fills the seq gap the dead rail left, so releases
/// stall well past the 1 ms trigger.
#[test]
fn fence_stall_outage_class_dumps_post_mortem() {
    let fc = FlightConfig {
        rto_backoff_trigger: 0,
        fence_stall_trigger_ns: 1_000_000,
        dump_on_rail_death: false,
        dump_dir: Some(
            flight_dir("soak_fr_fence_stall")
                .to_string_lossy()
                .into_owned(),
        ),
    };
    let mut cfg = SystemConfig::two_link_1g(2);
    cfg.seed = 23;
    let plan = FaultPlan::new().rail_down(ms(2), 1).rail_up(ms(30), 1);
    let dumps = soak_dumps(cfg, fc, plan, 2 << 20);
    assert_dump_artifact("fence_stall", &dumps);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The receive-side gap tracker must admit every sequence exactly once
    /// under arbitrary duplication and reordering (the frame patterns that
    /// retransmission over flapping rails produces), and its gap bookkeeping
    /// must stay consistent at every step.
    #[test]
    fn seq_tracker_exactly_once_under_dup_and_reorder(
        n in 1u64..160,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Every sequence delivered 1–3 times (original + retransmits)…
        let mut deliveries: Vec<u64> = Vec::new();
        for s in 0..n {
            for _ in 0..1 + rng.gen_range(0..3u32) {
                deliveries.push(s);
            }
        }
        // …in a fully shuffled order (Fisher–Yates).
        for i in (1..deliveries.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            deliveries.swap(i, j);
        }

        // The whole run is one window: any arrival order stays inside it.
        let mut t = SeqTracker::with_window(n as usize);
        let mut admitted = vec![0u32; n as usize];
        let mut dups = 0u64;
        for &s in &deliveries {
            match t.admit(s) {
                Admit::New { .. } => admitted[s as usize] += 1,
                Admit::Duplicate => dups += 1,
            }
            prop_assert!(t.cumulative() <= t.frontier());
            let missing = t.missing_ranges();
            prop_assert_eq!(missing.is_empty(), !t.has_gap());
            for &(from, to) in &missing {
                prop_assert!(from < to, "empty missing range");
                prop_assert!(to <= t.frontier());
            }
        }
        prop_assert!(admitted.iter().all(|&c| c == 1), "a seq was not admitted exactly once");
        prop_assert_eq!(t.cumulative(), n);
        prop_assert!(!t.has_gap());
        prop_assert_eq!(dups, deliveries.len() as u64 - n);
        prop_assert_eq!(t.ooo_held(), 0);
    }
}
