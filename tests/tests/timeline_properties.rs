//! Property tests for the delta-encoded timeline ring
//! ([`me_trace::Timeline`]): under arbitrary drive scripts — random
//! intervals, ring capacities, clock advances, and sampling cadences —
//! every retained counter delta equals the true increase over its window,
//! the telescoping invariant `base + Σ retained deltas == final raw`
//! survives eviction, and the JSONL artifact round-trips into the exact
//! cumulative series the sampler observed.
//!
//! Below them, the protocol's one sampler (`ProtoCore::sample`) end to end:
//! the simulator and the wire driver commit the same column set and both
//! carry a health monitor, a fence stall is visible on the simulator, and
//! an idle tail is not a stall.

use bytes::Bytes;
use integration_tests::rig;
use me_trace::{
    imbalance, IncidentCause, SourceKind, SpanRecorder, Timeline, TimelineBuilder, TimelineDoc,
};
use multiedge::backplane::{drain, DriveLimits, SimBackplane, WireEndpoint};
use multiedge::{OpFlags, SystemConfig};
use multiedge_bench::doctor::reconcile_proto;
use netsim::time::us;
use netsim::{build_cluster, FaultPlan, Sim};
use proptest::prelude::*;

/// One drive step: advance the clock by `dt`, grow the two counters by
/// `(da, db)`, move the gauge to `g`, then maybe commit a row.
#[derive(Debug, Clone)]
struct Step {
    dt: u64,
    da: u64,
    db: u64,
    g: u64,
    force_sample: bool,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (1u64..5_000, 0u64..1_000, 0u64..7, 0u64..100, 0u64..10).prop_map(|(dt, da, db, g, f)| {
            Step {
                dt,
                da,
                db,
                g,
                // ~30% of steps force an off-grid commit.
                force_sample: f < 3,
            }
        }),
        1..120,
    )
}

/// Everything the shadow model knows about one committed row.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShadowRow {
    t_ns: u64,
    raw_a: u64,
    raw_b: u64,
    gauge: u64,
}

/// Drive a 2-counter + 1-gauge timeline through `script`, sampling on the
/// interval grid plus wherever the script forces an off-grid commit, and
/// record what a perfect observer would have seen at each commit.
fn drive(script: &[Step], interval_ns: u64, capacity: usize) -> (Timeline, Vec<ShadowRow>) {
    let mut b = TimelineBuilder::new();
    let ca = b.counter("a");
    let cb = b.counter("b");
    let gg = b.gauge("g");
    let mut tl = b.build(interval_ns, capacity, 0);
    let (mut now, mut raw_a, mut raw_b) = (0u64, 0u64, 0u64);
    let mut shadow = Vec::new();
    for s in script {
        now += s.dt;
        raw_a += s.da;
        raw_b += s.db;
        tl.set(ca, raw_a);
        tl.set(cb, raw_b);
        tl.set(gg, s.g);
        if tl.due(now) || s.force_sample {
            tl.sample(now);
            shadow.push(ShadowRow {
                t_ns: now,
                raw_a,
                raw_b,
                gauge: s.g,
            });
        }
    }
    (tl, shadow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// For every counter: `base + Σ retained deltas == final raw == the
    /// true cumulative total`, no matter the cadence or how many rows the
    /// ring evicted; and the accounting identity
    /// `samples_total == retained + evicted` holds.
    #[test]
    fn counters_telescope_through_eviction(
        script in steps(),
        interval_ns in 1u64..20_000,
        capacity in 1usize..12,
    ) {
        let (tl, shadow) = drive(&script, interval_ns, capacity);
        let (ca, cb) = (tl.source_id("a").unwrap(), tl.source_id("b").unwrap());
        // `final_raw` is the reading at the last *committed* row — steps
        // staged after the final sample are by design not in the ring yet.
        if let Some(last) = shadow.last() {
            prop_assert_eq!(tl.final_raw(ca), last.raw_a);
            prop_assert_eq!(tl.final_raw(cb), last.raw_b);
        }
        prop_assert_eq!(tl.base_raw(ca) + tl.column_sum(ca), tl.final_raw(ca));
        prop_assert_eq!(tl.base_raw(cb) + tl.column_sum(cb), tl.final_raw(cb));
        prop_assert_eq!(tl.samples_total(), tl.len() as u64 + tl.evicted());
        prop_assert_eq!(shadow.len() as u64, tl.samples_total());
    }

    /// Every retained row's counter delta equals the true increase over
    /// its window (monotone sources never produce a "negative" delta —
    /// the stored value is exactly `raw[i] − raw[i−1]`), gauge cells hold
    /// the raw reading at commit time, and timestamps are the commit
    /// instants in strictly increasing order.
    #[test]
    fn retained_rows_mirror_the_true_series(
        script in steps(),
        interval_ns in 1u64..20_000,
        capacity in 1usize..12,
    ) {
        let (tl, shadow) = drive(&script, interval_ns, capacity);
        let (ca, cb, gg) = (
            tl.source_id("a").unwrap(),
            tl.source_id("b").unwrap(),
            tl.source_id("g").unwrap(),
        );
        // The retained window is the shadow's suffix.
        let skip = shadow.len() - tl.len();
        let mut prev = if skip == 0 {
            ShadowRow { t_ns: 0, raw_a: 0, raw_b: 0, gauge: 0 }
        } else {
            shadow[skip - 1].clone()
        };
        prop_assert_eq!(tl.base_raw(ca), prev.raw_a);
        prop_assert_eq!(tl.base_raw(cb), prev.raw_b);
        for (i, expect) in shadow[skip..].iter().enumerate() {
            let (t, vals) = tl.row(i);
            prop_assert_eq!(t, expect.t_ns);
            prop_assert!(t > prev.t_ns || (i == 0 && skip == 0 && t == expect.t_ns));
            prop_assert_eq!(vals[ca.index()], expect.raw_a - prev.raw_a);
            prop_assert_eq!(vals[cb.index()], expect.raw_b - prev.raw_b);
            prop_assert_eq!(vals[gg.index()], expect.gauge);
            prev = expect.clone();
        }
    }

    /// The JSONL artifact round-trips: the parsed document reconciles,
    /// reproduces every header fact, and [`TimelineDoc::decode`] rebuilds
    /// the exact cumulative counter series and raw gauge series the
    /// sampler observed.
    #[test]
    fn jsonl_round_trips_to_the_exact_series(
        script in steps(),
        interval_ns in 1u64..20_000,
        capacity in 1usize..12,
    ) {
        let (tl, shadow) = drive(&script, interval_ns, capacity);
        let doc = TimelineDoc::parse_jsonl(&tl.to_jsonl()).unwrap();
        doc.reconcile().unwrap();
        prop_assert_eq!(doc.interval_ns, tl.interval_ns());
        prop_assert_eq!(doc.base_time_ns, tl.base_time_ns());
        prop_assert_eq!(doc.evicted, tl.evicted());
        prop_assert_eq!(doc.samples_total, tl.samples_total());
        prop_assert_eq!(doc.samples.len(), tl.len());
        prop_assert_eq!(doc.sources.len(), tl.sources());
        for (c, s) in doc.sources.iter().enumerate() {
            prop_assert_eq!(&s.name, &tl.names()[c]);
            prop_assert_eq!(s.kind, tl.kinds()[c]);
        }
        let skip = shadow.len() - tl.len();
        let decoded_a = doc.decode(doc.column("a").unwrap());
        let decoded_g = doc.decode(doc.column("g").unwrap());
        for (i, expect) in shadow[skip..].iter().enumerate() {
            prop_assert_eq!(decoded_a[i], (expect.t_ns, expect.raw_a));
            prop_assert_eq!(decoded_g[i], (expect.t_ns, expect.gauge));
        }
        // Counter columns never decode to a decreasing series.
        let mut last = doc.sources[doc.column("a").unwrap()].base;
        for (_, raw) in &decoded_a {
            prop_assert!(*raw >= last);
            last = *raw;
        }
        let _ = SourceKind::Counter; // used via kinds() comparison above
    }

    /// The imbalance index is scale-aware: `max/mean ≥ 1` always, exactly
    /// 1 for uniform rows, and the named member is a true argmax.
    #[test]
    fn imbalance_names_a_true_argmax(vals in proptest::collection::vec(0u64..1_000, 1..16)) {
        let (idx, hot) = imbalance(&vals);
        prop_assert!(idx >= 1.0);
        let max = *vals.iter().max().unwrap();
        if vals.iter().sum::<u64>() > 0 {
            prop_assert_eq!(vals[hot], max);
            let mean = vals.iter().sum::<u64>() as f64 / vals.len() as f64;
            prop_assert!((idx - max as f64 / mean).abs() < 1e-12);
        } else {
            prop_assert_eq!(idx, 1.0);
            prop_assert_eq!(hot, 0);
        }
    }
}

/// The same workload — four relaxed 48 KiB writes from node 0 — on the
/// simulator driver and on the wire driver over the simulated fabric:
/// both timelines carry the same sources, in the same order, of the same
/// kinds, and each telescopes to its endpoint's end-of-run stats exactly.
#[test]
fn sim_and_wire_timelines_share_one_column_set() {
    let cfg = SystemConfig::two_link_1g_unordered(2);
    let (writes, size) = (4u64, 48usize << 10);

    let (sim, _cluster, eps, conns) = rig(cfg.clone());
    let c = conns[0][1].unwrap();
    let sampler = eps[0].start_timeline(c, us(100), 256);
    let ep = eps[0].clone();
    sim.spawn("writer", async move {
        let mut handles = Vec::new();
        for i in 0..writes {
            let data = vec![i as u8; size];
            handles.push(ep.write_bytes(c, i << 16, data, OpFlags::RELAXED).await);
        }
        for h in handles {
            h.wait().await;
        }
    });
    sim.run().expect_quiescent();
    let (sim_tl, _) = sampler.finish();
    reconcile_proto(&sim_tl, &eps[0].stats()).expect("simulator timeline reconciles");

    let sim = Sim::new(cfg.seed);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let (mut bpa, mut bpb) = SimBackplane::pair(&sim, &cluster);
    let (mut a, mut b) = WireEndpoint::pair(&cfg.proto, cfg.rails, &SpanRecorder::disabled());
    a.start_timeline(&bpa, us(100).as_nanos(), 256);
    for i in 0..writes {
        let data = Bytes::from(vec![i as u8; size]);
        a.write(0, &mut bpa, i << 16, data, OpFlags::RELAXED);
    }
    drain(
        &mut a,
        &mut bpa,
        &mut b,
        &mut bpb,
        DriveLimits::budget(1_000_000_000),
    )
    .expect("wire stream completes");
    a.sample_timeline(&mut bpa);
    let wire_tl = a.take_timeline().expect("timeline was started");
    reconcile_proto(&wire_tl, &a.stats()).expect("wire timeline reconciles");

    assert_eq!(sim_tl.names(), wire_tl.names());
    assert_eq!(sim_tl.kinds(), wire_tl.kinds());
    assert!(sim_tl.len() > 4 && wire_tl.len() > 4, "multi-interval runs");
}

/// Every sampler carries a health monitor: started on either driver
/// without naming health, it yields a `HealthReport` that has read every
/// committed row, and a clean write opens no incident.
#[test]
fn every_sampler_reports_health_on_both_drivers() {
    let cfg = SystemConfig::two_link_1g_unordered(2);
    let (sim, _cluster, eps, conns) = rig(cfg.clone());
    let c = conns[0][1].unwrap();
    let sampler = eps[0].start_timeline(c, us(100), 256);
    let ep = eps[0].clone();
    sim.spawn("writer", async move {
        let h = ep
            .write_bytes(c, 0, vec![1u8; 48 << 10], OpFlags::RELAXED)
            .await;
        h.wait().await;
    });
    sim.run().expect_quiescent();
    let (tl, health) = sampler.finish();
    assert_eq!(
        health.rows_seen,
        tl.len() as u64,
        "the monitor reads every row"
    );
    assert!(health.incidents.is_empty(), "{}", health.render_human());

    let sim = Sim::new(cfg.seed);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let (mut bpa, mut bpb) = SimBackplane::pair(&sim, &cluster);
    let (mut a, mut b) = WireEndpoint::pair(&cfg.proto, cfg.rails, &SpanRecorder::disabled());
    a.start_timeline(&bpa, us(100).as_nanos(), 256);
    a.write(
        0,
        &mut bpa,
        0,
        Bytes::from(vec![1u8; 48 << 10]),
        OpFlags::RELAXED,
    );
    drain(
        &mut a,
        &mut bpa,
        &mut b,
        &mut bpb,
        DriveLimits::budget(1_000_000_000),
    )
    .expect("wire write completes");
    a.sample_timeline(&mut bpa);
    let health = a.health_report().expect("the timeline was started");
    let tl = a.take_timeline().expect("the timeline was started");
    assert_eq!(
        health.rows_seen,
        tl.len() as u64,
        "the monitor reads every row"
    );
    assert!(health.incidents.is_empty(), "{}", health.render_human());
}

/// A backward-fenced write held behind a predecessor that lost frames:
/// the receiver's `fence_buffered` gauge stays non-zero until the NACK
/// (2 ms) recovers the gap, and the monitor names it a fence stall — on
/// the simulator, which had no such column before the samplers merged.
#[test]
fn simulator_sees_a_fence_stall() {
    let (sim, cluster, eps, conns) = rig(SystemConfig::two_link_1g_unordered(2));
    // Rail 0 goes down for good mid-write while rail 1 carries on. No
    // later frame arrives on rail 0 to prove its frames were lost rather
    // than late, so only the NACK timer repairs them.
    let plan = FaultPlan::new().rail_down(us(150), 0);
    cluster.apply_fault_plan(&sim, &plan);
    let (c01, c10) = (conns[0][1].unwrap(), conns[1][0].unwrap());
    let sampler = eps[1].start_timeline(c10, us(100), 256);
    let ep = eps[0].clone();
    sim.spawn("writer", async move {
        let first = ep
            .write_bytes(c01, 0, vec![1u8; 64 << 10], OpFlags::RELAXED)
            .await;
        let fenced = OpFlags::RELAXED.with_fence_backward();
        let second = ep
            .write_bytes(c01, 1 << 20, vec![2u8; 16 << 10], fenced)
            .await;
        first.wait().await;
        second.wait().await;
    });
    sim.run().expect_quiescent();
    let (tl, health) = sampler.finish();
    let fence = tl.source_id("fence_buffered").expect("shared column");
    let held = (0..tl.len())
        .filter(|&i| tl.row(i).1[fence.index()] > 0)
        .count();
    assert!(held >= 8, "fragments held across {held} rows only");
    assert!(
        health.first(IncidentCause::FenceStall).is_some(),
        "no fence_stall incident:\n{}",
        health.render_human()
    );
}

/// A clean run's `finish()` row is taken after the idle tail (the last
/// timers fire long after the last ack): the endpoint is quiesced, so
/// `token_age_ns` reads 0 there and the monitor opens nothing. An age that
/// kept counting through idle time read ~0.5 ms here and alarmed.
#[test]
fn idle_tail_is_not_a_stall() {
    let (sim, _cluster, eps, conns) = rig(SystemConfig::two_link_1g_unordered(2));
    let c = conns[0][1].unwrap();
    let sampler = eps[0].start_timeline(c, us(100), 256);
    let (ep, clock) = (eps[0].clone(), sim.clone());
    let writer = sim.spawn("writer", async move {
        let mut handles = Vec::new();
        for i in 0..24u64 {
            let data = vec![i as u8; 32 << 10];
            handles.push(ep.write_bytes(c, i << 16, data, OpFlags::RELAXED).await);
        }
        for h in handles {
            h.wait().await;
        }
        clock.now().as_nanos()
    });
    sim.run().expect_quiescent();
    let done_ns = writer.try_take().expect("writer finished");
    let (tl, health) = sampler.finish();
    let (t_last, last) = tl.row(tl.len() - 1);
    assert!(
        t_last > done_ns + 100_000,
        "no idle tail: {t_last} vs {done_ns}"
    );
    let age = tl.source_id("token_age_ns").expect("shared column");
    assert_eq!(
        last[age.index()],
        0,
        "an idle endpoint is not a stalled one"
    );
    assert!(health.incidents.is_empty(), "{}", health.render_human());
}
