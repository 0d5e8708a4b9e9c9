//! Every Table 1 application, verified on every paper configuration.
//!
//! Uses tiny problem instances; each `Workload::run` panics if the parallel
//! result diverges from the host-side sequential oracle, so these tests
//! prove end-to-end correctness of apps → DSM → MultiEdge → netsim for all
//! four system setups.

use apps::table::tiny_workloads;
use apps::workload::run_app;
use multiedge::SystemConfig;

fn run_all(cfg_for: impl Fn() -> SystemConfig) {
    for w in tiny_workloads() {
        let run = run_app(cfg_for(), w.as_ref());
        assert!(run.elapsed_ns > 0, "{} produced no work", w.name());
    }
}

#[test]
fn all_apps_verify_on_1l_1g() {
    run_all(|| SystemConfig::one_link_1g(4));
}

#[test]
fn all_apps_verify_on_2l_1g_ordered() {
    run_all(|| SystemConfig::two_link_1g(4));
}

#[test]
fn all_apps_verify_on_2lu_1g_unordered() {
    run_all(|| SystemConfig::two_link_1g_unordered(4));
}

#[test]
fn all_apps_verify_on_1l_10g() {
    run_all(|| SystemConfig::one_link_10g(4));
}

#[test]
fn all_apps_verify_on_sixteen_nodes() {
    run_all(|| SystemConfig::one_link_1g(16));
}

#[test]
fn all_apps_verify_under_transient_loss() {
    run_all(|| {
        let mut c = SystemConfig::two_link_1g_unordered(4);
        c.fault = netsim::FaultModel {
            loss_rate: 0.005,
            corrupt_rate: 0.001,
        };
        c
    });
}

/// Same seed, same run: every app, run twice in one process, takes the
/// same virtual time and leaves the same protocol counters. Anything that
/// walks a hash map in its iteration order on the way to the wire breaks
/// this (each map gets its own random keys).
#[test]
fn every_app_is_bit_identical_across_runs() {
    for w in tiny_workloads() {
        let a = run_app(SystemConfig::one_link_1g(4), w.as_ref());
        let b = run_app(SystemConfig::one_link_1g(4), w.as_ref());
        assert_eq!(a.elapsed_ns, b.elapsed_ns, "{} elapsed", w.name());
        assert_eq!(
            format!("{:?}", a.proto),
            format!("{:?}", b.proto),
            "{} protocol counters",
            w.name()
        );
    }
}

#[test]
fn ordered_vs_unordered_changes_reordering_not_results() {
    // The 2L vs 2Lu comparison of Figures 5/6: same results (verified
    // inside run), strictly-ordered mode buffers fenced fragments.
    let w = apps::fft::Fft { m: 10 };
    let ordered = run_app(SystemConfig::two_link_1g(4), &w);
    let relaxed = run_app(SystemConfig::two_link_1g_unordered(4), &w);
    assert!(ordered.elapsed_ns > 0 && relaxed.elapsed_ns > 0);
    // Both run on two rails: both observe out-of-order arrivals.
    assert!(ordered.proto.ooo_arrivals > 0);
    assert!(relaxed.proto.ooo_arrivals > 0);
}
