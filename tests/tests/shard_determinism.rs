//! The sharded runtime's determinism contract, end to end through the full
//! MultiEdge protocol stack.
//!
//! For a fixed seed, the timing-independent outcome of a simulation —
//! operations completed, bytes delivered, unique frames received, receiver
//! memory contents — must be bit-identical no matter how the cluster is
//! partitioned. The fault-injection streams must agree as functions: the
//! same `(stream, attempt)` index always yields the same loss/corruption
//! verdict.

use multiedge_bench::scale::{
    all_to_all_cell, decisions_consistent, incast_cell, lossy_determinism_cell, run_scale_cell,
    run_scale_cell_unsharded,
};

/// The headline gate: a lossy, fault-scripted cell (stationary loss +
/// corruption, link flaps, a NIC stall, a burst window) produces identical
/// timing-independent fingerprints at every shard count.
#[test]
fn lossy_cell_fingerprints_identical_across_shard_counts() {
    let cell = lossy_determinism_cell();
    let base = run_scale_cell(&cell, 1).unwrap();
    assert!(
        base.proto.retransmits_nack + base.proto.retransmits_rto > 0
            || base.net.drops_loss > 0,
        "cell must actually exercise loss for the gate to mean anything"
    );
    for shards in [2, 4] {
        let r = run_scale_cell(&cell, shards).unwrap();
        assert_eq!(
            base.fingerprint, r.fingerprint,
            "fingerprints diverge at {shards} shards"
        );
        decisions_consistent(&base.decisions, &r.decisions)
            .unwrap_or_else(|why| panic!("decision streams diverge at {shards} shards: {why}"));
    }
}

/// Fault-free traffic patterns hold the same contract.
#[test]
fn clean_cells_fingerprints_identical_across_shard_counts() {
    for cell in [all_to_all_cell(8, 2 << 10), incast_cell(8, 4 << 10)] {
        let base = run_scale_cell(&cell, 1).unwrap();
        for shards in [2, 4] {
            let r = run_scale_cell(&cell, shards).unwrap();
            assert_eq!(
                base.fingerprint, r.fingerprint,
                "cell '{}' diverges at {shards} shards",
                cell.name
            );
        }
    }
}

/// One shard *is* the unsharded simulation: `build_cluster` + `sim.run()`
/// and `run_sharded` at one shard execute the same events on the same
/// fabric, so everything agrees — the timing-dependent counters too.
#[test]
fn unsharded_equals_one_shard() {
    for cell in [lossy_determinism_cell(), all_to_all_cell(16, 16 << 10)] {
        let (mut flat, events) = run_scale_cell_unsharded(&cell);
        flat.decisions
            .sort_by_key(|&(key, attempt, ..)| (key, attempt));
        let one = run_scale_cell(&cell, 1).unwrap();
        assert_eq!(flat.proto, one.proto, "cell '{}'", cell.name);
        assert_eq!(flat.net, one.net, "cell '{}'", cell.name);
        assert_eq!(flat.fingerprints, one.fingerprint, "cell '{}'", cell.name);
        assert_eq!(flat.decisions, one.decisions, "cell '{}'", cell.name);
        assert_eq!(events, one.events, "cell '{}'", cell.name);
    }
}

/// Same seed, same shard count, run twice: everything identical, including
/// the raw decision logs.
#[test]
fn repeat_runs_are_bit_identical() {
    let cell = lossy_determinism_cell();
    let a = run_scale_cell(&cell, 2).unwrap();
    let b = run_scale_cell(&cell, 2).unwrap();
    assert_eq!(a.fingerprint, b.fingerprint);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.windows, b.windows);
    assert_eq!(a.events, b.events);
}

/// A different seed actually changes the fault streams — the determinism
/// above is seed-pinning, not a degenerate constant.
#[test]
fn different_seed_changes_the_run() {
    let cell = lossy_determinism_cell();
    let mut other = lossy_determinism_cell();
    other.cfg.seed = cell.cfg.seed + 1;
    let a = run_scale_cell(&cell, 2).unwrap();
    let b = run_scale_cell(&other, 2).unwrap();
    assert_ne!(
        (a.fingerprint.clone(), a.decisions.clone()),
        (b.fingerprint, b.decisions),
        "seed must steer the fault streams"
    );
}
