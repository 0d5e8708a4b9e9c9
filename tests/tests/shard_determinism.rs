//! The one-shard `run_sharded` shim is the one-engine simulation.
//!
//! `perf/`'s `sim_mesh64` still runs through `netsim::shard::run_sharded`
//! at one shard. This file certifies that what it measures is
//! `build_cluster` + `sim.run()`: the same events on the same fabric, so
//! everything agrees, the timing-dependent counters too. It goes with the
//! shim.

use multiedge_bench::scale::{
    all_to_all_cell, collect_nodes, lossy_determinism_cell, run_scale_cell, setup_nodes,
};
use netsim::shard::{run_sharded, ShardNet, ShardRunConfig};

#[test]
fn unsharded_equals_one_shard() {
    for cell in [lossy_determinism_cell(), all_to_all_cell(16, 16 << 10)] {
        let (flat, events, _) = run_scale_cell(&cell, None);
        let (_, mut outs) = run_sharded(
            &cell.cfg.cluster_spec(),
            1,
            cell.cfg.seed,
            Some(&cell.plan),
            &ShardRunConfig::default(),
            |sn: &ShardNet| {
                let nics: Vec<_> = sn.local_nodes().iter().map(|&n| sn.nics(n).to_vec()).collect();
                setup_nodes(sn.sim(), sn.net(), &nics, &cell.cfg, cell.pattern)
            },
            |sn, eps| {
                let out = collect_nodes(sn.net(), &eps, &cell.cfg, cell.pattern);
                (out, sn.sim().events_executed())
            },
        )
        .unwrap();
        let (one, one_events) = outs.pop().expect("one shard");
        assert_eq!(flat.proto, one.proto, "cell '{}'", cell.name);
        assert_eq!(flat.net, one.net, "cell '{}'", cell.name);
        assert_eq!(flat.fingerprints, one.fingerprints, "cell '{}'", cell.name);
        assert_eq!(flat.decisions, one.decisions, "cell '{}'", cell.name);
        assert_eq!(events, one_events, "cell '{}'", cell.name);
    }
}
