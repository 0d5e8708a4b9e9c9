//! `scale`: the sharded-engine scaling harness.
//!
//! Runs the 64-node all-to-all transpose, the 64-node incast fan-in, and
//! the lossy determinism cell at shard counts {1, 2, 4}, then enforces the
//! determinism contract of the sharded engine: for a fixed seed, the
//! timing-independent fingerprint (per-node ops/bytes/unique-frames/memory
//! checksum) must be bit-identical at every shard count, and the
//! fault-decision streams must agree as functions on every
//! `(stream, attempt)` index both runs drew.
//!
//! Frames per wall-second and `speedup_max_vs_1` are reported, not gated:
//! all shards run on the calling thread, so sharding is a determinism
//! witness and not an accelerator (`docs/PERFORMANCE.md` § Scaling out).
//!
//! Writes `results/BENCH_scale.json`. `SCALE_SMOKE=1` runs reduced cells
//! for CI under the same gates.

use me_trace::{Json, SCHEMA_VERSION};
use multiedge_bench::scale::{
    all_to_all_cell, decisions_consistent, incast_cell, lossy_determinism_cell, run_scale_cell,
    ScaleCell, ScaleCellResult,
};
use multiedge_bench::triage::results_dir;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

/// `SCALE_ONLY=<substring>` restricts the run to matching cells;
/// `SCALE_SHARDS=<n>[,<n>...]` overrides the shard sweep. Both are local
/// triage knobs.
fn shard_counts() -> Vec<usize> {
    match std::env::var("SCALE_SHARDS") {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse().expect("SCALE_SHARDS: bad shard count"))
            .collect(),
        Err(_) => SHARD_COUNTS.to_vec(),
    }
}

fn run_json(r: &ScaleCellResult) -> Json {
    Json::obj()
        .set("shards", r.shards as u64)
        .set("wall_s", r.wall_s)
        .set("virtual_s", r.virtual_s)
        .set("windows", r.windows)
        .set("frames", r.frames)
        .set("frames_per_wall_s", r.frames_per_wall_s)
        .set("events", r.events)
        .set("events_per_wall_s", r.events_per_wall_s)
        .set("lookahead_stalls", r.lookahead_stalls)
        .set(
            "per_shard",
            r.per_shard
                .iter()
                .map(|s| {
                    Json::obj()
                        .set("events", s.events)
                        .set("idle_windows", s.idle_windows)
                        .set("boundary_in", s.boundary_in)
                        .set("boundary_out", s.boundary_out)
                        .set("max_inbox_depth", s.max_inbox_depth as u64)
                })
                .collect::<Vec<_>>(),
        )
        .set("retransmits_nack", r.proto.retransmits_nack)
        .set("retransmits_rto", r.proto.retransmits_rto)
        .set("drops_overflow", r.net.drops_overflow)
        .set("drops_loss", r.net.drops_loss)
        .set("fault_decisions", r.decisions.len() as u64)
}

fn run_cell(cell: &ScaleCell, counts: &[usize]) -> Vec<ScaleCellResult> {
    let mut runs = Vec::new();
    for &shards in counts {
        let r = run_scale_cell(cell, shards)
            .unwrap_or_else(|e| panic!("scale cell '{}' at {shards} shards: {e}", cell.name));
        let advance_s: f64 = r.per_shard.iter().map(|s| s.advance_ns).sum::<u64>() as f64 / 1e9;
        let exchange_s: f64 = r.per_shard.iter().map(|s| s.exchange_ns).sum::<u64>() as f64 / 1e9;
        println!(
            "{:<22} shards {}  {:>9} frames  {:>12.0} frames/s  {:>9} events  \
             {:>5} windows  {:>4} stalls  wall {:>7.2}s (advance {:.2}s, exchange {:.2}s)",
            cell.name,
            r.shards,
            r.frames,
            r.frames_per_wall_s,
            r.events,
            r.windows,
            r.lookahead_stalls,
            r.wall_s,
            advance_s,
            exchange_s,
        );
        runs.push(r);
    }
    let base = &runs[0];
    for r in &runs[1..] {
        assert_eq!(
            base.fingerprint, r.fingerprint,
            "cell '{}': timing-independent fingerprint diverges between {} and {} shards",
            cell.name, base.shards, r.shards
        );
        if let Err(why) = decisions_consistent(&base.decisions, &r.decisions) {
            panic!(
                "cell '{}': fault-decision streams diverge between {} and {} shards: {why}",
                cell.name, base.shards, r.shards
            );
        }
    }
    runs
}

fn main() {
    let smoke = std::env::var("SCALE_SMOKE").is_ok();
    let profile = if smoke { "smoke" } else { "full" };

    let cells: Vec<ScaleCell> = if smoke {
        vec![
            all_to_all_cell(16, 4 << 10),
            incast_cell(16, 8 << 10),
            lossy_determinism_cell(),
        ]
    } else {
        vec![
            all_to_all_cell(64, 16 << 10),
            incast_cell(64, 32 << 10),
            lossy_determinism_cell(),
        ]
    };

    let counts = shard_counts();
    let only = std::env::var("SCALE_ONLY").ok();

    let mut rows = Vec::new();
    for cell in &cells {
        if let Some(pat) = &only {
            if !cell.name.contains(pat.as_str()) {
                continue;
            }
        }
        let runs = run_cell(cell, &counts);
        let base = &runs[0];
        let best = runs
            .iter()
            .map(|r| r.frames_per_wall_s)
            .fold(0.0f64, f64::max);
        let speedup = runs.last().unwrap().frames_per_wall_s / base.frames_per_wall_s;
        println!(
            "{:<22} speedup@{} {:.2}x  (fingerprints + decision streams identical across {:?})",
            cell.name,
            runs.last().unwrap().shards,
            speedup,
            counts
        );
        rows.push(
            Json::obj()
                .set("name", cell.name.clone())
                .set("nodes", cell.cfg.nodes as u64)
                .set("rails", cell.cfg.rails as u64)
                .set("seed", cell.cfg.seed)
                .set("speedup_max_vs_1", speedup)
                .set("best_frames_per_wall_s", best)
                .set("deterministic_across_shards", true)
                .set("runs", runs.iter().map(run_json).collect::<Vec<_>>()),
        );
    }

    let doc = Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("kind", "multiedge_scale")
        .set("profile", profile)
        .set(
            "shard_counts",
            counts.iter().map(|&s| Json::from(s as u64)).collect::<Vec<_>>(),
        )
        .set("cells", rows);
    let out = results_dir().join("BENCH_scale.json");
    std::fs::create_dir_all(results_dir()).expect("create results dir");
    std::fs::write(&out, doc.render_pretty()).expect("write BENCH_scale.json");
    println!("wrote {}", out.display());
}
