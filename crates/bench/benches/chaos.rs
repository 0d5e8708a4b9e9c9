//! `chaos`: the chaos soak harness — seeded fault schedules through the
//! backend-agnostic [`FaultBackplane`] interposer over BOTH transports.
//!
//! Every cell runs the identical protocol driver under the identical
//! schedule over the netsim fabric and over real UDP loopback sockets,
//! then asserts exactly-once delivery, fence ordering and **identical
//! timing-independent fingerprints** sim-vs-UDP. Rail-blackout cells must
//! leave `rail_death` flight-dump artifacts. Writes:
//!
//! * `results/BENCH_chaos.json` — per-cell, per-backend rows (chaos
//!   counters, retransmits, elapsed, fingerprints, agreement verdict),
//! * `results/chaos_dumps/<cell>-<backend>/` — flight-recorder
//!   post-mortems, written by triggered dumps during the runs. On a
//!   failure these are the triage artifact CI uploads.
//!
//! Modes: `SMOKE=1` runs the reduced CI profile (smaller workload).
//! The harness fails when a schedule cannot complete on a backend (every
//! schedule is recoverable by construction) or when the backends disagree
//! on a fingerprint.
//!
//! [`FaultBackplane`]: multiedge::backplane::FaultBackplane

use me_trace::{Json, SCHEMA_VERSION};
use multiedge_bench::backplane::WireBackend;
use multiedge_bench::chaos::{chaos_cells, run_chaos_cell, ChaosCellRun};
use multiedge_bench::{results_dir, smoke};

fn run_json(run: &ChaosCellRun) -> Json {
    Json::obj()
        .set(
            "fingerprint",
            run.fingerprint.iter().map(|&v| Json::from(v)).collect::<Vec<_>>(),
        )
        .set("frames_seen", run.chaos.frames_seen)
        .set("dropped", run.chaos.dropped)
        .set("duplicated", run.chaos.duplicated)
        .set("reordered", run.chaos.reordered)
        .set("corrupt_dropped", run.chaos.corrupt_dropped)
        .set("blackout_dropped", run.chaos.blackout_dropped)
        .set("retransmits", run.retransmits)
        .set("storm_suppressed", run.storm_suppressed)
        .set("elapsed_ns", run.elapsed_ns)
        .set(
            "dumps",
            run.dump_paths
                .iter()
                .map(|p| Json::from(repo_relative(p)))
                .collect::<Vec<_>>(),
        )
}

/// A dump path as the report carries it: relative to the repository root,
/// so the committed artifact does not name the checkout it was made in.
fn repo_relative(path: &str) -> String {
    match std::path::Path::new(path).strip_prefix(results_dir()) {
        Ok(rel) => format!("results/{}", rel.display()),
        Err(_) => path.to_string(),
    }
}

fn main() {
    let smoke = smoke();
    let profile = if smoke { "smoke" } else { "full" };
    let dump_root = results_dir().join("chaos_dumps");
    let _ = std::fs::remove_dir_all(&dump_root);

    let mut rows = Vec::new();
    for spec in chaos_cells(smoke) {
        let mut runs = Vec::new();
        for backend in [WireBackend::Sim, WireBackend::Udp] {
            let dump_dir = dump_root.join(format!("{}-{}", spec.name, backend.name()));
            std::fs::create_dir_all(&dump_dir).expect("create chaos dump dir");
            let run = match run_chaos_cell(&spec, backend, &dump_dir) {
                Ok(r) => r,
                Err(e) => panic!(
                    "chaos cell '{}' failed on {}: {e} (flight dumps in {})",
                    spec.name,
                    backend.name(),
                    dump_dir.display()
                ),
            };
            println!(
                "{:<14} {:<4} drops {:>4}  dups {:>3}  reorder {:>3}  corrupt {:>3}  \
                 blackout {:>4}  retx {:>4}  elapsed {:>8.2}ms  dumps {}",
                spec.name,
                backend.name(),
                run.chaos.dropped,
                run.chaos.duplicated,
                run.chaos.reordered,
                run.chaos.corrupt_dropped,
                run.chaos.blackout_dropped,
                run.retransmits,
                run.elapsed_ns as f64 / 1e6,
                run.dump_paths.len(),
            );
            runs.push((backend, run));
        }
        let (_, sim_run) = &runs[0];
        let (_, udp_run) = &runs[1];
        assert_eq!(
            sim_run.fingerprint, udp_run.fingerprint,
            "chaos cell '{}': backends disagree on the timing-independent fingerprint",
            spec.name
        );
        if spec.expects_rail_death {
            for (backend, run) in &runs {
                assert!(
                    !run.dump_paths.is_empty(),
                    "chaos cell '{}' on {} must leave a rail-death flight dump",
                    spec.name,
                    backend.name()
                );
            }
        }
        rows.push(
            Json::obj()
                .set("name", spec.name)
                .set("seed", spec.chaos.seed)
                .set("ops", spec.ops)
                .set("expects_rail_death", spec.expects_rail_death)
                .set("sim", run_json(sim_run))
                .set("udp", run_json(udp_run))
                .set("fingerprints_agree", true),
        );
    }

    let doc = Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("kind", "multiedge_chaos_soak")
        .set("profile", profile)
        .set("cells", rows);
    let out = results_dir().join("BENCH_chaos.json");
    std::fs::write(&out, doc.render_pretty()).expect("write BENCH_chaos.json");
    println!("wrote {}", out.display());
}
