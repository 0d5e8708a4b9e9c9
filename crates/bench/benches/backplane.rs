//! `backplane`: sim-vs-real cross-validation of the transport seam.
//!
//! Runs the ping-pong and one-way cross-validation cells twice — once over
//! the netsim backplane, once over real UDP sockets on loopback — with the
//! **identical** protocol driver, then subtracts the two span attributions
//! phase by phase. Writes:
//!
//! * `results/backplane/sim.json` / `results/backplane/udp.json` — the full
//!   per-backend cell documents (also consumable by `me-inspect diff`),
//! * `results/backplane/diff.json` — the machine-readable diff report,
//! * `results/BENCH_backplane.json` — the committed report, exact fields
//!   only: the simulator's side of every rollup (ops, p50/p99, phase
//!   totals) and the ops each cell completed over UDP. The UDP side's
//!   latencies are wall-clock, so they are printed and kept under
//!   `results/backplane/`, never committed.
//!
//! Each cell's headline names the phase where the simulator's cost model
//! and the real kernel path disagree most. A difference here is the
//! measurement, not a failure (see `docs/BACKPLANE.md`): the harness fails
//! only when a workload cannot complete on a backend at all.
//!
//! Modes: `SMOKE=1` runs the reduced CI profile (fewer iterations and
//! rounds).

use me_trace::{Json, RollupDelta, SCHEMA_VERSION};
use multiedge_bench::backplane::{cell_doc, run_wire_cell, wire_cells, WireBackend};
use multiedge_bench::{results_dir, smoke};

fn main() {
    let smoke = smoke();
    let profile = if smoke { "smoke" } else { "full" };
    let specs = wire_cells(smoke);

    let mut backend_docs = Vec::new();
    for backend in [WireBackend::Sim, WireBackend::Udp] {
        let mut docs = Vec::new();
        for spec in &specs {
            let attr = run_wire_cell(spec, backend);
            println!(
                "{:<4} {:<16} {} ops over {} round(s)  p50 {:.1}us  p99 {:.1}us",
                backend.name(),
                spec.name(),
                attr.overall.ops,
                spec.rounds,
                attr.overall.latency_hist.percentile(50.0) as f64 / 1e3,
                attr.overall.latency_hist.percentile(99.0) as f64 / 1e3,
            );
            docs.push(cell_doc(
                spec,
                &format!("{}-{profile}", backend.name()),
                &attr,
            ));
        }
        backend_docs.push((backend, docs));
    }

    // Per-backend documents: same config/workload strings on both sides,
    // so the diff engine pairs the cells; backend identity is the profile.
    let out_dir = results_dir().join("backplane");
    std::fs::create_dir_all(&out_dir).expect("create results/backplane");
    let mut suites = Vec::new();
    for (backend, docs) in &backend_docs {
        let suite = Json::obj()
            .set("schema_version", SCHEMA_VERSION)
            .set("kind", "multiedge_attribution_suite")
            .set("profile", format!("{}-{profile}", backend.name()))
            .set("cells", docs.clone());
        let path = out_dir.join(format!("{}.json", backend.name()));
        std::fs::write(&path, suite.render_pretty()).expect("write backend doc");
        println!("wrote {}", path.display());
        suites.push(suite);
    }

    let udp = suites.pop().expect("udp suite");
    let sim = suites.pop().expect("sim suite");
    let report =
        me_trace::diff_docs(&sim, &udp).unwrap_or_else(|e| panic!("sim-vs-udp diff failed: {e}"));
    println!();
    print!("{}", report.render_human());
    assert!(
        report.missing.is_empty(),
        "cells missing from the UDP run: {:?}",
        report.missing
    );

    let diff = report
        .to_json()
        .set("profile", profile)
        .set("old_backend", "sim")
        .set("new_backend", "udp");
    let path = out_dir.join("diff.json");
    std::fs::write(&path, diff.render_pretty()).expect("write diff json");
    println!("wrote {}", path.display());

    // The committed report: the simulator's side of each rollup, and how
    // many ops completed over UDP.
    let sim_side = |d: &RollupDelta| {
        Json::obj()
            .set("name", d.name.as_str())
            .set("sim", d.old.to_json())
    };
    let cells: Vec<Json> = report
        .cells
        .iter()
        .map(|c| {
            let parts: Vec<Json> = c.parts.iter().map(sim_side).collect();
            sim_side(&c.overall)
                .set("udp_ops", c.overall.new.ops)
                .set("parts", parts)
        })
        .collect();
    let doc = Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("kind", "multiedge_backplane_report")
        .set("profile", profile)
        .set("cells", cells)
        .set(
            "gate",
            "every cell completes on both backends; the UDP side's latencies are wall-clock: printed, and in results/backplane/",
        );
    let out = results_dir().join("BENCH_backplane.json");
    std::fs::write(&out, doc.render_pretty()).expect("write report json");
    println!("wrote results/BENCH_backplane.json");
}
