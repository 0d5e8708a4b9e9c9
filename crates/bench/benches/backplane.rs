//! `backplane`: sim-vs-real cross-validation of the transport seam.
//!
//! Runs the ping-pong and one-way cross-validation cells twice — once over
//! the netsim backplane, once over real UDP sockets on loopback — with the
//! **identical** protocol driver, then subtracts the two span attributions
//! phase by phase. Writes:
//!
//! * `results/backplane/sim.json` / `results/backplane/udp.json` — the full
//!   per-backend cell documents (also consumable by `me-inspect diff`),
//! * `results/BENCH_backplane.json` — the machine-readable diff report.
//!
//! Each cell's headline names the phase where the simulator's cost model
//! and the real kernel path disagree most. A difference here is the
//! measurement, not a failure (see `docs/BACKPLANE.md`): the harness fails
//! only when a workload cannot complete on a backend at all.
//!
//! Modes: `SMOKE=1` runs the reduced CI profile (fewer iterations and
//! rounds).

use me_trace::{Json, SCHEMA_VERSION};
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

    let doc = report
        .to_json()
        .set("profile", profile)
        .set("old_backend", "sim")
        .set("new_backend", "udp");
    let out = results_dir().join("BENCH_backplane.json");
    std::fs::write(&out, doc.render_pretty()).expect("write diff json");
    println!("wrote results/BENCH_backplane.json");
}
