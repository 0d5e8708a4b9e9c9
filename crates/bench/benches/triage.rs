//! `triage`: the span-driven regression gate.
//!
//! Re-runs the attribution cells deterministically and diffs the result
//! against the committed baselines under `results/baselines/`, failing
//! (non-zero exit) when any cell's verdict is REGRESSED — with a headline
//! that names the phase and protocol layer that moved.
//!
//! Modes (environment variables):
//!
//! * default — full-profile gate: run every cell, diff against the
//!   `full_*` baselines, write `results/BENCH_triage.json`, panic on
//!   regression (`make triage-check`).
//! * `TRIAGE_SMOKE=1` — reduced profile for CI: fewer cells/rounds/iters,
//!   diffed against the `smoke_*` baselines (`make triage-smoke`).
//! * `TRIAGE_BASELINE=1` — refresh mode: write the current build's
//!   documents as the new baselines instead of diffing
//!   (`make rebaseline` runs it for both profiles; commit the
//!   results).

use me_trace::{diff_cell, require_schema, DiffConfig, DiffReport, Json, Verdict};
use multiedge_bench::triage::{
    baseline_path, baselines_dir, cell_doc, cells, profile_name, results_dir, run_cell,
};

fn main() {
    let smoke = std::env::var("TRIAGE_SMOKE").is_ok();
    let refresh = std::env::var("TRIAGE_BASELINE").is_ok();
    let profile = profile_name(smoke);
    let specs = cells(smoke);

    let mut docs = Vec::new();
    for spec in &specs {
        let run = run_cell(spec);
        println!(
            "{:<18} {} ops over {} round(s)  p50 {:.1}us  p99 {:.1}us",
            spec.name(),
            run.attr.overall.ops,
            spec.rounds,
            run.attr.overall.latency_hist.percentile(50.0) as f64 / 1e3,
            run.attr.overall.latency_hist.percentile(99.0) as f64 / 1e3,
        );
        docs.push((spec, cell_doc(spec, profile, &run)));
    }

    if refresh {
        std::fs::create_dir_all(baselines_dir()).expect("create baselines dir");
        for (spec, doc) in &docs {
            let path = baseline_path(profile, spec);
            std::fs::write(&path, doc.render_pretty()).expect("write baseline");
            println!("wrote {}", path.display());
        }
        println!("baselines refreshed ({profile} profile); commit results/baselines/");
        return;
    }

    let dcfg = DiffConfig::default();
    let mut report = DiffReport {
        cells: Vec::new(),
        missing: Vec::new(),
    };
    for (spec, new_doc) in &docs {
        let path = baseline_path(profile, spec);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing baseline {} ({e}); run `make rebaseline` and commit results/baselines/",
                path.display()
            )
        });
        let old = Json::parse(&text)
            .unwrap_or_else(|e| panic!("baseline {} is not valid JSON: {e}", path.display()));
        if let Err(e) = require_schema(&old) {
            panic!("baseline {}: {e}", path.display());
        }
        let name = spec.name();
        match diff_cell(&name, &old, new_doc, &dcfg) {
            Ok(c) => report.cells.push(c),
            Err(e) => panic!("diff {name}: {e}"),
        }
    }

    println!();
    print!("{}", report.render_human(&dcfg));

    // Write the machine-readable diff *before* asserting, so a failing CI
    // run still has the artifact to upload.
    std::fs::create_dir_all(results_dir()).expect("create results dir");
    let out = results_dir().join("BENCH_triage.json");
    let doc = report.to_json().set("profile", profile);
    std::fs::write(&out, doc.render_pretty()).expect("write diff json");
    println!("wrote results/BENCH_triage.json");

    if report.regressed() {
        let failing: Vec<String> = report
            .cells
            .iter()
            .filter(|c| c.verdict == Verdict::Regressed)
            .map(|c| format!("  {}", c.headline))
            .collect();
        panic!("triage gate failed:\n{}", failing.join("\n"));
    }
}
