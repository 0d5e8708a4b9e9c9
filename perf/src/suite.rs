//! Whole-benchmark modes, each built from fresh child processes of this
//! binary (one per workload run): the default run of all six workloads,
//! `--noise K`, and `--determinism`.

use crate::report::END_TO_END;
use crate::util::median;
use crate::{Args, WORKLOADS};
use me_trace::Json;
use std::process::{Command, Stdio};

/// What a child run printed.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Metric values in the order the child printed them.
    metrics: Vec<(String, f64)>,
    fingerprint: Option<String>,
}

/// The bound of every end-to-end metric, read from `BENCHMARK.json` (one
/// directory up from `perf/`, where `run.sh` starts the binary): the share
/// of the first median by which the second may differ.
fn bounds() -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string("../BENCHMARK.json")
        .map_err(|e| format!("cannot read ../BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = doc.get("end_to_end").and_then(Json::items).unwrap_or(&[]);
    END_TO_END
        .iter()
        .map(|(name, _)| {
            listed
                .iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|m| m.get("bound")?.as_f64())
                .ok_or(format!("BENCHMARK.json has no bound for {name}"))
        })
        .collect()
}

/// Metrics measured on the transport clock: exact on `sim_*`.
const TRANSPORT_CLOCK: [&str; 3] = ["goodput_MBps", "op_p50_us", "op_p99_us"];

fn run_child(workload: &str, seed: u64, a: &Args, echo: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }]);
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{text}");
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let last = text
        .lines()
        .last()
        .ok_or(format!("{workload} printed nothing"))?;
    let doc = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let field = |k: &str| {
        doc.get(k)
            .ok_or(format!("{workload}: result line lacks {k}"))
    };
    let metrics = field("metrics")?
        .entries()
        .ok_or(format!("{workload}: metrics is not an object"))?
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    Ok(Child {
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
        fingerprint: text
            .lines()
            .find_map(|l| l.strip_prefix("virtual_fingerprint "))
            .map(str::to_string),
    })
}

fn selected(a: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .copied()
        .filter(|w| a.workload.as_deref().is_none_or(|only| only == *w))
        .collect()
}

/// Every workload once, each in a fresh process, then one summary table.
pub fn all(a: &Args) -> bool {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in selected(a) {
        match run_child(w, a.seed, a, true) {
            Ok(c) => {
                ok &= c.correct && c.failed == 0;
                rows.push((w, c));
            }
            Err(e) => {
                println!("ERROR: {e}");
                ok = false;
            }
        }
        println!();
    }
    if a.smoke {
        println!("smoke: every workload at 2 % of its ops, checks only; no metric is claimed");
    } else if !a.trace {
        print!("{:<14}", "workload");
        for (name, unit) in END_TO_END {
            print!(" {:>22}", format!("{name} [{unit}]"));
        }
        println!();
        for (w, c) in &rows {
            print!("{w:<14}");
            for (_, v) in &c.metrics {
                print!(" {v:>22.4}");
            }
            println!();
        }
    }
    for (w, c) in &rows {
        let verdict = if c.correct && c.failed == 0 {
            "ok"
        } else {
            "FAILED"
        };
        println!(
            "{w:<14} ops_attempted {:>9}  ops_failed {:>3}  checks {verdict}",
            c.attempted, c.failed
        );
    }
    ok
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Two interleaved sets of `k` runs of the whole benchmark, seed `i` of one
/// set paired with seed `i` of the other. Prints, per metric x workload,
/// both medians, both quartile ranges (as a share of the median), their
/// relative difference and the bound; fails if a pair of medians differs
/// by more than its bound, or a `sim_*` transport-clock metric or virtual
/// fingerprint does not repeat exactly.
pub fn noise(a: &Args, k: usize) -> bool {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            println!("ERROR: {e}");
            return false;
        }
    };
    let workloads = selected(a);
    // runs[set][workload] = one Child per seed
    let mut runs: [Vec<Vec<Child>>; 2] =
        [0, 1].map(|_| workloads.iter().map(|_| Vec::new()).collect());
    let mut ok = true;
    for i in 0..k {
        for set in 0..2 {
            for (wi, w) in workloads.iter().enumerate() {
                eprintln!("noise: run {}/{k} set {} {w}", i + 1, ["A", "B"][set]);
                match run_child(w, a.seed + i as u64, a, false) {
                    Ok(c) => {
                        ok &= c.correct && c.failed == 0;
                        runs[set][wi].push(c);
                    }
                    Err(e) => {
                        println!("ERROR: {e}");
                        return false;
                    }
                }
            }
        }
    }
    println!(
        "| workload | metric | median A | median B | IQR A | IQR B | diff | bound | verdict |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
    for (wi, w) in workloads.iter().enumerate() {
        for (mi, (metric, _)) in END_TO_END.iter().enumerate() {
            let col = |set: usize| -> Vec<f64> {
                runs[set][wi].iter().map(|c| c.metrics[mi].1).collect()
            };
            let (va, vb) = (col(0), col(1));
            let (ma, mb) = (median(&va), median(&vb));
            let iqr = |v: &[f64], m: f64| {
                let (q1, q3) = quartiles(v);
                (q3 - q1) / m
            };
            let diff = (mb - ma).abs() / ma;
            let b = bounds[mi];
            let exact = w.starts_with("sim_") && TRANSPORT_CLOCK.contains(metric);
            let pass = if exact { va == vb } else { diff <= b };
            ok &= pass;
            println!(
                "| {w} | {metric} | {ma:.4} | {mb:.4} | {:.2} % | {:.2} % | {:.2} % | {:.0} % | {} |",
                iqr(&va, ma) * 100.0,
                iqr(&vb, mb) * 100.0,
                diff * 100.0,
                b * 100.0,
                match (pass, exact) {
                    (true, true) => "exact",
                    (true, false) => "ok",
                    (false, _) => "DIFFERS",
                }
            );
        }
        let fp = |set: usize| -> Vec<&Option<String>> {
            runs[set][wi].iter().map(|c| &c.fingerprint).collect()
        };
        if w.starts_with("sim_") && fp(0) != fp(1) {
            println!("| {w} | virtual_fingerprint | | | | | | | DIFFERS |");
            ok = false;
        }
    }
    println!();
    println!("{k} runs per set, seeds {}..{}, sets interleaved run by run; IQR as Python's statistics.quantiles(n=4), shown as a share of the median.", a.seed, a.seed + k as u64 - 1);
    println!(
        "verdict: {}",
        if ok {
            "the two sets agree"
        } else {
            "THE TWO SETS DISAGREE"
        }
    );
    ok
}

/// Each `sim_*` workload twice with the same seed: the virtual fingerprint
/// and every transport-clock metric must repeat exactly.
pub fn determinism(a: &Args) -> bool {
    let mut ok = true;
    for w in selected(a).into_iter().filter(|w| w.starts_with("sim_")) {
        let pair = [
            run_child(w, a.seed, a, false),
            run_child(w, a.seed, a, false),
        ];
        let [Ok(x), Ok(y)] = pair else {
            println!("{w:<14} ERROR: a run failed");
            ok = false;
            continue;
        };
        let same_fp = x.fingerprint.is_some() && x.fingerprint == y.fingerprint;
        let same_clock = x
            .metrics
            .iter()
            .zip(&y.metrics)
            .filter(|((n, _), _)| TRANSPORT_CLOCK.contains(&n.as_str()))
            .all(|((_, p), (_, q))| p == q);
        let pass = same_fp && same_clock && x.correct && y.correct;
        ok &= pass;
        println!(
            "{w:<14} virtual_fingerprint {} / {}  transport-clock metrics {}  {}",
            x.fingerprint.as_deref().unwrap_or("-"),
            y.fingerprint.as_deref().unwrap_or("-"),
            if same_clock { "identical" } else { "DIFFER" },
            if pass { "ok" } else { "FAILED" }
        );
    }
    ok
}
