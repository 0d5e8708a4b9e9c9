//! `me-inspect`: render a flight-recorder post-mortem dump as a
//! human-readable event timeline plus a critical-path phase breakdown, and
//! diff two attribution artifacts for regression triage.
//!
//! Render a dump produced by a `FlightConfig { dump_dir: Some(..) }` run:
//!
//! ```text
//! cargo run --release --bin me-inspect -- results/flight_0_rail_death.json
//! ```
//!
//! Diff two attribution artifacts (baseline files, `BENCH_attribution.json`
//! documents, or flight dumps with embedded attribution) — prints the
//! per-cell phase-delta tables, exits 2 when any cell regressed, and emits
//! the machine-readable report with `--json`:
//!
//! ```text
//! cargo run --release --bin me-inspect -- diff old.json new.json [--json]
//! ```
//!
//! Render an interval-sampled timeline artifact (`Timeline::to_jsonl`,
//! e.g. `results/telemetry_failover.jsonl`) as per-interval sparkline
//! tables — derived goodput and retransmit rows, per-rail backlog, then
//! every non-zero source. Pass several per-node artifacts at once to add
//! the cross-node imbalance table. Exits 2 when a file's telescoping
//! invariant (`base + Σ deltas == final`) does not hold:
//!
//! ```text
//! cargo run --release --bin me-inspect -- timeline dump.jsonl [more.jsonl ...] [--json] [--quiet]
//! ```
//!
//! Replay the streaming health detectors over timeline artifacts offline
//! (`doctor`): every row runs through the same z-score/CUSUM/burst/rule
//! detectors the online [`me_trace::HealthMonitor`] applies at sample
//! time, producing bit-identical incidents. Several files add the
//! cross-node imbalance diagnosis (one file per node, each node measured
//! on its `data_bytes_recv` column). Prints the incident table,
//! exits 1 when an incident is still open at end of artifact:
//!
//! ```text
//! cargo run --release --bin me-inspect -- doctor dump.jsonl [more.jsonl ...] [--json]
//! ```
//!
//! With no argument it demonstrates the whole loop end to end: it runs a
//! two-rail transfer through a scripted rail outage with the always-on
//! flight recorder enabled, lets the rail-death trigger take its dump, and
//! renders that dump — so the example is self-contained.
//!
//! Set `ME_INSPECT_ALL=1` to print every retained event instead of the
//! trailing window.

use me_trace::{
    diagnose_imbalance, diff_docs, imbalance, DiffConfig, FlightConfig, HealthConfig,
    HealthMonitor, HealthReport, Json, SourceKind, TimelineDoc,
};
use multiedge::{Endpoint, OpFlags, SystemConfig};
use netsim::time::ms;
use netsim::{build_cluster, FaultPlan, Sim};
use std::rc::Rc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        run_diff(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("timeline") {
        run_timeline(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("doctor") {
        run_doctor(&args[1..]);
    }
    let doc = match args.first() {
        Some(path) => load(path),
        None => demo_dump(),
    };
    render(&doc);
}

fn load(path: &str) -> Json {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("me-inspect: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match Json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("me-inspect: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    }
}

/// `me-inspect diff <old> <new> [--json]`: exit 0 clean, 1 on usage or
/// unreadable/mismatched artifacts, 2 when a cell regressed.
fn run_diff(args: &[String]) -> ! {
    let json_out = args.iter().any(|a| a == "--json");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("usage: me-inspect diff <old.json> <new.json> [--json]");
        std::process::exit(1);
    };
    let (old, new) = (load(old_path), load(new_path));
    let cfg = DiffConfig::default();
    let report = match diff_docs(&old, &new, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("me-inspect: cannot diff {old_path} vs {new_path}: {e}");
            std::process::exit(1);
        }
    };
    if json_out {
        print!("{}", report.to_json().render_pretty());
    } else {
        print!("{}", report.render_human(&cfg));
    }
    std::process::exit(if report.regressed() { 2 } else { 0 });
}

// ---------------------------------------------------------------------------
// timeline subcommand
// ---------------------------------------------------------------------------

/// Read and parse a set of timeline artifacts, exiting with `err_exit` on
/// the first unreadable or non-timeline file.
fn load_docs(paths: &[&String], err_exit: i32) -> Vec<(String, TimelineDoc)> {
    paths
        .iter()
        .map(|p| {
            let text = match std::fs::read_to_string(p) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("me-inspect: cannot read {p}: {e}");
                    std::process::exit(err_exit);
                }
            };
            match TimelineDoc::parse_jsonl(&text) {
                Ok(d) => (p.to_string(), d),
                Err(e) => {
                    eprintln!("me-inspect: {p} is not a timeline artifact: {e}");
                    std::process::exit(err_exit);
                }
            }
        })
        .collect()
}

/// `me-inspect timeline <dump.jsonl> [more.jsonl ...] [--json] [--quiet]`:
/// exit 0 clean, 1 on usage or unreadable/invalid artifacts, 2 when any
/// file's counter columns fail the telescoping invariant.
fn run_timeline(args: &[String]) -> ! {
    const USAGE: &str = "usage: me-inspect timeline <dump.jsonl> [more.jsonl ...] [--json] [--quiet]\n\
        \n\
        Renders interval-sampled timeline artifacts as per-interval sparkline\n\
        tables (a machine-readable report with --json; --quiet suppresses all\n\
        normal output so only the exit code carries the verdict). Several\n\
        per-node files add the cross-node imbalance table on data_bytes_recv.\n\
        \n\
        Exit codes:\n\
        \x20 0  every file parses and its telescoping invariant holds\n\
        \x20 2  a file's counters do not reconcile (base + deltas != final)\n\
        \x20 1  usage error or unreadable/invalid artifact";
    if args.iter().any(|a| a == "--help") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let json_out = args.iter().any(|a| a == "--json");
    let quiet = args.iter().any(|a| a == "--quiet");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if paths.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(1);
    }
    let docs = load_docs(&paths, 1);
    let mut broken = false;
    for (path, doc) in &docs {
        if let Err(e) = doc.reconcile() {
            eprintln!("me-inspect: {path}: telescoping invariant VIOLATED: {e}");
            broken = true;
        }
    }
    if quiet {
        // Verdict is the exit code; diagnostics already went to stderr.
    } else if json_out {
        let files: Vec<Json> = docs.iter().map(|(p, d)| timeline_json(p, d)).collect();
        let mut out = Json::obj()
            .set("kind", "me_inspect_timeline")
            .set("reconciled", !broken)
            .set("files", files);
        if docs.len() > 1 {
            out = out.set("imbalance", imbalance_json(&docs));
        }
        print!("{}", out.render_pretty());
    } else {
        for (path, doc) in &docs {
            render_timeline(path, doc);
        }
        if docs.len() > 1 {
            render_imbalance(&docs);
        }
    }
    std::process::exit(if broken { 2 } else { 0 });
}

// ---------------------------------------------------------------------------
// doctor subcommand
// ---------------------------------------------------------------------------

/// `me-inspect doctor <dump.jsonl> [more.jsonl ...] [--json]`: replay the
/// streaming health detectors offline. Exit 0 healthy, 1 when an incident
/// is still open at end of artifact, 2 on usage or unreadable artifacts.
fn run_doctor(args: &[String]) -> ! {
    const USAGE: &str = "usage: me-inspect doctor <dump.jsonl> [more.jsonl ...] [--json]\n\
        \n\
        Replays the streaming health detectors (robust z-score, CUSUM, rate\n\
        burst, rail/fence rules) over timeline artifacts — the same engine the\n\
        online HealthMonitor runs at sample time, so the incident tables are\n\
        bit-identical. Several per-node files add the cross-node imbalance\n\
        diagnosis on each file's data_bytes_recv column.\n\
        \n\
        Exit codes:\n\
        \x20 0  no incident open at end of artifact\n\
        \x20 1  at least one incident still open\n\
        \x20 2  usage error or unreadable/invalid artifact";
    if args.iter().any(|a| a == "--help") {
        println!("{USAGE}");
        std::process::exit(0);
    }
    let json_out = args.iter().any(|a| a == "--json");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if paths.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let docs = load_docs(&paths, 2);
    let cfg = HealthConfig::default();
    let reports: Vec<(&String, HealthReport)> = docs
        .iter()
        .map(|(p, d)| {
            let mut mon = HealthMonitor::for_doc(d, cfg);
            mon.replay_doc(d);
            (p, mon.report())
        })
        .collect();
    let cross = (docs.len() > 1).then(|| cross_diagnosis(&docs, member_series(&docs, 2), cfg));
    let open: usize = reports.iter().map(|(_, r)| r.open_incidents()).sum::<usize>()
        + cross.as_ref().map_or(0, HealthReport::open_incidents);
    if json_out {
        let files: Vec<Json> = reports
            .iter()
            .map(|(p, r)| Json::obj().set("path", p.as_str()).set("report", r.to_json()))
            .collect();
        let mut out = Json::obj()
            .set("kind", "me_inspect_doctor")
            .set("open_incidents", open as u64)
            .set("files", files);
        if let Some(c) = &cross {
            out = out.set("cross_file", c.to_json());
        }
        print!("{}", out.render_pretty());
    } else {
        for (p, r) in &reports {
            println!("doctor {p}");
            print!("{}", r.render_human());
            println!();
        }
        if let Some(c) = &cross {
            println!(
                "cross-node imbalance diagnosis ({} members, {MEMBER_COLUMN})",
                docs.len()
            );
            print!("{}", c.render_human());
        }
    }
    std::process::exit(if open > 0 { 1 } else { 0 });
}

/// The column a file contributes as one member of the cross-node
/// imbalance: the node's received data bytes, which `CoreSampler` writes on
/// the simulator and the wire runtime alike.
const MEMBER_COLUMN: &str = "data_bytes_recv";

/// Each file's per-interval [`MEMBER_COLUMN`] deltas, one member series per
/// file; exits with `err_exit` when a file has no such column.
fn member_series(docs: &[(String, TimelineDoc)], err_exit: i32) -> Vec<Vec<u64>> {
    docs.iter()
        .map(|(p, d)| match d.column(MEMBER_COLUMN) {
            Some(c) => series(d, c),
            None => {
                eprintln!("me-inspect: {p} has no {MEMBER_COLUMN} column to compare nodes on");
                std::process::exit(err_exit);
            }
        })
        .collect()
}

/// Cross-node diagnosis over the member series — the detector-backed
/// version of the timeline imbalance table.
fn cross_diagnosis(
    docs: &[(String, TimelineDoc)],
    members: Vec<Vec<u64>>,
    cfg: HealthConfig,
) -> HealthReport {
    let labels: Vec<String> = docs.iter().map(|(p, _)| p.clone()).collect();
    let t_ns: Vec<u64> = docs
        .iter()
        .max_by_key(|(_, d)| d.samples.len())
        .map(|(_, d)| d.samples.iter().map(|(t, _)| *t).collect())
        .unwrap_or_default();
    diagnose_imbalance(&labels, &t_ns, &members, cfg)
}

/// Eight-level unicode sparkline of a series, bucket-downsampled to at
/// most `width` cells (counters sum within a bucket, gauges take the max —
/// the caller picks via `sum_buckets`).
fn spark(series: &[u64], width: usize, sum_buckets: bool) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return String::new();
    }
    let buckets = series.len().min(width);
    let mut vals = Vec::with_capacity(buckets);
    for b in 0..buckets {
        let lo = b * series.len() / buckets;
        let hi = ((b + 1) * series.len() / buckets).max(lo + 1);
        let cell = &series[lo..hi];
        vals.push(if sum_buckets {
            cell.iter().sum::<u64>()
        } else {
            cell.iter().copied().max().unwrap_or(0)
        });
    }
    let max = vals.iter().copied().max().unwrap_or(0);
    vals.iter()
        .map(|&v| {
            if max == 0 {
                LEVELS[0]
            } else {
                LEVELS[(v * 7).div_ceil(max).min(7) as usize]
            }
        })
        .collect()
}

/// Per-interval deltas of a counter column (raw values for a gauge).
fn series(doc: &TimelineDoc, c: usize) -> Vec<u64> {
    doc.samples.iter().map(|(_, v)| v[c]).collect()
}

/// Sum of two optional counter columns per interval (missing → zeros).
fn series2(doc: &TimelineDoc, a: &str, b: &str) -> Vec<u64> {
    let za = doc.column(a).map(|c| series(doc, c));
    let zb = doc.column(b).map(|c| series(doc, c));
    match (za, zb) {
        (Some(x), Some(y)) => x.iter().zip(&y).map(|(p, q)| p + q).collect(),
        (Some(x), None) | (None, Some(x)) => x,
        (None, None) => Vec::new(),
    }
}

const SPARK_WIDTH: usize = 48;

fn render_timeline(path: &str, doc: &TimelineDoc) {
    let span = (
        doc.samples.first().map_or(0, |(t, _)| *t),
        doc.samples.last().map_or(0, |(t, _)| *t),
    );
    println!("timeline {path}");
    println!(
        "  interval {}  {} rows retained ({} evicted of {} committed)  span {}..{}",
        fmt_ns(doc.interval_ns),
        doc.samples.len(),
        doc.evicted,
        doc.samples_total,
        fmt_ns(span.0),
        fmt_ns(span.1),
    );

    // Derived rows: goodput from the data-bytes column, total retransmits.
    let iv_s = doc.interval_ns as f64 / 1e9;
    if let Some(c) = doc.column("data_bytes_sent") {
        let bytes = series(doc, c);
        let peak = bytes.iter().copied().max().unwrap_or(0) as f64 / iv_s / 1e6;
        let total: u64 = bytes.iter().sum();
        println!(
            "  goodput      {}  peak {:.1} MB/s  {} bytes total",
            spark(&bytes, SPARK_WIDTH, true),
            peak,
            total
        );
    }
    let rtx = series2(doc, "retransmits_nack", "retransmits_rto");
    if !rtx.is_empty() {
        let active = rtx.iter().filter(|&&v| v > 0).count();
        println!(
            "  retransmits  {}  {} total in {} interval(s)",
            spark(&rtx, SPARK_WIDTH, true),
            rtx.iter().sum::<u64>(),
            active
        );
    }

    // Every non-zero source, counters before gauges; all-zero ones elided.
    let mut elided = 0usize;
    for pass in [SourceKind::Counter, SourceKind::Gauge] {
        for (c, s) in doc.sources.iter().enumerate() {
            if s.kind != pass {
                continue;
            }
            let vals = series(doc, c);
            if vals.iter().all(|&v| v == 0) {
                elided += 1;
                continue;
            }
            let is_counter = s.kind == SourceKind::Counter;
            let tail = if is_counter {
                format!("total {}", s.final_raw - s.base)
            } else {
                format!(
                    "last {}  max {}",
                    vals.last().copied().unwrap_or(0),
                    vals.iter().copied().max().unwrap_or(0)
                )
            };
            println!(
                "  {:<7} {:<22} {}  {tail}",
                s.kind.label(),
                s.name,
                spark(&vals, SPARK_WIDTH, is_counter)
            );
        }
    }
    if elided > 0 {
        println!("  ({elided} all-zero source(s) elided)");
    }
    println!();
}

/// The per-interval cross-node imbalance series: each file is one member
/// (one node), measured on its [`MEMBER_COLUMN`].
fn imbalance_rows(docs: &[(String, TimelineDoc)]) -> Vec<(u64, f64, usize)> {
    let members = member_series(docs, 1);
    let rows = members.iter().map(Vec::len).min().unwrap_or(0);
    (0..rows)
        .map(|i| {
            let vals: Vec<u64> = members.iter().map(|m| m[i]).collect();
            let (idx, hot) = imbalance(&vals);
            (docs[0].1.samples[i].0, idx, hot)
        })
        .collect()
}

fn render_imbalance(docs: &[(String, TimelineDoc)]) {
    let rows = imbalance_rows(docs);
    if rows.is_empty() {
        return;
    }
    // Sparkline in hundredths so 1.00x maps to the floor of the scale.
    let centi: Vec<u64> = rows.iter().map(|(_, idx, _)| (idx * 100.0) as u64).collect();
    let peak = rows
        .iter()
        .cloned()
        .fold((0u64, 1.0f64, 0usize), |acc, r| if r.1 > acc.1 { r } else { acc });
    println!("cross-node imbalance ({} members, {MEMBER_COLUMN})", docs.len());
    println!(
        "  imbalance    {}  peak {:.2}x at {} (member {} = {})",
        spark(&centi, SPARK_WIDTH, false),
        peak.1,
        fmt_ns(peak.0),
        peak.2,
        docs[peak.2].0
    );
    println!();
}

fn timeline_json(path: &str, doc: &TimelineDoc) -> Json {
    let sources: Vec<Json> = doc
        .sources
        .iter()
        .enumerate()
        .map(|(c, s)| {
            let vals = series(doc, c);
            Json::obj()
                .set("name", s.name.as_str())
                .set("kind", s.kind.label())
                .set("base", s.base)
                .set("final", s.final_raw)
                .set("peak_per_interval", vals.iter().copied().max().unwrap_or(0))
        })
        .collect();
    Json::obj()
        .set("path", path)
        .set("interval_ns", doc.interval_ns)
        .set("rows", doc.samples.len())
        .set("evicted", doc.evicted)
        .set("samples_total", doc.samples_total)
        .set("retransmits_total", series2(doc, "retransmits_nack", "retransmits_rto").iter().sum::<u64>())
        .set("sources", sources)
}

fn imbalance_json(docs: &[(String, TimelineDoc)]) -> Json {
    let rows: Vec<Json> = imbalance_rows(docs)
        .into_iter()
        .map(|(t, idx, hot)| {
            Json::obj()
                .set("t_ns", t)
                .set("imbalance", idx)
                .set("hot", hot)
        })
        .collect();
    Json::obj().set("members", docs.len()).set("rows", rows)
}

/// Run a rail outage under the flight recorder and return its dump.
fn demo_dump() -> Json {
    println!("no dump given; running a two-rail outage demo\n");
    let cfg = SystemConfig::two_link_1g_unordered(2)
        .with_spans(1 << 12)
        .with_flight(FlightConfig::default());
    let sim = Sim::new(cfg.seed);
    let cluster = build_cluster(&sim, cfg.cluster_spec());
    let cfg = Rc::new(cfg);
    let eps = Endpoint::for_cluster(&sim, &cluster, cfg);
    let plan = FaultPlan::new().rail_down(ms(4), 1).rail_up(ms(80), 1);
    cluster.apply_fault_plan(&sim, &plan);
    let (c0, _c1) = Endpoint::connect(&eps[0], &eps[1]);
    let a = eps[0].clone();
    sim.spawn("demo-writer", async move {
        let mut handles = Vec::new();
        for i in 0..48usize {
            let h = a
                .write_bytes(c0, (i * 0x10000) as u64, vec![i as u8; 64 << 10], OpFlags::RELAXED)
                .await;
            handles.push(h);
        }
        for h in handles {
            h.wait().await;
        }
    });
    sim.run().expect_quiescent();
    let fr = eps[0].flight_recorder();
    let dumps = fr.dumps();
    match dumps.into_iter().next() {
        Some(d) => d.json,
        // The outage normally triggers a rail-death dump; fall back to a
        // forced one so the demo always renders something.
        None => fr
            .force_dump(sim.now().as_nanos())
            .expect("flight recorder enabled"),
    }
}

fn render(doc: &Json) {
    if doc.get("kind").and_then(|k| k.as_str()) != Some("multiedge_flight_dump") {
        eprintln!("me-inspect: input is JSON but not a multiedge_flight_dump");
        std::process::exit(1);
    }
    let s = |k: &str| doc.get(k).and_then(|v| v.as_str()).unwrap_or("?").to_string();
    let n = |k: &str| doc.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    println!("flight dump  trigger={}  at {}", s("trigger"), fmt_ns(n("t_ns")));
    println!(
        "events: {} recorded, {} retained in ring",
        n("events_total"),
        n("events_retained")
    );

    if let Some(events) = doc.get("events").and_then(|e| e.items()) {
        let all = std::env::var("ME_INSPECT_ALL").is_ok();
        let window = 120usize;
        let start = if all || events.len() <= window {
            0
        } else {
            println!("… {} earlier events elided (ME_INSPECT_ALL=1 shows all)", events.len() - window);
            events.len() - window
        };
        println!("\n  {:>12}  {:<13} {:<14} detail", "t", "event", "where");
        let mut prev = None;
        for e in &events[start..] {
            print_event(e, &mut prev);
        }
    }

    if let Some(att) = doc.get("attribution") {
        println!("\ncritical-path attribution (completed ops at dump time)");
        if let Some(overall) = att.get("overall") {
            print_rollup("overall", overall);
        }
        for (name, r) in att.get("per_conn").and_then(|c| c.entries()).unwrap_or(&[]) {
            print_rollup(name, r);
        }
        for (name, r) in att.get("per_rail").and_then(|c| c.entries()).unwrap_or(&[]) {
            print_rollup(name, r);
            let f = |k: &str| r.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
            println!(
                "    {} frames tx, {} retransmitted, nic queue p50 {} p99 {}",
                f("frames_tx"),
                f("frames_retransmitted"),
                fmt_ns(f("nic_queue_p50_ns")),
                fmt_ns(f("nic_queue_p99_ns")),
            );
        }
        let overwritten = att.get("spans_overwritten").and_then(|v| v.as_u64()).unwrap_or(0);
        if overwritten > 0 {
            println!("  (span ring wrapped: {overwritten} completed ops not attributed)");
        }
    }
}

/// One timeline line: time, inter-event gap, kind, location, and the
/// event's named payload fields as `name=value`.
fn print_event(e: &Json, prev: &mut Option<u64>) {
    let t = e.get("t_ns").and_then(|v| v.as_u64()).unwrap_or(0);
    let kind = e.get("kind").and_then(|v| v.as_str()).unwrap_or("?");
    let node = e.get("node").and_then(|v| v.as_u64()).unwrap_or(0);
    let mut place = format!("n{node}");
    if let Some(c) = e.get("conn").and_then(|v| v.as_u64()) {
        place.push_str(&format!(" c{c}"));
    }
    if let Some(r) = e.get("rail").and_then(|v| v.as_u64()) {
        place.push_str(&format!(" r{r}"));
    }
    let envelope = ["t_ns", "kind", "node", "conn", "rail"];
    let detail: Vec<String> = e
        .entries()
        .unwrap_or(&[])
        .iter()
        .filter(|(k, _)| !envelope.contains(&k.as_str()))
        .map(|(k, v)| match v.as_str() {
            Some(label) => format!("{k}={label}"),
            None => format!("{k}={}", v.render()),
        })
        .collect();
    let gap = prev.map_or(String::new(), |p| format!("  (+{})", fmt_ns(t.saturating_sub(p))));
    *prev = Some(t);
    println!("  {:>12}  {:<13} {:<14} {}{gap}", fmt_ns(t), kind, place, detail.join(" "));
}

/// Rollup summary: latency percentiles, then phases sorted by share.
fn print_rollup(name: &str, r: &Json) {
    let n = |k: &str| r.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    println!(
        "  {name}: {} ops, {} bytes, {} retransmits, latency p50 {} p99 {}",
        n("ops"),
        n("bytes"),
        n("retransmits"),
        fmt_ns(n("latency_p50_ns")),
        fmt_ns(n("latency_p99_ns")),
    );
    let Some(phases) = r.get("phases").and_then(|p| p.entries()) else {
        return;
    };
    let mut rows: Vec<(&str, u64, f64)> = phases
        .iter()
        .map(|(k, v)| {
            (
                k.as_str(),
                v.get("total_ns").and_then(|x| x.as_u64()).unwrap_or(0),
                v.get("fraction").and_then(|x| x.as_f64()).unwrap_or(0.0),
            )
        })
        .filter(|(_, total, _)| *total > 0)
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (label, total, frac) in rows {
        let bar = "#".repeat((frac * 40.0).round() as usize);
        println!("    {label:<13} {:>10}  {:>5.1}%  {bar}", fmt_ns(total), frac * 100.0);
    }
}

/// Adaptive time unit: ns under 1 µs, µs under 1 ms, else ms.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{:.2}ms", ns as f64 / 1e6)
    }
}
