//! Regression triage: diff two attribution documents and name the phase
//! and protocol layer that moved.
//!
//! The inputs are JSON artifacts carrying [`PhaseRollup`] sections with
//! embedded [`LogHistogram`]s (`BENCH_attribution.json` cell arrays from
//! two trees, the backplane bench's per-backend documents, or
//! flight-recorder dumps). Because
//! the histograms round-trip exactly, diffing two artifacts is equivalent
//! to diffing the original in-memory rollups — no re-run needed.
//!
//! Quantile shifts are expressed as **log ratios**
//! `ln(new_p + 1) − ln(old_p + 1)`: exactly antisymmetric (swapping the
//! inputs negates the value bit-for-bit, a property the proptests pin) and
//! additive across chained comparisons. [`rel_shift`] converts one to the
//! familiar relative form (`+0.18` = 18% slower).
//!
//! The verdict threshold comes from the artifacts themselves: the triage
//! runner records each cell's **cross-seed spread** (the workloads are
//! simulated-time deterministic, so re-running the same build twice diffs
//! to exactly zero and wall-clock noise does not exist; seed-to-seed
//! variation is the only honest noise source). A shift counts as movement
//! only when it clears `max(noise_floor, noise_mult × recorded spread)`.

use crate::attribution::{Phase, PhaseRollup, PHASES};
use crate::hist::LogHistogram;
use crate::json::{require_schema, Json, SCHEMA_VERSION};

/// Protocol layer a phase belongs to, for triage headlines ("dominated by
/// +reorder (ordering)").
pub fn layer(phase: Phase) -> &'static str {
    match phase {
        Phase::HostIssue => "host issue path",
        Phase::SendWindow => "flow control",
        Phase::Retransmit => "loss recovery",
        Phase::RailQueue => "nic/scheduler",
        Phase::Wire => "network",
        Phase::RxProcess => "host rx path",
        Phase::Reorder => "ordering",
        Phase::Fence => "ordering",
        Phase::AckDelay => "ack policy",
        Phase::AckReturn => "network",
        Phase::CompleteWake => "host completion",
    }
}

/// Outcome of comparing one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Both quantile shifts are inside the noise bound.
    Unchanged,
    /// A shift cleared the bound downward.
    Improved,
    /// A shift cleared the bound upward (or the op counts differ, making
    /// the runs incomparable).
    Regressed,
}

impl Verdict {
    /// Stable uppercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Unchanged => "UNCHANGED",
            Verdict::Improved => "IMPROVED",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// Thresholds for calling a shift real.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Minimum relative shift ever considered movement, even when the
    /// recorded cross-seed spread is tiny (absorbs histogram quantization,
    /// ≈3% per bucket).
    pub noise_floor: f64,
    /// Multiplier on the larger of the two artifacts' recorded cross-seed
    /// spreads.
    pub noise_mult: f64,
    /// Phase rows with less than this much absolute mass movement (in
    /// fraction points) are elided from the human table.
    pub min_mass_pp: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            noise_floor: 0.05,
            noise_mult: 1.5,
            min_mass_pp: 0.002,
        }
    }
}

/// Log-ratio shift of percentile `p` between two histograms:
/// `ln(new_p + 1) − ln(old_p + 1)`. Exactly antisymmetric under swapping
/// the histograms; 0 when both are empty.
pub fn quantile_log_ratio(old: &LogHistogram, new: &LogHistogram, p: f64) -> f64 {
    ((new.percentile(p) + 1) as f64).ln() - ((old.percentile(p) + 1) as f64).ln()
}

/// Convert a log-ratio shift to a relative one (`+0.18` = 18% slower).
pub fn rel_shift(log_ratio: f64) -> f64 {
    log_ratio.exp() - 1.0
}

/// One phase's movement between two rollups.
#[derive(Debug, Clone)]
pub struct PhaseDelta {
    /// Which phase.
    pub phase: Phase,
    /// Old exclusive total (ns).
    pub old_total_ns: u64,
    /// New exclusive total (ns).
    pub new_total_ns: u64,
    /// Old share of end-to-end latency (0–1).
    pub old_fraction: f64,
    /// New share of end-to-end latency (0–1).
    pub new_fraction: f64,
    /// `new_fraction − old_fraction`: mass moved into (+) or out of (−)
    /// this phase.
    pub mass_delta: f64,
    /// Mean per-op growth in ns (`new_total/new_ops − old_total/old_ops`);
    /// robust to op-count drift and the quantity the dominant-phase pick
    /// maximizes.
    pub growth_per_op_ns: f64,
    /// Log-ratio shift of this phase's per-op p50.
    pub p50_log_ratio: f64,
    /// Log-ratio shift of this phase's per-op p99.
    pub p99_log_ratio: f64,
}

/// Movement of one rollup (overall, one connection, or one rail).
#[derive(Debug, Clone)]
pub struct RollupDelta {
    /// Rollup name ("overall", "n0c1", "rail0", …).
    pub name: String,
    /// Ops folded into the old rollup.
    pub old_ops: u64,
    /// Ops folded into the new rollup.
    pub new_ops: u64,
    /// Old end-to-end latency p50 (ns).
    pub old_p50_ns: u64,
    /// New end-to-end latency p50 (ns).
    pub new_p50_ns: u64,
    /// Old end-to-end latency p99 (ns).
    pub old_p99_ns: u64,
    /// New end-to-end latency p99 (ns).
    pub new_p99_ns: u64,
    /// Log-ratio shift of end-to-end p50.
    pub p50_log_ratio: f64,
    /// Log-ratio shift of end-to-end p99.
    pub p99_log_ratio: f64,
    /// All phase deltas, in [`PHASES`] order.
    pub phases: Vec<PhaseDelta>,
}

impl RollupDelta {
    /// The phase that explains the movement: largest per-op growth for a
    /// regression (`improved = false`), largest per-op shrink for an
    /// improvement. `None` when no phase moved in that direction.
    pub fn dominant(&self, improved: bool) -> Option<&PhaseDelta> {
        self.phases
            .iter()
            .filter(|d| {
                if improved {
                    d.growth_per_op_ns < 0.0
                } else {
                    d.growth_per_op_ns > 0.0
                }
            })
            .max_by(|a, b| a.growth_per_op_ns.abs().total_cmp(&b.growth_per_op_ns.abs()))
    }
}

/// Compare two rollups phase by phase.
pub fn diff_rollups(name: &str, old: &PhaseRollup, new: &PhaseRollup) -> RollupDelta {
    let frac = |r: &PhaseRollup, i: usize| {
        if r.latency_total_ns == 0 {
            0.0
        } else {
            r.phase_total_ns[i] as f64 / r.latency_total_ns as f64
        }
    };
    let per_op = |r: &PhaseRollup, i: usize| {
        if r.ops == 0 {
            0.0
        } else {
            r.phase_total_ns[i] as f64 / r.ops as f64
        }
    };
    let phases = PHASES
        .iter()
        .enumerate()
        .map(|(i, &p)| PhaseDelta {
            phase: p,
            old_total_ns: old.phase_total_ns[i],
            new_total_ns: new.phase_total_ns[i],
            old_fraction: frac(old, i),
            new_fraction: frac(new, i),
            mass_delta: frac(new, i) - frac(old, i),
            growth_per_op_ns: per_op(new, i) - per_op(old, i),
            p50_log_ratio: quantile_log_ratio(&old.phase_hist[i], &new.phase_hist[i], 50.0),
            p99_log_ratio: quantile_log_ratio(&old.phase_hist[i], &new.phase_hist[i], 99.0),
        })
        .collect();
    RollupDelta {
        name: name.to_string(),
        old_ops: old.ops,
        new_ops: new.ops,
        old_p50_ns: old.latency_hist.percentile(50.0),
        new_p50_ns: new.latency_hist.percentile(50.0),
        old_p99_ns: old.latency_hist.percentile(99.0),
        new_p99_ns: new.latency_hist.percentile(99.0),
        p50_log_ratio: quantile_log_ratio(&old.latency_hist, &new.latency_hist, 50.0),
        p99_log_ratio: quantile_log_ratio(&old.latency_hist, &new.latency_hist, 99.0),
        phases,
    }
}

/// Comparison of one workload cell between two builds.
#[derive(Debug, Clone)]
pub struct CellDiff {
    /// Cell name ("2Lu-1G two-way").
    pub cell: String,
    /// The larger of the two artifacts' recorded cross-seed spreads.
    pub noise_bound: f64,
    /// The effective movement threshold
    /// (`max(noise_floor, noise_mult × noise_bound)`).
    pub threshold: f64,
    /// The verdict.
    pub verdict: Verdict,
    /// One-line triage summary naming the dominant phase and layer.
    pub headline: String,
    /// Overall rollup movement.
    pub overall: RollupDelta,
    /// Per-connection movement (keys present in both artifacts).
    pub per_conn: Vec<RollupDelta>,
    /// Per-rail movement (keys present in both artifacts).
    pub per_rail: Vec<RollupDelta>,
}

struct AttrDoc {
    overall: PhaseRollup,
    per_conn: Vec<(String, PhaseRollup)>,
    per_rail: Vec<(String, PhaseRollup)>,
}

fn parse_attr(doc: &Json) -> Result<AttrDoc, String> {
    let a = if doc.get("overall").is_some() {
        doc
    } else {
        doc.get("attribution")
            .ok_or("document has no attribution section")?
    };
    let overall = PhaseRollup::from_json(a.get("overall").ok_or("attribution missing 'overall'")?)?;
    let section = |key: &str| -> Result<Vec<(String, PhaseRollup)>, String> {
        match a.get(key) {
            None => Ok(Vec::new()),
            Some(m) => m
                .entries()
                .ok_or_else(|| format!("attribution '{key}' is not an object"))?
                .iter()
                .map(|(k, v)| PhaseRollup::from_json(v).map(|r| (k.clone(), r)))
                .collect(),
        }
    };
    Ok(AttrDoc {
        overall,
        per_conn: section("per_conn")?,
        per_rail: section("per_rail")?,
    })
}

/// The artifact's recorded cross-seed spread (0 when absent, e.g. flight
/// dumps or single-round artifacts).
fn doc_noise(doc: &Json) -> f64 {
    let g = |k: &str| {
        doc.get("noise")
            .and_then(|n| n.get(k))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    g("latency_p50_rel").max(g("latency_p99_rel"))
}

/// Diff one cell: two documents each carrying an attribution section for
/// the *same* configured workload.
pub fn diff_cell(name: &str, old_doc: &Json, new_doc: &Json, cfg: &DiffConfig) -> Result<CellDiff, String> {
    let old = parse_attr(old_doc)?;
    let new = parse_attr(new_doc)?;
    let noise_bound = doc_noise(old_doc).max(doc_noise(new_doc));
    let threshold = cfg.noise_floor.max(cfg.noise_mult * noise_bound);
    let overall = diff_rollups("overall", &old.overall, &new.overall);
    let pair = |olds: &[(String, PhaseRollup)], news: &[(String, PhaseRollup)]| {
        olds.iter()
            .filter_map(|(k, o)| {
                news.iter()
                    .find(|(k2, _)| k2 == k)
                    .map(|(_, n)| diff_rollups(k, o, n))
            })
            .collect::<Vec<_>>()
    };
    let per_conn = pair(&old.per_conn, &new.per_conn);
    let per_rail = pair(&old.per_rail, &new.per_rail);
    let (verdict, headline) = judge(name, &overall, threshold);
    Ok(CellDiff {
        cell: name.to_string(),
        noise_bound,
        threshold,
        verdict,
        headline,
        overall,
        per_conn,
        per_rail,
    })
}

fn judge(cell: &str, overall: &RollupDelta, threshold: f64) -> (Verdict, String) {
    if overall.old_ops != overall.new_ops {
        return (
            Verdict::Regressed,
            format!(
                "{cell}: op count changed {} → {} — runs not comparable",
                overall.old_ops, overall.new_ops
            ),
        );
    }
    if overall.old_ops == 0 {
        return (
            Verdict::Unchanged,
            format!("{cell}: no completed ops on either side"),
        );
    }
    let s50 = rel_shift(overall.p50_log_ratio);
    let s99 = rel_shift(overall.p99_log_ratio);
    let (which, worst) = if s99.abs() >= s50.abs() {
        ("p99", s99)
    } else {
        ("p50", s50)
    };
    if worst > threshold {
        let dom = match overall.dominant(false) {
            Some(d) => format!(", dominated by +{} ({})", d.phase.label(), layer(d.phase)),
            None => String::new(),
        };
        (
            Verdict::Regressed,
            format!("{cell}: {which} regressed {:.0}%{dom}", worst * 100.0),
        )
    } else if worst < -threshold {
        let dom = match overall.dominant(true) {
            Some(d) => format!(", mostly -{} ({})", d.phase.label(), layer(d.phase)),
            None => String::new(),
        };
        (
            Verdict::Improved,
            format!("{cell}: {which} improved {:.0}%{dom}", -worst * 100.0),
        )
    } else {
        (
            Verdict::Unchanged,
            format!(
                "{cell}: within noise (p50 {:+.1}%, p99 {:+.1}%, bound ±{:.1}%)",
                s50 * 100.0,
                s99 * 100.0,
                threshold * 100.0
            ),
        )
    }
}

/// A full diff between two artifacts, cell by cell.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Compared cells, in the old document's order.
    pub cells: Vec<CellDiff>,
    /// Cells present in the old document but absent from the new one.
    pub missing: Vec<String>,
}

impl DiffReport {
    /// True when any compared cell regressed (the CI gate condition).
    pub fn regressed(&self) -> bool {
        self.cells.iter().any(|c| c.verdict == Verdict::Regressed)
    }

    /// Machine output (`me-inspect diff --json`, the committed CI
    /// artifact).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("schema_version", SCHEMA_VERSION)
            .set("kind", "multiedge_attribution_diff")
            .set("regressed", self.regressed())
            .set(
                "missing_cells",
                self.missing.iter().map(|s| Json::from(s.as_str())).collect::<Vec<_>>(),
            )
            .set("cells", self.cells.iter().map(cell_json).collect::<Vec<_>>())
    }

    /// The human phase-delta tables.
    pub fn render_human(&self, cfg: &DiffConfig) -> String {
        let mut out = String::new();
        for c in &self.cells {
            render_cell(&mut out, c, cfg);
        }
        for m in &self.missing {
            out.push_str(&format!("cell '{m}' missing from the new document (skipped)\n"));
        }
        let verdict = if self.regressed() { "REGRESSED" } else { "clean" };
        out.push_str(&format!(
            "\ntriage: {} cell(s) compared, result {verdict}\n",
            self.cells.len()
        ));
        out
    }
}

fn cell_json(c: &CellDiff) -> Json {
    let rollup = |d: &RollupDelta| {
        let mut phases = Json::obj();
        for p in &d.phases {
            phases = phases.set(
                p.phase.label(),
                Json::obj()
                    .set("layer", layer(p.phase))
                    .set("old_total_ns", p.old_total_ns)
                    .set("new_total_ns", p.new_total_ns)
                    .set("old_fraction", p.old_fraction)
                    .set("new_fraction", p.new_fraction)
                    .set("mass_delta", p.mass_delta)
                    .set("growth_per_op_ns", p.growth_per_op_ns)
                    .set("p50_shift", rel_shift(p.p50_log_ratio))
                    .set("p99_shift", rel_shift(p.p99_log_ratio)),
            );
        }
        Json::obj()
            .set("name", d.name.as_str())
            .set("old_ops", d.old_ops)
            .set("new_ops", d.new_ops)
            .set("old_latency_p50_ns", d.old_p50_ns)
            .set("new_latency_p50_ns", d.new_p50_ns)
            .set("old_latency_p99_ns", d.old_p99_ns)
            .set("new_latency_p99_ns", d.new_p99_ns)
            .set("latency_p50_shift", rel_shift(d.p50_log_ratio))
            .set("latency_p99_shift", rel_shift(d.p99_log_ratio))
            .set("phases", phases)
    };
    Json::obj()
        .set("cell", c.cell.as_str())
        .set("verdict", c.verdict.label())
        .set("headline", c.headline.as_str())
        .set("noise_bound", c.noise_bound)
        .set("threshold", c.threshold)
        .set("overall", rollup(&c.overall))
        .set(
            "per_conn",
            c.per_conn.iter().map(&rollup).collect::<Vec<_>>(),
        )
        .set(
            "per_rail",
            c.per_rail.iter().map(&rollup).collect::<Vec<_>>(),
        )
}

fn render_cell(out: &mut String, c: &CellDiff, cfg: &DiffConfig) {
    out.push_str(&format!(
        "== {} ==  {}  (noise bound ±{:.1}%)\n",
        c.cell,
        c.verdict.label(),
        c.threshold * 100.0
    ));
    out.push_str(&format!("   {}\n", c.headline));
    out.push_str(&format!(
        "   latency: p50 {} -> {} ({:+.1}%)   p99 {} -> {} ({:+.1}%)\n",
        fmt_ns(c.overall.old_p50_ns),
        fmt_ns(c.overall.new_p50_ns),
        rel_shift(c.overall.p50_log_ratio) * 100.0,
        fmt_ns(c.overall.old_p99_ns),
        fmt_ns(c.overall.new_p99_ns),
        rel_shift(c.overall.p99_log_ratio) * 100.0,
    ));
    let mut rows: Vec<&PhaseDelta> = c
        .overall
        .phases
        .iter()
        .filter(|p| p.old_total_ns > 0 || p.new_total_ns > 0)
        .filter(|p| p.mass_delta.abs() >= cfg.min_mass_pp || p.growth_per_op_ns != 0.0)
        .collect();
    rows.sort_by(|a, b| b.growth_per_op_ns.abs().total_cmp(&a.growth_per_op_ns.abs()));
    if !rows.is_empty() {
        out.push_str(&format!(
            "   {:<13} {:>7} {:>7} {:>8} {:>12}  layer\n",
            "phase", "old", "new", "Δmass", "per-op Δ"
        ));
        for p in rows {
            out.push_str(&format!(
                "   {:<13} {:>6.1}% {:>6.1}% {:>+7.1}pp {:>12}  {}\n",
                p.phase.label(),
                p.old_fraction * 100.0,
                p.new_fraction * 100.0,
                p.mass_delta * 100.0,
                fmt_signed_ns(p.growth_per_op_ns),
                layer(p.phase),
            ));
        }
    }
    for (section, rollups) in [("conn", &c.per_conn), ("rail", &c.per_rail)] {
        for d in rollups.iter() {
            let dom = d
                .dominant(rel_shift(d.p99_log_ratio) < 0.0)
                .map(|p| format!("  dominant {}{}", if p.growth_per_op_ns > 0.0 { "+" } else { "-" }, p.phase.label()))
                .unwrap_or_default();
            out.push_str(&format!(
                "   {section} {:<8} p50 {:+.1}%  p99 {:+.1}%{dom}\n",
                d.name,
                rel_shift(d.p50_log_ratio) * 100.0,
                rel_shift(d.p99_log_ratio) * 100.0,
            ));
        }
    }
    out.push('\n');
}

/// Diff two artifacts end to end: schema-check both, pair their cells (by
/// `config` + `workload` when present), and compare every pair. Errors on
/// schema mismatch, unparsable attribution sections, or zero matching
/// cells.
pub fn diff_docs(old: &Json, new: &Json, cfg: &DiffConfig) -> Result<DiffReport, String> {
    require_schema(old).map_err(|e| format!("old document: {e}"))?;
    require_schema(new).map_err(|e| format!("new document: {e}"))?;
    let old_cells = collect_cells(old);
    let new_cells = collect_cells(new);
    let mut cells = Vec::new();
    let mut missing = Vec::new();
    for (name, oc) in &old_cells {
        match new_cells.iter().find(|(n, _)| n == name) {
            Some((_, nc)) => cells.push(diff_cell(name, oc, nc, cfg)?),
            None => missing.push(name.clone()),
        }
    }
    if cells.is_empty() {
        return Err("no matching cells between the two documents".into());
    }
    Ok(DiffReport { cells, missing })
}

/// A document is either one cell or a `cells` array (the
/// `BENCH_attribution.json` shape).
fn collect_cells(doc: &Json) -> Vec<(String, &Json)> {
    if let Some(items) = doc.get("cells").and_then(|c| c.items()) {
        return items.iter().map(|c| (cell_name(c), c)).collect();
    }
    vec![(cell_name(doc), doc)]
}

fn cell_name(doc: &Json) -> String {
    match (
        doc.get("config").and_then(|v| v.as_str()),
        doc.get("workload").and_then(|v| v.as_str()),
    ) {
        (Some(c), Some(w)) => format!("{c} {w}"),
        (Some(c), None) => c.to_string(),
        _ => "attribution".to_string(),
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

fn fmt_signed_ns(ns: f64) -> String {
    let sign = if ns < 0.0 { "-" } else { "+" };
    format!("{sign}{}", fmt_ns(ns.abs().round() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rollup whose latency lives entirely in `phase`, one op per value.
    fn rollup(lat_per_op: &[u64], phase: Phase) -> PhaseRollup {
        let mut r = PhaseRollup::default();
        for &l in lat_per_op {
            r.ops += 1;
            r.bytes += 4096;
            r.latency_total_ns += l;
            r.latency_hist.record(l);
            for (i, _) in PHASES.iter().enumerate() {
                let v = if i == phase.idx() { l } else { 0 };
                r.phase_total_ns[i] += v;
                r.phase_hist[i].record(v);
            }
        }
        r
    }

    fn doc(config: &str, workload: &str, r: &PhaseRollup, noise: f64) -> Json {
        Json::obj()
            .set("schema_version", SCHEMA_VERSION)
            .set("config", config)
            .set("workload", workload)
            .set(
                "noise",
                Json::obj()
                    .set("latency_p50_rel", noise)
                    .set("latency_p99_rel", noise),
            )
            .set(
                "attribution",
                Json::obj()
                    .set("overall", r.to_json())
                    .set("per_conn", Json::obj().set("n0c0", r.to_json()))
                    .set("per_rail", Json::obj()),
            )
    }

    #[test]
    fn every_phase_has_a_layer() {
        for p in PHASES {
            assert!(!layer(p).is_empty());
        }
    }

    #[test]
    fn identical_documents_are_unchanged_with_zero_deltas() {
        let r = rollup(&[100_000, 120_000, 500_000], Phase::Wire);
        let d = doc("1L-1G", "one-way", &r, 0.02);
        let report = diff_docs(&d, &d.clone(), &DiffConfig::default()).unwrap();
        assert!(!report.regressed());
        let c = &report.cells[0];
        assert_eq!(c.verdict, Verdict::Unchanged);
        assert_eq!(c.cell, "1L-1G one-way");
        assert_eq!(c.overall.p50_log_ratio, 0.0);
        assert_eq!(c.overall.p99_log_ratio, 0.0);
        for p in &c.overall.phases {
            assert_eq!(p.mass_delta, 0.0, "{}", p.phase.label());
            assert_eq!(p.growth_per_op_ns, 0.0);
        }
        assert_eq!(c.per_conn.len(), 1);
    }

    #[test]
    fn injected_phase_growth_is_named_in_the_headline() {
        let old = rollup(&[100_000, 110_000, 120_000, 130_000], Phase::Wire);
        // Same op count, ~3x slower, the growth entirely in reorder.
        let mut grown = rollup(&[100_000, 110_000, 120_000, 130_000], Phase::Wire);
        let extra = rollup(&[250_000, 250_000, 250_000, 250_000], Phase::Reorder);
        for i in 0..PHASES.len() {
            grown.phase_total_ns[i] += extra.phase_total_ns[i];
            grown.phase_hist[i].merge(&extra.phase_hist[i]);
        }
        // Rebuild the latency side consistently: each op now ~350us.
        let mut new = PhaseRollup {
            ops: grown.ops,
            bytes: grown.bytes,
            phase_total_ns: grown.phase_total_ns,
            phase_hist: grown.phase_hist.clone(),
            ..PhaseRollup::default()
        };
        for l in [350_000u64, 360_000, 370_000, 380_000] {
            new.latency_total_ns += l;
            new.latency_hist.record(l);
        }
        // Phase totals need to telescope for from_json; align them.
        let drift = new.latency_total_ns as i64 - new.phase_sum_ns() as i64;
        new.phase_total_ns[Phase::Reorder.idx()] =
            (new.phase_total_ns[Phase::Reorder.idx()] as i64 + drift) as u64;

        let od = doc("2Lu-1G", "two-way", &old, 0.02);
        let nd = doc("2Lu-1G", "two-way", &new, 0.02);
        let report = diff_docs(&od, &nd, &DiffConfig::default()).unwrap();
        assert!(report.regressed());
        let c = &report.cells[0];
        assert_eq!(c.verdict, Verdict::Regressed);
        assert!(
            c.headline.contains("+reorder (ordering)"),
            "headline must name the phase: {}",
            c.headline
        );
        assert!(c.headline.starts_with("2Lu-1G two-way:"), "{}", c.headline);
        // Reversed direction reads as an improvement of the same phase.
        let rev = diff_docs(&nd, &od, &DiffConfig::default()).unwrap();
        assert_eq!(rev.cells[0].verdict, Verdict::Improved);
        assert!(rev.cells[0].headline.contains("-reorder"), "{}", rev.cells[0].headline);
    }

    #[test]
    fn op_count_drift_is_flagged_as_incomparable() {
        let old = rollup(&[100_000, 120_000], Phase::Wire);
        let new = rollup(&[100_000, 120_000, 140_000], Phase::Wire);
        let report = diff_docs(
            &doc("1L-1G", "one-way", &old, 0.0),
            &doc("1L-1G", "one-way", &new, 0.0),
            &DiffConfig::default(),
        )
        .unwrap();
        assert!(report.regressed());
        assert!(report.cells[0].headline.contains("op count changed"));
    }

    #[test]
    fn shifts_inside_the_noise_bound_are_unchanged() {
        let old = rollup(&[100_000; 8], Phase::Wire);
        let new = rollup(&[104_000; 8], Phase::Wire); // +4% < 5% floor
        let report = diff_docs(
            &doc("1L-1G", "one-way", &old, 0.0),
            &doc("1L-1G", "one-way", &new, 0.0),
            &DiffConfig::default(),
        )
        .unwrap();
        assert_eq!(report.cells[0].verdict, Verdict::Unchanged);
        // A recorded 10% spread widens the bound past a 12% shift at
        // noise_mult 1.5 → still a regression; at 20% spread it is not.
        let bumped = rollup(&[112_000; 8], Phase::Wire);
        let r1 = diff_docs(
            &doc("1L-1G", "one-way", &old, 0.01),
            &doc("1L-1G", "one-way", &bumped, 0.01),
            &DiffConfig::default(),
        )
        .unwrap();
        assert_eq!(r1.cells[0].verdict, Verdict::Regressed);
        let r2 = diff_docs(
            &doc("1L-1G", "one-way", &old, 0.20),
            &doc("1L-1G", "one-way", &bumped, 0.01),
            &DiffConfig::default(),
        )
        .unwrap();
        assert_eq!(r2.cells[0].verdict, Verdict::Unchanged);
    }

    #[test]
    fn schema_is_enforced_on_both_sides() {
        let r = rollup(&[100_000], Phase::Wire);
        let good = doc("1L-1G", "one-way", &r, 0.0);
        let mut bad = good.clone();
        if let Json::Obj(fields) = &mut bad {
            fields.retain(|(k, _)| k != "schema_version");
        }
        let err = diff_docs(&bad, &good, &DiffConfig::default()).unwrap_err();
        assert!(err.contains("old document"), "{err}");
        let err = diff_docs(&good, &bad, &DiffConfig::default()).unwrap_err();
        assert!(err.contains("new document"), "{err}");
    }

    #[test]
    fn cells_arrays_pair_by_config_and_workload() {
        let r = rollup(&[100_000], Phase::Wire);
        let cell = |c: &str, w: &str| doc(c, w, &r, 0.0);
        let multi = |cells: Vec<Json>| {
            Json::obj()
                .set("schema_version", SCHEMA_VERSION)
                .set("cells", cells)
        };
        let old = multi(vec![cell("A", "one-way"), cell("B", "two-way")]);
        let new = multi(vec![cell("B", "two-way")]);
        let report = diff_docs(&old, &new, &DiffConfig::default()).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].cell, "B two-way");
        assert_eq!(report.missing, vec!["A one-way".to_string()]);
        let human = report.render_human(&DiffConfig::default());
        assert!(human.contains("missing from the new document"));
        // Machine output round-trips through the parser.
        let j = report.to_json();
        assert!(Json::parse(&j.render_pretty()).is_ok());
        assert_eq!(j.get("regressed"), Some(&Json::Bool(false)));
    }
}
