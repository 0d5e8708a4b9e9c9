//! Regression diagnosis: subtract two attribution rollups phase by phase
//! (the simulator is deterministic, so every non-zero difference is real).
//! [`RollupDelta::headline`] names the largest per-op mover and its [`layer`];
//! the golden, `me-inspect diff` ([`diff_docs`]) and the backplane bench print it.

use crate::attribution::{Phase, PhaseRollup, PHASES};
use crate::json::{require_schema, Json, SCHEMA_VERSION};

/// Protocol layer a phase belongs to, for headlines ("reorder (ordering)").
pub fn layer(phase: Phase) -> &'static str {
    match phase {
        Phase::HostIssue => "host issue path",
        Phase::SendWindow => "flow control",
        Phase::Retransmit => "loss recovery",
        Phase::RailQueue => "nic/scheduler",
        Phase::Wire | Phase::AckReturn => "network",
        Phase::RxProcess => "host rx path",
        Phase::Reorder | Phase::Fence => "ordering",
        Phase::AckDelay => "ack policy",
        Phase::CompleteWake => "host completion",
    }
}

/// What a diff reads of one rollup — exactly what an attributed
/// `stats_equivalence` golden line pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Ops folded in.
    pub ops: u64,
    /// End-to-end latency p50 (ns).
    pub p50_ns: u64,
    /// End-to-end latency p99 (ns).
    pub p99_ns: u64,
    /// Per-phase exclusive totals (ns), indexed like [`PHASES`].
    pub phase_ns: [u64; PHASES.len()],
}

impl Totals {
    /// `{ops, latency_p50_ns, latency_p99_ns, phase_total_ns}`.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .set("ops", self.ops)
            .set("latency_p50_ns", self.p50_ns)
            .set("latency_p99_ns", self.p99_ns)
            .set("phase_total_ns", by_phase(&self.phase_ns))
    }
}

/// One rollup (a cell's overall, a connection, or a rail) on both sides.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupDelta {
    /// Cell or rollup name ("2Lu-1G two-way", "n0c1", "rail0", …).
    pub name: String,
    /// The old side.
    pub old: Totals,
    /// The new side.
    pub new: Totals,
}

impl RollupDelta {
    /// Per-op change of every phase in ns (`new_total/new_ops −
    /// old_total/old_ops`); swapping the sides negates every entry exactly.
    pub fn per_op_delta_ns(&self) -> [f64; PHASES.len()] {
        let per_op = |t: &Totals, i: usize| t.phase_ns[i] as f64 / t.ops.max(1) as f64;
        std::array::from_fn(|i| per_op(&self.new, i) - per_op(&self.old, i))
    }

    /// Op counts, p50/p99 and every phase total are equal.
    pub fn identical(&self) -> bool {
        self.old == self.new
    }

    /// The largest per-op mover in the direction mean latency moved (either
    /// when it did not); swapping the sides picks the same phase, negated.
    pub fn dominant(&self) -> Option<(Phase, f64)> {
        let deltas = self.per_op_delta_ns();
        let net: f64 = deltas.iter().sum();
        let moved = PHASES
            .into_iter()
            .zip(deltas)
            .filter(|&(_, d)| d != 0.0 && d * net >= 0.0);
        moved.max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
    }

    /// `"<name>: identical"`, or the largest mover with its layer and
    /// per-op delta, then p50/p99 (and op counts when they differ).
    pub fn headline(&self) -> String {
        let (o, n, name) = (&self.old, &self.new, &self.name);
        let mover = match self.dominant() {
            _ if self.identical() => return format!("{name}: identical"),
            Some((p, d)) => format!("largest mover {}/op", phase_delta(p, d)),
            None => "no phase moved".to_string(),
        };
        let span = |a: u64, b: u64| format!("{} -> {}", ns(a), ns(b));
        let mut line = format!("{name}: {mover}; p50 {}", span(o.p50_ns, n.p50_ns));
        line += &format!(", p99 {}", span(o.p99_ns, n.p99_ns));
        if o.ops != n.ops {
            line += &format!("; op count changed {} -> {}", o.ops, n.ops);
        }
        line
    }
}

/// Subtract two rollups.
pub fn diff_rollups(name: &str, old: &PhaseRollup, new: &PhaseRollup) -> RollupDelta {
    let totals = |r: &PhaseRollup| {
        let (p50_ns, p99_ns) = (
            r.latency_hist.percentile(50.0),
            r.latency_hist.percentile(99.0),
        );
        Totals {
            ops: r.ops,
            p50_ns,
            p99_ns,
            phase_ns: r.phase_total_ns,
        }
    };
    RollupDelta {
        name: name.to_string(),
        old: totals(old),
        new: totals(new),
    }
}

/// One paired cell.
#[derive(Debug, Clone)]
pub struct CellDiff {
    /// The cell's overall rollup, named after the cell.
    pub overall: RollupDelta,
    /// The connections (`n0c1`) and rails (`rail0`) present on both sides.
    pub parts: Vec<RollupDelta>,
}

/// A cell document's rollups: `overall` first, then connections and rails.
fn rollups(doc: &Json) -> Result<Vec<(String, PhaseRollup)>, String> {
    let a = doc.get("attribution").unwrap_or(doc);
    let overall = a
        .get("overall")
        .ok_or("document has no attribution section")?;
    let mut out = vec![(String::new(), PhaseRollup::from_json(overall)?)];
    for key in ["per_conn", "per_rail"] {
        for (k, v) in a.get(key).and_then(Json::entries).unwrap_or(&[]) {
            out.push((k.clone(), PhaseRollup::from_json(v)?));
        }
    }
    Ok(out)
}

fn diff_cell(name: &str, old: &Json, new: &Json) -> Result<CellDiff, String> {
    let (old, new) = (rollups(old)?, rollups(new)?);
    let paired =
        |(k, o): &(String, _)| Some(diff_rollups(k, o, &new.iter().find(|n| n.0 == *k)?.1));
    let mut parts = old.iter().filter_map(paired);
    let overall = RollupDelta {
        name: name.to_string(),
        ..parts.next().expect("overall pairs")
    };
    Ok(CellDiff {
        overall,
        parts: parts.collect(),
    })
}

/// A diff between two artifacts, cell by cell.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Compared cells, in the old document's order.
    pub cells: Vec<CellDiff>,
    /// Cells present in the old document but absent from the new one.
    pub missing: Vec<String>,
}

impl DiffReport {
    /// A cell differs or is missing (the `me-inspect diff` finding).
    pub fn differs(&self) -> bool {
        !self.missing.is_empty() || self.cells.iter().any(|c| !c.overall.identical())
    }

    /// Machine output (`me-inspect diff --json`, `BENCH_backplane.json`).
    pub fn to_json(&self) -> Json {
        let parts = |c: &CellDiff| c.parts.iter().map(rollup_json).collect::<Vec<_>>();
        let cell = |c: &CellDiff| rollup_json(&c.overall).set("parts", parts(c));
        let missing: Vec<Json> = self
            .missing
            .iter()
            .map(|s| Json::from(s.as_str()))
            .collect();
        Json::obj()
            .set("schema_version", SCHEMA_VERSION)
            .set("kind", "multiedge_attribution_diff")
            .set("differs", self.differs())
            .set("missing_cells", missing)
            .set("cells", self.cells.iter().map(cell).collect::<Vec<_>>())
    }

    /// Per cell: headline, every phase that moved, each part's headline.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for CellDiff { overall: d, parts } in &self.cells {
            out += &format!("== {} ==\n   {}\n", d.name, d.headline());
            let deltas = PHASES.into_iter().zip(d.per_op_delta_ns()).enumerate();
            for (i, (p, delta)) in deltas.filter(|(_, (_, x))| *x != 0.0) {
                let (old, new) = (ns(d.old.phase_ns[i]), ns(d.new.phase_ns[i]));
                out += &format!("   {}/op  (total {old} -> {new})\n", phase_delta(p, delta));
            }
            out.extend(parts.iter().map(|part| format!("   {}\n", part.headline())));
            out.push('\n');
        }
        out.extend(
            self.missing
                .iter()
                .map(|m| format!("cell '{m}' missing from the new document\n")),
        );
        let differ = self.cells.iter().filter(|c| !c.overall.identical()).count();
        out + &format!(
            "diff: {} cell(s) compared, {differ} differ\n",
            self.cells.len()
        )
    }
}

/// `{phase label: value}` in [`PHASES`] order.
fn by_phase<T: Copy + Into<Json>>(values: &[T; PHASES.len()]) -> Json {
    PHASES
        .iter()
        .zip(values)
        .fold(Json::obj(), |j, (p, &v)| j.set(p.label(), v))
}

fn rollup_json(d: &RollupDelta) -> Json {
    Json::obj()
        .set("name", d.name.as_str())
        .set("headline", d.headline())
        .set("old", d.old.to_json())
        .set("new", d.new.to_json())
        .set("per_op_delta_ns", by_phase(&d.per_op_delta_ns()))
}

/// Schema-check two artifacts, pair their cells by name, and subtract
/// every pair. Errors when nothing pairs or a section does not parse.
pub fn diff_docs(old: &Json, new: &Json) -> Result<DiffReport, String> {
    require_schema(old).map_err(|e| format!("old document: {e}"))?;
    require_schema(new).map_err(|e| format!("new document: {e}"))?;
    let new_cells = cells_of(new);
    let (mut cells, mut missing) = (Vec::new(), Vec::new());
    for (name, oc) in cells_of(old) {
        match new_cells.iter().find(|(n, _)| *n == name) {
            Some((_, nc)) => cells.push(diff_cell(&name, oc, nc)?),
            None => missing.push(name),
        }
    }
    if cells.is_empty() {
        return Err("no matching cells between the two documents".into());
    }
    Ok(DiffReport { cells, missing })
}

/// A document is one cell or a `cells` array (the `BENCH_attribution.json`
/// shape); a cell is named `"<config> <workload>"`.
fn cells_of(doc: &Json) -> Vec<(String, &Json)> {
    let name = |c: &Json| {
        let key: Vec<&str> = ["config", "workload"]
            .iter()
            .filter_map(|k| c.get(k)?.as_str())
            .collect();
        if key.is_empty() {
            "attribution".to_string()
        } else {
            key.join(" ")
        }
    };
    match doc.get("cells").and_then(|c| c.items()) {
        Some(items) => items.iter().map(|c| (name(c), c)).collect(),
        None => vec![(name(doc), doc)],
    }
}

/// `"<phase> (<layer>) <signed delta>"`.
fn phase_delta(p: Phase, delta_ns: f64) -> String {
    format!("{} ({}) {}", p.label(), layer(p), fmt_ns(delta_ns, true))
}

fn ns(ns: u64) -> String {
    fmt_ns(ns as f64, false)
}

/// Adaptive unit (ns, µs, ms), signed for a delta; a sub-ns delta keeps
/// three decimals, so 1 ns moved over a few dozen ops does not print as 0.
fn fmt_ns(ns: f64, delta: bool) -> String {
    let sign = if delta && ns >= 0.0 { "+" } else { "" };
    match ns.abs() {
        a if a < 1e3 && delta => format!("{ns:+.*}ns", if a < 1.0 { 3 } else { 1 }),
        a if a < 1e3 => format!("{ns:.0}ns"),
        a if a < 1e6 => format!("{sign}{:.1}us", ns / 1e3),
        _ => format!("{sign}{:.2}ms", ns / 1e6),
    }
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

    fn doc(config: &str, workload: &str, r: &PhaseRollup) -> Json {
        Json::obj()
            .set("schema_version", SCHEMA_VERSION)
            .set("config", config)
            .set("workload", workload)
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
        let d = doc("1L-1G", "one-way", &r);
        let report = diff_docs(&d, &d.clone()).unwrap();
        assert!(!report.differs());
        let c = &report.cells[0];
        assert!(c.overall.identical());
        assert_eq!(c.overall.headline(), "1L-1G one-way: identical");
        assert_eq!(c.overall.per_op_delta_ns(), [0.0; PHASES.len()]);
        assert_eq!(c.overall.dominant(), None);
        assert_eq!(c.parts.len(), 1);
    }

    #[test]
    fn injected_phase_growth_is_named_in_the_headline() {
        let old = rollup(&[100_000, 110_000, 120_000, 130_000], Phase::Wire);
        // Same op count, the growth entirely in reorder.
        let mut new = old.clone();
        new.merge(&rollup(&[250_000; 4], Phase::Reorder));
        new.ops = old.ops;
        let d = diff_rollups("2Lu-1G two-way", &old, &new);
        assert_eq!(d.dominant(), Some((Phase::Reorder, 250_000.0)));
        let h = d.headline();
        assert!(
            h.starts_with("2Lu-1G two-way: largest mover reorder (ordering) +250.0us/op"),
            "{h}"
        );
        // Reversed, the same phase moves the other way.
        let rev = diff_rollups("2Lu-1G two-way", &new, &old);
        assert_eq!(rev.dominant(), Some((Phase::Reorder, -250_000.0)));
        assert!(
            rev.headline().contains("reorder (ordering) -250.0us/op"),
            "{}",
            rev.headline()
        );
    }

    #[test]
    fn op_count_drift_is_flagged_as_incomparable() {
        let old = rollup(&[100_000, 120_000], Phase::Wire);
        let new = rollup(&[100_000, 120_000, 140_000], Phase::Wire);
        let report = diff_docs(
            &doc("1L-1G", "one-way", &old),
            &doc("1L-1G", "one-way", &new),
        )
        .unwrap();
        assert!(report.differs());
        let h = report.cells[0].overall.headline();
        assert!(
            h.contains("op count changed 2 -> 3") && h.contains("wire (network)"),
            "{h}"
        );
    }

    #[test]
    fn small_shifts_are_reported_exactly() {
        // +4 % on every op: inside any noise floor, and a real difference.
        let old = rollup(&[100_000; 8], Phase::Wire);
        let new = rollup(&[104_000; 8], Phase::Wire);
        let report = diff_docs(
            &doc("1L-1G", "one-way", &old),
            &doc("1L-1G", "one-way", &new),
        )
        .unwrap();
        assert!(report.differs());
        assert_eq!(
            report.cells[0].overall.dominant(),
            Some((Phase::Wire, 4_000.0))
        );
        // One nanosecond moved between phases still names a phase.
        let mut moved = old.clone();
        moved.phase_total_ns[Phase::Wire.idx()] -= 1;
        moved.phase_total_ns[Phase::AckReturn.idx()] += 1;
        let d = diff_rollups("1L-1G one-way", &old, &moved);
        assert!(!d.identical());
        assert!(d.headline().contains("+0.125ns/op"), "{}", d.headline());
    }

    #[test]
    fn schema_is_enforced_on_both_sides() {
        let r = rollup(&[100_000], Phase::Wire);
        let good = doc("1L-1G", "one-way", &r);
        let mut bad = good.clone();
        if let Json::Obj(fields) = &mut bad {
            fields.retain(|(k, _)| k != "schema_version");
        }
        let err = diff_docs(&bad, &good).unwrap_err();
        assert!(err.contains("old document"), "{err}");
        let err = diff_docs(&good, &bad).unwrap_err();
        assert!(err.contains("new document"), "{err}");
    }

    #[test]
    fn cells_arrays_pair_by_config_and_workload() {
        let r = rollup(&[100_000], Phase::Wire);
        let cell = |c: &str, w: &str| doc(c, w, &r);
        let multi = |cells: Vec<Json>| {
            Json::obj()
                .set("schema_version", SCHEMA_VERSION)
                .set("cells", cells)
        };
        let old = multi(vec![cell("A", "one-way"), cell("B", "two-way")]);
        let new = multi(vec![cell("B", "two-way")]);
        let report = diff_docs(&old, &new).unwrap();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].overall.name, "B two-way");
        assert_eq!(report.missing, vec!["A one-way".to_string()]);
        assert!(report.differs(), "a missing cell is a finding");
        let human = report.render_human();
        assert!(human.contains("missing from the new document"));
        // Machine output round-trips through the parser.
        let j = report.to_json();
        assert!(Json::parse(&j.render_pretty()).is_ok());
        assert_eq!(j.get("differs"), Some(&Json::Bool(true)));
    }
}
