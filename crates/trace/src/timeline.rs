//! Time-resolved telemetry: an allocation-free fixed-interval sampler.
//!
//! Every other surface in this crate reports end-of-run aggregates or
//! trigger-driven post-mortems; the timeline answers "what happened *per
//! interval*". Register counter and gauge sources up front
//! ([`TimelineBuilder`]), then on the hot path feed raw readings with
//! [`Timeline::set`] and commit rows with [`Timeline::sample`] — both touch
//! only storage preallocated at build time, so a sampler armed on the
//! datapath costs no allocations per tick.
//!
//! **Encoding.** Counter sources are *delta-encoded*: each committed row
//! stores the increase since the previous row, so per-interval rates fall
//! out directly and the retained rows telescope — for every counter,
//! `base + Σ retained deltas == final raw reading`, an invariant that holds
//! through ring eviction (evicting the oldest row folds its delta into the
//! base) and that consumers verify against end-of-run aggregate stats.
//! Gauge sources store the raw reading per row (occupancy, backlog, state).
//!
//! **Memory.** The ring holds at most `capacity` rows; when full, the
//! oldest row is evicted (counted in [`Timeline::evicted`]) rather than
//! growing. The driver decides the clock: a simulator arms a recurring
//! event on virtual time, a wire driver polls [`Timeline::due`] against
//! `Backplane::now_ns` wall time — the timeline itself never reads a clock.
//!
//! **Freshness.** A row commits the latest staged reading of every
//! column; a sampler sets every column before each commit (the protocol's
//! does), so no row re-commits an old gauge reading as fresh.
//!
//! **Export.** [`Timeline::to_jsonl`] emits one schema-versioned header
//! line plus one compact JSON object per row; [`TimelineDoc::parse_jsonl`]
//! reads the format back (for `me-inspect timeline` and the bench
//! reconciliation gates) and [`TimelineDoc::decode`] reconstructs the raw
//! cumulative series from the deltas.

use crate::json::{Json, SCHEMA_VERSION};

/// Artifact `kind` stamped into the JSONL header line.
pub const TIMELINE_KIND: &str = "multiedge_timeline";

/// What a registered source measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Monotonically non-decreasing raw readings; rows store per-interval
    /// deltas.
    Counter,
    /// Instantaneous readings (occupancy, backlog, encoded state); rows
    /// store the raw value at sample time.
    Gauge,
}

impl SourceKind {
    /// Stable lowercase label used in the JSONL header.
    pub fn label(&self) -> &'static str {
        match self {
            SourceKind::Counter => "counter",
            SourceKind::Gauge => "gauge",
        }
    }
}

/// Handle to a registered source: an index into the timeline's columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceId(usize);

impl SourceId {
    /// The column index this handle selects in a row's value slice.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Registers sources before any storage is sized; [`TimelineBuilder::build`]
/// allocates everything the sampler will ever touch.
#[derive(Debug, Default)]
pub struct TimelineBuilder {
    names: Vec<String>,
    kinds: Vec<SourceKind>,
}

impl TimelineBuilder {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a monotone counter source.
    pub fn counter(&mut self, name: &str) -> SourceId {
        self.register(name, SourceKind::Counter)
    }

    /// Register a gauge source.
    pub fn gauge(&mut self, name: &str) -> SourceId {
        self.register(name, SourceKind::Gauge)
    }

    fn register(&mut self, name: &str, kind: SourceKind) -> SourceId {
        self.names.push(name.to_string());
        self.kinds.push(kind);
        SourceId(self.names.len() - 1)
    }

    /// Allocate the sample ring: `capacity` rows sampled every
    /// `interval_ns`, with the sampling grid anchored at `start_ns` (the
    /// first row is due at `start_ns + interval_ns`).
    ///
    /// Panics if `interval_ns` or `capacity` is zero, or no sources were
    /// registered — all caller bugs.
    pub fn build(self, interval_ns: u64, capacity: usize, start_ns: u64) -> Timeline {
        assert!(interval_ns > 0, "timeline interval must be non-zero");
        assert!(capacity > 0, "timeline capacity must be non-zero");
        assert!(!self.names.is_empty(), "timeline needs at least one source");
        let n = self.names.len();
        Timeline {
            interval_ns,
            capacity,
            names: self.names,
            kinds: self.kinds,
            vals: vec![0; capacity * n],
            times: vec![0; capacity],
            head: 0,
            len: 0,
            cur: vec![0; n],
            last_raw: vec![0; n],
            base_raw: vec![0; n],
            base_time_ns: start_ns,
            next_due_ns: start_ns.saturating_add(interval_ns),
            evicted: 0,
            samples_total: 0,
        }
    }
}

/// The preallocated sample ring. See the [module docs](self) for the
/// encoding and eviction contract.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    interval_ns: u64,
    capacity: usize,
    names: Vec<String>,
    kinds: Vec<SourceKind>,
    /// `capacity` rows × `names.len()` columns, flat, ring-indexed by row.
    vals: Vec<u64>,
    times: Vec<u64>,
    head: usize,
    len: usize,
    /// Staging row: the latest raw reading per source.
    cur: Vec<u64>,
    /// Raw reading per source at the last committed row.
    last_raw: Vec<u64>,
    /// Raw reading per source at the base (just before the oldest retained
    /// row); evicting a row folds its delta in here.
    base_raw: Vec<u64>,
    base_time_ns: u64,
    next_due_ns: u64,
    evicted: u64,
    samples_total: u64,
}

impl Timeline {
    /// Number of registered sources.
    pub fn sources(&self) -> usize {
        self.names.len()
    }

    /// Source names, column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Source kinds, column order.
    pub fn kinds(&self) -> &[SourceKind] {
        &self.kinds
    }

    /// Look a source up by name (for consumers that only hold the
    /// finished timeline, not the builder's [`SourceId`]s).
    pub fn source_id(&self, name: &str) -> Option<SourceId> {
        self.names.iter().position(|n| n == name).map(SourceId)
    }

    /// Configured sampling interval.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Retained rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no row has been committed (or all were evicted — which
    /// cannot happen, eviction only makes room for a new row).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Rows evicted to bound memory.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Rows ever committed (`retained + evicted`).
    pub fn samples_total(&self) -> u64 {
        self.samples_total
    }

    /// Timestamp of the base (start, or the last evicted row).
    pub fn base_time_ns(&self) -> u64 {
        self.base_time_ns
    }

    /// Stage a raw reading for `id`. Allocation-free; the value is
    /// committed into a row by the next [`Timeline::sample`].
    #[inline]
    pub fn set(&mut self, id: SourceId, raw: u64) {
        self.cur[id.0] = raw;
    }

    /// Is a sample due at `now_ns`? The driver calls this from whatever
    /// clock it runs on and follows up with [`Timeline::sample`].
    #[inline]
    pub fn due(&self, now_ns: u64) -> bool {
        now_ns >= self.next_due_ns
    }

    /// Commit the staged readings as one row stamped `now_ns`, and advance
    /// the due grid past `now_ns`. Counters store the delta since the
    /// previous row (saturating at zero if a "monotone" source ran
    /// backwards — that is a registration bug, not a panic); gauges store
    /// the staged raw value. Allocation-free: evicts the oldest row when
    /// the ring is full.
    pub fn sample(&mut self, now_ns: u64) {
        let n = self.names.len();
        if self.len == self.capacity {
            // Fold the oldest row into the base so telescoping survives.
            let row = self.head;
            for (c, kind) in self.kinds.iter().enumerate() {
                if *kind == SourceKind::Counter {
                    self.base_raw[c] += self.vals[row * n + c];
                }
            }
            self.base_time_ns = self.times[row];
            self.head = (self.head + 1) % self.capacity;
            self.len -= 1;
            self.evicted += 1;
        }
        let row = (self.head + self.len) % self.capacity;
        for c in 0..n {
            self.vals[row * n + c] = match self.kinds[c] {
                SourceKind::Counter => {
                    let d = self.cur[c].saturating_sub(self.last_raw[c]);
                    self.last_raw[c] = self.cur[c];
                    d
                }
                SourceKind::Gauge => self.cur[c],
            };
        }
        self.times[row] = now_ns;
        self.len += 1;
        self.samples_total += 1;
        while self.next_due_ns <= now_ns {
            self.next_due_ns += self.interval_ns;
        }
    }

    /// `(t_ns, row values)` of retained row `i` (0 = oldest).
    pub fn row(&self, i: usize) -> (u64, &[u64]) {
        assert!(i < self.len, "row {i} out of {} retained", self.len);
        let n = self.names.len();
        let row = (self.head + i) % self.capacity;
        (self.times[row], &self.vals[row * n..(row + 1) * n])
    }

    /// Sum of retained deltas (counters) or retained raw values (gauges)
    /// for one column.
    pub fn column_sum(&self, id: SourceId) -> u64 {
        (0..self.len).map(|i| self.row(i).1[id.0]).sum()
    }

    /// The raw reading of `id` at the last committed row (counters:
    /// `base_raw + column_sum`; the telescoping invariant).
    pub fn final_raw(&self, id: SourceId) -> u64 {
        self.last_raw[id.0]
    }

    /// The folded base reading of `id` (what the evicted prefix summed to).
    pub fn base_raw(&self, id: SourceId) -> u64 {
        self.base_raw[id.0]
    }

    /// Render the timeline as JSONL: a schema-versioned header object on
    /// line one, then one compact `{"t_ns":…,"v":[…]}` object per retained
    /// row. Allocates — call it after the measured region.
    pub fn to_jsonl(&self) -> String {
        let sources: Vec<Json> = self
            .names
            .iter()
            .zip(&self.kinds)
            .enumerate()
            .map(|(c, (name, kind))| {
                Json::obj()
                    .set("name", name.as_str())
                    .set("kind", kind.label())
                    .set("base", self.base_raw[c])
                    .set("final", self.last_raw[c])
            })
            .collect();
        let header = Json::obj()
            .set("schema_version", SCHEMA_VERSION)
            .set("kind", TIMELINE_KIND)
            .set("interval_ns", self.interval_ns)
            .set("base_time_ns", self.base_time_ns)
            .set("evicted", self.evicted)
            .set("samples_total", self.samples_total)
            .set("sources", sources);
        let mut out = header.render();
        out.push('\n');
        for i in 0..self.len {
            let (t, vals) = self.row(i);
            let row = Json::obj()
                .set("t_ns", t)
                .set("v", vals.iter().map(|&v| Json::from(v)).collect::<Vec<_>>());
            out.push_str(&row.render());
            out.push('\n');
        }
        out
    }
}

/// One source as described by a parsed JSONL header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceInfo {
    /// Registered name.
    pub name: String,
    /// Counter or gauge.
    pub kind: SourceKind,
    /// Folded base reading (counters; 0 for gauges).
    pub base: u64,
    /// Raw reading at the last retained row.
    pub final_raw: u64,
}

/// A parsed timeline artifact: the read-side twin of [`Timeline::to_jsonl`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineDoc {
    /// Sampling interval.
    pub interval_ns: u64,
    /// Timestamp of the base (start or last evicted row).
    pub base_time_ns: u64,
    /// Rows evicted before export.
    pub evicted: u64,
    /// Rows ever committed.
    pub samples_total: u64,
    /// Source descriptors, column order.
    pub sources: Vec<SourceInfo>,
    /// Retained rows: `(t_ns, per-column values)`.
    pub samples: Vec<(u64, Vec<u64>)>,
}

impl TimelineDoc {
    /// Parse a JSONL artifact produced by [`Timeline::to_jsonl`]. Rejects
    /// unknown schema versions, wrong `kind`, and rows whose width does not
    /// match the header.
    pub fn parse_jsonl(text: &str) -> Result<TimelineDoc, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines.next().ok_or("empty timeline artifact")?;
        let header = Json::parse(header_line).map_err(|e| format!("header: {e}"))?;
        crate::json::require_schema(&header)?;
        if header.get("kind").and_then(|k| k.as_str()) != Some(TIMELINE_KIND) {
            return Err(format!("not a {TIMELINE_KIND} artifact"));
        }
        let num = |k: &str| {
            header
                .get(k)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("header missing {k}"))
        };
        let sources: Vec<SourceInfo> = header
            .get("sources")
            .and_then(|s| s.items())
            .ok_or("header missing sources")?
            .iter()
            .map(|s| {
                let name = s
                    .get("name")
                    .and_then(|v| v.as_str())
                    .ok_or("source missing name")?
                    .to_string();
                let kind = match s.get("kind").and_then(|v| v.as_str()) {
                    Some("counter") => SourceKind::Counter,
                    Some("gauge") => SourceKind::Gauge,
                    other => return Err(format!("source {name}: bad kind {other:?}")),
                };
                Ok(SourceInfo {
                    name,
                    kind,
                    base: s.get("base").and_then(|v| v.as_u64()).unwrap_or(0),
                    final_raw: s.get("final").and_then(|v| v.as_u64()).unwrap_or(0),
                })
            })
            .collect::<Result<_, String>>()?;
        let mut samples = Vec::new();
        for (i, line) in lines.enumerate() {
            let row = Json::parse(line).map_err(|e| format!("row {i}: {e}"))?;
            let t = row
                .get("t_ns")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("row {i}: missing t_ns"))?;
            let vals: Vec<u64> = row
                .get("v")
                .and_then(|v| v.items())
                .ok_or_else(|| format!("row {i}: missing v"))?
                .iter()
                .map(|v| v.as_u64().ok_or_else(|| format!("row {i}: non-u64 value")))
                .collect::<Result<_, String>>()?;
            if vals.len() != sources.len() {
                return Err(format!(
                    "row {i}: {} values for {} sources",
                    vals.len(),
                    sources.len()
                ));
            }
            samples.push((t, vals));
        }
        Ok(TimelineDoc {
            interval_ns: num("interval_ns")?,
            base_time_ns: num("base_time_ns")?,
            evicted: num("evicted")?,
            samples_total: num("samples_total")?,
            sources,
            samples,
        })
    }

    /// Column index of a source by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.sources.iter().position(|s| s.name == name)
    }

    /// Reconstruct the raw reading series for column `c` at each retained
    /// row: counters telescope `base + running delta sum`, gauges are
    /// already raw.
    pub fn decode(&self, c: usize) -> Vec<(u64, u64)> {
        let kind = self.sources[c].kind;
        let mut acc = self.sources[c].base;
        self.samples
            .iter()
            .map(|(t, vals)| {
                let raw = match kind {
                    SourceKind::Counter => {
                        acc += vals[c];
                        acc
                    }
                    SourceKind::Gauge => vals[c],
                };
                (*t, raw)
            })
            .collect()
    }

    /// Verify the telescoping invariant for every counter column:
    /// `base + Σ retained deltas == final`. This is what lets a consumer
    /// reconcile per-interval deltas against end-of-run aggregate stats.
    pub fn reconcile(&self) -> Result<(), String> {
        for (c, s) in self.sources.iter().enumerate() {
            if s.kind != SourceKind::Counter {
                continue;
            }
            let sum: u64 = s.base + self.samples.iter().map(|(_, v)| v[c]).sum::<u64>();
            if sum != s.final_raw {
                return Err(format!(
                    "counter {}: base+Σdeltas = {sum} but final = {}",
                    s.name, s.final_raw
                ));
            }
        }
        Ok(())
    }
}

/// Per-interval imbalance index over one row of per-member values:
/// `(max / mean, argmax)`. Returns `(1.0, 0)` for an all-zero or empty row
/// (perfectly balanced nothing). This is the node-balance signal the
/// incast diagnosis consumes: 1.0 means even load, `k` means the hottest
/// member did `k×` the mean.
pub fn imbalance(values: &[u64]) -> (f64, usize) {
    let total: u64 = values.iter().sum();
    if values.is_empty() || total == 0 {
        return (1.0, 0);
    }
    let mut hot = 0;
    let mut max = values[0];
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v > max {
            (hot, max) = (i, v);
        }
    }
    let mean = total as f64 / values.len() as f64;
    (max as f64 / mean, hot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_source_tl(capacity: usize) -> (Timeline, SourceId, SourceId) {
        let mut b = TimelineBuilder::new();
        let c = b.counter("frames");
        let g = b.gauge("backlog");
        (b.build(100, capacity, 0), c, g)
    }

    #[test]
    fn counters_delta_encode_and_gauges_stay_raw() {
        let (mut tl, c, g) = two_source_tl(8);
        for (t, raw, gauge) in [(100, 5, 7), (200, 9, 3), (300, 9, 0)] {
            tl.set(c, raw);
            tl.set(g, gauge);
            assert!(tl.due(t));
            tl.sample(t);
        }
        assert_eq!(tl.len(), 3);
        assert_eq!(tl.row(0), (100, &[5, 7][..]));
        assert_eq!(tl.row(1), (200, &[4, 3][..]));
        assert_eq!(tl.row(2), (300, &[0, 0][..]));
        assert_eq!(tl.final_raw(c), 9);
        assert_eq!(tl.base_raw(c) + tl.column_sum(c), tl.final_raw(c));
    }

    #[test]
    fn due_grid_catches_up_past_gaps() {
        let (mut tl, c, _) = two_source_tl(8);
        assert!(!tl.due(99));
        assert!(tl.due(100));
        tl.set(c, 1);
        // A late sample at t=950 must advance the grid past it, not
        // schedule nine catch-up rows.
        tl.sample(950);
        assert!(!tl.due(999));
        assert!(tl.due(1000));
    }

    #[test]
    fn eviction_preserves_telescoping() {
        let (mut tl, c, g) = two_source_tl(4);
        for i in 1..=10u64 {
            tl.set(c, i * i); // monotone, uneven deltas
            tl.set(g, i);
            tl.sample(i * 100);
        }
        assert_eq!(tl.len(), 4);
        assert_eq!(tl.evicted(), 6);
        assert_eq!(tl.samples_total(), 10);
        // Base folded the evicted deltas: base time is the last evicted
        // row's stamp and base+retained still reaches the final reading.
        assert_eq!(tl.base_time_ns(), 600);
        assert_eq!(tl.base_raw(c), 36);
        assert_eq!(tl.base_raw(c) + tl.column_sum(c), 100);
        assert_eq!(tl.final_raw(c), 100);
    }

    #[test]
    fn jsonl_round_trips_and_reconciles() {
        let (mut tl, c, g) = two_source_tl(3);
        for i in 1..=5u64 {
            tl.set(c, 3 * i);
            tl.set(g, 10 - i);
            tl.sample(i * 100);
        }
        let text = tl.to_jsonl();
        let doc = TimelineDoc::parse_jsonl(&text).expect("parses");
        assert_eq!(doc.interval_ns, 100);
        assert_eq!(doc.evicted, 2);
        assert_eq!(doc.samples_total, 5);
        assert_eq!(doc.sources.len(), 2);
        assert_eq!(doc.sources[0].kind, SourceKind::Counter);
        assert_eq!(doc.samples.len(), 3);
        doc.reconcile().expect("telescopes");
        // Decoding rebuilds the raw series at the retained stamps.
        assert_eq!(doc.decode(0), vec![(300, 9), (400, 12), (500, 15)]);
        assert_eq!(doc.decode(1), vec![(300, 7), (400, 6), (500, 5)]);
    }

    #[test]
    fn parse_rejects_foreign_and_mangled_input() {
        assert!(TimelineDoc::parse_jsonl("").is_err());
        assert!(TimelineDoc::parse_jsonl("{\"schema_version\":2,\"kind\":\"other\"}").is_err());
        let (mut tl, c, _) = two_source_tl(4);
        tl.set(c, 1);
        tl.sample(100);
        let good = tl.to_jsonl();
        // Unknown schema version must be rejected loudly.
        let stale = good.replacen("\"schema_version\":2", "\"schema_version\":1", 1);
        assert!(TimelineDoc::parse_jsonl(&stale).is_err());
        // A row whose width disagrees with the header must be rejected.
        let narrow = good.replace("\"v\":[1,0]", "\"v\":[1]");
        assert!(TimelineDoc::parse_jsonl(&narrow).is_err());
    }

    #[test]
    fn reconcile_detects_tampered_deltas() {
        let (mut tl, c, _) = two_source_tl(4);
        for i in 1..=3u64 {
            tl.set(c, i * 2);
            tl.sample(i * 100);
        }
        let text = tl.to_jsonl();
        let bad = text.replace("\"v\":[2,0]", "\"v\":[3,0]");
        assert_ne!(text, bad, "tamper target present");
        let doc = TimelineDoc::parse_jsonl(&bad).expect("still parses");
        assert!(doc.reconcile().is_err());
    }

    #[test]
    fn imbalance_names_the_hot_member() {
        assert_eq!(imbalance(&[]), (1.0, 0));
        assert_eq!(imbalance(&[0, 0, 0]), (1.0, 0));
        assert_eq!(imbalance(&[4, 4, 4, 4]), (1.0, 0));
        let (idx, hot) = imbalance(&[1, 1, 6, 0]);
        assert_eq!(hot, 2);
        assert!((idx - 3.0).abs() < 1e-12);
    }
}
