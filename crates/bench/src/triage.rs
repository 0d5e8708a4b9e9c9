//! Triage cells: re-runnable attribution workloads in the document shape
//! `me-inspect diff` reads.
//!
//! A triage *cell* is a named micro-benchmark configuration (topology ×
//! workload × size × iteration count) run over several deterministic
//! seeds. Each round's span snapshot is analyzed into an
//! [`Attribution`] and the rounds are merged bucket-wise; the per-round
//! latency quantiles are kept so the emitted document carries an honest
//! **cross-seed noise bound**. The simulator is virtual-time
//! deterministic — re-running a cell on the same build reproduces the
//! merged document bit for bit, so a diff between two builds is real
//! protocol movement, never wall-clock jitter.
//!
//! Nothing gates on these documents: simulated behaviour is pinned exactly
//! by `tests/stats_equivalence.rs`. The `backplane` bench pairs them
//! sim-vs-UDP, and the integration tests use [`run_cell_with`] to inject
//! deliberate slowdowns and assert the diff engine names the phase that
//! moved — the diagnosis a golden break is read with.

use me_trace::json::SCHEMA_VERSION;
use me_trace::{analyze, Attribution, Json};
use multiedge::SystemConfig;

use crate::micro::{run_micro, MicroKind};

/// Span-ring capacity for triage runs (comfortably above any cell's op
/// count, so `overwritten == 0` always holds).
const SPAN_CAP: usize = 1 << 16;

/// One triage cell: a deterministic workload re-run across seeds.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// Topology name, resolved by [`base_config`].
    pub config: &'static str,
    /// Micro-benchmark workload.
    pub kind: MicroKind,
    /// Op payload size in bytes.
    pub size: usize,
    /// Ops per round (per direction for two-way).
    pub iters: usize,
    /// Deterministic rounds merged into the document (seeds
    /// `base_seed..base_seed + rounds`).
    pub rounds: u64,
    /// First seed of the round sweep.
    pub base_seed: u64,
}

impl CellSpec {
    /// Display name, matching the diff engine's cell pairing key
    /// (`"<config> <workload>"`).
    pub fn name(&self) -> String {
        format!("{} {}", self.config, self.kind.name())
    }
}

/// Resolve a cell's topology name to its [`SystemConfig`] builder.
pub fn base_config(name: &str) -> SystemConfig {
    match name {
        "1L-1G" => SystemConfig::one_link_1g(2),
        "2Lu-1G" => SystemConfig::two_link_1g_unordered(2),
        "4L-1G" => SystemConfig::four_link_1g(2),
        "1L-10G" => SystemConfig::one_link_10g(2),
        other => panic!("unknown triage config '{other}'"),
    }
}

/// One round's end-to-end latency quantiles (the noise-bound inputs).
#[derive(Debug, Clone, Copy)]
pub struct RoundStat {
    /// The seed this round ran with.
    pub seed: u64,
    /// Overall latency p50 of the single round (ns).
    pub latency_p50_ns: u64,
    /// Overall latency p99 of the single round (ns).
    pub latency_p99_ns: u64,
}

/// A completed cell run: merged attribution plus per-round stats.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// All rounds merged bucket-wise.
    pub attr: Attribution,
    /// Per-round quantiles, in seed order.
    pub rounds: Vec<RoundStat>,
}

/// Run a cell with a config mutation applied to every round — the hook the
/// injection tests use to slow down one protocol layer on the "new" side.
pub fn run_cell_with(spec: &CellSpec, tweak: &dyn Fn(&mut SystemConfig)) -> CellRun {
    let mut attr = Attribution::default();
    let mut rounds = Vec::new();
    for r in 0..spec.rounds {
        let mut cfg = base_config(spec.config).with_spans(SPAN_CAP);
        cfg.seed = spec.base_seed + r;
        tweak(&mut cfg);
        let res = run_micro(&cfg, spec.kind, spec.size, spec.iters);
        let snap = res.spans.expect("spans enabled");
        assert_eq!(snap.overwritten, 0, "span ring must retain the whole round");
        let a = analyze(&snap);
        rounds.push(RoundStat {
            seed: cfg.seed,
            latency_p50_ns: a.overall.latency_hist.percentile(50.0),
            latency_p99_ns: a.overall.latency_hist.percentile(99.0),
        });
        attr.merge(&a);
    }
    CellRun { attr, rounds }
}

/// Run a cell as configured.
pub fn run_cell(spec: &CellSpec) -> CellRun {
    run_cell_with(spec, &|_| {})
}

/// Relative cross-seed spread of a quantile: `(max − min) / merged`.
fn spread(merged: u64, per_round: impl Iterator<Item = u64>) -> f64 {
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for v in per_round {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if merged == 0 || lo == u64::MAX {
        0.0
    } else {
        (hi - lo) as f64 / merged as f64
    }
}

/// Render a cell run as the baseline/candidate document the diff engine
/// consumes: schema-stamped, self-describing (config/workload/seeds), with
/// the merged attribution (including exact histograms) and the cross-seed
/// noise bound.
pub fn cell_doc(spec: &CellSpec, profile: &str, run: &CellRun) -> Json {
    let merged_p50 = run.attr.overall.latency_hist.percentile(50.0);
    let merged_p99 = run.attr.overall.latency_hist.percentile(99.0);
    let noise_p50 = spread(merged_p50, run.rounds.iter().map(|r| r.latency_p50_ns));
    let noise_p99 = spread(merged_p99, run.rounds.iter().map(|r| r.latency_p99_ns));
    let rounds_detail = run
        .rounds
        .iter()
        .map(|r| {
            Json::obj()
                .set("seed", r.seed)
                .set("latency_p50_ns", r.latency_p50_ns)
                .set("latency_p99_ns", r.latency_p99_ns)
        })
        .collect::<Vec<_>>();
    Json::obj()
        .set("schema_version", SCHEMA_VERSION)
        .set("kind", "multiedge_attribution_cell")
        .set("profile", profile)
        .set("config", spec.config)
        .set("workload", spec.kind.name())
        .set("size", spec.size)
        .set("iters", spec.iters)
        .set("rounds", spec.rounds)
        .set("base_seed", spec.base_seed)
        .set(
            "noise",
            Json::obj()
                .set("latency_p50_rel", noise_p50)
                .set("latency_p99_rel", noise_p99),
        )
        .set("rounds_detail", rounds_detail)
        .set("attribution", run.attr.to_json())
}
