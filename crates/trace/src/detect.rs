//! Streaming anomaly detection + automated incident diagnosis: the online
//! health plane over the timeline sampler.
//!
//! The timeline plane ([`crate::timeline`]) records what happened per
//! interval; this module *watches* it. A [`HealthMonitor`] consumes the
//! exact delta rows [`Timeline::sample`] commits — one
//! [`HealthMonitor::observe`] call per committed row — and runs three
//! allocation-free detector families per column:
//!
//! - **Level shifts** ([`Zscore`]): an EWMA baseline with an EWMA of
//!   absolute deviation scaled by 1.4826 (the MAD→σ factor for normal
//!   data) yields a robust z-score; a reading more than
//!   [`HealthConfig::z_threshold`] scaled deviations from baseline alarms.
//! - **Slow drifts** ([`Cusum`]): an upward one-sided normalized CUSUM
//!   over a slow robust baseline, `s ← max(0, s + z − slack)`, accumulates
//!   small per-interval excursions the z-score alone would never flag and
//!   alarms when `s` crosses [`HealthConfig::cusum_threshold`].
//! - **Rate bursts** ([`Burst`]): monotone counters that are quiet on a
//!   healthy path (retransmits, NACKs, duplicates, corruption, rail-down
//!   events) alarm when one interval's delta is both at least
//!   [`HealthConfig::burst_floor`] and more than
//!   [`HealthConfig::burst_factor`] × the counter's own EWMA rate.
//!
//! Rule-based detectors need no baseline: a `rail*.state` gauge equal to
//! the dead code alarms immediately, and a `fence_buffered` gauge that
//! stays non-zero for [`HealthConfig::fence_stuck_intervals`] consecutive
//! rows alarms as a stuck fence.
//!
//! **Diagnosis.** All alarms raised by one row are correlated into a
//! single probable cause per tick ([`IncidentCause`], picked by severity
//! priority) and folded into an open [`Incident`] of that cause — or open
//! a new one, which is what arms the flight recorder's `Anomaly` trigger.
//! An incident closes after [`HealthConfig::clear_intervals`] consecutive
//! quiet rows. Everything on the observe path works in storage
//! preallocated at construction: zero allocations in steady state.
//!
//! **Offline ≡ online.** The monitor reads nothing but
//! `(t_ns, row values, stale columns)` — exactly what the JSONL artifact
//! retains — so replaying a dump through [`HealthMonitor::replay_doc`]
//! reproduces bit-identical incidents to the live monitor, provided the
//! ring retained every row (no eviction). Scores are quantized to
//! milli-units ([`Alarm::score_milli`]) so reports render identically on
//! any platform. Stale gauge columns (see [`Timeline::stale_words`]) are
//! skipped entirely: a re-committed reading is not an observation.

use crate::json::{Json, SCHEMA_VERSION};
use crate::timeline::{imbalance, SourceKind, Timeline, TimelineDoc};

/// Artifact `kind` stamped into rendered health reports.
pub const HEALTH_KIND: &str = "multiedge_health";

/// Tuning knobs for the detectors and the incident lifecycle. `Copy` so a
/// run configuration can embed one by value; [`HealthConfig::default`] is
/// tuned to stay silent on clean seeded runs (see the `doctor` bench gate)
/// while catching seeded outages within a few intervals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthConfig {
    /// EWMA smoothing factor for the z-score baseline (and burst rates).
    pub ewma_alpha: f64,
    /// Slower smoothing factor for the CUSUM reference baseline — slow on
    /// purpose, so a drift cannot drag its own reference along.
    pub cusum_alpha: f64,
    /// Absolute floor on the deviation scale σ (units of the column).
    pub sigma_floor_abs: f64,
    /// Relative floor on σ as a fraction of the baseline mean; keeps
    /// naturally bursty gauges (in-flight occupancy) from alarming on
    /// ordinary swings.
    pub sigma_floor_rel: f64,
    /// CUSUM's own (much tighter) relative σ floor: the slack term already
    /// absorbs noise, and the z-score's wide floor would swamp exactly the
    /// slow drifts CUSUM exists to catch.
    pub cusum_floor_rel: f64,
    /// |z| at or above this alarms as a level shift.
    pub z_threshold: f64,
    /// Per-interval slack subtracted before CUSUM accumulation.
    pub cusum_slack: f64,
    /// CUSUM sum at or above this alarms as a drift.
    pub cusum_threshold: f64,
    /// Burst rule: delta must exceed this multiple of the EWMA rate.
    pub burst_factor: f64,
    /// Burst rule: delta must also be at least this absolute count.
    pub burst_floor: u64,
    /// Rows before z/CUSUM may alarm (baselines still warming up).
    pub warmup: u32,
    /// Consecutive quiet rows before an open incident closes.
    pub clear_intervals: u32,
    /// Consecutive non-zero `fence_buffered` rows before a stall alarms.
    pub fence_stuck_intervals: u32,
    /// Encoded `rail*.state` value that means the rail is dead.
    pub rail_dead_code: u64,
    /// Cross-member imbalance index (max/mean) at or above this alarms.
    pub imbalance_threshold: f64,
    /// Minimum row total before the imbalance index is meaningful.
    pub imbalance_min_total: u64,
    /// Consecutive imbalanced rows before the alarm fires.
    pub imbalance_consecutive: u32,
    /// Hard cap on recorded incidents; beyond it new opens are counted as
    /// suppressed instead of allocated.
    pub max_incidents: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            ewma_alpha: 0.2,
            cusum_alpha: 0.025,
            sigma_floor_abs: 1.0,
            sigma_floor_rel: 0.5,
            cusum_floor_rel: 0.05,
            z_threshold: 6.0,
            cusum_slack: 0.5,
            cusum_threshold: 12.0,
            burst_factor: 8.0,
            burst_floor: 4,
            warmup: 8,
            clear_intervals: 3,
            fence_stuck_intervals: 8,
            rail_dead_code: 2,
            imbalance_threshold: 2.5,
            imbalance_min_total: 64,
            imbalance_consecutive: 2,
            max_incidents: 32,
        }
    }
}

impl HealthConfig {
    fn sigma(&self, dev: f64, mean: f64) -> f64 {
        let floor = self.sigma_floor_abs.max(self.sigma_floor_rel * mean.abs());
        (1.4826 * dev).max(floor)
    }

    fn cusum_sigma(&self, dev: f64, mean: f64) -> f64 {
        let floor = self.sigma_floor_abs.max(self.cusum_floor_rel * mean.abs());
        (1.4826 * dev).max(floor)
    }
}

/// Robust streaming z-score: EWMA mean + EWMA absolute deviation scaled by
/// 1.4826 (MAD→σ). [`Zscore::observe`] returns the score of the reading
/// against the baseline *before* folding it in; warmup rows score 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Zscore {
    mean: f64,
    dev: f64,
    seen: u32,
}

impl Zscore {
    /// Score `x` against the baseline, then update the baseline.
    pub fn observe(&mut self, x: f64, cfg: &HealthConfig) -> f64 {
        if self.seen == 0 {
            self.mean = x;
            self.dev = 0.0;
            self.seen = 1;
            return 0.0;
        }
        let z = (x - self.mean) / cfg.sigma(self.dev, self.mean);
        let a = cfg.ewma_alpha;
        self.mean += a * (x - self.mean);
        self.dev += a * ((x - self.mean).abs() - self.dev);
        self.seen = self.seen.saturating_add(1);
        if self.seen <= cfg.warmup {
            0.0
        } else {
            z
        }
    }

    /// Current baseline mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// Upward one-sided normalized CUSUM over a slow robust baseline:
/// `s ← clamp(s + z − slack)`. The reference baseline moves with the
/// *slow* [`HealthConfig::cusum_alpha`] so a drift cannot hide by
/// dragging its own reference along — exactly the case the z-score
/// misses. Upward-only on purpose: for backlog/occupancy gauges growth is
/// the pathology, while draining back to zero is recovery (a two-sided
/// sum would alarm on every clean end-of-run drain).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cusum {
    mean: f64,
    dev: f64,
    seen: u32,
    sum: f64,
}

impl Cusum {
    /// Accumulate `x`; returns the current CUSUM score (0 during warmup).
    pub fn observe(&mut self, x: f64, cfg: &HealthConfig) -> f64 {
        if self.seen == 0 {
            self.mean = x;
            self.dev = 0.0;
            self.seen = 1;
            return 0.0;
        }
        let z = (x - self.mean) / cfg.cusum_sigma(self.dev, self.mean);
        let a = cfg.cusum_alpha;
        self.mean += a * (x - self.mean);
        self.dev += a * ((x - self.mean).abs() - self.dev);
        self.seen = self.seen.saturating_add(1);
        if self.seen <= cfg.warmup {
            return 0.0;
        }
        // Clamp so a long-running excursion can still decay away once the
        // slow baseline catches up, instead of latching forever.
        let cap = 4.0 * cfg.cusum_threshold;
        self.sum = (self.sum + z - cfg.cusum_slack).clamp(0.0, cap);
        self.sum
    }

    /// Current accumulated sum.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

/// Rate-burst detector for monotone counters that are quiet on a healthy
/// path. The EWMA rate starts at zero — a storm present from the first row
/// still alarms — and a delta alarms when it clears both the absolute
/// floor and the relative factor against the counter's own rate.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Burst {
    ewma: f64,
}

impl Burst {
    /// Score one interval delta: 0 when quiet, the delta/rate ratio when
    /// the burst rule fires.
    pub fn observe(&mut self, delta: u64, cfg: &HealthConfig) -> f64 {
        let x = delta as f64;
        let fired = delta >= cfg.burst_floor && x > cfg.burst_factor * self.ewma;
        let score = if fired { x / self.ewma.max(1.0) } else { 0.0 };
        self.ewma += cfg.ewma_alpha * (x - self.ewma);
        score
    }
}

/// Which detector family raised an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlarmKind {
    /// Robust z-score level shift.
    #[default]
    Level,
    /// CUSUM drift accumulation.
    Drift,
    /// Rate burst on a quiet counter.
    Burst,
    /// A `rail*.state` gauge read the dead code.
    RailDead,
    /// `fence_buffered` stayed non-zero too long.
    FenceStuck,
    /// Cross-member imbalance index exceeded threshold.
    Imbalance,
}

impl AlarmKind {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AlarmKind::Level => "level",
            AlarmKind::Drift => "drift",
            AlarmKind::Burst => "burst",
            AlarmKind::RailDead => "rail_dead",
            AlarmKind::FenceStuck => "fence_stuck",
            AlarmKind::Imbalance => "imbalance",
        }
    }
}

/// One detector firing on one column of one row. `Copy` + `Default` so
/// incidents can hold evidence in a fixed inline array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Alarm {
    /// Row timestamp.
    pub t_ns: u64,
    /// Column index into the monitor's source names.
    pub column: u32,
    /// Which detector fired.
    pub kind: AlarmKind,
    /// The committed row value that fired (delta for counters, raw for
    /// gauges).
    pub value: u64,
    /// Detector score × 1000, rounded — integral so rendered reports are
    /// bit-identical between the online monitor and offline replay.
    pub score_milli: i64,
}

/// Named probable cause of an incident, ordered by classification
/// priority: when one row raises alarms of several flavours they are
/// correlated into the highest-priority cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum IncidentCause {
    /// A rail's failure detector declared it dead (or rail-down events
    /// burst).
    RailOutage,
    /// Retransmits / NACKs / duplicates / corruption burst far above the
    /// path's own rate.
    RetransmitStorm,
    /// Fence buffering stuck or shifting: ordered delivery is stalled.
    FenceStall,
    /// One member is doing a disproportionate share of the work.
    IncastImbalance,
    /// Backlog / occupancy gauges shifted or drifted from baseline.
    CongestionBacklog,
    /// Alarms fired on columns with no specific classification.
    #[default]
    Unknown,
}

/// Number of [`IncidentCause`] variants (open-slot table size).
pub const NUM_CAUSES: usize = 6;

impl IncidentCause {
    /// Stable ordinal (also the classification priority, 0 = highest).
    pub fn ordinal(&self) -> usize {
        match self {
            IncidentCause::RailOutage => 0,
            IncidentCause::RetransmitStorm => 1,
            IncidentCause::FenceStall => 2,
            IncidentCause::IncastImbalance => 3,
            IncidentCause::CongestionBacklog => 4,
            IncidentCause::Unknown => 5,
        }
    }

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            IncidentCause::RailOutage => "rail_outage",
            IncidentCause::RetransmitStorm => "retransmit_storm",
            IncidentCause::FenceStall => "fence_stall",
            IncidentCause::IncastImbalance => "incast_imbalance",
            IncidentCause::CongestionBacklog => "congestion_backlog",
            IncidentCause::Unknown => "unknown",
        }
    }

    /// All variants, ordinal order.
    pub const ALL: [IncidentCause; NUM_CAUSES] = [
        IncidentCause::RailOutage,
        IncidentCause::RetransmitStorm,
        IncidentCause::FenceStall,
        IncidentCause::IncastImbalance,
        IncidentCause::CongestionBacklog,
        IncidentCause::Unknown,
    ];
}

/// Evidence rows retained inline per incident.
pub const MAX_EVIDENCE: usize = 8;

/// One diagnosed incident: a typed cause, its lifetime, and the first
/// alarms that fired as inline evidence. `Copy`-friendly (fixed-size) so
/// the monitor never allocates after construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incident {
    /// Probable cause.
    pub cause: IncidentCause,
    /// Row timestamp that opened the incident.
    pub opened_t_ns: u64,
    /// Most recent row that contributed an alarm.
    pub last_alarm_t_ns: u64,
    /// Row timestamp that closed it (`None` while open).
    pub closed_t_ns: Option<u64>,
    /// Total alarms folded in over the incident's lifetime.
    pub alarms: u64,
    /// Evidence beyond [`MAX_EVIDENCE`] dropped (still counted above).
    pub evidence_dropped: u64,
    evidence: [Alarm; MAX_EVIDENCE],
    evidence_len: u8,
}

impl Incident {
    fn open(cause: IncidentCause, t_ns: u64) -> Self {
        Incident {
            cause,
            opened_t_ns: t_ns,
            last_alarm_t_ns: t_ns,
            closed_t_ns: None,
            alarms: 0,
            evidence_dropped: 0,
            evidence: [Alarm::default(); MAX_EVIDENCE],
            evidence_len: 0,
        }
    }

    fn push_evidence(&mut self, a: Alarm) {
        self.alarms += 1;
        self.last_alarm_t_ns = a.t_ns;
        if (self.evidence_len as usize) < MAX_EVIDENCE {
            self.evidence[self.evidence_len as usize] = a;
            self.evidence_len += 1;
        } else {
            self.evidence_dropped += 1;
        }
    }

    /// The retained evidence alarms (first [`MAX_EVIDENCE`] that fired).
    pub fn evidence(&self) -> &[Alarm] {
        &self.evidence[..self.evidence_len as usize]
    }

    /// Still open (never saw `clear_intervals` quiet rows)?
    pub fn is_open(&self) -> bool {
        self.closed_t_ns.is_none()
    }
}

/// How the monitor treats one column, derived from its name and kind at
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Not watched (plain throughput counters, unrecognized sources).
    Ignore,
    /// Quiet-on-healthy-path counter: burst rule.
    BurstCounter,
    /// `rail*.state` gauge: dead-code rule.
    RailState,
    /// Backlog/occupancy gauge: z + CUSUM → congestion.
    BacklogGauge,
    /// `fence_buffered`: z + CUSUM + stuck rule → fence stall.
    FenceGauge,
    /// Other gauges: z + CUSUM → unknown cause.
    GenericGauge,
}

fn role_of(name: &str, kind: SourceKind) -> Role {
    match kind {
        SourceKind::Counter => match name {
            "retransmits_nack" | "retransmits_rto" | "nacks_sent" | "dup_frames_recv"
            | "corrupt_frames" | "rail_down_events" => Role::BurstCounter,
            _ => Role::Ignore,
        },
        SourceKind::Gauge => {
            if name.ends_with(".state") {
                Role::RailState
            } else if name == "fence_buffered" {
                Role::FenceGauge
            } else if name == "in_flight" || name == "token_age_ns" || name.ends_with(".backlog_ns")
            {
                Role::BacklogGauge
            } else {
                Role::GenericGauge
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ColumnState {
    role: Role,
    z: Zscore,
    cusum: Cusum,
    burst: Burst,
    stuck_runs: u32,
}

const NO_OPEN: usize = usize::MAX;

/// The streaming health monitor: per-column detectors plus the incident
/// lifecycle. Feed it every committed row via [`HealthMonitor::observe`];
/// collect the verdict with [`HealthMonitor::report`].
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    names: Vec<String>,
    cols: Vec<ColumnState>,
    /// Scratch: alarms raised by the current row. Capacity is fixed at
    /// construction (≤3 per column + 1 injected), so pushes never allocate.
    tick_alarms: Vec<Alarm>,
    incidents: Vec<Incident>,
    /// Per-cause index into `incidents` of the open incident (or NO_OPEN).
    open_idx: [usize; NUM_CAUSES],
    /// Per-cause consecutive quiet rows while open.
    quiet: [u32; NUM_CAUSES],
    imbalance_runs: u32,
    rows_seen: u64,
    alarms_total: u64,
    suppressed_incidents: u64,
}

impl HealthMonitor {
    /// Build a monitor for sources described by parallel `names`/`kinds`
    /// (column order). All storage the observe path touches is allocated
    /// here.
    pub fn new(names: &[String], kinds: &[SourceKind], cfg: HealthConfig) -> Self {
        assert_eq!(names.len(), kinds.len(), "names/kinds must be parallel");
        let cols: Vec<ColumnState> = names
            .iter()
            .zip(kinds)
            .map(|(name, &kind)| ColumnState {
                role: role_of(name, kind),
                z: Zscore::default(),
                cusum: Cusum::default(),
                burst: Burst::default(),
                stuck_runs: 0,
            })
            .collect();
        HealthMonitor {
            cfg,
            names: names.to_vec(),
            tick_alarms: Vec::with_capacity(3 * cols.len() + 1),
            cols,
            incidents: Vec::with_capacity(cfg.max_incidents),
            open_idx: [NO_OPEN; NUM_CAUSES],
            quiet: [0; NUM_CAUSES],
            imbalance_runs: 0,
            rows_seen: 0,
            alarms_total: 0,
            suppressed_incidents: 0,
        }
    }

    /// Monitor matching a live [`Timeline`]'s registered sources.
    pub fn for_timeline(tl: &Timeline, cfg: HealthConfig) -> Self {
        HealthMonitor::new(tl.names(), tl.kinds(), cfg)
    }

    /// Monitor matching a parsed [`TimelineDoc`]'s sources.
    pub fn for_doc(doc: &TimelineDoc, cfg: HealthConfig) -> Self {
        let names: Vec<String> = doc.sources.iter().map(|s| s.name.clone()).collect();
        let kinds: Vec<SourceKind> = doc.sources.iter().map(|s| s.kind).collect();
        HealthMonitor::new(&names, &kinds, cfg)
    }

    /// The active configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Feed one committed row: `values` in column order (deltas for
    /// counters, raw for gauges), `stale_words` the row's stale bitmask
    /// (empty slice = nothing stale). Returns the cause of an incident
    /// *newly opened* by this row — the caller's cue to arm the flight
    /// recorder. Allocation-free.
    pub fn observe(&mut self, t_ns: u64, values: &[u64], stale_words: &[u64]) -> Option<IncidentCause> {
        self.rows_seen += 1;
        self.tick_alarms.clear();
        let n = self.cols.len().min(values.len());
        for (c, &v) in values.iter().enumerate().take(n) {
            let role = self.cols[c].role;
            if role == Role::Ignore {
                continue;
            }
            let stale = stale_words.get(c / 64).is_some_and(|w| w >> (c % 64) & 1 == 1);
            if stale {
                // A re-committed gauge reading is not an observation.
                continue;
            }
            let cfg = self.cfg;
            let col = &mut self.cols[c];
            match role {
                Role::BurstCounter => {
                    let score = col.burst.observe(v, &cfg);
                    if score > 0.0 {
                        self.raise(t_ns, c, AlarmKind::Burst, v, score);
                    }
                }
                Role::RailState => {
                    if v == cfg.rail_dead_code {
                        self.raise(t_ns, c, AlarmKind::RailDead, v, 1000.0);
                    }
                }
                Role::BacklogGauge | Role::FenceGauge | Role::GenericGauge => {
                    let x = v as f64;
                    let z = col.z.observe(x, &cfg);
                    let s = col.cusum.observe(x, &cfg);
                    if role == Role::FenceGauge {
                        col.stuck_runs = if v > 0 { col.stuck_runs + 1 } else { 0 };
                        if col.stuck_runs >= cfg.fence_stuck_intervals {
                            let runs = col.stuck_runs;
                            self.raise(t_ns, c, AlarmKind::FenceStuck, v, runs as f64);
                        }
                    }
                    if z.abs() >= cfg.z_threshold {
                        self.raise(t_ns, c, AlarmKind::Level, v, z);
                    }
                    if s >= cfg.cusum_threshold {
                        self.raise(t_ns, c, AlarmKind::Drift, v, s);
                    }
                }
                Role::Ignore => unreachable!(),
            }
        }
        self.commit_tick(t_ns)
    }

    #[inline]
    fn raise(&mut self, t_ns: u64, column: usize, kind: AlarmKind, value: u64, score: f64) {
        debug_assert!(self.tick_alarms.len() < self.tick_alarms.capacity());
        self.tick_alarms.push(Alarm {
            t_ns,
            column: column as u32,
            kind,
            value,
            score_milli: (score * 1000.0).round() as i64,
        });
    }

    /// Cause one alarm classifies as, before cross-alarm correlation.
    fn cause_of(&self, a: &Alarm) -> IncidentCause {
        let c = a.column as usize;
        match a.kind {
            AlarmKind::RailDead => IncidentCause::RailOutage,
            AlarmKind::Imbalance => IncidentCause::IncastImbalance,
            AlarmKind::FenceStuck => IncidentCause::FenceStall,
            AlarmKind::Burst => {
                if self.names.get(c).is_some_and(|n| n == "rail_down_events") {
                    IncidentCause::RailOutage
                } else {
                    IncidentCause::RetransmitStorm
                }
            }
            AlarmKind::Level | AlarmKind::Drift => match self.cols.get(c).map(|s| s.role) {
                Some(Role::FenceGauge) => IncidentCause::FenceStall,
                Some(Role::BacklogGauge) => IncidentCause::CongestionBacklog,
                _ => IncidentCause::Unknown,
            },
        }
    }

    /// Correlate this row's alarms into one cause, fold them into the
    /// matching incident (opening it if needed), and advance the quiet
    /// counters of every other open incident. Returns a newly opened cause.
    fn commit_tick(&mut self, t_ns: u64) -> Option<IncidentCause> {
        self.alarms_total += self.tick_alarms.len() as u64;
        let winner: Option<IncidentCause> = self
            .tick_alarms
            .iter()
            .map(|a| self.cause_of(a))
            .min_by_key(|c| c.ordinal());
        let mut newly_opened = None;
        if let Some(cause) = winner {
            let slot = cause.ordinal();
            self.quiet[slot] = 0;
            if self.open_idx[slot] == NO_OPEN {
                if self.incidents.len() < self.cfg.max_incidents {
                    self.open_idx[slot] = self.incidents.len();
                    self.incidents.push(Incident::open(cause, t_ns));
                    newly_opened = Some(cause);
                } else {
                    self.suppressed_incidents += 1;
                }
            }
            if self.open_idx[slot] != NO_OPEN {
                let idx = self.open_idx[slot];
                // All concurrent alarms are evidence of the one diagnosed
                // cause — that correlation *is* the diagnosis.
                for &a in &self.tick_alarms {
                    self.incidents[idx].push_evidence(a);
                }
            }
        }
        for slot in 0..NUM_CAUSES {
            if self.open_idx[slot] == NO_OPEN {
                continue;
            }
            let quiet_this_tick = match winner {
                Some(cause) => cause.ordinal() != slot,
                None => true,
            };
            if quiet_this_tick {
                self.quiet[slot] += 1;
                if self.quiet[slot] >= self.cfg.clear_intervals {
                    self.incidents[self.open_idx[slot]].closed_t_ns = Some(t_ns);
                    self.open_idx[slot] = NO_OPEN;
                    self.quiet[slot] = 0;
                }
            }
        }
        newly_opened
    }

    /// Feed one cross-member row (same grid slot from each member's
    /// timeline): raises an [`AlarmKind::Imbalance`] alarm — and possibly
    /// opens an [`IncidentCause::IncastImbalance`] incident — when the
    /// max/mean index stays above threshold for
    /// [`HealthConfig::imbalance_consecutive`] rows. Allocation-free; meant
    /// for a monitor whose "columns" are members (see
    /// [`diagnose_imbalance`]).
    pub fn observe_members(&mut self, t_ns: u64, values: &[u64]) -> Option<IncidentCause> {
        self.rows_seen += 1;
        self.tick_alarms.clear();
        let total: u64 = values.iter().sum();
        let (index, hot) = imbalance(values);
        if total >= self.cfg.imbalance_min_total && index >= self.cfg.imbalance_threshold {
            self.imbalance_runs += 1;
            if self.imbalance_runs >= self.cfg.imbalance_consecutive {
                self.raise(t_ns, hot, AlarmKind::Imbalance, values[hot], index);
            }
        } else {
            self.imbalance_runs = 0;
        }
        self.commit_tick(t_ns)
    }

    /// Incidents recorded so far (open and closed, open order).
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Number of incidents currently open.
    pub fn open_incidents(&self) -> usize {
        self.open_idx.iter().filter(|&&i| i != NO_OPEN).count()
    }

    /// Snapshot the verdict. Allocates — call it after the measured region.
    pub fn report(&self) -> HealthReport {
        HealthReport {
            names: self.names.clone(),
            incidents: self.incidents.clone(),
            rows_seen: self.rows_seen,
            alarms_total: self.alarms_total,
            suppressed_incidents: self.suppressed_incidents,
        }
    }

    /// Detector state as JSON — the flight recorder's `Anomaly` dump
    /// context source. Allocates; only called when a dump fires.
    pub fn state_json(&self) -> Json {
        let open: Vec<Json> = self
            .incidents
            .iter()
            .filter(|i| i.is_open())
            .map(incident_json_named(&self.names))
            .collect();
        let cols: Vec<Json> = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, s)| s.role != Role::Ignore)
            .map(|(c, s)| {
                Json::obj()
                    .set("column", self.names[c].as_str())
                    .set("mean_milli", (s.z.mean() * 1000.0).round() as i64)
                    .set("cusum_milli", (s.cusum.sum() * 1000.0).round() as i64)
                    .set("burst_rate_milli", (s.burst.ewma * 1000.0).round() as i64)
            })
            .collect();
        Json::obj()
            .set("rows_seen", self.rows_seen)
            .set("alarms_total", self.alarms_total)
            .set("open_incidents", open)
            .set("detectors", cols)
    }

    /// Replay every retained row of a live timeline (stale bits included).
    pub fn replay_timeline(&mut self, tl: &Timeline) {
        for i in 0..tl.len() {
            let (t, vals) = tl.row(i);
            // Split borrows: copy the stale words into a fixed scratch is
            // unnecessary — `observe` only reads them.
            let stale: &[u64] = tl.stale_words(i);
            self.observe(t, vals, stale);
        }
    }

    /// Replay every row of a parsed artifact — the offline doctor path.
    /// Produces bit-identical incidents to the online monitor when the
    /// artifact retained every committed row.
    pub fn replay_doc(&mut self, doc: &TimelineDoc) {
        let mut words = vec![0u64; doc.sources.len().div_ceil(64)];
        for (i, (t, vals)) in doc.samples.iter().enumerate() {
            words.fill(0);
            for &c in &doc.stale[i] {
                words[c / 64] |= 1 << (c % 64);
            }
            self.observe(*t, vals, &words);
        }
    }
}

fn incident_json_named(names: &[String]) -> impl Fn(&Incident) -> Json + '_ {
    move |i: &Incident| {
        let evidence: Vec<Json> = i
            .evidence()
            .iter()
            .map(|a| {
                Json::obj()
                    .set("t_ns", a.t_ns)
                    .set(
                        "column",
                        names
                            .get(a.column as usize)
                            .map(|s| s.as_str())
                            .unwrap_or("?"),
                    )
                    .set("kind", a.kind.label())
                    .set("value", a.value)
                    .set("score_milli", a.score_milli)
            })
            .collect();
        let mut o = Json::obj()
            .set("cause", i.cause.label())
            .set("opened_t_ns", i.opened_t_ns)
            .set("last_alarm_t_ns", i.last_alarm_t_ns)
            .set("open", i.is_open());
        if let Some(t) = i.closed_t_ns {
            o = o.set("closed_t_ns", t);
        }
        o.set("alarms", i.alarms)
            .set("evidence_dropped", i.evidence_dropped)
            .set("evidence", evidence)
    }
}

/// The monitor's verdict: every incident plus run totals.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Source (or member) names the incident columns index into.
    pub names: Vec<String>,
    /// All incidents, open order.
    pub incidents: Vec<Incident>,
    /// Rows observed.
    pub rows_seen: u64,
    /// Alarms raised across all rows.
    pub alarms_total: u64,
    /// Incident opens dropped by the [`HealthConfig::max_incidents`] cap.
    pub suppressed_incidents: u64,
}

impl HealthReport {
    /// Incidents still open at end of run.
    pub fn open_incidents(&self) -> usize {
        self.incidents.iter().filter(|i| i.is_open()).count()
    }

    /// First incident of `cause`, if any.
    pub fn first(&self, cause: IncidentCause) -> Option<&Incident> {
        self.incidents.iter().find(|i| i.cause == cause)
    }

    /// Render as a schema-stamped JSON object. Deterministic: every field
    /// is integral, so equal reports render byte-identically.
    pub fn to_json(&self) -> Json {
        let incidents: Vec<Json> = self
            .incidents
            .iter()
            .map(incident_json_named(&self.names))
            .collect();
        Json::obj()
            .set("schema_version", SCHEMA_VERSION)
            .set("kind", HEALTH_KIND)
            .set("rows_seen", self.rows_seen)
            .set("alarms_total", self.alarms_total)
            .set("suppressed_incidents", self.suppressed_incidents)
            .set("open_incidents", self.open_incidents() as u64)
            .set("incidents", incidents)
    }

    /// Render a human incident table (one line per incident plus a
    /// summary line), for `me-inspect doctor`.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "rows {}  alarms {}  incidents {} ({} open)\n",
            self.rows_seen,
            self.alarms_total,
            self.incidents.len(),
            self.open_incidents()
        ));
        for i in &self.incidents {
            let state = if i.is_open() { "OPEN  " } else { "closed" };
            let span = match i.closed_t_ns {
                Some(t) => format!("{:.3}ms..{:.3}ms", ms(i.opened_t_ns), ms(t)),
                None => format!("{:.3}ms..", ms(i.opened_t_ns)),
            };
            out.push_str(&format!(
                "{state} {:<18} {span:<24} alarms {:<4}",
                i.cause.label(),
                i.alarms
            ));
            if let Some(a) = i.evidence().first() {
                let col = self
                    .names
                    .get(a.column as usize)
                    .map(|s| s.as_str())
                    .unwrap_or("?");
                out.push_str(&format!(
                    " first: {col} {} v={} score={:.1}",
                    a.kind.label(),
                    a.value,
                    a.score_milli as f64 / 1000.0
                ));
            }
            out.push('\n');
        }
        out
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Diagnose cross-member imbalance from aligned per-member interval
/// values: `members[m][i]` is member `m`'s value (e.g. events processed)
/// in grid slot `i`, stamped `t_ns[i]`. Returns a report whose `names`
/// are the member labels and whose incidents (if any) are
/// [`IncidentCause::IncastImbalance`].
pub fn diagnose_imbalance(
    labels: &[String],
    t_ns: &[u64],
    members: &[Vec<u64>],
    cfg: HealthConfig,
) -> HealthReport {
    let kinds = vec![SourceKind::Counter; labels.len()];
    let mut mon = HealthMonitor::new(labels, &kinds, cfg);
    let rows = members.iter().map(|m| m.len()).min().unwrap_or(0);
    let mut row = vec![0u64; members.len()];
    for (i, &t) in t_ns.iter().enumerate().take(rows) {
        for (m, series) in members.iter().enumerate() {
            row[m] = series[i];
        }
        mon.observe_members(t, &row);
    }
    mon.report()
}

/// Diagnose a set of per-member timelines that share one counter column
/// (e.g. per-node `data_bytes_recv`): extracts the aligned per-interval
/// deltas and runs [`diagnose_imbalance`]. Rows are aligned by index; timelines
/// produced by the same run share the sampling grid, so index alignment is
/// timestamp alignment.
pub fn diagnose_member_timelines(
    timelines: &[Timeline],
    counter: &str,
    cfg: HealthConfig,
) -> HealthReport {
    let labels: Vec<String> = (0..timelines.len()).map(|m| format!("member{m}")).collect();
    let mut members: Vec<Vec<u64>> = Vec::with_capacity(timelines.len());
    let mut t_ns: Vec<u64> = Vec::new();
    for tl in timelines {
        let col = tl.source_id(counter).map(|id| id.index());
        let series: Vec<u64> = match col {
            Some(c) => (0..tl.len()).map(|i| tl.row(i).1[c]).collect(),
            None => Vec::new(),
        };
        if t_ns.len() < series.len() {
            t_ns = (0..tl.len()).map(|i| tl.row(i).0).collect();
        }
        members.push(series);
    }
    diagnose_imbalance(&labels, &t_ns, &members, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelineBuilder;

    fn cfg() -> HealthConfig {
        HealthConfig::default()
    }

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rail_dead_opens_rail_outage_and_closes_on_recovery() {
        let n = names(&["rail0.state", "in_flight"]);
        let k = [SourceKind::Gauge, SourceKind::Gauge];
        let mut m = HealthMonitor::new(&n, &k, cfg());
        assert_eq!(m.observe(100, &[0, 5], &[]), None);
        let opened = m.observe(200, &[2, 5], &[]);
        assert_eq!(opened, Some(IncidentCause::RailOutage));
        // Still dead: same incident, no new open.
        assert_eq!(m.observe(300, &[2, 5], &[]), None);
        assert_eq!(m.open_incidents(), 1);
        // Recovered: closes after clear_intervals quiet rows.
        for t in [400, 500, 600] {
            assert_eq!(m.observe(t, &[0, 5], &[]), None);
        }
        assert_eq!(m.open_incidents(), 0);
        let r = m.report();
        assert_eq!(r.incidents.len(), 1);
        let i = &r.incidents[0];
        assert_eq!(i.cause, IncidentCause::RailOutage);
        assert_eq!(i.opened_t_ns, 200);
        assert_eq!(i.closed_t_ns, Some(600));
        assert_eq!(i.alarms, 2);
        assert_eq!(i.evidence()[0].kind, AlarmKind::RailDead);
    }

    #[test]
    fn retransmit_burst_alarm_and_priority_correlation() {
        let n = names(&["retransmits_nack", "rail0.state"]);
        let k = [SourceKind::Counter, SourceKind::Gauge];
        let mut m = HealthMonitor::new(&n, &k, cfg());
        for t in 1..=5u64 {
            assert_eq!(m.observe(t * 100, &[0, 0], &[]), None, "quiet path");
        }
        // Burst + rail death in the same row correlate into RailOutage
        // (higher priority), with the burst alarm kept as evidence.
        let opened = m.observe(600, &[50, 2], &[]);
        assert_eq!(opened, Some(IncidentCause::RailOutage));
        let r = m.report();
        assert_eq!(r.incidents.len(), 1);
        let kinds: Vec<AlarmKind> = r.incidents[0].evidence().iter().map(|a| a.kind).collect();
        assert!(kinds.contains(&AlarmKind::Burst) && kinds.contains(&AlarmKind::RailDead));
    }

    #[test]
    fn retransmit_storm_alone_is_named() {
        let n = names(&["retransmits_nack"]);
        let k = [SourceKind::Counter];
        let mut m = HealthMonitor::new(&n, &k, cfg());
        for t in 1..=4u64 {
            m.observe(t * 100, &[0], &[]);
        }
        assert_eq!(
            m.observe(500, &[40], &[]),
            Some(IncidentCause::RetransmitStorm)
        );
    }

    #[test]
    fn stale_gauge_rows_are_skipped() {
        let n = names(&["rail0.state"]);
        let k = [SourceKind::Gauge];
        let mut m = HealthMonitor::new(&n, &k, cfg());
        m.observe(100, &[0], &[]);
        // Dead code but the row is stale: a re-committed reading must not
        // open an incident.
        assert_eq!(m.observe(200, &[2], &[0b1]), None);
        assert_eq!(m.report().alarms_total, 0);
        // Same value, fresh row: alarms.
        assert_eq!(m.observe(300, &[2], &[]), Some(IncidentCause::RailOutage));
    }

    #[test]
    fn fence_stuck_raises_fence_stall() {
        let n = names(&["fence_buffered"]);
        let k = [SourceKind::Gauge];
        let mut m = HealthMonitor::new(&n, &k, cfg());
        let mut opened = None;
        for t in 1..=20u64 {
            if let Some(c) = m.observe(t * 100, &[3], &[]) {
                opened = Some((t, c));
                break;
            }
        }
        let (t, c) = opened.expect("stuck fence must alarm");
        assert_eq!(c, IncidentCause::FenceStall);
        assert_eq!(t, u64::from(cfg().fence_stuck_intervals));
    }

    #[test]
    fn backlog_step_raises_congestion() {
        let n = names(&["in_flight"]);
        let k = [SourceKind::Gauge];
        let mut m = HealthMonitor::new(&n, &k, cfg());
        let mut t = 0u64;
        for _ in 0..20 {
            t += 100;
            assert_eq!(m.observe(t, &[40], &[]), None, "steady level is clean");
        }
        let mut opened = None;
        for _ in 0..6 {
            t += 100;
            if let Some(c) = m.observe(t, &[4000], &[]) {
                opened = Some(c);
                break;
            }
        }
        assert_eq!(opened, Some(IncidentCause::CongestionBacklog));
    }

    #[test]
    fn cusum_catches_slow_drift_z_misses() {
        let c = cfg();
        let mut z = Zscore::default();
        let mut cu = Cusum::default();
        let mut z_alarmed = false;
        let mut cusum_alarmed = false;
        // Drift: +0.4σ-ish per step on a baseline of 100, far below the
        // z threshold each step but relentless.
        for i in 0..400u64 {
            let x = 100.0 + i as f64 * 0.8;
            if z.observe(x, &c).abs() >= c.z_threshold {
                z_alarmed = true;
            }
            if cu.observe(x, &c) >= c.cusum_threshold {
                cusum_alarmed = true;
            }
        }
        assert!(!z_alarmed, "fast z baseline absorbs the drift");
        assert!(cusum_alarmed, "CUSUM accumulates it");
    }

    #[test]
    fn burst_detector_is_quiet_on_steady_rates() {
        let c = cfg();
        let mut b = Burst::default();
        // A path that always retransmits a little: first row is a burst
        // relative to "never", afterwards the rate is the baseline.
        assert!(b.observe(10, &c) > 0.0);
        for _ in 0..100 {
            assert_eq!(b.observe(10, &c), 0.0);
        }
        // A 20× spike over the adapted rate alarms again.
        assert!(b.observe(200, &c) > 0.0);
    }

    #[test]
    fn imbalance_diagnosis_names_hot_member_and_balanced_is_clean() {
        let labels = names(&["s0", "s1", "s2", "s3"]);
        let t: Vec<u64> = (1..=10u64).map(|i| i * 1000).collect();
        let hot: Vec<Vec<u64>> = vec![
            vec![400; 10],
            vec![40; 10],
            vec![40; 10],
            vec![40; 10],
        ];
        let r = diagnose_imbalance(&labels, &t, &hot, cfg());
        let i = r.first(IncidentCause::IncastImbalance).expect("hot member flagged");
        assert_eq!(i.evidence()[0].column, 0);
        assert!(i.is_open());
        let balanced: Vec<Vec<u64>> = vec![vec![100; 10]; 4];
        let r = diagnose_imbalance(&labels, &t, &balanced, cfg());
        assert!(r.incidents.is_empty());
    }

    #[test]
    fn replay_of_timeline_rows_matches_direct_observation() {
        let mut b = TimelineBuilder::new();
        let c = b.counter("retransmits_nack");
        let g = b.gauge("rail0.state");
        let mut tl = b.build(100, 64, 0);
        let mut live = HealthMonitor::for_timeline(&tl, cfg());
        let mut raws = 0u64;
        for i in 1..=30u64 {
            raws += if i == 12 { 60 } else { 0 };
            tl.set(c, raws);
            tl.set(g, if (15..=20).contains(&i) { 2 } else { 0 });
            tl.sample(i * 100);
            let i = tl.len() - 1;
            let (t, vals) = tl.row(i);
            let stale = tl.stale_words(i).to_vec();
            live.observe(t, vals, &stale);
        }
        // Offline replay (same rows through a fresh monitor) must render
        // the identical report.
        let mut replay = HealthMonitor::for_timeline(&tl, cfg());
        replay.replay_timeline(&tl);
        assert_eq!(
            live.report().to_json().render(),
            replay.report().to_json().render()
        );
        // And through the JSONL artifact: still bit-identical.
        let doc = TimelineDoc::parse_jsonl(&tl.to_jsonl()).expect("parses");
        let mut offline = HealthMonitor::for_doc(&doc, cfg());
        offline.replay_doc(&doc);
        assert_eq!(
            live.report().to_json().render(),
            offline.report().to_json().render()
        );
        let r = live.report();
        assert!(r.first(IncidentCause::RetransmitStorm).is_some());
        assert!(r.first(IncidentCause::RailOutage).is_some());
    }

    #[test]
    fn incident_cap_counts_suppressed_opens() {
        let mut c = cfg();
        c.max_incidents = 1;
        c.clear_intervals = 1;
        let n = names(&["rail0.state"]);
        let k = [SourceKind::Gauge];
        let mut m = HealthMonitor::new(&n, &k, c);
        let mut t = 0;
        for _ in 0..3 {
            t += 100;
            m.observe(t, &[2], &[]); // open (or suppressed)
            t += 100;
            m.observe(t, &[0], &[]); // close
        }
        let r = m.report();
        assert_eq!(r.incidents.len(), 1);
        assert_eq!(r.suppressed_incidents, 2);
    }

    #[test]
    fn report_json_is_schema_stamped() {
        let n = names(&["in_flight"]);
        let k = [SourceKind::Gauge];
        let m = HealthMonitor::new(&n, &k, cfg());
        let doc = m.report().to_json();
        crate::json::require_schema(&doc).expect("stamped");
        assert_eq!(doc.get("kind").and_then(|k| k.as_str()), Some(HEALTH_KIND));
    }
}
