//! Streaming anomaly detection + automated incident diagnosis: the online
//! health plane over the timeline sampler.
//!
//! The timeline plane ([`crate::timeline`]) records what happened per
//! interval; this module *watches* it. A [`HealthMonitor`] consumes the
//! exact delta rows [`Timeline::sample`] commits — one
//! [`HealthMonitor::observe`] call per committed row — and runs one
//! allocation-free detector per watched column. Every detector decides the
//! first incident of a gated cell; a column no detector needs is not
//! watched:
//!
//! - **Ack-token drift** ([`Cusum`]): an upward one-sided normalized CUSUM
//!   over a slow robust baseline of `token_age_ns`, `s ← max(0, s + z −
//!   slack)`, alarms when `s` crosses [`CUSUM_THRESHOLD`]. An ack token
//!   that keeps ageing is the host's first witness of a stalled NIC, or,
//!   right after NACK retransmissions, of repairs that were lost too.
//! - **Rate bursts** ([`Burst`]): monotone counters that are quiet on a
//!   healthy path (retransmits, NACKs, duplicates, corruption, rail-down
//!   events) alarm when one interval's delta is both at least
//!   [`BURST_FLOOR`] and more than [`BURST_FACTOR`] × the counter's own
//!   EWMA rate.
//! - **Rules**, which need no baseline: a `rail*.state` gauge equal to the
//!   dead code alarms immediately, and a `fence_buffered` gauge that stays
//!   non-zero for [`FENCE_STUCK_INTERVALS`] consecutive rows alarms as a
//!   stuck fence. Cross-member imbalance has its own entry point
//!   ([`HealthMonitor::observe_members`]).
//!
//! **Diagnosis.** All alarms raised by one row are correlated into a
//! single probable cause per tick ([`IncidentCause`], picked by severity
//! priority) and folded into an open [`Incident`] of that cause — or open
//! a new one, which is what arms the flight recorder's `Anomaly` trigger.
//! A token-age drift takes its kind when it begins and keeps it while it
//! lasts: if NACK retransmissions moved in one of the last
//! [`CLEAR_INTERVALS`] rows, the sender is waiting on repairs that the
//! same loss burst dropped ([`AlarmKind::RepairStall`], a retransmit
//! storm); otherwise it is a congestion backlog ([`AlarmKind::Drift`]).
//! An incident closes after [`CLEAR_INTERVALS`] consecutive quiet rows;
//! if its cause alarms again within [`CLEAR_INTERVALS`] rows of the close,
//! the same incident reopens, so one episode that pauses between bursts
//! stays one incident.
//! Everything on the observe path works in storage preallocated at
//! construction: zero allocations in steady state.
//!
//! **Offline ≡ online.** The monitor reads nothing but
//! `(t_ns, row values)` — exactly what the JSONL artifact retains — so replaying a dump through [`HealthMonitor::replay_doc`]
//! reproduces bit-identical incidents to the live monitor, provided the
//! ring retained every row (no eviction). Scores are quantized to
//! milli-units ([`Alarm::score_milli`]) so reports render identically on
//! any platform.

use crate::json::{Json, SCHEMA_VERSION};
use crate::timeline::{imbalance, SourceKind, Timeline, TimelineDoc};

/// Artifact `kind` stamped into rendered health reports.
pub const HEALTH_KIND: &str = "multiedge_health";

/// EWMA smoothing factor for burst rates.
pub const EWMA_ALPHA: f64 = 0.2;
/// Slower smoothing factor for the CUSUM reference baseline — slow on
/// purpose, so a drift cannot drag its own reference along.
pub const CUSUM_ALPHA: f64 = 0.025;
/// Absolute floor on the CUSUM deviation scale σ (units of the column).
pub const SIGMA_FLOOR_ABS: f64 = 1.0;
/// Relative floor on the CUSUM σ as a fraction of the baseline mean; the
/// slack term already absorbs noise, so the floor stays tight.
pub const CUSUM_FLOOR_REL: f64 = 0.05;
/// Per-interval slack subtracted before CUSUM accumulation.
pub const CUSUM_SLACK: f64 = 0.5;
/// CUSUM sum at or above this alarms as a drift.
pub const CUSUM_THRESHOLD: f64 = 12.0;
/// Burst rule: delta must exceed this multiple of the EWMA rate.
pub const BURST_FACTOR: f64 = 8.0;
/// Burst rule: delta must also be at least this absolute count.
pub const BURST_FLOOR: u64 = 4;
/// Rows before the CUSUM may alarm (its baseline is still warming up).
pub const WARMUP: u32 = 8;
/// Consecutive quiet rows before an open incident closes; also how recent
/// a NACK retransmission must be to make a beginning drift the storm's.
pub const CLEAR_INTERVALS: u32 = 3;
/// Consecutive non-zero `fence_buffered` rows before a stall alarms.
pub const FENCE_STUCK_INTERVALS: u32 = 8;
/// Encoded `rail*.state` value that means the rail is dead.
pub const RAIL_DEAD_CODE: u64 = 2;
/// Cross-member imbalance index (max/mean) at or above this alarms.
pub const IMBALANCE_THRESHOLD: f64 = 2.5;
/// Minimum row total before the imbalance index is meaningful.
pub const IMBALANCE_MIN_TOTAL: u64 = 64;
/// Consecutive imbalanced rows before the alarm fires.
pub const IMBALANCE_CONSECUTIVE: u32 = 2;
/// Hard cap on recorded incidents; beyond it new opens are counted as
/// suppressed instead of allocated.
pub const MAX_INCIDENTS: usize = 32;

/// The detectors' tuning, which has no settable field: the thresholds
/// above are tuned to stay silent on clean seeded runs (the `doctor` bench
/// gate) while catching seeded outages within a few intervals. Every
/// sampler carries a monitor; the type remains only as the argument of
/// `Endpoint::start_timeline_with_health`, an alias of `start_timeline`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthConfig;

/// Upward one-sided normalized CUSUM over a slow robust baseline:
/// `s ← clamp(s + z − slack)`, where `z` is the reading's distance from
/// an EWMA mean in units of an EWMA absolute deviation scaled by 1.4826
/// (MAD→σ), floored at [`SIGMA_FLOOR_ABS`] and [`CUSUM_FLOOR_REL`] of the
/// mean. The reference baseline moves with the *slow* [`CUSUM_ALPHA`] so
/// a drift cannot hide by dragging its own reference along. Upward-only
/// on purpose: an ageing ack token is the pathology, while draining back
/// to zero is recovery (a two-sided sum would alarm on every clean
/// end-of-run drain).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cusum {
    mean: f64,
    dev: f64,
    seen: u32,
    sum: f64,
}

impl Cusum {
    /// Accumulate `x`; returns the current CUSUM score (0 during warmup).
    pub fn observe(&mut self, x: f64) -> f64 {
        if self.seen == 0 {
            self.mean = x;
            self.dev = 0.0;
            self.seen = 1;
            return 0.0;
        }
        let floor = SIGMA_FLOOR_ABS.max(CUSUM_FLOOR_REL * self.mean.abs());
        let z = (x - self.mean) / (1.4826 * self.dev).max(floor);
        let a = CUSUM_ALPHA;
        self.mean += a * (x - self.mean);
        self.dev += a * ((x - self.mean).abs() - self.dev);
        self.seen = self.seen.saturating_add(1);
        if self.seen <= WARMUP {
            return 0.0;
        }
        // Clamp so a long-running excursion can still decay away once the
        // slow baseline catches up, instead of latching forever.
        let cap = 4.0 * CUSUM_THRESHOLD;
        self.sum = (self.sum + z - CUSUM_SLACK).clamp(0.0, cap);
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
    pub fn observe(&mut self, delta: u64) -> f64 {
        let x = delta as f64;
        let fired = delta >= BURST_FLOOR && x > BURST_FACTOR * self.ewma;
        let score = if fired { x / self.ewma.max(1.0) } else { 0.0 };
        self.ewma += EWMA_ALPHA * (x - self.ewma);
        score
    }
}

/// Which detector raised an alarm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlarmKind {
    /// CUSUM drift accumulation on `token_age_ns`.
    #[default]
    Drift,
    /// CUSUM drift on `token_age_ns` that began while NACK retransmissions
    /// were moving: the sender waits on repairs a loss burst also dropped.
    RepairStall,
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
            AlarmKind::Drift => "drift",
            AlarmKind::RepairStall => "repair_stall",
            AlarmKind::Burst => "burst",
            AlarmKind::RailDead => "rail_dead",
            AlarmKind::FenceStuck => "fence_stuck",
            AlarmKind::Imbalance => "imbalance",
        }
    }

    /// All variants.
    pub const ALL: [AlarmKind; 6] = [
        AlarmKind::Drift,
        AlarmKind::RepairStall,
        AlarmKind::Burst,
        AlarmKind::RailDead,
        AlarmKind::FenceStuck,
        AlarmKind::Imbalance,
    ];
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
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
    /// The ack token kept ageing: acks stopped coming back (a stalled NIC
    /// or a backlog the path cannot drain).
    CongestionBacklog,
}

/// Number of [`IncidentCause`] variants (open-slot table size).
pub const NUM_CAUSES: usize = 5;

impl IncidentCause {
    /// Stable ordinal (also the classification priority, 0 = highest).
    pub fn ordinal(&self) -> usize {
        match self {
            IncidentCause::RailOutage => 0,
            IncidentCause::RetransmitStorm => 1,
            IncidentCause::FenceStall => 2,
            IncidentCause::IncastImbalance => 3,
            IncidentCause::CongestionBacklog => 4,
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
        }
    }

    /// All variants, ordinal order.
    pub const ALL: [IncidentCause; NUM_CAUSES] = [
        IncidentCause::RailOutage,
        IncidentCause::RetransmitStorm,
        IncidentCause::FenceStall,
        IncidentCause::IncastImbalance,
        IncidentCause::CongestionBacklog,
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
    /// Not watched (throughput counters, occupancy gauges, unnamed sources).
    Ignore,
    /// Quiet-on-healthy-path counter: burst rule.
    BurstCounter,
    /// `rail*.state` gauge: dead-code rule.
    RailState,
    /// `token_age_ns`: CUSUM → congestion.
    TokenAge,
    /// `fence_buffered`: stuck rule → fence stall.
    FenceGauge,
}

fn role_of(name: &str, kind: SourceKind) -> Role {
    match (kind, name) {
        (
            SourceKind::Counter,
            "retransmits_nack" | "retransmits_rto" | "nacks_sent" | "dup_frames_recv"
            | "corrupt_frames" | "rail_down_events",
        ) => Role::BurstCounter,
        (SourceKind::Gauge, "token_age_ns") => Role::TokenAge,
        (SourceKind::Gauge, "fence_buffered") => Role::FenceGauge,
        (SourceKind::Gauge, _) if name.ends_with(".state") => Role::RailState,
        _ => Role::Ignore,
    }
}

#[derive(Debug, Clone, Copy)]
struct ColumnState {
    role: Role,
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
    names: Vec<String>,
    cols: Vec<ColumnState>,
    /// Scratch: alarms raised by the current row. Capacity is fixed at
    /// construction (≤1 per column + 1 imbalance), so pushes never allocate.
    tick_alarms: Vec<Alarm>,
    incidents: Vec<Incident>,
    /// Per-cause index into `incidents` of the open incident (or NO_OPEN).
    open_idx: [usize; NUM_CAUSES],
    /// Per-cause consecutive quiet rows while open.
    quiet: [u32; NUM_CAUSES],
    /// Per-cause index of the last closed incident and the row (of
    /// `rows_seen`) that closed it.
    last_closed: [Option<(usize, u64)>; NUM_CAUSES],
    imbalance_runs: u32,
    /// Column of the `retransmits_nack` counter, if there is one.
    nack_col: Option<usize>,
    /// Rows since `retransmits_nack` last moved (0: this row; saturates,
    /// and starts at `u32::MAX`: never).
    rows_since_nack: u32,
    /// The kind the token-age drift now alarming took when it began;
    /// `None` while the CUSUM is below its threshold.
    drift_kind: Option<AlarmKind>,
    rows_seen: u64,
    alarms_total: u64,
    suppressed_incidents: u64,
}

impl HealthMonitor {
    /// Build a monitor for sources described by parallel `names`/`kinds`
    /// (column order). All storage the observe path touches is allocated
    /// here.
    pub fn new(names: &[String], kinds: &[SourceKind]) -> Self {
        assert_eq!(names.len(), kinds.len(), "names/kinds must be parallel");
        let cols: Vec<ColumnState> = names
            .iter()
            .zip(kinds)
            .map(|(name, &kind)| ColumnState {
                role: role_of(name, kind),
                cusum: Cusum::default(),
                burst: Burst::default(),
                stuck_runs: 0,
            })
            .collect();
        let nack_col = names
            .iter()
            .zip(&cols)
            .position(|(name, col)| col.role == Role::BurstCounter && name == "retransmits_nack");
        HealthMonitor {
            names: names.to_vec(),
            tick_alarms: Vec::with_capacity(cols.len() + 1),
            cols,
            incidents: Vec::with_capacity(MAX_INCIDENTS),
            open_idx: [NO_OPEN; NUM_CAUSES],
            quiet: [0; NUM_CAUSES],
            last_closed: [None; NUM_CAUSES],
            imbalance_runs: 0,
            nack_col,
            rows_since_nack: u32::MAX,
            drift_kind: None,
            rows_seen: 0,
            alarms_total: 0,
            suppressed_incidents: 0,
        }
    }

    /// Monitor matching a live [`Timeline`]'s registered sources.
    pub fn for_timeline(tl: &Timeline) -> Self {
        HealthMonitor::new(tl.names(), tl.kinds())
    }

    /// Monitor matching a parsed [`TimelineDoc`]'s sources.
    pub fn for_doc(doc: &TimelineDoc) -> Self {
        let names: Vec<String> = doc.sources.iter().map(|s| s.name.clone()).collect();
        let kinds: Vec<SourceKind> = doc.sources.iter().map(|s| s.kind).collect();
        HealthMonitor::new(&names, &kinds)
    }

    /// Feed one committed row: `values` in column order (deltas for
    /// counters, raw for gauges). Returns the cause of an incident *newly
    /// opened* by this row — the caller's cue to arm the flight recorder.
    /// Allocation-free.
    pub fn observe(&mut self, t_ns: u64, values: &[u64]) -> Option<IncidentCause> {
        self.rows_seen += 1;
        self.tick_alarms.clear();
        if let Some(&v) = self.nack_col.and_then(|c| values.get(c)) {
            self.rows_since_nack = match v {
                0 => self.rows_since_nack.saturating_add(1),
                _ => 0,
            };
        }
        let n = self.cols.len().min(values.len());
        for (c, &v) in values.iter().enumerate().take(n) {
            let role = self.cols[c].role;
            if role == Role::Ignore {
                continue;
            }
            let col = &mut self.cols[c];
            match role {
                Role::BurstCounter => {
                    let score = col.burst.observe(v);
                    if score > 0.0 {
                        self.raise(t_ns, c, AlarmKind::Burst, v, score);
                    }
                }
                Role::RailState => {
                    if v == RAIL_DEAD_CODE {
                        self.raise(t_ns, c, AlarmKind::RailDead, v, 1000.0);
                    }
                }
                Role::TokenAge => {
                    let s = col.cusum.observe(v as f64);
                    if s < CUSUM_THRESHOLD {
                        self.drift_kind = None;
                        continue;
                    }
                    let in_repair = self.rows_since_nack < CLEAR_INTERVALS;
                    let kind = *self.drift_kind.get_or_insert(match in_repair {
                        true => AlarmKind::RepairStall,
                        false => AlarmKind::Drift,
                    });
                    self.raise(t_ns, c, kind, v, s);
                }
                Role::FenceGauge => {
                    col.stuck_runs = if v > 0 { col.stuck_runs + 1 } else { 0 };
                    if col.stuck_runs >= FENCE_STUCK_INTERVALS {
                        let runs = col.stuck_runs;
                        self.raise(t_ns, c, AlarmKind::FenceStuck, v, runs as f64);
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
        match a.kind {
            AlarmKind::RailDead => IncidentCause::RailOutage,
            AlarmKind::Imbalance => IncidentCause::IncastImbalance,
            AlarmKind::FenceStuck => IncidentCause::FenceStall,
            AlarmKind::Drift => IncidentCause::CongestionBacklog,
            AlarmKind::RepairStall => IncidentCause::RetransmitStorm,
            AlarmKind::Burst if self.names[a.column as usize] == "rail_down_events" => {
                IncidentCause::RailOutage
            }
            AlarmKind::Burst => IncidentCause::RetransmitStorm,
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
                match self.last_closed[slot] {
                    // Alarming again right after its close: the same
                    // episode, so the same incident.
                    Some((idx, row)) if self.rows_seen - row <= u64::from(CLEAR_INTERVALS) => {
                        self.incidents[idx].closed_t_ns = None;
                        self.open_idx[slot] = idx;
                    }
                    _ if self.incidents.len() < MAX_INCIDENTS => {
                        self.open_idx[slot] = self.incidents.len();
                        self.incidents.push(Incident::open(cause, t_ns));
                        newly_opened = Some(cause);
                    }
                    _ => self.suppressed_incidents += 1,
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
                if self.quiet[slot] >= CLEAR_INTERVALS {
                    self.incidents[self.open_idx[slot]].closed_t_ns = Some(t_ns);
                    self.last_closed[slot] = Some((self.open_idx[slot], self.rows_seen));
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
    /// [`IMBALANCE_CONSECUTIVE`] rows. Allocation-free; meant
    /// for a monitor whose "columns" are members (see
    /// [`diagnose_imbalance`]).
    pub fn observe_members(&mut self, t_ns: u64, values: &[u64]) -> Option<IncidentCause> {
        self.rows_seen += 1;
        self.tick_alarms.clear();
        let total: u64 = values.iter().sum();
        let (index, hot) = imbalance(values);
        if total >= IMBALANCE_MIN_TOTAL && index >= IMBALANCE_THRESHOLD {
            self.imbalance_runs += 1;
            if self.imbalance_runs >= IMBALANCE_CONSECUTIVE {
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
                    .set("mean_milli", (s.cusum.mean * 1000.0).round() as i64)
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

    /// Replay every row of a parsed artifact — the offline doctor path.
    /// Produces bit-identical incidents to the online monitor when the
    /// artifact retained every committed row.
    pub fn replay_doc(&mut self, doc: &TimelineDoc) {
        for (t, vals) in &doc.samples {
            self.observe(*t, vals);
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
    /// Incident opens dropped by the [`MAX_INCIDENTS`] cap.
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
pub fn diagnose_imbalance(labels: &[String], t_ns: &[u64], members: &[Vec<u64>]) -> HealthReport {
    let kinds = vec![SourceKind::Counter; labels.len()];
    let mut mon = HealthMonitor::new(labels, &kinds);
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
pub fn diagnose_member_timelines(timelines: &[Timeline], counter: &str) -> HealthReport {
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
    diagnose_imbalance(&labels, &t_ns, &members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::TimelineBuilder;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn rail_dead_opens_rail_outage_and_closes_on_recovery() {
        let n = names(&["rail0.state", "in_flight"]);
        let k = [SourceKind::Gauge, SourceKind::Gauge];
        let mut m = HealthMonitor::new(&n, &k);
        assert_eq!(m.observe(100, &[0, 5]), None);
        let opened = m.observe(200, &[2, 5]);
        assert_eq!(opened, Some(IncidentCause::RailOutage));
        // Still dead: same incident, no new open.
        assert_eq!(m.observe(300, &[2, 5]), None);
        assert_eq!(m.open_incidents(), 1);
        // Recovered: closes after clear_intervals quiet rows.
        for t in [400, 500, 600] {
            assert_eq!(m.observe(t, &[0, 5]), None);
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
        let mut m = HealthMonitor::new(&n, &k);
        for t in 1..=5u64 {
            assert_eq!(m.observe(t * 100, &[0, 0]), None, "quiet path");
        }
        // Burst + rail death in the same row correlate into RailOutage
        // (higher priority), with the burst alarm kept as evidence.
        let opened = m.observe(600, &[50, 2]);
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
        let mut m = HealthMonitor::new(&n, &k);
        for t in 1..=4u64 {
            m.observe(t * 100, &[0]);
        }
        assert_eq!(m.observe(500, &[40]), Some(IncidentCause::RetransmitStorm));
    }

    #[test]
    fn fence_stuck_raises_fence_stall() {
        let n = names(&["fence_buffered"]);
        let k = [SourceKind::Gauge];
        let mut m = HealthMonitor::new(&n, &k);
        let mut opened = None;
        for t in 1..=20u64 {
            if let Some(c) = m.observe(t * 100, &[3]) {
                opened = Some((t, c));
                break;
            }
        }
        let (t, c) = opened.expect("stuck fence must alarm");
        assert_eq!(c, IncidentCause::FenceStall);
        assert_eq!(t, u64::from(FENCE_STUCK_INTERVALS));
    }

    #[test]
    fn backlog_step_raises_congestion() {
        let n = names(&["token_age_ns"]);
        let k = [SourceKind::Gauge];
        let mut m = HealthMonitor::new(&n, &k);
        let mut t = 0u64;
        for _ in 0..20 {
            t += 100;
            assert_eq!(m.observe(t, &[40]), None, "steady level is clean");
        }
        let mut opened = None;
        for _ in 0..6 {
            t += 100;
            if let Some(c) = m.observe(t, &[4000]) {
                opened = Some(c);
                break;
            }
        }
        assert_eq!(opened, Some(IncidentCause::CongestionBacklog));
    }

    /// Rows of (`retransmits_nack` delta, `token_age_ns`) from `t`, 100 ns
    /// apart; returns the causes they opened.
    fn feed(m: &mut HealthMonitor, t: &mut u64, rows: &[(u64, u64)]) -> Vec<IncidentCause> {
        let mut opened = Vec::new();
        for &(nacks, age) in rows {
            *t += 100;
            opened.extend(m.observe(*t, &[nacks, age]));
        }
        opened
    }

    fn nack_and_age_monitor() -> HealthMonitor {
        let n = names(&["retransmits_nack", "token_age_ns"]);
        HealthMonitor::new(&n, &[SourceKind::Counter, SourceKind::Gauge])
    }

    #[test]
    fn drift_after_nack_retransmits_belongs_to_the_storm() {
        let mut m = nack_and_age_monitor();
        let mut t = 0;
        assert!(feed(&mut m, &mut t, &[(0, 40); 20]).is_empty());
        // A few repairs, below the burst floor, then the ack token ages
        // while the sender waits on repairs the burst dropped too. The
        // drift keeps its cause after the repairs fall out of sight.
        let rows = [(3, 40), (0, 40), (0, 4000), (0, 4000), (0, 4000), (0, 4000)];
        assert_eq!(
            feed(&mut m, &mut t, &rows),
            [IncidentCause::RetransmitStorm]
        );
        let r = m.report();
        assert_eq!(r.incidents.len(), 1, "{}", r.render_human());
        let kinds: Vec<AlarmKind> = r.incidents[0].evidence().iter().map(|a| a.kind).collect();
        assert_eq!(kinds, [AlarmKind::RepairStall; 4]);
    }

    #[test]
    fn drift_without_nack_retransmits_stays_congestion() {
        let mut m = nack_and_age_monitor();
        let mut t = 0;
        assert!(feed(&mut m, &mut t, &[(0, 40); 20]).is_empty());
        // The ack token ages first (a stalled NIC); the NACK burst it
        // provokes opens the storm beside it, but the drift stays a
        // congestion backlog.
        let opened = feed(&mut m, &mut t, &[(0, 4000), (0, 4000), (40, 4000)]);
        assert_eq!(
            opened,
            [
                IncidentCause::CongestionBacklog,
                IncidentCause::RetransmitStorm
            ]
        );
        feed(&mut m, &mut t, &[(0, 4000)]);
        let congestion = m.report().incidents[0];
        assert_eq!(congestion.cause, IncidentCause::CongestionBacklog);
        assert_eq!(congestion.last_alarm_t_ns, t, "the drift stayed congestion");
        assert!(congestion
            .evidence()
            .iter()
            .all(|a| a.kind == AlarmKind::Drift));
    }

    #[test]
    fn unwatched_gauges_raise_nothing() {
        let n = names(&["in_flight", "rail0.backlog_ns", "rto_ns"]);
        let k = [SourceKind::Gauge; 3];
        let mut m = HealthMonitor::new(&n, &k);
        let mut t = 0u64;
        for v in [40, 4000] {
            for _ in 0..20 {
                t += 100;
                assert_eq!(m.observe(t, &[v, v, v]), None);
            }
        }
        assert_eq!(m.report().alarms_total, 0);
    }

    #[test]
    fn burst_detector_is_quiet_on_steady_rates() {
        let mut b = Burst::default();
        // A path that always retransmits a little: first row is a burst
        // relative to "never", afterwards the rate is the baseline.
        assert!(b.observe(10) > 0.0);
        for _ in 0..100 {
            assert_eq!(b.observe(10), 0.0);
        }
        // A 20× spike over the adapted rate alarms again.
        assert!(b.observe(200) > 0.0);
    }

    #[test]
    fn imbalance_diagnosis_names_hot_member_and_balanced_is_clean() {
        let labels = names(&["s0", "s1", "s2", "s3"]);
        let t: Vec<u64> = (1..=10u64).map(|i| i * 1000).collect();
        let hot: Vec<Vec<u64>> = vec![vec![400; 10], vec![40; 10], vec![40; 10], vec![40; 10]];
        let r = diagnose_imbalance(&labels, &t, &hot);
        let i = r
            .first(IncidentCause::IncastImbalance)
            .expect("hot member flagged");
        assert_eq!(i.evidence()[0].column, 0);
        assert!(i.is_open());
        let balanced: Vec<Vec<u64>> = vec![vec![100; 10]; 4];
        let r = diagnose_imbalance(&labels, &t, &balanced);
        assert!(r.incidents.is_empty());
    }

    #[test]
    fn replay_of_timeline_rows_matches_direct_observation() {
        let mut b = TimelineBuilder::new();
        let c = b.counter("retransmits_nack");
        let g = b.gauge("rail0.state");
        let mut tl = b.build(100, 64, 0);
        let mut live = HealthMonitor::for_timeline(&tl);
        let mut raws = 0u64;
        for i in 1..=30u64 {
            raws += if i == 12 { 60 } else { 0 };
            tl.set(c, raws);
            tl.set(g, if (15..=20).contains(&i) { 2 } else { 0 });
            tl.sample(i * 100);
            let i = tl.len() - 1;
            let (t, vals) = tl.row(i);
            live.observe(t, vals);
        }
        // Offline replay through the JSONL artifact must render the
        // identical report.
        let doc = TimelineDoc::parse_jsonl(&tl.to_jsonl()).expect("parses");
        let mut offline = HealthMonitor::for_doc(&doc);
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
        let n = names(&["rail0.state"]);
        let k = [SourceKind::Gauge];
        let mut m = HealthMonitor::new(&n, &k);
        let mut t = 0;
        for _ in 0..=MAX_INCIDENTS {
            t += 100;
            m.observe(t, &[2]); // open (or suppressed)
            for _ in 0..2 * CLEAR_INTERVALS {
                t += 100;
                m.observe(t, &[0]); // close, then outlast the reopen window
            }
        }
        let r = m.report();
        assert_eq!(r.incidents.len(), MAX_INCIDENTS);
        assert_eq!(r.open_incidents(), 0);
        assert_eq!(r.suppressed_incidents, 1);
    }

    #[test]
    fn a_cause_alarming_again_right_after_its_close_reopens_the_incident() {
        let n = names(&["rail0.state"]);
        let mut m = HealthMonitor::new(&n, &[SourceKind::Gauge]);
        let mut t = 0;
        let mut feed = |m: &mut HealthMonitor, rows: &[u64]| {
            let mut opened = Vec::new();
            for &v in rows {
                t += 100;
                opened.extend(m.observe(t, &[v]));
            }
            opened
        };
        let quiet = [0; CLEAR_INTERVALS as usize];
        assert_eq!(feed(&mut m, &[2]), [IncidentCause::RailOutage]);
        assert!(feed(&mut m, &quiet).is_empty());
        assert_eq!(m.open_incidents(), 0, "closed after the quiet rows");
        // The next row alarms: the closed incident reopens.
        assert!(feed(&mut m, &[2]).is_empty());
        assert_eq!(m.open_incidents(), 1);
        // Closed again, and quiet through the window: a new incident.
        assert!(feed(&mut m, &quiet).is_empty());
        assert!(feed(&mut m, &quiet).is_empty());
        assert_eq!(feed(&mut m, &[2]), [IncidentCause::RailOutage]);
        let r = m.report();
        assert_eq!(r.incidents.len(), 2, "{}", r.render_human());
        assert_eq!(r.incidents[0].alarms, 2);
        assert_eq!(r.incidents[0].closed_t_ns, Some(800));
        assert_eq!(r.incidents[1].opened_t_ns, 1_200);
    }

    #[test]
    fn report_json_is_schema_stamped() {
        let n = names(&["in_flight"]);
        let k = [SourceKind::Gauge];
        let m = HealthMonitor::new(&n, &k);
        let doc = m.report().to_json();
        crate::json::require_schema(&doc).expect("stamped");
        assert_eq!(doc.get("kind").and_then(|k| k.as_str()), Some(HEALTH_KIND));
    }
}
