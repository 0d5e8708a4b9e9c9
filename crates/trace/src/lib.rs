//! Observability substrate for the MultiEdge protocol stack.
//!
//! The paper's entire evaluation (Figures 2–6, Table 1) depends on seeing
//! *inside* the protocol: out-of-order arrival fractions, ACK/retransmission
//! overhead, interrupt-vs-poll absorption, fence-induced stalls, operation
//! latency distributions. The flat [`ProtoStats`]-style counters answer
//! "how many", but not "when", "to whom", or "how long". This crate supplies
//! the missing three pieces:
//!
//! 1. **Structured event tracing** — [`Event`] / [`EventKind`]: typed
//!    protocol events (frame send/recv, piggybacked and explicit ACKs,
//!    NACKs, RTO fires, fence stalls and releases, interrupt vs. poll
//!    absorption, link-level drops, watchdog and health trips) carrying
//!    the timestamp, the node and optional connection/rail attribution,
//!    recorded into a fixed-capacity wraparound [`EventRing`]. This is the
//!    one event vocabulary: the flight recorder keeps the same events.
//! 2. **Latency histograms** — [`LogHistogram`]: log2-bucketed with linear
//!    sub-buckets (HdrHistogram-style, ≈3% relative error), mergeable, used
//!    for op issue→completion latency, frame wire time, and fence-stall
//!    duration, keyed per connection or per link.
//! 3. **Reporters** — a dependency-free JSON emitter ([`json::Json`],
//!    [`report::snapshot_to_json`]) that the bench crate uses to write `BENCH_*.json` files carrying protocol
//!    internals, not just wall time.
//!
//! The entry point is [`Tracer`]: a cheaply cloneable handle that is either
//! *disabled* (a `None` — every record call is a single branch and no
//! allocation, so instrumented hot paths cost nothing in production-style
//! runs) or *enabled* (shared mutable state behind `Rc<RefCell>`; the whole
//! simulator is single-threaded by design).
//!
//! On top of the flat tracer sit three causal layers (PR 4):
//!
//! 4. **Op spans** — [`SpanRecorder`] / [`OpSpan`]: every RDMA op owns a
//!    milestone record keyed by its origin `(node, conn, wire op id)`,
//!    folded from the same events — issue, per-rail transmission, arrival,
//!    reorder admission, ack emission/return, completion — forming a small
//!    causal DAG per op. [`Observers::emit`] is the one emission point: it
//!    hands each event to the tracer, the span recorder and the flight
//!    recorder alike.
//! 5. **Critical-path attribution** — [`attribution::analyze`] walks
//!    completed spans and splits each op's end-to-end latency into
//!    *exclusive* phases ([`attribution::Phase`]: fence stall, send-window
//!    stall, rail queueing, wire time, reorder wait, retransmit repair,
//!    ACK return, plus host-side bookends) that sum exactly to the
//!    measured latency, rolled up per connection and per rail.
//! 6. **Flight recorder** — [`FlightRecorder`]: a retention and trigger
//!    policy over an [`EventRing`] of the same [`Event`]s, enabled in
//!    production-style runs, that writes JSON post-mortem dumps when an
//!    event is a trigger (RTO backoff past a threshold, rail death,
//!    oversized fence stalls, watchdog trips, health incidents);
//!    `Json::parse` reads the dumps back for the `me-inspect` tool.
//! 7. **Regression diagnosis** — [`diff`]: subtracts two attribution
//!    rollups phase by phase (op counts, latency p50/p99, every phase's
//!    exclusive total and per-op delta) and prints one headline naming the
//!    largest mover and its protocol layer
//!    ("largest mover reorder (ordering) +6.4us/op"), or `identical`. The
//!    `stats_equivalence` golden prints it for a drifted line, `me-inspect
//!    diff` for two artifacts, and the backplane bench for sim vs UDP.
//! 8. **Online health plane** — [`detect`]: allocation-free streaming
//!    detectors over the timeline plane's delta rows, one per cause a
//!    gated cell diagnoses (CUSUM on the ack-token age, rate bursts on
//!    retransmit counters, rail-dead, fence-stuck and imbalance rules),
//!    correlated into typed [`Incident`]s with a named probable cause; the
//!    same engine replays JSONL artifacts offline for `me-inspect doctor`
//!    with bit-identical verdicts.
//!
//! ```
//! use me_trace::{Event, EventKind, Tracer};
//!
//! let t = Tracer::enabled(1024);
//! let kind = EventKind::OpIssue { op: 0, bytes: 64, created_ns: 0, read: false };
//! t.emit(Event { t_ns: 10, node: 0, conn: Some(0), rail: None, kind });
//! let kind = EventKind::OpComplete { op: 0, latency_ns: 27_500 };
//! t.emit(Event { t_ns: 27_500, node: 0, conn: Some(0), rail: None, kind });
//! let snap = t.snapshot().unwrap();
//! assert_eq!(snap.events.len(), 2);
//! assert_eq!(snap.op_latency[&0].count(), 1);
//! ```
//!
//! `ProtoStats` itself stays in the `multiedge` crate; this crate is
//! deliberately dependency-free so both `netsim` (below the protocol) and
//! `multiedge` (the protocol) can record into the same tracer.
//!
//! [`ProtoStats`]: https://docs.rs/multiedge

#![warn(missing_docs)]

pub mod attribution;
pub mod detect;
pub mod diff;
pub mod event;
pub mod flight;
pub mod hist;
pub mod json;
mod observers;
pub mod report;
pub mod ring;
pub mod span;
pub mod timeline;
mod tracer;

pub use attribution::{analyze, Attribution, Phase, PhaseBreakdown, PhaseRollup, PHASES};
pub use detect::{
    diagnose_imbalance, diagnose_member_timelines, Alarm, AlarmKind, Burst, Cusum, HealthConfig,
    HealthMonitor, HealthReport, Incident, IncidentCause, HEALTH_KIND, MAX_EVIDENCE, NUM_CAUSES,
};
pub use diff::{diff_docs, diff_rollups, CellDiff, DiffReport, RollupDelta, Totals};
pub use event::{Event, EventKind, FaultKind};
pub use flight::{FlightConfig, FlightDump, FlightRecorder};
pub use hist::LogHistogram;
pub use json::{require_schema, Json, SCHEMA_VERSION};
pub use observers::Observers;
pub use ring::EventRing;
pub use span::{OpSpan, SpanKey, SpanKind, SpanRecorder, SpanSnapshot};
pub use timeline::{
    imbalance, SourceId, SourceInfo, SourceKind, Timeline, TimelineBuilder, TimelineDoc,
    TIMELINE_KIND,
};
pub use tracer::{TraceSnapshot, Tracer};
