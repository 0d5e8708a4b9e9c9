//! Critical-path latency attribution over completed [`OpSpan`]s.
//!
//! Each completed span's milestones are clamped into a monotone chain and
//! differenced into **exclusive phases**: every nanosecond of
//! `complete - created` lands in exactly one phase, so per-phase sums
//! telescope *exactly* back to the op's measured latency (the property the
//! attribution proptests pin). Phases roll up per connection and per rail
//! into mergeable [`LogHistogram`]s and render as the
//! `BENCH_attribution.json` artifact.
//!
//! The taxonomy is a superset of the seven-phase split in the issue: the
//! wire-facing phases (send-window stall, rail queueing, wire time,
//! retransmit repair, reorder wait, fence stall, ACK return) are joined by
//! host-side bookends (issue cost, receive processing, ack trigger delay,
//! completion wake) so the telescoping is airtight end to end.

use crate::hist::LogHistogram;
use crate::json::Json;
use crate::span::{OpSpan, SpanKind, SpanSnapshot};
use std::collections::BTreeMap;

/// Exclusive latency phases, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Issue-path CPU: application call to frames queued.
    HostIssue,
    /// Waiting for send-window credit (first critical transmission held
    /// back; for reads also the target-side response queue delay).
    SendWindow,
    /// Repair time: first to last transmission of the critical frame.
    Retransmit,
    /// NIC transmit backlog ahead of the deciding transmission.
    RailQueue,
    /// Propagation + serialization of the deciding transmission.
    Wire,
    /// Receive-path CPU: NIC delivery to sequence admission.
    RxProcess,
    /// Admitted but waiting for earlier sequences (reorder buffer).
    Reorder,
    /// Fence-induced stall on the op's completion path.
    Fence,
    /// Receiver had the data but had not yet emitted a covering ack.
    AckDelay,
    /// The covering ack's flight back to the sender.
    AckReturn,
    /// Sender-side completion dispatch and application wake.
    CompleteWake,
}

/// All phases, in causal order (stable for JSON column ordering).
pub const PHASES: [Phase; 11] = [
    Phase::HostIssue,
    Phase::SendWindow,
    Phase::Retransmit,
    Phase::RailQueue,
    Phase::Wire,
    Phase::RxProcess,
    Phase::Reorder,
    Phase::Fence,
    Phase::AckDelay,
    Phase::AckReturn,
    Phase::CompleteWake,
];

impl Phase {
    /// Stable snake_case label (JSON keys, report columns).
    pub fn label(&self) -> &'static str {
        match self {
            Phase::HostIssue => "host_issue",
            Phase::SendWindow => "send_window",
            Phase::Retransmit => "retransmit",
            Phase::RailQueue => "rail_queue",
            Phase::Wire => "wire",
            Phase::RxProcess => "rx_process",
            Phase::Reorder => "reorder",
            Phase::Fence => "fence",
            Phase::AckDelay => "ack_delay",
            Phase::AckReturn => "ack_return",
            Phase::CompleteWake => "complete_wake",
        }
    }

    /// Index into [`PHASES`]-shaped arrays.
    pub fn idx(&self) -> usize {
        PHASES.iter().position(|p| p == self).expect("phase listed")
    }
}

/// One op's exclusive phase durations (ns). Produced by
/// [`PhaseBreakdown::from_span`]; `phases` always sums to `latency_ns`.
#[derive(Debug, Clone, Copy)]
pub struct PhaseBreakdown {
    /// The analyzed span (copied for rail/conn attribution downstream).
    pub span: OpSpan,
    /// `complete - created` (ns).
    pub latency_ns: u64,
    /// Exclusive durations, indexed like [`PHASES`].
    pub phases: [u64; PHASES.len()],
}

impl PhaseBreakdown {
    /// Attribute one completed span. Milestones are first clamped into a
    /// monotone chain (an unstamped milestone collapses onto its
    /// predecessor, yielding a zero-width phase), then differenced; the
    /// fence share of a wait is carved out of the enclosing hold, never
    /// added on top — so the total telescopes exactly.
    pub fn from_span(span: &OpSpan) -> Self {
        let mut phases = [0u64; PHASES.len()];
        let mut add = |p: Phase, ns: u64| phases[p.idx()] += ns;

        // Clamp into a monotone chain starting at `created`.
        let created = span.created;
        let issue = span.issue.max(created);
        let first_tx = span.first_tx.max(issue);
        let last_tx = span.last_tx.max(first_tx);
        let arrival = span.arrival.max(last_tx);
        let admit = span.admit.max(arrival);

        add(Phase::HostIssue, issue - created);
        add(Phase::SendWindow, first_tx - issue);
        add(Phase::Retransmit, last_tx - first_tx);
        let queue = span.tx_queue.min(arrival - last_tx);
        add(Phase::RailQueue, queue);
        add(Phase::Wire, arrival - last_tx - queue);
        add(Phase::RxProcess, admit - arrival);

        let end = match span.kind {
            SpanKind::Write => {
                // admit ≤ cum ≤ ack_tx ≤ ack_rx ≤ complete
                let cum = span.cum.max(admit);
                let ack_tx = span.ack_tx.max(cum);
                let ack_rx = span.ack_rx.max(ack_tx);
                add(Phase::Reorder, cum - admit);
                add(Phase::AckDelay, ack_tx - cum);
                // A lost covering ack is repaired by a later one; the
                // repair rides in AckReturn (ack_tx stays the first
                // emission).
                add(Phase::AckReturn, ack_rx - ack_tx);
                ack_rx
            }
            SpanKind::Read => {
                // admit ≤ serve ≤ resp_first_tx ≤ resp_last_tx ≤
                // resp_arrival ≤ resp_admit ≤ released ≤ complete
                let serve = span.serve.max(admit);
                let resp_first_tx = span.resp_first_tx.max(serve);
                let resp_last_tx = span.resp_last_tx.max(resp_first_tx);
                let resp_arrival = span.resp_arrival.max(resp_last_tx);
                let resp_admit = span.resp_admit.max(resp_arrival);
                let released = span.released.max(resp_admit);

                // Request held at the target before service: the fence
                // share is carved out of the hold, the rest is reorder.
                let hold = serve - admit;
                let fence_req = span.fence_req_ns.min(hold);
                add(Phase::Fence, fence_req);
                add(Phase::Reorder, hold - fence_req);

                add(Phase::SendWindow, resp_first_tx - serve);
                add(Phase::Retransmit, resp_last_tx - resp_first_tx);
                let rq = span.resp_queue.min(resp_arrival - resp_last_tx);
                add(Phase::RailQueue, rq);
                add(Phase::Wire, resp_arrival - resp_last_tx - rq);
                add(Phase::RxProcess, resp_admit - resp_arrival);

                let hold = released - resp_admit;
                let fence_resp = span.fence_resp_ns.min(hold);
                add(Phase::Fence, fence_resp);
                add(Phase::Reorder, hold - fence_resp);
                released
            }
        };
        let complete = span.complete.max(end);
        add(Phase::CompleteWake, complete - end);

        PhaseBreakdown {
            span: *span,
            latency_ns: complete - created,
            phases,
        }
    }
}

/// Mergeable rollup of breakdowns (per connection, per rail, overall).
#[derive(Debug, Clone, Default)]
pub struct PhaseRollup {
    /// Ops folded in.
    pub ops: u64,
    /// Payload bytes across those ops.
    pub bytes: u64,
    /// Retransmitted frame transmissions across those ops.
    pub retransmits: u64,
    /// Sum of op latencies (ns) — always equals the sum of `phase_total`.
    pub latency_total_ns: u64,
    /// Op latency distribution.
    pub latency_hist: LogHistogram,
    /// Per-phase exclusive totals (ns), indexed like [`PHASES`].
    pub phase_total_ns: [u64; PHASES.len()],
    /// Per-phase distributions over ops.
    pub phase_hist: [LogHistogram; PHASES.len()],
}

impl PhaseRollup {
    /// Fold one breakdown in.
    pub fn add(&mut self, b: &PhaseBreakdown) {
        self.ops += 1;
        self.bytes += b.span.bytes;
        self.retransmits += b.span.retransmits as u64;
        self.latency_total_ns += b.latency_ns;
        self.latency_hist.record(b.latency_ns);
        for (i, &ns) in b.phases.iter().enumerate() {
            self.phase_total_ns[i] += ns;
            self.phase_hist[i].record(ns);
        }
    }

    /// Merge another rollup in (histograms are bucket-wise mergeable).
    pub fn merge(&mut self, other: &PhaseRollup) {
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.retransmits += other.retransmits;
        self.latency_total_ns += other.latency_total_ns;
        self.latency_hist.merge(&other.latency_hist);
        for i in 0..PHASES.len() {
            self.phase_total_ns[i] += other.phase_total_ns[i];
            self.phase_hist[i].merge(&other.phase_hist[i]);
        }
    }

    /// Sum of all exclusive phase totals — equals `latency_total_ns` by
    /// construction.
    pub fn phase_sum_ns(&self) -> u64 {
        self.phase_total_ns.iter().sum()
    }

    /// Render as JSON (totals, per-phase totals/fractions, percentiles,
    /// and the full histograms so two artifacts can be diffed or merged
    /// without re-running the workload).
    pub fn to_json(&self) -> Json {
        let mut phases = Json::obj();
        for (i, p) in PHASES.iter().enumerate() {
            let h = &self.phase_hist[i];
            phases = phases.set(
                p.label(),
                Json::obj()
                    .set("total_ns", self.phase_total_ns[i])
                    .set(
                        "fraction",
                        if self.latency_total_ns == 0 {
                            0.0
                        } else {
                            self.phase_total_ns[i] as f64 / self.latency_total_ns as f64
                        },
                    )
                    .set("p50_ns", h.percentile(50.0))
                    .set("p99_ns", h.percentile(99.0))
                    .set("hist", h.to_json()),
            );
        }
        Json::obj()
            .set("ops", self.ops)
            .set("bytes", self.bytes)
            .set("retransmits", self.retransmits)
            .set("latency_total_ns", self.latency_total_ns)
            .set("phase_sum_ns", self.phase_sum_ns())
            .set("latency_p50_ns", self.latency_hist.percentile(50.0))
            .set("latency_p99_ns", self.latency_hist.percentile(99.0))
            .set("latency_hist", self.latency_hist.to_json())
            .set("phases", phases)
    }

    /// Rebuild a rollup from [`PhaseRollup::to_json`] output (the
    /// histogram round-trip is exact, so percentiles and merges behave
    /// identically to the original in-memory rollup). Derived fields
    /// (fractions, percentiles) are recomputed, not read back.
    pub fn from_json(j: &Json) -> Result<PhaseRollup, String> {
        let num = |k: &str| {
            j.get(k)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("rollup: missing field '{k}'"))
        };
        let mut r = PhaseRollup {
            ops: num("ops")?,
            bytes: num("bytes")?,
            retransmits: num("retransmits")?,
            latency_total_ns: num("latency_total_ns")?,
            latency_hist: LogHistogram::from_json(
                j.get("latency_hist")
                    .ok_or("rollup: missing latency_hist")?,
            )?,
            ..PhaseRollup::default()
        };
        let phases = j.get("phases").ok_or("rollup: missing phases")?;
        for (i, p) in PHASES.iter().enumerate() {
            let pj = phases
                .get(p.label())
                .ok_or_else(|| format!("rollup: missing phase '{}'", p.label()))?;
            r.phase_total_ns[i] = pj
                .get("total_ns")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("rollup: phase '{}' missing total_ns", p.label()))?;
            r.phase_hist[i] = LogHistogram::from_json(
                pj.get("hist")
                    .ok_or_else(|| format!("rollup: phase '{}' missing hist", p.label()))?,
            )?;
        }
        if r.phase_sum_ns() != r.latency_total_ns {
            return Err(format!(
                "rollup: phase totals sum to {}, latency_total_ns is {}",
                r.phase_sum_ns(),
                r.latency_total_ns
            ));
        }
        Ok(r)
    }
}

/// Full attribution over a snapshot: overall, per-connection (keyed by the
/// issuing `(node, conn)`), and per-rail rollups.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Every retained completed op folded together.
    pub overall: PhaseRollup,
    /// Rollup per issuing `(node, conn)`.
    pub per_conn: BTreeMap<(u16, u16), PhaseRollup>,
    /// Per-rail rollup of ops whose critical request frame's deciding
    /// transmission used that rail.
    pub per_rail: BTreeMap<u32, PhaseRollup>,
    /// Per-rail NIC transmit-backlog histograms (all data transmissions,
    /// from the span recorder's rail counters).
    pub rail_queue: Vec<LogHistogram>,
    /// Per-rail data-frame transmission counts.
    pub rail_frames: Vec<u64>,
    /// Per-rail retransmission counts.
    pub rail_retransmits: Vec<u64>,
    /// Completed spans lost to the snapshot ring bound (attribution covers
    /// the retained tail only when this is non-zero).
    pub overwritten: u64,
}

/// Analyze a snapshot into per-connection / per-rail phase rollups.
pub fn analyze(snap: &SpanSnapshot) -> Attribution {
    let mut attr = Attribution {
        rail_queue: snap.rail_queue.clone(),
        rail_frames: snap.rail_frames.clone(),
        rail_retransmits: snap.rail_retransmits.clone(),
        overwritten: snap.overwritten,
        ..Attribution::default()
    };
    for span in &snap.spans {
        let b = PhaseBreakdown::from_span(span);
        attr.overall.add(&b);
        attr.per_conn
            .entry((span.key.node, span.key.conn))
            .or_default()
            .add(&b);
        if span.crit_rail != u32::MAX {
            attr.per_rail.entry(span.crit_rail).or_default().add(&b);
        }
    }
    attr
}

impl Attribution {
    /// Merge another attribution in (all rollups and per-rail counters are
    /// bucket-wise / element-wise additive). The backplane cells use this
    /// to fold multiple seeds of the same cell into one mergeable document.
    pub fn merge(&mut self, other: &Attribution) {
        self.overall.merge(&other.overall);
        for (k, r) in &other.per_conn {
            self.per_conn.entry(*k).or_default().merge(r);
        }
        for (k, r) in &other.per_rail {
            self.per_rail.entry(*k).or_default().merge(r);
        }
        if self.rail_queue.len() < other.rail_queue.len() {
            self.rail_queue
                .resize(other.rail_queue.len(), LogHistogram::new());
        }
        for (h, o) in self.rail_queue.iter_mut().zip(&other.rail_queue) {
            h.merge(o);
        }
        if self.rail_frames.len() < other.rail_frames.len() {
            self.rail_frames.resize(other.rail_frames.len(), 0);
        }
        for (f, o) in self.rail_frames.iter_mut().zip(&other.rail_frames) {
            *f += o;
        }
        if self.rail_retransmits.len() < other.rail_retransmits.len() {
            self.rail_retransmits
                .resize(other.rail_retransmits.len(), 0);
        }
        for (f, o) in self
            .rail_retransmits
            .iter_mut()
            .zip(&other.rail_retransmits)
        {
            *f += o;
        }
        self.overwritten += other.overwritten;
    }

    /// Render the whole attribution as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut conns = Json::obj();
        for ((node, conn), r) in &self.per_conn {
            conns = conns.set(&format!("n{node}c{conn}"), r.to_json());
        }
        let mut rails = Json::obj();
        for (rail, r) in &self.per_rail {
            let mut j = r.to_json();
            if let Some(h) = self.rail_queue.get(*rail as usize) {
                j = j
                    .set("nic_queue_p50_ns", h.percentile(50.0))
                    .set("nic_queue_p99_ns", h.percentile(99.0));
            }
            if let Some(&f) = self.rail_frames.get(*rail as usize) {
                j = j.set("frames_tx", f);
            }
            if let Some(&rt) = self.rail_retransmits.get(*rail as usize) {
                j = j.set("frames_retransmitted", rt);
            }
            rails = rails.set(&format!("rail{rail}"), j);
        }
        Json::obj()
            .set("overall", self.overall.to_json())
            .set("per_conn", conns)
            .set("per_rail", rails)
            .set("spans_overwritten", self.overwritten)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Feed, SpanRecorder};

    #[test]
    fn write_breakdown_telescopes_exactly() {
        let r = SpanRecorder::enabled(4);
        let f = Feed::new(&r, 0);
        f.issue(0, false, 100, 180, 4096);
        f.send(0, 0, true, false, 0, 40, 250);
        f.send(0, 0, true, true, 1, 10, 900);
        // The last fragment (seq 1) admits ahead of seq 0.
        f.recv(1, 1, 0, true, 0, 1400, 1450);
        f.recv(1, 0, 0, false, 2, 1480, 1500);
        f.ack(1, 2, 1600);
        f.done(0, 2100);
        f.complete(0, 2200);
        let b = PhaseBreakdown::from_span(&r.snapshot().unwrap().spans[0]);
        assert_eq!(b.latency_ns, 2100);
        assert_eq!(b.phases.iter().sum::<u64>(), b.latency_ns);
        let g = |p: Phase| b.phases[p.idx()];
        assert_eq!(g(Phase::HostIssue), 80);
        assert_eq!(g(Phase::SendWindow), 70);
        assert_eq!(g(Phase::Retransmit), 650);
        assert_eq!(g(Phase::RailQueue), 10);
        assert_eq!(g(Phase::Wire), 490);
        assert_eq!(g(Phase::RxProcess), 50);
        assert_eq!(g(Phase::Reorder), 50);
        assert_eq!(g(Phase::AckDelay), 100);
        assert_eq!(g(Phase::AckReturn), 500);
        assert_eq!(g(Phase::CompleteWake), 100);
        assert_eq!(g(Phase::Fence), 0);
    }

    #[test]
    fn read_breakdown_with_fences_telescopes_exactly() {
        let r = SpanRecorder::enabled(4);
        let f = Feed::new(&r, 0);
        f.issue(1, true, 0, 50, 8192);
        f.send(0, 1, true, false, 0, 0, 60);
        f.recv(1, 0, 1, true, 1, 500, 520);
        f.fence(false, 1, 30, 600); // request held 30ns of an 80ns hold by a fence
        f.serve(1, 600);
        f.send(1, 1, true, false, 1, 20, 650);
        f.recv(0, 0, 1, true, 1, 1200, 1230);
        f.fence(true, 1, 1000, 1300); // claims more than the hold: clamped
        f.done(1, 1300);
        f.complete(1, 1400);
        let b = PhaseBreakdown::from_span(&r.snapshot().unwrap().spans[0]);
        assert_eq!(b.latency_ns, 1400);
        assert_eq!(b.phases.iter().sum::<u64>(), b.latency_ns);
        let g = |p: Phase| b.phases[p.idx()];
        // Fence: 30 (request hold) + 70 (response hold, clamped to it).
        assert_eq!(g(Phase::Fence), 100);
        // Reorder: (80-30) request + (70-70) response.
        assert_eq!(g(Phase::Reorder), 50);
        // SendWindow: 10 (issue→first_tx) + 50 (serve→resp_first_tx).
        assert_eq!(g(Phase::SendWindow), 60);
        assert_eq!(g(Phase::RailQueue), 20);
        assert_eq!(g(Phase::Wire), 440 + 530);
        assert_eq!(g(Phase::CompleteWake), 100);
    }

    #[test]
    fn partially_stamped_span_still_telescopes() {
        // A span that never made it past issue (e.g. snapshotted after a
        // forced completion) must still attribute exactly.
        let r = SpanRecorder::enabled(4);
        let f = Feed::new(&r, 0);
        f.issue(2, false, 10, 25, 64);
        f.complete(2, 500);
        let b = PhaseBreakdown::from_span(&r.snapshot().unwrap().spans[0]);
        assert_eq!(b.latency_ns, 490);
        assert_eq!(b.phases.iter().sum::<u64>(), 490);
        assert_eq!(b.phases[Phase::HostIssue.idx()], 15);
        assert_eq!(b.phases[Phase::CompleteWake.idx()], 475);
    }

    #[test]
    fn rollup_merge_matches_sequential_adds() {
        let mk = |lat: u64| {
            let r = SpanRecorder::enabled(2);
            let f = Feed::new(&r, 0);
            f.issue(0, false, 0, 0, 10);
            f.complete(0, lat);
            PhaseBreakdown::from_span(&r.snapshot().unwrap().spans[0])
        };
        let (a, b) = (mk(100), mk(300));
        let mut seq = PhaseRollup::default();
        seq.add(&a);
        seq.add(&b);
        let mut merged = PhaseRollup::default();
        let mut other = PhaseRollup::default();
        merged.add(&a);
        other.add(&b);
        merged.merge(&other);
        assert_eq!(merged.ops, seq.ops);
        assert_eq!(merged.latency_total_ns, seq.latency_total_ns);
        assert_eq!(merged.phase_total_ns, seq.phase_total_ns);
        assert_eq!(merged.latency_hist, seq.latency_hist);
        assert_eq!(merged.phase_sum_ns(), merged.latency_total_ns);
    }

    #[test]
    fn rollup_json_round_trip_is_exact() {
        let r = SpanRecorder::enabled(4);
        let f = Feed::new(&r, 0);
        f.issue(0, false, 100, 180, 4096);
        f.send(0, 0, true, false, 0, 40, 250);
        f.recv(1, 0, 0, true, 1, 1400, 1450);
        f.complete(0, 2200);
        let mut roll = PhaseRollup::default();
        roll.add(&PhaseBreakdown::from_span(&r.snapshot().unwrap().spans[0]));
        let text = roll.to_json().render_pretty();
        let back = PhaseRollup::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.ops, roll.ops);
        assert_eq!(back.bytes, roll.bytes);
        assert_eq!(back.latency_total_ns, roll.latency_total_ns);
        assert_eq!(back.phase_total_ns, roll.phase_total_ns);
        assert_eq!(back.latency_hist, roll.latency_hist);
        assert_eq!(back.phase_hist, roll.phase_hist);
        // Corrupting a phase total breaks the telescoping check.
        let mut doc = Json::parse(&text).unwrap();
        if let Json::Obj(fields) = &mut doc {
            for (key, v) in fields.iter_mut() {
                if key == "latency_total_ns" {
                    *v = Json::from(1u64);
                }
            }
        }
        assert!(PhaseRollup::from_json(&doc).is_err());
    }

    #[test]
    fn attribution_merge_matches_joint_analysis() {
        let mk = |op: u32, lat: u64, rail: u32| {
            let r = SpanRecorder::enabled(4);
            let f = Feed::new(&r, op % 2);
            f.issue(op, false, 0, 10, 100);
            f.send(0, op, true, false, rail, 5, 20);
            f.recv(1, 0, op, true, 1, lat / 2, lat / 2 + 10);
            f.complete(op, lat);
            r.snapshot().unwrap()
        };
        let (s1, s2) = (mk(0, 1_000, 0), mk(1, 3_000, 1));
        let mut merged = analyze(&s1);
        merged.merge(&analyze(&s2));
        assert_eq!(merged.overall.ops, 2);
        assert_eq!(merged.per_conn.len(), 2);
        assert_eq!(merged.per_rail.len(), 2);
        assert_eq!(
            merged.overall.latency_total_ns,
            analyze(&s1).overall.latency_total_ns + analyze(&s2).overall.latency_total_ns
        );
        assert_eq!(
            merged.overall.phase_sum_ns(),
            merged.overall.latency_total_ns
        );
        assert_eq!(merged.rail_frames, vec![1, 1]);
    }

    #[test]
    fn analyze_groups_by_conn_and_rail() {
        let r = SpanRecorder::enabled(8);
        for (conn, rail) in [(0, 0), (1, 1)] {
            let f = Feed::new(&r, conn);
            f.issue(7, false, 0, 10, 100);
            f.send(0, 7, true, false, rail, 5, 20);
            f.recv(1, 0, 7, true, 1, 200, 210);
            f.complete(7, 400);
        }
        let attr = analyze(&r.snapshot().unwrap());
        assert_eq!(attr.overall.ops, 2);
        assert_eq!(attr.per_conn.len(), 2);
        assert_eq!(attr.per_rail.len(), 2);
        assert_eq!(attr.overall.phase_sum_ns(), attr.overall.latency_total_ns);
        let json = attr.to_json().render();
        assert!(json.contains("n0c1"));
        assert!(json.contains("rail1"));
    }
}
