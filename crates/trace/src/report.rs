//! Reporters: the JSON form of a trace snapshot, consumed by the bench
//! harnesses.

use crate::event::Event;
use crate::hist::LogHistogram;
use crate::json::Json;
use crate::tracer::TraceSnapshot;
use std::collections::BTreeMap;

/// Percentiles every report quotes, in order.
const REPORT_PERCENTILES: [(&str, f64); 4] =
    [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("p999", 99.9)];

/// Retained events per kind label.
fn counts_by_kind(snap: &TraceSnapshot) -> BTreeMap<&'static str, u64> {
    let mut by_kind = BTreeMap::new();
    for e in &snap.events {
        *by_kind.entry(e.kind.label()).or_default() += 1;
    }
    by_kind
}

/// JSON form of one histogram: count/min/max/mean plus the headline
/// percentiles and the raw non-empty buckets (for re-aggregation).
pub fn hist_to_json(h: &LogHistogram) -> Json {
    let mut j = Json::obj()
        .set("count", h.count())
        .set("min_ns", h.min())
        .set("max_ns", h.max())
        .set("mean_ns", h.mean());
    for (name, p) in REPORT_PERCENTILES {
        j = j.set(&format!("{name}_ns"), h.percentile(p));
    }
    let buckets: Vec<Json> = h
        .nonzero_buckets()
        .into_iter()
        .map(|(floor, count)| Json::Arr(vec![Json::from(floor), Json::from(count)]))
        .collect();
    j.set("buckets", buckets)
}

fn hist_map_to_json(map: &BTreeMap<u32, LogHistogram>) -> Json {
    let mut obj = Json::obj();
    for (k, h) in map {
        obj = obj.set(&k.to_string(), hist_to_json(h));
    }
    obj
}

/// JSON form of a whole snapshot: per-kind event counts, the retained
/// timeline, and all histogram families. This is what lands inside the
/// bench crate's `BENCH_*.json` files.
pub fn snapshot_to_json(snap: &TraceSnapshot) -> Json {
    let mut counts = Json::obj();
    for (label, n) in &counts_by_kind(snap) {
        counts = counts.set(label, *n);
    }
    let events: Vec<Json> = snap.events.iter().map(Event::to_json).collect();
    Json::obj()
        .set("events_retained", snap.events.len())
        .set("events_overwritten", snap.overwritten)
        .set("event_counts", counts)
        .set("op_latency_ns_by_conn", hist_map_to_json(&snap.op_latency))
        .set("wire_time_ns_by_link", hist_map_to_json(&snap.wire_time))
        .set(
            "fence_stall_ns_by_conn",
            hist_map_to_json(&snap.fence_stall),
        )
        .set("events", events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::Tracer;

    #[test]
    fn summary_and_json_cover_all_sections() {
        let t = Tracer::enabled(16);
        let ev = |t_ns, rail, kind| Event {
            t_ns,
            node: 0,
            conn: Some(0),
            rail,
            kind,
        };
        let (op, bytes, created_ns, read) = (1, 64, 0, false);
        t.emit(ev(
            5,
            None,
            EventKind::OpIssue {
                op,
                bytes,
                created_ns,
                read,
            },
        ));
        let send = EventKind::FrameSend {
            seq: 7,
            retransmit: false,
            op: 1,
            resp: false,
            critical: true,
            backlog_ns: 0,
        };
        t.emit(ev(9, Some(2), send));
        t.wire_time(2, 12_000);
        let (stalled_ns, resp) = (800, false);
        t.emit(ev(
            20,
            None,
            EventKind::FenceRelease {
                op,
                stalled_ns,
                resp,
            },
        ));
        let latency_ns = 30_000;
        t.emit(ev(30, None, EventKind::OpComplete { op, latency_ns }));
        let snap = t.snapshot().unwrap();
        let j = snapshot_to_json(&snap).render();
        assert!(j.contains("\"op_issue\":1"), "{j}");
        assert!(j.contains("\"wire_time_ns_by_link\":{\"2\""), "{j}");
        assert!(j.contains("\"op_latency_ns_by_conn\""), "{j}");
        assert!(j.contains("\"p99_ns\""), "{j}");
        let json = snapshot_to_json(&snap);
        let sent = &json.get("events").unwrap().items().unwrap()[1];
        assert_eq!(sent.get("kind").unwrap().as_str(), Some("frame_send"));
        let seq = sent.get("seq").and_then(|v| v.as_u64());
        assert_eq!(seq, Some(7), "payload reaches the JSON");
        assert_eq!(sent.get("rail").unwrap().as_u64(), Some(2));
        assert_eq!(snap.op_latency[&0].sum(), 30_000, "folded from op_complete");
        assert_eq!(snap.fence_stall[&0].sum(), 800, "folded from fence_release");
    }
}
