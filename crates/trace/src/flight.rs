//! Always-on flight recorder: a retention and trigger policy over an
//! [`EventRing`] of the tracer's own [`Event`]s.
//!
//! The full [`crate::Tracer`] keeps one ring per endpoint plus histograms and
//! is meant for benches; the flight recorder is its production-grade
//! sibling, one ring per cluster. Recording an event is one 64-byte store
//! into a ring of [`RING_EVENTS`] preallocated at enable time — nothing on
//! the clean path allocates, so the recorder can stay enabled in
//! production-style runs (the datapath bench gates 0 allocs/frame). The
//! trigger is read off the event itself — RTO backoff past a threshold, a
//! rail declared Dead, a fence stall past a bound, a watchdog trip, a health
//! incident — and the recorder then snapshots the ring (and, when wired to a
//! [`SpanRecorder`], a full latency attribution) into a JSON post-mortem:
//! kept in memory, optionally written to `dump_dir`, and renderable with the
//! `me-inspect` example binary.

use crate::attribution::analyze;
use crate::event::{Event, EventKind};
use crate::json::Json;
use crate::ring::EventRing;
use crate::span::SpanRecorder;
use std::cell::RefCell;
use std::rc::Rc;

/// Events the ring retains (preallocated; 256 KiB).
pub const RING_EVENTS: usize = 4096;

/// Dumps retained; further triggers are counted but suppressed.
pub const MAX_DUMPS: usize = 8;

/// Flight recorder knobs. The defaults suit production-style runs: dumps on
/// the third RTO backoff, rail death, a fence stall past 10 ms, a watchdog
/// trip or a health incident.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightConfig {
    /// Dump when a connection's RTO backoff exponent reaches this value
    /// (0 disables the trigger).
    pub rto_backoff_trigger: u32,
    /// Dump when a fence releases after stalling at least this long
    /// (0 disables the trigger).
    pub fence_stall_trigger_ns: u64,
    /// Dump when rail health declares a rail Dead.
    pub dump_on_rail_death: bool,
    /// When set, each dump is also written to
    /// `<dump_dir>/flight_<idx>_<trigger>.json`.
    pub dump_dir: Option<String>,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            rto_backoff_trigger: 3,
            fence_stall_trigger_ns: 10_000_000,
            dump_on_rail_death: true,
            dump_dir: None,
        }
    }
}

impl FlightConfig {
    /// The dump `kind` triggers, if any. A watchdog trip and a health
    /// incident always dump: the driver is about to fail, or the monitor
    /// has named a cause, and this ring is the post-mortem.
    fn trigger(&self, kind: &EventKind) -> Option<&'static str> {
        let armed = |bound: u64, v: u64| bound > 0 && v >= bound;
        match *kind {
            EventKind::RtoBackoff { backoff, .. }
                if armed(self.rto_backoff_trigger.into(), backoff.into()) =>
            {
                Some("rto_backoff")
            }
            EventKind::RailDown if self.dump_on_rail_death => Some("rail_death"),
            EventKind::FenceRelease { stalled_ns, .. }
                if armed(self.fence_stall_trigger_ns, stalled_ns) =>
            {
                Some("fence_stall")
            }
            EventKind::Watchdog { .. } => Some("watchdog"),
            EventKind::Anomaly { .. } => Some("anomaly"),
            _ => None,
        }
    }
}

/// One retained post-mortem dump.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// What fired: "rto_backoff", "rail_death", "fence_stall", "watchdog",
    /// "anomaly", or "forced" ([`FlightRecorder::force_dump`]).
    pub trigger: String,
    /// When it fired, ns.
    pub t_ns: u64,
    /// Where it was written, when `dump_dir` is configured.
    pub path: Option<String>,
    /// The full dump document.
    pub json: Json,
}

/// A named closure evaluated at dump time; its JSON lands under
/// `context.<name>` in the dump document.
type ContextSource = (String, Rc<dyn Fn() -> Json>);

struct FlightState {
    cfg: FlightConfig,
    ring: EventRing,
    dumps: Vec<FlightDump>,
    dumps_suppressed: u64,
    spans: SpanRecorder,
    context: Vec<ContextSource>,
}

/// Cheaply cloneable flight-recorder handle ([`crate::Tracer`] pattern:
/// disabled = one branch per call; enabled clones share one ring).
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Rc<RefCell<FlightState>>>,
}

impl FlightRecorder {
    /// A recorder that records nothing (the default).
    pub fn disabled() -> Self {
        FlightRecorder { inner: None }
    }

    /// An enabled recorder with its ring preallocated up front.
    pub fn enabled(cfg: FlightConfig) -> Self {
        FlightRecorder {
            inner: Some(Rc::new(RefCell::new(FlightState {
                cfg,
                ring: EventRing::new(RING_EVENTS),
                dumps: Vec::new(),
                dumps_suppressed: 0,
                spans: SpanRecorder::disabled(),
                context: Vec::new(),
            }))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Attach a span recorder; subsequent dumps embed a full critical-path
    /// attribution of its completed spans.
    pub fn set_span_source(&self, spans: &SpanRecorder) {
        if let Some(state) = &self.inner {
            state.borrow_mut().spans = spans.clone();
        }
    }

    /// Register a named context source: a closure evaluated at dump time
    /// whose result lands under `context.<name>` in every subsequent dump.
    /// This is how transport state that never flows through the event ring
    /// (chaos-injection tallies, a fabric's parked receive errors) rides
    /// along in post-mortems. Sources run with the recorder's internal
    /// borrow released, so they may freely read — even `record` into — the
    /// component that owns this recorder.
    pub fn add_context_source(&self, name: &str, f: Rc<dyn Fn() -> Json>) {
        if let Some(state) = &self.inner {
            state.borrow_mut().context.push((name.to_string(), f));
        }
    }

    /// Record one event, then dump if the event is a trigger
    /// ([`FlightDump::trigger`]). Clean-path cost: a branch and a ring store
    /// — no allocation.
    #[inline]
    pub fn record(&self, e: Event) {
        let Some(state) = &self.inner else { return };
        let trigger = {
            let mut s = state.borrow_mut();
            s.ring.push(e);
            s.cfg.trigger(&e.kind)
        };
        if let Some(trigger) = trigger {
            self.dump(trigger, e.t_ns);
        }
    }

    /// Take a dump right now regardless of triggers (used by tools and
    /// tests). Returns the dump document unless disabled or suppressed.
    pub fn force_dump(&self, t_ns: u64) -> Option<Json> {
        self.dump("forced", t_ns)
    }

    fn dump(&self, trigger: &str, t_ns: u64) -> Option<Json> {
        let state = self.inner.as_ref()?;
        // Snapshot the ring under the borrow, then release it before
        // evaluating context sources: a source reads live component state
        // and may re-enter this recorder while doing so.
        let (idx, mut doc, sources, dir) = {
            let mut s = state.borrow_mut();
            if s.dumps.len() >= MAX_DUMPS {
                s.dumps_suppressed += 1;
                return None;
            }
            let events: Vec<Json> = s.ring.events().iter().map(Event::to_json).collect();
            let mut doc = Json::obj()
                .set("schema_version", crate::json::SCHEMA_VERSION)
                .set("kind", "multiedge_flight_dump")
                .set("trigger", trigger)
                .set("t_ns", t_ns)
                .set("events_total", s.ring.len() as u64 + s.ring.overwritten())
                .set("events_retained", s.ring.len())
                .set("events", events);
            if let Some(snap) = s.spans.snapshot() {
                doc = doc.set("attribution", analyze(&snap).to_json());
            }
            (
                s.dumps.len(),
                doc,
                s.context.clone(),
                s.cfg.dump_dir.clone(),
            )
        };

        if !sources.is_empty() {
            let mut ctx = Json::obj();
            for (name, f) in &sources {
                ctx = ctx.set(name, f());
            }
            doc = doc.set("context", ctx);
        }

        let path = dir.and_then(|dir| {
            let file = format!("{dir}/flight_{idx}_{trigger}.json");
            let ok = std::fs::create_dir_all(&dir).is_ok()
                && std::fs::write(&file, doc.render_pretty()).is_ok();
            ok.then_some(file)
        });
        let mut s = state.borrow_mut();
        s.dumps.push(FlightDump {
            trigger: trigger.to_string(),
            t_ns,
            path,
            json: doc.clone(),
        });
        Some(doc)
    }

    /// Retained dumps, in trigger order.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.inner
            .as_ref()
            .map(|s| s.borrow().dumps.clone())
            .unwrap_or_default()
    }

    /// `(events_recorded_total, dumps_taken, dumps_suppressed)`.
    pub fn counters(&self) -> (u64, usize, u64) {
        self.inner
            .as_ref()
            .map(|s| {
                let s = s.borrow();
                (
                    s.ring.len() as u64 + s.ring.overwritten(),
                    s.dumps.len(),
                    s.dumps_suppressed,
                )
            })
            .unwrap_or((0, 0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::IncidentCause;
    use crate::event::FaultKind;

    /// `kind` on node 0, connection 0, at `t_ns`.
    fn ev(t_ns: u64, kind: EventKind) -> Event {
        Event {
            t_ns,
            node: 0,
            conn: Some(0),
            rail: None,
            kind,
        }
    }

    fn rail_down(t_ns: u64, rail: u32) -> Event {
        Event {
            rail: Some(rail),
            ..ev(t_ns, EventKind::RailDown)
        }
    }

    fn send(seq: u64) -> EventKind {
        EventKind::FrameSend {
            seq,
            retransmit: false,
            op: 0,
            resp: false,
            critical: false,
            backlog_ns: 0,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let fr = FlightRecorder::disabled();
        assert!(!fr.is_enabled());
        fr.record(ev(10, send(1)));
        assert!(fr.force_dump(20).is_none());
        assert_eq!(fr.counters(), (0, 0, 0));
    }

    #[test]
    fn ring_keeps_newest_events_in_order() {
        let fr = FlightRecorder::enabled(FlightConfig::default());
        let n = RING_EVENTS as u64 + 40;
        for i in 0..n {
            fr.record(ev(i * 10, send(i)));
        }
        let doc = fr.force_dump(n * 10).unwrap();
        let events = doc.get("events").unwrap().items().unwrap();
        assert_eq!(events.len(), RING_EVENTS);
        // Oldest retained is seq 40 (n - RING_EVENTS), strictly ascending after.
        let seqs: Vec<u64> = events
            .iter()
            .map(|e| e.get("seq").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(seqs, (40..n).collect::<Vec<_>>());
        assert_eq!(doc.get("events_total").unwrap().as_u64(), Some(n));
        assert_eq!(fr.counters().0, n);
    }

    #[test]
    fn rto_backoff_trigger_fires_at_threshold() {
        let fr = FlightRecorder::enabled(FlightConfig {
            rto_backoff_trigger: 3,
            ..FlightConfig::default()
        });
        for (backoff, t) in [(1, 100), (2, 200)] {
            let rto_ns = 10_000_000 << backoff;
            fr.record(ev(t, EventKind::RtoBackoff { rto_ns, backoff }));
        }
        assert_eq!(fr.counters().1, 0);
        fr.record(ev(
            300,
            EventKind::RtoBackoff {
                rto_ns: 80_000_000,
                backoff: 3,
            },
        ));
        let dumps = fr.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].trigger, "rto_backoff");
        assert_eq!(dumps[0].t_ns, 300);
    }

    #[test]
    fn dumps_are_bounded_and_suppressed_after() {
        let fr = FlightRecorder::enabled(FlightConfig::default());
        for t in 0..=MAX_DUMPS as u64 {
            fr.record(rail_down(t, 0));
        }
        assert!(
            fr.force_dump(100).is_none(),
            "the budget holds for forced dumps too"
        );
        let (_, taken, suppressed) = fr.counters();
        assert_eq!((taken, suppressed), (MAX_DUMPS, 2));
    }

    #[test]
    fn anomaly_trigger_always_dumps() {
        let fr = FlightRecorder::enabled(FlightConfig::default());
        let cause = IncidentCause::RailOutage;
        fr.record(ev(777, EventKind::Anomaly { cause, open: 1 }));
        let dumps = fr.dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].trigger, "anomaly");
        let events = dumps[0].json.get("events").unwrap().items().unwrap();
        let last = events.last().unwrap();
        assert_eq!(last.get("kind").unwrap().as_str(), Some("anomaly"));
        assert_eq!(last.get("cause").unwrap().as_str(), Some("rail_outage"));
    }

    #[test]
    fn rail_death_dump_is_configurable() {
        let fr = FlightRecorder::enabled(FlightConfig {
            dump_on_rail_death: false,
            ..FlightConfig::default()
        });
        fr.record(rail_down(50, 2));
        assert_eq!(fr.counters().1, 0);
        let fr = FlightRecorder::enabled(FlightConfig::default());
        fr.record(Event {
            node: 1,
            conn: None,
            ..rail_down(60, 2)
        });
        assert_eq!(fr.dumps()[0].trigger, "rail_death");
    }

    #[test]
    fn context_sources_ride_along_in_dumps() {
        let fr = FlightRecorder::enabled(FlightConfig::default());
        let hits = Rc::new(std::cell::Cell::new(0u64));
        let h = hits.clone();
        fr.add_context_source(
            "chaos",
            Rc::new(move || {
                h.set(h.get() + 1);
                Json::obj().set("frames_dropped", 3u64)
            }),
        );
        let doc = fr.force_dump(10).unwrap();
        let ctx = doc.get("context").expect("dump carries context");
        assert_eq!(
            ctx.get("chaos")
                .unwrap()
                .get("frames_dropped")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        assert_eq!(hits.get(), 1, "source evaluated once per dump");
        fr.force_dump(20).unwrap();
        assert_eq!(hits.get(), 2, "source re-evaluated on every dump");
    }

    #[test]
    fn context_source_may_reenter_recorder() {
        let fr = FlightRecorder::enabled(FlightConfig::default());
        let fr2 = fr.clone();
        fr.add_context_source(
            "self_recording",
            Rc::new(move || {
                // A source reading live component state may cause that
                // component to record events; must not deadlock on the ring.
                let fault = FaultKind::LinkDown;
                fr2.record(ev(99, EventKind::FaultInjected { fault }));
                Json::obj().set("ok", true)
            }),
        );
        let doc = fr.force_dump(100).unwrap();
        assert!(doc.get("context").unwrap().get("self_recording").is_some());
    }

    #[test]
    fn dump_round_trips_through_parser() {
        let fr = FlightRecorder::enabled(FlightConfig::default());
        let (op, bytes, created_ns, read) = (7, 4096, 0, false);
        fr.record(ev(
            10,
            EventKind::OpIssue {
                op,
                bytes,
                created_ns,
                read,
            },
        ));
        let stalled_ns = 15_000_000;
        fr.record(ev(
            20_000_000,
            EventKind::FenceRelease {
                op: 7,
                stalled_ns,
                resp: false,
            },
        ));
        let dumps = fr.dumps();
        assert_eq!(dumps.len(), 1, "fence stall past bound must dump");
        assert_eq!(dumps[0].trigger, "fence_stall");
        let text = dumps[0].json.render_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("kind").unwrap().as_str(),
            Some("multiedge_flight_dump")
        );
        assert_eq!(parsed, dumps[0].json);
    }
}
