//! The recording handle threaded through the protocol and the simulator.

use crate::event::{Event, EventKind};
use crate::hist::LogHistogram;
use crate::ring::EventRing;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Shared mutable trace state (single-threaded simulator, so `Rc<RefCell>`).
struct TraceState {
    ring: EventRing,
    op_latency: BTreeMap<u32, LogHistogram>,
    wire_time: BTreeMap<u32, LogHistogram>,
    fence_stall: BTreeMap<u32, LogHistogram>,
}

/// Cheaply cloneable tracing handle.
///
/// A disabled tracer is a `None`: every record method is one branch and
/// returns — no allocation, no locking — so instrumentation can stay
/// permanently in the hot paths. All clones of an enabled tracer share the
/// same ring and histograms, which is what lets the `Endpoint`, the link
/// scheduler and `netsim`'s interrupt path write into a single timeline.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceState>>>,
}

impl Tracer {
    /// A tracer that records nothing (the production default).
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer keeping the latest `ring_capacity` events plus all
    /// histograms.
    pub fn enabled(ring_capacity: usize) -> Self {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceState {
                ring: EventRing::new(ring_capacity),
                op_latency: BTreeMap::new(),
                wire_time: BTreeMap::new(),
                fence_stall: BTreeMap::new(),
            }))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event. The per-connection op-latency and fence-stall
    /// histograms are folds over the events that carry their samples,
    /// `OpComplete` and `FenceRelease`.
    #[inline]
    pub fn emit(&self, e: Event) {
        if let Some(state) = &self.inner {
            let mut s = state.borrow_mut();
            s.ring.push(e);
            let (hists, ns) = match e.kind {
                EventKind::OpComplete { latency_ns, .. } => (&mut s.op_latency, latency_ns),
                EventKind::FenceRelease { stalled_ns, .. } => (&mut s.fence_stall, stalled_ns),
                _ => return,
            };
            if let Some(conn) = e.conn {
                hists.entry(conn).or_default().record(ns);
            }
        }
    }

    /// Record a frame's wire time (serialization + latency + jitter +
    /// queueing) on link `link`.
    pub fn wire_time(&self, link: u32, ns: u64) {
        if let Some(state) = &self.inner {
            state
                .borrow_mut()
                .wire_time
                .entry(link)
                .or_default()
                .record(ns);
        }
    }

    /// Copy the current state out for reporting; `None` when disabled.
    pub fn snapshot(&self) -> Option<TraceSnapshot> {
        self.inner.as_ref().map(|state| {
            let s = state.borrow();
            TraceSnapshot {
                events: s.ring.events(),
                overwritten: s.ring.overwritten(),
                op_latency: s.op_latency.clone(),
                wire_time: s.wire_time.clone(),
                fence_stall: s.fence_stall.clone(),
            }
        })
    }
}

/// An owned copy of everything a tracer has recorded, used by the
/// reporters in [`crate::report`] and by tests.
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    /// The retained events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring wraparound before the oldest retained one.
    pub overwritten: u64,
    /// Op issue→completion latency per connection id.
    pub op_latency: BTreeMap<u32, LogHistogram>,
    /// Frame wire time per link id.
    pub wire_time: BTreeMap<u32, LogHistogram>,
    /// Fence-stall duration per connection id.
    pub fence_stall: BTreeMap<u32, LogHistogram>,
}

impl TraceSnapshot {
    /// Count of retained events matching `pred`.
    pub fn count_events(&self, pred: impl Fn(&EventKind) -> bool) -> u64 {
        self.events.iter().filter(|e| pred(&e.kind)).count() as u64
    }

    /// All per-connection op-latency histograms merged into one.
    pub fn op_latency_merged(&self) -> LogHistogram {
        let mut all = LogHistogram::new();
        for h in self.op_latency.values() {
            all.merge(h);
        }
        all
    }
}
