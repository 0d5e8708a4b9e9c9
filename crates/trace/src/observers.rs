//! [`Observers`]: the one emission point of a node's observability planes.

use crate::event::{Event, EventKind};
use crate::flight::FlightRecorder;
use crate::span::SpanRecorder;
use crate::tracer::Tracer;

/// The observability planes one endpoint records into. A protocol site
/// calls [`Observers::emit`] once, and the tracer, the span recorder and
/// the flight recorder each fold the same [`Event`]; a disabled plane costs
/// one branch per event.
#[derive(Clone)]
pub struct Observers {
    /// The node these handles stamp events for.
    pub node: usize,
    /// Event tracer.
    pub tracer: Tracer,
    /// Causal op-span recorder (shared across a cluster).
    pub spans: SpanRecorder,
    /// Always-on flight recorder.
    pub flight: FlightRecorder,
}

impl Observers {
    /// Every plane disabled, for `node`.
    pub fn disabled(node: usize) -> Self {
        Observers {
            node,
            tracer: Tracer::disabled(),
            spans: SpanRecorder::disabled(),
            flight: FlightRecorder::disabled(),
        }
    }

    /// Record one event on this node into every plane: the same [`Event`]
    /// for each. Every event site calls this, and only this.
    #[inline]
    pub fn emit(&self, now_ns: u64, conn: Option<usize>, rail: Option<u32>, kind: EventKind) {
        let e = Event {
            t_ns: now_ns,
            node: self.node as u32,
            conn: conn.map(|c| c as u32),
            rail,
            kind,
        };
        self.tracer.emit(e);
        self.spans.record(&e);
        self.flight.record(e);
    }

    /// Whether any plane records: an event whose payload costs something
    /// to gather is built only then.
    #[inline]
    pub fn observed(&self) -> bool {
        self.tracer.is_enabled() || self.spans.is_enabled() || self.flight.is_enabled()
    }
}
