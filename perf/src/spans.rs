//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call the harness makes into a layer. Per
//! name, count / total / self time are aggregated exactly (self = duration
//! minus the part child spans cover); full records are retained only for
//! root spans whose op id is a multiple of 64, with their children, and
//! written out once at exit.

use me_trace::Json;
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

/// The layer boundaries the harness records, one span name each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sp {
    /// One `Sim::advance_until` slice (root on the sim workloads).
    SimAdvance,
    /// One poll of an `Endpoint::write` future (issue path).
    EpWrite,
    /// One poll of an `Endpoint::read` future (issue path).
    EpRead,
    /// One `WireEndpoint::write` call.
    WireWrite,
    /// One `WireEndpoint::poll` call.
    WirePoll,
    /// One `Backplane::send` call (child of write/poll).
    BpSend,
    /// One `Backplane::next` call (child of poll).
    BpNext,
    /// One `Backplane::advance` call (idle wait).
    BpAdvance,
}

const NAMES: [&str; 8] = [
    "Sim::advance_until",
    "Endpoint::write",
    "Endpoint::read",
    "WireEndpoint::write",
    "WireEndpoint::poll",
    "Backplane::send",
    "Backplane::next",
    "Backplane::advance",
];

/// Exact per-name totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus child-covered time, ns.
    pub self_ns: u64,
}

struct Open {
    name: Sp,
    start: u64,
    child_ns: u64,
    /// Index of this span's retained record, if it is being retained.
    rec: Option<usize>,
}

struct Rec {
    name: Sp,
    start: u64,
    end: u64,
    parent: Option<usize>,
    op: u64,
    events: u64,
    frames: u64,
}

#[derive(Default)]
struct Inner {
    agg: [Agg; NAMES.len()],
    stack: Vec<Open>,
    kept: Vec<Rec>,
}

/// Most full records retained; the aggregates stay exact beyond it.
const KEEP_MAX: usize = 200_000;

/// The recorder (single-threaded; share it with `Rc`).
pub struct Spans {
    epoch: Instant,
    paused: Cell<bool>,
    inner: RefCell<Inner>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            paused: Cell::new(false),
            inner: RefCell::default(),
        }
    }
}

impl Spans {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Stop or resume recording (warm-up is not traced). Only toggle while
    /// no span is open.
    pub fn pause(&self, paused: bool) {
        self.paused.set(paused);
    }

    /// Open a span. `op` identifies the operation (or slice / loop turn)
    /// the span belongs to; children inherit retention from their root.
    pub fn enter(&self, name: Sp, op: u64) {
        if self.paused.get() {
            return;
        }
        let start = self.now();
        let mut g = self.inner.borrow_mut();
        let inner = &mut *g;
        let parent = inner.stack.last().map(|o| o.rec);
        let keep = match parent {
            None => op.is_multiple_of(64),
            Some(rec) => rec.is_some(),
        } && inner.kept.len() < KEEP_MAX;
        let rec = keep.then(|| {
            inner.kept.push(Rec {
                name,
                start,
                end: start,
                parent: parent.flatten(),
                op,
                events: 0,
                frames: 0,
            });
            inner.kept.len() - 1
        });
        inner.stack.push(Open {
            name,
            start,
            child_ns: 0,
            rec,
        });
    }

    /// Close the innermost span, attaching the layer's own counts made
    /// while it was open (events executed, frames moved).
    pub fn exit_with(&self, events: u64, frames: u64) {
        if self.paused.get() {
            return;
        }
        let end = self.now();
        let mut g = self.inner.borrow_mut();
        let inner = &mut *g;
        let open = inner.stack.pop().expect("exit without enter");
        let dur = end.saturating_sub(open.start);
        let a = &mut inner.agg[open.name as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(p) = inner.stack.last_mut() {
            p.child_ns += dur;
        }
        if let Some(i) = open.rec {
            let r = &mut inner.kept[i];
            r.end = end;
            r.events = events;
            r.frames = frames;
        }
    }

    /// Close the innermost span.
    pub fn exit(&self) {
        self.exit_with(0, 0);
    }

    /// Totals for one span name.
    pub fn agg(&self, name: Sp) -> Agg {
        self.inner.borrow().agg[name as usize]
    }

    /// The aggregate table plus every retained record, as one document.
    pub fn to_json(&self, workload: &str) -> Json {
        let inner = self.inner.borrow();
        let mut agg = Json::obj();
        for (name, a) in NAMES.iter().zip(&inner.agg) {
            if a.count > 0 {
                agg = agg.set(
                    name,
                    Json::obj()
                        .set("count", a.count)
                        .set("total_ns", a.total_ns)
                        .set("self_ns", a.self_ns),
                );
            }
        }
        let spans: Vec<Json> = inner
            .kept
            .iter()
            .map(|r| {
                Json::obj()
                    .set("name", NAMES[r.name as usize])
                    .set("start_ns", r.start)
                    .set("end_ns", r.end)
                    .set("parent", r.parent.map_or(Json::Null, Json::from))
                    .set("op", r.op)
                    .set("events", r.events)
                    .set("frames", r.frames)
            })
            .collect();
        Json::obj()
            .set("workload", workload)
            .set(
                "retained",
                "root spans with op % 64 == 0, and their children",
            )
            .set("aggregate", agg)
            .set("spans", spans)
    }
}

/// Wraps a pinned future so that each of its polls is one span: how the
/// host cost of an async `Endpoint::write` / `read` call is seen from
/// outside (the first poll does the issue work).
pub struct Timed<'a, F> {
    fut: Pin<&'a mut F>,
    spans: &'a Spans,
    name: Sp,
    op: u64,
}

impl<'a, F> Timed<'a, F> {
    pub fn new(fut: Pin<&'a mut F>, spans: &'a Spans, name: Sp, op: u64) -> Self {
        Self {
            fut,
            spans,
            name,
            op,
        }
    }
}

impl<F: Future> Future for Timed<'_, F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.spans.enter(self.name, self.op);
        let r = self.fut.as_mut().poll(cx);
        self.spans.exit();
        r
    }
}
