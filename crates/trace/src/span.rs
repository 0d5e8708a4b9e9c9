//! Causal operation spans: per-op milestone records folded from the event
//! stream.
//!
//! The flat event ring answers "what happened when", but attributing one
//! operation's end-to-end latency needs *causality*: which transmission of
//! the op's critical frame mattered, when the receiver's cumulative sequence
//! passed it, when the covering acknowledgement left and returned. A
//! [`SpanRecorder`] rebuilds exactly that from the [`Event`]s the nodes emit
//! (it subscribes to [`crate::Observers::emit`] like the tracer and the
//! flight recorder): every RDMA op owns one [`OpSpan`] keyed by its
//! **origin** (issuing node, issuing connection id, wire op id). A frame
//! event names its op by the origin's id and says which leg it travels, and
//! each connection end's `Connect` names its peer, so a receive-side event
//! finds the origin's span without an alias table. Completed spans land in
//! a bounded ring; the [`crate::attribution`] module turns them into
//! exclusive phase breakdowns.
//!
//! The recorder follows the [`crate::Tracer`] pattern: a disabled handle is
//! a `None` and recording is one branch; all enabled clones share one
//! state, so a whole simulated cluster folds into a single, causally
//! consistent span set.

use crate::event::{Event, EventKind};
use crate::hist::LogHistogram;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Fx-style hasher for the span maps (`me-trace` is dependency-free, so the
/// workspace's shared FastMap is reimplemented minimally here).
#[derive(Default)]
pub struct SpanHasher(u64);

impl Hasher for SpanHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type SpanMap<V> = HashMap<u64, V, BuildHasherDefault<SpanHasher>>;

/// The globally unique identity of an operation: the node and connection id
/// where it was issued plus its 32-bit wire op id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanKey {
    /// Issuing node index.
    pub node: u16,
    /// Connection id on the issuing node.
    pub conn: u16,
    /// The op's 32-bit wire id (dense per connection).
    pub op: u32,
}

impl SpanKey {
    /// Build a key; `node`/`conn` are truncated to 16 bits (clusters here
    /// are orders of magnitude smaller).
    pub fn new(node: usize, conn: usize, op: u32) -> Self {
        Self {
            node: node as u16,
            conn: conn as u16,
            op,
        }
    }

    fn pack(self) -> u64 {
        ((self.node as u64) << 48) | ((self.conn as u64) << 32) | self.op as u64
    }

    #[cfg(test)]
    fn unpack(v: u64) -> Self {
        Self {
            node: (v >> 48) as u16,
            conn: (v >> 32) as u16,
            op: v as u32,
        }
    }
}

/// Which kind of operation a span tracks (the two have different milestone
/// chains — see [`crate::attribution`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Remote write: data flows origin → peer, the ack returns.
    Write,
    /// Remote read: a request flows origin → peer, response data returns.
    Read,
}

impl SpanKind {
    /// Short stable label for JSON.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Write => "write",
            SpanKind::Read => "read",
        }
    }
}

/// One operation's milestone record. All times are simulation nanoseconds;
/// `0` means "not stamped" (the attribution clamp treats an unstamped
/// milestone as coincident with its predecessor, so a partially stamped
/// span still telescopes exactly).
///
/// The *critical frame* of a leg is the one whose admission can complete
/// that leg: the `LAST_FRAGMENT` data frame, the read request, or the
/// `LAST_FRAGMENT` read-response frame. Transmission milestones
/// (`first_tx`/`last_tx`/queue/rail) track that frame only; retransmission
/// counts cover every frame of the op.
#[derive(Debug, Clone, Copy)]
pub struct OpSpan {
    /// Origin identity.
    pub key: SpanKey,
    /// Write or read.
    pub kind: SpanKind,
    /// Payload bytes moved by the op.
    pub bytes: u64,
    /// Retransmitted frame transmissions attributed to this op (any leg).
    pub retransmits: u32,
    /// Rail that carried the last pre-admission transmission of the
    /// critical request-leg frame (`u32::MAX` = unknown).
    pub crit_rail: u32,

    /// Application called write/read (same instant the handle's latency
    /// clock starts, so span total == handle latency exactly).
    pub created: u64,
    /// Initiation cost paid; frames queued and op id assigned.
    pub issue: u64,
    /// First transmission of the critical request-leg frame.
    pub first_tx: u64,
    /// Last pre-admission transmission of that frame.
    pub last_tx: u64,
    /// NIC transmit backlog ahead of that last transmission, ns.
    pub tx_queue: u64,
    /// Arrival at the receiving NIC of the copy of that frame admitted.
    pub arrival: u64,
    /// Its admission by the receive path (sequence tracker).
    pub admit: u64,
    /// Receiver's cumulative sequence passed the op's last frame (writes).
    pub cum: u64,
    /// First acknowledgement covering the op left the receiver (writes).
    pub ack_tx: u64,
    /// That acknowledgement reached the sender (writes).
    pub ack_rx: u64,
    /// Target began serving the read (reads).
    pub serve: u64,
    /// First transmission of the critical response frame (reads).
    pub resp_first_tx: u64,
    /// Last pre-admission transmission of it (reads).
    pub resp_last_tx: u64,
    /// NIC backlog ahead of that transmission, ns (reads).
    pub resp_queue: u64,
    /// Critical response frame delivered at the initiator NIC (reads).
    pub resp_arrival: u64,
    /// ... and admitted by the initiator's receive path (reads).
    pub resp_admit: u64,
    /// All response data applied locally; the read left the reorder buffer.
    pub released: u64,
    /// The op's handle completed (application wake included).
    pub complete: u64,

    /// Fence-induced stall on the request leg's completion path (reads:
    /// request held at the target before service).
    pub fence_req_ns: u64,
    /// Fence stall on the response leg (reads: response held at the
    /// initiator before applying).
    pub fence_resp_ns: u64,
}

/// Set milestone `m` to `t` unless it is already stamped.
fn stamp(m: &mut u64, t: u64) {
    if *m == 0 {
        *m = t;
    }
}

impl OpSpan {
    fn new(key: SpanKey, kind: SpanKind, created: u64, issue: u64, bytes: u64) -> Self {
        OpSpan {
            key,
            kind,
            bytes,
            retransmits: 0,
            crit_rail: u32::MAX,
            created,
            issue,
            first_tx: 0,
            last_tx: 0,
            tx_queue: 0,
            arrival: 0,
            admit: 0,
            cum: 0,
            ack_tx: 0,
            ack_rx: 0,
            serve: 0,
            resp_first_tx: 0,
            resp_last_tx: 0,
            resp_queue: 0,
            resp_arrival: 0,
            resp_admit: 0,
            released: 0,
            complete: 0,
            fence_req_ns: 0,
            fence_resp_ns: 0,
        }
    }

    /// One of the op's frames went to a NIC: a critical frame moves its
    /// leg's transmission milestones until that leg is admitted.
    fn sent(
        &mut self,
        resp: bool,
        critical: bool,
        retransmit: bool,
        rail: u32,
        queue: u64,
        t: u64,
    ) {
        self.retransmits += u32::from(retransmit);
        if !critical {
            return;
        }
        if !resp && self.admit == 0 {
            stamp(&mut self.first_tx, t);
            self.last_tx = t;
            self.tx_queue = queue;
            self.crit_rail = rail;
        } else if resp && self.resp_admit == 0 {
            stamp(&mut self.resp_first_tx, t);
            self.resp_last_tx = t;
            self.resp_queue = queue;
        }
    }

    /// The leg's critical frame, which reached the NIC at `arrived`, was
    /// admitted at `t`.
    fn admitted(&mut self, resp: bool, arrived: u64, t: u64) {
        let (arrival, admit) = match resp {
            false => (&mut self.arrival, &mut self.admit),
            true => (&mut self.resp_arrival, &mut self.resp_admit),
        };
        if *admit == 0 {
            *arrival = arrived;
            *admit = t;
        }
    }
}

/// One connection end as the fold knows it.
#[derive(Default)]
struct End {
    /// The other end's (node, conn), from this end's `Connect`.
    peer: Option<(u32, u32)>,
    /// The receive cumulative after the last admission here.
    cum: u64,
    /// (last frame seq, packed span key): admitted write ops waiting for
    /// the cumulative sequence to pass their last frame.
    await_cum: VecDeque<(u64, u64)>,
    /// Same, waiting for an outgoing acknowledgement to cover it.
    await_ack: VecDeque<(u64, u64)>,
}

struct SpanState {
    /// Spans in flight, keyed by packed [`SpanKey`].
    active: SpanMap<OpSpan>,
    /// Connection ends, keyed by packed (node, conn).
    ends: SpanMap<End>,
    /// Completed spans, oldest first, bounded.
    done: VecDeque<OpSpan>,
    done_cap: usize,
    completed_total: u64,
    overwritten: u64,
    /// Issues refused because the active map hit its bound.
    dropped_active: u64,
    /// Per-rail NIC-backlog histograms (every data-frame transmission).
    rail_queue: Vec<LogHistogram>,
    /// Per-rail data-frame transmission counts.
    rail_frames: Vec<u64>,
    /// Per-rail retransmission counts.
    rail_retransmits: Vec<u64>,
}

/// Bound on concurrently active spans; beyond it new issues are dropped
/// (counted) rather than growing memory without limit.
const MAX_ACTIVE: usize = 1 << 16;

fn end_key(node: u32, conn: u32) -> u64 {
    (u64::from(node) << 16) | (u64::from(conn) & 0xFFFF)
}

impl SpanState {
    fn end(&mut self, node: u32, conn: u32) -> &mut End {
        self.ends.entry(end_key(node, conn)).or_default()
    }

    /// Packed key of op `op` seen from end `(node, conn)`: this end's own
    /// when it is the origin, else its peer's.
    fn origin(&self, node: u32, conn: u32, op: u32, local: bool) -> Option<u64> {
        let (node, conn) = match local {
            true => (node, conn),
            false => self.ends.get(&end_key(node, conn))?.peer?,
        };
        Some(SpanKey::new(node as usize, conn as usize, op).pack())
    }

    /// The active span of op `op` seen from `(node, conn)`, if any.
    fn span(&mut self, node: u32, conn: u32, op: u32, local: bool) -> Option<&mut OpSpan> {
        let key = self.origin(node, conn, op, local)?;
        self.active.get_mut(&key)
    }

    /// Fold one event into the spans it moves.
    fn fold(&mut self, e: &Event) {
        let (node, t) = (e.node, e.t_ns);
        let Some(conn) = e.conn else { return };
        match e.kind {
            EventKind::Connect {
                peer_node,
                peer_conn,
            } => self.end(node, conn).peer = Some((peer_node, peer_conn)),
            EventKind::OpIssue {
                op,
                bytes,
                created_ns,
                read,
            } => {
                if self.active.len() >= MAX_ACTIVE {
                    self.dropped_active += 1;
                    return;
                }
                let key = SpanKey::new(node as usize, conn as usize, op as u32);
                let kind = if read {
                    SpanKind::Read
                } else {
                    SpanKind::Write
                };
                let span = OpSpan::new(key, kind, created_ns, t, bytes);
                self.active.insert(key.pack(), span);
            }
            EventKind::FrameSend {
                retransmit,
                op,
                resp,
                critical,
                backlog_ns,
                ..
            } => {
                let rail = e.rail.unwrap_or(0);
                self.rail_sent(rail, retransmit, backlog_ns);
                if let Some(span) = self.span(node, conn, op, !resp) {
                    span.sent(resp, critical, retransmit, rail, backlog_ns, t);
                }
                // Every data-bearing frame piggybacks the cumulative ack.
                let cum = self.end(node, conn).cum;
                self.ack_sent(node, conn, cum, t);
            }
            EventKind::FrameRecv {
                seq,
                op,
                resp,
                critical,
                cum,
                arrived_ns,
                ..
            } => {
                if critical {
                    if let Some(key) = self.origin(node, conn, op, resp) {
                        let write = self.active.get_mut(&key).is_some_and(|span| {
                            span.admitted(resp, arrived_ns, t);
                            span.kind == SpanKind::Write
                        });
                        if write {
                            self.end(node, conn).await_cum.push_back((seq, key));
                        }
                    }
                }
                self.end(node, conn).cum = cum;
                self.cum_advanced(node, conn, t);
            }
            EventKind::ExplicitAck { ack } | EventKind::NackSend { cum: ack, .. } => {
                self.ack_sent(node, conn, ack, t)
            }
            EventKind::ReadServe { op } => {
                if let Some(span) = self.span(node, conn, op as u32, false) {
                    stamp(&mut span.serve, t);
                }
            }
            EventKind::FenceRelease {
                op,
                stalled_ns,
                resp,
            } => {
                // A held write delivery is informational: the ack path does
                // not wait for it.
                if let Some(span) = self.span(node, conn, op as u32, resp) {
                    match (span.kind, resp) {
                        (SpanKind::Read, false) => span.fence_req_ns += stalled_ns,
                        (SpanKind::Read, true) => span.fence_resp_ns += stalled_ns,
                        (SpanKind::Write, _) => {}
                    }
                }
            }
            EventKind::OpDone { op } => {
                if let Some(span) = self.span(node, conn, op as u32, true) {
                    match span.kind {
                        SpanKind::Write => stamp(&mut span.ack_rx, t),
                        SpanKind::Read => stamp(&mut span.released, t),
                    }
                }
            }
            EventKind::OpComplete { op, .. } => {
                let key = SpanKey::new(node as usize, conn as usize, op as u32);
                let Some(mut span) = self.active.remove(&key.pack()) else {
                    return;
                };
                span.complete = t;
                self.completed_total += 1;
                if self.done.len() == self.done_cap {
                    self.done.pop_front();
                    self.overwritten += 1;
                }
                self.done.push_back(span);
            }
            _ => {}
        }
    }

    fn rail_sent(&mut self, rail: u32, retransmit: bool, queue_ns: u64) {
        let r = rail as usize;
        while self.rail_queue.len() <= r {
            self.rail_queue.push(LogHistogram::new());
            self.rail_frames.push(0);
            self.rail_retransmits.push(0);
        }
        self.rail_queue[r].record(queue_ns);
        self.rail_frames[r] += 1;
        self.rail_retransmits[r] += u64::from(retransmit);
    }

    /// End `(node, conn)`'s cumulative advanced: stamp `cum` on every
    /// waiting write whose last frame it passed and move it to the ack
    /// queue. Admission order is not sequence order under multi-rail skew,
    /// so the whole queue is scanned — it holds the ops of one window.
    fn cum_advanced(&mut self, node: u32, conn: u32, t: u64) {
        let Self { ends, active, .. } = self;
        let Some(end) = ends.get_mut(&end_key(node, conn)) else {
            return;
        };
        let End {
            cum,
            await_cum,
            await_ack,
            ..
        } = end;
        await_cum.retain(|&(seq, key)| {
            if seq >= *cum {
                return true;
            }
            if let Some(span) = active.get_mut(&key) {
                stamp(&mut span.cum, t);
            }
            await_ack.push_back((seq, key));
            false
        });
    }

    /// End `(node, conn)` sent an acknowledgement (piggybacked, explicit or
    /// on a NACK) of every sequence below `ack`: stamp `ack_tx` on the
    /// writes it newly covers.
    fn ack_sent(&mut self, node: u32, conn: u32, ack: u64, t: u64) {
        let Self { ends, active, .. } = self;
        let Some(end) = ends.get_mut(&end_key(node, conn)) else {
            return;
        };
        end.await_ack.retain(|&(seq, key)| {
            if seq >= ack {
                return true;
            }
            if let Some(span) = active.get_mut(&key) {
                stamp(&mut span.ack_tx, t);
            }
            false
        });
    }
}

/// Cheaply cloneable span-recording handle (the [`crate::Tracer`] pattern:
/// disabled = one branch per event, enabled clones share one state).
#[derive(Clone, Default)]
pub struct SpanRecorder {
    inner: Option<Rc<RefCell<SpanState>>>,
}

impl SpanRecorder {
    /// A recorder that records nothing (the production default).
    pub fn disabled() -> Self {
        SpanRecorder { inner: None }
    }

    /// A recorder keeping the latest `completed_capacity` finished spans.
    pub fn enabled(completed_capacity: usize) -> Self {
        SpanRecorder {
            inner: Some(Rc::new(RefCell::new(SpanState {
                active: SpanMap::default(),
                ends: SpanMap::default(),
                done: VecDeque::with_capacity(completed_capacity.max(1)),
                done_cap: completed_capacity.max(1),
                completed_total: 0,
                overwritten: 0,
                dropped_active: 0,
                rail_queue: Vec::new(),
                rail_frames: Vec::new(),
                rail_retransmits: Vec::new(),
            }))),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Fold one event. A recorder must see every event of the connections
    /// it attributes from their `Connect` on.
    #[inline]
    pub fn record(&self, e: &Event) {
        if let Some(state) = &self.inner {
            state.borrow_mut().fold(e);
        }
    }

    /// Copy the current state out for analysis; `None` when disabled.
    pub fn snapshot(&self) -> Option<SpanSnapshot> {
        self.inner.as_ref().map(|state| {
            let s = state.borrow();
            SpanSnapshot {
                spans: s.done.iter().copied().collect(),
                active: s.active.len() as u64,
                completed_total: s.completed_total,
                overwritten: s.overwritten,
                dropped_active: s.dropped_active,
                rail_queue: s.rail_queue.clone(),
                rail_frames: s.rail_frames.clone(),
                rail_retransmits: s.rail_retransmits.clone(),
            }
        })
    }
}

/// An owned copy of everything a [`SpanRecorder`] holds.
#[derive(Debug, Clone)]
pub struct SpanSnapshot {
    /// Retained completed spans, oldest first.
    pub spans: Vec<OpSpan>,
    /// Spans still in flight at snapshot time.
    pub active: u64,
    /// Total completed spans ever (≥ `spans.len()`).
    pub completed_total: u64,
    /// Completed spans lost to the ring bound.
    pub overwritten: u64,
    /// Issues dropped because the active bound was hit.
    pub dropped_active: u64,
    /// Per-rail NIC transmit-backlog histograms (all data transmissions).
    pub rail_queue: Vec<LogHistogram>,
    /// Per-rail data-frame transmission counts.
    pub rail_frames: Vec<u64>,
    /// Per-rail retransmission counts.
    pub rail_retransmits: Vec<u64>,
}

/// The events of ops between node 0 and node 1 over one connection, for
/// recorder and attribution tests: node 0 issues on `conn`, node 1's end of
/// it has the same id.
#[cfg(test)]
pub(crate) struct Feed<'a> {
    pub(crate) r: &'a SpanRecorder,
    conn: u32,
}

#[cfg(test)]
impl<'a> Feed<'a> {
    /// Connect both ends of `conn`.
    pub(crate) fn new(r: &'a SpanRecorder, conn: u32) -> Self {
        let f = Feed { r, conn };
        for (node, peer_node) in [(0, 1), (1, 0)] {
            let peer_conn = conn;
            f.ev(
                node,
                0,
                None,
                EventKind::Connect {
                    peer_node,
                    peer_conn,
                },
            );
        }
        f
    }

    fn ev(&self, node: u32, t_ns: u64, rail: Option<u32>, kind: EventKind) {
        let conn = Some(self.conn);
        self.r.record(&Event {
            t_ns,
            node,
            conn,
            rail,
            kind,
        });
    }

    pub(crate) fn issue(&self, op: u32, read: bool, created_ns: u64, t: u64, bytes: u64) {
        let op = op.into();
        self.ev(
            0,
            t,
            None,
            EventKind::OpIssue {
                op,
                bytes,
                created_ns,
                read,
            },
        );
    }

    /// `node` sends a frame of `op` on `rail` (the response leg from node 1).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send(
        &self,
        node: u32,
        op: u32,
        critical: bool,
        retransmit: bool,
        rail: u32,
        backlog_ns: u64,
        t: u64,
    ) {
        let (seq, resp) = (0, node == 1);
        let kind = EventKind::FrameSend {
            seq,
            retransmit,
            op,
            resp,
            critical,
            backlog_ns,
        };
        self.ev(node, t, Some(rail), kind);
    }

    /// `node` admits frame `seq` of `op`, which arrived at `arrived_ns`,
    /// leaving its cumulative at `cum`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recv(
        &self,
        node: u32,
        seq: u64,
        op: u32,
        critical: bool,
        cum: u64,
        arrived_ns: u64,
        t: u64,
    ) {
        let (in_order, resp) = (true, node == 0);
        let kind = EventKind::FrameRecv {
            seq,
            in_order,
            op,
            resp,
            critical,
            cum,
            arrived_ns,
        };
        self.ev(node, t, Some(0), kind);
    }

    pub(crate) fn ack(&self, node: u32, ack: u64, t: u64) {
        self.ev(node, t, Some(0), EventKind::ExplicitAck { ack });
    }

    pub(crate) fn serve(&self, op: u32, t: u64) {
        self.ev(1, t, None, EventKind::ReadServe { op: op.into() });
    }

    /// A fence held `op`'s leg on the receiving node for `stalled_ns`.
    pub(crate) fn fence(&self, resp: bool, op: u32, stalled_ns: u64, t: u64) {
        let (node, op) = (u32::from(!resp), op.into());
        self.ev(
            node,
            t,
            None,
            EventKind::FenceRelease {
                op,
                stalled_ns,
                resp,
            },
        );
    }

    pub(crate) fn done(&self, op: u32, t: u64) {
        self.ev(0, t, None, EventKind::OpDone { op: op.into() });
    }

    pub(crate) fn complete(&self, op: u32, t: u64) {
        let (op, latency_ns) = (op.into(), 0);
        self.ev(0, t, None, EventKind::OpComplete { op, latency_ns });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(op: u32) -> SpanKey {
        SpanKey::new(0, 0, op)
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let r = SpanRecorder::disabled();
        assert!(!r.is_enabled());
        let f = Feed::new(&r, 0);
        f.issue(0, false, 1, 2, 10);
        f.complete(0, 9);
        assert!(r.snapshot().is_none());
    }

    #[test]
    fn key_packs_round_trip() {
        let key = SpanKey::new(3, 7, 0xdead_beef);
        assert_eq!(SpanKey::unpack(key.pack()), key);
    }

    #[test]
    fn write_span_full_milestone_chain() {
        let r = SpanRecorder::enabled(8);
        let f = Feed::new(&r, 0);
        f.issue(0, false, 100, 150, 3000);
        f.send(0, 0, false, false, 0, 5, 160);
        f.send(0, 0, true, false, 1, 7, 170);
        f.recv(1, 0, 0, false, 1, 290, 300);
        f.recv(1, 1, 0, true, 2, 305, 310);
        f.ack(1, 2, 320);
        f.done(0, 450);
        f.complete(0, 460);
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.spans.len(), 1);
        let s = &snap.spans[0];
        assert_eq!(s.key, k(0));
        assert_eq!(
            (s.created, s.issue, s.first_tx, s.last_tx),
            (100, 150, 170, 170)
        );
        assert_eq!((s.arrival, s.admit, s.cum), (305, 310, 310));
        assert_eq!((s.ack_tx, s.ack_rx, s.complete), (320, 450, 460));
        assert_eq!(s.crit_rail, 1);
        assert_eq!(s.tx_queue, 7);
        assert_eq!(snap.rail_frames, vec![1, 1]);
    }

    #[test]
    fn retransmit_updates_last_tx_until_admit() {
        let r = SpanRecorder::enabled(8);
        let f = Feed::new(&r, 0);
        f.issue(1, false, 0, 10, 100);
        f.send(0, 1, true, false, 0, 0, 20);
        f.send(0, 1, true, true, 0, 3, 80);
        f.recv(1, 0, 1, true, 1, 120, 125);
        // A post-admission duplicate must not move the frozen milestones.
        f.send(0, 1, true, true, 0, 9, 200);
        f.complete(1, 300);
        let s = r.snapshot().unwrap().spans[0];
        assert_eq!((s.first_tx, s.last_tx, s.tx_queue), (20, 80, 3));
        assert_eq!((s.arrival, s.admit), (120, 125));
        assert_eq!(s.retransmits, 2);
        assert_eq!(r.snapshot().unwrap().rail_retransmits, vec![2]);
    }

    #[test]
    fn cum_advance_handles_out_of_order_admission() {
        let r = SpanRecorder::enabled(8);
        let f = Feed::new(&r, 0);
        f.issue(10, false, 0, 1, 1);
        f.issue(11, false, 0, 2, 1);
        // Op B (seq 5) admits before op A (seq 3); the cumulative passes A
        // first, then B.
        f.recv(1, 5, 11, true, 3, 90, 90);
        f.recv(1, 3, 10, true, 4, 100, 100);
        f.recv(1, 4, 11, false, 6, 200, 200);
        // A data frame from node 1 piggybacks the cumulative (6).
        f.send(1, 99, false, false, 0, 0, 250);
        f.done(10, 300);
        f.done(11, 300);
        f.complete(10, 310);
        f.complete(11, 310);
        let snap = r.snapshot().unwrap();
        let a = snap.spans.iter().find(|s| s.key == k(10)).unwrap();
        let b = snap.spans.iter().find(|s| s.key == k(11)).unwrap();
        assert_eq!((a.cum, b.cum), (100, 200));
        assert_eq!((a.ack_tx, b.ack_tx), (250, 250));
    }

    #[test]
    fn read_span_stamps_both_legs_from_the_peer_end() {
        let r = SpanRecorder::enabled(8);
        let f = Feed::new(&r, 2);
        f.issue(4, true, 0, 10, 8192);
        f.send(0, 4, true, false, 0, 0, 20);
        f.recv(1, 0, 4, true, 1, 90, 100);
        f.fence(false, 4, 30, 100);
        f.serve(4, 100);
        f.send(1, 4, true, false, 1, 6, 110);
        f.recv(0, 0, 4, true, 1, 190, 200);
        f.fence(true, 4, 5, 200);
        f.done(4, 200);
        f.complete(4, 260);
        let s = r.snapshot().unwrap().spans[0];
        assert_eq!(s.key, SpanKey::new(0, 2, 4));
        assert_eq!((s.arrival, s.admit, s.serve), (90, 100, 100));
        assert_eq!((s.resp_first_tx, s.resp_queue), (110, 6));
        assert_eq!((s.resp_arrival, s.resp_admit, s.released), (190, 200, 200));
        assert_eq!((s.fence_req_ns, s.fence_resp_ns), (30, 5));
        assert_eq!(
            (s.cum, s.ack_tx, s.ack_rx),
            (0, 0, 0),
            "a read waits on no ack"
        );
    }

    #[test]
    fn done_ring_is_bounded() {
        let r = SpanRecorder::enabled(2);
        let f = Feed::new(&r, 0);
        for op in 0..5u32 {
            f.issue(op, false, 0, 1, 1);
            f.complete(op, 10);
        }
        let snap = r.snapshot().unwrap();
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.completed_total, 5);
        assert_eq!(snap.overwritten, 3);
        assert_eq!(snap.spans[0].key, k(3));
        assert_eq!(snap.spans[1].key, k(4));
    }
}
