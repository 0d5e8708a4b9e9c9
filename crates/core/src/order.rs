//! Operation-level ordering: fences and the reorder buffer (§2.5).
//!
//! Operations are numbered densely per connection direction in issue order.
//! A fragment may be applied at the receiver as soon as it arrives *unless*
//! an ordering constraint holds it back:
//!
//! * the fragment's **fence floor** (set by the sender to one past the most
//!   recent forward-fenced operation issued before it) requires every
//!   operation below the floor to be fully applied first, and
//! * a **backward fence** on the fragment's own operation requires *every*
//!   earlier operation to be fully applied first.
//!
//! Fragments that cannot be applied yet are buffered; when an operation
//! completes, the tracker re-examines buffered operations in id order and
//! releases whatever became eligible (cascading).
//!
//! The tracker is generic over the fragment payload type so it can be tested
//! standalone and reused for both writes and read-requests.
//!
//! In-progress operations live in a dense ring indexed by
//! `op_id - applied_below`, not in an ordered map: the sender's window
//! bounds that span (every live op above `applied_below` has its first
//! frame inside the window), so the ring grows to the depth a connection
//! actually runs at and holds no per-op node. [`ProtoCore`] drops a new
//! fragment whose op id lies outside `[applied_below, applied_below +
//! window)` before it gets here; a caller that skips that check pays one
//! empty slot per op id of span.
//!
//! [`ProtoCore`]: crate::proto::ProtoCore
//!
//! `DESIGN.md` §4.4 walks one fenced two-rail exchange through this
//! machinery as an annotated sequence diagram; the time a fragment spends
//! buffered here is surfaced as `fence_stall`/`fence_release` trace events
//! and the `fence_stall` histogram (see `docs/OBSERVABILITY.md`).

use std::collections::VecDeque;

/// Ordering-relevant attributes of one fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragMeta {
    /// Operation id (dense per direction).
    pub op_id: u64,
    /// Operation total payload bytes (0 for read requests).
    pub op_total: u64,
    /// All ops `< fence_floor` must be applied before this op.
    pub fence_floor: u64,
    /// Backward fence: all ops `< op_id` must be applied before this op.
    pub fence_backward: bool,
    /// This fragment's payload length (0 allowed only for 0-total ops).
    pub len: u64,
}

#[derive(Debug)]
struct OpEntry<T> {
    total: u64,
    applied: u64,
    fence_floor: u64,
    fence_backward: bool,
    /// Every byte of the op has been applied.
    complete: bool,
    buffered: Vec<(FragMeta, T)>,
}

/// Result of offering a fragment or of a cascade: fragments now applicable,
/// and operations that completed as a result.
#[derive(Debug)]
pub struct Release<T> {
    /// Fragments to apply now, in a valid order.
    pub apply: Vec<(FragMeta, T)>,
    /// Ids of operations that became fully applied, in completion order.
    pub completed: Vec<u64>,
}

// Manual impl: the derive would demand `T: Default`, which fragment payloads
// have no reason to provide.
impl<T> Default for Release<T> {
    fn default() -> Self {
        Self {
            apply: Vec::new(),
            completed: Vec::new(),
        }
    }
}

/// Fence-aware reorder buffer for one connection direction.
#[derive(Debug)]
pub struct OpOrdering<T> {
    /// Op `applied_below + i` at index `i`; `None` until its first
    /// fragment arrives.
    ops: VecDeque<Option<OpEntry<T>>>,
    /// Every op with id `< applied_below` is fully applied.
    applied_below: u64,
    /// Fragments currently buffered (for stats).
    buffered: usize,
    /// High-water mark of buffered fragments.
    buffered_peak: usize,
}

impl<T> Default for OpOrdering<T> {
    fn default() -> Self {
        Self {
            ops: VecDeque::new(),
            applied_below: 0,
            buffered: 0,
            buffered_peak: 0,
        }
    }
}

impl<T> OpOrdering<T> {
    /// Fresh tracker expecting op 0 as the first operation.
    pub fn new() -> Self {
        Self::default()
    }

    /// All ops below this id are fully applied.
    pub fn applied_below(&self) -> u64 {
        self.applied_below
    }

    /// Fragments currently held back by fences.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// High-water mark of [`Self::buffered`].
    pub fn buffered_peak(&self) -> usize {
        self.buffered_peak
    }

    /// The entry of `meta`'s op, created on its first fragment. The op must
    /// not be below `applied_below`.
    fn entry(&mut self, meta: &FragMeta) -> &mut OpEntry<T> {
        let i = (meta.op_id - self.applied_below) as usize;
        if i >= self.ops.len() {
            self.ops.resize_with(i + 1, || None);
        }
        self.ops[i].get_or_insert_with(|| OpEntry {
            total: meta.op_total,
            applied: 0,
            fence_floor: meta.fence_floor,
            fence_backward: meta.fence_backward,
            complete: false,
            buffered: Vec::new(),
        })
    }

    fn can_apply(&self, op_id: u64, fence_floor: u64, fence_backward: bool) -> bool {
        if self.applied_below < fence_floor {
            return false;
        }
        if fence_backward && self.applied_below < op_id {
            return false;
        }
        true
    }

    /// Offer an arriving (non-duplicate) fragment. Returns the fragments to
    /// apply now (possibly including previously buffered ones released by
    /// this fragment completing its op) and the ops that completed.
    pub fn offer(&mut self, meta: FragMeta, frag: T) -> Release<T> {
        let mut out = Release {
            apply: Vec::new(),
            completed: Vec::new(),
        };
        self.offer_into(meta, frag, &mut out);
        out
    }

    /// Like [`Self::offer`], but writes the released fragments and completed
    /// ops into a caller-owned [`Release`] (cleared first), reusing its
    /// vectors' capacity. The hot receive path holds one scratch `Release`
    /// per node and calls this to avoid a per-fragment allocation.
    pub fn offer_into(&mut self, meta: FragMeta, frag: T, out: &mut Release<T>) {
        out.apply.clear();
        out.completed.clear();
        let retired = meta.op_id < self.applied_below;
        if retired || self.can_apply(meta.op_id, meta.fence_floor, meta.fence_backward) {
            self.apply_fragment(meta, frag, out);
            self.cascade(out);
        } else {
            let e = self.entry(&meta);
            e.buffered.push((meta, frag));
            self.buffered += 1;
            self.buffered_peak = self.buffered_peak.max(self.buffered);
        }
    }

    /// Apply one fragment: count its bytes, emit it, and handle completion.
    fn apply_fragment(&mut self, meta: FragMeta, frag: T, out: &mut Release<T>) {
        if meta.op_id < self.applied_below {
            // Only a misbehaving peer sends more of an op that already
            // completed: the bytes go through, nothing completes again.
            out.apply.push((meta, frag));
            return;
        }
        let e = self.entry(&meta);
        e.applied += meta.len;
        debug_assert!(e.applied <= e.total.max(e.applied));
        let completed = !e.complete && e.applied >= e.total;
        if completed {
            e.complete = true;
        }
        out.apply.push((meta, frag));
        if completed {
            out.completed.push(meta.op_id);
            self.advance();
        }
    }

    /// Advance `applied_below` past contiguously complete ops and prune.
    fn advance(&mut self) {
        while let Some(Some(e)) = self.ops.front() {
            if !(e.complete && e.buffered.is_empty()) {
                break;
            }
            self.ops.pop_front();
            self.applied_below += 1;
        }
    }

    /// Release buffered fragments that became eligible; loop to fixpoint.
    fn cascade(&mut self, out: &mut Release<T>) {
        loop {
            // Find the first op with buffered fragments that can now apply.
            let candidate = self.ops.iter().enumerate().find_map(|(i, e)| {
                let e = e.as_ref()?;
                let id = self.applied_below + i as u64;
                (!e.buffered.is_empty() && self.can_apply(id, e.fence_floor, e.fence_backward))
                    .then_some(i)
            });
            let Some(i) = candidate else { break };
            let frags = {
                let e = self.ops[i].as_mut().expect("candidate exists");
                std::mem::take(&mut e.buffered)
            };
            self.buffered -= frags.len();
            for (meta, frag) in frags {
                self.apply_fragment(meta, frag, out);
            }
            self.advance();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(op_id: u64, op_total: u64, fence_floor: u64, bwd: bool, len: u64) -> FragMeta {
        FragMeta {
            op_id,
            op_total,
            fence_floor,
            fence_backward: bwd,
            len,
        }
    }

    /// Tag fragments by (op, index) so we can see what was released.
    type Tag = (u64, u64);

    #[test]
    fn unfenced_fragments_apply_immediately_in_any_order() {
        let mut o: OpOrdering<Tag> = OpOrdering::new();
        // Op 1 arrives entirely before op 0; no fences: all apply at once.
        let r = o.offer(meta(1, 10, 0, false, 10), (1, 0));
        assert_eq!(r.apply.len(), 1);
        assert_eq!(r.completed, vec![1]);
        let r = o.offer(meta(0, 4, 0, false, 4), (0, 0));
        assert_eq!(r.apply.len(), 1);
        assert_eq!(r.completed, vec![0]);
        assert_eq!(o.applied_below(), 2);
        assert_eq!(o.buffered(), 0);
    }

    #[test]
    fn backward_fence_waits_for_all_earlier_ops() {
        let mut o: OpOrdering<Tag> = OpOrdering::new();
        // Op 1 has a backward fence; op 0 has not arrived yet.
        let r = o.offer(meta(1, 5, 0, true, 5), (1, 0));
        assert!(r.apply.is_empty());
        assert!(r.completed.is_empty());
        assert_eq!(o.buffered(), 1);
        // Op 0 arrives → applies → releases op 1.
        let r = o.offer(meta(0, 3, 0, false, 3), (0, 0));
        assert_eq!(
            r.apply.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
            vec![(0, 0), (1, 0)]
        );
        assert_eq!(r.completed, vec![0, 1]);
        assert_eq!(o.buffered(), 0);
        assert_eq!(o.applied_below(), 2);
    }

    #[test]
    fn fence_floor_blocks_later_ops_until_fwd_op_done() {
        let mut o: OpOrdering<Tag> = OpOrdering::new();
        // Op 0 is forward-fenced (two fragments). Ops 1,2 carry floor=1.
        let r = o.offer(meta(2, 1, 1, false, 1), (2, 0));
        assert!(r.apply.is_empty());
        let r = o.offer(meta(1, 1, 1, false, 1), (1, 0));
        assert!(r.apply.is_empty());
        assert_eq!(o.buffered(), 2);
        // First fragment of op 0: applies (floor 0) but op not complete.
        let r = o.offer(meta(0, 8, 0, false, 4), (0, 0));
        assert_eq!(r.apply.len(), 1);
        assert!(r.completed.is_empty());
        assert_eq!(o.buffered(), 2);
        // Second fragment completes op 0 → both buffered ops release in
        // id order.
        let r = o.offer(meta(0, 8, 0, false, 4), (0, 1));
        assert_eq!(
            r.apply.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
            vec![(0, 1), (1, 0), (2, 0)]
        );
        assert_eq!(r.completed, vec![0, 1, 2]);
        assert_eq!(o.applied_below(), 3);
    }

    #[test]
    fn forward_fenced_op_itself_applies_freely() {
        let mut o: OpOrdering<Tag> = OpOrdering::new();
        // Op 1 is forward-fenced (affects op ≥ 2 via floor), but op 1 itself
        // has no backward fence: it may apply before op 0.
        let r = o.offer(meta(1, 2, 0, false, 2), (1, 0));
        assert_eq!(r.apply.len(), 1);
        // Op 2 (floor = 2 because op 1 was fwd-fenced) must wait for 0 and 1.
        let r = o.offer(meta(2, 2, 2, false, 2), (2, 0));
        assert!(r.apply.is_empty());
        // Op 0 arrives: applied_below advances past 0 and 1 → releases 2.
        let r = o.offer(meta(0, 2, 0, false, 2), (0, 0));
        assert_eq!(
            r.apply.iter().map(|(_, t)| *t).collect::<Vec<_>>(),
            vec![(0, 0), (2, 0)]
        );
    }

    #[test]
    fn zero_length_op_completes_on_single_fragment() {
        let mut o: OpOrdering<Tag> = OpOrdering::new();
        // Read requests have total 0: complete as soon as they may apply.
        let r = o.offer(meta(0, 0, 0, false, 0), (0, 0));
        assert_eq!(r.apply.len(), 1);
        assert_eq!(r.completed, vec![0]);
        assert_eq!(o.applied_below(), 1);
    }

    #[test]
    fn strict_ordering_mode_serializes_everything() {
        // Both fences on every op (2L mode): apply order == issue order,
        // regardless of arrival order.
        let mut o: OpOrdering<Tag> = OpOrdering::new();
        let mut applied = Vec::new();
        // Arrival order 3,1,0,2; every op i has bwd fence + floor=i.
        for arrive in [3u64, 1, 0, 2] {
            let r = o.offer(meta(arrive, 1, arrive, true, 1), (arrive, 0));
            applied.extend(r.apply.iter().map(|(_, t)| t.0));
        }
        assert_eq!(applied, vec![0, 1, 2, 3]);
        assert_eq!(o.applied_below(), 4);
        assert_eq!(o.buffered_peak(), 2); // 3 and 1 were held
    }

    #[test]
    fn interleaved_fragments_of_multiple_ops() {
        let mut o: OpOrdering<Tag> = OpOrdering::new();
        // Op 0: 3 fragments, forward-fenced. Op 1: 2 fragments with floor 1.
        // Fragments interleave; op 1 fragments buffer until op 0 completes.
        assert_eq!(o.offer(meta(0, 3, 0, false, 1), (0, 0)).apply.len(), 1);
        assert!(o.offer(meta(1, 2, 1, false, 1), (1, 0)).apply.is_empty());
        assert_eq!(o.offer(meta(0, 3, 0, false, 1), (0, 1)).apply.len(), 1);
        assert!(o.offer(meta(1, 2, 1, false, 1), (1, 1)).apply.is_empty());
        let r = o.offer(meta(0, 3, 0, false, 1), (0, 2));
        // Final op-0 fragment + both op-1 fragments released.
        assert_eq!(r.apply.len(), 3);
        assert_eq!(r.completed, vec![0, 1]);
    }

    #[test]
    fn a_retired_op_completes_only_once() {
        let mut o: OpOrdering<Tag> = OpOrdering::new();
        let r = o.offer(meta(0, 4, 0, false, 4), (0, 0));
        assert_eq!(r.completed, vec![0]);
        // Surplus bytes of op 0 — only a misbehaving peer sends them, even
        // fenced behind a floor — go through without re-completing it or
        // leaving an entry behind.
        let r = o.offer(meta(0, 4, 3, true, 4), (0, 1));
        assert_eq!((r.apply.len(), r.completed.len()), (1, 0));
        assert_eq!((o.applied_below(), o.buffered(), o.ops.len()), (1, 0, 0));
    }

    #[test]
    fn the_ring_spans_only_the_ops_in_progress() {
        let mut o: OpOrdering<Tag> = OpOrdering::new();
        // Op 3 arrives first, fenced: slots for ops 0..=3 exist.
        o.offer(meta(3, 1, 0, true, 1), (3, 0));
        assert_eq!(o.ops.len(), 4);
        // Ops 0..=2 complete and release op 3: the ring empties.
        for op in 0..3 {
            o.offer(meta(op, 1, 0, false, 1), (op, 0));
        }
        assert_eq!((o.applied_below(), o.ops.len()), (4, 0));
    }

    #[test]
    fn buffered_stats_track_peak() {
        let mut o: OpOrdering<Tag> = OpOrdering::new();
        for i in 1..=5u64 {
            o.offer(meta(i, 1, 0, true, 1), (i, 0));
        }
        assert_eq!(o.buffered(), 5);
        assert_eq!(o.buffered_peak(), 5);
        o.offer(meta(0, 1, 0, false, 1), (0, 0));
        assert_eq!(o.buffered(), 0);
        assert_eq!(o.buffered_peak(), 5);
        assert_eq!(o.applied_below(), 6);
    }
}
