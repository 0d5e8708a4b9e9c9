//! Window-ring state for the allocation-free datapath.
//!
//! The sliding window bounds how much per-frame bookkeeping can be live at
//! once: a sender never has more than `window` unacknowledged frames per
//! direction, and a receiver's gap starts all lie inside the span the sender
//! may have put on the wire. Both invariants make an array indexed by
//! `seq mod capacity` (capacity a power of two, at most the window rounded
//! up) a drop-in replacement for the seq-keyed maps the hot path used to
//! carry — every insert, lookup and removal is O(1) with **zero
//! steady-state allocation**, where the `BTreeMap`/`HashMap` versions paid
//! a node or bucket allocation per frame. Neither ring is allocated whole
//! at connect: the tx ring grows with the depth in flight and the gap ring
//! appears with the first gap, so an idle connection holds almost nothing.
//!
//! Each slot is tagged with the full 64-bit sequence that owns it, so a
//! stale lookup (a NACK for an already-acked frame, a gap start that has
//! since been received) misses cleanly instead of aliasing a newer frame
//! that hashes to the same slot.
//!
//! * [`TxRing`] — the sender's in-flight frames `[acked, sent_up_to)`:
//!   the retransmission buffer fused with the per-frame transmission
//!   bookkeeping (rail, send time, Karn retransmission mark).
//! * [`GapRing`] — the receiver's NACK-dedup state, keyed by gap start:
//!   when the gap was first observed and when it was last NACKed, purged
//!   below the cumulative ack so its live size is window-bounded.
//!
//! `docs/PERFORMANCE.md` describes how these rings fit into the
//! zero-allocation-per-frame gate of the telemetry bench
//! (`make bench-telemetry`).

use frame::Frame;
use netsim::SimTime;

/// One in-flight frame: the retransmission copy plus the transmission
/// bookkeeping that used to live in separate seq-keyed maps.
#[derive(Debug, Clone)]
pub struct TxSlot {
    /// Sequence number that owns this slot (the slot tag).
    pub seq: u64,
    /// Rail that carried the latest copy.
    pub rail: usize,
    /// When the latest copy was transmitted.
    pub sent_at: SimTime,
    /// Whether any copy was a retransmission (Karn's algorithm forbids RTT
    /// samples from such frames).
    pub retransmitted: bool,
    /// The built frame, retained for retransmission until acknowledged.
    pub frame: Frame,
}

/// Ring of in-flight frames, indexed by `seq mod capacity`.
///
/// Holds exactly the window `[acked, sent_up_to)`. It starts with no slots
/// and doubles (4, 8, … up to the window rounded up to a power of two)
/// when an insert would fill it, so a connection pays for the depth it
/// actually runs at; once grown, insert and remove allocate nothing. The
/// window invariant guarantees distinct live sequences never collide in
/// the full-size ring.
#[derive(Debug)]
pub struct TxRing {
    slots: Vec<Option<TxSlot>>,
    mask: u64,
    len: usize,
    /// Largest capacity the ring may grow to (the window, rounded up).
    max: usize,
}

impl TxRing {
    /// Empty ring that grows so `window` in-flight frames never collide.
    pub fn with_window(window: usize) -> Self {
        Self {
            slots: Vec::new(),
            mask: 0,
            len: 0,
            max: window.max(1).next_power_of_two(),
        }
    }

    /// Slot count: zero until the first insert, then a power of two that
    /// never exceeds the window rounded up.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Frames currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no frame is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn idx(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    fn occupied(&self, seq: u64) -> bool {
        self.slots.get(self.idx(seq)).is_some_and(Option::is_some)
    }

    /// Double the ring (to at most `max`), re-hashing the live slots. Slots
    /// distinct modulo the old capacity stay distinct modulo the new one.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).clamp(4.min(self.max), self.max);
        let old = std::mem::replace(&mut self.slots, (0..cap).map(|_| None).collect());
        self.mask = cap as u64 - 1;
        for slot in old.into_iter().flatten() {
            let i = self.idx(slot.seq);
            self.slots[i] = Some(slot);
        }
    }

    /// Insert a frame's slot, growing the ring first if the insert would
    /// fill it or the slot is taken below full size. In the full-size ring
    /// the window invariant means the target slot must be free; a collision
    /// there is a protocol bug, not an eviction.
    ///
    /// # Panics
    ///
    /// Panics if the slot is still occupied at full size (window overrun).
    pub fn insert(&mut self, slot: TxSlot) {
        while self.slots.len() < self.max
            && (self.len + 1 >= self.slots.len() || self.occupied(slot.seq))
        {
            self.grow();
        }
        let i = self.idx(slot.seq);
        assert!(
            self.slots[i].is_none(),
            "TxRing slot collision: seq {} vs live seq {} (window overrun)",
            slot.seq,
            self.slots[i].as_ref().map_or(0, |s| s.seq),
        );
        self.slots[i] = Some(slot);
        self.len += 1;
    }

    /// The slot owned by `seq`, if it is still in flight.
    pub fn get(&self, seq: u64) -> Option<&TxSlot> {
        self.slots
            .get(self.idx(seq))?
            .as_ref()
            .filter(|s| s.seq == seq)
    }

    /// Mutable access to the slot owned by `seq`.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut TxSlot> {
        let i = self.idx(seq);
        self.slots.get_mut(i)?.as_mut().filter(|s| s.seq == seq)
    }

    /// True if `seq` is still in flight.
    pub fn contains(&self, seq: u64) -> bool {
        self.get(seq).is_some()
    }

    /// Remove and return `seq`'s slot (on cumulative-ack advance).
    pub fn remove(&mut self, seq: u64) -> Option<TxSlot> {
        let i = self.idx(seq);
        let slot = self.slots.get_mut(i)?;
        if slot.as_ref().is_some_and(|s| s.seq == seq) {
            self.len -= 1;
            slot.take()
        } else {
            None
        }
    }
}

/// NACK-dedup state for one gap: when it appeared and when it was last
/// reported, so the delayed-NACK policy (paper §2.4) can age and pace gaps
/// without a per-gap map entry.
#[derive(Debug, Clone, Copy)]
pub struct GapSlot {
    /// Gap-start sequence that owns this slot (the slot tag).
    pub seq: u64,
    /// When the NACK check first observed this gap.
    pub first_seen: SimTime,
    /// When this gap was last NACKed (`None` until the first NACK).
    pub last_nack: Option<SimTime>,
}

/// Ring of per-gap NACK state, keyed by gap-start sequence.
///
/// Gap starts always lie in `[cumulative, cumulative + window)`, so with a
/// capacity of at least the window, distinct live gap starts never collide;
/// [`GapRing::purge_below`] retires slots the cumulative ack has passed,
/// which keeps the live count window-bounded (the regression the old
/// map-based code had to `retain()` against on every timer fire). The
/// window-sized slots are allocated on the first gap, so a receiver that
/// never sees one never pays for them.
#[derive(Debug)]
pub struct GapRing {
    slots: Vec<Option<GapSlot>>,
    /// Capacity allocated on the first gap (the window, rounded up).
    cap: usize,
    len: usize,
}

impl GapRing {
    /// Empty ring that, once used, holds `window` live gap starts without
    /// collision.
    pub fn with_window(window: usize) -> Self {
        Self {
            slots: Vec::new(),
            cap: window.max(1).next_power_of_two(),
            len: 0,
        }
    }

    /// Slot count: zero until the first gap, then a power of two ≥ the
    /// window.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Gap entries currently live.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no gap entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn idx(&self, seq: u64) -> usize {
        (seq & (self.cap as u64 - 1)) as usize
    }

    /// The entry for gap start `seq`, creating it (first seen `now`) if this
    /// gap has not been tracked yet — the ring analogue of
    /// `map.entry(seq).or_insert(now)`.
    pub fn entry(&mut self, seq: u64, now: SimTime) -> &mut GapSlot {
        if self.slots.is_empty() {
            self.slots = vec![None; self.cap];
        }
        let i = self.idx(seq);
        if self.slots[i].as_ref().is_none_or(|g| g.seq != seq) {
            if self.slots[i].is_none() {
                self.len += 1;
            }
            self.slots[i] = Some(GapSlot {
                seq,
                first_seen: now,
                last_nack: None,
            });
        }
        self.slots[i].as_mut().expect("just ensured occupied")
    }

    /// The entry for gap start `seq`, if tracked.
    pub fn get(&self, seq: u64) -> Option<&GapSlot> {
        self.slots
            .get(self.idx(seq))?
            .as_ref()
            .filter(|g| g.seq == seq)
    }

    /// Retire every entry whose gap start the cumulative ack has passed.
    /// O(capacity), run per NACK-timer fire (not per frame).
    pub fn purge_below(&mut self, cumulative: u64) {
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|g| g.seq < cumulative) {
                *slot = None;
                self.len -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use frame::{FrameHeader, MacAddr};

    fn frame(seq: u64) -> Frame {
        Frame {
            src: MacAddr::new(0, 0),
            dst: MacAddr::new(1, 0),
            header: FrameHeader {
                seq: seq as u32,
                ..FrameHeader::default()
            },
            payload: Bytes::new(),
        }
    }

    fn tx_slot(seq: u64) -> TxSlot {
        TxSlot {
            seq,
            rail: 0,
            sent_at: SimTime::ZERO,
            retransmitted: false,
            frame: frame(seq),
        }
    }

    #[test]
    fn tx_round_trip_and_tag_check() {
        let mut r = TxRing::with_window(64);
        for seq in 0..64u64 {
            r.insert(tx_slot(seq));
        }
        assert_eq!(r.len(), 64);
        assert_eq!(r.capacity(), 64);
        assert!(r.contains(0));
        assert!(r.contains(63));
        // A stale seq that aliases slot 0 must miss on the tag.
        assert!(!r.contains(64));
        assert!(r.get(128).is_none());
        let s = r.remove(0).expect("live");
        assert_eq!(s.seq, 0);
        assert!(!r.contains(0));
        assert!(r.remove(0).is_none(), "double remove misses");
        // Slot 0 freed: the next window lap may claim it.
        r.insert(tx_slot(64));
        assert_eq!(r.get(64).map(|s| s.seq), Some(64));
    }

    #[test]
    fn tx_get_mut_updates_in_place() {
        let mut r = TxRing::with_window(8);
        r.insert(tx_slot(3));
        let s = r.get_mut(3).expect("live");
        s.rail = 2;
        s.retransmitted = true;
        assert_eq!(r.get(3).map(|s| (s.rail, s.retransmitted)), Some((2, true)));
        assert!(r.get_mut(3 + 8).is_none(), "aliasing seq misses on tag");
    }

    #[test]
    #[should_panic(expected = "window overrun")]
    fn tx_collision_panics() {
        let mut r = TxRing::with_window(4);
        r.insert(tx_slot(1));
        r.insert(tx_slot(5)); // 5 mod 4 == 1 while 1 is still live
    }

    /// Capacity after filling a `window`-ring with contiguous sequences.
    fn full_capacity(window: usize) -> usize {
        let mut r = TxRing::with_window(window);
        for seq in 0..window as u64 {
            r.insert(tx_slot(seq));
        }
        r.capacity()
    }

    #[test]
    fn tx_capacity_rounds_up() {
        assert_eq!(full_capacity(5), 8);
        assert_eq!(full_capacity(1), 1);
        assert_eq!(full_capacity(64), 64);
    }

    #[test]
    fn tx_growth_doubles_and_stops_at_the_window() {
        let mut r = TxRing::with_window(48);
        let mut caps = vec![r.capacity()];
        // A sliding window of 40 in flight, well past the first lap.
        for seq in 0..200u64 {
            if seq >= 40 {
                r.remove(seq - 40).expect("live");
            }
            r.insert(tx_slot(seq));
            if caps.last() != Some(&r.capacity()) {
                caps.push(r.capacity());
            }
        }
        assert_eq!(caps, [0, 4, 8, 16, 32, 64]);
        // Depth 3 never needs more than the first step.
        let mut r = TxRing::with_window(64);
        for seq in 0..100u64 {
            if seq >= 3 {
                r.remove(seq - 3).expect("live");
            }
            r.insert(tx_slot(seq));
        }
        assert_eq!(r.capacity(), 4);
    }

    #[test]
    fn tx_rehash_keeps_slots_and_tags_across_a_wrap() {
        // Live sequences straddle the 32-bit wire wrap and every ring lap
        // boundary along the way; each doubling must re-home every slot.
        let base = (1u64 << 32) - 5;
        let mut r = TxRing::with_window(64);
        for k in 0..40u64 {
            let mut slot = tx_slot(base + k);
            slot.rail = (k % 3) as usize;
            slot.retransmitted = k % 2 == 1;
            r.insert(slot);
            for j in 0..=k {
                let s = r.get(base + j).expect("live slot survives rehash");
                assert_eq!(
                    (s.seq, s.rail, s.retransmitted),
                    (base + j, (j % 3) as usize, j % 2 == 1)
                );
                // An alias one lap up (same slot, other tag) misses.
                assert!(!r.contains(base + j + r.capacity() as u64));
            }
        }
        assert_eq!((r.len(), r.capacity()), (40, 64));
    }

    #[test]
    #[should_panic(expected = "window overrun")]
    fn tx_overrun_still_panics_at_the_window() {
        let mut r = TxRing::with_window(64);
        for seq in 0..64u64 {
            r.insert(tx_slot(seq));
        }
        // 64 collides with 0, which is still live, in the full-size ring.
        r.insert(tx_slot(64));
    }

    #[test]
    fn unused_rings_allocate_nothing() {
        let mut tx = TxRing::with_window(64);
        assert!(tx.get(3).is_none() && tx.get_mut(3).is_none() && tx.remove(3).is_none());
        assert_eq!((tx.capacity(), tx.slots.capacity()), (0, 0));
        // A receiver that never sees a gap only looks up and purges.
        let mut g = GapRing::with_window(64);
        assert!(g.get(7).is_none());
        g.purge_below(1_000);
        assert_eq!((g.capacity(), g.slots.capacity(), g.len()), (0, 0, 0));
        g.entry(7, SimTime::ZERO);
        assert_eq!(g.capacity(), 64);
    }

    #[test]
    fn gap_entry_is_or_insert() {
        let mut g = GapRing::with_window(64);
        let t0 = SimTime::ZERO;
        let t1 = t0 + netsim::time::us(5);
        let e = g.entry(7, t0);
        assert_eq!(e.first_seen, t0);
        assert_eq!(e.last_nack, None);
        e.last_nack = Some(t0);
        // Re-entry keeps the recorded state (or_insert semantics).
        let e = g.entry(7, t1);
        assert_eq!(e.first_seen, t0);
        assert_eq!(e.last_nack, Some(t0));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn gap_purge_below_retires_passed_gaps() {
        let mut g = GapRing::with_window(16);
        let now = SimTime::ZERO;
        for seq in [2u64, 5, 9] {
            g.entry(seq, now);
        }
        assert_eq!(g.len(), 3);
        g.purge_below(6);
        assert_eq!(g.len(), 1);
        assert!(g.get(2).is_none());
        assert!(g.get(5).is_none());
        assert!(g.get(9).is_some());
        // A purged start re-entering (can't happen live, but must be safe)
        // is treated as fresh.
        let later = now + netsim::time::us(1);
        assert_eq!(g.entry(5, later).first_seen, later);
    }

    #[test]
    fn gap_live_size_stays_window_bounded_under_churn() {
        // Lossy-soak shape: gaps appear ahead of the cumulative ack, the
        // ack advances, purge retires what it passed. Live size must track
        // the window, not total loss history.
        let mut g = GapRing::with_window(64);
        let now = SimTime::ZERO;
        let mut cumulative = 0u64;
        for round in 0..1000u64 {
            // Every 3rd sequence in the next window chunk is a gap start.
            for k in (0..64u64).step_by(3) {
                g.entry(cumulative + k, now);
            }
            cumulative += 64;
            g.purge_below(cumulative);
            assert!(
                g.len() <= 64,
                "round {round}: {} live gaps exceeds window",
                g.len()
            );
        }
        assert_eq!(g.len(), 0, "fully acked soak must end empty");
    }
}
