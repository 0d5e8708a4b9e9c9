//! Receive-side sequence tracking: cumulative acknowledgement state,
//! duplicate detection, and gap (missing-range) computation for NACKs.
//!
//! This module is pure state-machine logic (no timing), so it is tested
//! exhaustively here and driven by property tests in `tests/`.
//!
//! The tracker exploits the window invariant: the live span
//! `[cumulative, frontier)` never exceeds the sender's window, so
//! out-of-order arrivals are a *bitmap ring* indexed by `seq mod capacity`
//! instead of an ordered set — admit is O(1) with zero steady-state
//! allocation. The ring never grows: the caller admits nothing at or past
//! `cumulative + window` (the protocol core rejects such a frame before it
//! reaches the tracker), so a ring sized by [`SeqTracker::with_window`]
//! always holds the live span.

/// What [`SeqTracker::admit`] decided about an arriving frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// First time this sequence number is seen. `in_order` is true when the
    /// frame carried exactly the next expected sequence (the paper's
    /// out-of-order statistic counts the complement).
    New {
        /// Arrived exactly in sequence order.
        in_order: bool,
    },
    /// Already received (a retransmission the receiver did not need).
    Duplicate,
}

/// Tracks which sequence numbers of one connection direction have arrived.
#[derive(Debug)]
pub struct SeqTracker {
    /// All sequences `< cumulative` have been received.
    cumulative: u64,
    /// One past the highest sequence ever received.
    frontier: u64,
    /// Frames currently held out of order (set bits in the ring).
    ooo_held: usize,
    /// Bitmap ring over `[cumulative, frontier)`: bit `seq mod capacity` is
    /// set iff `seq` arrived out of order and is still awaited by the
    /// cumulative drain. Capacity (`bits.len() * 64`) is a power of two.
    bits: Vec<u64>,
}

/// Smallest ring capacity in sequence numbers (two 64-bit words).
const MIN_CAP: usize = 128;

impl Default for SeqTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl SeqTracker {
    /// Fresh tracker expecting sequence 0 first.
    pub fn new() -> Self {
        Self::with_window(MIN_CAP)
    }

    /// Fresh tracker whose ring holds a live span of `window` sequences.
    pub fn with_window(window: usize) -> Self {
        let cap = window.max(MIN_CAP).next_power_of_two();
        Self {
            cumulative: 0,
            frontier: 0,
            ooo_held: 0,
            bits: vec![0u64; cap / 64],
        }
    }

    fn cap(&self) -> u64 {
        (self.bits.len() * 64) as u64
    }

    fn bit(&self, seq: u64) -> bool {
        let i = seq & (self.cap() - 1);
        self.bits[(i >> 6) as usize] & (1u64 << (i & 63)) != 0
    }

    fn set_bit(&mut self, seq: u64) {
        let i = seq & (self.cap() - 1);
        self.bits[(i >> 6) as usize] |= 1u64 << (i & 63);
    }

    fn clear_bit(&mut self, seq: u64) {
        let i = seq & (self.cap() - 1);
        self.bits[(i >> 6) as usize] &= !(1u64 << (i & 63));
    }

    /// True if `seq` has already arrived ([`Self::admit`] would call it a
    /// duplicate).
    pub fn seen(&self, seq: u64) -> bool {
        seq < self.cumulative || (seq < self.frontier && self.bit(seq))
    }

    /// Record the arrival of `seq`, which must lie below `cumulative` plus
    /// the ring's capacity (the window it was sized for).
    pub fn admit(&mut self, seq: u64) -> Admit {
        if self.seen(seq) {
            return Admit::Duplicate;
        }
        assert!(
            seq - self.cumulative < self.cap(),
            "seq {seq} outside the window at cumulative {}",
            self.cumulative
        );
        let in_order = seq == self.cumulative;
        self.frontier = self.frontier.max(seq + 1);
        if in_order {
            self.cumulative += 1;
            // Drain any contiguous run that was waiting.
            while self.cumulative < self.frontier && self.bit(self.cumulative) {
                self.clear_bit(self.cumulative);
                self.ooo_held -= 1;
                self.cumulative += 1;
            }
        } else {
            self.set_bit(seq);
            self.ooo_held += 1;
        }
        Admit::New { in_order }
    }

    /// Cumulative acknowledgement: all sequences below this were received.
    pub fn cumulative(&self) -> u64 {
        self.cumulative
    }

    /// One past the highest sequence received so far.
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// True if some sequence below [`Self::frontier`] is still missing.
    pub fn has_gap(&self) -> bool {
        self.cumulative < self.frontier
    }

    /// Number of frames currently held out of order.
    pub fn ooo_held(&self) -> usize {
        self.ooo_held
    }

    /// The missing half-open ranges in `[cumulative, frontier)` — exactly
    /// what a NACK should report — written into a caller-owned scratch
    /// vector (cleared first) so the hot path reuses its capacity.
    pub fn missing_ranges_into(&self, out: &mut Vec<(u64, u64)>) {
        self.missing_in(self.cumulative, self.frontier, out);
    }

    /// The missing half-open ranges that lie in `[from, to)`, cut at both
    /// ends, written into `out` (cleared first). Walks `to - from`
    /// sequences.
    pub fn missing_in(&self, from: u64, to: u64, out: &mut Vec<(u64, u64)>) {
        out.clear();
        let (from, to) = (from.max(self.cumulative), to.min(self.frontier));
        let mut run_start = None;
        for seq in from..to {
            if self.bit(seq) {
                if let Some(start) = run_start.take() {
                    out.push((start, seq));
                }
            } else if run_start.is_none() {
                run_start = Some(seq);
            }
        }
        if let Some(start) = run_start {
            out.push((start, to));
        }
    }

    /// Allocating convenience wrapper around [`Self::missing_ranges_into`].
    pub fn missing_ranges(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.missing_ranges_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream() {
        let mut t = SeqTracker::new();
        for s in 0..100 {
            assert_eq!(t.admit(s), Admit::New { in_order: true });
        }
        assert_eq!(t.cumulative(), 100);
        assert!(!t.has_gap());
        assert!(t.missing_ranges().is_empty());
    }

    #[test]
    fn gap_then_fill() {
        let mut t = SeqTracker::new();
        assert_eq!(t.admit(0), Admit::New { in_order: true });
        assert_eq!(t.admit(3), Admit::New { in_order: false });
        assert_eq!(t.admit(4), Admit::New { in_order: false });
        assert!(t.has_gap());
        assert_eq!(t.missing_ranges(), vec![(1, 3)]);
        assert_eq!(t.cumulative(), 1);
        assert_eq!(t.admit(1), Admit::New { in_order: true });
        assert_eq!(t.cumulative(), 2);
        assert_eq!(t.missing_ranges(), vec![(2, 3)]);
        assert_eq!(t.admit(2), Admit::New { in_order: true });
        // Draining 3 and 4 which were held out of order.
        assert_eq!(t.cumulative(), 5);
        assert!(!t.has_gap());
        assert_eq!(t.ooo_held(), 0);
    }

    #[test]
    fn multiple_gaps_reported() {
        let mut t = SeqTracker::new();
        for s in [0u64, 2, 5, 6, 9] {
            t.admit(s);
        }
        assert_eq!(t.missing_ranges(), vec![(1, 2), (3, 5), (7, 9)]);
        assert_eq!(t.ooo_held(), 4);
    }

    #[test]
    fn duplicates_detected_below_and_above_cumulative() {
        let mut t = SeqTracker::new();
        t.admit(0);
        t.admit(1);
        t.admit(5);
        assert_eq!(t.admit(0), Admit::Duplicate);
        assert_eq!(t.admit(1), Admit::Duplicate);
        assert_eq!(t.admit(5), Admit::Duplicate);
        assert_eq!(t.admit(2), Admit::New { in_order: true });
    }

    #[test]
    fn reverse_order_delivery() {
        let mut t = SeqTracker::new();
        for s in (0..10u64).rev() {
            let got = t.admit(s);
            let expected_in_order = s == 0;
            assert_eq!(
                got,
                Admit::New {
                    in_order: expected_in_order
                }
            );
        }
        assert_eq!(t.cumulative(), 10);
        assert!(!t.has_gap());
    }

    #[test]
    fn a_full_window_span_fits_the_ring() {
        let mut t = SeqTracker::with_window(1000);
        t.admit(0);
        // The deepest sequence a peer may send, past the 128-seq minimum
        // ring: it fits the ring sized for the window, and the bits held
        // out of order survive later arrivals.
        t.admit(1000);
        t.admit(500);
        assert_eq!(t.admit(1000), Admit::Duplicate);
        assert_eq!(t.admit(500), Admit::Duplicate);
        assert_eq!(t.cumulative(), 1);
        assert_eq!(t.frontier(), 1001);
        assert_eq!(t.ooo_held(), 2);
        assert_eq!(t.missing_ranges(), vec![(1, 500), (501, 1000)]);
    }

    #[test]
    fn missing_in_cuts_the_ranges_at_both_ends() {
        let mut t = SeqTracker::new();
        for s in [0u64, 2, 5, 6, 9] {
            t.admit(s);
        }
        let mut out = Vec::new();
        t.missing_in(0, 4, &mut out);
        assert_eq!(out, vec![(1, 2), (3, 4)]);
        t.missing_in(4, 100, &mut out);
        assert_eq!(out, vec![(4, 5), (7, 9)]);
        t.missing_in(5, 7, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn missing_ranges_into_reuses_scratch() {
        let mut t = SeqTracker::new();
        for s in [0u64, 2, 5] {
            t.admit(s);
        }
        let mut scratch = Vec::with_capacity(8);
        let cap = scratch.capacity();
        t.missing_ranges_into(&mut scratch);
        assert_eq!(scratch, vec![(1, 2), (3, 5)]);
        assert_eq!(scratch.capacity(), cap);
    }
}
