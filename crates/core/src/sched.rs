//! Link scheduling for spatial parallelism (§2.5).
//!
//! "Whenever a frame needs to be transmitted, MultiEdge will use one of the
//! available network interfaces based on a load-balancing policy. We
//! currently use a round-robin policy." — the paper's policy is
//! [`SchedPolicy::RoundRobin`]; the alternatives exist for the scheduling
//! ablation bench.
//!
//! The scheduler is deliberately transport-agnostic: it reasons about rail
//! *indices* and a backlog probe, never about NICs or the simulator. That
//! is what lets the same per-connection scheduler state drive both the
//! netsim backend and the real UDP backend behind the
//! [`Backplane`](crate::backplane::Backplane) seam.

/// Which link-selection policy a connection uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// The paper's policy: cycle through the rails frame by frame.
    #[default]
    RoundRobin,
    /// Uniformly random rail per frame.
    Random,
    /// Pick the rail whose transmit queue has the least backlog, breaking
    /// ties round-robin.
    ShortestQueue,
    /// Pin all traffic to one rail (degenerates to a 1L setup).
    Single(usize),
}

/// Eligibility mask meaning "every rail may carry the next frame".
pub const ALL_RAILS: u64 = u64::MAX;

/// Per-connection scheduler state.
#[derive(Debug, Clone)]
pub struct LinkScheduler {
    policy: SchedPolicy,
    cursor: usize,
}

impl LinkScheduler {
    /// New scheduler with the given policy, whose rotation begins at rail 0.
    pub fn new(policy: SchedPolicy) -> Self {
        Self::starting_at(policy, 0)
    }

    /// New scheduler with the given policy, whose rotation begins at rail
    /// `start` (modulo the rail count). A connection picks `start` so that
    /// a node's connections begin on different rails
    /// ([`ProtoCore::connect`](crate::proto::ProtoCore::connect)); the
    /// rotation itself is the same from any start.
    pub fn starting_at(policy: SchedPolicy, start: usize) -> Self {
        Self {
            policy,
            cursor: start,
        }
    }

    /// Pick the rail for the next frame among `rails` rails (indices
    /// `0..rails`). `backlog_ns` reports a rail's current transmit backlog
    /// in nanoseconds and is only consulted by queue-aware policies.
    /// `mask` is the rail-health eligibility mask (bit r set = rail r may
    /// be used); a mask that excludes every rail falls back to all rails —
    /// a fully dead rail set must degrade to "keep trying", never to a
    /// stall. [`SchedPolicy::Single`] ignores the mask: an explicit pin is
    /// an operator decision that health tracking must not override.
    pub fn pick(
        &mut self,
        rails: usize,
        mask: u64,
        backlog_ns: impl Fn(usize) -> u64,
        rng_draw: impl FnOnce(usize) -> usize,
    ) -> usize {
        debug_assert!(rails > 0);
        let all = if rails >= 64 {
            u64::MAX
        } else {
            (1u64 << rails) - 1
        };
        let mask = if mask & all == 0 { all } else { mask & all };
        let ok = |i: usize| mask & (1 << i) != 0;
        match self.policy {
            SchedPolicy::RoundRobin => {
                let mut r = self.cursor % rails;
                while !ok(r) {
                    r = (r + 1) % rails;
                }
                self.cursor = (r + 1) % rails;
                r
            }
            SchedPolicy::Random => {
                let eligible: Vec<usize> = (0..rails).filter(|&i| ok(i)).collect();
                eligible[rng_draw(eligible.len())]
            }
            SchedPolicy::ShortestQueue => {
                let mut best = None;
                let mut best_backlog = u64::MAX;
                for off in 0..rails {
                    let i = (self.cursor + off) % rails;
                    if !ok(i) {
                        continue;
                    }
                    let b = backlog_ns(i);
                    if b < best_backlog {
                        best_backlog = b;
                        best = Some(i);
                    }
                }
                let best = best.unwrap_or(self.cursor % rails);
                self.cursor = (best + 1) % rails;
                best
            }
            SchedPolicy::Single(i) => i.min(rails - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All rails idle — the backlog probe for order-only tests.
    fn idle(_: usize) -> u64 {
        0
    }

    #[test]
    fn round_robin_cycles() {
        let mut s = LinkScheduler::new(SchedPolicy::RoundRobin);
        let picks: Vec<_> = (0..7).map(|_| s.pick(3, ALL_RAILS, idle, |_| 0)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn round_robin_begins_at_its_start_rail() {
        let mut s = LinkScheduler::starting_at(SchedPolicy::RoundRobin, 2);
        let picks: Vec<_> = (0..7).map(|_| s.pick(4, ALL_RAILS, idle, |_| 0)).collect();
        assert_eq!(picks, vec![2, 3, 0, 1, 2, 3, 0]);
        // A start past the rail count wraps onto a rail.
        let mut s = LinkScheduler::starting_at(SchedPolicy::RoundRobin, 5);
        let picks: Vec<_> = (0..3).map(|_| s.pick(3, ALL_RAILS, idle, |_| 0)).collect();
        assert_eq!(picks, vec![2, 0, 1]);
    }

    #[test]
    fn round_robin_skips_masked_out_rails() {
        let mut s = LinkScheduler::new(SchedPolicy::RoundRobin);
        // Rail 1 excluded: rotation degrades to 0, 2, 0, …
        let picks: Vec<_> = (0..3).map(|_| s.pick(3, 0b101, idle, |_| 0)).collect();
        assert_eq!(picks, vec![0, 2, 0]);
        // Rail 1 re-admitted: the rotation picks it back up.
        assert_eq!(s.pick(3, ALL_RAILS, idle, |_| 0), 1);
    }

    #[test]
    fn empty_mask_falls_back_to_all_rails() {
        let mut s = LinkScheduler::new(SchedPolicy::RoundRobin);
        let picks: Vec<_> = (0..4).map(|_| s.pick(2, 0, idle, |_| 0)).collect();
        assert_eq!(picks, vec![0, 1, 0, 1]);
    }

    #[test]
    fn single_pins_and_clamps() {
        let mut s = LinkScheduler::new(SchedPolicy::Single(1));
        assert_eq!(s.pick(2, ALL_RAILS, idle, |_| 0), 1);
        let mut s = LinkScheduler::new(SchedPolicy::Single(9));
        assert_eq!(s.pick(2, ALL_RAILS, idle, |_| 0), 1);
        // A pin overrides the health mask.
        let mut s = LinkScheduler::new(SchedPolicy::Single(1));
        assert_eq!(s.pick(2, 0b01, idle, |_| 0), 1);
    }

    #[test]
    fn random_uses_draw() {
        let mut s = LinkScheduler::new(SchedPolicy::Random);
        assert_eq!(s.pick(4, ALL_RAILS, idle, |n| n - 1), 3);
        // Draw happens over the eligible subset only.
        let mut s = LinkScheduler::new(SchedPolicy::Random);
        assert_eq!(s.pick(4, 0b1010, idle, |n| n - 1), 3);
        let mut s = LinkScheduler::new(SchedPolicy::Random);
        assert_eq!(s.pick(4, 0b1010, idle, |_| 0), 1);
    }

    #[test]
    fn shortest_queue_prefers_idle_link() {
        let mut s = LinkScheduler::new(SchedPolicy::ShortestQueue);
        // Both idle: first pick takes rail 0, advancing the cursor.
        assert_eq!(s.pick(2, ALL_RAILS, idle, |_| 0), 0);
        // Rail 0 idle, rail 1 backlogged: always rail 0 now.
        let loaded = |i: usize| if i == 1 { 50_000 } else { 0 };
        assert_eq!(s.pick(2, ALL_RAILS, loaded, |_| 0), 0);
        assert_eq!(s.pick(2, ALL_RAILS, loaded, |_| 0), 0);
        // Unless rail 0 is masked out by health tracking.
        assert_eq!(s.pick(2, 0b10, loaded, |_| 0), 1);
    }

    #[test]
    fn shortest_queue_breaks_ties_round_robin() {
        let mut s = LinkScheduler::new(SchedPolicy::ShortestQueue);
        // Equal backlogs: the cursor rotates like round-robin.
        let picks: Vec<_> = (0..4).map(|_| s.pick(3, ALL_RAILS, idle, |_| 0)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0]);
    }
}
