//! Per-rail health tracking for the striping scheduler.
//!
//! The paper stripes every connection across all rails round-robin; if one
//! rail goes dark, 1/k of all frames blackhole until the coarse timer
//! rescues them one at a time. This module gives the sender a per-rail
//! state machine fed by loss *attribution* (the endpoint remembers which
//! NIC sent every outstanding frame, so a NACK-triggered retransmit or an
//! RTO hit debits the rail that lost the frame, and an ACK credits it):
//!
//! ```text
//!            strikes ≥ degraded_after      strikes ≥ dead_after
//!  Healthy ─────────────────────► Degraded ─────────────────► Dead
//!     ▲                              │ ack                      │ cooldown
//!     │ ack                          ▼                          ▼ elapsed
//!     ◄──────────────────────────────┘                       Probing
//!     │                 probe frame acked                       │
//!     └─────────────────────────◄───────────────────────────────┤
//!                                        probe frame lost: back to Dead
//! ```
//!
//! *Healthy* and *Degraded* rails are striped onto normally (Degraded is a
//! warning state, visible to operators). A *Dead* rail is excluded from
//! striping; after `cooldown` it becomes *Probing* and exactly one in-band
//! data frame is allowed onto it. If that probe is acknowledged the rail
//! rejoins ([`RailEvent::Readmitted`]); if it is lost the rail returns to
//! *Dead* for a fresh cooldown. Connections therefore degrade from k rails
//! to k−1 and recover, instead of blackholing 1/k of their frames.
//!
//! A connection whose rails have never lost a frame has nothing to
//! remember: [`RailSet`] allocates its per-rail records on the first
//! attributed loss, and until then answers every query from the rail count
//! alone (every rail healthy, all eligible).

use netsim::time::{Dur, SimTime};

/// Health state of one rail, from the sending connection's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RailState {
    /// Full member of the striping rotation.
    Healthy,
    /// Accumulating attributed losses; still striped onto.
    Degraded,
    /// Excluded from striping, waiting out the cooldown.
    Dead,
    /// Cooldown elapsed: one probe frame may test the rail.
    Probing,
}

/// A state-machine transition the endpoint must surface (trace event +
/// stats counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RailEvent {
    /// The rail was declared dead and left the striping rotation.
    Dead(usize),
    /// The rail's probe was acknowledged; it rejoined the rotation.
    Readmitted(usize),
}

#[derive(Debug, Clone)]
struct RailHealth {
    state: RailState,
    /// Consecutive attributed losses since the last credited ack.
    strikes: u32,
    /// When the rail entered `Dead` (cooldown reference point).
    dead_since: SimTime,
    /// Sequence of the probe frame in flight, while `Probing`.
    probe_seq: Option<u64>,
}

impl RailHealth {
    fn new() -> Self {
        Self {
            state: RailState::Healthy,
            strikes: 0,
            dead_since: SimTime::ZERO,
            probe_seq: None,
        }
    }
}

/// Health tracker for all rails of one connection.
#[derive(Debug, Clone)]
pub struct RailSet {
    /// One record per rail, allocated on the first attributed loss; empty
    /// while no rail has ever struck.
    rails: Vec<RailHealth>,
    /// Rails tracked.
    n: usize,
    degraded_after: u32,
    dead_after: u32,
    cooldown: Dur,
}

impl RailSet {
    /// Tracker for `n` rails with the given thresholds (see
    /// [`crate::config::RAIL_DEGRADED_AFTER`] and friends).
    pub fn new(n: usize, degraded_after: u32, dead_after: u32, cooldown: Dur) -> Self {
        assert!(n <= 64, "rail mask is a u64");
        Self {
            rails: Vec::new(),
            n,
            degraded_after: degraded_after.max(1),
            dead_after: dead_after.max(2),
            cooldown,
        }
    }

    /// Current state of `rail`.
    pub fn state(&self, rail: usize) -> RailState {
        assert!(rail < self.n, "rail {rail} of {}", self.n);
        self.rails.get(rail).map_or(RailState::Healthy, |r| r.state)
    }

    /// Number of rails tracked.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no rails are tracked (never the case for a built
    /// connection; present for completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// A loss was attributed to `rail` (NACK-triggered retransmit or RTO
    /// hit of a frame it sent). Returns the transition to surface, if any.
    pub fn on_loss(&mut self, rail: usize, seq: u64, now: SimTime) -> Option<RailEvent> {
        if self.rails.is_empty() {
            self.rails = (0..self.n).map(|_| RailHealth::new()).collect();
        }
        let r = &mut self.rails[rail];
        r.strikes = r.strikes.saturating_add(1);
        match r.state {
            RailState::Probing if r.probe_seq == Some(seq) => {
                // The probe itself died: the rail is still dark.
                r.state = RailState::Dead;
                r.dead_since = now;
                r.probe_seq = None;
                None
            }
            RailState::Healthy | RailState::Degraded => {
                if r.strikes >= self.dead_after {
                    r.state = RailState::Dead;
                    r.dead_since = now;
                    r.probe_seq = None;
                    Some(RailEvent::Dead(rail))
                } else {
                    if r.strikes >= self.degraded_after {
                        r.state = RailState::Degraded;
                    }
                    None
                }
            }
            // Dead already, or a stale loss for a non-probe frame while
            // probing: nothing new to report.
            _ => None,
        }
    }

    /// A frame sent on `rail` was cumulatively acknowledged. Returns
    /// [`RailEvent::Readmitted`] when this was the probe that revives a
    /// dead rail.
    pub fn on_ack(&mut self, rail: usize, seq: u64) -> Option<RailEvent> {
        // No records: no strikes to clear, no probe to readmit.
        let r = self.rails.get_mut(rail)?;
        r.strikes = 0;
        match r.state {
            RailState::Probing if r.probe_seq == Some(seq) => {
                r.state = RailState::Healthy;
                r.probe_seq = None;
                Some(RailEvent::Readmitted(rail))
            }
            RailState::Healthy | RailState::Degraded => {
                r.state = RailState::Healthy;
                None
            }
            // An ack for a frame that raced the death sentence: ignore; the
            // rail re-earns trust through the probe path.
            _ => None,
        }
    }

    /// The striping scheduler is about to pick a rail at `now`: advance
    /// cooldowns and return the eligibility mask (bit r set = rail r may
    /// carry the next frame). Zero means *no* rail is currently eligible —
    /// the caller should fall back to striping over all rails rather than
    /// stall the connection.
    pub fn eligible_mask(&mut self, now: SimTime) -> u64 {
        if self.rails.is_empty() {
            // Every rail healthy: bits `0..n`.
            return u64::MAX.checked_shr(64 - self.n as u32).unwrap_or(0);
        }
        let mut mask = 0u64;
        for (i, r) in self.rails.iter_mut().enumerate() {
            match r.state {
                RailState::Healthy | RailState::Degraded => mask |= 1 << i,
                RailState::Dead => {
                    if now.since(r.dead_since) >= self.cooldown {
                        r.state = RailState::Probing;
                        r.probe_seq = None;
                        mask |= 1 << i;
                    }
                }
                // One probe at a time: eligible only until it is in flight.
                RailState::Probing => {
                    if r.probe_seq.is_none() {
                        mask |= 1 << i;
                    }
                }
            }
        }
        mask
    }

    /// The scheduler put `seq` onto `rail`: if the rail is probing and has
    /// no probe in flight, this frame becomes the probe.
    pub fn note_sent(&mut self, rail: usize, seq: u64) {
        let Some(r) = self.rails.get_mut(rail) else {
            return;
        };
        if r.state == RailState::Probing && r.probe_seq.is_none() {
            r.probe_seq = Some(seq);
        }
    }

    /// Number of rails currently in the striping rotation (healthy,
    /// degraded, or probing).
    pub fn active_rails(&self) -> usize {
        if self.rails.is_empty() {
            return self.n;
        }
        self.rails
            .iter()
            .filter(|r| r.state != RailState::Dead)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::ms;

    fn t(n: u64) -> SimTime {
        SimTime::ZERO + ms(n)
    }

    fn set2() -> RailSet {
        RailSet::new(2, 2, 4, ms(10))
    }

    #[test]
    fn strikes_walk_healthy_degraded_dead() {
        let mut s = set2();
        assert_eq!(s.on_loss(1, 10, t(0)), None);
        assert_eq!(s.state(1), RailState::Healthy);
        assert_eq!(s.on_loss(1, 11, t(0)), None);
        assert_eq!(s.state(1), RailState::Degraded);
        assert_eq!(s.on_loss(1, 12, t(0)), None);
        assert_eq!(s.on_loss(1, 13, t(1)), Some(RailEvent::Dead(1)));
        assert_eq!(s.state(1), RailState::Dead);
        assert_eq!(s.active_rails(), 1);
        // Dead rail is masked out; rail 0 untouched.
        assert_eq!(s.eligible_mask(t(2)), 0b01);
    }

    #[test]
    fn ack_resets_strikes_and_degraded() {
        let mut s = set2();
        s.on_loss(0, 1, t(0));
        s.on_loss(0, 2, t(0));
        assert_eq!(s.state(0), RailState::Degraded);
        assert_eq!(s.on_ack(0, 3), None);
        assert_eq!(s.state(0), RailState::Healthy);
        // Strikes started over: two more losses only re-degrade.
        s.on_loss(0, 4, t(1));
        s.on_loss(0, 5, t(1));
        assert_eq!(s.state(0), RailState::Degraded);
    }

    #[test]
    fn probe_cycle_readmits_on_ack() {
        let mut s = set2();
        for seq in 0..4 {
            s.on_loss(1, seq, t(0));
        }
        assert_eq!(s.state(1), RailState::Dead);
        // Cooldown not elapsed: still excluded.
        assert_eq!(s.eligible_mask(t(5)), 0b01);
        // Cooldown over: rail flips to Probing and is offered once.
        assert_eq!(s.eligible_mask(t(10)), 0b11);
        s.note_sent(1, 100);
        // Probe in flight: back out of the rotation.
        assert_eq!(s.eligible_mask(t(11)), 0b01);
        assert_eq!(s.on_ack(1, 100), Some(RailEvent::Readmitted(1)));
        assert_eq!(s.state(1), RailState::Healthy);
        assert_eq!(s.eligible_mask(t(12)), 0b11);
    }

    #[test]
    fn probe_loss_restarts_cooldown() {
        let mut s = set2();
        for seq in 0..4 {
            s.on_loss(1, seq, t(0));
        }
        assert_eq!(s.eligible_mask(t(10)), 0b11);
        s.note_sent(1, 100);
        // Probe lost at t=12: dead again, cooldown restarts from 12.
        assert_eq!(s.on_loss(1, 100, t(12)), None);
        assert_eq!(s.state(1), RailState::Dead);
        assert_eq!(s.eligible_mask(t(20)), 0b01);
        assert_eq!(s.eligible_mask(t(22)), 0b11);
    }

    #[test]
    fn all_rails_dead_masks_to_zero() {
        let mut s = set2();
        for rail in 0..2 {
            for seq in 0..4 {
                s.on_loss(rail, seq, t(0));
            }
        }
        assert_eq!(s.active_rails(), 0);
        assert_eq!(s.eligible_mask(t(1)), 0);
    }
}
