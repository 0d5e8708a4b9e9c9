//! Scripted, seed-deterministic fault injection.
//!
//! The stationary [`FaultModel`](crate::net::FaultModel) draws i.i.d. loss
//! and corruption per hop — good for steady background noise, useless for
//! the scenarios §2.4 of the paper actually worries about: a rail that goes
//! *dark* for ten milliseconds, a link that flaps, a NIC whose receive path
//! stalls under an interrupt storm, or error bursts that cluster instead of
//! spreading evenly. This module adds those as a **fault plan**: a scripted
//! timeline of fault events, applied to the network at exact virtual times,
//! so every failure scenario is bit-for-bit reproducible for a given seed.
//!
//! Three layers compose:
//!
//! 1. The stationary [`FaultModel`](crate::net::FaultModel) (unchanged) —
//!    i.i.d. per-hop loss/corruption.
//! 2. A per-link [`GilbertElliott`] burst process installed/removed by plan
//!    events — a two-state Markov chain whose *bad* state has elevated
//!    loss/corruption, producing the clustered errors real copper shows.
//! 3. Hard faults — [`FaultAction::LinkDown`]/[`FaultAction::LinkUp`]
//!    (administrative link state, checked when a frame is submitted; a
//!    frame already on the wire when the link drops still lands) and
//!    [`FaultAction::NicStall`] (the receive path freezes and delivers its
//!    backlog, in order, when the stall ends).
//!
//! All random draws the fault layer makes (stationary loss, burst-state
//! transitions) are pure functions of
//! ([`ClusterSpec::fault_seed`](crate::topology::ClusterSpec::fault_seed),
//! link identity, submission index on that link), independent of the
//! jitter streams — so the loss pattern for a given fault seed is stable
//! even when unrelated timing randomness changes.
//!
//! ```
//! use netsim::time::ms;
//! use netsim::FaultPlan;
//!
//! // Rail 1 dies 5 ms in, comes back at 20 ms; rail 0 flaps twice.
//! let plan = FaultPlan::new()
//!     .rail_down(ms(5), 1)
//!     .rail_up(ms(20), 1)
//!     .flap_link(ms(8), 0, 0, ms(1), ms(2), 2);
//! assert_eq!(plan.events().len(), 2 + 4);
//! ```

use crate::time::{Dur, SimTime};

/// Parameters of a two-state Gilbert–Elliott error process.
///
/// The channel is either in the *good* or the *bad* state; each frame
/// arrival first advances the state (good→bad with probability
/// `p_good_to_bad`, bad→good with `p_bad_to_good`), then draws loss and
/// corruption at the current state's rates. Burst length is geometric with
/// mean `1 / p_bad_to_good` frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-frame probability of entering the bad state from the good state.
    pub p_good_to_bad: f64,
    /// Per-frame probability of leaving the bad state back to good.
    pub p_bad_to_good: f64,
    /// Loss probability per frame while in the good state.
    pub loss_good: f64,
    /// Loss probability per frame while in the bad state.
    pub loss_bad: f64,
    /// Corruption probability per frame while in the good state.
    pub corrupt_good: f64,
    /// Corruption probability per frame while in the bad state.
    pub corrupt_bad: f64,
}

impl GilbertElliott {
    /// A pure burst-loss process: clean good state, lossy bad state.
    pub fn bursty_loss(p_good_to_bad: f64, p_bad_to_good: f64, loss_bad: f64) -> Self {
        Self {
            p_good_to_bad,
            p_bad_to_good,
            loss_good: 0.0,
            loss_bad,
            corrupt_good: 0.0,
            corrupt_bad: 0.0,
        }
    }

    /// Long-run fraction of frames spent in the bad state (stationary
    /// distribution of the two-state chain).
    pub fn stationary_bad(&self) -> f64 {
        let denom = self.p_good_to_bad + self.p_bad_to_good;
        if denom <= 0.0 {
            0.0
        } else {
            self.p_good_to_bad / denom
        }
    }

    /// Long-run average loss rate implied by the process.
    pub fn mean_loss(&self) -> f64 {
        let b = self.stationary_bad();
        (1.0 - b) * self.loss_good + b * self.loss_bad
    }
}

/// Which link(s) a fault event applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The full-duplex link between `node`'s NIC on `rail` and its switch.
    Link {
        /// Node index in the cluster.
        node: usize,
        /// Rail (NIC index within the node).
        rail: usize,
    },
    /// Every node's link on `rail` — takes the whole rail (switch) out.
    Rail {
        /// Rail index.
        rail: usize,
    },
}

/// What a fault event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Force the link administratively down: frames submitted while down are
    /// dropped where they are submitted (the NIC, or the switch's output
    /// port). Frames already on the wire still land.
    LinkDown,
    /// Restore a downed link.
    LinkUp,
    /// Freeze the NIC's receive path for `dur`: frames that arrive while
    /// stalled are held and delivered, in order, when the stall ends.
    NicStall {
        /// How long the receive path stays frozen.
        dur: Dur,
    },
    /// Install (or replace) a [`GilbertElliott`] burst process on the
    /// target's channels.
    SetBurst {
        /// The burst process parameters.
        model: GilbertElliott,
    },
    /// Remove any installed burst process from the target's channels.
    ClearBurst,
}

/// One scheduled fault: at virtual time `at`, apply `action` to `target`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Absolute virtual time the fault fires.
    pub at: SimTime,
    /// Which link(s) it hits.
    pub target: FaultTarget,
    /// What it does.
    pub action: FaultAction,
}

/// A scripted timeline of fault events.
///
/// Built with the chainable helpers below (times are offsets from the start
/// of the simulation) and applied to a built cluster with
/// [`Cluster::apply_fault_plan`](crate::topology::Cluster::apply_fault_plan),
/// which schedules one simulator event per fault.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Add an arbitrary event.
    pub fn event(mut self, at: Dur, target: FaultTarget, action: FaultAction) -> Self {
        self.events.push(FaultEvent {
            at: SimTime::ZERO + at,
            target,
            action,
        });
        self
    }

    /// Take one node's link on `rail` down at `at`.
    pub fn link_down(self, at: Dur, node: usize, rail: usize) -> Self {
        self.event(at, FaultTarget::Link { node, rail }, FaultAction::LinkDown)
    }

    /// Restore one node's link on `rail` at `at`.
    pub fn link_up(self, at: Dur, node: usize, rail: usize) -> Self {
        self.event(at, FaultTarget::Link { node, rail }, FaultAction::LinkUp)
    }

    /// Take a whole rail (every node's link on it) down at `at`.
    pub fn rail_down(self, at: Dur, rail: usize) -> Self {
        self.event(at, FaultTarget::Rail { rail }, FaultAction::LinkDown)
    }

    /// Restore a whole rail at `at`.
    pub fn rail_up(self, at: Dur, rail: usize) -> Self {
        self.event(at, FaultTarget::Rail { rail }, FaultAction::LinkUp)
    }

    /// Flap one node's link: starting at `first_down`, repeat `cycles` times
    /// (down for `down_for`, then up for `up_for`).
    pub fn flap_link(
        mut self,
        first_down: Dur,
        node: usize,
        rail: usize,
        down_for: Dur,
        up_for: Dur,
        cycles: usize,
    ) -> Self {
        let mut t = first_down;
        for _ in 0..cycles {
            self = self.link_down(t, node, rail);
            self = self.link_up(t + down_for, node, rail);
            t = t + down_for + up_for;
        }
        self
    }

    /// Freeze the receive path of `node`'s NIC on `rail` for `dur`,
    /// starting at `at`.
    pub fn nic_stall(self, at: Dur, node: usize, rail: usize, dur: Dur) -> Self {
        self.event(
            at,
            FaultTarget::Link { node, rail },
            FaultAction::NicStall { dur },
        )
    }

    /// Install a burst process on the target's channels at `at`.
    pub fn burst(self, at: Dur, target: FaultTarget, model: GilbertElliott) -> Self {
        self.event(at, target, FaultAction::SetBurst { model })
    }

    /// Remove the burst process from the target's channels at `at`.
    pub fn clear_burst(self, at: Dur, target: FaultTarget) -> Self {
        self.event(at, target, FaultAction::ClearBurst)
    }

    /// Events whose target covers `node`'s link on `rail` (either the
    /// specific [`FaultTarget::Link`] or the whole [`FaultTarget::Rail`]),
    /// sorted by fire time.
    fn events_for(&self, node: usize, rail: usize) -> Vec<&FaultEvent> {
        let mut hits: Vec<&FaultEvent> = self
            .events
            .iter()
            .filter(|e| match e.target {
                FaultTarget::Link { node: n, rail: r } => n == node && r == rail,
                FaultTarget::Rail { rail: r } => r == rail,
            })
            .collect();
        hits.sort_by_key(|e| e.at);
        hits
    }

    /// The half-open `[from_ns, to_ns)` intervals during which `node`'s
    /// link on `rail` is administratively down, merged and sorted. A
    /// [`FaultAction::LinkDown`] with no matching up extends to
    /// `u64::MAX`. This is the plan's *interpretation* — backends that
    /// cannot replay events live (the chaos interposer over real sockets)
    /// consume the same plan through this view, so one schedule drives
    /// both transports identically.
    pub fn down_intervals(&self, node: usize, rail: usize) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut down_since: Option<u64> = None;
        for e in self.events_for(node, rail) {
            let t = e.at.0;
            match e.action {
                FaultAction::LinkDown if down_since.is_none() => down_since = Some(t),
                FaultAction::LinkUp => {
                    if let Some(from) = down_since.take() {
                        if t > from {
                            out.push((from, t));
                        }
                    }
                }
                _ => {}
            }
        }
        if let Some(from) = down_since {
            out.push((from, u64::MAX));
        }
        out
    }

    /// The half-open `[from_ns, to_ns)` intervals during which `node`'s
    /// receive path on `rail` is frozen by a [`FaultAction::NicStall`],
    /// sorted by start (overlapping stalls are merged).
    pub fn stall_intervals(&self, node: usize, rail: usize) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for e in self.events_for(node, rail) {
            let FaultAction::NicStall { dur } = e.action else {
                continue;
            };
            let from = e.at.0;
            let to = from.saturating_add(dur.as_nanos());
            match out.last_mut() {
                Some(last) if from <= last.1 => last.1 = last.1.max(to),
                _ => out.push((from, to)),
            }
        }
        out
    }

    /// The burst-process timeline for `node`'s link on `rail`: `(at_ns,
    /// model)` transitions, where `None` means the burst process was
    /// cleared. The model in force at time `t` is the last entry at or
    /// before `t` (none before the first entry).
    pub fn burst_timeline(&self, node: usize, rail: usize) -> Vec<(u64, Option<GilbertElliott>)> {
        let mut out = Vec::new();
        for e in self.events_for(node, rail) {
            match e.action {
                FaultAction::SetBurst { model } => out.push((e.at.0, Some(model))),
                FaultAction::ClearBurst => out.push((e.at.0, None)),
                _ => {}
            }
        }
        out
    }
}

/// Whether `t` falls inside any of the sorted half-open `intervals`.
pub fn covered(intervals: &[(u64, u64)], t: u64) -> bool {
    intervals
        .iter()
        .take_while(|&&(from, _)| from <= t)
        .any(|&(_, to)| t < to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::ms;

    #[test]
    fn flap_expands_to_down_up_pairs() {
        let plan = FaultPlan::new().flap_link(ms(1), 0, 1, ms(2), ms(3), 2);
        let ev = plan.events();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0].at, SimTime::ZERO + ms(1));
        assert_eq!(ev[0].action, FaultAction::LinkDown);
        assert_eq!(ev[1].at, SimTime::ZERO + ms(3));
        assert_eq!(ev[1].action, FaultAction::LinkUp);
        assert_eq!(ev[2].at, SimTime::ZERO + ms(6));
        assert_eq!(ev[3].at, SimTime::ZERO + ms(8));
        for e in ev {
            assert_eq!(e.target, FaultTarget::Link { node: 0, rail: 1 });
        }
    }

    #[test]
    fn down_intervals_merge_links_and_rails() {
        let plan = FaultPlan::new()
            .link_down(ms(1), 0, 1)
            .link_up(ms(3), 0, 1)
            .rail_down(ms(5), 1)
            .rail_up(ms(7), 1)
            .link_down(ms(9), 0, 1); // never comes back up
        let iv = plan.down_intervals(0, 1);
        assert_eq!(
            iv,
            vec![
                (ms(1).as_nanos(), ms(3).as_nanos()),
                (ms(5).as_nanos(), ms(7).as_nanos()),
                (ms(9).as_nanos(), u64::MAX),
            ]
        );
        // Node 1 only sees the rail-wide outage.
        assert_eq!(
            plan.down_intervals(1, 1),
            vec![(ms(5).as_nanos(), ms(7).as_nanos())]
        );
        // Other rails are untouched.
        assert!(plan.down_intervals(0, 0).is_empty());
        assert!(covered(&iv, ms(2).as_nanos()));
        assert!(!covered(&iv, ms(4).as_nanos()));
        assert!(covered(&iv, ms(20).as_nanos()));
        // Half-open: the up instant is already up.
        assert!(!covered(&iv, ms(3).as_nanos()));
    }

    #[test]
    fn stall_intervals_merge_overlaps() {
        let plan = FaultPlan::new()
            .nic_stall(ms(1), 0, 0, ms(2))
            .nic_stall(ms(2), 0, 0, ms(3))
            .nic_stall(ms(10), 0, 0, ms(1));
        assert_eq!(
            plan.stall_intervals(0, 0),
            vec![
                (ms(1).as_nanos(), ms(5).as_nanos()),
                (ms(10).as_nanos(), ms(11).as_nanos()),
            ]
        );
        assert!(plan.stall_intervals(1, 0).is_empty());
    }

    #[test]
    fn burst_timeline_orders_transitions() {
        let ge = GilbertElliott::bursty_loss(0.1, 0.5, 0.8);
        let plan = FaultPlan::new()
            .burst(ms(4), FaultTarget::Rail { rail: 0 }, ge)
            .clear_burst(ms(9), FaultTarget::Rail { rail: 0 });
        let tl = plan.burst_timeline(1, 0);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0], (ms(4).as_nanos(), Some(ge)));
        assert_eq!(tl[1], (ms(9).as_nanos(), None));
    }

    #[test]
    fn gilbert_elliott_stationary_math() {
        let ge = GilbertElliott::bursty_loss(0.01, 0.09, 0.5);
        let b = ge.stationary_bad();
        assert!((b - 0.1).abs() < 1e-12);
        assert!((ge.mean_loss() - 0.05).abs() < 1e-12);
        let clean = GilbertElliott::bursty_loss(0.0, 0.0, 1.0);
        assert_eq!(clean.stationary_bad(), 0.0);
    }
}
