//! Scripted, seed-deterministic fault injection.
//!
//! The stationary [`FaultModel`] draws i.i.d. loss
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
//! 1. The stationary [`FaultModel`] — i.i.d. per-hop loss/corruption.
//! 2. A per-link [`GilbertElliott`] burst process installed/removed by plan
//!    events — a two-state Markov chain whose *bad* state has elevated
//!    loss/corruption, producing the clustered errors real copper shows.
//! 3. Hard faults — [`FaultAction::LinkDown`]/[`FaultAction::LinkUp`]
//!    (administrative link state, checked when a frame is submitted; a
//!    frame already on the wire when the link drops still lands) and
//!    [`FaultAction::NicStall`] (the receive path freezes and delivers its
//!    backlog, in order, when the stall ends).
//!
//! Every fate is decided by one oracle, the link's [`FaultStream`]: each
//! draw is a pure function of
//! ([`ClusterSpec::fault_seed`](crate::topology::ClusterSpec::fault_seed),
//! link identity, submission index on that link, lane), independent of the
//! jitter streams — so the loss pattern for a given fault seed is stable
//! even when unrelated timing randomness changes. The chaos interposer in
//! front of real sockets owns one per rail, keyed as the NIC's uplink, so
//! the same seed decides the same frames on both runtimes.
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

/// Random transient-fault model, applied per channel traversal.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultModel {
    /// Probability a frame is silently lost on a hop.
    pub loss_rate: f64,
    /// Probability a frame is delivered with a checksum-violating error.
    pub corrupt_rate: f64,
}

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

/// Draw lanes of a [`FaultStream`]: one per random decision a frame can
/// need, so lanes never alias.
const LANE_GE: u64 = 0;
const LANE_LOSS: u64 = 1;
const LANE_CORRUPT: u64 = 2;
/// Jitter lane, drawn under the run seed rather than the fault seed.
pub(crate) const LANE_JITTER: u64 = 3;
/// The chaos interposer's duplication lane.
pub const LANE_DUP: u64 = 4;
/// The chaos interposer's reorder lane.
pub const LANE_REORDER: u64 = 5;

/// splitmix64 finalizer: a cheap, well-mixed u64 → u64 permutation.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a draw onto `[0, 1)` with 53 bits of precision.
fn unit_f64(u: u64) -> f64 {
    (u >> 11) as f64 / (1u64 << 53) as f64
}

/// One channel's fault oracle: its identity, its attempt counter and the
/// [`GilbertElliott`] burst process installed on it. Every draw is a pure
/// function of `(seed, key, attempt, lane)`, so a channel's stream cannot
/// shift when unrelated events reorder (traffic on other channels, another
/// runtime). Only the burst state evolves, in attempt order, which is
/// deterministic because one owner drives a channel: a netsim channel, or
/// one rail of the chaos interposer.
#[derive(Debug, Clone)]
pub struct FaultStream {
    key: u64,
    attempts: u64,
    burst: Option<GilbertElliott>,
    /// Current Gilbert–Elliott state (`true` = bad).
    bad: bool,
}

impl FaultStream {
    /// The stream of `node`'s link on `rail`, one direction of it
    /// (`downlink` = switch→NIC). Keyed by global topology coordinates, so
    /// the same physical link draws the same stream whichever object holds
    /// it: a simulated cluster or the interposer.
    pub fn link(node: usize, rail: usize, downlink: bool) -> Self {
        Self {
            key: ((node as u64) << 32) | ((rail as u64) << 8) | downlink as u64,
            attempts: 0,
            burst: None,
            bad: false,
        }
    }

    /// The stream's identity, as logged in a
    /// [`FaultDecision`](crate::net::FaultDecision).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Take the next attempt index. Every submission takes one whatever
    /// its fate, so the stream never shifts with a frame's fate.
    #[inline]
    pub fn next_attempt(&mut self) -> u64 {
        self.attempts += 1;
        self.attempts - 1
    }

    /// Install (`Some`) or remove (`None`) the burst process; the chain
    /// starts over in the good state.
    pub fn set_burst(&mut self, model: Option<GilbertElliott>) {
        self.burst = model;
        self.bad = false;
    }

    /// The raw draw on `lane` for `attempt` under `seed`.
    #[inline]
    pub fn draw(&self, seed: u64, attempt: u64, lane: u64) -> u64 {
        let mut z = seed;
        for v in [self.key, attempt, lane] {
            z = splitmix64(z ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        z
    }

    /// Whether an event of probability `p` happens on `lane` for
    /// `attempt`; `p ≤ 0` never does and costs no draw.
    #[inline]
    pub fn hit(&self, seed: u64, attempt: u64, lane: u64, p: f64) -> bool {
        p > 0.0 && unit_f64(self.draw(seed, attempt, lane)) < p
    }

    /// Loss and corruption for `attempt`: the stationary `model` composed
    /// with the burst process, if one is installed, which first steps its
    /// chain. A lost frame is never also corrupted.
    #[inline]
    pub fn decide(&mut self, seed: u64, model: FaultModel, attempt: u64) -> (bool, bool) {
        let mut loss_p = model.loss_rate;
        let mut corrupt_p = model.corrupt_rate;
        if let Some(ge) = self.burst {
            let flip_p = if self.bad {
                ge.p_bad_to_good
            } else {
                ge.p_good_to_bad
            };
            if self.hit(seed, attempt, LANE_GE, flip_p) {
                self.bad = !self.bad;
            }
            let (gl, gc) = if self.bad {
                (ge.loss_bad, ge.corrupt_bad)
            } else {
                (ge.loss_good, ge.corrupt_good)
            };
            // Independent composition: survive both processes or be hit.
            loss_p = 1.0 - (1.0 - loss_p) * (1.0 - gl);
            corrupt_p = 1.0 - (1.0 - corrupt_p) * (1.0 - gc);
        }
        let lost = self.hit(seed, attempt, LANE_LOSS, loss_p);
        let corrupted = !lost && self.hit(seed, attempt, LANE_CORRUPT, corrupt_p);
        (lost, corrupted)
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

/// If `t` falls inside one of the sorted half-open `intervals`, the end of
/// that interval.
pub fn covering_end(intervals: &[(u64, u64)], t: u64) -> Option<u64> {
    intervals
        .iter()
        .take_while(|&&(from, _)| from <= t)
        .find(|&&(_, to)| t < to)
        .map(|&(_, to)| to)
}

/// Whether `t` falls inside any of the sorted half-open `intervals`.
pub fn covered(intervals: &[(u64, u64)], t: u64) -> bool {
    covering_end(intervals, t).is_some()
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
