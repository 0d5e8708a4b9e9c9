//! Adaptive retransmission-timeout estimation.
//!
//! RFC 6298-style SRTT/RTTVAR smoothing with exponential backoff, adapted
//! to simulator timescales. The paper's prototype used a fixed 10 ms coarse
//! timer; that is exactly one adaptive-RTO *initial* value here — once RTT
//! samples flow from the frame-ACK path the timeout tracks the real path
//! delay (serialization + switching + host costs + queueing), so a dead
//! rail is detected in a couple of milliseconds instead of ten, while a
//! congested-but-alive path raises the timeout instead of spuriously
//! retransmitting.
//!
//! Karn's algorithm is applied by the caller: retransmitted frames never
//! produce samples (their ACK is ambiguous), which is why
//! [`RttEstimator::on_sample`] is only fed from first-transmission ACKs.
//!
//! [`RepairEstimator`] applies the same smoothing on the receiving side, to
//! the round trip of a repair (a proven-loss NACK to its retransmission),
//! which paces that NACK's repeats.

use crate::config::NACK_DELAY;
use netsim::time::{Dur, SimTime};

/// RTT smoothing constants from RFC 6298 (§2): `SRTT ← 7/8·SRTT + 1/8·R`,
/// `RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT − R|`, `RTO = SRTT + 4·RTTVAR`.
const ALPHA: f64 = 1.0 / 8.0;
const BETA: f64 = 1.0 / 4.0;
const K: f64 = 4.0;

/// Smoothed round-trip estimator producing the retransmission timeout.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    initial: Dur,
    min: Dur,
    max: Dur,
    /// Smoothed RTT in ns; `None` until the first sample.
    srtt_ns: Option<f64>,
    /// RTT variance in ns.
    rttvar_ns: f64,
    /// Consecutive timeouts since the last sample or ack progress.
    backoff: u32,
}

impl RttEstimator {
    /// Estimator starting at `initial` and clamping the timeout (after
    /// backoff) to `[min, max]`.
    pub fn new(initial: Dur, min: Dur, max: Dur) -> Self {
        Self {
            initial,
            min,
            max,
            srtt_ns: None,
            rttvar_ns: 0.0,
            backoff: 0,
        }
    }

    /// Feed one RTT measurement from a first-transmission ACK (Karn's
    /// algorithm: never call this for a retransmitted frame). Clears any
    /// accumulated backoff.
    pub fn on_sample(&mut self, rtt: Dur) {
        let (srtt, rttvar) = smooth(self.srtt_ns, self.rttvar_ns, rtt);
        self.srtt_ns = Some(srtt);
        self.rttvar_ns = rttvar;
        self.backoff = 0;
    }

    /// Cumulative-ack progress without a usable sample (e.g. the acked frame
    /// was a retransmission): the path is alive, so stop backing off.
    pub fn on_progress(&mut self) {
        self.backoff = 0;
    }

    /// The retransmission timer fired without progress: double the timeout
    /// (up to the cap). Returns the new consecutive-backoff count.
    pub fn on_timeout(&mut self) -> u32 {
        self.backoff = self.backoff.saturating_add(1);
        self.backoff
    }

    /// Consecutive backoffs since the last progress.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// Smoothed RTT, once at least one sample has arrived.
    pub fn srtt(&self) -> Option<Dur> {
        self.srtt_ns.map(|ns| Dur(ns as u64))
    }

    /// The current timeout: `SRTT + 4·RTTVAR` (or the initial value before
    /// any sample), doubled per accumulated backoff, clamped to
    /// `[min, max]`.
    pub fn current_rto(&self) -> Dur {
        let base = match self.srtt_ns {
            None => self.initial.as_nanos() as f64,
            Some(srtt) => srtt + K * self.rttvar_ns,
        };
        backed_off(base, self.backoff, self.min, self.max)
    }
}

/// One RFC 6298 step: the new `(SRTT, RTTVAR)` in ns after sample `rtt`,
/// from the previous SRTT (`None` before the first sample) and RTTVAR.
fn smooth(srtt_ns: Option<f64>, rttvar_ns: f64, rtt: Dur) -> (f64, f64) {
    let r = rtt.as_nanos() as f64;
    match srtt_ns {
        None => (r, r / 2.0),
        Some(srtt) => {
            let rttvar = (1.0 - BETA) * rttvar_ns + BETA * (srtt - r).abs();
            ((1.0 - ALPHA) * srtt + ALPHA * r, rttvar)
        }
    }
}

/// `base_ns` doubled `backoff` times, clamped to `[min, max]`.
fn backed_off(base_ns: f64, backoff: u32, min: Dur, max: Dur) -> Dur {
    let shift = backoff.min(32);
    let backed = base_ns * (1u64 << shift) as f64;
    let clamped = backed.max(min.as_nanos() as f64).min(max.as_nanos() as f64);
    Dur(clamped as u64)
}

/// The receiver's repair interval: how long a proven-loss NACK takes to
/// bring back the retransmission it asks for, so that a lost NACK or
/// retransmission is NACKed again once the repair is overdue rather than
/// after the fixed [`NACK_DELAY`]. The smoothing is [`RttEstimator`]'s,
/// and so is Karn's rule, kept here: one probe at a time times the first
/// sequence of a first-time NACK up to the arrival of its retransmission,
/// and a repeat voids it, since the retransmission that follows could
/// answer either NACK. Each repeat without a fresh sample in between
/// doubles the interval, up to [`NACK_DELAY`], which is also the interval
/// until the first sample. Every connection holds one, so it is kept in
/// 24 bytes: `f32` resolves a 2 ms interval to a quarter of a nanosecond.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairEstimator {
    /// Smoothed repair round trip in ns; 0 until the first sample.
    srtt_ns: f32,
    /// Its variance in ns.
    rttvar_ns: f32,
    /// Wire sequence the probe waits for, while `probing`.
    probe_seq: u32,
    /// Repeats sent since the last sample.
    backoff: u8,
    probing: bool,
    /// When the probe's NACK went out.
    probe_at: SimTime,
}

const _: () = assert!(std::mem::size_of::<RepairEstimator>() == 24);

impl RepairEstimator {
    /// A first-time NACK for a gap starting at `wire_seq` went out at `now`:
    /// time it, unless a probe is already out.
    pub fn on_nack(&mut self, wire_seq: u32, now: SimTime) {
        if !self.probing {
            (self.probing, self.probe_seq, self.probe_at) = (true, wire_seq, now);
        }
    }

    /// A NACK was repeated: void the probe (Karn) and double the interval.
    pub fn on_repeat(&mut self) {
        self.probing = false;
        self.backoff = self.backoff.saturating_add(1);
    }

    /// The new frame `wire_seq` arrived at `now`. If it is the probe's, and
    /// a retransmission, it is a sample, and the backoff ends.
    pub fn on_arrival(&mut self, wire_seq: u32, retransmit: bool, now: SimTime) {
        if !self.probing || wire_seq != self.probe_seq {
            return;
        }
        self.probing = false;
        if retransmit {
            let srtt = (self.srtt_ns > 0.0).then_some(f64::from(self.srtt_ns));
            let sample = now.since(self.probe_at);
            let (srtt, rttvar) = smooth(srtt, f64::from(self.rttvar_ns), sample);
            (self.srtt_ns, self.rttvar_ns) = (srtt as f32, rttvar as f32);
            self.backoff = 0;
        }
    }

    /// How long a proven gap waits after its NACK before the next: `SRTT +
    /// 4·RTTVAR`, doubled per repeat since the last sample, at most
    /// [`NACK_DELAY`] (and exactly that before any sample).
    pub fn interval(&self) -> Dur {
        if self.srtt_ns <= 0.0 {
            return NACK_DELAY;
        }
        let base = f64::from(self.srtt_ns) + K * f64::from(self.rttvar_ns);
        backed_off(base, u32::from(self.backoff), Dur(0), NACK_DELAY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::{ms, us};

    fn est() -> RttEstimator {
        RttEstimator::new(ms(10), us(500), ms(100))
    }

    #[test]
    fn starts_at_initial_and_adapts_down() {
        let mut e = est();
        assert_eq!(e.current_rto(), ms(10));
        // A steady 100 µs RTT pulls the timeout to SRTT + 4·RTTVAR, well
        // under the initial 10 ms but at least the 500 µs floor.
        for _ in 0..32 {
            e.on_sample(us(100));
        }
        let rto = e.current_rto();
        assert!(rto < ms(2), "rto {rto:?} should adapt far below initial");
        assert!(rto >= us(500), "rto {rto:?} must respect the floor");
    }

    #[test]
    fn first_sample_sets_srtt_and_var() {
        let mut e = est();
        e.on_sample(us(200));
        assert_eq!(e.srtt(), Some(us(200)));
        // RTO = R + 4·(R/2) = 3R = 600 µs.
        assert_eq!(e.current_rto(), us(600));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut e = est();
        e.on_sample(us(200)); // rto 600 µs
        assert_eq!(e.on_timeout(), 1);
        assert_eq!(e.current_rto(), us(1200));
        assert_eq!(e.on_timeout(), 2);
        assert_eq!(e.current_rto(), us(2400));
        for _ in 0..20 {
            e.on_timeout();
        }
        assert_eq!(e.current_rto(), ms(100), "backoff must clamp at the cap");
        e.on_progress();
        assert_eq!(e.backoff(), 0);
        assert_eq!(e.current_rto(), us(600));
    }

    #[test]
    fn variance_widens_on_jittery_path() {
        // A floor low enough not to mask the variance difference.
        let mut steady = RttEstimator::new(ms(10), us(1), ms(100));
        let mut jittery = RttEstimator::new(ms(10), us(1), ms(100));
        for i in 0..64 {
            steady.on_sample(us(100));
            jittery.on_sample(if i % 2 == 0 { us(50) } else { us(150) });
        }
        assert!(jittery.current_rto() > steady.current_rto());
    }
}
