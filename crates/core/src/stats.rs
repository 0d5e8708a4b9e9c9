//! Protocol statistics.
//!
//! The paper's evaluation is largely about network-level behaviour: the
//! fraction of frames arriving out of order, the extra traffic added by
//! explicit acknowledgements and retransmissions, the fraction of frames
//! that cause interrupts, and the CPU time spent in the protocol. Every
//! counter needed for Figures 2–6 lives here.

use netsim::Dur;

/// Per-node (and aggregable) protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtoStats {
    /// Remote-write operations issued.
    pub ops_write: u64,
    /// Remote-read operations issued.
    pub ops_read: u64,
    /// Payload bytes carried by issued writes.
    pub bytes_written: u64,
    /// Payload bytes requested by issued reads.
    pub bytes_read: u64,

    /// Data-bearing frames sent first time (writes, read responses).
    pub data_frames_sent: u64,
    /// Payload bytes in those frames.
    pub data_bytes_sent: u64,
    /// Read-request frames sent.
    pub read_req_frames_sent: u64,
    /// Explicit (non-piggybacked) positive acknowledgements sent.
    pub explicit_acks_sent: u64,
    /// Negative acknowledgements sent.
    pub nacks_sent: u64,
    /// Frames retransmitted due to a NACK.
    pub retransmits_nack: u64,
    /// Frames retransmitted by the coarse timeout.
    pub retransmits_rto: u64,
    /// Deepest consecutive exponential-backoff level the adaptive
    /// retransmission timer reached (0 = never backed off): a stalled
    /// connection shows up here instead of silently retrying forever.
    pub rto_backoff_max: u64,
    /// Rails this node's connections declared dead (excluded from
    /// striping). Matches the `rail_down` trace events.
    pub rail_down_events: u64,
    /// Dead rails re-admitted after a successful probe. Matches the
    /// `rail_up` trace events.
    pub rail_up_events: u64,

    /// Data-bearing frames received (first copies only).
    pub data_frames_recv: u64,
    /// Payload bytes in those frames (first copies only) — the numerator
    /// for goodput measurements.
    pub data_bytes_recv: u64,
    /// Control frames received (ACK/NACK).
    pub ctrl_frames_recv: u64,
    /// Duplicate frames received (unnecessary retransmissions).
    pub dup_frames_recv: u64,
    /// Frames whose sequence was not the next expected at arrival — the
    /// paper's out-of-order metric.
    pub ooo_arrivals: u64,
    /// Frames discarded because they arrived damaged (checksum).
    pub corrupt_frames: u64,

    /// Receive events that raised an interrupt (protocol thread was idle).
    pub rx_interrupts: u64,
    /// Receive events absorbed by polling (protocol thread already active).
    pub rx_coalesced: u64,
    /// Transmit completions that raised an interrupt.
    pub tx_interrupts: u64,
    /// Transmit completions absorbed by polling.
    pub tx_coalesced: u64,

    /// Completion notifications delivered to the application.
    pub notifications: u64,
    /// Peak number of fragments buffered for fence reasons.
    pub reorder_peak: u64,
}

impl ProtoStats {
    /// Sum two stat blocks (for cluster-wide aggregation).
    pub fn merge(&mut self, o: &ProtoStats) {
        self.ops_write += o.ops_write;
        self.ops_read += o.ops_read;
        self.bytes_written += o.bytes_written;
        self.bytes_read += o.bytes_read;
        self.data_frames_sent += o.data_frames_sent;
        self.data_bytes_sent += o.data_bytes_sent;
        self.read_req_frames_sent += o.read_req_frames_sent;
        self.explicit_acks_sent += o.explicit_acks_sent;
        self.nacks_sent += o.nacks_sent;
        self.retransmits_nack += o.retransmits_nack;
        self.retransmits_rto += o.retransmits_rto;
        self.rto_backoff_max = self.rto_backoff_max.max(o.rto_backoff_max);
        self.rail_down_events += o.rail_down_events;
        self.rail_up_events += o.rail_up_events;
        self.data_frames_recv += o.data_frames_recv;
        self.data_bytes_recv += o.data_bytes_recv;
        self.ctrl_frames_recv += o.ctrl_frames_recv;
        self.dup_frames_recv += o.dup_frames_recv;
        self.ooo_arrivals += o.ooo_arrivals;
        self.corrupt_frames += o.corrupt_frames;
        self.rx_interrupts += o.rx_interrupts;
        self.rx_coalesced += o.rx_coalesced;
        self.tx_interrupts += o.tx_interrupts;
        self.tx_coalesced += o.tx_coalesced;
        self.notifications += o.notifications;
        self.reorder_peak = self.reorder_peak.max(o.reorder_peak);
    }

    /// Every monotonically non-decreasing counter, paired with a stable
    /// name, in declaration order. This is the registration list for
    /// time-resolved telemetry: interval deltas of exactly these fields
    /// telescope back to the end-of-run aggregate (the max-merged
    /// `rto_backoff_max` / `reorder_peak` gauges are excluded — their
    /// deltas would not sum to anything meaningful).
    pub fn monotone_counters(&self) -> [(&'static str, u64); 24] {
        [
            ("ops_write", self.ops_write),
            ("ops_read", self.ops_read),
            ("bytes_written", self.bytes_written),
            ("bytes_read", self.bytes_read),
            ("data_frames_sent", self.data_frames_sent),
            ("data_bytes_sent", self.data_bytes_sent),
            ("read_req_frames_sent", self.read_req_frames_sent),
            ("explicit_acks_sent", self.explicit_acks_sent),
            ("nacks_sent", self.nacks_sent),
            ("retransmits_nack", self.retransmits_nack),
            ("retransmits_rto", self.retransmits_rto),
            ("rail_down_events", self.rail_down_events),
            ("rail_up_events", self.rail_up_events),
            ("data_frames_recv", self.data_frames_recv),
            ("data_bytes_recv", self.data_bytes_recv),
            ("ctrl_frames_recv", self.ctrl_frames_recv),
            ("dup_frames_recv", self.dup_frames_recv),
            ("ooo_arrivals", self.ooo_arrivals),
            ("corrupt_frames", self.corrupt_frames),
            ("rx_interrupts", self.rx_interrupts),
            ("rx_coalesced", self.rx_coalesced),
            ("tx_interrupts", self.tx_interrupts),
            ("tx_coalesced", self.tx_coalesced),
            ("notifications", self.notifications),
        ]
    }

    /// Total retransmitted frames.
    pub fn retransmits(&self) -> u64 {
        self.retransmits_nack + self.retransmits_rto
    }

    /// "Extra frames" as the paper defines them: explicit ACKs, NACKs and
    /// retransmissions, as a fraction of data frames sent.
    pub fn extra_frame_fraction(&self) -> f64 {
        if self.data_frames_sent == 0 {
            return 0.0;
        }
        (self.explicit_acks_sent + self.nacks_sent + self.retransmits()) as f64
            / self.data_frames_sent as f64
    }

    /// Fraction of received data frames that arrived out of order.
    pub fn ooo_fraction(&self) -> f64 {
        if self.data_frames_recv == 0 {
            return 0.0;
        }
        self.ooo_arrivals as f64 / self.data_frames_recv as f64
    }

    /// Fraction of receive-path events that raised an interrupt (the
    /// complement of the coalescing win).
    pub fn rx_interrupt_fraction(&self) -> f64 {
        let total = self.rx_interrupts + self.rx_coalesced;
        if total == 0 {
            return 0.0;
        }
        self.rx_interrupts as f64 / total as f64
    }

    /// Fraction of transmit completions that raised an interrupt.
    pub fn tx_interrupt_fraction(&self) -> f64 {
        let total = self.tx_interrupts + self.tx_coalesced;
        if total == 0 {
            return 0.0;
        }
        self.tx_interrupts as f64 / total as f64
    }
}

/// CPU accounting snapshot for one node.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSnapshot {
    /// Busy time of the application CPU (syscalls, copies, op initiation).
    pub app_busy: Dur,
    /// Busy time of the protocol CPU (interrupts, receive path, timers).
    pub proto_busy: Dur,
}

impl CpuSnapshot {
    /// Combined utilization out of 2.0 (the paper plots out of 200%).
    pub fn utilization_of_two(&self, elapsed: Dur) -> f64 {
        if elapsed.as_nanos() == 0 {
            return 0.0;
        }
        (self.app_busy.as_nanos() + self.proto_busy.as_nanos()) as f64 / elapsed.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions() {
        let s = ProtoStats {
            data_frames_sent: 100,
            explicit_acks_sent: 3,
            nacks_sent: 1,
            retransmits_nack: 1,
            retransmits_rto: 0,
            data_frames_recv: 50,
            ooo_arrivals: 25,
            rx_interrupts: 10,
            rx_coalesced: 40,
            ..Default::default()
        };
        assert!((s.extra_frame_fraction() - 0.05).abs() < 1e-12);
        assert!((s.ooo_fraction() - 0.5).abs() < 1e-12);
        assert!((s.rx_interrupt_fraction() - 0.2).abs() < 1e-12);
        assert_eq!(s.retransmits(), 1);
    }

    #[test]
    fn zero_denominators_are_safe() {
        let s = ProtoStats::default();
        assert_eq!(s.extra_frame_fraction(), 0.0);
        assert_eq!(s.ooo_fraction(), 0.0);
        assert_eq!(s.rx_interrupt_fraction(), 0.0);
        assert_eq!(s.tx_interrupt_fraction(), 0.0);
    }

    /// `(field name, value)` of every field, read off the `Debug` rendering
    /// so that a field added to the struct shows up here unasked.
    fn fields(s: &ProtoStats) -> Vec<(String, u64)> {
        let text = format!("{s:?}");
        let body = text
            .trim_start_matches("ProtoStats {")
            .trim_end_matches('}');
        let field = |f: &str| {
            let (name, v) = f.trim().split_once(": ").expect("name: value");
            (name.to_string(), v.parse().expect("u64 field"))
        };
        body.split(',').map(field).collect()
    }

    /// The two peaks [`ProtoStats::merge`] maxes; everything else sums.
    const PEAKS: [&str; 2] = ["rto_backoff_max", "reorder_peak"];

    #[test]
    fn every_field_is_registered_as_a_counter_or_a_peak() {
        let stats = ProtoStats::default();
        let counters = stats.monotone_counters().map(|(name, _)| name);
        for (name, _) in fields(&stats) {
            let (counter, peak) = (counters.contains(&&*name), PEAKS.contains(&&*name));
            assert!(
                counter != peak,
                "{name}: in monotone_counters() xor a max-merged peak"
            );
        }
        assert_eq!(counters.len() + PEAKS.len(), fields(&stats).len());
    }

    #[test]
    fn merge_sums_and_maxes() {
        // Exhaustive on purpose (no `..`): a new field does not compile
        // here until it has a prime, and then `merge` must handle it.
        let primes = ProtoStats {
            ops_write: 2,
            ops_read: 3,
            bytes_written: 5,
            bytes_read: 7,
            data_frames_sent: 11,
            data_bytes_sent: 13,
            read_req_frames_sent: 17,
            explicit_acks_sent: 19,
            nacks_sent: 23,
            retransmits_nack: 29,
            retransmits_rto: 31,
            rto_backoff_max: 37,
            rail_down_events: 41,
            rail_up_events: 43,
            data_frames_recv: 47,
            data_bytes_recv: 53,
            ctrl_frames_recv: 59,
            dup_frames_recv: 61,
            ooo_arrivals: 67,
            corrupt_frames: 71,
            rx_interrupts: 73,
            rx_coalesced: 79,
            tx_interrupts: 83,
            tx_coalesced: 89,
            notifications: 97,
            reorder_peak: 101,
        };
        let mut merged = ProtoStats::default();
        merged.merge(&primes);
        assert_eq!(merged, primes, "merging into zero must copy every field");
        merged.merge(&primes);
        for ((name, got), (_, p)) in fields(&merged).into_iter().zip(fields(&primes)) {
            let want = if PEAKS.contains(&&*name) { p } else { 2 * p };
            assert_eq!(got, want, "{name}");
        }
    }

    #[test]
    fn cpu_utilization_of_two() {
        let c = CpuSnapshot {
            app_busy: netsim::time::us(50),
            proto_busy: netsim::time::us(100),
        };
        assert!((c.utilization_of_two(netsim::time::us(100)) - 1.5).abs() < 1e-12);
    }
}
