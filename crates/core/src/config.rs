//! Protocol configuration, host cost model, and the paper's system setups.

use netsim::time::{ms, us, us_f64, Dur};
use netsim::{ChannelParams, FaultModel};

/// The fallback for a gap that cannot be proven lost: how long it may
/// persist before a NACK is sent. A gap that every rail has passed (each
/// rail delivers in order, and each has delivered a later sequence) is
/// lost, not late, and is NACKed at once. Its NACK is repeated once the
/// repair is overdue: after the receiver's measured repair round trip
/// ([`crate::rtt::RepairEstimator`]), doubled per repeat, never later than
/// this delay, and exactly this delay until a first repair has been timed.
/// A gap with no such proof (a rail the peer stopped using, a tail loss)
/// waits this delay out, so multi-link skew never triggers spurious
/// retransmissions: it is above the worst-case multi-rail skew (≈
/// window/rails × frame time ≈ 1.6 ms at 1 GbE), yet far below the 10 ms
/// coarse timeout.
pub const NACK_DELAY: Dur = ms(2);

/// Minimum spacing between NACKs for the same missing range when the gap
/// was not proven lost (a proven one's repeats follow the repair interval,
/// see [`NACK_DELAY`]).
pub const NACK_REPEAT: Dur = ms(4);

/// Send an explicit ACK after this much time with acknowledgement state
/// pending, if `ack_every` frames have not arrived first.
pub const DELAYED_ACK_TIMEOUT: Dur = us(300);

/// Initial coarse-grain retransmission timeout, used until the adaptive
/// RFC 6298-style estimator ([`crate::rtt::RttEstimator`]) has its first
/// RTT sample. If no acknowledgement progress happens for the current
/// (adaptive, backed-off) timeout while frames are unacknowledged, the last
/// transmitted frame is retransmitted (§2.4).
pub const RTO_INITIAL: Dur = ms(10);

/// Lower clamp on the adaptive retransmission timeout. Kept at or above
/// [`NACK_DELAY`] so ordinary multi-rail skew is always recovered by the
/// cheaper NACK path first.
pub const RTO_MIN: Dur = ms(2);

/// Consecutive losses attributed to one rail after which it is marked
/// *degraded* (visible in health state; still striped onto).
pub const RAIL_DEGRADED_AFTER: u32 = 3;

/// RTO backoff exponent at which the endpoint is treated as facing an
/// unreachable peer: the wire driver's watchdog reports
/// `WireError::PeerUnreachable` once backoff reaches this value, and the
/// flight recorder notes every backoff on the way there. 10 doublings from
/// [`RTO_MIN`] is ≈ 2 s of silence at the default clamps — far past any
/// recoverable loss pattern.
pub const RTO_STORM_CAP: u32 = 10;

/// Flow-control / reliability parameters (§2.4 of the paper).
#[derive(Debug, Clone)]
pub struct ProtoConfig {
    /// Sliding-window size in frames (fixed at "compile time" in the paper;
    /// a config knob here so the window-sweep ablation can vary it).
    pub window: u64,
    /// Send an explicit ACK after this many unacknowledged data frames (or
    /// after [`DELAYED_ACK_TIMEOUT`]).
    pub ack_every: u32,
    /// Upper clamp on the adaptive timeout after exponential backoff
    /// ([`RTO_MIN`] is the lower one).
    pub rto_max: Dur,
    /// Consecutive attributed losses after which a rail is declared *dead*
    /// and excluded from striping until a re-admission probe succeeds.
    pub rail_dead_after: u32,
    /// How long a dead rail sits out before one probe frame may test it for
    /// re-admission.
    pub rail_cooldown: Dur,
    /// Most frames one NACK may trigger retransmissions for. Gaps beyond
    /// the cap are recovered by the receiver's repeated NACKs (paced by
    /// the repair interval, see [`NACK_DELAY`], or by [`NACK_REPEAT`]), so
    /// a single control frame can never unleash a full-window retransmit
    /// burst onto an already-lossy fabric.
    pub nack_resend_burst: u32,
    /// Force both fences on every operation (the paper's strictly-ordered
    /// 2L mode, as opposed to the relaxed 2Lu mode).
    pub force_ordered: bool,
    /// Link-scheduling policy for spatial parallelism (§2.5; the paper uses
    /// round-robin — alternatives exist for the scheduling ablation).
    pub sched: crate::sched::SchedPolicy,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        Self {
            // Far above the per-stream bandwidth-delay product (~3 frames
            // at 1 GbE) but small enough that many-to-one application
            // traffic cannot swamp a switch output buffer.
            window: 64,
            ack_every: 24,
            rto_max: ms(100),
            rail_dead_after: 8,
            rail_cooldown: ms(20),
            // Half the default window: one NACK recovers a burst loss in
            // two paced rounds instead of one unbounded salvo.
            nack_resend_burst: 32,
            force_ordered: false,
            sched: crate::sched::SchedPolicy::RoundRobin,
        }
    }
}

/// Calibrated host-side costs of the kernel data path (§2.3).
///
/// Defaults are tuned so the micro-benchmarks land on the paper's headline
/// numbers (≈120 MB/s on 1L-1G, ≈240 MB/s on 2L-1G, ≈1100 MB/s on 1L-10G,
/// ≈30 µs minimum ping-pong latency, ≈2 µs host overhead per operation).
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Entering/leaving the kernel for one operation.
    pub syscall: Dur,
    /// User↔kernel copy bandwidth in bytes/s (both send and receive copies).
    pub copy_bytes_per_sec: f64,
    /// Building one Ethernet + MultiEdge header.
    pub frame_build: Dur,
    /// Posting one DMA descriptor.
    pub dma_post: Dur,
    /// Interrupt entry + handler prologue.
    pub interrupt: Dur,
    /// Waking the protocol kernel thread after an interrupt.
    pub kthread_wake: Dur,
    /// Per-frame receive-path protocol work (header parse, window update).
    pub rx_frame_proc: Dur,
    /// Per-frame transmit-completion processing (freeing send buffers).
    pub tx_complete_proc: Dur,
    /// Waking a user task blocked on a handle or notification.
    pub app_wake: Dur,
    /// NIC interrupt moderation (the Tigon3/Myricom `rx-usecs` timer): when
    /// the protocol thread is idle, a newly arrived event arms a hardware
    /// timer and the interrupt fires only after this delay, batching
    /// everything that arrived meanwhile.
    pub rx_irq_delay: Dur,
    /// NIC interrupt moderation frame cap (`rx-frames`): the interrupt
    /// fires early once this many events are pending.
    pub rx_irq_frames: usize,
    /// The 10-GbE NIC cannot mask send-completion interrupts (§4): when
    /// true, an additional per-frame tax is charged on the send path,
    /// modeling the sender-side overhead the paper measured.
    pub unmaskable_tx_irq: bool,
    /// Extra per-frame send-path cost when `unmaskable_tx_irq` (models the
    /// sender-side overhead the paper blames for the missing 12% at 10 Gbit).
    pub tx_irq_send_tax: Dur,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            syscall: us_f64(0.7),
            copy_bytes_per_sec: 2.6e9,
            frame_build: us_f64(0.25),
            dma_post: us_f64(0.3),
            interrupt: us_f64(2.0),
            kthread_wake: us_f64(1.5),
            rx_frame_proc: us_f64(0.6),
            tx_complete_proc: us_f64(0.2),
            app_wake: us_f64(1.0),
            rx_irq_delay: us_f64(16.0),
            rx_irq_frames: 8,
            unmaskable_tx_irq: false,
            tx_irq_send_tax: us_f64(0.2),
        }
    }
}

impl CostModel {
    /// Cost model for the Myricom 10-GbE NIC (send-path interrupts on).
    pub fn gbe_10() -> Self {
        Self {
            unmaskable_tx_irq: true,
            ..Self::default()
        }
    }

    /// Time to copy `bytes` between user and kernel space.
    pub fn copy_cost(&self, bytes: usize) -> Dur {
        Dur::for_bytes(bytes, self.copy_bytes_per_sec)
    }
}

/// A complete experimental setup: cluster shape + link + costs + protocol.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Short name used in reports ("1L-1G", "2L-1G", "2Lu-1G", "1L-10G").
    pub name: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of rails (links per connection).
    pub rails: usize,
    /// Link parameters.
    pub link: ChannelParams,
    /// Per-frame switch forwarding delay.
    pub switch_delay: Dur,
    /// Transient-fault model.
    pub fault: FaultModel,
    /// Host cost model.
    pub cost: CostModel,
    /// Protocol parameters.
    pub proto: ProtoConfig,
    /// RNG seed for the run.
    pub seed: u64,
    /// Event-trace ring capacity. `0` (the default everywhere) disables
    /// tracing entirely: every instrumentation point in the endpoint and
    /// the simulator collapses to a single branch. A non-zero value makes
    /// each [`crate::Endpoint`] record the latest that many typed protocol
    /// events plus latency histograms (see the `me-trace` crate).
    pub trace_ring: usize,
    /// Completed-span ring capacity for causal op spans. `0` (the default)
    /// disables the span layer; a non-zero value makes every endpoint in
    /// the cluster stamp per-op milestones into one shared
    /// [`me_trace::SpanRecorder`], retaining the latest that many completed
    /// spans for critical-path attribution.
    pub spans: usize,
    /// Always-on flight recorder. `None` (the default) disables it; `Some`
    /// arms a shared bounded event ring with trigger-based post-mortem
    /// dumps (see [`me_trace::FlightConfig`]).
    pub flight: Option<me_trace::FlightConfig>,
}

impl SystemConfig {
    fn base(name: &str, nodes: usize, rails: usize, link: ChannelParams, cost: CostModel) -> Self {
        Self {
            name: name.to_string(),
            nodes,
            rails,
            link,
            switch_delay: us_f64(1.0),
            fault: FaultModel::default(),
            cost,
            proto: ProtoConfig::default(),
            seed: 1,
            trace_ring: 0,
            spans: 0,
            flight: None,
        }
    }

    /// Enable protocol-event tracing with a ring of `capacity` events.
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        self.trace_ring = capacity;
        self
    }

    /// Enable causal op spans, retaining the latest `capacity` completed
    /// spans for attribution.
    pub fn with_spans(mut self, capacity: usize) -> Self {
        self.spans = capacity;
        self
    }

    /// Arm the always-on flight recorder.
    pub fn with_flight(mut self, cfg: me_trace::FlightConfig) -> Self {
        self.flight = Some(cfg);
        self
    }

    /// The paper's **1L-1G**: one 1-GbE rail.
    pub fn one_link_1g(nodes: usize) -> Self {
        Self::base(
            "1L-1G",
            nodes,
            1,
            ChannelParams::gbe_1(),
            CostModel::default(),
        )
    }

    /// The paper's **2L-1G**: two 1-GbE rails, strictly ordered delivery.
    pub fn two_link_1g(nodes: usize) -> Self {
        let mut c = Self::base(
            "2L-1G",
            nodes,
            2,
            ChannelParams::gbe_1(),
            CostModel::default(),
        );
        c.proto.force_ordered = true;
        c
    }

    /// The paper's **2Lu-1G**: two 1-GbE rails, out-of-order delivery
    /// allowed wherever the application does not fence.
    pub fn two_link_1g_unordered(nodes: usize) -> Self {
        let mut c = Self::base(
            "2Lu-1G",
            nodes,
            2,
            ChannelParams::gbe_1(),
            CostModel::default(),
        );
        c.name = "2Lu-1G".to_string();
        c
    }

    /// The paper's **1L-10G**: one 10-GbE rail.
    pub fn one_link_10g(nodes: usize) -> Self {
        Self::base(
            "1L-10G",
            nodes,
            1,
            ChannelParams::gbe_10(),
            CostModel::gbe_10(),
        )
    }

    /// The paper's **4L-1G**: four 1-GbE rails, out-of-order delivery
    /// allowed wherever the application does not fence.
    pub fn four_link_1g(nodes: usize) -> Self {
        Self::base(
            "4L-1G",
            nodes,
            4,
            ChannelParams::gbe_1(),
            CostModel::default(),
        )
    }

    /// Nominal unidirectional link payload ceiling in MB/s (all rails),
    /// i.e. the figure the paper calls "nominal link throughput".
    pub fn nominal_mb_s(&self) -> f64 {
        self.link.bytes_per_sec * self.rails as f64 / 1e6
    }

    /// The netsim cluster spec for this configuration. The network's fault
    /// RNG seed is derived deterministically from [`Self::seed`], so the
    /// same config seed reproduces the same loss/corruption/burst pattern.
    pub fn cluster_spec(&self) -> netsim::ClusterSpec {
        netsim::ClusterSpec {
            nodes: self.nodes,
            rails: self.rails,
            link: self.link,
            switch_delay: self.switch_delay,
            fault: self.fault,
            fault_seed: self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA17,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_setups() {
        let a = SystemConfig::one_link_1g(16);
        assert_eq!((a.nodes, a.rails), (16, 1));
        assert!((a.nominal_mb_s() - 125.0).abs() < 1e-9);

        let b = SystemConfig::two_link_1g(16);
        assert_eq!(b.rails, 2);
        assert!(b.proto.force_ordered);
        assert!((b.nominal_mb_s() - 250.0).abs() < 1e-9);

        let bu = SystemConfig::two_link_1g_unordered(16);
        assert!(!bu.proto.force_ordered);

        let c = SystemConfig::one_link_10g(4);
        assert_eq!((c.nodes, c.rails), (4, 1));
        assert!(c.cost.unmaskable_tx_irq);
        assert!((c.nominal_mb_s() - 1250.0).abs() < 1e-9);
    }

    #[test]
    fn copy_cost_scales_linearly() {
        let cm = CostModel::default();
        assert_eq!(cm.copy_cost(0), Dur::ZERO);
        let c1 = cm.copy_cost(4096);
        let c2 = cm.copy_cost(8192);
        assert!(c2.as_nanos() >= 2 * c1.as_nanos() - 2);
        assert!(c2.as_nanos() <= 2 * c1.as_nanos() + 2);
    }
}
