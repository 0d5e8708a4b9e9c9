//! Typed protocol events and their timestamped envelope: the one event
//! vocabulary the tracer and the flight recorder both keep.

use crate::detect::IncidentCause;
use crate::json::Json;

/// What happened. One variant per protocol event class the paper's
/// evaluation reasons about, plus the liveness and health trips that
/// trigger post-mortems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The connection this event names was set up toward `peer_conn` on
    /// `peer_node`: the key that ties a receive-side event to the op's
    /// origin.
    Connect {
        /// Node at the other end.
        peer_node: u32,
        /// The other end's id for this connection.
        peer_conn: u32,
    },
    /// An RDMA operation (write/read) was issued by the application.
    OpIssue {
        /// Operation id (per-connection, monotonically increasing).
        op: u64,
        /// Bytes written, or requested by a read.
        bytes: u64,
        /// When the application asked (before the initiation cost), ns.
        created_ns: u64,
        /// A remote read (else a remote write).
        read: bool,
    },
    /// The protocol finished with an operation: a write's covering ack
    /// arrived, or a read's response data was applied. The application
    /// learns of it later ([`EventKind::OpComplete`]).
    OpDone {
        /// Operation id.
        op: u64,
    },
    /// The application learned an operation completed.
    OpComplete {
        /// Operation id.
        op: u64,
        /// Issue → completion latency in ns.
        latency_ns: u64,
    },
    /// A data-bearing frame (data, read request or read response) was
    /// handed to a NIC.
    FrameSend {
        /// Connection-local sequence number.
        seq: u64,
        /// True when this is a NACK- or RTO-driven retransmission.
        retransmit: bool,
        /// The frame's op, by the 32-bit wire id its origin gave it (a read
        /// response carries the read it answers).
        op: u32,
        /// The frame travels the op's response leg (a read response); its
        /// origin is then the receiving end.
        resp: bool,
        /// The frame can complete its leg: a write's or a response's last
        /// fragment, or a read request.
        critical: bool,
        /// The rail's transmit backlog ahead of the frame, ns.
        backlog_ns: u64,
    },
    /// A data-bearing frame was admitted by the receive path.
    FrameRecv {
        /// Connection-local sequence number.
        seq: u64,
        /// False when the frame arrived ahead of the expected sequence
        /// (an out-of-order arrival in the paper's §4 sense).
        in_order: bool,
        /// As [`EventKind::FrameSend`].
        op: u32,
        /// As [`EventKind::FrameSend`].
        resp: bool,
        /// As [`EventKind::FrameSend`].
        critical: bool,
        /// The receive cumulative sequence after the admission.
        cum: u64,
        /// When this copy of the frame reached the node's NIC, ns.
        arrived_ns: u64,
    },
    /// The target began serving a remote read.
    ReadServe {
        /// The read's id on its initiator.
        op: u64,
    },
    /// A piggybacked cumulative ACK advanced the sender's window.
    AckPiggyback {
        /// The cumulative sequence acknowledged.
        ack: u64,
    },
    /// An explicit (delayed) ACK frame was sent.
    ExplicitAck {
        /// The cumulative sequence acknowledged.
        ack: u64,
    },
    /// A NACK frame reporting persistent gaps was sent.
    NackSend {
        /// The cumulative ack it carries.
        cum: u64,
        /// Number of missing ranges reported.
        gaps: u32,
    },
    /// A NACK frame was received and its ranges queued for retransmit.
    NackRecv {
        /// Number of missing ranges it carried.
        gaps: u32,
    },
    /// The coarse retransmission timeout fired.
    RtoFire {
        /// The sequence retransmitted by the timeout.
        seq: u64,
    },
    /// A fragment could not be applied because a fence held it back.
    FenceStall {
        /// The held op, by its origin's id (a read response: the read it
        /// answers).
        op: u64,
    },
    /// A previously stalled operation became applicable.
    FenceRelease {
        /// The released op, as [`EventKind::FenceStall`].
        op: u64,
        /// How long it was held in the reorder buffer, in ns.
        stalled_ns: u64,
        /// The fence held the op's response leg (a read response).
        resp: bool,
    },
    /// An RX interrupt fired (after NIC moderation) and served a batch.
    RxInterrupt {
        /// Events served by this one interrupt (1 + coalesced).
        batch: u32,
    },
    /// RX events were absorbed by the already-running protocol thread
    /// (the paper's §2.6 polling loop) at zero interrupt cost.
    RxPoll {
        /// Events absorbed without an interrupt.
        batch: u32,
    },
    /// A TX-completion interrupt fired.
    TxInterrupt,
    /// A TX completion was absorbed by polling.
    TxPoll,
    /// The fabric dropped a frame (queue overflow, injected loss, a downed
    /// link).
    FrameDrop {
        /// The channel it was on: a netsim channel id, or the rail on the
        /// wire backends (one channel per rail and direction).
        channel: u32,
        /// Its 32-bit wire sequence number (0 when undecodable).
        seq: u32,
    },
    /// The fabric delivered (or discarded) a frame with damaged bits.
    FrameCorrupt {
        /// As [`EventKind::FrameDrop`].
        channel: u32,
        /// As [`EventKind::FrameDrop`].
        seq: u32,
    },
    /// A scripted fault-plan event was applied by the fabric.
    FaultInjected {
        /// Which kind of fault fired.
        fault: FaultKind,
    },
    /// The sender's rail-health tracker declared the event's rail dead and
    /// excluded it from striping.
    RailDown,
    /// The event's rail passed its re-admission probe and rejoined the
    /// striping rotation.
    RailUp,
    /// The adaptive retransmission timer fired without progress and backed
    /// its timeout off exponentially.
    RtoBackoff {
        /// The new (backed-off) timeout in ns.
        rto_ns: u64,
        /// Consecutive backoffs since the last acknowledgement progress.
        backoff: u32,
    },
    /// A liveness watchdog tripped; the driver is about to surface a fatal
    /// typed error.
    Watchdog {
        /// The typed error's stable discriminant.
        error: u64,
        /// Time without protocol progress, in ns.
        idle_ns: u64,
    },
    /// The health monitor opened an incident.
    Anomaly {
        /// Its probable cause.
        cause: IncidentCause,
        /// Incidents now open.
        open: u32,
    },
}

/// Which scripted fault a [`EventKind::FaultInjected`] event applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A link was forced administratively down.
    LinkDown,
    /// A downed link was restored.
    LinkUp,
    /// A NIC stopped delivering frames for a while (receive-path stall).
    NicStall,
    /// A channel's burst-loss (Gilbert–Elliott) parameters were installed.
    BurstModel,
}

impl FaultKind {
    /// Short stable label (`link_down`, `link_up`, …).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LinkDown => "link_down",
            FaultKind::LinkUp => "link_up",
            FaultKind::NicStall => "nic_stall",
            FaultKind::BurstModel => "burst_model",
        }
    }
}

impl EventKind {
    /// Short stable label for reports and JSON (`frame_send`, `rto_fire`, …).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Connect { .. } => "connect",
            EventKind::OpIssue { .. } => "op_issue",
            EventKind::OpDone { .. } => "op_done",
            EventKind::OpComplete { .. } => "op_complete",
            EventKind::FrameSend { .. } => "frame_send",
            EventKind::FrameRecv { .. } => "frame_recv",
            EventKind::ReadServe { .. } => "read_serve",
            EventKind::AckPiggyback { .. } => "ack_piggyback",
            EventKind::ExplicitAck { .. } => "explicit_ack",
            EventKind::NackSend { .. } => "nack_send",
            EventKind::NackRecv { .. } => "nack_recv",
            EventKind::RtoFire { .. } => "rto_fire",
            EventKind::FenceStall { .. } => "fence_stall",
            EventKind::FenceRelease { .. } => "fence_release",
            EventKind::RxInterrupt { .. } => "rx_interrupt",
            EventKind::RxPoll { .. } => "rx_poll",
            EventKind::TxInterrupt => "tx_interrupt",
            EventKind::TxPoll => "tx_poll",
            EventKind::FrameDrop { .. } => "frame_drop",
            EventKind::FrameCorrupt { .. } => "frame_corrupt",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::RailDown => "rail_down",
            EventKind::RailUp => "rail_up",
            EventKind::RtoBackoff { .. } => "rto_backoff",
            EventKind::Watchdog { .. } => "watchdog",
            EventKind::Anomaly { .. } => "anomaly",
        }
    }

    /// The payload's named fields, in declaration order. Every renderer
    /// reads this one list.
    fn fields(&self) -> Vec<(&'static str, Json)> {
        use EventKind::*;
        let num = |name, v: u64| (name, Json::from(v));
        let flag = |name, v: bool| (name, Json::from(v));
        let label = |name, v: &str| (name, Json::from(v));
        match *self {
            Connect {
                peer_node,
                peer_conn,
            } => {
                vec![
                    num("peer_node", peer_node.into()),
                    num("peer_conn", peer_conn.into()),
                ]
            }
            OpIssue {
                op,
                bytes,
                created_ns,
                read,
            } => {
                let created = num("created_ns", created_ns);
                vec![
                    num("op", op),
                    num("bytes", bytes),
                    created,
                    flag("read", read),
                ]
            }
            OpDone { op } | ReadServe { op } | FenceStall { op } => vec![num("op", op)],
            OpComplete { op, latency_ns } => vec![num("op", op), num("latency_ns", latency_ns)],
            FrameSend {
                seq,
                retransmit,
                op,
                resp,
                critical,
                backlog_ns,
            } => vec![
                num("seq", seq),
                flag("retransmit", retransmit),
                num("op", op.into()),
                flag("resp", resp),
                flag("critical", critical),
                num("backlog_ns", backlog_ns),
            ],
            FrameRecv {
                seq,
                in_order,
                op,
                resp,
                critical,
                cum,
                arrived_ns,
            } => vec![
                num("seq", seq),
                flag("in_order", in_order),
                num("op", op.into()),
                flag("resp", resp),
                flag("critical", critical),
                num("cum", cum),
                num("arrived_ns", arrived_ns),
            ],
            AckPiggyback { ack } | ExplicitAck { ack } => vec![num("ack", ack)],
            NackSend { cum, gaps } => vec![num("cum", cum), num("gaps", gaps.into())],
            NackRecv { gaps } => vec![num("gaps", gaps.into())],
            RtoFire { seq } => vec![num("seq", seq)],
            FenceRelease {
                op,
                stalled_ns,
                resp,
            } => {
                vec![
                    num("op", op),
                    num("stalled_ns", stalled_ns),
                    flag("resp", resp),
                ]
            }
            RxInterrupt { batch } | RxPoll { batch } => vec![num("batch", batch.into())],
            FrameDrop { channel, seq } | FrameCorrupt { channel, seq } => {
                vec![num("channel", channel.into()), num("seq", seq.into())]
            }
            FaultInjected { fault } => vec![label("fault", fault.label())],
            RtoBackoff { rto_ns, backoff } => {
                vec![num("rto_ns", rto_ns), num("backoff", backoff.into())]
            }
            Watchdog { error, idle_ns } => vec![num("error", error), num("idle_ns", idle_ns)],
            Anomaly { cause, open } => {
                vec![label("cause", cause.label()), num("open", open.into())]
            }
            TxInterrupt | TxPoll | RailDown | RailUp => Vec::new(),
        }
    }
}

/// A timestamped, attributed protocol event. `Copy` and at most 64 bytes:
/// recording one is a store into a preallocated ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Time in nanoseconds (simulated, or the wire driver's clock).
    pub t_ns: u64,
    /// The node the event happened on.
    pub node: u32,
    /// Connection id on that node, when the event is connection-attributable.
    pub conn: Option<u32>,
    /// Rail (local NIC index), when the event is rail-attributable.
    pub rail: Option<u32>,
    /// The typed payload.
    pub kind: EventKind,
}

const _: () = assert!(std::mem::size_of::<Event>() <= 64);

impl Event {
    /// The event as one JSON object: `t_ns`, `kind`, `node`, `conn` and
    /// `rail` when set, then the payload's named fields. Trace reports and
    /// flight dumps both write this form.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .set("t_ns", self.t_ns)
            .set("kind", self.kind.label())
            .set("node", self.node);
        if let Some(c) = self.conn {
            j = j.set("conn", c);
        }
        if let Some(r) = self.rail {
            j = j.set("rail", r);
        }
        for (name, v) in self.kind.fields() {
            j = j.set(name, v);
        }
        j
    }
}
