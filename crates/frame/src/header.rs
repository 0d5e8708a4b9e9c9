//! The MultiEdge protocol header.

/// Serialized header size in bytes (fixed layout, see [`crate::codec`]).
pub const HEADER_LEN: usize = 50;

/// What a frame is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrameKind {
    /// Fragment of a remote-write operation.
    Data = 0,
    /// Explicit positive acknowledgement (header-only).
    Ack = 1,
    /// Negative acknowledgement; payload carries missing sequence ranges.
    Nack = 2,
    /// Remote-read request: `remote_addr` is the address to read at the
    /// target, `aux` the initiator address the response must land at.
    ReadRequest = 3,
    /// Fragment of a remote-read response (flows target → initiator).
    ReadResponse = 4,
    /// Connection setup handshake.
    Connect = 5,
    /// Connection setup acknowledgement.
    ConnectAck = 6,
}

impl FrameKind {
    /// Parse from the wire byte.
    pub fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            0 => Self::Data,
            1 => Self::Ack,
            2 => Self::Nack,
            3 => Self::ReadRequest,
            4 => Self::ReadResponse,
            5 => Self::Connect,
            6 => Self::ConnectAck,
            _ => return None,
        })
    }
}

/// A tiny local `bitflags`-style macro so we do not pull in an extra
/// dependency for one type.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $(
                $(#[$fmeta:meta])*
                const $flag:ident = $val:expr;
            )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name(pub $ty);

        impl $name {
            $(
                $(#[$fmeta])*
                pub const $flag: Self = Self($val);
            )*

            /// No flags set.
            pub const fn empty() -> Self {
                Self(0)
            }

            /// True if every bit of `other` is set in `self`.
            pub const fn contains(self, other: Self) -> bool {
                self.0 & other.0 == other.0
            }

            /// Raw bits.
            pub const fn bits(self) -> $ty {
                self.0
            }

            /// Construct from raw bits (unknown bits preserved).
            pub const fn from_bits(bits: $ty) -> Self {
                Self(bits)
            }
        }

        impl core::ops::BitOr for $name {
            type Output = Self;
            fn bitor(self, rhs: Self) -> Self {
                Self(self.0 | rhs.0)
            }
        }

        impl core::ops::BitOrAssign for $name {
            fn bitor_assign(&mut self, rhs: Self) {
                self.0 |= rhs.0;
            }
        }

        impl core::ops::BitAnd for $name {
            type Output = Self;
            fn bitand(self, rhs: Self) -> Self {
                Self(self.0 & rhs.0)
            }
        }
    };
}

bitflags_lite! {
    /// Per-frame option bits.
    ///
    /// `FENCE_BACKWARD` / `FENCE_FORWARD` implement the paper's §2.5 ordering
    /// flags; they are properties of the *operation* and are replicated into
    /// every frame of that operation. `NOTIFY` requests a completion
    /// notification at the remote node once the whole operation has been
    /// applied. `RETRANSMIT` marks repair traffic: a retransmitted frame, or
    /// the ack its arrival triggered when it filled a gap. A transmitter
    /// with priority bands sends it ahead of queued data, and a receiver
    /// takes a retransmission's arrival as no proof of the order of its
    /// rail. `ACK_REQUEST` on a write's last fragment asks the receiver for
    /// an explicit ack as soon as its cumulative ack covers the frame,
    /// instead of after the delayed-ack timer: the sender sets it when the
    /// write is the only op outstanding on its connection and does not
    /// notify, so no other frame would carry the ack back soon.
    pub struct FrameFlags: u16 {
        /// This operation must not be applied before any earlier operation.
        const FENCE_BACKWARD = 1 << 0;
        /// No later operation may be applied before this one.
        const FENCE_FORWARD = 1 << 1;
        /// Notify the remote application once the operation is applied.
        const NOTIFY = 1 << 2;
        /// Repair traffic: a retransmitted frame, or the ack its arrival
        /// triggered.
        const RETRANSMIT = 1 << 3;
        /// First fragment of its operation.
        const FIRST_FRAGMENT = 1 << 4;
        /// Last fragment of its operation.
        const LAST_FRAGMENT = 1 << 5;
        /// Ack this frame as soon as the cumulative ack covers it.
        const ACK_REQUEST = 1 << 6;
    }
}

/// MultiEdge protocol header, carried in every frame.
///
/// Sequence numbers (`seq`) are per connection *direction* and wrap modulo
/// 2^32; window arithmetic uses wrapping comparisons. `ack` is cumulative:
/// "I have received and applied every frame with sequence `< ack`". Every
/// frame — data or control — piggybacks `ack` for the reverse direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Frame purpose.
    pub kind: FrameKind,
    /// Option bits.
    pub flags: FrameFlags,
    /// Connection identifier (index into the receiver's connection table).
    pub conn: u32,
    /// Per-direction frame sequence number (data-bearing kinds only;
    /// control frames carry the sender's next unsent sequence).
    pub seq: u32,
    /// Piggybacked cumulative acknowledgement for the reverse direction.
    pub ack: u32,
    /// Operation this fragment belongs to (monotonic per direction).
    pub op_id: u32,
    /// Total payload bytes of the whole operation (so any fragment lets the
    /// receiver track operation completion).
    pub op_total_len: u32,
    /// Fence floor: every operation with id below this value must be fully
    /// applied at the receiver before this frame's operation may be applied.
    /// The sender sets it to one past the most recent forward-fenced
    /// operation issued before this one, which lets the receiver honour
    /// forward fences even when earlier operations have not arrived yet.
    pub fence_floor: u32,
    /// Destination virtual address of this fragment at the receiver
    /// (for `ReadRequest`: the address to read at the target).
    pub remote_addr: u64,
    /// Auxiliary address: for `ReadRequest`, the initiator-side buffer the
    /// response data must be written to; unused otherwise.
    pub aux: u64,
}

impl Default for FrameHeader {
    fn default() -> Self {
        Self {
            kind: FrameKind::Data,
            flags: FrameFlags::empty(),
            conn: 0,
            seq: 0,
            ack: 0,
            op_id: 0,
            op_total_len: 0,
            fence_floor: 0,
            remote_addr: 0,
            aux: 0,
        }
    }
}

impl FrameHeader {
    /// True if the operation carries both fences (fully ordered operation).
    pub fn strictly_ordered(&self) -> bool {
        self.flags
            .contains(FrameFlags::FENCE_BACKWARD | FrameFlags::FENCE_FORWARD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trip() {
        for k in [
            FrameKind::Data,
            FrameKind::Ack,
            FrameKind::Nack,
            FrameKind::ReadRequest,
            FrameKind::ReadResponse,
            FrameKind::Connect,
            FrameKind::ConnectAck,
        ] {
            assert_eq!(FrameKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(FrameKind::from_u8(200), None);
    }

    #[test]
    fn flags_ops() {
        let f = FrameFlags::FENCE_BACKWARD | FrameFlags::NOTIFY;
        assert!(f.contains(FrameFlags::FENCE_BACKWARD));
        assert!(f.contains(FrameFlags::NOTIFY));
        assert!(!f.contains(FrameFlags::FENCE_FORWARD));
        assert!(!f.contains(FrameFlags::FENCE_BACKWARD | FrameFlags::FENCE_FORWARD));
    }

    #[test]
    fn strictly_ordered_requires_both_fences() {
        let mut h = FrameHeader::default();
        assert!(!h.strictly_ordered());
        h.flags = FrameFlags::FENCE_BACKWARD;
        assert!(!h.strictly_ordered());
        h.flags = FrameFlags::FENCE_BACKWARD | FrameFlags::FENCE_FORWARD;
        assert!(h.strictly_ordered());
    }
}
