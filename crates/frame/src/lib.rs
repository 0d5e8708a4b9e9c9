//! MultiEdge wire format.
//!
//! This crate defines everything that crosses the simulated wire: the
//! Ethernet-level addressing ([`MacAddr`]), the MultiEdge protocol header
//! ([`FrameHeader`]), the full frame ([`Frame`]) and the binary codec used to
//! serialize frames onto (and parse them off of) raw Ethernet payloads.
//!
//! MultiEdge (Karlsson et al., IPPS 2007) runs directly on raw Ethernet
//! frames — there is no IP or TCP layer. A single fixed-size header carries:
//!
//! * the connection identifier,
//! * a per-direction **frame sequence number** used by the sliding-window
//!   flow control,
//! * a **piggybacked cumulative acknowledgement** for the reverse direction
//!   (every data frame carries positive-ACK information, §2.4 of the paper),
//! * the **operation id** and destination virtual address of the RDMA
//!   fragment the frame carries, and
//! * the **fence flags** controlling out-of-order delivery (§2.5).
//!
//! The codec is deliberately explicit (no `serde` on the wire) so that header
//! layout, sizes and the checksum are under test and stable.

#![warn(missing_docs)]

pub mod codec;
pub mod fasthash;
pub mod fcs;
pub mod header;
pub mod mac;
pub mod nack;

pub use codec::{
    decode_frame, decode_frame_shared, encode_frame, encode_frame_into, encode_frame_to_slice,
    CodecError,
};
pub use fasthash::{FastHasher, FastMap};
pub use header::{FrameFlags, FrameHeader, FrameKind, HEADER_LEN};
pub use mac::MacAddr;
pub use nack::NackRanges;

use bytes::Bytes;

/// Standard Ethernet MTU in bytes. The paper's switches did not support jumbo
/// frames, so every MultiEdge frame fits in 1500 bytes of Ethernet payload.
pub const ETHERNET_MTU: usize = 1500;

/// Ethernet-level overhead per frame on the wire, in bytes: preamble (7) +
/// SFD (1) + destination/source MAC (12) + ethertype (2) + FCS (4) +
/// inter-frame gap (12). Used by the link model to compute wire occupancy.
pub const ETHERNET_WIRE_OVERHEAD: usize = 38;

/// Minimum Ethernet payload (frames are padded up to this on the wire).
pub const ETHERNET_MIN_PAYLOAD: usize = 46;

/// Maximum MultiEdge payload bytes per frame: MTU minus our header.
pub const MAX_PAYLOAD: usize = ETHERNET_MTU - HEADER_LEN;

/// A full MultiEdge frame: protocol header plus payload.
///
/// The payload is reference-counted ([`Bytes`]) so that retransmission
/// buffers and in-flight copies share one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Ethernet destination (selects node + rail).
    pub dst: MacAddr,
    /// Ethernet source.
    pub src: MacAddr,
    /// MultiEdge protocol header.
    pub header: FrameHeader,
    /// Fragment payload (data frames) or auxiliary payload (NACK ranges).
    pub payload: Bytes,
}

impl Frame {
    /// Bytes of Ethernet payload this frame occupies (header + payload,
    /// padded to the Ethernet minimum).
    pub fn ethernet_payload_len(&self) -> usize {
        (HEADER_LEN + self.payload.len()).max(ETHERNET_MIN_PAYLOAD)
    }

    /// Total bytes of wire time this frame consumes, including preamble,
    /// MACs, FCS and inter-frame gap.
    pub fn wire_len(&self) -> usize {
        self.ethernet_payload_len() + ETHERNET_WIRE_OVERHEAD
    }

    /// True if this frame carries RDMA data (write fragment or read
    /// response fragment).
    pub fn is_data(&self) -> bool {
        matches!(self.header.kind, FrameKind::Data | FrameKind::ReadResponse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_includes_overhead_and_padding() {
        let f = Frame {
            dst: MacAddr::new(1, 0),
            src: MacAddr::new(0, 0),
            header: FrameHeader::default(),
            payload: Bytes::new(),
        };
        // Header alone is below the Ethernet minimum payload; the frame is
        // padded to 46 bytes and then the fixed 38-byte overhead applies.
        assert_eq!(
            f.ethernet_payload_len(),
            ETHERNET_MIN_PAYLOAD.max(HEADER_LEN)
        );
        assert_eq!(
            f.wire_len(),
            f.ethernet_payload_len() + ETHERNET_WIRE_OVERHEAD
        );
    }

    #[test]
    fn max_payload_fits_mtu() {
        assert_eq!(MAX_PAYLOAD + HEADER_LEN, ETHERNET_MTU);
        const { assert!(MAX_PAYLOAD > 1400, "header overhead should be small") }
    }
}
