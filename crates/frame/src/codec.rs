//! Binary codec for MultiEdge frames.
//!
//! Layout (little-endian, fixed [`HEADER_LEN`] = 50 bytes):
//!
//! ```text
//! offset  size  field
//!      0     1  kind
//!      1     1  reserved (0)
//!      2     2  flags
//!      4     4  conn
//!      8     4  seq
//!     12     4  ack
//!     16     4  op_id
//!     20     4  op_total_len
//!     24     4  fence_floor
//!     28     8  remote_addr
//!     36     8  aux
//!     44     2  payload_len
//!     46     4  checksum (CRC32C over header-with-zeroed-checksum + payload)
//!     50  var   payload
//! ```

use crate::fcs::crc32c;
use crate::header::{FrameFlags, FrameHeader, FrameKind, HEADER_LEN};
use crate::{Frame, MacAddr, MAX_PAYLOAD};
use bytes::Bytes;

/// Errors from [`decode_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer shorter than the fixed header.
    Truncated {
        /// Bytes available.
        got: usize,
    },
    /// `kind` byte is not a known [`FrameKind`].
    BadKind(u8),
    /// Declared payload length exceeds the buffer or the MTU.
    BadLength {
        /// Declared payload length.
        declared: usize,
        /// Bytes available after the header.
        available: usize,
    },
    /// Checksum mismatch (corrupt frame). The receive path treats this as a
    /// damaged frame and NACKs it (paper §2.4).
    Checksum {
        /// Checksum carried in the frame.
        expected: u32,
        /// Checksum computed over the received bytes.
        actual: u32,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { got } => write!(f, "frame truncated: {got} bytes"),
            Self::BadKind(k) => write!(f, "unknown frame kind {k}"),
            Self::BadLength {
                declared,
                available,
            } => write!(
                f,
                "bad payload length: declared {declared}, available {available}"
            ),
            Self::Checksum { expected, actual } => {
                write!(f, "checksum mismatch: header {expected:#x}, computed {actual:#x}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// The header with its checksum field zeroed, as the checksum covers it.
fn header_bytes(h: &FrameHeader, payload_len: usize) -> [u8; HEADER_LEN] {
    let mut buf = [0u8; HEADER_LEN];
    buf[0] = h.kind as u8;
    buf[2..4].copy_from_slice(&h.flags.bits().to_le_bytes());
    buf[4..8].copy_from_slice(&h.conn.to_le_bytes());
    buf[8..12].copy_from_slice(&h.seq.to_le_bytes());
    buf[12..16].copy_from_slice(&h.ack.to_le_bytes());
    buf[16..20].copy_from_slice(&h.op_id.to_le_bytes());
    buf[20..24].copy_from_slice(&h.op_total_len.to_le_bytes());
    buf[24..28].copy_from_slice(&h.fence_floor.to_le_bytes());
    buf[28..36].copy_from_slice(&h.remote_addr.to_le_bytes());
    buf[36..44].copy_from_slice(&h.aux.to_le_bytes());
    buf[44..46].copy_from_slice(&(payload_len as u16).to_le_bytes());
    buf
}

/// Serialize a frame into raw Ethernet payload bytes.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD`] — fragmentation is the
/// sender's job and a larger payload is a protocol-layer bug.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame_into(frame, &mut buf);
    buf
}

/// Serialize a frame into a caller-owned scratch buffer, reusing its
/// capacity. The buffer is cleared first; after the call it holds exactly
/// the encoded frame. Hot paths that encode many frames should hold one
/// scratch `Vec` and call this instead of [`encode_frame`].
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD`] — fragmentation is the
/// sender's job and a larger payload is a protocol-layer bug.
pub fn encode_frame_into(frame: &Frame, buf: &mut Vec<u8>) {
    assert!(
        frame.payload.len() <= MAX_PAYLOAD,
        "payload {} exceeds MTU budget {}",
        frame.payload.len(),
        MAX_PAYLOAD
    );
    let mut header = header_bytes(&frame.header, frame.payload.len());
    let sum = crc32c(crc32c(0, &header), &frame.payload);
    header[46..50].copy_from_slice(&sum.to_le_bytes());
    buf.clear();
    buf.extend_from_slice(&header);
    buf.extend_from_slice(&frame.payload);
}

fn rd_u16(b: &[u8], o: usize) -> u16 {
    u16::from_le_bytes([b[o], b[o + 1]])
}
fn rd_u32(b: &[u8], o: usize) -> u32 {
    u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
}
fn rd_u64(b: &[u8], o: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[o..o + 8]);
    u64::from_le_bytes(a)
}

/// Parse raw Ethernet payload bytes back into a [`Frame`].
///
/// `src`/`dst` come from the (simulated) Ethernet layer. Verifies the
/// checksum; a mismatch models a frame damaged in flight.
pub fn decode_frame(src: MacAddr, dst: MacAddr, bytes: &[u8]) -> Result<Frame, CodecError> {
    if bytes.len() < HEADER_LEN {
        return Err(CodecError::Truncated { got: bytes.len() });
    }
    let kind = FrameKind::from_u8(bytes[0]).ok_or(CodecError::BadKind(bytes[0]))?;
    let payload_len = rd_u16(bytes, 44) as usize;
    if payload_len > MAX_PAYLOAD || HEADER_LEN + payload_len > bytes.len() {
        return Err(CodecError::BadLength {
            declared: payload_len,
            available: bytes.len() - HEADER_LEN,
        });
    }
    let expected = rd_u32(bytes, 46);
    // Recompute with the checksum field zeroed.
    let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
    let actual = crc32c(crc32c(crc32c(0, &bytes[..46]), &[0; 4]), payload);
    if expected != actual {
        return Err(CodecError::Checksum { expected, actual });
    }
    let header = FrameHeader {
        kind,
        flags: FrameFlags::from_bits(rd_u16(bytes, 2)),
        conn: rd_u32(bytes, 4),
        seq: rd_u32(bytes, 8),
        ack: rd_u32(bytes, 12),
        op_id: rd_u32(bytes, 16),
        op_total_len: rd_u32(bytes, 20),
        fence_floor: rd_u32(bytes, 24),
        remote_addr: rd_u64(bytes, 28),
        aux: rd_u64(bytes, 36),
    };
    Ok(Frame {
        src,
        dst,
        header,
        payload: Bytes::copy_from_slice(payload),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame(payload: &[u8]) -> Frame {
        Frame {
            dst: MacAddr::new(2, 1),
            src: MacAddr::new(0, 1),
            header: FrameHeader {
                kind: FrameKind::Data,
                flags: FrameFlags::FENCE_FORWARD | FrameFlags::LAST_FRAGMENT,
                conn: 7,
                seq: 0xdead_beef,
                ack: 42,
                op_id: 9,
                op_total_len: 4096,
                fence_floor: 3,
                remote_addr: 0x1000_0000_2000,
                aux: 0,
            },
            payload: Bytes::copy_from_slice(payload),
        }
    }

    /// Test-local scratch encode, exercising the reuse entry point.
    fn encode(f: &Frame) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_frame_into(f, &mut buf);
        buf
    }

    #[test]
    fn round_trip() {
        let f = sample_frame(b"hello multiedge");
        let wire = encode(&f);
        let g = decode_frame(f.src, f.dst, &wire).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn round_trip_empty_payload() {
        let f = sample_frame(b"");
        let wire = encode(&f);
        assert_eq!(wire.len(), HEADER_LEN);
        let g = decode_frame(f.src, f.dst, &wire).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn corrupt_payload_detected() {
        let f = sample_frame(b"payload bytes here");
        let mut wire = encode(&f);
        *wire.last_mut().unwrap() ^= 0x40;
        match decode_frame(f.src, f.dst, &wire) {
            Err(CodecError::Checksum { .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_header_detected() {
        let f = sample_frame(b"x");
        let mut wire = encode(&f);
        wire[8] ^= 1; // flip a seq bit
        assert!(matches!(
            decode_frame(f.src, f.dst, &wire),
            Err(CodecError::Checksum { .. })
        ));
    }

    #[test]
    fn truncated_detected() {
        let f = sample_frame(b"abc");
        let wire = encode(&f);
        assert!(matches!(
            decode_frame(f.src, f.dst, &wire[..10]),
            Err(CodecError::Truncated { got: 10 })
        ));
    }

    #[test]
    fn bad_kind_detected() {
        let f = sample_frame(b"");
        let mut wire = encode(&f);
        wire[0] = 99;
        assert!(matches!(
            decode_frame(f.src, f.dst, &wire),
            Err(CodecError::BadKind(99))
        ));
    }

    #[test]
    fn encode_into_reuses_capacity_and_matches_wrapper() {
        let big = sample_frame(&[7u8; 900]);
        let small = sample_frame(b"tiny");
        let mut scratch = Vec::new();
        encode_frame_into(&big, &mut scratch);
        assert_eq!(scratch, encode_frame(&big));
        let cap = scratch.capacity();
        encode_frame_into(&small, &mut scratch);
        assert_eq!(scratch, encode_frame(&small));
        assert_eq!(scratch.capacity(), cap, "scratch must be reused");
    }

    #[test]
    fn declared_length_beyond_buffer_detected() {
        let f = sample_frame(b"abcd");
        let mut wire = encode(&f);
        wire[44..46].copy_from_slice(&100u16.to_le_bytes());
        assert!(matches!(
            decode_frame(f.src, f.dst, &wire),
            Err(CodecError::BadLength { .. })
        ));
    }
}
