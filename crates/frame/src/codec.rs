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
                write!(
                    f,
                    "checksum mismatch: header {expected:#x}, computed {actual:#x}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Offset of the checksum field, the header's last four bytes.
const CHECKSUM_AT: usize = HEADER_LEN - 4;

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
/// capacity. After the call it holds exactly the encoded frame. Hot paths
/// that encode many frames should hold one scratch `Vec` and call this
/// instead of [`encode_frame`].
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD`] — fragmentation is the
/// sender's job and a larger payload is a protocol-layer bug.
pub fn encode_frame_into(frame: &Frame, buf: &mut Vec<u8>) {
    // Every byte kept here is overwritten below; only growth is zero-filled.
    buf.resize(HEADER_LEN + frame.payload.len(), 0);
    encode_frame_to_slice(frame, buf);
}

/// Serialize a frame into the front of `out`, wherever the caller is staging
/// it (a datagram buffer, say), and return the encoded length:
/// [`HEADER_LEN`] plus the payload's. The payload is copied once and the
/// checksum taken over the bytes where they lie.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD`] — fragmentation is the
/// sender's job and a larger payload is a protocol-layer bug — or if `out`
/// is shorter than the encoded frame.
pub fn encode_frame_to_slice(frame: &Frame, out: &mut [u8]) -> usize {
    assert!(
        frame.payload.len() <= MAX_PAYLOAD,
        "payload {} exceeds MTU budget {}",
        frame.payload.len(),
        MAX_PAYLOAD
    );
    let out = &mut out[..HEADER_LEN + frame.payload.len()];
    out[..HEADER_LEN].copy_from_slice(&header_bytes(&frame.header, frame.payload.len()));
    out[HEADER_LEN..].copy_from_slice(&frame.payload);
    let sum = crc32c(0, out);
    out[CHECKSUM_AT..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    out.len()
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

/// What both decoders check before either touches the payload: length, kind,
/// declared payload length, and the checksum over header-with-zeroed-checksum
/// + payload. Returns the header and the payload's length.
fn check_frame(bytes: &[u8]) -> Result<(FrameHeader, usize), CodecError> {
    let Some((fixed, rest)) = bytes.split_first_chunk::<HEADER_LEN>() else {
        return Err(CodecError::Truncated { got: bytes.len() });
    };
    let kind = FrameKind::from_u8(fixed[0]).ok_or(CodecError::BadKind(fixed[0]))?;
    let payload_len = rd_u16(fixed, 44) as usize;
    if payload_len > MAX_PAYLOAD || payload_len > rest.len() {
        return Err(CodecError::BadLength {
            declared: payload_len,
            available: rest.len(),
        });
    }
    let expected = rd_u32(fixed, CHECKSUM_AT);
    let mut zeroed = *fixed;
    zeroed[CHECKSUM_AT..].fill(0);
    let actual = crc32c(crc32c(0, &zeroed), &rest[..payload_len]);
    if expected != actual {
        return Err(CodecError::Checksum { expected, actual });
    }
    let header = FrameHeader {
        kind,
        flags: FrameFlags::from_bits(rd_u16(fixed, 2)),
        conn: rd_u32(fixed, 4),
        seq: rd_u32(fixed, 8),
        ack: rd_u32(fixed, 12),
        op_id: rd_u32(fixed, 16),
        op_total_len: rd_u32(fixed, 20),
        fence_floor: rd_u32(fixed, 24),
        remote_addr: rd_u64(fixed, 28),
        aux: rd_u64(fixed, 36),
    };
    Ok((header, payload_len))
}

/// Parse raw Ethernet payload bytes back into a [`Frame`].
///
/// `src`/`dst` come from the (simulated) Ethernet layer. Verifies the
/// checksum; a mismatch models a frame damaged in flight. The payload is
/// copied out of `bytes`.
pub fn decode_frame(src: MacAddr, dst: MacAddr, bytes: &[u8]) -> Result<Frame, CodecError> {
    let (header, payload_len) = check_frame(bytes)?;
    Ok(Frame {
        src,
        dst,
        header,
        payload: Bytes::copy_from_slice(&bytes[HEADER_LEN..HEADER_LEN + payload_len]),
    })
}

/// [`decode_frame`] for a segment that already lies in a shared buffer: the
/// frame's payload is a [`Bytes::slice`] of `segment`, not a copy, so the
/// frames of one receive share its one allocation and keep it alive until
/// the last of them is dropped.
pub fn decode_frame_shared(
    src: MacAddr,
    dst: MacAddr,
    segment: &Bytes,
) -> Result<Frame, CodecError> {
    let (header, payload_len) = check_frame(segment)?;
    Ok(Frame {
        src,
        dst,
        header,
        payload: segment.slice(HEADER_LEN..HEADER_LEN + payload_len),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The encoder this one replaced, kept as the reference: header and
    /// payload checksummed as two pieces, then laid end to end.
    fn encode_reference(f: &Frame) -> Vec<u8> {
        let mut header = header_bytes(&f.header, f.payload.len());
        let sum = crc32c(crc32c(0, &header), &f.payload);
        header[46..50].copy_from_slice(&sum.to_le_bytes());
        [&header[..], &f.payload[..]].concat()
    }

    /// One frame as the parent commit put it on the wire. A change to the
    /// layout, the checksum's coverage or its function fails here, whatever
    /// else still round-trips.
    #[test]
    fn golden_frame_from_the_parent_commit() {
        const GOLDEN: &str = "0000220007000000efbeadde2a000000090000000010000003000000\
                              002000000010000008070605040302010f00a306b08668656c6c6f20\
                              6d756c746965646765";
        let wire: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).expect("hex literal"))
            .collect();
        let mut f = sample_frame(b"hello multiedge");
        f.header.aux = 0x0102_0304_0506_0708;
        assert_eq!(encode_frame(&f), wire);
        assert_eq!(decode_frame(f.src, f.dst, &wire).unwrap(), f);
        assert_eq!(
            decode_frame_shared(f.src, f.dst, &Bytes::from(wire)).unwrap(),
            f
        );
    }

    /// Frames decoded out of one shared buffer borrow their payloads from
    /// it, where they lie.
    #[test]
    fn shared_decode_slices_the_buffer_it_was_given() {
        let f = sample_frame(&[5u8; 300]);
        let received = Bytes::from([encode(&f), encode(&f)].concat());
        let seg_len = received.len() / 2;
        for i in 0..2 {
            let seg = received.slice(i * seg_len..(i + 1) * seg_len);
            let g = decode_frame_shared(f.src, f.dst, &seg).unwrap();
            assert_eq!(g, f);
            assert_eq!(
                g.payload.as_ptr(),
                received[i * seg_len + HEADER_LEN..].as_ptr()
            );
        }
    }

    proptest! {
        /// The slice encoder writes the reference's bytes, at whatever
        /// offset of a dirty buffer it is pointed at, touches nothing
        /// outside them, and the `Vec` entries are callers of it.
        #[test]
        fn slice_encoder_matches_the_reference_byte_for_byte(
            kind in 0u8..7,
            flags in any::<u16>(),
            words in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            addrs in (any::<u64>(), any::<u64>()),
            payload_len in 0usize..4,
            fill in any::<u8>(),
            at in 0usize..64,
        ) {
            let (conn, seq, ack, op_id, op_total_len, fence_floor) = words;
            let payload_len = [0, 1, 64, MAX_PAYLOAD][payload_len];
            let payload: Vec<u8> = (0..payload_len).map(|i| (i as u8).wrapping_mul(29) ^ fill).collect();
            let f = Frame {
                src: MacAddr::new(0, 0),
                dst: MacAddr::new(1, 0),
                header: FrameHeader {
                    kind: FrameKind::from_u8(kind).expect("0..7 are kinds"),
                    flags: FrameFlags::from_bits(flags),
                    conn, seq, ack, op_id, op_total_len, fence_floor,
                    remote_addr: addrs.0,
                    aux: addrs.1,
                },
                payload: Bytes::from(payload),
            };
            let want = encode_reference(&f);
            prop_assert_eq!(&encode_frame(&f), &want);
            let mut staged = vec![!fill; at + want.len() + 8];
            prop_assert_eq!(encode_frame_to_slice(&f, &mut staged[at..]), want.len());
            prop_assert_eq!(&staged[at..at + want.len()], &want[..]);
            prop_assert!(staged[..at].iter().chain(&staged[at + want.len()..]).all(|&b| b == !fill));
        }

        /// Whatever is done to a wire image, the two decoders say the same
        /// thing about it: the same frame, or the same error.
        #[test]
        fn shared_decoder_agrees_with_the_copying_one(
            payload in proptest::collection::vec(any::<u8>(), 0..200),
            damage in 0usize..6,
            pick in any::<usize>(),
            at in 0usize..16,
        ) {
            let f = sample_frame(&payload);
            let mut wire = encode(&f);
            match damage {
                0 => {}
                1 => wire.truncate(pick % HEADER_LEN),
                2 => wire[0] = 7 + (pick % 249) as u8,
                3 => wire[44..46].copy_from_slice(&((payload.len() + 1 + pick % 2_000) as u16).to_le_bytes()),
                4 => { let bit = pick % (8 * wire.len()); wire[bit / 8] ^= 1 << (bit % 8); }
                _ => wire.truncate(HEADER_LEN + pick % (payload.len() + 1)),
            }
            let received = Bytes::from([&vec![0xEE; at][..], &wire[..]].concat());
            let copied = decode_frame(f.src, f.dst, &wire);
            let shared = decode_frame_shared(f.src, f.dst, &received.slice(at..));
            prop_assert_eq!(&shared, &copied);
            if damage == 0 {
                prop_assert_eq!(copied, Ok(f));
            } else if damage != 5 || wire.len() < HEADER_LEN + payload.len() {
                prop_assert!(copied.is_err());
            }
        }
    }
}
