//! Negative-acknowledgement payload: the set of missing sequence ranges.
//!
//! When the receiver observes a gap in the sequence space it reports the
//! missing frames back to the sender (paper §2.4). The NACK payload is a list
//! of half-open `[from, to)` ranges in sequence space, encoded as pairs of
//! little-endian `u32`s. Ranges may wrap modulo 2^32 (`from > to` is legal
//! and means the range crosses the wrap point).

use bytes::{Bytes, BytesMut};

/// A set of missing sequence ranges carried by a NACK frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NackRanges {
    /// Half-open `[from, to)` ranges of missing sequence numbers.
    pub ranges: Vec<(u32, u32)>,
}

/// Each encoded range occupies 8 bytes; cap so a NACK always fits one frame.
pub const MAX_RANGES_PER_NACK: usize = 64;

impl NackRanges {
    /// A NACK for a single contiguous gap.
    pub fn single(from: u32, to: u32) -> Self {
        Self {
            ranges: vec![(from, to)],
        }
    }

    /// Total number of sequence numbers covered (wrapping-aware).
    pub fn frame_count(&self) -> u64 {
        self.ranges
            .iter()
            .map(|&(f, t)| t.wrapping_sub(f) as u64)
            .sum()
    }

    /// Serialize to a frame payload. Truncates to [`MAX_RANGES_PER_NACK`]
    /// ranges; the remaining gaps will be re-reported by a later NACK.
    /// One allocation: the records are written in place.
    pub fn encode(&self) -> Bytes {
        let n = self.ranges.len().min(MAX_RANGES_PER_NACK);
        let mut buf = BytesMut::zeroed(n * 8);
        for (rec, &(from, to)) in buf.chunks_exact_mut(8).zip(&self.ranges[..n]) {
            rec[..4].copy_from_slice(&from.to_le_bytes());
            rec[4..].copy_from_slice(&to.to_le_bytes());
        }
        buf.freeze()
    }

    /// The ranges of a NACK payload, read in place. Trailing partial
    /// records are ignored (a damaged NACK costs only a
    /// retransmission-timeout fallback, never correctness).
    pub fn parse(payload: &[u8]) -> impl Iterator<Item = (u32, u32)> + '_ {
        payload.chunks_exact(8).map(|rec| {
            let from = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
            let to = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
            (from, to)
        })
    }

    /// How many ranges [`NackRanges::parse`] reads from `payload`.
    pub fn count(payload: &[u8]) -> usize {
        payload.len() / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode(payload: &[u8]) -> NackRanges {
        NackRanges {
            ranges: NackRanges::parse(payload).collect(),
        }
    }

    #[test]
    fn round_trip() {
        let n = NackRanges {
            ranges: vec![(5, 9), (100, 101), (u32::MAX - 1, 3)],
        };
        assert_eq!(decode(&n.encode()), n);
    }

    #[test]
    fn frame_count_handles_wrap() {
        let n = NackRanges::single(u32::MAX - 1, 3);
        assert_eq!(n.frame_count(), 5);
        let m = NackRanges {
            ranges: vec![(0, 4), (10, 12)],
        };
        assert_eq!(m.frame_count(), 6);
    }

    #[test]
    fn truncates_to_cap() {
        let n = NackRanges {
            ranges: (0..200u32).map(|i| (i * 10, i * 10 + 1)).collect(),
        };
        let decoded = decode(&n.encode());
        assert_eq!(decoded.ranges.len(), MAX_RANGES_PER_NACK);
        assert_eq!(decoded.ranges[..], n.ranges[..MAX_RANGES_PER_NACK]);
    }

    #[test]
    fn ignores_trailing_garbage() {
        let n = NackRanges::single(1, 2);
        let mut bytes = n.encode().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]); // partial record
        assert_eq!(decode(&bytes), n);
    }
}
