//! CRC32C (Castagnoli) — the frame check sequence.
//!
//! On a real wire the Ethernet FCS is the NIC's job; on the UDP backend the
//! codec plays that role in software, once per frame in each direction, so
//! the check has to run at memory speed. CRC32C is what iSCSI, SCTP and
//! iWARP use for exactly this job: it detects every 1-, 2- and 3-bit error
//! and every burst of at most 32 bits at MTU lengths, has published test
//! vectors (RFC 3720 §B.4), and x86-64 computes it in hardware.
//!
//! Two bodies compute the same function — reflected polynomial
//! `0x82F63B78`, initial value and final xor `!0`: the SSE4.2 `crc32`
//! instruction where the CPU has it, slicing-by-8 over a compile-time table
//! everywhere else. The test module holds both to a bitwise reference.

/// The Castagnoli polynomial, bit-reflected.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[k][b]`: the CRC of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut b = 0;
    while b < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            k += 1;
        }
        b += 1;
    }
    t
}

/// CRC32C of `bytes`, continuing from `seed`: `crc32c(0, m)` is the CRC of
/// `m`, and `crc32c(crc32c(0, a), b)` is the CRC of `a` followed by `b`, so
/// a message can be hashed in pieces without being copied together.
pub fn crc32c(seed: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` requires only that the CPU supports SSE4.2,
        // which the runtime check on the line above has just established.
        return unsafe { crc32c_sse42(seed, bytes) };
    }
    crc32c_table(seed, bytes)
}

/// The hardware body: one `crc32` instruction per eight bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(seed: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut crc = u64::from(!seed);
    for w in &mut words {
        let word = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        crc = _mm_crc32_u64(crc, word);
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// The portable body: slicing-by-8, eight table lookups per eight bytes.
fn crc32c_table(seed: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    let mut crc = !seed;
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][(lo >> 8 & 0xff) as usize]
            ^ TABLES[5][(lo >> 16 & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][(hi >> 8 & 0xff) as usize]
            ^ TABLES[1][(hi >> 16 & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One bit per step, straight from the definition.
    fn reference(seed: u32, bytes: &[u8]) -> u32 {
        let mut crc = !seed;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// The three implementations over `chunks` fed in order: the public
    /// entry (the hardware body wherever the CPU has the instruction), the
    /// table body called directly, and the reference.
    fn three_ways(chunks: &[&[u8]]) -> [u32; 3] {
        let fold = |f: fn(u32, &[u8]) -> u32| chunks.iter().fold(0, |crc, c| f(crc, c));
        [fold(crc32c), fold(crc32c_table), fold(reference)]
    }

    #[test]
    fn known_answers() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        // RFC 3720 §B.4, then the check value of the CRC catalogue.
        let vectors: [(&[u8], u32); 5] = [
            (&[0x00; 32], 0x8A91_36AA),
            (&[0xFF; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
            (b"123456789", 0xE306_9283),
        ];
        for (message, crc) in vectors {
            assert_eq!(three_ways(&[message]), [crc; 3], "{message:02x?}");
        }
    }

    #[test]
    fn empty_input_is_the_identity() {
        assert_eq!(three_ways(&[]), [0; 3]);
        assert_eq!(three_ways(&[b"", b"123456789", b""]), [0xE306_9283; 3]);
    }

    proptest! {
        /// Random bytes at a random start alignment, hashed whole and in one
        /// to four pieces: all three implementations agree, and the pieces
        /// agree with the whole.
        #[test]
        fn implementations_agree_and_stream(
            bytes in proptest::collection::vec(any::<u8>(), 0..3001),
            skew in 0usize..8,
            cuts in proptest::collection::vec(any::<usize>(), 0..4),
        ) {
            let message = &bytes[skew.min(bytes.len())..];
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (message.len() + 1)).collect();
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut rest = message;
            let mut taken = 0;
            for cut in cuts {
                let (head, tail) = rest.split_at(cut - taken);
                pieces.push(head);
                rest = tail;
                taken = cut;
            }
            pieces.push(rest);
            let whole = reference(0, message);
            prop_assert_eq!(three_ways(&[message]), [whole; 3]);
            prop_assert_eq!(three_ways(&pieces), [whole; 3]);
        }
    }
}
