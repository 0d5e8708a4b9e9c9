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
//! instruction where the CPU has it (and `pclmulqdq` to merge its lanes),
//! slicing-by-8 over a compile-time table everywhere else. The test module
//! holds both to a bitwise reference.
//!
//! The instruction issues once per cycle but takes three to retire, so one
//! dependent chain of them runs at a third of the machine's rate. The
//! hardware body therefore cuts the front of a buffer into three equal
//! lanes, runs one chain down each, and merges the three states with two
//! carry-less multiplies: a CRC state is a polynomial over GF(2), running it
//! over `k` more zero bits multiplies it by `x^k mod P`, and the lanes'
//! states add. What is left after the last full lane set goes down the one
//! chain.

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

/// Longest lane, in 8-byte words: a lane set covers at most 3 KiB, so the
/// three read streams stay in L1 and [`LANE_SHIFTS`] stays small.
#[cfg(target_arch = "x86_64")]
const MAX_LANE_WORDS: usize = 128;

/// Shortest buffer the lanes engage on; below it the merge costs more than
/// the two idle chains would have saved.
#[cfg(target_arch = "x86_64")]
const MIN_LANED_LEN: usize = 96;

/// `LANE_SHIFTS[n - 1]`: what carries a lane's state over the lanes behind
/// it when a lane is `n` words — `(x^(128n−33) mod P, x^(64n−33) mod P)` in
/// the reflected representation. The 33 is what the merge itself adds: the
/// carry-less product of two reflected 32-bit values sits one bit low in
/// its 64-bit word (`x^1`), and reducing it with a `crc32` step over a zero
/// state multiplies by `x^32`.
#[cfg(target_arch = "x86_64")]
static LANE_SHIFTS: [(u32, u32); MAX_LANE_WORDS] = build_lane_shifts();

/// `p · x^bits mod P`, reflected representation (bit 31 is `x^0`).
#[cfg(target_arch = "x86_64")]
const fn times_x_pow(mut p: u32, bits: usize) -> u32 {
    let mut i = 0;
    while i < bits {
        p = if p & 1 != 0 { (p >> 1) ^ POLY } else { p >> 1 };
        i += 1;
    }
    p
}

#[cfg(target_arch = "x86_64")]
const fn build_lane_shifts() -> [(u32, u32); MAX_LANE_WORDS] {
    let mut k = [(0u32, 0u32); MAX_LANE_WORDS];
    // x^31 and x^95: the pair for one-word lanes; each further word is 64
    // more bits for the near lane and 128 for the far one.
    let mut near = times_x_pow(0x8000_0000, 31);
    let mut far = times_x_pow(near, 64);
    let mut n = 0;
    while n < MAX_LANE_WORDS {
        k[n] = (far, near);
        near = times_x_pow(near, 64);
        far = times_x_pow(far, 128);
        n += 1;
    }
    k
}

/// CRC32C of `bytes`, continuing from `seed`: `crc32c(0, m)` is the CRC of
/// `m`, and `crc32c(crc32c(0, a), b)` is the CRC of `a` followed by `b`, so
/// a message can be hashed in pieces without being copied together.
pub fn crc32c(seed: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2")
        && std::arch::is_x86_feature_detected!("pclmulqdq")
    {
        // SAFETY: `crc32c_lanes` requires only that the CPU supports SSE4.2
        // and PCLMULQDQ, which the runtime checks above have just
        // established.
        return unsafe { crc32c_lanes(seed, bytes) };
    }
    crc32c_table(seed, bytes)
}

/// The hardware body: three `crc32` chains over three lanes while at least
/// [`MIN_LANED_LEN`] bytes remain, then one instruction per eight bytes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2,pclmulqdq")]
fn crc32c_lanes(seed: u32, mut bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
    let mut crc = u64::from(!seed);
    while bytes.len() >= MIN_LANED_LEN {
        let n = (bytes.len() / 24).min(MAX_LANE_WORDS);
        let (a, rest) = bytes.split_at(8 * n);
        let (b, rest) = rest.split_at(8 * n);
        let (c, rest) = rest.split_at(8 * n);
        let (mut c1, mut c2) = (0, 0);
        let lanes = a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8));
        for ((wa, wb), wc) in lanes {
            crc = _mm_crc32_u64(crc, word(wa));
            c1 = _mm_crc32_u64(c1, word(wb));
            c2 = _mm_crc32_u64(c2, word(wc));
        }
        let (far, near) = LANE_SHIFTS[n - 1];
        crc = _mm_crc32_u64(0, clmul(crc as u32, far) ^ clmul(c1 as u32, near)) ^ c2;
        bytes = rest;
    }
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, word(w));
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// Carry-less product of two 32-bit polynomials (63 bits).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
fn clmul(a: u32, b: u32) -> u64 {
    use std::arch::x86_64::{_mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi64_si128};
    let product = _mm_clmulepi64_si128::<0>(
        _mm_cvtsi64_si128(i64::from(a)),
        _mm_cvtsi64_si128(i64::from(b)),
    );
    _mm_cvtsi128_si64(product) as u64
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

    /// Lengths around where the lanes engage ([`MIN_LANED_LEN`]), where a
    /// lane set is full (3 · 8 · [`MAX_LANE_WORDS`] bytes) and starts the
    /// next, and the longest datagram — each at every start alignment and
    /// from a state other than the initial one.
    #[test]
    fn lane_edges_agree_with_the_reference() {
        let bytes: Vec<u8> = (0..65_507u32 + 7)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in [95, 96, 97, 3_072, 3_073, 65_507] {
            for skew in 0..8 {
                let message = &bytes[skew..skew + len];
                let whole = reference(0, message);
                assert_eq!(three_ways(&[message]), [whole; 3], "{len} bytes at +{skew}");
                let (head, tail) = message.split_at(len / 3);
                assert_eq!(
                    three_ways(&[head, tail]),
                    [whole; 3],
                    "{len} bytes at +{skew}, cut"
                );
            }
        }
    }

    /// The merge constants are what the module says they are: multiplying a
    /// state by `LANE_SHIFTS[n - 1]` and reducing the product with one
    /// `crc32` step from a zero state is running that state over `2n`
    /// (`.0`) and `n` (`.1`) zero words. Checked in plain arithmetic, so the
    /// table is held to the definition and not to the instructions.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_shifts_advance_a_state_over_the_lanes_behind_it() {
        // A raw register (no initial value, no final xor) run over `bytes`.
        let run = |state: u32, bytes: &[u8]| !reference(!state, bytes);
        let clmul = |a: u32, b: u32| {
            (0..32)
                .filter(|i| b >> i & 1 != 0)
                .fold(0u64, |p, i| p ^ u64::from(a) << i)
        };
        let zeros = [0u8; 16 * MAX_LANE_WORDS];
        let mut state = 0x9E37_79B9u32;
        for n in 1..=MAX_LANE_WORDS {
            let (far, near) = LANE_SHIFTS[n - 1];
            let merged = |k: u32| run(0, &clmul(state, k).to_le_bytes());
            assert_eq!(merged(far), run(state, &zeros[..16 * n]), "far, {n} words");
            assert_eq!(merged(near), run(state, &zeros[..8 * n]), "near, {n} words");
            state = state.rotate_left(5) ^ far;
        }
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
