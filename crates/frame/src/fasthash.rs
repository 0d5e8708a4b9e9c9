//! A minimal FxHash-style hasher for the datapath's small integer keys.
//!
//! The protocol's per-frame maps (op metadata, pending reads, switch MAC
//! tables) are keyed by sequential small integers, where SipHash's
//! DoS-resistance buys nothing and its per-lookup cost is measurable — two
//! hashes per received frame on the hot path. This hasher is a single
//! multiply-xor round per word (the Firefox/rustc "Fx" construction), which
//! hashes a `u64` key in a couple of cycles.
//!
//! Not DoS-resistant: only use it for maps whose keys an adversary cannot
//! choose (protocol-assigned ids, configured addresses).

use std::hash::{BuildHasherDefault, Hasher};

/// One multiply-xor round per word; see module docs.
#[derive(Default)]
pub struct FastHasher(u64);

/// Knuth's 64-bit multiplicative-hashing constant (same one Fx uses).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// `HashMap` alias using [`FastHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 7, i as u32);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 7)), Some(&(i as u32)));
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn sequential_keys_spread() {
        // Sequential ids must not collapse onto a few buckets: check the
        // low bits of the hash differ across consecutive keys.
        let low: std::collections::BTreeSet<u64> = (0..64u64)
            .map(|k| {
                let mut h = FastHasher::default();
                h.write_u64(k);
                h.finish() & 63
            })
            .collect();
        assert!(
            low.len() > 32,
            "only {} distinct low-6-bit values",
            low.len()
        );
    }
}
