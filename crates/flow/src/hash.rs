//! Hashing for flow keys: one seeded folded multiply, the `BuildHasher`
//! that puts it under std maps, and a process-random seed source.
//!
//! A flow key is 13 bytes, which pack into two words
//! ([`FlowKey::words`]). The hash XORs the seed into both, multiplies them
//! 64 × 64 → 128 bits and folds the product's high half onto its low half.
//! That is one multiply per key, where a byte-at-a-time chain takes 13, and
//! the fold carries every input bit into both the low bits a table indexes
//! with and the top bits its fingerprints come from.
//!
//! Every table, Bloom filter and map takes a per-instance seed: a public,
//! fixed hash lets an adversary precompute flow keys that collide into one
//! probe window and evict tracked flows (the algorithmic-complexity attack
//! the reassembly-hashing literature warns about). Production draws the
//! seed from [`random_seed`]; the experiments and the differential-fuzz
//! oracle pin one so runs stay bit-reproducible.

use std::hash::{BuildHasher, Hasher};

use crate::key::FlowKey;

/// Whitening constants (digits of π), so that a zero seed still keys the
/// multiply with dense words.
const K0: u64 = 0x243f_6a88_85a3_08d3;
const K1: u64 = 0x1319_8a2e_0370_7344;

/// Full 64 × 64 → 128-bit product, high half XOR low half.
#[inline]
fn folded_multiply(x: u64, y: u64) -> u64 {
    let full = u128::from(x) * u128::from(y);
    (full as u64) ^ (full >> 64) as u64
}

/// The seeded hash of two words.
#[inline]
fn hash_words(seed: u64, [a, b]: [u64; 2]) -> u64 {
    folded_multiply(a ^ seed ^ K0, b ^ seed.rotate_left(32) ^ K1)
}

/// Seeded flow-key hash: one folded multiply over the key's two words.
/// Distinct seeds give independent functions (the Bloom filter's `k`).
#[inline]
pub fn hash_key_seeded(seed: u64, key: &FlowKey) -> u64 {
    hash_words(seed, key.words())
}

/// A process-random 64-bit hash seed (the production default for tables
/// and filters). Built on the standard library's per-instance
/// `RandomState` so it needs no extra dependencies and no `unsafe`; two
/// calls yield independent values.
pub fn random_seed() -> u64 {
    use std::collections::hash_map::RandomState;
    RandomState::new().build_hasher().finish()
}

/// A seeded [`BuildHasher`] for std maps and sets keyed by [`FlowKey`]: a
/// key hashes to [`hash_key_seeded`] under the state's seed, in place of
/// SipHash's rounds.
#[derive(Debug, Clone, Copy)]
pub struct SeededState {
    seed: u64,
}

impl SeededState {
    /// A state keyed with [`random_seed`].
    pub fn new() -> Self {
        Self::with_seed(random_seed())
    }

    /// A state with a pinned seed, for bit-reproducible runs.
    pub fn with_seed(seed: u64) -> Self {
        SeededState { seed }
    }
}

impl Default for SeededState {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for SeededState {
    type Hasher = FlowHasher;

    #[inline]
    fn build_hasher(&self) -> FlowHasher {
        FlowHasher {
            seed: self.seed,
            words: [0; 2],
            len: 0,
        }
    }
}

/// The hasher [`SeededState`] builds. It holds two words and multiplies
/// once in [`finish`](Hasher::finish): [`FlowKey`] writes exactly two.
/// Longer input folds the words it holds into one before taking the next.
#[derive(Debug, Clone)]
pub struct FlowHasher {
    seed: u64,
    words: [u64; 2],
    len: usize,
}

impl Hasher for FlowHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        if self.len < 2 {
            self.words[self.len] = word;
            self.len += 1;
        } else {
            self.words = [hash_words(self.seed, self.words), word];
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        hash_words(self.seed, self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(n: u32) -> FlowKey {
        let (k, _) = FlowKey::from_endpoints(
            6,
            (Ipv4Addr::from(n), (n % 60000) as u16),
            (Ipv4Addr::from(n ^ 0xdead_beef), 80),
        );
        k
    }

    #[test]
    fn deterministic_across_calls() {
        let k = key(42);
        assert_eq!(hash_key_seeded(0, &k), hash_key_seeded(0, &k));
        assert_eq!(hash_key_seeded(7, &k), hash_key_seeded(7, &k));
    }

    #[test]
    fn seeds_give_distinct_functions() {
        let k = key(42);
        let h: Vec<u64> = (0..8).map(|s| hash_key_seeded(s, &k)).collect();
        for i in 0..h.len() {
            for j in i + 1..h.len() {
                assert_ne!(h[i], h[j], "seeds {i} and {j} collided");
            }
        }
    }

    #[test]
    fn random_seeds_are_distinct() {
        let a = random_seed();
        let b = random_seed();
        assert_ne!(a, b, "consecutive random seeds must differ");
    }

    #[test]
    fn low_bits_spread() {
        // Indexing uses `hash % buckets`; make sure sequential keys do not
        // land in a handful of buckets, whatever the seed.
        let buckets = 64u64;
        for seed in [0, 7, random_seed()] {
            let mut seen = std::collections::HashSet::new();
            for n in 0..256 {
                seen.insert(hash_key_seeded(seed, &key(n)) % buckets);
            }
            assert!(
                seen.len() > 40,
                "seed {seed}: only {} of 64 buckets hit",
                seen.len()
            );
        }
    }

    #[test]
    fn top_bits_spread() {
        // The flow table's fingerprint is the hash's top six bits.
        let mut seen = std::collections::HashSet::new();
        for n in 0..256 {
            seen.insert(hash_key_seeded(7, &key(n)) >> 58);
        }
        assert!(
            seen.len() > 40,
            "only {} of 64 fingerprints hit",
            seen.len()
        );
    }

    #[test]
    fn seeded_state_hashes_a_key_to_hash_key_seeded() {
        let state = SeededState::with_seed(7);
        for n in 0..64 {
            assert_eq!(state.hash_one(key(n)), hash_key_seeded(7, &key(n)));
        }
        assert_ne!(
            SeededState::new().hash_one(key(1)),
            SeededState::new().hash_one(key(1)),
            "each state draws its own seed"
        );
    }

    #[test]
    fn flow_hasher_takes_longer_input() {
        let state = SeededState::with_seed(3);
        let h: std::collections::HashSet<u64> = ["", "a", "ab", "a longer string than two words"]
            .iter()
            .map(|s| state.hash_one(s))
            .collect();
        assert_eq!(h.len(), 4);
    }
}
