//! One-pass flow hashing for the per-packet fast path.
//!
//! The datapath hashes every packet many times: once for the exact-match
//! cache and once per subtable mask during the Tuple Space Search walk.
//! Doing that with the standard library's SipHash over a freshly masked
//! [`FlowKey`] costs more than the lookups themselves — and every wasted
//! cycle per probe amplifies the DoS the paper describes (§2), because
//! the attack's damage is measured in probes per packet.
//!
//! This module removes both costs:
//!
//! * [`KeyWords`] extracts a packet's field words **once**; every
//!   subsequent hash is a short multiply-xor fold (FxHash-style) over
//!   those words.
//! * [`MaskWords`] precomputes a subtable mask's words, so the packet's
//!   hash *under that mask* — [`KeyWords::masked_hash`] — is an AND per
//!   word folded into the same mix, with **no masked key materialised**.
//!
//! The load-bearing invariant (pinned by tests): for any key `k` and
//! mask `m`,
//!
//! ```text
//! KeyWords::of(&k).masked_hash(&MaskWords::of(&m))
//!     == KeyWords::of(&m.apply(&k)).full_hash()
//! ```
//!
//! so a table keyed by the full hash of canonical (pre-masked) entries
//! can be probed with the masked hash of a raw packet.
//!
//! Hashing is fully deterministic (no per-process random state), which
//! also makes table iteration order reproducible across runs — a
//! property the fleet determinism tests rely on.
//!
//! The same fold backs the library's `std` maps: [`FoldHasher`] mixes
//! eight bytes per step and finalizes like [`KeyWords::full_hash`], and
//! [`BuildFoldHasher`] is the seed-free `S` of every `HashMap<K, V, S>`
//! and `HashSet<T, S>` outside tests, where `HashMap::new()` would pick
//! up the OS-seeded SipHash.

use std::hash::{BuildHasherDefault, Hasher};

use crate::fields::ALL_FIELDS;
use crate::key::FlowKey;
use crate::mask::FlowMask;

/// Number of words in a flow key's word representation (one per field,
/// in [`ALL_FIELDS`] order).
pub const KEY_WORDS: usize = ALL_FIELDS.len();

/// Number of leading words that form a mask's *head*: the metadata, L2
/// and L3 fields. The remaining [`TAIL_WORDS`] are the L4 ports. Masks
/// that agree on their head share the fold over these words — see
/// [`KeyWords::head_state`].
pub const HEAD_WORDS: usize = 9;

/// Number of trailing (L4) words folded by [`KeyWords::finish_hash`].
pub const TAIL_WORDS: usize = KEY_WORDS - HEAD_WORDS;

/// The FxHash multiplier (Firefox / rustc's fast non-cryptographic
/// hash); chosen for good avalanche under `rotate ^ multiply` folding.
const FX_K: u64 = 0x517c_c1b7_2722_0a95;

#[inline(always)]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(FX_K)
}

/// SplitMix64-style finalizer: full avalanche so the *low* bits — the
/// ones power-of-two tables index by — depend on every input bit.
/// (Raw FxHash is weak in the low bits; a multiply only carries
/// influence upward.)
#[inline(always)]
fn finalize(h: u64) -> u64 {
    let z = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[inline(always)]
fn fold(words: &[u64; KEY_WORDS]) -> u64 {
    let mut h = 0u64;
    for &w in words {
        h = mix(h, w);
    }
    finalize(h)
}

/// A flow key's field words, extracted once per packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyWords {
    words: [u64; KEY_WORDS],
}

impl KeyWords {
    /// The all-zero word set (= `KeyWords::of(&FlowKey::default())`);
    /// handy for pre-sizing batch buffers.
    pub const ZERO: KeyWords = KeyWords {
        words: [0; KEY_WORDS],
    };

    /// Extracts `key`'s words — the one pass per packet. Field order is
    /// [`ALL_FIELDS`] order (pinned by a test).
    #[inline]
    pub fn of(key: &FlowKey) -> Self {
        KeyWords {
            words: [
                key.in_port as u64,
                key.eth_src.as_u64(),
                key.eth_dst.as_u64(),
                key.eth_type as u64,
                key.ip_src as u64,
                key.ip_dst as u64,
                key.ip_proto as u64,
                key.ip_tos as u64,
                key.ip_ttl as u64,
                key.tp_src as u64,
                key.tp_dst as u64,
            ],
        }
    }

    /// Hash of the key as-is (all bits significant). For a canonical
    /// (pre-masked) key this equals the masked hash under its own mask.
    #[inline]
    pub fn full_hash(&self) -> u64 {
        fold(&self.words)
    }

    /// Hash of the key under `mask`, without materialising the masked
    /// key: one AND per word folded into the mix.
    #[inline]
    pub fn masked_hash(&self, mask: &MaskWords) -> u64 {
        let mut h = 0u64;
        for (&w, &m) in self.words.iter().zip(mask.words.iter()) {
            h = mix(h, w & m);
        }
        finalize(h)
    }

    /// The fold over the first [`HEAD_WORDS`] words under a mask's head
    /// words ([`MaskWords::split`]): the part of
    /// [`KeyWords::masked_hash`] that every mask with this head shares.
    /// Pinned by a test: `finish_hash(head_state(head), tail)` equals
    /// `masked_hash` of the mask `(head, tail)` was split from.
    #[inline]
    pub fn head_state(&self, head: &[u64; HEAD_WORDS]) -> u64 {
        let mut h = 0u64;
        for (&w, &m) in self.words.iter().zip(head.iter()) {
            h = mix(h, w & m);
        }
        h
    }

    /// Completes a masked hash from a [`KeyWords::head_state`] and the
    /// mask's [`TAIL_WORDS`] L4 words.
    #[inline]
    pub fn finish_hash(&self, state: u64, tail: &[u64; TAIL_WORDS]) -> u64 {
        let mut h = state;
        for (&w, &m) in self.words[HEAD_WORDS..].iter().zip(tail.iter()) {
            h = mix(h, w & m);
        }
        finalize(h)
    }
}

/// A wildcard mask's field words, precomputed once per subtable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskWords {
    words: [u64; KEY_WORDS],
}

impl MaskWords {
    /// Extracts `mask`'s words in [`ALL_FIELDS`] order.
    #[inline]
    pub fn of(mask: &FlowMask) -> Self {
        let mut words = [0u64; KEY_WORDS];
        for (w, f) in words.iter_mut().zip(ALL_FIELDS) {
            *w = mask.field(f);
        }
        MaskWords { words }
    }

    /// Splits the words at the L3/L4 stage boundary: the
    /// [`HEAD_WORDS`] metadata–L3 words and the [`TAIL_WORDS`] L4 words.
    #[inline]
    pub fn split(&self) -> ([u64; HEAD_WORDS], [u64; TAIL_WORDS]) {
        let mut head = [0u64; HEAD_WORDS];
        let mut tail = [0u64; TAIL_WORDS];
        head.copy_from_slice(&self.words[..HEAD_WORDS]);
        tail.copy_from_slice(&self.words[HEAD_WORDS..]);
        (head, tail)
    }
}

/// A seed-free [`Hasher`] over this module's fold: eight input bytes
/// per `mix` (derived `Hash` impls feed arrays as bytes, and a fold per
/// byte is slower than SipHash), integers one `mix` each, [`finalize`]
/// on `finish`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher {
    h: u64,
}

impl Hasher for FoldHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.h = mix(self.h, u64::from_ne_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.h = mix(self.h, u64::from_ne_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.h = mix(self.h, u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.h = mix(self.h, u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.h = mix(self.h, u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.h = mix(self.h, i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.h = mix(self.h, i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        finalize(self.h)
    }
}

/// The seed-free `S` for `std` maps and sets: `HashMap<K, V,
/// BuildFoldHasher>`, built with `HashMap::default()`.
pub type BuildFoldHasher = BuildHasherDefault<FoldHasher>;

/// Convenience: the deterministic full-key hash of `key` — what the
/// exact-match cache indexes by.
#[inline]
pub fn flow_hash(key: &FlowKey) -> u64 {
    KeyWords::of(key).full_hash()
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "a test may hash with `RandomState`"
)]
mod tests {
    use super::*;
    use crate::rng::for_cases;

    fn rand_key(rng: &mut crate::SplitMix64) -> FlowKey {
        let mut k = FlowKey::default();
        for f in ALL_FIELDS {
            k.set_field(f, rng.next_u64() & f.full_mask()).unwrap();
        }
        k
    }

    fn rand_mask(rng: &mut crate::SplitMix64) -> FlowMask {
        let mut m = FlowMask::default();
        for f in ALL_FIELDS {
            m.set_field(f, rng.next_u64() & f.full_mask()).unwrap();
        }
        m
    }

    #[test]
    fn key_words_match_field_reflection_order() {
        for_cases(64, 0x4a5, |rng| {
            let k = rand_key(rng);
            let words = KeyWords::of(&k);
            for (i, f) in ALL_FIELDS.iter().enumerate() {
                assert_eq!(words.words[i], k.field(*f), "word {i} ({f})");
            }
        });
    }

    #[test]
    fn masked_hash_equals_full_hash_of_canonical_key() {
        // The invariant the flat subtables stand on.
        for_cases(256, 0x4a6, |rng| {
            let k = rand_key(rng);
            let m = rand_mask(rng);
            assert_eq!(
                KeyWords::of(&k).masked_hash(&MaskWords::of(&m)),
                KeyWords::of(&m.apply(&k)).full_hash()
            );
        });
    }

    #[test]
    fn head_plus_finish_equals_masked_hash() {
        // The split the TSS walk shares across subtables must be the
        // same function as the unsplit fold, bit for bit.
        for_cases(256, 0x4a9, |rng| {
            let words = KeyWords::of(&rand_key(rng));
            let mask = MaskWords::of(&rand_mask(rng));
            let (head, tail) = mask.split();
            assert_eq!(
                words.finish_hash(words.head_state(&head), &tail),
                words.masked_hash(&mask)
            );
        });
    }

    #[test]
    fn head_is_everything_before_l4() {
        use crate::fields::Stage;
        for (i, f) in ALL_FIELDS.iter().enumerate() {
            assert_eq!(f.stage() == Stage::L4, i >= HEAD_WORDS, "{f}");
        }
    }

    #[test]
    fn full_hash_is_masked_hash_under_exact_mask() {
        for_cases(64, 0x4a7, |rng| {
            let k = rand_key(rng);
            let exact = MaskWords::of(&FlowMask::exact());
            assert_eq!(
                KeyWords::of(&k).full_hash(),
                KeyWords::of(&k).masked_hash(&exact)
            );
        });
    }

    #[test]
    fn hash_is_deterministic_and_key_sensitive() {
        let a = FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80);
        let b = FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80);
        let c = FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1234, 81);
        assert_eq!(flow_hash(&a), flow_hash(&b));
        assert_ne!(flow_hash(&a), flow_hash(&c));
    }

    #[test]
    fn high_bit_differences_reach_low_hash_bits() {
        // Power-of-two tables index with the low bits; keys differing
        // only in a field's *high* bits must still spread over sets.
        // 256 first-octet variants of ip_src → expect ~256 distinct
        // values of (hash & 0xff) collisions-permitting (> 128 easily).
        let mut low_bits = std::collections::HashSet::new();
        for octet in 0..=255u8 {
            let k = FlowKey::tcp([octet, 0, 0, 1], [10, 0, 0, 2], 1, 2);
            low_bits.insert(flow_hash(&k) & 0xff);
        }
        assert!(low_bits.len() > 128, "got {} distinct", low_bits.len());
    }

    #[test]
    fn fold_hasher_is_seed_free_and_folds_words() {
        use std::hash::{BuildHasher, Hash};
        let build = BuildFoldHasher::default();
        let mask = FlowMask::exact();
        assert_eq!(
            build.hash_one(mask),
            BuildFoldHasher::default().hash_one(mask)
        );
        assert_ne!(build.hash_one(mask), build.hash_one(FlowMask::WILDCARD));
        // Nine words written as bytes fold like nine `write_u64`s.
        let words = [3u64, 1, 4, 1, 5, 9, 2, 6, 5];
        let mut bytes = FoldHasher::default();
        words.hash(&mut bytes);
        let mut ints = FoldHasher::default();
        ints.write_usize(words.len());
        for w in words {
            ints.write_u64(w);
        }
        assert_eq!(bytes.finish(), ints.finish());
    }

    #[test]
    fn zero_words_constant_matches_default_key() {
        assert_eq!(KeyWords::ZERO, KeyWords::of(&FlowKey::default()));
    }

    #[test]
    fn wildcard_mask_hashes_everything_identically() {
        for_cases(32, 0x4a8, |rng| {
            let k = rand_key(rng);
            let wild = MaskWords::of(&FlowMask::WILDCARD);
            assert_eq!(
                KeyWords::of(&k).masked_hash(&wild),
                KeyWords::of(&FlowKey::default()).full_hash()
            );
        });
    }
}
