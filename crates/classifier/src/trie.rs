//! Per-field binary prefix tries.
//!
//! Open vSwitch consults a trie of the prefixes appearing in the flow
//! table to decide **how many bits of a field the megaflow entry must
//! match** to stay faithful to the table. This is the engine behind the
//! paper's Fig. 2b: proving that a packet does *not* fall under the
//! `00001010/8` allow rule requires only the bits up to and including the
//! first position where the packet diverges from the stored prefix —
//! hence the complement of one 8-bit value decomposes into 8 masks of
//! lengths 1..=8.
//!
//! **Path-compressed, like OVS's own** (`lib/classifier.c`, `struct
//! trie_node { prefix, n_bits, edges[2] }`). Each node carries the edge
//! that leads to it: up to 64 bits, left-aligned in a `u64`. A chain of
//! single-child, non-terminal bit positions is one edge, so matching it
//! is one XOR and one `leading_zeros`. Every node but the root (depth 0,
//! empty edge) ends a stored prefix or branches. The answers are those
//! of the bit-at-a-time trie this replaced, position for position: a
//! mismatch at bit `d` inside an edge is a mismatch at a single-child
//! node of depth `d`.
//! `crates/classifier/tests/trie_differential.rs` keeps that trie as the
//! reference model. A client of the 512-client /32 whitelist walks 11
//! nodes instead of 33.
//!
//! The trie is insert-only: the slow path rebuilds tries from a table
//! snapshot when policies change, which matches how rarely real flow
//! tables mutate compared to packet arrivals.

use std::collections::BTreeSet;

use pi_core::Field;

/// No child on this side (index 0 is the root, which is nobody's child).
const NONE: u32 = 0;

/// One node and the edge into it.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    /// The edge's bits, MSB first, left-aligned; zero past `len`.
    bits: u64,
    /// Edge length in bits: 0 for the root (depth 0), at least 1 for
    /// every other node, whose first bit is the one its parent branched
    /// on.
    len: u8,
    /// A stored prefix ends at this node.
    is_end: bool,
    children: [u32; 2],
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.children == [NONE; 2]
    }

    /// Bits of `v << at` (left-aligned, `at` bits into the field) that
    /// agree with the edge before the first mismatch, capped at `len`.
    #[inline(always)]
    fn matched(&self, v: u64, at: u8) -> u8 {
        (((v << at) ^ self.bits).leading_zeros() as u8).min(self.len)
    }
}

/// The first `len` bits of a left-aligned value, the rest cleared.
fn high_bits(v: u64, len: u8) -> u64 {
    match len {
        0 => 0,
        _ => v & (u64::MAX << (64 - u32::from(len))),
    }
}

/// Bit `at` (MSB first) of a left-aligned value, as a child index.
#[inline(always)]
fn bit(v: u64, at: u8) -> usize {
    ((v << at) >> 63) as usize
}

/// A path-compressed binary trie over the MSB-first bit strings of one
/// field's prefixes.
#[derive(Debug, Clone)]
pub struct PrefixTrie {
    field: Field,
    /// The field's width; values are shifted left by `64 - width`.
    width: u8,
    nodes: Vec<Node>,
    count: usize,
}

impl PrefixTrie {
    /// An empty trie for `field`.
    pub fn new(field: Field) -> Self {
        PrefixTrie {
            field,
            width: field.width(),
            nodes: vec![Node::default()], // root
            count: 0,
        }
    }

    /// `value`'s field bits, left-aligned (bits above the width dropped).
    #[inline(always)]
    fn align(&self, value: u64) -> u64 {
        value << (64 - u32::from(self.width))
    }

    /// The field this trie indexes.
    pub fn field(&self) -> Field {
        self.field
    }

    /// Number of distinct stored prefixes.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True if no prefixes are stored.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Inserts the prefix formed by the `len` most significant bits of
    /// `value`. Idempotent for duplicates.
    ///
    /// # Panics
    /// Panics if `len` is 0 or exceeds the field width (a rule whose mask
    /// is zero on this field contributes no prefix and must not be
    /// inserted).
    pub fn insert(&mut self, value: u64, len: u8) {
        assert!(len >= 1, "zero-length prefixes are not stored");
        assert!(len <= self.width, "prefix longer than field");
        let v = high_bits(self.align(value), len);
        let mut n = 0usize;
        let mut depth = 0u8;
        loop {
            let node = self.nodes[n];
            let common = node.matched(v, depth).min(len - depth);
            if common < node.len {
                self.split(n, common);
            }
            depth += common;
            if depth == len {
                if !self.nodes[n].is_end {
                    self.nodes[n].is_end = true;
                    self.count += 1;
                }
                return;
            }
            let side = bit(v, depth);
            match self.nodes[n].children[side] {
                NONE => {
                    let leaf = self.nodes.len() as u32;
                    self.nodes.push(Node {
                        bits: v << depth,
                        len: len - depth,
                        is_end: true,
                        children: [NONE; 2],
                    });
                    self.nodes[n].children[side] = leaf;
                    self.count += 1;
                    return;
                }
                c => n = c as usize,
            }
        }
    }

    /// Cuts node `n`'s edge after `at < len` bits: `n` keeps the head
    /// and gets one child, a new node holding the tail and everything
    /// `n` held below it.
    fn split(&mut self, n: usize, at: u8) {
        let node = self.nodes[n];
        let tail = self.nodes.len() as u32;
        self.nodes.push(Node {
            bits: node.bits << at,
            len: node.len - at,
            ..node
        });
        let mut children = [NONE; 2];
        children[bit(node.bits, at)] = tail;
        self.nodes[n] = Node {
            bits: high_bits(node.bits, at),
            len: at,
            is_end: false,
            children,
        };
    }

    /// True if exactly this prefix is stored (never for `len` 0 or
    /// beyond the field width).
    pub fn contains(&self, value: u64, len: u8) -> bool {
        if len > self.width {
            return false;
        }
        let v = self.align(value);
        let mut n = 0usize;
        let mut depth = 0u8;
        loop {
            let node = &self.nodes[n];
            // Ends inside the edge (only single-child, non-terminal
            // positions there) or leaves it early: not stored.
            if node.len > len - depth || node.matched(v, depth) < node.len {
                return false;
            }
            depth += node.len;
            if depth == len {
                return node.is_end;
            }
            match node.children[bit(v, depth)] {
                NONE => return false,
                c => n = c as usize,
            }
        }
    }

    /// Length of the longest stored prefix that `value` falls under.
    pub fn longest_match(&self, value: u64) -> Option<u8> {
        let v = self.align(value);
        let mut best = None;
        let mut n = 0usize;
        let mut depth = 0u8;
        loop {
            let node = &self.nodes[n];
            if node.matched(v, depth) < node.len {
                return best;
            }
            depth += node.len;
            if node.is_end {
                best = Some(depth);
            }
            // A node at the full width is a leaf: the probe below misses.
            match node.children[bit(v, depth)] {
                NONE => return best,
                c => n = c as usize,
            }
        }
    }

    /// The minimal number of most-significant bits of `value` a cache
    /// entry must match so that *which stored prefixes `value` falls
    /// under* is fully determined — OVS's `trie_lookup` un-wildcarding
    /// bound, the quantity behind Fig. 2b.
    ///
    /// * Returns 0 for an empty trie (no rule constrains the field): its
    ///   root is a leaf that ends no prefix.
    /// * If the walk diverges from every stored prefix at depth `d`
    ///   (0-based) while longer prefixes continue on a sibling branch or
    ///   further along the edge, `d + 1` bits are needed: bits 0..=d
    ///   prove the mismatch.
    /// * If the walk ends at a node with no deeper prefixes, the length
    ///   of the longest matched prefix suffices.
    // audit: hotpath
    pub fn unwildcard_bits(&self, value: u64) -> u8 {
        let v = self.align(value);
        let mut longest = 0u8;
        let mut n = 0usize;
        let mut depth = 0u8;
        loop {
            let node = &self.nodes[n];
            let matched = node.matched(v, depth);
            if matched < node.len {
                // Every position inside an edge has one child; bit
                // `depth + matched` proves the packet leaves it.
                return depth + matched + 1;
            }
            depth += node.len;
            if node.is_end {
                longest = depth;
            }
            if node.is_leaf() {
                // Nothing deeper anywhere below: the longest matched
                // prefix is the only constraint.
                return longest;
            }
            match node.children[bit(v, depth)] {
                // Deeper prefixes exist only on the sibling branch; bit
                // `depth` proves the packet diverges from all of them.
                NONE => return depth + 1,
                c => n = c as usize,
            }
        }
    }

    /// Removes every prefix.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::default());
        self.count = 0;
    }

    /// Every value [`PrefixTrie::unwildcard_bits`] can return for some
    /// input — i.e. the set of megaflow prefix lengths this field can
    /// contribute. The attack's mask-count prediction multiplies the
    /// sizes of these sets across fields (`pi-attack::predict`).
    ///
    /// Derivation: a walk returns `d + 1` exactly at a bit position of
    /// depth `d` with one way on (the packet can take the other) — every
    /// position strictly inside an edge, and every node with exactly one
    /// child — and returns a longest-match length `d` exactly at a
    /// prefix-end leaf of depth `d`. An empty trie returns only 0.
    pub fn reachable_unwildcard_bits(&self) -> BTreeSet<u8> {
        let mut out = BTreeSet::new();
        if self.is_empty() {
            out.insert(0);
            return out;
        }
        // (node, depth where its edge starts)
        let mut stack: Vec<(usize, u8)> = vec![(0, 0)];
        while let Some((n, start)) = stack.pop() {
            let node = &self.nodes[n];
            let depth = start + node.len;
            // Positions start+1 ..= depth-1, strictly inside the edge,
            // each return one more (position `start` is the parent's).
            out.extend(start + 2..=depth);
            let children = node.children.iter().filter(|&&c| c != NONE).count();
            if node.is_end && children == 0 {
                out.insert(depth);
            }
            if children == 1 {
                out.insert(depth + 1);
            }
            for c in node.children.into_iter().filter(|&c| c != NONE) {
                stack.push((c as usize, depth));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's toy: a single 8-bit field (modelled on IpProto, the
    /// only 8-bit field) with the allow-rule value 00001010.
    fn toy_trie() -> PrefixTrie {
        let mut t = PrefixTrie::new(Field::IpProto);
        t.insert(0b0000_1010, 8);
        t
    }

    #[test]
    fn empty_trie_needs_no_bits() {
        let t = PrefixTrie::new(Field::IpSrc);
        assert_eq!(t.unwildcard_bits(0xdead_beef), 0);
        assert!(t.is_empty());
        assert_eq!(t.longest_match(42), None);
    }

    #[test]
    fn figure_2b_decomposition() {
        // Exactly the paper's table: for each deny row, the number of
        // mask bits equals (shared prefix with 00001010) + 1; the allow
        // value itself needs all 8.
        let t = toy_trie();
        let cases: [(u8, u8); 9] = [
            (0b0000_1010, 8), // allow: full match
            (0b1000_0000, 1), // differs at bit 0
            (0b0100_0000, 2),
            (0b0010_0000, 3),
            (0b0001_0000, 4),
            (0b0000_0000, 5),
            (0b0000_1100, 6),
            (0b0000_1000, 7),
            (0b0000_1011, 8), // differs at the last bit
        ];
        for (value, expected) in cases {
            assert_eq!(
                t.unwildcard_bits(value as u64),
                expected,
                "value {value:08b}"
            );
        }
    }

    #[test]
    fn inside_short_prefix_needs_prefix_len_bits() {
        // allow 10.0.0.0/8 on the real 32-bit field.
        let mut t = PrefixTrie::new(Field::IpSrc);
        t.insert(0x0a00_0000, 8);
        // In-prefix packets: 8 bits, regardless of host bits.
        assert_eq!(t.unwildcard_bits(0x0a01_0203), 8);
        assert_eq!(t.unwildcard_bits(0x0aff_ffff), 8);
        // Out-of-prefix: divergence point + 1.
        assert_eq!(t.unwildcard_bits(0x8000_0000), 1); // bit 0 differs
        assert_eq!(t.unwildcard_bits(0x0b00_0000), 8); // differs at bit 7
        assert_eq!(t.unwildcard_bits(0x0800_0000), 7); // 00001_0.. vs 00001_0? bit 6
    }

    #[test]
    fn nested_prefixes() {
        // 00/2 and 00001010/8 (toy field): packets inside /2 but outside
        // /8 need divergence+1; fully matching needs 8; inside /2 along
        // the /8 path but diverging later still counts correctly.
        let mut t = PrefixTrie::new(Field::IpProto);
        t.insert(0b0000_0000, 2);
        t.insert(0b0000_1010, 8);
        assert_eq!(t.unwildcard_bits(0b0010_0000), 3); // diverge at bit 2
        assert_eq!(t.unwildcard_bits(0b0000_1010), 8); // full match
        assert_eq!(t.unwildcard_bits(0b0000_1011), 8); // diverge at bit 7
        assert_eq!(t.unwildcard_bits(0b1000_0000), 1); // outside /2, bit 0
                                                       // Inside /2, diverging from /8 at bit 4.
        assert_eq!(t.unwildcard_bits(0b0001_0000), 4);
    }

    #[test]
    fn sibling_prefixes_at_same_length() {
        let mut t = PrefixTrie::new(Field::TpDst);
        t.insert(80, 16);
        t.insert(443, 16);
        // 80 = 0b0000000001010000, 443 = 0b0000000110111011.
        assert_eq!(t.unwildcard_bits(80), 16);
        assert_eq!(t.unwildcard_bits(443), 16);
        // 8080 = 0b0001111110010000: diverges from both at bit 3.
        assert_eq!(t.unwildcard_bits(8080), 4);
        // 0x8000: diverges at bit 0.
        assert_eq!(t.unwildcard_bits(0x8000), 1);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut t = toy_trie();
        assert_eq!(t.len(), 1);
        t.insert(0b0000_1010, 8);
        assert_eq!(t.len(), 1);
        t.insert(0b0000_1010, 4); // genuinely new (shorter) prefix
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn contains_and_longest_match() {
        let mut t = PrefixTrie::new(Field::IpSrc);
        t.insert(0x0a00_0000, 8);
        t.insert(0x0a01_0000, 16);
        assert!(t.contains(0x0a00_0000, 8));
        assert!(t.contains(0x0a01_0000, 16));
        assert!(!t.contains(0x0a00_0000, 16));
        assert!(!t.contains(0x0b00_0000, 8));
        assert_eq!(t.longest_match(0x0a01_ffff), Some(16));
        assert_eq!(t.longest_match(0x0a02_ffff), Some(8));
        assert_eq!(t.longest_match(0x0b00_0000), None);
    }

    #[test]
    fn clear_resets() {
        let mut t = toy_trie();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.unwildcard_bits(0), 0);
        t.insert(1, 8);
        assert_eq!(t.len(), 1);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_insert_panics() {
        PrefixTrie::new(Field::IpSrc).insert(0, 0);
    }

    #[test]
    #[should_panic(expected = "longer than field")]
    fn overlong_insert_panics() {
        PrefixTrie::new(Field::TpDst).insert(0, 17);
    }

    #[test]
    fn reachable_bits_single_full_prefix() {
        // /32 exact on a 32-bit field: every length 1..=32 reachable —
        // the paper's per-field factor of 32.
        let mut t = PrefixTrie::new(Field::IpSrc);
        t.insert(0x0a00_0001, 32);
        let r = t.reachable_unwildcard_bits();
        assert_eq!(r.len(), 32);
        assert_eq!(
            r.iter().copied().collect::<Vec<_>>(),
            (1..=32).collect::<Vec<_>>()
        );
        // 16-bit port, exact: factor 16.
        let mut p = PrefixTrie::new(Field::TpDst);
        p.insert(80, 16);
        assert_eq!(p.reachable_unwildcard_bits().len(), 16);
    }

    #[test]
    fn reachable_bits_short_prefix() {
        // /8 allow rule: lengths 1..=8 (Fig. 2's 8 masks).
        let mut t = PrefixTrie::new(Field::IpSrc);
        t.insert(0x0a00_0000, 8);
        assert_eq!(
            t.reachable_unwildcard_bits()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            (1..=8).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reachable_bits_empty_and_nested() {
        assert_eq!(
            PrefixTrie::new(Field::IpSrc)
                .reachable_unwildcard_bits()
                .iter()
                .copied()
                .collect::<Vec<_>>(),
            vec![0]
        );
        // Nested /2 + /8 (toy field): {1..8} but NOT 2 — values inside
        // the /2 following the /8 path that diverge at depth 2 need 3
        // bits, and nothing returns exactly 2… except values diverging
        // at depth 1 get 2. Verify against brute force.
        let mut t = PrefixTrie::new(Field::IpProto);
        t.insert(0b0000_0000, 2);
        t.insert(0b0000_1010, 8);
        let predicted = t.reachable_unwildcard_bits();
        let mut actual = std::collections::BTreeSet::new();
        for v in 0u64..256 {
            actual.insert(t.unwildcard_bits(v));
        }
        assert_eq!(predicted, actual);
    }

    #[test]
    fn reachable_bits_matches_brute_force_for_sibling_ports() {
        let mut t = PrefixTrie::new(Field::TpDst);
        t.insert(80, 16);
        t.insert(443, 16);
        t.insert(8000, 12);
        let predicted = t.reachable_unwildcard_bits();
        let mut actual = std::collections::BTreeSet::new();
        for v in 0u64..65536 {
            actual.insert(t.unwildcard_bits(v));
        }
        assert_eq!(predicted, actual);
    }

    #[test]
    fn exhaustive_toy_complement_produces_each_length_once() {
        // Over all 256 values of the toy field: the allow value needs 8
        // bits; among the other 255, exactly 2^(8-l) values need l bits
        // for l in 1..=8 (the complement decomposition of Fig. 2b).
        let t = toy_trie();
        let mut by_len = [0usize; 9];
        for v in 0u64..256 {
            by_len[t.unwildcard_bits(v) as usize] += 1;
        }
        assert_eq!(by_len[0], 0);
        for l in 1..=7u32 {
            assert_eq!(
                by_len[l as usize],
                1usize << (8 - l),
                "values needing {l} bits"
            );
        }
        // Length 8: the allow value itself + its last-bit neighbour.
        assert_eq!(by_len[8], 2);
    }
}
