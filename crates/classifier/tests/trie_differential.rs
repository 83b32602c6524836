//! The path-compressed [`PrefixTrie`] against the bit-at-a-time trie it
//! replaced, method by method: both are fed the same prefixes and must
//! give the same answer to every query — `field`, `len`, `is_empty`,
//! `contains`, `longest_match`, `unwildcard_bits`,
//! `reachable_unwildcard_bits`, before and after `clear`.
//!
//! Prefix sets cover 8-, 16-, 32- and 48-bit fields and the shapes that
//! stress edge splitting: nested, duplicate, full-width and
//! single-prefix sets, deep shared prefixes around one base value, the
//! 512-client /32 whitelist and the three fields of the Calico
//! 8192-mask ACL. Queries are near misses of stored prefixes (one bit
//! flipped, host bits randomised) and uniformly random values. Cases
//! come from the deterministic in-house [`SplitMix64`] generator.

use pi_classifier::PrefixTrie;
use pi_core::{Field, SplitMix64};

/// One node: two children and a "a stored prefix ends here" marker.
#[derive(Debug, Clone, Default)]
struct Node {
    children: [Option<u32>; 2],
    is_end: bool,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.children[0].is_none() && self.children[1].is_none()
    }
}

/// The bit-at-a-time trie [`PrefixTrie`] replaced, kept verbatim as the
/// reference model: one node per bit position.
#[derive(Debug, Clone)]
pub struct BitwiseTrie {
    field: Field,
    nodes: Vec<Node>,
    count: usize,
}

impl BitwiseTrie {
    /// An empty trie for `field`.
    pub fn new(field: Field) -> Self {
        BitwiseTrie {
            field,
            nodes: vec![Node::default()], // root
            count: 0,
        }
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
        assert!(len <= self.field.width(), "prefix longer than field");
        let mut node = 0usize;
        for d in 0..len {
            let bit = self.field.bit_msb(value, d) as usize;
            node = match self.nodes[node].children[bit] {
                Some(c) => c as usize,
                None => {
                    let idx = self.nodes.len() as u32;
                    self.nodes.push(Node::default());
                    self.nodes[node].children[bit] = Some(idx);
                    idx as usize
                }
            };
        }
        if !self.nodes[node].is_end {
            self.nodes[node].is_end = true;
            self.count += 1;
        }
    }

    /// True if exactly this prefix is stored.
    pub fn contains(&self, value: u64, len: u8) -> bool {
        let mut node = 0usize;
        for d in 0..len {
            let bit = self.field.bit_msb(value, d) as usize;
            match self.nodes[node].children[bit] {
                Some(c) => node = c as usize,
                None => return false,
            }
        }
        self.nodes[node].is_end
    }

    /// Length of the longest stored prefix that `value` falls under.
    pub fn longest_match(&self, value: u64) -> Option<u8> {
        let mut node = 0usize;
        let mut best = None;
        for d in 0..self.field.width() {
            if self.nodes[node].is_end {
                best = Some(d);
            }
            let bit = self.field.bit_msb(value, d) as usize;
            match self.nodes[node].children[bit] {
                Some(c) => node = c as usize,
                None => return best,
            }
        }
        if self.nodes[node].is_end {
            best = Some(self.field.width());
        }
        best
    }

    /// The minimal number of most-significant bits of `value` a cache
    /// entry must match so that *which stored prefixes `value` falls
    /// under* is fully determined — OVS's `trie_lookup` un-wildcarding
    /// bound, the quantity behind Fig. 2b.
    ///
    /// * Returns 0 for an empty trie (no rule constrains the field).
    /// * If the walk diverges from every stored prefix at depth `d`
    ///   (0-based) while longer prefixes continue on a sibling branch,
    ///   `d + 1` bits are needed: bits 0..=d prove the mismatch.
    /// * If the walk ends at a node with no deeper prefixes, the length
    ///   of the longest matched prefix suffices.
    pub fn unwildcard_bits(&self, value: u64) -> u8 {
        if self.is_empty() {
            return 0;
        }
        let mut node = 0usize;
        let mut longest = 0u8;
        for d in 0..self.field.width() {
            if self.nodes[node].is_end {
                longest = d;
            }
            if self.nodes[node].is_leaf() {
                // Nothing deeper anywhere below: the longest matched
                // prefix is the only constraint.
                return longest;
            }
            let bit = self.field.bit_msb(value, d) as usize;
            match self.nodes[node].children[bit] {
                Some(c) => node = c as usize,
                // Deeper prefixes exist only on the sibling branch; bit d
                // proves the packet diverges from all of them.
                None => return d + 1,
            }
        }
        // Followed stored prefixes through the full field width.
        if self.nodes[node].is_end {
            longest = self.field.width();
        }
        longest
    }

    /// Removes every prefix.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node::default());
        self.count = 0;
    }

    /// Every value [`BitwiseTrie::unwildcard_bits`] can return for some
    /// input — i.e. the set of megaflow prefix lengths this field can
    /// contribute. The attack's mask-count prediction multiplies the
    /// sizes of these sets across fields (`pi-attack::predict`).
    ///
    /// Derivation: a walk returns `d + 1` exactly at a node of depth `d`
    /// with exactly one child (the packet can take the missing side),
    /// and returns a longest-match length `d` exactly at a prefix-end
    /// leaf of depth `d`. An empty trie returns only 0.
    pub fn reachable_unwildcard_bits(&self) -> std::collections::BTreeSet<u8> {
        let mut out = std::collections::BTreeSet::new();
        if self.is_empty() {
            out.insert(0);
            return out;
        }
        let mut stack: Vec<(usize, u8)> = vec![(0, 0)];
        while let Some((n, depth)) = stack.pop() {
            let node = &self.nodes[n];
            let child_count = node.children.iter().filter(|c| c.is_some()).count();
            if node.is_end && child_count == 0 {
                out.insert(depth);
            }
            if child_count == 1 && depth < self.field.width() {
                out.insert(depth + 1);
            }
            for c in node.children.into_iter().flatten() {
                stack.push((c as usize, depth + 1));
            }
        }
        out
    }
}

/// One field of each width the tries see.
const FIELDS: [Field; 4] = [Field::IpProto, Field::TpDst, Field::IpSrc, Field::EthSrc];

/// A random `width`-bit value.
fn value(rng: &mut SplitMix64, width: u8) -> u64 {
    rng.next_u64() & (u64::MAX >> (64 - width))
}

/// A prefix length in 1..=width.
fn length(rng: &mut SplitMix64, width: u8) -> u8 {
    1 + rng.gen_range(u64::from(width)) as u8
}

/// `v` with bit `d` (MSB first, 0-based) flipped.
fn flip(v: u64, width: u8, d: u8) -> u64 {
    v ^ (1 << (width - 1 - d))
}

/// One random prefix set of a named shape.
fn prefix_set(rng: &mut SplitMix64, width: u8) -> Vec<(u64, u8)> {
    let base = value(rng, width);
    let n = 1 + rng.gen_range(24) as usize;
    match rng.gen_range(6) {
        // Unrelated prefixes.
        0 => (0..n)
            .map(|_| (value(rng, width), length(rng, width)))
            .collect(),
        // Nested: prefixes of one value.
        1 => (0..n).map(|_| (base, length(rng, width))).collect(),
        // Duplicates: a few prefixes, each inserted several times.
        2 => {
            let few: Vec<(u64, u8)> = (0..3)
                .map(|_| (value(rng, width), length(rng, width)))
                .collect();
            (0..n).map(|i| few[i % few.len()]).collect()
        }
        // Full width.
        3 => (0..n).map(|_| (value(rng, width), width)).collect(),
        // A single prefix.
        4 => vec![(base, length(rng, width))],
        // Deep shared prefixes: the base with one deep bit flipped, at
        // lengths past the flip (so edges split deep inside).
        _ => (0..n)
            .map(|_| {
                let d = width / 2 + rng.gen_range(u64::from(width - width / 2)) as u8;
                let len = d + 1 + rng.gen_range(u64::from(width - d)) as u8;
                let v = if rng.gen_bool(0.5) {
                    flip(base, width, d)
                } else {
                    base
                };
                (v, len)
            })
            .collect(),
    }
}

/// Queries around the stored prefixes (the prefix itself, one bit
/// flipped, random host bits) and random values, some with garbage
/// above the field width.
fn queries(rng: &mut SplitMix64, width: u8, stored: &[(u64, u8)]) -> Vec<u64> {
    let mut out = Vec::new();
    for &(v, len) in stored {
        let host =
            value(rng, width) & (u64::MAX >> (64 - u32::from(width) + u32::from(len)).min(63));
        out.push(v);
        out.push(v ^ host);
        out.push(flip(v, width, rng.gen_range(u64::from(len)) as u8));
    }
    for _ in 0..16 {
        out.push(value(rng, width));
    }
    out.push(rng.next_u64());
    out
}

/// Inserts `stored` into both tries and compares every query method.
fn check(field: Field, stored: &[(u64, u8)], qs: &[u64]) {
    let mut new = PrefixTrie::new(field);
    let mut old = BitwiseTrie::new(field);
    let width = field.width();
    for round in 0..2 {
        assert_eq!(new.field(), old.field());
        assert_eq!(new.len(), 0);
        assert!(new.is_empty());
        assert_eq!(new.unwildcard_bits(qs[0]), old.unwildcard_bits(qs[0]));
        assert_eq!(
            new.reachable_unwildcard_bits(),
            old.reachable_unwildcard_bits()
        );
        for &(v, len) in stored {
            new.insert(v, len);
            old.insert(v, len);
            assert_eq!(new.len(), old.len());
            assert_eq!(new.is_empty(), old.is_empty());
        }
        let what = format!("{field} round {round} {stored:x?}");
        assert_eq!(
            new.reachable_unwildcard_bits(),
            old.reachable_unwildcard_bits(),
            "{what}"
        );
        for &q in qs {
            assert_eq!(
                new.unwildcard_bits(q),
                old.unwildcard_bits(q),
                "{q:x} in {what}"
            );
            assert_eq!(
                new.longest_match(q),
                old.longest_match(q),
                "{q:x} in {what}"
            );
        }
        for &(v, len) in stored {
            for l in 0..=width {
                assert_eq!(
                    new.contains(v, l),
                    old.contains(v, l),
                    "{v:x}/{l} in {what}"
                );
            }
            let near = flip(v, width, len - 1);
            assert_eq!(new.contains(near, len), old.contains(near, len), "{what}");
        }
        new.clear();
        old.clear();
    }
}

#[test]
fn random_prefix_sets_answer_like_the_bitwise_trie() {
    pi_core::for_cases(600, 0x7e1e, |rng| {
        let field = FIELDS[rng.gen_range(FIELDS.len() as u64) as usize];
        let stored = prefix_set(rng, field.width());
        let qs = queries(rng, field.width(), &stored);
        check(field, &stored, &qs);
    });
}

#[test]
fn narrow_fields_agree_on_every_value() {
    pi_core::for_cases(40, 0x7e1f, |rng| {
        let field = FIELDS[rng.gen_range(2) as usize];
        let stored = prefix_set(rng, field.width());
        let all: Vec<u64> = (0..1u64 << field.width())
            .step_by(if field.width() == 8 { 1 } else { 7 })
            .collect();
        check(field, &stored, &all);
    });
}

#[test]
fn the_512_client_whitelist_answers_like_the_bitwise_trie() {
    let client = |i: u64| u64::from(u32::from_be_bytes([10, 2, (i >> 8) as u8, i as u8]));
    let stored: Vec<(u64, u8)> = (0..512).map(|i| (client(i), 32)).collect();
    // The clients, their neighbours past the whitelist, and strangers.
    let qs: Vec<u64> = (0..1024)
        .map(client)
        .chain((0..64).map(|i| 0x0a03_0000 + i * 977))
        .collect();
    check(Field::IpSrc, &stored, &qs);
    let mut trie = PrefixTrie::new(Field::IpSrc);
    for &(v, len) in &stored {
        trie.insert(v, len);
    }
    // 10.2.0.0/23 is shared and fully populated below: a packet leaves
    // the whitelist within the first 23 bits or matches a client.
    assert_eq!(
        trie.reachable_unwildcard_bits(),
        (1..=23).chain([32]).collect()
    );
}

#[test]
fn the_calico_8192_mask_fields_answer_like_the_bitwise_trie() {
    // allow 203.0.113.7/32, source port 4444, destination port 443:
    // 32 · 16 · 16 = 8192 reachable masks.
    let mut product = 1;
    for (field, v) in [
        (
            Field::IpSrc,
            u64::from(u32::from_be_bytes([203, 0, 113, 7])),
        ),
        (Field::TpSrc, 4444),
        (Field::TpDst, 443),
    ] {
        let width = field.width();
        let qs: Vec<u64> = (0..width)
            .map(|d| flip(v, width, d))
            .chain([v, 0, u64::MAX])
            .collect();
        check(field, &[(v, width)], &qs);
        let mut trie = PrefixTrie::new(field);
        trie.insert(v, width);
        product *= trie.reachable_unwildcard_bits().len();
    }
    assert_eq!(product, 8192);
}
