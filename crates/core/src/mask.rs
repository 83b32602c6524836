//! Wildcard masks and masked keys.
//!
//! A [`FlowMask`] is a per-bit wildcard pattern over every [`FlowKey`]
//! field: a 1-bit means "this bit of the header must match exactly", a
//! 0-bit means "wildcarded". Tuple Space Search groups entries by mask —
//! one hash table ("subtable") per distinct mask — which is precisely why
//! mask count, not entry count, drives lookup cost and why the paper's
//! attack works by inflating the number of *distinct masks*.

use std::fmt;

use crate::error::CoreError;
use crate::fields::{Field, ALL_FIELDS};
use crate::key::FlowKey;

/// A per-bit wildcard mask over all [`FlowKey`] fields.
///
/// Internally stores one right-aligned `u64` mask per field, accessed
/// through the same [`Field`] reflection as keys. The default mask is
/// all-wildcard (matches everything).
///
/// The derived ordering is an arbitrary total order for sorting and
/// grouping by mask; the subset relation is [`FlowMask::is_subset_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FlowMask {
    bits: [u64; ALL_FIELDS.len()],
}

impl FlowMask {
    /// The all-wildcard mask: matches every packet.
    pub const WILDCARD: FlowMask = FlowMask {
        bits: [0; ALL_FIELDS.len()],
    };

    /// The exact-match mask: every bit of every field significant.
    pub fn exact() -> Self {
        let mut m = FlowMask::default();
        for f in ALL_FIELDS {
            m.bits[Self::idx(f)] = f.full_mask();
        }
        m
    }

    #[inline]
    fn idx(field: Field) -> usize {
        // ALL_FIELDS is ordered; map each variant to its position.
        match field {
            Field::InPort => 0,
            Field::EthSrc => 1,
            Field::EthDst => 2,
            Field::EthType => 3,
            Field::IpSrc => 4,
            Field::IpDst => 5,
            Field::IpProto => 6,
            Field::IpTos => 7,
            Field::IpTtl => 8,
            Field::TpSrc => 9,
            Field::TpDst => 10,
        }
    }

    /// Reads the mask bits for `field`, right-aligned.
    pub fn field(&self, field: Field) -> u64 {
        self.bits[Self::idx(field)]
    }

    /// Writes the mask bits for `field`.
    ///
    /// Errors if `mask` has bits outside the field's width.
    pub fn set_field(&mut self, field: Field, mask: u64) -> crate::Result<()> {
        if mask > field.full_mask() {
            return Err(CoreError::ValueOutOfRange {
                field: field.name(),
                value: mask,
                width: field.width(),
            });
        }
        self.bits[Self::idx(field)] = mask;
        Ok(())
    }

    /// Builder-style mask update.
    ///
    /// # Panics
    /// If `mask` has bits outside the field's width;
    /// [`FlowMask::set_field`] is the fallible form.
    #[must_use]
    #[allow(clippy::expect_used, reason = "literal builder; see # Panics")]
    pub fn with(mut self, field: Field, mask: u64) -> Self {
        self.set_field(field, mask)
            .expect("FlowMask::with called with out-of-range mask");
        self
    }

    /// Builder-style: match `field` exactly (all bits significant).
    #[must_use]
    pub fn with_exact(self, field: Field) -> Self {
        self.with(field, field.full_mask())
    }

    /// Builder-style: match the `len` most significant bits of `field`.
    #[must_use]
    pub fn with_prefix(self, field: Field, len: u8) -> Self {
        self.with(field, field.prefix_mask(len))
    }

    /// Applies the mask to a key: wildcarded bits are zeroed.
    pub fn apply(&self, key: &FlowKey) -> FlowKey {
        let mut out = FlowKey::default();
        for f in ALL_FIELDS {
            // A mask's bits fit the field's width (`set_field` checks),
            // so the masked value does too.
            out.store(f, key.field(f) & self.field(f));
        }
        out
    }

    /// Bitwise union: the mask exact in every bit either input is exact in.
    /// Un-wildcarding during megaflow generation is a sequence of unions.
    #[must_use]
    pub fn union(&self, other: &FlowMask) -> FlowMask {
        let mut out = *self;
        for (o, b) in out.bits.iter_mut().zip(other.bits.iter()) {
            *o |= *b;
        }
        out
    }

    /// In-place union of a single field's bits into this mask.
    pub fn unwildcard(&mut self, field: Field, mask_bits: u64) {
        debug_assert!(mask_bits <= field.full_mask());
        self.bits[Self::idx(field)] |= mask_bits;
    }

    /// True if `self` is *at least as wildcarded* as `other` in every bit,
    /// i.e. every bit significant in `self` is significant in `other`.
    pub fn is_subset_of(&self, other: &FlowMask) -> bool {
        self.bits
            .iter()
            .zip(other.bits.iter())
            .all(|(a, b)| a & b == *a)
    }

    /// True if no bit is significant (matches everything).
    pub fn is_wildcard_all(&self) -> bool {
        self.bits.iter().all(|b| *b == 0)
    }

    /// Total number of significant (exact-match) bits across all fields.
    pub fn significant_bits(&self) -> u32 {
        self.bits.iter().map(|b| b.count_ones()).sum()
    }

    /// The fields with at least one significant bit, in canonical order.
    pub fn touched_fields(&self) -> Vec<Field> {
        ALL_FIELDS
            .iter()
            .copied()
            .filter(|f| self.field(*f) != 0)
            .collect()
    }

    /// Whether two keys are equal under this mask.
    pub fn key_eq(&self, a: &FlowKey, b: &FlowKey) -> bool {
        ALL_FIELDS
            .iter()
            .all(|f| (a.field(*f) ^ b.field(*f)) & self.field(*f) == 0)
    }
}

impl fmt::Display for FlowMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_wildcard_all() {
            return f.write_str("*");
        }
        let mut first = true;
        for field in ALL_FIELDS {
            let m = self.field(field);
            if m == 0 {
                continue;
            }
            if !first {
                f.write_str(",")?;
            }
            first = false;
            if m == field.full_mask() {
                write!(f, "{field}")?;
            } else if m.leading_zeros() as u8 + m.count_ones() as u8 + m.trailing_zeros() as u8
                == 64
                && m != 0
            {
                // Contiguous run of ones starting at the top of the field:
                // print as a prefix length.
                let len = m.count_ones();
                write!(f, "{field}/{len}")?;
            } else {
                write!(f, "{field}&{m:#x}")?;
            }
        }
        Ok(())
    }
}

/// A canonical `(key & mask, mask)` pair.
///
/// `MaskedKey` is the unit stored in flow tables and the megaflow cache.
/// The key is always stored pre-masked so structural equality and hashing
/// behave set-theoretically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaskedKey {
    key: FlowKey,
    mask: FlowMask,
}

impl MaskedKey {
    /// Creates a masked key, canonicalising `key` by applying `mask`.
    pub fn new(key: FlowKey, mask: FlowMask) -> Self {
        MaskedKey {
            key: mask.apply(&key),
            mask,
        }
    }

    /// The match-everything masked key.
    pub fn wildcard() -> Self {
        MaskedKey::new(FlowKey::default(), FlowMask::WILDCARD)
    }

    /// The canonical (pre-masked) key.
    pub fn key(&self) -> &FlowKey {
        &self.key
    }

    /// The mask.
    pub fn mask(&self) -> &FlowMask {
        &self.mask
    }

    /// True if `packet` matches this masked key.
    pub fn matches(&self, packet: &FlowKey) -> bool {
        self.mask.key_eq(&self.key, packet)
    }

    /// True if every packet matching `self` also matches `other`
    /// (i.e. `self ⊆ other` as packet sets).
    pub fn is_subset_of(&self, other: &MaskedKey) -> bool {
        // other's mask must be a subset of ours (other is no more specific
        // anywhere), and the keys must agree on other's significant bits.
        other.mask.is_subset_of(&self.mask) && other.mask.key_eq(&self.key, &other.key)
    }

    /// True if some packet matches both masked keys.
    ///
    /// Two masked keys overlap iff their keys agree on every bit that is
    /// significant in *both* masks.
    pub fn overlaps(&self, other: &MaskedKey) -> bool {
        ALL_FIELDS.iter().all(|f| {
            let common = self.mask.field(*f) & other.mask.field(*f);
            (self.key.field(*f) ^ other.key.field(*f)) & common == 0
        })
    }

    /// Constructs a packet that matches this masked key: the canonical key
    /// itself (wildcarded bits zero). Useful for tests and witnesses.
    pub fn witness(&self) -> FlowKey {
        self.key
    }
}

impl fmt::Display for MaskedKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mask.is_wildcard_all() {
            return f.write_str("*");
        }
        let mut first = true;
        for field in ALL_FIELDS {
            let m = self.mask.field(field);
            if m == 0 {
                continue;
            }
            if !first {
                f.write_str(",")?;
            }
            first = false;
            let v = self.key.field(field);
            if m == field.full_mask() {
                write!(f, "{field}={v:#x}")?;
            } else if m.count_ones() + m.trailing_zeros() == 64 - m.leading_zeros() {
                // Contiguous prefix mask.
                let len =
                    m.count_ones() as u8 + (64 - field.width() as u32 - m.leading_zeros()) as u8;
                write!(f, "{field}={v:#x}/{len}")?;
            } else {
                write!(f, "{field}={v:#x}&{m:#x}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(ip_src: [u8; 4], tp_dst: u16) -> FlowKey {
        FlowKey::tcp(ip_src, [10, 0, 0, 99], 40000, tp_dst)
    }

    #[test]
    fn wildcard_matches_everything() {
        let mk = MaskedKey::wildcard();
        assert!(mk.matches(&k([10, 0, 0, 1], 80)));
        assert!(mk.matches(&FlowKey::default()));
    }

    #[test]
    fn exact_mask_matches_only_identical() {
        let key = k([10, 0, 0, 1], 80);
        let mk = MaskedKey::new(key, FlowMask::exact());
        assert!(mk.matches(&key));
        assert!(!mk.matches(&k([10, 0, 0, 2], 80)));
        assert!(!mk.matches(&k([10, 0, 0, 1], 81)));
    }

    #[test]
    fn prefix_mask_matching() {
        // allow 10.0.0.0/8
        let mask = FlowMask::default().with_prefix(Field::IpSrc, 8);
        let mk = MaskedKey::new(k([10, 0, 0, 0], 0), mask);
        assert!(mk.matches(&k([10, 1, 2, 3], 443)));
        assert!(mk.matches(&k([10, 255, 255, 255], 80)));
        assert!(!mk.matches(&k([11, 0, 0, 0], 80)));
        assert!(!mk.matches(&k([192, 168, 0, 1], 80)));
    }

    #[test]
    fn apply_zeroes_wildcarded_bits() {
        let mask = FlowMask::default()
            .with_prefix(Field::IpSrc, 8)
            .with_exact(Field::TpDst);
        let key = k([10, 9, 8, 7], 443);
        let masked = mask.apply(&key);
        assert_eq!(masked.ip_src, 0x0a00_0000);
        assert_eq!(masked.tp_dst, 443);
        assert_eq!(masked.tp_src, 0); // wildcarded
        assert_eq!(masked.eth_type, 0); // wildcarded
    }

    #[test]
    fn apply_is_idempotent() {
        let mask = FlowMask::default()
            .with_prefix(Field::IpSrc, 13)
            .with(Field::TpDst, 0xff00)
            .with_exact(Field::IpProto);
        let key = k([10, 47, 200, 3], 8080);
        let once = mask.apply(&key);
        let twice = mask.apply(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn union_is_monotone_and_commutative() {
        let a = FlowMask::default().with_prefix(Field::IpSrc, 8);
        let b = FlowMask::default().with_exact(Field::TpDst);
        let u = a.union(&b);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        assert_eq!(u, b.union(&a));
        assert_eq!(u.significant_bits(), 8 + 16);
    }

    #[test]
    fn subset_relation() {
        let narrow = FlowMask::default().with_prefix(Field::IpSrc, 8);
        let wide = FlowMask::default()
            .with_prefix(Field::IpSrc, 16)
            .with_exact(Field::TpDst);
        assert!(narrow.is_subset_of(&wide));
        assert!(!wide.is_subset_of(&narrow));
        assert!(FlowMask::WILDCARD.is_subset_of(&narrow));
        assert!(narrow.is_subset_of(&narrow));
    }

    #[test]
    fn exact_and_wildcard_predicates() {
        assert!(FlowMask::WILDCARD.is_wildcard_all());
        assert!(!FlowMask::exact().is_wildcard_all());
        assert_eq!(FlowMask::exact().significant_bits(), 264);
    }

    #[test]
    fn touched_fields_in_canonical_order() {
        let m = FlowMask::default()
            .with_exact(Field::TpDst)
            .with_prefix(Field::IpSrc, 4)
            .with_exact(Field::InPort);
        assert_eq!(
            m.touched_fields(),
            vec![Field::InPort, Field::IpSrc, Field::TpDst]
        );
    }

    #[test]
    fn masked_key_canonicalises() {
        let mask = FlowMask::default().with_prefix(Field::IpSrc, 8);
        let a = MaskedKey::new(k([10, 1, 2, 3], 80), mask);
        let b = MaskedKey::new(k([10, 99, 98, 97], 8080), mask);
        // Same /8, different hosts/ports: canonical form identical.
        assert_eq!(a, b);
        assert_eq!(a.key().ip_src, 0x0a00_0000);
    }

    #[test]
    fn overlap_detection() {
        let m8 = FlowMask::default().with_prefix(Field::IpSrc, 8);
        let m16 = FlowMask::default().with_prefix(Field::IpSrc, 16);
        let ten8 = MaskedKey::new(k([10, 0, 0, 0], 0), m8);
        let ten_one16 = MaskedKey::new(k([10, 1, 0, 0], 0), m16);
        let eleven8 = MaskedKey::new(k([11, 0, 0, 0], 0), m8);
        assert!(ten8.overlaps(&ten_one16));
        assert!(ten_one16.overlaps(&ten8));
        assert!(!ten8.overlaps(&eleven8));
        // Orthogonal fields always overlap.
        let port = MaskedKey::new(
            k([0, 0, 0, 0], 80),
            FlowMask::default().with_exact(Field::TpDst),
        );
        assert!(ten8.overlaps(&port));
    }

    #[test]
    fn subset_of_masked_keys() {
        let m8 = FlowMask::default().with_prefix(Field::IpSrc, 8);
        let m16 = FlowMask::default().with_prefix(Field::IpSrc, 16);
        let ten8 = MaskedKey::new(k([10, 0, 0, 0], 0), m8);
        let ten_one16 = MaskedKey::new(k([10, 1, 0, 0], 0), m16);
        assert!(ten_one16.is_subset_of(&ten8));
        assert!(!ten8.is_subset_of(&ten_one16));
        assert!(ten8.is_subset_of(&MaskedKey::wildcard()));
        assert!(ten8.is_subset_of(&ten8));
    }

    #[test]
    fn witness_matches_self() {
        let mk = MaskedKey::new(
            k([10, 2, 3, 4], 443),
            FlowMask::default()
                .with_prefix(Field::IpSrc, 13)
                .with_exact(Field::TpDst)
                .with_exact(Field::IpProto),
        );
        assert!(mk.matches(&mk.witness()));
    }

    #[test]
    fn display_formats() {
        assert_eq!(FlowMask::WILDCARD.to_string(), "*");
        let m = FlowMask::default()
            .with_prefix(Field::IpSrc, 8)
            .with_exact(Field::TpDst);
        let s = m.to_string();
        assert!(s.contains("ip_src/8"), "{s}");
        assert!(s.contains("tp_dst"), "{s}");
        assert_eq!(MaskedKey::wildcard().to_string(), "*");
    }

    #[test]
    fn key_eq_respects_only_significant_bits() {
        let m = FlowMask::default().with(Field::TpDst, 0xff00);
        let a = k([1, 1, 1, 1], 0x1234);
        let b = k([2, 2, 2, 2], 0x12ff);
        let c = k([1, 1, 1, 1], 0x1334);
        assert!(m.key_eq(&a, &b)); // high byte of tp_dst equal
        assert!(!m.key_eq(&a, &c)); // high byte differs
    }
}
