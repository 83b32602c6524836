//! Header-field reflection.
//!
//! The classifier, the prefix tries and the slow path's un-wildcarding all
//! need to treat "a header field" as a first-class value: iterate over
//! fields, read a field out of a [`crate::FlowKey`] as an integer, widen a
//! mask one bit at a time. This module provides that uniform view.
//!
//! Every field is at most 48 bits wide, so a `u64` holds any field value
//! with room to spare; values are right-aligned (bit 0 is the least
//! significant bit of the field).

use std::fmt;

/// The classification stage a field belongs to.
///
/// Open vSwitch's *staged lookup* probes each subtable in up to four passes
/// — metadata, L2, L3, L4 — aborting early when a stage already rules the
/// subtable out. We reproduce the same grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Switch metadata: the ingress port.
    Metadata,
    /// Ethernet header fields.
    L2,
    /// IPv4 header fields.
    L3,
    /// Transport (TCP/UDP) header fields.
    L4,
}

impl Stage {
    /// All stages in probe order.
    pub const ALL: [Stage; 4] = [Stage::Metadata, Stage::L2, Stage::L3, Stage::L4];
}

/// Identifies one matchable header field.
///
/// The set mirrors the single-table OVS flow key restricted to IPv4
/// unicast traffic — exactly the fields the paper's ACLs can touch
/// (§2: "ACLs … operate on the IP 5-tuple").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Field {
    /// Ingress (virtual) port number, 32 bits.
    InPort,
    /// Ethernet source address, 48 bits.
    EthSrc,
    /// Ethernet destination address, 48 bits.
    EthDst,
    /// Ethertype, 16 bits.
    EthType,
    /// IPv4 source address, 32 bits.
    IpSrc,
    /// IPv4 destination address, 32 bits.
    IpDst,
    /// IP protocol number, 8 bits.
    IpProto,
    /// IP type-of-service / DSCP+ECN byte, 8 bits.
    IpTos,
    /// IP time-to-live, 8 bits.
    IpTtl,
    /// Transport source port, 16 bits.
    TpSrc,
    /// Transport destination port, 16 bits.
    TpDst,
}

/// Every field, in canonical (stage, then header) order.
pub const ALL_FIELDS: [Field; 11] = [
    Field::InPort,
    Field::EthSrc,
    Field::EthDst,
    Field::EthType,
    Field::IpSrc,
    Field::IpDst,
    Field::IpProto,
    Field::IpTos,
    Field::IpTtl,
    Field::TpSrc,
    Field::TpDst,
];

/// Static description of a field: width, stage, prefix capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// The field this spec describes.
    pub field: Field,
    /// Canonical short name (matches OVS flow syntax where one exists).
    pub name: &'static str,
    /// Width in bits (8–48).
    pub width: u8,
    /// Classification stage the field belongs to.
    pub stage: Stage,
    /// Whether the field is *prefix-capable*: matched most-significant-bit
    /// first so that a binary trie over values is meaningful. IP addresses
    /// always are; L4 ports are when the datapath is configured with port
    /// tries (as required to reproduce the paper's 512/8192-mask attacks).
    pub prefix_capable: bool,
}

impl Field {
    /// Returns the static spec for this field.
    pub const fn spec(self) -> FieldSpec {
        match self {
            Field::InPort => FieldSpec {
                field: self,
                name: "in_port",
                width: 32,
                stage: Stage::Metadata,
                prefix_capable: false,
            },
            Field::EthSrc => FieldSpec {
                field: self,
                name: "eth_src",
                width: 48,
                stage: Stage::L2,
                prefix_capable: false,
            },
            Field::EthDst => FieldSpec {
                field: self,
                name: "eth_dst",
                width: 48,
                stage: Stage::L2,
                prefix_capable: false,
            },
            Field::EthType => FieldSpec {
                field: self,
                name: "eth_type",
                width: 16,
                stage: Stage::L2,
                prefix_capable: false,
            },
            Field::IpSrc => FieldSpec {
                field: self,
                name: "ip_src",
                width: 32,
                stage: Stage::L3,
                prefix_capable: true,
            },
            Field::IpDst => FieldSpec {
                field: self,
                name: "ip_dst",
                width: 32,
                stage: Stage::L3,
                prefix_capable: true,
            },
            Field::IpProto => FieldSpec {
                field: self,
                name: "ip_proto",
                width: 8,
                stage: Stage::L3,
                prefix_capable: false,
            },
            Field::IpTos => FieldSpec {
                field: self,
                name: "ip_tos",
                width: 8,
                stage: Stage::L3,
                prefix_capable: false,
            },
            Field::IpTtl => FieldSpec {
                field: self,
                name: "ip_ttl",
                width: 8,
                stage: Stage::L3,
                prefix_capable: false,
            },
            Field::TpSrc => FieldSpec {
                field: self,
                name: "tp_src",
                width: 16,
                stage: Stage::L4,
                prefix_capable: true,
            },
            Field::TpDst => FieldSpec {
                field: self,
                name: "tp_dst",
                width: 16,
                stage: Stage::L4,
                prefix_capable: true,
            },
        }
    }

    /// The field's width in bits.
    pub const fn width(self) -> u8 {
        self.spec().width
    }

    /// The field's canonical name.
    pub const fn name(self) -> &'static str {
        self.spec().name
    }

    /// The field's classification stage.
    pub const fn stage(self) -> Stage {
        self.spec().stage
    }

    /// A mask of `width()` ones, right-aligned: the all-exact mask value.
    pub const fn full_mask(self) -> u64 {
        let w = self.spec().width;
        if w == 64 {
            u64::MAX
        } else {
            (1u64 << w) - 1
        }
    }

    /// The mask selecting the `len` most significant bits of this field
    /// (a CIDR-style prefix mask), right-aligned to the field width.
    ///
    /// `prefix_mask(0)` is the all-wildcard mask; `prefix_mask(width)` is
    /// the exact-match mask.
    ///
    /// # Panics
    /// Panics if `len > width()`.
    pub const fn prefix_mask(self, len: u8) -> u64 {
        let w = self.spec().width;
        assert!(len <= w, "prefix length exceeds field width");
        if len == 0 {
            0
        } else {
            // `len` ones followed by `w - len` zeros, right-aligned to `w`.
            (self.full_mask() >> (w - len)) << (w - len)
        }
    }

    /// Extracts bit `i` of a field value, where bit 0 is the **most
    /// significant** bit of the field (network / trie order).
    ///
    /// # Panics
    /// Panics if `i >= width()`.
    pub const fn bit_msb(self, value: u64, i: u8) -> bool {
        let w = self.spec().width;
        assert!(i < w, "bit index exceeds field width");
        (value >> (w - 1 - i)) & 1 == 1
    }

    /// Formats a value of this field as a `width()`-character binary
    /// string, MSB first — the notation used by the paper's Fig. 2.
    pub fn to_binary_string(self, value: u64) -> String {
        let w = self.width();
        (0..w)
            .map(|i| if self.bit_msb(value, i) { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_sum_to_flow_key_size() {
        let total: u32 = ALL_FIELDS.iter().map(|f| f.width() as u32).sum();
        // 32 + 48 + 48 + 16 + 32 + 32 + 8 + 8 + 8 + 16 + 16
        assert_eq!(total, 264);
    }

    #[test]
    fn full_mask_matches_width() {
        assert_eq!(Field::IpProto.full_mask(), 0xff);
        assert_eq!(Field::TpSrc.full_mask(), 0xffff);
        assert_eq!(Field::IpSrc.full_mask(), 0xffff_ffff);
        assert_eq!(Field::EthSrc.full_mask(), 0xffff_ffff_ffff);
    }

    #[test]
    fn prefix_mask_basics() {
        assert_eq!(Field::IpSrc.prefix_mask(0), 0);
        assert_eq!(Field::IpSrc.prefix_mask(8), 0xff00_0000);
        assert_eq!(Field::IpSrc.prefix_mask(32), 0xffff_ffff);
        assert_eq!(Field::TpDst.prefix_mask(1), 0x8000);
        assert_eq!(Field::TpDst.prefix_mask(16), 0xffff);
    }

    #[test]
    fn prefix_mask_is_monotone() {
        for len in 1..=32u8 {
            let smaller = Field::IpSrc.prefix_mask(len - 1);
            let larger = Field::IpSrc.prefix_mask(len);
            assert_eq!(smaller & larger, smaller, "prefix /{len} not monotone");
            assert_eq!(larger.count_ones(), len as u32);
        }
    }

    #[test]
    fn bit_msb_order() {
        // 10.0.0.1 = 0x0a000001; MSB-first bit 4 of the first octet
        // (0000_1010) is the first 1.
        let v = 0x0a00_0001u64;
        assert!(!Field::IpSrc.bit_msb(v, 0));
        assert!(Field::IpSrc.bit_msb(v, 4));
        assert!(Field::IpSrc.bit_msb(v, 6));
        assert!(!Field::IpSrc.bit_msb(v, 7));
        assert!(Field::IpSrc.bit_msb(v, 31));
    }

    #[test]
    fn binary_string_matches_paper_notation() {
        // Fig. 2a writes the first octet of 10.0.0.0/8 as 00001010.
        assert_eq!(Field::IpProto.to_binary_string(0x0a), "00001010");
        assert_eq!(Field::TpSrc.to_binary_string(0x8001), "1000000000000001");
    }

    #[test]
    fn stage_grouping() {
        assert_eq!(Field::InPort.stage(), Stage::Metadata);
        assert_eq!(Field::EthType.stage(), Stage::L2);
        assert_eq!(Field::IpSrc.stage(), Stage::L3);
        assert_eq!(Field::TpDst.stage(), Stage::L4);
        // Stages are ordered for staged lookup.
        assert!(Stage::Metadata < Stage::L2);
        assert!(Stage::L2 < Stage::L3);
        assert!(Stage::L3 < Stage::L4);
    }

    #[test]
    fn prefix_capability_flags() {
        assert!(Field::IpSrc.spec().prefix_capable);
        assert!(Field::IpDst.spec().prefix_capable);
        assert!(Field::TpSrc.spec().prefix_capable);
        assert!(Field::TpDst.spec().prefix_capable);
        assert!(!Field::EthSrc.spec().prefix_capable);
        assert!(!Field::IpProto.spec().prefix_capable);
    }

    #[test]
    fn display_uses_canonical_names() {
        assert_eq!(Field::IpSrc.to_string(), "ip_src");
        assert_eq!(Field::TpDst.to_string(), "tp_dst");
    }
}
