//! The parsed flow key.

use std::fmt;
use std::net::Ipv4Addr;

use crate::addr::MacAddr;
use crate::error::CoreError;
use crate::fields::Field;

/// Ethertype for IPv4, the only network protocol the workspace models.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// IP protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;
/// IP protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;

/// The parsed header tuple a datapath matches on.
///
/// This mirrors Open vSwitch's `struct flow` restricted to IPv4: switch
/// metadata (ingress port), the Ethernet header, the IPv4 header fields
/// that ACLs and routing care about, and the transport ports. A `FlowKey`
/// is produced once per packet by the parser (`pi_packet`'s
/// `extract_flow_key`) and then flows through every cache level untouched.
///
/// All multi-byte values are stored in host byte order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlowKey {
    /// Ingress (virtual) port.
    pub in_port: u32,
    /// Ethernet source address.
    pub eth_src: MacAddr,
    /// Ethernet destination address.
    pub eth_dst: MacAddr,
    /// Ethertype (0x0800 for IPv4).
    pub eth_type: u16,
    /// IPv4 source address (host byte order).
    pub ip_src: u32,
    /// IPv4 destination address (host byte order).
    pub ip_dst: u32,
    /// IP protocol (6 TCP, 17 UDP).
    pub ip_proto: u8,
    /// IP TOS byte.
    pub ip_tos: u8,
    /// IP TTL.
    pub ip_ttl: u8,
    /// Transport source port.
    pub tp_src: u16,
    /// Transport destination port.
    pub tp_dst: u16,
}

impl FlowKey {
    /// Creates a TCP flow key with sensible L2 defaults — the common case
    /// in tests and generators.
    pub fn tcp(
        ip_src: impl Into<Ipv4Addr>,
        ip_dst: impl Into<Ipv4Addr>,
        tp_src: u16,
        tp_dst: u16,
    ) -> Self {
        FlowKey {
            eth_type: ETHERTYPE_IPV4,
            ip_src: u32::from(ip_src.into()),
            ip_dst: u32::from(ip_dst.into()),
            ip_proto: IPPROTO_TCP,
            ip_ttl: 64,
            tp_src,
            tp_dst,
            ..Default::default()
        }
    }

    /// Creates a UDP flow key with sensible L2 defaults.
    pub fn udp(
        ip_src: impl Into<Ipv4Addr>,
        ip_dst: impl Into<Ipv4Addr>,
        tp_src: u16,
        tp_dst: u16,
    ) -> Self {
        FlowKey {
            ip_proto: IPPROTO_UDP,
            ..Self::tcp(ip_src, ip_dst, tp_src, tp_dst)
        }
    }

    /// Reads `field` as a right-aligned `u64` — the uniform view used by
    /// tries, masks and the un-wildcarding logic.
    pub fn field(&self, field: Field) -> u64 {
        match field {
            Field::InPort => self.in_port as u64,
            Field::EthSrc => self.eth_src.as_u64(),
            Field::EthDst => self.eth_dst.as_u64(),
            Field::EthType => self.eth_type as u64,
            Field::IpSrc => self.ip_src as u64,
            Field::IpDst => self.ip_dst as u64,
            Field::IpProto => self.ip_proto as u64,
            Field::IpTos => self.ip_tos as u64,
            Field::IpTtl => self.ip_ttl as u64,
            Field::TpSrc => self.tp_src as u64,
            Field::TpDst => self.tp_dst as u64,
        }
    }

    /// Writes `field` from a right-aligned `u64`.
    ///
    /// Returns an error if `value` does not fit the field's width, so that
    /// silently-truncating bugs in generators cannot slip through.
    pub fn set_field(&mut self, field: Field, value: u64) -> crate::Result<()> {
        if value > field.full_mask() {
            return Err(CoreError::ValueOutOfRange {
                field: field.name(),
                value,
                width: field.width(),
            });
        }
        self.store(field, value);
        Ok(())
    }

    /// Writes `field` from a value the caller has already bounded to the
    /// field's width (a masked read of another key).
    pub(crate) fn store(&mut self, field: Field, value: u64) {
        debug_assert!(value <= field.full_mask());
        match field {
            Field::InPort => self.in_port = value as u32,
            Field::EthSrc => self.eth_src = MacAddr::from_u64(value),
            Field::EthDst => self.eth_dst = MacAddr::from_u64(value),
            Field::EthType => self.eth_type = value as u16,
            Field::IpSrc => self.ip_src = value as u32,
            Field::IpDst => self.ip_dst = value as u32,
            Field::IpProto => self.ip_proto = value as u8,
            Field::IpTos => self.ip_tos = value as u8,
            Field::IpTtl => self.ip_ttl = value as u8,
            Field::TpSrc => self.tp_src = value as u16,
            Field::TpDst => self.tp_dst = value as u16,
        }
    }

    /// Builder-style field update. Intended for literals in tests and
    /// scenario code.
    ///
    /// # Panics
    /// If `value` does not fit the field's width; [`FlowKey::set_field`]
    /// is the fallible form.
    #[must_use]
    #[allow(clippy::expect_used, reason = "literal builder; see # Panics")]
    pub fn with(mut self, field: Field, value: u64) -> Self {
        self.set_field(field, value)
            .expect("FlowKey::with called with out-of-range value");
        self
    }

    /// The IPv4 source as a [`std::net::Ipv4Addr`].
    pub(crate) fn ip_src_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.ip_src)
    }

    /// The IPv4 destination as a [`std::net::Ipv4Addr`].
    pub(crate) fn ip_dst_addr(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.ip_dst)
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "port{} {}→{} 0x{:04x} {}:{}→{}:{} proto{} tos{} ttl{}",
            self.in_port,
            self.eth_src,
            self.eth_dst,
            self.eth_type,
            self.ip_src_addr(),
            self.tp_src,
            self.ip_dst_addr(),
            self.tp_dst,
            self.ip_proto,
            self.ip_tos,
            self.ip_ttl,
        )
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "a test may hash with `RandomState`"
)]
mod tests {
    use super::*;
    use crate::fields::ALL_FIELDS;

    #[test]
    fn tcp_constructor_sets_protocol_fields() {
        let k = FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80);
        assert_eq!(k.eth_type, ETHERTYPE_IPV4);
        assert_eq!(k.ip_proto, IPPROTO_TCP);
        assert_eq!(k.ip_src_addr(), Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(k.ip_dst_addr(), Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(k.tp_dst, 80);
    }

    #[test]
    fn udp_constructor() {
        let k = FlowKey::udp([192, 168, 0, 1], [8, 8, 8, 8], 5000, 53);
        assert_eq!(k.ip_proto, IPPROTO_UDP);
    }

    #[test]
    fn field_round_trip_all_fields() {
        let mut k = FlowKey::default();
        for (i, f) in ALL_FIELDS.iter().enumerate() {
            // A value that fits any width ≥ 8 and differs per field.
            let v = (i as u64 + 1) & f.full_mask();
            k.set_field(*f, v).unwrap();
            assert_eq!(k.field(*f), v, "round trip failed for {f}");
        }
    }

    #[test]
    fn set_field_rejects_oversized_values() {
        let mut k = FlowKey::default();
        assert!(k.set_field(Field::IpProto, 0x100).is_err());
        assert!(k.set_field(Field::TpSrc, 0x1_0000).is_err());
        assert!(k.set_field(Field::IpSrc, 0x1_0000_0000).is_err());
        // Max values are fine.
        assert!(k.set_field(Field::IpProto, 0xff).is_ok());
        assert!(k.set_field(Field::EthSrc, 0xffff_ffff_ffff).is_ok());
    }

    #[test]
    fn with_builder_chains() {
        let k = FlowKey::default()
            .with(Field::InPort, 3)
            .with(Field::IpSrc, u32::from(Ipv4Addr::new(10, 0, 0, 1)) as u64)
            .with(Field::TpDst, 443);
        assert_eq!(k.in_port, 3);
        assert_eq!(k.tp_dst, 443);
        assert_eq!(k.ip_src_addr(), Ipv4Addr::new(10, 0, 0, 1));
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn with_panics_on_bad_value() {
        let _ = FlowKey::default().with(Field::IpTos, 0x1ff);
    }

    #[test]
    fn keys_hash_and_compare_structurally() {
        use std::collections::HashSet;
        let a = FlowKey::tcp([1, 2, 3, 4], [5, 6, 7, 8], 1, 2);
        let b = FlowKey::tcp([1, 2, 3, 4], [5, 6, 7, 8], 1, 2);
        let c = FlowKey::tcp([1, 2, 3, 4], [5, 6, 7, 8], 1, 3);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        set.insert(b);
        set.insert(c);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_is_human_readable() {
        let k = FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1234, 80).with(Field::InPort, 7);
        let s = k.to_string();
        assert!(s.contains("10.0.0.1:1234"));
        assert!(s.contains("10.0.0.2:80"));
        assert!(s.contains("port7"));
    }
}
