//! Link-layer address type.
//!
//! IPv4 addresses are represented as plain `u32`s in host byte order
//! throughout the workspace (conversions from [`std::net::Ipv4Addr`] are
//! provided on [`crate::FlowKey`]); Ethernet needs its own 48-bit type.

use std::fmt;
use std::str::FromStr;

use crate::error::CoreError;

/// A 48-bit IEEE 802 MAC address.
///
/// Stored as six bytes in transmission order. The all-zero address is used
/// as "unspecified" by the builders in higher crates.
///
/// ```
/// use pi_core::MacAddr;
/// let mac: MacAddr = "52:54:00:12:34:56".parse().unwrap();
/// assert_eq!(mac.as_u64(), 0x5254_0012_3456);
/// assert_eq!(mac.to_string(), "52:54:00:12:34:56");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zero (unspecified) address.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Builds an address from the low 48 bits of `v`.
    ///
    /// The upper 16 bits of `v` must be zero; they are discarded otherwise,
    /// which keeps round-trips through the uniform `u64` field view exact.
    pub const fn from_u64(v: u64) -> Self {
        let b = v.to_be_bytes();
        MacAddr([b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Returns the address as the low 48 bits of a `u64`.
    pub const fn as_u64(&self) -> u64 {
        let b = self.0;
        ((b[0] as u64) << 40)
            | ((b[1] as u64) << 32)
            | ((b[2] as u64) << 24)
            | ((b[3] as u64) << 16)
            | ((b[4] as u64) << 8)
            | (b[5] as u64)
    }

    /// True if the multicast (group) bit of the first octet is set.
    pub const fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Locally-administered unicast address derived from an integer id,
    /// handy for generating distinct pod/VM MACs in tests and scenarios.
    pub const fn from_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

impl FromStr for MacAddr {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut out = [0u8; 6];
        let mut parts = s.split(':');
        for byte in out.iter_mut() {
            let part = parts
                .next()
                .ok_or_else(|| CoreError::ParseAddr(s.to_string()))?;
            *byte =
                u8::from_str_radix(part, 16).map_err(|_| CoreError::ParseAddr(s.to_string()))?;
        }
        if parts.next().is_some() {
            return Err(CoreError::ParseAddr(s.to_string()));
        }
        Ok(MacAddr(out))
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(b: [u8; 6]) -> Self {
        MacAddr(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip() {
        let mac = MacAddr([0xde, 0xad, 0xbe, 0xef, 0x00, 0x42]);
        assert_eq!(MacAddr::from_u64(mac.as_u64()), mac);
    }

    #[test]
    fn from_u64_discards_high_bits() {
        let v = 0xffff_5254_0012_3456u64;
        assert_eq!(MacAddr::from_u64(v).as_u64(), 0x5254_0012_3456);
    }

    #[test]
    fn display_and_parse() {
        let mac = MacAddr([0x52, 0x54, 0x00, 0xab, 0xcd, 0xef]);
        let s = mac.to_string();
        assert_eq!(s, "52:54:00:ab:cd:ef");
        assert_eq!(s.parse::<MacAddr>().unwrap(), mac);
    }

    #[test]
    fn parse_rejects_short_and_long() {
        assert!("52:54:00:ab:cd".parse::<MacAddr>().is_err());
        assert!("52:54:00:ab:cd:ef:01".parse::<MacAddr>().is_err());
        assert!("zz:54:00:ab:cd:ef".parse::<MacAddr>().is_err());
        assert!("".parse::<MacAddr>().is_err());
    }

    #[test]
    fn multicast_bit() {
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr([0x02, 0, 0, 0, 0, 1]).is_multicast());
        assert!(MacAddr([0x01, 0, 0x5e, 0, 0, 1]).is_multicast());
    }

    #[test]
    fn from_id_unique_and_local() {
        let a = MacAddr::from_id(1);
        let b = MacAddr::from_id(2);
        assert_ne!(a, b);
        // locally administered, unicast
        assert_eq!(a.0[0] & 0x03, 0x02);
    }
}
