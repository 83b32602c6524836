//! Network primitives for policies: CIDRs, protocols, port ranges.

use std::fmt;
use std::str::FromStr;

use pi_core::key::{IPPROTO_TCP, IPPROTO_UDP};
use pi_core::CoreError;

/// An IPv4 CIDR block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cidr {
    /// Network address in host byte order (canonicalised: host bits 0).
    pub addr: u32,
    /// Prefix length, 0–32.
    pub len: u8,
}

impl Cidr {
    /// Creates a canonicalised CIDR (host bits cleared).
    pub fn new(addr: u32, len: u8) -> pi_core::Result<Self> {
        if len > 32 {
            return Err(CoreError::PrefixTooLong {
                field: "cidr",
                len,
                width: 32,
            });
        }
        let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
        Ok(Cidr {
            addr: addr & mask,
            len,
        })
    }

    /// The everything block `0.0.0.0/0`.
    pub const ANY: Cidr = Cidr { addr: 0, len: 0 };

    /// The cluster block `10.0.0.0/8` pod IPs are allocated from.
    pub const CLUSTER: Cidr = Cidr {
        addr: 0x0a00_0000,
        len: 8,
    };

    /// A single host `/32`.
    pub fn host(addr: impl Into<std::net::Ipv4Addr>) -> Self {
        Cidr {
            addr: u32::from(addr.into()),
            len: 32,
        }
    }

    /// The network mask as a `u32`.
    pub fn mask(&self) -> u32 {
        if self.len == 0 {
            0
        } else {
            u32::MAX << (32 - self.len)
        }
    }

    /// True if `ip` (host order) is inside this block.
    pub fn contains(&self, ip: u32) -> bool {
        (ip ^ self.addr) & self.mask() == 0
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", std::net::Ipv4Addr::from(self.addr), self.len)
    }
}

impl FromStr for Cidr {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ip, len) = match s.split_once('/') {
            Some((ip, len)) => (
                ip,
                len.parse::<u8>()
                    .map_err(|_| CoreError::ParseAddr(s.to_string()))?,
            ),
            None => (s, 32),
        };
        let addr: std::net::Ipv4Addr = ip
            .parse()
            .map_err(|_| CoreError::ParseAddr(s.to_string()))?;
        Cidr::new(u32::from(addr), len)
    }
}

/// Transport protocol selector in a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// TCP only.
    Tcp,
    /// UDP only.
    Udp,
    /// Either (compiles to two rules).
    Any,
}

impl Protocol {
    /// The IP protocol numbers this selector expands to.
    pub fn numbers(&self) -> &'static [u8] {
        match self {
            Protocol::Tcp => &[IPPROTO_TCP],
            Protocol::Udp => &[IPPROTO_UDP],
            Protocol::Any => &[IPPROTO_TCP, IPPROTO_UDP],
        }
    }
}

/// An inclusive L4 port range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortRange {
    /// Lowest port included.
    pub min: u16,
    /// Highest port included.
    pub max: u16,
}

impl PortRange {
    /// A single port.
    pub const fn single(p: u16) -> Self {
        PortRange { min: p, max: p }
    }

    /// All ports.
    pub const ALL: PortRange = PortRange { min: 0, max: 65535 };

    /// Creates a range, validating order.
    pub fn new(min: u16, max: u16) -> pi_core::Result<Self> {
        if min > max {
            return Err(CoreError::Malformed("port range min > max"));
        }
        Ok(PortRange { min, max })
    }

    /// True if this is the unconstrained range.
    pub fn is_all(&self) -> bool {
        self.min == 0 && self.max == 65535
    }

    /// True if `p` falls in the range.
    pub fn contains(&self, p: u16) -> bool {
        (self.min..=self.max).contains(&p)
    }
}

/// Decomposes an inclusive port range into the minimal set of
/// `(value, prefix_len)` pairs covering it — the classic trick for
/// expressing ranges in a prefix-match classifier. A single port yields
/// one /16 (exact) prefix; `0–65535` yields the empty-constraint marker
/// (an empty vector).
pub fn port_range_to_prefixes(range: PortRange) -> Vec<(u16, u8)> {
    if range.is_all() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut lo = range.min as u32;
    let hi = range.max as u32;
    while lo <= hi {
        // Largest power-of-two block starting at `lo` that fits.
        let max_align = if lo == 0 {
            16
        } else {
            lo.trailing_zeros().min(16)
        };
        let mut size_log = max_align;
        while size_log > 0 && lo + (1 << size_log) - 1 > hi {
            size_log -= 1;
        }
        out.push((lo as u16, (16 - size_log) as u8));
        lo += 1 << size_log;
        if lo == 0 {
            break; // wrapped past 65535
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cidr_parse_display_round_trip() {
        let c: Cidr = "10.0.0.0/8".parse().unwrap();
        assert_eq!(c.addr, 0x0a00_0000);
        assert_eq!(c.len, 8);
        assert_eq!(c.to_string(), "10.0.0.0/8");
        let host: Cidr = "192.168.1.5".parse().unwrap();
        assert_eq!(host.len, 32);
    }

    #[test]
    fn cidr_canonicalises_host_bits() {
        let c: Cidr = "10.1.2.3/8".parse().unwrap();
        assert_eq!(c.addr, 0x0a00_0000);
        assert_eq!(c, "10.0.0.0/8".parse().unwrap());
    }

    #[test]
    fn cidr_contains() {
        let c: Cidr = "10.0.0.0/8".parse().unwrap();
        assert!(c.contains(0x0a01_0203));
        assert!(!c.contains(0x0b00_0000));
        assert!(Cidr::ANY.contains(0xffff_ffff));
        assert!(Cidr::host([1, 2, 3, 4]).contains(0x0102_0304));
        assert!(!Cidr::host([1, 2, 3, 4]).contains(0x0102_0305));
    }

    #[test]
    fn cidr_rejects_garbage() {
        assert!("10.0.0.0/33".parse::<Cidr>().is_err());
        assert!("10.0.0/8".parse::<Cidr>().is_err());
        assert!("banana".parse::<Cidr>().is_err());
    }

    #[test]
    fn protocol_numbers() {
        assert_eq!(Protocol::Tcp.numbers(), &[6]);
        assert_eq!(Protocol::Udp.numbers(), &[17]);
        assert_eq!(Protocol::Any.numbers(), &[6, 17]);
    }

    #[test]
    fn port_range_validation() {
        assert!(PortRange::new(10, 5).is_err());
        assert!(PortRange::new(5, 10).is_ok());
        assert!(PortRange::ALL.is_all());
        assert!(PortRange::single(80).contains(80));
        assert!(!PortRange::single(80).contains(81));
    }

    #[test]
    fn single_port_is_one_exact_prefix() {
        assert_eq!(
            port_range_to_prefixes(PortRange::single(80)),
            vec![(80, 16)]
        );
    }

    #[test]
    fn all_ports_is_no_constraint() {
        assert!(port_range_to_prefixes(PortRange::ALL).is_empty());
    }

    #[test]
    fn aligned_range_is_one_prefix() {
        // 8080–8095 = 16 ports aligned at 8080 (divisible by 16).
        assert_eq!(
            port_range_to_prefixes(PortRange::new(8080, 8095).unwrap()),
            vec![(8080, 12)]
        );
        // 0–1023: the privileged range = one /6.
        assert_eq!(
            port_range_to_prefixes(PortRange::new(0, 1023).unwrap()),
            vec![(0, 6)]
        );
    }

    #[test]
    fn unaligned_range_decomposes_minimally() {
        // 1000–1999: classic multi-prefix decomposition.
        let prefixes = port_range_to_prefixes(PortRange::new(1000, 1999).unwrap());
        // Coverage must be exact.
        for p in 0..=65535u16 {
            let inside = (1000..=1999).contains(&p);
            let covered = prefixes.iter().any(|(v, len)| {
                let shift = 16 - len;
                (p >> shift) == (v >> shift)
            });
            assert_eq!(inside, covered, "port {p}");
        }
        // And minimal-ish: the textbook answer is ≤ 2·16 prefixes.
        assert!(prefixes.len() <= 32);
    }

    #[test]
    fn range_to_top_port() {
        let prefixes = port_range_to_prefixes(PortRange::new(65530, 65535).unwrap());
        for p in 65000..=65535u16 {
            let inside = p >= 65530;
            let covered = prefixes.iter().any(|(v, len)| {
                let shift = 16 - len;
                (p >> shift) == (v >> shift)
            });
            assert_eq!(inside, covered, "port {p}");
        }
    }

    #[test]
    fn full_range_via_new_is_all() {
        let r = PortRange::new(0, 65535).unwrap();
        assert!(r.is_all());
        assert!(port_range_to_prefixes(r).is_empty());
    }
}
