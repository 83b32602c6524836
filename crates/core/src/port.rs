//! Typed virtual-port numbers.
//!
//! The datapath layer stores vports as raw `u32`s (mirroring OVS's
//! `ofp_port_t`), historically with a magic `0xffff` sentinel meaning
//! "not mine — hand the packet to the fabric uplink". [`Port`] gives
//! that convention a type, so the simulator (`pi_sim`) can match on
//! intent instead of comparing against a bare constant.

use std::fmt;

/// Where a switch delivers a processed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Port {
    /// A local virtual port: the pod/VM attached at this vport number.
    Local(u32),
    /// The fabric uplink: the destination lives on another host.
    Uplink,
}

impl Port {
    /// The raw vport number reserved for the uplink (the OVS-style
    /// `OFPP_NONE`-adjacent sentinel the datapath stores).
    pub const UPLINK_RAW: u32 = 0xffff;

    /// Decodes a raw datapath vport number.
    pub const fn from_raw(raw: u32) -> Port {
        if raw == Self::UPLINK_RAW {
            Port::Uplink
        } else {
            Port::Local(raw)
        }
    }

    /// Encodes back to the raw vport number the datapath stores.
    ///
    /// # Panics
    /// Panics if a local port collides with the uplink sentinel — such a
    /// port could never have been built by [`Port::from_raw`].
    pub const fn raw(self) -> u32 {
        match self {
            Port::Uplink => Self::UPLINK_RAW,
            Port::Local(v) => {
                assert!(
                    v != Self::UPLINK_RAW,
                    "local vport collides with uplink sentinel"
                );
                v
            }
        }
    }

    /// True for the fabric uplink.
    pub const fn is_uplink(self) -> bool {
        matches!(self, Port::Uplink)
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::Local(v) => write!(f, "vport{v}"),
            Port::Uplink => write!(f, "uplink"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_round_trip() {
        assert_eq!(Port::from_raw(1), Port::Local(1));
        assert_eq!(Port::from_raw(0xffff), Port::Uplink);
        assert_eq!(Port::Local(7).raw(), 7);
        assert_eq!(Port::Uplink.raw(), 0xffff);
        for raw in [0u32, 1, 42, 0xfffe, 0xffff, 0x10000] {
            assert_eq!(Port::from_raw(raw).raw(), raw);
        }
    }

    #[test]
    fn uplink_predicate_and_display() {
        assert!(Port::Uplink.is_uplink());
        assert!(!Port::Local(3).is_uplink());
        assert_eq!(Port::Local(3).to_string(), "vport3");
        assert_eq!(Port::Uplink.to_string(), "uplink");
    }

    #[test]
    #[should_panic(expected = "sentinel")]
    fn local_sentinel_collision_panics() {
        let _ = Port::Local(Port::UPLINK_RAW).raw();
    }
}
