//! # pi-core — foundational types for the policy-injection reproduction
//!
//! This crate is the bottom of the workspace dependency graph. It defines
//! the vocabulary every other crate speaks:
//!
//! * [`FlowKey`] — the parsed header tuple an OVS-style datapath matches on
//!   (ingress port, Ethernet addresses and type, the IPv4 5-tuple plus
//!   TOS/TTL).
//! * [`FlowMask`] — a per-*bit* wildcard mask over the same fields. Tuple
//!   Space Search groups cache entries by their mask, so masks — not rules —
//!   are the currency of the attack this workspace reproduces.
//! * [`MaskedKey`] — a canonical `(key & mask, mask)` pair with the overlap
//!   and containment predicates the classifier and the megaflow cache need.
//! * [`Field`] / [`FieldSpec`] — a reflection layer giving uniform `u64`
//!   access to every header field, used by the prefix tries and by the
//!   slow path's un-wildcarding logic.
//! * [`SimTime`] — nanosecond-resolution simulated time.
//! * [`Port`] — typed virtual-port numbers (local pod vport vs the
//!   fabric uplink), replacing the old raw `0xffff` sentinel.
//! * [`SplitMix64`] — a tiny deterministic RNG so that core algorithms can
//!   be randomized reproducibly without external dependencies.
//! * [`KeyWords`] / [`MaskWords`] — one-pass deterministic flow hashing
//!   ([`hash`]): extract a packet's field words once, then derive its hash
//!   under every subtable mask without re-hashing a masked key per probe.
//! * [`IpIndex`] — the one flat ip → `u32` table ([`index`]) under both
//!   the switches' pod tables and the fleet's routing view.
//!
//! Nothing in this crate allocates per packet; `FlowKey` and `FlowMask` are
//! plain `Copy` structs, mirroring the fixed-size `struct flow` /
//! `struct flow_wildcards` pair in Open vSwitch.

pub mod addr;
pub mod error;
pub mod fields;
pub mod hash;
pub mod index;
pub mod key;
pub mod mask;
pub mod port;
pub mod rng;
pub mod time;

pub use addr::MacAddr;
pub use error::CoreError;
pub use fields::{Field, FieldSpec, Stage, ALL_FIELDS};
pub use hash::{flow_hash, KeyWords, MaskWords, HEAD_WORDS, KEY_WORDS, TAIL_WORDS};
pub use index::IpIndex;
pub use key::FlowKey;
pub use mask::{FlowMask, MaskedKey};
pub use port::Port;
pub use rng::{case_rng, for_cases, SplitMix64};
pub use time::SimTime;

/// Convenience result alias used across the workspace.
pub type Result<T> = std::result::Result<T, CoreError>;
