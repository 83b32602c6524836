//! # pi-backend — pluggable dataplane backends
//!
//! The paper's attack exploits one specific architecture: the OVS-style
//! EMC → TSS → upcall cache hierarchy. This crate abstracts "the thing
//! that forwards a tenant's packets" behind the [`DataplaneBackend`]
//! trait so the same scenarios, attack schedules and telemetry taps can
//! be replayed against the architectures real clouds actually deploy —
//! turning the reproduction into a portable attack-class study:
//!
//! | backend | architecture | policy-injection surface |
//! |---|---|---|
//! | [`BackendKind::OvsCache`] ([`VSwitch`]) | shared EMC + tuple-space megaflow cache + slow path | **full**: mask explosion, EMC thrash, upcall flood, flush storms |
//! | [`BackendKind::ExactHash`] ([`ExactTable`], refuse when full) | eBPF/Cilium-style exact-match connection map | per-flow setup cost only — no mask space to explode |
//! | [`BackendKind::LpmTier`] ([`LpmTier`]) | DPDK-style compiled longest-prefix tier, no flow cache | fixed per-packet walk — immune to cache-state attacks |
//! | [`BackendKind::NicOffload`] ([`ExactTable`], FIFO-evict when full) | bounded SmartNIC offload table + costed host fallback | **partial**: offload-table thrash re-exposes the host CPU |
//!
//! The two exact-match kinds are one implementation ([`exact`]): the
//! same table of `(verdict, last use)` over the same pod table, differing
//! only in what a full table does with one more flow.
//!
//! Every backend charges cycles through the same [`CostModel`] — costs
//! are a function of the *counted work* each architecture performs
//! (probes, trie strides, rules scanned), never a per-backend constant,
//! so cross-backend capacity ratios are consequences of data-structure
//! dynamics, exactly like the single-switch reproduction.
//!
//! The trait is thirteen methods — what `pi_sim::NodeCell`, the engine's
//! shards and report, and the `pi_detect` tap and controller actually
//! call: one policy entry point ([`DataplaneBackend::apply_update`]),
//! one telemetry read ([`DataplaneBackend::snapshot`] →
//! [`DataplaneStats`]), one defense actuator
//! ([`DataplaneBackend::actuate`] ← [`DefenseAction`]) around the
//! datapath and crash/restart calls. Every backend holds a
//! [`pi_datapath::PodTable`] for routing, ACLs, quarantine and
//! policy-update bookkeeping, so those semantics are shared by
//! construction; `tests/conformance.rs` checks them against every
//! [`BackendKind`].
//!
//! [`build_backend`] resolves a [`DpConfig`]'s
//! [`backend`](DpConfig::backend) field into a boxed trait object at
//! scenario-setup time; `pi_sim::NodeCell` and the fleet shards drive
//! whatever it returns. The [`VSwitch`] implementation is a direct
//! delegation — pinned bit-identical to the pre-trait pipeline by
//! `tests/backend_differential.rs` at the workspace root.

pub mod api;
pub mod exact;
pub mod lpm;
pub mod ovs;

pub use api::{
    build_backend, process_one, DataplaneBackend, DataplaneStats, DefenseAction, BATCH_SIZE,
};
pub use exact::ExactTable;
pub use lpm::LpmTier;

// Re-exported so backend consumers need only this crate for the common
// vocabulary types.
pub use pi_datapath::{BackendKind, CostModel, DpConfig, VSwitch};
