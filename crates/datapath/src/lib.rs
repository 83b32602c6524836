//! # pi-datapath — the OVS-like virtual switch under attack
//!
//! Reproduces the Open vSwitch processing pipeline the paper targets
//! (§2, "The Open vSwitch pipeline"):
//!
//! 1. **Microflow cache** ([`MicroflowCache`]) — a bounded, hash-indexed
//!    exact-match store over the full flow key. First line of defence;
//!    the attack thrashes it with unique covert packets.
//! 2. **Megaflow cache** ([`MegaflowCache`]) — wildcard entries grouped
//!    by mask in a Tuple Space Search; lookup walks subtables linearly.
//!    This is the structure whose mask count the attack inflates.
//! 3. **Slow path** ([`SlowPath`]) — full flow-table classification plus
//!    *megaflow generation*: trie-guided minimal un-wildcarding that
//!    produces exactly the paper's Fig. 2b decomposition.
//!
//! Under the caches sits the [`PodTable`]: destination IP → vport +
//! that pod's [`SlowPath`], the quarantine set, and the bookkeeping of a
//! policy update. [`VSwitch`] and every alternative architecture in
//! `pi_backend` hold one, so policy semantics are shared by
//! construction.
//!
//! [`VSwitch`] ties the levels together per packet and reports which path
//! was taken and how many CPU cycles it cost under a calibrated
//! [`CostModel`]; the [`Revalidator`] implements idle timeout and flow
//! limits, which set the covert bandwidth the attacker needs.
//!
//! Misses reach the slow path either synchronously
//! ([`PipelineMode::Inline`]) or through the bounded per-port **upcall
//! pipeline** ([`upcall`]): finite queues, a per-step handler cycle
//! budget, and batched megaflow installs — the machinery a slow-path
//! DoS saturates.
//!
//! The cycle accounting is mechanical — every outcome carries the
//! [`Work`] it counted (hash probes, stage checks, rules examined, …) and
//! its cycles are [`CostModel::cycles_of`] that work — so throughput
//! collapse in the simulator is a *consequence* of the data structure
//! dynamics, never scripted.

pub mod config;
pub mod cost;
pub mod emc;
pub mod megaflow;
pub mod pods;
pub mod revalidator;
pub mod slowpath;
pub mod upcall;
pub mod vswitch;

pub use config::{BackendKind, DpConfig};
pub use cost::{CostModel, Work};
pub use emc::MicroflowCache;
pub use megaflow::{InstallOutcome, MegaflowCache, MegaflowEntry};
pub use pods::{Pod, PodTable, PolicyChange};
pub use revalidator::{Revalidator, RevalidatorReport};
pub use slowpath::SlowPath;
pub use upcall::{PipelineMode, UpcallPipelineConfig, UpcallStats, UNROUTABLE_QUEUE};
pub use vswitch::{
    PathTaken, PolicyUpdateOutcome, ProcessOutcome, ResolvedUpcall, RestartOutcome, SwitchStats,
    VSwitch,
};
