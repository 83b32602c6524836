//! # pi-classifier — packet classification engines
//!
//! Everything between "a set of wildcard rules" and "which rule does this
//! packet hit":
//!
//! * [`FlowTable`] — an ordered set of overlapping wildcard [`Rule`]s with
//!   OVS semantics (highest priority wins; among equals, the rule added
//!   first — the tie-break the paper relies on in §2).
//! * [`LinearClassifier`] — the reference slow-path lookup: scan every
//!   rule. Always correct, O(n), used as ground truth everywhere.
//! * [`RuleIndex`] — what the slow path executes instead: the same
//!   answer from a compiled snapshot, rules grouped by mask and probed
//!   by hash (the simulated cost stays the linear scan's).
//! * [`TupleSpaceSearch`] — the fast-path structure under attack: one
//!   hash table ("subtable") per distinct mask, probed **sequentially**.
//!   Lookup cost is measured in subtables probed, which is exactly the
//!   quantity the policy-injection attack inflates.
//! * [`PrefixTrie`] — per-field binary tries that compute the minimal
//!   number of bits the slow path must un-wildcard to preserve
//!   correctness; the mechanism behind Fig. 2b's decomposition.
//! * [`StagedIndex`] — OVS's staged-lookup optimisation (metadata → L2 →
//!   L3 → L4) modelled for the mitigation ablation.
//! * [`FlatTable`] — the flat open-addressing store behind stage sets
//!   and the exact-match backends: keyed by precomputed deterministic
//!   flow hashes ([`pi_core::KeyWords`]), a tag per slot beside the
//!   payloads, linear probing, tombstone-free removal. The TSS runs the
//!   same slice-level functions over regions of its one tag arena.

pub mod action;
mod arena;
pub mod flat;
pub mod index;
pub mod linear;
pub mod rule;
pub mod staged;
pub mod table;
pub mod trie;
pub mod tss;

pub use action::Action;
pub use flat::FlatTable;
pub use index::RuleIndex;
pub use linear::LinearClassifier;
pub use rule::{Rule, RuleId};
pub use staged::StagedIndex;
pub use table::{FlowTable, PolicyUpdate};
pub use trie::PrefixTrie;
pub use tss::{LookupOutcome, SubtableOrder, TssStats, TssStorage, TupleSpaceSearch};
