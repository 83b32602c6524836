//! # pi-mitigation — defenses against policy injection
//!
//! The paper's demo discussion lists "potential work-in-progress
//! mitigation techniques and their trade-offs (e.g., joint
//! troubleshooting techniques by tenants and provider, improved
//! heuristics in OVS, flow cache-less softswitches)". This crate
//! implements one representative of each family so the ablation
//! experiment (`results ablation` → `results/mitigation_ablation.csv`,
//! claims in `results/summary.md`) can quantify them:
//!
//! * [`MaskBudget`] — **admission control**: predict a policy's
//!   reachable mask count *before* installing it and refuse pathological
//!   ones. Cheap, exact against this attack, but rejects some legitimate
//!   fine-grained policies (the trade-off).
//! * [`hit_sort_config`] / [`staged_config`] — **improved heuristics**:
//!   OVS's subtable hit-count sorting protects hot victim flows; staged
//!   lookup shrinks the per-subtable cost constant. Both attenuate
//!   without fixing the O(#masks) walk.
//! * **cache-less datapath** (the ESwitch / dataplane-specialisation
//!   line the paper cites): classification cost depends only on the
//!   policy, never on traffic, so the covert stream has nothing to
//!   amplify. Not modelled here — it is the `LpmTier` backend of
//!   `pi_backend`, priced by the shared `CostModel`.
//! * [`attribution`] — **detection**: per-destination mask accounting
//!   that names the pod (hence tenant) whose ACL carries the explosion.
//! * [`upcall_fair_share_config`] — **slow-path fair sharing**: the
//!   OVS-style per-port flow-setup rate limit for the bounded upcall
//!   pipeline, so one tenant's upcall flood tail-drops its own traffic
//!   instead of starving its neighbours' flow setups.

pub mod attribution;
pub mod budget;
pub mod heuristics;
pub mod quota;

pub use attribution::{
    attribute_entries, attribute_masks, detect_offenders, offenders, MaskAttribution,
};
pub use budget::{AdmissionDecision, MaskBudget};
pub use heuristics::{hit_sort_config, staged_config};
pub use quota::upcall_fair_share_config;
