//! # pi-audit — the workspace invariant linter
//!
//! This repo's two crown jewels — bit-identical reports across worker
//! counts and an allocation-free hot path — were enforced only by
//! runtime tests, which can't see the *next* violation before it
//! lands. `pi_audit` makes them **checked properties of the source**:
//! a dependency-free static analyzer (no syn, no proc-macro, offline-
//! safe) that lexes every workspace `.rs` file ([`lexer`] strips
//! comments, strings and char literals so rules never fire on doc
//! text) and enforces:
//!
//! * **`determinism`** — no `Instant`/`SystemTime`/`RandomState`/
//!   `DefaultHasher`/`thread_rng` anywhere (no file in the workspace
//!   holds a waiver: host time is measured by `benchmark/`, a package
//!   outside it), and no `HashMap`/`HashSet` in order-sensitive modules
//!   (engines, reports, exporters) where iteration order could leak
//!   into the byte-identical artefacts.
//! * **`hotpath`** — regions annotated `// audit: hotpath`
//!   (`process_batch`, the `FlatTable` probe paths, the trace ring
//!   record path, the upcall drain) reject `Vec::new`, `vec![`,
//!   `format!`, `String::`, `Box::new`, `.collect()`, `.to_vec()`.
//! * **`panics`** — no `unwrap()`/`expect(`/`panic!` in library code
//!   (tests, benches, examples, binaries exempt); the existing debt is
//!   a ratcheted burn-down via `audit_baseline.json` ([`baseline`]),
//!   not a flag day.
//! * **`cost`** — every `DataplaneBackend` impl file must reference
//!   `CostModel` charging, so a new backend cannot silently do free
//!   work.
//! * **`lints`** — every crate opts into `[workspace.lints]`
//!   (`unsafe_code = "forbid"` hoisted out of per-crate headers).
//!
//! Waiver grammar (reason mandatory, unused waivers are violations):
//!
//! ```text
//! // audit: allow(<rule>) -- <reason>        (this line or the next)
//! // audit: allow-file(<rule>) -- <reason>   (whole file)
//! ```
//!
//! The `pi_audit` binary prints the crate × rule table, emits a JSON
//! report, and `--check` exits nonzero on any new violation *or* any
//! stale ratchet entry (counts may only decrease, and the decrease
//! must be committed).

pub mod baseline;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod walk;

pub use baseline::{drift, Baseline, Counts, Drift};
pub use rules::{scan_file, FileClass, Violation};
pub use scan::{scan_workspace, ScanResult};
pub use walk::find_workspace_root;

/// Name of the ratchet file at the workspace root.
pub const BASELINE_FILE: &str = "audit_baseline.json";
