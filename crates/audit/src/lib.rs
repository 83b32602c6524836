//! # pi-audit — the workspace invariants clippy cannot state
//!
//! The compiler's own lints hold most of this repo's source-level rules
//! (README "Static analysis" has the table): `[workspace.lints]` forbids
//! `unsafe`, denies `unwrap` / `expect` / `panic!` in library code, and
//! `clippy.toml`'s `disallowed-types` bans host clocks and OS-seeded
//! hashers. `pi_audit` keeps the three rules that need a fact clippy has
//! no way to be told, plus the check that makes the lints reach every
//! crate. It is a dependency-free analyzer (no syn, no proc-macro,
//! offline-safe): [`lexer`] strips comments, strings and char literals
//! so a rule never fires on doc text, and [`rules`] matches tokens over
//! what is left.
//!
//! * **`hotpath`** — regions annotated `// audit: hotpath`
//!   (`process_batch`, the `FlatTable` probe paths, the trace ring
//!   record path, the upcall drain) reject `Vec::new`, `vec![`,
//!   `format!`, `String::`, `Box::new`, `.collect()`, `.to_vec()`.
//!   *Clippy has no notion of a region annotated by its author.*
//! * **`determinism`** — no `HashMap`/`HashSet` in order-sensitive
//!   modules (engines, reports, exporters, the pod table and its
//!   index), where iteration order could leak into the byte-identical
//!   artefacts. *`disallowed-types` is per workspace, not per module.*
//! * **`cost`** — every `DataplaneBackend` impl file must call
//!   `CostModel::cycles_of`, the one pricing method, so a new backend
//!   cannot silently do free work or price it by hand. *A rule about
//!   what a file must contain, not what it may not.*
//! * **`lints`** — the root manifest states the bans and every crate
//!   opts into them (`[lints] workspace = true`). *Cargo does not warn
//!   about a member that opts out.*
//! * **`directive`** — the waiver grammar itself (reason mandatory,
//!   unused waivers are violations):
//!
//! ```text
//! // audit: allow(<rule>) -- <reason>        (this line or the next)
//! // audit: allow-file(<rule>) -- <reason>   (whole file)
//! ```
//!
//! There is no baseline and no ratchet: the workspace scans to zero, and
//! `pi_audit --check` exits 1 on any violation.

pub mod lexer;
pub mod rules;
pub mod scan;
pub mod walk;

pub use rules::{scan_file, FileClass, Violation};
pub use scan::{scan_workspace, ScanResult};
pub use walk::find_workspace_root;
