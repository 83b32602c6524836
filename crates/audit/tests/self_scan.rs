//! The self-scan: `pi_audit` run over the workspace that ships it. CI
//! runs `pi_audit --check`; this keeps the same gate inside tier-1
//! `cargo test` (the root package lists this file as a `[[test]]`).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test helpers: fail loudly

use pi_audit::{find_workspace_root, scan_file, scan_workspace, FileClass};

fn root() -> std::path::PathBuf {
    // Run as the root package's test, the manifest dir is the workspace
    // root itself; the search also finds it from `crates/audit`.
    find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root at or above the manifest dir")
}

#[test]
fn the_workspace_scans_to_zero_violations() {
    let scan = scan_workspace(&root()).expect("scan workspace");
    assert!(
        scan.files_scanned > 100,
        "walker found only {} files — member discovery broke",
        scan.files_scanned
    );
    let listed: Vec<String> = scan.violations.iter().map(|v| v.to_string()).collect();
    assert!(listed.is_empty(), "{}", listed.join("\n"));
}

#[test]
fn an_injected_violation_is_detected() {
    // Sensitivity check: the same scanner that passes the tree above
    // must flag an allocation appended, inside an annotated region, to
    // a real workspace file that carries one.
    let rel = "crates/trace/src/cell.rs";
    let clean = std::fs::read_to_string(root().join(rel)).expect("read pi_trace source");
    assert!(clean.contains("// audit: hotpath"));
    let before = scan_file(rel, FileClass::Lib, &clean).len();
    let injected =
        format!("{clean}\n// audit: hotpath\npub fn bad() -> Vec<u8> {{\n    Vec::new()\n}}\n");
    let after = scan_file(rel, FileClass::Lib, &injected).len();
    assert_eq!(after, before + 1, "injected `Vec::new` went undetected");
}
