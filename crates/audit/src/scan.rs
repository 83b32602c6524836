//! Whole-workspace scan: every member's sources through
//! [`crate::rules::scan_file`] plus the manifest `lints` check.

use std::fs;
use std::io;
use std::path::Path;

use crate::rules::{scan_file, Violation};
use crate::walk::{check_lints, members, source_files};

/// Everything one scan produced.
#[derive(Debug, Clone)]
pub struct ScanResult {
    /// All unwaived violations, in (file, line) order.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Scans the workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> io::Result<ScanResult> {
    let members = members(root)?;
    let mut violations: Vec<Violation> = Vec::new();
    let mut files_scanned = 0usize;
    for m in &members {
        for sf in source_files(root, m)? {
            let src = fs::read_to_string(&sf.abs_path)?;
            files_scanned += 1;
            violations.extend(scan_file(&sf.rel_path, sf.class, &src));
        }
    }
    violations.extend(check_lints(root, &members)?);
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(ScanResult {
        violations,
        files_scanned,
    })
}
