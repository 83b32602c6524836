//! Workspace discovery: member crates, their source files, and the
//! `[workspace.lints]` opt-in check (rule `lints`).
//!
//! Dependency-free on purpose — the walker reads the root `Cargo.toml`
//! members list and each member's manifest with a purpose-built string
//! scan (this workspace's manifests are plain; no TOML parser needed),
//! then enumerates `.rs` files under each member's `src/`, `tests/`,
//! `examples/` and `benches/` directories. Directories named
//! `fixtures` or `target` are skipped: fixture files *contain*
//! violations by design.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{FileClass, Violation, RULE_LINTS};

/// A source file scheduled for scanning.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root.
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Classification deciding rule applicability.
    pub class: FileClass,
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// The workspace members' directories relative to `root`, from the root
/// manifest (`""` first, for the root package itself, if there is one).
pub fn members(root: &Path) -> io::Result<Vec<String>> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut out = Vec::new();
    if manifest.contains("[package]") {
        out.push(String::new());
    }
    out.extend(member_dirs(&manifest));
    Ok(out)
}

/// Extracts the quoted entries of `members = [ ... ]`.
fn member_dirs(manifest: &str) -> Vec<String> {
    let Some(start) = manifest.find("members") else {
        return Vec::new();
    };
    let Some(open) = manifest[start..].find('[') else {
        return Vec::new();
    };
    let Some(close) = manifest[start + open..].find(']') else {
        return Vec::new();
    };
    let body = &manifest[start + open + 1..start + open + close];
    body.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

/// Enumerates a member's source files with their [`FileClass`].
pub fn source_files(root: &Path, member: &str) -> io::Result<Vec<SourceFile>> {
    let base = if member.is_empty() {
        root.to_path_buf()
    } else {
        root.join(member)
    };
    let mut out = Vec::new();
    for (sub, class) in [
        ("src", FileClass::Lib),
        ("tests", FileClass::Test),
        ("examples", FileClass::Test),
        ("benches", FileClass::Test),
    ] {
        let dir = base.join(sub);
        if dir.is_dir() {
            collect_rs(&dir, &mut |path| {
                let rel_path = path
                    .strip_prefix(root)
                    .unwrap_or(path)
                    .to_string_lossy()
                    .replace('\\', "/");
                out.push(SourceFile {
                    rel_path,
                    abs_path: path.to_path_buf(),
                    class,
                });
            })?;
        }
    }
    Ok(out)
}

fn collect_rs(dir: &Path, visit: &mut impl FnMut(&Path)) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().map(|n| n.to_string_lossy().to_string());
            if matches!(name.as_deref(), Some("fixtures") | Some("target")) {
                continue;
            }
            collect_rs(&path, visit)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            visit(&path);
        }
    }
    Ok(())
}

/// What the root manifest's `[workspace.lints]` tables must state: the
/// `unsafe` ban and the three panic-surface lints (the clock / hasher
/// ban is `clippy.toml`'s `disallowed-types`, on by default).
const REQUIRED_LINTS: [&str; 4] = ["unsafe_code", "unwrap_used", "expect_used", "panic"];

/// Rule `lints`: the root manifest must state every lint of
/// `REQUIRED_LINTS` under `[workspace.lints.*]`, and every member
/// manifest must opt in with `[lints]` / `workspace = true` — which is
/// what makes those bans reach the crate at all.
pub fn check_lints(root: &Path, members: &[String]) -> io::Result<Vec<Violation>> {
    let violation = |file: &str, message: String| Violation {
        file: file.to_string(),
        line: 1,
        rule: RULE_LINTS,
        message,
    };
    let mut out = Vec::new();
    let root_manifest = fs::read_to_string(root.join("Cargo.toml"))?;
    let stated = workspace_lints(&root_manifest);
    for lint in REQUIRED_LINTS {
        if !stated.iter().any(|l| l == lint) {
            out.push(violation(
                "Cargo.toml",
                format!("[workspace.lints] does not set `{lint}`"),
            ));
        }
    }
    for m in members {
        let rel = if m.is_empty() {
            "Cargo.toml".to_string()
        } else {
            format!("{m}/Cargo.toml")
        };
        let manifest = fs::read_to_string(root.join(&rel))?;
        if !opts_into_workspace_lints(&manifest) {
            let message = "crate does not opt into [workspace.lints] \
                           (add `[lints]` with `workspace = true`)";
            out.push(violation(&rel, message.to_string()));
        }
    }
    Ok(out)
}

/// The keys set under the manifest's `[workspace.lints.*]` tables.
fn workspace_lints(manifest: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut inside = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints");
        } else if inside && !line.starts_with('#') {
            if let Some((key, _)) = line.split_once('=') {
                keys.push(key.trim().to_string());
            }
        }
    }
    keys
}

/// `[lints]` section containing `workspace = true` before the next
/// section header.
fn opts_into_workspace_lints(manifest: &str) -> bool {
    let Some(start) = manifest.find("[lints]") else {
        return false;
    };
    let body = &manifest[start + "[lints]".len()..];
    let end = body.find("\n[").unwrap_or(body.len());
    body[..end]
        .lines()
        .any(|l| l.trim().replace(' ', "") == "workspace=true")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_list_parses() {
        let m = "[workspace]\nmembers = [\n  \"crates/a\",\n  \"crates/b\",\n]\n";
        assert_eq!(member_dirs(m), vec!["crates/a", "crates/b"]);
    }

    #[test]
    fn workspace_lint_keys_come_from_the_lints_tables_only() {
        let m = "[workspace.lints.rust]\nunsafe_code = \"forbid\"\n# panic = \"deny\"\n\n\
                 [workspace.lints.clippy]\nunwrap_used = \"deny\"\n\n[profile.release]\npanic = \"abort\"\n";
        assert_eq!(workspace_lints(m), ["unsafe_code", "unwrap_used"]);
    }

    #[test]
    fn lints_opt_in_detection() {
        assert!(opts_into_workspace_lints(
            "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n\n[dependencies]\n"
        ));
        assert!(!opts_into_workspace_lints("[package]\nname = \"x\"\n"));
        assert!(!opts_into_workspace_lints(
            "[lints]\n\n[dependencies]\nworkspace = true\n"
        ));
    }
}
