//! The rule families and the per-file scanner.
//!
//! Every rule is a token-level pattern over the [`crate::lexer`] code
//! shadow, so comments and string literals can never trigger it. Rules
//! are waivable through the directive grammar; waivers without reasons
//! and waivers that match nothing are themselves violations (rule
//! `directive`), so the escape hatch stays auditable.
//!
//! | rule id | invariant | why not clippy |
//! |---|---|---|
//! | `hotpath` | regions annotated `// audit: hotpath` never allocate (`Vec::new`, `vec![`, `format!`, `String::`, `Box::new`, `.collect()`, `.to_vec()`) | no lint is scoped to an author-annotated region |
//! | `determinism` | no `HashMap`/`HashSet` in order-sensitive modules (engines, reports, exporters, the pod table and its index), where iteration order could leak into output | `disallowed-types` is workspace-wide; the ban is per module |
//! | `lints` | the root manifest states the bans and every crate opts into `[workspace.lints]` (checked in [`crate::walk`]) | cargo accepts a member that opts out |
//! | `directive` | the waiver grammar itself: malformed, unknown-rule, or unused waivers | it is this tool's own grammar |
//!
//! The panic-surface and clock / OS-seeded-hasher bans this file used to
//! carry are `[workspace.lints.clippy]` and `clippy.toml` now.

use std::fmt;

use crate::lexer::{lex, DirectiveKind};

/// Order-sensitive-container rule id.
pub const RULE_DETERMINISM: &str = "determinism";
/// Hot-path allocation rule id.
pub const RULE_HOTPATH: &str = "hotpath";
/// Workspace-lints opt-in rule id.
pub const RULE_LINTS: &str = "lints";
/// Directive-grammar rule id (malformed/unknown/unused waivers).
pub const RULE_DIRECTIVE: &str = "directive";

/// All rule ids, as waivers may name them.
pub const ALL_RULES: [&str; 4] = [RULE_DETERMINISM, RULE_HOTPATH, RULE_LINTS, RULE_DIRECTIVE];

/// File basenames whose iteration order can reach a report or an
/// exported artefact; `HashMap`/`HashSet` are forbidden there. `pods`
/// and `index` are the per-packet pod / route lookup: a std map there
/// would also put SipHash back on the fast path.
const ORDER_SENSITIVE_BASENAMES: [&str; 12] = [
    "engine", "node", "shard", "report", "export", "json", "csv", "summary", "plot", "agg", "pods",
    "index",
];

/// Allocation tokens forbidden inside `// audit: hotpath` regions.
const HOTPATH_TOKENS: [&str; 8] = [
    "Vec::new",
    "vec![",
    "format!",
    "String::",
    "Box::new",
    ".collect(",
    ".collect::<",
    ".to_vec(",
];

/// How a file participates in its crate — decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Source under `src/`: all rules apply.
    Lib,
    /// Integration tests, examples and benches: exempt from the
    /// order-sensitive and hot-path rules, like `#[cfg(test)]` code.
    Test,
}

/// One rule violation at a source location.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Human message naming the offending token.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Violation {
            file,
            line,
            rule,
            message,
        } = self;
        write!(f, "{file}:{line}: [{rule}] {message}")
    }
}

/// Scans one file's source text and returns unwaived violations.
pub fn scan_file(rel_path: &str, class: FileClass, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let lines: Vec<&str> = lexed.code.lines().collect();
    let test_regions = cfg_test_regions(&lines);
    let hotpath_regions = hotpath_regions(&lexed, &lines);
    let basename = rel_path
        .rsplit('/')
        .next()
        .unwrap_or(rel_path)
        .trim_end_matches(".rs");
    let order_sensitive = class == FileClass::Lib && ORDER_SENSITIVE_BASENAMES.contains(&basename);

    let mut raw: Vec<Violation> = Vec::new();
    let mut push = |line: u32, rule: &'static str, message: String| {
        raw.push(Violation {
            file: rel_path.to_string(),
            line,
            rule,
            message,
        });
    };

    for (idx, code) in lines.iter().enumerate() {
        let line_no = idx as u32 + 1;
        let in_test = in_regions(&test_regions, line_no) || class == FileClass::Test;

        if order_sensitive && !in_test {
            for tok in ["HashMap", "HashSet"] {
                if contains_word(code, tok) {
                    push(
                        line_no,
                        RULE_DETERMINISM,
                        format!(
                            "`{tok}` in order-sensitive module `{basename}` \
                             (iteration order can reach a report)"
                        ),
                    );
                }
            }
        }
        if !in_test && in_regions(&hotpath_regions, line_no) {
            for tok in HOTPATH_TOKENS {
                if code.contains(tok) {
                    push(
                        line_no,
                        RULE_HOTPATH,
                        format!("allocation `{tok}` inside an `audit: hotpath` region"),
                    );
                }
            }
        }
    }

    apply_waivers(&lexed, raw, rel_path)
}

/// Applies file- and line-level waivers; unused, malformed or
/// unknown-rule waivers become `directive` violations.
fn apply_waivers(
    lexed: &crate::lexer::Lexed,
    raw: Vec<Violation>,
    rel_path: &str,
) -> Vec<Violation> {
    struct Waiver {
        line: u32,
        rule: String,
        file_level: bool,
        used: bool,
    }
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut out: Vec<Violation> = Vec::new();
    for d in &lexed.directives {
        match &d.kind {
            DirectiveKind::Allow { rule, .. } | DirectiveKind::AllowFile { rule, .. } => {
                if !ALL_RULES.contains(&rule.as_str()) {
                    out.push(Violation {
                        file: rel_path.to_string(),
                        line: d.line,
                        rule: RULE_DIRECTIVE,
                        message: format!("waiver names unknown rule `{rule}`"),
                    });
                } else {
                    waivers.push(Waiver {
                        line: d.line,
                        rule: rule.clone(),
                        file_level: matches!(d.kind, DirectiveKind::AllowFile { .. }),
                        used: false,
                    });
                }
            }
            DirectiveKind::Malformed { text } => {
                out.push(Violation {
                    file: rel_path.to_string(),
                    line: d.line,
                    rule: RULE_DIRECTIVE,
                    message: format!(
                        "malformed audit directive `{text}` (waivers need `-- <reason>`)"
                    ),
                });
            }
            DirectiveKind::Hotpath => {}
        }
    }
    for v in raw {
        let waived = waivers.iter_mut().find(|w| {
            w.rule == v.rule && (w.file_level || w.line == v.line || w.line + 1 == v.line)
        });
        match waived {
            Some(w) => w.used = true,
            None => out.push(v),
        }
    }
    for w in &waivers {
        if !w.used {
            out.push(Violation {
                file: rel_path.to_string(),
                line: w.line,
                rule: RULE_DIRECTIVE,
                message: format!(
                    "unused waiver for `{}` (nothing to waive — delete it)",
                    w.rule
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Line ranges (1-based, inclusive) of `#[cfg(test)]`-gated blocks.
fn cfg_test_regions(lines: &[&str]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    for (idx, code) in lines.iter().enumerate() {
        if let Some(col) = code.find("#[cfg(test)]") {
            if let Some(region) = brace_region(lines, idx, col) {
                regions.push(region);
            }
        }
    }
    regions
}

/// Hot-path regions: each `audit: hotpath` directive covers the next
/// `fn` item's body (search window: 10 lines); with no `fn` nearby it
/// covers the whole file (module-level annotation).
fn hotpath_regions(lexed: &crate::lexer::Lexed, lines: &[&str]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    for d in &lexed.directives {
        if d.kind != DirectiveKind::Hotpath {
            continue;
        }
        let start_idx = d.line as usize; // directive line is 1-based; body starts below
        let fn_line =
            (start_idx..lines.len().min(start_idx + 10)).find(|&i| contains_word(lines[i], "fn"));
        match fn_line {
            Some(i) => {
                if let Some(region) = brace_region(lines, i, 0) {
                    regions.push(region);
                } else {
                    regions.push((i as u32 + 1, lines.len() as u32));
                }
            }
            None => regions.push((1, lines.len() as u32)),
        }
    }
    regions
}

/// Finds the `{ … }` block that starts at or after `(start_idx,
/// start_col)` and returns its inclusive 1-based line range.
fn brace_region(lines: &[&str], start_idx: usize, start_col: usize) -> Option<(u32, u32)> {
    let mut depth: i32 = 0;
    let mut opened = false;
    for (idx, code) in lines.iter().enumerate().skip(start_idx) {
        let code = if idx == start_idx {
            code.get(start_col..).unwrap_or("")
        } else {
            code
        };
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth -= 1;
                    if opened && depth == 0 {
                        return Some((start_idx as u32 + 1, idx as u32 + 1));
                    }
                }
                // An item-ending semicolon before any brace means there
                // is no block (`mod tests;`).
                ';' if !opened && depth == 0 => return None,
                _ => {}
            }
        }
        // Attributes span a line; give up if no brace within 10 lines.
        if !opened && idx > start_idx + 10 {
            return None;
        }
    }
    None
}

fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Word-boundary containment: `tok` not embedded in a larger
/// identifier (so `HashMapLike` or `my_HashSet2` never match).
fn contains_word(hay: &str, tok: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = hay[from..].find(tok) {
        let at = from + pos;
        let before_ok = at == 0
            || !hay[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = hay[at + tok.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = at + tok.len().max(1);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_boundaries() {
        assert!(contains_word("let t = HashMap::new();", "HashMap"));
        assert!(!contains_word("let t = HashMapLike::new();", "HashMap"));
        assert!(!contains_word("let t = my_HashMap;", "HashMap"));
        assert!(contains_word("use x::{HashMap};", "HashMap"));
    }

    #[test]
    fn cfg_test_region_detection() {
        let src =
            "type A = HashSet<u8>;\n#[cfg(test)]\nmod tests {\n    type B = HashSet<u8>;\n}\n";
        let v = scan_file("crates/c/src/engine.rs", FileClass::Lib, src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 1);
    }
}
