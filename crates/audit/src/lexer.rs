//! A minimal Rust lexer for lint purposes.
//!
//! The analyzer's rules are token-level pattern matches; the one thing
//! that makes them trustworthy is that they never fire on *text* — doc
//! comments, string literals, or char literals that merely mention a
//! forbidden name. [`lex`] walks a source file once and produces a
//! "code shadow": the same bytes with every comment and every literal
//! interior replaced by spaces, so line/column positions are preserved
//! while only genuine code tokens survive.
//!
//! Along the way it extracts **audit directives** from line comments:
//!
//! ```text
//! // audit: hotpath
//! // audit: allow(<rule>) -- <reason>
//! // audit: allow-file(<rule>) -- <reason>
//! ```
//!
//! A waiver without a `-- <reason>` tail is itself reported as a
//! malformed directive: the grammar makes the *why* mandatory.
//!
//! Handled literal syntax: line comments, nested block comments,
//! `"…"`, `r"…"`, `r#"…"#` (any hash depth), `b"…"`, `br#"…"#`,
//! `'c'` char literals (including escapes) vs. `'static` lifetimes.

/// One extracted `// audit: …` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// 1-based source line the directive comment sits on.
    pub line: u32,
    /// Parsed directive payload.
    pub kind: DirectiveKind,
}

/// The directive grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectiveKind {
    /// `// audit: hotpath` — the next `fn` (or the whole file when no
    /// `fn` follows nearby) must stay allocation-free.
    Hotpath,
    /// `// audit: allow(<rule>) -- <reason>` — waive violations of
    /// `rule` on this line or the line directly below.
    Allow {
        /// Rule id being waived (e.g. `panics`).
        rule: String,
        /// Mandatory human reason.
        reason: String,
    },
    /// `// audit: allow-file(<rule>) -- <reason>` — waive `rule` for
    /// the entire file.
    AllowFile {
        /// Rule id being waived.
        rule: String,
        /// Mandatory human reason.
        reason: String,
    },
    /// A comment that starts with `audit:` but does not parse; the
    /// scanner reports these so typos cannot silently disable a rule.
    Malformed {
        /// What the lexer saw after `audit:`.
        text: String,
    },
}

/// Result of lexing one source file.
#[derive(Debug, Clone)]
pub struct Lexed {
    /// The code shadow: identical byte length and line structure to the
    /// input, with comments and literal interiors blanked to spaces.
    pub code: String,
    /// Extracted audit directives, in source order.
    pub directives: Vec<Directive>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
    Char,
}

/// Lexes `src` into a code shadow plus extracted directives.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut code = String::with_capacity(src.len());
    let mut directives = Vec::new();
    let mut state = State::Code;
    let mut line: u32 = 1;
    let mut comment_start = 0usize; // byte offset of current line comment text
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i] as char;
        if c == '\n' {
            if state == State::LineComment {
                parse_comment(&src[comment_start..i], line, &mut directives);
                state = State::Code;
            }
            code.push('\n');
            line += 1;
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    comment_start = i + 2;
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    state = State::Str { raw_hashes: None };
                    code.push('"');
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_is_ident(&code) {
                    // Possible raw/byte string prefix: r" r#" b" br" br#"
                    let mut j = i + 1;
                    if c == 'b' && bytes.get(j) == Some(&b'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    let is_raw = j > i + 1 || c == 'r';
                    if bytes.get(j) == Some(&b'"') && (is_raw || c == 'b') {
                        for _ in i..=j {
                            code.push(' ');
                        }
                        code.pop();
                        code.push('"');
                        state = State::Str {
                            raw_hashes: if is_raw { Some(hashes) } else { None },
                        };
                        i = j + 1;
                    } else if c == 'b' && bytes.get(i + 1) == Some(&b'\'') {
                        code.push_str(" '");
                        state = State::Char;
                        i += 2;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal or lifetime?
                    if is_char_literal(bytes, i) {
                        state = State::Char;
                    }
                    code.push('\'');
                    i += 1;
                } else {
                    code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                code.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    code.push_str("  ");
                    i += 2;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str { raw_hashes: None } => {
                if c == '\\' && i + 1 < bytes.len() {
                    code.push_str("  ");
                    if bytes[i + 1] == b'\n' {
                        code.pop();
                        code.push('\n');
                        line += 1;
                    }
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str {
                raw_hashes: Some(h),
            } => {
                if c == '"' && closes_raw(bytes, i, h) {
                    code.push('"');
                    for _ in 0..h {
                        code.push(' ');
                    }
                    state = State::Code;
                    i += 1 + h as usize;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            State::Char => {
                if c == '\\' && i + 1 < bytes.len() {
                    code.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    code.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if state == State::LineComment {
        parse_comment(&src[comment_start..], line, &mut directives);
    }
    Lexed { code, directives }
}

fn prev_is_ident(code: &str) -> bool {
    code.chars()
        .next_back()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

fn closes_raw(bytes: &[u8], i: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| bytes.get(i + 1 + k) == Some(&b'#'))
}

/// `'x'`, `'\n'`, `'\''` are char literals; `'static`, `'_` are
/// lifetimes. Decided by lookahead from the opening quote at `i`.
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        Some(&c) if (c as char).is_alphanumeric() || c == b'_' => {
            // `'a'` is a char; `'a,` / `'a>` / `'a ` is a lifetime.
            bytes.get(i + 2) == Some(&b'\'')
        }
        Some(b'\'') => false, // `''` — malformed, treat as lifetime-ish
        Some(_) => true,      // `'(' `, `' '` etc. — char literal
        None => false,
    }
}

/// Parses one line-comment body for the directive grammar.
fn parse_comment(text: &str, line: u32, out: &mut Vec<Directive>) {
    // Tolerate doc comments (`/// audit:` is still a directive-shaped
    // string a human may have intended) and leading punctuation.
    let t = text.trim_start_matches(['/', '!']).trim();
    let Some(rest) = t.strip_prefix("audit:") else {
        return;
    };
    let rest = rest.trim();
    let kind = if rest == "hotpath"
        || rest
            .strip_prefix("hotpath")
            .is_some_and(|t| t.trim_start().starts_with("--"))
    {
        // `audit: hotpath` with an optional `-- note` tail.
        DirectiveKind::Hotpath
    } else {
        let malformed = || DirectiveKind::Malformed {
            text: rest.to_string(),
        };
        if let Some(body) = rest.strip_prefix("allow-file(") {
            parse_allow(body).map_or_else(malformed, |(rule, reason)| DirectiveKind::AllowFile {
                rule,
                reason,
            })
        } else if let Some(body) = rest.strip_prefix("allow(") {
            parse_allow(body).map_or_else(malformed, |(rule, reason)| DirectiveKind::Allow {
                rule,
                reason,
            })
        } else {
            malformed()
        }
    };
    out.push(Directive { line, kind });
}

/// Parses `<rule>) -- <reason>`, the part of a waiver after its
/// `allow(` / `allow-file(` head; `None` if malformed.
fn parse_allow(body: &str) -> Option<(String, String)> {
    let close = body.find(')')?;
    let rule = body[..close].trim();
    let reason = body[close + 1..].trim().strip_prefix("--")?.trim();
    (!rule.is_empty() && !reason.is_empty()).then(|| (rule.to_string(), reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src =
            "let x = \"Instant\"; // Instant in text\nlet y = 'I'; /* SystemTime */ call();\n";
        let lexed = lex(src);
        assert!(!lexed.code.contains("Instant"));
        assert!(!lexed.code.contains("SystemTime"));
        assert!(lexed.code.contains("let x = \""));
        assert!(lexed.code.contains("call();"));
        assert_eq!(lexed.code.lines().count(), src.lines().count());
    }

    #[test]
    fn raw_and_byte_strings_are_blanked() {
        let src = "a(r#\"vec![Instant]\"#); b(br\"unwrap()\"); c(b\"panic!\");";
        let code = lex(src).code;
        assert!(!code.contains("Instant"));
        assert!(!code.contains("unwrap"));
        assert!(!code.contains("panic"));
        assert!(code.contains("a("));
        assert!(code.contains("c("));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\n'; g(x) }";
        let code = lex(src).code;
        assert!(code.contains("<'a>"));
        assert!(code.contains("&'a str"));
        assert!(!code.contains("'x'"));
        assert!(code.contains("g(x)"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a(); /* outer /* inner unwrap() */ still comment */ b();";
        let code = lex(src).code;
        assert!(code.contains("a();"));
        assert!(code.contains("b();"));
        assert!(!code.contains("unwrap"));
        assert!(!code.contains("still"));
    }

    #[test]
    fn directives_parse() {
        let src = "\n// audit: hotpath\nfn f() {}\nlet x = 1; // audit: allow(panics) -- test harness\n// audit: allow-file(determinism) -- delegation\n// audit: allow(panics) missing reason\n";
        let d = lex(src).directives;
        assert_eq!(d.len(), 4);
        assert_eq!(d[0].line, 2);
        assert_eq!(d[0].kind, DirectiveKind::Hotpath);
        assert_eq!(
            d[1].kind,
            DirectiveKind::Allow {
                rule: "panics".into(),
                reason: "test harness".into()
            }
        );
        assert_eq!(
            d[2].kind,
            DirectiveKind::AllowFile {
                rule: "determinism".into(),
                reason: "delegation".into()
            }
        );
        assert!(matches!(d[3].kind, DirectiveKind::Malformed { .. }));
    }

    #[test]
    fn ordinary_comments_are_not_directives() {
        let src = "// the audit crate does X\n// audited by hand\nf();\n";
        assert!(lex(src).directives.is_empty());
    }
}
