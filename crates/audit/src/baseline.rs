//! The ratchet file: `audit_baseline.json`.
//!
//! Rules that cannot be fixed in one PR (≈150 library `unwrap()`s at
//! the time this crate landed) are **ratcheted** instead of flagged:
//! the baseline records the current unwaived violation count per
//! `(crate, rule)`, and `pi_audit --check` fails when any count rises
//! *or* when a count falls without the file being tightened — the
//! baseline may only go down, and it must be kept honest. Regenerate
//! it with `pi_audit --write-baseline` after a burn-down.
//!
//! The file is a restricted JSON document written and parsed by this
//! module (no serde in this workspace):
//!
//! ```json
//! {
//!   "total": 159,
//!   "crates": { "pi_sim": { "panics": 34 } }
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Violation counts per crate per rule, deterministically ordered.
pub type Counts = BTreeMap<String, BTreeMap<String, usize>>;

/// A parsed baseline.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Per-crate, per-rule allowed violation counts.
    pub crates: Counts,
}

impl Baseline {
    /// Sum of all allowed counts.
    pub fn total(&self) -> usize {
        self.crates.values().flat_map(|r| r.values()).sum()
    }

    /// Allowed count for `(krate, rule)` (0 when absent).
    pub fn allowed(&self, krate: &str, rule: &str) -> usize {
        self.crates
            .get(krate)
            .and_then(|r| r.get(rule))
            .copied()
            .unwrap_or(0)
    }

    /// Renders the canonical file body.
    pub fn render(counts: &Counts) -> String {
        let mut out = String::from("{\n");
        let total: usize = counts.values().flat_map(|r| r.values()).sum();
        let _ = writeln!(out, "  \"total\": {total},");
        out.push_str("  \"crates\": {\n");
        let nonzero: Vec<(&String, &BTreeMap<String, usize>)> = counts
            .iter()
            .filter(|(_, rules)| rules.values().any(|&n| n > 0))
            .collect();
        for (i, (krate, rules)) in nonzero.iter().enumerate() {
            let _ = write!(out, "    \"{krate}\": {{");
            let mut first = true;
            for (rule, n) in rules.iter().filter(|(_, &n)| n > 0) {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "\"{rule}\": {n}");
            }
            out.push('}');
            if i + 1 < nonzero.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Parses a baseline file body.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        p.eat(b'{')?;
        let mut baseline = Baseline::default();
        loop {
            p.skip_ws();
            if p.peek() == Some(b'}') {
                break;
            }
            let key = p.string()?;
            p.skip_ws();
            p.eat(b':')?;
            p.skip_ws();
            match key.as_str() {
                "crates" => baseline.crates = p.crates_object()?,
                _ => p.skip_scalar()?,
            }
            p.skip_ws();
            if p.peek() == Some(b',') {
                p.at += 1;
            }
        }
        Ok(baseline)
    }
}

/// How a current count disagrees with the ratchet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Drift {
    /// More violations than allowed: a regression.
    Over {
        /// Crate name.
        krate: String,
        /// Rule id.
        rule: String,
        /// Current unwaived count.
        current: usize,
        /// Ratcheted allowance.
        allowed: usize,
    },
    /// Fewer violations than recorded: tighten the baseline
    /// (`--write-baseline`) so the improvement cannot regress quietly.
    Stale {
        /// Crate name.
        krate: String,
        /// Rule id.
        rule: String,
        /// Current unwaived count.
        current: usize,
        /// Ratcheted allowance.
        allowed: usize,
    },
}

/// Diffs current counts against the baseline in both directions.
pub fn drift(current: &Counts, baseline: &Baseline) -> Vec<Drift> {
    let mut out = Vec::new();
    for (krate, rules) in current {
        for (rule, &n) in rules {
            let allowed = baseline.allowed(krate, rule);
            if n > allowed {
                out.push(Drift::Over {
                    krate: krate.clone(),
                    rule: rule.clone(),
                    current: n,
                    allowed,
                });
            } else if n < allowed {
                out.push(Drift::Stale {
                    krate: krate.clone(),
                    rule: rule.clone(),
                    current: n,
                    allowed,
                });
            }
        }
    }
    // Baseline entries for crates/rules that no longer exist at all.
    for (krate, rules) in &baseline.crates {
        for (rule, &allowed) in rules {
            if allowed > 0
                && current
                    .get(krate)
                    .and_then(|r| r.get(rule))
                    .copied()
                    .unwrap_or(0)
                    == 0
                && !current.contains_key(krate)
            {
                out.push(Drift::Stale {
                    krate: krate.clone(),
                    rule: rule.clone(),
                    current: 0,
                    allowed,
                });
            }
        }
    }
    out
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|c| c == b' ' || c == b'\n' || c == b'\t' || c == b'\r')
        {
            self.at += 1;
        }
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "baseline parse: expected `{}` at byte {}",
                want as char, self.at
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.at;
        while self.peek().is_some_and(|c| c != b'"') {
            self.at += 1;
        }
        let s = String::from_utf8_lossy(&self.bytes[start..self.at]).to_string();
        self.eat(b'"')?;
        Ok(s)
    }

    fn number(&mut self) -> Result<usize, String> {
        let start = self.at;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.at += 1;
        }
        String::from_utf8_lossy(&self.bytes[start..self.at])
            .parse()
            .map_err(|_| format!("baseline parse: bad number at byte {start}"))
    }

    /// Skips a scalar value (string or number) we don't interpret.
    fn skip_scalar(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b'"') {
            self.string()?;
        } else {
            self.number()?;
        }
        Ok(())
    }

    fn crates_object(&mut self) -> Result<Counts, String> {
        self.skip_ws();
        self.eat(b'{')?;
        let mut out = Counts::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.at += 1;
                break;
            }
            let krate = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            self.eat(b'{')?;
            let mut rules = BTreeMap::new();
            loop {
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.at += 1;
                    break;
                }
                let rule = self.string()?;
                self.skip_ws();
                self.eat(b':')?;
                self.skip_ws();
                rules.insert(rule, self.number()?);
                self.skip_ws();
                if self.peek() == Some(b',') {
                    self.at += 1;
                }
            }
            out.insert(krate, rules);
            self.skip_ws();
            if self.peek() == Some(b',') {
                self.at += 1;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(&str, &str, usize)]) -> Counts {
        let mut c = Counts::new();
        for &(k, r, n) in entries {
            c.entry(k.to_string()).or_default().insert(r.to_string(), n);
        }
        c
    }

    #[test]
    fn round_trip() {
        let c = counts(&[("pi_a", "panics", 3), ("pi_b", "panics", 0)]);
        let text = Baseline::render(&c);
        let b = Baseline::parse(&text).expect("parse");
        assert_eq!(b.total(), 3);
        assert_eq!(b.allowed("pi_a", "panics"), 3);
        assert_eq!(b.allowed("pi_b", "panics"), 0);
        assert_eq!(b.allowed("pi_c", "panics"), 0);
    }

    #[test]
    fn drift_both_directions() {
        let base =
            Baseline::parse(&Baseline::render(&counts(&[("pi_a", "panics", 3)]))).expect("parse");
        let over = drift(&counts(&[("pi_a", "panics", 4)]), &base);
        assert!(matches!(
            over[0],
            Drift::Over {
                current: 4,
                allowed: 3,
                ..
            }
        ));
        let stale = drift(&counts(&[("pi_a", "panics", 1)]), &base);
        assert!(matches!(
            stale[0],
            Drift::Stale {
                current: 1,
                allowed: 3,
                ..
            }
        ));
        assert!(drift(&counts(&[("pi_a", "panics", 3)]), &base).is_empty());
    }
}
