//! The shared report writer: every `BENCH_*.json` artefact is rendered
//! through [`Report`], so they all carry the same envelope —
//!
//! ```json
//! {
//!   "bench": "...",            // which experiment (historical bin name)
//!   "scenario": "...",         // which scenario produced the rows
//!   "params": { ... },         // scenario-level parameters
//!   "rows": [ {...}, ... ]     // one object per row, one row per line
//! }
//! ```
//!
//! The envelope names nothing about the host or the checkout (no git
//! rev, no core count): a file's rev is the commit it sits in, and the
//! rendering is a pure function of the report, which is what lets
//! `make results-check` gate the artefacts with `git status`. The
//! writer is hand-rolled on purpose: the repo takes no serialization
//! dependency for five small artefacts.

use std::fmt::Write as _;

/// One JSON scalar, with explicit float precision so re-runs produce
/// stable, diffable artefacts.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null` (e.g. a time-to-detect that never happened).
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned counter.
    UInt(u64),
    /// A float printed with the given number of decimals. Non-finite
    /// values render as `null` (JSON has no NaN).
    Float(f64, usize),
    /// A string (escaped on render).
    Str(String),
}

impl Value {
    fn render(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Float(v, prec) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:.prec$}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
        }
    }
}

/// An ordered field list — one report row, or the params object.
#[derive(Debug, Clone, Default)]
pub struct Fields {
    entries: Vec<(String, Value)>,
}

impl Fields {
    /// An empty field list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends any [`Value`].
    pub fn push(mut self, key: &str, value: Value) -> Self {
        self.entries.push((key.to_string(), value));
        self
    }

    /// Appends a string field.
    pub fn s(self, key: &str, v: &str) -> Self {
        self.push(key, Value::Str(v.to_string()))
    }

    /// Appends an unsigned counter.
    pub fn u(self, key: &str, v: u64) -> Self {
        self.push(key, Value::UInt(v))
    }

    /// Appends a usize counter.
    pub fn zu(self, key: &str, v: usize) -> Self {
        self.push(key, Value::UInt(v as u64))
    }

    /// Appends a boolean.
    pub fn b(self, key: &str, v: bool) -> Self {
        self.push(key, Value::Bool(v))
    }

    /// Appends a float with `prec` decimals.
    pub fn f(self, key: &str, v: f64, prec: usize) -> Self {
        self.push(key, Value::Float(v, prec))
    }

    /// Appends an optional float (`None` → `null`).
    pub fn opt_f(self, key: &str, v: Option<f64>, prec: usize) -> Self {
        self.push(key, v.map_or(Value::Null, |v| Value::Float(v, prec)))
    }

    fn render(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{k}\": ");
            v.render(out);
        }
        out.push('}');
    }
}

/// One `BENCH_*.json` artefact under construction.
#[derive(Debug, Clone)]
pub struct Report {
    bench: String,
    scenario: String,
    params: Fields,
    rows: Vec<Fields>,
}

impl Report {
    /// A new report for `bench` over `scenario`.
    pub fn new(bench: &str, scenario: &str) -> Self {
        Report {
            bench: bench.to_string(),
            scenario: scenario.to_string(),
            params: Fields::new(),
            rows: Vec::new(),
        }
    }

    /// Sets the scenario-level parameter object.
    pub fn params(mut self, params: Fields) -> Self {
        self.params = params;
        self
    }

    /// Appends a measured row.
    pub fn row(&mut self, row: Fields) {
        self.rows.push(row);
    }

    /// Renders the artefact.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(out, "  \"scenario\": \"{}\",", self.scenario);
        out.push_str("  \"params\": ");
        self.params.render(&mut out);
        out.push_str(",\n  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "    " });
            row.render(&mut out);
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_a_pure_function_of_the_report() {
        let mut r =
            Report::new("demo", "demo_scenario").params(Fields::new().u("n", 3).f("rate", 0.5, 2));
        r.row(
            Fields::new()
                .s("mode", "a")
                .u("count", 1)
                .opt_f("t", None, 1),
        );
        r.row(
            Fields::new()
                .s("mode", "b")
                .f("ratio", 0.25, 3)
                .b("ok", true),
        );
        let json = r.render();
        assert_eq!(json, r.render(), "two renders of one report must agree");
        assert_eq!(
            json,
            "{\n  \"bench\": \"demo\",\n  \"scenario\": \"demo_scenario\",\n  \
             \"params\": {\"n\": 3, \"rate\": 0.50},\n  \"rows\": [\n    \
             {\"mode\": \"a\", \"count\": 1, \"t\": null},\n    \
             {\"mode\": \"b\", \"ratio\": 0.250, \"ok\": true}\n  ]\n}\n"
        );
        // Nothing about the host or the checkout may reach an artefact.
        for key in ["git_rev", "available_cores"] {
            assert!(!json.contains(key), "{key} leaked into {json}");
        }
    }

    #[test]
    fn strings_are_escaped_and_nonfinite_floats_are_null() {
        let mut out = String::new();
        Value::Str("a\"b\\c\nd".into()).render(&mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
        let mut out = String::new();
        Value::Float(f64::NAN, 3).render(&mut out);
        assert_eq!(out, "null");
    }
}
