//! # pi_bench — the results generator
//!
//! Every number under `results/` — and every README table that is not a
//! host timing — comes from here. Each experiment is one function that
//! runs its scenarios in simulated time and returns an [`Output`]: the
//! artefact files as strings, the table for the terminal, and its
//! headline claims as data ([`Claim`]), each stated once, next to where
//! its number is computed.
//!
//! Nothing in this crate reads a clock, the environment, the host's
//! core count, git, or a file: an output is a pure function of the
//! tree. That is the whole regression gate — `make results-check`
//! regenerates `results/` and fails if `git status` sees a difference
//! or a claim stopped holding, and `tests/results_artefacts.rs` does
//! the same in-process for the ten cheap experiments on every
//! `cargo test`. Host-time measurement lives in `benchmark/`, which
//! does not depend on this crate; the wall-clock rows this crate used
//! to produce are frozen in `results/history.md`.
//!
//! | experiment | artefact under `results/` | what it reproduces |
//! |---|---|---|
//! | `fig2` | `fig2_decomposition.csv` | Fig. 2a/2b — the ACL and its megaflow table |
//! | `mask_sweep` | `mask_sweep.csv` | §2 — fast-path capacity vs mask count, the 512/8192 rows |
//! | `field_scaling` | `field_scaling.csv` | §2 — masks = ∏ per-field prefix widths |
//! | `covert` | `covert_bandwidth.csv` | §2 — how little bandwidth sustains the masks |
//! | `fig3` | `fig3_timeseries.csv` | Fig. 3 — victim throughput and masks over 150 s |
//! | `ablation` | `mitigation_ablation.csv` | the demo-discussion defenses, quantified |
//! | `upcall` | `BENCH_upcall.json` | the bounded slow path under a paced flood |
//! | `detect` | `BENCH_detect.json` | the closed-loop defense: time-to-detect, recovery |
//! | `policy` | `BENCH_policy.json` | the zero-packet policy-flap flush storm |
//! | `backends` | `BENCH_backends.json` | {backend × attack × defense} immunity matrix |
//! | `fault` | `BENCH_fault.json` | crash recovery under attack |
//! | `trace` | `trace_policy_flap.{prom,json}` | the traced flap's causal chain |
//!
//! ```sh
//! cargo run --release -p pi_bench --bin results -- [--out <dir>] [<experiment>…]
//! ```

use std::fmt::Display;

/// `println!` into an experiment's terminal table (`fmt::Write` on a
/// `String` cannot fail).
macro_rules! say {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($out, $($arg)*);
    }};
}

mod ablation;
mod backends;
mod covert;
mod detect;
mod fault;
mod field_scaling;
mod fig2;
mod fig3;
mod mask_sweep;
mod policy;
pub mod report;
mod trace;
mod upcall;

/// One headline claim of an experiment, evaluated on the freshly
/// computed value.
#[derive(Debug)]
pub struct Claim {
    /// What is claimed, bar included.
    pub text: &'static str,
    /// The value the bar was applied to, as it should read in a table.
    pub value: String,
    /// Whether the claim holds on this tree.
    pub holds: bool,
}

impl Claim {
    fn new(text: &'static str, value: impl Display, holds: bool) -> Self {
        Claim {
            text,
            value: value.to_string(),
            holds,
        }
    }
}

/// What one experiment produces.
#[derive(Debug)]
pub struct Output {
    /// Artefacts as `(path relative to the output directory, contents)`.
    pub files: Vec<(&'static str, String)>,
    /// The table / figure for the terminal.
    pub table: String,
    /// The headline claims.
    pub claims: Vec<Claim>,
}

/// Runs one experiment. The only failure is a malformed constant in
/// the experiment's own set-up (a CIDR that does not parse).
pub type Run = fn() -> pi_core::Result<Output>;

/// Every experiment by the name `results` selects it by, in the order
/// it runs them: the paper's artefacts, then the extensions.
pub const EXPERIMENTS: [(&str, Run); 12] = [
    ("fig2", fig2::run),
    ("mask_sweep", mask_sweep::run),
    ("field_scaling", field_scaling::run),
    ("covert", covert::run),
    ("fig3", fig3::run),
    ("ablation", ablation::run),
    ("upcall", upcall::run),
    ("detect", detect::run),
    ("policy", policy::run),
    ("backends", backends::run),
    ("fault", fault::run),
    ("trace", trace::run),
];

/// The experiment called `name`.
pub fn experiment(name: &str) -> Option<Run> {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, run)| run)
}

/// Renders `summary.md`: one row per claim of a full run, given as
/// `(experiment, its claims)`.
pub fn summary(runs: &[(&'static str, Vec<Claim>)]) -> String {
    let mut md = String::from(
        "# Results summary\n\n\
         Written by `make results` (`cargo run --release -p pi_bench --bin results`):\n\
         every row is a claim evaluated on the value that run computed, in simulated\n\
         time. `make results-check` fails when a row stops holding or when any file\n\
         in this directory no longer regenerates byte for byte. Host-time numbers\n\
         are `benchmark/`'s; the wall-clock rows this directory used to carry are\n\
         frozen in `history.md`.\n\n\
         | experiment | claim | value | holds |\n|---|---|---:|---|\n",
    );
    for (name, claims) in runs {
        for c in claims {
            let holds = if c.holds { "yes" } else { "**NO**" };
            say!(md, "| `{name}` | {} | {} | {holds} |", c.text, c.value);
        }
    }
    md
}
