//! `benchmark` — the repo's one benchmark.
//!
//! Five workloads, end-to-end host-time and memory metrics measured with
//! tracing off, and an outside-in layer ledger from a separate traced
//! run. Every timing is *host* wall-clock, taken by this harness around
//! calls into the layer crates' public functions; library code keeps its
//! no-wall-clock rule. Simulated statistics are exact for a fixed seed
//! and are reported as counts plus a digest, never as a speed.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! benchmark [--seed N] [--seconds S] [--out DIR] [--smoke] [--sets K]   all five, in children
//! benchmark --compare A.json B.json                         verdict on two result documents
//! ```
//!
//! README.md beside this package explains the workloads, the metrics and
//! how to read the ledger and `spans.json`.

mod compare;
mod full;
mod host;
mod json;
mod layers;
mod ledger;
mod metrics;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage: benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds S] \
[--out DIR] [--smoke] [--sets K] | --compare A.json B.json";

/// Parsed command line.
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    sets: usize,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    // `cargo run` exports the target directory the pipeline chose; the
    // default output lives inside it so a checkout stays clean.
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        smoke: false,
        sets: 1,
        out: target.join("benchmark"),
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} out of range"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--sets" => {
                cli.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?;
                if !(1..=16).contains(&cli.sets) {
                    return Err(format!("--sets {} out of range", cli.sets));
                }
            }
            "--out" => cli.out = PathBuf::from(value()?),
            "--smoke" => cli.smoke = true,
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn read_doc(path: &PathBuf) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn dispatch(cli: Cli) -> Result<bool, String> {
    if let Some((a, b)) = &cli.compare {
        let (report, regressed) = compare::compare_docs(&read_doc(a)?, &read_doc(b)?);
        print!("{report}");
        return Ok(!regressed);
    }
    let Some(workload) = cli.workload else {
        let args = full::FullArgs {
            seed: cli.seed,
            seconds: cli.seconds.unwrap_or(3.0),
            smoke: cli.smoke,
            sets: cli.sets,
            out: cli.out,
        };
        return full::run(&args).map_err(|e| e.to_string());
    };
    let args = run::RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(10.0),
        traced: cli.traced,
        smoke: cli.smoke,
        out: cli.out,
    };
    println!(
        "benchmark: workload={} seed={} trace={} sim_secs={}{}",
        workload.name(),
        args.seed,
        u8::from(args.traced),
        workload.sim_secs(args.smoke),
        if args.smoke {
            " SMOKE (not a baseline)"
        } else {
            ""
        }
    );
    let outcome = run::run(&args).map_err(|e| e.to_string())?;
    for (name, unit, value) in &outcome.metrics {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    for failure in &outcome.checks.failures {
        println!("  FAILED CHECK: {failure}");
    }
    println!("detail: {}", outcome.detail.to_line());
    println!("{}", outcome.result_line());
    // A failed check is reported in the result line (`correct: false`);
    // the process itself completed.
    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn pipeline_invocation_parses() {
        let c = cli(&[
            "--workload",
            "colo_walk",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload, Some(Workload::ColoWalk));
        assert_eq!((c.seed, c.seconds, c.traced), (7, Some(15.0), true));
        assert!(!c.smoke && c.sets == 1 && c.compare.is_none());
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--sets", "0"],
            &["--compare", "a.json"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }
}
