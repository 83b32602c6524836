//! `results [--out <dir>] [<experiment>…]` — regenerates the artefacts.
//!
//! Runs the named experiments (none named = all twelve), prints each
//! one's table and claims, and writes its files under `--out` (default
//! `results`, relative to the working directory — `make results` runs
//! from the repo root). A full run also writes `summary.md` from the
//! same claims; a partial one leaves the committed summary alone.
//!
//! Exit code: 0 when every claim holds, 1 when one does not, 2 on a
//! usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pi_bench::{experiment, summary, Claim, EXPERIMENTS};

fn usage() -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: results [--out <dir>] [<experiment>…]\nexperiments: {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

fn write(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Runs the selection and writes its files; `Ok(true)` when every
/// claim held.
fn run(out: &Path, selected: &[String]) -> Result<bool, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut runs: Vec<(&'static str, Vec<Claim>)> = Vec::new();
    let mut all_hold = true;
    for (name, run) in EXPERIMENTS {
        if !selected.is_empty() && !selected.iter().any(|s| s == name) {
            continue;
        }
        println!("== {name}");
        let output = run().map_err(|e| format!("{name}: {e}"))?;
        print!("{}", output.table);
        for (file, contents) in &output.files {
            write(out, file, contents)?;
        }
        for c in &output.claims {
            let mark = if c.holds { "ok  " } else { "FAIL" };
            println!("  {mark} {} [{}]", c.text, c.value);
            all_hold &= c.holds;
        }
        println!();
        runs.push((name, output.claims));
    }
    if selected.is_empty() {
        write(out, "summary.md", &summary(&runs))?;
    }
    Ok(all_hold)
}

fn main() -> ExitCode {
    let mut out = PathBuf::from("results");
    let mut selected: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => return usage(),
            }
        } else if experiment(&arg).is_some() {
            selected.push(arg);
        } else {
            return usage();
        }
    }
    match run(&out, &selected) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("results: a claim no longer holds");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("results: {e}");
            ExitCode::from(2)
        }
    }
}
