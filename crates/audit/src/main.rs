//! `pi_audit` — CLI for the workspace invariant linter.
//!
//! ```text
//! pi_audit                 scan, print the violation count, exit 0
//! pi_audit --list          also print every unwaived violation
//! pi_audit --check         print them and exit 1 if there is any
//! pi_audit --root <path>   scan an explicit workspace root
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use pi_audit::{find_workspace_root, scan_workspace};

fn main() -> ExitCode {
    let mut check = false;
    let mut list = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--list" => list = true,
            "--root" => root = args.next().map(PathBuf::from),
            other => {
                eprintln!("pi_audit: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("pi_audit: cannot read cwd: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = root.or_else(|| find_workspace_root(&cwd)) else {
        eprintln!("pi_audit: no workspace root found above {}", cwd.display());
        return ExitCode::from(2);
    };
    let result = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pi_audit: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    println!(
        "pi_audit: {} files scanned, {} unwaived violations",
        result.files_scanned,
        result.violations.len()
    );
    if list || check {
        for v in &result.violations {
            println!("{v}");
        }
    }
    if check && !result.violations.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
