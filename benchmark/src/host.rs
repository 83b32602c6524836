//! What the harness reads from the machine it runs on: memory high-water
//! mark, CPU time, a drift calibration loop and the fingerprint that
//! labels a result document.

// audit: allow-file(determinism) -- the harness times the library from outside; nothing here feeds a simulation
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use crate::json::Value;

/// Peak resident set size of this process in MB (`VmHWM` of
/// `/proc/self/status`). The workspace forbids `unsafe`, so there is no
/// counting allocator; the kernel's high-water mark is the memory
/// metric. `None` where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds consumed by this process, all threads
/// (`/proc/self/stat` fields 14 and 15). Clock ticks are 1/100 s on
/// every Linux this runs on (`sysconf` needs libc, which the workspace
/// does not link), so only differences over a second or more mean
/// anything.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; count from its
    // closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Nanoseconds a fixed arithmetic spin takes. Run before and after the
/// measurements of one process: a machine that slowed down, sped up or
/// was shared shows here, where no library code is involved.
pub fn calib_ns() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..4_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_nanos() as f64
}

/// First line of a command's standard output, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine and build a result document was produced on: hardware
/// threads, CPU model, `rustc --version` and `git rev-parse --short HEAD`
/// (`unknown` where a command or file is missing).
pub fn fingerprint() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fp = Value::obj();
    fp.set("nproc", Value::Num(nproc as f64));
    fp.set("cpu_model", Value::Str(cpu_model));
    fp.set("rustc", Value::Str(first_line_of("rustc", &["--version"])));
    fp.set(
        "git_rev",
        Value::Str(first_line_of("git", &["rev-parse", "--short", "HEAD"])),
    );
    fp
}
