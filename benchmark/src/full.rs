//! The full run: every workload, interleaved rounds, one child process
//! per workload per round, then one traced child per workload.
//!
//! The parent re-executes its own binary and waits for each child, so
//! there is never more than one busy thread, and a noisy-neighbour
//! burst lands on one sample of every workload instead of on every
//! sample of one. It aggregates the children's samples into one result
//! document per set, writes it with a machine fingerprint, merges the
//! children's spans into `spans.json`, and — with `--sets K` — compares
//! the sets pairwise.

use std::io;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::compare::compare_docs;
use crate::host;
use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::stats;
use crate::workloads::{ratio, Workload};

/// What a full run is asked to do.
#[derive(Debug, Clone)]
pub struct FullArgs {
    /// Input seed for every workload.
    pub seed: u64,
    /// Measuring time of each timed child; the traced child gets the
    /// four rounds' worth.
    pub seconds: f64,
    /// One round of one short repeat; numbers labelled as smoke.
    pub smoke: bool,
    /// Sets to run and compare pairwise.
    pub sets: usize,
    /// Directory for the result documents and `spans.json`.
    pub out: PathBuf,
}

/// Timed rounds per set.
const ROUNDS: usize = 4;

/// One child's parsed standard output.
struct Child {
    result: Value,
    detail: Value,
}

fn other(msg: String) -> io::Error {
    io::Error::other(msg)
}

/// Runs one workload in a child process and parses what it printed.
fn spawn(args: &FullArgs, workload: Workload, seconds: f64, traced: bool) -> io::Result<Child> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.stderr(Stdio::inherit()).output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(other(format!(
            "{} child failed: {}\n{stdout}",
            workload.name(),
            output.status
        )));
    }
    let parse_line = |line: Option<&str>, what: &str| {
        line.ok_or_else(|| other(format!("{} child printed no {what}", workload.name())))
            .and_then(|l| json::parse(l).map_err(other))
    };
    Ok(Child {
        result: parse_line(
            stdout.lines().rev().find(|l| !l.trim().is_empty()),
            "result line",
        )?,
        detail: parse_line(
            stdout.lines().find_map(|l| l.strip_prefix("detail: ")),
            "detail line",
        )?,
    })
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn samples(v: &Value, key: &str) -> Vec<f64> {
    v.get(key)
        .map_or(&[][..], Value::items)
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

/// Folds one workload's children into its section of the document.
fn fold(workload: Workload, timed: &[Child], traced: &Child) -> Value {
    let all = |key: &str| {
        timed
            .iter()
            .flat_map(|c| samples(&c.detail, key))
            .collect::<Vec<f64>>()
    };
    let (setup, wall) = (all("setup_s"), all("wall_s"));
    let wall_best = stats::min(&wall);
    let packets = num(&timed[0].detail, "packets");
    let digest = |c: &Child| c.detail.get("digest").cloned();

    // The parent's own check: every round of a workload reproduces one
    // digest, and so does the traced child's untraced phase.
    let mut attempted = 1.0;
    let mut failed = 0.0;
    let mut failures: Vec<Value> = Vec::new();
    if !timed
        .iter()
        .chain([traced])
        .all(|c| digest(c) == digest(&timed[0]))
    {
        failed += 1.0;
        failures.push(Value::str("digest differs between rounds"));
    }
    for child in timed.iter().chain([traced]) {
        attempted += num(&child.result, "attempted");
        failed += num(&child.result, "failed");
        failures.extend(
            child
                .detail
                .get("failures")
                .map_or(&[][..], Value::items)
                .iter()
                .cloned(),
        );
    }

    let rss = timed
        .iter()
        .filter_map(|c| {
            c.result
                .path(&["metrics", "peak_rss_mb", "value"])?
                .as_f64()
        })
        .fold(0.0, f64::max);
    let values = [
        stats::min(&setup),
        wall_best,
        ratio(packets / 1e6, wall_best),
        rss,
        ratio(failed, attempted),
    ];
    let mut end_to_end = Value::obj();
    for (def, value) in END_TO_END.iter().zip(values) {
        end_to_end.set(def.name, Value::metric(value, def.unit));
    }

    // Per-layer metrics come from the traced child, except run quality,
    // which describes the timed rounds the end-to-end values rest on.
    let busy: Vec<f64> = timed
        .iter()
        .map(|c| num(&c.detail, "cpu_busy_frac"))
        .collect();
    let run_quality = [
        ("run.repeats", wall.len() as f64),
        ("run.wall_iqr_frac", stats::iqr_frac(&wall)),
        ("run.wall_max_s", stats::max(&wall)),
        (
            "run.cpu_busy_frac",
            busy.iter().sum::<f64>() / busy.len() as f64,
        ),
        ("run.ns_per_pkt", ratio(wall_best * 1e9, packets)),
        (
            "run.ns_per_stepped_tick",
            ratio(wall_best * 1e9, num(&timed[0].detail, "ticks_stepped")),
        ),
    ];
    let mut per_layer = Value::obj();
    for (name, m) in traced.result.get("metrics").map_or(&[][..], Value::fields) {
        let replaced = run_quality.iter().find(|(n, _)| n == name);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        per_layer.set(
            name,
            replaced.map_or(m.clone(), |(_, v)| Value::metric(*v, unit)),
        );
    }

    let mut section = Value::obj();
    section.set("sim_secs", Value::Num(workload.sim_secs(false) as f64));
    section.set("end_to_end", end_to_end);
    section.set("per_layer", per_layer);
    section.set("digest", digest(&timed[0]).unwrap_or(Value::Null));
    section.set(
        "traced_digest",
        traced
            .detail
            .get("traced_digest")
            .cloned()
            .unwrap_or(Value::Null),
    );
    section.set("attempted", Value::Num(attempted));
    section.set("failed", Value::Num(failed));
    section.set("failures", Value::Arr(failures));
    let mut kept = Value::obj();
    kept.set(
        "setup_s",
        Value::Arr(setup.into_iter().map(Value::Num).collect()),
    );
    kept.set(
        "wall_s",
        Value::Arr(wall.into_iter().map(Value::Num).collect()),
    );
    section.set("samples", kept);
    section
}

/// Concatenates the traced children's span files into one Chrome trace,
/// one process row per workload.
fn merge_spans(args: &FullArgs) -> io::Result<PathBuf> {
    let mut events = Vec::new();
    for (pid, workload) in Workload::ALL.iter().enumerate() {
        let path = args.out.join(format!("spans.{}.json", workload.name()));
        let doc = json::parse(&std::fs::read_to_string(&path)?).map_err(other)?;
        let mut name = Value::obj();
        name.set("name", Value::str(workload.name()));
        let mut row = Value::obj();
        row.set("name", Value::str("process_name"));
        row.set("ph", Value::str("M"));
        row.set("pid", Value::Num(pid as f64));
        row.set("args", name);
        events.push(row);
        for ev in doc.get("traceEvents").map_or(&[][..], Value::items) {
            let fields = ev.fields().iter().map(|(k, v)| match k.as_str() {
                "pid" => (k.clone(), Value::Num(pid as f64)),
                _ => (k.clone(), v.clone()),
            });
            events.push(Value::Obj(fields.collect()));
        }
    }
    let mut doc = Value::obj();
    doc.set("traceEvents", Value::Arr(events));
    doc.set("displayTimeUnit", Value::str("ms"));
    let path = args.out.join("spans.json");
    std::fs::write(&path, doc.to_pretty())?;
    Ok(path)
}

/// Runs one set: the timed rounds, then the traced children.
fn run_set(args: &FullArgs, fingerprint: &Value) -> io::Result<Value> {
    let rounds = if args.smoke { 1 } else { ROUNDS };
    let mut timed: Vec<Vec<Child>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        for (i, workload) in Workload::ALL.into_iter().enumerate() {
            eprintln!("round {}/{rounds}: {}", round + 1, workload.name());
            timed[i].push(spawn(args, workload, args.seconds, false)?);
        }
    }
    let mut workloads = Value::obj();
    for (i, workload) in Workload::ALL.into_iter().enumerate() {
        eprintln!("traced: {}", workload.name());
        let traced = spawn(args, workload, args.seconds * rounds as f64, true)?;
        workloads.set(workload.name(), fold(workload, &timed[i], &traced));
    }

    let mut doc = Value::obj();
    doc.set("benchmark", Value::str("pi_benchmark"));
    // Smoke numbers are one short repeat: never a baseline.
    doc.set("smoke", Value::Bool(args.smoke));
    doc.set("seed", Value::Num(args.seed as f64));
    doc.set("rounds", Value::Num(rounds as f64));
    doc.set("fingerprint", fingerprint.clone());
    doc.set("workloads", workloads);
    Ok(doc)
}

/// Prints every metric of a document by name, with its unit.
fn print_doc(doc: &Value) {
    for (workload, section) in doc.get("workloads").map_or(&[][..], Value::fields) {
        for group in ["end_to_end", "per_layer"] {
            for (name, m) in section.get(group).map_or(&[][..], Value::fields) {
                println!(
                    "{workload:<13} {name:<40} {:>16.6} {}",
                    num(m, "value"),
                    m.get("unit").and_then(Value::as_str).unwrap_or("")
                );
            }
        }
        for failure in section.get("failures").map_or(&[][..], Value::items) {
            println!(
                "{workload:<13} FAILED CHECK: {}",
                failure.as_str().unwrap_or("?")
            );
        }
    }
}

/// Runs `args.sets` sets; returns whether every check held and no pair
/// of sets disagreed beyond a bound.
pub fn run(args: &FullArgs) -> io::Result<bool> {
    std::fs::create_dir_all(&args.out)?;
    let fingerprint = host::fingerprint();
    let mut ok = true;
    let mut docs = Vec::new();
    for set in 1..=args.sets {
        eprintln!(
            "set {set}/{}{}",
            args.sets,
            if args.smoke {
                " (SMOKE: not a baseline)"
            } else {
                ""
            }
        );
        let doc = run_set(args, &fingerprint)?;
        let spans = merge_spans(args)?;
        let name = if args.smoke {
            "benchmark.smoke.json".to_string()
        } else {
            format!("benchmark.set{set}.json")
        };
        let path = args.out.join(name);
        std::fs::write(&path, doc.to_pretty())?;
        print_doc(&doc);
        println!("{}", doc.to_pretty());
        eprintln!("wrote {} and {}", path.display(), spans.display());
        ok &= doc
            .get("workloads")
            .map_or(&[][..], Value::fields)
            .iter()
            .all(|(_, section)| num(section, "failed") == 0.0);
        docs.push(doc);
    }
    for a in 0..docs.len() {
        for b in a + 1..docs.len() {
            println!("compare set {} (A) with set {} (B)", a + 1, b + 1);
            let (report, regressed) = compare_docs(&docs[a], &docs[b]);
            print!("{report}");
            ok &= !regressed;
        }
    }
    Ok(ok)
}
