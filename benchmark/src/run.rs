//! One workload, one process: the unit the acceptance pipeline invokes
//! (`--workload W --seed N --seconds S --trace 0|1`) and the unit the
//! full run (`crate::full`) spawns as a child.
//!
//! With `--trace 0` the process repeats `build → run` with tracing off
//! for the measuring time and reports the end-to-end metrics. With
//! `--trace 1` it splits the time between untraced repeats, repeats
//! under `pi_trace`, and the unit-cost loops, and reports every
//! per-layer metric. End-to-end metrics never come from a traced run.
//! Every repeat is checked; checks are counted attempted / failed.

use std::path::PathBuf;
use std::time::Duration;

use crate::host;
use crate::json::Value;
use crate::layers::{self, UnitCosts};
use crate::ledger::Ledger;
use crate::metrics::{self, END_TO_END};
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{ratio, Counts, Workload};

/// What one process is asked to measure.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// `--trace 1`: report per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// One short repeat, no warm-up, 20 ms layer loops.
    pub smoke: bool,
    /// Where `spans.<workload>.json` goes.
    pub out: PathBuf,
}

/// Correctness checks, counted: `failed / attempted` is `fail_share`.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks evaluated.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `detail` is only rendered on failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("{name}: {}", detail()));
        }
    }
}

/// Extra scenario builds per repeat, so `setup_s` rests on more samples...
const EXTRA_SETUPS: usize = 4;
/// ...as long as they cost less than this per repeat.
const EXTRA_SETUP_BUDGET_S: f64 = 0.020;

/// Samples and exact results of one phase (all repeats untraced, or all
/// traced).
#[derive(Debug, Default)]
struct Phase {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    counts: Counts,
    digest: u64,
    trace_events: u64,
    trace_dropped: u64,
    trace_kinds: [u64; 4],
    cpu_busy_frac: f64,
}

const TRACE_KINDS: [&str; 4] = [
    "batch_window",
    "upcall_window",
    "cache_flush",
    "policy_update",
];

/// Repeats `build → run → fold → check` until `budget_s` of measuring
/// time is spent (always at least once). A warm-up repeat is checked but
/// not sampled.
fn repeat(
    args: &RunArgs,
    traced: bool,
    warmup: bool,
    budget_s: f64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Phase {
    let workload = args.workload;
    let sim_secs = workload.sim_secs(args.smoke);
    let mut phase = Phase::default();
    // No source may have more packets still in flight at the end than
    // an ingress queue holds.
    let queue_capacity = pi_sim::SimConfig::default().queue_capacity as u64;
    let mut reference: Option<u64> = None;
    let mut warming = warmup;
    let (mut cpu_sum, mut busy_wall_sum) = (0.0, 0.0);
    let mut measure_from = spans.elapsed_s();
    loop {
        let (cpu0, t0) = (host::cpu_seconds(), spans.elapsed_s());
        let (mut scenario, setup_s) =
            spans.time("setup", |_| workload.build(args.seed, sim_secs, 1));
        if traced {
            scenario.enable_trace();
        }
        let (report, wall_s) = spans.time("run", |_| scenario.run());
        let view = report.view();
        let ((counts, digest), _) = spans.time("report", |_| {
            (view.counts(workload, sim_secs), view.digest())
        });
        if traced {
            let (json, _) = spans.time("trace.export", |_| pi_trace::chrome_trace_json(view.trace));
            checks.check(
                "trace export",
                pi_trace::validate_json(&json).is_ok(),
                || "chrome_trace_json is not valid JSON".to_string(),
            );
            phase.trace_events = view.trace.events.len() as u64;
            phase.trace_dropped = view.trace.dropped;
            phase.trace_kinds = TRACE_KINDS.map(|k| view.trace_events_named(k));
        }

        let first = *reference.get_or_insert(digest);
        checks.check("digest repeats", digest == first, || {
            format!("{digest:016x} != first repeat's {first:016x}")
        });
        for (label, in_flight) in view.in_flight() {
            checks.check(
                "conservation",
                in_flight.is_some_and(|n| n <= queue_capacity),
                || format!("{label}: generated - settled = {in_flight:?} (limit {queue_capacity})"),
            );
        }
        pins(workload, &counts, checks);
        drop(report);
        // More set-up samples, one scenario alive at a time so that the
        // memory high-water mark stays that of a single run.
        let mut setups = vec![setup_s];
        let mut extra_s = 0.0;
        while setups.len() <= EXTRA_SETUPS && extra_s < EXTRA_SETUP_BUDGET_S {
            let (built, s) = spans.time("setup", |_| workload.build(args.seed, sim_secs, 1));
            drop(built);
            extra_s += s;
            setups.push(s);
        }
        phase.counts = counts;
        phase.digest = digest;

        let now = spans.elapsed_s();
        if warming {
            warming = false;
            measure_from = now;
            continue;
        }
        phase.setup_s.extend(setups);
        phase.wall_s.push(wall_s);
        if let (Some(c0), Some(c1)) = (cpu0, host::cpu_seconds()) {
            // /proc ticks are 10 ms: summed over the phase's repeats
            // (build + run + fold + drop, all busy work) they resolve.
            cpu_sum += c1 - c0;
            busy_wall_sum += now - t0;
            phase.cpu_busy_frac = ratio(cpu_sum, busy_wall_sum);
        }
        if now - measure_from >= budget_s {
            return phase;
        }
    }
}

/// The paper's numbers, and what each workload exists to show.
fn pins(workload: Workload, c: &Counts, checks: &mut Checks) {
    match workload {
        Workload::ColoBenign => checks.check(
            "pin: benign walks no subtables",
            c.probes_per_pkt() < 0.01,
            || format!("probes/pkt = {}", c.probes_per_pkt()),
        ),
        Workload::ColoAttack | Workload::ColoWalk => {
            let pinned = workload.pinned_masks() as f64;
            checks.check("pin: injected masks", c.masks_peak >= pinned, || {
                format!("masks_peak = {} < {pinned}", c.masks_peak)
            });
        }
        Workload::FlapRebuild => {
            let attack_pkts = c.generated_by[crate::workloads::SourceKind::Attack as usize];
            checks.check("pin: the flap sends no packets", attack_pkts == 0, || {
                format!("{attack_pkts} attack packets")
            });
            checks.check(
                "pin: the flap degrades the victim",
                c.victim_retained() < 0.5,
                || format!("victim_retained = {}", c.victim_retained()),
            );
        }
        Workload::SparseIdle => checks.check(
            "pin: idle ticks are skipped",
            c.skipped_share() > 0.9,
            || format!("skipped share = {}", c.skipped_share()),
        ),
    }
}

/// The paper's full-blown attack on the datapath alone: every covert
/// populate packet through a bare no-EMC switch leaves the predicted
/// 8192 masks. (Inside `colo_walk`'s 4 simulated seconds the populate is
/// still in progress — see [`Workload::pinned_masks`].)
fn reach_check(args: &RunArgs, checks: &mut Checks) {
    if args.workload != Workload::ColoWalk {
        return;
    }
    let predicted = Workload::ColoWalk.predicted_masks();
    let reached = layers::masks_reached();
    checks.check("pin: 8192 masks reachable", reached >= predicted, || {
        format!("a full populate pass left {reached} masks, predicted {predicted}")
    });
}

/// Worker-count determinism at the benchmark's surface: the canonical
/// cell gives one digest with 1 and with 2 workers.
fn worker_check(args: &RunArgs, checks: &mut Checks) {
    if args.workload != Workload::ColoAttack {
        return;
    }
    let digest = |workers| {
        Workload::ColoAttack
            .build(args.seed, 1, workers)
            .run()
            .view()
            .digest()
    };
    let (one, two) = (digest(1), digest(2));
    checks.check("digest workers 1 = 2", one == two, || {
        format!("{one:016x} != {two:016x}")
    });
}

/// The result of one process.
#[derive(Debug)]
pub struct Outcome {
    /// `(name, unit, value)` of every metric this mode reports.
    pub metrics: Vec<(String, &'static str, f64)>,
    /// Checks attempted / failed.
    pub checks: Checks,
    /// Everything else the parent of a full run aggregates.
    pub detail: Value,
}

impl Outcome {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = Value::obj();
        for (name, unit, value) in &self.metrics {
            assert!(crate::json::valid_name(name), "metric name {name:?}");
            metrics.set(name, Value::metric(*value, unit));
        }
        let mut line = Value::obj();
        line.set("correct", Value::Bool(self.checks.failed == 0));
        line.set("attempted", Value::Num(self.checks.attempted as f64));
        line.set("failed", Value::Num(self.checks.failed as f64));
        line.set("metrics", metrics);
        line.to_line()
    }
}

fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|v| Value::Num(*v)).collect())
}

/// Runs one workload in this process and returns what it measured.
pub fn run(args: &RunArgs) -> std::io::Result<Outcome> {
    let workload = args.workload;
    let mut spans = Spans::new(workload.name());
    let mut checks = Checks::default();
    let calib_before = host::calib_ns();
    let warmup = !args.smoke;
    // Smoke: a zero budget is exactly one repeat per phase.
    let seconds = if args.smoke { 0.0 } else { args.seconds };

    let mut detail = Value::obj();
    detail.set("workload", Value::str(workload.name()));
    let mut out: Vec<(String, &'static str, f64)> = Vec::new();

    if !args.traced {
        let phase = repeat(args, false, warmup, seconds, &mut spans, &mut checks);
        worker_check(args, &mut checks);
        let wall = stats::min(&phase.wall_s);
        let values = [
            stats::min(&phase.setup_s),
            wall,
            ratio(phase.counts.packets as f64 / 1e6, wall),
            host::peak_rss_mb().unwrap_or(0.0),
        ];
        for (def, value) in END_TO_END.iter().zip(values) {
            out.push((def.name.to_string(), def.unit, value));
        }
        detail.set("setup_s", nums(&phase.setup_s));
        detail.set("wall_s", nums(&phase.wall_s));
        detail.set("packets", Value::Num(phase.counts.packets as f64));
        detail.set(
            "ticks_stepped",
            Value::Num(phase.counts.ticks_stepped as f64),
        );
        detail.set("cpu_busy_frac", Value::Num(phase.cpu_busy_frac));
        detail.set("digest", Value::Str(format!("{:016x}", phase.digest)));
    } else {
        let plain = repeat(args, false, warmup, 0.3 * seconds, &mut spans, &mut checks);
        let traced = repeat(args, true, false, 0.3 * seconds, &mut spans, &mut checks);
        checks.check(
            "traced digest = untraced",
            traced.digest == plain.digest,
            || format!("{:016x} != {:016x}", traced.digest, plain.digest),
        );
        let layer_budget = if args.smoke {
            Duration::from_millis(20) * layers::LOOPS
        } else {
            Duration::from_secs_f64(0.4 * seconds)
        };
        reach_check(args, &mut checks);
        let costs = layers::measure(&mut spans, layer_budget);
        let wall = stats::min(&plain.wall_s);
        let ledger = Ledger::attribute(workload, &plain.counts, &costs, wall);
        // Over-attribution means a unit cost or a count is wrong.
        let attributed = ledger.attributed_share();
        checks.check("ledger sanity", (0.0..=1.1).contains(&attributed), || {
            format!("attributed share of wall_s = {attributed}")
        });
        let calib_after = host::calib_ns();
        per_layer(
            &mut out,
            &costs,
            &plain,
            &traced,
            &ledger,
            (calib_before, calib_after),
        );
        detail.set("digest", Value::Str(format!("{:016x}", plain.digest)));
        detail.set(
            "traced_digest",
            Value::Str(format!("{:016x}", traced.digest)),
        );

        std::fs::create_dir_all(&args.out)?;
        let path = args.out.join(format!("spans.{}.json", workload.name()));
        std::fs::write(&path, spans.to_chrome_json().to_pretty())?;
        detail.set("spans", Value::str(&path.display().to_string()));
    }
    detail.set(
        "failures",
        Value::Arr(checks.failures.iter().map(|f| Value::str(f)).collect()),
    );
    Ok(Outcome {
        metrics: out,
        checks,
        detail,
    })
}

/// Assembles every per-layer metric, in table order, and asserts the
/// table and the run agree on the names.
fn per_layer(
    out: &mut Vec<(String, &'static str, f64)>,
    costs: &UnitCosts,
    plain: &Phase,
    traced: &Phase,
    ledger: &Ledger,
    (calib_before, calib_after): (f64, f64),
) {
    let mut found: Vec<(String, f64)> = Vec::new();
    for cost in &costs.0 {
        found.push((cost.name.to_string(), cost.ns));
        if let Some(p99) = cost.p99 {
            found.push((format!("{}.p99", cost.name), p99));
        }
    }
    found.extend(
        plain
            .counts
            .metrics()
            .into_iter()
            .map(|(n, v)| (n.to_string(), v)),
    );
    found.extend(ledger.metrics());
    let wall = stats::min(&plain.wall_s);
    let wall_traced = stats::min(&traced.wall_s);
    let named = |n: &str, v: f64| (n.to_string(), v);
    found.extend([
        named("run.repeats", plain.wall_s.len() as f64),
        named("run.wall_iqr_frac", stats::iqr_frac(&plain.wall_s)),
        named("run.wall_max_s", stats::max(&plain.wall_s)),
        named("run.cpu_busy_frac", plain.cpu_busy_frac),
        named(
            "run.ns_per_pkt",
            ratio(wall * 1e9, plain.counts.packets as f64),
        ),
        named(
            "run.ns_per_stepped_tick",
            ratio(wall * 1e9, plain.counts.ticks_stepped as f64),
        ),
        named("host.calib_ns", (calib_before + calib_after) / 2.0),
        named(
            "host.calib_drift_frac",
            ratio(calib_after - calib_before, calib_before),
        ),
        named("trace.overhead_frac", ratio(wall_traced, wall) - 1.0),
        named("trace.events", traced.trace_events as f64),
        named("trace.dropped", traced.trace_dropped as f64),
    ]);
    for (kind, n) in TRACE_KINDS.iter().zip(traced.trace_kinds) {
        found.push((format!("trace.ev.{kind}"), n as f64));
    }
    assert_eq!(
        found.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        metrics::PER_LAYER
            .iter()
            .map(|(n, ..)| *n)
            .collect::<Vec<_>>(),
        "the run and metrics::PER_LAYER disagree"
    );
    for ((name, value), (_, unit, _)) in found.into_iter().zip(metrics::PER_LAYER) {
        out.push((name, unit, value));
    }
}
