//! The end-to-end metric table, and the verdict on two result documents.
//!
//! `--compare A.json B.json` (and `--sets K`, pairwise) prints, per
//! workload × end-to-end metric, both values, how much worse B is than
//! A and the bound, and exits 1 on any `regressed`. It is how "two sets
//! of the same commit agree" is demonstrated and how a later change
//! checks itself before the pipeline does.

use crate::json::Value;
use crate::metrics::{Better, MetricDef, END_TO_END};

/// Outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The runs were too noisy, or the core too contended, to tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case name for the report.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How trustworthy one side's timings are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunQuality {
    /// `run.wall_iqr_frac`: spread of the wall samples over their median.
    pub wall_iqr_frac: f64,
    /// `run.cpu_busy_frac`: CPU time over wall time of the measured phase.
    pub cpu_busy_frac: f64,
}

/// A core that was busy less than this share of the wall time was
/// shared with something else (or the run slept): timings are suspect.
pub const MIN_BUSY: f64 = 0.9;

/// How much worse `b` is than `a`, in the metric's unit (negative =
/// better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = worse_by(def, a, b);
    if a == 0.0 {
        // Only `fail_share` sits at 0: any rise is infinitely worse.
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.abs()
    }
}

/// The verdict on one metric of one workload.
pub fn verdict(def: &MetricDef, a: f64, b: f64, qa: RunQuality, qb: RunQuality) -> Verdict {
    if def.timed {
        let noisy = |q: RunQuality| q.wall_iqr_frac > def.bound || q.cpu_busy_frac < MIN_BUSY;
        if noisy(qa) || noisy(qb) {
            return Verdict::Unresolved;
        }
    }
    if worsening(def, a, b) > def.bound && worse_by(def, a, b) > def.abs_floor {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn metric(doc: &Value, workload: &str, group: &str, name: &str) -> Option<f64> {
    doc.path(&["workloads", workload, group, name, "value"])?
        .as_f64()
}

/// Compares result document `b` against `a`; returns the printed report
/// and whether anything regressed.
pub fn compare_docs(a: &Value, b: &Value) -> (String, bool) {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut regressed = false;
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");
    let _ = writeln!(
        out,
        "{:<13} {:<12} {:>13} {:>13} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse", "bound"
    );
    let workloads = a.get("workloads").map_or(&[][..], Value::fields);
    for (workload, _) in workloads {
        let quality = |doc: &Value| RunQuality {
            wall_iqr_frac: metric(doc, workload, "per_layer", "run.wall_iqr_frac")
                .unwrap_or(f64::INFINITY),
            cpu_busy_frac: metric(doc, workload, "per_layer", "run.cpu_busy_frac").unwrap_or(0.0),
        };
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metric(a, workload, "end_to_end", def.name),
                metric(b, workload, "end_to_end", def.name),
            ) else {
                let _ = writeln!(
                    out,
                    "{workload:<13} {:<12} missing on one side  regressed",
                    def.name
                );
                regressed = true;
                continue;
            };
            let v = verdict(def, va, vb, quality(a), quality(b));
            regressed |= v == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{workload:<13} {:<12} {va:>13.6} {vb:>13.6} {:>+8.2}% {:>6.0}%  {}",
                def.name,
                100.0 * worsening(def, va, vb),
                100.0 * def.bound,
                v.name()
            );
        }
        // A fixed seed makes every simulated statistic exact: the same
        // commit, or a change meant only to be faster, must reproduce
        // the digest (and with it every count) bit for bit.
        if same_seed {
            let digest = |doc: &Value| doc.path(&["workloads", workload, "digest"]).cloned();
            let same = digest(a).is_some() && digest(a) == digest(b);
            regressed |= !same;
            let _ = writeln!(
                out,
                "{workload:<13} {:<12} {}",
                "digest",
                if same {
                    "identical: every simulated count matches"
                } else {
                    "DIFFERS: simulated statistics changed  regressed"
                }
            );
        }
    }
    if workloads.is_empty() {
        out.push_str("no workloads in document A  regressed\n");
        regressed = true;
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUIET: RunQuality = RunQuality {
        wall_iqr_frac: 0.01,
        cpu_busy_frac: 0.99,
    };

    fn def(name: &str) -> &'static MetricDef {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    #[test]
    fn verdict_at_just_inside_and_just_outside_each_bound() {
        // wall_s, lower is better, 25 %.
        let wall = def("wall_s");
        assert_eq!(
            verdict(wall, 10.0, 12.5, QUIET, QUIET),
            Verdict::Ok,
            "at the bound"
        );
        assert_eq!(verdict(wall, 10.0, 12.499, QUIET, QUIET), Verdict::Ok);
        assert_eq!(
            verdict(wall, 10.0, 12.501, QUIET, QUIET),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(wall, 10.0, 5.0, QUIET, QUIET),
            Verdict::Ok,
            "faster"
        );
        // pkt_rate, higher is better, 25 %.
        let rate = def("pkt_rate");
        assert_eq!(
            verdict(rate, 10.0, 7.5, QUIET, QUIET),
            Verdict::Ok,
            "at the bound"
        );
        assert_eq!(verdict(rate, 10.0, 7.501, QUIET, QUIET), Verdict::Ok);
        assert_eq!(verdict(rate, 10.0, 7.499, QUIET, QUIET), Verdict::Regressed);
        assert_eq!(verdict(rate, 10.0, 20.0, QUIET, QUIET), Verdict::Ok);
        // peak_rss_mb, 10 %, not a timing: noise never makes it unresolved.
        let rss = def("peak_rss_mb");
        let noisy = RunQuality {
            wall_iqr_frac: 0.5,
            cpu_busy_frac: 0.2,
        };
        assert_eq!(
            verdict(rss, 80.0, 88.0, noisy, noisy),
            Verdict::Ok,
            "at the bound"
        );
        assert_eq!(verdict(rss, 80.0, 88.1, noisy, noisy), Verdict::Regressed);
        // setup_s: 25 % or 2 ms, whichever is larger.
        let setup = def("setup_s");
        assert_eq!(
            verdict(setup, 0.001, 0.0029, QUIET, QUIET),
            Verdict::Ok,
            "inside 2 ms"
        );
        assert_eq!(
            verdict(setup, 0.001, 0.0031, QUIET, QUIET),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(setup, 0.040, 0.0499, QUIET, QUIET),
            Verdict::Ok,
            "inside 25 %"
        );
        assert_eq!(
            verdict(setup, 0.040, 0.0501, QUIET, QUIET),
            Verdict::Regressed
        );
        // fail_share: any rise fails.
        let fail = def("fail_share");
        assert_eq!(verdict(fail, 0.0, 0.0, QUIET, QUIET), Verdict::Ok);
        assert_eq!(verdict(fail, 0.0, 0.001, QUIET, QUIET), Verdict::Regressed);
        assert_eq!(verdict(fail, 0.01, 0.01, QUIET, QUIET), Verdict::Ok);
    }

    #[test]
    fn noisy_or_starved_timings_are_unresolved_not_unchanged() {
        let wall = def("wall_s");
        let spread = RunQuality {
            wall_iqr_frac: 0.26,
            ..QUIET
        };
        let starved = RunQuality {
            cpu_busy_frac: 0.89,
            ..QUIET
        };
        assert_eq!(verdict(wall, 1.0, 1.0, spread, QUIET), Verdict::Unresolved);
        assert_eq!(verdict(wall, 1.0, 2.0, QUIET, spread), Verdict::Unresolved);
        assert_eq!(verdict(wall, 1.0, 1.0, QUIET, starved), Verdict::Unresolved);
        let at_limits = RunQuality {
            wall_iqr_frac: 0.25,
            cpu_busy_frac: 0.9,
        };
        assert_eq!(verdict(wall, 1.0, 1.0, at_limits, at_limits), Verdict::Ok);
    }

    fn doc(wall: f64, digest: &str) -> Value {
        let m = Value::metric;
        let mut e2e = Value::obj();
        e2e.set("setup_s", m(0.002, "s"));
        e2e.set("wall_s", m(wall, "s"));
        e2e.set("pkt_rate", m(5.0 / wall, "Mpkt/s"));
        e2e.set("peak_rss_mb", m(11.0, "MB"));
        e2e.set("fail_share", m(0.0, "ratio"));
        let mut layers = Value::obj();
        layers.set("run.wall_iqr_frac", m(0.01, "ratio"));
        layers.set("run.cpu_busy_frac", m(0.99, "ratio"));
        let mut w = Value::obj();
        w.set("end_to_end", e2e);
        w.set("per_layer", layers);
        w.set("digest", Value::str(digest));
        let mut ws = Value::obj();
        ws.set("colo_attack", w);
        let mut d = Value::obj();
        d.set("seed", Value::Num(2018.0));
        d.set("workloads", ws);
        d
    }

    #[test]
    fn documents_compare_metric_by_metric_and_by_digest() {
        let (report, regressed) = compare_docs(&doc(0.70, "ab"), &doc(0.72, "ab"));
        assert!(!regressed, "{report}");
        assert!(report.contains("identical"));
        let (report, regressed) = compare_docs(&doc(0.70, "ab"), &doc(0.90, "ab"));
        assert!(regressed, "{report}");
        assert!(report.contains("regressed"));
        let (_, regressed) = compare_docs(&doc(0.70, "ab"), &doc(0.70, "cd"));
        assert!(regressed, "a changed digest is a failure");
        let (_, regressed) = compare_docs(&Value::obj(), &doc(0.70, "ab"));
        assert!(regressed, "an empty document proves nothing");
    }
}
