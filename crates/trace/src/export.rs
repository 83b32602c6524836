//! The two exporters: Chrome trace-event JSON (Perfetto /
//! `chrome://tracing`) and a Prometheus-style text snapshot built on
//! [`pi_metrics::Summary`]. Both render integers wherever possible and
//! fixed-precision floats elsewhere, so identical traces render
//! byte-identical files.

use std::fmt::Write as _;

use pi_metrics::Summary;

use crate::event::{TraceEvent, TraceEventKind};
use crate::report::TraceReport;

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.6}");
    } else {
        out.push_str("null");
    }
}

/// Renders one event's `args` object (the typed payload plus the
/// causality id, flattened for the Perfetto UI).
fn push_args(out: &mut String, ev: &TraceEvent) {
    let _ = write!(out, "{{\"cause\": {}", ev.cause.0);
    match ev.kind {
        TraceEventKind::PolicyUpdate {
            op,
            cycles,
            flushed,
            scoped,
            applied,
        } => {
            let _ = write!(
                out,
                ", \"op\": {op}, \"cycles\": {cycles}, \"flushed\": {flushed}, \"scoped\": {scoped}, \"applied\": {applied}"
            );
        }
        TraceEventKind::CacheFlush { flushed, scoped } => {
            let _ = write!(out, ", \"flushed\": {flushed}, \"scoped\": {scoped}");
        }
        TraceEventKind::BatchWindow {
            packets,
            microflow_hits,
            megaflow_hits,
            upcalls,
            policy_drops,
            cycles,
        } => {
            let _ = write!(
                out,
                ", \"packets\": {packets}, \"microflow_hits\": {microflow_hits}, \"megaflow_hits\": {megaflow_hits}, \"upcalls\": {upcalls}, \"policy_drops\": {policy_drops}, \"cycles\": {cycles}"
            );
        }
        TraceEventKind::UpcallWindow {
            enqueued,
            queue_drops,
            handled,
            installs,
        } => {
            let _ = write!(
                out,
                ", \"enqueued\": {enqueued}, \"queue_drops\": {queue_drops}, \"handled\": {handled}, \"installs\": {installs}"
            );
        }
        TraceEventKind::MegaflowChurn { megaflows, masks } => {
            let _ = write!(out, ", \"megaflows\": {megaflows}, \"masks\": {masks}");
        }
        TraceEventKind::ControlChannel {
            delivered,
            dropped,
            retries,
            lost_to_downtime,
            applied,
        } => {
            let _ = write!(
                out,
                ", \"delivered\": {delivered}, \"dropped\": {dropped}, \"retries\": {retries}, \"lost_to_downtime\": {lost_to_downtime}, \"applied\": {applied}"
            );
        }
        TraceEventKind::Reconcile { pushes } => {
            let _ = write!(out, ", \"pushes\": {pushes}");
        }
        TraceEventKind::DefenseTransition { from, to, actions } => {
            let _ = write!(
                out,
                ", \"from\": {from}, \"to\": {to}, \"actions\": {actions}"
            );
        }
        TraceEventKind::Detection {
            signal,
            value,
            threshold,
        } => {
            let _ = write!(out, ", \"signal\": {signal}, \"value\": ");
            push_f64(out, value);
            out.push_str(", \"threshold\": ");
            push_f64(out, threshold);
        }
        TraceEventKind::Crash {
            acls_lost,
            flows_lost,
            upcalls_lost,
        } => {
            let _ = write!(
                out,
                ", \"acls_lost\": {acls_lost}, \"flows_lost\": {flows_lost}, \"upcalls_lost\": {upcalls_lost}"
            );
        }
    }
    out.push('}');
}

/// Renders the Chrome trace-event format: one instant event (`"ph":
/// "i"`, thread scope) per trace event, `ts` in integer microseconds
/// (lossless — events land on millisecond tick boundaries), `pid` =
/// host. Load the file in Perfetto or `chrome://tracing` to see each
/// policy update's cascade as a per-host timeline.
pub fn chrome_trace_json(report: &TraceReport) -> String {
    let mut out = String::with_capacity(128 * report.events.len() + 256);
    out.push_str("{\n\"traceEvents\": [\n");
    for (i, ev) in report.events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \"pid\": {}, \"tid\": 0, \"args\": ",
            ev.kind.name(),
            ev.at_ns / 1_000,
            ev.host
        );
        push_args(&mut out, ev);
        out.push('}');
    }
    let _ = write!(
        out,
        "\n],\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {{\"dropped_events\": {}, \"ring_capacity\": {}}}\n}}\n",
        report.dropped, report.capacity
    );
    out
}

fn prom_summary(out: &mut String, name: &str, values: &[f64]) {
    if values.is_empty() {
        return;
    }
    let s = Summary::of(values);
    let _ = writeln!(out, "# TYPE {name} summary");
    for (stat, v) in [
        ("mean", s.mean),
        ("min", s.min),
        ("p50", s.p50),
        ("p99", s.p99),
        ("max", s.max),
    ] {
        let _ = write!(out, "{name}{{stat=\"{stat}\"}} ");
        push_f64(out, v);
        out.push('\n');
    }
    let _ = writeln!(out, "{name}_count {}", s.count);
}

/// Renders a Prometheus-style text snapshot of the trace: per-kind
/// event counts, causal-attribution coverage, and summaries of the
/// window aggregates — the scrape a production vSwitch operator would
/// alert on.
pub fn prometheus_snapshot(report: &TraceReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE pi_trace_events_total counter");
    let kinds = [
        "policy_update",
        "cache_flush",
        "batch_window",
        "upcall_window",
        "megaflow_churn",
        "control_channel",
        "reconcile",
        "defense_transition",
        "detection",
        "crash",
    ];
    for kind in kinds {
        let n = report
            .events
            .iter()
            .filter(|e| e.kind.name() == kind)
            .count();
        let _ = writeln!(out, "pi_trace_events_total{{kind=\"{kind}\"}} {n}");
    }
    let attributed = report.events.iter().filter(|e| e.cause.is_some()).count();
    let _ = writeln!(out, "# TYPE pi_trace_events_attributed counter");
    let _ = writeln!(out, "pi_trace_events_attributed {attributed}");
    let _ = writeln!(out, "# TYPE pi_trace_events_dropped counter");
    let _ = writeln!(out, "pi_trace_events_dropped {}", report.dropped);

    let mut packets = Vec::new();
    let mut upcalls = Vec::new();
    let mut flushed = Vec::new();
    for ev in &report.events {
        match ev.kind {
            TraceEventKind::BatchWindow {
                packets: p,
                upcalls: u,
                ..
            } => {
                packets.push(p as f64);
                upcalls.push(u as f64);
            }
            TraceEventKind::CacheFlush { flushed: f, .. } => flushed.push(f as f64),
            _ => {}
        }
    }
    prom_summary(&mut out, "pi_trace_batch_packets", &packets);
    prom_summary(&mut out, "pi_trace_batch_upcalls", &upcalls);
    prom_summary(&mut out, "pi_trace_flushed_megaflows", &flushed);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::Tracer;
    use crate::event::TraceConfig;
    use crate::json::validate_json;

    fn sample_report() -> TraceReport {
        let cfg = TraceConfig::enabled();
        let t = Tracer::for_host(cfg, 0);
        t.set_now(1_000_000);
        t.begin_update();
        t.emit_policy_update(0, 9, 4, false, true);
        t.end_update();
        t.emit(
            2_000_000,
            TraceEventKind::BatchWindow {
                packets: 32,
                microflow_hits: 20,
                megaflow_hits: 8,
                upcalls: 4,
                policy_drops: 0,
                cycles: 4_000,
            },
        );
        t.emit(
            2_000_000,
            TraceEventKind::Detection {
                signal: 5,
                value: 12.0,
                threshold: 4.0,
            },
        );
        TraceReport::collect(cfg, &[t])
    }

    #[test]
    fn chrome_export_is_valid_json_with_microsecond_stamps() {
        let json = chrome_trace_json(&sample_report());
        validate_json(&json).expect("chrome export must parse");
        assert!(json.contains("\"ts\": 1000"));
        assert!(json.contains("\"ts\": 2000"));
        assert!(json.contains("\"name\": \"cache_flush\""));
        assert!(json.contains("\"dropped_events\": 0"));
    }

    #[test]
    fn prometheus_snapshot_counts_kinds_and_attribution() {
        let text = prometheus_snapshot(&sample_report());
        assert!(text.contains("pi_trace_events_total{kind=\"policy_update\"} 1"));
        assert!(text.contains("pi_trace_events_total{kind=\"detection\"} 1"));
        assert!(text.contains("pi_trace_events_attributed 4"));
        assert!(text.contains("pi_trace_batch_packets_count 1"));
    }
}
