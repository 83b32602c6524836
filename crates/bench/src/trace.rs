//! `trace` — the traced policy-flap attack, end to end.
//!
//! Runs the single-node policy-churn scenario with the flap attack and
//! the adaptive defense, with structured tracing enabled, and then
//! walks the merged trace to prove the **causal chain** the tracing
//! layer exists to expose:
//!
//! 1. each of the attacker's `PolicyUpdate` events carries a fresh
//!    causality id;
//! 2. the `CacheFlush` it triggers carries the *same* id;
//! 3. the rebuild storm that follows — `BatchWindow` upcall bursts and
//!    `MegaflowChurn` — is attributed to that id (the tracer latches
//!    the most recent flush's cause);
//! 4. the `PolicyChurn` detection that eventually fires carries a flap
//!    update's id: the defense can name the update that caused the
//!    collapse it is mitigating.
//!
//! Output: the Chrome trace-event export `trace_policy_flap.json`
//! (loadable in Perfetto / `chrome://tracing`; 4 MB, git-ignored) and
//! the Prometheus-style snapshot `trace_policy_flap.prom` (committed).
//! Each link of the chain is a claim: a tree where updates stop
//! flushing, rebuilds lose attribution, the detector goes silent or
//! the export stops parsing fails `results`.

use pi_core::SimTime;
use pi_detect::ControllerConfig;
use pi_sim::{policy_churn_scenario, PolicyChurnParams, TraceConfig, TraceEventKind};
use pi_trace::{chrome_trace_json, prometheus_snapshot, validate_json, CauseId};

use crate::{Claim, Output};

const SIM_SECS: u64 = 12;

/// Runs the traced flap and walks the merged trace.
pub(crate) fn run() -> pi_core::Result<Output> {
    let params = PolicyChurnParams {
        duration: SimTime::from_secs(SIM_SECS),
        attack_start: SimTime::from_secs(2),
        defense: Some(ControllerConfig::default()),
        ..Default::default()
    };
    let (mut sim, handles) = policy_churn_scenario(&params);
    sim.set_trace(TraceConfig::enabled());
    let report = sim.run();
    let trace = &report.trace;

    let mut table = String::new();
    say!(
        table,
        "{SIM_SECS} simulated seconds, {} events ({} dropped)",
        trace.events.len(),
        trace.dropped
    );

    // 1. The attacker's flap updates: ACL installs (op 0) that arrive
    //    after attack_start and flushed cached state. Each must carry a
    //    real causality id naming the updated host.
    let attack_ns = params.attack_start.as_nanos();
    let flapped_host = Some(handles.attacker_hosts[0] as u32);
    let mut flap_causes: Vec<CauseId> = Vec::new();
    let mut unattributed_updates = 0usize;
    let mut flushes_by_cause = 0usize;
    let mut attributed_windows = 0usize;
    let mut churn_detections: Vec<CauseId> = Vec::new();
    for ev in &trace.events {
        match ev.kind {
            TraceEventKind::PolicyUpdate {
                op: 0,
                flushed,
                applied: true,
                ..
            } if ev.at_ns >= attack_ns && flushed > 0 => {
                if !ev.cause.is_some() || ev.cause.host() != flapped_host {
                    unattributed_updates += 1;
                }
                flap_causes.push(ev.cause);
            }
            TraceEventKind::CacheFlush { .. } if flap_causes.contains(&ev.cause) => {
                flushes_by_cause += 1;
            }
            TraceEventKind::BatchWindow { upcalls, .. }
                if upcalls > 0 && flap_causes.contains(&ev.cause) =>
            {
                attributed_windows += 1;
            }
            TraceEventKind::MegaflowChurn { .. } if flap_causes.contains(&ev.cause) => {
                attributed_windows += 1;
            }
            // Signal code 5 = PolicyChurn (index into `Signal::ALL`).
            TraceEventKind::Detection { signal: 5, .. } => {
                churn_detections.push(ev.cause);
            }
            _ => {}
        }
    }
    say!(
        table,
        "causal chain: {} flap updates -> {} flushes -> {} attributed rebuild windows -> {} PolicyChurn detections",
        flap_causes.len(),
        flushes_by_cause,
        attributed_windows,
        churn_detections.len()
    );

    let chrome = chrome_trace_json(trace);
    say!(table, "chrome trace export: {} bytes", chrome.len());

    // 2–4. The chain, link by link.
    let claims = vec![
        Claim::new(
            "enabled tracing records the whole run (events > 0, none dropped)",
            format_args!("{} events, {} dropped", trace.events.len(), trace.dropped),
            !trace.is_empty() && trace.dropped == 0,
        ),
        Claim::new(
            "a train of ≥ 10 flap updates, each with a causality id naming the updated host",
            format_args!(
                "{} updates, {unattributed_updates} without",
                flap_causes.len()
            ),
            flap_causes.len() >= 10 && unattributed_updates == 0,
        ),
        Claim::new(
            "every flap update flushes the cache under its own cause id",
            format_args!("{flushes_by_cause} flushes"),
            flushes_by_cause >= flap_causes.len(),
        ),
        Claim::new(
            "the rebuild storm is attributed to flap causes",
            format_args!("{attributed_windows} windows"),
            attributed_windows > 0,
        ),
        Claim::new(
            "a PolicyChurn detection fires and carries a flap update's cause id",
            format_args!("{} detections", churn_detections.len()),
            churn_detections.iter().any(|c| flap_causes.contains(c)),
        ),
        Claim::new(
            "the Chrome trace-event export parses as JSON",
            format_args!("{} bytes", chrome.len()),
            validate_json(&chrome).is_ok(),
        ),
    ];
    Ok(Output {
        files: vec![
            ("trace_policy_flap.prom", prometheus_snapshot(trace)),
            ("trace_policy_flap.json", chrome),
        ],
        table,
        claims,
    })
}
