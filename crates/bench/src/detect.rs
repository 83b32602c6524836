//! `detect` — the closed-loop defense, quantified.
//!
//! Runs the `adaptive_defense` scenario (benign churn from t = 0, an
//! ACL-injection `upcall_flood` onset at `attack_start`, victim
//! connection churn from the onset) under five defenses:
//!
//! * `none` — the starvation baseline;
//! * `static_fair_share` — the per-port quota configured before the
//!   run (the always-on mitigation the ablation bench studies);
//! * `adaptive` — the [`pi_detect::DefenseController`] with default
//!   detector tuning;
//! * `adaptive_tight` / `adaptive_loose` — the same loop re-tuned
//!   along the ROC trade-off. A step attack this loud saturates any
//!   threshold magnitude, so the *reaction* axis is what actually
//!   moves: tight halves the detector floors **and** escalates on the
//!   first alarming sample (`confirm_samples = 1` — fastest
//!   mitigation, most exposed to single-sample benign blips); loose
//!   doubles the floors and demands four consecutive alarms (slowest
//!   mitigation, most robust to blips).
//!
//! Per row: time-to-detect and time-to-mitigate (ms after onset),
//! benign-phase detections/activations (the false-positive axis),
//! victim recovery (mean delivered pps over the final window vs the
//! offered rate), and the report-exposed top offender. The scenario is
//! fully deterministic — one run per row.
//!
//! Output: `BENCH_detect.json`.

use pi_core::SimTime;
use pi_detect::{ControllerConfig, DetectorConfig, SignalConfig};
use pi_sim::scenario::{BENIGN_CHURN_PPS, CHURN_VICTIM_PPS, FLOOD_BANDWIDTH_BPS};
use pi_sim::{adaptive_defense_scenario, AdaptiveDefenseParams, DefenseMode};

use crate::report::{Fields, Report};
use crate::{Claim, Output};

const SIM_SECS: u64 = 12;
const ATTACK_SECS: u64 = 4;
/// Recovery is judged over the final window of the run.
const WINDOW_SECS: u64 = 3;

struct Row {
    mode: &'static str,
    time_to_detect_ms: Option<f64>,
    time_to_mitigate_ms: Option<f64>,
    benign_detections: u64,
    benign_activations: u64,
    activations: u64,
    victim_offered: u64,
    victim_delivered: u64,
    victim_upcall_drops: u64,
    recovery_pps: f64,
    recovery_ratio: f64,
    top_offender_masks: usize,
}

fn scaled(cfg: SignalConfig, f: f64) -> SignalConfig {
    SignalConfig {
        abs_min: cfg.abs_min * f,
        dev_floor: cfg.dev_floor * f,
        ..cfg
    }
}

fn detector_scaled(f: f64) -> DetectorConfig {
    let d = DetectorConfig::default();
    DetectorConfig {
        probe_depth: scaled(d.probe_depth, f),
        mask_growth: scaled(d.mask_growth, f),
        upcall_backlog: scaled(d.upcall_backlog, f),
        upcall_drops: scaled(d.upcall_drops, f),
        emc_thrash: scaled(d.emc_thrash, f),
        ..d
    }
}

fn run_mode(mode: &'static str, defense: DefenseMode) -> Row {
    let params = AdaptiveDefenseParams {
        duration: SimTime::from_secs(SIM_SECS),
        attack_start: SimTime::from_secs(ATTACK_SECS),
        defense,
    };
    let (sim, handles) = adaptive_defense_scenario(&params);
    let report = sim.run();
    let (victim_source, node) = (handles.source("victim"), handles.attacker_hosts[0]);
    let victim = &report.source_totals[victim_source];
    let attack_start = params.attack_start;
    let ms_after_onset = |t: SimTime| (t.as_nanos() as f64 - attack_start.as_nanos() as f64) / 1e6;
    let (detect, mitigate, benign_detections, benign_activations, activations) =
        match &report.defense[node] {
            Some(d) => (
                d.first_detection().map(ms_after_onset),
                d.first_mitigation().map(ms_after_onset),
                d.detections.iter().filter(|e| e.at < attack_start).count() as u64,
                d.timeline
                    .iter()
                    .filter(|t| t.at < attack_start && t.to == pi_detect::DefenseState::Mitigating)
                    .count() as u64,
                d.activations,
            ),
            None => (None, None, 0, 0, 0),
        };
    // Recovery: mean victim delivered pps over the final window,
    // against the offered churn rate.
    let end = params.duration;
    let from = end - SimTime::from_secs(WINDOW_SECS);
    let recovery_bps =
        report.throughput_bps[victim_source].mean_between(from, end + SimTime::from_nanos(1));
    let recovery_pps = recovery_bps / (64.0 * 8.0);
    let top_offender_masks = report.attribution[node]
        .first()
        .map(|a| a.masks)
        .unwrap_or(0);
    Row {
        mode,
        time_to_detect_ms: detect,
        time_to_mitigate_ms: mitigate,
        benign_detections,
        benign_activations,
        activations,
        victim_offered: victim.generated,
        victim_delivered: victim.delivered,
        victim_upcall_drops: victim.dropped_upcall,
        recovery_pps,
        recovery_ratio: recovery_pps / CHURN_VICTIM_PPS,
        top_offender_masks,
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map(|v| format!("{v:.0}"))
        .unwrap_or_else(|| "null".into())
}

/// Runs the five defenses.
pub(crate) fn run() -> pi_core::Result<Output> {
    let mut table = String::new();
    say!(
        table,
        "{SIM_SECS} simulated seconds per mode, onset at {ATTACK_SECS} s, \
         recovery window {WINDOW_SECS} s"
    );
    say!(
        table,
        "{:>18} {:>10} {:>12} {:>11} {:>10} {:>13} {:>15}",
        "mode",
        "detect_ms",
        "mitigate_ms",
        "benign_fp",
        "recovery",
        "recovery_pps",
        "victim_drops"
    );
    let rows = [
        run_mode("none", DefenseMode::Undefended),
        run_mode("static_fair_share", DefenseMode::StaticFairShare(8)),
        run_mode(
            "adaptive",
            DefenseMode::adaptive(ControllerConfig::default()),
        ),
        run_mode(
            "adaptive_tight",
            DefenseMode::adaptive(ControllerConfig {
                detector: detector_scaled(0.5),
                confirm_samples: 1,
                ..ControllerConfig::default()
            }),
        ),
        run_mode(
            "adaptive_loose",
            DefenseMode::adaptive(ControllerConfig {
                detector: detector_scaled(2.0),
                confirm_samples: 4,
                ..ControllerConfig::default()
            }),
        ),
    ];
    for r in &rows {
        say!(
            table,
            "{:>18} {:>10} {:>12} {:>11} {:>10.3} {:>13.0} {:>15}",
            r.mode,
            fmt_opt(r.time_to_detect_ms),
            fmt_opt(r.time_to_mitigate_ms),
            r.benign_activations,
            r.recovery_ratio,
            r.recovery_pps,
            r.victim_upcall_drops
        );
    }

    let mut report = Report::new("detection_roc", "adaptive_defense").params(
        Fields::new()
            .u("sim_secs", SIM_SECS)
            .u("attack_start_secs", ATTACK_SECS)
            .u("recovery_window_secs", WINDOW_SECS)
            .f("victim_pps_offered", CHURN_VICTIM_PPS, 0)
            .f("benign_pps", BENIGN_CHURN_PPS, 0)
            .f("attack_bandwidth_bps", FLOOD_BANDWIDTH_BPS, 0),
    );
    for r in &rows {
        report.row(
            Fields::new()
                .s("mode", r.mode)
                .opt_f("time_to_detect_ms", r.time_to_detect_ms, 0)
                .opt_f("time_to_mitigate_ms", r.time_to_mitigate_ms, 0)
                .u("benign_detections", r.benign_detections)
                .u("benign_activations", r.benign_activations)
                .u("activations", r.activations)
                .u("victim_offered", r.victim_offered)
                .u("victim_delivered", r.victim_delivered)
                .u("victim_upcall_drops", r.victim_upcall_drops)
                .f("recovery_pps", r.recovery_pps, 1)
                .f("recovery_ratio", r.recovery_ratio, 4)
                .zu("top_offender_masks", r.top_offender_masks),
        );
    }

    let [none, fair, adaptive, ..] = &rows;
    let claims = vec![
        Claim::new(
            "undefended, the victim never recovers (recovery ratio 0)",
            format_args!("{:.2}", none.recovery_ratio),
            none.recovery_ratio == 0.0,
        ),
        Claim::new(
            "the static fair-share quota recovers the victim fully (ratio ≥ 1)",
            format_args!("{:.2}", fair.recovery_ratio),
            fair.recovery_ratio >= 1.0,
        ),
        Claim::new(
            "the adaptive controller detects within one control interval (100 ms)",
            format_args!("{} ms", fmt_opt(adaptive.time_to_detect_ms)),
            adaptive.time_to_detect_ms == Some(100.0),
        ),
        Claim::new(
            "the adaptive controller recovers the victim fully (ratio ≥ 1) with no benign activation",
            format_args!(
                "{:.2}, {} activations",
                adaptive.recovery_ratio, adaptive.benign_activations
            ),
            adaptive.recovery_ratio >= 1.0 && adaptive.benign_activations == 0,
        ),
    ];
    Ok(Output {
        files: vec![("BENCH_detect.json", report.render())],
        table,
        claims,
    })
}
