//! `upcall` — the bounded slow path under a paced flood.
//!
//! Runs the single-node handler-saturation scenario
//! ([`pi_sim::upcall_saturation_scenario`]) in three configurations and
//! records what happens to a connection-churn victim whose every flow
//! needs a slow-path handler:
//!
//! * `inline` — the historical synchronous slow path (no queue to
//!   saturate; the baseline the bounded rows are judged against);
//! * `bounded` — the bounded pipeline with no fairness: the attacker's
//!   destination-spray flood monopolises the handler budget and the
//!   victim's upcalls tail-drop;
//! * `fair_share` — the same pipeline with the per-port flow-setup
//!   quota ([`pi_mitigation::upcall_fair_share_config`]'s knob): the
//!   victim's drop rate returns to ~0 while the flood keeps
//!   tail-dropping its own traffic.
//!
//! Per row: victim delivered pps, victim upcall-drop rate, mean install
//! latency in handler steps, and the pipeline's queue high-water mark.
//! The scenario metrics are fully deterministic, so one run per row
//! suffices (no wall-clock sampling involved).
//!
//! Output: `BENCH_upcall.json`. Drop rates are computed over
//! `generated`, which includes the few connections still parked in the
//! pipeline when the clock stops (see `SourceTotals` — totals don't
//! conserve at the run boundary).

use pi_core::SimTime;
use pi_sim::scenario::{CHURN_VICTIM_PPS, FLOOD_BANDWIDTH_BPS, UPCALL_VICTIM_START};
use pi_sim::{upcall_saturation_scenario, UpcallSaturationParams};

use crate::report::{Fields, Report};
use crate::{Claim, Output};

const SIM_SECS: u64 = 10;

struct Row {
    mode: &'static str,
    victim_offered: u64,
    victim_delivered: u64,
    victim_pps: f64,
    victim_upcall_drops: u64,
    victim_drop_rate: f64,
    attacker_upcall_drops: u64,
    mean_install_latency_steps: f64,
    max_queue_depth: usize,
    upcalls_handled: u64,
}

fn run_mode(mode: &'static str, inline_baseline: bool, port_quota_per_step: Option<u32>) -> Row {
    let params = UpcallSaturationParams {
        duration: SimTime::from_secs(SIM_SECS),
        inline_baseline,
        port_quota_per_step,
        ..Default::default()
    };
    let (sim, handles) = upcall_saturation_scenario(&params);
    let report = sim.run();
    let victim = &report.source_totals[handles.source("victim")];
    let up = report.upcall_stats[handles.attacker_hosts[0]];
    let effective_secs = (params.duration - UPCALL_VICTIM_START).as_secs_f64();
    Row {
        mode,
        victim_offered: victim.generated,
        victim_delivered: victim.delivered,
        victim_pps: victim.delivered as f64 / effective_secs,
        victim_upcall_drops: victim.dropped_upcall,
        victim_drop_rate: victim.dropped_upcall as f64 / victim.generated.max(1) as f64,
        attacker_upcall_drops: report.source_totals[handles.source("attack")].dropped_upcall,
        mean_install_latency_steps: up.mean_wait_steps(),
        max_queue_depth: up.max_depth,
        upcalls_handled: up.handled,
    }
}

/// Runs the three modes.
pub(crate) fn run() -> pi_core::Result<Output> {
    let mut table = String::new();
    say!(table, "{SIM_SECS} simulated seconds per mode");
    say!(
        table,
        "{:>11} {:>14} {:>12} {:>12} {:>16} {:>18} {:>15}",
        "mode",
        "victim_offered",
        "victim_pps",
        "drop_rate",
        "victim_drops",
        "latency_steps",
        "attacker_drops"
    );
    let rows = [
        run_mode("inline", true, None),
        run_mode("bounded", false, None),
        run_mode("fair_share", false, Some(8)),
    ];
    for r in &rows {
        say!(
            table,
            "{:>11} {:>14} {:>12.0} {:>12.4} {:>16} {:>18.2} {:>15}",
            r.mode,
            r.victim_offered,
            r.victim_pps,
            r.victim_drop_rate,
            r.victim_upcall_drops,
            r.mean_install_latency_steps,
            r.attacker_upcall_drops
        );
    }

    let mut report = Report::new("upcall_saturation", "upcall_saturation").params(
        Fields::new()
            .f("victim_pps_offered", CHURN_VICTIM_PPS, 0)
            .f("attack_bandwidth_bps", FLOOD_BANDWIDTH_BPS, 0),
    );
    for r in &rows {
        report.row(
            Fields::new()
                .s("mode", r.mode)
                .u("sim_secs", SIM_SECS)
                .u("victim_offered", r.victim_offered)
                .u("victim_delivered", r.victim_delivered)
                .f("victim_pps", r.victim_pps, 1)
                .u("victim_upcall_drops", r.victim_upcall_drops)
                .f("victim_drop_rate", r.victim_drop_rate, 4)
                .u("attacker_upcall_drops", r.attacker_upcall_drops)
                .f(
                    "mean_install_latency_steps",
                    r.mean_install_latency_steps,
                    3,
                )
                .zu("max_queue_depth", r.max_queue_depth)
                .u("upcalls_handled", r.upcalls_handled),
        );
    }

    let [inline, bounded, fair] = &rows;
    let claims = vec![
        Claim::new(
            "the inline slow path never drops the victim's upcalls (drop rate 0)",
            format_args!("{:.3}", inline.victim_drop_rate),
            inline.victim_upcall_drops == 0,
        ),
        Claim::new(
            "the flood starves the victim on the bounded slow path (drop rate > 0.9)",
            format_args!("{:.3}", bounded.victim_drop_rate),
            bounded.victim_drop_rate > 0.9,
        ),
        Claim::new(
            "the per-port fair-share quota restores the victim (drop rate 0)",
            format_args!("{:.3}", fair.victim_drop_rate),
            fair.victim_upcall_drops == 0,
        ),
    ];
    Ok(Output {
        files: vec![("BENCH_upcall.json", report.render())],
        table,
        claims,
    })
}
