//! `policy` — the control-plane flush storm, measured.
//!
//! Runs the single-node policy-churn scenario
//! ([`pi_sim::policy_churn_scenario`]) in three configurations:
//!
//! * `benign_churn` — routine control-plane activity only (an ACL
//!   install/remove on a background pod once a second): the baseline
//!   every other row is judged against;
//! * `policy_flap` — a co-located attacker re-installs its own ACL
//!   every 20 ms through the CMS API
//!   ([`pi_attack::AttackSchedule::policy_flap`]). **Zero attack
//!   packets**: the whole attack is the global cache flush each
//!   install triggers, which forces one slow-path rebuild per
//!   whitelisted victim client per flap;
//! * `policy_flap_scoped` — the same flap under destination-scoped
//!   invalidation ([`pi_datapath::DpConfig::scoped_invalidation`]):
//!   each install
//!   evicts only the updated pod's megaflows, so the victim's
//!   fast-path state survives and throughput recovers. Caveat: the EMC
//!   is still invalidated wholesale (its entries carry no destination
//!   index), so recovery is "megaflow hit + EMC re-promotion", not
//!   zero-cost.
//!
//! Per row: victim delivered pps and retained ratio vs the benign
//! baseline, policy updates, effective cache flushes, flushed
//! megaflows, and the control-plane cycles charged. Fully
//! deterministic — one run per row.
//!
//! Output: `BENCH_policy.json`.

use pi_core::SimTime;
use pi_datapath::DpConfig;
use pi_sim::scenario::{BENIGN_UPDATE_PERIOD, FLAP_PERIOD, POLICY_CHURN_CLIENTS};
use pi_sim::{policy_churn_scenario, PolicyChurnParams};

use crate::report::{Fields, Report};
use crate::{Claim, Output};

const SIM_SECS: u64 = 10;

struct Row {
    mode: &'static str,
    victim_offered: u64,
    victim_delivered: u64,
    victim_pps: f64,
    victim_dropped_capacity: u64,
    attack_packets: u64,
    policy_updates: u64,
    cache_flushes: u64,
    flushed_megaflows: u64,
    control_cycles: u64,
    upcalls: u64,
}

fn run_mode(mode: &'static str, flap: bool, scoped_invalidation: bool) -> Row {
    let params = PolicyChurnParams {
        duration: SimTime::from_secs(SIM_SECS),
        attack_start: SimTime::from_secs(2),
        flap,
        dp: DpConfig {
            scoped_invalidation,
            ..DpConfig::default()
        },
        ..Default::default()
    };
    let (sim, handles) = policy_churn_scenario(&params);
    let report = sim.run();
    let victim = &report.source_totals[handles.source("victim")];
    let stats = report.switch_stats[handles.attacker_hosts[0]];
    Row {
        mode,
        victim_offered: victim.generated,
        victim_delivered: victim.delivered,
        victim_pps: victim.delivered as f64 / params.duration.as_secs_f64(),
        victim_dropped_capacity: victim.dropped_capacity,
        // The attacker has no traffic source at all: the attack is
        // pure control plane. Recorded explicitly so the JSON carries
        // the claim.
        attack_packets: 0,
        policy_updates: stats.policy_updates,
        cache_flushes: stats.cache_flushes,
        flushed_megaflows: stats.flushed_megaflows,
        control_cycles: stats.control_cycles,
        upcalls: stats.upcalls,
    }
}

/// Runs the three modes.
pub(crate) fn run() -> pi_core::Result<Output> {
    let defaults = PolicyChurnParams::default();
    let mut table = String::new();
    say!(table, "{SIM_SECS} simulated seconds per mode");
    say!(
        table,
        "{:>18} {:>12} {:>12} {:>10} {:>9} {:>9} {:>12} {:>12}",
        "mode",
        "victim_pps",
        "retained",
        "updates",
        "flushes",
        "upcalls",
        "flushed_mf",
        "ctrl_cycles"
    );
    let rows = [
        run_mode("benign_churn", false, false),
        run_mode("policy_flap", true, false),
        run_mode("policy_flap_scoped", true, true),
    ];
    let [benign, flap, scoped] = &rows;
    let retained = |r: &Row| r.victim_pps / benign.victim_pps;
    for r in &rows {
        say!(
            table,
            "{:>18} {:>12.0} {:>12.3} {:>10} {:>9} {:>9} {:>12} {:>12}",
            r.mode,
            r.victim_pps,
            retained(r),
            r.policy_updates,
            r.cache_flushes,
            r.upcalls,
            r.flushed_megaflows,
            r.control_cycles
        );
    }

    let mut report = Report::new("policy_churn", "policy_churn").params(
        Fields::new()
            .u("clients", POLICY_CHURN_CLIENTS.into())
            .f("victim_pps_offered", defaults.victim_pps, 0)
            .u("flap_period_ms", FLAP_PERIOD.as_nanos() / 1_000_000)
            .u(
                "benign_update_period_ms",
                BENIGN_UPDATE_PERIOD.as_nanos() / 1_000_000,
            ),
    );
    for r in &rows {
        report.row(
            Fields::new()
                .s("mode", r.mode)
                .u("sim_secs", SIM_SECS)
                .u("victim_offered", r.victim_offered)
                .u("victim_delivered", r.victim_delivered)
                .f("victim_pps", r.victim_pps, 1)
                .f("retained_vs_benign", retained(r), 4)
                .u("victim_dropped_capacity", r.victim_dropped_capacity)
                .u("attack_packets", r.attack_packets)
                .u("policy_updates", r.policy_updates)
                .u("cache_flushes", r.cache_flushes)
                .u("flushed_megaflows", r.flushed_megaflows)
                .u("control_cycles", r.control_cycles)
                .u("upcalls", r.upcalls),
        );
    }

    let claims = vec![
        Claim::new(
            "the zero-packet policy flap collapses the victim (retained < 0.6 of benign)",
            format_args!("{:.4}", retained(flap)),
            retained(flap) < 0.6,
        ),
        Claim::new(
            "destination-scoped invalidation restores the victim (retained > 0.9)",
            format_args!("{:.4}", retained(scoped)),
            retained(scoped) > 0.9,
        ),
    ];
    Ok(Output {
        files: vec![("BENCH_policy.json", report.render())],
        table,
        claims,
    })
}
