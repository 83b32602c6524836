//! `fault` — crash recovery under attack, measured.
//!
//! Runs the crash-recovery scenario ([`pi_sim::crash_recovery_scenario`])
//! across the {fault} × {attack} × {retry+reconcile on/off} matrix:
//!
//! * `baseline` — no crash, no attack: the capacity denominator and the
//!   zero-wrong-verdict reference;
//! * `policy_flap` × {`fire_and_forget`, `reliable`} — the switch
//!   crashes mid-run while a co-located attacker flaps its own ACL
//!   every 20 ms through the same CMS path the recovery needs. The
//!   **headline pair**: with fire-and-forget control the victim's deny
//!   rule vanishes in the crash and never comes back (every delivered
//!   prober packet is a wrong verdict — a standing security hole);
//!   at-least-once delivery + reconciliation closes the hole within a
//!   bounded window even with the flap competing for the control plane;
//! * `upcall_flood` × {`fire_and_forget`, `reliable`} — the same crash
//!   with the covert mask flood saturating the bounded slow path from
//!   the restart instant.
//!
//! Every crash row sends control traffic through a lossy, duplicating,
//! jittered CMS→switch channel, so the reliable rows also pay (and
//! report) retries. Fully deterministic — one run per cell.
//!
//! Output: `BENCH_fault.json`.

use pi_core::SimTime;
use pi_fault::{ChannelFaultConfig, NodeFaultReport, ReliabilityConfig};
use pi_sim::scenario::{
    CRASH_DOWN_FOR, CRASH_RECOVERY_CLIENTS, CRASH_VICTIM_PPS, FLAP_PERIOD, PROBER_PPS,
};
use pi_sim::{crash_recovery_scenario, CrashRecoveryAttack, CrashRecoveryParams};

use crate::report::{Fields, Report};
use crate::{Claim, Output};

const SIM_SECS: u64 = 12;
const CRASH_AT_SECS: u64 = SIM_SECS / 3;

struct Row {
    label: &'static str,
    attack: CrashRecoveryAttack,
    reliable: bool,
    crash: bool,
    victim_offered: u64,
    victim_delivered: u64,
    victim_pps: f64,
    wrong_verdicts: u64,
    faults: NodeFaultReport,
}

fn run_cell(label: &'static str, attack: CrashRecoveryAttack, reliable: bool, crash: bool) -> Row {
    let params = CrashRecoveryParams {
        duration: SimTime::from_secs(SIM_SECS),
        crash,
        crash_at: SimTime::from_secs(CRASH_AT_SECS),
        attack,
        reliable: reliable.then(ReliabilityConfig::default),
        // The CMS→switch path of every crash cell is hostile: losses,
        // duplicates and jittered (reordering) delays. Fire-and-forget
        // delivery never even sees it — which is the point.
        channel: crash.then(|| ChannelFaultConfig {
            drop_p: 0.05,
            dup_p: 0.05,
            delay: SimTime::from_millis(2),
            jitter: SimTime::from_millis(3),
            ..ChannelFaultConfig::default()
        }),
    };
    let (sim, handles) = crash_recovery_scenario(&params);
    let report = sim.run();
    let victim = &report.source_totals[handles.source("victim")];
    let prober = &report.source_totals[handles.source("prober")];
    Row {
        label,
        attack,
        reliable,
        crash,
        victim_offered: victim.generated,
        victim_delivered: victim.delivered,
        victim_pps: victim.delivered as f64 / params.duration.as_secs_f64(),
        // Every delivered prober packet passed a deny rule that was
        // supposed to be installed: a wrong verdict.
        wrong_verdicts: prober.delivered,
        faults: report.faults[handles.attacker_hosts[0]]
            .clone()
            .unwrap_or_default(),
    }
}

/// Runs the five cells.
pub(crate) fn run() -> pi_core::Result<Output> {
    use CrashRecoveryAttack::{None as NoAttack, PolicyFlap, UpcallFlood};
    let mut table = String::new();
    say!(
        table,
        "{SIM_SECS} simulated seconds per cell, crash at {CRASH_AT_SECS} s"
    );
    say!(
        table,
        "{:>26} {:>12} {:>10} {:>8} {:>10} {:>9} {:>8} {:>10}",
        "cell",
        "victim_pps",
        "retained",
        "wrong",
        "recovery",
        "retries",
        "repush",
        "events"
    );
    let rows = [
        run_cell("baseline", NoAttack, false, false),
        run_cell("policy_flap_fire_forget", PolicyFlap, false, true),
        run_cell("policy_flap_reliable", PolicyFlap, true, true),
        run_cell("upcall_flood_fire_forget", UpcallFlood, false, true),
        run_cell("upcall_flood_reliable", UpcallFlood, true, true),
    ];
    let [baseline, flap_off, flap_on, flood_off, flood_on] = &rows;
    let retained = |r: &Row| r.victim_pps / baseline.victim_pps;
    for r in &rows {
        say!(
            table,
            "{:>26} {:>12.0} {:>10.3} {:>8} {:>10} {:>9} {:>8} {:>10}",
            r.label,
            r.victim_pps,
            retained(r),
            r.wrong_verdicts,
            r.faults.recovery_ticks,
            r.faults.channel.retries,
            r.faults.channel.reconcile_pushes,
            r.faults.fault_events(),
        );
    }

    let mut report = Report::new("fault_matrix", "crash_recovery").params(
        Fields::new()
            .u("sim_secs", SIM_SECS)
            .u("crash_at_secs", CRASH_AT_SECS)
            .u("down_for_ms", CRASH_DOWN_FOR.as_nanos() / 1_000_000)
            .u("flap_period_ms", FLAP_PERIOD.as_nanos() / 1_000_000)
            .u("clients", CRASH_RECOVERY_CLIENTS.into())
            .f("victim_pps_offered", CRASH_VICTIM_PPS, 0)
            .f("prober_pps", PROBER_PPS, 0)
            .f("channel_drop_p", 0.05, 2)
            .f("channel_dup_p", 0.05, 2),
    );
    for r in &rows {
        let f = &r.faults;
        report.row(
            Fields::new()
                .s("cell", r.label)
                .s("attack", r.attack.name())
                .b("reliable", r.reliable)
                .b("crash", r.crash)
                .u("victim_offered", r.victim_offered)
                .u("victim_delivered", r.victim_delivered)
                .f("victim_pps", r.victim_pps, 1)
                .f("retained_vs_baseline", retained(r), 4)
                .u("wrong_verdicts", r.wrong_verdicts)
                .u("crashes", f.crashes)
                .u("acls_lost", f.acls_lost)
                .u("flows_lost", f.flows_lost)
                .u("recovery_ticks", f.recovery_ticks)
                .u("fault_events", f.fault_events())
                .u("channel_dropped", f.channel.dropped)
                .u("channel_duplicated", f.channel.duplicated)
                .u("retries", f.channel.retries)
                .u("gave_up", f.channel.gave_up)
                .u("dup_suppressed", f.channel.dup_suppressed)
                .u("lost_to_downtime", f.channel.lost_to_downtime)
                .u("reconcile_pushes", f.channel.reconcile_pushes),
        );
    }

    let crashed = rows.len() - 1;
    let crashed_ok = rows[1..]
        .iter()
        .filter(|r| r.faults.crashes == 1 && r.faults.acls_lost >= 2)
        .count();
    let bounded = |r: &Row| (1..=2_000).contains(&r.faults.recovery_ticks);
    let claims = vec![
        Claim::new(
            "the healthy run denies the prober (0 wrong verdicts)",
            baseline.wrong_verdicts,
            baseline.wrong_verdicts == 0,
        ),
        Claim::new(
            "every crash cell crashes once and loses its ACLs (≥ 2)",
            format_args!("{crashed_ok}/{crashed} cells"),
            crashed_ok == crashed,
        ),
        // The headline pair: the flap riding the recovery window.
        Claim::new(
            "fire-and-forget leaves a standing verdict hole after the crash (wrong verdicts > 0)",
            flap_off.wrong_verdicts,
            flap_off.wrong_verdicts > 0,
        ),
        Claim::new(
            "retry + reconciliation closes most of the hole (< 1/5 of fire-and-forget)",
            flap_on.wrong_verdicts,
            flap_on.wrong_verdicts * 5 < flap_off.wrong_verdicts,
        ),
        Claim::new(
            "reliable convergence is bounded (0 < recovery ticks ≤ 2000, both attacks)",
            format_args!(
                "{} / {} ticks",
                flap_on.faults.recovery_ticks, flood_on.faults.recovery_ticks
            ),
            bounded(flap_on) && bounded(flood_on),
        ),
        Claim::new(
            "capacity holds through the flap-during-recovery (retained ≥ 0.9)",
            format_args!("{:.3}", retained(flap_on)),
            retained(flap_on) >= 0.9,
        ),
        // Fire-and-forget: the deny rule is gone for good — wrong
        // verdicts accumulate for the rest of the run, or (flood)
        // capacity collapses — and nothing ever reconciles.
        Claim::new(
            "an unprotected crash leaves damage (wrong verdicts, or retained ≤ 0.4) and never reconciles",
            format_args!(
                "{} wrong / {:.3} retained",
                flap_off.wrong_verdicts,
                retained(flood_off)
            ),
            [flap_off, flood_off].iter().all(|r| {
                (r.wrong_verdicts > 0 || retained(r) <= 0.4) && r.faults.recovery_ticks == 0
            }),
        ),
        // The flood's capacity collapse is delivery-independent —
        // restoring it is the defense controller's job, not the control
        // plane's. The reliable row must simply not be *worse*.
        Claim::new(
            "the reliable layer does not worsen flood capacity (≥ 0.95 of fire-and-forget)",
            format_args!("{:.3}", flood_on.victim_pps / flood_off.victim_pps),
            flood_on.victim_pps >= 0.95 * flood_off.victim_pps,
        ),
    ];
    Ok(Output {
        files: vec![("BENCH_fault.json", report.render())],
        table,
        claims,
    })
}
