//! Event-driven vs tick-stepped equivalence on the scripted scenarios.
//!
//! The event-driven core skips ticks it can prove are no-ops; these
//! tests are the proof's audit. Each paper scenario — fig. 3, upcall
//! saturation, the policy-flap train, crash/recovery — is built twice
//! from identical parameters, run once event-driven and once on the
//! serial tick-stepped reference, and the full reports are pinned equal: totals, verdict-bearing counters, fault
//! and defense timelines, and every sampled series point.

use pi_core::SimTime;
use pi_fault::ChannelFaultConfig;
use pi_sim::{
    crash_recovery_scenario, fig3_scenario, policy_churn_scenario, upcall_saturation_scenario,
    CrashRecoveryAttack, CrashRecoveryParams, Fig3Params, PolicyChurnParams, SimReport,
    UpcallSaturationParams,
};

/// Pins two reports bit-identical, series point for series point.
fn assert_reports_equal(a: &SimReport, b: &SimReport, label: &str) {
    assert_eq!(a.source_totals, b.source_totals, "{label}: source_totals");
    assert_eq!(a.switch_stats, b.switch_stats, "{label}: switch_stats");
    assert_eq!(a.upcall_stats, b.upcall_stats, "{label}: upcall_stats");
    assert_eq!(a.faults, b.faults, "{label}: faults");
    assert_eq!(a.defense, b.defense, "{label}: defense");
    assert_eq!(a.attribution, b.attribution, "{label}: attribution");
    let series = [
        (&a.throughput_bps, &b.throughput_bps, "throughput_bps"),
        (&a.offered_bps, &b.offered_bps, "offered_bps"),
        (&a.masks, &b.masks, "masks"),
        (&a.megaflows, &b.megaflows, "megaflows"),
        (&a.cpu_util, &b.cpu_util, "cpu_util"),
        (&a.handler_cps, &b.handler_cps, "handler_cps"),
    ];
    for (sa, sb, name) in series {
        assert_eq!(sa.len(), sb.len(), "{label}: {name} arity");
        for (ta, tb) in sa.iter().zip(sb.iter()) {
            assert_eq!(
                ta.iter().collect::<Vec<_>>(),
                tb.iter().collect::<Vec<_>>(),
                "{label}: {name} points"
            );
        }
    }
}

/// Runs one scenario builder on both engines and pins the reports.
fn check<F: Fn() -> pi_sim::Simulation>(build: F, label: &str) {
    let event = build().run();
    let mut stepped_sim = build();
    stepped_sim.set_event_driven(false);
    let stepped = stepped_sim.run();
    assert_reports_equal(&event, &stepped, label);
}

#[test]
fn fig3_matches_the_stepped_reference() {
    let params = Fig3Params {
        duration: SimTime::from_secs(4),
        ..Default::default()
    };
    check(|| fig3_scenario(&params).0, "fig3");
}

#[test]
fn upcall_saturation_matches_the_stepped_reference() {
    let params = UpcallSaturationParams {
        duration: SimTime::from_secs(4),
        ..Default::default()
    };
    check(
        || upcall_saturation_scenario(&params).0,
        "upcall_saturation",
    );
}

#[test]
fn policy_flap_matches_the_stepped_reference() {
    let params = PolicyChurnParams {
        duration: SimTime::from_secs(5),
        ..Default::default()
    };
    check(|| policy_churn_scenario(&params).0, "policy_flap");
}

#[test]
fn crash_recovery_matches_the_stepped_reference() {
    // The hardest case for skip-safety: a crash/restart window, a flap
    // train riding it, and an at-least-once control plane retrying
    // through a lossy, reordering channel.
    let params = CrashRecoveryParams {
        duration: SimTime::from_secs(6),
        crash_at: SimTime::from_secs(2),
        attack: CrashRecoveryAttack::PolicyFlap,
        reliable: true,
        channel: Some(ChannelFaultConfig {
            drop_p: 0.2,
            dup_p: 0.1,
            delay: SimTime::from_millis(2),
            jitter: SimTime::from_millis(5),
            seed: 0xE0_17AB,
        }),
        ..Default::default()
    };
    check(|| crash_recovery_scenario(&params).0, "crash_recovery");
}

#[test]
fn crash_recovery_upcall_flood_matches_the_stepped_reference() {
    // Bounded slow path + blackout: exercises the handler-debt and
    // restart-cost carries that keep a "quiet-looking" node busy.
    let params = CrashRecoveryParams {
        duration: SimTime::from_secs(6),
        crash_at: SimTime::from_secs(2),
        attack: CrashRecoveryAttack::UpcallFlood,
        ..Default::default()
    };
    check(
        || crash_recovery_scenario(&params).0,
        "crash_recovery_upcall_flood",
    );
}
