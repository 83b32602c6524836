//! Golden report digests for the scripted `pi_sim` testbed scenarios.
//!
//! The single-host testbed used to have a tick loop of its own
//! (`Simulation::run` over `SimBuilder`); it now runs on the fleet
//! engine. Instead of carrying the old loop as a twin, its output is
//! frozen here: the constants of the single-host scenarios were captured
//! from that loop at the last commit that had it, and the one engine
//! must keep reproducing them bit for bit — every total, every counter,
//! `EngineStats`, and every point of every sampled series.
//!
//! `fig3` is the one two-host scenario, and the one whose numbers moved
//! with the engine: the old loop settled cross-host outcomes in the tick
//! they happened, the fleet engine carries the receipt back over the
//! fabric (one tick). Its golden was captured after the move and pins
//! the fabric semantics from here on.
//!
//! To re-capture after an intended physics change, run with
//! `--nocapture`: a mismatch prints the digest it computed.

use std::fmt::Debug;

use policy_injection::pi_sim::Simulation;
use policy_injection::prelude::*;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Every field of a report component, through its `Debug` rendering.
    fn debug(&mut self, v: &impl Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    /// Every point of every series of one group. Names are left out:
    /// they say which engine labelled the host, not what it measured.
    fn series(&mut self, group: &[TimeSeries]) {
        self.u64(group.len() as u64);
        for series in group {
            self.u64(series.len() as u64);
            for (t, v) in series.iter() {
                self.u64(t.as_nanos());
                self.u64(v.to_bits());
            }
        }
    }
}

/// The whole simulated content of a report. Left out: the trace (empty,
/// tracing is off), the per-worker harness profile (not simulated
/// state) and the `policy_updates` series (the old loop did not sample
/// it; its final value is in `switch_stats`).
fn digest(r: &SimReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.debug(&r.source_totals);
    h.debug(&r.switch_stats);
    h.debug(&r.upcall_stats);
    h.debug(&r.faults);
    h.debug(&r.defense);
    h.debug(&r.attribution);
    h.debug(&r.engine);
    for group in [
        &r.throughput_bps,
        &r.offered_bps,
        &r.masks,
        &r.megaflows,
        &r.cpu_util,
        &r.handler_cps,
        &r.control_cps,
    ] {
        h.series(group);
    }
    h.0
}

fn check(label: &str, sim: Simulation, golden: u64) {
    let got = digest(&sim.run());
    assert_eq!(
        got, golden,
        "{label}: report digest {got:#018x} differs from the golden {golden:#018x}"
    );
}

#[test]
fn upcall_saturation_reproduces_the_two_node_engines_report() {
    let params = UpcallSaturationParams {
        duration: SimTime::from_secs(4),
        ..Default::default()
    };
    check(
        "upcall_saturation",
        upcall_saturation_scenario(&params).0,
        0x6891_c592_f089_346f,
    );
}

#[test]
fn policy_flap_reproduces_the_two_node_engines_report() {
    let params = PolicyChurnParams {
        duration: SimTime::from_secs(5),
        ..Default::default()
    };
    check(
        "policy_flap",
        policy_churn_scenario(&params).0,
        0x44e7_ada1_8696_cbb7,
    );
}

#[test]
fn crash_recovery_over_a_lossy_channel_reproduces_the_two_node_engines_report() {
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
    check(
        "crash_recovery",
        crash_recovery_scenario(&params).0,
        0x757a_0fda_7bf1_2143,
    );
}

#[test]
fn crash_recovery_under_upcall_flood_reproduces_the_two_node_engines_report() {
    let params = CrashRecoveryParams {
        duration: SimTime::from_secs(6),
        crash_at: SimTime::from_secs(2),
        attack: CrashRecoveryAttack::UpcallFlood,
        ..Default::default()
    };
    check(
        "crash_recovery_upcall_flood",
        crash_recovery_scenario(&params).0,
        0xc950_a4bd_88f8_8512,
    );
}

#[test]
fn adaptive_defense_reproduces_the_two_node_engines_report() {
    let params = AdaptiveDefenseParams::default();
    check(
        "adaptive_defense",
        adaptive_defense_scenario(&params).0,
        0x39e8_9481_f327_b265,
    );
}

#[test]
fn fig3_keeps_the_fabric_semantics() {
    let params = Fig3Params {
        duration: SimTime::from_secs(4),
        ..Default::default()
    };
    check("fig3", fig3_scenario(&params).0, 0xca06_ce94_bea4_74ac);
}

// The two fleet scenarios, captured at `a97e709` (the last commit that
// spelled them in a crate of their own, `pi_fleet`) before they became
// recipes over the shared parts: staggered attackers with background
// on, and the sparse fleet with its attack *on* — the cases the
// benchmark workloads do not reach.

#[test]
fn fleet_colocation_with_stagger_and_background_keeps_its_report() {
    let params = ColocationParams {
        hosts: 4,
        victims: 4,
        attackers: 2,
        attack_start: SimTime::from_secs(1),
        stagger: SimTime::from_secs(1),
        duration: SimTime::from_secs(4),
        ..Default::default()
    };
    check(
        "fleet_colocation",
        fleet_colocation(&params).0,
        0x40a2_9cc5_643d_1932,
    );
}

#[test]
fn fleet_sparse_under_attack_keeps_its_report() {
    let params = SparseParams {
        hosts: 16,
        hot_hosts: 4,
        attack_start: SimTime::from_secs(1),
        duration: SimTime::from_secs(3),
        ..Default::default()
    };
    check(
        "fleet_sparse",
        fleet_sparse(&params).0,
        0x3965_4511_0a71_5f28,
    );
}
