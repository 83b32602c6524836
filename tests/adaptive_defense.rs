//! Integration tests for the `pi_detect` closed loop: controller
//! hysteresis at threshold boundaries, zero false positives on the
//! fig3 benign phase, detection + recovery on the fig3 mask-inflation
//! attack, and runtime-config-mutation equivalence on the datapath.

use pi_detect::TelemetrySample;
use pi_sim::fig3_scenario;
use policy_injection::prelude::*;

// ---------------------------------------------------------------
// Controller hysteresis: no flapping at threshold ± epsilon.
// ---------------------------------------------------------------

fn drop_sample(at_ms: u64, drops: u64) -> TelemetrySample {
    TelemetrySample {
        at: SimTime::from_millis(at_ms),
        packets: 1_000,
        avg_probe_depth: 1.0,
        mask_count: 4,
        mask_growth: 0,
        emc_thrash: 0.0,
        upcalls: 10,
        upcall_backlog: 0,
        upcall_drops: drops,
        policy_updates: 0,
        cache_flushes: 0,
        top_offenders: vec![],
    }
}

#[test]
fn controller_does_not_flap_at_threshold_boundaries() {
    // The drop-rate signal's arming floor is abs_min = 4 drops/sample
    // (baseline 0 after a quiet warm-up). Oscillating one epsilon above
    // and below that boundary must produce exactly one escalation: the
    // off-threshold sits strictly below the on-threshold, so the
    // latched alarm never bounces, and the state machine's
    // confirm/quiet streaks absorb what the comparator lets through.
    let mut c = DefenseController::new(ControllerConfig::default());
    let mut t = 0u64;
    let mut feed = |c: &mut DefenseController, drops: u64| {
        t += 1;
        c.observe(&drop_sample(t, drops), None);
    };
    for _ in 0..10 {
        feed(&mut c, 0); // warm-up + quiet baseline
    }
    assert_eq!(c.state(), DefenseState::Idle);
    for i in 0..100 {
        let drops = if i % 2 == 0 { 5 } else { 3 }; // 4 ± 1
        feed(&mut c, drops);
    }
    assert_eq!(
        c.state(),
        DefenseState::Mitigating,
        "boundary load is an alarm, held without flapping"
    );
    assert_eq!(c.report().activations, 1, "exactly one escalation");
    // The timeline is Idle→Suspect→Mitigating and then silence — no
    // oscillation entries.
    let states: Vec<(DefenseState, DefenseState)> = c
        .report()
        .timeline
        .iter()
        .map(|tr| (tr.from, tr.to))
        .collect();
    assert_eq!(
        states,
        vec![
            (DefenseState::Idle, DefenseState::Suspect),
            (DefenseState::Suspect, DefenseState::Mitigating),
        ]
    );
}

// ---------------------------------------------------------------
// Zero false positives on the fig3 benign phase.
// ---------------------------------------------------------------

#[test]
fn fig3_benign_phase_yields_zero_false_positives() {
    // The fig3 workload with the covert stream pushed past the end of
    // the run: victim iperf + Poisson background chatter only. Both
    // nodes carry a default-tuned controller; neither may ever leave
    // Idle or log a detection.
    let params = pi_sim::Fig3Params {
        duration: SimTime::from_secs(5),
        attack_start: SimTime::from_secs(100), // never fires
        defense: Some(ControllerConfig::default()),
        ..Default::default()
    };
    let (sim, handles) = fig3_scenario(&params);
    let report = sim.run();
    assert!(
        report.source_totals[handles.source("victim")].delivered > 0,
        "benign run must actually carry traffic"
    );
    for (node, defense) in report.defense.iter().enumerate() {
        let d = defense.as_ref().expect("controller on every node");
        assert!(
            d.detections.is_empty(),
            "node {node}: benign churn raised {:?}",
            d.detections
        );
        assert_eq!(d.activations, 0, "node {node}: mitigations activated");
        assert!(d.samples > 0, "controller actually ran");
    }
}

#[test]
fn fig3_attack_is_detected_and_mitigated() {
    // The same workload with the covert stream live: the server node's
    // controller must catch the mask inflation after (never before)
    // the onset, quarantine the attacker pod, and collapse the mask
    // count the attack built.
    let params = pi_sim::Fig3Params {
        duration: SimTime::from_secs(5),
        attack_start: SimTime::from_secs(2),
        defense: Some(ControllerConfig::default()),
        ..Default::default()
    };
    let (sim, handles) = fig3_scenario(&params);
    let report = sim.run();
    let d = report.defense[handles.attacker_hosts[0]]
        .as_ref()
        .expect("server-node controller");
    let detect = d.first_detection().expect("mask inflation detected");
    assert!(detect >= params.attack_start, "no pre-onset detection");
    assert!(
        detect <= params.attack_start + SimTime::from_secs(1),
        "detected within a second of onset, got {detect:?}"
    );
    assert!(d.first_mitigation().is_some());
    // The quarantine + eviction collapsed the injected masks: the
    // undefended smoke run ends above 4000 masks, the defended one
    // must end far below.
    let masks = report.masks[handles.attacker_hosts[0]].last().unwrap().1;
    assert!(masks < 512.0, "masks after mitigation = {masks}");
    // And the report's offender list names the attacker's pod (the
    // quarantined destination no longer carries masks, so offenders
    // above threshold should now be empty).
    assert!(report.offenders(handles.attacker_hosts[0], 256).is_empty());
}

// ---------------------------------------------------------------
// Runtime config mutation ≡ construction, for the mutable knobs.
// ---------------------------------------------------------------

/// Drives `switch` through a deterministic mixed workload (cache hits,
/// misses, upcalls, drains) and returns every observable outcome.
fn drive(sw: &mut VSwitch, label: &str) -> Vec<(Action, Option<u32>, u64)> {
    let mut out = Vec::new();
    let mut t = SimTime::from_millis(1);
    for round in 0..40u16 {
        for i in 0..8u16 {
            // A mix of repeating flows (EMC/megaflow hits) and fresh
            // flows (misses) across two destinations.
            let dst = if i % 2 == 0 {
                [10, 0, 0, 9]
            } else {
                [10, 0, 0, 7]
            };
            let src = [10, 1, (round % 4) as u8, i as u8];
            let o = sw.process(&FlowKey::tcp(src, dst, 1000 + round, 80), t);
            out.push((o.verdict, o.output, o.cycles));
        }
        sw.drain_upcalls(t, |r| {
            out.push((r.outcome.verdict, r.outcome.output, r.outcome.cycles));
        });
        sw.revalidate(t);
        t += SimTime::from_millis(1);
    }
    assert!(!out.is_empty(), "{label}: workload produced outcomes");
    out
}

fn pods(sw: &mut VSwitch) {
    sw.attach_pod(u32::from_be_bytes([10, 0, 0, 9]), 1);
    sw.attach_pod(u32::from_be_bytes([10, 0, 0, 7]), 2);
}

#[test]
fn mutating_a_fresh_switch_equals_constructing_with_the_target_config() {
    let target = DpConfig {
        staged_lookup: true,
        pipeline: PipelineMode::Bounded(UpcallPipelineConfig::unbounded().with_port_quota(4)),
        ..DpConfig::default()
    };
    // A: constructed with the target pipeline, staged lookup (the knob
    // the controller turns) mutated on at runtime.
    let mut a = VSwitch::new(DpConfig {
        pipeline: target.pipeline,
        ..DpConfig::default()
    });
    a.set_staged_lookup(true);
    pods(&mut a);
    // B: constructed with the target directly.
    let mut b = VSwitch::new(target);
    pods(&mut b);

    let oa = drive(&mut a, "mutated");
    let ob = drive(&mut b, "constructed");
    assert_eq!(oa, ob, "mutated switch must be bit-identical");
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.upcall_stats(), b.upcall_stats());
    assert_eq!(a.mask_count(), b.mask_count());
    assert_eq!(a.megaflow_count(), b.megaflow_count());
}

#[test]
fn mid_run_quota_mutation_equals_quota_from_the_start() {
    // Phase 1 keeps every queue under the quota, so the knob is
    // unobservable; switch A then flips it on at the phase boundary.
    // Phase 2 (a backlog-building flood plus victim churn) must be
    // bit-identical to switch B, which ran with the quota from t = 0.
    let base = DpConfig {
        flow_limit: 64,
        pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
            queue_capacity: 16,
            handler_cycles_per_step: 200_000,
            port_quota_per_step: None,
        }),
        ..DpConfig::default()
    };
    let with_quota = DpConfig {
        pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
            queue_capacity: 16,
            handler_cycles_per_step: 200_000,
            port_quota_per_step: Some(4),
        }),
        ..base.clone()
    };
    let victim_ip = [10, 0, 0, 9];

    let phase1 = |sw: &mut VSwitch| {
        let mut t = SimTime::from_millis(1);
        for i in 0..20u16 {
            // Two fresh victim flows per step: far under quota 4.
            for j in 0..2u16 {
                let n = i * 2 + j;
                sw.process(
                    &FlowKey::tcp([10, 2, (n >> 8) as u8, n as u8], victim_ip, 5000, 80),
                    t,
                );
            }
            sw.drain_upcalls(t, |_| {});
            t += SimTime::from_millis(1);
        }
    };
    let phase2 = |sw: &mut VSwitch| -> Vec<(Action, Option<u32>, u64)> {
        let mut out = Vec::new();
        let mut t = SimTime::from_millis(100);
        let mut flood = 0u32;
        for step in 0..60u32 {
            for _ in 0..20 {
                flood += 1;
                let dst = [172, 16, (flood >> 8) as u8, flood as u8];
                let o = sw.process(&FlowKey::tcp([10, 9, 9, 9], dst, 7, 7), t);
                out.push((o.verdict, o.output, o.cycles));
            }
            for j in 0..2u32 {
                let n = 1000 + step * 2 + j;
                let o = sw.process(
                    &FlowKey::tcp([10, 2, (n >> 8) as u8, n as u8], victim_ip, 5000, 80),
                    t,
                );
                out.push((o.verdict, o.output, o.cycles));
            }
            sw.drain_upcalls(t, |r| {
                out.push((r.outcome.verdict, r.outcome.output, r.outcome.cycles));
            });
            t += SimTime::from_millis(1);
        }
        out
    };

    let mut a = VSwitch::new(base);
    pods(&mut a);
    phase1(&mut a);
    assert!(a.set_port_quota(Some(4)), "mid-run mutation");

    let mut b = VSwitch::new(with_quota);
    pods(&mut b);
    phase1(&mut b);

    assert_eq!(a.stats(), b.stats(), "phase 1 must not observe the knob");
    let oa = phase2(&mut a);
    let ob = phase2(&mut b);
    assert_eq!(oa, ob);
    assert_eq!(a.stats(), b.stats());
    assert_eq!(a.upcall_stats(), b.upcall_stats());
    // And the quota actually bit in phase 2 for both.
    assert!(a.upcall_stats().quota_deferrals > 0, "quota was exercised");
}
