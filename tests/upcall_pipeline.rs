//! Integration tests of the decoupled upcall pipeline: the bounded
//! slow path must (1) agree with the inline pipeline wherever the two
//! are defined to agree, and (2) express the handler-saturation
//! scenario family — upcall-queue tail drops under a paced flood, and
//! their disappearance under the per-port fair-share quota.

use policy_injection::prelude::*;

fn ip(a: [u8; 4]) -> u32 {
    u32::from_be_bytes(a)
}

/// A mixed one-node scenario (allowed CBR, denied CBR, connection
/// churn) run under both pipeline modes with zero capacity pressure:
/// per-source verdict-level totals must match exactly. (Cache-level
/// stats intentionally differ at tick granularity — the miss-to-install
/// window is the point of the bounded mode; the bit-exact per-packet
/// equivalence lives in `crates/datapath/tests/upcall_equivalence.rs`.)
#[test]
fn bounded_zero_pressure_matches_inline_verdicts_and_routing() {
    let run = |pipeline: PipelineMode| {
        let mut b = FleetBuilder::new(SimConfig {
            duration: SimTime::from_secs(3),
            // Generous budget: no capacity pressure anywhere.
            cpu_cycles_per_sec: 100_000_000_000,
            ..SimConfig::default()
        });
        let node = b.add_host(DpConfig {
            pipeline,
            trie_fields: vec![Field::IpSrc],
            ..DpConfig::default()
        });
        let pod = ip([10, 0, 0, 2]);
        b.add_pod(node, pod);
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        );
        b.install_acl(
            pod,
            pi_classifier::table::whitelist_with_default_deny(&[allow]),
        );
        // Allowed repeats, denied repeats, and fresh-flow churn.
        b.add_source(
            node,
            Box::new(
                FanSource::new(
                    vec![FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1000, 80)],
                    400,
                    2_000.0,
                )
                .named("cbr"),
            ),
        );
        b.add_source(
            node,
            Box::new(
                FanSource::new(
                    vec![FlowKey::tcp([172, 16, 0, 1], [10, 0, 0, 2], 1000, 80)],
                    400,
                    500.0,
                )
                .named("cbr"),
            ),
        );
        b.add_source(
            node,
            Box::new(ChurnSource::new(ip([10, 3, 0, 0]), pod, 80, 64, 1_000.0)),
        );
        b.build().unwrap().run()
    };
    let inline = run(PipelineMode::Inline);
    let bounded = run(PipelineMode::Bounded(UpcallPipelineConfig::unbounded()));
    assert_eq!(inline.source_totals, bounded.source_totals);
    for (i, b) in inline.source_totals.iter().zip(&bounded.source_totals) {
        assert_eq!(i.dropped_capacity, 0);
        assert_eq!(b.dropped_upcall, 0, "no pressure ⇒ no upcall drops");
    }
    // Same verdict totals at the switch level too.
    assert_eq!(
        inline.switch_stats[0].policy_drops,
        bounded.switch_stats[0].policy_drops
    );
    assert_eq!(
        inline.switch_stats[0].packets,
        bounded.switch_stats[0].packets
    );
    // The upcall *count* may exceed inline's: packets of one flow
    // arriving in the same tick all miss until the step's install flush
    // (the miss-to-install window) — but never the other way round.
    assert!(bounded.switch_stats[0].upcalls >= inline.switch_stats[0].upcalls);
    assert_eq!(
        bounded.upcall_stats[0].enqueued, bounded.upcall_stats[0].handled,
        "every deferred miss resolves under an infinite handler budget"
    );
}

/// The headline scenario: a paced destination-spray flood saturates the
/// bounded handlers, the victim's fresh connections tail-drop at its
/// upcall queue, and the OVS-style per-port flow-setup quota restores
/// the victim to ~0 drops — without touching the attacker's ability to
/// hurt itself.
#[test]
fn handler_saturation_and_fair_share_mitigation() {
    let run = |quota: Option<u32>| {
        let params = UpcallSaturationParams {
            duration: SimTime::from_secs(4),
            port_quota_per_step: quota,
            ..Default::default()
        };
        let (sim, handles) = upcall_saturation_scenario(&params);
        let report = sim.run();
        (
            report.source_totals[handles.source("victim")].clone(),
            report.upcall_stats[handles.attacker_hosts[0]],
        )
    };

    let (victim, up) = run(None);
    let offered = victim.generated;
    assert!(offered > 5_000, "churn offered {offered} connections");
    assert!(
        victim.dropped_upcall > offered / 2,
        "saturated handlers must drop most victim connections: {victim:?}"
    );
    assert!(up.queue_drops > 0);
    assert!(
        up.mean_wait_steps() > 1.0,
        "install latency grows under backlog: {} steps",
        up.mean_wait_steps()
    );

    let (victim, up) = run(Some(8));
    assert!(
        victim.dropped_upcall * 100 <= victim.generated,
        "fair share restores the victim to <1% upcall drops: {victim:?}"
    );
    assert!(
        victim.delivered * 10 >= victim.generated * 9,
        "≥90% of victim connections deliver under the quota: {victim:?}"
    );
    // The attacker still pays: its flood keeps tail-dropping.
    assert!(up.queue_drops > 0, "the flood's own drops remain");
}

/// `upcall_fair_share_config` is the mitigation entry point: it
/// promotes an inline datapath to the default bounded pipeline and sets
/// the quota, and the resulting config behaves like the explicit one.
#[test]
fn fair_share_config_round_trips_through_the_scenario() {
    let dp = upcall_fair_share_config(DpConfig::default(), 8);
    match dp.pipeline {
        PipelineMode::Bounded(cfg) => assert_eq!(cfg.port_quota_per_step, Some(8)),
        PipelineMode::Inline => panic!("must be bounded"),
    }
}
