//! Fault-injection integration tests: idempotent policy application
//! under duplicated control-channel delivery, and crash-recovery
//! reconciliation restoring classification semantics verdict for
//! verdict, on every dataplane backend.

use policy_injection::pi_cms::{IngressRule, Protocol};
use policy_injection::prelude::*;

const VICTIM_IP: [u8; 4] = [10, 1, 0, 10];
const CLIENT_IP: [u8; 4] = [10, 2, 0, 1];

fn victim_table() -> FlowTable {
    let policy = NetworkPolicy {
        name: "victim-peers".into(),
        ingress: vec![IngressRule {
            from: vec![Cidr::host(CLIENT_IP)],
            ports: vec![(Protocol::Tcp, Some(5201))],
        }],
    };
    PolicyCompiler.compile_k8s(&policy)
}

/// Applies one tick of a reliable control plane against a backend —
/// the same delivery/reconcile loop `pi_sim::NodeCell` runs.
fn drive(rcp: &mut ReliableControlPlane, be: &mut dyn DataplaneBackend, from_ms: u64, to_ms: u64) {
    for t in from_ms..to_ms {
        let now = SimTime::from_millis(t);
        for update in rcp.poll(now, true) {
            be.apply_update(update, true);
        }
        if rcp.reconcile_due(now) {
            let installed = be.installed_acl_ips();
            rcp.reconcile(now, &installed);
        }
    }
}

/// Satellite: policy application is idempotent under at-least-once
/// delivery. A channel that duplicates *every* message leaves the
/// switch's update count, flush count and control-cycle bill exactly
/// where a perfect channel leaves them — duplicates are suppressed
/// before they touch the switch, and a clean cache never re-charges a
/// flush.
#[test]
fn duplicated_delivery_applies_updates_exactly_once() {
    let pods: [[u8; 4]; 3] = [[10, 1, 0, 10], [10, 1, 0, 11], [10, 1, 0, 12]];
    let table = victim_table();
    let mut program = ControlPlaneProgram::new();
    for (i, ip) in pods.iter().enumerate() {
        program.install_acl(
            SimTime::from_millis(10 + 20 * i as u64),
            u32::from_be_bytes(*ip),
            table.clone(),
        );
    }
    // A late install on pod 0, after traffic has dirtied the cache.
    program.install_acl(
        SimTime::from_millis(1_500),
        u32::from_be_bytes(pods[0]),
        table.clone(),
    );

    let run = |channel: Option<ChannelFaultConfig>| {
        let mut be = build_backend(DpConfig::default(), CostModel::default());
        for (i, ip) in pods.iter().enumerate() {
            be.attach_pod(u32::from_be_bytes(*ip), 1 + i as u32);
        }
        let mut rcp =
            ReliableControlPlane::new(program.clone(), ReliabilityConfig::default(), channel);
        drive(&mut rcp, be.as_mut(), 0, 1_000);
        // Dirty the cache with one whitelisted connection to pod 0,
        // so the 1.5 s install has real state to invalidate.
        let key = FlowKey::tcp(CLIENT_IP, pods[0], 40_000, 5201);
        assert_eq!(
            process_one(be.as_mut(), &key, SimTime::from_secs(1)).verdict,
            Action::Allow
        );
        drive(&mut rcp, be.as_mut(), 1_000, 3_000);
        let ch = rcp.stats();
        (be.snapshot().switch, ch)
    };

    // Every forward message (and ack) duplicated, none dropped.
    let dup_channel = ChannelFaultConfig {
        dup_p: 1.0,
        delay: SimTime::from_millis(1),
        ..ChannelFaultConfig::default()
    };
    let (dup_stats, dup_ch) = run(Some(dup_channel));
    let (perfect_stats, perfect_ch) = run(None);

    // The duplicates really happened — and were all suppressed before
    // reaching the switch.
    assert!(dup_ch.duplicated >= 4, "{dup_ch:?}");
    assert!(dup_ch.dup_suppressed >= 4, "{dup_ch:?}");
    assert_eq!(dup_ch.applied, 4, "{dup_ch:?}");
    assert_eq!(perfect_ch.applied, 4, "{perfect_ch:?}");

    // The switch cannot tell the channels apart: one apply per unique
    // update, no re-charged flushes, the same control-cycle bill.
    assert_eq!(dup_stats.policy_updates, perfect_stats.policy_updates);
    assert_eq!(
        dup_stats.policy_updates, 7,
        "3 build-time pod attaches + 4 installs, each counted once"
    );
    assert_eq!(dup_stats.cache_flushes, perfect_stats.cache_flushes);
    assert_eq!(
        dup_stats.cache_flushes, 1,
        "3 clean-cache installs coalesce; only the post-traffic install flushes"
    );
    assert_eq!(dup_stats.flushed_megaflows, perfect_stats.flushed_megaflows);
    assert_eq!(dup_stats.control_cycles, perfect_stats.control_cycles);
}

/// Satellite: a crash plus reconciliation restores classification
/// *semantics*, not just throughput. After convergence, the
/// crashed-and-recovered backend classifies an identical probe train
/// verdict-for-verdict like a twin that never crashed — on all four
/// dataplane architectures.
#[test]
fn restart_plus_reconciliation_preserves_semantics_verdict_for_verdict() {
    for kind in [
        BackendKind::OvsCache,
        BackendKind::ExactHash,
        BackendKind::LpmTier,
        BackendKind::NicOffload,
    ] {
        let dp = DpConfig {
            backend: kind,
            ..DpConfig::default()
        };
        let victim = u32::from_be_bytes(VICTIM_IP);
        let make = || {
            let mut be = build_backend(dp.clone(), CostModel::default());
            be.attach_pod(victim, 1);
            be.attach_pod(u32::from_be_bytes([10, 1, 0, 20]), 2);
            be
        };
        let mut program = ControlPlaneProgram::new();
        program.install_acl(SimTime::from_millis(10), victim, victim_table());

        let mut healthy = make();
        let mut healthy_rcp =
            ReliableControlPlane::new(program.clone(), ReliabilityConfig::default(), None);
        let mut recovered = make();
        let mut recovered_rcp =
            ReliableControlPlane::new(program, ReliabilityConfig::default(), None);

        drive(&mut healthy_rcp, healthy.as_mut(), 0, 500);
        drive(&mut recovered_rcp, recovered.as_mut(), 0, 500);
        assert_eq!(recovered.installed_acl_ips(), vec![victim], "{kind:?}");

        // Crash one switch: its ACL vanishes and the unauthorized
        // prober walks straight in — the hole reconciliation closes.
        recovered.crash_restart();
        recovered_rcp.on_switch_crash(SimTime::from_millis(500));
        let probe = FlowKey::tcp([10, 9, 0, 1], VICTIM_IP, 40_000, 5201);
        assert_eq!(
            process_one(recovered.as_mut(), &probe, SimTime::from_millis(500)).verdict,
            Action::Allow,
            "{kind:?}: crash opens the verdict hole"
        );
        assert_eq!(
            process_one(healthy.as_mut(), &probe, SimTime::from_millis(500)).verdict,
            Action::Deny,
            "{kind:?}"
        );

        drive(&mut healthy_rcp, healthy.as_mut(), 500, 2_000);
        drive(&mut recovered_rcp, recovered.as_mut(), 500, 2_000);
        assert!(!recovered_rcp.diverged(), "{kind:?}: reconciled");
        assert!(recovered_rcp.recoveries() >= 1, "{kind:?}");
        assert_eq!(recovered.installed_acl_ips(), vec![victim], "{kind:?}");

        // Identical probe train, verdict for verdict: whitelisted
        // client (allow), wrong port (deny), unauthorized sources
        // (deny), traffic to the unprotected pod (allow).
        let now = SimTime::from_secs(2);
        let mut train: Vec<FlowKey> = Vec::new();
        for i in 0..32u16 {
            train.push(FlowKey::tcp(CLIENT_IP, VICTIM_IP, 40_000 + i, 5201));
            train.push(FlowKey::tcp(CLIENT_IP, VICTIM_IP, 40_000 + i, 80));
            train.push(FlowKey::tcp(
                [10, 9, (i >> 8) as u8, i as u8],
                VICTIM_IP,
                1000,
                5201,
            ));
            train.push(FlowKey::tcp(CLIENT_IP, [10, 1, 0, 20], 40_000 + i, 9000));
        }
        for key in &train {
            let want = process_one(healthy.as_mut(), key, now).verdict;
            let got = process_one(recovered.as_mut(), key, now).verdict;
            assert_eq!(got, want, "{kind:?}: verdict diverged for {key:?}");
        }
    }
}
