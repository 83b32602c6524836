//! One conformance suite for the [`DataplaneBackend`] contract, run
//! against every [`BackendKind`].
//!
//! What is pinned here is the half of the contract that must not
//! depend on the architecture: policy bookkeeping (re-attach,
//! install refusal, charging), quarantine, crash/restart, verdict
//! soundness against linear classification, and — for the OVS adapter —
//! that [`DataplaneBackend::snapshot`] is exactly the inherent
//! `VSwitch` getters. Architecture-specific behaviour (what is cached,
//! what an update flushes, what a packet costs) is tested next to each
//! backend.

use pi_backend::{
    build_backend, process_one, BackendKind, CostModel, DataplaneBackend, DefenseAction, DpConfig,
    VSwitch,
};
use pi_classifier::table::whitelist_with_default_deny;
use pi_classifier::{Action, FlowTable, LinearClassifier, PolicyUpdate};
use pi_core::{Field, FlowKey, FlowMask, MaskedKey, SimTime};
use pi_datapath::{PipelineMode, UpcallPipelineConfig};

const POD: u32 = u32::from_be_bytes([10, 0, 0, 99]);
const VPORT: u32 = 3;

/// Runs `case` once per architecture, on a fresh default-configured
/// backend.
fn for_each_backend(mut case: impl FnMut(BackendKind, &mut dyn DataplaneBackend)) {
    for kind in BackendKind::ALL {
        let dp = DpConfig {
            backend: kind,
            ..DpConfig::default()
        };
        case(kind, &mut *build_backend(dp, CostModel::default()));
    }
}

/// "Allow from 10.0.0.0/8, deny the rest" (the paper's Fig. 2 ACL).
fn fig2_acl() -> FlowTable {
    let allow = MaskedKey::new(
        FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
        FlowMask::default().with_prefix(Field::IpSrc, 8),
    );
    whitelist_with_default_deny(&[allow])
}

/// A packet to the pod from `src`.
fn pkt(src: [u8; 4]) -> FlowKey {
    FlowKey::tcp(src, POD.to_be_bytes(), 1000, 5201)
}

const ALLOWED: [u8; 4] = [10, 1, 1, 1];
const DENIED: [u8; 4] = [99, 1, 1, 1];

#[test]
fn reattach_preserves_the_acl_and_an_unattached_install_is_refused_but_charged() {
    for_each_backend(|kind, be| {
        let t = SimTime::from_millis(1);
        assert!(be.attach_pod(POD, VPORT), "{kind}: fresh attach");
        assert!(be.install_acl(POD, fig2_acl()), "{kind}");
        assert_eq!(process_one(be, &pkt(DENIED), t).verdict, Action::Deny);

        // A vport move must never replace the deny ACL with allow-all.
        assert!(!be.attach_pod(POD, 7), "{kind}: re-attach is not fresh");
        assert_eq!(be.installed_acl_ips(), vec![POD], "{kind}");
        let denied = process_one(be, &pkt(DENIED), t);
        assert_eq!(denied.verdict, Action::Deny, "{kind}: ACL survived");
        assert_eq!(denied.output, None, "{kind}");
        let allowed = process_one(be, &pkt(ALLOWED), t);
        assert_eq!(allowed.verdict, Action::Allow, "{kind}");
        assert_eq!(
            allowed.output,
            Some(7),
            "{kind}: delivered at the new vport"
        );

        // No pod at 9.9.9.9: nothing installs, nothing counts as a
        // policy update — but the control plane still did the work.
        let stray = u32::from_be_bytes([9, 9, 9, 9]);
        let before = be.snapshot().switch;
        assert!(!be.install_acl(stray, fig2_acl()), "{kind}: free refusal");
        assert!(!be.remove_acl(stray), "{kind}");
        let update = PolicyUpdate::InstallAcl {
            ip: stray,
            table: fig2_acl(),
        };
        let out = be.apply_update(update, true);
        assert!(!out.applied, "{kind}");
        assert_eq!(out.flushed_megaflows, 0, "{kind}");
        assert_eq!(
            out.cycles,
            be.cost_model().control_update_cycles(0),
            "{kind}: a refusal pays the fixed handling"
        );
        let after = be.snapshot().switch;
        assert_eq!(after.policy_updates, before.policy_updates, "{kind}");
        assert_eq!(be.installed_acl_ips(), vec![POD], "{kind}");
    });
}

#[test]
fn charged_updates_bill_control_cycles_and_free_ones_bill_nothing() {
    let updates = || {
        [
            PolicyUpdate::AttachPod {
                ip: POD,
                vport: VPORT,
            },
            PolicyUpdate::InstallAcl {
                ip: POD,
                table: fig2_acl(),
            },
            PolicyUpdate::RemoveAcl { ip: POD },
        ]
    };
    for_each_backend(|kind, be| {
        for (charged, round) in [(false, 0u64), (true, 1), (false, 2), (true, 3)] {
            // Something cached between rounds, so updates have state to
            // invalidate on the architectures that cache.
            if round > 0 {
                process_one(be, &pkt(ALLOWED), SimTime::from_millis(round));
            }
            for update in updates() {
                let before = be.snapshot().switch;
                let out = be.apply_update(update, charged);
                let after = be.snapshot().switch;
                assert_eq!(
                    after.policy_updates,
                    before.policy_updates + 1,
                    "{kind}: counted either way"
                );
                assert_eq!(
                    after.control_cycles - before.control_cycles,
                    out.cycles,
                    "{kind}"
                );
                assert_eq!(after.cycles - before.cycles, out.cycles, "{kind}");
                assert_eq!(out.cycles > 0, charged, "{kind}: round {round}");
            }
        }
    });
}

#[test]
fn quarantine_refuses_service_until_released() {
    for_each_backend(|kind, be| {
        let t = SimTime::from_millis(1);
        be.attach_pod(POD, VPORT);
        be.install_acl(POD, fig2_acl());
        assert_eq!(process_one(be, &pkt(ALLOWED), t).verdict, Action::Allow);

        // Quarantine evicts whatever the flow had cached, so the very
        // next packet is a miss — and a miss is refused.
        assert!(be.actuate(DefenseAction::Quarantine(POD)), "{kind}");
        let drops = be.snapshot().upcall.quarantine_drops;
        let refused = process_one(be, &pkt(ALLOWED), t);
        assert!(refused.path.is_upcall_dropped(), "{kind}: {refused:?}");
        assert_eq!(refused.output, None, "{kind}");
        assert_eq!(
            be.snapshot().upcall.quarantine_drops,
            drops + 1,
            "{kind}: counted"
        );

        assert!(be.actuate(DefenseAction::ReleaseQuarantine(POD)), "{kind}");
        let served = process_one(be, &pkt(ALLOWED), t);
        assert_eq!(served.verdict, Action::Allow, "{kind}");
        assert_eq!(served.output, Some(VPORT), "{kind}");
        assert!(
            !be.actuate(DefenseAction::ReleaseQuarantine(POD)),
            "{kind}: nothing left to release"
        );
    });
}

#[test]
fn crash_restart_loses_acls_and_quarantines_but_keeps_attachments_and_counters() {
    for_each_backend(|kind, be| {
        let t = SimTime::from_millis(1);
        be.attach_pod(POD, VPORT);
        be.install_acl(POD, fig2_acl());
        assert_eq!(process_one(be, &pkt(DENIED), t).verdict, Action::Deny);
        be.actuate(DefenseAction::Quarantine(0xdead));
        let lifetime = be.snapshot().switch;

        let lost = be.crash_restart();
        assert_eq!(lost.acls_lost, 1, "{kind}");
        assert_eq!(lost.quarantines_lost, 1, "{kind}");
        assert_eq!(lost.flows_lost, flows_cached_by_one_packet(kind), "{kind}");
        assert!(be.installed_acl_ips().is_empty(), "{kind}");
        let wiped = be.snapshot();
        assert_eq!(wiped.switch, lifetime, "{kind}: lifetime counters survive");
        assert_eq!(wiped.megaflows, 0, "{kind}");
        assert!(
            !be.actuate(DefenseAction::ReleaseQuarantine(0xdead)),
            "{kind}: the quarantine died with the process"
        );

        // The vanished deny ACL is the vulnerability reconciliation
        // closes: a previously denied source is now delivered — over
        // the attachment that survived.
        let o = process_one(be, &pkt(DENIED), t);
        assert_eq!(o.verdict, Action::Allow, "{kind}: deny policy gone");
        assert_eq!(o.output, Some(VPORT), "{kind}: route survived");

        // Idempotent on the already-wiped policy half.
        let again = be.crash_restart();
        assert_eq!((again.acls_lost, again.quarantines_lost), (0, 0), "{kind}");
    });
}

/// Flow entries one classified packet leaves behind, per architecture
/// (`LpmTier` keeps no per-flow state at all).
fn flows_cached_by_one_packet(kind: BackendKind) -> usize {
    match kind {
        BackendKind::LpmTier => 0,
        BackendKind::OvsCache | BackendKind::ExactHash | BackendKind::NicOffload => 1,
    }
}

/// Verdict soundness, the contract's first clause: on random whitelist
/// policies and random packets every architecture decides exactly what
/// linear classification decides — on the first (classifying) packet
/// and on the repeat that rides whatever the first one cached.
#[test]
fn verdicts_equal_linear_classification_on_random_policies() {
    pi_core::for_cases(48, 0x51, |rng| {
        let n_allows = rng.gen_range(6);
        let whitelist: Vec<MaskedKey> = (0..n_allows)
            .map(|_| {
                let src = std::net::Ipv4Addr::from(rng.next_u32());
                let len = 1 + rng.gen_range(32) as u8;
                let port = rng.gen_bool(0.5).then(|| 1 + rng.gen_range(2047) as u16);
                let key = FlowKey::tcp(src, [0, 0, 0, 0], 0, port.unwrap_or(0));
                let mut mask = FlowMask::default().with_prefix(Field::IpSrc, len);
                if port.is_some() {
                    mask = mask.with_exact(Field::TpDst);
                }
                MaskedKey::new(key, mask)
            })
            .collect();
        let packets: Vec<FlowKey> = (0..1 + rng.gen_range(59))
            .map(|_| {
                FlowKey::tcp(
                    std::net::Ipv4Addr::from(rng.next_u32()),
                    POD.to_be_bytes(),
                    rng.next_u32() as u16,
                    1 + rng.gen_range(2047) as u16,
                )
            })
            .collect();
        let table = whitelist_with_default_deny(&whitelist);
        let linear = LinearClassifier::new(&table);
        for_each_backend(|kind, be| {
            be.attach_pod(POD, VPORT);
            be.install_acl(POD, table.clone());
            for (i, p) in packets.iter().enumerate() {
                let expected = linear.classify(p).map_or(Action::Deny, |r| r.action);
                for pass in ["first", "repeat"] {
                    let got = process_one(be, p, SimTime::from_millis(1 + i as u64));
                    assert_eq!(got.verdict, expected, "{kind}: {pass} packet {p}");
                    assert_eq!(
                        got.output,
                        expected.permits().then_some(VPORT),
                        "{kind}: {pass} packet {p}"
                    );
                }
            }
        });
    });
}

/// The OVS adapter's snapshot is the inherent getters, field by field —
/// on a bounded pipeline with a backlog, so no field is trivially zero.
#[test]
fn ovs_snapshot_equals_the_inherent_getters() {
    let mut sw = VSwitch::new(DpConfig {
        pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
            queue_capacity: 4,
            handler_cycles_per_step: 20_000,
            port_quota_per_step: None,
        }),
        ..DpConfig::default()
    });
    let bystander = u32::from_be_bytes([10, 0, 0, 98]);
    sw.attach_pod(POD, VPORT);
    sw.attach_pod(bystander, 5);
    sw.apply_install_acl(POD, fig2_acl());
    sw.quarantine(bystander);
    for step in 0..20u8 {
        let now = SimTime::from_millis(step as u64);
        let mut keys: Vec<FlowKey> = (0..8u8).map(|i| pkt([10, step, i, 1])).collect();
        keys.push(pkt(ALLOWED));
        keys.push(FlowKey::tcp(ALLOWED, bystander.to_be_bytes(), 1000, 80));
        // A fresh unroutable destination per step: always a miss, so
        // the step nobody drains leaves a backlog.
        keys.push(FlowKey::tcp(ALLOWED, [172, 16, step, 1], 1000, 80));
        sw.process_batch(&keys, now, |_, _| true);
        if step % 2 == 0 {
            sw.drain_upcalls(now, |_| {});
        }
    }

    let snap = DataplaneBackend::snapshot(&sw);
    assert_eq!(snap.switch, sw.stats());
    assert_eq!(snap.emc, sw.emc_stats());
    assert_eq!(snap.upcall, sw.upcall_stats());
    assert_eq!(snap.masks, sw.mask_count());
    assert_eq!(snap.megaflows, sw.megaflow_count());
    assert_eq!(snap.upcall_backlog, sw.upcall_queue_depth());
    // The workload reached every part of the snapshot.
    assert!(snap.switch.packets > 0 && snap.switch.control_cycles > 0);
    assert!(snap.emc.hits > 0);
    assert!(snap.upcall.queue_drops > 0 && snap.upcall.quarantine_drops > 0);
    assert!(snap.masks > 0 && snap.megaflows > 0 && snap.upcall_backlog > 0);
}
