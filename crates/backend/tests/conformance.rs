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
use pi_datapath::{
    PathTaken, PipelineMode, PolicyUpdateOutcome, ProcessOutcome, UpcallPipelineConfig, Work,
};

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
        let fixed = Work {
            acl_updates: 1,
            ..Work::default()
        };
        assert_eq!(
            out.cycles,
            be.cost_model().cycles_of(&fixed),
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
                assert_eq!(out.cycles, be.cost_model().cycles_of(&out.work), "{kind}");
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

/// Mechanical costing, the contract's second clause: on every
/// architecture, every packet outcome, resolved upcall and policy
/// update is charged exactly its counted work — `cycles ==
/// cost.cycles_of(&work)` — across hits, misses, denials, a bounded
/// pipeline's queued and resolved halves, quarantine refusals, charged
/// and free updates with and without flushes, and a crash.
#[test]
fn every_outcome_is_charged_exactly_its_work() {
    for kind in BackendKind::ALL {
        let dp = DpConfig {
            backend: kind,
            pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
                queue_capacity: 6,
                handler_cycles_per_step: 200_000,
                port_quota_per_step: None,
            }),
            ..DpConfig::default()
        };
        let mut boxed = build_backend(dp, CostModel::default());
        let be = &mut *boxed;
        let cost = *be.cost_model();
        let mut resolved = 0;
        let check_update = |out: PolicyUpdateOutcome| {
            assert_eq!(out.cycles, cost.cycles_of(&out.work), "{kind}: {out:?}");
        };
        check_update(be.apply_update(
            PolicyUpdate::AttachPod {
                ip: POD,
                vport: VPORT,
            },
            false,
        ));
        check_update(be.apply_update(
            PolicyUpdate::InstallAcl {
                ip: POD,
                table: fig2_acl(),
            },
            true,
        ));
        for round in 0..6u8 {
            let now = SimTime::from_millis(1 + u64::from(round));
            let mut keys: Vec<FlowKey> = (0..12u8).map(|i| pkt([10, round, i, 1])).collect();
            keys.extend([
                pkt(ALLOWED),
                pkt(ALLOWED),
                pkt(DENIED),
                pkt([99, round, 0, 1]),
            ]);
            keys.push(FlowKey::tcp(ALLOWED, [172, 16, round, 1], 1000, 80));
            let n = be.process_batch(&keys, now, &mut |_, o: ProcessOutcome| {
                assert_eq!(o.cycles, cost.cycles_of(&o.work), "{kind}: {o:?}");
                true
            });
            assert_eq!(n, keys.len(), "{kind}");
            be.drain_upcalls(now, &mut |r| {
                let o = r.outcome;
                assert_eq!(o.cycles, cost.cycles_of(&o.work), "{kind}: resolved {o:?}");
                resolved += 1;
            });
            match round {
                1 => check_update(be.apply_update(PolicyUpdate::RemoveAcl { ip: POD }, true)),
                2 => check_update(be.apply_update(
                    PolicyUpdate::InstallAcl {
                        ip: POD,
                        table: fig2_acl(),
                    },
                    false,
                )),
                3 => {
                    be.actuate(DefenseAction::Quarantine(POD));
                }
                4 => {
                    be.actuate(DefenseAction::ReleaseQuarantine(POD));
                    be.crash_restart();
                }
                _ => {}
            }
        }
        if kind == BackendKind::OvsCache {
            assert!(resolved > 0, "resolved upcalls were checked too");
        }
    }
}

/// FNV-1a, 64-bit, over `Debug` renderings (the helper the testbed
/// goldens digest whole reports with).
struct Fnv(u64);

impl Fnv {
    fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.str(&format!("{v:?}"));
    }

    fn str(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A packet outcome as `Debug` rendered it when the goldens below were
/// captured, while the path carried its own counters: the same values,
/// read back from the outcome's [`Work`] under their old names.
fn golden_outcome(o: &ProcessOutcome) -> String {
    let w = &o.work;
    let walk = format!("probes: {}, stage_checks: {}", w.subtables, w.stage_hashes);
    let (probed, inserted) = (w.emc_probes > 0, w.emc_inserts > 0);
    let path = match o.path {
        PathTaken::MicroflowHit => "MicroflowHit".to_string(),
        PathTaken::Upcall => format!(
            "Upcall {{ {walk}, rules_examined: {}, installed: {}, emc_probed: {probed}, emc_inserted: {inserted} }}",
            w.rules,
            w.installs > 0
        ),
        PathTaken::UpcallDropped => format!("UpcallDropped {{ {walk}, emc_probed: {probed} }}"),
        // Never taken by an exact-match backend; a change that takes
        // one renders differently and misses the golden.
        other => format!("{other:?}"),
    };
    format!(
        "ProcessOutcome {{ verdict: {:?}, output: {:?}, path: {path}, cycles: {} }}",
        o.verdict, o.output, o.cycles
    )
}

/// A policy-update outcome as `Debug` rendered it when the goldens were
/// captured, before it carried its [`Work`].
fn golden_update(o: &PolicyUpdateOutcome) -> String {
    format!(
        "PolicyUpdateOutcome {{ applied: {}, flushed_megaflows: {}, scoped: {}, cycles: {} }}",
        o.applied, o.flushed_megaflows, o.scoped, o.cycles
    )
}

/// One scripted run through an exact-match backend, digested: every
/// packet outcome, policy-update / actuation / restart outcome, the
/// background deadline after every sweep, and the final snapshot and
/// attribution. The script crosses the full-table bound of both kinds
/// (`flow_limit` 64 for `exact_hash`, more than 2 048 distinct flows for
/// `nic_offload`), re-installs an ACL, quarantines and releases a
/// destination, idles entries out, crashes, and keeps sending after the
/// restart.
fn exact_match_trace_digest(kind: BackendKind) -> u64 {
    let dp = DpConfig {
        backend: kind,
        flow_limit: 64,
        ..DpConfig::default()
    };
    let mut boxed = build_backend(dp, CostModel::default());
    let be = &mut *boxed;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let bystander = u32::from_be_bytes([10, 0, 0, 98]);
    // Distinct for every `i` below 2^16: a third from denied sources, a
    // fifth towards the bystander.
    let flow = |i: u32| {
        let src = [
            if i.is_multiple_of(3) { 99 } else { 10 },
            (i >> 8) as u8,
            i as u8,
            1,
        ];
        let dst = if i.is_multiple_of(5) { bystander } else { POD };
        FlowKey::tcp(src, dst.to_be_bytes(), 1000 + (i % 7) as u16, 5201)
    };
    let send = |be: &mut dyn DataplaneBackend, h: &mut Fnv, keys: &[FlowKey], now| {
        let n = be.process_batch(keys, now, &mut |i, o| {
            h.str(&format!("({i}, {})", golden_outcome(&o)));
            true
        });
        h.debug(&n);
        be.revalidate(now);
        h.debug(&be.next_background_event(now));
    };

    for update in [
        PolicyUpdate::AttachPod {
            ip: POD,
            vport: VPORT,
        },
        PolicyUpdate::AttachPod {
            ip: bystander,
            vport: 5,
        },
        PolicyUpdate::InstallAcl {
            ip: POD,
            table: fig2_acl(),
        },
    ] {
        h.str(&golden_update(&be.apply_update(update, false)));
    }

    // Fill past both bounds, each batch re-sending a few earlier flows:
    // hits while they are cached, re-faults once replaced or refused.
    for step in 0..24u32 {
        let now = SimTime::from_millis(1 + u64::from(step));
        let mut keys: Vec<FlowKey> = (step * 96..(step + 1) * 96).map(flow).collect();
        keys.extend((0..8).map(|j| flow(step * 37 + j * 11)));
        send(be, &mut h, &keys, now);
    }

    // Re-install the ACL (charged), then quarantine and release the
    // bystander with traffic towards it in between.
    let t = SimTime::from_secs(5);
    let update = PolicyUpdate::InstallAcl {
        ip: POD,
        table: fig2_acl(),
    };
    h.str(&golden_update(&be.apply_update(update, true)));
    let recent: Vec<FlowKey> = (2200..2240).map(flow).collect();
    send(be, &mut h, &recent, t);
    h.debug(&be.actuate(DefenseAction::Quarantine(bystander)));
    send(be, &mut h, &recent, t);
    h.debug(&be.actuate(DefenseAction::ReleaseQuarantine(bystander)));
    h.debug(&be.actuate(DefenseAction::SetStagedLookup(true)));
    send(be, &mut h, &recent, t);
    h.debug(&be.snapshot());

    // Past `idle_timeout` for the first phase only, then for everything.
    for secs in [12, 16] {
        let now = SimTime::from_secs(secs);
        send(be, &mut h, &(3000..3010).map(flow).collect::<Vec<_>>(), now);
        h.debug(&be.snapshot());
        h.debug(&be.attribution());
    }

    // Crash, then traffic over the policy-less restart.
    h.debug(&be.crash_restart());
    h.debug(&be.installed_acl_ips());
    let after: Vec<FlowKey> = (0..200).map(flow).collect();
    send(be, &mut h, &after, SimTime::from_secs(17));
    send(be, &mut h, &after, SimTime::from_secs(18));
    h.debug(&be.snapshot());
    h.debug(&be.attribution());
    h.0
}

/// Captured from the two exact-match kinds while they were still two
/// separate implementations; the one implementation that replaced them
/// must keep reproducing both. A mismatch prints the digests computed.
#[test]
fn exact_match_backends_reproduce_their_golden_traces() {
    let goldens = [
        (BackendKind::ExactHash, 0x4b37_c13a_875f_ca2f),
        (BackendKind::NicOffload, 0x0d6e_32f1_2d4d_c6b8),
    ];
    let got = goldens.map(|(kind, _)| (kind, exact_match_trace_digest(kind)));
    assert!(
        got == goldens,
        "trace digests {got:x?} differ from the goldens {goldens:x?}"
    );
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
