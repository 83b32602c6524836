//! [`PodTable`] over its flat index: slots are append-only, a re-attach
//! re-homes in place, listings are deterministic, and lookups survive
//! every growth of the index. The re-attach / refusal / crash
//! *semantics* per backend are `crates/backend/tests/conformance.rs`;
//! these are the table's own invariants.

use pi_classifier::table::whitelist_with_default_deny;
use pi_classifier::{Action, FlowTable, PolicyUpdate};
use pi_core::{Field, FlowKey, FlowMask, MaskedKey};
use pi_datapath::PodTable;

const TRIES: [Field; 1] = [Field::IpSrc];

/// Whitelists 10/8, denies the rest: 2 rules.
fn acl() -> FlowTable {
    let allow = MaskedKey::new(
        FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
        FlowMask::default().with_prefix(Field::IpSrc, 8),
    );
    whitelist_with_default_deny(&[allow])
}

fn attach(t: &mut PodTable, ip: u32, vport: u32) -> bool {
    t.apply(PolicyUpdate::AttachPod { ip, vport }, &TRIES)
        .applied
}

fn install(t: &mut PodTable, ip: u32) -> bool {
    t.apply(PolicyUpdate::InstallAcl { ip, table: acl() }, &TRIES)
        .applied
}

fn attach_order(t: &PodTable) -> Vec<(u32, u32)> {
    t.pods().iter().map(|p| (p.ip, p.vport)).collect()
}

#[test]
fn reattach_rehomes_in_place_and_keeps_the_acl() {
    let mut t = PodTable::new();
    assert!(attach(&mut t, 30, 1));
    assert!(attach(&mut t, 10, 2));
    assert!(install(&mut t, 30));

    let change = t.apply(PolicyUpdate::AttachPod { ip: 30, vport: 9 }, &TRIES);
    assert!(!change.applied, "a re-attach is not a fresh attach");
    assert_eq!(change.touched, Some(30), "but its cached state is stale");
    assert_eq!(attach_order(&t), [(30, 9), (10, 2)], "same slot, new vport");
    assert_eq!(t.rules_at(30), 2, "the deny ACL survived the vport move");

    let off_net = FlowKey::tcp([172, 16, 0, 1], [0, 0, 0, 30], 1, 80);
    assert_eq!(t.classify(&off_net).0, Action::Deny);
    let on_net = FlowKey::tcp([10, 9, 9, 9], [0, 0, 0, 30], 1, 80);
    let (verdict, _examined, out) = t.classify(&on_net);
    assert_eq!((verdict, out), (Action::Allow, Some(9)), "to the new vport");
}

#[test]
fn listings_are_attach_order_and_acl_ips_ascending() {
    let mut t = PodTable::new();
    let ips = [900u32, 5, 0xffff_ffff, 0, 77, 300];
    for (vport, &ip) in ips.iter().enumerate() {
        assert!(attach(&mut t, ip, vport as u32));
    }
    let listed: Vec<u32> = t.pods().iter().map(|p| p.ip).collect();
    assert_eq!(listed, ips, "iteration is attach order");

    for ip in [900, 0, 300, 0xffff_ffff] {
        assert!(install(&mut t, ip));
    }
    assert!(!install(&mut t, 6), "no pod attached there: refused");
    assert_eq!(t.acl_ips(), [0, 300, 900, 0xffff_ffff]);

    assert!(t.apply(PolicyUpdate::RemoveAcl { ip: 300 }, &TRIES).applied);
    assert_eq!(t.acl_ips(), [0, 900, 0xffff_ffff]);
}

#[test]
fn crash_reset_counts_what_it_wiped_and_keeps_attachments() {
    let mut t = PodTable::new();
    for ip in 1..=6u32 {
        attach(&mut t, ip, ip + 100);
    }
    for ip in [2, 4, 5] {
        install(&mut t, ip);
    }
    t.quarantine(4);
    t.quarantine(6);
    let before = attach_order(&t);

    assert_eq!(t.crash_reset(), (3, 2));
    assert!(t.acl_ips().is_empty());
    assert!(!t.is_quarantined(4) && !t.is_quarantined(6));
    assert_eq!(attach_order(&t), before, "attachments survive a crash");
    assert_eq!(t.crash_reset(), (0, 0), "nothing left to lose");
}

#[test]
fn lookups_survive_growth_from_one_to_three_hundred_pods() {
    // Dense pod-like addresses (one /24 after another) so home slots
    // collide; the index doubles from 8 slots up past 600 on the way.
    let ip_of = |i: u32| 0x0a01_0000 + i;
    let mut t = PodTable::new();
    for n in 0..300u32 {
        assert!(t.get(ip_of(n)).is_none(), "pod {n} before its attach");
        assert!(attach(&mut t, ip_of(n), 1_000 + n));
        if n % 7 == 0 {
            assert!(install(&mut t, ip_of(n)));
        }
        // Every pod attached so far is still where it was put.
        for i in 0..=n {
            let pod = t.get(ip_of(i)).expect("attached pod");
            assert_eq!((pod.ip, pod.vport), (ip_of(i), 1_000 + i));
            assert_eq!(t.rules_at(ip_of(i)), if i % 7 == 0 { 2 } else { 0 });
        }
    }
    assert_eq!(t.pods().len(), 300);
    assert_eq!(t.acl_ips().len(), 43);
    let stray = FlowKey::tcp([10, 0, 0, 1], [10, 2, 0, 0], 1, 80);
    assert_eq!(t.classify(&stray), (Action::Deny, 0, None), "unroutable");
}
