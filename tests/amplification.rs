//! Multi-pod amplification, model vs. live datapath: identical ACL
//! shapes share masks (entries add); distinct field shapes add masks.

use pi_attack::MultiPodAttack;
use policy_injection::prelude::*;

fn run_campaign(attack: &MultiPodAttack) -> (usize, usize) {
    let mut sw = VSwitch::new(DpConfig::default());
    for (i, (ip, spec)) in attack.specs.iter().enumerate() {
        sw.attach_pod(*ip, i as u32 + 1);
        sw.install_acl(*ip, spec.compile());
    }
    let mut t = SimTime::from_millis(1);
    for (ip, spec) in &attack.specs {
        let seq = CovertSequence::new(spec.build_target(*ip));
        for p in seq.populate_packets() {
            sw.process(&p, t);
            t += SimTime::from_micros(20);
        }
    }
    (sw.mask_count(), sw.megaflow_count())
}

#[test]
fn identical_acls_share_masks_entries_add() {
    let pods: Vec<u32> = (1..=4u32)
        .map(|i| u32::from_be_bytes([10, 1, 1, i as u8]))
        .collect();
    let attack = MultiPodAttack::uniform(&pods, AttackSpec::masks_512(PolicyDialect::Kubernetes));
    let (masks, entries) = run_campaign(&attack);
    assert_eq!(masks as u64, attack.predicted_masks(), "masks shared");
    assert_eq!(masks, 512);
    assert_eq!(entries as u64, attack.predicted_entries(), "entries add");
    assert_eq!(entries, 4 * 33 * 17);
}

#[test]
fn mixed_field_shapes_add_masks() {
    let mut attack = MultiPodAttack::uniform(
        &[u32::from_be_bytes([10, 1, 1, 1])],
        AttackSpec::masks_512(PolicyDialect::Kubernetes),
    );
    attack
        .specs
        .push((u32::from_be_bytes([10, 1, 1, 2]), AttackSpec::masks_8192()));
    let (masks, _) = run_campaign(&attack);
    assert_eq!(masks as u64, attack.predicted_masks());
    assert_eq!(masks, 512 + 8192, "disjoint shapes union");
}

#[test]
fn attribution_still_separates_multi_pod_campaigns() {
    let pods: Vec<u32> = (1..=3u32)
        .map(|i| u32::from_be_bytes([10, 1, 1, i as u8]))
        .collect();
    let attack = MultiPodAttack::uniform(&pods, AttackSpec::masks_512(PolicyDialect::Kubernetes));
    let mut sw = VSwitch::new(DpConfig::default());
    for (i, (ip, spec)) in attack.specs.iter().enumerate() {
        sw.attach_pod(*ip, i as u32 + 1);
        sw.install_acl(*ip, spec.compile());
    }
    let mut t = SimTime::from_millis(1);
    for (ip, spec) in &attack.specs {
        let seq = CovertSequence::new(spec.build_target(*ip));
        for p in seq.populate_packets() {
            sw.process(&p, t);
            t += SimTime::from_micros(20);
        }
    }
    // Each pod is individually over a 256-mask threshold even though
    // the masks are shared — attribution counts per-destination masks,
    // the deployable eviction signal.
    let offenders = pi_mitigation::detect_offenders(&sw, 256);
    assert_eq!(offenders.len(), 3, "every attacking pod is named");
    for o in &offenders {
        assert_eq!(o.masks, 512);
        assert!(pods.contains(&o.ip_dst));
    }
}
