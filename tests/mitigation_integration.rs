//! Cross-crate mitigation integration: the defender's tools applied to
//! the exact artefacts the attacker produces, plus a randomised
//! property test of the admission budget.

use pi_mitigation::{attribute_masks, MaskBudget};
use policy_injection::prelude::*;

const TRIE_FIELDS: [Field; 4] = [Field::IpSrc, Field::IpDst, Field::TpSrc, Field::TpDst];

/// The admission pipeline a hardened CMS would run: compile → predict →
/// reject. The attacker's specs fail; the Fig. 3 victim's policy passes.
#[test]
fn hardened_cms_filters_attack_policies_only() {
    let budget = MaskBudget::default();
    for spec in [
        AttackSpec::masks_512(PolicyDialect::Kubernetes),
        AttackSpec::masks_512(PolicyDialect::OpenStack),
        AttackSpec::masks_8192(),
    ] {
        assert!(
            !budget.check(&spec.compile(), &TRIE_FIELDS).admitted(),
            "attack spec {spec:?} must be rejected"
        );
    }
    let victim = NetworkPolicy {
        name: "victim-iperf".into(),
        ingress: vec![pi_cms::IngressRule {
            from: vec!["10.0.0.0/8".parse().unwrap()],
            ports: vec![(pi_cms::Protocol::Tcp, Some(5201))],
        }],
    };
    assert!(budget
        .check(&PolicyCompiler.compile_k8s(&victim), &TRIE_FIELDS)
        .admitted());
}

/// After the covert populate pass, attribution pinpoints the attacker's
/// pod with the full mask count, even amid victim and background state.
#[test]
fn attribution_names_the_attacker_amid_noise() {
    let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
    let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let bg_ip = u32::from_be_bytes([10, 1, 0, 20]);
    let mut sw = VSwitch::new(DpConfig::default());
    sw.attach_pod(victim_ip, 1);
    sw.attach_pod(attacker_ip, 2);
    sw.attach_pod(bg_ip, 3);
    let spec = AttackSpec::masks_8192();
    sw.install_acl(attacker_ip, spec.compile());
    // Honest traffic to the other pods.
    let mut t = SimTime::from_millis(1);
    for i in 0..50u16 {
        sw.process(
            &FlowKey::tcp([10, 0, 0, 10], [10, 1, 0, 10], 40_000 + i, 5201),
            t,
        );
        sw.process(
            &FlowKey::tcp([10, 0, 1, 9], [10, 1, 0, 20], 9_000 + i, 80),
            t,
        );
        t += SimTime::from_micros(10);
    }
    // Covert populate.
    let seq = CovertSequence::new(spec.build_target(attacker_ip));
    for p in seq.populate_packets() {
        sw.process(&p, t);
        t += SimTime::from_micros(10);
    }
    let report = attribute_masks(&sw);
    assert_eq!(report[0].ip_dst, attacker_ip);
    assert_eq!(report[0].masks, 8192);
    let others: usize = report[1..].iter().map(|a| a.masks).sum();
    assert!(
        others <= 4,
        "honest pods carry trivial mask counts: {others}"
    );
}

/// The mask budget is monotone: admitting at limit L implies admitting
/// at any L' ≥ L, and the reported prediction is limit-independent.
#[test]
fn budget_monotonicity() {
    pi_core::for_cases(96, 0x52, |rng| {
        let ip_len = 1 + rng.gen_range(32) as u8;
        let with_port = rng.gen_bool(0.5);
        let limit = 1 + rng.gen_range(9_999);
        let spec = AttackSpec {
            dialect: PolicyDialect::Kubernetes,
            allow_src: Cidr::new(0xcb00_7107, ip_len).unwrap(),
            dst_port: with_port.then_some(443),
            src_port: None,
        };
        let table = spec.compile();
        let d1 = MaskBudget::new(limit).check(&table, &TRIE_FIELDS);
        let d2 = MaskBudget::new(limit * 2).check(&table, &TRIE_FIELDS);
        if d1.admitted() {
            assert!(d2.admitted());
        }
        let expected = spec.predicted_masks();
        let reported = match d1 {
            pi_mitigation::AdmissionDecision::Admit { predicted_masks } => predicted_masks,
            pi_mitigation::AdmissionDecision::Reject {
                predicted_masks, ..
            } => predicted_masks,
        };
        assert_eq!(reported, expected);
    });
}
