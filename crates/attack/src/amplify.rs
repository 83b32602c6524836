//! Multi-pod amplification — scaling the attack across an *arbitrary
//! number of pods*, and the perhaps-surprising arithmetic of doing so.
//!
//! A mask is a set of significant *bits*, not values: two pods with
//! byte-identical ACLs generate megaflows whose **entries** differ (the
//! exact `ip_dst` differs) but whose **masks coincide** — the subtable
//! count does not grow, only the per-subtable population. Masks add
//! only across pods whose ACLs differ in *field shape* (e.g. one pod's
//! policy touches source ports and another's does not). This module
//! plans multi-pod campaigns and exposes the aggregate analytics; the
//! model is validated against the live datapath in
//! `tests/amplification.rs`. The practical upshots for both sides:
//! entry amplification still pressures the flow limit (a different
//! resource), and a defender's per-pod mask attribution stays sharp
//! even against multi-pod campaigns.

use pi_core::SimTime;

use crate::acl::AttackSpec;
use crate::covert::CovertSequence;
use crate::schedule::AttackSchedule;

/// A coordinated injection across several pods of one tenant.
#[derive(Debug, Clone)]
pub struct MultiPodAttack {
    /// One spec per attacking pod (usually identical).
    pub specs: Vec<(u32, AttackSpec)>,
}

impl MultiPodAttack {
    /// The same spec replicated across `pod_ips`.
    pub fn uniform(pod_ips: &[u32], spec: AttackSpec) -> Self {
        MultiPodAttack {
            specs: pod_ips.iter().map(|ip| (*ip, spec)).collect(),
        }
    }

    /// Aggregate predicted masks: per-pod counts **sum** (each pod's
    /// megaflows carry a different exact `ip_dst`, hence different mask
    /// sets only when the ACL field sets differ — but with identical
    /// ACLs the *masks* coincide!). See [`MultiPodAttack::predicted_masks`]
    /// for the exact rule.
    ///
    /// The subtlety: a mask is the set of significant bits, which does
    /// not include the `ip_dst` *value*. Identical ACLs on two pods
    /// produce identical mask sets — entries double, masks don't. To
    /// make masks add, each pod's spec must differ in field shape
    /// (a second matched field, as `tests/amplification.rs` shows; a
    /// shorter prefix only yields a subset of the longest one's masks).
    pub fn predicted_masks(&self) -> u64 {
        use std::collections::BTreeSet;
        // A mask's identity here: the (field, prefix-length) multiset,
        // which (ip_len, has_dst, has_src) determines per spec.
        let mut masks: BTreeSet<(u8, u8, bool, u8, bool)> = BTreeSet::new();
        for (_, spec) in &self.specs {
            for ip_bits in 1..=spec.allow_src.len.max(1) {
                for dst_bits in 1..=if spec.dst_port.is_some() { 16 } else { 1 } {
                    for src_bits in 1..=if spec.src_port.is_some() { 16 } else { 1 } {
                        masks.insert((
                            ip_bits,
                            dst_bits,
                            spec.dst_port.is_some(),
                            src_bits,
                            spec.src_port.is_some(),
                        ));
                    }
                }
            }
        }
        masks.len() as u64
    }

    /// Total megaflow entries after all populate passes (these *always*
    /// add across pods: entries differ in `ip_dst`).
    pub fn predicted_entries(&self) -> u64 {
        self.specs
            .iter()
            .map(|(ip, spec)| CovertSequence::new(spec.build_target(*ip)).packet_count())
            .sum()
    }

    /// Builds one paced schedule per pod, splitting `total_bandwidth_bps`
    /// evenly.
    pub fn schedules(&self, total_bandwidth_bps: f64, start: SimTime) -> Vec<AttackSchedule> {
        let share = total_bandwidth_bps / self.specs.len().max(1) as f64;
        self.specs
            .iter()
            .map(|(ip, spec)| {
                AttackSchedule::new(CovertSequence::new(spec.build_target(*ip)), share, start)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cms::PolicyDialect;

    fn ips(n: usize) -> Vec<u32> {
        (0..n as u32)
            .map(|i| u32::from_be_bytes([10, 1, 1, i as u8 + 1]))
            .collect()
    }

    #[test]
    fn uniform_pods_share_masks_but_add_entries() {
        let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
        let attack = MultiPodAttack::uniform(&ips(4), spec);
        // Identical ACL shapes ⇒ identical mask sets.
        assert_eq!(attack.predicted_masks(), 512);
        // Entries quadruple.
        assert_eq!(attack.predicted_entries(), 4 * 33 * 17);
    }

    #[test]
    fn mixed_dialects_do_add_masks() {
        // One pod with dst-port-only, one adding src ports: the second
        // field set strictly contains new shapes.
        let mut attack =
            MultiPodAttack::uniform(&ips(1), AttackSpec::masks_512(PolicyDialect::Kubernetes));
        attack
            .specs
            .push((u32::from_be_bytes([10, 1, 1, 99]), AttackSpec::masks_8192()));
        // 512 (ip×dst, no src) + 8192 (ip×dst×src) — shapes differ in
        // the has_src flag, so they union to 8704.
        assert_eq!(attack.predicted_masks(), 512 + 8192);
    }

    #[test]
    fn bandwidth_split_is_even() {
        let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
        let attack = MultiPodAttack::uniform(&ips(4), spec);
        let schedules = attack.schedules(2e6, SimTime::from_secs(60));
        assert_eq!(schedules.len(), 4);
        for s in &schedules {
            assert!((s.pps() - 2e6 / 4.0 / 512.0).abs() < 1.0); // 64B×8=512 bits
        }
    }
}
