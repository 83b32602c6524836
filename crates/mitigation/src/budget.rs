//! Admission control: bound the masks a policy may inject.
//!
//! The CMS (or the node agent) runs the same reachable-mask analysis the
//! attacker would and refuses policies whose complement decomposition
//! exceeds a budget. Picking the budget is the trade-off the paper's
//! demo discussion points at: ordinary microsegmentation is not free of
//! masks either — "allow the cluster /8 to one port" already reaches
//! 8 × 16 = 128 — so the default of 256 admits such policies while
//! rejecting the 512- and 8192-mask attack shapes.

use pi_classifier::table::reachable_megaflow_mask_count;
use pi_classifier::FlowTable;
use pi_core::Field;

/// Outcome of a policy admission check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Within budget; install.
    Admit {
        /// Predicted reachable mask count.
        predicted_masks: u64,
    },
    /// Over budget; refuse with the evidence.
    Reject {
        /// Predicted reachable mask count.
        predicted_masks: u64,
        /// The configured budget it exceeds.
        budget: u64,
    },
}

impl AdmissionDecision {
    /// True when the policy was admitted.
    pub fn admitted(&self) -> bool {
        matches!(self, AdmissionDecision::Admit { .. })
    }
}

/// Per-pod mask budget enforcement.
#[derive(Debug, Clone, Copy)]
pub struct MaskBudget {
    /// Maximum reachable masks a single pod's policy may produce.
    pub per_pod_limit: u64,
}

impl Default for MaskBudget {
    fn default() -> Self {
        MaskBudget { per_pod_limit: 256 }
    }
}

impl MaskBudget {
    /// A budget with an explicit limit.
    pub fn new(per_pod_limit: u64) -> Self {
        MaskBudget { per_pod_limit }
    }

    /// Checks a compiled policy against the budget, given the datapath's
    /// trie configuration (the same fields the slow path will use).
    pub fn check(&self, table: &FlowTable, trie_fields: &[Field]) -> AdmissionDecision {
        let predicted_masks = reachable_megaflow_mask_count(table, trie_fields);
        if predicted_masks <= self.per_pod_limit {
            AdmissionDecision::Admit { predicted_masks }
        } else {
            AdmissionDecision::Reject {
                predicted_masks,
                budget: self.per_pod_limit,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_attack::AttackSpec;
    use pi_cms::{PolicyCompiler, PolicyDialect};

    const TRIE_FIELDS: [Field; 4] = [Field::IpSrc, Field::IpDst, Field::TpSrc, Field::TpDst];

    #[test]
    fn rejects_both_paper_attacks() {
        let budget = MaskBudget::default();
        for spec in [
            AttackSpec::masks_512(PolicyDialect::Kubernetes),
            AttackSpec::masks_8192(),
        ] {
            let decision = budget.check(&spec.compile(), &TRIE_FIELDS);
            match decision {
                AdmissionDecision::Reject {
                    predicted_masks, ..
                } => {
                    assert_eq!(predicted_masks, spec.predicted_masks());
                }
                _ => panic!("attack policy must be rejected: {decision:?}"),
            }
        }
    }

    #[test]
    fn admits_conventional_policies() {
        let budget = MaskBudget::default();
        // "Allow the cluster /8 to my service port" — the victim's own
        // policy from the Fig. 3 scenario reaches 8 × 16 = 128 masks;
        // the default budget must admit it (the trade-off the module
        // docs discuss).
        let victim = pi_cms::NetworkPolicy {
            name: "web".into(),
            ingress: vec![pi_cms::IngressRule {
                from: vec!["10.0.0.0/8".parse().unwrap()],
                ports: vec![(pi_cms::Protocol::Tcp, Some(5201))],
            }],
        };
        let decision = budget.check(&PolicyCompiler.compile_k8s(&victim), &TRIE_FIELDS);
        match decision {
            AdmissionDecision::Admit { predicted_masks } => assert_eq!(predicted_masks, 128),
            _ => panic!("victim policy must be admitted: {decision:?}"),
        }
        // An allow-all policy is trivially fine.
        let open = pi_cms::NetworkPolicy {
            name: "open".into(),
            ingress: vec![pi_cms::IngressRule {
                from: vec![],
                ports: vec![],
            }],
        };
        assert!(budget
            .check(&PolicyCompiler.compile_k8s(&open), &TRIE_FIELDS)
            .admitted());
    }

    #[test]
    fn budget_scales_with_limit() {
        let table = AttackSpec::masks_512(PolicyDialect::Kubernetes).compile();
        assert!(!MaskBudget::new(511).check(&table, &TRIE_FIELDS).admitted());
        assert!(MaskBudget::new(512).check(&table, &TRIE_FIELDS).admitted());
    }

    #[test]
    fn no_tries_means_no_explosion_to_reject() {
        // With tries disabled the datapath un-wildcards whole fields:
        // the attack produces 1 mask and sails through admission (and
        // harms no one).
        let table = AttackSpec::masks_8192().compile();
        let decision = MaskBudget::default().check(&table, &[]);
        match decision {
            AdmissionDecision::Admit { predicted_masks } => assert_eq!(predicted_masks, 1),
            _ => panic!("nothing to reject without tries"),
        }
    }
}
