//! Cloud topology and the policy API surface.
//!
//! A [`Cloud`] is the management-plane view of Fig. 1: server nodes, a
//! fabric between them, tenants, and pods with virtual ports. Tenants
//! attach policies to **their own** pods — exactly the privilege the
//! attack needs and no more.

use std::collections::HashMap;
use std::fmt;

use pi_classifier::FlowTable;
use pi_core::{BuildFoldHasher, MacAddr};

use crate::compile::PolicyCompiler;
use crate::policy::{CalicoPolicy, NetworkPolicy, PolicyDialect, SecurityGroup};

/// Tenant identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

/// Server-node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Pod/VM identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PodId(pub u32);

impl fmt::Display for PodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pod{}", self.0)
    }
}

/// A provisioned pod/VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pod {
    /// Identity.
    pub id: PodId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Hosting node.
    pub node: NodeId,
    /// Virtual port number on the node's hypervisor switch.
    pub vport: u32,
    /// Pod IP (host byte order), allocated from `10.0.0.0/8` like the
    /// paper's example deployment.
    pub ip: u32,
    /// Pod MAC.
    pub mac: MacAddr,
}

/// CMS-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmsError {
    /// The pod does not exist.
    NoSuchPod(PodId),
    /// The tenant does not own the pod it is configuring.
    NotYourPod {
        /// Who asked.
        tenant: TenantId,
        /// Whose pod it is.
        owner: TenantId,
    },
    /// The policy exceeds the per-pod compiled-rule budget.
    TooManyRules {
        /// Rules after compilation.
        got: usize,
        /// Configured maximum.
        limit: usize,
    },
    /// The node was never registered with [`Cloud::add_node`].
    NoSuchNode(NodeId),
}

impl fmt::Display for CmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmsError::NoSuchPod(p) => write!(f, "{p} does not exist"),
            CmsError::NotYourPod { tenant, owner } => {
                write!(
                    f,
                    "tenant {} cannot configure tenant {}'s pod",
                    tenant.0, owner.0
                )
            }
            CmsError::TooManyRules { got, limit } => {
                write!(f, "policy compiles to {got} rules, limit {limit}")
            }
            CmsError::NoSuchNode(n) => write!(f, "node {} is not registered", n.0),
        }
    }
}

impl std::error::Error for CmsError {}

/// How the scheduler chooses a hosting node for new pods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Spread pods across nodes, least-loaded first.
    RoundRobin,
    /// Adversarial co-location: place onto the nodes already hosting the
    /// target tenant's pods (the attacker's launch-until-colocated
    /// strategy from the multi-tenant DoS literature).
    Colocate(TenantId),
}

/// The compiled artefact the CMS hands to the node agent: which port of
/// which node gets which table.
#[derive(Debug, Clone)]
pub struct CompiledPolicy {
    /// Target pod.
    pub pod: PodId,
    /// Hosting node (where the switch lives).
    pub node: NodeId,
    /// The vport the ACL attaches to.
    pub vport: u32,
    /// Dialect it came from.
    pub dialect: PolicyDialect,
    /// The whitelist + default-deny table.
    pub table: FlowTable,
}

/// The cloud management system: inventory + policy admission.
#[derive(Debug, Default)]
pub struct Cloud {
    tenants: Vec<TenantId>,
    nodes: Vec<NodeId>,
    pods: HashMap<PodId, Pod, BuildFoldHasher>,
    next_pod: u32,
    next_vport: HashMap<NodeId, u32, BuildFoldHasher>,
    /// Per-pod compiled-rule cap (a real CMS quota; generous default).
    pub max_rules_per_pod: usize,
    compiler: PolicyCompiler,
}

impl Cloud {
    /// An empty cloud.
    pub fn new() -> Self {
        Cloud {
            max_rules_per_pod: 4096,
            ..Default::default()
        }
    }

    /// Registers a tenant.
    pub fn add_tenant(&mut self) -> TenantId {
        let id = TenantId(self.tenants.len() as u32);
        self.tenants.push(id);
        id
    }

    /// Registers a server node.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(id);
        self.next_vport.insert(id, 1);
        id
    }

    /// Provisions a pod for `tenant` on `node`, allocating its vport,
    /// IP (from 10.0.0.0/8) and MAC. A node [`Cloud::add_node`] never
    /// registered is refused: nothing is allocated.
    pub fn add_pod(&mut self, tenant: TenantId, node: NodeId) -> Result<PodId, CmsError> {
        self.provision(tenant, node).map(|p| p.id)
    }

    /// [`Cloud::add_pod`], handing back the pod's whole record.
    pub fn provision(&mut self, tenant: TenantId, node: NodeId) -> Result<&Pod, CmsError> {
        let next_vport = self
            .next_vport
            .get_mut(&node)
            .ok_or(CmsError::NoSuchNode(node))?;
        let vport = *next_vport;
        *next_vport += 1;
        let id = PodId(self.next_pod);
        self.next_pod += 1;
        // 10.<node>.<pod+1 as 16 bits> — deterministic, collision-free
        // for the scales this workspace simulates, and never a .0 host.
        let ip = 0x0a00_0000 | ((node.0 & 0xff) << 16) | ((id.0 + 1) & 0xffff);
        let pod = Pod {
            id,
            tenant,
            node,
            vport,
            ip,
            mac: MacAddr::from_id(id.0),
        };
        Ok(self.pods.entry(id).or_insert(pod))
    }

    /// Pod lookup.
    pub fn pod(&self, id: PodId) -> Option<&Pod> {
        self.pods.get(&id)
    }

    /// All registered nodes, in id order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of pods hosted on `node` (no allocation — the placement
    /// hot path).
    pub(crate) fn pod_count_on(&self, node: NodeId) -> usize {
        self.pods.values().filter(|p| p.node == node).count()
    }

    /// Provisions `count` pods for `tenant`, choosing hosting nodes via
    /// `strategy` — the scheduler knob a fleet-scale experiment turns to
    /// model benign spreading vs an attacker engineering co-location.
    /// A cloud with no nodes has nowhere to put a pod: it places none
    /// and returns an empty list.
    pub fn place_pods(
        &mut self,
        tenant: TenantId,
        count: usize,
        strategy: PlacementStrategy,
    ) -> Vec<PodId> {
        (0..count)
            .map_while(|_| {
                let node = self.pick_node(tenant, &strategy)?;
                self.add_pod(tenant, node).ok()
            })
            .collect()
    }

    /// A registered node for `tenant`'s next pod; `None` exactly when
    /// the cloud has no nodes. (Co-location targets are registered too:
    /// [`Cloud::provision`] never places a pod anywhere else.)
    fn pick_node(&self, tenant: TenantId, strategy: &PlacementStrategy) -> Option<NodeId> {
        match strategy {
            // Spread: next pod goes to the least-loaded node (ties by id),
            // which is round-robin when pods arrive one at a time.
            PlacementStrategy::RoundRobin => self
                .nodes
                .iter()
                .copied()
                .min_by_key(|n| (self.pod_count_on(*n), n.0)),
            // Adversarial co-location: land on the target tenant's nodes,
            // least-loaded-by-us first (the attacker wants coverage, not
            // density). Falls back to round-robin when the target has no
            // pods yet.
            PlacementStrategy::Colocate(target) => {
                let target_nodes: Vec<NodeId> = {
                    let mut nodes: Vec<NodeId> =
                        self.pods_of(*target).iter().map(|p| p.node).collect();
                    nodes.sort();
                    nodes.dedup();
                    nodes
                };
                if target_nodes.is_empty() {
                    return self.pick_node(tenant, &PlacementStrategy::RoundRobin);
                }
                target_nodes.into_iter().min_by_key(|n| {
                    let mine = self
                        .pods
                        .values()
                        .filter(|p| p.node == *n && p.tenant == tenant)
                        .count();
                    (mine, n.0)
                })
            }
        }
    }

    /// All pods of a tenant, in id order.
    pub(crate) fn pods_of(&self, tenant: TenantId) -> Vec<&Pod> {
        let mut pods: Vec<&Pod> = self.pods.values().filter(|p| p.tenant == tenant).collect();
        pods.sort_by_key(|p| p.id);
        pods
    }

    fn admit(
        &self,
        tenant: TenantId,
        pod_id: PodId,
        dialect: PolicyDialect,
        table: FlowTable,
    ) -> Result<CompiledPolicy, CmsError> {
        let pod = self.pods.get(&pod_id).ok_or(CmsError::NoSuchPod(pod_id))?;
        if pod.tenant != tenant {
            return Err(CmsError::NotYourPod {
                tenant,
                owner: pod.tenant,
            });
        }
        if table.len() > self.max_rules_per_pod {
            return Err(CmsError::TooManyRules {
                got: table.len(),
                limit: self.max_rules_per_pod,
            });
        }
        Ok(CompiledPolicy {
            pod: pod_id,
            node: pod.node,
            vport: pod.vport,
            dialect,
            table,
        })
    }

    /// Tenant applies a Kubernetes NetworkPolicy to its pod.
    pub fn apply_k8s_policy(
        &self,
        tenant: TenantId,
        pod: PodId,
        policy: &NetworkPolicy,
    ) -> Result<CompiledPolicy, CmsError> {
        let table = self.compiler.compile_k8s(policy);
        self.admit(tenant, pod, PolicyDialect::Kubernetes, table)
    }

    /// Tenant applies an OpenStack security group to its pod/VM.
    pub fn apply_security_group(
        &self,
        tenant: TenantId,
        pod: PodId,
        sg: &SecurityGroup,
    ) -> Result<CompiledPolicy, CmsError> {
        let table = self.compiler.compile_security_group(sg);
        self.admit(tenant, pod, PolicyDialect::OpenStack, table)
    }

    /// Tenant applies a Calico policy to its pod.
    pub fn apply_calico_policy(
        &self,
        tenant: TenantId,
        pod: PodId,
        policy: &CalicoPolicy,
    ) -> Result<CompiledPolicy, CmsError> {
        let table = self.compiler.compile_calico(policy);
        self.admit(tenant, pod, PolicyDialect::Calico, table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NetworkPolicy;

    fn two_tenant_cloud() -> (Cloud, TenantId, TenantId, PodId, PodId) {
        let mut cloud = Cloud::new();
        let victim = cloud.add_tenant();
        let attacker = cloud.add_tenant();
        let node = cloud.add_node();
        let vpod = cloud.add_pod(victim, node).unwrap();
        let apod = cloud.add_pod(attacker, node).unwrap();
        (cloud, victim, attacker, vpod, apod)
    }

    #[test]
    fn provisioning_allocates_unique_addresses() {
        let (cloud, victim, _, vpod, apod) = two_tenant_cloud();
        let v = cloud.pod(vpod).unwrap();
        let a = cloud.pod(apod).unwrap();
        assert_ne!(v.ip, a.ip);
        assert_ne!(v.mac, a.mac);
        assert_ne!(v.vport, a.vport);
        assert_eq!(v.ip >> 24, 10, "pods live in 10.0.0.0/8");
        assert_eq!(cloud.pods_of(victim).len(), 1);
    }

    #[test]
    fn vports_are_per_node() {
        let mut cloud = Cloud::new();
        let t = cloud.add_tenant();
        let n1 = cloud.add_node();
        let n2 = cloud.add_node();
        let p1 = cloud.add_pod(t, n1).unwrap();
        let p2 = cloud.add_pod(t, n2).unwrap();
        assert_eq!(cloud.pod(p1).unwrap().vport, 1);
        assert_eq!(cloud.pod(p2).unwrap().vport, 1, "fresh node, fresh vports");
    }

    #[test]
    fn tenant_can_policy_own_pod() {
        let (cloud, _, attacker, _, apod) = two_tenant_cloud();
        let policy = NetworkPolicy::allow_from_cidr("mine", "10.0.0.0/8".parse().unwrap());
        let compiled = cloud.apply_k8s_policy(attacker, apod, &policy).unwrap();
        assert_eq!(compiled.pod, apod);
        assert_eq!(compiled.dialect, PolicyDialect::Kubernetes);
        assert_eq!(compiled.table.len(), 2);
        assert_eq!(compiled.vport, cloud.pod(apod).unwrap().vport);
    }

    #[test]
    fn tenant_cannot_policy_foreign_pod() {
        let (cloud, victim, attacker, vpod, _) = two_tenant_cloud();
        let policy = NetworkPolicy::allow_from_cidr("evil", "10.0.0.0/8".parse().unwrap());
        let err = cloud.apply_k8s_policy(attacker, vpod, &policy).unwrap_err();
        assert_eq!(
            err,
            CmsError::NotYourPod {
                tenant: attacker,
                owner: victim
            }
        );
    }

    #[test]
    fn unknown_pod_is_rejected() {
        let (cloud, _, attacker, _, _) = two_tenant_cloud();
        let policy = NetworkPolicy::allow_from_cidr("x", "10.0.0.0/8".parse().unwrap());
        let err = cloud
            .apply_k8s_policy(attacker, PodId(999), &policy)
            .unwrap_err();
        assert_eq!(err, CmsError::NoSuchPod(PodId(999)));
    }

    #[test]
    fn rule_budget_enforced() {
        let (mut cloud, _, attacker, _, apod) = two_tenant_cloud();
        cloud.max_rules_per_pod = 3;
        // 4 source blocks ⇒ 4 allows + deny = 5 rules > 3.
        let policy = NetworkPolicy {
            name: "big".into(),
            ingress: vec![crate::policy::IngressRule {
                from: (0..4u8)
                    .map(|i| crate::net::Cidr::new(u32::from(i) << 24, 8).unwrap())
                    .collect(),
                ports: vec![],
            }],
        };
        let err = cloud.apply_k8s_policy(attacker, apod, &policy).unwrap_err();
        assert!(matches!(err, CmsError::TooManyRules { got: 5, limit: 3 }));
    }

    #[test]
    fn a_node_less_cloud_places_no_pods() {
        let mut cloud = Cloud::new();
        let t = cloud.add_tenant();
        for strategy in [
            PlacementStrategy::RoundRobin,
            PlacementStrategy::Colocate(t),
        ] {
            assert!(cloud.place_pods(t, 3, strategy).is_empty());
        }
        assert!(cloud.pods_of(t).is_empty());
    }

    #[test]
    fn round_robin_placement_spreads() {
        let mut cloud = Cloud::new();
        let t = cloud.add_tenant();
        for _ in 0..4 {
            cloud.add_node();
        }
        let pods = cloud.place_pods(t, 8, PlacementStrategy::RoundRobin);
        assert_eq!(pods.len(), 8);
        for n in cloud.nodes().to_vec() {
            assert_eq!(cloud.pod_count_on(n), 2, "even spread on {n:?}");
        }
    }

    #[test]
    fn colocation_targets_victim_nodes() {
        let mut cloud = Cloud::new();
        let victim = cloud.add_tenant();
        let attacker = cloud.add_tenant();
        for _ in 0..6 {
            cloud.add_node();
        }
        let vpods = cloud.place_pods(victim, 2, PlacementStrategy::RoundRobin);
        let victim_nodes: Vec<NodeId> = vpods.iter().map(|p| cloud.pod(*p).unwrap().node).collect();
        let apods = cloud.place_pods(attacker, 4, PlacementStrategy::Colocate(victim));
        for p in &apods {
            assert!(
                victim_nodes.contains(&cloud.pod(*p).unwrap().node),
                "attacker pod must land on a victim node"
            );
        }
        // With no victim pods, colocation degrades to round-robin.
        let loner = cloud.add_tenant();
        let pods = cloud.place_pods(attacker, 2, PlacementStrategy::Colocate(loner));
        assert_eq!(pods.len(), 2);
    }

    #[test]
    fn an_unregistered_node_hosts_nothing_and_colocation_stays_registered() {
        let mut cloud = Cloud::new();
        let victim = cloud.add_tenant();
        let attacker = cloud.add_tenant();
        let n0 = cloud.add_node();
        let stray = NodeId(7);
        assert_eq!(
            cloud.provision(victim, stray).err(),
            Some(CmsError::NoSuchNode(stray))
        );
        assert!(cloud.pods_of(victim).is_empty(), "nothing allocated");
        let apods = cloud.place_pods(attacker, 2, PlacementStrategy::Colocate(victim));
        assert_eq!(apods.len(), 2);
        for p in apods {
            assert_eq!(
                cloud.pod(p).unwrap().node,
                n0,
                "only registered nodes host pods"
            );
        }
        assert_eq!(cloud.nodes(), [n0]);
        assert!(CmsError::NoSuchNode(stray).to_string().contains("node 7"));
    }

    #[test]
    fn error_messages_readable() {
        let e = CmsError::NotYourPod {
            tenant: TenantId(1),
            owner: TenantId(0),
        };
        assert!(e.to_string().contains("tenant 1"));
        assert!(CmsError::NoSuchPod(PodId(7)).to_string().contains("pod7"));
    }
}
