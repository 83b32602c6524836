//! [`ClusterBuilder`]: tenant placement on top of the `pi_cms`
//! tenant/pod model, glued to the fleet engine.
//!
//! The CMS owns identity (tenants, pods, IPs, vports, policy
//! admission); the fleet engine owns execution (shards, queues, cycle
//! budgets). The builder keeps the two consistent: every pod the cloud
//! schedules is attached to its shard's switch, and every policy that
//! passes CMS admission lands on the right home switch.

use pi_cms::cloud::CompiledPolicy;
use pi_cms::{Cloud, CmsError, NodeId, PlacementStrategy, Pod, PodId, TenantId};
use pi_datapath::DpConfig;
use pi_traffic::TrafficSource;

use crate::{BuildError, FleetBuilder, FleetSim, SimConfig};

/// Builds a cluster: a CMS cloud and a fleet simulation, kept in sync.
/// Placement hands back each pod's record ([`Pod`]: id, tenant, node,
/// vport, ip), so callers never look a pod up again.
pub struct ClusterBuilder {
    cloud: Cloud,
    pub(crate) fleet: FleetBuilder,
    /// The first host [`ClusterBuilder::place_pod_on`] was asked for
    /// that the cluster does not have, for [`ClusterBuilder::build`] to
    /// report.
    unknown_host: Option<usize>,
}

/// The shard hosting `pod` (cloud node *i* is fleet shard *i*).
pub(crate) fn host_of(pod: &Pod) -> usize {
    pod.node.0 as usize
}

impl ClusterBuilder {
    /// A cluster of `hosts` identical hosts. Cloud node *i* is fleet
    /// shard *i* by construction: both number from 0 in registration
    /// order, and nothing but this loop registers either.
    pub fn new(cfg: SimConfig, hosts: usize, dp: DpConfig) -> Self {
        let mut cloud = Cloud::new();
        let mut fleet = FleetBuilder::new(cfg);
        for _ in 0..hosts {
            cloud.add_node();
            fleet.add_host(dp.clone());
        }
        ClusterBuilder {
            cloud,
            fleet,
            unknown_host: None,
        }
    }

    /// Registers a tenant.
    pub fn add_tenant(&mut self) -> TenantId {
        self.cloud.add_tenant()
    }

    /// Schedules `count` pods for `tenant` via `strategy` and attaches
    /// each to its host's switch.
    pub fn place_pods(
        &mut self,
        tenant: TenantId,
        count: usize,
        strategy: PlacementStrategy,
    ) -> Vec<Pod> {
        let ids = self.cloud.place_pods(tenant, count, strategy);
        // The cloud scheduled these ids a line ago: every lookup finds
        // its record.
        let pods: Vec<Pod> = ids
            .iter()
            .filter_map(|id| self.cloud.pod(*id).cloned())
            .collect();
        for pod in &pods {
            self.attach(pod);
        }
        pods
    }

    /// Schedules one pod on an explicit host (a client/probe endpoint
    /// whose location the experiment controls). A host the cluster does
    /// not have places nothing (`None`) and is [`ClusterBuilder::build`]'s
    /// to report, as [`BuildError::NoSuchHost`].
    pub fn place_pod_on(&mut self, tenant: TenantId, host: usize) -> Option<Pod> {
        let node = u32::try_from(host).ok().map(NodeId);
        match node.and_then(|n| self.cloud.provision(tenant, n).ok()) {
            Some(pod) => {
                let pod = pod.clone();
                self.attach(&pod);
                Some(pod)
            }
            None => {
                self.unknown_host.get_or_insert(host);
                None
            }
        }
    }

    fn attach(&mut self, pod: &Pod) {
        self.fleet.add_pod_at(host_of(pod), pod.ip, pod.vport);
    }

    /// Tenant-applies a policy to `pod` through the CMS and, on
    /// admission, installs the compiled ACL on the pod's home switch —
    /// the full injection path.
    pub fn apply_and_install(
        &mut self,
        tenant: TenantId,
        pod: &Pod,
        apply: impl FnOnce(&Cloud, TenantId, PodId) -> Result<CompiledPolicy, CmsError>,
    ) -> Result<CompiledPolicy, CmsError> {
        let compiled = apply(&self.cloud, tenant, pod.id)?;
        self.fleet.install_acl(pod.ip, compiled.table.clone());
        Ok(compiled)
    }

    /// Registers a traffic source injecting at `host`; returns its
    /// global source index.
    pub fn add_source(&mut self, host: usize, source: Box<dyn TrafficSource + Send>) -> usize {
        self.fleet.add_source(host, source)
    }

    /// Finalises the cluster, or names the first thing wrong with it.
    pub fn build(self) -> Result<FleetSim, BuildError> {
        let hosts = self.cloud.nodes().len();
        match self.unknown_host {
            Some(host) if hosts > 0 => Err(BuildError::NoSuchHost { host, hosts }),
            _ => self.fleet.build(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cms::NetworkPolicy;

    #[test]
    fn cloud_and_fleet_stay_in_sync() {
        let mut cb = ClusterBuilder::new(SimConfig::default(), 3, DpConfig::default());
        let t = cb.add_tenant();
        let pods = cb.place_pods(t, 6, PlacementStrategy::RoundRobin);
        assert_eq!(pods.len(), 6);
        let hosts: Vec<usize> = pods.iter().map(host_of).collect();
        for h in 0..3 {
            assert_eq!(hosts.iter().filter(|&&x| x == h).count(), 2);
        }
        let sim = cb.build().unwrap();
        assert_eq!(sim.host_count(), 3);
    }

    #[test]
    fn a_cluster_of_no_hosts_places_nothing_and_does_not_build() {
        let mut cb = ClusterBuilder::new(SimConfig::default(), 0, DpConfig::default());
        let t = cb.add_tenant();
        assert!(cb
            .place_pods(t, 4, PlacementStrategy::RoundRobin)
            .is_empty());
        assert_eq!(cb.build().err(), Some(BuildError::NoHosts));
    }

    #[test]
    fn a_pod_on_a_host_the_cluster_lacks_is_a_build_error() {
        let mut cb = ClusterBuilder::new(SimConfig::default(), 2, DpConfig::default());
        let t = cb.add_tenant();
        assert_eq!(cb.place_pod_on(t, 1).map(|p| host_of(&p)), Some(1));
        assert!(cb.place_pod_on(t, 5).is_none());
        assert!(cb.place_pod_on(t, 9).is_none());
        assert_eq!(
            cb.build().err(),
            Some(BuildError::NoSuchHost { host: 5, hosts: 2 })
        );
    }

    #[test]
    fn policy_injection_goes_through_cms_admission() {
        let mut cb = ClusterBuilder::new(SimConfig::default(), 2, DpConfig::default());
        let owner = cb.add_tenant();
        let other = cb.add_tenant();
        let pod = &cb.place_pods(owner, 1, PlacementStrategy::RoundRobin)[0];
        let policy = NetworkPolicy::allow_from_cidr("mine", "10.0.0.0/8".parse().unwrap());
        let compiled = cb
            .apply_and_install(owner, pod, |c, t, p| c.apply_k8s_policy(t, p, &policy))
            .unwrap();
        assert_eq!(compiled.pod, pod.id);
        // The tenancy check still bites through the cluster facade.
        let err = cb
            .apply_and_install(other, pod, |c, t, p| c.apply_k8s_policy(t, p, &policy))
            .unwrap_err();
        assert!(matches!(err, CmsError::NotYourPod { .. }));
    }
}
