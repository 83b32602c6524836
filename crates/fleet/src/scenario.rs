//! Pre-built fleet-scale experiments.
//!
//! * [`fleet_colocation`] — k attacker pods spread across n hosts by
//!   adversarial co-location, attacking m victims: the multi-tenant
//!   blast-radius question the two-node testbed cannot ask.
//! * [`fleet_migration`] — victims rescheduled off a saturated host
//!   mid-run: does moving the tenants away actually restore service?
//! * [`fleet_sparse`] — a large fleet where only a handful of hosts see
//!   traffic: the event-driven engine's home turf, and the workload
//!   `benchmark/`'s `sparse_idle` times tick-skipping on.

use pi_attack::{AttackSchedule, AttackSpec};
use pi_cms::{Cidr, IngressRule, NetworkPolicy, PlacementStrategy, Protocol};
use pi_core::{FlowKey, SimTime};
use pi_datapath::DpConfig;
use pi_sim::{FleetConfig, FleetSim, SimConfig};
use pi_traffic::{IperfSource, PoissonFlowSource};

use crate::placement::ClusterBuilder;

/// The victim's own microsegmentation: allow cluster traffic to iperf.
fn victim_policy() -> NetworkPolicy {
    NetworkPolicy {
        name: "victim-iperf".into(),
        ingress: vec![IngressRule {
            from: vec![Cidr::new(u32::from_be_bytes([10, 0, 0, 0]), 8).unwrap()],
            ports: vec![(Protocol::Tcp, Some(5201))],
        }],
    }
}

/// Parameters of the co-location experiment.
#[derive(Debug, Clone)]
pub struct ColocationParams {
    /// Fleet size, hosts.
    pub hosts: usize,
    /// Victim service pods (one tenant, placed by `victim_placement`).
    pub victims: usize,
    /// Attacker pods (one tenant, placed by adversarial co-location).
    pub attackers: usize,
    /// The injected policy shape.
    pub spec: AttackSpec,
    /// First covert stream start.
    pub attack_start: SimTime,
    /// Per-attacker covert budget, bits/second.
    pub attack_bandwidth_bps: f64,
    /// Start stagger between consecutive attackers.
    pub stagger: SimTime,
    /// Victim link-limited rate, bits/second.
    pub victim_rate_bps: f64,
    /// Run length.
    pub duration: SimTime,
    /// Per-host datapath CPU budget, cycles/second.
    pub cpu_cycles_per_sec: u64,
    /// Datapath configuration for every host.
    pub dp: DpConfig,
    /// Add background pod-to-pod chatter on every host.
    pub background: bool,
    /// Seed for background workloads.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// How the scheduler spreads the victim pods.
    pub victim_placement: PlacementStrategy,
}

impl Default for ColocationParams {
    fn default() -> Self {
        ColocationParams {
            hosts: 4,
            victims: 4,
            attackers: 2,
            spec: AttackSpec::masks_8192(),
            attack_start: SimTime::from_secs(10),
            attack_bandwidth_bps: 2e6,
            stagger: SimTime::from_secs(2),
            victim_rate_bps: 1e9,
            duration: SimTime::from_secs(30),
            cpu_cycles_per_sec: SimConfig::default().cpu_cycles_per_sec,
            dp: DpConfig::default(),
            background: true,
            seed: 2018,
            workers: 1,
            victim_placement: PlacementStrategy::RoundRobin,
        }
    }
}

/// Source/host indices of the built co-location scenario.
#[derive(Debug, Clone)]
pub struct ColocationHandles {
    /// Victim iperf source per victim pod (report order = pod order).
    pub victim_sources: Vec<usize>,
    /// Covert stream source per attacker pod.
    pub attack_sources: Vec<usize>,
    /// Background sources (one per host), when enabled.
    pub background_sources: Vec<usize>,
    /// Hosts carrying a victim pod.
    pub victim_hosts: Vec<usize>,
    /// Hosts carrying an attacker pod — the intended blast footprint.
    pub attacker_hosts: Vec<usize>,
}

/// Builds the co-location experiment: victims spread per the placement
/// strategy, attackers landing next to them, every covert stream
/// arriving over the fabric from a client pod on a neighbouring host.
pub fn fleet_colocation(params: &ColocationParams) -> (FleetSim, ColocationHandles) {
    assert!(params.hosts >= 2, "co-location needs at least two hosts");
    let cfg = FleetConfig {
        sim: SimConfig {
            duration: params.duration,
            cpu_cycles_per_sec: params.cpu_cycles_per_sec,
            ..SimConfig::default()
        },
        workers: params.workers,
    };
    let mut cb = ClusterBuilder::new(cfg, params.hosts, params.dp.clone());

    let victim_tenant = cb.add_tenant();
    let attacker_tenant = cb.add_tenant();
    let bg_tenant = cb.add_tenant();

    // Victim service pods + their own legitimate policies.
    let victim_pods = cb.place_pods(victim_tenant, params.victims, params.victim_placement);
    let policy = victim_policy();
    for &pod in &victim_pods {
        cb.apply_and_install(victim_tenant, pod, |c, t, p| {
            c.apply_k8s_policy(t, p, &policy)
        })
        .expect("victim policy admitted");
    }

    // Attacker pods: adversarial co-location, ACL injected through the
    // CMS's own admission path.
    let attacker_pods = cb.place_pods(
        attacker_tenant,
        params.attackers,
        PlacementStrategy::Colocate(victim_tenant),
    );
    let acl = params.spec.build_policy();
    for &pod in &attacker_pods {
        cb.apply_and_install(attacker_tenant, pod, |c, t, p| acl.apply(c, t, p))
            .expect("injected policy admitted");
    }

    // Victim iperf streams: client pod on the next host over.
    let mut victim_sources = Vec::new();
    for (i, &pod) in victim_pods.iter().enumerate() {
        let server = cb.pod(pod).clone();
        let client_host = (cb.host_of(pod) + 1) % params.hosts;
        let client = cb.place_pod_on(victim_tenant, client_host);
        let key = FlowKey::tcp(
            std::net::Ipv4Addr::from(cb.pod(client).ip),
            std::net::Ipv4Addr::from(server.ip),
            40_000 + i as u16,
            5201,
        );
        victim_sources.push(cb.add_source(
            client_host,
            Box::new(
                IperfSource::new(key, 1500, params.victim_rate_bps).named(&format!("victim{i}")),
            ),
        ));
    }

    // Covert streams: one paced schedule per attacker pod, staggered,
    // each injected from a client pod on the next host over.
    let attacker_ips: Vec<u32> = attacker_pods.iter().map(|p| cb.pod(*p).ip).collect();
    let schedules = AttackSchedule::fan_out(
        &params.spec,
        &attacker_ips,
        params.attack_bandwidth_bps,
        params.attack_start,
        params.stagger,
    );
    let mut attack_sources = Vec::new();
    for (&pod, schedule) in attacker_pods.iter().zip(schedules) {
        let client_host = (cb.host_of(pod) + 1) % params.hosts;
        cb.place_pod_on(attacker_tenant, client_host);
        attack_sources.push(cb.add_source(client_host, Box::new(schedule)));
    }

    // Background chatter: one unprotected pod + Poisson source per host.
    let mut background_sources = Vec::new();
    if params.background {
        for host in 0..params.hosts {
            let pod = cb.place_pod_on(bg_tenant, host);
            let dst = cb.pod(pod).ip;
            let src_host = (host + 1) % params.hosts;
            background_sources.push(
                cb.add_source(
                    src_host,
                    Box::new(
                        PoissonFlowSource::new(
                            (0..8u32)
                                .map(|i| (u32::from_be_bytes([10, 0, 200, i as u8]), dst))
                                .collect(),
                            10.0,
                            20.0,
                            200.0,
                            200,
                            params.seed ^ host as u64,
                        )
                        .named(&format!("background{host}")),
                    ),
                ),
            );
        }
    }

    let victim_hosts: Vec<usize> = victim_pods.iter().map(|p| cb.host_of(*p)).collect();
    let attacker_hosts: Vec<usize> = attacker_pods.iter().map(|p| cb.host_of(*p)).collect();
    (
        cb.build(),
        ColocationHandles {
            victim_sources,
            attack_sources,
            background_sources,
            victim_hosts,
            attacker_hosts,
        },
    )
}

/// Parameters of the sparse-fleet experiment.
#[derive(Debug, Clone)]
pub struct SparseParams {
    /// Fleet size, hosts. Most are idle: each carries one attached pod
    /// that never sends or receives.
    pub hosts: usize,
    /// Hosts that actually see traffic (the first `hot_hosts` of the
    /// fleet). Victims, attacker and every client pod stay inside this
    /// set so the remaining hosts are provably quiescent.
    pub hot_hosts: usize,
    /// The injected policy shape on the attacker pod (host 0).
    pub spec: AttackSpec,
    /// Covert stream start.
    pub attack_start: SimTime,
    /// Covert budget, bits/second.
    pub attack_bandwidth_bps: f64,
    /// Victim link-limited rate, bits/second.
    pub victim_rate_bps: f64,
    /// Run length.
    pub duration: SimTime,
    /// Per-host datapath CPU budget, cycles/second.
    pub cpu_cycles_per_sec: u64,
    /// Datapath configuration for every host.
    pub dp: DpConfig,
    /// Worker threads.
    pub workers: usize,
    /// Engine selection: `true` = event-driven (the default engine),
    /// `false` = the tick-stepped reference. Exposed so the bench can
    /// time both on the identical build.
    pub event_driven: bool,
}

impl Default for SparseParams {
    fn default() -> Self {
        SparseParams {
            hosts: 96,
            hot_hosts: 4,
            spec: AttackSpec::masks_512(pi_cms::PolicyDialect::Kubernetes),
            attack_start: SimTime::from_secs(2),
            attack_bandwidth_bps: 1e6,
            // Modest service traffic, not a saturated iperf: the point
            // of the sparse fleet is that almost nothing is happening.
            victim_rate_bps: 2e6,
            duration: SimTime::from_secs(10),
            cpu_cycles_per_sec: SimConfig::default().cpu_cycles_per_sec,
            dp: DpConfig::default(),
            workers: 1,
            event_driven: true,
        }
    }
}

/// Source/host indices of the built sparse-fleet scenario.
#[derive(Debug, Clone)]
pub struct SparseHandles {
    /// Victim iperf source per hot host.
    pub victim_sources: Vec<usize>,
    /// The covert stream source.
    pub attack_source: usize,
    /// Hosts that see traffic.
    pub hot_hosts: Vec<usize>,
    /// Hosts that never do.
    pub idle_hosts: Vec<usize>,
}

/// Builds the sparse fleet: one victim iperf pair per hot host, the
/// injected policy and its covert stream on host 0, and `hosts −
/// hot_hosts` idle hosts each carrying a single silent pod. Idle hosts
/// have no sources, defenses or scheduled events, so the event-driven
/// engine skips them for the whole run; the tick-stepped reference
/// walks all of them every tick.
pub fn fleet_sparse(params: &SparseParams) -> (FleetSim, SparseHandles) {
    let hot = params.hot_hosts.clamp(2, params.hosts);
    let cfg = FleetConfig {
        sim: SimConfig {
            duration: params.duration,
            cpu_cycles_per_sec: params.cpu_cycles_per_sec,
            event_driven: params.event_driven,
            ..SimConfig::default()
        },
        workers: params.workers,
    };
    let mut cb = ClusterBuilder::new(cfg, params.hosts, params.dp.clone());

    let victim_tenant = cb.add_tenant();
    let attacker_tenant = cb.add_tenant();
    let idle_tenant = cb.add_tenant();

    // One victim pod + client pair per hot host, clients staying inside
    // the hot set.
    let policy = victim_policy();
    let mut victim_sources = Vec::new();
    for i in 0..hot {
        let pod = cb.place_pod_on(victim_tenant, i);
        cb.apply_and_install(victim_tenant, pod, |c, t, p| {
            c.apply_k8s_policy(t, p, &policy)
        })
        .expect("victim policy admitted");
        let client_host = (i + 1) % hot;
        let client = cb.place_pod_on(victim_tenant, client_host);
        let key = FlowKey::tcp(
            std::net::Ipv4Addr::from(cb.pod(client).ip),
            std::net::Ipv4Addr::from(cb.pod(pod).ip),
            40_000 + i as u16,
            5201,
        );
        victim_sources.push(cb.add_source(
            client_host,
            Box::new(
                IperfSource::new(key, 1500, params.victim_rate_bps).named(&format!("victim{i}")),
            ),
        ));
    }

    // The injected policy on host 0, covert stream from host 1.
    let attacker_pod = cb.place_pod_on(attacker_tenant, 0);
    let acl = params.spec.build_policy();
    cb.apply_and_install(attacker_tenant, attacker_pod, |c, t, p| acl.apply(c, t, p))
        .expect("injected policy admitted");
    let attacker_ip = cb.pod(attacker_pod).ip;
    cb.place_pod_on(attacker_tenant, 1 % hot);
    let schedule = AttackSchedule::fan_out(
        &params.spec,
        &[attacker_ip],
        params.attack_bandwidth_bps,
        params.attack_start,
        SimTime::ZERO,
    )
    .remove(0);
    let attack_source = cb.add_source(1 % hot, Box::new(schedule));

    // The idle bulk: one silent pod per remaining host.
    let mut idle_hosts = Vec::new();
    for host in hot..params.hosts {
        cb.place_pod_on(idle_tenant, host);
        idle_hosts.push(host);
    }

    (
        cb.build(),
        SparseHandles {
            victim_sources,
            attack_source,
            hot_hosts: (0..hot).collect(),
            idle_hosts,
        },
    )
}

/// Parameters of the migration experiment.
#[derive(Debug, Clone)]
pub struct MigrationParams {
    /// Fleet size, hosts (victims start on host 0).
    pub hosts: usize,
    /// Victim pods co-located with the attacker on host 0.
    pub victims: usize,
    /// The injected policy shape.
    pub spec: AttackSpec,
    /// Covert stream start.
    pub attack_start: SimTime,
    /// Covert budget, bits/second.
    pub attack_bandwidth_bps: f64,
    /// When the scheduler evacuates the victims off host 0.
    pub migrate_at: SimTime,
    /// Victim link-limited rate, bits/second.
    pub victim_rate_bps: f64,
    /// Run length.
    pub duration: SimTime,
    /// Per-host datapath CPU budget, cycles/second.
    pub cpu_cycles_per_sec: u64,
    /// Datapath configuration for every host.
    pub dp: DpConfig,
    /// Worker threads.
    pub workers: usize,
}

impl Default for MigrationParams {
    fn default() -> Self {
        MigrationParams {
            hosts: 4,
            victims: 3,
            spec: AttackSpec::masks_8192(),
            attack_start: SimTime::from_secs(5),
            attack_bandwidth_bps: 2e6,
            migrate_at: SimTime::from_secs(20),
            victim_rate_bps: 1e9,
            duration: SimTime::from_secs(35),
            cpu_cycles_per_sec: SimConfig::default().cpu_cycles_per_sec,
            dp: DpConfig::default(),
            workers: 1,
        }
    }
}

/// Source/host indices of the built migration scenario.
#[derive(Debug, Clone)]
pub struct MigrationHandles {
    /// Victim iperf sources.
    pub victim_sources: Vec<usize>,
    /// The covert stream source.
    pub attack_source: usize,
    /// The host the attack saturates (victims start here).
    pub saturated_host: usize,
    /// Destination host per victim pod after evacuation.
    pub migration_targets: Vec<usize>,
}

/// Builds the migration experiment: everyone starts co-located on host
/// 0; at `migrate_at` the scheduler live-migrates every victim pod to a
/// clean host, leaving the attacker alone with its saturated switch.
pub fn fleet_migration(params: &MigrationParams) -> (FleetSim, MigrationHandles) {
    assert!(params.hosts >= 2, "migration needs somewhere to go");
    let cfg = FleetConfig {
        sim: SimConfig {
            duration: params.duration,
            cpu_cycles_per_sec: params.cpu_cycles_per_sec,
            ..SimConfig::default()
        },
        workers: params.workers,
    };
    let mut cb = ClusterBuilder::new(cfg, params.hosts, params.dp.clone());

    let victim_tenant = cb.add_tenant();
    let attacker_tenant = cb.add_tenant();

    // Pack victims and attacker together on host 0.
    let pack = PlacementStrategy::BinPacked {
        capacity: params.victims + 1,
    };
    let victim_pods = cb.place_pods(victim_tenant, params.victims, pack);
    let attacker_pod = cb.place_pods(attacker_tenant, 1, pack)[0];
    let saturated_host = cb.host_of(attacker_pod);
    assert_eq!(saturated_host, 0, "everyone packs onto host 0");

    let policy = victim_policy();
    for &pod in &victim_pods {
        cb.apply_and_install(victim_tenant, pod, |c, t, p| {
            c.apply_k8s_policy(t, p, &policy)
        })
        .expect("victim policy admitted");
    }
    let acl = params.spec.build_policy();
    cb.apply_and_install(attacker_tenant, attacker_pod, |c, t, p| acl.apply(c, t, p))
        .expect("injected policy admitted");

    // Victim clients on the other hosts.
    let mut victim_sources = Vec::new();
    for (i, &pod) in victim_pods.iter().enumerate() {
        let client_host = 1 + (i % (params.hosts - 1));
        let client = cb.place_pod_on(victim_tenant, client_host);
        let key = FlowKey::tcp(
            std::net::Ipv4Addr::from(cb.pod(client).ip),
            std::net::Ipv4Addr::from(cb.pod(pod).ip),
            40_000 + i as u16,
            5201,
        );
        victim_sources.push(cb.add_source(
            client_host,
            Box::new(
                IperfSource::new(key, 1500, params.victim_rate_bps).named(&format!("victim{i}")),
            ),
        ));
    }

    // The covert stream, from an attacker client pod on host 1.
    let attacker_ip = cb.pod(attacker_pod).ip;
    cb.place_pod_on(attacker_tenant, 1);
    let schedule = AttackSchedule::fan_out(
        &params.spec,
        &[attacker_ip],
        params.attack_bandwidth_bps,
        params.attack_start,
        SimTime::ZERO,
    )
    .remove(0);
    let attack_source = cb.add_source(1, Box::new(schedule));

    // The evacuation: spread the victims over the clean hosts.
    let mut migration_targets = Vec::new();
    for (i, &pod) in victim_pods.iter().enumerate() {
        let target = 1 + (i % (params.hosts - 1));
        cb.schedule_migration(params.migrate_at, pod, target);
        migration_targets.push(target);
    }

    (
        cb.build(),
        MigrationHandles {
            victim_sources,
            attack_source,
            saturated_host,
            migration_targets,
        },
    )
}
