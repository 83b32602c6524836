//! Pre-built scenarios for the paper's experiments.

use pi_attack::{AttackSchedule, AttackSpec, CovertSequence};
use pi_backend::{build_backend, DataplaneBackend};
use pi_cms::{Cidr, ControlPlaneProgram, IngressRule, NetworkPolicy, PolicyCompiler, Protocol};
use pi_core::{FlowKey, SimTime};
use pi_datapath::{BackendKind, CostModel, DpConfig, PipelineMode, UpcallPipelineConfig};
use pi_detect::{ControllerConfig, DefenseController};
use pi_fault::{ChannelFaultConfig, FaultSchedule, ReliabilityConfig};
use pi_traffic::{ChurnSource, FanSource, IperfSource, PoissonFlowSource};

use crate::{FleetBuilder, FleetConfig, SimConfig, Simulation};

/// The testbed's builder: the one engine, on one worker.
fn testbed(sim: SimConfig) -> FleetBuilder {
    FleetBuilder::new(FleetConfig { sim, workers: 1 })
}

/// Parameters of the Fig. 3 reproduction (and its variants).
#[derive(Debug, Clone)]
pub struct Fig3Params {
    /// Run length (paper: 150 s).
    pub duration: SimTime,
    /// Covert stream start (paper: 60 s).
    pub attack_start: SimTime,
    /// Covert budget (paper: 1–2 Mb/s).
    pub attack_bandwidth_bps: f64,
    /// The injected policy (default: the 8192-mask Calico shape).
    pub spec: AttackSpec,
    /// Victim link-limited rate (paper: ~1 Gb/s iperf).
    pub victim_rate_bps: f64,
    /// Per-node datapath CPU budget.
    pub cpu_cycles_per_sec: u64,
    /// Datapath configuration for both nodes.
    pub dp: DpConfig,
    /// Whether to add background pod-to-pod chatter.
    pub background: bool,
    /// Seed for the background workload.
    pub seed: u64,
    /// Optional closed-loop defense: one controller per node with this
    /// tuning (the adaptive counterpart of the static `dp` knobs).
    pub defense: Option<ControllerConfig>,
}

impl Default for Fig3Params {
    fn default() -> Self {
        Fig3Params {
            duration: SimTime::from_secs(150),
            attack_start: SimTime::from_secs(60),
            attack_bandwidth_bps: 2e6,
            spec: AttackSpec::masks_8192(),
            victim_rate_bps: 1e9,
            cpu_cycles_per_sec: SimConfig::default().cpu_cycles_per_sec,
            dp: DpConfig::default(),
            background: true,
            seed: 2018,
            defense: None,
        }
    }
}

/// Source/node indices of the built scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig3Handles {
    /// Index of the victim iperf source in the report vectors.
    pub victim_source: usize,
    /// Index of the attack source.
    pub attack_source: usize,
    /// Index of the background source, when enabled.
    pub background_source: Option<usize>,
    /// Node whose switch the attack saturates (the server node).
    pub attacked_node: usize,
}

/// Builds the paper's demo topology (Fig. 1): a client node and a server
/// node. The server node hosts the victim's service pod (with the
/// victim's own legitimate NetworkPolicy), the attacker's pod (with the
/// injected ACL), and a background pod; the client node originates the
/// victim's iperf, the covert stream, and background chatter.
pub fn fig3_scenario(params: &Fig3Params) -> (Simulation, Fig3Handles) {
    let cfg = SimConfig {
        duration: params.duration,
        cpu_cycles_per_sec: params.cpu_cycles_per_sec,
        ..SimConfig::default()
    };
    let mut b = testbed(cfg);
    let client_node = b.add_host(params.dp.clone());
    let server_node = b.add_host(params.dp.clone());

    let victim_client_ip = u32::from_be_bytes([10, 0, 0, 10]);
    let victim_server_ip = u32::from_be_bytes([10, 1, 0, 10]);
    let attacker_pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let background_ip = u32::from_be_bytes([10, 1, 0, 20]);

    b.add_pod(client_node, victim_client_ip);
    b.add_pod(server_node, victim_server_ip);
    b.add_pod(server_node, attacker_pod_ip);
    b.add_pod(server_node, background_ip);

    // The victim's own, perfectly legitimate microsegmentation: allow
    // cluster traffic (10/8) to the iperf port.
    let victim_policy = NetworkPolicy {
        name: "victim-iperf".into(),
        ingress: vec![IngressRule {
            from: vec![Cidr::new(u32::from_be_bytes([10, 0, 0, 0]), 8).unwrap()],
            ports: vec![(Protocol::Tcp, Some(5201))],
        }],
    };
    b.install_acl(victim_server_ip, PolicyCompiler.compile_k8s(&victim_policy));

    // The injected ACL at the attacker's own pod.
    let attack_table = params.spec.compile();
    b.install_acl(attacker_pod_ip, attack_table);

    // Victim iperf: client → server pod.
    let victim_key = FlowKey::tcp(
        std::net::Ipv4Addr::from(victim_client_ip),
        std::net::Ipv4Addr::from(victim_server_ip),
        40_000,
        5201,
    );
    let victim_source = b.add_source(
        client_node,
        Box::new(IperfSource::new(victim_key, 1500, params.victim_rate_bps).named("victim")),
    );

    // The covert stream, from the attacker's client-side pod.
    let target = params.spec.build_target(attacker_pod_ip);
    let attack_source = b.add_source(
        client_node,
        Box::new(AttackSchedule::new(
            CovertSequence::new(target),
            params.attack_bandwidth_bps,
            params.attack_start,
        )),
    );

    // Background chatter to the unprotected pod.
    let background_source = params.background.then(|| {
        b.add_source(
            client_node,
            Box::new(
                PoissonFlowSource::new(
                    (0..16u32)
                        .map(|i| (u32::from_be_bytes([10, 0, 1, i as u8]), background_ip))
                        .collect(),
                    20.0,
                    30.0,
                    200.0,
                    200,
                    params.seed,
                )
                .named("background"),
            ),
        )
    });

    if let Some(ctrl) = &params.defense {
        b.attach_defense(client_node, DefenseController::new(*ctrl));
        b.attach_defense(server_node, DefenseController::new(*ctrl));
    }

    (
        b.build(),
        Fig3Handles {
            victim_source,
            attack_source,
            background_source,
            attacked_node: server_node,
        },
    )
}

/// Parameters of the handler-saturation scenario.
#[derive(Debug, Clone)]
pub struct UpcallSaturationParams {
    /// Run length.
    pub duration: SimTime,
    /// When the victim's connection churn begins (after the flood has
    /// filled the flow limit, so victim flows keep upcalling).
    pub victim_start: SimTime,
    /// Victim connection rate, new flows/second.
    pub victim_pps: f64,
    /// Attacker flood bandwidth, bits/second of 64-B frames.
    pub attack_bandwidth_bps: f64,
    /// Megaflow table limit (small: the flood exhausts it in the first
    /// second, which is what keeps the victim in the slow path).
    pub flow_limit: usize,
    /// Per-port upcall queue capacity.
    pub queue_capacity: usize,
    /// Handler cycle budget per tick.
    pub handler_cycles_per_step: u64,
    /// Per-port fair-share quota (the mitigation), if any.
    pub port_quota_per_step: Option<u32>,
    /// Runs the same traffic against the historical *inline* slow path
    /// instead of the bounded pipeline (the bench's baseline row; the
    /// queue/budget/quota knobs are ignored).
    pub inline_baseline: bool,
    /// Whether the flood runs at all (false = the benign baseline the
    /// immunity matrix's retained ratios are computed against).
    pub attack: bool,
    /// Which dataplane architecture the node runs.
    pub backend: BackendKind,
    /// Fast-path CPU budget (generous by default — the bottleneck under
    /// study is the handler pipeline, not the megaflow walk).
    pub cpu_cycles_per_sec: u64,
}

impl Default for UpcallSaturationParams {
    fn default() -> Self {
        UpcallSaturationParams {
            duration: SimTime::from_secs(6),
            victim_start: SimTime::from_secs(1),
            victim_pps: 2_000.0,
            attack_bandwidth_bps: 10e6, // ≈19.5 kpps of 64-B frames
            flow_limit: 2_048,
            queue_capacity: 64,
            handler_cycles_per_step: 400_000, // ≈13 upcalls/ms
            port_quota_per_step: None,
            inline_baseline: false,
            attack: true,
            backend: BackendKind::OvsCache,
            cpu_cycles_per_sec: SimConfig::default().cpu_cycles_per_sec,
        }
    }
}

/// Source/node indices of the built saturation scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpcallSaturationHandles {
    /// The victim churn source.
    pub victim_source: usize,
    /// The attacker flood source.
    pub attack_source: usize,
    /// The single simulated node.
    pub node: usize,
    /// The victim pod's vport (its upcall queue id).
    pub victim_vport: u32,
}

/// Builds the handler-saturation experiment: one node whose bounded
/// upcall pipeline is the resource under attack. An attacker pod's
/// client sprays never-before-seen destinations
/// ([`AttackSchedule::upcall_flood`]) — every packet upcalls, the flood
/// fills the megaflow table to its limit within the first second and
/// keeps the shared unroutable queue pinned at capacity. The victim is
/// a connection-churn service ([`ChurnSource`]): its fresh flows find
/// the flow table full (installs refused), so every connection needs a
/// slow-path handler — which the flood has monopolised. Victim upcalls
/// tail-drop; the per-port fair-share quota
/// (`port_quota_per_step`) restores them.
pub fn upcall_saturation_scenario(
    params: &UpcallSaturationParams,
) -> (Simulation, UpcallSaturationHandles) {
    let cfg = SimConfig {
        duration: params.duration,
        cpu_cycles_per_sec: params.cpu_cycles_per_sec,
        ..SimConfig::default()
    };
    let pipeline = if params.inline_baseline {
        PipelineMode::Inline
    } else {
        PipelineMode::Bounded(UpcallPipelineConfig {
            queue_capacity: params.queue_capacity,
            handler_cycles_per_step: params.handler_cycles_per_step,
            port_quota_per_step: params.port_quota_per_step,
        })
    };
    let dp = DpConfig {
        flow_limit: params.flow_limit,
        pipeline,
        backend: params.backend,
        ..DpConfig::default()
    };
    let mut b = testbed(cfg);
    let node = b.add_host(dp);

    let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
    let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let victim_vport = b.add_pod(node, victim_ip);
    b.add_pod(node, attacker_ip);

    // Victim: short-lived connections from the cluster block, starting
    // once the flood owns the flow table.
    let victim_source = b.add_source(
        node,
        Box::new(
            ChurnSource::new(
                u32::from_be_bytes([10, 2, 0, 0]),
                victim_ip,
                5201,
                64,
                params.victim_pps,
            )
            .starting_at(params.victim_start)
            .named("victim"),
        ),
    );

    // Attacker: the paced destination spray. The benign baseline keeps
    // the source (so report vectors stay shaped the same) but starts it
    // past the end of the run.
    let attack_start = if params.attack {
        SimTime::ZERO
    } else {
        params.duration
    };
    let spec = AttackSpec::masks_512(pi_cms::PolicyDialect::Kubernetes);
    let attack_source = b.add_source(
        node,
        Box::new(
            AttackSchedule::new(
                CovertSequence::new(spec.build_target(attacker_ip)),
                params.attack_bandwidth_bps,
                attack_start,
            )
            .upcall_flood(),
        ),
    );

    (
        b.build(),
        UpcallSaturationHandles {
            victim_source,
            attack_source,
            node,
            victim_vport,
        },
    )
}

/// How the adaptive-defense scenario defends (or doesn't).
#[derive(Debug, Clone)]
pub enum DefenseMode {
    /// No defense at all — the starvation baseline.
    Undefended,
    /// The static mitigation: a per-port fair-share quota configured
    /// before the run (what `pi_mitigation::upcall_fair_share_config`
    /// encodes), always on.
    StaticFairShare(u32),
    /// The closed loop: a [`DefenseController`] per node that detects
    /// the onset and flips mitigations at runtime. Boxed: the
    /// controller tuning dwarfs the other variants.
    Adaptive(Box<ControllerConfig>),
}

impl DefenseMode {
    /// The adaptive mode with the given controller tuning.
    pub fn adaptive(cfg: ControllerConfig) -> Self {
        DefenseMode::Adaptive(Box::new(cfg))
    }
}

/// Parameters of the adaptive-defense scenario.
#[derive(Debug, Clone)]
pub struct AdaptiveDefenseParams {
    /// Run length.
    pub duration: SimTime,
    /// When the upcall flood begins. Everything before it is the
    /// benign phase the false-positive rate is judged on.
    pub attack_start: SimTime,
    /// Victim connection churn, new flows/second (starts with the
    /// attack, when the flood has the flow table pinned — the same
    /// arrangement as the `upcall_saturation` scenario).
    pub victim_pps: f64,
    /// Benign churn load during the whole run, new connections/second
    /// towards the background pod (its megaflow is cached, so this is
    /// fast-path churn — the detector must not alarm on it).
    pub benign_pps: f64,
    /// Attacker flood bandwidth, bits/second of 64-B frames.
    pub attack_bandwidth_bps: f64,
    /// Megaflow table limit (small: the flood exhausts it quickly).
    pub flow_limit: usize,
    /// Per-port upcall queue capacity.
    pub queue_capacity: usize,
    /// Handler cycle budget per tick.
    pub handler_cycles_per_step: u64,
    /// The defense under test.
    pub defense: DefenseMode,
    /// Which dataplane architecture the node runs.
    pub backend: BackendKind,
    /// Control-loop cadence (the `defense_interval` of the run).
    pub defense_interval: SimTime,
    /// Fast-path CPU budget.
    pub cpu_cycles_per_sec: u64,
    /// Seed for the background workload.
    pub seed: u64,
}

impl Default for AdaptiveDefenseParams {
    fn default() -> Self {
        AdaptiveDefenseParams {
            duration: SimTime::from_secs(12),
            attack_start: SimTime::from_secs(4),
            victim_pps: 2_000.0,
            benign_pps: 500.0,
            attack_bandwidth_bps: 10e6,
            flow_limit: 2_048,
            queue_capacity: 64,
            handler_cycles_per_step: 400_000,
            defense: DefenseMode::adaptive(ControllerConfig::default()),
            backend: BackendKind::OvsCache,
            defense_interval: SimTime::from_millis(100),
            cpu_cycles_per_sec: SimConfig::default().cpu_cycles_per_sec,
            seed: 2018,
        }
    }
}

/// Source/node indices of the built adaptive-defense scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveDefenseHandles {
    /// The victim churn source.
    pub victim_source: usize,
    /// The benign churn source (active from t = 0).
    pub benign_source: usize,
    /// The attacker flood source.
    pub attack_source: usize,
    /// The single simulated node.
    pub node: usize,
    /// The victim pod's vport.
    pub victim_vport: u32,
}

/// Builds the closed-loop defense experiment: one node under benign
/// churn from t = 0, hit by an `upcall_flood` destination spray at
/// `attack_start`. The flood fills the megaflow table and monopolises
/// the bounded slow path, so the victim's connection churn (starting
/// with the attack) tail-drops — unless a defense intervenes. The
/// three [`DefenseMode`]s make the static-vs-adaptive comparison:
/// time-to-detect and the benign-phase false-positive count come from
/// the report's [`pi_detect::DefenseReport`].
pub fn adaptive_defense_scenario(
    params: &AdaptiveDefenseParams,
) -> (Simulation, AdaptiveDefenseHandles) {
    let cfg = SimConfig {
        duration: params.duration,
        cpu_cycles_per_sec: params.cpu_cycles_per_sec,
        defense_interval: params.defense_interval,
        ..SimConfig::default()
    };
    let quota = match params.defense {
        DefenseMode::StaticFairShare(q) => Some(q),
        _ => None,
    };
    let dp = DpConfig {
        flow_limit: params.flow_limit,
        pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
            queue_capacity: params.queue_capacity,
            handler_cycles_per_step: params.handler_cycles_per_step,
            port_quota_per_step: quota,
        }),
        backend: params.backend,
        ..DpConfig::default()
    };
    let mut b = testbed(cfg);
    let node = b.add_host(dp);

    let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
    let benign_ip = u32::from_be_bytes([10, 1, 0, 20]);
    let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let victim_vport = b.add_pod(node, victim_ip);
    b.add_pod(node, benign_ip);
    b.add_pod(node, attacker_ip);

    // Benign churn for the whole run: short-lived connections to the
    // background pod. Its dst-pinned megaflow caches after the first
    // packet, so this is sustained fast-path churn — EMC pressure and
    // packet rate without slow-path distress.
    let benign_source = b.add_source(
        node,
        Box::new(
            ChurnSource::new(
                u32::from_be_bytes([10, 3, 0, 0]),
                benign_ip,
                80,
                200,
                params.benign_pps,
            )
            .named("benign"),
        ),
    );

    // Victim churn from attack onset: the flood owns the flow table by
    // then, so every victim connection needs a slow-path handler.
    let victim_source = b.add_source(
        node,
        Box::new(
            ChurnSource::new(
                u32::from_be_bytes([10, 2, 0, 0]),
                victim_ip,
                5201,
                64,
                params.victim_pps,
            )
            .starting_at(params.attack_start)
            .named("victim"),
        ),
    );

    // The ACL-injection flood: the covert sequence of a 512-mask
    // Kubernetes injection, re-paced as a unique-destination spray.
    let spec = AttackSpec::masks_512(pi_cms::PolicyDialect::Kubernetes);
    let attack_source = b.add_source(
        node,
        Box::new(
            AttackSchedule::new(
                CovertSequence::new(spec.build_target(attacker_ip)),
                params.attack_bandwidth_bps,
                params.attack_start,
            )
            .upcall_flood(),
        ),
    );

    if let DefenseMode::Adaptive(ctrl) = &params.defense {
        b.attach_defense(node, DefenseController::new(**ctrl));
    }

    (
        b.build(),
        AdaptiveDefenseHandles {
            victim_source,
            benign_source,
            attack_source,
            node,
            victim_vport,
        },
    )
}

/// Parameters of the policy-churn (control-plane flush storm)
/// scenario.
#[derive(Debug, Clone)]
pub struct PolicyChurnParams {
    /// Run length.
    pub duration: SimTime,
    /// When the policy-flap train begins (everything before it is the
    /// benign phase).
    pub attack_start: SimTime,
    /// Whether the attacker flaps at all (false = the benign baseline:
    /// only routine control-plane churn).
    pub flap: bool,
    /// Interval between the attacker's ACL re-installs.
    pub flap_period: SimTime,
    /// Cache-invalidation scope of every policy update on the node
    /// ([`DpConfig::scoped_invalidation`]) — the ablation knob: global
    /// flushes are what give the flap its amplification.
    pub scoped_invalidation: bool,
    /// Whitelisted victim clients. Each client is a distinct /32 rule
    /// in the victim's ACL, so each owns a distinct megaflow — a full
    /// flush forces one slow-path rebuild *per client*.
    pub clients: usize,
    /// Victim aggregate rate, packets/second across all clients.
    pub victim_pps: f64,
    /// Victim frame size, bytes.
    pub victim_frame_bytes: usize,
    /// Cadence of the routine (benign) control-plane churn: an ACL
    /// install/remove alternation on the background pod. Present in
    /// every run so the flap rows are judged against live-but-sane
    /// control-plane activity, not silence.
    pub benign_update_period: SimTime,
    /// CMS → switch propagation delay of the benign updates.
    pub benign_propagation_delay: SimTime,
    /// Datapath CPU budget, cycles/second.
    pub cpu_cycles_per_sec: u64,
    /// Datapath configuration (scoped_invalidation is overridden by
    /// the field above).
    pub dp: DpConfig,
    /// Optional closed-loop defense (the policy-churn detector's
    /// integration point).
    pub defense: Option<ControllerConfig>,
}

impl Default for PolicyChurnParams {
    fn default() -> Self {
        PolicyChurnParams {
            duration: SimTime::from_secs(10),
            attack_start: SimTime::from_secs(2),
            flap: true,
            flap_period: SimTime::from_millis(20),
            scoped_invalidation: false,
            clients: 512,
            victim_pps: 40_000.0,
            victim_frame_bytes: 400,
            benign_update_period: SimTime::from_secs(1),
            benign_propagation_delay: SimTime::from_millis(50),
            cpu_cycles_per_sec: SimConfig::default().cpu_cycles_per_sec,
            dp: DpConfig::default(),
            defense: None,
        }
    }
}

/// Source/node indices of the built policy-churn scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyChurnHandles {
    /// The victim fan source.
    pub victim_source: usize,
    /// The single simulated node.
    pub node: usize,
    /// The victim pod's IP.
    pub victim_ip: u32,
    /// The attacker pod's IP (the flapped ACL's target).
    pub attacker_ip: u32,
}

/// Builds the policy-churn experiment: one node hosting a victim
/// service (an ACL whitelisting `clients` individual /32 peers, each
/// peer a live flow) and a co-located attacker pod. The attacker sends
/// **zero packets**; its entire attack is the control plane —
/// [`AttackSchedule::policy_flap`] re-installs the attacker's own ACL
/// every `flap_period`, and under global-flush invalidation every
/// re-install wipes the victim's per-client megaflows and the whole
/// EMC. The victim pays one slow-path rebuild per client per flap (an
/// upcall plus a linear scan of its own whitelist), which exhausts the
/// shared cycle budget; every flush is also charged its own teardown
/// cost ([`pi_datapath::CostModel::control_update_cycles`]). Routine
/// benign churn (install/remove on a background pod once a second,
/// with a CMS propagation delay) runs in every configuration so the
/// baseline is live control-plane activity, not silence. The
/// scoped-invalidation ablation confines each update's eviction to the
/// updated destination, which is what restores the victim.
pub fn policy_churn_scenario(params: &PolicyChurnParams) -> (Simulation, PolicyChurnHandles) {
    let cfg = SimConfig {
        duration: params.duration,
        cpu_cycles_per_sec: params.cpu_cycles_per_sec,
        ..SimConfig::default()
    };
    let dp = DpConfig {
        scoped_invalidation: params.scoped_invalidation,
        ..params.dp.clone()
    };
    let mut b = testbed(cfg);
    let node = b.add_host(dp);

    let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
    let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let background_ip = u32::from_be_bytes([10, 1, 0, 20]);
    b.add_pod(node, victim_ip);
    b.add_pod(node, attacker_ip);
    b.add_pod(node, background_ip);

    // The victim's microsegmentation: one /32 whitelist entry per
    // client peer — realistic for a service with a pinned client set,
    // and the reason a global flush costs one rebuild per client.
    assert!(params.clients > 0 && params.clients <= 65_536);
    let client_ip = |i: usize| [10, 2, (i >> 8) as u8, (i & 0xff) as u8];
    let victim_policy = NetworkPolicy {
        name: "victim-peers".into(),
        ingress: vec![IngressRule {
            from: (0..params.clients)
                .map(|i| Cidr::host(client_ip(i)))
                .collect(),
            ports: vec![(Protocol::Tcp, Some(5201))],
        }],
    };
    b.install_acl(victim_ip, PolicyCompiler.compile_k8s(&victim_policy));

    // The victim's standing traffic: every whitelisted client sends
    // continuously (round-robin fan at the aggregate rate).
    let victim_keys: Vec<FlowKey> = (0..params.clients)
        .map(|i| {
            FlowKey::tcp(
                client_ip(i),
                victim_ip.to_be_bytes(),
                40_000 + (i % 16_000) as u16,
                5201,
            )
        })
        .collect();
    let victim_source = b.add_source(
        node,
        Box::new(
            FanSource::new(victim_keys, params.victim_frame_bytes, params.victim_pps)
                .named("victim"),
        ),
    );

    // The attacker's own, innocuous-looking ACL — installed once at
    // build like any tenant policy...
    let attacker_policy = NetworkPolicy {
        name: "attacker-web".into(),
        ingress: vec![IngressRule {
            from: vec![Cidr::new(u32::from_be_bytes([10, 0, 0, 0]), 8).unwrap()],
            ports: vec![(Protocol::Tcp, Some(8080))],
        }],
    };
    let attacker_table = PolicyCompiler.compile_k8s(&attacker_policy);
    b.install_acl(attacker_ip, attacker_table.clone());

    // ...and then re-installed ad nauseam: the policy-flap train.
    if params.flap {
        b.attach_control_plane(
            node,
            AttackSchedule::policy_flap(
                attacker_ip,
                &attacker_table,
                params.attack_start,
                params.duration,
                params.flap_period,
            ),
        );
    }

    // Routine churn: operations installs/removes an ACL on the
    // background pod once per period, with CMS propagation delay.
    let bg_table = PolicyCompiler.compile_k8s(&NetworkPolicy {
        name: "background".into(),
        ingress: vec![IngressRule {
            from: vec![Cidr::new(u32::from_be_bytes([10, 0, 0, 0]), 8).unwrap()],
            ports: vec![(Protocol::Tcp, None)],
        }],
    });
    let mut benign =
        ControlPlaneProgram::new().with_propagation_delay(params.benign_propagation_delay);
    let mut at = params.benign_update_period;
    let mut install = true;
    while at < params.duration {
        if install {
            benign.install_acl(at, background_ip, bg_table.clone());
        } else {
            benign.remove_acl(at, background_ip);
        }
        install = !install;
        at += params.benign_update_period;
    }
    b.attach_control_plane(node, benign);

    if let Some(ctrl) = &params.defense {
        b.attach_defense(node, DefenseController::new(*ctrl));
    }

    (
        b.build(),
        PolicyChurnHandles {
            victim_source,
            node,
            victim_ip,
            attacker_ip,
        },
    )
}

/// Which attack runs alongside the crash/recovery window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashRecoveryAttack {
    /// No attack: the pure fault/recovery baseline.
    None,
    /// The control-plane flap train, timed to start at the crash: every
    /// re-install competes with the recovery's own control-plane work
    /// for the same cycle budget.
    PolicyFlap,
    /// The unique-destination upcall spray from the crash instant: the
    /// post-restart cold cache must refill through a monopolised slow
    /// path.
    UpcallFlood,
}

impl CrashRecoveryAttack {
    /// Stable row label for reports.
    pub fn name(self) -> &'static str {
        match self {
            CrashRecoveryAttack::None => "none",
            CrashRecoveryAttack::PolicyFlap => "policy_flap",
            CrashRecoveryAttack::UpcallFlood => "upcall_flood",
        }
    }
}

/// Parameters of the crash-recovery scenario.
#[derive(Debug, Clone)]
pub struct CrashRecoveryParams {
    /// Run length.
    pub duration: SimTime,
    /// When the CMS program installs the victim's ACL (it is also
    /// installed at build, so the prober is denied from t = 0; the
    /// program copy is what reconciliation's desired state replays).
    pub acl_install_at: SimTime,
    /// When the unauthorized prober starts (after the ACL landed, so
    /// every delivered prober packet is a wrong verdict).
    pub prober_start: SimTime,
    /// Whether the switch crashes at all (false = the never-crashed
    /// baseline the verdicts are compared against).
    pub crash: bool,
    /// When the switch process dies.
    pub crash_at: SimTime,
    /// Blackout before the restart completes.
    pub down_for: SimTime,
    /// The attack riding the recovery window.
    pub attack: CrashRecoveryAttack,
    /// Interval of the flap train's re-installs.
    pub flap_period: SimTime,
    /// Upcall-flood bandwidth, bits/second of 64-B frames.
    pub attack_bandwidth_bps: f64,
    /// `Some` = the CMS sends through the at-least-once layer (acks +
    /// retry + reconciliation); `None` = fire-and-forget delivery, the
    /// vulnerable baseline.
    pub reliable: Option<ReliabilityConfig>,
    /// CMS→switch channel fault model (drops/duplicates/delay), if any.
    pub channel: Option<ChannelFaultConfig>,
    /// Whitelisted victim clients (each a /32 rule and a live flow).
    pub clients: usize,
    /// Victim aggregate rate, packets/second across all clients.
    pub victim_pps: f64,
    /// Victim frame size, bytes.
    pub victim_frame_bytes: usize,
    /// Unauthorized prober rate, packets/second.
    pub prober_pps: f64,
    /// Which dataplane architecture the node runs.
    pub backend: BackendKind,
    /// Datapath CPU budget, cycles/second.
    pub cpu_cycles_per_sec: u64,
}

impl Default for CrashRecoveryParams {
    fn default() -> Self {
        CrashRecoveryParams {
            duration: SimTime::from_secs(12),
            acl_install_at: SimTime::from_millis(500),
            prober_start: SimTime::from_secs(1),
            crash: true,
            crash_at: SimTime::from_secs(4),
            down_for: SimTime::from_millis(200),
            attack: CrashRecoveryAttack::PolicyFlap,
            flap_period: SimTime::from_millis(20),
            attack_bandwidth_bps: 10e6,
            reliable: None,
            channel: None,
            clients: 256,
            victim_pps: 20_000.0,
            victim_frame_bytes: 400,
            prober_pps: 1_000.0,
            backend: BackendKind::OvsCache,
            cpu_cycles_per_sec: SimConfig::default().cpu_cycles_per_sec,
        }
    }
}

/// Source/node indices of the built crash-recovery scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashRecoveryHandles {
    /// The victim fan source.
    pub victim_source: usize,
    /// The unauthorized prober — every packet of it the switch
    /// *delivers* is a wrong verdict (a vanished deny rule).
    pub prober_source: usize,
    /// The upcall-flood source, when that attack is selected.
    pub attack_source: Option<usize>,
    /// The single simulated node.
    pub node: usize,
    /// The victim pod's IP.
    pub victim_ip: u32,
    /// The attacker pod's IP.
    pub attacker_ip: u32,
}

/// Builds the crash-recovery experiment: one node hosting a victim
/// service behind a client-whitelist ACL, an unauthorized prober
/// hammering that service, and a switch crash mid-run. The crash wipes
/// every installed ACL (the datapath restarts permissive, as OVS does
/// until the controller re-pushes flows), so the prober's packets —
/// denied from t = 0 — suddenly *deliver*: each one is a wrong verdict,
/// a security hole the report makes countable. Under fire-and-forget
/// control (`reliable: None`) the hole stays open for the rest of the
/// run: the install was consumed long ago and nothing ever re-sends it.
/// The at-least-once layer closes it — reconciliation diffs desired
/// against installed state and re-pushes the ACL within a bounded
/// window. The headline cell rides an attack on the recovery:
/// [`CrashRecoveryAttack::PolicyFlap`] floods the control plane with
/// re-installs from the crash instant, so the recovery's own updates
/// compete with the attack's for the same budget.
pub fn crash_recovery_scenario(params: &CrashRecoveryParams) -> (Simulation, CrashRecoveryHandles) {
    let cfg = SimConfig {
        duration: params.duration,
        cpu_cycles_per_sec: params.cpu_cycles_per_sec,
        ..SimConfig::default()
    };
    // Scoped invalidation throughout: PR 5 settled that ablation — here
    // the subject is recovery, so the flap must not win by global
    // flushes alone. The flood variant needs the bounded slow path to
    // have something to monopolise.
    let pipeline = match params.attack {
        CrashRecoveryAttack::UpcallFlood => PipelineMode::Bounded(UpcallPipelineConfig {
            queue_capacity: 64,
            handler_cycles_per_step: 400_000,
            port_quota_per_step: None,
        }),
        _ => PipelineMode::Inline,
    };
    let dp = DpConfig {
        scoped_invalidation: true,
        pipeline,
        backend: params.backend,
        ..DpConfig::default()
    };
    let mut b = testbed(cfg);
    let node = b.add_host(dp);

    let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
    let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
    b.add_pod(node, victim_ip);
    b.add_pod(node, attacker_ip);

    // The victim's microsegmentation: one /32 whitelist entry per
    // client peer.
    assert!(params.clients > 0 && params.clients <= 65_536);
    let client_ip = |i: usize| [10, 2, (i >> 8) as u8, (i & 0xff) as u8];
    let victim_policy = NetworkPolicy {
        name: "victim-peers".into(),
        ingress: vec![IngressRule {
            from: (0..params.clients)
                .map(|i| Cidr::host(client_ip(i)))
                .collect(),
            ports: vec![(Protocol::Tcp, Some(5201))],
        }],
    };
    let victim_table = PolicyCompiler.compile_k8s(&victim_policy);
    b.install_acl(victim_ip, victim_table.clone());

    // Whitelisted clients, sending for the whole run.
    let victim_keys: Vec<FlowKey> = (0..params.clients)
        .map(|i| {
            FlowKey::tcp(
                client_ip(i),
                victim_ip.to_be_bytes(),
                40_000 + (i % 16_000) as u16,
                5201,
            )
        })
        .collect();
    let victim_source = b.add_source(
        node,
        Box::new(
            FanSource::new(victim_keys, params.victim_frame_bytes, params.victim_pps)
                .named("victim"),
        ),
    );

    // The unauthorized prober: a peer outside the whitelist, starting
    // after the ACL landed. In a healthy run its delivered count is
    // exactly zero.
    let prober_keys = vec![FlowKey::tcp(
        [10, 9, 0, 1],
        victim_ip.to_be_bytes(),
        40_000,
        5201,
    )];
    let prober_source = b.add_source(
        node,
        Box::new(
            FanSource::new(prober_keys, 64, params.prober_pps)
                .starting_at(params.prober_start)
                .named("prober"),
        ),
    );

    // The attacker's own innocuous ACL, installed at build like any
    // tenant policy.
    let attacker_policy = NetworkPolicy {
        name: "attacker-web".into(),
        ingress: vec![IngressRule {
            from: vec![Cidr::new(u32::from_be_bytes([10, 0, 0, 0]), 8).unwrap()],
            ports: vec![(Protocol::Tcp, Some(8080))],
        }],
    };
    let attacker_table = PolicyCompiler.compile_k8s(&attacker_policy);
    b.install_acl(attacker_ip, attacker_table.clone());

    // Everything the CMS sends travels one path: the victim's program
    // install, and — for the flap attack — the attacker's re-install
    // train (the CMS retries tenants' updates indiscriminately).
    let mut program = ControlPlaneProgram::new();
    program.install_acl(params.acl_install_at, victim_ip, victim_table);
    // The attacker's ACL is desired state too: were it absent from the
    // program, reconciliation would strip the build-time install as
    // unknown (and, under the flap, oscillate against the re-install
    // train).
    program.install_acl(params.acl_install_at, attacker_ip, attacker_table.clone());
    if params.attack == CrashRecoveryAttack::PolicyFlap {
        program.merge(AttackSchedule::policy_flap(
            attacker_ip,
            &attacker_table,
            params.crash_at,
            params.duration,
            params.flap_period,
        ));
    }
    match &params.reliable {
        Some(rcfg) => b.attach_reliable_control_plane(node, program, *rcfg),
        None => b.attach_control_plane(node, program),
    }

    // The upcall-flood variant sprays from the crash instant.
    let attack_source = (params.attack == CrashRecoveryAttack::UpcallFlood).then(|| {
        let spec = AttackSpec::masks_512(pi_cms::PolicyDialect::Kubernetes);
        b.add_source(
            node,
            Box::new(
                AttackSchedule::new(
                    CovertSequence::new(spec.build_target(attacker_ip)),
                    params.attack_bandwidth_bps,
                    params.crash_at,
                )
                .upcall_flood(),
            ),
        )
    });

    // The fault program: the crash, plus the channel fault model the
    // reliable layer (if any) sends through.
    let mut faults = FaultSchedule::new();
    if params.crash {
        faults = faults.crash(params.crash_at, params.down_for);
    }
    if let Some(ch) = params.channel {
        faults = faults.channel(ch);
    }
    if !faults.is_empty() {
        b.attach_faults(node, faults);
    }

    (
        b.build(),
        CrashRecoveryHandles {
            victim_source,
            prober_source,
            attack_source,
            node,
            victim_ip,
            attacker_ip,
        },
    )
}

/// Peak-capacity measurement (E3/E4): how many packets/second one
/// datapath core sustains as a function of the injected mask count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityReport {
    /// Megaflow masks present during the measurement.
    pub masks: usize,
    /// Mean cycles per packet of the probe workload.
    pub avg_cycles: f64,
    /// Sustainable packets/second at the configured CPU budget.
    pub capacity_pps: f64,
}

impl CapacityReport {
    /// Capacity expressed as Gb/s of MTU-sized frames.
    pub fn capacity_gbps(&self, frame_bytes: usize) -> f64 {
        self.capacity_pps * frame_bytes as f64 * 8.0 / 1e9
    }
}

/// Measures fast-path capacity before and after populating the masks of
/// `spec`, using the same EMC-missing probe workload for both (unique
/// covert "scan" packets), on the architecture `dp.backend` selects.
/// Returns `(baseline, attacked)`.
pub fn measure_capacity(
    dp: DpConfig,
    cpu_cycles_per_sec: u64,
    spec: &AttackSpec,
    samples: u64,
) -> (CapacityReport, CapacityReport) {
    let attacker_pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let seq = CovertSequence::new(spec.build_target(attacker_pod_ip));

    // Subtable walk order is creation order, so baseline and attacked
    // states must be built the way the attack builds them: a fresh
    // switch each, with the populate pass (which creates the scan
    // stream's full mask *last*) run only on the attacked one.
    let build_switch = || {
        let mut sw = build_backend(dp.clone(), CostModel::default());
        sw.attach_pod(attacker_pod_ip, 1);
        sw.install_acl(attacker_pod_ip, spec.compile());
        sw
    };
    let measure = |sw: &mut dyn DataplaneBackend| -> CapacityReport {
        // Warm the scan megaflow so the measurement is pure fast path.
        pi_backend::process_one(sw, &seq.scan_packet(0), SimTime::from_secs(1));
        let before = sw.snapshot().switch;
        for n in 0..samples {
            pi_backend::process_one(sw, &seq.scan_packet(1 + n), SimTime::from_secs(1));
        }
        let after = sw.snapshot();
        let avg = (after.switch.cycles - before.cycles) as f64 / samples as f64;
        CapacityReport {
            masks: after.masks,
            avg_cycles: avg,
            capacity_pps: cpu_cycles_per_sec as f64 / avg,
        }
    };

    let mut baseline_sw = build_switch();
    let baseline = measure(&mut *baseline_sw);

    let mut attacked_sw = build_switch();
    for (i, pkt) in seq.populate_packets().enumerate() {
        let at = SimTime::from_secs(2) + SimTime::from_millis(i as u64);
        pi_backend::process_one(&mut *attacked_sw, &pkt, at);
    }
    let attacked = measure(&mut *attacked_sw);
    (baseline, attacked)
}

/// What the victim side of [`measure_backend_capacity`] looks like on
/// the wire — the two workloads probe different cache tiers, so the
/// immunity matrix reports both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityWorkload {
    /// One established, cache-resident flow (steady iperf traffic): the
    /// measurement shows whether the covert stream can evict the
    /// victim's first-level cached state (EMC collision churn on the
    /// OVS pipeline, FIFO replacement on the bounded offload table).
    CachedFlow,
    /// A fresh connection per sample (a service accepting clients): the
    /// measurement shows what a cache-missing packet costs, which is
    /// where the tuple-space explosion lands — the paper's E3/E4
    /// EMC-missing probe methodology.
    ConnectionSetup,
}

impl CapacityWorkload {
    /// Stable row label for reports.
    pub fn name(self) -> &'static str {
        match self {
            CapacityWorkload::CachedFlow => "cached_flow",
            CapacityWorkload::ConnectionSetup => "connection_setup",
        }
    }
}

/// Backend-generic retained-capacity measurement: how many victim
/// packets/second the architecture selected by `dp.backend` sustains
/// with and without a tuple-space-explosion covert stream running
/// alongside. Unlike [`measure_capacity`] (which probes the attacked
/// *state* with the attack stream itself), this measures a distinct
/// victim workload under a *sustained* interleaved attack —
/// `covert_per_victim` never-before-seen covert packets between
/// consecutive victim samples — so backends whose weakness is
/// replacement churn (bounded offload tables) are exercised, not just
/// backends whose weakness is lookup cost. Returns
/// `(baseline, attacked)`; the immunity-matrix cell is their ratio.
pub fn measure_backend_capacity(
    dp: DpConfig,
    cpu_cycles_per_sec: u64,
    spec: &AttackSpec,
    workload: CapacityWorkload,
    victim_samples: u64,
    covert_per_victim: u64,
) -> (CapacityReport, CapacityReport) {
    let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
    let attacker_pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let seq = CovertSequence::new(spec.build_target(attacker_pod_ip));

    // The victim's flows: one pinned key for the established workload,
    // a fresh source port per sample for connection setup. Its ACL is
    // the legitimate fig3 microsegmentation (cluster block → iperf
    // port), so every architecture classifies the same ground truth.
    let victim_key = |sample: u64| {
        let tp_src = match workload {
            CapacityWorkload::CachedFlow => 40_000,
            CapacityWorkload::ConnectionSetup => 1_024 + (sample % 60_000) as u16,
        };
        FlowKey::tcp(
            std::net::Ipv4Addr::from(u32::from_be_bytes([10, 0, 0, 10])),
            std::net::Ipv4Addr::from(victim_ip),
            tp_src,
            5201,
        )
    };

    let build = || -> Box<dyn DataplaneBackend> {
        let mut be = build_backend(dp.clone(), CostModel::default());
        be.attach_pod(victim_ip, 1);
        be.attach_pod(attacker_pod_ip, 2);
        let victim_policy = NetworkPolicy {
            name: "victim-iperf".into(),
            ingress: vec![IngressRule {
                from: vec![Cidr::new(u32::from_be_bytes([10, 0, 0, 0]), 8).unwrap()],
                ports: vec![(Protocol::Tcp, Some(5201))],
            }],
        };
        be.install_acl(victim_ip, PolicyCompiler.compile_k8s(&victim_policy));
        let table = spec.compile();
        be.install_acl(attacker_pod_ip, table);
        be
    };

    // One measured run: per sample, `covert` covert packets (each a
    // never-before-seen flow) and then one victim packet whose cycles
    // are the sample. The clock advances a microsecond per packet so
    // revalidation runs at its real cadence without idling anyone out.
    let measure = |be: &mut dyn DataplaneBackend, covert: u64| -> CapacityReport {
        let mut now = SimTime::from_secs(10);
        let tick = SimTime::from_micros(1);
        // Establish the victim's cached state before measuring.
        pi_backend::process_one(be, &victim_key(0), now);
        be.drain_upcalls(now, &mut |_| {});
        let mut covert_n = 1u64; // 0 warmed the attacked state's scan mask
        let mut victim_cycles = 0u64;
        for sample in 0..victim_samples {
            for _ in 0..covert {
                now += tick;
                be.process_batch(&[seq.scan_packet(covert_n)], now, &mut |_, _| true);
                covert_n += 1;
            }
            be.drain_upcalls(now, &mut |_| {});
            now += tick;
            let out = pi_backend::process_one(be, &victim_key(sample), now);
            victim_cycles += out.cycles;
            be.revalidate(now);
        }
        let avg = victim_cycles as f64 / victim_samples as f64;
        CapacityReport {
            masks: be.snapshot().masks,
            avg_cycles: avg,
            capacity_pps: cpu_cycles_per_sec as f64 / avg,
        }
    };

    let mut baseline_be = build();
    let baseline = measure(&mut *baseline_be, 0);

    // The injection: populate the policy's flow space (on the OVS
    // pipeline this is what creates the mask explosion), then measure
    // under the sustained covert interleave.
    let mut attacked_be = build();
    for (i, pkt) in seq.populate_packets().enumerate() {
        attacked_be.process_batch(
            &[pkt],
            SimTime::from_secs(2) + SimTime::from_micros(i as u64),
            &mut |_, _| true,
        );
    }
    attacked_be.process_batch(&[seq.scan_packet(0)], SimTime::from_secs(9), &mut |_, _| {
        true
    });
    let attacked = measure(&mut *attacked_be, covert_per_victim);
    (baseline, attacked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cms::PolicyDialect;

    #[test]
    fn capacity_collapses_with_masks() {
        let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
        let (base, attacked) = measure_capacity(DpConfig::default(), 1_200_000_000, &spec, 2_000);
        assert!(base.masks <= 2, "baseline masks = {}", base.masks);
        // The baseline scan's full-exact mask is itself one of the 512,
        // so populate adds exactly the remaining 511.
        assert_eq!(attacked.masks, 512);
        let ratio = attacked.capacity_pps / base.capacity_pps;
        assert!(
            ratio < 0.05,
            "512 masks must slash capacity: ratio = {ratio:.4} \
             (base {:.0} pps, attacked {:.0} pps)",
            base.capacity_pps,
            attacked.capacity_pps
        );
    }

    #[test]
    fn upcall_saturation_starves_then_quota_restores() {
        let run = |quota: Option<u32>| {
            let params = UpcallSaturationParams {
                duration: SimTime::from_secs(4),
                port_quota_per_step: quota,
                ..Default::default()
            };
            let (sim, handles) = upcall_saturation_scenario(&params);
            let report = sim.run();
            let victim = report.source_totals[handles.victim_source].clone();
            let up = report.upcall_stats[handles.node];
            (victim, up)
        };
        let (victim, up) = run(None);
        assert!(
            victim.dropped_upcall > victim.delivered,
            "saturated handlers drop most victim connections: {victim:?}"
        );
        assert!(up.queue_drops > 0);
        assert!(up.mean_wait_steps() > 0.0, "install latency visible");

        let (victim, _) = run(Some(8));
        let offered = victim.generated;
        assert!(
            victim.dropped_upcall * 100 <= offered,
            "fair share restores the victim to <1% drops: {victim:?}"
        );
        assert!(victim.delivered * 10 >= offered * 9, "≥90% delivered");
    }

    #[test]
    fn adaptive_defense_detects_and_restores_the_victim() {
        let run = |defense: DefenseMode| {
            let params = AdaptiveDefenseParams {
                duration: SimTime::from_secs(6),
                attack_start: SimTime::from_secs(2),
                defense,
                ..Default::default()
            };
            let (sim, handles) = adaptive_defense_scenario(&params);
            (sim.run(), handles)
        };

        // Undefended: the flood starves the victim's flow setups.
        let (report, h) = run(DefenseMode::Undefended);
        let victim = &report.source_totals[h.victim_source];
        assert!(
            victim.dropped_upcall > victim.delivered,
            "undefended victim must starve: {victim:?}"
        );
        assert!(report.defense[h.node].is_none());

        // Adaptive: detection within a second of onset, then recovery.
        let (report, h) = run(DefenseMode::adaptive(ControllerConfig::default()));
        let victim = &report.source_totals[h.victim_source];
        let defense = report.defense[h.node].as_ref().expect("controller");
        let detect = defense.first_detection().expect("attack detected");
        assert!(detect >= SimTime::from_secs(2), "no benign-phase detection");
        assert!(
            detect <= SimTime::from_secs(3),
            "detection within 1 s of onset, got {detect:?}"
        );
        assert!(defense.first_mitigation().is_some());
        assert_eq!(defense.activations, 1, "one clean activation");
        // All detections and activations happened after the onset: the
        // benign phase is false-positive-free.
        assert!(defense
            .detections
            .iter()
            .all(|e| e.at >= SimTime::from_secs(2)));
        // Post-mitigation recovery: the victim's delivered fraction
        // beats the undefended run by an order of magnitude.
        assert!(
            victim.delivered * 10 >= victim.generated * 8,
            "quota restores most victim connections: {victim:?}"
        );
        // The benign source never suffered either way.
        let benign = &report.source_totals[h.benign_source];
        assert_eq!(benign.dropped_upcall, 0);
    }

    #[test]
    fn policy_flap_collapses_the_victim_and_scoped_invalidation_restores_it() {
        let run = |flap: bool, scoped: bool| {
            let params = PolicyChurnParams {
                duration: SimTime::from_secs(4),
                attack_start: SimTime::from_secs(1),
                flap,
                scoped_invalidation: scoped,
                ..Default::default()
            };
            let (sim, handles) = policy_churn_scenario(&params);
            let report = sim.run();
            let victim = report.source_totals[handles.victim_source].clone();
            let stats = report.switch_stats[handles.node];
            (victim, stats)
        };

        // Benign: routine churn costs next to nothing.
        let (benign, benign_stats) = run(false, false);
        assert!(
            benign.delivered * 100 >= benign.generated * 99,
            "benign churn must not hurt the victim: {benign:?}"
        );
        assert!(benign_stats.policy_updates > 0, "benign churn is live");

        // Flap + global flush: the victim collapses with zero attack
        // packets on the wire.
        let (flapped, flap_stats) = run(true, false);
        assert!(
            flapped.delivered * 2 < benign.delivered,
            "policy flap must collapse the victim: {flapped:?} vs benign {benign:?}"
        );
        assert!(
            flap_stats.cache_flushes > 100,
            "the flap is a flush storm: {flap_stats:?}"
        );
        assert!(flap_stats.control_cycles > 0, "flushes are not free");

        // Scoped invalidation: same flap, victim's megaflows survive.
        let (scoped, scoped_stats) = run(true, true);
        assert!(
            scoped.delivered * 100 >= scoped.generated * 95,
            "scoped invalidation must restore the victim: {scoped:?}"
        );
        assert!(
            scoped_stats.cache_flushes > 100,
            "the flap still churns — it just stops amplifying"
        );
    }

    #[test]
    fn policy_flap_is_detected_as_policy_churn() {
        use pi_detect::Signal;
        let params = PolicyChurnParams {
            duration: SimTime::from_secs(4),
            attack_start: SimTime::from_secs(2),
            defense: Some(ControllerConfig::default()),
            ..Default::default()
        };
        let (sim, handles) = policy_churn_scenario(&params);
        let report = sim.run();
        let defense = report.defense[handles.node].as_ref().expect("controller");
        let churn_edges: Vec<_> = defense
            .detections
            .iter()
            .filter(|e| e.signal == Signal::PolicyChurn)
            .collect();
        assert!(!churn_edges.is_empty(), "flap must raise PolicyChurn");
        assert!(
            churn_edges.iter().all(|e| e.at >= params.attack_start),
            "benign-phase churn must not alarm: {churn_edges:?}"
        );
    }

    #[test]
    fn crash_opens_a_verdict_hole_and_reliable_delivery_closes_it() {
        let run = |crash: bool, reliable: Option<ReliabilityConfig>| {
            let params = CrashRecoveryParams {
                duration: SimTime::from_secs(8),
                crash_at: SimTime::from_secs(3),
                crash,
                reliable,
                ..Default::default()
            };
            let (sim, h) = crash_recovery_scenario(&params);
            (sim.run(), h)
        };

        // Never crashed: the deny rule holds for the whole run.
        let (report, h) = run(false, None);
        assert_eq!(
            report.source_totals[h.prober_source].delivered, 0,
            "healthy run has zero wrong verdicts"
        );
        assert!(report.faults[h.node].is_none(), "no fault program");

        // Crash + fire-and-forget: the install was consumed long ago,
        // nothing re-sends it — the hole stays open to the end.
        let (report, h) = run(true, None);
        let wrong_off = report.source_totals[h.prober_source].delivered;
        assert!(wrong_off > 3_000, "hole stays open: {wrong_off}");
        let faults = report.faults[h.node].as_ref().expect("fault report");
        assert_eq!(faults.crashes, 1);
        assert!(faults.acls_lost >= 2, "victim + attacker ACLs wiped");

        // Crash + at-least-once: reconciliation re-pushes the ACL
        // within a bounded window, even with the flap riding recovery.
        let (report, h) = run(true, Some(ReliabilityConfig::default()));
        let wrong_on = report.source_totals[h.prober_source].delivered;
        assert!(
            wrong_on < wrong_off / 5,
            "reconciliation bounds the hole: {wrong_on} vs {wrong_off}"
        );
        let faults = report.faults[h.node].as_ref().expect("fault report");
        assert!(faults.channel.reconcile_pushes >= 1);
        assert!(faults.recovery_ticks > 0, "a recovery episode closed");
        assert!(
            faults.recovery_ticks <= 1_500,
            "bounded convergence: {} ticks",
            faults.recovery_ticks
        );
        // The victim's own traffic rides out the blackout in the queue.
        let victim = &report.source_totals[h.victim_source];
        assert!(
            victim.delivered * 10 >= victim.generated * 9,
            "victim retains ≥90%: {victim:?}"
        );
    }

    #[test]
    fn backend_capacity_matrix_cells() {
        let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
        let cell = |backend: BackendKind, workload: CapacityWorkload| {
            let dp = DpConfig {
                backend,
                ..DpConfig::default()
            };
            let (base, attacked) =
                measure_backend_capacity(dp, 1_200_000_000, &spec, workload, 500, 8);
            attacked.capacity_pps / base.capacity_pps
        };
        // Connection setup is where the mask explosion lands: the OVS
        // pipeline collapses, the exact-match pipeline is immune.
        let ovs = cell(BackendKind::OvsCache, CapacityWorkload::ConnectionSetup);
        assert!(ovs < 0.2, "OvsCache must collapse: retained = {ovs:.3}");
        let exact = cell(BackendKind::ExactHash, CapacityWorkload::ConnectionSetup);
        assert!(exact >= 0.9, "ExactHash must retain ≥0.9: {exact:.3}");
        let lpm = cell(BackendKind::LpmTier, CapacityWorkload::ConnectionSetup);
        assert!(lpm >= 0.9, "LpmTier is cacheless: {lpm:.3}");
        // The bounded offload table's weakness is replacement churn on
        // established flows: partial degradation, not collapse.
        let nic = cell(BackendKind::NicOffload, CapacityWorkload::CachedFlow);
        assert!(nic < 0.9, "NicOffload pays host fallback: {nic:.3}");
        assert!(nic > 0.1, "NicOffload degrades, not collapses: {nic:.3}");
    }

    #[test]
    fn upcall_flood_immunity_depends_on_backend() {
        let run = |backend: BackendKind| {
            let params = UpcallSaturationParams {
                duration: SimTime::from_secs(3),
                backend,
                ..Default::default()
            };
            let (sim, handles) = upcall_saturation_scenario(&params);
            let report = sim.run();
            report.source_totals[handles.victim_source].clone()
        };
        let ovs = run(BackendKind::OvsCache);
        assert!(
            ovs.dropped_upcall > ovs.delivered,
            "bounded OVS handlers starve the victim: {ovs:?}"
        );
        let exact = run(BackendKind::ExactHash);
        assert!(
            exact.delivered * 10 >= exact.generated * 9,
            "the inline exact-match pipeline has no handler to saturate: {exact:?}"
        );
    }

    #[test]
    fn short_fig3_smoke() {
        // A 3-second slice of the scenario builds and runs.
        let params = Fig3Params {
            duration: SimTime::from_secs(3),
            attack_start: SimTime::from_secs(1),
            ..Default::default()
        };
        let (sim, handles) = fig3_scenario(&params);
        let report = sim.run();
        assert_eq!(report.throughput_bps.len(), 3);
        assert!(report.source_totals[handles.victim_source].delivered > 0);
        // Attack started at 1 s: masks on the server node must explode.
        let masks = report.masks[handles.attacked_node].last().unwrap().1;
        assert!(masks > 4_000.0, "masks = {masks}");
    }
}
