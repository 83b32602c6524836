//! The paper's experiments, each a short recipe over one set of shared
//! parts.
//!
//! Every experiment is the Fig. 1 picture — a victim pod behind its own
//! whitelist, a co-located attacker pod with an injected ACL, a covert
//! stream or a control-plane train, optional background, faults and
//! defense — so the picture is spelled once. A **part** is a private
//! function (or a constant) for a block at least two recipes use: the
//! run config, the pod addresses, `allow_cluster_to(port)` policies,
//! the whitelisted-clients policy with its fan source, the upcall-flood
//! source, the churn victim, the bounded slow path, and on the cluster
//! side policy admission, the victim iperf pair and the fanned-out
//! covert streams. A block only one recipe uses stays inline in it.
//!
//! Five recipes are testbed builds (one or two hosts, fixed pod IPs on
//! [`FleetBuilder`]); two are fleets placed by the CMS through
//! [`ClusterBuilder`]. A `*Params` field exists only where some caller
//! sets it; every other number is a `const` beside its recipe, `pub`
//! where an experiment reports it. Every recipe returns the built
//! simulation and one [`Handles`].
//!
//! What the goldens and the benchmark digests observe, and a recipe
//! must therefore keep: the cloud hands out pod IPs and vports in
//! placement-call order, [`FleetBuilder::add_pod`] hands out vports in
//! call order, global source ids are `add_source` order, and two
//! control-plane programs attached to one host merge in attach order.

use pi_attack::{AttackSchedule, AttackSpec, CovertSequence};
use pi_backend::{build_backend, DataplaneBackend};
use pi_classifier::FlowTable;
use pi_cms::cloud::CompiledPolicy;
use pi_cms::{
    Cidr, Cloud, CmsError, ControlPlaneProgram, IngressRule, NetworkPolicy, PlacementStrategy, Pod,
    PodId, PolicyCompiler, PolicyDialect, Protocol, TenantId,
};
use pi_core::{FlowKey, SimTime};
use pi_datapath::{BackendKind, CostModel, DpConfig, PipelineMode, UpcallPipelineConfig};
use pi_detect::{ControllerConfig, DefenseController};
use pi_fault::{ChannelFaultConfig, FaultSchedule};
use pi_traffic::{ChurnSource, FanSource, IperfSource, PoissonFlowSource};

use crate::placement::host_of;
use crate::{ClusterBuilder, FleetBuilder, FleetSim, SimConfig, Simulation};

// --- Parts -----------------------------------------------------------

/// The testbed's victim service pod, on the attacked node.
const VICTIM_IP: u32 = u32::from_be_bytes([10, 1, 0, 10]);
/// The attacker's pod, co-located with it.
const ATTACKER_IP: u32 = u32::from_be_bytes([10, 1, 0, 66]);
/// The unprotected background pod beside them.
const BACKGROUND_IP: u32 = u32::from_be_bytes([10, 1, 0, 20]);
/// The victim's service port (iperf).
const VICTIM_PORT: u16 = 5201;
/// A saturated victim iperf, bits/second (paper: ~1 Gb/s).
const IPERF_RATE_BPS: f64 = 1e9;
/// Covert budget of one tuple-space attacker, bits/second (paper:
/// 1–2 Mb/s).
pub const COVERT_BANDWIDTH_BPS: f64 = 2e6;
/// Upcall-flood bandwidth, bits/second of 64-B frames (≈ 19.5 kpps).
pub const FLOOD_BANDWIDTH_BPS: f64 = 10e6;
/// The churn victim's connection rate, new flows/second.
pub const CHURN_VICTIM_PPS: f64 = 2_000.0;
/// Interval between the policy flap's ACL re-installs.
pub const FLAP_PERIOD: SimTime = SimTime::from_millis(20);
/// Megaflow table limit of the flood recipes (small: the flood exhausts
/// it in the first second, which keeps the victim in the slow path).
const FLOOD_FLOW_LIMIT: usize = 2_048;

/// What a recipe hands back beside the simulation: where its sources
/// sit in the report's per-source vectors, by the label each source
/// already carries there, and which hosts its two tenants landed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handles {
    /// Source labels, in global source order.
    labels: Vec<String>,
    /// Hosts carrying a victim service pod, in pod order (a testbed
    /// recipe: the one attacked node).
    pub victim_hosts: Vec<usize>,
    /// Hosts carrying an attacker pod — the switches the attack
    /// saturates, in pod order.
    pub attacker_hosts: Vec<usize>,
}

impl Handles {
    /// Report index of the source labelled exactly `label`: `"victim"`,
    /// `"attack"`, `"background"`, `"benign"`, `"prober"` on the
    /// testbed; `"victim3"`, `"attack@1"`, `"background0"` in a fleet.
    ///
    /// # Panics
    /// When the recipe registered no such source.
    #[allow(clippy::panic, reason = "a mistyped label literal; see # Panics")]
    pub fn source(&self, label: &str) -> usize {
        let at = self.labels.iter().position(|l| l == label);
        at.unwrap_or_else(|| panic!("no source {label:?} among {:?}", self.labels))
    }

    /// Report indices of every source whose label starts with `prefix`
    /// (`"victim"` = all of a fleet's victims), in source order.
    pub fn sources(&self, prefix: &str) -> Vec<usize> {
        let matching = |(i, l): (usize, &String)| l.starts_with(prefix).then_some(i);
        self.labels
            .iter()
            .enumerate()
            .filter_map(matching)
            .collect()
    }
}

/// The run config: everything but the length (and, for a fleet, the
/// worker count) is the paper's environment.
fn run_config(duration: SimTime, workers: usize) -> SimConfig {
    SimConfig {
        duration,
        workers,
        ..SimConfig::default()
    }
}

/// Builds, and labels the sources for the caller.
///
/// # Panics
/// When a recipe wired its own topology wrong ([`crate::BuildError`]) —
/// the one place the recipes, whose `(Simulation, Handles)` signatures
/// `benchmark/` imports, unwrap [`FleetBuilder::build`].
#[allow(clippy::expect_used, reason = "a recipe's own wiring; see # Panics")]
fn finish(
    b: FleetBuilder,
    victim_hosts: Vec<usize>,
    attacker_hosts: Vec<usize>,
) -> (Simulation, Handles) {
    let handles = Handles {
        labels: b.source_labels(),
        victim_hosts,
        attacker_hosts,
    };
    let sim = b.build().expect("the recipe's topology is well-formed");
    (sim, handles)
}

/// A tenant's own, perfectly legitimate microsegmentation: allow the
/// cluster block to one TCP port (`None` = any).
fn allow_cluster_to(name: &str, port: Option<u16>) -> NetworkPolicy {
    NetworkPolicy {
        name: name.into(),
        ingress: vec![IngressRule {
            from: vec![Cidr::CLUSTER],
            ports: vec![(Protocol::Tcp, port)],
        }],
    }
}

/// The victim's policy wherever it runs iperf.
fn victim_iperf_policy() -> NetworkPolicy {
    allow_cluster_to("victim-iperf", Some(VICTIM_PORT))
}

/// The attacker's own innocuous-looking ACL — installed at build like
/// any tenant policy, and what the policy flap re-installs.
fn attacker_web_acl() -> FlowTable {
    PolicyCompiler.compile_k8s(&allow_cluster_to("attacker-web", Some(8080)))
}

/// The policy-flap train: [`attacker_web_acl`] re-installed at the
/// attacker's pod every [`FLAP_PERIOD`] over `from..until` (empty when
/// the window is — the attack switched off).
fn attacker_flap(table: &FlowTable, from: SimTime, until: SimTime) -> ControlPlaneProgram {
    AttackSchedule::policy_flap(ATTACKER_IP, table, from, until, FLAP_PERIOD)
}

/// The whitelisted victim service: one /32 rule per client peer
/// (`10.2.0.0 + i`) — so each client owns a megaflow and a full flush
/// costs one slow-path rebuild *per client* — and the clients' standing
/// traffic, a round-robin fan of 400-B frames named `victim` at `pps`
/// in aggregate.
fn whitelisted_clients(clients: u32, pps: f64) -> (FlowTable, FanSource) {
    let client_ip = |i: u32| u32::from_be_bytes([10, 2, 0, 0]) + i;
    let policy = NetworkPolicy {
        name: "victim-peers".into(),
        ingress: vec![IngressRule {
            from: (0..clients).map(|i| Cidr::host(client_ip(i))).collect(),
            ports: vec![(Protocol::Tcp, Some(VICTIM_PORT))],
        }],
    };
    let key = |i: u32| {
        let tp_src = 40_000 + (i % 16_000) as u16;
        FlowKey::tcp(client_ip(i), VICTIM_IP, tp_src, VICTIM_PORT)
    };
    let fan = FanSource::new((0..clients).map(key).collect(), 400, pps);
    (PolicyCompiler.compile_k8s(&policy), fan.named("victim"))
}

/// The connection-churn victim: short-lived connections from the
/// cluster block, from `start` on (once the flood owns the flow table,
/// so every one of them needs a slow-path handler).
fn churn_victim(start: SimTime) -> ChurnSource {
    let clients = u32::from_be_bytes([10, 2, 0, 0]);
    ChurnSource::new(clients, VICTIM_IP, VICTIM_PORT, 64, CHURN_VICTIM_PPS)
        .starting_at(start)
        .named("victim")
}

/// The attacker's paced destination spray: the covert sequence of a
/// 512-mask Kubernetes injection re-paced so that every packet upcalls
/// ([`AttackSchedule::upcall_flood`]), from `start` on.
fn upcall_flood(start: SimTime) -> AttackSchedule {
    let target = AttackSpec::masks_512(PolicyDialect::Kubernetes).build_target(ATTACKER_IP);
    AttackSchedule::new(CovertSequence::new(target), FLOOD_BANDWIDTH_BPS, start).upcall_flood()
}

/// The bounded slow path the flood saturates: 64-deep per-port queues
/// and ≈ 13 upcalls/ms of handler budget, with the per-port fair-share
/// quota (the mitigation) if any.
fn bounded_slow_path(port_quota_per_step: Option<u32>) -> PipelineMode {
    PipelineMode::Bounded(UpcallPipelineConfig {
        queue_capacity: 64,
        handler_cycles_per_step: 400_000,
        port_quota_per_step,
    })
}

/// Submits a policy for each of `pods` through the CMS as the pod's own
/// tenant and installs what admission returns — the full injection
/// path, for the victims' legitimate policies and the injected ACL
/// alike.
///
/// # Panics
/// When the CMS rejects one of the recipe's own policies.
#[allow(clippy::expect_used, reason = "a recipe's own policy; see # Panics")]
fn admit(
    cb: &mut ClusterBuilder,
    pods: &[Pod],
    apply: impl Fn(&Cloud, TenantId, PodId) -> Result<CompiledPolicy, CmsError>,
) {
    for pod in pods {
        cb.apply_and_install(pod.tenant, pod, &apply)
            .expect("the scenario's policies pass CMS admission");
    }
}

/// The victims' own iperf policy, through admission like any tenant's.
fn admit_victims(cb: &mut ClusterBuilder, victims: &[Pod]) {
    let policy = victim_iperf_policy();
    admit(cb, victims, |c, t, p| c.apply_k8s_policy(t, p, &policy));
}

/// The attack's first step: `spec`'s ACL injected at the attacker's own
/// pods through that same admission path.
fn inject(cb: &mut ClusterBuilder, spec: &AttackSpec, attackers: &[Pod]) {
    let acl = spec.build_policy();
    admit(cb, attackers, |c, t, p| acl.apply(c, t, p));
}

/// Victim `i`'s iperf pair: a client pod of the same tenant on
/// `client_host`, streaming to `server` at `rate_bps` as `victim<i>`.
fn victim_iperf(
    cb: &mut ClusterBuilder,
    i: usize,
    server: &Pod,
    client_host: usize,
    rate_bps: f64,
) {
    let Some(client) = cb.place_pod_on(server.tenant, client_host) else {
        return; // `build` reports the missing host
    };
    let key = FlowKey::tcp(client.ip, server.ip, 40_000 + i as u16, VICTIM_PORT);
    let iperf = IperfSource::new(key, 1500, rate_bps).named(&format!("victim{i}"));
    cb.add_source(client_host, Box::new(iperf));
}

/// The covert streams: one paced schedule per attacker pod
/// (`attack@<i>`, consecutive starts `stagger` apart), each injected
/// over the fabric from a client pod on the next host of the first
/// `ring`.
fn covert_streams(
    cb: &mut ClusterBuilder,
    spec: &AttackSpec,
    attackers: &[Pod],
    ring: usize,
    bandwidth_bps: f64,
    start: SimTime,
    stagger: SimTime,
) {
    let ips: Vec<u32> = attackers.iter().map(|p| p.ip).collect();
    let schedules = AttackSchedule::fan_out(spec, &ips, bandwidth_bps, start, stagger);
    for (pod, schedule) in attackers.iter().zip(schedules) {
        let client_host = (host_of(pod) + 1) % ring;
        cb.place_pod_on(pod.tenant, client_host);
        cb.add_source(client_host, Box::new(schedule));
    }
}

// --- Testbed recipes ------------------------------------------------

/// Parameters of the Fig. 3 reproduction (and its variants).
#[derive(Debug, Clone)]
pub struct Fig3Params {
    /// Run length (paper: 150 s).
    pub duration: SimTime,
    /// Covert stream start (paper: 60 s).
    pub attack_start: SimTime,
    /// Datapath configuration for both nodes.
    pub dp: DpConfig,
    /// Optional closed-loop defense: one controller per node with this
    /// tuning (the adaptive counterpart of the static `dp` knobs).
    pub defense: Option<ControllerConfig>,
}

impl Default for Fig3Params {
    fn default() -> Self {
        Fig3Params {
            duration: SimTime::from_secs(150),
            attack_start: SimTime::from_secs(60),
            dp: DpConfig::default(),
            defense: None,
        }
    }
}

/// Builds the paper's demo topology (Fig. 1): a client node and a server
/// node. The server node hosts the victim's service pod (with the
/// victim's own legitimate NetworkPolicy), the attacker's pod (with the
/// injected ACL — the 8192-mask Calico shape) and a background pod; the
/// client node originates the victim's iperf, the covert stream
/// ([`COVERT_BANDWIDTH_BPS`]) and background chatter.
pub fn fig3_scenario(params: &Fig3Params) -> (Simulation, Handles) {
    let spec = AttackSpec::masks_8192();
    let mut b = FleetBuilder::new(run_config(params.duration, 1));
    let client_node = b.add_host(params.dp.clone());
    let server_node = b.add_host(params.dp.clone());

    let victim_client_ip = u32::from_be_bytes([10, 0, 0, 10]);
    b.add_pod(client_node, victim_client_ip);
    b.add_pod(server_node, VICTIM_IP);
    b.add_pod(server_node, ATTACKER_IP);
    b.add_pod(server_node, BACKGROUND_IP);
    b.install_acl(
        VICTIM_IP,
        PolicyCompiler.compile_k8s(&victim_iperf_policy()),
    );
    b.install_acl(ATTACKER_IP, spec.compile());

    // Victim iperf, client → server pod; then the covert stream, from
    // the attacker's client-side pod.
    let victim_key = FlowKey::tcp(victim_client_ip, VICTIM_IP, 40_000, VICTIM_PORT);
    let iperf = IperfSource::new(victim_key, 1500, IPERF_RATE_BPS).named("victim");
    b.add_source(client_node, Box::new(iperf));
    let covert = CovertSequence::new(spec.build_target(ATTACKER_IP));
    let attack = AttackSchedule::new(covert, COVERT_BANDWIDTH_BPS, params.attack_start);
    b.add_source(client_node, Box::new(attack));

    // Background chatter to the unprotected pod.
    let pairs = (0..16u8).map(|i| (u32::from_be_bytes([10, 0, 1, i]), BACKGROUND_IP));
    let chatter = PoissonFlowSource::new(pairs.collect(), 20.0, 30.0, 200.0, 200, 2018);
    b.add_source(client_node, Box::new(chatter.named("background")));
    if let Some(ctrl) = &params.defense {
        b.attach_defense(client_node, DefenseController::new(*ctrl));
        b.attach_defense(server_node, DefenseController::new(*ctrl));
    }
    finish(b, vec![server_node], vec![server_node])
}

/// Parameters of the handler-saturation scenario.
#[derive(Debug, Clone)]
pub struct UpcallSaturationParams {
    /// Run length.
    pub duration: SimTime,
    /// Per-port fair-share quota (the mitigation), if any.
    pub port_quota_per_step: Option<u32>,
    /// Runs the same traffic against the historical *inline* slow path
    /// instead of the bounded pipeline (the experiment's baseline row;
    /// the quota is ignored).
    pub inline_baseline: bool,
    /// Whether the flood runs at all (false = the benign baseline the
    /// immunity matrix's retained ratios are computed against).
    pub attack: bool,
    /// Which dataplane architecture the node runs.
    pub backend: BackendKind,
}

impl Default for UpcallSaturationParams {
    fn default() -> Self {
        UpcallSaturationParams {
            duration: SimTime::from_secs(6),
            port_quota_per_step: None,
            inline_baseline: false,
            attack: true,
            backend: BackendKind::OvsCache,
        }
    }
}

/// When the saturation victim's connection churn begins: after the
/// flood has filled the flow limit, so victim flows keep upcalling.
pub const UPCALL_VICTIM_START: SimTime = SimTime::from_secs(1);

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
pub fn upcall_saturation_scenario(params: &UpcallSaturationParams) -> (Simulation, Handles) {
    let pipeline = if params.inline_baseline {
        PipelineMode::Inline
    } else {
        bounded_slow_path(params.port_quota_per_step)
    };
    let mut b = FleetBuilder::new(run_config(params.duration, 1));
    let node = b.add_host(DpConfig {
        flow_limit: FLOOD_FLOW_LIMIT,
        pipeline,
        backend: params.backend,
        ..DpConfig::default()
    });
    b.add_pod(node, VICTIM_IP);
    b.add_pod(node, ATTACKER_IP);
    b.add_source(node, Box::new(churn_victim(UPCALL_VICTIM_START)));
    // The benign baseline keeps the flood source (so report vectors
    // stay shaped the same) but starts it at the end of the run.
    let flood_from = if params.attack {
        SimTime::ZERO
    } else {
        params.duration
    };
    b.add_source(node, Box::new(upcall_flood(flood_from)));
    finish(b, vec![node], vec![node])
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
    /// When the upcall flood — and with it the victim's connection
    /// churn, the same arrangement as the `upcall_saturation` scenario
    /// — begins. Everything before it is the benign phase the
    /// false-positive rate is judged on.
    pub attack_start: SimTime,
    /// The defense under test.
    pub defense: DefenseMode,
}

impl Default for AdaptiveDefenseParams {
    fn default() -> Self {
        AdaptiveDefenseParams {
            duration: SimTime::from_secs(12),
            attack_start: SimTime::from_secs(4),
            defense: DefenseMode::adaptive(ControllerConfig::default()),
        }
    }
}

/// Benign churn load during the whole adaptive-defense run, new
/// connections/second towards the background pod.
pub const BENIGN_CHURN_PPS: f64 = 500.0;

/// Builds the closed-loop defense experiment: one node under benign
/// churn from t = 0, hit by an `upcall_flood` destination spray at
/// `attack_start`. The flood fills the megaflow table and monopolises
/// the bounded slow path, so the victim's connection churn (starting
/// with the attack) tail-drops — unless a defense intervenes. The
/// three [`DefenseMode`]s make the static-vs-adaptive comparison:
/// time-to-detect and the benign-phase false-positive count come from
/// the report's [`pi_detect::DefenseReport`].
pub fn adaptive_defense_scenario(params: &AdaptiveDefenseParams) -> (Simulation, Handles) {
    let quota = match params.defense {
        DefenseMode::StaticFairShare(q) => Some(q),
        _ => None,
    };
    let mut b = FleetBuilder::new(run_config(params.duration, 1));
    let node = b.add_host(DpConfig {
        flow_limit: FLOOD_FLOW_LIMIT,
        pipeline: bounded_slow_path(quota),
        ..DpConfig::default()
    });
    b.add_pod(node, VICTIM_IP);
    b.add_pod(node, BACKGROUND_IP);
    b.add_pod(node, ATTACKER_IP);

    // Benign churn for the whole run: short-lived connections to the
    // background pod. Its dst-pinned megaflow caches after the first
    // packet, so this is sustained fast-path churn — EMC pressure and
    // packet rate without slow-path distress; the detector must not
    // alarm on it.
    let peers = u32::from_be_bytes([10, 3, 0, 0]);
    let benign = ChurnSource::new(peers, BACKGROUND_IP, 80, 200, BENIGN_CHURN_PPS);
    b.add_source(node, Box::new(benign.named("benign")));
    b.add_source(node, Box::new(churn_victim(params.attack_start)));
    b.add_source(node, Box::new(upcall_flood(params.attack_start)));
    if let DefenseMode::Adaptive(ctrl) = &params.defense {
        b.attach_defense(node, DefenseController::new(**ctrl));
    }
    finish(b, vec![node], vec![node])
}

/// Parameters of the policy-churn (control-plane flush storm)
/// scenario.
#[derive(Debug, Clone)]
pub struct PolicyChurnParams {
    /// Run length.
    pub duration: SimTime,
    /// When the policy-flap train begins (everything before it is the
    /// benign phase); at or past `duration` the flap never fires.
    pub attack_start: SimTime,
    /// Whether the attacker flaps at all (false = the benign baseline:
    /// only routine control-plane churn).
    pub flap: bool,
    /// Victim aggregate rate, packets/second across all clients.
    pub victim_pps: f64,
    /// Datapath configuration. Its [`DpConfig::scoped_invalidation`] is
    /// the ablation knob: global flushes are what give the flap its
    /// amplification.
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
            victim_pps: 40_000.0,
            dp: DpConfig::default(),
            defense: None,
        }
    }
}

/// Whitelisted clients of the policy-churn victim.
pub const POLICY_CHURN_CLIENTS: u32 = 512;
/// Cadence of the routine (benign) control-plane churn: an ACL
/// install/remove alternation on the background pod. Present in every
/// run so the flap rows are judged against live-but-sane control-plane
/// activity, not silence.
pub const BENIGN_UPDATE_PERIOD: SimTime = SimTime::from_secs(1);
/// CMS → switch propagation delay of the benign updates.
const BENIGN_PROPAGATION_DELAY: SimTime = SimTime::from_millis(50);

/// Builds the policy-churn experiment: one node hosting a victim
/// service (an ACL whitelisting [`POLICY_CHURN_CLIENTS`] individual /32
/// peers, each peer a live flow) and a co-located attacker pod. The
/// attacker sends **zero packets**; its entire attack is the control
/// plane — [`AttackSchedule::policy_flap`] re-installs the attacker's
/// own ACL every [`FLAP_PERIOD`], and under global-flush invalidation
/// every re-install wipes the victim's per-client megaflows and the
/// whole EMC. The victim pays one slow-path rebuild per client per flap
/// (an upcall plus a linear scan of its own whitelist), which exhausts
/// the shared cycle budget; every flush is also charged its own
/// teardown cost ([`pi_datapath::Work::flushed`] entries).
/// Routine benign churn (install/remove on a background pod once a
/// second, with a CMS propagation delay) runs in every configuration
/// so the baseline is live control-plane activity, not silence. The
/// scoped-invalidation ablation confines each update's eviction to the
/// updated destination, which is what restores the victim.
pub fn policy_churn_scenario(params: &PolicyChurnParams) -> (Simulation, Handles) {
    let mut b = FleetBuilder::new(run_config(params.duration, 1));
    let node = b.add_host(params.dp.clone());
    b.add_pod(node, VICTIM_IP);
    b.add_pod(node, ATTACKER_IP);
    b.add_pod(node, BACKGROUND_IP);
    let (whitelist, clients) = whitelisted_clients(POLICY_CHURN_CLIENTS, params.victim_pps);
    b.install_acl(VICTIM_IP, whitelist);
    b.add_source(node, Box::new(clients));

    // The attacker's ACL, installed once — and then re-installed ad
    // nauseam: the policy-flap train.
    let attacker_table = attacker_web_acl();
    b.install_acl(ATTACKER_IP, attacker_table.clone());
    if params.flap {
        let flap = attacker_flap(&attacker_table, params.attack_start, params.duration);
        b.attach_control_plane(node, flap);
    }

    // Routine churn: operations installs/removes an ACL on the
    // background pod once per period, with CMS propagation delay.
    let bg_table = PolicyCompiler.compile_k8s(&allow_cluster_to("background", None));
    let mut benign = ControlPlaneProgram::new().with_propagation_delay(BENIGN_PROPAGATION_DELAY);
    let mut at = BENIGN_UPDATE_PERIOD;
    let mut install = true;
    while at < params.duration {
        if install {
            benign.install_acl(at, BACKGROUND_IP, bg_table.clone());
        } else {
            benign.remove_acl(at, BACKGROUND_IP);
        }
        install = !install;
        at += BENIGN_UPDATE_PERIOD;
    }
    b.attach_control_plane(node, benign);
    if let Some(ctrl) = &params.defense {
        b.attach_defense(node, DefenseController::new(*ctrl));
    }
    finish(b, vec![node], vec![node])
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
    /// Whether the switch crashes at all (false = the never-crashed
    /// baseline the verdicts are compared against).
    pub crash: bool,
    /// When the switch process dies — and the attack riding the
    /// recovery begins; at or past `duration` neither happens.
    pub crash_at: SimTime,
    /// The attack riding the recovery window.
    pub attack: CrashRecoveryAttack,
    /// `true` = the CMS sends through the at-least-once layer (acks +
    /// retry + reconciliation); `false` = fire-and-forget delivery, the
    /// vulnerable baseline.
    pub reliable: bool,
    /// CMS→switch channel fault model (drops/duplicates/delay), if any.
    pub channel: Option<ChannelFaultConfig>,
}

impl Default for CrashRecoveryParams {
    fn default() -> Self {
        CrashRecoveryParams {
            duration: SimTime::from_secs(12),
            crash: true,
            crash_at: SimTime::from_secs(4),
            attack: CrashRecoveryAttack::PolicyFlap,
            reliable: false,
            channel: None,
        }
    }
}

/// Blackout before the crashed switch's restart completes.
pub const CRASH_DOWN_FOR: SimTime = SimTime::from_millis(200);
/// Whitelisted clients of the crash-recovery victim (each a /32 rule
/// and a live flow).
pub const CRASH_RECOVERY_CLIENTS: u32 = 256;
/// The crash-recovery victim's aggregate rate, packets/second.
pub const CRASH_VICTIM_PPS: f64 = 20_000.0;
/// Unauthorized prober rate, packets/second.
pub const PROBER_PPS: f64 = 1_000.0;
/// When the CMS program installs the ACLs (they are also installed at
/// build, so the prober is denied from t = 0; the program copy is what
/// reconciliation's desired state replays).
const ACL_INSTALL_AT: SimTime = SimTime::from_millis(500);
/// When the prober starts: after the ACL landed, so every delivered
/// prober packet is a wrong verdict.
const PROBER_START: SimTime = SimTime::from_secs(1);

/// Builds the crash-recovery experiment: one node hosting a victim
/// service behind a client-whitelist ACL, an unauthorized prober
/// hammering that service, and a switch crash mid-run. The crash wipes
/// every installed ACL (the datapath restarts permissive, as OVS does
/// until the controller re-pushes flows), so the prober's packets —
/// denied from t = 0 — suddenly *deliver*: each one is a wrong verdict,
/// a security hole the report makes countable. Under fire-and-forget
/// control (`reliable: false`) the hole stays open for the rest of the
/// run: the install was consumed long ago and nothing ever re-sends it.
/// The at-least-once layer closes it — reconciliation diffs desired
/// against installed state and re-pushes the ACL within a bounded
/// window. The headline cell rides an attack on the recovery:
/// [`CrashRecoveryAttack::PolicyFlap`] floods the control plane with
/// re-installs from the crash instant, so the recovery's own updates
/// compete with the attack's for the same budget.
pub fn crash_recovery_scenario(params: &CrashRecoveryParams) -> (Simulation, Handles) {
    // Scoped invalidation throughout: PR 5 settled that ablation — here
    // the subject is recovery, so the flap must not win by global
    // flushes alone. The flood variant needs the bounded slow path to
    // have something to monopolise.
    let flood = params.attack == CrashRecoveryAttack::UpcallFlood;
    let pipeline = if flood {
        bounded_slow_path(None)
    } else {
        PipelineMode::Inline
    };
    let mut b = FleetBuilder::new(run_config(params.duration, 1));
    let node = b.add_host(DpConfig {
        scoped_invalidation: true,
        pipeline,
        ..DpConfig::default()
    });
    b.add_pod(node, VICTIM_IP);
    b.add_pod(node, ATTACKER_IP);
    let (whitelist, clients) = whitelisted_clients(CRASH_RECOVERY_CLIENTS, CRASH_VICTIM_PPS);
    b.install_acl(VICTIM_IP, whitelist.clone());
    b.add_source(node, Box::new(clients));

    // The unauthorized prober: a peer outside the whitelist. In a
    // healthy run its delivered count is exactly zero.
    let prober_key = FlowKey::tcp([10, 9, 0, 1], VICTIM_IP, 40_000, VICTIM_PORT);
    let prober = FanSource::new(vec![prober_key], 64, PROBER_PPS).starting_at(PROBER_START);
    b.add_source(node, Box::new(prober.named("prober")));
    let attacker_table = attacker_web_acl();
    b.install_acl(ATTACKER_IP, attacker_table.clone());

    // Everything the CMS sends travels one path: the victim's program
    // install, and — for the flap attack — the attacker's re-install
    // train (the CMS retries tenants' updates indiscriminately). The
    // attacker's ACL is desired state too: were it absent from the
    // program, reconciliation would strip the build-time install as
    // unknown (and, under the flap, oscillate against the train).
    let mut program = ControlPlaneProgram::new();
    program.install_acl(ACL_INSTALL_AT, VICTIM_IP, whitelist);
    program.install_acl(ACL_INSTALL_AT, ATTACKER_IP, attacker_table.clone());
    if params.attack == CrashRecoveryAttack::PolicyFlap {
        program.merge(attacker_flap(
            &attacker_table,
            params.crash_at,
            params.duration,
        ));
    }
    if params.reliable {
        b.attach_reliable_control_plane(node, program);
    } else {
        b.attach_control_plane(node, program);
    }
    if flood {
        b.add_source(node, Box::new(upcall_flood(params.crash_at)));
    }

    // The fault program: the crash, plus the channel fault model the
    // reliable layer (if any) sends through.
    let mut faults = FaultSchedule::new();
    if params.crash {
        faults = faults.crash(params.crash_at, CRASH_DOWN_FOR);
    }
    if let Some(ch) = params.channel {
        faults = faults.channel(ch);
    }
    if !faults.is_empty() {
        b.attach_faults(node, faults);
    }
    finish(b, vec![node], vec![node])
}

// --- Fleet recipes --------------------------------------------------

/// Parameters of the co-location experiment.
#[derive(Debug, Clone)]
pub struct ColocationParams {
    /// Fleet size, hosts.
    pub hosts: usize,
    /// Victim service pods (one tenant, spread round-robin).
    pub victims: usize,
    /// Attacker pods (one tenant, placed by adversarial co-location).
    pub attackers: usize,
    /// The injected policy shape.
    pub spec: AttackSpec,
    /// First covert stream start.
    pub attack_start: SimTime,
    /// Start stagger between consecutive attackers.
    pub stagger: SimTime,
    /// Victim link-limited rate, bits/second.
    pub victim_rate_bps: f64,
    /// Run length.
    pub duration: SimTime,
    /// Datapath configuration for every host.
    pub dp: DpConfig,
    /// Seed for the background chatter every host carries.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
}

impl Default for ColocationParams {
    fn default() -> Self {
        ColocationParams {
            hosts: 4,
            victims: 4,
            attackers: 2,
            spec: AttackSpec::masks_8192(),
            attack_start: SimTime::from_secs(10),
            stagger: SimTime::from_secs(2),
            victim_rate_bps: IPERF_RATE_BPS,
            duration: SimTime::from_secs(30),
            dp: DpConfig::default(),
            seed: 2018,
            workers: 1,
        }
    }
}

/// Builds the co-location experiment — k attacker pods spread across n
/// hosts by adversarial co-location, attacking m victims: the
/// multi-tenant blast-radius question the two-node testbed cannot ask.
/// Victims spread round-robin, attackers land next to them, and every
/// stream (victim iperf, covert at [`COVERT_BANDWIDTH_BPS`] per
/// attacker, background) arrives over the fabric from a client pod on
/// the next host over.
pub fn fleet_colocation(params: &ColocationParams) -> (FleetSim, Handles) {
    let hosts = params.hosts;
    assert!(hosts >= 2, "co-location needs at least two hosts");
    let cfg = run_config(params.duration, params.workers);
    let mut cb = ClusterBuilder::new(cfg, hosts, params.dp.clone());
    let victim_tenant = cb.add_tenant();
    let attacker_tenant = cb.add_tenant();
    let bg_tenant = cb.add_tenant();

    // Victim service pods with their own legitimate policies; attacker
    // pods co-located with them, the ACL injected through the CMS's own
    // admission path.
    let victim_pods = cb.place_pods(victim_tenant, params.victims, PlacementStrategy::RoundRobin);
    admit_victims(&mut cb, &victim_pods);
    let colocate = PlacementStrategy::Colocate(victim_tenant);
    let attacker_pods = cb.place_pods(attacker_tenant, params.attackers, colocate);
    inject(&mut cb, &params.spec, &attacker_pods);

    for (i, pod) in victim_pods.iter().enumerate() {
        let client_host = (host_of(pod) + 1) % hosts;
        victim_iperf(&mut cb, i, pod, client_host, params.victim_rate_bps);
    }
    covert_streams(
        &mut cb,
        &params.spec,
        &attacker_pods,
        hosts,
        COVERT_BANDWIDTH_BPS,
        params.attack_start,
        params.stagger,
    );

    // Background chatter: one unprotected pod + Poisson source per host.
    for host in 0..hosts {
        let Some(dst) = cb.place_pod_on(bg_tenant, host).map(|p| p.ip) else {
            continue;
        };
        let pairs = (0..8u8).map(|i| (u32::from_be_bytes([10, 0, 200, i]), dst));
        let seed = params.seed ^ host as u64;
        let chatter = PoissonFlowSource::new(pairs.collect(), 10.0, 20.0, 200.0, 200, seed);
        let named = chatter.named(&format!("background{host}"));
        cb.add_source((host + 1) % hosts, Box::new(named));
    }
    let victim_hosts = victim_pods.iter().map(host_of).collect();
    let attacker_hosts = attacker_pods.iter().map(host_of).collect();
    finish(cb.fleet, victim_hosts, attacker_hosts)
}

/// Parameters of the sparse-fleet experiment.
#[derive(Debug, Clone)]
pub struct SparseParams {
    /// Fleet size, hosts. Most are idle: each carries one attached pod
    /// that never sends or receives.
    pub hosts: usize,
    /// Hosts that actually see traffic (the first `hot_hosts` of the
    /// fleet, at least two). Victims, attacker and every client pod
    /// stay inside this set so the remaining hosts are provably
    /// quiescent.
    pub hot_hosts: usize,
    /// Covert stream start (at or past `duration`: the attack is off).
    pub attack_start: SimTime,
    /// Victim link-limited rate, bits/second.
    pub victim_rate_bps: f64,
    /// Run length.
    pub duration: SimTime,
    /// Datapath configuration for every host.
    pub dp: DpConfig,
    /// Worker threads.
    pub workers: usize,
}

impl Default for SparseParams {
    fn default() -> Self {
        SparseParams {
            hosts: 96,
            hot_hosts: 4,
            attack_start: SimTime::from_secs(2),
            // Modest service traffic, not a saturated iperf: the point
            // of the sparse fleet is that almost nothing is happening.
            victim_rate_bps: 2e6,
            duration: SimTime::from_secs(10),
            dp: DpConfig::default(),
            workers: 1,
        }
    }
}

/// Covert budget on the sparse fleet, bits/second.
const SPARSE_COVERT_BPS: f64 = 1e6;

/// Builds the sparse fleet — a large fleet where only a handful of
/// hosts see traffic, the event-driven engine's home turf and the
/// workload `benchmark/`'s `sparse_idle` times tick-skipping on: one
/// victim iperf pair per hot host, a 512-mask injected policy on host 0
/// with its 1 Mb/s covert stream from host 1, and `hosts − hot_hosts`
/// idle hosts each carrying a single silent pod. Idle hosts have no
/// sources, defenses or scheduled events, so the event-driven engine
/// skips them for the whole run; the tick-stepped reference walks all
/// of them every tick.
pub fn fleet_sparse(params: &SparseParams) -> (FleetSim, Handles) {
    let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
    let hot = params.hot_hosts.clamp(2, params.hosts);
    let cfg = run_config(params.duration, params.workers);
    let mut cb = ClusterBuilder::new(cfg, params.hosts, params.dp.clone());
    let victim_tenant = cb.add_tenant();
    let attacker_tenant = cb.add_tenant();
    let idle_tenant = cb.add_tenant();

    // One victim pod + client pair per hot host, clients staying inside
    // the hot set.
    for i in 0..hot {
        let Some(pod) = cb.place_pod_on(victim_tenant, i) else {
            continue;
        };
        admit_victims(&mut cb, std::slice::from_ref(&pod));
        victim_iperf(&mut cb, i, &pod, (i + 1) % hot, params.victim_rate_bps);
    }

    // The injected policy on host 0, covert stream from host 1.
    let attacker = cb.place_pod_on(attacker_tenant, 0);
    inject(&mut cb, &spec, attacker.as_slice());
    covert_streams(
        &mut cb,
        &spec,
        attacker.as_slice(),
        hot,
        SPARSE_COVERT_BPS,
        params.attack_start,
        SimTime::ZERO,
    );

    // The idle bulk: one silent pod per remaining host.
    for host in hot..params.hosts {
        cb.place_pod_on(idle_tenant, host);
    }
    finish(cb.fleet, (0..hot).collect(), vec![0])
}

// --- Capacity probes ------------------------------------------------

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
    let seq = CovertSequence::new(spec.build_target(ATTACKER_IP));

    // Subtable walk order is creation order, so baseline and attacked
    // states must be built the way the attack builds them: a fresh
    // switch each, with the populate pass (which creates the scan
    // stream's full mask *last*) run only on the attacked one.
    let build_switch = || {
        let mut sw = build_backend(dp.clone(), CostModel::default());
        sw.attach_pod(ATTACKER_IP, 1);
        sw.install_acl(ATTACKER_IP, spec.compile());
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
    let seq = CovertSequence::new(spec.build_target(ATTACKER_IP));

    // The victim's flows: one pinned key for the established workload,
    // a fresh source port per sample for connection setup. Its ACL is
    // the legitimate fig3 microsegmentation (cluster block → iperf
    // port), so every architecture classifies the same ground truth.
    let victim_key = |sample: u64| {
        let tp_src = match workload {
            CapacityWorkload::CachedFlow => 40_000,
            CapacityWorkload::ConnectionSetup => 1_024 + (sample % 60_000) as u16,
        };
        FlowKey::tcp([10, 0, 0, 10], VICTIM_IP, tp_src, VICTIM_PORT)
    };

    let build = || -> Box<dyn DataplaneBackend> {
        let mut be = build_backend(dp.clone(), CostModel::default());
        be.attach_pod(VICTIM_IP, 1);
        be.attach_pod(ATTACKER_IP, 2);
        be.install_acl(
            VICTIM_IP,
            PolicyCompiler.compile_k8s(&victim_iperf_policy()),
        );
        be.install_acl(ATTACKER_IP, spec.compile());
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
            let victim = report.source_totals[handles.source("victim")].clone();
            let up = report.upcall_stats[handles.attacker_hosts[0]];
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
            };
            let (sim, handles) = adaptive_defense_scenario(&params);
            (sim.run(), handles)
        };

        // Undefended: the flood starves the victim's flow setups.
        let (report, h) = run(DefenseMode::Undefended);
        let victim = &report.source_totals[h.source("victim")];
        assert!(
            victim.dropped_upcall > victim.delivered,
            "undefended victim must starve: {victim:?}"
        );
        assert!(report.defense[h.attacker_hosts[0]].is_none());

        // Adaptive: detection within a second of onset, then recovery.
        let (report, h) = run(DefenseMode::adaptive(ControllerConfig::default()));
        let victim = &report.source_totals[h.source("victim")];
        let defense = report.defense[h.attacker_hosts[0]]
            .as_ref()
            .expect("controller");
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
        let benign = &report.source_totals[h.source("benign")];
        assert_eq!(benign.dropped_upcall, 0);
    }

    #[test]
    fn policy_flap_collapses_the_victim_and_scoped_invalidation_restores_it() {
        let run = |flap: bool, scoped: bool| {
            let params = PolicyChurnParams {
                duration: SimTime::from_secs(4),
                attack_start: SimTime::from_secs(1),
                flap,
                dp: DpConfig {
                    scoped_invalidation: scoped,
                    ..DpConfig::default()
                },
                ..Default::default()
            };
            let (sim, handles) = policy_churn_scenario(&params);
            let report = sim.run();
            let victim = report.source_totals[handles.source("victim")].clone();
            let stats = report.switch_stats[handles.attacker_hosts[0]];
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
        let defense = report.defense[handles.attacker_hosts[0]]
            .as_ref()
            .expect("controller");
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
        let run = |crash: bool, reliable: bool| {
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
        let (report, h) = run(false, false);
        assert_eq!(
            report.source_totals[h.source("prober")].delivered,
            0,
            "healthy run has zero wrong verdicts"
        );
        assert!(
            report.faults[h.attacker_hosts[0]].is_none(),
            "no fault program"
        );

        // Crash + fire-and-forget: the install was consumed long ago,
        // nothing re-sends it — the hole stays open to the end.
        let (report, h) = run(true, false);
        let wrong_off = report.source_totals[h.source("prober")].delivered;
        assert!(wrong_off > 3_000, "hole stays open: {wrong_off}");
        let faults = report.faults[h.attacker_hosts[0]]
            .as_ref()
            .expect("fault report");
        assert_eq!(faults.crashes, 1);
        assert!(faults.acls_lost >= 2, "victim + attacker ACLs wiped");

        // Crash + at-least-once: reconciliation re-pushes the ACL
        // within a bounded window, even with the flap riding recovery.
        let (report, h) = run(true, true);
        let wrong_on = report.source_totals[h.source("prober")].delivered;
        assert!(
            wrong_on < wrong_off / 5,
            "reconciliation bounds the hole: {wrong_on} vs {wrong_off}"
        );
        let faults = report.faults[h.attacker_hosts[0]]
            .as_ref()
            .expect("fault report");
        assert!(faults.channel.reconcile_pushes >= 1);
        assert!(faults.recovery_ticks > 0, "a recovery episode closed");
        assert!(
            faults.recovery_ticks <= 1_500,
            "bounded convergence: {} ticks",
            faults.recovery_ticks
        );
        // The victim's own traffic rides out the blackout in the queue.
        let victim = &report.source_totals[h.source("victim")];
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
            report.source_totals[handles.source("victim")].clone()
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
        assert!(report.source_totals[handles.source("victim")].delivered > 0);
        // Attack started at 1 s: masks on the server node must explode.
        let masks = report.masks[handles.attacker_hosts[0]].last().unwrap().1;
        assert!(masks > 4_000.0, "masks = {masks}");
    }
}
