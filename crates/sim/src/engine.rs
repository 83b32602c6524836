//! The engine: builder, worker pool, the event loop and its serial
//! tick-stepped reference.
//!
//! Execution model (conservative parallel discrete-event simulation,
//! specialised to a constant one-tick fabric latency):
//!
//! * each worker owns a disjoint shard set and merges that set's three
//!   event sources — pending cross-host deliveries, per-shard wake
//!   deadlines (`HostShard::next_wake`) and the global sample grid —
//!   into one monotonic tick iterator;
//! * an executed tick steps a **due list**, not the shard set: the
//!   shards named by the deliveries filed for that tick (one ordered
//!   lookup) and by the wake deadlines that have come due, in ascending
//!   shard order. Only a sample tick visits every shard. What a shard
//!   emits is sparse — one parcel per destination it addressed
//!   (`ShardOutput`) — and the parcel buffers, the due list and the
//!   per-shard inbound scratch all live on the worker, so a tick's host
//!   cost follows the shards that ran and the destinations they
//!   addressed, never the fleet size, and a steady-state tick allocates
//!   nothing. A source that
//!   emits every tick pins its shard "always active": that shard's
//!   `ticks_stepped` is physics, and only the cost of each such tick is
//!   the harness's to shrink;
//! * cross-host packets and delivery receipts produced during tick
//!   `t` are exchanged through bounded channels and delivered at the
//!   start of tick `t + 1`;
//! * workers synchronise by bounded lookahead instead of a global
//!   epoch barrier: every flush to a peer carries the promise "I will
//!   deliver nothing at ticks ≤ `safe`", a worker executes tick `e`
//!   only once every peer has promised `safe ≥ e`, and a flush with no
//!   items is exactly a CMB null message. Because a worker that has
//!   executed through its horizon `h` can always promise `h + 1`
//!   (its next execution is at least `h + 1`, so its next emission
//!   lands at `h + 2` at the earliest), every exchange advances the
//!   fleet and the protocol cannot deadlock — even when a shard
//!   sends no traffic at all;
//! * each shard merges per-destination traffic **in sending-shard
//!   order** at the tick it consumes it, so the bytes a shard observes
//!   never depend on worker count or thread scheduling — the property
//!   the determinism tests pin.
//!
//! The tick-stepped reference ([`crate::SimConfig::event_driven`] =
//! false) is the obviously-correct thing the event loop is pinned
//! against: one thread, every shard, every tick, in id order, through
//! the same `HostShard::tick` and the same sparse exchange.
//!
//! This is the only engine in the workspace. The single-host testbed of
//! the paper's Fig. 1 is a one-host build on it, the fleet-scale
//! experiments place tenants through [`crate::ClusterBuilder`] on top
//! (both in [`crate::scenario`]), and each type goes by two names —
//! [`FleetSim`] is [`crate::Simulation`], [`FleetReport`] is
//! [`crate::SimReport`].

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread;

use pi_classifier::FlowTable;
use pi_cms::ControlPlaneProgram;
use pi_core::{IpIndex, Port, SimTime};
use pi_datapath::{CostModel, DpConfig};
use pi_detect::DefenseController;
use pi_fault::{FaultSchedule, ReliableControlPlane};
use pi_trace::{TraceConfig, Tracer};
use pi_traffic::TrafficSource;

use crate::config::SimConfig;
use crate::node::NodeCell;
use crate::report::{EngineProfile, FleetReport};
use crate::shard::{FleetSlot, HostShard, Parcel, ShardOutput, SourceHome, TickCtx};

/// What a caller's input to [`FleetBuilder`] can get wrong, reported by
/// [`FleetBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// No host was added.
    NoHosts,
    /// A pod, source or attachment names a host index that
    /// [`FleetBuilder::add_host`] never returned.
    NoSuchHost {
        /// The index named.
        host: usize,
        /// Hosts added.
        hosts: usize,
    },
    /// Two pods share an IP (host order); pod IPs route packets, so
    /// they are unique across the fleet.
    DuplicatePodIp {
        /// The repeated IP.
        ip: u32,
    },
    /// An ACL names an IP no pod was attached with, or the pod's home
    /// switch refused the install.
    UnattachedPod {
        /// The IP named.
        ip: u32,
    },
    /// [`SimConfig::queue_capacity`] is zero: no host could accept a
    /// packet.
    ZeroQueueCapacity,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BuildError::NoHosts => write!(f, "a simulation needs at least one host"),
            BuildError::NoSuchHost { host, hosts } => {
                write!(f, "host index {host} out of range ({hosts} hosts added)")
            }
            BuildError::DuplicatePodIp { ip } => {
                write!(f, "pod ip {} attached twice", std::net::Ipv4Addr::from(ip))
            }
            BuildError::UnattachedPod { ip } => write!(
                f,
                "an ACL names {}, which no pod was attached with",
                std::net::Ipv4Addr::from(ip)
            ),
            BuildError::ZeroQueueCapacity => write!(f, "SimConfig::queue_capacity is zero"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for a [`FleetSim`]. The `add_*` / `attach_*` calls only
/// record; [`FleetBuilder::build`] validates everything once.
pub struct FleetBuilder {
    cfg: SimConfig,
    cost: CostModel,
    hosts: Vec<DpConfig>,
    next_vport: Vec<u32>,
    pods: Vec<(usize, u32, u32)>, // (host, ip, vport)
    acls: Vec<(u32, FlowTable)>,
    sources: Vec<(usize, Box<dyn TrafficSource + Send>)>,
    defenses: Vec<(usize, DefenseController)>,
    control_planes: Vec<(usize, ControlPlaneProgram)>,
    faults: Vec<(usize, FaultSchedule)>,
    reliable_controls: Vec<(usize, ControlPlaneProgram)>,
}

impl FleetBuilder {
    /// Starts a build with global parameters and the default cost model.
    pub fn new(cfg: SimConfig) -> Self {
        FleetBuilder {
            cfg,
            cost: CostModel::default(),
            hosts: Vec::new(),
            next_vport: Vec::new(),
            pods: Vec::new(),
            acls: Vec::new(),
            sources: Vec::new(),
            defenses: Vec::new(),
            control_planes: Vec::new(),
            faults: Vec::new(),
            reliable_controls: Vec::new(),
        }
    }

    /// Overrides the cycle cost model for every switch.
    #[must_use]
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Adds a host with its datapath configuration; returns the host
    /// index (== shard id).
    pub fn add_host(&mut self, dp: DpConfig) -> usize {
        self.hosts.push(dp);
        self.next_vport.push(1);
        self.hosts.len() - 1
    }

    /// Attaches a pod with IP `ip` (host order) to `host`, allocating
    /// its vport; returns the vport. (A `host` that was never added is
    /// recorded as given, for [`FleetBuilder::build`] to report.)
    pub fn add_pod(&mut self, host: usize, ip: u32) -> u32 {
        let vport = self.next_vport.get(host).copied().unwrap_or(1);
        self.add_pod_at(host, ip, vport);
        vport
    }

    /// Attaches a pod with a caller-chosen vport (used when the CMS has
    /// already allocated it; [`crate::ClusterBuilder`] does).
    pub fn add_pod_at(&mut self, host: usize, ip: u32, vport: u32) {
        if let Some(next) = self.next_vport.get_mut(host) {
            *next = (*next).max(vport + 1);
        }
        self.pods.push((host, ip, vport));
    }

    /// Installs an ingress ACL at the pod with IP `ip`, on its home
    /// switch.
    pub fn install_acl(&mut self, ip: u32, table: FlowTable) {
        self.acls.push((ip, table));
    }

    /// Registers a traffic source injecting at `host`; returns its
    /// global source index (order of registration).
    pub fn add_source(&mut self, host: usize, source: Box<dyn TrafficSource + Send>) -> usize {
        self.sources.push((host, source));
        self.sources.len() - 1
    }

    /// The registered sources' labels, in global source order.
    pub(crate) fn source_labels(&self) -> Vec<String> {
        let labels = self
            .sources
            .iter()
            .map(|(_, source)| source.label().to_string());
        labels.collect()
    }

    /// Attaches a shard-local closed-loop defense controller to `host`,
    /// run every 100 ms of simulated time. Controllers
    /// are strictly shard-local state, so worker-count determinism is
    /// preserved.
    pub fn attach_defense(&mut self, host: usize, controller: DefenseController) {
        self.defenses.push((host, controller));
    }

    /// Attaches a timed control-plane program to `host`: its scheduled
    /// policy updates land on the epoch grid (tick boundaries), each
    /// charged against the host's cycle budget. The driver is strictly
    /// shard-local state, so worker-count determinism is preserved —
    /// including the policy-update timelines in the report. Multiple
    /// programs for one host are merged.
    pub fn attach_control_plane(&mut self, host: usize, program: ControlPlaneProgram) {
        self.control_planes.push((host, program));
    }

    /// Attaches a fault program to `host`: crash/restart events and the
    /// CMS→switch channel fault model. Faults are strictly shard-local
    /// state (compiled cursors owned by the node), so worker-count
    /// determinism is preserved even under crashes and reordered
    /// control channels. Multiple schedules for
    /// one host merge.
    pub fn attach_faults(&mut self, host: usize, schedule: FaultSchedule) {
        self.faults.push((host, schedule));
    }

    /// Attaches an at-least-once control plane to `host`: `program`'s
    /// updates travel through the host's faulty channel (from its
    /// [`FaultSchedule`], perfect if none) with acks, retry/backoff
    /// and periodic reconciliation. Multiple programs for one host
    /// merge.
    pub fn attach_reliable_control_plane(&mut self, host: usize, program: ControlPlaneProgram) {
        self.reliable_controls.push((host, program));
    }

    /// The first host index recorded by an `add_*` / `attach_*` call
    /// that [`FleetBuilder::add_host`] never returned.
    fn unknown_host(&self) -> Option<usize> {
        let n = self.hosts.len();
        let mut named = self
            .pods
            .iter()
            .map(|p| p.0)
            .chain(self.sources.iter().map(|s| s.0))
            .chain(self.defenses.iter().map(|d| d.0))
            .chain(self.control_planes.iter().map(|c| c.0))
            .chain(self.faults.iter().map(|f| f.0))
            .chain(self.reliable_controls.iter().map(|r| r.0));
        named.find(|&host| host >= n)
    }

    /// Finalises the topology, or names the first thing wrong with it.
    pub fn build(self) -> Result<FleetSim, BuildError> {
        let n = self.hosts.len();
        let cfg = self.cfg;
        if cfg.queue_capacity == 0 {
            return Err(BuildError::ZeroQueueCapacity);
        }
        if n == 0 {
            return Err(BuildError::NoHosts);
        }
        if let Some(host) = self.unknown_host() {
            return Err(BuildError::NoSuchHost { host, hosts: n });
        }

        let mut routes = IpIndex::new();
        for &(host, ip, _) in &self.pods {
            if routes.insert(ip, host as u32).is_some() {
                return Err(BuildError::DuplicatePodIp { ip });
            }
        }

        let mut nodes: Vec<NodeCell<usize>> = self
            .hosts
            .into_iter()
            .map(|dp| NodeCell::new(dp, self.cost))
            .collect();
        for &(host, ip, vport) in &self.pods {
            for (i, node) in nodes.iter_mut().enumerate() {
                let raw = if i == host { vport } else { Port::Uplink.raw() };
                node.backend_mut().attach_pod(ip, raw);
            }
        }
        for (ip, table) in self.acls {
            let host = routes.get(ip).ok_or(BuildError::UnattachedPod { ip })? as usize;
            if !nodes[host].backend_mut().install_acl(ip, table) {
                return Err(BuildError::UnattachedPod { ip });
            }
        }

        for (host, controller) in self.defenses {
            nodes[host].attach_defense(controller);
        }
        let mut programs: BTreeMap<usize, ControlPlaneProgram> = BTreeMap::new();
        for (host, program) in self.control_planes {
            programs.entry(host).or_default().merge(program);
        }
        for (host, program) in programs {
            nodes[host].attach_control_plane(program.compile());
        }
        let mut fault_schedules: BTreeMap<usize, FaultSchedule> = BTreeMap::new();
        for (host, schedule) in self.faults {
            fault_schedules.entry(host).or_default().merge(schedule);
        }
        let mut reliable: BTreeMap<usize, ControlPlaneProgram> = BTreeMap::new();
        for (host, program) in self.reliable_controls {
            reliable.entry(host).or_default().merge(program);
        }
        for (host, program) in reliable {
            // The reliable layer sends through the host's faulty
            // channel, if its schedule models one.
            let channel = fault_schedules.get(&host).and_then(|s| s.channel_config());
            nodes[host].attach_reliable_control_plane(ReliableControlPlane::new(program, channel));
        }
        for (host, schedule) in fault_schedules {
            nodes[host].attach_faults(schedule.compile());
        }
        if cfg.trace.enabled {
            for (host, node) in nodes.iter_mut().enumerate() {
                node.set_tracer(Tracer::for_host(cfg.trace, host as u32));
            }
        }

        let mut source_homes: Vec<SourceHome> = Vec::with_capacity(self.sources.len());
        let mut per_host_slots: Vec<Vec<FleetSlot>> = (0..n).map(|_| Vec::new()).collect();
        for (global, (host, source)) in self.sources.into_iter().enumerate() {
            source_homes.push(SourceHome {
                shard: host,
                slot: per_host_slots[host].len(),
            });
            per_host_slots[host].push(FleetSlot::new(global, source));
        }
        let source_homes: Arc<[SourceHome]> = source_homes.into();
        let routes = Arc::new(routes);

        let shards: Vec<HostShard> = nodes
            .into_iter()
            .zip(per_host_slots)
            .enumerate()
            .map(|(id, (node, slots))| {
                HostShard::new(
                    id,
                    node,
                    Arc::clone(&routes),
                    Arc::clone(&source_homes),
                    slots,
                )
            })
            .collect();
        Ok(FleetSim { cfg, shards })
    }
}

/// A runnable simulation: a fleet of hosts, or the one or two of the
/// paper's testbed.
pub struct FleetSim {
    cfg: SimConfig,
    shards: Vec<HostShard>,
}

/// A delivery in flight: `(destination shard, parcel naming its
/// sender)`.
type Delivery = (usize, Parcel);

/// One lookahead exchange between event-loop workers. With empty
/// `items` this is a pure null message: it carries only the promise.
struct Flush {
    from: usize,
    /// The sender promises to deliver nothing at ticks ≤ `safe` beyond
    /// the items flushed so far — the receiver may execute through
    /// `safe` without hearing from this sender again.
    safe: u64,
    /// `(deliver_tick, delivery)`: what a shard emitted towards one of
    /// the receiver's during tick `deliver_tick − 1`.
    items: Vec<(u64, Delivery)>,
}

/// Deliveries filed for future ticks: deliver tick → `(local shard,
/// parcel)` in arrival order (the consuming shard merges its parcels in
/// sending-shard order). Emptied per-tick lists are kept for reuse, so
/// filing allocates only while the window of ticks in flight grows.
#[derive(Default)]
struct Pending {
    by_tick: BTreeMap<u64, Vec<Delivery>>,
    spare: Vec<Vec<Delivery>>,
}

impl Pending {
    /// Emptied lists kept; ticks with filed deliveries are at most a
    /// lookahead window apart.
    const SPARE_CAP: usize = 8;

    fn first_tick(&self) -> Option<u64> {
        self.by_tick.first_key_value().map(|(&t, _)| t)
    }

    #[inline]
    fn file(&mut self, at: u64, local: usize, parcel: Parcel) {
        let spare = &mut self.spare;
        self.by_tick
            .entry(at)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push((local, parcel));
    }

    /// Moves everything filed for tick `e` into its shard's inbound
    /// list, naming each receiving shard in `due`.
    fn deliver(&mut self, e: u64, inbound: &mut [Vec<Parcel>], due: &mut Vec<usize>) {
        let Some(mut batch) = self.by_tick.remove(&e) else {
            return;
        };
        for (li, parcel) in batch.drain(..) {
            inbound[li].push(parcel);
            due.push(li);
        }
        if self.spare.len() < Self::SPARE_CAP {
            self.spare.push(batch);
        }
    }
}

/// The per-worker state of the event-driven engine: the shards this
/// worker owns plus their merged event queue — pending deliveries
/// keyed by tick and a wake heap
/// lazily invalidated through `wake_at` (an entry is live only while
/// it equals the shard's authoritative deadline) — and the scratch an
/// executed tick works in, kept across ticks so none is allocated.
struct EventWorker {
    me: usize,
    ctx: TickCtx,
    tick_ns: u64,
    ticks: u64,
    /// Shard id → owning worker.
    owner: Vec<usize>,
    /// Owned shards, ascending id.
    shards: Vec<HostShard>,
    /// Shard id → index into its owner's `shards`.
    local_index: Vec<usize>,
    pending: Pending,
    wake_at: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Cross-worker emissions awaiting the next flush, by destination
    /// worker.
    outbox: Vec<Vec<(u64, Delivery)>>,
    /// Local shards to step this tick, ascending.
    due: Vec<usize>,
    /// Per local shard: this tick's inbound parcels. Empty between
    /// ticks.
    inbound: Vec<Vec<Parcel>>,
    out: ShardOutput,
    /// Harness self-profiling for this worker (heap churn, null
    /// messages) — diagnostic only, never part of the simulated state.
    profile: EngineProfile,
}

impl EventWorker {
    /// The earliest tick ≥ `t` at which any owned shard has an event:
    /// the next sample boundary (global, mandatory), the earliest
    /// pending delivery, or the earliest live wake
    /// deadline. Stale heap entries are discarded on the way.
    // audit: hotpath
    fn next_event(&mut self, t: u64) -> u64 {
        let every = self.ctx.sample_every_ticks;
        let mut e = t + (every - 1 - (t % every));
        if let Some(dt) = self.pending.first_tick() {
            e = e.min(dt.max(t));
        }
        while let Some(&Reverse((wt, s))) = self.heap.peek() {
            if self.wake_at[s] == wt {
                e = e.min(wt.max(t));
                break;
            }
            self.heap.pop();
            self.profile.wake_stale_pops += 1;
        }
        e
    }

    /// Executes tick `e` across the owned shards that have an event at
    /// it — exactly the work the stepped engine would do, minus the
    /// shards with provably nothing to observe.
    // audit: hotpath
    fn execute_tick(&mut self, e: u64) {
        let ctx = self.ctx;
        let now = SimTime::from_nanos(e * self.tick_ns);
        let next = SimTime::from_nanos((e + 1) * self.tick_ns);

        // The due list: every shard one of the merged event sources
        // names at `e`.
        self.due.clear();
        self.pending.deliver(e, &mut self.inbound, &mut self.due);
        // Every deadline ≤ e leaves the heap here: the live ones run
        // now and are re-scheduled past `e`, the rest were stale.
        while let Some(&Reverse((wt, li))) = self.heap.peek() {
            if wt > e {
                break;
            }
            self.heap.pop();
            self.profile.wake_stale_pops += 1;
            if self.wake_at[li] == wt {
                self.due.push(li);
            }
        }
        if (e + 1).is_multiple_of(ctx.sample_every_ticks) {
            self.due.clear();
            self.due.extend(0..self.shards.len());
        } else {
            self.due.sort_unstable();
            self.due.dedup();
        }

        // Emissions from the final tick would deliver past the end of
        // the run; the stepped engine drops them the same way.
        let deliverable = e + 1 < self.ticks;
        for i in 0..self.due.len() {
            let li = self.due[i];
            self.shards[li].tick(e, now, next, &ctx, &mut self.inbound[li], &mut self.out);
            let sid = self.shards[li].id;
            for (dst, parcel) in self.out.drain_from(sid) {
                if !deliverable {
                    continue;
                }
                let owner = self.owner[dst];
                if owner == self.me {
                    self.pending.file(e + 1, self.local_index[dst], parcel);
                } else {
                    self.outbox[owner].push((e + 1, (dst, parcel)));
                }
            }
            let wake = self.shards[li].next_wake(e + 1, &ctx, self.tick_ns);
            self.wake_at[li] = wake;
            if wake != u64::MAX {
                self.heap.push(Reverse((wake, li)));
                self.profile.wake_pushes += 1;
            }
        }
    }

    /// Records one outgoing flush in the profile.
    fn note_flush(&mut self, items: usize) {
        self.profile.flushes += 1;
        self.profile.flush_items += items as u64;
        if items == 0 {
            self.profile.null_messages += 1;
        }
    }

    /// Folds one peer flush in: advance that peer's promise, file its
    /// deliveries.
    fn absorb(&mut self, frontier: &mut [u64], msg: Flush) {
        let f = &mut frontier[msg.from];
        *f = (*f).max(msg.safe);
        for (dt, (dst, parcel)) in msg.items {
            if dt < self.ticks {
                self.pending.file(dt, self.local_index[dst], parcel);
            }
        }
    }
}

/// The event-driven worker: run ahead to the horizon the peers'
/// promises allow, executing only event-bearing ticks; flush emissions
/// plus a `safe = horizon + 1` promise; block until the horizon moves.
fn worker_event_loop(
    mut w: EventWorker,
    peers: Vec<(usize, SyncSender<Flush>)>,
    rx: Receiver<Flush>,
) -> (Vec<HostShard>, EngineProfile) {
    let ticks = w.ticks;
    // Worker → the tick it has promised to deliver nothing at or
    // before; this worker's own entry never constrains it.
    let mut frontier: Vec<u64> = vec![0; w.outbox.len()];
    frontier[w.me] = u64::MAX;
    let horizon = |frontier: &[u64]| frontier.iter().copied().min().unwrap_or(u64::MAX);
    let mut t: u64 = 0;
    loop {
        let h = horizon(&frontier).min(ticks - 1);
        while t <= h {
            let e = w.next_event(t);
            if e > h {
                break;
            }
            w.execute_tick(e);
            t = e + 1;
        }
        // No event in (t, h] — skip straight past the horizon.
        t = h + 1;
        if t >= ticks {
            // Peers may still be behind: leave them a terminal promise
            // (ignore peers that already finished and hung up).
            for (p, tx) in &peers {
                let items = std::mem::take(&mut w.outbox[*p]);
                w.note_flush(items.len());
                let _ = tx.send(Flush {
                    from: w.me,
                    safe: u64::MAX,
                    items,
                });
            }
            return (w.shards, w.profile);
        }
        for (p, tx) in &peers {
            let items = std::mem::take(&mut w.outbox[*p]);
            w.note_flush(items.len());
            let _ = tx.send(Flush {
                from: w.me,
                safe: h + 1,
                items,
            });
        }
        while horizon(&frontier) <= h {
            let Ok(msg) = rx.recv() else {
                // Every peer hung up short of its terminal promise: one
                // of them panicked, and `run_event` resumes that panic
                // when it joins it.
                return (w.shards, w.profile);
            };
            w.absorb(&mut frontier, msg);
            while let Ok(m) = rx.try_recv() {
                w.absorb(&mut frontier, m);
            }
        }
    }
}

/// Round-robin ownership of `shards` (in id order): shard `i` belongs
/// to worker `i % workers`. Returns each worker's shards (ascending
/// id), shard id → owner, and shard id → index within its owner's part.
fn partition(
    shards: Vec<HostShard>,
    workers: usize,
) -> (Vec<Vec<HostShard>>, Vec<usize>, Vec<usize>) {
    let mut parts: Vec<Vec<HostShard>> = (0..workers).map(|_| Vec::new()).collect();
    let mut owner = Vec::with_capacity(shards.len());
    let mut local_index = Vec::with_capacity(shards.len());
    for shard in shards {
        let w = shard.id % workers;
        owner.push(w);
        local_index.push(parts[w].len());
        parts[w].push(shard);
    }
    (parts, owner, local_index)
}

impl FleetSim {
    /// Number of host shards.
    pub fn host_count(&self) -> usize {
        self.shards.len()
    }

    /// Overrides the engine selection after construction. The scripted
    /// scenarios build their own [`crate::SimConfig`]; this lets the
    /// equivalence tests run the same scenario on the event-driven core
    /// and the tick-stepped reference and pin the reports equal.
    pub fn set_event_driven(&mut self, on: bool) {
        self.cfg.event_driven = on;
    }

    /// Overrides the trace configuration after construction and rewires
    /// every shard's tracer accordingly. The scripted scenarios build
    /// their own [`crate::SimConfig`]; this turns tracing on (or off)
    /// for an already-built topology without re-plumbing the builder.
    /// Tracers are strictly shard-local (per-host rings, merged
    /// canonically at assembly), so enabling tracing cannot disturb
    /// worker-count determinism.
    pub fn set_trace(&mut self, trace: TraceConfig) {
        self.cfg.trace = trace;
        for shard in &mut self.shards {
            let tracer = if trace.enabled {
                Tracer::for_host(trace, shard.id as u32)
            } else {
                Tracer::disabled()
            };
            shard.node.set_tracer(tracer);
        }
    }

    /// Runs to completion and reports. Dispatches on
    /// [`crate::SimConfig::event_driven`]: the event-driven engine is
    /// the default; the tick-stepped serial loop remains available as
    /// the equivalence reference. Both produce bit-identical reports,
    /// the event-driven one for any worker count.
    pub fn run(self) -> FleetReport {
        let sim = self.cfg;
        let hosts = self.shards.len();
        let workers = sim.workers.clamp(1, hosts.max(1));
        let ctx = TickCtx::new(&sim, hosts);
        let tick_ns = SimConfig::TICK.as_nanos();
        let ticks = sim.tick_count();
        // A run of no ticks has no last tick for the event loop to run
        // up to; the reference loop's zero iterations are its answer.
        let (shards, profiles) = if sim.event_driven && ticks > 0 {
            run_event(self.shards, ctx, tick_ns, ticks, workers)
        } else {
            let shards = run_stepped(self.shards, &ctx, tick_ns, ticks);
            (shards, Vec::new())
        };
        FleetReport::assemble(workers, ticks, shards, sim.trace, profiles)
    }
}

/// The event-driven engine: per-worker event queues with
/// bounded-lookahead synchronisation (see the module docs). Returns the
/// shards in id order and one profile per worker.
fn run_event(
    shards: Vec<HostShard>,
    ctx: TickCtx,
    tick_ns: u64,
    ticks: u64,
    workers: usize,
) -> (Vec<HostShard>, Vec<EngineProfile>) {
    let (parts, owner, local_index) = partition(shards, workers);

    // One receiver per worker; every peer holds a sender clone.
    // The capacity bounds run-ahead buffering: a worker enqueues at
    // most a couple of flushes per peer before the peer's next
    // drain, so sends only ever block briefly.
    let mut txs: Vec<SyncSender<Flush>> = Vec::with_capacity(workers);
    let mut rxs: Vec<Receiver<Flush>> = Vec::with_capacity(workers);
    for _ in 0..workers {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Flush>(8 * workers.max(2));
        txs.push(tx);
        rxs.push(rx);
    }
    let mut handles = Vec::with_capacity(workers);
    for (me, (part, rx)) in parts.into_iter().zip(rxs).enumerate() {
        let peers: Vec<(usize, SyncSender<Flush>)> = (0..workers)
            .filter(|p| *p != me)
            .map(|p| (p, txs[p].clone()))
            .collect();
        let wake_at: Vec<u64> = part.iter().map(|s| s.next_wake(0, &ctx, tick_ns)).collect();
        let heap: BinaryHeap<Reverse<(u64, usize)>> = wake_at
            .iter()
            .enumerate()
            .filter(|(_, w)| **w != u64::MAX)
            .map(|(i, w)| Reverse((*w, i)))
            .collect();
        let ew = EventWorker {
            me,
            ctx,
            tick_ns,
            ticks,
            owner: owner.clone(),
            inbound: part.iter().map(|_| Vec::new()).collect(),
            shards: part,
            local_index: local_index.clone(),
            pending: Pending::default(),
            wake_at,
            heap,
            outbox: (0..workers).map(|_| Vec::new()).collect(),
            due: Vec::new(),
            out: ShardOutput::new(ctx.shards),
            profile: EngineProfile {
                worker: me,
                ..EngineProfile::default()
            },
        };
        handles.push(thread::spawn(move || worker_event_loop(ew, peers, rx)));
    }
    drop(txs);

    let mut shards: Vec<HostShard> = Vec::with_capacity(owner.len());
    let mut profiles: Vec<EngineProfile> = Vec::with_capacity(workers);
    for handle in handles {
        // A worker's panic is the run's: propagate it, payload intact.
        let (part, profile) = handle
            .join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
        shards.extend(part);
        profiles.push(profile);
    }
    shards.sort_unstable_by_key(|s| s.id);
    (shards, profiles)
}

/// The tick-stepped reference: one thread, every shard, every tick, in
/// id order. What a shard emits during tick `t` is held back until every
/// shard has run `t` and handed over at the start of `t + 1`; the final
/// tick's emissions would deliver past the end of the run and are
/// dropped.
fn run_stepped(
    mut shards: Vec<HostShard>,
    ctx: &TickCtx,
    tick_ns: u64,
    ticks: u64,
) -> Vec<HostShard> {
    let mut inbound: Vec<Vec<Parcel>> = shards.iter().map(|_| Vec::new()).collect();
    let mut out = ShardOutput::new(ctx.shards);
    let mut in_flight: Vec<Delivery> = Vec::new();
    for tick in 0..ticks {
        let now = SimTime::from_nanos(tick * tick_ns);
        let next = SimTime::from_nanos((tick + 1) * tick_ns);
        for (dst, parcel) in in_flight.drain(..) {
            inbound[dst].push(parcel);
        }
        for (shard, input) in shards.iter_mut().zip(&mut inbound) {
            shard.tick(tick, now, next, ctx, input, &mut out);
            in_flight.extend(out.drain_from(shard.id));
        }
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineStats, SimConfig};
    use pi_classifier::table::whitelist_with_default_deny;
    use pi_core::{Field, FlowKey, FlowMask, MaskedKey};
    use pi_traffic::FanSource;

    /// One flow at a constant rate: a one-key fan, labelled `cbr`.
    fn cbr(key: FlowKey, bytes: usize, pps: f64) -> Box<FanSource> {
        Box::new(FanSource::new(vec![key], bytes, pps).named("cbr"))
    }

    fn small_cfg(secs: u64, workers: usize) -> SimConfig {
        SimConfig {
            duration: SimTime::from_secs(secs),
            workers,
            ..SimConfig::default()
        }
    }

    fn ip(a: [u8; 4]) -> u32 {
        u32::from_be_bytes(a)
    }

    #[test]
    fn single_host_delivery() {
        let mut b = FleetBuilder::new(small_cfg(5, 1));
        let h0 = b.add_host(DpConfig::default());
        b.add_pod(h0, ip([10, 0, 0, 2]));
        let key = FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1000, 80);
        b.add_source(h0, cbr(key, 1500, 1000.0));
        let report = b.build().unwrap().run();
        let totals = &report.source_totals[0];
        assert_eq!(totals.generated, 5_000);
        assert_eq!(totals.delivered, 5_000);
        assert_eq!(totals.dropped_capacity, 0);
        assert_eq!(totals.dropped_policy, 0);
        // Throughput series ≈ 1000 pps × 1500 B × 8 = 12 Mb/s.
        let mean = report.throughput_bps[0].mean();
        assert!((mean - 12e6).abs() / 12e6 < 0.01, "mean {mean}");
    }

    #[test]
    fn cross_host_delivery_over_the_fabric() {
        let mut b = FleetBuilder::new(small_cfg(3, 2));
        let h0 = b.add_host(DpConfig::default());
        let h1 = b.add_host(DpConfig::default());
        b.add_pod(h0, ip([10, 0, 0, 1]));
        b.add_pod(h1, ip([10, 1, 0, 1]));
        let key = FlowKey::tcp([10, 0, 0, 1], [10, 1, 0, 1], 1000, 80);
        b.add_source(h0, cbr(key, 1500, 100.0));
        let report = b.build().unwrap().run();
        // One tick of fabric latency, one more for the receipt: the
        // tail of the stream may be in flight at the end of the run.
        let delivered = report.source_totals[0].delivered;
        assert!((298..=300).contains(&delivered), "delivered = {delivered}");
        // Both switches processed the packets.
        assert!(report.switch_stats[0].packets >= 299);
        assert!(report.switch_stats[1].packets >= 298);
    }

    #[test]
    fn acl_denies_and_counts_policy_drops() {
        let mut b = FleetBuilder::new(small_cfg(2, 1));
        let h0 = b.add_host(DpConfig::default());
        b.add_pod(h0, ip([10, 0, 0, 2]));
        // Whitelist a different /8: 192.x traffic only.
        let allow = MaskedKey::new(
            FlowKey::tcp([192, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        );
        b.install_acl(ip([10, 0, 0, 2]), whitelist_with_default_deny(&[allow]));
        let denied = FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1, 80);
        b.add_source(h0, cbr(denied, 64, 100.0));
        let report = b.build().unwrap().run();
        assert_eq!(report.source_totals[0].delivered, 0);
        assert_eq!(report.source_totals[0].dropped_policy, 200);
    }

    #[test]
    fn link_capacity_caps_cross_host_throughput() {
        let mut b = FleetBuilder::new(small_cfg(3, 1));
        let h0 = b.add_host(DpConfig::default());
        let h1 = b.add_host(DpConfig::default());
        b.add_pod(h0, ip([10, 0, 0, 1]));
        b.add_pod(h1, ip([10, 1, 0, 1]));
        let key = FlowKey::tcp([10, 0, 0, 1], [10, 1, 0, 1], 1, 80);
        // Offer 1.5 Gb/s over the 1 Gb/s fabric.
        b.add_source(h0, cbr(key, 1500, 125_000.0));
        let report = b.build().unwrap().run();
        let delivered_bps = report.throughput_bps[0].mean();
        assert!(
            (0.9e9..1.1e9).contains(&delivered_bps),
            "delivered {delivered_bps} over a 1 Gb/s link"
        );
        assert!(report.source_totals[0].dropped_capacity > 0);
    }

    #[test]
    fn cpu_exhaustion_starves_the_queue() {
        // A switch with a microscopic budget cannot carry the load.
        let mut cfg = small_cfg(2, 1);
        cfg.cpu_cycles_per_sec = 200_000; // 200 cycles/ms: a handful of packets
        cfg.queue_capacity = 100;
        let mut b = FleetBuilder::new(cfg);
        let h0 = b.add_host(DpConfig::default());
        b.add_pod(h0, ip([10, 0, 0, 2]));
        let key = FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1, 80);
        b.add_source(h0, cbr(key, 64, 10_000.0));
        let report = b.build().unwrap().run();
        let t = &report.source_totals[0];
        assert!(t.delivered < t.generated / 2, "most packets must drop");
        assert!(t.dropped_capacity > 0);
        // CPU pinned at (or briefly above, via carry) full utilisation.
        assert!(report.cpu_util[0].mean() > 0.95);
    }

    #[test]
    fn masks_series_tracks_switch_state() {
        let mut b = FleetBuilder::new(small_cfg(2, 1));
        let h0 = b.add_host(DpConfig::default());
        b.add_pod(h0, ip([10, 0, 0, 2]));
        let key = FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1, 80);
        b.add_source(h0, cbr(key, 64, 10.0));
        let report = b.build().unwrap().run();
        // One pod, no ACL: a single ip_dst mask.
        assert_eq!(report.masks[0].last().unwrap().1, 1.0);
        assert_eq!(report.megaflows[0].last().unwrap().1, 1.0);
    }

    #[test]
    fn determinism_same_build_same_report() {
        let build = || {
            let mut b = FleetBuilder::new(small_cfg(3, 1));
            let h0 = b.add_host(DpConfig::default());
            b.add_pod(h0, ip([10, 0, 0, 2]));
            b.add_source(
                h0,
                Box::new(pi_traffic::PoissonFlowSource::new(
                    vec![(ip([10, 9, 9, 9]), ip([10, 0, 0, 2]))],
                    20.0,
                    10.0,
                    100.0,
                    200,
                    42,
                )),
            );
            b.build().unwrap().run()
        };
        let a = build();
        let b = build();
        assert_eq!(a.source_totals, b.source_totals);
        assert_eq!(
            a.throughput_bps[0].iter().collect::<Vec<_>>(),
            b.throughput_bps[0].iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn build_names_what_is_wrong_with_its_input() {
        const POD: u32 = u32::from_be_bytes([10, 0, 0, 2]);
        const STRANGER: u32 = u32::from_be_bytes([10, 9, 9, 9]);
        // One host (index 0) carrying `POD`, then one thing wrong.
        type Spoil = fn(&mut FleetBuilder);
        let build = |cfg: SimConfig, spoil: Spoil| {
            let mut b = FleetBuilder::new(cfg);
            let h0 = b.add_host(DpConfig::default());
            b.add_pod(h0, POD);
            spoil(&mut b);
            b.build().err()
        };
        let no_such_host = Some(BuildError::NoSuchHost { host: 1, hosts: 1 });
        let unattached = Some(BuildError::UnattachedPod { ip: STRANGER });
        let cases: [(Spoil, Option<BuildError>); 10] = [
            (|_| {}, None),
            // Were the second attachment accepted, the switch would keep
            // the first vport while the routing view followed the second.
            (
                |b| {
                    b.add_pod(0, POD);
                },
                Some(BuildError::DuplicatePodIp { ip: POD }),
            ),
            (
                |b| {
                    b.add_pod(1, STRANGER);
                },
                no_such_host,
            ),
            (|b| b.add_pod_at(1, STRANGER, 3), no_such_host),
            (
                |b| {
                    let key = FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1000, 80);
                    b.add_source(1, cbr(key, 64, 1.0));
                },
                no_such_host,
            ),
            (
                |b| b.attach_defense(1, DefenseController::new(Default::default())),
                no_such_host,
            ),
            (
                |b| b.attach_control_plane(1, Default::default()),
                no_such_host,
            ),
            (|b| b.attach_faults(1, Default::default()), no_such_host),
            (
                |b| b.attach_reliable_control_plane(1, Default::default()),
                no_such_host,
            ),
            (
                |b| b.install_acl(STRANGER, whitelist_with_default_deny(&[])),
                unattached,
            ),
        ];
        for (i, (spoil, want)) in cases.into_iter().enumerate() {
            assert_eq!(build(small_cfg(1, 1), spoil), want, "case {i}");
        }

        let zero_queue = SimConfig {
            queue_capacity: 0,
            ..small_cfg(1, 1)
        };
        let got = build(zero_queue, |_| {});
        assert_eq!(got, Some(BuildError::ZeroQueueCapacity));
        let no_hosts = FleetBuilder::new(small_cfg(1, 1)).build().err();
        assert_eq!(no_hosts, Some(BuildError::NoHosts));
    }

    #[test]
    fn zero_duration_run_is_empty_on_both_loops() {
        let run = |event: bool| {
            let mut cfg = small_cfg(0, 2);
            cfg.event_driven = event;
            let mut b = FleetBuilder::new(cfg);
            let h0 = b.add_host(DpConfig::default());
            let h1 = b.add_host(DpConfig::default());
            b.add_pod(h0, ip([10, 0, 0, 1]));
            b.add_pod(h1, ip([10, 1, 0, 1]));
            let key = FlowKey::tcp([10, 0, 0, 1], [10, 1, 0, 1], 1000, 80);
            b.add_source(h0, cbr(key, 1500, 1000.0));
            b.build().unwrap().run()
        };
        let ev = run(true);
        let st = run(false);
        assert_reports_equal(&ev, &st, "zero ticks");
        assert_eq!(ev.engine, EngineStats::default());
        assert_eq!(st.engine, EngineStats::default());
        assert!(ev.profiles.is_empty() && st.profiles.is_empty());
        assert_eq!(ev.source_totals[0].generated, 0);
        assert!(ev.throughput_bps[0].is_empty() && ev.masks[0].is_empty());
        assert_eq!(ev.switch_stats[0].packets + ev.switch_stats[1].packets, 0);
    }

    #[test]
    fn worker_count_is_clamped_between_one_and_the_host_count() {
        let run = |workers: usize| {
            let mut b = FleetBuilder::new(small_cfg(1, workers));
            for h in 0..2 {
                let host = b.add_host(DpConfig::default());
                b.add_pod(host, ip([10, h, 0, 1]));
            }
            let report = b.build().unwrap().run();
            (report.workers, report.profiles.len())
        };
        assert_eq!(run(0), (1, 1));
        assert_eq!(run(8), (2, 2));
    }

    #[test]
    fn shards_inherit_the_bounded_pipeline_and_report_upcall_drops() {
        use pi_attack::{AttackSchedule, AttackSpec, CovertSequence};
        use pi_datapath::{PipelineMode, UpcallPipelineConfig};
        use pi_traffic::ChurnSource;

        let run = |quota: Option<u32>, workers: usize| {
            let dp = DpConfig {
                flow_limit: 64,
                pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
                    queue_capacity: 16,
                    handler_cycles_per_step: 200_000,
                    port_quota_per_step: quota,
                }),
                ..DpConfig::default()
            };
            let mut b = FleetBuilder::new(small_cfg(4, workers));
            let h0 = b.add_host(dp.clone());
            let h1 = b.add_host(dp);
            b.add_pod(h0, ip([10, 0, 0, 2])); // victim service pod
            b.add_pod(h1, ip([10, 1, 0, 2])); // attacker client pod
                                              // Victim churn: fresh connections from host 1 over the
                                              // fabric, starting after the flood has filled host 0's
                                              // flow limit (so its flows keep upcalling).
            b.add_source(
                h1,
                Box::new(
                    ChurnSource::new(ip([10, 0, 10, 0]), ip([10, 0, 0, 2]), 80, 64, 2_000.0)
                        .starting_at(SimTime::from_secs(1))
                        .named("victim"),
                ),
            );
            // Attacker upcall flood injected directly at host 0.
            let spec = AttackSpec::masks_512(pi_cms::PolicyDialect::Kubernetes);
            let schedule = AttackSchedule::new(
                CovertSequence::new(spec.build_target(ip([10, 1, 0, 2]))),
                10e6, // ~19.5 kpps of 64-B frames
                SimTime::ZERO,
            )
            .upcall_flood();
            b.add_source(h0, Box::new(schedule));
            b.build().unwrap().run()
        };

        let unfair = run(None, 2);
        // The flood saturates host 0's handlers: the victim's fresh
        // flows tail-drop at the upcall queue and the blast radius
        // names the host.
        assert!(
            unfair.source_totals[0].dropped_upcall > 0,
            "victim upcall drops: {:?}",
            unfair.source_totals[0]
        );
        // Host 1 only upcalls to set up the churn stream's uplink
        // megaflow — its slow path is otherwise idle.
        assert!(unfair.upcall_stats[1].enqueued < 10);
        assert_eq!(unfair.upcall_stats[1].queue_drops, 0);
        let blast = unfair.blast_radius(SimTime::from_secs(1), &[0], 0.5, 1e9);
        assert_eq!(blast.upcall_drops.len(), 1);
        assert_eq!(blast.upcall_drops[0].0, 0, "host 0 carries the drops");

        // The per-port fair-share quota restores the victim.
        let fair = run(Some(4), 2);
        assert_eq!(
            fair.source_totals[0].dropped_upcall, 0,
            "quota must restore the victim: {:?}",
            fair.source_totals[0]
        );

        // Determinism across worker counts holds for the pipeline too.
        let single = run(None, 1);
        assert_eq!(single.source_totals, unfair.source_totals);
        assert_eq!(single.upcall_stats, unfair.upcall_stats);
    }

    #[test]
    fn shard_local_controllers_detect_and_mitigate_deterministically() {
        use pi_attack::{AttackSchedule, AttackSpec, CovertSequence};
        use pi_datapath::{PipelineMode, UpcallPipelineConfig};
        use pi_detect::DefenseController;
        use pi_traffic::ChurnSource;

        let run = |workers: usize| {
            let dp = DpConfig {
                flow_limit: 64,
                pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
                    queue_capacity: 16,
                    // ~12 upcalls/step: the controller's default quota
                    // (8) must leave handler headroom for the victim —
                    // a quota above the whole budget protects nobody.
                    handler_cycles_per_step: 400_000,
                    port_quota_per_step: None,
                }),
                ..DpConfig::default()
            };
            let mut b = FleetBuilder::new(small_cfg(5, workers));
            let h0 = b.add_host(dp.clone());
            let h1 = b.add_host(dp);
            b.add_pod(h0, ip([10, 0, 0, 2])); // victim service pod
            b.add_pod(h1, ip([10, 1, 0, 2])); // attacker client pod
            b.add_source(
                h1,
                Box::new(
                    ChurnSource::new(ip([10, 0, 10, 0]), ip([10, 0, 0, 2]), 80, 64, 2_000.0)
                        .starting_at(SimTime::from_secs(2))
                        .named("victim"),
                ),
            );
            // Flood at host 0 from t = 1 s (1 s of benign warm-up for
            // the host-0 controller's baselines).
            let spec = AttackSpec::masks_512(pi_cms::PolicyDialect::Kubernetes);
            b.add_source(
                h0,
                Box::new(
                    AttackSchedule::new(
                        CovertSequence::new(spec.build_target(ip([10, 1, 0, 2]))),
                        10e6,
                        SimTime::from_secs(1),
                    )
                    .upcall_flood(),
                ),
            );
            // Controllers on both hosts; host 1 sees nothing.
            b.attach_defense(h0, DefenseController::with_defaults());
            b.attach_defense(h1, DefenseController::with_defaults());
            b.build().unwrap().run()
        };

        let report = run(2);
        let d0 = report.defense[0].as_ref().expect("host 0 defended");
        let d1 = report.defense[1].as_ref().expect("host 1 defended");
        assert!(d0.activations >= 1, "host 0 must mitigate: {d0:?}");
        assert_eq!(d1.activations, 0, "host 1 stays quiet");
        assert!(d1.detections.is_empty());
        // The blast radius names host 0's detection and mitigation.
        let blast = report.blast_radius(SimTime::from_secs(1), &[0], 0.5, 1e9);
        assert_eq!(blast.detections.len(), 1);
        assert_eq!(blast.detections[0].0, 0);
        assert!(blast.detections[0].1 >= SimTime::from_secs(1), "post-onset");
        assert_eq!(blast.mitigations.len(), 1);
        assert!(blast.mitigations[0].1 >= blast.detections[0].1);
        // The mitigated victim outperforms the unfair static baseline
        // of `shards_inherit_the_bounded_pipeline...`: most of its
        // post-mitigation connections complete.
        let victim = &report.source_totals[0];
        assert!(
            victim.delivered > victim.dropped_upcall,
            "quota restores the victim: {victim:?}"
        );
        // Determinism: controllers are shard-local, so worker count
        // changes nothing — totals, defense timelines, attribution.
        let single = run(1);
        assert_eq!(single.source_totals, report.source_totals);
        assert_eq!(single.defense, report.defense);
        assert_eq!(single.attribution, report.attribution);
    }

    #[test]
    fn fault_injection_preserves_worker_count_determinism_on_every_backend() {
        use pi_backend::BackendKind;
        use pi_cms::{
            Cidr, ControlPlaneProgram, IngressRule, NetworkPolicy, PolicyCompiler, Protocol,
        };
        use pi_fault::{ChannelFaultConfig, FaultSchedule};

        let run = |kind: BackendKind, workers: usize| {
            let dp = DpConfig {
                backend: kind,
                ..DpConfig::default()
            };
            let mut b = FleetBuilder::new(small_cfg(5, workers));
            let h0 = b.add_host(dp.clone());
            let h1 = b.add_host(dp);
            let victim = ip([10, 0, 0, 2]);
            b.add_pod(h0, victim);
            b.add_pod(h1, ip([10, 1, 0, 2]));
            // The victim whitelists its one legitimate client; the
            // prober below is outside the whitelist.
            let policy = NetworkPolicy {
                name: "victim-peers".into(),
                ingress: vec![IngressRule {
                    from: vec![Cidr::host([10, 1, 0, 2])],
                    ports: vec![(Protocol::Tcp, Some(80))],
                }],
            };
            let mut program = ControlPlaneProgram::default();
            program.install_acl(
                SimTime::from_millis(200),
                victim,
                PolicyCompiler.compile_k8s(&policy),
            );
            // At-least-once delivery over a hostile channel (loss,
            // duplication, jittered delays → reordering), plus a
            // mid-run crash that wipes the installed ACL.
            b.attach_reliable_control_plane(h0, program);
            b.attach_faults(
                h0,
                FaultSchedule::new()
                    .crash(SimTime::from_secs(2), SimTime::from_millis(100))
                    .channel(ChannelFaultConfig {
                        drop_p: 0.25,
                        dup_p: 0.25,
                        delay: SimTime::from_millis(2),
                        jitter: SimTime::from_millis(7),
                        seed: 0xDE7E12,
                    }),
            );
            let key = FlowKey::tcp([10, 1, 0, 2], [10, 0, 0, 2], 1000, 80);
            b.add_source(h1, cbr(key, 400, 2_000.0));
            let probe = FlowKey::tcp([10, 9, 0, 1], [10, 0, 0, 2], 40_000, 80);
            b.add_source(h1, cbr(probe, 64, 500.0));
            b.build().unwrap().run()
        };

        for kind in [
            BackendKind::OvsCache,
            BackendKind::ExactHash,
            BackendKind::LpmTier,
            BackendKind::NicOffload,
        ] {
            let one = run(kind, 1);
            let many = run(kind, 2);
            // Totals, switch counters and the fault/recovery report
            // are bit-identical across worker counts: the fault plan,
            // channel RNG and reliable-delivery state are all
            // shard-local.
            assert_eq!(one.source_totals, many.source_totals, "{kind:?}");
            assert_eq!(one.switch_stats, many.switch_stats, "{kind:?}");
            assert_eq!(one.faults, many.faults, "{kind:?}");
            let f = one.faults[0].as_ref().expect("host 0 has faults");
            assert_eq!(f.crashes, 1, "{kind:?}");
            assert!(f.fault_events() >= 1, "{kind:?}: {f:?}");
            assert!(f.acls_lost >= 1, "{kind:?}: {f:?}");
            assert!(f.channel.applied >= 1, "{kind:?}: {f:?}");
            assert!(one.faults[1].is_none(), "host 1 runs fault-free");
            // The blast radius names host 0's faults.
            let blast = one.blast_radius(SimTime::from_secs(2), &[0], 0.5, 1e9);
            assert_eq!(blast.fault_events.len(), 1, "{kind:?}");
            assert_eq!(blast.fault_events[0].0, 0, "{kind:?}");
        }
    }

    /// A scenario exercising every event source at once: cross-host
    /// traffic, a delayed attack, a defended host, a crash + lossy
    /// control channel behind a reliable control plane — and one fully
    /// idle host the event engine should skip.
    fn rich_fleet(event: bool, workers: usize) -> FleetReport {
        use pi_attack::{AttackSchedule, AttackSpec, CovertSequence};
        use pi_cms::{
            Cidr, ControlPlaneProgram, IngressRule, NetworkPolicy, PolicyCompiler, Protocol,
        };
        use pi_detect::DefenseController;
        use pi_fault::{ChannelFaultConfig, FaultSchedule};

        let mut cfg = small_cfg(4, workers);
        cfg.event_driven = event;
        let mut b = FleetBuilder::new(cfg);
        let h0 = b.add_host(DpConfig::default());
        let h1 = b.add_host(DpConfig::default());
        let h2 = b.add_host(DpConfig::default());
        let victim = ip([10, 0, 0, 2]);
        b.add_pod(h0, victim);
        b.add_pod(h1, ip([10, 1, 0, 2]));
        b.add_pod(h2, ip([10, 2, 0, 2])); // pod attached, host otherwise idle
        let policy = NetworkPolicy {
            name: "victim-peers".into(),
            ingress: vec![IngressRule {
                from: vec![Cidr::host([10, 1, 0, 2])],
                ports: vec![(Protocol::Tcp, Some(80))],
            }],
        };
        let mut program = ControlPlaneProgram::default();
        program.install_acl(
            SimTime::from_millis(200),
            victim,
            PolicyCompiler.compile_k8s(&policy),
        );
        b.attach_reliable_control_plane(h0, program);
        b.attach_faults(
            h0,
            FaultSchedule::new()
                .crash(SimTime::from_secs(2), SimTime::from_millis(100))
                .channel(ChannelFaultConfig {
                    drop_p: 0.25,
                    dup_p: 0.25,
                    delay: SimTime::from_millis(2),
                    jitter: SimTime::from_millis(7),
                    seed: 0xDE7E12,
                }),
        );
        b.attach_defense(h0, DefenseController::with_defaults());
        // Legitimate client, outside-whitelist prober, delayed attack.
        let key = FlowKey::tcp([10, 1, 0, 2], [10, 0, 0, 2], 1000, 80);
        b.add_source(h1, cbr(key, 400, 2_000.0));
        let probe = FlowKey::tcp([10, 9, 0, 1], [10, 0, 0, 2], 40_000, 80);
        b.add_source(h1, cbr(probe, 64, 500.0));
        let spec = AttackSpec::masks_512(pi_cms::PolicyDialect::Kubernetes);
        b.add_source(
            h0,
            Box::new(
                AttackSchedule::new(
                    CovertSequence::new(spec.build_target(ip([10, 1, 0, 2]))),
                    5e6,
                    SimTime::from_secs(1),
                )
                .upcall_flood(),
            ),
        );
        b.build().unwrap().run()
    }

    fn assert_reports_equal(a: &FleetReport, b: &FleetReport, label: &str) {
        assert_eq!(a.source_totals, b.source_totals, "{label}: totals");
        assert_eq!(a.switch_stats, b.switch_stats, "{label}: switch stats");
        assert_eq!(a.upcall_stats, b.upcall_stats, "{label}: upcall stats");
        assert_eq!(a.faults, b.faults, "{label}: fault reports");
        assert_eq!(a.defense, b.defense, "{label}: defense reports");
        assert_eq!(a.attribution, b.attribution, "{label}: attribution");
        let series = |r: &FleetReport| {
            let mut all = Vec::new();
            for group in [
                &r.throughput_bps,
                &r.offered_bps,
                &r.masks,
                &r.megaflows,
                &r.cpu_util,
                &r.handler_cps,
                &r.policy_updates,
            ] {
                for s in group.iter() {
                    all.push(s.iter().collect::<Vec<_>>());
                }
            }
            all
        };
        assert_eq!(series(a), series(b), "{label}: timelines");
    }

    #[test]
    fn event_engine_matches_the_stepped_reference_bit_for_bit() {
        let ev = rich_fleet(true, 2);
        let st = rich_fleet(false, 2);
        assert_reports_equal(&ev, &st, "event vs stepped");
        // Both engines consume the same events; only the idle-tick
        // accounting differs.
        assert_eq!(ev.engine.events_processed, st.engine.events_processed);
        assert_eq!(st.engine.shard_ticks_skipped, 0, "stepped skips nothing");
        assert!(
            ev.engine.shard_ticks_skipped > 0,
            "the idle host must be skipped: {:?}",
            ev.engine
        );
    }

    #[test]
    fn worker_matrix_is_bit_identical_on_every_backend_with_faults() {
        use pi_backend::BackendKind;
        use pi_cms::{
            Cidr, ControlPlaneProgram, IngressRule, NetworkPolicy, PolicyCompiler, Protocol,
        };
        use pi_fault::{ChannelFaultConfig, FaultSchedule};

        let run = |kind: BackendKind, workers: usize| {
            let dp = DpConfig {
                backend: kind,
                ..DpConfig::default()
            };
            let mut b = FleetBuilder::new(small_cfg(3, workers));
            let h0 = b.add_host(dp.clone());
            let h1 = b.add_host(dp.clone());
            let h2 = b.add_host(dp.clone());
            let h3 = b.add_host(dp);
            let victim = ip([10, 0, 0, 2]);
            b.add_pod(h0, victim);
            b.add_pod(h1, ip([10, 1, 0, 2]));
            b.add_pod(h2, ip([10, 2, 0, 2]));
            b.add_pod(h3, ip([10, 3, 0, 2])); // idle host
            let policy = NetworkPolicy {
                name: "victim-peers".into(),
                ingress: vec![IngressRule {
                    from: vec![Cidr::host([10, 1, 0, 2])],
                    ports: vec![(Protocol::Tcp, Some(80))],
                }],
            };
            let mut program = ControlPlaneProgram::default();
            program.install_acl(
                SimTime::from_millis(200),
                victim,
                PolicyCompiler.compile_k8s(&policy),
            );
            b.attach_reliable_control_plane(h0, program);
            b.attach_faults(
                h0,
                FaultSchedule::new()
                    .crash(SimTime::from_secs(1), SimTime::from_millis(50))
                    .channel(ChannelFaultConfig {
                        drop_p: 0.25,
                        dup_p: 0.25,
                        delay: SimTime::from_millis(2),
                        jitter: SimTime::from_millis(7),
                        seed: 0xBEEF,
                    }),
            );
            let key = FlowKey::tcp([10, 1, 0, 2], [10, 0, 0, 2], 1000, 80);
            b.add_source(h1, cbr(key, 400, 2_000.0));
            let probe = FlowKey::tcp([10, 9, 0, 1], [10, 0, 0, 2], 40_000, 80);
            b.add_source(h2, cbr(probe, 64, 500.0));
            b.build().unwrap().run()
        };

        for kind in [
            BackendKind::OvsCache,
            BackendKind::ExactHash,
            BackendKind::LpmTier,
            BackendKind::NicOffload,
        ] {
            let one = run(kind, 1);
            for workers in [2usize, 4] {
                let many = run(kind, workers);
                let label = format!("{kind:?} @ {workers} workers");
                assert_reports_equal(&one, &many, &label);
                // The engine accounting itself is worker-invariant.
                assert_eq!(one.engine, many.engine, "{label}: engine stats");
            }
            assert!(
                one.engine.shard_ticks_skipped > 0,
                "{kind:?}: idle host must be skipped"
            );
        }
    }

    #[test]
    fn null_message_exchange_survives_a_silent_shard() {
        // Two workers, and the second worker's shard receives and
        // sends no traffic at all: the lookahead protocol must keep
        // advancing on pure null messages (a deadlock hangs the test).
        let mut b = FleetBuilder::new(small_cfg(3, 2));
        let h0 = b.add_host(DpConfig::default());
        let h1 = b.add_host(DpConfig::default());
        b.add_pod(h0, ip([10, 0, 0, 1]));
        b.add_pod(h1, ip([10, 1, 0, 1])); // attached, never addressed
        let key = FlowKey::tcp([10, 0, 0, 9], [10, 0, 0, 1], 1000, 80);
        b.add_source(h0, cbr(key, 1500, 1000.0));
        let report = b.build().unwrap().run();
        assert_eq!(report.source_totals[0].delivered, 3_000);
        assert!(
            report.engine.shard_ticks_skipped > 0,
            "the silent shard must be skipped: {:?}",
            report.engine
        );
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let run = |workers: usize| {
            let mut b = FleetBuilder::new(small_cfg(3, workers));
            for h in 0..3 {
                let host = b.add_host(DpConfig::default());
                b.add_pod(host, ip([10, h as u8, 0, 1]));
            }
            for h in 0..3u8 {
                let key = FlowKey::tcp([10, h, 0, 1], [10, (h + 1) % 3, 0, 1], 1000 + h as u16, 80);
                b.add_source(h as usize, cbr(key, 800, 500.0));
            }
            b.build().unwrap().run()
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a.source_totals, b.source_totals);
        for (sa, sb) in a.throughput_bps.iter().zip(&b.throughput_bps) {
            assert_eq!(sa.iter().collect::<Vec<_>>(), sb.iter().collect::<Vec<_>>());
        }
    }
}
