//! The cluster engine: builder, worker pool and the event loop.
//!
//! Execution model (conservative parallel discrete-event simulation,
//! specialised to a constant one-tick fabric latency):
//!
//! * each worker owns a disjoint shard set and merges that set's event
//!   sources — pending cross-host deliveries, topology commands,
//!   per-shard wake deadlines ([`HostShard::next_wake`]) and the
//!   global sample grid — into one monotonic tick iterator;
//! * an executed tick steps a **due list**, not the shard set: the
//!   shards named by the commands at the cursor, by the deliveries
//!   filed for that tick (one ordered lookup) and by the wake deadlines
//!   that have come due, in ascending shard order. Only a sample tick
//!   visits every shard. What a shard emits is sparse — one parcel per
//!   destination it addressed ([`ShardOutput`]) — and the parcel
//!   buffers, the due list and the per-shard command/inbound scratch
//!   all live on the worker, so a tick's host cost follows the shards
//!   that ran and the destinations they addressed, never the fleet
//!   size, and a steady-state tick allocates nothing. A source that
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
//!   the determinism tests pin. The tick-stepped engine
//!   ([`pi_sim::SimConfig::event_driven`] = false) keeps the original
//!   one-tick-per-epoch barrier loop as the equivalence reference; it
//!   steps every shard every tick through the same
//!   [`HostShard::tick`] and the same sparse exchange.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread;

use pi_classifier::FlowTable;
use pi_cms::ControlPlaneProgram;
use pi_core::{Port, SimTime};
use pi_datapath::{CostModel, DpConfig};
use pi_detect::DefenseController;
use pi_fault::{FaultSchedule, ReliabilityConfig, ReliableControlPlane};
use pi_sim::NodeCell;
use pi_trace::{CauseId, TraceConfig, TraceEvent, TraceEventKind, Tracer};
use pi_traffic::TrafficSource;

use crate::config::FleetConfig;
use crate::report::{EngineProfile, FleetReport, FLUSH_LOG_CAP};
use crate::routes::RouteTable;
use crate::shard::{
    FleetSlot, HostCmd, HostShard, Parcel, ShardInput, ShardOutput, SourceHome, TickCtx,
};

/// A pod migration scheduled at build time.
#[derive(Debug, Clone)]
struct MigrationSpec {
    at: SimTime,
    ip: u32,
    to_host: usize,
}

/// Builder for a [`FleetSim`].
pub struct FleetBuilder {
    cfg: FleetConfig,
    cost: CostModel,
    hosts: Vec<DpConfig>,
    next_vport: Vec<u32>,
    pods: Vec<(usize, u32, u32)>, // (host, ip, vport)
    acls: Vec<(u32, FlowTable)>,
    sources: Vec<(usize, Box<dyn TrafficSource + Send>)>,
    migrations: Vec<MigrationSpec>,
    defenses: Vec<(usize, DefenseController)>,
    control_planes: Vec<(usize, ControlPlaneProgram)>,
    faults: Vec<(usize, FaultSchedule)>,
    reliable_controls: Vec<(usize, ControlPlaneProgram, ReliabilityConfig)>,
}

impl FleetBuilder {
    /// Starts a build with global parameters and the default cost model.
    pub fn new(cfg: FleetConfig) -> Self {
        FleetBuilder {
            cfg,
            cost: CostModel::default(),
            hosts: Vec::new(),
            next_vport: Vec::new(),
            pods: Vec::new(),
            acls: Vec::new(),
            sources: Vec::new(),
            migrations: Vec::new(),
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
    /// its vport; returns the vport.
    pub fn add_pod(&mut self, host: usize, ip: u32) -> u32 {
        let vport = self.next_vport[host];
        self.next_vport[host] += 1;
        self.add_pod_at(host, ip, vport);
        vport
    }

    /// Attaches a pod with a caller-chosen vport (used when the CMS has
    /// already allocated it; see [`crate::ClusterBuilder`]).
    pub fn add_pod_at(&mut self, host: usize, ip: u32, vport: u32) {
        self.next_vport[host] = self.next_vport[host].max(vport + 1);
        self.pods.push((host, ip, vport));
    }

    /// Installs an ingress ACL at the pod with IP `ip` (on its home
    /// switch; reinstalled automatically if the pod later migrates).
    pub fn install_acl(&mut self, ip: u32, table: FlowTable) {
        self.acls.push((ip, table));
    }

    /// Registers a traffic source injecting at `host`; returns its
    /// global source index (order of registration).
    pub fn add_source(&mut self, host: usize, source: Box<dyn TrafficSource + Send>) -> usize {
        self.sources.push((host, source));
        self.sources.len() - 1
    }

    /// Schedules a live migration: at simulated time `at`, the pod at
    /// `ip` detaches from its current host and re-attaches on
    /// `to_host` (with its ACL, if any). Traffic in flight is tunnelled
    /// through the old host's uplink during the switchover.
    pub fn schedule_migration(&mut self, at: SimTime, ip: u32, to_host: usize) {
        self.migrations.push(MigrationSpec { at, ip, to_host });
    }

    /// Attaches a shard-local closed-loop defense controller to `host`,
    /// run every [`pi_sim::SimConfig::defense_interval`]. Controllers
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

    /// Attaches a fault program to `host`: crash/restart events, host
    /// stalls and the CMS→switch channel fault model. Faults are
    /// strictly shard-local state (compiled cursors owned by the
    /// node), so worker-count determinism is preserved even under
    /// crashes and reordered control channels. Multiple schedules for
    /// one host merge.
    pub fn attach_faults(&mut self, host: usize, schedule: FaultSchedule) {
        self.faults.push((host, schedule));
    }

    /// Attaches an at-least-once control plane to `host`: `program`'s
    /// updates travel through the host's faulty channel (from its
    /// [`FaultSchedule`], perfect if none) with acks, retry/backoff
    /// and periodic reconciliation per `cfg`. Multiple programs for
    /// one host merge; the last `cfg` wins.
    pub fn attach_reliable_control_plane(
        &mut self,
        host: usize,
        program: ControlPlaneProgram,
        cfg: ReliabilityConfig,
    ) {
        self.reliable_controls.push((host, program, cfg));
    }

    /// Finalises the topology.
    pub fn build(self) -> FleetSim {
        assert!(!self.hosts.is_empty(), "need at least one host");
        let n = self.hosts.len();
        let cfg = self.cfg;

        let mut routes = RouteTable::new();
        for &(host, ip, _) in &self.pods {
            assert!(
                routes.insert(ip, host).is_none(),
                "pod IPs must be unique across the fleet"
            );
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
        let mut acl_map: BTreeMap<u32, FlowTable> = BTreeMap::new();
        for (ip, table) in self.acls {
            let host = routes.get(ip).expect("ACL target pod must be attached");
            let ok = nodes[host].backend_mut().install_acl(ip, table.clone());
            assert!(ok, "ACL install must succeed on the home switch");
            acl_map.insert(ip, table);
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
        let mut reliable: BTreeMap<usize, (ControlPlaneProgram, ReliabilityConfig)> =
            BTreeMap::new();
        for (host, program, rcfg) in self.reliable_controls {
            let entry = reliable.entry(host).or_default();
            entry.0.merge(program);
            entry.1 = rcfg;
        }
        for (host, (program, rcfg)) in reliable {
            // The reliable layer sends through the host's faulty
            // channel, if its schedule models one.
            let channel = fault_schedules.get(&host).and_then(|s| s.channel_config());
            nodes[host]
                .attach_reliable_control_plane(ReliableControlPlane::new(program, rcfg, channel));
        }
        for (host, schedule) in fault_schedules {
            nodes[host].attach_faults(schedule.compile());
        }
        if cfg.sim.trace.enabled {
            for (host, node) in nodes.iter_mut().enumerate() {
                node.set_tracer(Tracer::for_host(cfg.sim.trace, host as u32));
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

        let shards: Vec<HostShard> = nodes
            .into_iter()
            .zip(per_host_slots)
            .enumerate()
            .map(|(id, (node, slots))| {
                HostShard::new(id, node, routes.clone(), Arc::clone(&source_homes), slots)
            })
            .collect();

        // Resolve migrations into per-tick command batches.
        let tick_ns = cfg.sim.tick.as_nanos();
        let mut next_vport = self.next_vport;
        let mut location = routes;
        let mut migrations = self.migrations;
        migrations.sort_by_key(|m| m.at);
        let mut commands: Vec<(u64, usize, HostCmd)> = Vec::new();
        for m in migrations {
            let tick = m.at.as_nanos() / tick_ns;
            let from = location.get(m.ip).expect("migrating pod must be attached");
            if from == m.to_host {
                continue;
            }
            let vport = next_vport[m.to_host];
            next_vport[m.to_host] += 1;
            for shard in 0..n {
                commands.push((
                    tick,
                    shard,
                    HostCmd::Route {
                        ip: m.ip,
                        shard: m.to_host,
                    },
                ));
            }
            commands.push((tick, from, HostCmd::DetachToUplink { ip: m.ip }));
            commands.push((
                tick,
                m.to_host,
                HostCmd::AttachLocal {
                    ip: m.ip,
                    vport,
                    acl: acl_map.get(&m.ip).cloned(),
                },
            ));
            location.insert(m.ip, m.to_host);
        }

        FleetSim {
            cfg,
            shards,
            commands,
        }
    }
}

/// A runnable cluster simulation.
pub struct FleetSim {
    cfg: FleetConfig,
    shards: Vec<HostShard>,
    /// (tick, shard, command), in schedule order.
    commands: Vec<(u64, usize, HostCmd)>,
}

/// A delivery in flight: `(destination shard, parcel naming its
/// sender)`.
type Delivery = (usize, Parcel);

/// The stepped engine's per-tick messages. `work` (one entry per owned
/// shard, in the worker's shard order) and `emitted` round-trip between
/// coordinator and worker, so their buffers are reused every tick.
enum ToWorker {
    Tick {
        tick: u64,
        work: Vec<ShardInput>,
        /// Empty; the worker fills it with the tick's emissions.
        emitted: Vec<Delivery>,
    },
    Finish,
}

enum FromWorker {
    Ticked {
        /// Consumed: every input left empty.
        work: Vec<ShardInput>,
        emitted: Vec<Delivery>,
    },
    Done {
        shards: Vec<HostShard>,
    },
}

fn worker_loop(
    mut shards: Vec<HostShard>,
    ctx: TickCtx,
    tick_ns: u64,
    rx: Receiver<ToWorker>,
    tx: SyncSender<FromWorker>,
) {
    let mut out = ShardOutput::new(ctx.shards);
    loop {
        match rx.recv().expect("coordinator hung up mid-run") {
            ToWorker::Tick {
                tick,
                mut work,
                mut emitted,
            } => {
                let now = SimTime::from_nanos(tick * tick_ns);
                let next = now + SimTime::from_nanos(tick_ns);
                for (shard, input) in shards.iter_mut().zip(work.iter_mut()) {
                    shard.tick(tick, now, next, &ctx, input, &mut out);
                    emitted.extend(out.drain_from(shard.id));
                }
                tx.send(FromWorker::Ticked { work, emitted })
                    .expect("coordinator hung up mid-run");
            }
            ToWorker::Finish => {
                tx.send(FromWorker::Done {
                    shards: std::mem::take(&mut shards),
                })
                .expect("coordinator hung up at finish");
                return;
            }
        }
    }
}

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

    /// Moves everything filed for tick `e` into its shard's `inbound`,
    /// naming each receiving shard in `due`.
    fn deliver(&mut self, e: u64, work: &mut [ShardInput], due: &mut Vec<usize>) {
        let Some(mut batch) = self.by_tick.remove(&e) else {
            return;
        };
        for (li, parcel) in batch.drain(..) {
            work[li].inbound.push(parcel);
            due.push(li);
        }
        if self.spare.len() < Self::SPARE_CAP {
            self.spare.push(batch);
        }
    }
}

/// The per-worker state of the event-driven engine: the shards this
/// worker owns plus their merged event queue — pending deliveries
/// keyed by tick, the tick-sorted command stream, and a wake heap
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
    /// This worker's shards' commands, tick order.
    commands: Vec<(u64, usize, HostCmd)>,
    cmd_cursor: usize,
    pending: Pending,
    wake_at: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// Cross-worker emissions awaiting the next flush, by destination
    /// worker.
    outbox: Vec<Vec<(u64, Delivery)>>,
    /// Local shards to step this tick, ascending.
    due: Vec<usize>,
    /// Per local shard: this tick's commands and inbound parcels.
    /// Empty between ticks.
    work: Vec<ShardInput>,
    out: ShardOutput,
    /// Harness self-profiling for this worker (heap churn, null
    /// messages) — diagnostic only, never part of the simulated state.
    profile: EngineProfile,
}

impl EventWorker {
    /// The earliest tick ≥ `t` at which any owned shard has an event:
    /// the next sample boundary (global, mandatory), the next command,
    /// the earliest pending delivery, or the earliest live wake
    /// deadline. Stale heap entries are discarded on the way.
    // audit: hotpath
    fn next_event(&mut self, t: u64) -> u64 {
        let every = self.ctx.sample_every_ticks;
        let mut e = t + (every - 1 - (t % every));
        if let Some((ct, _, _)) = self.commands.get(self.cmd_cursor) {
            e = e.min((*ct).max(t));
        }
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
        while let Some((ct, sid, cmd)) = self.commands.get(self.cmd_cursor) {
            if *ct > e {
                break;
            }
            let li = self.local_index[*sid];
            self.work[li].cmds.push(cmd.clone());
            self.due.push(li);
            self.cmd_cursor += 1;
        }
        self.pending.deliver(e, &mut self.work, &mut self.due);
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
            self.shards[li].tick(e, now, next, &ctx, &mut self.work[li], &mut self.out);
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

    /// Records one outgoing flush in the profile. Terminal promises
    /// (`safe == u64::MAX`) are counted but not logged — they carry no
    /// meaningful tick.
    fn note_flush(&mut self, to: usize, safe: u64, items: usize) {
        self.profile.flushes += 1;
        self.profile.flush_items += items as u64;
        if items == 0 {
            self.profile.null_messages += 1;
        }
        if safe != u64::MAX && self.profile.flush_log.len() < FLUSH_LOG_CAP {
            let seq = self.profile.flush_log.len() as u32;
            self.profile.flush_log.push(TraceEvent {
                at_ns: safe.saturating_mul(self.tick_ns),
                host: self.me as u32,
                seq,
                cause: CauseId::NONE,
                kind: TraceEventKind::FlushExchange {
                    from: self.me as u32,
                    to: to as u32,
                    safe_tick: safe,
                    items: items as u32,
                },
            });
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
                w.note_flush(*p, u64::MAX, items.len());
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
            w.note_flush(*p, h + 1, items.len());
            let _ = tx.send(Flush {
                from: w.me,
                safe: h + 1,
                items,
            });
        }
        while horizon(&frontier) <= h {
            let msg = rx.recv().expect("peer worker hung up mid-run");
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

    /// Overrides the trace configuration after construction and rewires
    /// every shard's tracer accordingly — the fleet counterpart of
    /// [`pi_sim::Simulation::set_trace`]. Tracers are strictly
    /// shard-local (per-host rings, merged canonically at assembly), so
    /// enabling tracing cannot disturb worker-count determinism.
    pub fn set_trace(&mut self, trace: TraceConfig) {
        self.cfg.sim.trace = trace;
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
    /// [`pi_sim::SimConfig::event_driven`]: the event-driven engine is
    /// the default; the tick-stepped barrier engine remains available
    /// as the equivalence reference. Both produce bit-identical
    /// reports for any worker count.
    pub fn run(self) -> FleetReport {
        if self.cfg.sim.event_driven {
            self.run_event()
        } else {
            self.run_stepped()
        }
    }

    /// The event-driven engine: per-worker event queues with
    /// bounded-lookahead synchronisation (see the module docs).
    fn run_event(self) -> FleetReport {
        let FleetSim {
            cfg,
            shards,
            commands,
        } = self;
        let n = shards.len();
        let workers = cfg.effective_workers().min(n.max(1));
        let sim = cfg.sim;
        let ctx = TickCtx {
            shards: n,
            cycles_per_tick: sim.cycles_per_tick(),
            link_bytes_per_tick: sim.link_bytes_per_tick(),
            queue_capacity: sim.queue_capacity,
            sample_every_ticks: (sim.sample_interval.as_nanos() / sim.tick.as_nanos()).max(1),
            window_secs: sim.sample_interval.as_secs_f64(),
            cpu_cycles_per_sec: sim.cpu_cycles_per_sec,
            defense_every_ticks: sim.defense_every_ticks(),
        };
        let tick_ns = sim.tick.as_nanos().max(1);
        let ticks = sim.tick_count();
        if ticks == 0 {
            return FleetReport::assemble(
                workers,
                sim.tick,
                0,
                shards,
                sim.trace,
                idle_profiles(workers),
            );
        }

        let (parts, owner, local_index) = partition(shards, workers);
        let mut part_cmds: Vec<Vec<(u64, usize, HostCmd)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (tick, shard, cmd) in commands {
            part_cmds[owner[shard]].push((tick, shard, cmd));
        }

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
        for (me, ((part, cmds), rx)) in parts.into_iter().zip(part_cmds).zip(rxs).enumerate() {
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
                work: part.iter().map(|_| ShardInput::default()).collect(),
                shards: part,
                local_index: local_index.clone(),
                commands: cmds,
                cmd_cursor: 0,
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

        let mut final_shards: Vec<Option<HostShard>> = (0..n).map(|_| None).collect();
        let mut profiles: Vec<EngineProfile> = Vec::with_capacity(workers);
        for handle in handles {
            let (shards, profile) = handle.join().expect("worker panicked");
            profiles.push(profile);
            for s in shards {
                let id = s.id;
                final_shards[id] = Some(s);
            }
        }
        FleetReport::assemble(
            workers,
            sim.tick,
            ticks,
            final_shards
                .into_iter()
                .map(|s| s.expect("all shards returned"))
                .collect(),
            sim.trace,
            profiles,
        )
    }

    /// The tick-stepped reference engine: every shard steps every tick
    /// behind a global epoch barrier.
    fn run_stepped(self) -> FleetReport {
        let FleetSim {
            cfg,
            shards,
            commands,
        } = self;
        let n = shards.len();
        let workers = cfg.effective_workers().min(n.max(1));
        let sim = cfg.sim;
        let ctx = TickCtx {
            shards: n,
            cycles_per_tick: sim.cycles_per_tick(),
            link_bytes_per_tick: sim.link_bytes_per_tick(),
            queue_capacity: sim.queue_capacity,
            sample_every_ticks: (sim.sample_interval.as_nanos() / sim.tick.as_nanos()).max(1),
            window_secs: sim.sample_interval.as_secs_f64(),
            cpu_cycles_per_sec: sim.cpu_cycles_per_sec,
            defense_every_ticks: sim.defense_every_ticks(),
        };
        let tick_ns = sim.tick.as_nanos();
        let ticks = sim.tick_count();

        let (parts, owner, local_index) = partition(shards, workers);

        // Each worker's per-shard inputs and its emission list: filled
        // here, consumed by the worker and handed back with the tick's
        // result, so the same buffers serve every tick.
        let mut work: Vec<Vec<ShardInput>> = parts
            .iter()
            .map(|part| part.iter().map(|_| ShardInput::default()).collect())
            .collect();
        let mut emitted: Vec<Vec<Delivery>> = (0..workers).map(|_| Vec::new()).collect();

        // Bounded channels: one in-flight epoch per worker keeps the
        // pipeline tight without unbounded buffering.
        let mut to_workers: Vec<SyncSender<ToWorker>> = Vec::with_capacity(workers);
        let mut from_workers: Vec<Receiver<FromWorker>> = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for part in parts {
            let (cmd_tx, cmd_rx) = std::sync::mpsc::sync_channel::<ToWorker>(1);
            let (res_tx, res_rx) = std::sync::mpsc::sync_channel::<FromWorker>(1);
            to_workers.push(cmd_tx);
            from_workers.push(res_rx);
            handles.push(thread::spawn(move || {
                worker_loop(part, ctx, tick_ns, cmd_rx, res_tx)
            }));
        }

        let mut cmd_cursor = 0usize;
        for tick in 0..ticks {
            // Commands scheduled for this epoch, already in shard order
            // within the tick.
            while let Some((ct, shard, cmd)) = commands.get(cmd_cursor) {
                if *ct > tick {
                    break;
                }
                work[owner[*shard]][local_index[*shard]]
                    .cmds
                    .push(cmd.clone());
                cmd_cursor += 1;
            }

            // Dispatch: hand every worker its shards' inbound + cmds.
            for (w, tx) in to_workers.iter().enumerate() {
                tx.send(ToWorker::Tick {
                    tick,
                    work: std::mem::take(&mut work[w]),
                    emitted: std::mem::take(&mut emitted[w]),
                })
                .expect("worker died mid-run");
            }

            // Barrier: collect every worker's emissions, then file them
            // as the next epoch's inbound (each shard merges its own in
            // sending-shard order).
            for (w, rx) in from_workers.iter().enumerate() {
                match rx.recv().expect("worker died mid-run") {
                    FromWorker::Ticked {
                        work: consumed,
                        emitted: em,
                    } => {
                        work[w] = consumed;
                        emitted[w] = em;
                    }
                    FromWorker::Done { .. } => unreachable!("workers only finish on request"),
                }
            }
            for list in &mut emitted {
                for (dst, parcel) in list.drain(..) {
                    work[owner[dst]][local_index[dst]].inbound.push(parcel);
                }
            }
        }

        // Tear down and collect the shards back in id order.
        for tx in &to_workers {
            tx.send(ToWorker::Finish).expect("worker died at finish");
        }
        let mut final_shards: Vec<Option<HostShard>> = (0..n).map(|_| None).collect();
        for rx in &from_workers {
            match rx.recv().expect("worker died at finish") {
                FromWorker::Done { shards } => {
                    for s in shards {
                        let id = s.id;
                        final_shards[id] = Some(s);
                    }
                }
                FromWorker::Ticked { .. } => unreachable!("no ticks outstanding at finish"),
            }
        }
        for h in handles {
            h.join().expect("worker panicked");
        }

        FleetReport::assemble(
            workers,
            sim.tick,
            ticks,
            final_shards
                .into_iter()
                .map(|s| s.expect("all shards returned"))
                .collect(),
            sim.trace,
            idle_profiles(workers),
        )
    }
}

/// Zeroed per-worker profiles for engines that do no lookahead
/// coordination (the tick-stepped barrier engine, zero-tick runs).
fn idle_profiles(workers: usize) -> Vec<EngineProfile> {
    (0..workers)
        .map(|worker| EngineProfile {
            worker,
            ..EngineProfile::default()
        })
        .collect()
}
