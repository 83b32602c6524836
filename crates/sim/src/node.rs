//! Reusable per-node stepping: one host's switch, ingress queue and
//! cycle accounting.
//!
//! The [`engine`](crate::engine) drives every host the same way —
//! generation fills a bounded ingress queue, the switch drains it under
//! a per-tick CPU cycle budget, and every processed packet is routed
//! local / uplink / denied. [`NodeCell`] owns exactly that slice of
//! state, and with it the core modelling rule ("throughput is never
//! scripted").

use std::collections::{BTreeMap, VecDeque};

use pi_backend::{build_backend, DataplaneBackend, BATCH_SIZE};
use pi_cms::{ControlPlane, PolicyUpdate};
use pi_core::{FlowKey, Port, SimTime};
use pi_datapath::{CostModel, DpConfig, PathTaken, Work};
use pi_detect::{DefenseAction, DefenseController, DefenseReport};
use pi_fault::{ControlChannelStats, FaultPlan, NodeFaultReport, ReliableControlPlane};
use pi_trace::{TraceEventKind, Tracer};

/// A packet sitting in a node's ingress queue, tagged with an opaque
/// source handle `T` (the engine uses its global source index) so
/// delivery outcomes can be fed back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodePacket<T> {
    /// Parsed header tuple.
    pub key: FlowKey,
    /// Frame size in bytes.
    pub bytes: usize,
    /// Originating source handle.
    pub source: T,
}

/// Where the switch sent a processed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Delivered to a pod attached locally at this vport.
    Local(u32),
    /// Routed to the fabric uplink: the destination is another host's.
    Uplink,
    /// Denied by policy (or the destination is unknown to the switch).
    Denied,
    /// Tail-dropped at the switch's bounded upcall queue
    /// ([`pi_datapath::PipelineMode::Bounded`]) — a *capacity* loss of
    /// the slow-path pipeline, distinct from both the node
    /// ingress-queue drop (enqueue refusal) and policy denial.
    UpcallDropped,
}

/// One host: a dataplane backend (the OVS-like switch by default —
/// [`pi_backend::BackendKind`] in the node's `DpConfig` selects the
/// architecture) plus its ingress queue and the per-tick cycle
/// accounting the attack exhausts.
#[derive(Debug)]
pub struct NodeCell<T> {
    backend: Box<dyn DataplaneBackend>,
    queue: VecDeque<NodePacket<T>>,
    /// Negative carry when a packet overran the tick budget.
    cycle_carry: i64,
    /// Cycles spent during the current sample window.
    window_cycles: u64,
    /// Handler cycles spent during the current sample window (the
    /// bounded upcall pipeline's separate CPU — not charged against the
    /// datapath budget, like OVS handler threads vs the PMD core).
    window_handler_cycles: u64,
    /// Frame size + source handle of packets deferred into the switch's
    /// upcall pipeline, keyed by the pending token.
    deferred: BTreeMap<u64, (usize, T)>,
    /// Optional closed-loop defense controller, run by the engine at
    /// its configured defense cadence. Node-local state, like
    /// everything below.
    defense: Option<DefenseController>,
    /// Optional timed control plane: scheduled policy updates applied
    /// at the start of each tick (the epoch grid), with their flush
    /// cost charged against the tick's cycle budget. Node-local state,
    /// so any worker count sees the same updates at the same ticks.
    control: Option<ControlPlane>,
    /// Optional compiled fault program: crash/restart events injected
    /// at tick boundaries. Shard-local like everything else, so fault
    /// injection cannot disturb the bit-identical worker-count
    /// invariant.
    faults: Option<FaultPlan>,
    /// Optional at-least-once control-plane layer (acks + retry +
    /// reconciliation) — the hardened alternative to the fire-and-forget
    /// `control` driver above.
    reliable: Option<ReliableControlPlane>,
    /// While `Some(t)` and `now < t`, the switch process is down:
    /// nothing is processed, the ingress queue fills, and fire-and-forget
    /// control-plane updates are consumed and lost.
    down_until: Option<SimTime>,
    // Fault bookkeeping (reported via `fault_report`, kept out of
    // `SwitchStats` so the switch-counter contract is untouched).
    crashes: u64,
    restart_cycles: u64,
    acls_lost: u64,
    flows_lost: u64,
    upcalls_lost: u64,
    deferred_dropped: u64,
    /// Control-plane cycles spent during the current sample window (a
    /// subset of `window_cycles` — the flush-storm share the engines
    /// sample into the `control_cps` series).
    window_control_cycles: u64,
    /// Trace handle (disabled by default — a guaranteed no-op). Shared
    /// with the backend, defense controller and reliable layer so one
    /// host's components record into one ring.
    tracer: Tracer,
    /// Last control-channel counters traced (diffed per executed tick).
    chan_snapshot: ControlChannelStats,
    /// Last megaflow/mask occupancy traced (churn events are emitted
    /// only on change).
    churn_snapshot: (usize, usize),
}

impl<T> NodeCell<T> {
    /// Builds a node around a freshly configured backend
    /// (`dp.backend` selects the architecture; the OVS pipeline is the
    /// default).
    pub fn new(dp: DpConfig, cost: CostModel) -> Self {
        NodeCell {
            backend: build_backend(dp, cost),
            queue: VecDeque::new(),
            cycle_carry: 0,
            window_cycles: 0,
            window_handler_cycles: 0,
            deferred: BTreeMap::new(),
            defense: None,
            control: None,
            faults: None,
            reliable: None,
            down_until: None,
            crashes: 0,
            restart_cycles: 0,
            acls_lost: 0,
            flows_lost: 0,
            upcalls_lost: 0,
            deferred_dropped: 0,
            window_control_cycles: 0,
            tracer: Tracer::disabled(),
            chan_snapshot: ControlChannelStats::default(),
            churn_snapshot: (0, 0),
        }
    }

    /// Attaches a trace handle and fans it out to every component that
    /// records events (backend, defense controller, reliable layer), so
    /// the whole host shares one ring. Call before or after the
    /// `attach_*` methods — both orders wire everything.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.backend.set_tracer(tracer.clone());
        if let Some(d) = &mut self.defense {
            d.set_tracer(tracer.clone());
        }
        if let Some(r) = &mut self.reliable {
            r.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// The node's trace handle — disabled unless [`NodeCell::set_tracer`]
    /// attached an enabled one. The engines collect these at the end of
    /// a run to assemble the canonical merged [`pi_trace::TraceReport`].
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Attaches a compiled fault program: its crash events fire at tick
    /// boundaries during [`NodeCell::step`].
    pub fn attach_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Attaches the at-least-once control-plane layer. Its deliveries
    /// land during [`NodeCell::step`] and are charged against the tick
    /// budget exactly like the fire-and-forget driver's.
    pub fn attach_reliable_control_plane(&mut self, mut rcp: ReliableControlPlane) {
        rcp.set_tracer(self.tracer.clone());
        self.reliable = Some(rcp);
    }

    /// Whether the switch process is down at `now`.
    pub(crate) fn is_down(&self, now: SimTime) -> bool {
        self.down_until.is_some_and(|t| now < t)
    }

    /// The node's fault/recovery counters, present when a fault program
    /// or a reliable control plane is attached. `tick` converts the
    /// reliable layer's recovery time into ticks.
    pub fn fault_report(&self, tick: SimTime) -> Option<NodeFaultReport> {
        if self.faults.is_none() && self.reliable.is_none() {
            return None;
        }
        let (channel, recovery_ticks) = match &self.reliable {
            Some(r) => (
                r.stats(),
                r.recovery_time().as_nanos() / tick.as_nanos().max(1),
            ),
            None => (ControlChannelStats::default(), 0),
        };
        Some(NodeFaultReport {
            crashes: self.crashes,
            restart_cycles: self.restart_cycles,
            acls_lost: self.acls_lost,
            flows_lost: self.flows_lost,
            upcalls_lost: self.upcalls_lost,
            deferred_dropped: self.deferred_dropped,
            recovery_ticks,
            channel,
        })
    }

    /// Attaches a compiled control-plane driver: its updates land at
    /// tick boundaries during [`NodeCell::step`].
    pub fn attach_control_plane(&mut self, driver: ControlPlane) {
        self.control = Some(driver);
    }

    /// The node's dataplane backend.
    pub fn backend(&self) -> &dyn DataplaneBackend {
        &*self.backend
    }

    /// Mutable access to the backend (pod attachment, ACL installs).
    pub fn backend_mut(&mut self) -> &mut dyn DataplaneBackend {
        &mut *self.backend
    }

    /// Enqueues `pkt` unless the queue is at `capacity`. Returns whether
    /// the packet was accepted (false = tail drop).
    pub fn enqueue(&mut self, pkt: NodePacket<T>, capacity: usize) -> bool {
        if self.queue.len() >= capacity {
            false
        } else {
            self.queue.push_back(pkt);
            true
        }
    }

    /// Drains the ingress queue under this tick's cycle budget, then
    /// runs one handler step of the switch's upcall pipeline (a no-op
    /// under [`pi_datapath::PipelineMode::Inline`]), invoking `sink`
    /// with each completed packet and its routing verdict. Carry from an
    /// overrun packet is charged against the next tick.
    ///
    /// Packets are handed to the switch through
    /// [`VSwitch::process_batch`](pi_datapath::VSwitch::process_batch)
    /// in runs of up to
    /// [`VSwitch::BATCH_SIZE`](pi_datapath::VSwitch::BATCH_SIZE), so
    /// the per-packet hash work is done in one pass per run. Budget semantics are unchanged from the
    /// packet-at-a-time loop — a packet is processed iff the budget is
    /// still positive when its turn comes (the batch aborts mid-run the
    /// moment the budget goes non-positive), so results are bit-identical
    /// to the sequential drain.
    ///
    /// Under a bounded pipeline a megaflow miss defers the packet: its
    /// frame size and source handle park here until a handler step
    /// resolves the upcall (same tick or later), at which point the
    /// packet flows to `sink` with its real routing; a miss that
    /// tail-drops at a full upcall queue reaches `sink` immediately as
    /// [`Routing::UpcallDropped`]. The handler step's cycles are the
    /// pipeline's own budget (separate CPU), tracked in
    /// [`NodeCell::take_window_handler_cycles`].
    pub fn step(
        &mut self,
        now: SimTime,
        cycles_per_tick: u64,
        sink: impl FnMut(NodePacket<T>, Routing),
    ) {
        // The untraced path is the hot path: one branch, then straight
        // into the packet loop — no snapshots, no diffs.
        if !self.tracer.is_enabled() {
            self.step_inner(now, cycles_per_tick, sink);
            return;
        }
        self.traced_step(now, cycles_per_tick, sink);
    }

    /// The traced tick: stamp the time, snapshot the counters, run the
    /// real step, then emit window diffs — packet-batch summary, upcall
    /// pipeline activity, megaflow churn, control-channel deliveries,
    /// and crash events — all attributed to the latched rebuild cause.
    /// Only ever called with tracing enabled; the snapshot/diff cost is
    /// never paid on the hot path.
    fn traced_step(
        &mut self,
        now: SimTime,
        cycles_per_tick: u64,
        sink: impl FnMut(NodePacket<T>, Routing),
    ) {
        self.tracer.set_now(now.as_nanos());
        let before = self.backend.snapshot();
        let (stats0, up0) = (before.switch, before.upcall);
        let crashes0 = self.crashes;
        let losses0 = (self.acls_lost, self.flows_lost, self.upcalls_lost);
        self.step_inner(now, cycles_per_tick, sink);
        let at = now.as_nanos();
        if self.crashes > crashes0 {
            self.tracer.emit_uncaused(
                at,
                TraceEventKind::Crash {
                    acls_lost: (self.acls_lost - losses0.0) as u32,
                    flows_lost: (self.flows_lost - losses0.1) as u32,
                    upcalls_lost: (self.upcalls_lost - losses0.2) as u32,
                },
            );
        }
        let after = self.backend.snapshot();
        let (stats, up) = (after.switch, after.upcall);
        if stats.packets > stats0.packets || stats.cycles > stats0.cycles {
            self.tracer.emit(
                at,
                TraceEventKind::BatchWindow {
                    packets: (stats.packets - stats0.packets) as u32,
                    microflow_hits: (stats.microflow_hits - stats0.microflow_hits) as u32,
                    megaflow_hits: (stats.megaflow_hits - stats0.megaflow_hits) as u32,
                    upcalls: (stats.upcalls - stats0.upcalls) as u32,
                    policy_drops: (stats.policy_drops - stats0.policy_drops) as u32,
                    cycles: stats.cycles - stats0.cycles,
                },
            );
        }
        if up != up0 {
            self.tracer.emit(
                at,
                TraceEventKind::UpcallWindow {
                    enqueued: (up.enqueued - up0.enqueued) as u32,
                    queue_drops: (up.queue_drops - up0.queue_drops) as u32,
                    handled: (up.handled - up0.handled) as u32,
                    installs: (up.installs_flushed - up0.installs_flushed) as u32,
                },
            );
        }
        let churn = (after.megaflows, after.masks);
        if churn != self.churn_snapshot {
            self.churn_snapshot = churn;
            self.tracer.emit(
                at,
                TraceEventKind::MegaflowChurn {
                    megaflows: churn.0 as u32,
                    masks: churn.1 as u32,
                },
            );
        }
        if let Some(r) = &self.reliable {
            let chan = r.stats();
            let prev = self.chan_snapshot;
            if chan != prev {
                self.chan_snapshot = chan;
                self.tracer.emit_uncaused(
                    at,
                    TraceEventKind::ControlChannel {
                        delivered: (chan.delivered - prev.delivered) as u32,
                        dropped: (chan.dropped - prev.dropped) as u32,
                        retries: (chan.retries - prev.retries) as u32,
                        lost_to_downtime: (chan.lost_to_downtime - prev.lost_to_downtime) as u32,
                        applied: (chan.applied - prev.applied) as u32,
                    },
                );
            }
        }
    }

    fn step_inner(
        &mut self,
        now: SimTime,
        cycles_per_tick: u64,
        mut sink: impl FnMut(NodePacket<T>, Routing),
    ) {
        // Fault events fire first: a crash wipes the switch's soft
        // state and starts the blackout window.
        let mut crashed = false;
        if let Some(plan) = self.faults.as_mut() {
            while let Some(c) = plan.next_crash(now) {
                crashed = true;
                self.crashes += 1;
                let back_up = c.at + c.down_for;
                self.down_until = Some(self.down_until.map_or(back_up, |d| d.max(back_up)));
            }
        }
        if crashed {
            let outcome = self.backend.crash_restart();
            self.acls_lost += outcome.acls_lost as u64;
            self.flows_lost += outcome.flows_lost as u64;
            self.upcalls_lost += outcome.upcalls_lost as u64;
            // The respawn lands as cycle debt the first post-restart
            // ticks must repay.
            let respawn = Work {
                restarts: 1,
                ..Work::default()
            };
            let restart = self.backend.cost_model().cycles_of(&respawn);
            self.cycle_carry -= restart as i64;
            self.restart_cycles += restart;
            self.window_cycles += restart;
            // Packets parked awaiting handlers died with the process.
            // Their keys are gone with the upcall queue; the ordered
            // map drains them in token order, deterministically.
            for (_token, (bytes, source)) in std::mem::take(&mut self.deferred) {
                self.deferred_dropped += 1;
                sink(
                    NodePacket {
                        key: FlowKey::default(),
                        bytes,
                        source,
                    },
                    Routing::UpcallDropped,
                );
            }
            if let Some(d) = &mut self.defense {
                d.on_switch_restart(now);
            }
            if let Some(r) = &mut self.reliable {
                r.on_switch_crash(now);
            }
        }
        let down = self.is_down(now);
        if !down {
            self.down_until = None;
        }
        // A blackout window processes nothing at all. Cycle carry
        // (including restart debt) persists through it.
        let fresh = if down { 0 } else { cycles_per_tick as i64 };
        let mut budget = fresh + self.cycle_carry;
        // Control-plane updates land first (start-of-tick grid) and
        // consume the same datapath budget packets run under — an
        // install-triggered flush storm is paid for, not free. While
        // the switch is down, the fire-and-forget driver's updates are
        // consumed and silently lost — the hole the reliable layer
        // below closes.
        //
        // Each update gets a fresh causality id: the flush (and the
        // rebuild storm after it) is attributed to *this* update. A
        // no-op branch when tracing is disabled.
        let switch = &mut *self.backend;
        let tracer = &self.tracer;
        let mut control_cycles = 0u64;
        let mut apply = |update: PolicyUpdate| {
            tracer.begin_update();
            control_cycles += switch.apply_update(update, true).cycles;
            tracer.end_update();
        };
        if let Some(cp) = &mut self.control {
            for scheduled in cp.due(now) {
                if !down {
                    apply(scheduled.update.clone());
                }
            }
        }
        // Reliable control-plane deliveries (acked, deduplicated,
        // retried), charged like any other control work. Reconciliation
        // runs at its cadence against the switch's reported state.
        if let Some(rcp) = &mut self.reliable {
            rcp.poll(now, !down).into_iter().for_each(&mut apply);
            if !down && rcp.reconcile_due(now) {
                let installed = self.backend.installed_acl_ips();
                rcp.reconcile(now, &installed);
            }
        }
        budget -= control_cycles as i64;
        self.window_cycles += control_cycles;
        self.window_control_cycles += control_cycles;
        // The batch scratch is only set up when there is a batch to run:
        // most ticks of an idle host find the queue empty.
        if !down && budget > 0 && !self.queue.is_empty() {
            let mut keys = [FlowKey::default(); BATCH_SIZE];
            while budget > 0 && !self.queue.is_empty() {
                let n = self.queue.len().min(BATCH_SIZE);
                for (slot, pkt) in keys.iter_mut().zip(self.queue.iter()) {
                    *slot = pkt.key;
                }
                // Split borrows: the backend runs the batch while the sink
                // closure pops the matching packets off the queue.
                let switch = &mut *self.backend;
                let queue = &mut self.queue;
                let window_cycles = &mut self.window_cycles;
                let deferred = &mut self.deferred;
                switch.process_batch(&keys[..n], now, &mut |_, outcome| {
                    // The batch mirrors the queue head; an empty queue
                    // ends both this batch and the loop around it.
                    let Some(pkt) = queue.pop_front() else {
                        return false;
                    };
                    budget -= outcome.cycles as i64;
                    *window_cycles += outcome.cycles;
                    match outcome.path {
                        PathTaken::UpcallQueued { token } => {
                            deferred.insert(token, (pkt.bytes, pkt.source));
                        }
                        PathTaken::UpcallDropped => sink(pkt, Routing::UpcallDropped),
                        _ => {
                            let routing = match outcome.output.map(Port::from_raw) {
                                Some(Port::Uplink) => Routing::Uplink,
                                Some(Port::Local(vport)) => Routing::Local(vport),
                                None => Routing::Denied,
                            };
                            sink(pkt, routing);
                        }
                    }
                    budget > 0
                });
            }
        }
        self.cycle_carry = budget.min(0);
        if down {
            return;
        }

        // One handler step per tick: resolved upcalls complete their
        // packets' journey through the same sink.
        let switch = &mut *self.backend;
        let deferred = &mut self.deferred;
        let window_handler_cycles = &mut self.window_handler_cycles;
        switch.drain_upcalls(now, &mut |r| {
            *window_handler_cycles += r.outcome.cycles;
            if let Some((bytes, source)) = deferred.remove(&r.token) {
                // A queued miss refused by a quarantine imposed after
                // enqueue surfaces as an upcall drop, exactly like the
                // pre-queue refusal — not as a policy denial.
                let routing = if r.outcome.path.is_upcall_dropped() {
                    Routing::UpcallDropped
                } else {
                    match r.outcome.output.map(Port::from_raw) {
                        Some(Port::Uplink) => Routing::Uplink,
                        Some(Port::Local(vport)) => Routing::Local(vport),
                        None => Routing::Denied,
                    }
                };
                sink(
                    NodePacket {
                        key: r.key,
                        bytes,
                        source,
                    },
                    routing,
                );
            }
        });
    }

    /// True when the node carries no work of its own into the next
    /// tick: empty ingress queue, nothing parked in the upcall
    /// pipeline, and no cycle debt (a crash's restart debt keeps the
    /// node busy through its blackout). A quiet node still wakes for
    /// scheduled and background events — see
    /// [`NodeCell::next_scheduled_event`] and
    /// [`NodeCell::next_background_event`].
    pub fn quiet(&self) -> bool {
        self.queue.is_empty() && self.deferred.is_empty() && self.cycle_carry == 0
    }

    /// The earliest instant at which an attached driver acts on this
    /// node: a timed control-plane update lands (consumed — and lost —
    /// even mid-blackout), the reliable layer has a delivery, retry,
    /// ack or reconciliation due, or the fault program crashes the
    /// switch. `None` when nothing is pending. A [`NodeCell::step`]
    /// strictly before the returned time observes none of these
    /// drivers.
    pub fn next_scheduled_event(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut fold = |t: SimTime| next = Some(next.map_or(t, |n| n.min(t)));
        if let Some(t) = self.control.as_ref().and_then(|c| c.next_due()) {
            fold(t);
        }
        if let Some(t) = self.reliable.as_ref().and_then(|r| r.next_activity()) {
            fold(t);
        }
        if let Some(t) = self.faults.as_ref().and_then(FaultPlan::next_event) {
            fold(t);
        }
        next
    }

    /// The backend's next self-driven work instant (handler steps,
    /// maintenance sweeps) — see
    /// [`DataplaneBackend::next_background_event`].
    pub fn next_background_event(&self, now: SimTime) -> Option<SimTime> {
        self.backend.next_background_event(now)
    }

    /// Runs the revalidator at the end of a tick (skipped while the
    /// switch process is down — the revalidator died with it).
    pub fn revalidate(&mut self, next: SimTime) {
        if self.is_down(next) {
            return;
        }
        self.backend.revalidate(next);
    }

    /// Returns and resets the cycles consumed this sample window.
    pub fn take_window_cycles(&mut self) -> u64 {
        std::mem::take(&mut self.window_cycles)
    }

    /// Returns and resets the handler cycles consumed this sample
    /// window (zero under the inline pipeline).
    pub fn take_window_handler_cycles(&mut self) -> u64 {
        std::mem::take(&mut self.window_handler_cycles)
    }

    /// Returns and resets the control-plane cycles consumed this sample
    /// window — the flush-storm share of [`NodeCell::take_window_cycles`]
    /// (call before it; the control share is a subset, tracked
    /// separately so the engines can sample a `control_cps` series).
    pub fn take_window_control_cycles(&mut self) -> u64 {
        std::mem::take(&mut self.window_control_cycles)
    }

    /// Attaches a closed-loop defense controller to this node.
    pub fn attach_defense(&mut self, mut controller: DefenseController) {
        controller.set_tracer(self.tracer.clone());
        self.defense = Some(controller);
    }

    /// Whether a defense controller is attached.
    pub fn has_defense(&self) -> bool {
        self.defense.is_some()
    }

    /// Detaches the controller and yields its report (end of run).
    pub fn take_defense_report(&mut self) -> Option<DefenseReport> {
        self.defense.take().map(|c| c.into_report())
    }

    /// Runs one defense control-loop iteration against this node's
    /// switch (no-op without an attached controller). Returns the
    /// actions performed.
    pub fn run_defense(&mut self, now: SimTime) -> Vec<DefenseAction> {
        if self.is_down(now) {
            // No switch to observe or actuate while the process is
            // down; the controller is reset at restart instead.
            return Vec::new();
        }
        match &mut self.defense {
            Some(c) => c.step(&mut *self.backend, now),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::FlowKey;

    fn node() -> NodeCell<usize> {
        let mut n = NodeCell::new(DpConfig::default(), CostModel::default());
        n.backend_mut()
            .attach_pod(u32::from_be_bytes([10, 0, 0, 2]), 1);
        n.backend_mut()
            .attach_pod(u32::from_be_bytes([10, 1, 0, 2]), Port::Uplink.raw());
        n
    }

    fn pkt(dst: [u8; 4]) -> NodePacket<usize> {
        NodePacket {
            key: FlowKey::tcp([10, 0, 0, 1], dst, 1000, 80),
            bytes: 100,
            source: 7,
        }
    }

    #[test]
    fn step_routes_local_uplink_and_denied() {
        let mut n = node();
        assert!(n.enqueue(pkt([10, 0, 0, 2]), 10));
        assert!(n.enqueue(pkt([10, 1, 0, 2]), 10));
        assert!(n.enqueue(pkt([10, 9, 9, 9]), 10));
        let mut got = Vec::new();
        n.step(SimTime::from_millis(1), 1_000_000, |p, r| {
            got.push((p.source, r))
        });
        assert_eq!(
            got,
            vec![
                (7, Routing::Local(1)),
                (7, Routing::Uplink),
                (7, Routing::Denied)
            ]
        );
        assert_eq!(n.queue.len(), 0);
        assert!(n.take_window_cycles() > 0);
        assert_eq!(n.take_window_cycles(), 0, "window resets on take");
    }

    #[test]
    fn enqueue_respects_capacity() {
        let mut n = node();
        assert!(n.enqueue(pkt([10, 0, 0, 2]), 1));
        assert!(!n.enqueue(pkt([10, 0, 0, 2]), 1), "tail drop at capacity");
        assert_eq!(n.queue.len(), 1);
    }

    #[test]
    fn enqueue_capacity_drops_are_distinct_from_upcall_queue_drops() {
        use pi_datapath::{PipelineMode, UpcallPipelineConfig};
        // Ingress queue capacity 4; upcall queue capacity 2. Six fresh
        // flows offered: 2 tail-drop at the node ingress (enqueue
        // returns false — the switch never sees them), 2 enter the
        // upcall pipeline, 2 tail-drop at the *upcall* queue. The two
        // drop mechanisms must stay independently observable.
        let mut n: NodeCell<usize> = NodeCell::new(
            DpConfig {
                pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
                    queue_capacity: 2,
                    handler_cycles_per_step: 0, // handlers fully starved
                    port_quota_per_step: None,
                }),
                ..DpConfig::default()
            },
            CostModel::default(),
        );
        n.backend_mut()
            .attach_pod(u32::from_be_bytes([10, 0, 0, 2]), 1);
        let mut ingress_drops = 0;
        for i in 0..6u16 {
            let pkt = NodePacket {
                key: FlowKey::tcp(
                    [10, 0, (i >> 8) as u8, i as u8 + 1],
                    [10, 0, 0, 2],
                    7000 + i,
                    80,
                ),
                bytes: 100,
                source: i as usize,
            };
            if !n.enqueue(pkt, 4) {
                ingress_drops += 1;
            }
        }
        assert_eq!(ingress_drops, 2, "node ingress tail drop");
        assert_eq!(n.queue.len(), 4);
        let mut upcall_drops = 0;
        n.step(SimTime::from_millis(1), 10_000_000, |_, r| {
            assert_eq!(r, Routing::UpcallDropped);
            upcall_drops += 1;
        });
        assert_eq!(upcall_drops, 2, "upcall queue tail drop");
        assert_eq!(n.backend().snapshot().upcall.queue_drops, 2);
        assert_eq!(n.deferred.len(), 2, "two parked awaiting handlers");
        // The switch-level counter only saw the 4 packets the ingress
        // queue admitted — the two drop accounts never mix.
        assert_eq!(n.backend().snapshot().switch.packets, 4);
    }

    #[test]
    fn deferred_packets_resolve_via_the_handler_step() {
        use pi_datapath::{PipelineMode, UpcallPipelineConfig};
        let mut n: NodeCell<usize> = NodeCell::new(
            DpConfig {
                pipeline: PipelineMode::Bounded(UpcallPipelineConfig::unbounded()),
                ..DpConfig::default()
            },
            CostModel::default(),
        );
        n.backend_mut()
            .attach_pod(u32::from_be_bytes([10, 0, 0, 2]), 1);
        n.enqueue(
            NodePacket {
                key: FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1000, 80),
                bytes: 1500,
                source: 42,
            },
            10,
        );
        let mut got = Vec::new();
        n.step(SimTime::from_millis(1), 1_000_000, |p, r| {
            got.push((p.source, p.bytes, r))
        });
        // Same tick: the handler step resolved the miss and delivered.
        assert_eq!(got, vec![(42, 1500, Routing::Local(1))]);
        assert_eq!(n.deferred.len(), 0);
        assert!(n.take_window_handler_cycles() > 0);
        assert_eq!(n.take_window_handler_cycles(), 0, "window resets");
    }

    #[test]
    fn control_plane_updates_land_on_the_tick_grid_and_cost_budget() {
        use pi_classifier::table::whitelist_with_default_deny;
        use pi_cms::ControlPlaneProgram;

        let mut n = node();
        let pod = u32::from_be_bytes([10, 0, 0, 2]);
        let mut program = ControlPlaneProgram::new();
        // Deny-everything ACL lands at 2 ms.
        program.install_acl(
            SimTime::from_millis(2),
            pod,
            whitelist_with_default_deny(&[]),
        );
        n.attach_control_plane(program.compile());
        assert!(n.control.is_some());
        assert_eq!(n.control.as_ref().map_or(0, |c| c.pending()), 1);

        // Tick 1: update not due; traffic flows.
        n.enqueue(pkt([10, 0, 0, 2]), 10);
        let mut got = Vec::new();
        n.step(SimTime::from_millis(1), 1_000_000, |p, r| {
            got.push((p.source, r))
        });
        assert_eq!(got, vec![(7, Routing::Local(1))]);
        assert_eq!(n.control.as_ref().map_or(0, |c| c.pending()), 1);
        let cycles_before = n.backend().snapshot().switch.control_cycles;
        assert_eq!(cycles_before, 0);

        // Tick 2: the ACL lands at tick start — the same tick's
        // packets are already classified under the new policy, and the
        // update's cycles come out of the tick budget.
        n.enqueue(pkt([10, 0, 0, 2]), 10);
        let mut got = Vec::new();
        n.step(SimTime::from_millis(2), 1_000_000, |p, r| {
            got.push((p.source, r))
        });
        assert_eq!(got, vec![(7, Routing::Denied)], "new ACL in force");
        assert_eq!(n.control.as_ref().map_or(0, |c| c.pending()), 0);
        let control = n.backend().snapshot().switch.control_cycles;
        assert!(control > 0, "the update was charged");
        // The window cycles include the control share.
        assert!(n.take_window_cycles() >= control);

        // A microscopic budget still applies the update (control-plane
        // work is not optional) but the overrun suppresses packets.
        let mut n2 = node();
        let mut program = ControlPlaneProgram::new();
        program.install_acl(
            SimTime::from_millis(1),
            pod,
            whitelist_with_default_deny(&[]),
        );
        n2.attach_control_plane(program.compile());
        n2.enqueue(pkt([10, 0, 0, 2]), 10);
        let mut count = 0;
        n2.step(SimTime::from_millis(1), 1, |_, _| count += 1);
        assert_eq!(count, 0, "budget consumed by the update");
        assert_eq!(n2.queue.len(), 1, "packet waits for the debt to clear");
    }

    #[test]
    fn crash_wipes_acls_charges_restart_debt_and_reports() {
        use pi_classifier::table::whitelist_with_default_deny;
        use pi_fault::FaultSchedule;
        let ms = SimTime::from_millis;
        let pod = u32::from_be_bytes([10, 0, 0, 2]);
        let mut n = node();
        n.backend_mut()
            .install_acl(pod, whitelist_with_default_deny(&[]));
        n.attach_faults(FaultSchedule::new().crash(ms(5), SimTime::ZERO).compile());
        // Before the crash the deny-everything ACL holds.
        n.enqueue(pkt([10, 0, 0, 2]), 10);
        let mut got = Vec::new();
        n.step(ms(1), 10_000_000, |_, r| got.push(r));
        assert_eq!(got, vec![Routing::Denied]);
        // The crash tick (down_for zero: instant restart): the ACL is
        // gone, so the same packet now delivers.
        n.enqueue(pkt([10, 0, 0, 2]), 10);
        let mut got = Vec::new();
        n.step(ms(5), 10_000_000, |_, r| got.push(r));
        assert_eq!(got, vec![Routing::Local(1)], "deny rule vanished");
        let rep = n.fault_report(ms(1)).expect("fault program attached");
        assert_eq!(rep.crashes, 1);
        assert_eq!(rep.acls_lost, 1);
        assert!(rep.restart_cycles > 0, "respawn price charged");
        assert_eq!(rep.fault_events(), 1);
    }

    #[test]
    fn blackout_queues_packets_and_resumes_after_restart() {
        use pi_fault::FaultSchedule;
        let ms = SimTime::from_millis;
        let mut n = node();
        n.attach_faults(FaultSchedule::new().crash(ms(2), ms(3)).compile());
        for t in 2..5u64 {
            assert!(n.is_down(ms(t)) || t == 2);
            n.enqueue(pkt([10, 0, 0, 2]), 10);
            let mut got = 0;
            n.step(ms(t), 10_000_000, |_, _| got += 1);
            assert_eq!(got, 0, "nothing processed while down (t = {t})");
        }
        assert_eq!(n.queue.len(), 3, "ingress queue kept filling");
        let mut got = 0;
        n.step(ms(5), 10_000_000, |_, _| got += 1);
        assert_eq!(got, 3, "backlog drains once the switch is back");
        assert!(!n.is_down(ms(5)));
    }

    #[test]
    fn fire_and_forget_update_dies_in_the_blackout_reliable_survives() {
        use pi_classifier::table::whitelist_with_default_deny;
        use pi_cms::ControlPlaneProgram;
        use pi_fault::{FaultSchedule, ReliabilityConfig, ReliableControlPlane};
        let ms = SimTime::from_millis;
        let pod = u32::from_be_bytes([10, 0, 0, 2]);
        let program = || {
            let mut p = ControlPlaneProgram::new();
            p.install_acl(ms(3), pod, whitelist_with_default_deny(&[]));
            p
        };
        let drive = |n: &mut NodeCell<usize>| {
            for t in 1..=2_000u64 {
                n.step(ms(t), 10_000_000, |_, _| {});
                n.revalidate(ms(t + 1));
            }
        };
        // Fire and forget: the install falls due inside the blackout
        // and is consumed unseen — the deny rule never exists.
        let mut n = node();
        n.attach_control_plane(program().compile());
        n.attach_faults(FaultSchedule::new().crash(ms(2), ms(5)).compile());
        drive(&mut n);
        assert!(
            n.backend().installed_acl_ips().is_empty(),
            "update silently lost"
        );
        // At-least-once: the delivery is discarded while down, but the
        // unacked update retries until the restarted switch applies it.
        let mut n = node();
        n.attach_reliable_control_plane(ReliableControlPlane::new(
            program(),
            ReliabilityConfig::default(),
            None,
        ));
        n.attach_faults(FaultSchedule::new().crash(ms(2), ms(5)).compile());
        drive(&mut n);
        assert_eq!(n.backend().installed_acl_ips(), vec![pod]);
        let rep = n.fault_report(ms(1)).expect("reliable layer attached");
        assert!(rep.channel.applied >= 1);
        assert!(rep.channel.lost_to_downtime >= 1);
    }

    #[test]
    fn budget_overrun_carries_into_next_tick() {
        let mut n = node();
        for _ in 0..4 {
            n.enqueue(pkt([10, 0, 0, 2]), 100);
        }
        // A budget of 1 cycle still processes the first packet (the
        // check is budget > 0), then goes negative and stops.
        let mut count = 0;
        n.step(SimTime::from_millis(1), 1, |_, _| count += 1);
        assert_eq!(count, 1);
        assert_eq!(n.queue.len(), 3);
        // The negative carry suppresses the next tiny tick entirely
        // once it exceeds the fresh budget.
        let mut count2 = 0;
        n.step(SimTime::from_millis(2), 1, |_, _| count2 += 1);
        assert_eq!(count2, 0, "carry debt must be repaid first");
    }
}
