//! One host shard: a [`NodeCell`] plus the shard-local halves of the
//! cluster protocol — routing, source accounting, outbox/receipt
//! production and sampling.
//!
//! A shard never writes another shard's memory, and what it shares —
//! the fleet's routing table and source directory — is built once and
//! never changed. Everything it learns about the rest of the fleet
//! arrives as the tick's inbound [`Parcel`]s; everything it tells the
//! fleet leaves in its [`ShardOutput`]. That discipline is what makes
//! worker-count-independent determinism provable: the merge of the
//! inbound parcels in sending-shard order, at the top of
//! [`HostShard::tick`], is the only place cross-host ordering is
//! decided.
//!
//! The exchange is sparse: a tick emits one parcel per destination it
//! actually addressed, so its host cost follows the traffic, not the
//! fleet size. Parcel buffers circulate — a consumed inbound parcel's
//! `Vec`s become the next outputs' — so a steady-state tick allocates
//! nothing.

use std::sync::Arc;

use pi_core::{IpIndex, SimTime};
use pi_metrics::TimeSeries;
use pi_traffic::{GenPacket, TrafficSource};

use crate::config::SimConfig;
use crate::node::{NodeCell, NodePacket, Routing};

/// Fixed per-tick parameters shared by every shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickCtx {
    pub shards: usize,
    pub cycles_per_tick: u64,
    pub link_bytes_per_tick: f64,
    pub queue_capacity: usize,
    pub sample_every_ticks: u64,
    pub window_secs: f64,
    pub cpu_cycles_per_sec: u64,
    pub defense_every_ticks: u64,
}

impl TickCtx {
    /// The parameters of a run of `sim` over `shards` hosts.
    pub fn new(sim: &SimConfig, shards: usize) -> Self {
        TickCtx {
            shards,
            cycles_per_tick: sim.cycles_per_tick(),
            link_bytes_per_tick: sim.link_bytes_per_tick(),
            queue_capacity: sim.queue_capacity,
            sample_every_ticks: (sim.sample_interval.as_nanos() / sim.tick.as_nanos()).max(1),
            window_secs: sim.sample_interval.as_secs_f64(),
            cpu_cycles_per_sec: sim.cpu_cycles_per_sec,
            defense_every_ticks: sim.defense_every_ticks(),
        }
    }
}

/// What happened to one packet, reported back to its source's shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    Delivered {
        bytes: u64,
    },
    DroppedCapacity,
    DroppedPolicy,
    /// Tail-dropped at a switch's bounded upcall queue.
    DroppedUpcall,
}

/// A delivery/drop report travelling back to the source's home shard.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Receipt {
    /// Global source index.
    pub source: usize,
    pub outcome: Outcome,
}

/// Everything one shard sends another during one tick — the unit of
/// the cross-shard exchange, never empty. In a [`ShardOutput`] `peer`
/// is the destination shard; filed for delivery it is the sender.
#[derive(Debug)]
pub(crate) struct Parcel {
    pub peer: usize,
    /// Cross-host packets, in forwarding order.
    pub packets: Vec<NodePacket<usize>>,
    /// Outcome reports for sources homed on the destination.
    pub receipts: Vec<Receipt>,
}

/// Spare buffers kept per kind; beyond this a recycled `Vec` is freed.
const SPARE_CAP: usize = 64;

/// What a shard emits during a tick: one [`Parcel`] per destination
/// addressed, in first-addressed order. One instance serves every
/// shard a worker steps — it is drained after each tick — and doubles
/// as the bounded pool the parcel buffers circulate through.
#[derive(Debug)]
pub(crate) struct ShardOutput {
    parcels: Vec<Parcel>,
    /// Destination shard → 1 + its index in `parcels`, 0 when not
    /// addressed this tick. Reset by [`ShardOutput::drain_from`].
    slot: Vec<u32>,
    spare_packets: Vec<Vec<NodePacket<usize>>>,
    spare_receipts: Vec<Vec<Receipt>>,
}

impl ShardOutput {
    pub fn new(shards: usize) -> Self {
        ShardOutput {
            parcels: Vec::new(),
            slot: vec![0; shards],
            spare_packets: Vec::new(),
            spare_receipts: Vec::new(),
        }
    }

    #[inline]
    fn parcel(&mut self, dst: usize) -> &mut Parcel {
        let mut at = self.slot[dst] as usize;
        if at == 0 {
            self.parcels.push(Parcel {
                peer: dst,
                packets: self.spare_packets.pop().unwrap_or_default(),
                receipts: self.spare_receipts.pop().unwrap_or_default(),
            });
            at = self.parcels.len();
            self.slot[dst] = at as u32;
        }
        &mut self.parcels[at - 1]
    }

    #[inline]
    pub(crate) fn push_packet(&mut self, dst: usize, pkt: NodePacket<usize>) {
        self.parcel(dst).packets.push(pkt);
    }

    #[inline]
    pub(crate) fn push_receipt(&mut self, dst: usize, receipt: Receipt) {
        self.parcel(dst).receipts.push(receipt);
    }

    /// Empties the output of the tick `from` just ran, yielding
    /// `(destination, parcel)` with the parcel re-addressed to name its
    /// sender — the form deliveries are filed in.
    pub fn drain_from(&mut self, from: usize) -> impl Iterator<Item = (usize, Parcel)> + '_ {
        for p in &self.parcels {
            self.slot[p.peer] = 0;
        }
        self.parcels.drain(..).map(move |mut p| {
            let dst = std::mem::replace(&mut p.peer, from);
            (dst, p)
        })
    }

    /// Takes a consumed parcel's buffers back for reuse.
    fn recycle(&mut self, mut parcel: Parcel) {
        if self.spare_packets.len() < SPARE_CAP {
            parcel.packets.clear();
            self.spare_packets.push(parcel.packets);
        }
        if self.spare_receipts.len() < SPARE_CAP {
            parcel.receipts.clear();
            self.spare_receipts.push(parcel.receipts);
        }
    }
}

/// One local traffic source and its accounting.
pub(crate) struct FleetSlot {
    pub global: usize,
    pub source: Box<dyn TrafficSource + Send>,
    pub label: String,
    tick_delivered: u64,
    tick_dropped: u64,
    window_delivered_bytes: u64,
    window_generated_bytes: u64,
    pub total_generated: u64,
    pub total_delivered: u64,
    pub total_dropped_capacity: u64,
    pub total_dropped_policy: u64,
    pub total_dropped_upcall: u64,
    pub throughput: TimeSeries,
    pub offered: TimeSeries,
}

impl FleetSlot {
    pub fn new(global: usize, source: Box<dyn TrafficSource + Send>) -> Self {
        let label = format!("{}#{global}", source.label());
        FleetSlot {
            global,
            source,
            throughput: TimeSeries::new(&format!("{label}_bps")),
            offered: TimeSeries::new(&format!("{label}_offered_bps")),
            label,
            tick_delivered: 0,
            tick_dropped: 0,
            window_delivered_bytes: 0,
            window_generated_bytes: 0,
            total_generated: 0,
            total_delivered: 0,
            total_dropped_capacity: 0,
            total_dropped_policy: 0,
            total_dropped_upcall: 0,
        }
    }

    fn apply(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Delivered { bytes } => {
                self.tick_delivered += 1;
                self.total_delivered += 1;
                self.window_delivered_bytes += bytes;
            }
            Outcome::DroppedCapacity => {
                self.tick_dropped += 1;
                self.total_dropped_capacity += 1;
            }
            Outcome::DroppedPolicy => {
                self.total_dropped_policy += 1;
            }
            Outcome::DroppedUpcall => {
                self.tick_dropped += 1;
                self.total_dropped_upcall += 1;
            }
        }
    }
}

/// Where a traffic source lives: its home shard and its index among
/// that shard's slots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SourceHome {
    pub shard: usize,
    pub slot: usize,
}

/// Applies `outcome` for `source` — directly when the source lives on
/// shard `id`, as an outgoing receipt otherwise. Free-standing so the
/// switch-step sink can call it while the node is mutably borrowed.
#[inline]
fn settle(
    id: usize,
    sources: &[SourceHome],
    slots: &mut [FleetSlot],
    out: &mut ShardOutput,
    source: usize,
    outcome: Outcome,
) {
    let home = sources[source];
    if home.shard == id {
        slots[home.slot].apply(outcome);
    } else {
        out.push_receipt(home.shard, Receipt { source, outcome });
    }
}

/// One host of the fleet: switch, queue, local sources, routing view.
pub(crate) struct HostShard {
    pub id: usize,
    pub node: NodeCell<usize>,
    /// Destination IP → home shard (immutable, fleet-wide, shared by
    /// every shard).
    routes: Arc<IpIndex>,
    /// Global source index → where it lives (immutable, fleet-wide,
    /// shared by every shard).
    sources: Arc<[SourceHome]>,
    pub slots: Vec<FleetSlot>,
    pub masks: TimeSeries,
    pub megaflows: TimeSeries,
    pub cpu: TimeSeries,
    pub handler_cps: TimeSeries,
    /// Control-plane CPU, cycles/second — the flush-storm share of the
    /// datapath budget, sampled per window.
    pub control_cps: TimeSeries,
    /// Cumulative control-plane policy updates applied to this host's
    /// switch, sampled per window — the policy-churn timeline.
    pub policy_updates: TimeSeries,
    /// Ticks this shard actually executed (the event-driven engine
    /// skips provably-idle ones; the stepped engine executes all).
    pub ticks_stepped: u64,
    /// Event-bearing causes observed across executed ticks: inbound
    /// epochs, sample boundaries and defense intervals. Depends only on
    /// shard-local state and the global traffic program, so it is
    /// worker-count invariant.
    pub events_processed: u64,
    genbuf: Vec<GenPacket>,
}

impl HostShard {
    pub fn new(
        id: usize,
        node: NodeCell<usize>,
        routes: Arc<IpIndex>,
        sources: Arc<[SourceHome]>,
        slots: Vec<FleetSlot>,
    ) -> Self {
        HostShard {
            masks: TimeSeries::new(&format!("host{id}_masks")),
            megaflows: TimeSeries::new(&format!("host{id}_megaflows")),
            cpu: TimeSeries::new(&format!("host{id}_cpu")),
            handler_cps: TimeSeries::new(&format!("host{id}_handler_cps")),
            control_cps: TimeSeries::new(&format!("host{id}_control_cps")),
            policy_updates: TimeSeries::new(&format!("host{id}_policy_updates")),
            id,
            node,
            routes,
            sources,
            slots,
            ticks_stepped: 0,
            events_processed: 0,
            genbuf: Vec::new(),
        }
    }

    /// Runs one epoch: receipts → remote arrivals → generation →
    /// switch processing → feedback → sampling. `inbound` holds what
    /// other shards sent during the previous tick, in any order; it is
    /// left empty with its capacity intact (its parcel buffers go to
    /// `out`'s pool). What the tick emits is left in `out` for the
    /// engine to drain.
    // audit: hotpath
    pub fn tick(
        &mut self,
        tick: u64,
        now: SimTime,
        next: SimTime,
        ctx: &TickCtx,
        inbound: &mut Vec<Parcel>,
        out: &mut ShardOutput,
    ) {
        self.ticks_stepped += 1;
        if !inbound.is_empty() {
            self.events_processed += 1;
        }
        if (tick + 1).is_multiple_of(ctx.sample_every_ticks) {
            self.events_processed += 1;
        }
        if self.node.has_defense() && (tick + 1).is_multiple_of(ctx.defense_every_ticks) {
            self.events_processed += 1;
        }

        // 1. Receipts for our sources from last tick's remote outcomes,
        //    merged in sending-shard order (senders are distinct, so
        //    the order is total).
        inbound.sort_unstable_by_key(|p| p.peer);
        for r in inbound.iter().flat_map(|p| &p.receipts) {
            self.slots[self.sources[r.source].slot].apply(r.outcome);
        }

        // 2. Cross-host arrivals join the ingress queue ahead of fresh
        //    generation (they were produced a tick earlier).
        for mut parcel in inbound.drain(..) {
            for pkt in parcel.packets.drain(..) {
                let source = pkt.source;
                if !self.node.enqueue(pkt, ctx.queue_capacity) {
                    settle(
                        self.id,
                        &self.sources,
                        &mut self.slots,
                        out,
                        source,
                        Outcome::DroppedCapacity,
                    );
                }
            }
            out.recycle(parcel);
        }

        // 3. Local generation.
        for li in 0..self.slots.len() {
            let slot = &mut self.slots[li];
            self.genbuf.clear();
            slot.source.generate(now, next, &mut self.genbuf);
            slot.total_generated += self.genbuf.len() as u64;
            for p in &self.genbuf {
                slot.window_generated_bytes += p.bytes as u64;
                let accepted = self.node.enqueue(
                    NodePacket {
                        key: p.key,
                        bytes: p.bytes,
                        source: slot.global,
                    },
                    ctx.queue_capacity,
                );
                if !accepted {
                    slot.tick_dropped += 1;
                    slot.total_dropped_capacity += 1;
                }
            }
        }

        // 4. Switch processing under the cycle budget; route outcomes.
        let mut link_budget = ctx.link_bytes_per_tick;
        let HostShard {
            id,
            node,
            routes,
            sources,
            slots,
            ..
        } = self;
        let routes: &IpIndex = routes;
        node.step(now, ctx.cycles_per_tick, |pkt, routing| {
            let outcome = match routing {
                Routing::Uplink => match routes.get(pkt.key.ip_dst) {
                    Some(dst) if link_budget >= pkt.bytes as f64 => {
                        link_budget -= pkt.bytes as f64;
                        out.push_packet(dst as usize, pkt);
                        return;
                    }
                    Some(_) => Outcome::DroppedCapacity,
                    // Uplink with no hosting shard — policy drop.
                    None => Outcome::DroppedPolicy,
                },
                Routing::Local(_vport) => Outcome::Delivered {
                    bytes: pkt.bytes as u64,
                },
                Routing::Denied => Outcome::DroppedPolicy,
                Routing::UpcallDropped => Outcome::DroppedUpcall,
            };
            settle(*id, sources, slots, out, pkt.source, outcome);
        });
        self.node.revalidate(next);
        // 4.5 Shard-local defense control loop (no-op when no
        //     controller is attached). Strictly local state: worker
        //     count cannot influence what a controller observes.
        if (tick + 1).is_multiple_of(ctx.defense_every_ticks) {
            self.node.run_defense(next);
        }

        // 5. Feedback to local sources.
        for slot in self.slots.iter_mut() {
            slot.source.feedback(slot.tick_delivered, slot.tick_dropped);
            slot.tick_delivered = 0;
            slot.tick_dropped = 0;
        }

        // 6. Sampling at window boundaries.
        if (tick + 1).is_multiple_of(ctx.sample_every_ticks) {
            let t = next;
            for slot in self.slots.iter_mut() {
                slot.throughput.push(
                    t,
                    slot.window_delivered_bytes as f64 * 8.0 / ctx.window_secs,
                );
                slot.offered.push(
                    t,
                    slot.window_generated_bytes as f64 * 8.0 / ctx.window_secs,
                );
                slot.window_delivered_bytes = 0;
                slot.window_generated_bytes = 0;
            }
            let snapshot = self.node.backend().snapshot();
            self.masks.push(t, snapshot.masks as f64);
            self.megaflows.push(t, snapshot.megaflows as f64);
            let budget_window = ctx.cpu_cycles_per_sec as f64 * ctx.window_secs;
            self.control_cps.push(
                t,
                self.node.take_window_control_cycles() as f64 / ctx.window_secs,
            );
            self.cpu
                .push(t, self.node.take_window_cycles() as f64 / budget_window);
            self.handler_cps.push(
                t,
                self.node.take_window_handler_cycles() as f64 / ctx.window_secs,
            );
            self.policy_updates
                .push(t, snapshot.switch.policy_updates as f64);
        }
    }

    /// The earliest tick ≥ `from_tick` at which this shard must run
    /// again, assuming nothing arrives from other shards in between
    /// (arrivals are folded in by the engine). `u64::MAX`
    /// means "never on its own". Each event source maps to the tick
    /// grid the way the tick loop consumes it:
    ///
    /// * carried work (queued packets, parked upcalls, cycle debt) and
    ///   stall windows pin the shard busy at `from_tick`;
    /// * scheduled events (control-plane applies, reliable-layer
    ///   timers, fault starts) are polled against tick-*start* `now`,
    ///   so an event at `T` fires on tick `⌈T/tick_ns⌉`;
    /// * backend background deadlines (revalidator/aging sweeps) are
    ///   polled against tick-*end* `next`, so they fire one tick
    ///   earlier: `⌈T/tick_ns⌉ − 1`;
    /// * a source emits (or first mutates) at `T` during the tick
    ///   whose window covers it: `⌊T/tick_ns⌋`;
    /// * defense controllers run on their configured tick grid.
    ///
    /// Sample boundaries are global and handled by the engine, not
    /// here.
    pub(crate) fn next_wake(&self, from_tick: u64, ctx: &TickCtx, tick_ns: u64) -> u64 {
        if !self.node.quiet() {
            return from_tick;
        }
        let from = SimTime::from_nanos(from_tick.saturating_mul(tick_ns));
        let mut wake = u64::MAX;
        if let Some(t) = self.node.next_scheduled_event(from) {
            wake = wake.min(t.as_nanos().div_ceil(tick_ns));
        }
        if let Some(t) = self.node.next_background_event(from) {
            wake = wake.min(t.as_nanos().div_ceil(tick_ns).saturating_sub(1));
        }
        for slot in &self.slots {
            if wake <= from_tick {
                break;
            }
            let t = slot.source.next_activity(from);
            wake = wake.min(t.as_nanos() / tick_ns);
        }
        if self.node.has_defense() {
            let r = from_tick % ctx.defense_every_ticks;
            wake = wake.min(from_tick + (ctx.defense_every_ticks - 1 - r));
        }
        wake.max(from_tick)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::{FlowKey, Port};
    use pi_datapath::{CostModel, DpConfig};
    use pi_traffic::CbrSource;

    const FLEET: usize = 8;
    const TICK_NS: u64 = 1_000_000;

    fn ctx() -> TickCtx {
        TickCtx {
            shards: FLEET,
            cycles_per_tick: 10_000_000,
            link_bytes_per_tick: 1e9,
            queue_capacity: 1 << 16,
            sample_every_ticks: 100,
            window_secs: 0.1,
            cpu_cycles_per_sec: 10_000_000_000,
            defense_every_ticks: 100,
        }
    }

    fn pod(host: u8) -> [u8; 4] {
        [10, host, 0, 2]
    }

    /// Shard 0 of an eight-host fleet. Its three local sources (global
    /// ids 1–3) send to pods on shards 3, 1 and 3; global source 0
    /// lives on shard 5 and reaches this shard only through `inbound`.
    fn shard_zero() -> HostShard {
        let mut node = NodeCell::new(DpConfig::default(), CostModel::default());
        let mut routes = IpIndex::new();
        for host in 0..FLEET as u8 {
            let ip = u32::from_be_bytes(pod(host));
            let port = if host == 0 { 1 } else { Port::Uplink.raw() };
            node.backend_mut().attach_pod(ip, port);
            routes.insert(ip, host as u32);
        }
        let mut homes = vec![SourceHome { shard: 5, slot: 0 }];
        let mut slots = Vec::new();
        for (slot, dst) in [3u8, 1, 3].into_iter().enumerate() {
            let key = FlowKey::tcp([10, 0, 0, 9], pod(dst), 1000 + slot as u16, 80);
            homes.push(SourceHome { shard: 0, slot });
            slots.push(FleetSlot::new(
                slot + 1,
                Box::new(CbrSource::new(key, 200, 2_000.0)),
            ));
        }
        HostShard::new(0, node, Arc::new(routes), homes.into(), slots)
    }

    /// What the rest of the fleet sends shard 0 every tick, deliberately
    /// out of sender order: a delivery receipt for local source 1 from
    /// each of shards 7..=1, shard 5's parcel also carrying a packet of
    /// its own source 0 for the local pod. Freshly allocated, as
    /// parcels arriving from another worker's pool would be.
    fn inbound() -> impl Iterator<Item = Parcel> {
        (1..FLEET).rev().map(|peer| Parcel {
            peer,
            packets: (peer == 5)
                .then(|| NodePacket {
                    key: FlowKey::tcp(pod(5), pod(0), 7, 80),
                    bytes: 100,
                    source: 0,
                })
                .into_iter()
                .collect(),
            receipts: vec![Receipt {
                source: 1,
                outcome: Outcome::Delivered { bytes: 200 },
            }],
        })
    }

    #[test]
    fn output_is_one_parcel_per_destination_addressed_and_the_pool_stays_bounded() {
        let ctx = ctx();
        let mut shard = shard_zero();
        let mut out = ShardOutput::new(FLEET);
        let mut input = Vec::new();
        for tick in 0..10_000u64 {
            let now = SimTime::from_nanos(tick * TICK_NS);
            let next = SimTime::from_nanos((tick + 1) * TICK_NS);
            input.extend(inbound());
            shard.tick(tick, now, next, &ctx, &mut input, &mut out);
            assert!(input.is_empty());

            // Three destinations addressed: the receipt for shard 5
            // first (remote arrivals are switched ahead of fresh
            // generation), then the local sources' in slot order, with
            // shard 3 named once.
            let emitted: Vec<(usize, usize, usize, usize)> = out
                .drain_from(0)
                .map(|(dst, p)| (dst, p.peer, p.packets.len(), p.receipts.len()))
                .collect();
            assert_eq!(
                emitted,
                [(5, 0, 0, 1), (3, 0, 4, 0), (1, 0, 2, 0)],
                "tick {tick}"
            );
            assert!(out.slot.iter().all(|s| *s == 0), "drain resets the index");
        }
        // Seven parcels in, three out per tick: an unbounded pool would
        // hold tens of thousands of buffers by now. This one filled to
        // its cap and then lent the last tick's three parcels theirs.
        assert_eq!(out.spare_packets.len(), SPARE_CAP - 3);
        assert_eq!(out.spare_receipts.len(), SPARE_CAP - 3);
        assert_eq!(shard.slots[0].total_delivered, 7 * 10_000);
    }
}
