//! The bounded upcall pipeline: how the switch services megaflow misses.
//!
//! Real OVS does not resolve a cache miss inline. The datapath hands the
//! packet to a *handler* thread through a fixed-capacity per-port upcall
//! queue (tail-dropping when full — `ovs_dp_upcall` returns `ENOBUFS`),
//! handlers run full classification under their own CPU, and generated
//! megaflows are installed in batches, so packets of the same flow that
//! arrive between the miss and the install also upcall. Those three
//! properties — finite queues, finite handler CPU, and the
//! miss-to-install window — are what a slow-path DoS saturates: the
//! attack does not need to win the fast path if it can starve the
//! machinery that *repairs* the fast path.
//!
//! [`PipelineMode`] selects between the seed's synchronous semantics
//! ([`PipelineMode::Inline`]) and the bounded pipeline
//! ([`PipelineMode::Bounded`]). Under a bounded pipeline:
//!
//! * a megaflow miss enqueues a pending upcall on the queue of the
//!   packet's destination vport (unroutable packets share
//!   [`UNROUTABLE_QUEUE`]); a queue at `queue_capacity` tail-drops the
//!   packet and counts it in [`UpcallStats::queue_drops`];
//! * [`crate::VSwitch::drain_upcalls`] runs one handler *step*: queues
//!   are serviced **deepest backlog first** (batch-greedy handlers
//!   amortise wakeups by draining the busiest socket — the realistic,
//!   throughput-optimal discipline that structurally starves sparse
//!   ports under a flood), each FIFO within itself, under
//!   `handler_cycles_per_step` (priced by the [`crate::CostModel`]);
//!   `port_quota_per_step` caps how many upcalls one port may have
//!   resolved per step — the OVS-style flow-setup rate limit the
//!   fair-share mitigation uses to fix exactly that starvation;
//! * megaflow installs produced during the step are *batched* and land
//!   at the end of the step, so same-step packets of a freshly resolved
//!   flow still miss (and re-upcall), exactly like real OVS.
//!
//! With an unbounded queue, an infinite handler budget and one drain per
//! packet, the bounded pipeline is observationally identical to the
//! inline mode — pinned bit-for-bit by
//! `crates/datapath/tests/upcall_equivalence.rs`.
//!
//! Both modes resolve a miss through the same `VSwitch::classify_miss`;
//! they differ only in when the install lands and which budget pays.
//! [`PipelineMode::Inline`] stays distinct from a `Bounded` pipeline
//! with infinite knobs on purpose: at tick granularity an inline miss is
//! charged to the datapath's budget and installed before the next
//! packet, a bounded one to the handler's budget at the step-end flush.
//! The equivalence above holds only at one drain per packet; folding
//! `Inline` into `Bounded` would change every inline scenario's numbers,
//! all five benchmark digests among them.

use std::collections::{BTreeMap, HashMap, VecDeque};

use pi_classifier::Action;
use pi_core::{BuildFoldHasher, FlowKey, MaskedKey, SimTime};

use crate::cost::Work;

/// The queue id shared by packets whose destination no pod answers for
/// (they still upcall — and a destination-spray flood lands here).
pub const UNROUTABLE_QUEUE: u32 = u32::MAX;

/// Capacity multiplier of the *shared* queues — the unroutable/default
/// queue and the fabric uplink port — relative to a pod port's queue:
/// traffic without a dedicated vport of its own shares one buffer,
/// sized several ports deep (the kernel's default-socket analogue).
/// Under deepest-backlog-first handler service this is what lets a
/// destination-spray flood permanently outrank any single pod port —
/// the starvation the per-port quota corrects.
///
/// The flip side: because these queues are shared, the per-port quota
/// cannot separate tenants *within* them — a flood of remote-bound
/// setups contends with every other tenant's uplink-bound flow setups
/// (see `pi_mitigation::quota` for the limitation).
pub const UNROUTABLE_CAPACITY_FACTOR: usize = 8;

/// The queue capacity of `queue` under a per-port cap of `capacity`.
/// The shared queues (unroutable, uplink) get
/// [`UNROUTABLE_CAPACITY_FACTOR`]× the per-port cap.
pub fn queue_capacity_of(queue: u32, capacity: usize) -> usize {
    if queue == UNROUTABLE_QUEUE || queue == pi_core::Port::UPLINK_RAW {
        capacity.saturating_mul(UNROUTABLE_CAPACITY_FACTOR)
    } else {
        capacity
    }
}

/// How the switch services megaflow misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineMode {
    /// Misses are resolved synchronously inside
    /// [`crate::VSwitch::process`] (the seed's semantics). No queue, no
    /// handler budget, installs land immediately.
    Inline,
    /// Misses are deferred through the bounded handler pipeline and
    /// resolved by [`crate::VSwitch::drain_upcalls`].
    Bounded(UpcallPipelineConfig),
}

/// Tunables of the bounded pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpcallPipelineConfig {
    /// Per-port upcall queue capacity, packets (kernel OVS defaults to a
    /// small per-vport socket buffer; saturating it is the attack).
    pub queue_capacity: usize,
    /// Handler cycle budget per drain step, priced by the switch's
    /// [`crate::CostModel`] (`upcall_fixed`, `per_rule`, `mfc_install`,
    /// `emc_insert`). `u64::MAX` means effectively infinite.
    pub handler_cycles_per_step: u64,
    /// Optional fair-share cap: at most this many upcalls resolved per
    /// port per step; over-quota ports keep their backlog queued (and
    /// eventually tail-drop their own traffic, not their neighbours').
    pub port_quota_per_step: Option<u32>,
}

impl Default for UpcallPipelineConfig {
    /// OVS-flavoured defaults for a 1 ms drain step: a 64-packet
    /// per-port queue and enough handler cycles for roughly a dozen
    /// default-cost upcalls per step (~12 k flow setups/s).
    fn default() -> Self {
        UpcallPipelineConfig {
            queue_capacity: 64,
            handler_cycles_per_step: 400_000,
            port_quota_per_step: None,
        }
    }
}

impl UpcallPipelineConfig {
    /// A pipeline with no capacity pressure at all: unbounded queue,
    /// infinite handler budget, no quota. Differentially equal to
    /// [`PipelineMode::Inline`] when drained once per packet.
    pub fn unbounded() -> Self {
        UpcallPipelineConfig {
            queue_capacity: usize::MAX,
            handler_cycles_per_step: u64::MAX,
            port_quota_per_step: None,
        }
    }

    /// Sets the per-port per-step quota (the fair-share mitigation).
    #[must_use]
    pub fn with_port_quota(mut self, quota: u32) -> Self {
        self.port_quota_per_step = Some(quota);
        self
    }
}

/// Aggregate pipeline counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpcallStats {
    /// Upcalls accepted onto a queue.
    pub enqueued: u64,
    /// Upcalls tail-dropped at a full queue — the handler-saturation
    /// observable (distinct from the node ingress-queue drop counter).
    pub queue_drops: u64,
    /// Upcalls resolved by handlers.
    pub handled: u64,
    /// Megaflow installs flushed at step ends.
    pub installs_flushed: u64,
    /// Queue-service truncations by the per-port quota: counted once
    /// per (port, step) whose backlog was left waiting — not once per
    /// waiting upcall.
    pub quota_deferrals: u64,
    /// Megaflow misses refused service because their destination was
    /// quarantined by the defense controller — these never reach a
    /// queue (and are charged only the fast-path share of the miss).
    pub quarantine_drops: u64,
    /// Total whole steps handled upcalls spent queued (0 = resolved at
    /// the first drain after arrival).
    pub wait_steps: u64,
    /// High-water mark of the total pending-upcall count.
    pub max_depth: usize,
}

impl UpcallStats {
    /// Mean install latency of handled upcalls, in drain steps (the
    /// miss-to-install window the bench reports).
    pub fn mean_wait_steps(&self) -> f64 {
        if self.handled == 0 {
            0.0
        } else {
            self.wait_steps as f64 / self.handled as f64
        }
    }
}

/// A megaflow miss waiting for a handler.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingUpcall {
    /// Caller-visible handle for matching deferred packet metadata.
    pub token: u64,
    /// The packet awaiting a verdict.
    pub key: FlowKey,
    /// The packet's precomputed full hash (for the EMC promotion on
    /// resolution).
    pub hash: u64,
    /// The fast-path work already charged for the miss (parse, EMC
    /// probe, the failed subtable walk).
    pub work: Work,
    /// The drain-step counter at enqueue time.
    pub enqueued_step: u64,
}

/// A megaflow install staged for the end-of-step flush.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagedInstall {
    pub megaflow: MaskedKey,
    pub action: Action,
    /// Resolution time (the install's usage stamp).
    pub at: SimTime,
    /// Whether the resolution predicted a fresh install (as opposed to a
    /// refresh of an existing/already-staged entry or a flow-limit
    /// refusal).
    pub fresh: bool,
}

/// The pipeline state one [`crate::VSwitch`] owns.
#[derive(Debug, Default)]
pub(crate) struct UpcallQueue {
    /// Per-port FIFO queues (BTreeMap for deterministic tie-breaks;
    /// emptied queues are removed so the map only holds live backlogs).
    queues: BTreeMap<u32, VecDeque<PendingUpcall>>,
    /// Running total across all queues (O(1) depth accounting).
    pending_total: usize,
    /// Flush order of the step's staged installs.
    installs: Vec<StagedInstall>,
    /// Megaflow → index into `installs` (O(1) dedup; iteration never
    /// touches this map, so its ordering cannot leak).
    staged_index: HashMap<MaskedKey, usize, BuildFoldHasher>,
    /// Staged installs predicted to create fresh entries.
    staged_fresh: usize,
    stats: UpcallStats,
    next_token: u64,
    /// Completed drain steps (the pipeline's install-latency clock).
    step: u64,
    handler_carry: i64,
}

impl UpcallQueue {
    /// Accepts `key` onto `queue` unless it is at `capacity`; returns
    /// the pending token, or `None` on a tail drop.
    pub fn try_enqueue(
        &mut self,
        queue: u32,
        capacity: usize,
        key: &FlowKey,
        hash: u64,
        work: Work,
    ) -> Option<u64> {
        // Capacity check before creating any storage, so a tail drop
        // (including the degenerate capacity-0 config) never leaves an
        // empty queue entry behind.
        if self.queues.get(&queue).map(|q| q.len()).unwrap_or(0) >= capacity {
            self.stats.queue_drops += 1;
            return None;
        }
        self.stats.enqueued += 1;
        let token = self.next_token;
        self.next_token += 1;
        self.queues
            .entry(queue)
            .or_default()
            .push_back(PendingUpcall {
                token,
                key: *key,
                hash,
                work,
                enqueued_step: self.step,
            });
        self.pending_total += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.pending_total);
        Some(token)
    }

    /// Starts a drain step: bumps the step clock and returns this
    /// step's handler budget (carry included, saturated into `i64`).
    pub fn begin_step(&mut self, cfg: &UpcallPipelineConfig) -> i64 {
        self.step += 1;
        cfg.handler_cycles_per_step.min(i64::MAX as u64) as i64 + self.handler_carry
    }

    /// Ends a drain step, recording the leftover budget as carry (an
    /// overrun becomes next step's debt; unspent budget is not banked).
    pub fn end_step(&mut self, leftover_budget: i64) {
        self.handler_carry = leftover_budget.min(0);
    }

    /// This step's service order: queue ids by descending backlog
    /// depth, ties broken by the oldest head-of-line upcall (a snapshot
    /// — serving does not reorder mid-step). Batch-greedy handlers
    /// drain the busiest socket first (and, among equally loaded ones,
    /// the longest-waiting); under a flood whose queue is pinned at
    /// capacity this starves sparse ports, which is precisely what the
    /// per-port quota corrects.
    pub fn service_order(&self) -> Vec<u32> {
        let mut ids: Vec<(usize, u64, u32)> = self
            .queues
            .iter()
            .filter_map(|(id, q)| Some((q.len(), q.front()?.token, *id)))
            .collect();
        ids.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ids.into_iter().map(|(_, _, id)| id).collect()
    }

    /// Pops the oldest pending upcall of one queue (dropping the
    /// queue's storage once it empties, so the map never accumulates
    /// dead entries across a run's worth of ports).
    pub fn pop_from(&mut self, queue: u32) -> Option<PendingUpcall> {
        let fifo = self.queues.get_mut(&queue)?;
        let pending = fifo.pop_front()?;
        self.pending_total -= 1;
        if fifo.is_empty() {
            self.queues.remove(&queue);
        }
        Some(pending)
    }

    /// Records a quota-service truncation: a queue was cut off by the
    /// per-port quota while it still had backlog (counted once per
    /// port per step, not per waiting upcall).
    pub fn note_quota_deferral(&mut self) {
        self.stats.quota_deferrals += 1;
    }

    /// Records a miss refused service because its destination is
    /// quarantined (works under both pipeline modes — quarantine is a
    /// slow-path admission decision, not a queue property).
    pub fn note_quarantine_drop(&mut self) {
        self.stats.quarantine_drops += 1;
    }

    /// Records a resolution and its wait-step accounting. `wait_steps`
    /// is the number of whole drain steps the upcall sat queued.
    pub fn note_resolved(&mut self, wait_steps: u64) {
        self.stats.handled += 1;
        self.stats.wait_steps += wait_steps;
    }

    /// True when `mk` is already staged for the end-of-step flush.
    pub fn install_staged(&self, mk: &MaskedKey) -> bool {
        self.staged_index.contains_key(mk)
    }

    /// Number of staged installs predicted to create fresh entries
    /// (feeds the flow-limit prediction for later resolutions of the
    /// same step).
    pub fn fresh_staged(&self) -> usize {
        self.staged_fresh
    }

    /// Total installs staged for the end-of-step flush (fresh entries
    /// and refreshes alike — a refresh still moves a usage stamp, so a
    /// non-empty staging area means pending observable work).
    pub fn staged_installs(&self) -> usize {
        self.installs.len()
    }

    /// The handler budget carry (always ≤ 0: an overrun owed to the
    /// next drain step). While it is negative, even an empty drain step
    /// changes state by repaying the debt.
    pub fn handler_carry(&self) -> i64 {
        self.handler_carry
    }

    /// Stages an install for the end-of-step flush. Re-staging an
    /// already-staged megaflow updates its verdict and usage stamp in
    /// place — exactly the net effect of the refreshes the inline path
    /// would have performed, without flushing the same flow repeatedly.
    pub fn stage_install(&mut self, megaflow: MaskedKey, action: Action, at: SimTime, fresh: bool) {
        if let Some(&i) = self.staged_index.get(&megaflow) {
            self.installs[i].action = action;
            self.installs[i].at = at;
            return;
        }
        self.staged_index.insert(megaflow, self.installs.len());
        if fresh {
            self.staged_fresh += 1;
        }
        self.installs.push(StagedInstall {
            megaflow,
            action,
            at,
            fresh,
        });
    }

    /// Takes the staged installs for flushing, counting them.
    pub fn take_installs(&mut self) -> Vec<StagedInstall> {
        self.stats.installs_flushed += self.installs.len() as u64;
        self.staged_index.clear();
        self.staged_fresh = 0;
        std::mem::take(&mut self.installs)
    }

    /// Discards staged installs (policy change: their verdicts are
    /// stale). Queued upcalls stay — they re-classify under the new
    /// policy when a handler reaches them.
    pub fn discard_installs(&mut self) {
        self.installs.clear();
        self.staged_index.clear();
        self.staged_fresh = 0;
    }

    /// Crash wipe: every queued upcall and staged install is lost with
    /// the switch process. Lifetime counters, the token sequence and
    /// the step clock survive — they model the node agent's
    /// accounting, not switch memory. Returns the number of pending
    /// upcalls discarded.
    pub fn crash_clear(&mut self) -> usize {
        let lost = self.pending_total;
        self.queues.clear();
        self.pending_total = 0;
        self.discard_installs();
        lost
    }

    /// The current drain-step counter.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Total pending upcalls across all queues.
    pub fn total_depth(&self) -> usize {
        self.pending_total
    }

    /// Pending upcalls on one queue.
    pub fn depth_of(&self, queue: u32) -> usize {
        self.queues.get(&queue).map(|q| q.len()).unwrap_or(0)
    }

    /// Aggregate counters.
    pub fn stats(&self) -> UpcallStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> FlowKey {
        FlowKey::tcp([10, 0, 0, n], [10, 1, 0, 1], 1000 + n as u16, 80)
    }

    #[test]
    fn capacity_is_per_queue_and_drops_count_per_port() {
        let mut q = UpcallQueue::default();
        // Port 1 takes two and tail-drops the third: the drop is the
        // refused enqueue on port 1, and the only one counted.
        let port1: Vec<bool> = (0..3u8)
            .map(|i| {
                q.try_enqueue(1, 2, &key(i), i as u64, Work::default())
                    .is_some()
            })
            .collect();
        assert_eq!(port1, [true, true, false]);
        assert_eq!(q.stats().queue_drops, 1);
        // Port 2 has its own capacity: a full port 1 does not drop it.
        assert!(q.try_enqueue(2, 2, &key(9), 9, Work::default()).is_some());
        assert_eq!(q.depth_of(1), 2);
        assert_eq!(q.depth_of(2), 1);
        assert_eq!(q.total_depth(), 3);
        let s = q.stats();
        assert_eq!(s.enqueued, 3);
        assert_eq!(s.queue_drops, 1, "port 2 dropped nothing");
        assert_eq!(s.max_depth, 3);
    }

    #[test]
    fn tokens_are_unique_and_fifo_within_a_queue() {
        let mut q = UpcallQueue::default();
        let a = q.try_enqueue(1, 10, &key(1), 1, Work::default()).unwrap();
        let b = q.try_enqueue(1, 10, &key(2), 2, Work::default()).unwrap();
        assert_ne!(a, b);
        assert_eq!(q.pop_from(1).unwrap().token, a);
        assert_eq!(q.pop_from(1).unwrap().token, b);
        assert!(q.pop_from(1).is_none());
        assert!(q.pop_from(7).is_none());
    }

    #[test]
    fn service_order_is_deepest_backlog_first_with_id_tiebreak() {
        let mut q = UpcallQueue::default();
        q.try_enqueue(5, 10, &key(1), 1, Work::default());
        for i in 0..3u8 {
            q.try_enqueue(2, 10, &key(i), i as u64, Work::default());
        }
        q.try_enqueue(9, 10, &key(4), 4, Work::default());
        // Depths: q2=3, q5=1, q9=1 → deepest first, then id order.
        assert_eq!(q.service_order(), vec![2, 5, 9]);
        // Empty queues never appear.
        q.pop_from(5);
        assert_eq!(q.service_order(), vec![2, 9]);
    }

    #[test]
    fn begin_step_saturates_infinite_budget_and_applies_carry() {
        let mut q = UpcallQueue::default();
        let inf = UpcallPipelineConfig::unbounded();
        assert_eq!(q.begin_step(&inf), i64::MAX);
        let tight = UpcallPipelineConfig {
            handler_cycles_per_step: 100,
            ..UpcallPipelineConfig::default()
        };
        q.end_step(-30); // overran by 30
        assert_eq!(q.begin_step(&tight), 70, "carry debt repaid first");
        q.end_step(50); // leftover budget is NOT banked
        assert_eq!(q.begin_step(&tight), 100);
    }

    #[test]
    fn staged_installs_dedup_and_predict_freshness() {
        let mut q = UpcallQueue::default();
        let mk = MaskedKey::new(key(1), pi_core::FlowMask::default());
        assert!(!q.install_staged(&mk));
        q.stage_install(mk, Action::Allow, SimTime::ZERO, true);
        assert!(q.install_staged(&mk));
        assert_eq!(q.fresh_staged(), 1);
        // A same-step re-resolution of the flow refreshes the staged
        // entry in place (latest verdict/stamp wins), not a second one.
        q.stage_install(mk, Action::Deny, SimTime::from_secs(1), false);
        assert_eq!(q.fresh_staged(), 1);
        let flushed = q.take_installs();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].action, Action::Deny);
        assert_eq!(flushed[0].at, SimTime::from_secs(1));
        assert!(flushed[0].fresh);
        assert_eq!(q.stats().installs_flushed, 1);
        assert_eq!(q.fresh_staged(), 0);
        assert!(!q.install_staged(&mk));
        q.stage_install(mk, Action::Allow, SimTime::ZERO, true);
        q.discard_installs();
        assert_eq!(q.take_installs().len(), 0);
        assert_eq!(q.fresh_staged(), 0);
    }

    #[test]
    fn capacity_zero_drops_without_leaving_dead_queues() {
        let mut q = UpcallQueue::default();
        assert!(q.try_enqueue(3, 0, &key(1), 1, Work::default()).is_none());
        assert_eq!(q.stats().queue_drops, 1);
        assert!(q.service_order().is_empty());
        assert_eq!(q.total_depth(), 0);
        // The refused enqueue still counts as a tail drop, and no
        // queue kept a slot for it.
        assert_eq!(q.depth_of(3), 0);
        assert_eq!(q.stats().enqueued, 0);
    }

    #[test]
    fn wait_step_accounting_feeds_mean_latency() {
        let mut q = UpcallQueue::default();
        q.try_enqueue(1, 10, &key(1), 1, Work::default());
        q.note_resolved(0);
        q.note_resolved(3);
        let s = q.stats();
        assert_eq!(s.wait_steps, 3);
        assert_eq!(s.handled, 2);
        assert!((s.mean_wait_steps() - 1.5).abs() < 1e-12);
        assert_eq!(UpcallStats::default().mean_wait_steps(), 0.0);
    }
}
