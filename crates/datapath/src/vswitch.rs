//! The virtual switch: the full three-level pipeline per packet.
//!
//! Pipeline semantics follow the paper's Fig. 1: pods attach to virtual
//! ports, and a pod's ACL protects traffic **to** that pod
//! (microsegmentation is ingress whitelisting — the compiled rules match
//! `ip_src`, which only makes sense enforced at the destination). The
//! slow path therefore (1) routes on the destination IP to find the
//! target vport and (2) classifies against that pod's ACL; generated
//! megaflows pin `ip_dst` exactly and carry the ACL's un-wildcarded
//! fields (Fig. 2b).
//!
//! Both caches are **shared across all ports and tenants** — the
//! isolation gap the attack exploits: masks created by feeding one
//! tenant's ACL are walked by every other tenant's packets.

use pi_classifier::{Action, FlowTable, PolicyUpdate};
use pi_core::{Field, FlowKey, KeyWords, SimTime};
use pi_packet::extract_flow_key;
use pi_trace::Tracer;

use crate::config::DpConfig;
use crate::cost::{CostModel, Work};
use crate::emc::MicroflowCache;
use crate::megaflow::{InstallOutcome, MegaflowCache};
use crate::pods::PodTable;
use crate::revalidator::{Revalidator, RevalidatorReport};
use crate::upcall::{
    PendingUpcall, PipelineMode, PortUpcallStats, UpcallQueue, UpcallStats, UNROUTABLE_QUEUE,
};

/// Which level of the pipeline resolved a packet. What the path cost is
/// the outcome's [`Work`], not part of the level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathTaken {
    /// Exact-match cache hit.
    MicroflowHit,
    /// Megaflow (TSS) hit.
    MegaflowHit,
    /// Full slow-path upcall.
    Upcall,
    /// Megaflow miss deferred into the bounded upcall pipeline
    /// ([`PipelineMode::Bounded`]): the packet sits on its port's upcall
    /// queue until a [`VSwitch::drain_upcalls`] step resolves it. The
    /// outcome's verdict is a placeholder ([`Action::Controller`], "sent
    /// to the slow path") and its work covers only the fast-path share
    /// of the miss.
    UpcallQueued {
        /// Handle matching this packet to its later [`ResolvedUpcall`].
        token: u64,
    },
    /// Megaflow miss tail-dropped at a full upcall queue — the
    /// handler-saturation loss the bounded pipeline makes expressible.
    /// No verdict is ever rendered for the packet.
    UpcallDropped,
}

impl PathTaken {
    /// True for an upcall.
    pub fn is_upcall(&self) -> bool {
        matches!(self, PathTaken::Upcall)
    }

    /// True when the packet was deferred into the upcall pipeline (its
    /// verdict arrives later, from [`VSwitch::drain_upcalls`]).
    pub fn is_queued(&self) -> bool {
        matches!(self, PathTaken::UpcallQueued { .. })
    }

    /// True when the packet was tail-dropped at a full upcall queue.
    pub fn is_upcall_dropped(&self) -> bool {
        matches!(self, PathTaken::UpcallDropped)
    }
}

/// Per-packet processing result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessOutcome {
    /// The policy verdict.
    pub verdict: Action,
    /// Destination vport when the verdict permits delivery.
    pub output: Option<u32>,
    /// Which pipeline level resolved the packet.
    pub path: PathTaken,
    /// The work this call charged for (parse + path).
    pub work: Work,
    /// CPU cycles charged: the switch's [`CostModel::cycles_of`] `work`.
    pub cycles: u64,
}

/// One deferred upcall resolved by a [`VSwitch::drain_upcalls`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedUpcall {
    /// The token handed out by the matching
    /// [`PathTaken::UpcallQueued`].
    pub token: u64,
    /// The packet the verdict applies to.
    pub key: FlowKey,
    /// The handler's outcome: a real verdict on the
    /// [`PathTaken::Upcall`] path, with the *handler-side* work and
    /// cycles (the fast-path share was already charged at enqueue time;
    /// the two shares sum to the inline upcall's work).
    pub outcome: ProcessOutcome,
}

/// Aggregate switch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Packets processed.
    pub packets: u64,
    /// Microflow-cache hits.
    pub microflow_hits: u64,
    /// Megaflow-cache hits.
    pub megaflow_hits: u64,
    /// Slow-path upcalls.
    pub upcalls: u64,
    /// Packets denied by policy (or unroutable).
    pub policy_drops: u64,
    /// Total cycles consumed (packet processing plus costed
    /// control-plane updates; the control share is also tracked
    /// separately in `control_cycles`).
    pub cycles: u64,
    /// Total subtable probes across all fast-path lookups.
    pub subtable_probes: u64,
    /// Control-plane policy updates applied (ACL installs/removals and
    /// pod attaches) — the churn counter the policy-flap detector
    /// watches.
    pub policy_updates: u64,
    /// Cache invalidations that actually flushed state (no-op flushes
    /// on a clean cache are coalesced away and not counted).
    pub cache_flushes: u64,
    /// Megaflow entries discarded by those invalidations.
    pub flushed_megaflows: u64,
    /// Cycles charged for costed control-plane updates (a subset of
    /// `cycles`; zero when every update arrived through the free
    /// build-time setters).
    pub control_cycles: u64,
}

impl SwitchStats {
    /// Mean cycles per packet.
    pub fn avg_cycles(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.cycles as f64 / self.packets as f64
        }
    }

    /// Mean subtable probes per packet (the attack's fingerprint).
    pub fn avg_probes(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.subtable_probes as f64 / self.packets as f64
        }
    }

    /// Fraction of packets resolved at the microflow cache — the other
    /// hot-path health counter the benches record.
    pub fn emc_hit_rate(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.microflow_hits as f64 / self.packets as f64
        }
    }
}

/// Outcome of one costed control-plane update
/// ([`VSwitch::apply_install_acl`] and friends): what changed, what was
/// flushed, and the datapath cycles the update consumed under the
/// switch's [`CostModel`]. The simulator charges `cycles` against the
/// node's tick budget — a flush storm eats the same CPU the packets
/// need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyUpdateOutcome {
    /// Whether the update changed switch state (false e.g. for an ACL
    /// install at an unattached IP).
    pub applied: bool,
    /// Megaflow entries discarded by the triggered invalidation.
    pub flushed_megaflows: usize,
    /// Whether the invalidation was scoped to the updated destination
    /// ([`DpConfig::scoped_invalidation`]) rather than a global flush.
    pub scoped: bool,
    /// The work charged for the update (zero for a free one).
    pub work: Work,
    /// Datapath cycles charged for the update: [`CostModel::cycles_of`]
    /// `work`.
    pub cycles: u64,
}

/// What one switch crash/restart wiped ([`VSwitch::crash_restart`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartOutcome {
    /// Installed ACLs lost — each one an unenforced deny policy until
    /// the control plane re-pushes it.
    pub acls_lost: usize,
    /// Cached flow entries (megaflows, or a flat/offload backend's
    /// table) discarded.
    pub flows_lost: usize,
    /// Queued upcalls discarded with the switch process.
    pub upcalls_lost: usize,
    /// Quarantine markings lost (the defense must re-detect).
    pub quarantines_lost: usize,
}

/// An OVS-like virtual switch: shared microflow + megaflow caches in
/// front of per-pod ingress ACL slow paths.
#[derive(Debug)]
pub struct VSwitch {
    config: DpConfig,
    cost: CostModel,
    emc: MicroflowCache,
    mfc: MegaflowCache,
    revalidator: Revalidator,
    /// Destination IP → pod port + ingress ACL, and the quarantine set
    /// (destinations whose megaflow misses are refused slow-path
    /// service).
    pods: PodTable,
    /// Bumped on policy changes / evictions to invalidate the EMC.
    generation: u64,
    /// Whether anything has been cached (EMC insert, megaflow install,
    /// staged install) since the last global flush. A policy change on
    /// a clean cache has nothing to invalidate: the flush is coalesced
    /// away — no clear, no generation bump, no flush cost — which is
    /// what keeps the attach-pod → install-acl setup sequence from
    /// burning a generation per call.
    cache_dirty: bool,
    stats: SwitchStats,
    /// The bounded upcall pipeline (idle under [`PipelineMode::Inline`]).
    pipeline: UpcallQueue,
    /// Trace handle (disabled by default — a guaranteed no-op).
    tracer: Tracer,
}

impl VSwitch {
    /// Builds a switch from a configuration, with the default cost model.
    pub fn new(config: DpConfig) -> Self {
        Self::with_cost_model(config, CostModel::default())
    }

    /// Builds a switch with an explicit cost model.
    pub fn with_cost_model(config: DpConfig, cost: CostModel) -> Self {
        let emc = MicroflowCache::new(
            config.emc_entries,
            config.emc_ways,
            config.emc_insert_prob,
            config.seed ^ 0xe3c,
        );
        let mfc = MegaflowCache::new(
            config.flow_limit,
            config.subtable_order,
            config.staged_lookup,
        );
        let revalidator = Revalidator::new(config.revalidator_interval, config.idle_timeout);
        VSwitch {
            config,
            cost,
            emc,
            mfc,
            revalidator,
            pods: PodTable::new(),
            generation: 0,
            cache_dirty: false,
            stats: SwitchStats::default(),
            pipeline: UpcallQueue::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DpConfig {
        &self.config
    }

    /// Attaches a trace handle: the costed control-plane entry points
    /// record their policy updates and cache flushes through it. The
    /// default (disabled) tracer makes every emission a no-op branch.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    // --- Runtime-mutable knobs -------------------------------------
    //
    // The adaptive defense controller (`pi_detect`) flips mitigations
    // while the switch serves traffic. Each setter keeps the live
    // `DpConfig` in sync, so mutating a fresh switch to a config is
    // observably identical to constructing it with that config (pinned
    // by `tests/adaptive_defense.rs`).

    /// Sets the per-port fair-share quota of the bounded upcall
    /// pipeline at runtime. Returns false (and changes nothing) when
    /// the switch runs the inline pipeline — the quota is a property of
    /// bounded handler service.
    pub fn set_port_quota(&mut self, quota: Option<u32>) -> bool {
        match &mut self.config.pipeline {
            PipelineMode::Bounded(cfg) => {
                cfg.port_quota_per_step = quota;
                true
            }
            PipelineMode::Inline => false,
        }
    }

    /// Toggles staged subtable lookup at runtime, retrofitting (or
    /// dropping) the per-subtable stage indexes of the live megaflow
    /// cache.
    pub fn set_staged_lookup(&mut self, enabled: bool) {
        self.config.staged_lookup = enabled;
        self.mfc.set_staged_lookup(enabled);
    }

    /// Quarantines the destination `ip`: its cached megaflows are
    /// evicted immediately (with the EMC invalidated if anything was
    /// removed) and, until released, its megaflow misses are refused
    /// slow-path service — counted in
    /// [`UpcallStats::quarantine_drops`] and surfaced to callers as
    /// [`PathTaken::UpcallDropped`]. Returns the number of megaflows
    /// evicted.
    ///
    /// This is the offender actuator for the mask-inflation attack:
    /// the megaflows carrying the injected masks are attributable by
    /// `ip_dst` (every megaflow pins it), so eviction removes exactly
    /// the attacker's subtables, and the refusal stops the covert
    /// stream from rebuilding them.
    pub fn quarantine(&mut self, ip: u32) -> usize {
        self.pods.quarantine(ip);
        let evicted = self.mfc.evict_destination(ip);
        if evicted > 0 {
            // Evicted megaflows may back EMC entries.
            self.generation += 1;
        }
        evicted
    }

    /// Lifts the quarantine on `ip`; its traffic reaches the slow path
    /// again. Returns whether it was quarantined.
    pub fn release_quarantine(&mut self, ip: u32) -> bool {
        self.pods.release_quarantine(ip)
    }

    /// Whether `ip` is currently quarantined.
    pub fn is_quarantined(&self, ip: u32) -> bool {
        self.pods.is_quarantined(ip)
    }

    /// The cycle cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The one policy entry point: applies `update` to the pod table
    /// ([`PodTable::apply`] — re-attach preserves the ACL, an install
    /// or removal at an unattached IP is refused) and invalidates the
    /// caches for the touched destination. `charged` selects between
    /// the two ways an update arrives: the timed control plane
    /// (`pi_cms::ControlPlane`, driven through `pi_sim::NodeCell`)
    /// pays one ACL update plus the teardown of every flushed entry —
    /// so a flush storm competes with packets for the same cycle
    /// budget, and is traced; build-time topology assembly, before the
    /// simulated clock starts, is free. This is the *direct* price of a
    /// flush; the indirect price — every flushed flow's next packet
    /// re-upcalling — emerges from the ordinary miss accounting.
    pub fn apply_update(&mut self, update: PolicyUpdate, charged: bool) -> PolicyUpdateOutcome {
        let change = self.pods.apply(update, &self.config.trie_fields);
        // A fresh attach may shadow a cached unroutable-deny megaflow
        // for `ip`; a re-attach models OVS's port-change revalidation.
        // Either way the (coalesced) invalidation keeps verdicts sound.
        let flushed = change.touched.map_or(0, |ip| self.invalidate_for(ip));
        let work = charged.then_some(Work {
            acl_updates: 1,
            flushed: flushed as u32,
            ..Work::default()
        });
        let scoped = self.config.scoped_invalidation;
        change.settle(
            flushed,
            scoped,
            work,
            &self.cost,
            &mut self.stats,
            &self.tracer,
        )
    }

    /// Attaches a pod, free: traffic to `ip` is delivered out of
    /// `vport`. Returns true for a fresh attach (the pod starts with no
    /// ACL — everything allowed); false for a re-attach of an
    /// already-present IP, which re-homes the vport but preserves the
    /// installed ACL.
    pub fn attach_pod(&mut self, ip: u32, vport: u32) -> bool {
        self.apply_update(PolicyUpdate::AttachPod { ip, vport }, false)
            .applied
    }

    /// Installs (or replaces) the ingress ACL protecting the pod at
    /// `ip`, free. This is the CMS's hand-off point — and the
    /// attacker's (§2: "the attacker installs ACLs at the virtual
    /// ports").
    ///
    /// Returns false if no pod is attached at `ip`.
    pub fn install_acl(&mut self, ip: u32, table: FlowTable) -> bool {
        self.apply_update(PolicyUpdate::InstallAcl { ip, table }, false)
            .applied
    }

    /// Removes the ACL at `ip` (pod reverts to allow-all), free.
    pub fn remove_acl(&mut self, ip: u32) -> bool {
        self.apply_update(PolicyUpdate::RemoveAcl { ip }, false)
            .applied
    }

    /// [`VSwitch::install_acl`], charged.
    pub fn apply_install_acl(&mut self, ip: u32, table: FlowTable) -> PolicyUpdateOutcome {
        self.apply_update(PolicyUpdate::InstallAcl { ip, table }, true)
    }

    /// Invalidates cached state after a policy change at `ip`.
    ///
    /// * Clean cache (nothing inserted since the last global flush):
    ///   nothing to invalidate — the no-op is coalesced away without a
    ///   generation bump, so repeated setup calls can never exhaust
    ///   the generation counter.
    /// * `scoped_invalidation`: only the megaflows pinned to `ip` are
    ///   evicted (sound — every megaflow this pipeline generates pins
    ///   `ip_dst`), and only the EMC entries addressed to `ip` are
    ///   dropped ([`MicroflowCache::evict_destination`] — exact-match
    ///   entries know their destination). Benign flows towards other
    ///   pods keep both their megaflows *and* their microflow hits
    ///   across the update.
    /// * Global (the OVS behaviour the paper attacks): the whole
    ///   megaflow cache is cleared and the EMC generation bumped.
    ///
    /// Staged installs are discarded either way — they were generated
    /// under the old policy; landing them would cache stale verdicts.
    /// Queued upcalls stay: a handler classifies them under whatever
    /// policy is live when it reaches them, exactly like real OVS.
    fn invalidate_for(&mut self, ip: u32) -> usize {
        if !self.cache_dirty {
            return 0;
        }
        self.pipeline.discard_installs();
        self.stats.cache_flushes += 1;
        let flushed = if self.config.scoped_invalidation {
            self.emc.evict_destination(ip);
            self.mfc.evict_destination(ip)
        } else {
            let all = self.mfc.len();
            self.mfc.clear();
            self.cache_dirty = false;
            self.generation += 1;
            all
        };
        self.stats.flushed_megaflows += flushed as u64;
        flushed
    }

    // --- Crash/restart ---------------------------------------------

    /// Crashes and restarts the switch process: both flow caches,
    /// queued upcalls, staged installs, quarantine markings and every
    /// installed ACL are lost (ports revert to allow-all — the
    /// vanished deny rules are the security hole reconciliation
    /// exists to close). Port attachments survive (the node agent
    /// re-plumbs vports on respawn) and so do the lifetime `stats` —
    /// they are the node agent's accounting, not switch memory. The
    /// restart itself (one [`Work::restarts`]) is charged by the caller
    /// against the node's budget, not here.
    pub fn crash_restart(&mut self) -> RestartOutcome {
        let flows_lost = self.mfc.len();
        if self.cache_dirty {
            self.mfc.clear();
            self.generation += 1; // EMC entries die by lazy generation check.
            self.cache_dirty = false;
        }
        let upcalls_lost = self.pipeline.crash_clear();
        let (acls_lost, quarantines_lost) = self.pods.crash_reset();
        RestartOutcome {
            acls_lost,
            flows_lost,
            upcalls_lost,
            quarantines_lost,
        }
    }

    /// Destination IPs with an installed (default-deny) ACL, ascending
    /// — the switch-reported state the reconciliation loop diffs
    /// against the CMS's desired state.
    pub fn installed_acl_ips(&self) -> Vec<u32> {
        self.pods.acl_ips()
    }

    /// The megaflow mask count — Fig. 3's right-hand axis.
    pub fn mask_count(&self) -> usize {
        self.mfc.mask_count()
    }

    /// The megaflow entry count.
    pub fn megaflow_count(&self) -> usize {
        self.mfc.len()
    }

    /// Switch statistics so far.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Resets packet/cycle counters (not the caches).
    pub fn reset_stats(&mut self) {
        self.stats = SwitchStats::default();
    }

    /// EMC statistics.
    pub fn emc_stats(&self) -> crate::emc::EmcStats {
        self.emc.stats()
    }

    /// MFC statistics.
    pub fn mfc_stats(&self) -> crate::megaflow::MfcStats {
        self.mfc.stats()
    }

    /// Read access to the megaflow cache for diagnostics.
    pub fn megaflows(&self) -> &MegaflowCache {
        &self.mfc
    }

    /// Runs the revalidator if due (call once per simulated tick).
    ///
    /// Under the bounded pipeline the revalidator shares the sweep
    /// clock with handler draining: any installs still staged (from an
    /// interrupted or external drain) are flushed first, so a sweep
    /// never races a half-landed install batch — it always sees the
    /// cache as of the last completed handler step.
    pub fn revalidate(&mut self, now: SimTime) -> Option<RevalidatorReport> {
        self.flush_staged_installs();
        let report = self.revalidator.maybe_sweep(&mut self.mfc, now);
        if let Some(r) = &report {
            if r.evicted_idle > 0 {
                // Conservative EMC invalidation: evicted megaflows may
                // back EMC entries.
                self.generation += 1;
            }
        }
        report
    }

    /// The earliest future instant at which the switch's background
    /// machinery can change observable state without a new packet
    /// arriving. `Some(now)` means "busy right now" (queued upcalls,
    /// staged installs, or handler-budget debt that an empty drain step
    /// would repay); with only cached megaflows the next observable
    /// change is the revalidator sweep that could evict them; `None`
    /// means fully quiescent — [`VSwitch::revalidate`] and
    /// [`VSwitch::drain_upcalls`] are provable no-ops at any future
    /// time. Used by the event-driven engines to skip idle ticks.
    pub fn next_background_event(&self, now: SimTime) -> Option<SimTime> {
        if self.pipeline.total_depth() > 0
            || self.pipeline.staged_installs() > 0
            || self.pipeline.handler_carry() < 0
        {
            return Some(now);
        }
        if !self.mfc.is_empty() {
            return Some(self.revalidator.next_due());
        }
        None
    }

    /// Processes a raw frame arriving on `in_port`.
    pub fn process_frame(
        &mut self,
        frame: &[u8],
        in_port: u32,
        now: SimTime,
    ) -> pi_core::Result<ProcessOutcome> {
        let key = extract_flow_key(frame, in_port)?;
        Ok(self.process(&key, now))
    }

    /// Processes a pre-parsed flow key (the simulator's hot path — the
    /// parse cost is still charged).
    pub fn process(&mut self, key: &FlowKey, now: SimTime) -> ProcessOutcome {
        let words = KeyWords::of(key);
        self.process_with(key, &words, words.full_hash(), now)
    }

    /// Maximum packets hashed per [`VSwitch::process_batch`] phase —
    /// OVS's `NETDEV_MAX_BURST`.
    pub const BATCH_SIZE: usize = 32;

    /// Processes a run of pre-parsed flow keys, amortising the hash
    /// work: each sub-batch of up to [`VSwitch::BATCH_SIZE`] packets has
    /// its [`KeyWords`] and full-key hash computed in one pass before any
    /// lookup runs, and every pipeline level (EMC set index, every
    /// subtable's masked hash) derives from those — nothing allocates
    /// and no key is re-hashed per level.
    ///
    /// **One hash per packet train.** A key equal to its predecessor in
    /// the sub-batch (an iperf burst is tens of identical keys in a row)
    /// copies the predecessor's words and hash instead of re-folding
    /// them — what a NIC's per-flow RSS hash gives real OVS. The sharing
    /// stops at the hash on purpose: every packet of the train still
    /// probes the EMC, bumps every counter, is priced by
    /// [`CostModel::cycles_of`] and reaches the sink, so the modelled
    /// work — and the benchmark's per-packet unit costs — are those of
    /// distinct flows. (Memoising the whole EMC outcome per train, OVS's
    /// `packet_batch_per_flow`, needs a burst unit cost in the benchmark
    /// ledger first: ROADMAP 2B's `emc_burst_ns`, then item 9(b).)
    ///
    /// Verdicts, stats and cache mutations are **exactly** those of
    /// `keys.len()` sequential [`VSwitch::process`] calls (pinned by
    /// `tests/batch_equivalence.rs`): equal keys have equal hashes, and
    /// lookups still execute in packet order, so a packet can hit an EMC
    /// entry promoted by an earlier packet of the same batch.
    ///
    /// `sink` receives each packet's index and outcome and returns
    /// whether to continue; returning `false` stops the batch (the
    /// simulator's per-tick cycle budget), leaving later packets
    /// untouched. Returns the number of packets processed.
    // audit: hotpath
    pub fn process_batch(
        &mut self,
        keys: &[FlowKey],
        now: SimTime,
        mut sink: impl FnMut(usize, ProcessOutcome) -> bool,
    ) -> usize {
        let mut words = [KeyWords::ZERO; Self::BATCH_SIZE];
        let mut hashes = [0u64; Self::BATCH_SIZE];
        let mut done = 0;
        for (chunk_idx, chunk) in keys.chunks(Self::BATCH_SIZE).enumerate() {
            // Phase 1: hash the whole sub-batch (pure — no stats, no
            // cache effects, so an early sink stop never over-counts).
            // An early stop discards at most 31 hashes (~tens of cycles
            // each) — noise next to the thousands of cycles per
            // processed packet that caused the stop.
            for (i, key) in chunk.iter().enumerate() {
                if i > 0 && *key == chunk[i - 1] {
                    words[i] = words[i - 1];
                    hashes[i] = hashes[i - 1];
                } else {
                    words[i] = KeyWords::of(key);
                    hashes[i] = words[i].full_hash();
                }
            }
            // Phase 2: per-packet lookups in arrival order.
            for (i, key) in chunk.iter().enumerate() {
                let outcome = self.process_with(key, &words[i], hashes[i], now);
                done += 1;
                if !sink(chunk_idx * Self::BATCH_SIZE + i, outcome) {
                    return done;
                }
            }
        }
        done
    }

    /// The shared per-packet pipeline, with the key's words and
    /// full-key hash precomputed.
    fn process_with(
        &mut self,
        key: &FlowKey,
        words: &KeyWords,
        hash: u64,
        now: SimTime,
    ) -> ProcessOutcome {
        self.stats.packets += 1;

        // Level 1: microflow cache.
        let emc_probed = self.config.emc_enabled;
        let mut work = Work {
            parses: 1,
            emc_probes: u32::from(emc_probed),
            ..Work::default()
        };
        if emc_probed {
            if let Some(action) = self.emc.lookup_hashed(hash, key, self.generation, now) {
                self.stats.microflow_hits += 1;
                return self.finish(action, PathTaken::MicroflowHit, work, key);
            }
        }

        // Level 2: megaflow cache.
        let out = self.mfc.lookup_with(key, words, now);
        self.stats.subtable_probes += out.probes as u64;
        work.subtables = out.probes as u32;
        work.stage_hashes = out.stage_checks as u32;
        if let Some(action) = out.value {
            let emc_inserted = emc_probed
                && self
                    .emc
                    .insert_hashed(hash, key, action, self.generation, now);
            self.cache_dirty |= emc_inserted;
            work.emc_inserts = u32::from(emc_inserted);
            self.stats.megaflow_hits += 1;
            return self.finish(action, PathTaken::MegaflowHit, work, key);
        }

        // Quarantine gate: a miss towards a quarantined destination is
        // refused slow-path service outright — no classification, no
        // megaflow, no queue slot, no handler cycles. Only the
        // fast-path share of the miss was spent. This is what starves
        // an offender's covert stream of its amplification.
        if self.pods.is_quarantined(key.ip_dst) {
            self.pipeline.note_quarantine_drop();
            return self.finish(Action::Controller, PathTaken::UpcallDropped, work, key);
        }

        // Level 3: the slow path. Under the bounded pipeline the miss is
        // deferred onto the destination port's upcall queue (tail-drop
        // when full); only the fast-path share of the work is charged
        // here — the handler share lands in `drain_upcalls`. The pending
        // or dropped packet is neither a policy drop nor (yet) an
        // upcall: it shows up only in the upcall statistics.
        if let PipelineMode::Bounded(cfg) = self.config.pipeline {
            let queue = self
                .pods
                .get(key.ip_dst)
                .map_or(UNROUTABLE_QUEUE, |p| p.vport);
            let capacity = crate::upcall::queue_capacity_of(queue, cfg.queue_capacity);
            let path = match self.pipeline.try_enqueue(queue, capacity, key, hash, work) {
                Some(token) => PathTaken::UpcallQueued { token },
                None => PathTaken::UpcallDropped,
            };
            return self.finish(Action::Controller, path, work, key);
        }

        // Inline slow path: resolved and installed right here, on the
        // datapath's budget.
        let (action, megaflow, rules_examined) = self.classify_miss(key);
        let installed = matches!(
            self.mfc.install(megaflow, action, now),
            InstallOutcome::Installed
        );
        let emc_inserted = emc_probed
            && self
                .emc
                .insert_hashed(hash, key, action, self.generation, now);
        self.cache_dirty |= installed || emc_inserted;
        self.stats.upcalls += 1;
        let handler = handler_work(rules_examined, installed, emc_inserted);
        self.finish(action, PathTaken::Upcall, work + handler, key)
    }

    /// The slow-path miss both pipelines share: route on `ip_dst`, then
    /// the pod's ingress ACL. Returns the verdict, the megaflow to
    /// install and the rules examined. The inline pipeline calls it from
    /// [`VSwitch::process_with`], the bounded one from
    /// [`VSwitch::resolve_upcall`]; they differ only in when the install
    /// lands and which budget pays.
    fn classify_miss(&self, key: &FlowKey) -> (Action, pi_core::MaskedKey, usize) {
        let (action, mut mask, rules_examined) = match self.pods.get(key.ip_dst) {
            Some(port) => {
                let up = port.slowpath.process_upcall(key);
                (up.action, *up.megaflow.mask(), up.rules_examined)
            }
            // Unroutable destination: drop; the megaflow needs only the
            // destination address to stay sound.
            None => (Action::Deny, pi_core::FlowMask::WILDCARD, 0),
        };
        // Routing consulted the destination IP: pin it exactly.
        mask.unwildcard(Field::IpDst, Field::IpDst.full_mask());
        (action, pi_core::MaskedKey::new(*key, mask), rules_examined)
    }

    /// Routes, prices and books a packet; the caller has already
    /// counted which level resolved it. A rendered verdict that
    /// delivers nowhere is a policy drop; a deferred or refused miss
    /// renders none.
    // Inlined into each call site so the terms its `work` leaves at
    // zero fold out of `cycles_of` on the per-packet path.
    #[inline(always)]
    fn finish(
        &mut self,
        verdict: Action,
        path: PathTaken,
        work: Work,
        key: &FlowKey,
    ) -> ProcessOutcome {
        let output = if verdict.permits() {
            self.pods.get(key.ip_dst).map(|p| p.vport)
        } else {
            None
        };
        if output.is_none() && !path.is_queued() && !path.is_upcall_dropped() {
            self.stats.policy_drops += 1;
        }
        let cycles = self.cost.cycles_of(&work);
        self.stats.cycles += cycles;
        ProcessOutcome {
            verdict,
            output,
            path,
            work,
            cycles,
        }
    }

    /// Runs one handler step of the bounded upcall pipeline: port
    /// queues are serviced **deepest backlog first** (batch-greedy
    /// handlers drain the busiest socket — the wakeup-amortising
    /// discipline that structurally starves sparse ports under a
    /// flood), FIFO within each queue, under the configured per-step
    /// cycle budget. `port_quota_per_step` caps each port's resolutions
    /// per step — the fair-share fix for exactly that starvation; an
    /// over-quota port keeps its backlog queued. `sink` receives each
    /// [`ResolvedUpcall`]. Megaflow installs generated during the step
    /// are batched and land at the **end** of the step — packets
    /// processed between a miss and this flush still miss (and upcall),
    /// like real OVS.
    ///
    /// Budget semantics mirror the simulator's per-tick drain: an
    /// upcall is resolved iff the budget is still positive when its turn
    /// comes, and an overrun carries into the next step as debt. Returns
    /// the number of upcalls resolved. No-op under
    /// [`PipelineMode::Inline`].
    // audit: hotpath
    pub fn drain_upcalls(&mut self, now: SimTime, mut sink: impl FnMut(ResolvedUpcall)) -> usize {
        let PipelineMode::Bounded(cfg) = self.config.pipeline else {
            return 0;
        };
        let mut budget = self.pipeline.begin_step(&cfg);
        let mut handled = 0usize;
        'step: for queue in self.pipeline.service_order() {
            let mut served = 0u32;
            while budget > 0 {
                if cfg.port_quota_per_step.is_some_and(|q| served >= q) {
                    if self.pipeline.depth_of(queue) > 0 {
                        self.pipeline.note_quota_deferral();
                    }
                    break;
                }
                let Some(pending) = self.pipeline.pop_from(queue) else {
                    break;
                };
                let resolved = self.resolve_upcall(pending, now);
                budget -= resolved.outcome.cycles as i64;
                served += 1;
                handled += 1;
                sink(resolved);
            }
            if budget <= 0 {
                break 'step;
            }
        }
        self.pipeline.end_step(budget);
        self.flush_staged_installs();
        handled
    }

    /// Services one pending upcall: full classification against the
    /// destination pod's ACL, megaflow generation (staged, not yet
    /// installed), and the EMC promotion.
    ///
    /// A pending upcall whose destination was quarantined *after* it
    /// was queued is refused here instead: no classification, no
    /// install, no handler cycles — otherwise the backlog queued
    /// before the quarantine would re-install the offender's
    /// megaflows right after [`VSwitch::quarantine`] evicted them.
    fn resolve_upcall(&mut self, pending: PendingUpcall, now: SimTime) -> ResolvedUpcall {
        let key = pending.key;
        if self.pods.is_quarantined(key.ip_dst) {
            self.pipeline.note_quarantine_drop();
            // The fast-path share was charged at enqueue; refusing costs
            // the handler nothing.
            let outcome = self.finish(
                Action::Controller,
                PathTaken::UpcallDropped,
                Work::default(),
                &key,
            );
            return ResolvedUpcall {
                token: pending.token,
                key,
                outcome,
            };
        }
        let (action, megaflow, rules_examined) = self.classify_miss(&key);

        // Predict what the end-of-step flush will do, mirroring
        // `MegaflowCache::install` against the cache *plus* the installs
        // already staged this step.
        let already = self.mfc.get(&megaflow).is_some() || self.pipeline.install_staged(&megaflow);
        let installed =
            !already && self.mfc.len() + self.pipeline.fresh_staged() < self.config.flow_limit;
        self.pipeline
            .stage_install(megaflow, action, now, installed);
        // Staged installs land at the step-end flush: the cache is no
        // longer clean the moment one exists.
        self.cache_dirty = true;

        let emc_inserted = pending.work.emc_probes > 0
            && self
                .emc
                .insert_hashed(pending.hash, &key, action, self.generation, now);
        self.stats.upcalls += 1;
        let handler = handler_work(rules_examined, installed, emc_inserted);
        let outcome = self.finish(action, PathTaken::Upcall, handler, &key);
        let wait = self
            .pipeline
            .step()
            .saturating_sub(1)
            .saturating_sub(pending.enqueued_step);
        self.pipeline.note_resolved(pending.queue, wait);
        ResolvedUpcall {
            token: pending.token,
            key,
            outcome,
        }
    }

    /// Lands the step's batched megaflow installs. Called at the end of
    /// every drain step and defensively before a revalidator sweep.
    fn flush_staged_installs(&mut self) {
        for staged in self.pipeline.take_installs() {
            let outcome = self.mfc.install(staged.megaflow, staged.action, staged.at);
            // The resolution-time prediction (reported as `installed`
            // in the packet's outcome) must agree with what the flush
            // actually did — a divergence means the prediction logic
            // no longer mirrors `MegaflowCache::install`.
            debug_assert_eq!(
                matches!(outcome, InstallOutcome::Installed),
                staged.fresh,
                "staged-install prediction diverged from the flush outcome"
            );
        }
    }

    /// Aggregate upcall-pipeline counters (all zero under
    /// [`PipelineMode::Inline`]).
    pub fn upcall_stats(&self) -> UpcallStats {
        self.pipeline.stats()
    }

    /// Per-port upcall-pipeline counters, ascending queue-id order.
    /// The [`UNROUTABLE_QUEUE`] id collects destination-less upcalls.
    pub fn upcall_port_stats(&self) -> Vec<(u32, PortUpcallStats)> {
        self.pipeline.port_stats()
    }

    /// Total pending upcalls across all port queues.
    pub fn upcall_queue_depth(&self) -> usize {
        self.pipeline.total_depth()
    }
}

/// The handler share of a slow-path miss: the round trip, the linear
/// scan, the megaflow install and the EMC promotion. The inline
/// pipeline charges it with the fast-path share; the bounded one
/// charges it at [`VSwitch::drain_upcalls`] — it moves work, it never
/// invents or loses any.
fn handler_work(rules_examined: usize, installed: bool, emc_inserted: bool) -> Work {
    Work {
        upcalls: 1,
        rules: rules_examined as u32,
        installs: u32::from(installed),
        emc_inserts: u32::from(emc_inserted),
        ..Work::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_classifier::table::whitelist_with_default_deny;
    use pi_core::{FlowMask, MaskedKey};

    const POD_IP: [u8; 4] = [10, 0, 0, 99];
    const POD_VPORT: u32 = 3;

    /// Pod at 10.0.0.99:vport3 with "allow from 10.0.0.0/8, deny rest".
    fn switch_with_fig2_acl() -> VSwitch {
        let mut sw = VSwitch::new(DpConfig {
            trie_fields: vec![Field::IpSrc],
            ..DpConfig::default()
        });
        sw.attach_pod(u32::from_be_bytes(POD_IP), POD_VPORT);
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        );
        sw.install_acl(
            u32::from_be_bytes(POD_IP),
            whitelist_with_default_deny(&[allow]),
        );
        sw
    }

    fn pkt(src: [u8; 4], tp_src: u16) -> FlowKey {
        FlowKey::tcp(src, POD_IP, tp_src, 5201)
    }

    #[test]
    fn first_packet_upcalls_then_microflow_hits() {
        let mut sw = switch_with_fig2_acl();
        let t = SimTime::from_millis(1);
        let p = pkt([10, 1, 1, 1], 1000);
        let o1 = sw.process(&p, t);
        assert!(o1.path.is_upcall());
        assert_eq!(o1.verdict, Action::Allow);
        assert_eq!(o1.output, Some(POD_VPORT));
        let o2 = sw.process(&p, t + SimTime::from_millis(1));
        assert!(o2.path == PathTaken::MicroflowHit);
        assert!(o2.cycles < o1.cycles);
        let s = sw.stats();
        assert_eq!(s.upcalls, 1);
        assert_eq!(s.microflow_hits, 1);
        assert_eq!(s.packets, 2);
    }

    #[test]
    fn crash_restart_wipes_caches_acls_and_quarantines_but_not_routes() {
        let mut sw = switch_with_fig2_acl();
        let ip = u32::from_be_bytes(POD_IP);
        let t = SimTime::from_millis(1);
        sw.process(&pkt([10, 1, 1, 1], 1000), t);
        sw.quarantine(0xdead);
        assert_eq!(sw.installed_acl_ips(), vec![ip]);
        assert!(sw.megaflow_count() > 0);
        let stats_before = sw.stats();

        let out = sw.crash_restart();
        assert_eq!(out.acls_lost, 1);
        assert!(out.flows_lost > 0);
        assert_eq!(out.quarantines_lost, 1);
        assert!(sw.installed_acl_ips().is_empty());
        assert_eq!(sw.megaflow_count(), 0);
        assert!(!sw.is_quarantined(0xdead));
        assert_eq!(sw.stats(), stats_before, "lifetime counters survive");

        // The vanished deny ACL is the vulnerability: a previously
        // denied source is now delivered.
        let o = sw.process(&pkt([99, 1, 1, 1], 1000), t + SimTime::from_millis(1));
        assert_eq!(o.verdict, Action::Allow, "deny policy silently gone");
        assert_eq!(o.output, Some(POD_VPORT), "route survived the crash");

        // Idempotent: a second crash on the already-wiped switch loses
        // nothing more.
        assert_eq!(sw.crash_restart().acls_lost, 0);
    }

    #[test]
    fn same_megaflow_different_key_hits_megaflow() {
        let mut sw = switch_with_fig2_acl();
        let t = SimTime::from_millis(1);
        sw.process(&pkt([10, 1, 1, 1], 1000), t);
        // Different host, same /8 and wildcarded ports: EMC misses
        // (different exact key) but the /8 megaflow matches.
        let o = sw.process(&pkt([10, 2, 2, 2], 2000), t);
        assert!(o.path == PathTaken::MegaflowHit);
        assert_eq!(o.verdict, Action::Allow);
    }

    #[test]
    fn deny_verdicts_counted_as_policy_drops() {
        let mut sw = switch_with_fig2_acl();
        let o = sw.process(&pkt([99, 1, 1, 1], 1000), SimTime::ZERO);
        assert_eq!(o.verdict, Action::Deny);
        assert_eq!(o.output, None);
        assert_eq!(sw.stats().policy_drops, 1);
    }

    #[test]
    fn fig2b_masks_accumulate_per_divergence_depth() {
        // Feeding the 8 complement packets of Fig. 2b (first-octet
        // divergence at depths 1..8) plus one allow packet produces
        // exactly 8 distinct megaflow masks (the allow /8 mask equals the
        // depth-8 deny mask).
        let mut sw = switch_with_fig2_acl();
        let t = SimTime::ZERO;
        let first_octets = [128u8, 64, 32, 16, 0, 12, 8, 11]; // depths 1..8
        for o in first_octets {
            sw.process(&pkt([o, 0, 0, 1], 1), t);
        }
        sw.process(&pkt([10, 0, 0, 1], 1), t); // allow
        assert_eq!(sw.mask_count(), 8, "Fig. 2b: 8 masks");
        assert_eq!(sw.megaflow_count(), 9, "Fig. 2b: 9 entries");
    }

    #[test]
    fn unroutable_destination_denies_without_polluting() {
        let mut sw = switch_with_fig2_acl();
        let stray = FlowKey::tcp([10, 1, 1, 1], [172, 16, 0, 1], 1, 1);
        let o = sw.process(&stray, SimTime::ZERO);
        assert_eq!(o.verdict, Action::Deny);
        // The unroutable megaflow pins ip_dst only — one extra mask.
        assert_eq!(sw.mask_count(), 1);
        // And it must not swallow traffic to the real pod.
        let o2 = sw.process(&pkt([10, 1, 1, 1], 1), SimTime::ZERO);
        assert_eq!(o2.verdict, Action::Allow);
    }

    #[test]
    fn pod_without_acl_allows_everything_with_one_mask() {
        let mut sw = VSwitch::new(DpConfig::default());
        sw.attach_pod(u32::from_be_bytes([10, 0, 0, 5]), 9);
        let p = FlowKey::tcp([1, 2, 3, 4], [10, 0, 0, 5], 7, 8);
        let q = FlowKey::udp([9, 9, 9, 9], [10, 0, 0, 5], 53, 53);
        assert_eq!(sw.process(&p, SimTime::ZERO).verdict, Action::Allow);
        assert_eq!(sw.process(&q, SimTime::ZERO).verdict, Action::Allow);
        assert_eq!(sw.mask_count(), 1, "single ip_dst-only mask");
        assert_eq!(sw.megaflow_count(), 1);
    }

    #[test]
    fn acl_install_flushes_caches() {
        let mut sw = switch_with_fig2_acl();
        let p = pkt([10, 1, 1, 1], 1000);
        sw.process(&p, SimTime::ZERO);
        assert_eq!(sw.megaflow_count(), 1);
        // Replace the ACL with deny-everything.
        assert!(sw.install_acl(u32::from_be_bytes(POD_IP), whitelist_with_default_deny(&[])));
        assert_eq!(sw.megaflow_count(), 0);
        let o = sw.process(&p, SimTime::ZERO);
        assert!(o.path.is_upcall(), "EMC must not serve stale verdicts");
        assert_eq!(o.verdict, Action::Deny);
    }

    #[test]
    fn remove_acl_restores_allow_all() {
        let mut sw = switch_with_fig2_acl();
        let denied = pkt([99, 1, 1, 1], 1);
        assert_eq!(sw.process(&denied, SimTime::ZERO).verdict, Action::Deny);
        assert!(sw.remove_acl(u32::from_be_bytes(POD_IP)));
        assert_eq!(sw.process(&denied, SimTime::ZERO).verdict, Action::Allow);
        assert!(!sw.remove_acl(0xdead_beef));
    }

    #[test]
    fn install_acl_on_unknown_ip_fails() {
        let mut sw = VSwitch::new(DpConfig::default());
        assert!(!sw.install_acl(0x0a000001, whitelist_with_default_deny(&[])));
    }

    #[test]
    fn revalidation_evicts_idle_and_invalidates_emc() {
        let mut sw = switch_with_fig2_acl();
        let p = pkt([10, 1, 1, 1], 1000);
        sw.process(&p, SimTime::ZERO);
        assert_eq!(sw.megaflow_count(), 1);
        // 15 s later, the flow has idled out (timeout 10 s).
        let report = sw.revalidate(SimTime::from_secs(15)).unwrap();
        assert_eq!(report.evicted_idle, 1);
        assert_eq!(sw.megaflow_count(), 0);
        let o = sw.process(&p, SimTime::from_secs(15));
        assert!(o.path.is_upcall(), "EMC generation must have advanced");
    }

    #[test]
    fn process_frame_parses_then_processes() {
        let mut sw = switch_with_fig2_acl();
        let key = pkt([10, 3, 3, 3], 777);
        let frame = pi_packet::PacketBuilder::new().build(&key).unwrap();
        let o = sw.process_frame(&frame, 1, SimTime::ZERO).unwrap();
        assert_eq!(o.verdict, Action::Allow);
        assert!(sw.process_frame(&frame[..7], 1, SimTime::ZERO).is_err());
    }

    #[test]
    fn cycles_accumulate_in_stats() {
        let mut sw = switch_with_fig2_acl();
        let p = pkt([10, 1, 1, 1], 1000);
        let o1 = sw.process(&p, SimTime::ZERO);
        let o2 = sw.process(&p, SimTime::ZERO);
        assert_eq!(sw.stats().cycles, o1.cycles + o2.cycles);
        assert!(sw.stats().avg_cycles() > 0.0);
        sw.reset_stats();
        assert_eq!(sw.stats().packets, 0);
    }

    #[test]
    fn emc_disabled_paths_skip_microflow() {
        let mut sw = VSwitch::new(DpConfig {
            emc_enabled: false,
            trie_fields: vec![Field::IpSrc],
            ..DpConfig::default()
        });
        sw.attach_pod(u32::from_be_bytes(POD_IP), POD_VPORT);
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        );
        sw.install_acl(
            u32::from_be_bytes(POD_IP),
            whitelist_with_default_deny(&[allow]),
        );
        let p = pkt([10, 1, 1, 1], 1000);
        sw.process(&p, SimTime::ZERO);
        let o = sw.process(&p, SimTime::ZERO);
        assert!(
            o.path == PathTaken::MegaflowHit,
            "no EMC ⇒ repeat packets hit MFC"
        );
        assert_eq!(o.work.emc_probes, 0);
    }

    fn bounded_switch(cfg: crate::upcall::UpcallPipelineConfig) -> VSwitch {
        let mut sw = VSwitch::new(DpConfig {
            trie_fields: vec![Field::IpSrc],
            pipeline: PipelineMode::Bounded(cfg),
            ..DpConfig::default()
        });
        sw.attach_pod(u32::from_be_bytes(POD_IP), POD_VPORT);
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        );
        sw.install_acl(
            u32::from_be_bytes(POD_IP),
            whitelist_with_default_deny(&[allow]),
        );
        sw
    }

    #[test]
    fn bounded_miss_defers_then_resolves() {
        let mut sw = bounded_switch(crate::upcall::UpcallPipelineConfig::unbounded());
        let t = SimTime::from_millis(1);
        let p = pkt([10, 1, 1, 1], 1000);
        let o = sw.process(&p, t);
        assert!(o.path.is_queued());
        assert_eq!(o.verdict, Action::Controller, "placeholder verdict");
        assert_eq!(o.output, None);
        assert_eq!(sw.stats().upcalls, 0, "not an upcall until resolved");
        assert_eq!(sw.pipeline.depth_of(POD_VPORT), 1);
        let mut resolved = Vec::new();
        assert_eq!(sw.drain_upcalls(t, |r| resolved.push(r)), 1);
        assert_eq!(resolved[0].outcome.verdict, Action::Allow);
        assert_eq!(resolved[0].outcome.output, Some(POD_VPORT));
        assert!(resolved[0].outcome.path.is_upcall());
        assert_eq!(sw.stats().upcalls, 1);
        assert_eq!(sw.megaflow_count(), 1, "batched install landed at step end");
        // The next packet of the flow is now a cache hit.
        let o2 = sw.process(&p, t + SimTime::from_millis(1));
        assert!(o2.path == PathTaken::MicroflowHit);
    }

    #[test]
    fn same_step_packets_of_one_flow_all_upcall_then_dedup() {
        // The miss-to-install window: until the step's install flush,
        // every packet of the flow re-upcalls; the batch dedups into a
        // single fresh install (the rest report installed=false).
        let mut sw = bounded_switch(crate::upcall::UpcallPipelineConfig::unbounded());
        let t = SimTime::from_millis(1);
        let p = pkt([10, 1, 1, 1], 1000);
        // Disable the EMC promotion's interference by using distinct
        // exact keys that share one megaflow (/8 allow).
        let q = pkt([10, 2, 2, 2], 2000);
        assert!(sw.process(&p, t).path.is_queued());
        assert!(sw.process(&q, t).path.is_queued(), "install not yet landed");
        let mut installs = Vec::new();
        sw.drain_upcalls(t, |r| {
            if r.outcome.path.is_upcall() {
                installs.push(r.outcome.work.installs == 1);
            }
        });
        assert_eq!(installs, vec![true, false], "one fresh install, one dedup");
        assert_eq!(sw.megaflow_count(), 1);
        assert_eq!(sw.mfc_stats().installs, 1);
    }

    #[test]
    fn full_queue_tail_drops_with_distinct_counters() {
        let mut sw = bounded_switch(crate::upcall::UpcallPipelineConfig {
            queue_capacity: 2,
            handler_cycles_per_step: u64::MAX,
            port_quota_per_step: None,
        });
        let t = SimTime::from_millis(1);
        for i in 0..5u16 {
            let o = sw.process(&pkt([10, 9, (i >> 8) as u8, i as u8], 7000 + i), t);
            if i < 2 {
                assert!(o.path.is_queued());
            } else {
                assert!(o.path.is_upcall_dropped(), "tail drop at capacity");
            }
        }
        let up = sw.upcall_stats();
        assert_eq!(up.enqueued, 2);
        assert_eq!(up.queue_drops, 3);
        assert_eq!(
            sw.stats().policy_drops,
            0,
            "queue drops are not policy drops"
        );
        assert_eq!(sw.stats().upcalls, 0);
        // Drain frees capacity again (an off-net source still misses:
        // the freshly installed /8 allow megaflow does not cover it).
        sw.drain_upcalls(t, |_| {});
        assert_eq!(sw.pipeline.depth_of(POD_VPORT), 0);
        assert!(sw.process(&pkt([200, 8, 8, 8], 9999), t).path.is_queued());
    }

    #[test]
    fn handler_budget_carries_debt_across_steps() {
        // Budget covers exactly one default-cost upcall and overruns:
        // the debt suppresses part of the next step.
        let cost = CostModel::default();
        let one_upcall = cost.cycles_of(&handler_work(2, true, true));
        let mut sw = bounded_switch(crate::upcall::UpcallPipelineConfig {
            queue_capacity: 64,
            handler_cycles_per_step: one_upcall / 2,
            port_quota_per_step: None,
        });
        let t = SimTime::from_millis(1);
        for i in 0..3u16 {
            sw.process(&pkt([10, 9, 0, i as u8], 7000 + i), t);
        }
        assert_eq!(sw.drain_upcalls(t, |_| {}), 1, "budget>0 admits one");
        // Debt ≈ one_upcall/2: the next half-budget step nets ~0.
        assert_eq!(sw.drain_upcalls(t, |_| {}), 0, "carry debt repaid first");
        assert_eq!(sw.drain_upcalls(t, |_| {}), 1);
        assert_eq!(sw.upcall_queue_depth(), 1);
    }

    #[test]
    fn port_quota_defers_over_quota_ports_only() {
        let other_ip = [10, 0, 0, 98];
        let mut sw =
            bounded_switch(crate::upcall::UpcallPipelineConfig::unbounded().with_port_quota(1));
        sw.attach_pod(u32::from_be_bytes(other_ip), 5);
        let t = SimTime::from_millis(1);
        // Three misses for the pod, one for the other port, interleaved
        // so FIFO order alone would serve the pod thrice first.
        sw.process(&pkt([10, 9, 0, 1], 7001), t);
        sw.process(&pkt([10, 9, 0, 2], 7002), t);
        sw.process(&pkt([10, 9, 0, 3], 7003), t);
        sw.process(&FlowKey::tcp([10, 3, 3, 3], other_ip, 1, 1), t);
        let mut served = Vec::new();
        sw.drain_upcalls(t, |r| served.push(r.outcome.output));
        assert_eq!(
            served,
            vec![Some(POD_VPORT), Some(5)],
            "one per port per step under quota"
        );
        assert_eq!(sw.pipeline.depth_of(POD_VPORT), 2);
        assert!(sw.upcall_stats().quota_deferrals >= 1);
        // Next step serves the pod's backlog one at a time.
        sw.drain_upcalls(t, |_| {});
        assert_eq!(sw.pipeline.depth_of(POD_VPORT), 1);
    }

    #[test]
    fn acl_change_discards_staged_installs_and_reclassifies_queued() {
        let mut sw = bounded_switch(crate::upcall::UpcallPipelineConfig::unbounded());
        let t = SimTime::from_millis(1);
        let p = pkt([10, 1, 1, 1], 1000);
        assert!(sw.process(&p, t).path.is_queued());
        // Policy flips to deny-everything while the upcall is pending.
        assert!(sw.install_acl(u32::from_be_bytes(POD_IP), whitelist_with_default_deny(&[])));
        let mut verdicts = Vec::new();
        sw.drain_upcalls(t, |r| verdicts.push(r.outcome.verdict));
        assert_eq!(verdicts, vec![Action::Deny], "classified under the new ACL");
    }

    #[test]
    fn quarantine_evicts_and_refuses_slow_path_in_inline_mode() {
        let mut sw = switch_with_fig2_acl();
        let t = SimTime::from_millis(1);
        let pod_ip = u32::from_be_bytes(POD_IP);
        // Build some megaflows (one allow, one deny mask).
        sw.process(&pkt([10, 1, 1, 1], 1000), t);
        sw.process(&pkt([128, 0, 0, 1], 1), t);
        assert!(sw.megaflow_count() >= 2);
        let evicted = sw.quarantine(pod_ip);
        assert_eq!(evicted, sw.mfc_stats().installs as usize);
        assert_eq!(sw.megaflow_count(), 0, "offender megaflows evicted");
        assert!(sw.is_quarantined(pod_ip));
        assert_eq!(sw.pods.quarantined().collect::<Vec<_>>(), [pod_ip]);
        // Traffic to the quarantined pod is refused cheaply: no upcall,
        // no policy classification, EMC no longer serves stale hits.
        let o = sw.process(&pkt([10, 1, 1, 1], 1000), t + SimTime::from_millis(1));
        assert!(o.path.is_upcall_dropped());
        assert_eq!(o.verdict, Action::Controller);
        assert_eq!(sw.upcall_stats().quarantine_drops, 1);
        assert_eq!(sw.stats().policy_drops, 1, "only the pre-quarantine deny");
        assert_eq!(sw.megaflow_count(), 0, "nothing rebuilt");
        // Release restores normal service.
        assert!(sw.release_quarantine(pod_ip));
        assert!(!sw.release_quarantine(pod_ip));
        let o = sw.process(&pkt([10, 1, 1, 1], 1000), t + SimTime::from_millis(2));
        assert!(o.path.is_upcall());
        assert_eq!(o.verdict, Action::Allow);
    }

    #[test]
    fn quarantine_refuses_before_the_bounded_queue() {
        let mut sw = bounded_switch(crate::upcall::UpcallPipelineConfig::unbounded());
        let t = SimTime::from_millis(1);
        sw.quarantine(u32::from_be_bytes(POD_IP));
        let o = sw.process(&pkt([10, 1, 1, 1], 1000), t);
        assert!(o.path.is_upcall_dropped());
        let up = sw.upcall_stats();
        assert_eq!(up.quarantine_drops, 1);
        assert_eq!(up.enqueued, 0, "never reached a queue");
        assert_eq!(up.queue_drops, 0, "distinct from capacity tail drops");
        assert_eq!(sw.upcall_queue_depth(), 0);
    }

    #[test]
    fn quarantine_refuses_the_backlog_queued_before_it() {
        // Misses queued *before* the quarantine must not resolve into
        // fresh megaflows afterwards — that would rebuild exactly the
        // state the quarantine evicted.
        let mut sw = bounded_switch(crate::upcall::UpcallPipelineConfig::unbounded());
        let t = SimTime::from_millis(1);
        for i in 0..4u16 {
            assert!(sw
                .process(&pkt([10, 9, 0, i as u8 + 1], 7000 + i), t)
                .path
                .is_queued());
        }
        sw.quarantine(u32::from_be_bytes(POD_IP));
        let mut refused = 0;
        sw.drain_upcalls(t, |r| {
            assert!(r.outcome.path.is_upcall_dropped());
            assert_eq!(r.outcome.verdict, Action::Controller);
            refused += 1;
        });
        assert_eq!(refused, 4);
        assert_eq!(sw.megaflow_count(), 0, "backlog must not rebuild megaflows");
        assert_eq!(sw.mask_count(), 0);
        assert_eq!(sw.upcall_stats().quarantine_drops, 4);
        assert_eq!(sw.stats().upcalls, 0, "refusals are not resolutions");
        assert_eq!(sw.upcall_queue_depth(), 0, "queue fully drained");
    }

    #[test]
    fn runtime_quota_and_staged_lookup_knobs() {
        let mut sw = switch_with_fig2_acl();
        // Inline: quota is meaningless.
        assert!(!sw.set_port_quota(Some(4)));
        assert_eq!(sw.config().pipeline, PipelineMode::Inline);
        // Staged lookup toggles live and tracks the config.
        let t = SimTime::from_millis(1);
        assert!(sw.process(&pkt([10, 1, 1, 1], 1000), t).verdict.permits());
        assert!(!sw.config().staged_lookup);
        sw.set_staged_lookup(true);
        assert!(sw.config().staged_lookup);
        let o = sw.process(&pkt([10, 2, 2, 2], 2000), t + SimTime::from_millis(1));
        assert!(o.verdict.permits(), "cache still serves after retrofit");
    }

    #[test]
    fn reattach_preserves_the_installed_acl() {
        // Regression: a vport move (or a buggy double-attach) must not
        // silently replace a deny ACL with a permissive slow path.
        let mut sw = switch_with_fig2_acl();
        let denied = pkt([99, 1, 1, 1], 1);
        assert_eq!(sw.process(&denied, SimTime::ZERO).verdict, Action::Deny);
        // Re-attach the same IP at a new vport: not a fresh attach.
        assert!(!sw.attach_pod(u32::from_be_bytes(POD_IP), 9));
        let o = sw.process(&denied, SimTime::from_millis(1));
        assert_eq!(o.verdict, Action::Deny, "deny rule survives re-attach");
        // Allowed traffic now exits the new vport.
        let o = sw.process(&pkt([10, 1, 1, 1], 7), SimTime::from_millis(1));
        assert_eq!(o.verdict, Action::Allow);
        assert_eq!(o.output, Some(9));
        // A genuinely new IP is a fresh attach.
        assert!(sw.attach_pod(u32::from_be_bytes([10, 0, 0, 50]), 4));
    }

    #[test]
    fn setup_sequence_flushes_coalesce_on_a_clean_cache() {
        // attach_pod → install_acl per pod, many pods: zero generation
        // bumps and zero counted flushes, because nothing was ever
        // cached in between. This is the generation-overflow-free pin.
        let mut sw = VSwitch::new(DpConfig::default());
        for i in 0..64u32 {
            assert!(sw.attach_pod(0x0a00_0100 + i, i + 1));
            assert!(sw.install_acl(0x0a00_0100 + i, whitelist_with_default_deny(&[])));
        }
        assert_eq!(sw.generation, 0, "no generation burned");
        let s = sw.stats();
        assert_eq!(s.cache_flushes, 0);
        assert_eq!(s.flushed_megaflows, 0);
        assert_eq!(s.policy_updates, 128, "updates still counted");
        // Once traffic caches something, the next update really flushes
        // — exactly one generation per effective flush.
        sw.remove_acl(0x0a00_0100);
        sw.process(
            &FlowKey::tcp([10, 1, 1, 1], [10, 0, 1, 0], 5, 5),
            SimTime::ZERO,
        );
        assert_eq!(sw.generation, 0);
        assert!(sw.install_acl(0x0a00_0100, whitelist_with_default_deny(&[])));
        assert_eq!(sw.generation, 1);
        assert_eq!(sw.stats().cache_flushes, 1);
        assert_eq!(sw.stats().flushed_megaflows, 1);
        // And the follow-up update on the again-clean cache coalesces.
        sw.remove_acl(0x0a00_0100);
        assert_eq!(sw.generation, 1);
    }

    #[test]
    fn scoped_invalidation_spares_other_destinations() {
        let other_ip = [10, 0, 0, 98];
        let mut sw = VSwitch::new(DpConfig {
            trie_fields: vec![Field::IpSrc],
            scoped_invalidation: true,
            ..DpConfig::default()
        });
        sw.attach_pod(u32::from_be_bytes(POD_IP), POD_VPORT);
        sw.attach_pod(u32::from_be_bytes(other_ip), 5);
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        );
        sw.install_acl(
            u32::from_be_bytes(POD_IP),
            whitelist_with_default_deny(&[allow]),
        );
        let t = SimTime::from_millis(1);
        // Cache state for both destinations.
        sw.process(&pkt([10, 1, 1, 1], 1000), t);
        sw.process(&FlowKey::tcp([10, 3, 3, 3], other_ip, 1, 1), t);
        assert_eq!(sw.megaflow_count(), 2);
        // Re-installing the pod's ACL evicts only the pod's megaflow.
        assert!(sw.install_acl(
            u32::from_be_bytes(POD_IP),
            whitelist_with_default_deny(&[allow]),
        ));
        assert_eq!(sw.megaflow_count(), 1, "other pod's megaflow survives");
        assert_eq!(sw.stats().flushed_megaflows, 1);
        // The other pod's traffic keeps its *microflow* hit: scoped
        // invalidation evicts only the updated destination's EMC
        // entries, so an unrelated ACL install costs the bystander
        // nothing at all.
        let o = sw.process(&FlowKey::tcp([10, 3, 3, 3], other_ip, 1, 1), t);
        assert!(
            o.path == PathTaken::MicroflowHit,
            "bystander keeps its EMC hit across the unrelated install"
        );
        // The updated pod rebuilds through the slow path as it must —
        // its own EMC entry was evicted along with its megaflows.
        let o = sw.process(&pkt([10, 1, 1, 1], 1000), t);
        assert!(o.path.is_upcall());
        // The runtime knob flips back to global flushes.
        sw.config.scoped_invalidation = false;
        assert!(!sw.config().scoped_invalidation);
        assert!(sw.install_acl(
            u32::from_be_bytes(POD_IP),
            whitelist_with_default_deny(&[allow]),
        ));
        assert_eq!(sw.megaflow_count(), 0, "global flush takes everything");
    }

    #[test]
    fn costed_updates_charge_the_cycle_budget() {
        let mut sw = switch_with_fig2_acl();
        let pod_ip = u32::from_be_bytes(POD_IP);
        let cost = *sw.cost_model();
        let update = |flushed: usize| {
            cost.cycles_of(&Work {
                acl_updates: 1,
                flushed: flushed as u32,
                ..Work::default()
            })
        };
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        );
        // Clean cache: the update costs the fixed share only.
        let o = sw.apply_install_acl(pod_ip, whitelist_with_default_deny(&[allow]));
        assert!(o.applied);
        assert_eq!(o.flushed_megaflows, 0);
        assert_eq!(o.cycles, update(0));
        // Populate two megaflows, then flush them through the costed
        // path: the per-entry teardown is charged.
        let t = SimTime::from_millis(1);
        sw.process(&pkt([10, 1, 1, 1], 1), t);
        sw.process(&pkt([128, 1, 1, 1], 1), t);
        let cached = sw.megaflow_count();
        assert!(cached >= 2);
        let packet_cycles = sw.stats().cycles - o.cycles;
        let o2 = sw.apply_update(PolicyUpdate::RemoveAcl { ip: pod_ip }, true);
        assert!(o2.applied);
        assert!(!o2.scoped);
        assert_eq!(o2.flushed_megaflows, cached);
        assert_eq!(o2.cycles, update(cached));
        let s = sw.stats();
        assert_eq!(s.control_cycles, o.cycles + o2.cycles);
        assert_eq!(s.cycles, packet_cycles + s.control_cycles);
        assert_eq!(s.policy_updates, 2 + 2, "setup install + attach + 2 costed");
        // An update on an unattached IP applies nothing but still
        // costs the control-plane round trip.
        let o3 = sw.apply_update(PolicyUpdate::RemoveAcl { ip: 0xdead_beef }, true);
        assert!(!o3.applied);
        assert_eq!(o3.cycles, update(0));
    }

    #[test]
    fn revalidator_interval_is_configurable() {
        // Construction honours DpConfig::revalidator_interval.
        let mut sw = VSwitch::new(DpConfig {
            revalidator_interval: SimTime::from_millis(250),
            ..DpConfig::default()
        });
        sw.attach_pod(u32::from_be_bytes(POD_IP), POD_VPORT);
        assert_eq!(sw.revalidator.next_due(), SimTime::from_millis(250));
        assert!(sw.revalidate(SimTime::from_millis(249)).is_none());
        assert!(sw.revalidate(SimTime::from_millis(250)).is_some());
        assert_eq!(sw.revalidator.next_due(), SimTime::from_millis(500));
        // The sweep evicts on the idle-timeout boundary, on that grid.
        let p = pkt([10, 1, 1, 1], 1000);
        sw.process(&p, SimTime::from_secs(2));
        assert_eq!(sw.megaflow_count(), 1);
        assert!(sw.revalidate(SimTime::from_secs(12)).is_some());
        assert_eq!(sw.megaflow_count(), 1, "idle == timeout survives");
        assert!(sw.revalidate(SimTime::from_millis(12_250)).is_some());
        assert_eq!(sw.megaflow_count(), 0, "idled out one grid point later");
    }

    #[test]
    fn two_pods_isolated_policies() {
        // The shared-cache property: pod A's ACL masks sit in the same
        // subtable list pod B's traffic walks.
        let mut sw = VSwitch::new(DpConfig {
            trie_fields: vec![Field::IpSrc],
            ..DpConfig::default()
        });
        let a_ip = u32::from_be_bytes([10, 0, 0, 1]);
        let b_ip = u32::from_be_bytes([10, 0, 0, 2]);
        sw.attach_pod(a_ip, 1);
        sw.attach_pod(b_ip, 2);
        // A allows only 10/8; B allows everything (no ACL).
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        );
        sw.install_acl(a_ip, whitelist_with_default_deny(&[allow]));
        // Build masks at A by sending divergent sources.
        for oct in [128u8, 64, 32, 16] {
            let p = FlowKey::tcp([oct, 0, 0, 1], [10, 0, 0, 1], 1, 1);
            assert_eq!(sw.process(&p, SimTime::ZERO).verdict, Action::Deny);
        }
        let masks_after_attack_on_a = sw.mask_count();
        assert_eq!(masks_after_attack_on_a, 4);
        // B's traffic now probes those subtables too (shared cache):
        // a fresh flow to B misses all of A's subtables first.
        let to_b = FlowKey::tcp([172, 16, 0, 1], [10, 0, 0, 2], 5, 5);
        let o = sw.process(&to_b, SimTime::ZERO);
        assert!(o.path.is_upcall());
        assert_eq!(
            o.work.subtables as usize, masks_after_attack_on_a,
            "walked A's masks"
        );
        assert_eq!(o.verdict, Action::Allow);
    }
}
