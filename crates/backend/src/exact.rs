//! [`ExactTable`]: the exact-match backends — an eBPF/Cilium-style
//! connection map ([`BackendKind::ExactHash`]) and a SmartNIC flow
//! offload table with a costed host fallback
//! ([`BackendKind::NicOffload`]).
//!
//! Architecture: one flat exact-match table (the [`FlatTable`]
//! discipline from `pi_classifier`) of `(verdict, last use)` in front of
//! the host policy classifier. A packet either hits its *own flow's*
//! entry — O(1), one probe run, first-level-hit cost — or takes a
//! per-flow setup miss: ground-truth classification on the host CPU
//! (`upcall_fixed` + `per_rule` × rules scanned, inline) plus one
//! install. There is **no wildcard cache**: nothing groups flows by
//! mask, so an injected ACL has no mask space to explode and one
//! tenant's covert stream cannot change another tenant's per-packet
//! probe count. Policy updates and quarantines evict by destination
//! (`flush_per_entry` per evicted flow, the Cilium-style per-identity
//! invalidation); an idle sweep ages entries out.
//!
//! The two kinds differ only in what a full table does with one more
//! flow:
//!
//! * **`exact_hash`** — the map is bounded by `DpConfig::flow_limit`;
//!   beyond it the install is refused and such flows classify
//!   per-packet (OVS's flow-limit behaviour). A churn flood competes
//!   for the same inline CPU budget: there is no bounded queue to shed
//!   it.
//! * **`nic_offload`** — the hardware table holds [`OFFLOAD_CAPACITY`]
//!   flows; beyond it the oldest offloaded flow is evicted (FIFO
//!   replacement, the usual firmware policy). The table is *small and
//!   shared*: a covert stream of fresh flows cycles the FIFO, so victims
//!   periodically re-fault onto the host CPU — capacity degrades in
//!   proportion to eviction pressure rather than collapsing. The
//!   `collision_evictions` counter is the thrash observable the detector
//!   watches.

use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};

use pi_classifier::{Action, FlatTable, PolicyUpdate};
use pi_core::{BuildFoldHasher, FlowKey, KeyWords, SimTime};
use pi_datapath::emc::EmcStats;
use pi_datapath::{
    BackendKind, CostModel, DpConfig, PathTaken, PodTable, PolicyUpdateOutcome, ProcessOutcome,
    ResolvedUpcall, RestartOutcome, SwitchStats, UpcallStats, Work,
};
use pi_mitigation::MaskAttribution;
use pi_trace::Tracer;

use crate::api::{DataplaneBackend, DataplaneStats, DefenseAction};

/// `nic_offload`'s hardware flow-table capacity. Fixed by the modelled
/// NIC, not by the host's `flow_limit` — the asymmetry between a ~2k
/// offload table and a ~200k host cache is exactly what re-exposes the
/// host CPU under churn.
pub const OFFLOAD_CAPACITY: usize = 2048;

/// One cached flow: verdict + last-use stamp for the idle sweep.
type Entry = (Action, SimTime);

/// What a full table does with one more flow.
#[derive(Debug)]
enum FullTable {
    /// `exact_hash`: refuse the install at `flow_limit`.
    Refuse,
    /// `nic_offload`: evict the oldest entry at [`OFFLOAD_CAPACITY`].
    /// One `(hash, key)` record per table entry, oldest first; every
    /// other removal goes through [`ExactTable::retain`], which drops
    /// the removed flows' records, so the deque never outgrows the
    /// table.
    Fifo(VecDeque<(u64, FlowKey)>),
}

/// The exact-match backend. See the module docs for the architecture,
/// its two full-table policies and their threat surface.
#[derive(Debug)]
pub struct ExactTable {
    config: DpConfig,
    cost: CostModel,
    table: FlatTable<Entry>,
    full: FullTable,
    pods: PodTable,
    stats: SwitchStats,
    emc: EmcStats,
    upcall: UpcallStats,
    next_sweep: SimTime,
    tracer: Tracer,
}

impl ExactTable {
    /// Builds the kind `config.backend` names: [`BackendKind::NicOffload`]
    /// gets the FIFO-replaced offload table, any other kind the
    /// `flow_limit`-bounded connection map. Also uses `idle_timeout`,
    /// `revalidator_interval` and `trie_fields`; the EMC and pipeline
    /// knobs have no counterpart here.
    pub fn new(config: DpConfig, cost: CostModel) -> Self {
        let full = match config.backend {
            BackendKind::NicOffload => FullTable::Fifo(VecDeque::new()),
            _ => FullTable::Refuse,
        };
        ExactTable {
            next_sweep: config.revalidator_interval.max(SimTime::from_nanos(1)),
            config,
            cost,
            table: FlatTable::new(),
            full,
            pods: PodTable::new(),
            stats: SwitchStats::default(),
            emc: EmcStats::default(),
            upcall: UpcallStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Caches a classified flow under the full-table policy; returns
    /// whether it was installed.
    fn install(&mut self, hash: u64, key: FlowKey, entry: Entry) -> bool {
        match &mut self.full {
            FullTable::Refuse if self.table.len() >= self.config.flow_limit => return false,
            FullTable::Refuse => {}
            FullTable::Fifo(fifo) => {
                debug_assert_eq!(fifo.len(), self.table.len());
                if self.table.len() >= OFFLOAD_CAPACITY {
                    if let Some((h, k)) = fifo.pop_front() {
                        self.table.remove(h, &k);
                        self.emc.collision_evictions += 1;
                    }
                }
                fifo.push_back((hash, key));
            }
        }
        self.table.insert(hash, key, entry);
        self.emc.inserts += 1;
        true
    }

    /// Keeps the entries `keep` accepts; returns the number removed.
    /// The FIFO drops the records of the removed flows in place, so
    /// replacement order among the survivors is untouched.
    fn retain(&mut self, mut keep: impl FnMut(&FlowKey, &Entry) -> bool) -> usize {
        let before = self.table.len();
        self.table.retain(|k, e| keep(k, e));
        let removed = before - self.table.len();
        if let FullTable::Fifo(fifo) = &mut self.full {
            if removed > 0 {
                let table = &self.table;
                fifo.retain(|(h, k)| table.get(*h, k).is_some());
            }
        }
        removed
    }

    /// Evicts the flows towards `ip` and does the shared flush
    /// bookkeeping. Scoped by construction: exact entries know their
    /// destination, so there is no wholesale flush to fall back on.
    fn evict_destination(&mut self, ip: u32) -> usize {
        let evicted = self.retain(|k, _| k.ip_dst != ip);
        if evicted > 0 {
            self.stats.cache_flushes += 1;
            self.stats.flushed_megaflows += evicted as u64;
        }
        evicted
    }

    fn process_with(&mut self, key: &FlowKey, now: SimTime) -> ProcessOutcome {
        self.stats.packets += 1;
        let hash = KeyWords::of(key).full_hash();
        // Every packet is parsed and probes the table.
        let work = Work {
            parses: 1,
            emc_probes: 1,
            ..Work::default()
        };

        // Level 1: the table (a NIC hit never touches the host CPU).
        if let Some((action, last_used)) = self.table.get_mut(hash, key) {
            *last_used = now;
            let action = *action;
            self.emc.hits += 1;
            self.stats.microflow_hits += 1;
            let output = if action.permits() {
                self.pods.get(key.ip_dst).map(|p| p.vport)
            } else {
                None
            };
            return self.finish(action, output, PathTaken::MicroflowHit, work);
        }
        self.emc.misses += 1;

        // Quarantine gate: a miss towards a quarantined destination is
        // refused classification outright.
        if self.pods.is_quarantined(key.ip_dst) {
            self.upcall.quarantine_drops += 1;
            return self.finish(Action::Controller, None, PathTaken::UpcallDropped, work);
        }

        // Per-flow setup: ground-truth classification, then the install
        // under the full-table policy (`installed` prices the map insert
        // or the firmware round trip).
        let (action, rules_examined, output) = self.pods.classify(key);
        let installed = self.install(hash, *key, (action, now));
        self.stats.upcalls += 1;
        let setup = Work {
            upcalls: 1,
            rules: rules_examined as u32,
            installs: u32::from(installed),
            ..work
        };
        self.finish(action, output, PathTaken::Upcall, setup)
    }

    /// Prices and books one packet. A rendered verdict that delivers
    /// nowhere is a policy drop; a refused miss renders none.
    fn finish(
        &mut self,
        verdict: Action,
        output: Option<u32>,
        path: PathTaken,
        work: Work,
    ) -> ProcessOutcome {
        if output.is_none() && !path.is_upcall_dropped() {
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
}

impl DataplaneBackend for ExactTable {
    fn config(&self) -> &DpConfig {
        &self.config
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn apply_update(&mut self, update: PolicyUpdate, charged: bool) -> PolicyUpdateOutcome {
        let change = self.pods.apply(update, &self.config.trie_fields);
        // A fresh attach may shadow a cached unroutable-deny entry.
        let flushed = change.touched.map_or(0, |ip| self.evict_destination(ip));
        let work = charged.then_some(Work {
            acl_updates: 1,
            flushed: flushed as u32,
            ..Work::default()
        });
        change.settle(
            flushed,
            true,
            work,
            &self.cost,
            &mut self.stats,
            &self.tracer,
        )
    }

    fn process_batch(
        &mut self,
        keys: &[FlowKey],
        now: SimTime,
        sink: &mut dyn FnMut(usize, ProcessOutcome) -> bool,
    ) -> usize {
        for (i, key) in keys.iter().enumerate() {
            let outcome = self.process_with(key, now);
            if !sink(i, outcome) {
                return i + 1;
            }
        }
        keys.len()
    }

    fn drain_upcalls(&mut self, _now: SimTime, _sink: &mut dyn FnMut(ResolvedUpcall)) -> usize {
        0 // everything resolves inline; there is no deferred pipeline
    }

    fn revalidate(&mut self, now: SimTime) {
        if now < self.next_sweep {
            return;
        }
        let interval = self.config.revalidator_interval.max(SimTime::from_nanos(1));
        while self.next_sweep <= now {
            self.next_sweep += interval;
        }
        let idle_timeout = self.config.idle_timeout;
        self.retain(|_, (_, last_used)| *last_used + idle_timeout > now);
    }

    fn next_background_event(&self, _now: SimTime) -> Option<SimTime> {
        // A sweep over an empty table evicts nothing and (because the
        // deadline catches up by grid arithmetic) leaves the next
        // deadline exactly where a skipped call would.
        (!self.table.is_empty()).then_some(self.next_sweep)
    }

    fn snapshot(&self) -> DataplaneStats {
        DataplaneStats {
            switch: self.stats,
            emc: self.emc,
            upcall: self.upcall,
            masks: 0, // no wildcard cache: there is no mask space to explode
            megaflows: self.table.len(),
            upcall_backlog: 0,
        }
    }

    /// Entries grouped by destination. Every exact entry carries the
    /// same all-exact mask, so each populated destination reports
    /// `masks == 1` — mask-threshold offender detection correctly never
    /// fires; occupancy pressure shows up in `entries` instead. Sorted
    /// by entries descending, then destination.
    fn attribution(&self) -> Vec<MaskAttribution> {
        let mut per_dst: HashMap<u32, usize, BuildFoldHasher> = HashMap::default();
        for (k, _) in self.table.iter() {
            *per_dst.entry(k.ip_dst).or_default() += 1;
        }
        let mut out: Vec<MaskAttribution> = per_dst
            .into_iter()
            .map(|(ip_dst, entries)| MaskAttribution {
                ip_dst,
                masks: 1,
                entries,
            })
            .collect();
        out.sort_by_key(|a| (Reverse(a.entries), a.ip_dst));
        out
    }

    fn crash_restart(&mut self) -> RestartOutcome {
        // The restarted host reprograms the table from scratch.
        let flows_lost = self.retain(|_, _| false);
        let (acls_lost, quarantines_lost) = self.pods.crash_reset();
        RestartOutcome {
            acls_lost,
            flows_lost,
            upcalls_lost: 0, // everything resolves inline; nothing queued
            quarantines_lost,
        }
    }

    fn installed_acl_ips(&self) -> Vec<u32> {
        self.pods.acl_ips()
    }

    fn actuate(&mut self, action: DefenseAction) -> bool {
        match action {
            // No deferred pipeline to meter, no tuple-space walk to stage.
            DefenseAction::SetPortQuota(_) | DefenseAction::SetStagedLookup(_) => false,
            DefenseAction::Quarantine(ip) => {
                self.pods.quarantine(ip);
                self.evict_destination(ip);
                true
            }
            DefenseAction::ReleaseQuarantine(ip) => self.pods.release_quarantine(ip),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::process_one;
    use pi_classifier::table::whitelist_with_default_deny;
    use pi_core::{Field, FlowMask, MaskedKey};

    const POD_IP: [u8; 4] = [10, 0, 0, 99];
    const KINDS: [BackendKind; 2] = [BackendKind::ExactHash, BackendKind::NicOffload];

    fn backend(kind: BackendKind, flow_limit: usize) -> ExactTable {
        let config = DpConfig {
            backend: kind,
            flow_limit,
            ..DpConfig::default()
        };
        ExactTable::new(config, CostModel::default())
    }

    fn backend_with_fig2_acl(kind: BackendKind) -> ExactTable {
        let mut be = backend(kind, DpConfig::default().flow_limit);
        be.attach_pod(u32::from_be_bytes(POD_IP), 3);
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        );
        be.install_acl(
            u32::from_be_bytes(POD_IP),
            whitelist_with_default_deny(&[allow]),
        );
        be
    }

    fn pkt(src: [u8; 4], tp_src: u16) -> FlowKey {
        FlowKey::tcp(src, POD_IP, tp_src, 5201)
    }

    fn covert(i: u32) -> FlowKey {
        FlowKey::tcp(
            [172, (i >> 8) as u8, i as u8, 1],
            POD_IP,
            (i % 60_000) as u16 + 1,
            5201,
        )
    }

    fn fifo_len(be: &ExactTable) -> usize {
        match &be.full {
            FullTable::Fifo(fifo) => fifo.len(),
            FullTable::Refuse => unreachable!("only nic_offload keeps a FIFO"),
        }
    }

    #[test]
    fn first_packet_classifies_then_exact_hits() {
        for kind in KINDS {
            let mut be = backend_with_fig2_acl(kind);
            let t = SimTime::from_millis(1);
            let p = pkt([10, 1, 1, 1], 1000);
            let o1 = process_one(&mut be, &p, t);
            assert!(o1.path.is_upcall(), "{kind}");
            assert_eq!(o1.verdict, Action::Allow, "{kind}");
            assert_eq!(o1.output, Some(3), "{kind}");
            let o2 = process_one(&mut be, &p, t);
            assert_eq!(o2.path, PathTaken::MicroflowHit, "{kind}");
            assert!(o2.cycles < o1.cycles, "{kind}");
            assert_eq!(be.snapshot().switch.packets, 2, "{kind}");
            assert_eq!(be.snapshot().megaflows, 1, "{kind}");
            assert_eq!(be.snapshot().masks, 0, "{kind}: no wildcard cache exists");
        }
    }

    #[test]
    fn deny_verdicts_are_cached_too() {
        for kind in KINDS {
            let mut be = backend_with_fig2_acl(kind);
            let bad = pkt([99, 1, 1, 1], 1);
            let o = process_one(&mut be, &bad, SimTime::ZERO);
            assert_eq!(o.verdict, Action::Deny, "{kind}");
            assert_eq!(o.output, None, "{kind}");
            assert_eq!(be.snapshot().switch.policy_drops, 1, "{kind}");
            let o = process_one(&mut be, &bad, SimTime::ZERO);
            assert_eq!(
                o.path,
                PathTaken::MicroflowHit,
                "{kind}: an exact hit next time"
            );
            assert_eq!(o.verdict, Action::Deny, "{kind}");
            assert_eq!(o.output, None, "{kind}");
        }
    }

    #[test]
    fn policy_update_evicts_only_that_destination() {
        for kind in KINDS {
            let mut be = backend_with_fig2_acl(kind);
            let other = u32::from_be_bytes([10, 0, 0, 98]);
            be.attach_pod(other, 5);
            let t = SimTime::from_millis(1);
            process_one(&mut be, &pkt([10, 1, 1, 1], 1000), t);
            let bystander = FlowKey::tcp([10, 3, 3, 3], [10, 0, 0, 98], 1, 1);
            process_one(&mut be, &bystander, t);
            assert_eq!(be.snapshot().megaflows, 2, "{kind}");
            let ip = u32::from_be_bytes(POD_IP);
            let o = be.apply_update(PolicyUpdate::RemoveAcl { ip }, true);
            assert!(o.applied && o.scoped, "{kind}");
            assert_eq!(
                o.flushed_megaflows, 1,
                "{kind}: only the updated pod's entry"
            );
            let ob = process_one(&mut be, &bystander, t);
            assert_eq!(
                ob.path,
                PathTaken::MicroflowHit,
                "{kind}: bystander keeps its entry"
            );
        }
    }

    #[test]
    fn idle_sweep_evicts_stale_entries() {
        for kind in KINDS {
            let mut be = backend_with_fig2_acl(kind);
            process_one(&mut be, &pkt([10, 1, 1, 1], 1000), SimTime::from_millis(1));
            assert_eq!(be.snapshot().megaflows, 1, "{kind}");
            be.revalidate(SimTime::from_secs(15));
            assert_eq!(be.snapshot().megaflows, 0, "{kind}: idle timeout enforced");
        }
    }

    #[test]
    fn covert_stream_does_not_change_victim_cost() {
        // The tuple-space explosion's signature is absent: after
        // thousands of unique covert flows, an established flow's
        // per-packet cost is still one exact probe.
        let mut be = backend_with_fig2_acl(BackendKind::ExactHash);
        let t = SimTime::from_millis(1);
        let victim = pkt([10, 1, 1, 1], 1000);
        process_one(&mut be, &victim, t);
        let before = process_one(&mut be, &victim, t).cycles;
        for i in 0..4096u32 {
            process_one(&mut be, &covert(i), t);
        }
        let after = process_one(&mut be, &victim, t).cycles;
        assert_eq!(before, after, "victim cost is attack-invariant");
        assert_eq!(be.snapshot().masks, 0);
    }

    #[test]
    fn flow_limit_refuses_installs_but_still_classifies() {
        let mut be = backend(BackendKind::ExactHash, 2);
        be.attach_pod(u32::from_be_bytes(POD_IP), 3);
        for i in 0..4u16 {
            let o = process_one(
                &mut be,
                &pkt([10, 1, 1, i as u8 + 1], 1000 + i),
                SimTime::ZERO,
            );
            assert_eq!(o.verdict, Action::Allow, "verdict sound past the limit");
            assert!(o.path.is_upcall() && (o.work.installs == 1) == (i < 2));
        }
        assert_eq!(be.snapshot().megaflows, 2, "map bounded by flow_limit");
        assert_eq!(be.snapshot().emc.inserts, 2, "refusals insert nothing");
        assert_eq!(be.snapshot().emc.collision_evictions, 0);
    }

    #[test]
    fn table_is_hardware_bounded_with_fifo_replacement() {
        let mut be = backend_with_fig2_acl(BackendKind::NicOffload);
        let t = SimTime::from_millis(1);
        let victim = pkt([10, 1, 1, 1], 1000);
        process_one(&mut be, &victim, t);
        // A covert churn of fresh flows cycles the FIFO...
        for i in 0..OFFLOAD_CAPACITY as u32 {
            process_one(&mut be, &covert(i), t);
        }
        assert_eq!(be.snapshot().megaflows, OFFLOAD_CAPACITY, "hardware bound");
        assert_eq!(
            be.snapshot().emc.collision_evictions,
            1,
            "thrash observable counts"
        );
        // ...and the victim (oldest flow) was evicted: it re-faults onto
        // the host CPU — the partial vulnerability of this architecture.
        let o = process_one(&mut be, &victim, t);
        assert!(o.path.is_upcall(), "victim re-faults after FIFO eviction");
    }

    #[test]
    fn evicted_flows_give_up_their_fifo_slot() {
        let mut be = backend_with_fig2_acl(BackendKind::NicOffload);
        let other = u32::from_be_bytes([10, 0, 0, 98]);
        be.attach_pod(other, 5);
        let t = SimTime::from_millis(1);
        // The victim (towards the *other* pod) offloads first, then 100
        // covert flows queue behind it.
        let victim = FlowKey::tcp([10, 3, 3, 3], [10, 0, 0, 98], 1, 1);
        process_one(&mut be, &victim, t);
        for i in 0..100 {
            process_one(&mut be, &covert(i), t);
        }
        // A policy update at the other pod evicts the victim's entry and
        // with it the FIFO record at the queue front; the flow then
        // re-offloads *behind* the coverts.
        let o = be.apply_update(PolicyUpdate::RemoveAcl { ip: other }, true);
        assert_eq!(o.flushed_megaflows, 1);
        process_one(&mut be, &victim, t);
        // Fill to capacity and force one eviction: the replacement must
        // take the oldest flow still offloaded (the first covert), not
        // the victim at its old queue position.
        for i in 100..OFFLOAD_CAPACITY as u32 + 1 {
            process_one(&mut be, &covert(i), t);
        }
        assert_eq!(be.snapshot().megaflows, OFFLOAD_CAPACITY);
        assert_eq!(
            process_one(&mut be, &victim, t).path,
            PathTaken::MicroflowHit,
            "re-offloaded flow queues at its new position"
        );
        assert!(
            process_one(&mut be, &covert(0), t).path.is_upcall(),
            "the oldest offloaded flow was the one evicted"
        );
    }

    #[test]
    fn fifo_stays_bounded_under_sub_capacity_churn() {
        // Short-lived flows in bursts of half the table, each burst
        // idled out by a sweep before the next: the table never fills,
        // so FIFO replacement never runs. 20x the capacity passes
        // through in total.
        let mut be = backend_with_fig2_acl(BackendKind::NicOffload);
        let idle = be.config().idle_timeout;
        let burst = OFFLOAD_CAPACITY as u32 / 2;
        let mut now = SimTime::from_millis(1);
        for round in 0..40u32 {
            for i in 0..burst {
                process_one(&mut be, &covert(round * burst + i), now);
            }
            assert_eq!(be.snapshot().megaflows, burst as usize);
            assert_eq!(fifo_len(&be), burst as usize, "one record per entry");
            now += idle + SimTime::from_secs(1);
            be.revalidate(now);
            assert_eq!(be.snapshot().megaflows, 0, "burst idled out");
            assert_eq!(fifo_len(&be), 0, "swept flows leave no records");
        }
        assert_eq!(
            be.snapshot().emc.collision_evictions,
            0,
            "never at capacity"
        );
        // Policy-update eviction and a crash trim the same way.
        process_one(&mut be, &covert(0), now);
        be.remove_acl(u32::from_be_bytes(POD_IP));
        assert_eq!(fifo_len(&be), 0);
        process_one(&mut be, &covert(1), now);
        assert_eq!(be.crash_restart().flows_lost, 1);
        assert_eq!(fifo_len(&be), 0);
    }
}
