//! [`NicOffload`]: a SmartNIC flow-offload model with a costed host
//! fallback.
//!
//! Architecture: a **hardware-bounded** exact-match offload table (the
//! Mellanox/ConnectX `flower`-offload shape) in front of the host slow
//! path. Offloaded flows forward at first-level-hit cost; everything
//! else falls back to the host CPU for a full classification and is
//! then programmed into the NIC, evicting the oldest offloaded flow
//! once the table is full (FIFO replacement, the usual firmware
//! policy).
//!
//! The threat surface sits between the exact-hash and OVS extremes:
//! there is still no wildcard mask space to explode, but the offload
//! table is *small and shared*. A covert stream of fresh flows cycles
//! the FIFO, evicting benign tenants' offloaded flows, so victims
//! periodically re-fault onto the host CPU — capacity degrades in
//! proportion to eviction pressure rather than collapsing. The
//! `collision_evictions` counter is the thrash observable the detector
//! watches.

use std::collections::VecDeque;

use pi_classifier::{Action, FlatTable, PolicyUpdate};
use pi_core::{FlowKey, KeyWords, SimTime};
use pi_datapath::emc::EmcStats;
use pi_datapath::{
    CostModel, DpConfig, PathTaken, PodTable, PolicyUpdateOutcome, ProcessOutcome, ResolvedUpcall,
    RestartOutcome, SwitchStats, UpcallStats,
};
use pi_mitigation::MaskAttribution;
use pi_trace::Tracer;

use crate::api::{DataplaneBackend, DataplaneStats, DefenseAction};

/// Hardware flow-table capacity. Fixed by the modelled NIC, not by the
/// host's `flow_limit` — the asymmetry between a ~2k offload table and
/// a ~200k host cache is exactly what re-exposes the host CPU under
/// churn.
pub const OFFLOAD_CAPACITY: usize = 2048;

/// One offloaded flow: verdict + last-use stamp for the idle sweep.
type Entry = (Action, SimTime);

/// The SmartNIC-offload backend. See the module docs for the
/// architecture and its threat surface.
#[derive(Debug)]
pub struct NicOffload {
    config: DpConfig,
    cost: CostModel,
    table: FlatTable<Entry>,
    /// Insertion order for FIFO replacement: one `(hash, key)` record
    /// per table entry, oldest first. Whatever removes entries from the
    /// table drops their records too ([`NicOffload::retain`]), so the
    /// deque never outgrows [`OFFLOAD_CAPACITY`].
    fifo: VecDeque<(u64, FlowKey)>,
    pods: PodTable,
    stats: SwitchStats,
    emc: EmcStats,
    upcall: UpcallStats,
    next_sweep: SimTime,
    tracer: Tracer,
}

impl NicOffload {
    /// Builds the backend from a datapath config (uses `idle_timeout`,
    /// `revalidator_interval` and `trie_fields`; the table size is the
    /// hardware constant [`OFFLOAD_CAPACITY`]).
    pub fn new(config: DpConfig, cost: CostModel) -> Self {
        let next_sweep = config.revalidator_interval.max(SimTime::from_nanos(1));
        NicOffload {
            config,
            cost,
            table: FlatTable::new(),
            fifo: VecDeque::new(),
            pods: PodTable::new(),
            stats: SwitchStats::default(),
            emc: EmcStats::default(),
            upcall: UpcallStats::default(),
            next_sweep,
            tracer: Tracer::disabled(),
        }
    }

    /// Programs a flow into the offload table, FIFO-evicting the oldest
    /// offloaded flow if the hardware table is full.
    fn offload(&mut self, hash: u64, key: FlowKey, action: Action, now: SimTime) {
        debug_assert_eq!(self.fifo.len(), self.table.len());
        if self.table.len() >= OFFLOAD_CAPACITY {
            if let Some((h, k)) = self.fifo.pop_front() {
                self.table.remove(h, &k);
                self.emc.collision_evictions += 1;
            }
        }
        self.table.insert(hash, key, (action, now));
        self.fifo.push_back((hash, key));
        self.emc.inserts += 1;
    }

    /// Keeps the offloaded flows `keep` accepts and drops the FIFO
    /// records of the rest (in place, so replacement order among the
    /// survivors is untouched). Returns the number removed.
    fn retain(&mut self, mut keep: impl FnMut(&FlowKey, &Entry) -> bool) -> usize {
        let before = self.table.len();
        self.table.retain(|k, e| keep(k, e));
        let removed = before - self.table.len();
        if removed > 0 {
            let table = &self.table;
            self.fifo.retain(|(h, k)| table.get(*h, k).is_some());
        }
        removed
    }

    /// Evicts the offloaded flows towards `ip` plus the shared flush
    /// bookkeeping (scoped by construction, like every exact-match
    /// structure).
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

        // Hardware hit: forwarded without touching the host CPU.
        if let Some((action, last_used)) = self.table.get_mut(hash, key) {
            *last_used = now;
            let action = *action;
            self.emc.hits += 1;
            self.stats.microflow_hits += 1;
            let path = PathTaken::MicroflowHit;
            let cycles = self.cost.packet_cycles(&path);
            self.stats.cycles += cycles;
            let output = if action.permits() {
                self.pods.get(key.ip_dst).map(|p| p.vport)
            } else {
                None
            };
            if output.is_none() {
                self.stats.policy_drops += 1;
            }
            return ProcessOutcome {
                verdict: action,
                output,
                path,
                cycles,
            };
        }
        self.emc.misses += 1;

        // Host fallback refuses quarantined destinations outright.
        if self.pods.is_quarantined(key.ip_dst) {
            self.upcall.quarantine_drops += 1;
            let path = PathTaken::UpcallDropped {
                probes: 0,
                stage_checks: 0,
                emc_probed: true,
            };
            let cycles = self.cost.packet_cycles(&path);
            self.stats.cycles += cycles;
            return ProcessOutcome {
                verdict: Action::Controller,
                output: None,
                path,
                cycles,
            };
        }

        // Host fallback: full classification on the host CPU, then the
        // NIC is programmed with the result (`installed` prices the
        // firmware round trip).
        let (action, rules_examined, output) = self.pods.classify(key);
        self.offload(hash, *key, action, now);
        self.stats.upcalls += 1;
        if output.is_none() {
            self.stats.policy_drops += 1;
        }
        let path = PathTaken::Upcall {
            probes: 0,
            stage_checks: 0,
            rules_examined,
            installed: true,
            emc_probed: true,
            emc_inserted: false,
        };
        let cycles = self.cost.packet_cycles(&path);
        self.stats.cycles += cycles;
        ProcessOutcome {
            verdict: action,
            output,
            path,
            cycles,
        }
    }
}

impl DataplaneBackend for NicOffload {
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
        // A fresh attach may shadow an offloaded unroutable-deny entry.
        let flushed = change.touched.map_or(0, |ip| self.evict_destination(ip));
        let cycles = charged.then(|| self.cost.control_update_cycles(flushed));
        change.settle(flushed, true, cycles, &mut self.stats, &self.tracer)
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
        0 // the host fallback resolves inline
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
        if self.table.is_empty() {
            None // empty sweeps are no-ops; the deadline self-corrects
        } else {
            Some(self.next_sweep)
        }
    }

    fn snapshot(&self) -> DataplaneStats {
        DataplaneStats {
            switch: self.stats,
            emc: self.emc,
            upcall: self.upcall,
            masks: 0, // exact offload entries: no mask space to explode
            megaflows: self.table.len(),
            upcall_backlog: 0,
        }
    }

    fn attribution(&self) -> Vec<MaskAttribution> {
        crate::host::attribute_exact(self.table.iter().map(|(k, _)| k))
    }

    fn crash_restart(&mut self) -> RestartOutcome {
        // A host restart reprograms the NIC from scratch: the offload
        // table and its FIFO replacement record go together.
        let flows_lost = self.table.len();
        self.table = FlatTable::new();
        self.fifo.clear();
        let (acls_lost, quarantines_lost) = self.pods.crash_reset();
        RestartOutcome {
            acls_lost,
            flows_lost,
            upcalls_lost: 0,
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
    use pi_classifier::table::whitelist_with_default_deny;
    use pi_core::{Field, FlowMask, MaskedKey};

    const POD_IP: [u8; 4] = [10, 0, 0, 99];

    fn backend_with_fig2_acl() -> NicOffload {
        let mut be = NicOffload::new(DpConfig::default(), CostModel::default());
        be.attach_pod(u32::from_be_bytes(POD_IP), 3);
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        );
        DataplaneBackend::install_acl(
            &mut be,
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

    #[test]
    fn miss_offloads_then_hardware_hits() {
        let mut be = backend_with_fig2_acl();
        let t = SimTime::from_millis(1);
        let p = pkt([10, 1, 1, 1], 1000);
        let o1 = crate::api::process_one(&mut be, &p, t);
        assert!(o1.path.is_upcall());
        assert_eq!(o1.verdict, Action::Allow);
        let o2 = crate::api::process_one(&mut be, &p, t);
        assert!(o2.path.is_microflow());
        assert!(o2.cycles < o1.cycles);
        assert_eq!(be.snapshot().megaflows, 1);
    }

    #[test]
    fn table_is_hardware_bounded_with_fifo_replacement() {
        let mut be = backend_with_fig2_acl();
        let t = SimTime::from_millis(1);
        let victim = pkt([10, 1, 1, 1], 1000);
        crate::api::process_one(&mut be, &victim, t);
        // A covert churn of fresh flows cycles the FIFO...
        for i in 0..OFFLOAD_CAPACITY as u32 {
            crate::api::process_one(&mut be, &covert(i), t);
        }
        assert_eq!(be.snapshot().megaflows, OFFLOAD_CAPACITY, "hardware bound");
        assert!(
            be.snapshot().emc.collision_evictions > 0,
            "thrash observable counts"
        );
        // ...and the victim (oldest flow) was evicted: it re-faults onto
        // the host CPU — the partial vulnerability of this architecture.
        let o = crate::api::process_one(&mut be, &victim, t);
        assert!(o.path.is_upcall(), "victim re-faults after FIFO eviction");
    }

    #[test]
    fn evicted_flows_give_up_their_fifo_slot() {
        let mut be = backend_with_fig2_acl();
        let other = u32::from_be_bytes([10, 0, 0, 98]);
        be.attach_pod(other, 5);
        let t = SimTime::from_millis(1);
        // The victim (towards the *other* pod) offloads first, then 100
        // covert flows queue behind it.
        let victim = FlowKey::tcp([10, 3, 3, 3], [10, 0, 0, 98], 1, 1);
        crate::api::process_one(&mut be, &victim, t);
        for i in 0..100 {
            crate::api::process_one(&mut be, &covert(i), t);
        }
        // A policy update at the other pod evicts the victim's entry and
        // with it the FIFO record at the queue front; the flow then
        // re-offloads *behind* the coverts.
        assert_eq!(
            be.apply_update(PolicyUpdate::RemoveAcl { ip: other }, true)
                .flushed_megaflows,
            1
        );
        crate::api::process_one(&mut be, &victim, t);
        // Fill to capacity and force one eviction: the replacement must
        // take the oldest flow still offloaded (the first covert), not
        // the victim at its old queue position.
        for i in 100..OFFLOAD_CAPACITY as u32 + 1 {
            crate::api::process_one(&mut be, &covert(i), t);
        }
        assert_eq!(be.snapshot().megaflows, OFFLOAD_CAPACITY);
        assert!(
            crate::api::process_one(&mut be, &victim, t)
                .path
                .is_microflow(),
            "re-offloaded flow queues at its new position"
        );
        assert!(
            crate::api::process_one(&mut be, &covert(0), t)
                .path
                .is_upcall(),
            "the oldest offloaded flow was the one evicted"
        );
    }

    #[test]
    fn policy_update_evicts_only_that_destination() {
        let mut be = backend_with_fig2_acl();
        let other = u32::from_be_bytes([10, 0, 0, 98]);
        be.attach_pod(other, 5);
        let t = SimTime::from_millis(1);
        crate::api::process_one(&mut be, &pkt([10, 1, 1, 1], 1000), t);
        let bystander = FlowKey::tcp([10, 3, 3, 3], [10, 0, 0, 98], 1, 1);
        crate::api::process_one(&mut be, &bystander, t);
        let o = be.apply_update(
            PolicyUpdate::RemoveAcl {
                ip: u32::from_be_bytes(POD_IP),
            },
            true,
        );
        assert!(o.applied && o.scoped);
        assert_eq!(o.flushed_megaflows, 1);
        let ob = crate::api::process_one(&mut be, &bystander, t);
        assert!(ob.path.is_microflow(), "bystander keeps its offload entry");
    }

    #[test]
    fn idle_sweep_evicts_stale_offloads() {
        let mut be = backend_with_fig2_acl();
        crate::api::process_one(&mut be, &pkt([10, 1, 1, 1], 1000), SimTime::from_millis(1));
        be.revalidate(SimTime::from_secs(15));
        assert_eq!(be.snapshot().megaflows, 0, "idle timeout enforced");
    }

    #[test]
    fn fifo_stays_bounded_under_sub_capacity_churn() {
        // Short-lived flows in bursts of half the table, each burst
        // idled out by a sweep before the next: the table never fills,
        // so FIFO replacement — once the only thing that trimmed the
        // deque — never runs. 20x the capacity passes through in total.
        let mut be = backend_with_fig2_acl();
        let idle = be.config().idle_timeout;
        let burst = OFFLOAD_CAPACITY as u32 / 2;
        let mut now = SimTime::from_millis(1);
        for round in 0..40u32 {
            for i in 0..burst {
                crate::api::process_one(&mut be, &covert(round * burst + i), now);
            }
            assert_eq!(be.snapshot().megaflows, burst as usize);
            assert_eq!(be.fifo.len(), burst as usize, "one record per entry");
            now += idle + SimTime::from_secs(1);
            be.revalidate(now);
            assert_eq!(be.snapshot().megaflows, 0, "burst idled out");
            assert!(be.fifo.is_empty(), "swept flows leave no records");
        }
        assert_eq!(
            be.snapshot().emc.collision_evictions,
            0,
            "never at capacity"
        );
        // Policy-update eviction trims the same way.
        crate::api::process_one(&mut be, &covert(0), now);
        be.remove_acl(u32::from_be_bytes(POD_IP));
        assert!(be.fifo.is_empty());
    }

    #[test]
    fn deny_verdicts_are_offloaded_too() {
        let mut be = backend_with_fig2_acl();
        let bad = pkt([99, 1, 1, 1], 1);
        let o = crate::api::process_one(&mut be, &bad, SimTime::ZERO);
        assert_eq!(o.verdict, Action::Deny);
        let o = crate::api::process_one(&mut be, &bad, SimTime::ZERO);
        assert!(o.path.is_microflow());
        assert_eq!(o.verdict, Action::Deny);
        assert_eq!(o.output, None);
    }
}
