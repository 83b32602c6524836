//! [`ExactHash`]: an eBPF/Cilium-style exact-match hash pipeline.
//!
//! Architecture: one flat exact-match connection map (the
//! [`FlatTable`] discipline from `pi_classifier`) in front of the
//! host policy classifier. A packet either hits its *own flow's* entry
//! — O(1), one probe run — or takes a per-flow setup miss: ground-truth
//! classification plus one map insert. There is **no wildcard cache**:
//! nothing in the datapath groups flows by mask, so an injected ACL has
//! no mask space to explode and one tenant's covert stream cannot
//! change another tenant's per-packet probe count.
//!
//! What the architecture still pays for:
//!
//! * **per-flow setup** — every new flow costs a full classification
//!   (`upcall_fixed` + `per_rule` × rules scanned) inline; a churn
//!   flood competes for the same CPU budget (no bounded queue to
//!   shed it),
//! * **map occupancy** — the map is bounded by `flow_limit`; beyond it,
//!   flows are classified per-packet (install refused, like OVS's
//!   flow-limit behaviour),
//! * **policy updates** — destination-scoped eviction walks the map
//!   (`flush_per_entry` per evicted flow), the Cilium-style per-identity
//!   invalidation.

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

/// One cached connection: verdict + LRU stamp for the idle sweep.
type Entry = (Action, SimTime);

/// The exact-match hash backend. See the module docs for the
/// architecture and its threat surface.
#[derive(Debug)]
pub struct ExactHash {
    config: DpConfig,
    cost: CostModel,
    table: FlatTable<Entry>,
    pods: PodTable,
    stats: SwitchStats,
    emc: EmcStats,
    upcall: UpcallStats,
    next_sweep: SimTime,
    tracer: Tracer,
}

impl ExactHash {
    /// Builds the backend from a datapath config (uses `flow_limit`,
    /// `idle_timeout`, `revalidator_interval` and `trie_fields`; the
    /// EMC and pipeline knobs have no counterpart here).
    pub fn new(config: DpConfig, cost: CostModel) -> Self {
        let next_sweep = config.revalidator_interval.max(SimTime::from_nanos(1));
        ExactHash {
            config,
            cost,
            table: FlatTable::new(),
            pods: PodTable::new(),
            stats: SwitchStats::default(),
            emc: EmcStats::default(),
            upcall: UpcallStats::default(),
            next_sweep,
            tracer: Tracer::disabled(),
        }
    }

    /// Evicts the connections towards `ip` and does the shared flush
    /// bookkeeping. Scoped by construction: exact entries know their
    /// destination, so there is no wholesale flush to fall back on.
    fn evict_destination(&mut self, ip: u32) -> usize {
        let before = self.table.len();
        self.table.retain(|k, _| k.ip_dst != ip);
        let evicted = before - self.table.len();
        if evicted > 0 {
            self.stats.cache_flushes += 1;
            self.stats.flushed_megaflows += evicted as u64;
        }
        evicted
    }

    fn process_with(&mut self, key: &FlowKey, now: SimTime) -> ProcessOutcome {
        self.stats.packets += 1;
        let hash = KeyWords::of(key).full_hash();

        // Level 1: the connection map.
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

        // Quarantine gate: a map miss towards a quarantined destination
        // is refused classification outright.
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

        // Per-flow setup: ground-truth classification, then the map
        // insert (refused at the flow limit — such flows classify
        // per-packet, they never wedge the map).
        let (action, rules_examined, output) = self.pods.classify(key);
        let installed = self.table.len() < self.config.flow_limit;
        if installed {
            self.table.insert(hash, *key, (action, now));
            self.emc.inserts += 1;
        }
        self.stats.upcalls += 1;
        if output.is_none() {
            self.stats.policy_drops += 1;
        }
        let path = PathTaken::Upcall {
            probes: 0,
            stage_checks: 0,
            rules_examined,
            installed,
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

impl DataplaneBackend for ExactHash {
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
        self.table
            .retain(|_, (_, last_used)| *last_used + idle_timeout > now);
    }

    fn next_background_event(&self, _now: SimTime) -> Option<SimTime> {
        if self.table.is_empty() {
            // A sweep over an empty table evicts nothing and (because
            // the sweep deadline catches up by grid arithmetic) leaves
            // the next deadline exactly where a skipped call would.
            None
        } else {
            Some(self.next_sweep)
        }
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

    fn attribution(&self) -> Vec<MaskAttribution> {
        crate::host::attribute_exact(self.table.iter().map(|(k, _)| k))
    }

    fn crash_restart(&mut self) -> RestartOutcome {
        let flows_lost = self.table.len();
        self.table = FlatTable::new();
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
    use pi_classifier::table::whitelist_with_default_deny;
    use pi_core::{Field, FlowMask, MaskedKey};

    const POD_IP: [u8; 4] = [10, 0, 0, 99];

    fn backend_with_fig2_acl() -> ExactHash {
        let mut be = ExactHash::new(DpConfig::default(), CostModel::default());
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

    #[test]
    fn first_packet_classifies_then_exact_hits() {
        let mut be = backend_with_fig2_acl();
        let t = SimTime::from_millis(1);
        let p = pkt([10, 1, 1, 1], 1000);
        let o1 = crate::api::process_one(&mut be, &p, t);
        assert!(o1.path.is_upcall());
        assert_eq!(o1.verdict, Action::Allow);
        assert_eq!(o1.output, Some(3));
        let o2 = crate::api::process_one(&mut be, &p, t);
        assert!(o2.path.is_microflow());
        assert!(o2.cycles < o1.cycles);
        assert_eq!(be.snapshot().switch.packets, 2);
        assert_eq!(be.snapshot().megaflows, 1);
        assert_eq!(be.snapshot().masks, 0, "no wildcard cache exists");
    }

    #[test]
    fn covert_stream_does_not_change_victim_cost() {
        // The tuple-space explosion's signature is absent: after
        // thousands of unique covert flows, an established flow's
        // per-packet cost is still one exact probe.
        let mut be = backend_with_fig2_acl();
        let t = SimTime::from_millis(1);
        let victim = pkt([10, 1, 1, 1], 1000);
        crate::api::process_one(&mut be, &victim, t);
        let before = crate::api::process_one(&mut be, &victim, t).cycles;
        for i in 0..4096u32 {
            let covert = FlowKey::tcp(
                [172, (i >> 8) as u8, i as u8, 1],
                POD_IP,
                (i % 60_000) as u16 + 1,
                5201,
            );
            crate::api::process_one(&mut be, &covert, t);
        }
        let after = crate::api::process_one(&mut be, &victim, t).cycles;
        assert_eq!(before, after, "victim cost is attack-invariant");
        assert_eq!(be.snapshot().masks, 0);
    }

    #[test]
    fn deny_verdicts_match_ground_truth() {
        let mut be = backend_with_fig2_acl();
        let o = crate::api::process_one(&mut be, &pkt([99, 1, 1, 1], 1), SimTime::ZERO);
        assert_eq!(o.verdict, Action::Deny);
        assert_eq!(o.output, None);
        assert_eq!(be.snapshot().switch.policy_drops, 1);
        // The deny verdict is cached too — an exact hit next time.
        let o = crate::api::process_one(&mut be, &pkt([99, 1, 1, 1], 1), SimTime::ZERO);
        assert!(o.path.is_microflow());
        assert_eq!(o.verdict, Action::Deny);
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
        assert_eq!(be.snapshot().megaflows, 2);
        let o = be.apply_update(
            PolicyUpdate::RemoveAcl {
                ip: u32::from_be_bytes(POD_IP),
            },
            true,
        );
        assert!(o.applied);
        assert!(o.scoped);
        assert_eq!(o.flushed_megaflows, 1, "only the updated pod's entry");
        let ob = crate::api::process_one(&mut be, &bystander, t);
        assert!(ob.path.is_microflow(), "bystander keeps its exact hit");
    }

    #[test]
    fn idle_sweep_evicts_stale_connections() {
        let mut be = backend_with_fig2_acl();
        crate::api::process_one(&mut be, &pkt([10, 1, 1, 1], 1000), SimTime::from_millis(1));
        assert_eq!(be.snapshot().megaflows, 1);
        be.revalidate(SimTime::from_secs(15));
        assert_eq!(be.snapshot().megaflows, 0, "idle timeout enforced");
    }

    #[test]
    fn flow_limit_refuses_installs_but_still_classifies() {
        let mut be = ExactHash::new(
            DpConfig {
                flow_limit: 2,
                ..DpConfig::default()
            },
            CostModel::default(),
        );
        be.attach_pod(u32::from_be_bytes(POD_IP), 3);
        let t = SimTime::ZERO;
        for i in 0..4u16 {
            let o = crate::api::process_one(&mut be, &pkt([10, 1, 1, i as u8 + 1], 1000 + i), t);
            assert_eq!(o.verdict, Action::Allow, "verdict sound past the limit");
        }
        assert_eq!(be.snapshot().megaflows, 2, "map bounded by flow_limit");
    }
}
