//! [`LpmTier`]: a DPDK-style compiled longest-prefix-match pipeline.
//!
//! Architecture: no flow cache at all. Policies are compiled into fixed
//! lookup tiers — a routing tier (an LPM walk over the attached pod
//! addresses, reusing [`PrefixTrie`] as the stride structure) followed
//! by per-field ACL tiers, one 8-bit stride per byte of every compiled
//! field. Every packet walks the same number of strides, so the
//! per-packet cost is a **compile-time constant**: nothing a covert
//! stream does can change what the next packet costs.
//!
//! This is the `rte_lpm`/`rte_acl` run-to-completion design: costs
//! count stride loads (`per_subtable` per stride for the table index
//! step, `per_stage_hash` per stride for the node fetch+branch), so
//! the fixed walk is priced through the same [`CostModel`] vocabulary
//! as the cache hierarchy it replaces.
//!
//! What the architecture pays instead:
//!
//! * **every packet walks the full pipeline** — there is no O(1) hit
//!   path, so the *benign* baseline is slower than a warm cache,
//! * **policy updates recompile** — an update costs `acl_update_fixed`
//!   plus `per_rule` for every rule recompiled into the tiers (the
//!   attack surface that remains: update *rate*, not datapath state).

use pi_classifier::{Action, PolicyUpdate, PrefixTrie};
use pi_core::{Field, FlowKey, SimTime};
use pi_datapath::{
    CostModel, DpConfig, PathTaken, PodTable, PolicyUpdateOutcome, ProcessOutcome, ResolvedUpcall,
    RestartOutcome, SwitchStats, UpcallStats, Work,
};
use pi_mitigation::MaskAttribution;
use pi_trace::Tracer;

use crate::api::{DataplaneBackend, DataplaneStats, DefenseAction};

/// Stride width of the compiled tiers, in bits (DPDK's LPM/ACL designs
/// are byte-oriented).
const STRIDE_BITS: u8 = 8;

/// The compiled longest-prefix-match backend. See the module docs for
/// the architecture and its threat surface.
#[derive(Debug)]
pub struct LpmTier {
    config: DpConfig,
    cost: CostModel,
    pods: PodTable,
    /// The routing tier: attached pod addresses as /32 prefixes. The
    /// walk depth (width / stride) is what the route lookup costs.
    routes: PrefixTrie,
    /// Strides in the routing tier walk.
    route_strides: usize,
    /// Strides across the compiled ACL tiers (one tier per configured
    /// classification field, one stride per byte of field width).
    acl_strides: usize,
    stats: SwitchStats,
    upcall: UpcallStats,
    tracer: Tracer,
}

impl LpmTier {
    /// Builds the backend from a datapath config. `trie_fields` decides
    /// which fields the ACL tiers compile (hence the fixed walk length);
    /// the cache/EMC/pipeline knobs have no counterpart here.
    pub fn new(config: DpConfig, cost: CostModel) -> Self {
        let route_strides = stride_count(Field::IpDst);
        let acl_strides = config.trie_fields.iter().copied().map(stride_count).sum();
        LpmTier {
            config,
            cost,
            pods: PodTable::new(),
            routes: PrefixTrie::new(Field::IpDst),
            route_strides,
            acl_strides,
            stats: SwitchStats::default(),
            upcall: UpcallStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// The compile-time per-packet walk length, in strides.
    pub(crate) fn strides_per_packet(&self) -> usize {
        self.route_strides + self.acl_strides
    }

    fn process_with(&mut self, key: &FlowKey, now: SimTime) -> ProcessOutcome {
        let _ = now; // stateless: nothing ages, nothing is stamped
        self.stats.packets += 1;

        // Tier 1: the routing walk. An unroutable destination terminates
        // the pipeline here — only the route strides are spent.
        let routable = self.routes.longest_match(key.ip_dst as u64) == Some(32);
        if !routable {
            self.stats.policy_drops += 1;
            self.stats.megaflow_hits += 1;
            let walk = self.route_strides;
            return self.finish(Action::Deny, None, PathTaken::MegaflowHit, walk);
        }

        // Quarantine gate, applied after routing like the OVS upcall
        // gate: the destination's pipeline service is refused.
        if self.pods.is_quarantined(key.ip_dst) {
            self.upcall.quarantine_drops += 1;
            let walk = self.route_strides;
            return self.finish(Action::Controller, None, PathTaken::UpcallDropped, walk);
        }

        // Tier 2: the compiled ACL walk — constant strides, verdict from
        // the pod's policy (the compiled tiers are semantically exact).
        let (action, _rules, output) = self.pods.classify(key);
        self.stats.megaflow_hits += 1;
        if output.is_none() {
            self.stats.policy_drops += 1;
        }
        let walk = self.strides_per_packet();
        self.finish(action, output, PathTaken::MegaflowHit, walk)
    }

    /// Prices and books a packet that walked `strides` strides: one
    /// parse, then `strides` table-index steps priced as subtable
    /// visits plus `strides` node fetches priced as stage hashes; no
    /// EMC exists to probe.
    fn finish(
        &mut self,
        verdict: Action,
        output: Option<u32>,
        path: PathTaken,
        strides: usize,
    ) -> ProcessOutcome {
        let work = Work {
            parses: 1,
            subtables: strides as u32,
            stage_hashes: strides as u32,
            ..Work::default()
        };
        let cycles = self.cost.cycles_of(&work);
        self.stats.cycles += cycles;
        self.stats.subtable_probes += strides as u64;
        ProcessOutcome {
            verdict,
            output,
            path,
            work,
            cycles,
        }
    }
}

/// Strides needed to walk one field's compiled tier.
fn stride_count(field: Field) -> usize {
    field.width().div_ceil(STRIDE_BITS) as usize
}

impl DataplaneBackend for LpmTier {
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
        // The rules an ACL change folds into (or, recompiling the old
        // ACL *out*, removes from) the tiers; an attach only extends
        // the routing tier.
        let rules = match &update {
            PolicyUpdate::InstallAcl { table, .. } => table.len(),
            PolicyUpdate::RemoveAcl { ip } => self.pods.rules_at(*ip),
            PolicyUpdate::AttachPod { ip, .. } => {
                self.routes.insert(*ip as u64, 32);
                0
            }
        };
        let change = self.pods.apply(update, &self.config.trie_fields);
        // Recompilation: fixed control-plane handling plus one
        // rule-visit per rule. Nothing is flushed — there is no cached
        // state to invalidate, so the trace shows the update with no
        // CacheFlush: the visible proof of this architecture's immunity.
        let work = charged.then_some(Work {
            acl_updates: 1,
            rules: if change.applied { rules as u32 } else { 0 },
            ..Work::default()
        });
        change.settle(0, true, work, &self.cost, &mut self.stats, &self.tracer)
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
        0 // run-to-completion: no slow path exists
    }

    fn revalidate(&mut self, _now: SimTime) {
        // Stateless: nothing to age or revalidate.
    }

    fn next_background_event(&self, _now: SimTime) -> Option<SimTime> {
        None // run-to-completion and stateless: never busy on its own
    }

    fn snapshot(&self) -> DataplaneStats {
        // No first-level cache, no wildcard cache, no per-flow state at
        // all: only the walk counters and the quarantine drops move.
        DataplaneStats {
            switch: self.stats,
            upcall: self.upcall,
            ..DataplaneStats::default()
        }
    }

    fn attribution(&self) -> Vec<MaskAttribution> {
        Vec::new() // nothing cached, nothing to attribute
    }

    fn crash_restart(&mut self) -> RestartOutcome {
        // The datapath is stateless — no flow cache or deferred work to
        // lose. Only the policy half dies with the process: installed
        // ACLs and quarantine markings. (The compiled tiers are rebuilt
        // from the surviving attachments at respawn; their walk depth is
        // config-derived, so nothing observable changes there.)
        let (acls_lost, quarantines_lost) = self.pods.crash_reset();
        RestartOutcome {
            acls_lost,
            flows_lost: 0,
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
            // No cached state to evict: the gate alone refuses service.
            DefenseAction::Quarantine(ip) => {
                self.pods.quarantine(ip);
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
    use pi_core::{FlowMask, MaskedKey};

    const POD_IP: [u8; 4] = [10, 0, 0, 99];

    fn backend_with_fig2_acl() -> LpmTier {
        let mut be = LpmTier::new(DpConfig::default(), CostModel::default());
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

    #[test]
    fn every_packet_costs_the_compiled_walk() {
        let mut be = backend_with_fig2_acl();
        // Default fields: IpSrc + IpDst + TpSrc + TpDst = 12 ACL strides
        // plus 4 routing strides.
        assert_eq!(be.strides_per_packet(), 16);
        let cm = CostModel::default();
        let expected = cm.parse + 16 * (cm.per_subtable + cm.per_stage_hash);
        let t = SimTime::from_millis(1);
        let o1 = crate::api::process_one(&mut be, &pkt([10, 1, 1, 1], 1000), t);
        assert_eq!(o1.verdict, Action::Allow);
        assert_eq!(o1.output, Some(3));
        assert_eq!(o1.cycles, expected);
        // Repeats cost exactly the same — there is no cache to warm.
        let o2 = crate::api::process_one(&mut be, &pkt([10, 1, 1, 1], 1000), t);
        assert_eq!(o2.cycles, expected);
    }

    #[test]
    fn covert_stream_cannot_perturb_the_walk() {
        let mut be = backend_with_fig2_acl();
        let t = SimTime::from_millis(1);
        let victim = pkt([10, 1, 1, 1], 1000);
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
        assert_eq!(before, after, "fixed-cost pipeline is attack-invariant");
        assert_eq!(be.snapshot().masks, 0);
        assert_eq!(be.snapshot().megaflows, 0, "no per-flow state accumulates");
    }

    #[test]
    fn verdicts_match_ground_truth() {
        let mut be = backend_with_fig2_acl();
        let allowed = crate::api::process_one(&mut be, &pkt([10, 1, 1, 1], 1), SimTime::ZERO);
        assert_eq!(allowed.verdict, Action::Allow);
        let denied = crate::api::process_one(&mut be, &pkt([99, 1, 1, 1], 1), SimTime::ZERO);
        assert_eq!(denied.verdict, Action::Deny);
        assert_eq!(denied.output, None);
        assert_eq!(be.snapshot().switch.policy_drops, 1);
    }

    #[test]
    fn unroutable_destination_stops_at_the_route_tier() {
        let mut be = backend_with_fig2_acl();
        let stray = FlowKey::tcp([10, 1, 1, 1], [192, 168, 0, 1], 1, 1);
        let o = crate::api::process_one(&mut be, &stray, SimTime::ZERO);
        assert_eq!(o.verdict, Action::Deny);
        let cm = CostModel::default();
        assert_eq!(
            o.cycles,
            cm.parse + 4 * (cm.per_subtable + cm.per_stage_hash)
        );
    }

    #[test]
    fn policy_update_costs_recompilation_not_flushes() {
        let mut be = backend_with_fig2_acl();
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 16),
        );
        let o = be.apply_update(
            PolicyUpdate::InstallAcl {
                ip: u32::from_be_bytes(POD_IP),
                table: whitelist_with_default_deny(&[allow]),
            },
            true,
        );
        assert!(o.applied);
        assert_eq!(o.flushed_megaflows, 0, "nothing cached, nothing flushed");
        let cm = CostModel::default();
        // 2 rules recompiled: the whitelist entry + the default-deny.
        assert_eq!(o.cycles, cm.acl_update_fixed + 2 * cm.per_rule);
        assert_eq!((o.work.acl_updates, o.work.rules), (1, 2));
    }
}
