//! The OVS-cache backend: [`VSwitch`] behind the trait.
//!
//! This is a pure delegation — every method forwards to inherent
//! `VSwitch` methods, so putting the switch behind
//! `dyn DataplaneBackend` cannot change verdicts, statistics, cycle
//! accounting or cache dynamics. The workspace-level differential test
//! (`tests/backend_differential.rs`) pins this bit-identically against
//! the direct `VSwitch` path on the fig3 and upcall-saturation
//! workloads.

use pi_classifier::PolicyUpdate;
use pi_core::{FlowKey, SimTime};
use pi_datapath::{
    CostModel, DpConfig, PolicyUpdateOutcome, ProcessOutcome, ResolvedUpcall, RestartOutcome,
    VSwitch,
};
use pi_mitigation::MaskAttribution;
use pi_trace::Tracer;

use crate::api::{DataplaneBackend, DataplaneStats, DefenseAction};

impl DataplaneBackend for VSwitch {
    fn config(&self) -> &DpConfig {
        VSwitch::config(self)
    }

    fn cost_model(&self) -> &CostModel {
        VSwitch::cost_model(self)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        VSwitch::set_tracer(self, tracer)
    }

    fn apply_update(&mut self, update: PolicyUpdate, charged: bool) -> PolicyUpdateOutcome {
        VSwitch::apply_update(self, update, charged)
    }

    fn process_batch(
        &mut self,
        keys: &[FlowKey],
        now: SimTime,
        sink: &mut dyn FnMut(usize, ProcessOutcome) -> bool,
    ) -> usize {
        VSwitch::process_batch(self, keys, now, sink)
    }

    fn drain_upcalls(&mut self, now: SimTime, sink: &mut dyn FnMut(ResolvedUpcall)) -> usize {
        VSwitch::drain_upcalls(self, now, sink)
    }

    fn revalidate(&mut self, now: SimTime) {
        VSwitch::revalidate(self, now);
    }

    fn next_background_event(&self, now: SimTime) -> Option<SimTime> {
        VSwitch::next_background_event(self, now)
    }

    fn snapshot(&self) -> DataplaneStats {
        DataplaneStats {
            switch: self.stats(),
            emc: self.emc_stats(),
            upcall: self.upcall_stats(),
            masks: self.mask_count(),
            megaflows: self.megaflow_count(),
            upcall_backlog: self.upcall_queue_depth(),
        }
    }

    fn attribution(&self) -> Vec<MaskAttribution> {
        pi_mitigation::attribute_masks(self)
    }

    fn crash_restart(&mut self) -> RestartOutcome {
        VSwitch::crash_restart(self)
    }

    fn installed_acl_ips(&self) -> Vec<u32> {
        VSwitch::installed_acl_ips(self)
    }

    fn actuate(&mut self, action: DefenseAction) -> bool {
        match action {
            DefenseAction::SetPortQuota(quota) => self.set_port_quota(quota),
            DefenseAction::SetStagedLookup(enabled) => {
                self.set_staged_lookup(enabled);
                true
            }
            DefenseAction::Quarantine(ip) => {
                self.quarantine(ip);
                true
            }
            DefenseAction::ReleaseQuarantine(ip) => self.release_quarantine(ip),
        }
    }
}
