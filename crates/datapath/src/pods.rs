//! The pod table: the routing + policy substrate under every dataplane
//! backend.
//!
//! Every architecture in the matrix enforces the *same* tenant policies
//! at the same attachment points — what differs is the caching structure
//! in front. [`PodTable`] is that common substrate: destination IP →
//! vport + compiled ingress ACL (a [`SlowPath`], linear classification
//! ground truth), the quarantine set, and the bookkeeping of a
//! [`PolicyUpdate`] — so re-attach, install-refusal and crash semantics
//! are one implementation, and no backend can diverge on them.
//!
//! Every backend consults the table once per packet per hop
//! ([`PodTable::get`] for the delivery vport, [`PodTable::classify`] on
//! a miss), so the lookup is flat: a [`pi_core::IpIndex`] (one multiply,
//! one probe run, nothing SipHashed) from the destination IP to a slot
//! of a `Vec<Pod>`. Pods are never detached, so slots are append-only,
//! a re-attach re-homes its slot in place, and iteration is attach order
//! — the same on every run, with no per-process hasher state behind it.

use std::collections::BTreeSet;

use pi_classifier::{Action, PolicyUpdate};
use pi_core::{Field, FlowKey, IpIndex};
use pi_trace::Tracer;

use crate::cost::{CostModel, Work};
use crate::slowpath::SlowPath;
use crate::vswitch::{PolicyUpdateOutcome, SwitchStats};

/// One pod attachment: vport + the pod's ingress policy.
#[derive(Debug, Clone)]
pub struct Pod {
    /// The pod's IP (host order) — its key in the table.
    pub ip: u32,
    /// Delivery vport for permitted traffic.
    pub vport: u32,
    /// The pod's compiled ingress ACL (permissive allow-all when none
    /// is installed).
    pub slowpath: SlowPath,
}

/// What one [`PolicyUpdate`] did to the table ([`PodTable::apply`]).
/// The backend invalidates whatever it caches for `touched`, prices the
/// update, and closes it with [`PolicyChange::settle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyChange {
    /// The update's [`PolicyUpdate::op_code`].
    pub op: u8,
    /// What the caller is told: a *fresh* attach (false = vport re-home
    /// preserving the ACL), or an ACL install/removal that found its
    /// pod (false = refused, no pod attached there).
    pub applied: bool,
    /// The destination whose cached state is now stale, when the table
    /// changed: every attach (a fresh one may shadow a cached
    /// unroutable-deny, a re-attach moves the vport) and every
    /// non-refused ACL change.
    pub touched: Option<u32>,
}

impl PolicyChange {
    /// Books the update into `stats` and builds its outcome. A table
    /// change counts one `policy_updates`; `work` is `Some` for a
    /// charged update — priced by `cost`, added to the switch and
    /// control totals and traced (with the flush, if any) — and `None`
    /// for free build-time assembly, which costs and records nothing.
    pub fn settle(
        self,
        flushed: usize,
        scoped: bool,
        work: Option<Work>,
        cost: &CostModel,
        stats: &mut SwitchStats,
        tracer: &Tracer,
    ) -> PolicyUpdateOutcome {
        if self.touched.is_some() {
            stats.policy_updates += 1;
        }
        let charged = work.is_some();
        let work = work.unwrap_or_default();
        let cycles = cost.cycles_of(&work);
        if charged {
            stats.cycles += cycles;
            stats.control_cycles += cycles;
            tracer.emit_policy_update(self.op, cycles, flushed as u32, scoped, self.applied);
        }
        PolicyUpdateOutcome {
            applied: self.applied,
            flushed_megaflows: flushed,
            scoped,
            work,
            cycles,
        }
    }
}

/// Destination IP (host order) → [`Pod`], plus the quarantine set.
#[derive(Debug, Default)]
pub struct PodTable {
    /// Destination IP → slot in `pods`.
    index: IpIndex,
    /// Attached pods, in attach order.
    pods: Vec<Pod>,
    /// Destinations refused slow-path service (BTreeSet for
    /// deterministic listing).
    quarantined: BTreeSet<u32>,
}

impl PodTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies one update. An attach starts a pod with no ACL
    /// (everything allowed); a re-attach of a present IP re-homes the
    /// vport but **preserves the installed ACL** — a vport move must
    /// never silently replace a deny ACL with a permissive one. ACL
    /// installs (default-deny, tries built over `trie_fields`) and
    /// removals (back to allow-all) are refused where no pod is
    /// attached.
    pub fn apply(&mut self, update: PolicyUpdate, trie_fields: &[Field]) -> PolicyChange {
        let op = update.op_code();
        let (ip, applied, changed) = match update {
            PolicyUpdate::AttachPod { ip, vport } => {
                let fresh = match self.index.get(ip) {
                    Some(slot) => {
                        self.pods[slot as usize].vport = vport;
                        false
                    }
                    None => {
                        let slowpath = SlowPath::permissive(Action::Allow);
                        self.index.insert(ip, self.pods.len() as u32);
                        self.pods.push(Pod {
                            ip,
                            vport,
                            slowpath,
                        });
                        true
                    }
                };
                (ip, fresh, true)
            }
            PolicyUpdate::InstallAcl { ip, table } => {
                let found = self.set_acl(ip, || SlowPath::new(table, trie_fields, Action::Deny));
                (ip, found, found)
            }
            PolicyUpdate::RemoveAcl { ip } => {
                let found = self.set_acl(ip, || SlowPath::permissive(Action::Allow));
                (ip, found, found)
            }
        };
        PolicyChange {
            op,
            applied,
            touched: changed.then_some(ip),
        }
    }

    /// Replaces the ACL at `ip`; false (and `acl` never built) when no
    /// pod is attached there.
    fn set_acl(&mut self, ip: u32, acl: impl FnOnce() -> SlowPath) -> bool {
        match self.index.get(ip) {
            Some(slot) => {
                self.pods[slot as usize].slowpath = acl();
                true
            }
            None => false,
        }
    }

    /// The pod at `ip`, if attached.
    // audit: hotpath
    #[inline]
    pub fn get(&self, ip: u32) -> Option<&Pod> {
        self.index.get(ip).map(|slot| &self.pods[slot as usize])
    }

    /// Every attached pod, in attach order.
    pub fn pods(&self) -> &[Pod] {
        &self.pods
    }

    /// Ground-truth classification of `key` against its destination
    /// pod's ACL: `(verdict, rules examined, vport if deliverable)`.
    /// Unroutable destinations deny with zero rules examined, exactly
    /// like the OVS slow path.
    pub fn classify(&self, key: &FlowKey) -> (Action, usize, Option<u32>) {
        match self.get(key.ip_dst) {
            Some(pod) => {
                let (action, examined) = pod.slowpath.classify(key);
                let out = action.permits().then_some(pod.vport);
                (action, examined, out)
            }
            None => (Action::Deny, 0, None),
        }
    }

    /// Number of rules in the ACL at `ip` (0 when permissive or
    /// unattached) — the recompilation work a policy update costs.
    pub fn rules_at(&self, ip: u32) -> usize {
        self.get(ip).map_or(0, |p| p.slowpath.table().len())
    }

    /// Destination IPs with an installed (default-deny) ACL, ascending
    /// — the switch-reported state the reconciliation loop diffs
    /// against the CMS's desired state.
    pub fn acl_ips(&self) -> Vec<u32> {
        let mut ips: Vec<u32> = self
            .pods
            .iter()
            .filter(|pod| pod.slowpath.default_action() == Action::Deny)
            .map(|pod| pod.ip)
            .collect();
        ips.sort_unstable();
        ips
    }

    /// Crash wipe of the policy/quarantine half of a restart: every
    /// installed ACL reverts to allow-all and quarantine markings are
    /// lost; attachments survive (the node agent re-plumbs vports).
    /// Returns `(acls_lost, quarantines_lost)`.
    pub fn crash_reset(&mut self) -> (usize, usize) {
        let mut acls_lost = 0;
        for pod in &mut self.pods {
            if pod.slowpath.default_action() == Action::Deny {
                pod.slowpath = SlowPath::permissive(Action::Allow);
                acls_lost += 1;
            }
        }
        let quarantines_lost = self.quarantined.len();
        self.quarantined.clear();
        (acls_lost, quarantines_lost)
    }

    /// Marks `ip` quarantined. Returns whether it was newly added.
    pub fn quarantine(&mut self, ip: u32) -> bool {
        self.quarantined.insert(ip)
    }

    /// Lifts the quarantine on `ip`. Returns whether it was quarantined.
    pub fn release_quarantine(&mut self, ip: u32) -> bool {
        self.quarantined.remove(&ip)
    }

    /// Whether `ip` is quarantined (one branch while nothing is).
    pub fn is_quarantined(&self, ip: u32) -> bool {
        !self.quarantined.is_empty() && self.quarantined.contains(&ip)
    }

    /// Currently quarantined destinations, ascending.
    pub fn quarantined(&self) -> impl Iterator<Item = u32> + '_ {
        self.quarantined.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fleet holds one `Pod` per routed pod on every host (about
    /// 17 000 in a 128-host fleet), so its size is set-up time and
    /// resident memory: the slow path's index must stay two `Vec`s.
    #[test]
    fn a_pod_stays_within_120_bytes() {
        assert!(
            std::mem::size_of::<Pod>() <= 120,
            "{}",
            std::mem::size_of::<Pod>()
        );
    }
}
