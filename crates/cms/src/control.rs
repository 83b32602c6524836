//! The timed control plane: scheduled policy updates with propagation
//! delay.
//!
//! The paper's attack surface is the CMS control plane, not the packet
//! path — a tenant's sanctioned policy API call ends as an
//! `install_acl` at a hypervisor switch, and every such install flushes
//! the shared flow caches. Until now the repo applied all ACLs before
//! tick 0; this module makes policy *churn* a first-class, schedulable
//! event stream so mid-run installs (benign rollouts, migrations, and
//! the policy-flap attack) can be simulated deterministically.
//!
//! * [`PolicyUpdate`] — one CMS→switch action (ACL install/removal,
//!   pod attach).
//! * [`ControlPlaneProgram`] — a build-time list of updates, each with
//!   an issue time and a propagation delay (CMS → node agent → switch
//!   is never instantaneous).
//! * [`ControlPlane`] — the run-time driver: a compiled, time-sorted
//!   cursor the simulator polls once per tick. Updates whose
//!   `applies_at` has arrived are handed out in deterministic order
//!   (apply time, then program order), so results never depend on
//!   worker count or scheduling.

use pi_classifier::FlowTable;
use pi_core::SimTime;

pub use pi_classifier::PolicyUpdate;

/// A [`PolicyUpdate`] with its timing: issued by the CMS at
/// `issued_at`, landing on the switch at `applies_at` (issue +
/// propagation delay).
#[derive(Debug, Clone)]
pub struct ScheduledUpdate {
    /// When the tenant's API call was made.
    pub issued_at: SimTime,
    /// When the update reaches the switch.
    pub applies_at: SimTime,
    /// What lands.
    pub update: PolicyUpdate,
}

/// A build-time program of scheduled updates for one node's switch.
///
/// Updates may be pushed in any order; [`ControlPlaneProgram::compile`]
/// sorts them stably by apply time, so two updates landing on the same
/// tick apply in program order — the determinism the fleet's
/// worker-count guarantee needs.
#[derive(Debug, Clone)]
pub struct ControlPlaneProgram {
    propagation_delay: SimTime,
    updates: Vec<ScheduledUpdate>,
}

impl Default for ControlPlaneProgram {
    fn default() -> Self {
        Self::new()
    }
}

impl ControlPlaneProgram {
    /// An empty program with zero propagation delay.
    pub fn new() -> Self {
        ControlPlaneProgram {
            propagation_delay: SimTime::ZERO,
            updates: Vec::new(),
        }
    }

    /// Sets the propagation delay applied to updates pushed *after*
    /// this call (CMS API → node agent → switch).
    #[must_use]
    pub fn with_propagation_delay(mut self, delay: SimTime) -> Self {
        self.propagation_delay = delay;
        self
    }

    /// Schedules `update`, issued at `issued_at`, applying after the
    /// program's propagation delay.
    pub fn push(&mut self, issued_at: SimTime, update: PolicyUpdate) {
        self.updates.push(ScheduledUpdate {
            issued_at,
            applies_at: issued_at + self.propagation_delay,
            update,
        });
    }

    /// Schedules an ACL install at `ip`.
    pub fn install_acl(&mut self, issued_at: SimTime, ip: u32, table: FlowTable) {
        self.push(issued_at, PolicyUpdate::InstallAcl { ip, table });
    }

    /// Schedules an ACL removal at `ip`.
    pub fn remove_acl(&mut self, issued_at: SimTime, ip: u32) {
        self.push(issued_at, PolicyUpdate::RemoveAcl { ip });
    }

    /// Schedules a pod attach at `ip`/`vport`.
    pub fn attach_pod(&mut self, issued_at: SimTime, ip: u32, vport: u32) {
        self.push(issued_at, PolicyUpdate::AttachPod { ip, vport });
    }

    /// Schedules `count` repeated installs of the same ACL at `ip`,
    /// one every `period` starting at `start` — the primitive behind
    /// the policy-flap attack (each re-install is a no-op policy-wise
    /// but triggers a full cache invalidation on the switch).
    pub fn install_acl_every(
        &mut self,
        start: SimTime,
        period: SimTime,
        count: usize,
        ip: u32,
        table: &FlowTable,
    ) {
        assert!(period > SimTime::ZERO, "flap period must be positive");
        let mut at = start;
        for _ in 0..count {
            self.install_acl(at, ip, table.clone());
            at += period;
        }
    }

    /// Appends every update of `other` (its timings are preserved).
    pub fn merge(&mut self, other: ControlPlaneProgram) {
        self.updates.extend(other.updates);
    }

    /// Number of scheduled updates.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The scheduled updates, in push order.
    pub fn updates(&self) -> &[ScheduledUpdate] {
        &self.updates
    }

    /// Compiles into the runtime driver: updates stably sorted by apply
    /// time (ties keep program order).
    pub fn compile(mut self) -> ControlPlane {
        self.updates.sort_by_key(|u| u.applies_at);
        ControlPlane {
            updates: self.updates,
            cursor: 0,
        }
    }
}

/// The runtime driver over a compiled program: the simulator polls
/// [`ControlPlane::due`] once per tick and applies what it returns, so
/// updates land on the simulation's tick/epoch grid.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    updates: Vec<ScheduledUpdate>,
    cursor: usize,
}

impl ControlPlane {
    /// Updates due at `now` (apply time ≤ `now`) that have not been
    /// handed out yet, in deterministic order. Call with monotonically
    /// non-decreasing `now`.
    pub fn due(&mut self, now: SimTime) -> &[ScheduledUpdate] {
        let start = self.cursor;
        while self.cursor < self.updates.len() && self.updates[self.cursor].applies_at <= now {
            self.cursor += 1;
        }
        &self.updates[start..self.cursor]
    }

    /// Updates already handed out.
    pub fn applied(&self) -> usize {
        self.cursor
    }

    /// Updates still waiting for their apply time.
    pub fn pending(&self) -> usize {
        self.updates.len() - self.cursor
    }

    /// Apply time of the next pending update.
    pub fn next_due(&self) -> Option<SimTime> {
        self.updates.get(self.cursor).map(|u| u.applies_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_classifier::table::whitelist_with_default_deny;

    fn table() -> FlowTable {
        whitelist_with_default_deny(&[])
    }

    #[test]
    fn due_hands_updates_out_once_in_apply_order() {
        let mut p = ControlPlaneProgram::new();
        p.remove_acl(SimTime::from_millis(30), 2);
        p.install_acl(SimTime::from_millis(10), 1, table());
        p.attach_pod(SimTime::from_millis(10), 3, 7);
        let mut cp = p.compile();
        assert_eq!(cp.pending(), 3);
        assert_eq!(cp.next_due(), Some(SimTime::from_millis(10)));

        assert!(cp.due(SimTime::from_millis(9)).is_empty());
        let first = cp.due(SimTime::from_millis(10));
        assert_eq!(first.len(), 2, "same-tick updates in program order");
        assert!(matches!(
            first[0].update,
            PolicyUpdate::InstallAcl { ip: 1, .. }
        ));
        assert!(matches!(
            first[1].update,
            PolicyUpdate::AttachPod { ip: 3, vport: 7 }
        ));
        // Already-delivered updates never reappear.
        assert!(cp.due(SimTime::from_millis(20)).is_empty());
        let second = cp.due(SimTime::from_millis(40));
        assert_eq!(second.len(), 1);
        assert!(matches!(
            second[0].update,
            PolicyUpdate::RemoveAcl { ip: 2 }
        ));
        assert_eq!(cp.pending(), 0);
        assert_eq!(cp.applied(), 3);
        assert_eq!(cp.next_due(), None);
    }

    #[test]
    fn propagation_delay_shifts_apply_time_only() {
        let mut p = ControlPlaneProgram::new().with_propagation_delay(SimTime::from_millis(50));
        p.install_acl(SimTime::from_secs(1), 9, table());
        let u = &p.updates()[0];
        assert_eq!(u.issued_at, SimTime::from_secs(1));
        assert_eq!(
            u.applies_at,
            SimTime::from_secs(1) + SimTime::from_millis(50)
        );
        let mut cp = p.compile();
        assert!(cp.due(SimTime::from_secs(1)).is_empty(), "not landed yet");
        assert_eq!(cp.due(SimTime::from_millis(1_050)).len(), 1);
    }

    #[test]
    fn install_acl_every_builds_the_flap_train() {
        let mut p = ControlPlaneProgram::new();
        p.install_acl_every(
            SimTime::from_secs(2),
            SimTime::from_millis(10),
            5,
            42,
            &table(),
        );
        assert_eq!(p.len(), 5);
        let times: Vec<SimTime> = p.updates().iter().map(|u| u.applies_at).collect();
        assert_eq!(times[0], SimTime::from_secs(2));
        assert_eq!(times[4], SimTime::from_secs(2) + SimTime::from_millis(40));
        assert!(p
            .updates()
            .iter()
            .all(|u| matches!(u.update, PolicyUpdate::InstallAcl { ip: 42, .. })));
    }

    #[test]
    fn merge_preserves_both_programs_timings() {
        let mut a = ControlPlaneProgram::new();
        a.install_acl(SimTime::from_millis(5), 1, table());
        let mut b = ControlPlaneProgram::new().with_propagation_delay(SimTime::from_millis(1));
        b.remove_acl(SimTime::from_millis(2), 2);
        a.merge(b);
        let mut cp = a.compile();
        // b's update (applies at 3 ms) sorts before a's (5 ms).
        let due = cp.due(SimTime::from_millis(10));
        assert!(matches!(due[0].update, PolicyUpdate::RemoveAcl { ip: 2 }));
        assert!(matches!(
            due[1].update,
            PolicyUpdate::InstallAcl { ip: 1, .. }
        ));
    }
}
