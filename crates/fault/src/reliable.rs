//! At-least-once control-plane delivery with reconciliation.
//!
//! The plain `pi_cms::ControlPlane` hands updates straight to the
//! switch: if the switch is down or the channel drops the message, the
//! policy is silently gone — a vanished deny rule is a security hole.
//! [`ReliableControlPlane`] closes the loop the way real CMSes do:
//!
//! * every update carries a **sequence number** and is held in flight
//!   until **acked** (acks traverse the same lossy channel back);
//! * a missing ack triggers **retry** after a per-update timeout with
//!   exponential backoff and SplitMix64 jitter (capped);
//! * the receiver keeps an **applied-seq set** (the node agent's
//!   durable journal — it survives switch restarts), so duplicated
//!   deliveries are suppressed but still acked;
//! * a periodic **reconciliation** pass diffs the CMS's desired ACL
//!   state (replayed from the program) against the switch's reported
//!   installed state and re-pushes the difference — this is what turns
//!   a crash that wiped every ACL into bounded-time convergence.
//!
//! Everything is deterministic: one private RNG for retry jitter, the
//! channels carry their own seeds, and all state is owned by the node
//! (shard-local under the fleet).

use std::collections::{BTreeMap, BTreeSet};

use pi_classifier::FlowTable;
use pi_cms::{ControlPlaneProgram, PolicyUpdate, ScheduledUpdate};
use pi_core::{SimTime, SplitMix64};
use pi_trace::{TraceEventKind, Tracer};

use crate::channel::{Channel, ChannelFaultConfig};

/// Retry/backoff and reconciliation knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityConfig {
    /// Retry unacked updates (at-least-once delivery). Off = fire and
    /// forget through the (possibly lossy) channel.
    pub retry: bool,
    /// Ack timeout before the first retry.
    pub retry_timeout: SimTime,
    /// Backoff multiplier per retry (exponential).
    pub backoff_factor: u32,
    /// Backoff cap.
    pub max_backoff: SimTime,
    /// Total send attempts per update (first send included) before
    /// giving up.
    pub max_attempts: u32,
    /// Run the periodic desired-vs-installed reconciliation pass.
    pub reconcile: bool,
    /// Reconciliation cadence.
    pub reconcile_interval: SimTime,
    /// Seed for the retry-jitter stream.
    pub seed: u64,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            retry: true,
            retry_timeout: SimTime::from_millis(50),
            backoff_factor: 2,
            max_backoff: SimTime::from_millis(800),
            max_attempts: 16,
            reconcile: true,
            reconcile_interval: SimTime::from_millis(500),
            seed: 0x5EED_FA17,
        }
    }
}

/// Delivery counters for one node's reliable control channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlChannelStats {
    /// Update messages offered to the forward channel (incl. retries).
    pub sent: u64,
    /// Update messages the forward channel delivered.
    pub delivered: u64,
    /// Update messages the forward channel dropped.
    pub dropped: u64,
    /// Extra update copies the forward channel injected.
    pub duplicated: u64,
    /// Acks lost on the return channel.
    pub acks_dropped: u64,
    /// Retransmissions (sends beyond each update's first).
    pub retries: u64,
    /// Updates abandoned after `max_attempts` sends.
    pub gave_up: u64,
    /// Deliveries suppressed by the receiver's applied-seq set.
    pub dup_suppressed: u64,
    /// Deliveries discarded because the switch was down (no ack sent —
    /// the retry path recovers these).
    pub lost_to_downtime: u64,
    /// Updates actually handed to the switch.
    pub applied: u64,
    /// Reconciliation passes run.
    pub reconcile_checks: u64,
    /// Updates re-pushed by reconciliation.
    pub reconcile_pushes: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    update: PolicyUpdate,
    next_retry: SimTime,
    backoff: SimTime,
    attempts: u32,
}

/// The at-least-once delivery layer over a compiled
/// [`ControlPlaneProgram`]. The node polls
/// [`ReliableControlPlane::poll`] once per tick and applies what it
/// returns; when [`ReliableControlPlane::reconcile_due`] fires it
/// reports the switch's installed ACLs to
/// [`ReliableControlPlane::reconcile`].
#[derive(Debug, Clone)]
pub struct ReliableControlPlane {
    cfg: ReliabilityConfig,
    updates: Vec<ScheduledUpdate>,
    cursor: usize,
    next_seq: u64,
    in_flight: BTreeMap<u64, InFlight>,
    forward: Channel<(u64, PolicyUpdate)>,
    acks: Channel<u64>,
    applied_seqs: BTreeSet<u64>,
    rng: SplitMix64,
    next_reconcile: SimTime,
    diverged_since: Option<SimTime>,
    recoveries: u64,
    recovery_time: SimTime,
    retries: u64,
    gave_up: u64,
    dup_suppressed: u64,
    lost_to_downtime: u64,
    applied: u64,
    reconcile_checks: u64,
    reconcile_pushes: u64,
    /// Trace handle (disabled by default — a guaranteed no-op).
    tracer: Tracer,
}

impl ReliableControlPlane {
    /// Builds the layer over `program`, sending through a channel with
    /// the given fault model (`None` = perfect channel). The ack
    /// direction gets an independent random stream derived from the
    /// forward seed.
    pub fn new(
        program: ControlPlaneProgram,
        cfg: ReliabilityConfig,
        channel: Option<ChannelFaultConfig>,
    ) -> Self {
        let fwd_cfg = channel.unwrap_or_default();
        let ack_cfg = ChannelFaultConfig {
            seed: SplitMix64::new(fwd_cfg.seed).fork().next_u64(),
            ..fwd_cfg
        };
        // Same stable sort as `ControlPlaneProgram::compile`: apply
        // time, ties in program order.
        let mut compiled = program.updates().to_vec();
        compiled.sort_by_key(|u| u.applies_at);
        ReliableControlPlane {
            rng: SplitMix64::new(cfg.seed),
            next_reconcile: cfg.reconcile_interval,
            cfg,
            updates: compiled,
            cursor: 0,
            next_seq: 0,
            in_flight: BTreeMap::new(),
            forward: Channel::new(fwd_cfg),
            acks: Channel::new(ack_cfg),
            applied_seqs: BTreeSet::new(),
            diverged_since: None,
            recoveries: 0,
            recovery_time: SimTime::ZERO,
            retries: 0,
            gave_up: 0,
            dup_suppressed: 0,
            lost_to_downtime: 0,
            applied: 0,
            reconcile_checks: 0,
            reconcile_pushes: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a trace handle: reconciliation passes record their
    /// repair pushes through it
    /// ([`pi_trace::TraceEventKind::Reconcile`]).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn jitter(&mut self, span: SimTime) -> SimTime {
        let ns = span.as_nanos();
        if ns == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_nanos(self.rng.gen_range(ns + 1))
        }
    }

    fn send(&mut self, now: SimTime, update: PolicyUpdate) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.cfg.retry {
            let backoff = self.cfg.retry_timeout;
            let j = self.jitter(SimTime::from_nanos(backoff.as_nanos() / 4));
            self.in_flight.insert(
                seq,
                InFlight {
                    update: update.clone(),
                    next_retry: now + backoff + j,
                    backoff,
                    attempts: 1,
                },
            );
        }
        self.forward.send(now, (seq, update));
    }

    /// One tick of the delivery layer: processes acks, issues program
    /// updates that fell due, retransmits timed-out updates, and
    /// returns the updates the switch should apply this tick, in
    /// deterministic delivery order. When `switch_up` is false the
    /// deliveries are discarded unacked (the retry path recovers
    /// them); duplicates are suppressed but still acked.
    pub fn poll(&mut self, now: SimTime, switch_up: bool) -> Vec<PolicyUpdate> {
        // Acks first, so nothing acked this tick is also retried.
        for seq in self.acks.deliver(now) {
            self.in_flight.remove(&seq);
        }

        // Issue program updates that fell due.
        while self.cursor < self.updates.len() && self.updates[self.cursor].applies_at <= now {
            let update = self.updates[self.cursor].update.clone();
            self.cursor += 1;
            self.send(now, update);
        }

        // Retransmit timed-out in-flight updates.
        if self.cfg.retry {
            let due: Vec<u64> = self
                .in_flight
                .iter()
                .filter(|(_, f)| f.next_retry <= now)
                .map(|(seq, _)| *seq)
                .collect();
            for seq in due {
                let Some(f) = self.in_flight.get(&seq) else {
                    continue;
                };
                if f.attempts >= self.cfg.max_attempts {
                    self.in_flight.remove(&seq);
                    self.gave_up += 1;
                    continue;
                }
                let resend = f.update.clone();
                let backoff = SimTime::from_nanos(
                    f.backoff
                        .as_nanos()
                        .saturating_mul(u64::from(self.cfg.backoff_factor.max(1))),
                )
                .min(self.cfg.max_backoff);
                let j = self.jitter(SimTime::from_nanos(backoff.as_nanos() / 4));
                if let Some(f) = self.in_flight.get_mut(&seq) {
                    f.attempts += 1;
                    f.backoff = backoff;
                    f.next_retry = now + backoff + j;
                }
                self.retries += 1;
                self.forward.send(now, (seq, resend));
            }
        }

        // Deliveries.
        let mut out = Vec::new();
        for (seq, update) in self.forward.deliver(now) {
            if !switch_up {
                self.lost_to_downtime += 1;
                continue;
            }
            if !self.applied_seqs.insert(seq) {
                self.dup_suppressed += 1;
                self.acks.send(now, seq);
                continue;
            }
            self.applied += 1;
            self.acks.send(now, seq);
            out.push(update);
        }
        out
    }

    /// Tells the layer the switch just crashed: if the program's
    /// desired state at `now` is non-empty, the node has diverged and
    /// the recovery clock starts.
    pub fn on_switch_crash(&mut self, now: SimTime) {
        if self.diverged_since.is_none() && !self.desired_acls(now).is_empty() {
            self.diverged_since = Some(now);
        }
    }

    /// True when the periodic reconciliation pass should run at `now`.
    pub fn reconcile_due(&self, now: SimTime) -> bool {
        self.cfg.reconcile && now >= self.next_reconcile
    }

    /// The CMS's desired ACL state at `now`: the program's installs
    /// minus its removals, replayed in apply order.
    pub(crate) fn desired_acls(&self, now: SimTime) -> BTreeMap<u32, FlowTable> {
        let mut desired = BTreeMap::new();
        for su in &self.updates {
            if su.applies_at > now {
                break;
            }
            match &su.update {
                PolicyUpdate::InstallAcl { ip, table } => {
                    desired.insert(*ip, table.clone());
                }
                PolicyUpdate::RemoveAcl { ip } => {
                    desired.remove(ip);
                }
                PolicyUpdate::AttachPod { .. } => {}
            }
        }
        desired
    }

    /// One reconciliation pass: diffs desired state against the
    /// switch-reported `installed` ACL set (sorted pod IPs) and
    /// re-pushes the difference through the reliable channel. Returns
    /// the number of re-pushed updates. Convergence after a divergence
    /// (crash or lost update) closes a recovery episode.
    pub fn reconcile(&mut self, now: SimTime, installed: &[u32]) -> usize {
        while self.next_reconcile <= now {
            self.next_reconcile += self.cfg.reconcile_interval;
        }
        self.reconcile_checks += 1;
        let desired = self.desired_acls(now);
        let mut pushes = 0;
        for (ip, table) in &desired {
            if !installed.contains(ip) {
                self.send(
                    now,
                    PolicyUpdate::InstallAcl {
                        ip: *ip,
                        table: table.clone(),
                    },
                );
                pushes += 1;
            }
        }
        for ip in installed {
            if !desired.contains_key(ip) {
                self.send(now, PolicyUpdate::RemoveAcl { ip: *ip });
                pushes += 1;
            }
        }
        self.reconcile_pushes += pushes as u64;
        self.tracer.emit_uncaused(
            now.as_nanos(),
            TraceEventKind::Reconcile {
                pushes: pushes as u32,
            },
        );
        if pushes > 0 {
            if self.diverged_since.is_none() {
                self.diverged_since = Some(now);
            }
        } else if let Some(since) = self.diverged_since.take() {
            self.recoveries += 1;
            self.recovery_time += now.saturating_sub(since);
        }
        pushes
    }

    /// True while desired and installed state are known to differ.
    pub fn diverged(&self) -> bool {
        self.diverged_since.is_some()
    }

    /// Completed recovery episodes (divergence → reconverged).
    pub fn recoveries(&self) -> u64 {
        self.recoveries
    }

    /// Total time spent diverged over completed recovery episodes.
    pub fn recovery_time(&self) -> SimTime {
        self.recovery_time
    }

    /// The earliest future instant at which this layer has anything to
    /// do: a program update falling due, a retry timer expiring, a
    /// forward or ack delivery arriving, or a reconciliation boundary.
    /// A [`ReliableControlPlane::poll`] strictly before this time
    /// returns nothing and mutates nothing, so the event-driven engines
    /// may skip it. `None` means the layer is permanently idle.
    pub fn next_activity(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut fold = |t: SimTime| {
            next = Some(next.map_or(t, |n| n.min(t)));
        };
        if self.cursor < self.updates.len() {
            fold(self.updates[self.cursor].applies_at);
        }
        if let Some(t) = self.in_flight.values().map(|f| f.next_retry).min() {
            fold(t);
        }
        if let Some(t) = self.forward.next_delivery() {
            fold(t);
        }
        if let Some(t) = self.acks.next_delivery() {
            fold(t);
        }
        if self.cfg.reconcile {
            fold(self.next_reconcile);
        }
        next
    }

    /// Program updates not yet issued.
    pub fn pending(&self) -> usize {
        self.updates.len() - self.cursor
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> ControlChannelStats {
        let fwd = self.forward.stats();
        let ack = self.acks.stats();
        ControlChannelStats {
            sent: fwd.sent,
            delivered: fwd.delivered,
            dropped: fwd.dropped,
            duplicated: fwd.duplicated,
            acks_dropped: ack.dropped,
            retries: self.retries,
            gave_up: self.gave_up,
            dup_suppressed: self.dup_suppressed,
            lost_to_downtime: self.lost_to_downtime,
            applied: self.applied,
            reconcile_checks: self.reconcile_checks,
            reconcile_pushes: self.reconcile_pushes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_classifier::table::whitelist_with_default_deny;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn table() -> FlowTable {
        whitelist_with_default_deny(&[])
    }

    fn program(n: usize) -> ControlPlaneProgram {
        let mut p = ControlPlaneProgram::new();
        for i in 0..n {
            p.install_acl(ms(i as u64 + 1), i as u32 + 1, table());
        }
        p
    }

    /// Drives `rcp` tick by tick, applying deliveries into a mock
    /// switch ACL set; returns the number of applies seen.
    fn drive(rcp: &mut ReliableControlPlane, ticks: u64, up: impl Fn(u64) -> bool) -> Vec<u32> {
        let mut installed = Vec::new();
        for t in 0..=ticks {
            let now = ms(t);
            for update in rcp.poll(now, up(t)) {
                match update {
                    PolicyUpdate::InstallAcl { ip, .. } => {
                        if !installed.contains(&ip) {
                            installed.push(ip);
                        }
                    }
                    PolicyUpdate::RemoveAcl { ip } => installed.retain(|i| *i != ip),
                    PolicyUpdate::AttachPod { .. } => {}
                }
            }
        }
        installed.sort_unstable();
        installed
    }

    #[test]
    fn perfect_channel_delivers_on_time_and_acks_drain() {
        let mut rcp = ReliableControlPlane::new(program(3), ReliabilityConfig::default(), None);
        assert_eq!(rcp.pending(), 3);
        let installed = drive(&mut rcp, 10, |_| true);
        assert_eq!(installed, vec![1, 2, 3]);
        assert_eq!(rcp.in_flight.len(), 0, "everything acked");
        let s = rcp.stats();
        assert_eq!(s.applied, 3);
        assert_eq!(s.retries, 0);
        assert_eq!(s.dup_suppressed, 0);
    }

    #[test]
    fn lossy_channel_with_retry_converges_exactly_once() {
        let ch = ChannelFaultConfig {
            drop_p: 0.4,
            dup_p: 0.3,
            delay: ms(1),
            jitter: ms(3),
            seed: 21,
        };
        let mut rcp = ReliableControlPlane::new(program(8), ReliabilityConfig::default(), Some(ch));
        let installed = drive(&mut rcp, 20_000, |_| true);
        assert_eq!(installed, (1..=8).collect::<Vec<u32>>(), "all converge");
        let s = rcp.stats();
        assert!(s.retries > 0, "drops must have forced retries: {s:?}");
        assert_eq!(s.applied, 8, "applied exactly once each: {s:?}");
        assert!(s.dropped > 0);
        // Long horizon: every update was acked or exhausted its
        // attempts (acks ride the same lossy channel).
        assert_eq!(rcp.in_flight.len(), 0);
    }

    #[test]
    fn duplicated_deliveries_are_suppressed_but_acked() {
        let ch = ChannelFaultConfig {
            dup_p: 1.0,
            seed: 5,
            ..ChannelFaultConfig::default()
        };
        let mut rcp = ReliableControlPlane::new(program(4), ReliabilityConfig::default(), Some(ch));
        let installed = drive(&mut rcp, 500, |_| true);
        assert_eq!(installed, vec![1, 2, 3, 4]);
        let s = rcp.stats();
        assert_eq!(s.applied, 4);
        assert!(s.dup_suppressed >= 4, "{s:?}");
    }

    #[test]
    fn downtime_discards_unacked_and_retry_recovers() {
        let mut rcp = ReliableControlPlane::new(program(2), ReliabilityConfig::default(), None);
        // Switch down over the window in which both updates fall due.
        let installed = drive(&mut rcp, 400, |t| !(0..=20).contains(&t));
        assert_eq!(installed, vec![1, 2], "retry re-delivered after restart");
        let s = rcp.stats();
        assert!(s.lost_to_downtime >= 2, "{s:?}");
        assert!(s.retries > 0, "{s:?}");
    }

    #[test]
    fn without_retry_downtime_means_silent_loss() {
        // Fire-and-forget: the channel's faults land unmitigated.
        let cfg = ReliabilityConfig {
            retry: false,
            reconcile: false,
            ..ReliabilityConfig::default()
        };
        let mut rcp = ReliableControlPlane::new(program(2), cfg, None);
        let installed = drive(&mut rcp, 400, |t| !(0..=20).contains(&t));
        assert_eq!(installed, Vec::<u32>::new(), "policies silently gone");
        let s = rcp.stats();
        assert_eq!(s.retries, 0);
        assert_eq!(s.lost_to_downtime, 2);
    }

    #[test]
    fn reconcile_repushes_after_crash_and_records_recovery() {
        let cfg = ReliabilityConfig {
            reconcile_interval: ms(100),
            ..ReliabilityConfig::default()
        };
        let mut rcp = ReliableControlPlane::new(program(2), cfg, None);
        // Deliver both updates normally.
        let mut installed = drive(&mut rcp, 10, |_| true);
        assert_eq!(installed, vec![1, 2]);
        // Crash at t=20ms wipes the switch's ACLs.
        installed.clear();
        rcp.on_switch_crash(ms(20));
        assert!(rcp.diverged());
        // First reconcile pass after the crash re-pushes the diff.
        assert!(rcp.reconcile_due(ms(100)));
        let pushes = rcp.reconcile(ms(100), &installed);
        assert_eq!(pushes, 2);
        assert!(!rcp.reconcile_due(ms(150)));
        // The re-pushes arrive through poll (dedup set does NOT block
        // them: fresh seqs).
        for t in 100..=110 {
            for update in rcp.poll(ms(t), true) {
                if let PolicyUpdate::InstallAcl { ip, .. } = update {
                    installed.push(ip);
                }
            }
        }
        installed.sort_unstable();
        assert_eq!(installed, vec![1, 2]);
        // Next pass finds no diff: the recovery episode closes.
        assert!(rcp.reconcile_due(ms(200)));
        assert_eq!(rcp.reconcile(ms(200), &installed), 0);
        assert!(!rcp.diverged());
        assert_eq!(rcp.recoveries(), 1);
        assert_eq!(rcp.recovery_time(), ms(180), "crash 20ms → converged 200ms");
        let s = rcp.stats();
        assert_eq!(s.reconcile_pushes, 2);
        assert_eq!(s.reconcile_checks, 2);
    }

    #[test]
    fn reconcile_removes_acls_the_program_no_longer_wants() {
        let mut p = program(1);
        p.remove_acl(ms(5), 1);
        let cfg = ReliabilityConfig {
            reconcile_interval: ms(50),
            ..ReliabilityConfig::default()
        };
        let mut rcp = ReliableControlPlane::new(p, cfg, None);
        // Let the program's own updates issue and land first.
        let _ = drive(&mut rcp, 10, |_| true);
        // Pretend the switch reports ip 1 and a stale ip 9 installed.
        assert!(rcp.desired_acls(ms(50)).is_empty());
        let pushes = rcp.reconcile(ms(50), &[1, 9]);
        assert_eq!(pushes, 2, "both stale installs must be removed");
        let removed: Vec<u32> = rcp
            .poll(ms(50), true)
            .into_iter()
            .filter_map(|u| match u {
                PolicyUpdate::RemoveAcl { ip } => Some(ip),
                _ => None,
            })
            .collect();
        assert_eq!(removed, vec![1, 9]);
    }

    #[test]
    fn crash_with_no_desired_state_is_not_a_divergence() {
        let mut rcp = ReliableControlPlane::new(
            ControlPlaneProgram::new(),
            ReliabilityConfig::default(),
            None,
        );
        rcp.on_switch_crash(ms(10));
        assert!(!rcp.diverged());
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let ch = ChannelFaultConfig {
            drop_p: 1.0,
            seed: 2,
            ..ChannelFaultConfig::default()
        };
        let cfg = ReliabilityConfig {
            max_attempts: 3,
            retry_timeout: ms(5),
            max_backoff: ms(10),
            ..ReliabilityConfig::default()
        };
        let mut rcp = ReliableControlPlane::new(program(1), cfg, Some(ch));
        let installed = drive(&mut rcp, 500, |_| true);
        assert!(installed.is_empty());
        let s = rcp.stats();
        assert_eq!(s.gave_up, 1, "{s:?}");
        assert_eq!(s.retries, 2, "attempts beyond the first: {s:?}");
        assert_eq!(rcp.in_flight.len(), 0);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let ch = ChannelFaultConfig {
            drop_p: 0.3,
            dup_p: 0.2,
            delay: ms(2),
            jitter: ms(5),
            seed: 77,
        };
        let run = || {
            let mut rcp =
                ReliableControlPlane::new(program(6), ReliabilityConfig::default(), Some(ch));
            let installed = drive(&mut rcp, 2_000, |t| !(100..=140).contains(&t));
            (installed, rcp.stats())
        };
        assert_eq!(run(), run());
    }
}
