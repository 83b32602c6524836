//! The typed event vocabulary: [`TraceConfig`], [`CauseId`],
//! [`TraceEvent`], and [`TraceEventKind`].

/// Trace layer configuration. `Copy` so it can live inside the sim
/// configs without churn; `Default` is **disabled** — tracing is
/// strictly opt-in and a disabled tracer is a guaranteed no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether any events are recorded at all.
    pub enabled: bool,
    /// Ring capacity **per host**. When a host's ring is full the
    /// oldest event is overwritten and `dropped` is incremented.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 65_536,
        }
    }
}

impl TraceConfig {
    /// An enabled config with the default per-host capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..Self::default()
        }
    }
}

/// The causality id linking a policy update to everything it triggers.
///
/// A fresh id is allocated when a control-plane update starts applying
/// (`Tracer::begin_update`): `((host + 1) << 32) | update_seq`, which is
/// globally unique, deterministic, and independent of worker count.
/// The [`super::Tracer`] latches the id of the most recent cache flush
/// as the *rebuild cause*; subsequent window aggregates, detections,
/// and defense transitions carry that id — attributing the rebuild
/// storm (and its detection) to the update that flushed the cache.
/// `NONE` (0) marks events with no attributable cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CauseId(pub u64);

impl CauseId {
    /// No attributable cause.
    pub const NONE: CauseId = CauseId(0);

    /// The id for update number `update_seq` on `host`.
    pub fn new(host: u32, update_seq: u32) -> Self {
        CauseId(((host as u64 + 1) << 32) | update_seq as u64)
    }

    /// Whether this is a real cause (not [`CauseId::NONE`]).
    pub fn is_some(&self) -> bool {
        self.0 != 0
    }

    /// The host that issued the causing update (`None` for
    /// [`CauseId::NONE`]).
    pub fn host(&self) -> Option<u32> {
        if self.0 == 0 {
            None
        } else {
            Some((self.0 >> 32) as u32 - 1)
        }
    }
}

/// One trace event: sim-time stamp, emitting host, per-host sequence
/// number (tie-break within a tick), causality id, and the typed
/// payload. Everything is `Copy` — recording an event never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Sim time in nanoseconds (tick boundary), never wall clock.
    pub at_ns: u64,
    /// Emitting host id.
    pub host: u32,
    /// Per-host monotone sequence number; orders same-tick events.
    pub seq: u32,
    /// Causality id ([`CauseId::NONE`] when unattributed).
    pub cause: CauseId,
    /// The typed payload.
    pub kind: TraceEventKind,
}

/// The typed payloads. Window events summarize one executed tick
/// (event-driven runs skip provably-idle ticks, so quiet ticks emit
/// nothing — which is exactly why the skip is trace-safe).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// One costed control-plane policy update applied at the switch.
    /// `op` codes the update kind: 0 = ACL install, 1 = ACL removal,
    /// 2 = pod attach.
    PolicyUpdate {
        /// Update kind code (0 install, 1 remove, 2 attach).
        op: u8,
        /// Datapath cycles the update consumed.
        cycles: u64,
        /// Megaflow entries its invalidation discarded.
        flushed: u32,
        /// Whether the invalidation was scoped to the updated
        /// destination rather than a global flush.
        scoped: bool,
        /// Whether the update changed switch state.
        applied: bool,
    },
    /// A cache invalidation that actually flushed state. Carries the
    /// causing update's id; the tracer latches this id as the rebuild
    /// cause for subsequent window aggregates.
    CacheFlush {
        /// Megaflow entries discarded.
        flushed: u32,
        /// Scoped vs. global invalidation.
        scoped: bool,
    },
    /// Fast-path packet-batch summary for one executed tick.
    BatchWindow {
        /// Packets processed.
        packets: u32,
        /// Microflow-cache hits.
        microflow_hits: u32,
        /// Megaflow-cache hits.
        megaflow_hits: u32,
        /// Slow-path upcalls raised.
        upcalls: u32,
        /// Packets denied by policy.
        policy_drops: u32,
        /// Cycles consumed this tick (packets + control).
        cycles: u64,
    },
    /// Upcall-pipeline summary for one executed tick.
    UpcallWindow {
        /// Upcalls accepted onto queues.
        enqueued: u32,
        /// Upcalls tail-dropped at full queues.
        queue_drops: u32,
        /// Upcalls resolved by handlers.
        handled: u32,
        /// Megaflow installs flushed at step ends.
        installs: u32,
    },
    /// Megaflow-cache churn snapshot for one executed tick.
    MegaflowChurn {
        /// Megaflow entries resident after the tick.
        megaflows: u32,
        /// Distinct wildcard masks (subtables) resident.
        masks: u32,
    },
    /// Control-channel delivery summary for one executed tick
    /// (fault-injected channels only; a perfect channel emits nothing).
    ControlChannel {
        /// Updates delivered by the forward channel.
        delivered: u32,
        /// Updates dropped by the forward channel.
        dropped: u32,
        /// Retransmissions sent.
        retries: u32,
        /// Deliveries discarded because the switch was down.
        lost_to_downtime: u32,
        /// Updates actually handed to the switch.
        applied: u32,
    },
    /// One desired-vs-installed reconciliation pass.
    Reconcile {
        /// Updates re-pushed to repair drift.
        pushes: u32,
    },
    /// Defense controller state transition. States code as 0 = Idle,
    /// 1 = Suspect, 2 = Mitigating, 3 = Cooldown.
    DefenseTransition {
        /// State before the transition.
        from: u8,
        /// State after the transition.
        to: u8,
        /// Mitigation/revert actions taken at the transition.
        actions: u32,
    },
    /// One detector firing. `signal` codes the position in
    /// `pi_detect::Signal::ALL` (5 = PolicyChurn).
    Detection {
        /// Signal code (index into `Signal::ALL`).
        signal: u8,
        /// Observed value that fired.
        value: f64,
        /// Threshold it crossed.
        threshold: f64,
    },
    /// A switch crash/restart and what it wiped.
    Crash {
        /// Installed ACLs lost.
        acls_lost: u32,
        /// Cached flow entries discarded.
        flows_lost: u32,
        /// Queued upcalls discarded.
        upcalls_lost: u32,
    },
}

impl TraceEventKind {
    /// Stable event-kind name used by both exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::PolicyUpdate { .. } => "policy_update",
            TraceEventKind::CacheFlush { .. } => "cache_flush",
            TraceEventKind::BatchWindow { .. } => "batch_window",
            TraceEventKind::UpcallWindow { .. } => "upcall_window",
            TraceEventKind::MegaflowChurn { .. } => "megaflow_churn",
            TraceEventKind::ControlChannel { .. } => "control_channel",
            TraceEventKind::Reconcile { .. } => "reconcile",
            TraceEventKind::DefenseTransition { .. } => "defense_transition",
            TraceEventKind::Detection { .. } => "detection",
            TraceEventKind::Crash { .. } => "crash",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_id_roundtrips_its_host() {
        let id = CauseId::new(7, 42);
        assert!(id.is_some());
        assert_eq!(id.host(), Some(7));
        assert_eq!(CauseId::NONE.host(), None);
        assert!(!CauseId::NONE.is_some());
        // Host 0, update 0 must still be distinguishable from NONE.
        assert!(CauseId::new(0, 0).is_some());
    }

    #[test]
    fn default_config_is_disabled() {
        assert!(!TraceConfig::default().enabled);
        assert!(TraceConfig::enabled().enabled);
    }
}
