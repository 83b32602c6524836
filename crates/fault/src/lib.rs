//! # pi-fault — deterministic fault injection and control-plane reliability
//!
//! Real clouds keep serving under partial failure; until this crate the
//! simulator assumed an immortal vswitch and a lossless CMS→switch
//! channel. That hid the paper's operational question: *does a
//! policy-injection attack get worse when it races a switch restart or
//! a flaky control plane?* (A crash wipes the switch's ACLs — a deny
//! rule silently vanishing is a security hole, not just a perf bug.)
//!
//! Three pieces, all tick-scheduled and shard-local so the fleet's
//! bit-identical worker-count invariant survives:
//!
//! * [`FaultSchedule`] / [`FaultPlan`] — a build-time program of
//!   **switch crash/restart** windows (caches, upcall queues and ACLs
//!   lost; restart priced through `CostModel::restart_fixed`), compiled
//!   into a cursor the node polls per tick — the same compiled-program
//!   pattern as `pi_cms::ControlPlane`.
//! * [`ChannelFaultConfig`] / [`Channel`] — a lossy, delaying,
//!   duplicating CMS→switch channel: per-message drop/duplicate
//!   probabilities and a jittered delivery delay (jitter produces
//!   reordering), driven by a seeded [`pi_core::SplitMix64`].
//! * [`ReliableControlPlane`] — an at-least-once delivery layer over a
//!   [`pi_cms::ControlPlaneProgram`]: sequence-numbered updates, acks
//!   (through the same lossy channel), per-update timeout with
//!   exponential backoff + jittered retry, receiver-side duplicate
//!   suppression, and a periodic **reconciliation loop** that diffs the
//!   CMS's desired ACL state against the switch's reported installed
//!   state and re-pushes the difference — turning a crash from silent
//!   policy loss into bounded-time convergence.

pub mod channel;
pub mod reliable;
pub mod schedule;

pub use channel::{Channel, ChannelFaultConfig, ChannelStats};
pub use reliable::{ControlChannelStats, ReliabilityConfig, ReliableControlPlane};
pub use schedule::{CrashSpec, FaultPlan, FaultSchedule};

/// Everything that went wrong (and was recovered) at one node over a
/// run — carried per node by the sim/fleet reports, and folded into
/// `BlastRadius` as the `fault_events` / `recovery_ticks` / `retries`
/// columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeFaultReport {
    /// Crash/restart cycles the switch went through.
    pub crashes: u64,
    /// Restart cycles charged against the node's budget
    /// (`crashes × CostModel::restart_fixed`).
    pub restart_cycles: u64,
    /// ACLs wiped by crashes (each one an unenforced deny policy until
    /// re-pushed).
    pub acls_lost: u64,
    /// Cached flow entries (megaflows / exact entries / offload
    /// entries) lost to crashes.
    pub flows_lost: u64,
    /// Pending upcalls discarded by crashes (switch-side queues).
    pub upcalls_lost: u64,
    /// In-flight deferred upcalls the node dropped on crash (reported
    /// to their sources as upcall drops).
    pub deferred_dropped: u64,
    /// Ticks between a crash and reconciliation convergence, summed
    /// over recovery episodes (zero when reconciliation never ran or
    /// never converged).
    pub recovery_ticks: u64,
    /// Control-channel delivery statistics (zeroed when no reliable
    /// control plane was attached).
    pub channel: ControlChannelStats,
}

impl NodeFaultReport {
    /// Total injected fault events: crashes, channel drops/duplicates,
    /// and deliveries lost to switch downtime.
    pub fn fault_events(&self) -> u64 {
        self.crashes
            + self.channel.dropped
            + self.channel.duplicated
            + self.channel.acks_dropped
            + self.channel.lost_to_downtime
    }
}
