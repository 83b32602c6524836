//! Build-time fault programs and their compiled runtime cursors.
//!
//! Mirrors the `ControlPlaneProgram` → `ControlPlane` split in
//! `pi_cms`: faults are authored in any order on a [`FaultSchedule`],
//! then [`FaultSchedule::compile`]d into a time-sorted [`FaultPlan`]
//! the node polls once per tick. Everything is plain data owned by the
//! node (shard-local in the fleet), so injecting faults cannot disturb
//! the bit-identical worker-count invariant.

use crate::channel::ChannelFaultConfig;
use pi_core::SimTime;

/// One switch crash/restart event: the switch goes down at `at` and
/// comes back `down_for` later with its caches, upcall queues and ACLs
/// wiped (routes and lifetime counters survive — the node agent
/// re-attaches ports, and stats live off-switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// When the switch process dies.
    pub at: SimTime,
    /// How long it stays down (zero = instant restart: state loss and
    /// the restart cost, but no blackout window).
    pub down_for: SimTime,
}

/// One host stall: the switch's cycle budget is starved (zero fresh
/// cycles per tick) while `at ≤ now < at + lasting`. Models a noisy
/// neighbour or a hypervisor hiccup — packets keep arriving and queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallSpec {
    /// When the stall begins.
    pub at: SimTime,
    /// How long it lasts.
    pub lasting: SimTime,
}

/// A build-time program of faults for one node: crash/restart events,
/// host-stall windows, and an optional CMS→switch channel fault model
/// (picked up by the node's reliable control plane, if one is
/// attached).
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    crashes: Vec<CrashSpec>,
    stalls: Vec<StallSpec>,
    channel: Option<ChannelFaultConfig>,
}

impl FaultSchedule {
    /// An empty schedule (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a switch crash at `at`, down for `down_for`.
    #[must_use]
    pub fn crash(mut self, at: SimTime, down_for: SimTime) -> Self {
        self.crashes.push(CrashSpec { at, down_for });
        self
    }

    /// Schedules a host stall at `at`, lasting `lasting`.
    #[must_use]
    pub fn stall(mut self, at: SimTime, lasting: SimTime) -> Self {
        self.stalls.push(StallSpec { at, lasting });
        self
    }

    /// Sets the CMS→switch channel fault model.
    #[must_use]
    pub fn channel(mut self, cfg: ChannelFaultConfig) -> Self {
        self.channel = Some(cfg);
        self
    }

    /// The channel fault model, if any.
    pub fn channel_config(&self) -> Option<ChannelFaultConfig> {
        self.channel
    }

    /// Merges `other` into this schedule (each event keeps its own
    /// timing; `other`'s channel model wins when both set one).
    pub fn merge(&mut self, other: FaultSchedule) {
        self.crashes.extend(other.crashes);
        self.stalls.extend(other.stalls);
        if other.channel.is_some() {
            self.channel = other.channel;
        }
    }

    /// True when the schedule injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty() && self.stalls.is_empty() && self.channel.is_none()
    }

    /// Compiles into the runtime cursor: events stably sorted by start
    /// time (ties keep program order).
    pub fn compile(mut self) -> FaultPlan {
        self.crashes.sort_by_key(|c| c.at);
        self.stalls.sort_by_key(|s| s.at);
        FaultPlan {
            crashes: self.crashes,
            crash_cursor: 0,
            stalls: self.stalls,
            stall_cursor: 0,
            stalled_until: SimTime::ZERO,
            channel: self.channel,
        }
    }
}

/// The runtime cursor over a compiled [`FaultSchedule`]. Poll
/// [`FaultPlan::next_crash`] and [`FaultPlan::stalled`] once per tick
/// with monotonically non-decreasing `now`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    crashes: Vec<CrashSpec>,
    crash_cursor: usize,
    stalls: Vec<StallSpec>,
    stall_cursor: usize,
    stalled_until: SimTime,
    channel: Option<ChannelFaultConfig>,
}

impl FaultPlan {
    /// Hands out the next crash whose start time has arrived, once.
    /// Call in a loop: several crashes scheduled on the same tick all
    /// fire (the later ones extend the downtime).
    pub fn next_crash(&mut self, now: SimTime) -> Option<CrashSpec> {
        let c = *self.crashes.get(self.crash_cursor)?;
        if c.at <= now {
            self.crash_cursor += 1;
            Some(c)
        } else {
            None
        }
    }

    /// True when a stall window covers `now`. Overlapping windows
    /// merge; the stall holds through the union of their spans.
    pub fn stalled(&mut self, now: SimTime) -> bool {
        while let Some(s) = self.stalls.get(self.stall_cursor) {
            if s.at > now {
                break;
            }
            self.stalled_until = self.stalled_until.max(s.at + s.lasting);
            self.stall_cursor += 1;
        }
        now < self.stalled_until
    }

    /// The channel fault model carried by the schedule, if any.
    pub fn channel_config(&self) -> Option<ChannelFaultConfig> {
        self.channel
    }

    /// The next instant at which this plan affects the node: `now`
    /// itself while a stall window is open (every stalled tick starves
    /// the budget and must be stepped), otherwise the earliest pending
    /// crash or stall start. `None` once the program is exhausted —
    /// polls strictly before the returned time observe and mutate
    /// nothing, so the event-driven engines may skip them.
    pub fn next_event(&self, now: SimTime) -> Option<SimTime> {
        if now < self.stalled_until {
            return Some(now);
        }
        let crash = self.crashes.get(self.crash_cursor).map(|c| c.at);
        let stall = self.stalls.get(self.stall_cursor).map(|s| s.at);
        match (crash, stall) {
            (Some(c), Some(s)) => Some(c.min(s)),
            (Some(c), None) => Some(c),
            (None, Some(s)) => Some(s),
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn crashes_fire_once_in_time_order() {
        let mut plan = FaultSchedule::new()
            .crash(ms(50), ms(10))
            .crash(ms(10), ms(5))
            .compile();
        assert_eq!(plan.next_crash(ms(0)), None);
        assert_eq!(
            plan.next_crash(ms(10)),
            Some(CrashSpec {
                at: ms(10),
                down_for: ms(5)
            })
        );
        assert_eq!(plan.next_crash(ms(10)), None, "handed out once");
        assert_eq!(
            plan.next_crash(ms(60)),
            Some(CrashSpec {
                at: ms(50),
                down_for: ms(10)
            })
        );
        assert_eq!(plan.next_crash(ms(60)), None, "none left");
    }

    #[test]
    fn same_tick_crashes_all_fire() {
        let mut plan = FaultSchedule::new()
            .crash(ms(5), ms(1))
            .crash(ms(5), ms(20))
            .compile();
        assert!(plan.next_crash(ms(5)).is_some());
        assert!(plan.next_crash(ms(5)).is_some());
        assert!(plan.next_crash(ms(5)).is_none());
    }

    #[test]
    fn stall_windows_cover_and_merge() {
        let mut plan = FaultSchedule::new()
            .stall(ms(10), ms(5))
            .stall(ms(12), ms(10)) // overlaps: union is [10, 22)
            .stall(ms(40), ms(2))
            .compile();
        assert!(!plan.stalled(ms(9)));
        assert!(plan.stalled(ms(10)));
        assert!(plan.stalled(ms(14)), "first window alone would have ended");
        assert!(plan.stalled(ms(21)));
        assert!(!plan.stalled(ms(22)), "window is half-open");
        assert!(!plan.stalled(ms(39)));
        assert!(plan.stalled(ms(40)));
        assert!(!plan.stalled(ms(42)));
    }

    #[test]
    fn empty_schedule_is_inert() {
        let sched = FaultSchedule::new();
        assert!(sched.is_empty());
        let mut plan = sched.compile();
        assert!(plan.next_crash(SimTime::from_secs(100)).is_none());
        assert!(!plan.stalled(SimTime::from_secs(100)));
        assert!(plan.channel_config().is_none());
    }
}
