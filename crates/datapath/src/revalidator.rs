//! The revalidator: periodic megaflow garbage collection.
//!
//! OVS's revalidator threads sweep the datapath roughly once a second,
//! deleting flows idle longer than `idle_timeout` (10 s by default).
//! For the attacker this is the metronome: every injected megaflow must
//! be refreshed at least once per idle window or its mask disappears —
//! which is exactly why the paper's covert stream only needs 1–2 Mb/s
//! (8192 refreshes / 10 s ≈ 820 pps of minimum-size frames).

use pi_core::SimTime;

use crate::megaflow::MegaflowCache;

/// Outcome of one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RevalidatorReport {
    /// When the sweep ran.
    pub at: SimTime,
    /// Entries evicted for idleness.
    pub evicted_idle: usize,
    /// Entries remaining after the sweep.
    pub remaining: usize,
    /// Masks remaining after the sweep.
    pub masks_remaining: usize,
}

/// Periodic idle-flow eviction.
#[derive(Debug, Clone)]
pub struct Revalidator {
    interval: SimTime,
    idle_timeout: SimTime,
    next_due: SimTime,
}

impl Revalidator {
    /// A revalidator sweeping every `interval`, evicting entries idle
    /// longer than `idle_timeout`. A zero `interval` is clamped to 1 ns
    /// (a sweep every observation) — it would otherwise wedge the
    /// catch-up loop in [`Revalidator::maybe_sweep`].
    pub fn new(interval: SimTime, idle_timeout: SimTime) -> Self {
        let interval = interval.max(SimTime::from_nanos(1));
        Revalidator {
            interval,
            idle_timeout,
            next_due: interval,
        }
    }

    /// The configured idle timeout.
    pub fn idle_timeout(&self) -> SimTime {
        self.idle_timeout
    }

    /// When the next sweep is due. Always a whole multiple of the
    /// interval: a step that overshoots (a long simulation gap, or a
    /// handler drain that ran past the boundary) re-anchors to the
    /// interval grid instead of drifting to `overshoot + interval`.
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    /// Runs the sweep if it is due; returns a report when it ran.
    /// Call this with monotonically non-decreasing `now`.
    pub fn maybe_sweep(
        &mut self,
        mfc: &mut MegaflowCache,
        now: SimTime,
    ) -> Option<RevalidatorReport> {
        if now < self.next_due {
            return None;
        }
        // Catch up (a long simulation gap still yields one sweep).
        while self.next_due <= now {
            self.next_due += self.interval;
        }
        Some(self.sweep_now(mfc, now))
    }

    /// Unconditionally sweeps (tests, explicit flush points).
    pub(crate) fn sweep_now(&self, mfc: &mut MegaflowCache, now: SimTime) -> RevalidatorReport {
        let evicted_idle = mfc.evict_idle(now, self.idle_timeout);
        RevalidatorReport {
            at: now,
            evicted_idle,
            remaining: mfc.len(),
            masks_remaining: mfc.mask_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_classifier::{Action, SubtableOrder};
    use pi_core::{Field, FlowKey, FlowMask, MaskedKey};

    fn mk(i: u8) -> MaskedKey {
        MaskedKey::new(
            FlowKey::tcp([i, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        )
    }

    fn cache_with(n: u8, t: SimTime) -> MegaflowCache {
        let mut c = MegaflowCache::new(1000, SubtableOrder::Insertion, false);
        for i in 0..n {
            c.install(mk(i), Action::Allow, t);
        }
        c
    }

    #[test]
    fn sweep_fires_on_schedule() {
        let mut r = Revalidator::new(SimTime::from_secs(1), SimTime::from_secs(10));
        let mut mfc = cache_with(3, SimTime::ZERO);
        assert!(r.maybe_sweep(&mut mfc, SimTime::from_millis(999)).is_none());
        let report = r.maybe_sweep(&mut mfc, SimTime::from_secs(1)).unwrap();
        assert_eq!(report.evicted_idle, 0);
        assert_eq!(report.remaining, 3);
        // Not due again until t = 2 s.
        assert!(r
            .maybe_sweep(&mut mfc, SimTime::from_millis(1500))
            .is_none());
    }

    #[test]
    fn idle_flows_evicted_after_timeout() {
        let r = Revalidator::new(SimTime::from_secs(1), SimTime::from_secs(10));
        let mut mfc = cache_with(5, SimTime::ZERO);
        // Keep one entry alive at t = 8 s.
        mfc.lookup(
            &FlowKey::tcp([2, 1, 1, 1], [0, 0, 0, 0], 0, 0),
            SimTime::from_secs(8),
        );
        let report = r.sweep_now(&mut mfc, SimTime::from_secs(11));
        assert_eq!(report.evicted_idle, 4);
        assert_eq!(report.remaining, 1);
    }

    #[test]
    fn long_gap_yields_single_catchup_sweep() {
        let mut r = Revalidator::new(SimTime::from_secs(1), SimTime::from_secs(10));
        let mut mfc = cache_with(2, SimTime::ZERO);
        let report = r.maybe_sweep(&mut mfc, SimTime::from_secs(60)).unwrap();
        assert_eq!(report.evicted_idle, 2);
        // Next due strictly after now.
        assert!(r.maybe_sweep(&mut mfc, SimTime::from_secs(60)).is_none());
        assert!(r.maybe_sweep(&mut mfc, SimTime::from_secs(61)).is_some());
    }

    #[test]
    fn eviction_boundary_is_exact_idle_timeout() {
        // An entry is kept at *exactly* idle_timeout of idleness and
        // evicted one nanosecond past it — the boundary the covert
        // stream's refresh economics are computed against.
        let r = Revalidator::new(SimTime::from_secs(1), SimTime::from_secs(10));
        let mut mfc = cache_with(1, SimTime::ZERO);
        let at_boundary = r.sweep_now(&mut mfc, SimTime::from_secs(10));
        assert_eq!(at_boundary.evicted_idle, 0, "idle == timeout survives");
        let past = r.sweep_now(&mut mfc, SimTime::from_secs(10) + SimTime::from_nanos(1));
        assert_eq!(past.evicted_idle, 1, "idle > timeout is reclaimed");
    }

    #[test]
    fn next_due_stays_on_the_interval_grid_after_overshoot() {
        let mut r = Revalidator::new(SimTime::from_secs(1), SimTime::from_secs(10));
        let mut mfc = cache_with(1, SimTime::ZERO);
        assert_eq!(r.next_due(), SimTime::from_secs(1));
        // A step overshoots the boundary by 0.7 s: the sweep runs, and
        // the next deadline is the *grid* point 3.0 s — not 3.7 s.
        assert!(r
            .maybe_sweep(&mut mfc, SimTime::from_millis(2_700))
            .is_some());
        assert_eq!(r.next_due(), SimTime::from_secs(3));
        // Landing exactly on the deadline sweeps and advances one step.
        assert!(r.maybe_sweep(&mut mfc, SimTime::from_secs(3)).is_some());
        assert_eq!(r.next_due(), SimTime::from_secs(4));
        // Repeated overshoots never accumulate drift.
        for s in 4..20u64 {
            r.maybe_sweep(&mut mfc, SimTime::from_secs(s) + SimTime::from_millis(999));
            assert_eq!(r.next_due(), SimTime::from_secs(s + 1));
        }
    }

    #[test]
    fn zero_interval_is_clamped_not_wedged() {
        let mut r = Revalidator::new(SimTime::ZERO, SimTime::from_secs(10));
        let mut mfc = cache_with(1, SimTime::ZERO);
        // Must terminate (pre-fix this looped forever) and sweep.
        assert!(r.maybe_sweep(&mut mfc, SimTime::from_secs(5)).is_some());
        assert!(r.next_due() > SimTime::from_secs(5));
    }

    #[test]
    fn refresh_rate_bounds_attacker_bandwidth() {
        // The attack-economics property: refreshing every entry once per
        // idle window keeps all masks alive forever.
        let mut r = Revalidator::new(SimTime::from_secs(1), SimTime::from_secs(10));
        let mut mfc = cache_with(50, SimTime::ZERO);
        for sec in 1..=30u64 {
            let now = SimTime::from_secs(sec);
            if sec % 9 == 0 {
                // Refresh everything (the covert stream's periodic pass).
                for i in 0..50u8 {
                    mfc.lookup(&FlowKey::tcp([i, 1, 1, 1], [0, 0, 0, 0], 0, 0), now);
                }
            }
            r.maybe_sweep(&mut mfc, now);
        }
        assert_eq!(mfc.len(), 50, "refreshed flows must all survive");
        // Stop refreshing: all evicted within one idle window + sweep.
        for sec in 31..=45u64 {
            r.maybe_sweep(&mut mfc, SimTime::from_secs(sec));
        }
        assert_eq!(mfc.len(), 0);
        assert_eq!(mfc.mask_count(), 0);
    }
}
