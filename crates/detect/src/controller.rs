//! The closed-loop defense controller.
//!
//! A four-state machine — Idle → Suspect → Mitigating → Cooldown —
//! driven by the detector bank's latched alarms, with hysteresis at
//! every edge: escalation needs `confirm_samples` *consecutive*
//! alarming samples, de-escalation needs five consecutive quiet ones
//! (plus a minimum mitigation dwell of ten samples), Cooldown lasts ten
//! more quiet samples, and Cooldown re-arms straight back to Mitigating
//! on any alarm. On entering Mitigating the controller flips the
//! switch's runtime-mutable knobs — per-port fair-share upcall quota,
//! staged subtable lookup, offender-port quarantine — and on returning
//! to Idle it restores what it changed.

use pi_backend::DataplaneBackend;
use pi_core::SimTime;
use pi_trace::{TraceEventKind, Tracer};

use crate::detector::{DetectionEvent, DetectorBank, DetectorConfig};
use crate::telemetry::{TelemetrySample, TelemetryTap};

/// Consecutive quiet samples required to leave Mitigating.
const QUIET_SAMPLES: u32 = 5;
/// Minimum samples spent Mitigating before Cooldown is reachable.
const MIN_MITIGATION_SAMPLES: u32 = 10;
/// Quiet samples spent in Cooldown before reverting to Idle.
const COOLDOWN_SAMPLES: u32 = 10;

/// One actuation the controller performed (or reverted) — the
/// backends' actuator vocabulary, re-exported.
pub use pi_backend::DefenseAction;

/// Where the control loop currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseState {
    /// No anomaly; mitigations (if any were applied) are reverted.
    Idle,
    /// First alarming sample seen; waiting for confirmation before
    /// actuating (absorbs one-sample blips).
    Suspect,
    /// Mitigations are active.
    Mitigating,
    /// Signals went quiet under mitigation; waiting out the cooldown
    /// before reverting (absorbs attack lulls).
    Cooldown,
}

impl DefenseState {
    /// Stable trace code: 0 = Idle, 1 = Suspect, 2 = Mitigating,
    /// 3 = Cooldown. `pi_trace` transition events carry it.
    pub fn code(&self) -> u8 {
        match self {
            DefenseState::Idle => 0,
            DefenseState::Suspect => 1,
            DefenseState::Mitigating => 2,
            DefenseState::Cooldown => 3,
        }
    }
}

/// Controller tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerConfig {
    /// Detector-bank tuning.
    pub detector: DetectorConfig,
    /// Consecutive alarming samples (including the one that entered
    /// Suspect) required to escalate Suspect → Mitigating.
    pub confirm_samples: u32,
    /// Fair-share actuator: per-port upcall quota to impose while
    /// mitigating (no-op on an inline pipeline).
    pub fair_share_quota: Option<u32>,
    /// Staged-lookup actuator: enable staged subtable lookup while
    /// mitigating.
    pub enable_staged_lookup: bool,
    /// Quarantine actuator: quarantine destinations the detections
    /// attribute (more than 64 masks: [`TelemetrySample::offenders`]).
    /// Quarantines are lifted on returning to Idle, which keeps the
    /// loop closed.
    pub quarantine_offenders: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            detector: DetectorConfig::default(),
            confirm_samples: 2,
            fair_share_quota: Some(8),
            enable_staged_lookup: true,
            quarantine_offenders: true,
        }
    }
}

/// A state transition, with the actions it triggered.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenseTransition {
    /// When it happened.
    pub at: SimTime,
    /// The state left.
    pub from: DefenseState,
    /// The state entered.
    pub to: DefenseState,
    /// Actuations performed on this transition (entering Mitigating
    /// applies, returning to Idle reverts; other edges act only when a
    /// new offender is quarantined mid-mitigation).
    pub actions: Vec<DefenseAction>,
}

/// Everything the controller did over a run — the sim/fleet reports
/// carry one per defended node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DefenseReport {
    /// Every state transition, in order.
    pub timeline: Vec<DefenseTransition>,
    /// Every detector rising edge, in order.
    pub detections: Vec<DetectionEvent>,
    /// Times Mitigating was entered from Suspect — the false-positive
    /// counter when the workload is known benign.
    pub activations: u64,
    /// Samples observed.
    pub samples: u64,
}

impl DefenseReport {
    /// Timestamp of the first detection, if any.
    pub fn first_detection(&self) -> Option<SimTime> {
        self.detections.first().map(|e| e.at)
    }

    /// Timestamp mitigation was first applied, if ever. A Cooldown
    /// re-arm does not count — its mitigations were never reverted.
    pub fn first_mitigation(&self) -> Option<SimTime> {
        self.timeline
            .iter()
            .find(|t| t.to == DefenseState::Mitigating && t.from != DefenseState::Cooldown)
            .map(|t| t.at)
    }
}

/// The per-switch control loop: telemetry tap + detector bank + state
/// machine + actuators.
#[derive(Debug, Clone)]
pub struct DefenseController {
    cfg: ControllerConfig,
    tap: TelemetryTap,
    bank: DetectorBank,
    state: DefenseState,
    /// Consecutive alarming samples (Suspect escalation counter).
    alarm_streak: u32,
    /// Consecutive quiet samples (de-escalation counter).
    quiet_streak: u32,
    /// Samples spent in Mitigating since it was entered.
    mitigation_dwell: u32,
    /// Destinations this controller quarantined (so it only ever
    /// releases its own).
    quarantined: Vec<u32>,
    /// Pre-mitigation knob values to restore on Idle.
    saved_quota: Option<Option<u32>>,
    saved_staged: Option<bool>,
    report: DefenseReport,
    /// Trace handle (disabled by default — a guaranteed no-op).
    tracer: Tracer,
}

impl DefenseController {
    /// A controller with the given tuning.
    pub fn new(cfg: ControllerConfig) -> Self {
        DefenseController {
            bank: DetectorBank::new(cfg.detector),
            cfg,
            tap: TelemetryTap::new(),
            state: DefenseState::Idle,
            alarm_streak: 0,
            quiet_streak: 0,
            mitigation_dwell: 0,
            quarantined: Vec::new(),
            saved_quota: None,
            saved_staged: None,
            report: DefenseReport::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a trace handle: detections and state transitions are
    /// recorded through it ([`pi_trace::TraceEventKind::Detection`] /
    /// [`pi_trace::TraceEventKind::DefenseTransition`]), attributed to
    /// the latched rebuild cause — linking a policy-flap detection back
    /// to the update that flushed the cache.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// A controller with the default tuning.
    pub fn with_defaults() -> Self {
        Self::new(ControllerConfig::default())
    }

    /// The current state.
    pub fn state(&self) -> DefenseState {
        self.state
    }

    /// The accumulated report.
    pub fn report(&self) -> &DefenseReport {
        &self.report
    }

    /// Consumes the controller, yielding its report.
    pub fn into_report(self) -> DefenseReport {
        self.report
    }

    /// One control-loop iteration: sample the switch, feed the
    /// detectors, advance the state machine, actuate. Call at a fixed
    /// cadence (the engines use [`pi_core::SimTime`]-derived sample
    /// windows). Returns the actions performed this step.
    pub fn step(&mut self, switch: &mut dyn DataplaneBackend, now: SimTime) -> Vec<DefenseAction> {
        let sample = self.tap.sample(&*switch, now);
        self.observe(&sample, Some(switch))
    }

    /// Resets the control loop after a switch crash/restart.
    ///
    /// The restarted switch already lost every actuation (quarantines,
    /// quota, staged-lookup overrides die with the process), and the
    /// telemetry baselines learned from the pre-crash switch are wrong
    /// for the post-crash one — the cold-cache refill looks exactly
    /// like an upcall-flood attack to a stale EWMA, so carrying the
    /// baseline over would false-alarm on every restart. The controller
    /// therefore **deterministically resets to Idle**: fresh tap, fresh
    /// detector bank, no streaks, no quarantine record, no saved knob
    /// values (there is nothing left on the switch to restore them to).
    /// An interrupted Mitigating/Cooldown episode is closed with a
    /// timeline transition at `now`, so reports show the truncation
    /// instead of silently forgetting it.
    pub fn on_switch_restart(&mut self, now: SimTime) {
        if self.state != DefenseState::Idle {
            // Crash truncation starts a new chain; no rebuild cause.
            self.tracer.emit_uncaused(
                now.as_nanos(),
                TraceEventKind::DefenseTransition {
                    from: self.state.code(),
                    to: DefenseState::Idle.code(),
                    actions: 0,
                },
            );
            self.report.timeline.push(DefenseTransition {
                at: now,
                from: self.state,
                to: DefenseState::Idle,
                actions: Vec::new(),
            });
        }
        self.state = DefenseState::Idle;
        self.alarm_streak = 0;
        self.quiet_streak = 0;
        self.mitigation_dwell = 0;
        self.quarantined.clear();
        self.saved_quota = None;
        self.saved_staged = None;
        self.tap = TelemetryTap::new();
        self.bank = DetectorBank::new(self.cfg.detector);
    }

    /// State-machine advance on an externally produced sample. With
    /// `switch` absent (synthetic-sample tests) the actions are
    /// *decided* but not applied.
    pub fn observe(
        &mut self,
        sample: &TelemetrySample,
        mut switch: Option<&mut dyn DataplaneBackend>,
    ) -> Vec<DefenseAction> {
        self.report.samples += 1;
        let events = self.bank.observe(sample);
        // Offenders are judged on the *current* attribution, not only
        // on rising-edge events: a destination crossing the mask
        // threshold while the alarm is already latched (mid-populate)
        // must still be quarantined. Same filter the bank applies to
        // event attribution.
        let offenders = sample.offenders();
        if self.tracer.is_enabled() {
            for ev in &events {
                self.tracer.emit(
                    ev.at.as_nanos(),
                    TraceEventKind::Detection {
                        signal: ev.signal.code(),
                        value: ev.value,
                        threshold: ev.threshold,
                    },
                );
            }
        }
        self.report.detections.extend(events);
        let alarm = self.bank.any_active();
        if alarm {
            self.alarm_streak += 1;
            self.quiet_streak = 0;
        } else {
            self.alarm_streak = 0;
            self.quiet_streak += 1;
        }

        let mut actions = Vec::new();
        let from = self.state;
        match self.state {
            DefenseState::Idle => {
                if alarm {
                    self.state = DefenseState::Suspect;
                    // confirm_samples = 1 means "no confirmation
                    // dwell": escalate on the detecting sample itself.
                    if self.alarm_streak >= self.cfg.confirm_samples {
                        self.escalate(&mut switch, &offenders, &mut actions);
                    }
                }
            }
            DefenseState::Suspect => {
                if !alarm {
                    self.state = DefenseState::Idle;
                } else if self.alarm_streak >= self.cfg.confirm_samples {
                    self.escalate(&mut switch, &offenders, &mut actions);
                }
            }
            DefenseState::Mitigating => {
                self.mitigation_dwell += 1;
                // The attack may shift targets mid-mitigation: newly
                // attributed offenders join the quarantine.
                self.quarantine_new(&mut switch, &offenders, &mut actions);
                if self.quiet_streak >= QUIET_SAMPLES
                    && self.mitigation_dwell >= MIN_MITIGATION_SAMPLES
                {
                    self.state = DefenseState::Cooldown;
                }
            }
            DefenseState::Cooldown => {
                if alarm {
                    // Mitigations are still in force — just re-arm.
                    self.state = DefenseState::Mitigating;
                } else if self.quiet_streak >= QUIET_SAMPLES + COOLDOWN_SAMPLES {
                    self.state = DefenseState::Idle;
                    self.revert_mitigations(&mut switch, &mut actions);
                }
            }
        }
        if self.state != from || !actions.is_empty() {
            self.tracer.emit(
                sample.at.as_nanos(),
                TraceEventKind::DefenseTransition {
                    from: from.code(),
                    to: self.state.code(),
                    actions: actions.len() as u32,
                },
            );
            self.report.timeline.push(DefenseTransition {
                at: sample.at,
                from,
                to: self.state,
                actions: actions.clone(),
            });
        }
        actions
    }

    /// Enters Mitigating and applies the actuators.
    fn escalate(
        &mut self,
        switch: &mut Option<&mut dyn DataplaneBackend>,
        offenders: &[u32],
        actions: &mut Vec<DefenseAction>,
    ) {
        self.state = DefenseState::Mitigating;
        self.mitigation_dwell = 0;
        self.report.activations += 1;
        self.apply_mitigations(switch, offenders, actions);
    }

    /// Performs `action` on the switch (when there is one) and records
    /// it. A quota is recorded only where it took effect — an inline
    /// pipeline has none to set; staged lookup and quarantines are
    /// recorded as decided, on every architecture.
    fn act(
        switch: &mut Option<&mut dyn DataplaneBackend>,
        action: DefenseAction,
        actions: &mut Vec<DefenseAction>,
    ) {
        let took_effect = switch.as_deref_mut().is_none_or(|sw| sw.actuate(action));
        if took_effect || !matches!(action, DefenseAction::SetPortQuota(_)) {
            actions.push(action);
        }
    }

    fn apply_mitigations(
        &mut self,
        switch: &mut Option<&mut dyn DataplaneBackend>,
        offenders: &[u32],
        actions: &mut Vec<DefenseAction>,
    ) {
        if let Some(quota) = self.cfg.fair_share_quota {
            if self.saved_quota.is_none() {
                self.saved_quota = Some(switch.as_deref().and_then(current_quota));
            }
            Self::act(switch, DefenseAction::SetPortQuota(Some(quota)), actions);
        }
        if self.cfg.enable_staged_lookup {
            if self.saved_staged.is_none() {
                self.saved_staged = Some(
                    switch
                        .as_deref()
                        .map(|sw| sw.config().staged_lookup)
                        .unwrap_or(false),
                );
            }
            Self::act(switch, DefenseAction::SetStagedLookup(true), actions);
        }
        self.quarantine_new(switch, offenders, actions);
    }

    fn quarantine_new(
        &mut self,
        switch: &mut Option<&mut dyn DataplaneBackend>,
        offenders: &[u32],
        actions: &mut Vec<DefenseAction>,
    ) {
        if !self.cfg.quarantine_offenders {
            return;
        }
        for &ip in offenders {
            if self.quarantined.contains(&ip) {
                continue;
            }
            self.quarantined.push(ip);
            Self::act(switch, DefenseAction::Quarantine(ip), actions);
        }
    }

    fn revert_mitigations(
        &mut self,
        switch: &mut Option<&mut dyn DataplaneBackend>,
        actions: &mut Vec<DefenseAction>,
    ) {
        if let Some(saved) = self.saved_quota.take() {
            Self::act(switch, DefenseAction::SetPortQuota(saved), actions);
        }
        if let Some(saved) = self.saved_staged.take() {
            Self::act(switch, DefenseAction::SetStagedLookup(saved), actions);
        }
        for ip in std::mem::take(&mut self.quarantined) {
            Self::act(switch, DefenseAction::ReleaseQuarantine(ip), actions);
        }
    }
}

/// The backend's current per-port quota (None under the inline
/// pipeline, where the knob does not exist).
fn current_quota(sw: &dyn DataplaneBackend) -> Option<u32> {
    match sw.config().pipeline {
        pi_datapath::PipelineMode::Bounded(cfg) => cfg.port_quota_per_step,
        pi_datapath::PipelineMode::Inline => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_ms: u64, drops: u64, backlog: usize) -> TelemetrySample {
        TelemetrySample {
            at: SimTime::from_millis(at_ms),
            packets: 1_000,
            avg_probe_depth: 1.0,
            mask_count: 4,
            mask_growth: 0,
            emc_thrash: 0.0,
            upcalls: 10,
            upcall_backlog: backlog,
            upcall_drops: drops,
            policy_updates: 0,
            cache_flushes: 0,
            top_offenders: vec![],
        }
    }

    fn controller() -> DefenseController {
        DefenseController::with_defaults()
    }

    #[test]
    fn full_cycle_idle_suspect_mitigating_cooldown_idle() {
        let mut c = controller();
        let mut t = 0u64;
        let mut feed = |c: &mut DefenseController, drops, backlog| {
            t += 1;
            c.observe(&sample(t, drops, backlog), None);
            c.state()
        };
        // Warm-up (5 samples) + quiet: Idle.
        for _ in 0..7 {
            assert_eq!(feed(&mut c, 0, 0), DefenseState::Idle);
        }
        // Alarm: one sample suspects, the second confirms.
        assert_eq!(feed(&mut c, 500, 400), DefenseState::Suspect);
        assert_eq!(feed(&mut c, 500, 400), DefenseState::Mitigating);
        assert_eq!(c.report().activations, 1);
        assert_eq!(c.report().first_mitigation(), Some(SimTime::from_millis(9)));
        let applied = &c.report().timeline.last().unwrap().actions;
        assert!(applied.contains(&DefenseAction::SetPortQuota(Some(8))));
        assert!(applied.contains(&DefenseAction::SetStagedLookup(true)));
        // Attack persists: stays Mitigating.
        for _ in 0..10 {
            assert_eq!(feed(&mut c, 500, 400), DefenseState::Mitigating);
        }
        // Attack stops: five quiet samples to Cooldown (the ten-sample
        // dwell is already met), then ten more to Idle, which reverts.
        for _ in 0..4 {
            assert_eq!(feed(&mut c, 0, 0), DefenseState::Mitigating);
        }
        assert_eq!(feed(&mut c, 0, 0), DefenseState::Cooldown);
        for _ in 0..9 {
            assert_eq!(feed(&mut c, 0, 0), DefenseState::Cooldown);
        }
        assert_eq!(feed(&mut c, 0, 0), DefenseState::Idle);
        let reverted = &c.report().timeline.last().unwrap().actions;
        assert!(reverted.contains(&DefenseAction::SetPortQuota(None)));
        assert!(reverted.contains(&DefenseAction::SetStagedLookup(false)));
        assert_eq!(c.report().activations, 1, "one activation for the episode");
    }

    #[test]
    fn switch_restart_resets_to_idle_with_fresh_baseline() {
        let mut c = controller();
        let mut t = 0u64;
        let mut feed = |c: &mut DefenseController, drops, backlog| {
            t += 1;
            c.observe(&sample(t, drops, backlog), None);
            c.state()
        };
        // Warm up, then drive into Mitigating mid-episode.
        for _ in 0..7 {
            feed(&mut c, 0, 0);
        }
        feed(&mut c, 500, 400);
        assert_eq!(feed(&mut c, 500, 400), DefenseState::Mitigating);

        // Crash: deterministic reset to Idle, episode closed on the
        // timeline with no (unapplicable) revert actions.
        c.on_switch_restart(SimTime::from_millis(10));
        assert_eq!(c.state(), DefenseState::Idle);
        let last = c.report().timeline.last().unwrap();
        assert_eq!(last.from, DefenseState::Mitigating);
        assert_eq!(last.to, DefenseState::Idle);
        assert!(last.actions.is_empty(), "nothing on the switch to revert");

        // The detector bank genuinely starts over: samples that would
        // instantly re-escalate a warmed (stale) bank sit out the fresh
        // bank's warm-up instead — the cold-cache refill after a real
        // restart cannot false-alarm.
        for _ in 0..3 {
            assert_eq!(feed(&mut c, 500, 400), DefenseState::Idle);
        }

        // Restarting while already Idle adds no timeline noise.
        let len = c.report().timeline.len();
        c.on_switch_restart(SimTime::from_millis(20));
        assert_eq!(c.report().timeline.len(), len);
    }

    #[test]
    fn single_sample_blip_never_mitigates() {
        let mut c = controller();
        let mut t = 0u64;
        for _ in 0..7 {
            t += 1;
            c.observe(&sample(t, 0, 0), None);
        }
        // Alternating blips: Suspect ↔ Idle, never Mitigating — the
        // confirm hysteresis at work.
        for i in 0..20 {
            t += 1;
            let drops = if i % 2 == 0 { 500 } else { 0 };
            c.observe(&sample(t, drops, 0), None);
            assert_ne!(c.state(), DefenseState::Mitigating);
        }
        assert_eq!(c.report().activations, 0);
    }

    #[test]
    fn cooldown_realarm_returns_to_mitigating_without_reapplying() {
        let mut c = controller();
        let mut t = 0u64;
        let mut feed = |c: &mut DefenseController, drops| {
            t += 1;
            c.observe(&sample(t, drops, 0), None);
            c.state()
        };
        for _ in 0..7 {
            feed(&mut c, 0);
        }
        feed(&mut c, 500);
        feed(&mut c, 500);
        assert_eq!(c.state(), DefenseState::Mitigating);
        for _ in 0..10 {
            feed(&mut c, 500);
        }
        for _ in 0..5 {
            feed(&mut c, 0);
        }
        assert_eq!(c.state(), DefenseState::Cooldown);
        // The attack resumes mid-cooldown: straight back to Mitigating,
        // and the episode still counts as one activation.
        assert_eq!(feed(&mut c, 500), DefenseState::Mitigating);
        assert_eq!(c.report().activations, 1);
    }

    #[test]
    fn benign_constant_churn_baseline_stays_idle() {
        // A steady benign load (constant nonzero upcall rate, stable
        // backlog) must never alarm: the warm-up learns it as normal.
        let mut c = controller();
        for t in 1..200u64 {
            let s = TelemetrySample {
                upcalls: 2_000,
                upcall_backlog: 10,
                ..sample(t, 0, 10)
            };
            c.observe(&s, None);
            assert_eq!(c.state(), DefenseState::Idle);
        }
        assert!(c.report().detections.is_empty());
        assert_eq!(c.report().activations, 0);
    }
}
