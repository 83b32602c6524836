//! Streaming change-point detectors over the telemetry signals.
//!
//! Each signal gets an EWMA baseline (mean + mean absolute deviation,
//! smoothing factor 0.3) learned during a five-sample warm-up and
//! frozen while the signal is in alarm — so an ongoing attack is never
//! absorbed into "normal". The alarm comparator is hysteretic: it arms
//! above `baseline + k_on·dev` and only disarms below
//! `baseline + k_off·dev`, with k_on/k_off = 4/2 (6/3 for EMC thrash),
//! so a signal dancing around the on-threshold ± ε cannot flap. An
//! absolute floor (`abs_min`) keeps near-zero baselines from alarming
//! on noise.

use pi_core::SimTime;

use crate::telemetry::TelemetrySample;

/// Samples used to learn the baseline before any alarm may fire.
const WARMUP_SAMPLES: u32 = 5;
/// EWMA smoothing factor for baseline mean and deviation.
const ALPHA: f64 = 0.3;

/// Which telemetry signal a detector watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// Mean subtable probes per packet (the mask attack's cost lever).
    ProbeDepth,
    /// Distinct-mask growth per window (Fig. 3's right axis, as a rate).
    MaskGrowth,
    /// Pending upcalls across all port queues (handler saturation).
    UpcallBacklog,
    /// Upcall queue tail drops per window (handler starvation loss).
    UpcallDrops,
    /// EMC collision evictions per packet (cache pollution).
    EmcThrash,
    /// Control-plane policy updates per window (the policy-flap
    /// attack's packet-free signature: ACL churn forcing flush
    /// storms).
    PolicyChurn,
}

impl Signal {
    /// All signals, in reporting order.
    pub const ALL: [Signal; 6] = [
        Signal::ProbeDepth,
        Signal::MaskGrowth,
        Signal::UpcallBacklog,
        Signal::UpcallDrops,
        Signal::EmcThrash,
        Signal::PolicyChurn,
    ];

    /// Stable wire/trace code: this signal's index in [`Signal::ALL`]
    /// (`PolicyChurn` = 5). `pi_trace` detection events carry it.
    pub fn code(&self) -> u8 {
        *self as u8
    }

    /// Extracts this signal's value from a sample. Mask growth is
    /// clamped at zero: shrinkage (evictions) is recovery, not attack.
    pub fn value(&self, s: &TelemetrySample) -> f64 {
        match self {
            Signal::ProbeDepth => s.avg_probe_depth,
            Signal::MaskGrowth => s.mask_growth.max(0) as f64,
            Signal::UpcallBacklog => s.upcall_backlog as f64,
            Signal::UpcallDrops => s.upcall_drops as f64,
            Signal::EmcThrash => s.emc_thrash,
            Signal::PolicyChurn => s.policy_updates as f64,
        }
    }

    /// `(k_on, k_off)`: arm when `value > baseline + k_on·dev`, disarm
    /// when `value ≤ baseline + k_off·dev`. EMC thrash is the noisiest
    /// signal and gets the widest band.
    fn hysteresis(&self) -> (f64, f64) {
        match self {
            Signal::EmcThrash => (6.0, 3.0),
            _ => (4.0, 2.0),
        }
    }
}

/// Per-signal detector tuning; the hysteresis band is fixed per
/// [`Signal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalConfig {
    /// Deviation floor: `dev` is clamped up to this, so a flat warm-up
    /// baseline still leaves headroom for benign jitter.
    pub dev_floor: f64,
    /// Values below this never alarm regardless of the baseline.
    pub abs_min: f64,
}

/// Detector bank tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Probe-depth tuning.
    pub probe_depth: SignalConfig,
    /// Mask-growth tuning.
    pub mask_growth: SignalConfig,
    /// Backlog tuning.
    pub upcall_backlog: SignalConfig,
    /// Drop-rate tuning.
    pub upcall_drops: SignalConfig,
    /// EMC-thrash tuning.
    pub emc_thrash: SignalConfig,
    /// Policy-churn tuning.
    pub policy_churn: SignalConfig,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            probe_depth: SignalConfig {
                dev_floor: 2.0,
                abs_min: 12.0,
            },
            mask_growth: SignalConfig {
                dev_floor: 8.0,
                abs_min: 48.0,
            },
            upcall_backlog: SignalConfig {
                dev_floor: 8.0,
                abs_min: 48.0,
            },
            upcall_drops: SignalConfig {
                dev_floor: 0.5,
                abs_min: 4.0,
            },
            emc_thrash: SignalConfig {
                dev_floor: 0.05,
                abs_min: 0.2,
            },
            // Routine operations install or remove the odd ACL — zero
            // or one update in almost every window; a flap attack runs
            // orders of magnitude hotter. The floor of 4 updates per
            // window keeps slow rollouts (a policy a second against a
            // 100 ms window) below the radar.
            policy_churn: SignalConfig {
                dev_floor: 0.5,
                abs_min: 4.0,
            },
        }
    }
}

impl DetectorConfig {
    /// The tuning for one signal.
    pub fn signal(&self, s: Signal) -> SignalConfig {
        match s {
            Signal::ProbeDepth => self.probe_depth,
            Signal::MaskGrowth => self.mask_growth,
            Signal::UpcallBacklog => self.upcall_backlog,
            Signal::UpcallDrops => self.upcall_drops,
            Signal::EmcThrash => self.emc_thrash,
            Signal::PolicyChurn => self.policy_churn,
        }
    }
}

/// One signal's EWMA baseline + hysteretic change-point comparator.
#[derive(Debug, Clone)]
pub struct ChangePointDetector {
    signal: Signal,
    cfg: SignalConfig,
    seen: u32,
    mean: f64,
    dev: f64,
    active: bool,
}

impl ChangePointDetector {
    /// A detector for `signal` with the given tuning.
    pub fn new(signal: Signal, cfg: SignalConfig) -> Self {
        ChangePointDetector {
            signal,
            cfg,
            seen: 0,
            mean: 0.0,
            dev: 0.0,
            active: false,
        }
    }

    /// Whether the signal is currently in alarm.
    pub fn active(&self) -> bool {
        self.active
    }

    /// The value the signal must exceed to arm right now.
    pub(crate) fn on_threshold(&self) -> f64 {
        let (k_on, _) = self.signal.hysteresis();
        (self.mean + k_on * self.dev.max(self.cfg.dev_floor)).max(self.cfg.abs_min)
    }

    /// The value the signal must fall below to disarm. Deliberately
    /// *not* floored by `abs_min`: flooring both thresholds would
    /// collapse the hysteresis gap whenever the floor dominates (on ==
    /// off ⇒ flapping at the floor ± ε). With `k_off < k_on` and a
    /// positive `dev_floor`, off < on always holds.
    pub(crate) fn off_threshold(&self) -> f64 {
        let (_, k_off) = self.signal.hysteresis();
        self.mean + k_off * self.dev.max(self.cfg.dev_floor)
    }

    /// Feeds one sample value; returns true on the *rising edge* (the
    /// sample that armed the alarm). The baseline only learns while the
    /// signal is quiet — an ongoing attack never becomes "normal".
    pub fn observe(&mut self, value: f64) -> bool {
        self.seen = self.seen.saturating_add(1);
        if self.seen <= WARMUP_SAMPLES {
            self.learn(value);
            return false;
        }
        let was_active = self.active;
        if self.active {
            if value < self.off_threshold() {
                self.active = false;
                self.learn(value);
            }
        } else if value >= self.on_threshold() {
            self.active = true;
        } else {
            self.learn(value);
        }
        self.active && !was_active
    }

    fn learn(&mut self, value: f64) {
        if self.seen == 1 {
            self.mean = value;
            self.dev = 0.0;
            return;
        }
        let a = ALPHA;
        self.dev = (1.0 - a) * self.dev + a * (value - self.mean).abs();
        self.mean = (1.0 - a) * self.mean + a * value;
    }
}

/// A typed detection, attributable to ports where attribution applies.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionEvent {
    /// When the detector armed.
    pub at: SimTime,
    /// Which signal crossed.
    pub signal: Signal,
    /// The crossing sample's value.
    pub value: f64,
    /// The on-threshold it crossed.
    pub threshold: f64,
    /// Destination IPs whose mask count exceeded the offender
    /// threshold at detection time (empty for signals that are not
    /// destination-attributable, e.g. a backlog of unroutable floods).
    pub offenders: Vec<u32>,
}

/// All six signal detectors over one switch's telemetry stream.
#[derive(Debug, Clone)]
pub struct DetectorBank {
    detectors: [ChangePointDetector; 6],
}

impl DetectorBank {
    /// A bank with the given tuning.
    pub fn new(cfg: DetectorConfig) -> Self {
        let mk = |s: Signal| ChangePointDetector::new(s, cfg.signal(s));
        DetectorBank {
            detectors: [
                mk(Signal::ProbeDepth),
                mk(Signal::MaskGrowth),
                mk(Signal::UpcallBacklog),
                mk(Signal::UpcallDrops),
                mk(Signal::EmcThrash),
                mk(Signal::PolicyChurn),
            ],
        }
    }

    /// Feeds one sample to every detector; returns the rising-edge
    /// events (at most one per signal per sample).
    pub fn observe(&mut self, sample: &TelemetrySample) -> Vec<DetectionEvent> {
        let mut events = Vec::new();
        for (signal, det) in Signal::ALL.iter().zip(self.detectors.iter_mut()) {
            let value = signal.value(sample);
            let threshold = det.on_threshold();
            if det.observe(value) {
                let offenders = sample.offenders();
                events.push(DetectionEvent {
                    at: sample.at,
                    signal: *signal,
                    value,
                    threshold,
                    offenders,
                });
            }
        }
        events
    }

    /// Whether any signal is currently in alarm (latched — stays true
    /// until the signal falls below its off-threshold).
    pub fn any_active(&self) -> bool {
        self.detectors.iter().any(|d| d.active())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(abs_min: f64) -> ChangePointDetector {
        ChangePointDetector::new(
            Signal::ProbeDepth,
            SignalConfig {
                dev_floor: 1.0,
                abs_min,
            },
        )
    }

    #[test]
    fn warmup_never_alarms_and_learns_the_baseline() {
        let mut d = detector(0.0);
        for _ in 0..5 {
            assert!(!d.observe(100.0));
        }
        assert!((d.mean - 100.0).abs() < 1e-9);
        // 100 ± 4·floor stays quiet; a step to 200 arms.
        assert!(!d.observe(103.0));
        assert!(d.observe(200.0));
        assert!(d.active());
    }

    #[test]
    fn hysteresis_does_not_flap_at_threshold_plus_minus_epsilon() {
        let eps = 0.01;
        // Dancing just under the (moving) on-threshold: never arms,
        // however long it goes on.
        let mut quiet = detector(10.0);
        for _ in 0..5 {
            quiet.observe(0.0);
        }
        for _ in 0..50 {
            // Multiplicative margin: the threshold itself drifts up as
            // the baseline absorbs the dance, and an additive ε would
            // eventually fall below f64 resolution.
            let just_under = quiet.on_threshold() * (1.0 - 1e-9);
            assert!(!quiet.observe(just_under));
            assert!(!quiet.active());
        }
        // One crossing arms — exactly one rising edge — and oscillating
        // around the *on* threshold afterwards stays armed (the
        // off-threshold is strictly lower): zero further edges.
        let mut d = detector(10.0);
        for _ in 0..5 {
            d.observe(0.0);
        }
        let on = d.on_threshold();
        let off = d.off_threshold();
        assert!(off < on, "hysteresis gap must exist");
        assert!(d.observe(on + eps));
        for i in 0..50 {
            let v = if i % 2 == 0 { on + eps } else { on - eps };
            assert!(!d.observe(v), "no flapping around the on-threshold");
            assert!(d.active());
        }
        // Only falling below the off-threshold disarms.
        assert!(!d.observe(off - eps));
        assert!(!d.active());
    }

    #[test]
    fn baseline_freezes_while_alarmed() {
        let mut d = detector(1.0);
        for _ in 0..5 {
            d.observe(1.0);
        }
        let mean_before = d.mean;
        d.observe(1000.0); // arms
        for _ in 0..100 {
            d.observe(1000.0);
        }
        assert_eq!(d.mean, mean_before, "attack must not become normal");
        assert!(d.active());
    }

    #[test]
    fn abs_min_floors_near_zero_baselines() {
        let mut d = detector(10.0);
        for _ in 0..5 {
            d.observe(0.0);
        }
        // Above baseline+4·dev but under the absolute floor: quiet.
        assert!(!d.observe(6.0));
        assert!(!d.active());
        assert!(d.observe(11.0));
    }

    #[test]
    fn bank_emits_one_rising_edge_per_signal() {
        let mut bank = DetectorBank::new(DetectorConfig::default());
        let quiet = TelemetrySample {
            at: SimTime::ZERO,
            packets: 1000,
            avg_probe_depth: 1.0,
            mask_count: 4,
            mask_growth: 0,
            emc_thrash: 0.0,
            upcalls: 5,
            upcall_backlog: 0,
            upcall_drops: 0,
            policy_updates: 0,
            cache_flushes: 0,
            top_offenders: vec![],
        };
        for _ in 0..6 {
            assert!(bank.observe(&quiet).is_empty());
        }
        assert!(!bank.any_active());
        let loud = TelemetrySample {
            upcall_backlog: 500,
            upcall_drops: 200,
            top_offenders: vec![crate::telemetry::OffenderDelta {
                ip_dst: 9,
                masks: 512,
                growth: 512,
            }],
            ..quiet.clone()
        };
        let events = bank.observe(&loud);
        let signals: Vec<Signal> = events.iter().map(|e| e.signal).collect();
        assert_eq!(signals, vec![Signal::UpcallBacklog, Signal::UpcallDrops]);
        assert!(events.iter().all(|e| e.offenders == vec![9]));
        assert!(bank.any_active());
        // Same loud sample again: latched, no new edges.
        assert!(bank.observe(&loud).is_empty());
        assert!(bank.any_active());
    }

    #[test]
    fn policy_churn_alarms_on_flap_rates_not_rollouts() {
        let mut bank = DetectorBank::new(DetectorConfig::default());
        let with_updates = |updates: u64| TelemetrySample {
            at: SimTime::ZERO,
            packets: 1000,
            avg_probe_depth: 1.0,
            mask_count: 4,
            mask_growth: 0,
            emc_thrash: 0.0,
            upcalls: 5,
            upcall_backlog: 0,
            upcall_drops: 0,
            policy_updates: updates,
            cache_flushes: updates,
            top_offenders: vec![],
        };
        // Warm-up plus a slow rollout (one update every other window):
        // stays quiet under the abs_min floor.
        for i in 0..12u64 {
            let events = bank.observe(&with_updates(i % 2));
            assert!(events.is_empty(), "rollout churn must not alarm");
        }
        // A flap at 10 updates/window is a rising edge on PolicyChurn.
        let events = bank.observe(&with_updates(10));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].signal, Signal::PolicyChurn);
        assert!(bank.any_active());
    }
}
