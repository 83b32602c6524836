//! # pi-detect — online attack detection and closed-loop adaptive defense
//!
//! Every mitigation in [`pi_mitigation`] is a *static* choice: a
//! [`pi_datapath::DpConfig`] fixed before the run. This crate closes
//! the loop while the dataplane serves traffic:
//!
//! * [`telemetry`] — per-window taps over a [`pi_datapath::VSwitch`]:
//!   subtable-count growth, average probe depth, EMC thrash, upcall
//!   backlog/drop rates, and per-destination mask-attribution deltas
//!   (one shared [`pi_mitigation::attribute_entries`] pass).
//! * [`detector`] — streaming change-point detectors with EWMA
//!   baselines and hysteretic thresholds, emitting typed
//!   [`DetectionEvent`]s with attributed offender ports.
//! * [`controller`] — the [`DefenseController`] state machine
//!   (Idle → Suspect → Mitigating → Cooldown) that flips the switch's
//!   runtime-mutable mitigations — per-port fair-share upcall quotas,
//!   staged subtable lookup, offender-port quarantine — and reverts
//!   them once the anomaly clears.
//!
//! `pi_sim` attaches one controller per host shard; the
//! `detection_roc` bench and the `adaptive_defense` scenario measure
//! time-to-detect, victim-throughput recovery and the false-positive
//! rate under benign churn.

pub mod controller;
pub mod detector;
pub mod telemetry;

pub use controller::{
    ControllerConfig, DefenseAction, DefenseController, DefenseReport, DefenseState,
    DefenseTransition,
};
pub use detector::{
    ChangePointDetector, DetectionEvent, DetectorBank, DetectorConfig, Signal, SignalConfig,
};
pub use telemetry::{OffenderDelta, TelemetrySample, TelemetryTap};

// Re-exported so report consumers do not need a direct pi_mitigation
// dependency for the attribution types.
pub use pi_mitigation::{attribute_masks, offenders, MaskAttribution};
