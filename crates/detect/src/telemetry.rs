//! Lightweight per-window telemetry taps over a dataplane backend.
//!
//! The tap holds the previous window's cumulative counters and turns
//! each call into a *delta* sample — the dataplane keeps its existing
//! counters, nothing new is charged on the packet path. One attribution
//! pass per sample ([`DataplaneBackend::attribution`], the shared
//! `pi_mitigation` pass on the OVS pipeline) provides the
//! per-destination mask deltas that make detections attributable to a
//! pod. The tap reads only the [`DataplaneBackend`] trait surface, so
//! the same detectors run unchanged over every backend in the matrix —
//! architectures without a given structure report zero for its
//! counters and the corresponding signals simply stay quiet.

use std::collections::HashMap;

use pi_backend::DataplaneBackend;
use pi_core::SimTime;

/// Per-destination mask movement within one sample window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffenderDelta {
    /// Destination (pod) IP, host byte order.
    pub ip_dst: u32,
    /// Distinct masks currently pinned to this destination.
    pub masks: usize,
    /// Mask-count change since the previous sample (negative after an
    /// eviction or revalidator sweep).
    pub growth: i64,
}

/// One window's worth of detection signals, all derived from counter
/// deltas (rates) or instantaneous gauge reads (levels).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySample {
    /// Sample timestamp.
    pub at: SimTime,
    /// Packets processed this window.
    pub packets: u64,
    /// Mean subtable probes per fast-path lookup this window — the
    /// attack's primary fingerprint (Fig. 3's collapse mechanism).
    pub avg_probe_depth: f64,
    /// Distinct megaflow masks right now (level).
    pub mask_count: usize,
    /// Mask-count change since the previous sample.
    pub mask_growth: i64,
    /// EMC collision evictions per packet this window — cache-pollution
    /// thrash (live entries displaced by one-shot flows).
    pub emc_thrash: f64,
    /// Slow-path upcalls resolved this window.
    pub upcalls: u64,
    /// Pending upcalls across all port queues right now (level; zero
    /// under the inline pipeline).
    pub upcall_backlog: usize,
    /// Upcalls tail-dropped at full queues this window.
    pub upcall_drops: u64,
    /// Control-plane policy updates applied this window (ACL
    /// installs/removals, pod attaches) — the policy-flap attack's
    /// direct signature: churn without packets.
    pub policy_updates: u64,
    /// Effective cache invalidations this window (coalesced no-op
    /// flushes are not counted).
    pub cache_flushes: u64,
    /// Top destinations by current mask count, with their per-window
    /// growth, descending (at most the tap's `top_k`).
    pub top_offenders: Vec<OffenderDelta>,
}

impl TelemetrySample {
    /// Destinations whose current mask count exceeds `threshold` — the
    /// single offender filter shared by the detector bank's event
    /// attribution and the controller's quarantine actuator.
    pub fn offenders(&self, threshold: usize) -> Vec<u32> {
        self.top_offenders
            .iter()
            .filter(|o| o.masks > threshold)
            .map(|o| o.ip_dst)
            .collect()
    }
}

/// Streams [`TelemetrySample`]s off a switch by diffing its cumulative
/// counters between calls.
#[derive(Debug, Clone)]
pub struct TelemetryTap {
    top_k: usize,
    prev_packets: u64,
    prev_probes: u64,
    prev_collisions: u64,
    prev_upcalls: u64,
    prev_drops: u64,
    prev_masks: usize,
    prev_policy_updates: u64,
    prev_flushes: u64,
    prev_attr: HashMap<u32, usize>,
}

impl Default for TelemetryTap {
    fn default() -> Self {
        Self::new()
    }
}

impl TelemetryTap {
    /// A tap reporting the top 4 offender destinations per sample.
    pub fn new() -> Self {
        Self::with_top_k(4)
    }

    /// A tap reporting at most `top_k` offender destinations.
    pub(crate) fn with_top_k(top_k: usize) -> Self {
        TelemetryTap {
            top_k,
            prev_packets: 0,
            prev_probes: 0,
            prev_collisions: 0,
            prev_upcalls: 0,
            prev_drops: 0,
            prev_masks: 0,
            prev_policy_updates: 0,
            prev_flushes: 0,
            prev_attr: HashMap::new(),
        }
    }

    /// Reads the switch and produces the delta sample for the window
    /// since the previous call (the first call's window starts at the
    /// switch's zeroed counters).
    pub fn sample(&mut self, switch: &dyn DataplaneBackend, at: SimTime) -> TelemetrySample {
        let snap = switch.snapshot();
        let (stats, emc, up) = (snap.switch, snap.emc, snap.upcall);

        let packets = stats.packets - self.prev_packets;
        let probes = stats.subtable_probes - self.prev_probes;
        // Probe depth is per *fast-path lookup that walked subtables*;
        // normalising by packets keeps it comparable across windows and
        // conservative (EMC hits dilute it, exactly as they dilute the
        // real CPU cost).
        let avg_probe_depth = if packets == 0 {
            0.0
        } else {
            probes as f64 / packets as f64
        };
        let collisions = emc.collision_evictions - self.prev_collisions;
        let emc_thrash = if packets == 0 {
            0.0
        } else {
            collisions as f64 / packets as f64
        };
        let mask_count = snap.masks;
        let mask_growth = mask_count as i64 - self.prev_masks as i64;
        let upcalls = stats.upcalls - self.prev_upcalls;
        let upcall_drops = up.queue_drops - self.prev_drops;
        let policy_updates = stats.policy_updates - self.prev_policy_updates;
        let cache_flushes = stats.cache_flushes - self.prev_flushes;

        // One attribution pass; per-destination growth vs the previous
        // sample's attribution.
        let attribution = switch.attribution();
        let mut attr_now: HashMap<u32, usize> = HashMap::with_capacity(attribution.len());
        let mut top_offenders = Vec::with_capacity(self.top_k.min(attribution.len()));
        for a in attribution.iter().take(self.top_k) {
            let prev = self.prev_attr.get(&a.ip_dst).copied().unwrap_or(0);
            top_offenders.push(OffenderDelta {
                ip_dst: a.ip_dst,
                masks: a.masks,
                growth: a.masks as i64 - prev as i64,
            });
        }
        for a in &attribution {
            attr_now.insert(a.ip_dst, a.masks);
        }

        self.prev_packets = stats.packets;
        self.prev_probes = stats.subtable_probes;
        self.prev_collisions = emc.collision_evictions;
        self.prev_upcalls = stats.upcalls;
        self.prev_drops = up.queue_drops;
        self.prev_masks = mask_count;
        self.prev_policy_updates = stats.policy_updates;
        self.prev_flushes = stats.cache_flushes;
        self.prev_attr = attr_now;

        TelemetrySample {
            at,
            packets,
            avg_probe_depth,
            mask_count,
            mask_growth,
            emc_thrash,
            upcalls,
            upcall_backlog: snap.upcall_backlog,
            upcall_drops,
            policy_updates,
            cache_flushes,
            top_offenders,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::FlowKey;
    use pi_datapath::{DpConfig, VSwitch};

    #[test]
    fn deltas_reset_each_window_and_attribute_growth() {
        let mut sw = VSwitch::new(DpConfig::default());
        let dst = u32::from_be_bytes([10, 0, 0, 9]);
        sw.attach_pod(dst, 1);
        let mut tap = TelemetryTap::new();
        let s0 = tap.sample(&sw, SimTime::ZERO);
        assert_eq!(s0.packets, 0);
        assert_eq!(s0.mask_count, 0);
        assert_eq!(s0.policy_updates, 1, "the build-time attach");
        assert_eq!(s0.cache_flushes, 0, "clean-cache flush coalesced");

        for i in 0..10u16 {
            sw.process(
                &FlowKey::tcp(
                    [10, 1, (i >> 8) as u8, i as u8],
                    [10, 0, 0, 9],
                    1000 + i,
                    80,
                ),
                SimTime::from_millis(1),
            );
        }
        let s1 = tap.sample(&sw, SimTime::from_millis(2));
        assert_eq!(s1.packets, 10);
        assert_eq!(s1.mask_count, 1, "one ip_dst-only mask");
        assert_eq!(s1.mask_growth, 1);
        assert_eq!(s1.upcalls, 1, "nine packets rode the fresh megaflow");
        assert_eq!(s1.top_offenders.len(), 1);
        assert_eq!(s1.top_offenders[0].ip_dst, dst);
        assert_eq!(s1.top_offenders[0].growth, 1);

        // A quiet window reads all-zero deltas.
        let s2 = tap.sample(&sw, SimTime::from_millis(3));
        assert_eq!(s2.packets, 0);
        assert_eq!(s2.mask_growth, 0);
        assert_eq!(s2.avg_probe_depth, 0.0);
        assert_eq!(s2.top_offenders[0].growth, 0);
        assert_eq!(s2.policy_updates, 0);

        // A runtime ACL install on the now-dirty cache is one update
        // and one effective flush in the next window's delta.
        sw.install_acl(dst, pi_classifier::table::whitelist_with_default_deny(&[]));
        let s3 = tap.sample(&sw, SimTime::from_millis(4));
        assert_eq!(s3.policy_updates, 1);
        assert_eq!(s3.cache_flushes, 1);
    }
}
