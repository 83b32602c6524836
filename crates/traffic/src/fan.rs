//! Round-robin fan over a fixed set of flows.
//!
//! Models a service with a stable population of concurrent clients —
//! the workload whose fast-path state a policy-churn flush storm keeps
//! destroying: every flow in the fan owns live cache entries (and,
//! when the service's ACL whitelists clients individually, its own
//! megaflow), so a full-cache invalidation forces one slow-path
//! rebuild *per flow*, not per service.

use pi_core::{FlowKey, SimTime};

use crate::source::{GenPacket, TrafficSource};

/// Constant aggregate-rate traffic cycling round-robin through a fixed
/// key set.
#[derive(Debug, Clone)]
pub struct FanSource {
    keys: Vec<FlowKey>,
    frame_bytes: usize,
    /// Aggregate packets/second across the whole fan.
    pps: f64,
    start: SimTime,
    active_ns: u64,
    emitted: u64,
    cursor: usize,
    label: String,
}

impl FanSource {
    /// A fan emitting `pps` packets/second in aggregate, round-robin
    /// over `keys`, with `frame_bytes` frames.
    pub fn new(keys: Vec<FlowKey>, frame_bytes: usize, pps: f64) -> Self {
        assert!(!keys.is_empty(), "a fan needs at least one flow");
        FanSource {
            keys,
            frame_bytes,
            pps,
            start: SimTime::ZERO,
            active_ns: 0,
            emitted: 0,
            cursor: 0,
            label: "fan".to_string(),
        }
    }

    /// Delays the first packet until `start`.
    #[must_use]
    pub fn starting_at(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// Names the source for reports.
    #[must_use]
    pub fn named(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// The configured aggregate rate.
    pub fn pps(&self) -> f64 {
        self.pps
    }
}

impl TrafficSource for FanSource {
    fn generate(&mut self, from: SimTime, to: SimTime, out: &mut Vec<GenPacket>) {
        let from = from.max(self.start);
        if from >= to {
            return;
        }
        self.active_ns += (to - from).as_nanos();
        let target = (self.pps * self.active_ns as f64 / 1e9).floor() as u64;
        let n = target.saturating_sub(self.emitted);
        self.emitted = target;
        for _ in 0..n {
            let key = self.keys[self.cursor];
            self.cursor = (self.cursor + 1) % self.keys.len();
            out.push(GenPacket {
                key,
                bytes: self.frame_bytes,
            });
        }
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn next_activity(&self, from: SimTime) -> SimTime {
        from.max(self.start)
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "a test may hash with `RandomState`"
)]
mod tests {
    use super::*;

    fn keys(n: u8) -> Vec<FlowKey> {
        (0..n)
            .map(|i| FlowKey::tcp([10, 2, 0, i], [10, 1, 0, 10], 40_000 + i as u16, 5201))
            .collect()
    }

    fn drive(s: &mut FanSource, from_ms: u64, to_ms: u64) -> Vec<GenPacket> {
        let mut out = Vec::new();
        for ms in from_ms..to_ms {
            s.generate(
                SimTime::from_millis(ms),
                SimTime::from_millis(ms + 1),
                &mut out,
            );
        }
        out
    }

    #[test]
    fn aggregate_rate_is_exact_and_round_robin_is_fair() {
        let mut s = FanSource::new(keys(16), 400, 4_000.0);
        let out = drive(&mut s, 0, 2_000);
        assert_eq!(out.len(), 8_000, "2 s at 4 kpps aggregate");
        // Every flow gets exactly its fair share.
        let mut per_flow = std::collections::HashMap::new();
        for p in &out {
            *per_flow.entry(p.key.ip_src).or_insert(0u64) += 1;
        }
        assert_eq!(per_flow.len(), 16);
        assert!(per_flow.values().all(|&c| c == 500));
    }

    #[test]
    fn long_run_rate_is_exact() {
        // 83 333 pps never divides a 1 ms tick: the fractional packets
        // accumulate, so 10 s emit exactly ⌊83 333 × 10⌋.
        let mut s = FanSource::new(keys(1), 1500, 83_333.0);
        assert_eq!(drive(&mut s, 0, 10_000).len(), 833_330);
    }

    #[test]
    fn fractional_rates_accumulate() {
        // 0.5 pps with 1 ms ticks: one packet every 2 s.
        let mut s = FanSource::new(keys(1), 64, 0.5);
        assert_eq!(drive(&mut s, 0, 10_000).len(), 5);
    }

    #[test]
    fn packets_carry_key_and_size() {
        let mut s = FanSource::new(keys(1), 777, 10.0);
        let mut out = Vec::new();
        s.generate(SimTime::ZERO, SimTime::from_secs(1), &mut out);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|p| p.bytes == 777 && p.key == keys(1)[0]));
    }

    #[test]
    fn silent_before_start() {
        let mut s = FanSource::new(keys(4), 64, 1_000.0).starting_at(SimTime::from_secs(1));
        assert!(drive(&mut s, 0, 1_000).is_empty());
        assert_eq!(drive(&mut s, 1_000, 2_000).len(), 1_000);
    }

    #[test]
    fn reporting_helpers() {
        let s = FanSource::new(keys(3), 64, 10.0).named("victims");
        assert_eq!(s.label(), "victims");
        assert_eq!(s.pps(), 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn empty_fan_panics() {
        FanSource::new(Vec::new(), 64, 1.0);
    }
}
