//! Constant bit-rate source.

use pi_core::{FlowKey, SimTime};

use crate::source::{GenPacket, TrafficSource};

/// Emits one flow's packets at a constant rate, with exact long-run
/// pacing (fractional packets accumulate across ticks).
#[derive(Debug, Clone)]
pub struct CbrSource {
    key: FlowKey,
    frame_bytes: usize,
    pps: f64,
    /// Active time accumulated so far (drift-free pacing: the emission
    /// target is recomputed from absolute elapsed time every tick).
    active_ns: u64,
    emitted: u64,
    label: String,
}

impl CbrSource {
    /// A source sending `key` at `pps` packets/second of `frame_bytes`
    /// frames, forever.
    pub fn new(key: FlowKey, frame_bytes: usize, pps: f64) -> Self {
        CbrSource {
            key,
            frame_bytes,
            pps,
            active_ns: 0,
            emitted: 0,
            label: "cbr".to_string(),
        }
    }

    /// Names the source for reports.
    #[must_use]
    pub fn named(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// The configured packet rate.
    pub fn pps(&self) -> f64 {
        self.pps
    }
}

impl TrafficSource for CbrSource {
    fn generate(&mut self, from: SimTime, to: SimTime, out: &mut Vec<GenPacket>) {
        self.active_ns += (to - from).as_nanos();
        let target = (self.pps * self.active_ns as f64 / 1e9).floor() as u64;
        let n = target.saturating_sub(self.emitted);
        self.emitted += n;
        for _ in 0..n {
            out.push(GenPacket {
                key: self.key,
                bytes: self.frame_bytes,
            });
        }
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> FlowKey {
        FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 1000, 5201)
    }

    fn run(src: &mut CbrSource, secs: u64, tick_ms: u64) -> usize {
        let mut total = 0;
        let mut out = Vec::new();
        let ticks = secs * 1000 / tick_ms;
        for i in 0..ticks {
            out.clear();
            let from = SimTime::from_millis(i * tick_ms);
            let to = SimTime::from_millis((i + 1) * tick_ms);
            src.generate(from, to, &mut out);
            total += out.len();
        }
        total
    }

    #[test]
    fn long_run_rate_is_exact() {
        let mut src = CbrSource::new(key(), 1500, 83_333.0);
        let got = run(&mut src, 10, 1);
        assert_eq!(got, 833_330);
    }

    #[test]
    fn fractional_rates_accumulate() {
        // 0.5 pps with 1 ms ticks: one packet every 2 s.
        let mut src = CbrSource::new(key(), 64, 0.5);
        assert_eq!(run(&mut src, 10, 1), 5);
    }

    #[test]
    fn packets_carry_key_and_size() {
        let mut src = CbrSource::new(key(), 777, 10.0).named("probe");
        let mut out = Vec::new();
        src.generate(SimTime::ZERO, SimTime::from_secs(1), &mut out);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|p| p.bytes == 777 && p.key == key()));
        assert_eq!(src.label(), "probe");
    }
}
