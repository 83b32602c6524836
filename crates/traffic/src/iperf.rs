//! The victim workload: a TCP bulk transfer with AIMD rate adaptation.
//!
//! Fig. 3 measures an iperf-like session. We do not simulate full TCP;
//! what matters for reproducing the figure is the *control response*:
//! a loss-free path lets the sender sit at its link-limited rate, while
//! sustained capacity drops (the switch starving under covert load)
//! push the rate down multiplicatively faster than additive recovery
//! can climb back — the collapse shape of the paper's victim line.

use pi_core::{FlowKey, SimTime};

use crate::source::{GenPacket, TrafficSource};

/// AIMD-paced bulk sender.
#[derive(Debug, Clone)]
pub struct IperfSource {
    key: FlowKey,
    frame_bytes: usize,
    /// Link-limited ceiling, packets/second.
    max_pps: f64,
    /// Current sending rate, packets/second.
    rate_pps: f64,
    /// Additive increase per second, as a fraction of `max_pps`.
    increase_per_sec: f64,
    /// Multiplicative decrease factor applied per loss-heavy tick.
    decrease_factor: f64,
    /// Loss fraction above which a tick counts as congested.
    loss_threshold: f64,
    /// Floor so the flow can always probe for recovery.
    min_pps: f64,
    credit: f64,
    label: String,
}

impl IperfSource {
    /// A bulk TCP-like flow capped at `max_bits_per_sec`.
    pub fn new(key: FlowKey, frame_bytes: usize, max_bits_per_sec: f64) -> Self {
        let max_pps = max_bits_per_sec / (frame_bytes as f64 * 8.0);
        IperfSource {
            key,
            frame_bytes,
            max_pps,
            rate_pps: max_pps, // slow-start elided: begin at line rate
            increase_per_sec: 0.10,
            decrease_factor: 0.5,
            loss_threshold: 0.02,
            min_pps: (max_pps / 1000.0).max(1.0),
            credit: 0.0,
            label: "iperf".to_string(),
        }
    }

    /// Names the source for reports.
    #[must_use]
    pub fn named(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    /// Current sending rate in bits/second.
    pub fn rate_bps(&self) -> f64 {
        self.rate_pps * self.frame_bytes as f64 * 8.0
    }
}

impl TrafficSource for IperfSource {
    fn generate(&mut self, from: SimTime, to: SimTime, out: &mut Vec<GenPacket>) {
        let dt = (to.saturating_sub(from)).as_nanos() as f64 / 1e9;
        // Additive increase happens continuously while sending.
        self.rate_pps =
            (self.rate_pps + self.increase_per_sec * self.max_pps * dt).min(self.max_pps);
        self.credit += self.rate_pps * dt;
        let n = self.credit as u64;
        self.credit -= n as f64;
        for _ in 0..n {
            out.push(GenPacket {
                key: self.key,
                bytes: self.frame_bytes,
            });
        }
    }

    fn feedback(&mut self, delivered: u64, dropped: u64) {
        let total = delivered + dropped;
        if total == 0 {
            return;
        }
        let loss = dropped as f64 / total as f64;
        if loss > self.loss_threshold {
            self.rate_pps = (self.rate_pps * self.decrease_factor).max(self.min_pps);
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
        FlowKey::tcp([10, 0, 0, 1], [10, 0, 0, 2], 40_000, 5201)
    }

    /// Drives the source for `secs` with a per-tick delivery function.
    fn run(
        src: &mut IperfSource,
        secs: u64,
        mut deliver: impl FnMut(u64, usize) -> usize,
    ) -> Vec<usize> {
        let mut per_sec = Vec::new();
        let mut out = Vec::new();
        for s in 0..secs {
            let mut sent_this_sec = 0;
            for ms in 0..1000u64 {
                out.clear();
                let from = SimTime::from_millis(s * 1000 + ms);
                let to = SimTime::from_millis(s * 1000 + ms + 1);
                src.generate(from, to, &mut out);
                let sent = out.len();
                let ok = deliver(s, sent).min(sent);
                src.feedback(ok as u64, (sent - ok) as u64);
                sent_this_sec += ok;
            }
            per_sec.push(sent_this_sec);
        }
        per_sec
    }

    #[test]
    fn lossless_path_holds_line_rate() {
        let mut src = IperfSource::new(key(), 1500, 1e9);
        let per_sec = run(&mut src, 5, |_, sent| sent);
        for (s, got) in per_sec.iter().enumerate() {
            assert!(
                (*got as f64) > 0.95 * 83_333.0,
                "second {s}: {got} pps below line rate"
            );
        }
    }

    #[test]
    fn sustained_loss_collapses_rate() {
        let mut src = IperfSource::new(key(), 1500, 1e9);
        // From t=2 s, the path can only carry 5% of offered load.
        let per_sec = run(&mut src, 8, |s, sent| if s < 2 { sent } else { sent / 20 });
        let before = per_sec[1] as f64;
        let after = per_sec[7] as f64;
        assert!(
            after < 0.10 * before,
            "rate should collapse: before={before} after={after}"
        );
    }

    #[test]
    fn recovers_after_congestion_clears() {
        let mut src = IperfSource::new(key(), 1500, 1e9);
        // Congestion only between t=2 s and t=4 s.
        let per_sec = run(&mut src, 20, |s, sent| {
            if (2..4).contains(&s) {
                sent / 50
            } else {
                sent
            }
        });
        let collapsed = per_sec[3] as f64;
        let recovered = *per_sec.last().unwrap() as f64;
        assert!(collapsed < 0.2 * 83_333.0, "collapsed={collapsed}");
        assert!(
            recovered > 0.9 * 83_333.0,
            "additive increase should recover: {recovered}"
        );
    }

    #[test]
    fn rate_never_hits_zero() {
        let mut src = IperfSource::new(key(), 1500, 1e9);
        run(&mut src, 10, |_, _| 0usize);
        assert!(src.rate_bps() > 0.0, "floor keeps probing alive");
    }

    #[test]
    fn reporting_helpers() {
        let src = IperfSource::new(key(), 1500, 1e9).named("victim");
        assert_eq!(src.label(), "victim");
        assert!((src.rate_bps() - 1e9).abs() < 1e6);
    }
}
