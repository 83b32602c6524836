//! Background pod-to-pod chatter.
//!
//! Realistic nodes never carry one lone flow; short RPC-ish exchanges
//! arrive continuously, each creating cache state. Arrivals are Poisson,
//! flow lengths geometric, endpoints drawn from a configured pod set —
//! all from a seeded RNG so scenarios are reproducible.

use pi_core::{FlowKey, SimTime, SplitMix64};

use crate::source::{GenPacket, TrafficSource};

/// One live background flow.
#[derive(Debug, Clone)]
struct LiveFlow {
    key: FlowKey,
    packets_left: u32,
    pps: f64,
    credit: f64,
}

/// Poisson flow arrivals between random pod pairs.
#[derive(Debug)]
pub struct PoissonFlowSource {
    /// Candidate (src_ip, dst_ip) pairs in host byte order.
    endpoints: Vec<(u32, u32)>,
    /// Mean new flows per second.
    arrival_rate: f64,
    /// Mean packets per flow (geometric).
    mean_flow_packets: f64,
    /// Per-flow packet rate.
    flow_pps: f64,
    frame_bytes: usize,
    rng: SplitMix64,
    live: Vec<LiveFlow>,
    arrival_credit: f64,
    next_sport: u16,
    label: String,
}

impl PoissonFlowSource {
    /// Creates a background source over the given pod-pair endpoints.
    pub fn new(
        endpoints: Vec<(u32, u32)>,
        arrival_rate: f64,
        mean_flow_packets: f64,
        flow_pps: f64,
        frame_bytes: usize,
        seed: u64,
    ) -> Self {
        assert!(!endpoints.is_empty(), "need at least one endpoint pair");
        PoissonFlowSource {
            endpoints,
            arrival_rate,
            mean_flow_packets,
            flow_pps,
            frame_bytes,
            rng: SplitMix64::new(seed),
            live: Vec::new(),
            arrival_credit: 0.0,
            next_sport: 10_000,
            label: "background".to_string(),
        }
    }

    /// Names the source for reports.
    #[must_use]
    pub fn named(mut self, label: &str) -> Self {
        self.label = label.to_string();
        self
    }

    fn spawn_flow(&mut self) {
        let (src, dst) = self.endpoints[self.rng.gen_range(self.endpoints.len() as u64) as usize];
        let sport = self.next_sport;
        self.next_sport = self.next_sport.wrapping_add(1).max(10_000);
        // Geometric length with the configured mean, at least 1.
        let u: f64 = self.rng.next_f64();
        let len = (1.0 + (-u.ln()) * (self.mean_flow_packets - 1.0)).round() as u32;
        let key = FlowKey::tcp(
            std::net::Ipv4Addr::from(src),
            std::net::Ipv4Addr::from(dst),
            sport,
            80,
        );
        self.live.push(LiveFlow {
            key,
            packets_left: len.max(1),
            pps: self.flow_pps,
            credit: 0.0,
        });
    }
}

impl TrafficSource for PoissonFlowSource {
    fn generate(&mut self, from: SimTime, to: SimTime, out: &mut Vec<GenPacket>) {
        let dt = (to.saturating_sub(from)).as_nanos() as f64 / 1e9;
        // Flow arrivals: Poisson thinned to per-tick Bernoulli batches.
        self.arrival_credit += self.arrival_rate * dt;
        while self.arrival_credit >= 1.0 {
            self.arrival_credit -= 1.0;
            self.spawn_flow();
        }
        // Emit from live flows.
        let frame = self.frame_bytes;
        for f in self.live.iter_mut() {
            f.credit += f.pps * dt;
            while f.credit >= 1.0 && f.packets_left > 0 {
                f.credit -= 1.0;
                f.packets_left -= 1;
                out.push(GenPacket {
                    key: f.key,
                    bytes: frame,
                });
            }
        }
        self.live.retain(|f| f.packets_left > 0);
    }

    fn label(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoints() -> Vec<(u32, u32)> {
        (0..8u32)
            .map(|i| (0x0a00_0100 + i, 0x0a00_0200 + i))
            .collect()
    }

    fn total_packets(src: &mut PoissonFlowSource, secs: u64) -> usize {
        let mut out = Vec::new();
        let mut total = 0;
        for ms in 0..secs * 1000 {
            out.clear();
            src.generate(
                SimTime::from_millis(ms),
                SimTime::from_millis(ms + 1),
                &mut out,
            );
            total += out.len();
        }
        total
    }

    #[test]
    fn long_run_volume_matches_expectation() {
        // 10 flows/s × 20 packets ≈ 200 pps expected.
        let mut src = PoissonFlowSource::new(endpoints(), 10.0, 20.0, 100.0, 200, 42);
        let got = total_packets(&mut src, 30);
        let expected = 30.0 * 10.0 * 20.0;
        assert!(
            (got as f64) > 0.7 * expected && (got as f64) < 1.3 * expected,
            "got {got}, expected ≈ {expected}"
        );
    }

    #[test]
    fn determinism_under_same_seed() {
        let mut a = PoissonFlowSource::new(endpoints(), 5.0, 10.0, 50.0, 200, 7);
        let mut b = PoissonFlowSource::new(endpoints(), 5.0, 10.0, 50.0, 200, 7);
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for ms in 0..5_000u64 {
            a.generate(
                SimTime::from_millis(ms),
                SimTime::from_millis(ms + 1),
                &mut out_a,
            );
            b.generate(
                SimTime::from_millis(ms),
                SimTime::from_millis(ms + 1),
                &mut out_b,
            );
        }
        assert_eq!(out_a.len(), out_b.len());
        assert!(out_a.iter().zip(&out_b).all(|(x, y)| x.key == y.key));
        // Different seed diverges.
        let mut c = PoissonFlowSource::new(endpoints(), 5.0, 10.0, 50.0, 200, 8);
        let mut out_c = Vec::new();
        for ms in 0..5_000u64 {
            c.generate(
                SimTime::from_millis(ms),
                SimTime::from_millis(ms + 1),
                &mut out_c,
            );
        }
        assert_ne!(
            out_a.iter().map(|p| p.key.tp_src).collect::<Vec<_>>(),
            out_c.iter().map(|p| p.key.tp_src).collect::<Vec<_>>()
        );
    }

    #[test]
    fn flows_use_configured_endpoints() {
        let eps = endpoints();
        let mut src = PoissonFlowSource::new(eps.clone(), 50.0, 5.0, 1000.0, 200, 3);
        let mut out = Vec::new();
        for ms in 0..2_000u64 {
            src.generate(
                SimTime::from_millis(ms),
                SimTime::from_millis(ms + 1),
                &mut out,
            );
        }
        assert!(!out.is_empty());
        for p in &out {
            assert!(eps.contains(&(p.key.ip_src, p.key.ip_dst)));
            assert_eq!(p.key.tp_dst, 80);
            assert_eq!(p.bytes, 200);
        }
    }

    #[test]
    fn flows_terminate() {
        let mut src = PoissonFlowSource::new(endpoints(), 2.0, 3.0, 100.0, 200, 5);
        let mut out = Vec::new();
        for ms in 0..10_000u64 {
            src.generate(
                SimTime::from_millis(ms),
                SimTime::from_millis(ms + 1),
                &mut out,
            );
        }
        // After arrivals stop being generated (rate set to 0), the pool drains.
        src.arrival_rate = 0.0;
        for ms in 10_000..40_000u64 {
            src.generate(
                SimTime::from_millis(ms),
                SimTime::from_millis(ms + 1),
                &mut out,
            );
        }
        assert_eq!(src.live.len(), 0, "all bounded flows must finish");
    }

    #[test]
    #[should_panic(expected = "endpoint")]
    fn empty_endpoints_panics() {
        PoissonFlowSource::new(vec![], 1.0, 1.0, 1.0, 64, 0);
    }
}
