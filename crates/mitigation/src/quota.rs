//! Per-port upcall fair sharing — the OVS-style flow-setup rate limit.
//!
//! The bounded slow path ([`pi_datapath::upcall`]) is a shared resource:
//! handlers drain every port's upcall queue from one per-step cycle
//! budget, so a single tenant spraying guaranteed-miss packets can
//! monopolise flow setup for the whole host (the `upcall_saturation`
//! scenario). The fair-share quota caps how many upcalls one port may
//! have resolved per handler step (OVS: `upcall-rate-limit` /
//! per-port meter on the slow path). An over-quota port keeps its
//! backlog queued and eventually tail-drops *its own* traffic; ports
//! within quota are served every step.
//!
//! Trade-offs: a legitimately bursty service (mass reconnect after a
//! deploy) is also clipped to the quota, paying install latency in
//! steps — the familiar fairness-versus-peak-throughput tension. And
//! the isolation is only as fine as the queue attribution: the
//! unroutable/default queue and the fabric uplink are *shared* queues
//! (one port each), so a flood of remote-bound or destination-spray
//! setups still contends with every other tenant's traffic on that
//! same shared queue — the quota protects pods with their own vports,
//! not tenants multiplexed behind a shared port.

use pi_datapath::{DpConfig, PipelineMode, UpcallPipelineConfig};

/// A datapath whose bounded upcall pipeline enforces a per-port
/// fair-share quota of `quota_per_port_per_step` resolved upcalls per
/// handler step. If `base` still runs the inline pipeline it is switched
/// to the default bounded configuration first (the quota is meaningless
/// without a bounded slow path).
pub fn upcall_fair_share_config(base: DpConfig, quota_per_port_per_step: u32) -> DpConfig {
    let cfg = match base.pipeline {
        PipelineMode::Bounded(cfg) => cfg,
        PipelineMode::Inline => UpcallPipelineConfig::default(),
    };
    DpConfig {
        pipeline: PipelineMode::Bounded(cfg.with_port_quota(quota_per_port_per_step)),
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::{FlowKey, SimTime};
    use pi_datapath::VSwitch;

    const VICTIM_IP: [u8; 4] = [10, 1, 0, 10];

    /// The number of handler steps the flood runs alone before the
    /// victim's first connection: long enough for the flood to fill the
    /// flow limit, so victim megaflows are refused from then on and
    /// every victim connection must upcall.
    const WARMUP_STEPS: u32 = 50;

    /// Floods the unroutable queue while a victim pod (starting after
    /// the warm-up) trickles 2 fresh connections per step; returns
    /// (victim queue drops, victim handled), counted per packet: the
    /// victim's tail-dropped enqueues and its resolved upcalls.
    fn run(dp: DpConfig, steps: u32) -> (u64, u64) {
        let victim_ip = u32::from_be_bytes(VICTIM_IP);
        let mut sw = VSwitch::new(dp);
        sw.attach_pod(victim_ip, 1);
        let mut t = SimTime::from_millis(1);
        let mut flood = 0u32;
        let (mut flood_drops, mut drops, mut handled) = (0u64, 0u64, 0u64);
        for step in 0..steps {
            // 20 flood packets/step to unique unroutable destinations.
            for _ in 0..20 {
                flood += 1;
                let dst = [172, 16, (flood >> 8) as u8, flood as u8];
                let out = sw.process(&FlowKey::tcp([10, 9, 9, 9], dst, 7, 7), t);
                flood_drops += u64::from(out.path.is_upcall_dropped());
            }
            // 2 victim connections/step, each a fresh flow.
            if step >= WARMUP_STEPS {
                for i in 0..2u32 {
                    let n = step * 2 + i;
                    let src = [10, 2, (n >> 8) as u8, n as u8];
                    let out = sw.process(&FlowKey::tcp(src, VICTIM_IP, 5000, 80), t);
                    drops += u64::from(out.path.is_upcall_dropped());
                }
            }
            sw.drain_upcalls(t, |r| handled += u64::from(r.key.ip_dst == victim_ip));
            t += SimTime::from_millis(1);
        }
        // Every tail drop the aggregate counts is a flood or a victim
        // packet's.
        assert_eq!(sw.upcall_stats().queue_drops, flood_drops + drops);
        (drops, handled)
    }

    /// Base config: bounded pipeline whose handler budget covers ~6
    /// default-cost upcalls per step against 22 arrivals, and a small
    /// flow limit the flood exhausts during the warm-up (so victim
    /// megaflows are refused and its flows keep upcalling).
    fn saturated_base() -> DpConfig {
        DpConfig {
            flow_limit: 50,
            pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
                queue_capacity: 16,
                handler_cycles_per_step: 200_000,
                port_quota_per_step: None,
            }),
            ..DpConfig::default()
        }
    }

    #[test]
    fn saturated_handlers_starve_the_victim_without_the_quota() {
        let (drops, handled) = run(saturated_base(), 300);
        assert!(
            drops > 400,
            "deepest-first handlers must starve the victim port: \
             {drops} drops, {handled} handled"
        );
    }

    #[test]
    fn fair_share_quota_restores_the_victim() {
        let dp = upcall_fair_share_config(saturated_base(), 4);
        let (drops, handled) = run(dp, 300);
        assert_eq!(drops, 0, "within-quota victim is served every step");
        assert!(handled >= 490, "victim handled {handled} of ~500");
    }

    #[test]
    fn inline_base_is_promoted_to_the_default_bounded_pipeline() {
        let dp = upcall_fair_share_config(DpConfig::default(), 7);
        match dp.pipeline {
            PipelineMode::Bounded(cfg) => {
                assert_eq!(cfg.port_quota_per_step, Some(7));
                assert_eq!(
                    cfg.queue_capacity,
                    UpcallPipelineConfig::default().queue_capacity
                );
            }
            PipelineMode::Inline => panic!("quota requires a bounded pipeline"),
        }
    }
}
