//! Simulation parameters.

use pi_core::SimTime;
use pi_trace::TraceConfig;

/// Global knobs of a simulation run.
///
/// The defaults model the paper's demo environment: a software switch
/// driven by one effective datapath core, a 1 Gb/s fabric, millisecond
/// scheduling granularity, per-second reporting (Fig. 3's sampling).
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Scheduling quantum. Packets generated within a tick are processed
    /// within that tick's budget.
    pub tick: SimTime,
    /// Total simulated time.
    pub duration: SimTime,
    /// Datapath CPU budget per node, cycles/second. Default models a
    /// single ~1.2 GHz-effective softirq core — the resource the attack
    /// exhausts.
    pub cpu_cycles_per_sec: u64,
    /// Ingress queue capacity per node, packets (NIC ring + backlog).
    pub queue_capacity: usize,
    /// Fabric link rate between nodes, bits/second.
    pub link_bps: f64,
    /// Reporting interval for the time series.
    pub sample_interval: SimTime,
    /// Cadence of the per-node defense control loop (telemetry sample +
    /// detector + state machine), for nodes with an attached
    /// [`pi_detect::DefenseController`]. Faster than `sample_interval`
    /// by default: detection latency is a measured quantity.
    pub defense_interval: SimTime,
    /// Use the event-driven core: ticks on which a node provably has no
    /// work (empty queues, no scheduled control/fault/maintenance
    /// events, no active source) are skipped instead of stepped. The
    /// skipped ticks are exact no-ops, so results are bit-identical to
    /// the tick-stepped reference (`false`), which remains available
    /// for equivalence testing.
    pub event_driven: bool,
    /// Structured tracing (`pi_trace`). Disabled by default — and a
    /// disabled tracer is a guaranteed no-op on the hot path; enabled
    /// traces are bit-identical across engines and worker counts.
    pub trace: TraceConfig,
    /// Worker threads stepping host shards, clamped to `1..=hosts`. `1`
    /// runs every shard on a single worker; results are identical for
    /// any value (cross-host traffic is merged in shard order).
    pub workers: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            tick: SimTime::from_millis(1),
            duration: SimTime::from_secs(150),
            cpu_cycles_per_sec: 1_200_000_000,
            queue_capacity: 8_192,
            link_bps: 1e9,
            sample_interval: SimTime::from_secs(1),
            defense_interval: SimTime::from_millis(100),
            event_driven: true,
            trace: TraceConfig::default(),
            workers: 1,
        }
    }
}

impl SimConfig {
    /// Cycles available per tick.
    pub fn cycles_per_tick(&self) -> u64 {
        (self.cpu_cycles_per_sec as f64 * self.tick.as_secs_f64()).round() as u64
    }

    /// Link bytes available per tick.
    pub fn link_bytes_per_tick(&self) -> f64 {
        self.link_bps / 8.0 * self.tick.as_secs_f64()
    }

    /// Number of whole ticks in the run.
    pub fn tick_count(&self) -> u64 {
        self.duration.as_nanos() / self.tick.as_nanos()
    }

    /// Ticks between defense control-loop iterations (at least one).
    pub fn defense_every_ticks(&self) -> u64 {
        (self.defense_interval.as_nanos() / self.tick.as_nanos()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let c = SimConfig::default();
        assert_eq!(c.cycles_per_tick(), 1_200_000);
        assert_eq!(c.link_bytes_per_tick(), 125_000.0);
        assert_eq!(c.tick_count(), 150_000);
        assert_eq!(c.defense_every_ticks(), 100);
    }

    #[test]
    fn short_run_tick_count() {
        let c = SimConfig {
            duration: SimTime::from_millis(10),
            ..Default::default()
        };
        assert_eq!(c.tick_count(), 10);
    }
}
