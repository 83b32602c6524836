//! What a run produces: per-source and per-host series, totals, and the
//! blast-radius metrics the multi-tenant threat model is about.

use pi_core::SimTime;
use pi_datapath::{SwitchStats, UpcallStats};
use pi_detect::{DefenseReport, MaskAttribution};
use pi_fault::NodeFaultReport;
use pi_metrics::{degradation_ratio, sum_series, TimeSeries};
use pi_trace::{TraceConfig, TraceReport};

use crate::shard::HostShard;

/// What the engine did to produce a run: executed vs skipped per-shard
/// ticks and the events behind them. Purely diagnostic — every count is
/// derived from shard-local state and the global schedule, so the
/// numbers are identical for every worker count (they differ between
/// the event-driven engine and the tick-stepped reference only in how
/// many ticks were skipped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Shard ticks actually executed (summed over hosts).
    pub shard_ticks_stepped: u64,
    /// Shard ticks proven idle and skipped (`hosts × ticks − stepped`;
    /// zero under the tick-stepped reference).
    pub shard_ticks_skipped: u64,
    /// Event-bearing causes consumed across executed ticks: inbound
    /// fabric epochs, sample boundaries, defense intervals.
    pub events_processed: u64,
}

/// Per-source run totals.
///
/// Totals do **not** conserve at the run boundary: packets still in
/// flight when the clock stops — sitting in a host's ingress queue, on
/// the fabric, or parked in a bounded upcall pipeline awaiting a
/// handler — are in no bucket, so `generated` may exceed the sum of
/// the outcome counters by up to the in-flight population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceTotals {
    /// Source label (`label#index`).
    pub label: String,
    /// Packets generated.
    pub generated: u64,
    /// Packets delivered to their destination pod.
    pub delivered: u64,
    /// Packets lost to queue/link/capacity limits.
    pub dropped_capacity: u64,
    /// Packets denied by policy.
    pub dropped_policy: u64,
    /// Packets tail-dropped at a switch's bounded upcall queue (always
    /// zero under [`pi_datapath::PipelineMode::Inline`]). Kept separate
    /// from `dropped_capacity` so slow-path starvation is attributable.
    pub dropped_upcall: u64,
}

/// Per-worker self-profiling of the event-driven core: what the
/// parallel harness did to coordinate the run. Unlike every other
/// report field these numbers are **not** worker-count invariant —
/// they describe the harness (null messages, heap churn), not the
/// simulated fleet — so they are quarantined here and must never be
/// fed into determinism comparisons.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineProfile {
    /// Worker index.
    pub worker: usize,
    /// Flushes sent to peers (including pure null messages).
    pub flushes: u64,
    /// Flushes that carried no deliveries — pure CMB null messages,
    /// only a lookahead promise.
    pub null_messages: u64,
    /// Cross-worker delivery items carried by those flushes.
    pub flush_items: u64,
    /// Wake-heap pushes (shard deadlines scheduled or re-scheduled).
    pub wake_pushes: u64,
    /// Wake-heap pops, despite the name: every deadline the executed
    /// tick takes off the heap — live ones, which re-arm their shard,
    /// as well as stale ones — plus the stale entries the next-event
    /// search discards. Stale pops alone are 0 on the benchmark's
    /// fleet workloads; the name stays while `benchmark/` reports this
    /// count as `fleet.wake_stale_pops`.
    pub wake_stale_pops: u64,
}

/// Everything a run produces, single host or fleet.
#[derive(Debug)]
pub struct FleetReport {
    /// Hosts simulated.
    pub hosts: usize,
    /// Worker threads of the event-driven engine (the configured count
    /// clamped to the host count; the tick-stepped reference is serial
    /// whatever this says).
    pub workers: usize,
    /// Per-source delivered throughput, bits/second (global source
    /// order).
    pub throughput_bps: Vec<TimeSeries>,
    /// Per-source offered load, bits/second.
    pub offered_bps: Vec<TimeSeries>,
    /// Per-host distinct megaflow mask count.
    pub masks: Vec<TimeSeries>,
    /// Per-host megaflow entry count.
    pub megaflows: Vec<TimeSeries>,
    /// Per-host CPU utilisation of the datapath budget, 0–1.
    pub cpu_util: Vec<TimeSeries>,
    /// Per-host slow-path handler CPU, cycles/second (zero under the
    /// inline pipeline).
    pub handler_cps: Vec<TimeSeries>,
    /// Per-host control-plane CPU, cycles/second — the flush-storm
    /// share of the datapath budget, sampled per window. Flat zero for
    /// hosts with no control plane attached.
    pub control_cps: Vec<TimeSeries>,
    /// Per-host policy-update timeline: cumulative control-plane
    /// updates applied to the host's switch, sampled per window. Flat
    /// at the build-time setup count for hosts with no runtime churn;
    /// a policy-flap attack shows up as a steady ramp.
    pub policy_updates: Vec<TimeSeries>,
    /// Final switch statistics per host.
    pub switch_stats: Vec<SwitchStats>,
    /// Final upcall-pipeline statistics per host (all zero under
    /// [`pi_datapath::PipelineMode::Inline`]).
    pub upcall_stats: Vec<UpcallStats>,
    /// Per-source totals (global source order).
    pub source_totals: Vec<SourceTotals>,
    /// Per-host defense-controller reports, `None` for undefended
    /// hosts.
    pub defense: Vec<Option<DefenseReport>>,
    /// Per-host fault/recovery reports, `None` for hosts with neither
    /// a fault schedule nor a reliable control plane attached.
    pub faults: Vec<Option<NodeFaultReport>>,
    /// Final per-destination mask attribution per host — the offender
    /// list, assembled once so benches never re-walk megaflow caches.
    pub attribution: Vec<Vec<MaskAttribution>>,
    /// Executed/skipped tick accounting for the run.
    pub engine: EngineStats,
    /// Per-worker harness profiling (not worker-count invariant; see
    /// [`EngineProfile`]). Empty for a run on the tick-stepped
    /// reference, which has no workers to coordinate.
    pub profiles: Vec<EngineProfile>,
    /// The merged structured trace (empty unless
    /// [`crate::SimConfig::trace`] enabled tracing). Canonical merge
    /// order `(at_ns, host, seq)` — bit-identical for every worker
    /// count.
    pub trace: TraceReport,
}

/// How far one injected policy reaches: which co-located tenants and
/// hosts degrade.
#[derive(Debug, Clone, PartialEq)]
pub struct BlastRadius {
    /// Retained-throughput ratio (after/before the attack start) per
    /// probed source, `None` when the source offered nothing before.
    pub ratios: Vec<(usize, Option<f64>)>,
    /// Probed sources whose ratio fell below the degradation threshold.
    pub degraded_sources: Vec<usize>,
    /// Hosts whose megaflow mask count exceeded the mask threshold
    /// after the attack start (the attack's direct footprint).
    pub affected_hosts: Vec<usize>,
    /// Upcall-queue tail drops per host (host index, drops), listing
    /// only hosts with a nonzero count — the handler-saturation
    /// footprint of the attack, visible even when throughput holds up.
    pub upcall_drops: Vec<(usize, u64)>,
    /// Control-plane churn per host (host index, effective cache
    /// flushes), listing only hosts whose switch flushed at least once
    /// — the policy-flap attack's footprint: a host can be collapsing
    /// under flush storms while receiving zero attack packets.
    pub policy_churn: Vec<(usize, u64)>,
    /// Detection timeline: defended hosts whose controller raised at
    /// least one detection, with the first detection time.
    pub detections: Vec<(usize, SimTime)>,
    /// Mitigation timeline: defended hosts that escalated to
    /// Mitigating, with the time mitigations were first applied.
    pub mitigations: Vec<(usize, SimTime)>,
    /// Injected fault events per host (host index, count): crashes,
    /// control-channel drops/duplicates and deliveries lost to switch
    /// downtime. Only hosts with a nonzero count.
    pub fault_events: Vec<(usize, u64)>,
    /// Ticks each host spent between a crash and reconciliation
    /// convergence (host index, ticks), summed over recovery episodes.
    /// Only hosts that actually recovered at least once.
    pub recovery_ticks: Vec<(usize, u64)>,
    /// Control-plane retransmissions per host (host index, count) —
    /// the price of at-least-once delivery over a faulty channel.
    /// Only hosts with a nonzero count.
    pub retries: Vec<(usize, u64)>,
}

impl FleetReport {
    pub(crate) fn assemble(
        workers: usize,
        total_ticks: u64,
        shards: Vec<HostShard>,
        trace_cfg: TraceConfig,
        profiles: Vec<EngineProfile>,
    ) -> FleetReport {
        let hosts = shards.len();
        let mut engine = EngineStats::default();
        for shard in &shards {
            engine.shard_ticks_stepped += shard.ticks_stepped;
            engine.events_processed += shard.events_processed;
        }
        engine.shard_ticks_skipped = (hosts as u64 * total_ticks) - engine.shard_ticks_stepped;
        let tracers: Vec<_> = shards.iter().map(|s| s.node.tracer()).collect();
        let trace = TraceReport::collect(trace_cfg, &tracers);
        let n_sources = shards.iter().map(|s| s.slots.len()).sum();
        // (global source index, throughput, offered, totals), gathered
        // per shard and put in global order below.
        let mut sources: Vec<(usize, TimeSeries, TimeSeries, SourceTotals)> =
            Vec::with_capacity(n_sources);
        let mut masks = Vec::with_capacity(hosts);
        let mut megaflows = Vec::with_capacity(hosts);
        let mut cpu = Vec::with_capacity(hosts);
        let mut handler_cps = Vec::with_capacity(hosts);
        let mut control_cps = Vec::with_capacity(hosts);
        let mut policy_updates = Vec::with_capacity(hosts);
        let mut stats = Vec::with_capacity(hosts);
        let mut upcall = Vec::with_capacity(hosts);
        let mut defense = Vec::with_capacity(hosts);
        let mut attribution = Vec::with_capacity(hosts);
        let mut faults = Vec::with_capacity(hosts);
        for mut shard in shards {
            let snapshot = shard.node.backend().snapshot();
            stats.push(snapshot.switch);
            faults.push(shard.node.fault_report());
            upcall.push(snapshot.upcall);
            attribution.push(shard.node.backend().attribution());
            defense.push(shard.node.take_defense_report());
            masks.push(shard.masks);
            megaflows.push(shard.megaflows);
            cpu.push(shard.cpu);
            handler_cps.push(shard.handler_cps);
            control_cps.push(shard.control_cps);
            policy_updates.push(shard.policy_updates);
            for slot in shard.slots {
                let totals = SourceTotals {
                    label: slot.label,
                    generated: slot.total_generated,
                    delivered: slot.total_delivered,
                    dropped_capacity: slot.total_dropped_capacity,
                    dropped_policy: slot.total_dropped_policy,
                    dropped_upcall: slot.total_dropped_upcall,
                };
                sources.push((slot.global, slot.throughput, slot.offered, totals));
            }
        }
        sources.sort_unstable_by_key(|s| s.0);
        let mut throughput = Vec::with_capacity(n_sources);
        let mut offered = Vec::with_capacity(n_sources);
        let mut source_totals = Vec::with_capacity(n_sources);
        for (_, t, o, totals) in sources {
            throughput.push(t);
            offered.push(o);
            source_totals.push(totals);
        }
        FleetReport {
            hosts,
            workers,
            throughput_bps: throughput,
            offered_bps: offered,
            masks,
            megaflows,
            cpu_util: cpu,
            handler_cps,
            control_cps,
            policy_updates,
            switch_stats: stats,
            upcall_stats: upcall,
            source_totals,
            defense,
            faults,
            attribution,
            engine,
            profiles,
            trace,
        }
    }

    /// Offenders on `host`: destinations whose final mask count
    /// exceeds `threshold`.
    pub fn offenders(&self, host: usize, threshold: usize) -> Vec<MaskAttribution> {
        pi_detect::offenders(&self.attribution[host], threshold)
    }

    /// Aggregate delivered throughput of the given sources.
    pub fn aggregate_throughput(&self, sources: &[usize], name: &str) -> TimeSeries {
        let picked: Vec<&TimeSeries> = sources.iter().map(|&i| &self.throughput_bps[i]).collect();
        sum_series(name, &picked)
    }

    /// Computes the blast radius of an attack starting at `attack_start`:
    /// each probed source is degraded when it retains less than
    /// `degraded_below` (e.g. 0.5) of its pre-attack throughput; a host
    /// is affected when its mean mask count after the start exceeds
    /// `mask_threshold`.
    pub fn blast_radius(
        &self,
        attack_start: SimTime,
        probe_sources: &[usize],
        degraded_below: f64,
        mask_threshold: f64,
    ) -> BlastRadius {
        let ratios: Vec<(usize, Option<f64>)> = probe_sources
            .iter()
            .map(|&i| (i, degradation_ratio(&self.throughput_bps[i], attack_start)))
            .collect();
        let degraded_sources = ratios
            .iter()
            .filter(|(_, r)| matches!(r, Some(r) if *r < degraded_below))
            .map(|(i, _)| *i)
            .collect();
        let affected_hosts = self
            .masks
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                let Some((end, _)) = m.last() else {
                    return false;
                };
                m.mean_between(attack_start, end + SimTime::from_nanos(1)) > mask_threshold
            })
            .map(|(i, _)| i)
            .collect();
        let upcall_drops = self
            .upcall_stats
            .iter()
            .enumerate()
            .filter(|(_, u)| u.queue_drops > 0)
            .map(|(i, u)| (i, u.queue_drops))
            .collect();
        let policy_churn = self
            .switch_stats
            .iter()
            .enumerate()
            .filter(|(_, s)| s.cache_flushes > 0)
            .map(|(i, s)| (i, s.cache_flushes))
            .collect();
        let detections = self
            .defense
            .iter()
            .enumerate()
            .filter_map(|(i, d)| Some((i, d.as_ref()?.first_detection()?)))
            .collect();
        let mitigations = self
            .defense
            .iter()
            .enumerate()
            .filter_map(|(i, d)| Some((i, d.as_ref()?.first_mitigation()?)))
            .collect();
        let fault_events = self
            .faults
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                let events = f.as_ref()?.fault_events();
                (events > 0).then_some((i, events))
            })
            .collect();
        let recovery_ticks = self
            .faults
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                let ticks = f.as_ref()?.recovery_ticks;
                (ticks > 0).then_some((i, ticks))
            })
            .collect();
        let retries = self
            .faults
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                let retries = f.as_ref()?.channel.retries;
                (retries > 0).then_some((i, retries))
            })
            .collect();
        BlastRadius {
            ratios,
            degraded_sources,
            affected_hosts,
            upcall_drops,
            policy_churn,
            detections,
            mitigations,
            fault_events,
            recovery_ticks,
            retries,
        }
    }
}
