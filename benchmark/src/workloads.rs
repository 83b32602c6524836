//! The five workloads, and what is read back from a finished run.
//!
//! A workload is a public scenario function plus fixed parameters. The
//! program under test only ever sees the generated parameters: `--seed`
//! lands in `ColocationParams::seed` and is folded into
//! `DpConfig::seed`, nothing else. README.md records why each workload
//! exists and what does most of its work.

use pi_attack::AttackSpec;
use pi_cms::PolicyDialect;
use pi_core::SimTime;
use pi_datapath::{DpConfig, SwitchStats, UpcallStats};
use pi_fleet::{
    fleet_colocation, fleet_sparse, ColocationParams, EngineProfile, FleetReport, FleetSim,
    SparseParams, TraceConfig,
};
use pi_metrics::TimeSeries;
use pi_sim::{
    policy_churn_scenario, EngineStats, PolicyChurnParams, SimReport, Simulation, SourceTotals,
};
use pi_trace::TraceReport;

/// The seed whose runs reproduce the reference counts in README.md.
pub const DEFAULT_SEED: u64 = 2018;

/// One of the benchmark's five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8-host co-location fleet, no attackers: the pure fast path.
    ColoBenign,
    /// The same fleet under the paper's 512-mask attack: EMC + TSS mixed.
    ColoAttack,
    /// 4-host fleet, 8192 masks, no EMC: the TSS walk itself.
    ColoWalk,
    /// Single-node policy flap: slow path, install, flush — the write
    /// side of the caches.
    FlapRebuild,
    /// 128-host mostly-idle fleet with the attack off: engine overhead.
    SparseIdle,
}

/// Which generator a source is, for the ledger's traffic row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// `IperfSource` (fleet victims).
    Iperf,
    /// `PoissonFlowSource` (fleet background chatter).
    Poisson,
    /// `FanSource` (the policy-churn victim).
    Fan,
    /// `AttackSchedule` (covert streams).
    Attack,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::ColoBenign,
        Workload::ColoAttack,
        Workload::ColoWalk,
        Workload::FlapRebuild,
        Workload::SparseIdle,
    ];

    /// The name used on the command line and in every document.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColoBenign => "colo_benign",
            Workload::ColoAttack => "colo_attack",
            Workload::ColoWalk => "colo_walk",
            Workload::FlapRebuild => "flap_rebuild",
            Workload::SparseIdle => "sparse_idle",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds per run. The smoke durations are the shortest
    /// at which every pin still holds (the covert populate starts at
    /// 1 s; the flap starts at 2 s and needs a window after it to halve
    /// the victim's delivery).
    pub fn sim_secs(self, smoke: bool) -> u64 {
        match (self, smoke) {
            (Workload::ColoBenign, false) => 8,
            (Workload::ColoAttack | Workload::ColoWalk, false) => 4,
            (Workload::FlapRebuild, false) => 40,
            (Workload::SparseIdle, false) => 200,
            (Workload::ColoBenign, true) => 1,
            (Workload::ColoAttack, true) => 2,
            (Workload::ColoWalk, true) => 4,
            (Workload::FlapRebuild, true) => 8,
            (Workload::SparseIdle, true) => 20,
        }
    }

    /// Masks the injected policy predicts (0 = no attack traffic).
    pub fn predicted_masks(self) -> u64 {
        match self {
            Workload::ColoAttack => {
                AttackSpec::masks_512(PolicyDialect::Kubernetes).predicted_masks()
            }
            Workload::ColoWalk => AttackSpec::masks_8192().predicted_masks(),
            _ => 0,
        }
    }

    /// Masks a run must reach on some host. The 512-mask populate
    /// finishes within 0.2 simulated seconds. The 8192-mask populate
    /// does not finish inside `colo_walk`'s 4 s — the saturated switch
    /// drops covert packets too (5 931 masks at the default seed) — so
    /// a run must get half way, and the traced child shows the full
    /// count on a bare switch ([`crate::layers::masks_reached`]).
    pub fn pinned_masks(self) -> u64 {
        match self {
            Workload::ColoWalk => self.predicted_masks() / 2,
            _ => self.predicted_masks(),
        }
    }

    /// Whether the exact-match cache is on (decides which unit costs
    /// the ledger multiplies by).
    pub fn emc_enabled(self) -> bool {
        self != Workload::ColoWalk
    }

    /// Hosts carrying a victim (one victim each; the flap has one node).
    fn victim_hosts(self) -> usize {
        match self {
            Workload::ColoBenign | Workload::ColoAttack => 8,
            Workload::ColoWalk | Workload::SparseIdle => 4,
            Workload::FlapRebuild => 1,
        }
    }

    /// The victims' aggregate line-rate demand, packets per simulated
    /// second: what `sim.victim_retained` divides delivered packets by.
    fn victim_line_pps(self) -> f64 {
        let per_victim = match self {
            Workload::FlapRebuild => PolicyChurnParams::default().victim_pps,
            Workload::SparseIdle => SparseParams::default().victim_rate_bps / (1500.0 * 8.0),
            _ => ColocationParams::default().victim_rate_bps / (1500.0 * 8.0),
        };
        self.victim_hosts() as f64 * per_victim
    }

    /// Classifies a report's source label (`victim3#…`, `background0#…`,
    /// `attack@1#…`).
    pub fn source_kind(self, label: &str) -> SourceKind {
        if label.starts_with("attack") {
            SourceKind::Attack
        } else if label.starts_with("background") {
            SourceKind::Poisson
        } else if self == Workload::FlapRebuild {
            SourceKind::Fan
        } else {
            SourceKind::Iperf
        }
    }

    /// Builds the scenario: CMS admission and compile, placement, ACL
    /// install, source construction. This call is what `setup_s` times.
    pub fn build(self, seed: u64, sim_secs: u64, workers: usize) -> Scenario {
        let dp = |base: DpConfig| DpConfig {
            seed: base.seed ^ (seed ^ DEFAULT_SEED),
            ..base
        };
        let duration = SimTime::from_secs(sim_secs);
        let hosts = self.victim_hosts();
        let colo = |attackers: usize, spec: AttackSpec, base: DpConfig| {
            let params = ColocationParams {
                hosts,
                victims: hosts,
                attackers,
                spec,
                attack_start: SimTime::from_secs(1),
                stagger: SimTime::ZERO,
                duration,
                dp: dp(base),
                seed,
                workers,
                ..ColocationParams::default()
            };
            Scenario::Fleet(Box::new(fleet_colocation(&params).0))
        };
        let masks_512 = AttackSpec::masks_512(PolicyDialect::Kubernetes);
        match self {
            Workload::ColoBenign => colo(0, masks_512, DpConfig::default()),
            Workload::ColoAttack => colo(hosts / 2, masks_512, DpConfig::default()),
            Workload::ColoWalk => colo(hosts / 2, AttackSpec::masks_8192(), DpConfig::no_emc()),
            Workload::FlapRebuild => {
                let params = PolicyChurnParams {
                    duration,
                    dp: dp(DpConfig::default()),
                    ..PolicyChurnParams::default()
                };
                Scenario::Sim(Box::new(policy_churn_scenario(&params).0))
            }
            Workload::SparseIdle => {
                let params = SparseParams {
                    hosts: 128,
                    hot_hosts: hosts,
                    duration,
                    // Past the end: with the attack on this fleet is
                    // ≈70 % TSS walk, not engine overhead (README.md).
                    attack_start: SimTime::from_secs(2 * sim_secs),
                    dp: dp(DpConfig::default()),
                    workers,
                    ..SparseParams::default()
                };
                Scenario::Fleet(Box::new(fleet_sparse(&params).0))
            }
        }
    }
}

/// A built, not yet run scenario of either engine.
pub enum Scenario {
    /// A `pi_fleet` cluster.
    Fleet(Box<FleetSim>),
    /// The single-node `pi_sim` testbed.
    Sim(Box<Simulation>),
}

impl Scenario {
    /// Turns `pi_trace` recording on for the run.
    pub fn enable_trace(&mut self) {
        match self {
            Scenario::Fleet(sim) => sim.set_trace(TraceConfig::enabled()),
            Scenario::Sim(sim) => sim.set_trace(TraceConfig::enabled()),
        }
    }

    /// Runs the fixed simulated duration, report assembly included. This
    /// call is what `wall_s` times.
    pub fn run(self) -> Report {
        match self {
            Scenario::Fleet(sim) => Report::Fleet(sim.run()),
            Scenario::Sim(sim) => Report::Sim(sim.run()),
        }
    }
}

/// A finished run of either engine.
pub enum Report {
    /// From `FleetSim::run`.
    Fleet(FleetReport),
    /// From `Simulation::run`.
    Sim(SimReport),
}

/// The report fields the benchmark reads, common to both engines.
pub struct ReportView<'a> {
    /// Final switch counters per host.
    pub switch_stats: &'a [SwitchStats],
    /// Final upcall-pipeline counters per host.
    pub upcall_stats: &'a [UpcallStats],
    /// Per-source packet totals.
    pub source_totals: &'a [SourceTotals],
    /// Stepped / skipped tick accounting.
    pub engine: EngineStats,
    /// Per-worker harness profile (fleet only; not worker-count
    /// invariant, so never part of the digest).
    pub profiles: &'a [EngineProfile],
    /// Per-host mask-count series.
    pub masks: &'a [TimeSeries],
    /// Per-host megaflow-count series.
    pub megaflows: &'a [TimeSeries],
    /// The merged `pi_trace` ring (empty when tracing was off).
    pub trace: &'a TraceReport,
}

impl Report {
    /// The fields the benchmark reads.
    pub fn view(&self) -> ReportView<'_> {
        match self {
            Report::Fleet(r) => ReportView {
                switch_stats: &r.switch_stats,
                upcall_stats: &r.upcall_stats,
                source_totals: &r.source_totals,
                engine: r.engine,
                profiles: &r.profiles,
                masks: &r.masks,
                megaflows: &r.megaflows,
                trace: &r.trace,
            },
            Report::Sim(r) => ReportView {
                switch_stats: &r.switch_stats,
                upcall_stats: &r.upcall_stats,
                source_totals: &r.source_totals,
                engine: r.engine,
                profiles: &[],
                masks: &r.masks,
                megaflows: &r.megaflows,
                trace: &r.trace,
            },
        }
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl ReportView<'_> {
    /// FNV-1a over every simulated statistic the report carries: per-host
    /// switch and upcall counters, per-source totals, tick accounting and
    /// the final mask / megaflow occupancy. A change that is only meant
    /// to make the simulator faster must leave it identical.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for s in self.switch_stats {
            // Exhaustive destructuring: a new counter must fail to
            // compile here rather than escape the digest.
            let SwitchStats {
                packets,
                microflow_hits,
                megaflow_hits,
                upcalls,
                policy_drops,
                cycles,
                subtable_probes,
                policy_updates,
                cache_flushes,
                flushed_megaflows,
                control_cycles,
            } = *s;
            for v in [
                packets,
                microflow_hits,
                megaflow_hits,
                upcalls,
                policy_drops,
                cycles,
                subtable_probes,
                policy_updates,
                cache_flushes,
                flushed_megaflows,
                control_cycles,
            ] {
                h.u64(v);
            }
        }
        for u in self.upcall_stats {
            let UpcallStats {
                enqueued,
                queue_drops,
                handled,
                installs_flushed,
                quota_deferrals,
                quarantine_drops,
                wait_steps,
                max_depth,
            } = *u;
            for v in [
                enqueued,
                queue_drops,
                handled,
                installs_flushed,
                quota_deferrals,
                quarantine_drops,
                wait_steps,
                max_depth as u64,
            ] {
                h.u64(v);
            }
        }
        for t in self.source_totals {
            let SourceTotals {
                label,
                generated,
                delivered,
                dropped_capacity,
                dropped_policy,
                dropped_upcall,
            } = t;
            h.bytes(label.as_bytes());
            for v in [
                generated,
                delivered,
                dropped_capacity,
                dropped_policy,
                dropped_upcall,
            ] {
                h.u64(*v);
            }
        }
        let EngineStats {
            shard_ticks_stepped,
            shard_ticks_skipped,
            events_processed,
        } = self.engine;
        for v in [shard_ticks_stepped, shard_ticks_skipped, events_processed] {
            h.u64(v);
        }
        for series in self.masks.iter().chain(self.megaflows) {
            h.u64(series.last().map_or(0, |(_, v)| v.to_bits()));
        }
        h.0
    }

    /// Folds the report into the per-workload counts.
    pub fn counts(&self, workload: Workload, sim_secs: u64) -> Counts {
        let mut c = Counts::default();
        for s in self.switch_stats {
            c.packets += s.packets;
            c.emc_hits += s.microflow_hits;
            c.mfc_hits += s.megaflow_hits;
            c.upcalls += s.upcalls;
            c.probes += s.subtable_probes;
            c.policy_updates += s.policy_updates;
            c.cache_flushes += s.cache_flushes;
            c.flushed_megaflows += s.flushed_megaflows;
            c.cycles += s.cycles;
            c.control_cycles += s.control_cycles;
        }
        c.upcall_drops = self.upcall_stats.iter().map(|u| u.queue_drops).sum();
        let peak = |series: &[TimeSeries]| series.iter().map(TimeSeries::max).fold(0.0, f64::max);
        c.masks_peak = peak(self.masks);
        c.megaflows_peak = peak(self.megaflows);
        c.megaflow_sweeps = self.megaflows.iter().flat_map(TimeSeries::values).sum();
        for t in self.source_totals {
            c.generated += t.generated;
            c.delivered += t.delivered;
            c.drop_capacity += t.dropped_capacity;
            c.drop_policy += t.dropped_policy;
            c.drop_upcall += t.dropped_upcall;
            let kind = workload.source_kind(&t.label);
            c.generated_by[kind as usize] += t.generated;
            if t.label.starts_with("victim") {
                c.victim_delivered += t.delivered;
            }
        }
        c.victim_demand = workload.victim_line_pps() * sim_secs as f64;
        c.events = self.engine.events_processed;
        c.ticks_stepped = self.engine.shard_ticks_stepped;
        c.ticks_skipped = self.engine.shard_ticks_skipped;
        for p in self.profiles {
            c.null_messages += p.null_messages;
            c.wake_pushes += p.wake_pushes;
            c.wake_stale_pops += p.wake_stale_pops;
            c.flush_items += p.flush_items;
        }
        c
    }

    /// Per source: packets generated but in no outcome bucket (still in
    /// flight when the clock stopped), or `None` when the buckets exceed
    /// what was generated — which no run may do.
    pub fn in_flight(&self) -> Vec<(&str, Option<u64>)> {
        self.source_totals
            .iter()
            .map(|t| {
                let settled =
                    t.delivered + t.dropped_capacity + t.dropped_policy + t.dropped_upcall;
                (t.label.as_str(), t.generated.checked_sub(settled))
            })
            .collect()
    }

    /// `pi_trace` events of kind `name` in the merged ring.
    pub fn trace_events_named(&self, name: &str) -> u64 {
        self.trace
            .events
            .iter()
            .filter(|e| e.kind.name() == name)
            .count() as u64
    }
}

/// Exact simulated statistics of one run, summed over hosts and
/// sources. Identical for a fixed seed on any machine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Packets the switches processed.
    pub packets: u64,
    /// Exact-match cache hits.
    pub emc_hits: u64,
    /// Megaflow (TSS) hits.
    pub mfc_hits: u64,
    /// Slow-path upcalls.
    pub upcalls: u64,
    /// Upcall-queue tail drops.
    pub upcall_drops: u64,
    /// Subtable probes.
    pub probes: u64,
    /// Largest sampled per-host mask count.
    pub masks_peak: f64,
    /// Largest sampled per-host megaflow count.
    pub megaflows_peak: f64,
    /// Σ over hosts and one-second samples of resident megaflows: the
    /// entries the once-a-second revalidator sweeps visited.
    pub megaflow_sweeps: f64,
    /// Control-plane policy updates applied.
    pub policy_updates: u64,
    /// Cache invalidations that flushed state.
    pub cache_flushes: u64,
    /// Megaflows those invalidations discarded.
    pub flushed_megaflows: u64,
    /// Modelled `CostModel` cycles charged.
    pub cycles: u64,
    /// The control-plane share of those cycles.
    pub control_cycles: u64,
    /// Packets the sources generated.
    pub generated: u64,
    /// The same, split by [`SourceKind`] (indexed by discriminant).
    pub generated_by: [u64; 4],
    /// Packets delivered to their destination pod.
    pub delivered: u64,
    /// Packets lost to queue / link capacity.
    pub drop_capacity: u64,
    /// Packets denied by policy.
    pub drop_policy: u64,
    /// Packets tail-dropped at an upcall queue.
    pub drop_upcall: u64,
    /// Packets delivered for the `victim*` sources.
    pub victim_delivered: u64,
    /// The victims' line-rate demand over the run, packets.
    pub victim_demand: f64,
    /// Events the engine consumed.
    pub events: u64,
    /// Shard ticks executed.
    pub ticks_stepped: u64,
    /// Shard ticks proven idle and skipped.
    pub ticks_skipped: u64,
    /// Pure null messages between fleet workers.
    pub null_messages: u64,
    /// Wake-heap pushes.
    pub wake_pushes: u64,
    /// Stale wake-heap entries discarded.
    pub wake_stale_pops: u64,
    /// Cross-worker delivery items.
    pub flush_items: u64,
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Counts {
    /// Subtable probes per switch packet.
    pub fn probes_per_pkt(&self) -> f64 {
        ratio(self.probes as f64, self.packets as f64)
    }

    /// Share of the victims' line-rate demand that was delivered.
    pub fn victim_retained(&self) -> f64 {
        ratio(self.victim_delivered as f64, self.victim_demand)
    }

    /// Share of shard ticks the event-driven engine skipped.
    pub fn skipped_share(&self) -> f64 {
        ratio(
            self.ticks_skipped as f64,
            (self.ticks_stepped + self.ticks_skipped) as f64,
        )
    }

    /// The per-layer count metrics, by name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let pk = self.packets as f64;
        vec![
            ("datapath.packets", pk),
            ("datapath.emc_hit_ratio", ratio(self.emc_hits as f64, pk)),
            ("datapath.mfc_hit_ratio", ratio(self.mfc_hits as f64, pk)),
            ("datapath.upcalls", self.upcalls as f64),
            ("datapath.upcall_drops", self.upcall_drops as f64),
            ("classifier.probes_per_pkt", self.probes_per_pkt()),
            ("datapath.masks_peak", self.masks_peak),
            ("datapath.megaflows_peak", self.megaflows_peak),
            ("datapath.policy_updates", self.policy_updates as f64),
            ("datapath.cache_flushes", self.cache_flushes as f64),
            ("datapath.flushed_megaflows", self.flushed_megaflows as f64),
            ("datapath.sim_cycles_per_pkt", ratio(self.cycles as f64, pk)),
            ("datapath.control_cycles", self.control_cycles as f64),
            ("sim.generated_pkts", self.generated as f64),
            ("sim.delivered_pkts", self.delivered as f64),
            ("sim.drop_capacity", self.drop_capacity as f64),
            ("sim.drop_policy", self.drop_policy as f64),
            ("sim.drop_upcall", self.drop_upcall as f64),
            ("sim.victim_retained", self.victim_retained()),
            ("fleet.events", self.events as f64),
            ("fleet.ticks_stepped", self.ticks_stepped as f64),
            ("fleet.ticks_skipped", self.ticks_skipped as f64),
            ("fleet.null_messages", self.null_messages as f64),
            ("fleet.wake_pushes", self.wake_pushes as f64),
            ("fleet.wake_stale_pops", self.wake_stale_pops as f64),
            ("fleet.flush_items", self.flush_items as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixture {
        switch: Vec<SwitchStats>,
        upcall: Vec<UpcallStats>,
        sources: Vec<SourceTotals>,
        masks: Vec<TimeSeries>,
        megaflows: Vec<TimeSeries>,
        trace: TraceReport,
    }

    fn fixture() -> Fixture {
        let series = |v: f64| {
            let mut s = TimeSeries::new("s");
            s.push(SimTime::from_secs(1), 1.0);
            s.push(SimTime::from_secs(2), v);
            s
        };
        Fixture {
            switch: vec![
                SwitchStats {
                    packets: 100,
                    microflow_hits: 90,
                    subtable_probes: 50,
                    ..SwitchStats::default()
                },
                SwitchStats {
                    packets: 60,
                    upcalls: 3,
                    ..SwitchStats::default()
                },
            ],
            upcall: vec![UpcallStats::default(); 2],
            sources: vec![
                SourceTotals {
                    label: "victim0#0".into(),
                    generated: 120,
                    delivered: 100,
                    dropped_capacity: 10,
                    dropped_policy: 0,
                    dropped_upcall: 0,
                },
                SourceTotals {
                    label: "attack@0#1".into(),
                    generated: 40,
                    delivered: 0,
                    dropped_capacity: 0,
                    dropped_policy: 39,
                    dropped_upcall: 0,
                },
            ],
            masks: vec![series(512.0), series(3.0)],
            megaflows: vec![series(600.0), series(4.0)],
            trace: TraceReport::default(),
        }
    }

    fn view(f: &Fixture) -> ReportView<'_> {
        ReportView {
            switch_stats: &f.switch,
            upcall_stats: &f.upcall,
            source_totals: &f.sources,
            engine: EngineStats {
                shard_ticks_stepped: 10,
                shard_ticks_skipped: 90,
                events_processed: 7,
            },
            profiles: &[],
            masks: &f.masks,
            megaflows: &f.megaflows,
            trace: &f.trace,
        }
    }

    #[test]
    fn same_report_same_digest_and_any_counter_changes_it() {
        let base = fixture();
        let digest = view(&base).digest();
        assert_eq!(digest, view(&fixture()).digest());

        let mut f = fixture();
        f.switch[1].subtable_probes += 1;
        assert_ne!(view(&f).digest(), digest, "switch counter");
        let mut f = fixture();
        f.upcall[0].queue_drops = 1;
        assert_ne!(view(&f).digest(), digest, "upcall counter");
        let mut f = fixture();
        f.sources[1].dropped_policy += 1;
        assert_ne!(view(&f).digest(), digest, "source total");
        let mut f = fixture();
        f.sources[0].label = "victim1#0".into();
        assert_ne!(view(&f).digest(), digest, "source label");
        let mut f = fixture();
        f.masks[1].push(SimTime::from_secs(3), 5.0);
        assert_ne!(view(&f).digest(), digest, "final mask count");
        let mut v = view(&base);
        v.engine.events_processed += 1;
        assert_ne!(v.digest(), digest, "engine stats");
    }

    #[test]
    fn counts_fold_hosts_sources_and_series() {
        let f = fixture();
        let c = view(&f).counts(Workload::ColoAttack, 2);
        assert_eq!(c.packets, 160);
        assert_eq!(c.probes, 50);
        assert_eq!(c.masks_peak, 512.0);
        assert_eq!(c.megaflows_peak, 600.0);
        assert_eq!(c.megaflow_sweeps, 1.0 + 600.0 + 1.0 + 4.0);
        assert_eq!(c.generated, 160);
        assert_eq!(c.generated_by[SourceKind::Iperf as usize], 120);
        assert_eq!(c.generated_by[SourceKind::Attack as usize], 40);
        assert_eq!(c.victim_delivered, 100);
        assert!((c.skipped_share() - 0.9).abs() < 1e-12);
        assert!((c.probes_per_pkt() - 50.0 / 160.0).abs() < 1e-12);
        let v = view(&f);
        let in_flight = v.in_flight();
        assert_eq!(in_flight[0], ("victim0#0", Some(10)));
        assert_eq!(in_flight[1], ("attack@0#1", Some(1)));
        for (name, _) in c.metrics() {
            assert!(crate::metrics::per_layer(name).is_some(), "{name}");
        }
    }

    #[test]
    fn over_settled_source_is_reported() {
        let mut f = fixture();
        f.sources[0].delivered = 500;
        assert_eq!(view(&f).in_flight()[0].1, None);
    }

    #[test]
    fn names_round_trip_and_source_kinds_follow_labels() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::json::valid_name(w.name()));
            assert!(w.sim_secs(true) <= w.sim_secs(false));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(
            Workload::ColoAttack.source_kind("background3#9"),
            SourceKind::Poisson
        );
        assert_eq!(
            Workload::FlapRebuild.source_kind("victim#0"),
            SourceKind::Fan
        );
        assert_eq!(
            Workload::ColoWalk.source_kind("victim2#2"),
            SourceKind::Iperf
        );
        assert_eq!(Workload::ColoAttack.predicted_masks(), 512);
        assert_eq!(Workload::ColoWalk.predicted_masks(), 8192);
        assert_eq!(Workload::ColoWalk.pinned_masks(), 4096);
        assert_eq!(Workload::ColoAttack.pinned_masks(), 512);
    }
}
