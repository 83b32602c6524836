//! The benchmark's metric tables: the one place a name, its unit and its
//! direction are declared. `BENCHMARK.json` mirrors these tables (a unit
//! test holds the two together), every run asserts that it emitted
//! exactly these names, and README.md explains each.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, failures).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as BENCHMARK.json spells it.
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of A's value by which B may be worse before it counts as a
    /// regression.
    pub bound: f64,
    /// Absolute worsening always tolerated, in the metric's unit (a
    /// 25 % bound on a sub-millisecond set-up is below timer noise).
    pub abs_floor: f64,
    /// Whether the value is a host time (or derived from one), so that
    /// a noisy or starved run makes the comparison unresolved.
    pub timed: bool,
}

/// The end-to-end metrics, all measured with tracing off.
pub const END_TO_END: [MetricDef; 5] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.002,
        timed: true,
    },
    MetricDef {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
        timed: true,
    },
    MetricDef {
        name: "pkt_rate",
        unit: "Mpkt/s",
        better: Better::Higher,
        bound: 0.25,
        abs_floor: 0.0,
        timed: true,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        abs_floor: 0.0,
        timed: false,
    },
    // Reported through the result line's `attempted` / `failed`, not as
    // a BENCHMARK.json metric (it is 0 on every healthy run).
    MetricDef {
        name: "fail_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        abs_floor: 0.0,
        timed: false,
    },
];

/// Every per-layer metric, `(name, unit, better)`: unit costs (median
/// ns per operation, `.p99` over batches where a workload's critical
/// path runs through the call), exact per-workload counts, the ledger,
/// run quality and trace counts. Measured in the traced child; none has
/// a bound.
pub const PER_LAYER: [(&str, &str, Better); 93] = [
    ("core.keywords_ns", "ns", Better::Lower),
    ("core.masked_hash_ns", "ns", Better::Lower),
    ("classifier.tss_probe_ns.512", "ns", Better::Lower),
    ("classifier.tss_probe_ns.512.p99", "ns", Better::Lower),
    ("classifier.tss_probe_ns.8192", "ns", Better::Lower),
    ("classifier.tss_probe_ns.8192.p99", "ns", Better::Lower),
    ("classifier.tss_insert_ns", "ns", Better::Lower),
    ("classifier.tss_remove_ns", "ns", Better::Lower),
    ("classifier.trie_unwildcard_ns", "ns", Better::Lower),
    ("datapath.emc_hit_ns", "ns", Better::Lower),
    ("datapath.emc_hit_ns.p99", "ns", Better::Lower),
    ("datapath.mfc_hit_ns.1", "ns", Better::Lower),
    ("datapath.mfc_hit_ns.512", "ns", Better::Lower),
    ("datapath.mfc_hit_ns.512.p99", "ns", Better::Lower),
    ("datapath.upcall_inline_ns.acl512", "ns", Better::Lower),
    ("datapath.upcall_inline_ns.acl512.p99", "ns", Better::Lower),
    ("datapath.upcall_inline_ns.wl512", "ns", Better::Lower),
    ("datapath.upcall_inline_ns.wl512.p99", "ns", Better::Lower),
    ("datapath.upcall_bounded_ns", "ns", Better::Lower),
    ("datapath.upcall_bounded_ns.p99", "ns", Better::Lower),
    ("datapath.slowpath_ns.acl512", "ns", Better::Lower),
    ("datapath.slowpath_ns.wl512", "ns", Better::Lower),
    ("datapath.slowpath_ns.acl8192", "ns", Better::Lower),
    ("datapath.flush_ns_per_mf", "ns", Better::Lower),
    ("datapath.revalidate_ns_per_mf", "ns", Better::Lower),
    ("backend.ovs_boxed_hit_ns", "ns", Better::Lower),
    ("backend.exact_hit_ns", "ns", Better::Lower),
    ("backend.lpm_ns", "ns", Better::Lower),
    ("backend.nic_hit_ns", "ns", Better::Lower),
    ("backend.dispatch_ns", "ns", Better::Lower),
    ("traffic.iperf_gen_ns", "ns", Better::Lower),
    ("traffic.poisson_gen_ns", "ns", Better::Lower),
    ("traffic.fan_gen_ns", "ns", Better::Lower),
    ("attack.schedule_gen_ns", "ns", Better::Lower),
    ("cms.compile_ns.acl512", "ns", Better::Lower),
    ("cms.compile_ns.acl8192", "ns", Better::Lower),
    ("sim.node_step_ns", "ns", Better::Lower),
    ("sim.node_step_ns.p99", "ns", Better::Lower),
    ("sim.node_self_ns", "ns", Better::Lower),
    ("detect.sample_ns", "ns", Better::Lower),
    ("detect.observe_ns", "ns", Better::Lower),
    ("trace.emit_ns", "ns", Better::Lower),
    ("trace.export_ns_per_event", "ns", Better::Lower),
    ("datapath.packets", "count", Better::Higher),
    ("datapath.emc_hit_ratio", "ratio", Better::Higher),
    ("datapath.mfc_hit_ratio", "ratio", Better::Higher),
    ("datapath.upcalls", "count", Better::Lower),
    ("datapath.upcall_drops", "count", Better::Lower),
    ("classifier.probes_per_pkt", "1/pkt", Better::Lower),
    ("datapath.masks_peak", "count", Better::Lower),
    ("datapath.megaflows_peak", "count", Better::Lower),
    ("datapath.policy_updates", "count", Better::Lower),
    ("datapath.cache_flushes", "count", Better::Lower),
    ("datapath.flushed_megaflows", "count", Better::Lower),
    ("datapath.sim_cycles_per_pkt", "cycles/pkt", Better::Lower),
    ("datapath.control_cycles", "cycles", Better::Lower),
    ("sim.generated_pkts", "count", Better::Higher),
    ("sim.delivered_pkts", "count", Better::Higher),
    ("sim.drop_capacity", "count", Better::Lower),
    ("sim.drop_policy", "count", Better::Lower),
    ("sim.drop_upcall", "count", Better::Lower),
    ("sim.victim_retained", "ratio", Better::Higher),
    ("fleet.events", "count", Better::Lower),
    ("fleet.ticks_stepped", "count", Better::Lower),
    ("fleet.ticks_skipped", "count", Better::Higher),
    ("fleet.null_messages", "count", Better::Lower),
    ("fleet.wake_pushes", "count", Better::Lower),
    ("fleet.wake_stale_pops", "count", Better::Lower),
    ("fleet.flush_items", "count", Better::Lower),
    ("ledger.traffic.share", "ratio", Better::Lower),
    ("ledger.fastpath.share", "ratio", Better::Lower),
    ("ledger.tss.share", "ratio", Better::Lower),
    ("ledger.slowpath.share", "ratio", Better::Lower),
    ("ledger.flush.share", "ratio", Better::Lower),
    ("ledger.revalidate.share", "ratio", Better::Lower),
    ("ledger.node.share", "ratio", Better::Lower),
    ("ledger.engine.share", "ratio", Better::Lower),
    ("ledger.model_ratio", "ns/cycle", Better::Lower),
    ("run.repeats", "count", Better::Higher),
    ("run.wall_iqr_frac", "ratio", Better::Lower),
    ("run.wall_max_s", "s", Better::Lower),
    ("run.cpu_busy_frac", "ratio", Better::Higher),
    ("run.ns_per_pkt", "ns/pkt", Better::Lower),
    ("run.ns_per_stepped_tick", "ns/tick", Better::Lower),
    ("host.calib_ns", "ns", Better::Lower),
    ("host.calib_drift_frac", "ratio", Better::Lower),
    ("trace.overhead_frac", "ratio", Better::Lower),
    ("trace.events", "count", Better::Lower),
    ("trace.dropped", "count", Better::Lower),
    ("trace.ev.batch_window", "count", Better::Lower),
    ("trace.ev.upcall_window", "count", Better::Lower),
    ("trace.ev.cache_flush", "count", Better::Lower),
    ("trace.ev.policy_update", "count", Better::Lower),
];

/// Unit and direction of per-layer metric `name`.
#[cfg(test)]
pub fn per_layer(name: &str) -> Option<(&'static str, Better)> {
    PER_LAYER
        .iter()
        .find(|(n, ..)| *n == name)
        .map(|&(_, unit, better)| (unit, better))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    #[test]
    fn tables_are_well_formed() {
        for d in &END_TO_END {
            assert!(json::valid_name(d.name));
            assert!((0.0..=0.25).contains(&d.bound));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128);
        for (i, (name, unit, _)) in PER_LAYER.iter().enumerate() {
            assert!(json::valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
            assert!(
                PER_LAYER[..i].iter().all(|(n, ..)| n != name),
                "{name} declared twice"
            );
            assert!(
                END_TO_END.iter().all(|d| d.name != *name),
                "{name} in both tables"
            );
        }
        assert_eq!(
            per_layer("ledger.tss.share"),
            Some(("ratio", Better::Lower))
        );
        assert_eq!(per_layer("nope"), None);
    }

    /// `BENCHMARK.json` at the repository root declares what the
    /// pipeline will ask for; it must name exactly what this binary
    /// emits.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);

        let declared: Vec<_> = doc.get("end_to_end").expect("end_to_end").items().to_vec();
        // `fail_share` travels as the result line's attempted / failed.
        let ours: Vec<_> = END_TO_END
            .iter()
            .filter(|d| d.name != "fail_share")
            .collect();
        assert_eq!(declared.len(), ours.len());
        for (theirs, def) in declared.iter().zip(ours) {
            assert_eq!(field(theirs, "name").as_deref(), Some(def.name));
            assert_eq!(
                field(theirs, "unit").as_deref(),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                field(theirs, "better").as_deref(),
                Some(def.better.name()),
                "{}",
                def.name
            );
            assert_eq!(
                theirs.get("bound").and_then(Value::as_f64),
                Some(def.bound),
                "{}",
                def.name
            );
        }

        let declared = doc.get("per_layer").expect("per_layer").items();
        assert_eq!(declared.len(), PER_LAYER.len());
        for (theirs, (name, unit, better)) in declared.iter().zip(PER_LAYER) {
            assert_eq!(field(theirs, "name").as_deref(), Some(name));
            assert_eq!(field(theirs, "unit").as_deref(), Some(unit), "{name}");
            assert_eq!(
                field(theirs, "better").as_deref(),
                Some(better.name()),
                "{name}"
            );
        }

        let workloads: Vec<_> = doc
            .get("workloads")
            .expect("workloads")
            .items()
            .iter()
            .filter_map(|w| field(w, "name"))
            .collect();
        let ours: Vec<_> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
