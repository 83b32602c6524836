//! The layer ledger: where one workload's `wall_s` goes.
//!
//! Each row is an exact count from the untraced run's report multiplied
//! by a unit cost measured from outside ([`crate::layers`]), as a share
//! of the run's wall time. The rows partition the work — the miss walk
//! of an upcall is charged to `tss`, its classification and install to
//! `slowpath` — so they may be added, and what they leave over is the
//! `engine` row: the `pi_fleet` / `pi_sim` loop, wake heap, flush
//! exchange and report assembly, plus whatever the cache-warm unit
//! costs under-estimate.

use crate::layers::UnitCosts;
use crate::workloads::{ratio, Counts, SourceKind, Workload};

/// One ledger row: host seconds attributed to a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// `(row name, attributed seconds)`, in report order.
    pub rows: Vec<(&'static str, f64)>,
    /// The run's wall time the shares are taken of.
    pub wall_s: f64,
    /// Modelled `CostModel` cycles the run charged.
    pub cycles: u64,
}

impl Ledger {
    /// Attributes `wall_s` of `workload` to its layers.
    pub fn attribute(
        workload: Workload,
        counts: &Counts,
        costs: &UnitCosts,
        wall_s: f64,
    ) -> Ledger {
        let ns = |name: &str| costs.ns(name);
        let (probe_ns, slowpath_ns) = match workload {
            Workload::ColoWalk => (
                ns("classifier.tss_probe_ns.8192"),
                ns("datapath.slowpath_ns.acl8192"),
            ),
            Workload::FlapRebuild => (
                ns("classifier.tss_probe_ns.512"),
                ns("datapath.slowpath_ns.wl512"),
            ),
            _ => (
                ns("classifier.tss_probe_ns.512"),
                ns("datapath.slowpath_ns.acl512"),
            ),
        };
        // Per-packet cost before any subtable is probed: the EMC-hit
        // path, or without an EMC the one-mask megaflow hit less its one
        // probe.
        let fastpath_ns = if workload.emc_enabled() {
            ns("datapath.emc_hit_ns")
        } else {
            (ns("datapath.mfc_hit_ns.1") - probe_ns).max(0.0)
        };
        let generated = |kind: SourceKind| counts.generated_by[kind as usize] as f64;
        let traffic = generated(SourceKind::Iperf) * ns("traffic.iperf_gen_ns")
            + generated(SourceKind::Poisson) * ns("traffic.poisson_gen_ns")
            + generated(SourceKind::Fan) * ns("traffic.fan_gen_ns")
            + generated(SourceKind::Attack) * ns("attack.schedule_gen_ns");
        let rows = vec![
            ("traffic", traffic),
            ("fastpath", counts.packets as f64 * fastpath_ns),
            ("tss", counts.probes as f64 * probe_ns),
            (
                "slowpath",
                counts.upcalls as f64 * (slowpath_ns + ns("classifier.tss_insert_ns")),
            ),
            (
                "flush",
                counts.flushed_megaflows as f64 * ns("datapath.flush_ns_per_mf"),
            ),
            (
                "revalidate",
                counts.megaflow_sweeps * ns("datapath.revalidate_ns_per_mf"),
            ),
            (
                "node",
                counts.packets as f64 * ns("sim.node_self_ns").max(0.0),
            ),
        ];
        Ledger {
            rows: rows.into_iter().map(|(n, v)| (n, v / 1e9)).collect(),
            wall_s,
            cycles: counts.cycles,
        }
    }

    /// Share of `wall_s` attributed to a named layer.
    pub fn attributed_share(&self) -> f64 {
        ratio(self.rows.iter().map(|(_, s)| s).sum(), self.wall_s)
    }

    /// Share of `wall_s` of row `name`.
    pub fn share(&self, name: &str) -> f64 {
        let row = self.rows.iter().find(|(n, _)| *n == name);
        ratio(row.map_or(0.0, |(_, s)| *s), self.wall_s)
    }

    /// The ledger's per-layer metrics, by name.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let mut out: Vec<_> = self
            .rows
            .iter()
            .map(|(name, _)| (format!("ledger.{name}.share"), self.share(name)))
            .collect();
        out.push((
            "ledger.engine.share".to_string(),
            1.0 - self.attributed_share(),
        ));
        // Host nanoseconds per modelled cycle: how far the simulator's
        // own cost is from the cost it charges the simulated switch.
        out.push((
            "ledger.model_ratio".to_string(),
            ratio(self.wall_s * 1e9, self.cycles as f64),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::UnitCost;

    fn costs(pairs: &[(&'static str, f64)]) -> UnitCosts {
        UnitCosts(
            pairs
                .iter()
                .map(|&(name, ns)| UnitCost {
                    name,
                    ns,
                    p99: None,
                })
                .collect(),
        )
    }

    #[test]
    fn rows_are_count_times_unit_cost_over_wall() {
        let counts = Counts {
            packets: 1_000_000,
            probes: 4_000_000,
            upcalls: 1_000,
            cycles: 2_000_000_000,
            ..Counts::default()
        };
        let costs = costs(&[
            ("datapath.emc_hit_ns", 50.0),
            ("classifier.tss_probe_ns.512", 10.0),
            ("datapath.slowpath_ns.acl512", 900.0),
            ("classifier.tss_insert_ns", 100.0),
            ("sim.node_self_ns", -3.0),
        ]);
        let ledger = Ledger::attribute(Workload::ColoAttack, &counts, &costs, 0.2);
        assert!((ledger.share("fastpath") - 0.25).abs() < 1e-12);
        assert!((ledger.share("tss") - 0.2).abs() < 1e-12);
        assert!((ledger.share("slowpath") - 0.005).abs() < 1e-12);
        assert_eq!(
            ledger.share("node"),
            0.0,
            "a negative difference attributes nothing"
        );
        assert!((ledger.attributed_share() - 0.455).abs() < 1e-12);
        let metrics = ledger.metrics();
        let get = |n: &str| metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert!((get("ledger.engine.share") - 0.545).abs() < 1e-12);
        assert!((get("ledger.model_ratio") - 0.1).abs() < 1e-12);
        for (name, _) in &metrics {
            assert!(crate::metrics::per_layer(name).is_some(), "{name}");
        }
    }

    #[test]
    fn no_emc_workload_uses_the_walk_unit_costs() {
        let counts = Counts {
            packets: 100,
            probes: 1_000,
            ..Counts::default()
        };
        let costs = costs(&[
            ("datapath.emc_hit_ns", 1e6),
            ("datapath.mfc_hit_ns.1", 60.0),
            ("classifier.tss_probe_ns.8192", 20.0),
            ("classifier.tss_probe_ns.512", 1e6),
        ]);
        let ledger = Ledger::attribute(Workload::ColoWalk, &counts, &costs, 1e-4);
        assert!((ledger.share("fastpath") - 0.04).abs() < 1e-12);
        assert!((ledger.share("tss") - 0.2).abs() < 1e-12);
    }
}
