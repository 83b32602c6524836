//! The CPU cycle cost model.
//!
//! Every operation the datapath counts (hash probes, stage checks, rules
//! scanned, installs, flushed entries, …) is one term of a [`Work`]
//! vector, and [`CostModel::cycles_of`] prices it in CPU cycles — here,
//! and nowhere else. The simulator multiplies packets/second by these
//! costs against a fixed cycle budget, so throughput degradation under
//! attack follows from the data-structure dynamics — there is no
//! "attack effect" constant.
//!
//! Calibration targets (the `fig3` rows of `results/summary.md` hold
//! them): with the default budget of one ~1.2 GHz-effective softirq
//! core, an un-attacked switch forwards a 1 Gb/s victim easily (the
//! link, not the CPU, binds — Fig. 3's pre-attack plateau), and a covert
//! stream of a few Mb/s whose packets each walk ~8192 subtables exhausts
//! the core (Fig. 3's collapse). The per-term provenance table — which
//! OVS operation each price stands for and which pinned figure
//! constrains it — is not written yet: ROADMAP item 7(c).

/// Per-operation cycle prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Parsing a frame into a flow key (`flow_extract`).
    pub parse: u64,
    /// One microflow-cache probe (hash + compare).
    pub emc_probe: u64,
    /// Inserting into the microflow cache.
    pub emc_insert: u64,
    /// Fixed overhead of visiting one subtable (pointer chase, prefetch
    /// misses) — paid per subtable probed.
    pub per_subtable: u64,
    /// Hashing one stage's worth of masked key bytes — paid per stage
    /// check (a full probe of an `s`-stage subtable costs `s` of these).
    pub per_stage_hash: u64,
    /// Fixed cost of an upcall (fast-path → slow-path round trip).
    pub upcall_fixed: u64,
    /// Scanning one rule during slow-path classification — a modelled
    /// linear scan, indexed execution: charged for every rule of the
    /// destination's table on every upcall, whatever the host's
    /// [`pi_classifier::RuleIndex`] actually touched.
    pub per_rule: u64,
    /// Installing a generated megaflow entry.
    pub mfc_install: u64,
    /// Fixed datapath-side cost of one control-plane policy update
    /// landing on the switch (netlink round trip, table swap) —
    /// charged per applied ACL install/removal or pod attach.
    pub acl_update_fixed: u64,
    /// Tearing down one cached megaflow during a policy-change
    /// invalidation — what makes a flush storm's *direct* cost scale
    /// with cache occupancy (the rebuild upcalls are priced on top, by
    /// the ordinary miss path).
    pub flush_per_entry: u64,
    /// Fixed cost of a switch crash/restart: process respawn, datapath
    /// re-registration, port re-attach. Charged once against the
    /// node's budget at restart; the *indirect* price — every flow
    /// cold-missing into the wiped caches — emerges from the ordinary
    /// miss accounting, exactly like a flush storm's rebuild.
    pub restart_fixed: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            parse: 80,
            emc_probe: 40,
            emc_insert: 100,
            per_subtable: 12,
            per_stage_hash: 48,
            upcall_fixed: 30_000,
            per_rule: 300,
            mfc_install: 2_000,
            acl_update_fixed: 50_000,
            flush_per_entry: 120,
            restart_fixed: 2_000_000,
        }
    }
}

/// Counted work: one count per [`CostModel`] price. Every charged cycle
/// in the workspace is [`CostModel::cycles_of`] applied to one of these,
/// so an outcome's `work` says exactly what its `cycles` paid for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Frames parsed into flow keys ([`CostModel::parse`]).
    pub parses: u32,
    /// Microflow-cache probes ([`CostModel::emc_probe`]).
    pub emc_probes: u32,
    /// Microflow-cache inserts ([`CostModel::emc_insert`]).
    pub emc_inserts: u32,
    /// Subtables visited ([`CostModel::per_subtable`]).
    pub subtables: u32,
    /// Stage hashes computed ([`CostModel::per_stage_hash`]).
    pub stage_hashes: u32,
    /// Slow-path round trips ([`CostModel::upcall_fixed`]).
    pub upcalls: u32,
    /// Rules scanned or recompiled ([`CostModel::per_rule`]).
    pub rules: u32,
    /// Megaflow installs ([`CostModel::mfc_install`]).
    pub installs: u32,
    /// Control-plane policy updates ([`CostModel::acl_update_fixed`]).
    pub acl_updates: u32,
    /// Cached entries torn down by invalidation
    /// ([`CostModel::flush_per_entry`]).
    pub flushed: u32,
    /// Switch crash/restarts ([`CostModel::restart_fixed`]).
    pub restarts: u32,
}

impl std::ops::Add for Work {
    type Output = Work;

    fn add(self, o: Work) -> Work {
        Work {
            parses: self.parses + o.parses,
            emc_probes: self.emc_probes + o.emc_probes,
            emc_inserts: self.emc_inserts + o.emc_inserts,
            subtables: self.subtables + o.subtables,
            stage_hashes: self.stage_hashes + o.stage_hashes,
            upcalls: self.upcalls + o.upcalls,
            rules: self.rules + o.rules,
            installs: self.installs + o.installs,
            acl_updates: self.acl_updates + o.acl_updates,
            flushed: self.flushed + o.flushed,
            restarts: self.restarts + o.restarts,
        }
    }
}

impl CostModel {
    /// The one price: cycles for `work`, Σ count × price over the
    /// terms. A packet, a deferred upcall's handler share, a policy
    /// update and a restart are all priced here.
    #[inline]
    pub fn cycles_of(&self, work: &Work) -> u64 {
        u64::from(work.parses) * self.parse
            + u64::from(work.emc_probes) * self.emc_probe
            + u64::from(work.emc_inserts) * self.emc_insert
            + u64::from(work.subtables) * self.per_subtable
            + u64::from(work.stage_hashes) * self.per_stage_hash
            + u64::from(work.upcalls) * self.upcall_fixed
            + u64::from(work.rules) * self.per_rule
            + u64::from(work.installs) * self.mfc_install
            + u64::from(work.acl_updates) * self.acl_update_fixed
            + u64::from(work.flushed) * self.flush_per_entry
            + u64::from(work.restarts) * self.restart_fixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A packet's work: one parse, `emc_probes` EMC probes, a walk of
    /// `subtables` subtables and `stage_hashes` stage hashes.
    fn walk(emc_probes: u32, subtables: u32, stage_hashes: u32) -> Work {
        Work {
            parses: 1,
            emc_probes,
            subtables,
            stage_hashes,
            ..Work::default()
        }
    }

    #[test]
    fn emc_hit_is_cheapest() {
        let m = CostModel::default();
        let emc = m.cycles_of(&walk(1, 0, 0));
        let mfc = m.cycles_of(&walk(1, 1, 1));
        let upcall = m.cycles_of(&Work {
            upcalls: 1,
            rules: 2,
            installs: 1,
            emc_inserts: 1,
            ..walk(1, 1, 1)
        });
        assert!(emc < mfc);
        assert!(mfc < upcall);
    }

    #[test]
    fn megaflow_cost_linear_in_probes() {
        let m = CostModel::default();
        // 1 stage per subtable, no parse.
        let cost = |probes: u32| {
            m.cycles_of(&Work {
                subtables: probes,
                stage_hashes: probes,
                ..Work::default()
            })
        };
        let c1 = cost(1);
        let c2 = cost(2);
        let c100 = cost(100);
        assert_eq!(c2 - c1, m.per_subtable + m.per_stage_hash);
        assert_eq!(c100, 100 * (m.per_subtable + m.per_stage_hash));
    }

    #[test]
    fn attack_scale_sanity() {
        // One covert packet forced through 8192 single-stage subtables
        // costs ~0.5 M cycles: ~2 400 such packets/s (≈1.2 Mb/s of
        // 64-byte frames) exhaust a 1.2 GHz-effective core — the paper's
        // "low-bandwidth (1–2 Mbps) covert packet stream".
        let m = CostModel::default();
        let per_packet = m.cycles_of(&walk(1, 8192, 8192));
        let budget: u64 = 1_200_000_000;
        let pps = budget / per_packet;
        assert!(
            (1_500..5_000).contains(&pps),
            "expected a few-kpps ceiling under full walks, got {pps} ({per_packet} cycles/pkt)"
        );
    }

    #[test]
    fn deferred_shares_sum_to_the_inline_upcall_cost() {
        let m = CostModel::default();
        let queued = walk(1, 17, 23);
        let handler = Work {
            upcalls: 1,
            rules: 2,
            installs: 1,
            emc_inserts: 1,
            ..Work::default()
        };
        let inline = queued + handler;
        assert_eq!(
            m.cycles_of(&queued) + m.cycles_of(&handler),
            m.cycles_of(&inline)
        );
        // A dropped upcall is charged exactly the fast-path share.
        let dropped = walk(1, 17, 23);
        assert_eq!(m.cycles_of(&dropped), m.cycles_of(&queued));
        assert_eq!(
            m.cycles_of(&inline),
            m.parse
                + m.emc_probe
                + 17 * m.per_subtable
                + 23 * m.per_stage_hash
                + m.upcall_fixed
                + 2 * m.per_rule
                + m.mfc_install
                + m.emc_insert
        );
    }

    #[test]
    fn control_update_cost_scales_with_flushed_entries() {
        let m = CostModel::default();
        let update = |flushed: u32| {
            m.cycles_of(&Work {
                acl_updates: 1,
                flushed,
                ..Work::default()
            })
        };
        assert_eq!(update(0), m.acl_update_fixed);
        assert_eq!(update(1_000) - update(0), 1_000 * m.flush_per_entry);
        // A full-table flush (200 k entries) costs cycles comparable to
        // hundreds of upcalls — expensive, but the dominant damage is
        // the rebuild, which the miss path prices separately.
        assert!(update(200_000) > 100 * m.upcall_fixed);
    }

    #[test]
    fn upcall_includes_linear_scan() {
        let m = CostModel::default();
        let scan = |rules: u32| {
            m.cycles_of(&Work {
                upcalls: 1,
                rules,
                ..Work::default()
            })
        };
        assert_eq!(scan(1000) - scan(2), 998 * m.per_rule);
    }

    #[test]
    fn every_term_is_priced_once() {
        let m = CostModel::default();
        let one = Work {
            parses: 1,
            emc_probes: 1,
            emc_inserts: 1,
            subtables: 1,
            stage_hashes: 1,
            upcalls: 1,
            rules: 1,
            installs: 1,
            acl_updates: 1,
            flushed: 1,
            restarts: 1,
        };
        let prices = m.parse
            + m.emc_probe
            + m.emc_insert
            + m.per_subtable
            + m.per_stage_hash
            + m.upcall_fixed
            + m.per_rule
            + m.mfc_install
            + m.acl_update_fixed
            + m.flush_per_entry
            + m.restart_fixed;
        assert_eq!(m.cycles_of(&one), prices);
        assert_eq!(m.cycles_of(&(one + one)), 2 * prices);
    }
}
