//! The CPU cycle cost model.
//!
//! Every fast-path operation the datapath counts (hash probes, stage
//! checks, rules scanned) is priced in CPU cycles here, and nowhere else.
//! The simulator multiplies packets/second by these costs against a fixed
//! cycle budget, so throughput degradation under attack follows from the
//! data-structure dynamics — there is no "attack effect" constant.
//!
//! Calibration targets (the `fig3` rows of `results/summary.md` hold
//! them): with the default budget of one ~1.2 GHz-effective softirq
//! core, an un-attacked switch forwards a 1 Gb/s victim easily (the
//! link, not the CPU, binds — Fig. 3's pre-attack plateau), and a covert
//! stream of a few Mb/s whose packets each walk ~8192 subtables exhausts
//! the core (Fig. 3's collapse). The per-term provenance table — which
//! OVS operation each price stands for and which pinned figure
//! constrains it — is not written yet: ROADMAP item 5(b).

use crate::vswitch::PathTaken;

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

impl CostModel {
    /// Cycles for a packet that took `path`, excluding parse (charged
    /// separately because frames may arrive pre-parsed in tests).
    ///
    /// Deferred paths ([`PathTaken::UpcallQueued`],
    /// [`PathTaken::UpcallDropped`]) cover only the fast-path share of
    /// the miss (EMC probe + failed subtable walk); the handler share is
    /// priced separately by [`CostModel::handler_cycles`], and the two
    /// sum to exactly the inline [`PathTaken::Upcall`] cost.
    pub fn path_cycles(&self, path: &PathTaken) -> u64 {
        match path {
            PathTaken::MicroflowHit => self.emc_probe,
            PathTaken::UpcallQueued {
                probes,
                stage_checks,
                emc_probed,
                ..
            }
            | PathTaken::UpcallDropped {
                probes,
                stage_checks,
                emc_probed,
            } => {
                let mut c =
                    *probes as u64 * self.per_subtable + *stage_checks as u64 * self.per_stage_hash;
                if *emc_probed {
                    c += self.emc_probe;
                }
                c
            }
            PathTaken::MegaflowHit {
                probes,
                stage_checks,
                emc_probed,
                emc_inserted,
            } => {
                let mut c =
                    *probes as u64 * self.per_subtable + *stage_checks as u64 * self.per_stage_hash;
                if *emc_probed {
                    c += self.emc_probe;
                }
                if *emc_inserted {
                    c += self.emc_insert;
                }
                c
            }
            PathTaken::Upcall {
                probes,
                stage_checks,
                rules_examined,
                installed,
                emc_probed,
                emc_inserted,
            } => {
                let mut c = *probes as u64 * self.per_subtable
                    + *stage_checks as u64 * self.per_stage_hash
                    + self.upcall_fixed
                    + *rules_examined as u64 * self.per_rule;
                if *installed {
                    c += self.mfc_install;
                }
                if *emc_probed {
                    c += self.emc_probe;
                }
                if *emc_inserted {
                    c += self.emc_insert;
                }
                c
            }
        }
    }

    /// Total cycles for a packet: parse + path.
    pub fn packet_cycles(&self, path: &PathTaken) -> u64 {
        self.parse + self.path_cycles(path)
    }

    /// Cycles one control-plane policy update costs the datapath: the
    /// fixed update handling plus the teardown of every megaflow its
    /// invalidation flushed. This is the *direct* price of a flush; the
    /// indirect price — every flushed flow's next packet re-upcalling —
    /// emerges from the ordinary miss accounting, which is what makes
    /// the policy-flap storm's amplification honest rather than
    /// scripted.
    pub fn control_update_cycles(&self, flushed_megaflows: usize) -> u64 {
        self.acl_update_fixed + flushed_megaflows as u64 * self.flush_per_entry
    }

    /// Handler-side cycles of resolving one deferred upcall: the
    /// slow-path round trip, linear classification, the (batched)
    /// megaflow install and the EMC promotion. Together with the
    /// [`PathTaken::UpcallQueued`] fast-path share this equals the
    /// inline upcall cost — the bounded pipeline moves work, it never
    /// invents or loses any.
    pub fn handler_cycles(
        &self,
        rules_examined: usize,
        installed: bool,
        emc_inserted: bool,
    ) -> u64 {
        let mut c = self.upcall_fixed + rules_examined as u64 * self.per_rule;
        if installed {
            c += self.mfc_install;
        }
        if emc_inserted {
            c += self.emc_insert;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emc_hit_is_cheapest() {
        let m = CostModel::default();
        let emc = m.packet_cycles(&PathTaken::MicroflowHit);
        let mfc = m.packet_cycles(&PathTaken::MegaflowHit {
            probes: 1,
            stage_checks: 1,
            emc_probed: true,
            emc_inserted: false,
        });
        let upcall = m.packet_cycles(&PathTaken::Upcall {
            probes: 1,
            stage_checks: 1,
            rules_examined: 2,
            installed: true,
            emc_probed: true,
            emc_inserted: true,
        });
        assert!(emc < mfc);
        assert!(mfc < upcall);
    }

    #[test]
    fn megaflow_cost_linear_in_probes() {
        let m = CostModel::default();
        let cost = |probes: usize| {
            m.path_cycles(&PathTaken::MegaflowHit {
                probes,
                stage_checks: probes, // 1 stage per subtable
                emc_probed: false,
                emc_inserted: false,
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
        let per_packet = m.packet_cycles(&PathTaken::MegaflowHit {
            probes: 8192,
            stage_checks: 8192,
            emc_probed: true,
            emc_inserted: false,
        });
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
        let inline = m.packet_cycles(&PathTaken::Upcall {
            probes: 17,
            stage_checks: 23,
            rules_examined: 2,
            installed: true,
            emc_probed: true,
            emc_inserted: true,
        });
        let queued = m.packet_cycles(&PathTaken::UpcallQueued {
            probes: 17,
            stage_checks: 23,
            emc_probed: true,
            token: 0,
        });
        let handler = m.handler_cycles(2, true, true);
        assert_eq!(queued + handler, inline);
        // A dropped upcall is charged exactly the fast-path share.
        let dropped = m.packet_cycles(&PathTaken::UpcallDropped {
            probes: 17,
            stage_checks: 23,
            emc_probed: true,
        });
        assert_eq!(dropped, queued);
    }

    #[test]
    fn control_update_cost_scales_with_flushed_entries() {
        let m = CostModel::default();
        assert_eq!(m.control_update_cycles(0), m.acl_update_fixed);
        assert_eq!(
            m.control_update_cycles(1_000) - m.control_update_cycles(0),
            1_000 * m.flush_per_entry
        );
        // A full-table flush (200 k entries) costs cycles comparable to
        // hundreds of upcalls — expensive, but the dominant damage is
        // the rebuild, which the miss path prices separately.
        assert!(m.control_update_cycles(200_000) > 100 * m.upcall_fixed);
    }

    #[test]
    fn upcall_includes_linear_scan() {
        let m = CostModel::default();
        let small = m.path_cycles(&PathTaken::Upcall {
            probes: 0,
            stage_checks: 0,
            rules_examined: 2,
            installed: false,
            emc_probed: false,
            emc_inserted: false,
        });
        let big = m.path_cycles(&PathTaken::Upcall {
            probes: 0,
            stage_checks: 0,
            rules_examined: 1000,
            installed: false,
            emc_probed: false,
            emc_inserted: false,
        });
        assert_eq!(big - small, 998 * m.per_rule);
    }
}
