//! "Improved heuristics in OVS": configuration-level attenuations.
//!
//! These do not remove the linear subtable walk; they cut what each step
//! (or the common case) costs. The ablation bench quantifies how far
//! that goes against a full 8192-mask injection.

use pi_classifier::SubtableOrder;
use pi_datapath::DpConfig;

/// A datapath configured with subtable hit-count sorting: subtables are
/// periodically re-ordered so the hottest (victim) masks are probed
/// first. Protects *established, high-rate* flows; does nothing for the
/// miss path (every covert packet still walks everything) or for
/// low-rate flows that never float up.
pub fn hit_sort_config(base: DpConfig) -> DpConfig {
    DpConfig {
        subtable_order: SubtableOrder::HitCountDescending {
            resort_every: 1_000,
        },
        ..base
    }
}

/// A datapath with staged subtable lookup: failing probes abort at the
/// first stage whose cumulative hash has no candidates. Cuts the
/// per-probe constant (≈ the number of active stages) but leaves the
/// walk linear in masks.
pub fn staged_config(base: DpConfig) -> DpConfig {
    DpConfig {
        staged_lookup: true,
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_attack::{AttackSpec, CovertSequence};
    use pi_cms::PolicyDialect;
    use pi_core::{FlowKey, SimTime};
    use pi_datapath::VSwitch;

    /// Builds an attacked switch and returns (victim probe count under
    /// the given config) after the covert populate pass.
    fn victim_probes_under(dp: DpConfig) -> (usize, usize) {
        let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
        let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
        let mut sw = VSwitch::new(dp);
        sw.attach_pod(victim_ip, 1);
        sw.attach_pod(attacker_ip, 2);
        let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
        let table = spec.compile();
        sw.install_acl(attacker_ip, table);

        let victim_key = FlowKey::tcp([10, 0, 0, 10], [10, 1, 0, 10], 40_000, 5201);
        // Victim flow exists before the attack.
        sw.process(&victim_key, SimTime::from_millis(1));
        // Covert populate.
        let seq = CovertSequence::new(spec.build_target(attacker_ip));
        for (i, p) in seq.populate_packets().enumerate() {
            sw.process(&p, SimTime::from_millis(2 + i as u64));
        }
        let masks = sw.mask_count();
        // Hammer the victim flow with EMC disabled influence: vary the
        // source port so each packet misses the EMC but hits the
        // victim's megaflow subtable.
        let mut probes_total = 0usize;
        let mut last = 0usize;
        for sport in 0..2_000u16 {
            let mut k = victim_key;
            k.tp_src = 10_000 + sport;
            let o = sw.process(&k, SimTime::from_secs(40));
            probes_total += o.work.subtables as usize;
            last = o.work.subtables as usize;
        }
        let _ = probes_total;
        (last, masks)
    }

    #[test]
    fn hit_sorting_floats_victim_to_front() {
        let base = DpConfig {
            emc_enabled: false, // isolate the megaflow walk
            ..DpConfig::default()
        };
        let (insertion_probes, masks_a) = victim_probes_under(base.clone());
        let (sorted_probes, masks_b) = victim_probes_under(hit_sort_config(base));
        assert_eq!(masks_a, masks_b);
        // Victim's subtable was created first (flow pre-dates attack),
        // so insertion order already favours it — both configurations
        // must keep the victim cheap. The interesting case (victim
        // arriving after the attack) is exercised below.
        assert!(insertion_probes <= 4);
        assert!(sorted_probes <= 4);
    }

    #[test]
    fn hit_sorting_rescues_late_victims() {
        // Victim flow starts *after* the masks exist: under insertion
        // order its subtable sits behind all 512; hit sorting pulls it
        // forward once the flow gets hot.
        let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
        let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
        let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);

        let run = |dp: DpConfig| -> usize {
            let mut sw = VSwitch::new(dp);
            sw.attach_pod(victim_ip, 1);
            sw.attach_pod(attacker_ip, 2);
            let table = spec.compile();
            sw.install_acl(attacker_ip, table);
            let seq = CovertSequence::new(spec.build_target(attacker_ip));
            for (i, p) in seq.populate_packets().enumerate() {
                sw.process(&p, SimTime::from_millis(2 + i as u64));
            }
            // Victim flow arrives late, then becomes the hottest thing
            // on the node.
            let mut last_probes = 0;
            for sport in 0..5_000u16 {
                let mut k = FlowKey::tcp([10, 0, 0, 10], [10, 1, 0, 10], 40_000, 5201);
                k.tp_src = 10_000 + (sport % 50); // 50 distinct keys, EMC-defeating mix
                let o = sw.process(&k, SimTime::from_secs(40));
                last_probes = o.work.subtables as usize;
            }
            last_probes
        };

        let base = DpConfig {
            emc_enabled: false,
            ..DpConfig::default()
        };
        let insertion = run(base.clone());
        let sorted = run(hit_sort_config(base));
        assert!(
            insertion > 500,
            "late victim under insertion order pays the walk: {insertion}"
        );
        assert!(
            sorted <= 4,
            "hit sorting must float the hot victim forward: {sorted}"
        );
    }

    #[test]
    fn staged_lookup_cuts_stage_checks_not_probes() {
        let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
        let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
        let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
        let run = |dp: DpConfig| -> (u32, u32) {
            let mut sw = VSwitch::new(dp);
            sw.attach_pod(victim_ip, 1);
            sw.attach_pod(attacker_ip, 2);
            let table = spec.compile();
            sw.install_acl(attacker_ip, table);
            let seq = CovertSequence::new(spec.build_target(attacker_ip));
            for (i, p) in seq.populate_packets().enumerate() {
                sw.process(&p, SimTime::from_millis(2 + i as u64));
            }
            // A fresh covert scan packet: full walk.
            let o = sw.process(&seq.scan_packet(1_000_000), SimTime::from_secs(50));
            assert_eq!(o.path, pi_datapath::PathTaken::MegaflowHit);
            (o.work.subtables, o.work.stage_hashes)
        };
        let base = DpConfig {
            emc_enabled: false,
            ..DpConfig::default()
        };
        let (plain_probes, plain_checks) = run(base.clone());
        let (staged_probes, staged_checks) = run(staged_config(base));
        assert_eq!(plain_probes, staged_probes, "walk length unchanged");
        assert!(
            staged_checks < plain_checks,
            "staged lookup must do less hash work: {staged_checks} vs {plain_checks}"
        );
    }
}
