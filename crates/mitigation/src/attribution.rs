//! Detection: who is responsible for the masks?
//!
//! Because every megaflow in the destination-enforced pipeline pins
//! `ip_dst` exactly, each mask is attributable to the pod (hence
//! tenant) whose ACL generated it. A provider watching per-destination
//! mask counts sees the attack instantly — Fig. 3's mask curve *is* the
//! alarm — and, unlike a global mask limit, attribution names the ACL
//! to evict.

use std::collections::HashMap;

use pi_core::{Field, MaskedKey};
use pi_datapath::VSwitch;

/// Mask accounting for one destination IP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskAttribution {
    /// The destination (pod) IP, host byte order.
    pub ip_dst: u32,
    /// Distinct masks among megaflows pinned to this destination.
    pub masks: usize,
    /// Megaflow entries pinned to this destination.
    pub entries: usize,
}

/// The one-pass attribution core: groups any stream of megaflow masked
/// keys by destination pod and counts distinct masks and entries per
/// pod, descending by mask count. [`attribute_masks`],
/// [`detect_offenders`], the `pi_detect` telemetry tap and the
/// sim/fleet report assembly all share this single pass.
pub fn attribute_entries(megaflows: impl Iterator<Item = MaskedKey>) -> Vec<MaskAttribution> {
    let mut per_dst: HashMap<u32, (std::collections::HashSet<pi_core::FlowMask>, usize)> =
        HashMap::new();
    for mk in megaflows {
        let dst = mk.key().ip_dst;
        // Only fully-pinned destinations are attributable; megaflows
        // with a wildcarded ip_dst (none in this pipeline) would fall
        // into a shared bucket at dst 0.
        let attributable = mk.mask().field(Field::IpDst) == Field::IpDst.full_mask();
        let bucket = per_dst
            .entry(if attributable { dst } else { 0 })
            .or_default();
        bucket.0.insert(*mk.mask());
        bucket.1 += 1;
    }
    let mut out: Vec<MaskAttribution> = per_dst
        .into_iter()
        .map(|(ip_dst, (masks, entries))| MaskAttribution {
            ip_dst,
            masks: masks.len(),
            entries,
        })
        .collect();
    out.sort_by_key(|a| (std::cmp::Reverse(a.masks), a.ip_dst));
    out
}

/// Groups the switch's megaflows by destination pod and counts distinct
/// masks per pod, descending.
pub fn attribute_masks(switch: &VSwitch) -> Vec<MaskAttribution> {
    attribute_entries(switch.megaflows().iter().map(|(mk, _)| mk))
}

/// Filters an existing attribution down to destinations whose mask
/// count exceeds `threshold` — so consumers that already hold an
/// attribution (sim/fleet reports, the telemetry tap) never recompute
/// the pass.
pub fn offenders(attribution: &[MaskAttribution], threshold: usize) -> Vec<MaskAttribution> {
    attribution
        .iter()
        .filter(|a| a.masks > threshold)
        .copied()
        .collect()
}

/// Destinations whose mask count exceeds `threshold` — the eviction /
/// throttling candidates. One attribution pass with the threshold
/// applied as a filter.
pub fn detect_offenders(switch: &VSwitch, threshold: usize) -> Vec<MaskAttribution> {
    offenders(&attribute_masks(switch), threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_attack::{AttackSpec, CovertSequence};
    use pi_cms::PolicyDialect;
    use pi_core::{FlowKey, SimTime};
    use pi_datapath::DpConfig;

    fn attacked_switch() -> (VSwitch, u32, u32) {
        let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
        let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
        let mut sw = VSwitch::new(DpConfig::default());
        sw.attach_pod(victim_ip, 1);
        sw.attach_pod(attacker_ip, 2);
        let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
        let table = spec.compile();
        sw.install_acl(attacker_ip, table);
        // Victim's honest flow.
        sw.process(
            &FlowKey::tcp([10, 0, 0, 10], [10, 1, 0, 10], 40_000, 5201),
            SimTime::from_millis(1),
        );
        // Covert populate.
        let seq = CovertSequence::new(spec.build_target(attacker_ip));
        for (i, p) in seq.populate_packets().enumerate() {
            sw.process(&p, SimTime::from_millis(2 + i as u64));
        }
        (sw, victim_ip, attacker_ip)
    }

    #[test]
    fn attacker_pod_tops_the_attribution() {
        let (sw, victim_ip, attacker_ip) = attacked_switch();
        let attribution = attribute_masks(&sw);
        assert_eq!(attribution[0].ip_dst, attacker_ip);
        assert_eq!(attribution[0].masks, 512);
        assert_eq!(attribution[0].entries, 33 * 17);
        // The victim's single megaflow attributes to the victim.
        let victim_entry = attribution
            .iter()
            .find(|a| a.ip_dst == victim_ip)
            .expect("victim bucket");
        assert_eq!(victim_entry.masks, 1);
    }

    #[test]
    fn detection_threshold_separates_tenants() {
        let (sw, _, attacker_ip) = attacked_switch();
        let offenders = detect_offenders(&sw, 256);
        assert_eq!(offenders.len(), 1);
        assert_eq!(offenders[0].ip_dst, attacker_ip);
        // Everyone is under a permissive threshold.
        assert!(detect_offenders(&sw, 10_000).is_empty());
    }

    #[test]
    fn clean_switch_attributes_nothing_alarming() {
        let mut sw = VSwitch::new(DpConfig::default());
        sw.attach_pod(u32::from_be_bytes([10, 0, 0, 1]), 1);
        sw.process(
            &FlowKey::tcp([10, 9, 9, 9], [10, 0, 0, 1], 1, 80),
            SimTime::from_millis(1),
        );
        let attribution = attribute_masks(&sw);
        assert_eq!(attribution.len(), 1);
        assert_eq!(attribution[0].masks, 1);
        assert!(detect_offenders(&sw, 64).is_empty());
    }
}
