//! Attribution shared by the exact-match backends.

use std::collections::HashMap;

use pi_core::FlowKey;
use pi_mitigation::MaskAttribution;

/// Attribution over an exact-match cache: groups entries by destination.
/// Every exact entry carries the same all-exact mask, so each populated
/// destination reports `masks == 1` — mask-threshold offender detection
/// correctly never fires (there is no mask space to explode); occupancy
/// pressure shows up in `entries` instead. Sorted by entries descending,
/// then destination, for deterministic top-k listings.
pub fn attribute_exact<'a>(keys: impl Iterator<Item = &'a FlowKey>) -> Vec<MaskAttribution> {
    let mut per_dst: HashMap<u32, usize> = HashMap::new();
    for k in keys {
        *per_dst.entry(k.ip_dst).or_default() += 1;
    }
    let mut out: Vec<MaskAttribution> = per_dst
        .into_iter()
        .map(|(ip_dst, entries)| MaskAttribution {
            ip_dst,
            masks: 1,
            entries,
        })
        .collect();
    out.sort_by_key(|a| (std::cmp::Reverse(a.entries), a.ip_dst));
    out
}
