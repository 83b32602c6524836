//! Staged subtable lookup (OVS's metadata → L2 → L3 → L4 optimisation).
//!
//! A plain subtable probe masks the whole packet key and does one hash
//! lookup. A *staged* probe splits the subtable's mask by protocol layer
//! and checks membership one stage at a time, aborting as soon as a stage
//! has no candidate entries. For workloads where an early field (say, the
//! ingress port) already rules a subtable out, a failing probe costs a
//! fraction of a full one.
//!
//! The mitigation ablation (`results ablation`, the "staged lookup" row
//! of `results/mitigation_ablation.csv`) uses this to show staged
//! lookup *attenuates* the policy-injection attack — failing probes get
//! cheaper — but does not change its asymptotics: every victim packet
//! still visits every subtable.

use pi_core::{FlowKey, FlowMask, KeyWords, MaskWords, Stage, ALL_FIELDS};

use crate::flat::FlatTable;

/// One active stage of the index: the cumulative mask up to and
/// including this stage, its precomputed words, and the multiset of
/// cumulative-masked entry keys (entry count per key) in a flat table
/// keyed by the deterministic flow hash.
#[derive(Debug, Clone)]
struct StageSet {
    stage: Stage,
    cum: FlowMask,
    cum_words: MaskWords,
    set: FlatTable<u32>,
}

/// Membership index of one subtable's entries, segmented by stage.
///
/// For each stage with at least one significant bit in the subtable mask,
/// the index keeps a multiset of entry keys masked by the *cumulative*
/// mask up to that stage, so stage `i`'s check subsumes stages `0..i`.
///
/// Stage sets sit on the per-packet path (every TSS probe of a staged
/// subtable consults them), so they use the same flat open-addressing
/// store and one-pass masked hashing as the subtables themselves: a
/// probe with precomputed [`KeyWords`] does no SipHash and materialises
/// no masked key.
#[derive(Debug, Clone)]
pub struct StagedIndex {
    stages: Vec<StageSet>,
}

impl StagedIndex {
    /// Builds an index for a subtable with mask `mask` (no entries yet).
    pub fn new(mask: &FlowMask) -> Self {
        let mut stages = Vec::new();
        let mut cumulative = FlowMask::WILDCARD;
        for stage in Stage::ALL {
            let mut stage_mask = FlowMask::WILDCARD;
            for f in ALL_FIELDS {
                if f.stage() == stage {
                    let bits = mask.field(f);
                    if bits != 0 {
                        stage_mask.unwildcard(f, bits);
                    }
                }
            }
            if !stage_mask.is_wildcard_all() {
                cumulative = cumulative.union(&stage_mask);
                stages.push(StageSet {
                    stage,
                    cum: cumulative,
                    cum_words: MaskWords::of(&cumulative),
                    set: FlatTable::new(),
                });
            }
        }
        StagedIndex { stages }
    }

    /// Number of active (non-empty-mask) stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The stages present, in probe order (diagnostics).
    pub fn stages(&self) -> impl Iterator<Item = Stage> + '_ {
        self.stages.iter().map(|s| s.stage)
    }

    /// Registers an entry key (already masked by the subtable mask).
    pub fn insert(&mut self, masked_key: &FlowKey) {
        for s in self.stages.iter_mut() {
            let k = s.cum.apply(masked_key);
            let hash = KeyWords::of(&k).full_hash();
            match s.set.get_mut(hash, &k) {
                Some(n) => *n += 1,
                None => {
                    s.set.insert(hash, k, 1);
                }
            }
        }
    }

    /// Unregisters an entry key.
    pub fn remove(&mut self, masked_key: &FlowKey) {
        for s in self.stages.iter_mut() {
            let k = s.cum.apply(masked_key);
            let hash = KeyWords::of(&k).full_hash();
            if let Some(n) = s.set.get_mut(hash, &k) {
                *n -= 1;
                if *n == 0 {
                    s.set.remove(hash, &k);
                }
            }
        }
    }

    /// Probes the index: returns `(may_match, stages_examined)`.
    ///
    /// `may_match == false` guarantees no entry of the subtable matches
    /// `packet`; `true` means the caller must do the final exact check
    /// (the last stage's cumulative mask *is* the subtable mask, so a
    /// `true` from the last stage is in fact definitive — the caller can
    /// treat it as a hit).
    pub fn probe(&self, packet: &FlowKey) -> (bool, usize) {
        self.probe_with(packet, &KeyWords::of(packet))
    }

    /// [`StagedIndex::probe`] with the packet's words already extracted
    /// (the TSS walk extracts once per packet for all subtables).
    pub fn probe_with(&self, packet: &FlowKey, words: &KeyWords) -> (bool, usize) {
        for (i, s) in self.stages.iter().enumerate() {
            let hash = words.masked_hash(&s.cum_words);
            if s.set
                .get_by_hash(hash, |k| s.cum.key_eq(k, packet))
                .is_none()
            {
                return (false, i + 1);
            }
        }
        (true, self.stages.len().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::Field;

    fn mask_port_ip_tp() -> FlowMask {
        FlowMask::default()
            .with_exact(Field::InPort)
            .with_prefix(Field::IpSrc, 8)
            .with_exact(Field::TpDst)
    }

    fn key(in_port: u32, ip: [u8; 4], port: u16) -> FlowKey {
        let mut k = FlowKey::tcp(ip, [9, 9, 9, 9], 555, port);
        k.in_port = in_port;
        k
    }

    #[test]
    fn stages_follow_mask_shape() {
        let idx = StagedIndex::new(&mask_port_ip_tp());
        // Metadata (in_port), L3 (ip_src), L4 (tp_dst) — no L2 bits.
        assert_eq!(idx.stage_count(), 3);
        let idx2 = StagedIndex::new(&FlowMask::default().with_exact(Field::TpSrc));
        assert_eq!(idx2.stage_count(), 1);
    }

    #[test]
    fn early_stage_mismatch_aborts_cheap() {
        let mask = mask_port_ip_tp();
        let mut idx = StagedIndex::new(&mask);
        idx.insert(&mask.apply(&key(1, [10, 0, 0, 0], 80)));
        // Different in_port: first stage already fails.
        let (may, stages) = idx.probe(&key(2, [10, 0, 0, 0], 80));
        assert!(!may);
        assert_eq!(stages, 1);
        // Same port, different /8: fails at stage 2.
        let (may, stages) = idx.probe(&key(1, [11, 0, 0, 0], 80));
        assert!(!may);
        assert_eq!(stages, 2);
        // Same port and net, different dst port: fails at stage 3.
        let (may, stages) = idx.probe(&key(1, [10, 5, 5, 5], 81));
        assert!(!may);
        assert_eq!(stages, 3);
        // Full match.
        let (may, stages) = idx.probe(&key(1, [10, 5, 5, 5], 80));
        assert!(may);
        assert_eq!(stages, 3);
    }

    #[test]
    fn cumulative_masks_prevent_cross_stage_false_hits() {
        // Two entries that between them cover a probe's stage values but no
        // single entry matches: (port1, netA) and (port2, netB). A probe
        // (port1, netB) must NOT pass — cumulative masking catches it at
        // stage 2 because (port1, netB) was never inserted as a pair.
        let mask = FlowMask::default()
            .with_exact(Field::InPort)
            .with_prefix(Field::IpSrc, 8);
        let mut idx = StagedIndex::new(&mask);
        idx.insert(&mask.apply(&key(1, [10, 0, 0, 0], 0)));
        idx.insert(&mask.apply(&key(2, [11, 0, 0, 0], 0)));
        let (may, _) = idx.probe(&key(1, [11, 0, 0, 0], 0));
        assert!(!may, "cross-stage combination must not match");
        let (may, _) = idx.probe(&key(2, [11, 9, 9, 9], 0));
        assert!(may);
    }

    #[test]
    fn remove_clears_membership() {
        let mask = mask_port_ip_tp();
        let mut idx = StagedIndex::new(&mask);
        let k1 = mask.apply(&key(1, [10, 0, 0, 0], 80));
        let k2 = mask.apply(&key(1, [10, 0, 0, 0], 81));
        idx.insert(&k1);
        idx.insert(&k2);
        idx.remove(&k1);
        assert!(!idx.probe(&key(1, [10, 0, 0, 0], 80)).0);
        assert!(idx.probe(&key(1, [10, 0, 0, 0], 81)).0);
        idx.remove(&k2);
        assert!(!idx.probe(&key(1, [10, 0, 0, 0], 81)).0);
    }

    #[test]
    fn duplicate_inserts_require_matching_removes() {
        let mask = FlowMask::default().with_exact(Field::TpDst);
        let mut idx = StagedIndex::new(&mask);
        let k = mask.apply(&key(0, [0, 0, 0, 0], 443));
        idx.insert(&k);
        idx.insert(&k);
        idx.remove(&k);
        assert!(idx.probe(&key(5, [1, 2, 3, 4], 443)).0, "one copy remains");
        idx.remove(&k);
        assert!(!idx.probe(&key(5, [1, 2, 3, 4], 443)).0);
    }

    #[test]
    fn empty_mask_index_has_no_stages_and_matches() {
        let idx = StagedIndex::new(&FlowMask::WILDCARD);
        assert_eq!(idx.stage_count(), 0);
        let (may, stages) = idx.probe(&FlowKey::default());
        assert!(may);
        assert_eq!(stages, 1); // minimum cost of touching the subtable
    }
}
