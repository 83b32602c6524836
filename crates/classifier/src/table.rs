//! The flow table: an ordered set of (possibly overlapping) wildcard rules.

use std::collections::BTreeMap;

use pi_core::{Field, FlowMask, MaskedKey};

use crate::action::Action;
use crate::rule::{Rule, RuleId};
use crate::trie::PrefixTrie;

/// A flow table with OVS semantics.
///
/// * Rules may overlap; on lookup the highest-priority match wins, ties
///   broken by earliest insertion (paper §2).
/// * The table maintains, incrementally, the metadata the slow path's
///   un-wildcarding needs: per-field mask unions ("active fields") and
///   per-field [`PrefixTrie`]s of the prefixes rules actually use.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    rules: BTreeMap<RuleId, Rule>,
    next_seq: u64,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Adds a rule; returns its id. Later-added rules lose ties.
    pub fn insert(&mut self, matcher: MaskedKey, priority: u32, action: Action) -> RuleId {
        let id = RuleId(self.next_seq);
        self.next_seq += 1;
        self.rules.insert(
            id,
            Rule {
                id,
                matcher,
                priority,
                action,
            },
        );
        id
    }

    /// Removes a rule by id; returns it if present.
    pub fn remove(&mut self, id: RuleId) -> Option<Rule> {
        self.rules.remove(&id)
    }

    /// Looks up a rule by id.
    pub fn get(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(&id)
    }

    /// Iterates rules in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Rule> {
        self.rules.values()
    }

    /// The union of every rule's mask: which bits of which fields any
    /// rule can distinguish. Fields outside this union can always stay
    /// wildcarded in megaflow entries.
    pub fn active_mask(&self) -> FlowMask {
        self.rules
            .values()
            .fold(FlowMask::WILDCARD, |acc, r| acc.union(r.matcher.mask()))
    }

    /// Fields with at least one significant bit in some rule.
    pub fn active_fields(&self) -> Vec<Field> {
        self.active_mask().touched_fields()
    }

    /// Builds the prefix trie the un-wildcarding algorithm consults for
    /// `field`. A rule contributes a prefix iff its mask on the field is
    /// a contiguous MSB-aligned prefix (CIDR shape). Rules with
    /// non-prefix masks on the field are reported so the caller can fall
    /// back to exact un-wildcarding for them.
    pub fn build_trie(&self, field: Field) -> FieldTrie {
        let mut trie = PrefixTrie::new(field);
        let mut has_non_prefix = false;
        for rule in self.rules.values() {
            let mask = rule.matcher.mask().field(field);
            if mask == 0 {
                continue; // field wildcarded: no constraint
            }
            match prefix_len_of_mask(field, mask) {
                Some(len) => {
                    trie.insert(rule.matcher.key().field(field), len);
                }
                None => has_non_prefix = true,
            }
        }
        FieldTrie {
            field,
            trie,
            has_non_prefix,
        }
    }

    /// [`FlowTable::build_trie`] for each of `fields`.
    pub fn build_tries(&self, fields: &[Field]) -> TrieSet {
        TrieSet {
            tries: fields.iter().map(|&f| self.build_trie(f)).collect(),
        }
    }
}

/// One control-plane action applied to a node's dataplane: what the CMS
/// pushes, what the at-least-once layer retries, and the one argument
/// of every backend's policy entry point. It lives beside
/// [`FlowTable`] (and is re-exported as `pi_cms::PolicyUpdate`) so the
/// control plane and the dataplanes share it without depending on each
/// other.
#[derive(Debug, Clone)]
pub enum PolicyUpdate {
    /// Install (or replace) the ingress ACL protecting the pod at `ip`.
    InstallAcl {
        /// Destination pod IP, host byte order.
        ip: u32,
        /// The compiled flow table.
        table: FlowTable,
    },
    /// Remove the ACL at `ip` (the pod reverts to allow-all).
    RemoveAcl {
        /// Destination pod IP, host byte order.
        ip: u32,
    },
    /// Attach (or re-home) the pod at `ip` to `vport`.
    AttachPod {
        /// Pod IP, host byte order.
        ip: u32,
        /// Virtual port on the switch.
        vport: u32,
    },
}

impl PolicyUpdate {
    /// Stable numeric code of the variant — 0 install, 1 remove,
    /// 2 attach — as carried by `pi_trace`'s policy-update events.
    pub fn op_code(&self) -> u8 {
        match self {
            PolicyUpdate::InstallAcl { .. } => 0,
            PolicyUpdate::RemoveAcl { .. } => 1,
            PolicyUpdate::AttachPod { .. } => 2,
        }
    }
}

/// If `mask` is a contiguous, MSB-aligned prefix mask for `field`,
/// returns its length; `None` otherwise (including the zero mask).
pub(crate) fn prefix_len_of_mask(field: Field, mask: u64) -> Option<u8> {
    let len = mask.count_ones() as u8;
    (mask != 0 && len <= field.width() && field.prefix_mask(len) == mask).then_some(len)
}

/// A trie plus bookkeeping for one field.
#[derive(Debug, Clone)]
pub struct FieldTrie {
    /// The field this trie indexes.
    pub field: Field,
    /// Prefixes of every rule that matches this field with a CIDR mask.
    pub trie: PrefixTrie,
    /// True if some rule matches this field with a non-prefix mask; the
    /// un-wildcarder must then fall back to exact match on this field.
    pub has_non_prefix: bool,
}

/// The set of per-field tries for a table snapshot.
#[derive(Debug, Clone, Default)]
pub struct TrieSet {
    tries: Vec<FieldTrie>,
}

impl TrieSet {
    /// The trie for `field`, if one was built.
    pub fn get(&self, field: Field) -> Option<&FieldTrie> {
        self.tries.iter().find(|t| t.field == field)
    }

    /// Iterates the field tries.
    pub fn iter(&self) -> impl Iterator<Item = &FieldTrie> {
        self.tries.iter()
    }
}

/// Builds the classic whitelist + default-deny ACL shape the paper's CMS
/// model produces: each whitelist entry at priority 1, a catch-all deny
/// at priority 0 added last.
pub fn whitelist_with_default_deny(whitelist: &[MaskedKey]) -> FlowTable {
    let mut table = FlowTable::new();
    for mk in whitelist {
        table.insert(*mk, 1, Action::Allow);
    }
    table.insert(MaskedKey::wildcard(), 0, Action::Deny);
    table
}

/// The number of distinct megaflow masks the slow path can generate for
/// `table` with tries on `trie_fields`: the product over trie-enabled,
/// CIDR-clean fields of the sizes of their reachable un-wildcarding
/// depth sets. This is both the attacker's planning model
/// (`pi-attack::predict`) and the defender's admission check
/// (`pi-mitigation::MaskBudget`).
pub fn reachable_megaflow_mask_count(table: &FlowTable, trie_fields: &[Field]) -> u64 {
    let tries = table.build_tries(trie_fields);
    let mut product: u64 = 1;
    for ft in tries.iter() {
        if ft.has_non_prefix || ft.trie.is_empty() {
            continue; // constant contribution to every mask
        }
        let reachable = ft.trie.reachable_unwildcard_bits();
        product = product.saturating_mul(reachable.len() as u64);
    }
    product.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::FlowKey;

    fn mk(ip: [u8; 4], len: u8) -> MaskedKey {
        MaskedKey::new(
            FlowKey::tcp(ip, [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, len),
        )
    }

    #[test]
    fn insert_assigns_increasing_ids() {
        let mut t = FlowTable::new();
        let a = t.insert(mk([10, 0, 0, 0], 8), 1, Action::Allow);
        let b = t.insert(mk([11, 0, 0, 0], 8), 1, Action::Deny);
        assert!(a < b);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn remove_and_get() {
        let mut t = FlowTable::new();
        let id = t.insert(mk([10, 0, 0, 0], 8), 1, Action::Allow);
        assert!(t.get(id).is_some());
        let removed = t.remove(id).unwrap();
        assert_eq!(removed.id, id);
        assert!(t.get(id).is_none());
        assert!(t.is_empty());
        assert!(t.remove(id).is_none());
    }

    #[test]
    fn active_mask_is_union() {
        let mut t = FlowTable::new();
        t.insert(mk([10, 0, 0, 0], 8), 1, Action::Allow);
        t.insert(
            MaskedKey::new(
                FlowKey::tcp([0, 0, 0, 0], [0, 0, 0, 0], 0, 443),
                FlowMask::default().with_exact(Field::TpDst),
            ),
            1,
            Action::Allow,
        );
        let active = t.active_mask();
        assert_eq!(active.field(Field::IpSrc), Field::IpSrc.prefix_mask(8));
        assert_eq!(active.field(Field::TpDst), 0xffff);
        assert_eq!(active.field(Field::TpSrc), 0);
        assert_eq!(t.active_fields(), vec![Field::IpSrc, Field::TpDst]);
    }

    #[test]
    fn prefix_len_detection() {
        assert_eq!(prefix_len_of_mask(Field::IpSrc, 0xff00_0000), Some(8));
        assert_eq!(prefix_len_of_mask(Field::IpSrc, 0xffff_ffff), Some(32));
        assert_eq!(prefix_len_of_mask(Field::TpDst, 0xffff), Some(16));
        assert_eq!(prefix_len_of_mask(Field::TpDst, 0x8000), Some(1));
        assert_eq!(prefix_len_of_mask(Field::IpSrc, 0x00ff_0000), None);
        assert_eq!(prefix_len_of_mask(Field::IpSrc, 0), None);
        assert_eq!(prefix_len_of_mask(Field::TpDst, 0x0001), None);
    }

    #[test]
    fn build_tries_collects_prefixes_and_flags_non_prefix() {
        let mut t = FlowTable::new();
        t.insert(mk([10, 0, 0, 0], 8), 1, Action::Allow);
        // Non-prefix mask on TpDst (low bit only).
        t.insert(
            MaskedKey::new(
                FlowKey::tcp([0, 0, 0, 0], [0, 0, 0, 0], 0, 1),
                FlowMask::default().with(Field::TpDst, 0x0001),
            ),
            1,
            Action::Allow,
        );
        let tries = t.build_tries(&[Field::IpSrc, Field::TpDst]);
        let ip = tries.get(Field::IpSrc).unwrap();
        assert!(!ip.has_non_prefix);
        assert_eq!(ip.trie.len(), 1);
        let port = tries.get(Field::TpDst).unwrap();
        assert!(port.has_non_prefix);
        assert_eq!(port.trie.len(), 0);
        assert!(tries.get(Field::IpDst).is_none());
    }

    #[test]
    fn whitelist_shape() {
        let t = whitelist_with_default_deny(&[mk([10, 0, 0, 0], 8)]);
        assert_eq!(t.len(), 2);
        let rules: Vec<&Rule> = t.iter().collect();
        assert_eq!(rules[0].priority, 1);
        assert_eq!(rules[0].action, Action::Allow);
        assert_eq!(rules[1].priority, 0);
        assert_eq!(rules[1].action, Action::Deny);
        assert!(rules[1].matcher.mask().is_wildcard_all());
    }
}
