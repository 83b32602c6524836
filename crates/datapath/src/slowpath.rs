//! The slow path: full classification + megaflow generation.
//!
//! [`SlowPath`] is a *pure* classifier: it never touches caches, queues
//! or statistics, so the same code serves both pipeline modes — invoked
//! synchronously from [`crate::VSwitch::process`] under
//! [`crate::PipelineMode::Inline`], and from handler steps
//! ([`crate::VSwitch::drain_upcalls`]) under
//! [`crate::PipelineMode::Bounded`].
//!
//! This is where the paper's Fig. 2 happens. Classification is a
//! **modelled linear scan, indexed execution**: the simulation charges
//! every upcall `CostModel::per_rule` × the table's rule count — full
//! flow-table processing, correct and slow, which is why it is cached —
//! while the host answers from a [`RuleIndex`] compiled once per ACL
//! install — one hash probe per mask group — so a 513-rule whitelist
//! costs the host about what a 2-rule ACL does.
//! [`pi_classifier::LinearClassifier`] is the reference the index is
//! tested against, not a second production path. The interesting part
//! is **un-wildcarding**: after deciding a packet's fate, the slow
//! path computes the *broadest* megaflow that still classifies every
//! covered packet identically ("OVS … tries to wildcard as many bits as
//! possible to get the broadest possible rules", §2).
//!
//! For each field constrained by some rule:
//! * if every constraint on the field is a CIDR prefix and the field has
//!   a trie enabled, the path-compressed [`pi_classifier::PrefixTrie`]
//!   (one node per branch or prefix end, not per bit) yields the minimal
//!   number of leading bits that pins down *which prefixes the value
//!   falls under* — `common_prefix + 1` for mismatches, the prefix length
//!   for matches (Fig. 2b's decomposition);
//! * otherwise the union of the rules' mask bits on that field is used
//!   (always sound, never minimal).
//!
//! Which of the two applies to which field is decided once, in
//! [`SlowPath::new`]; serving an upcall allocates nothing. A port
//! without an ACL gets [`SlowPath::permissive`], which compiles nothing.
//! Both the index and the tries are host-side structures only: the
//! modelled cost, the verdicts and the megaflow masks are what the
//! linear scan and the bit-at-a-time trie walk give.
//!
//! Soundness (pinned by proptest in `tests/megaflow_soundness.rs`): two
//! packets agreeing on every un-wildcarded bit satisfy exactly the same
//! set of rule constraints, hence the same winning rule.

use pi_classifier::{Action, FlowTable, PrefixTrie, RuleIndex};
use pi_core::{Field, FlowKey, FlowMask, MaskedKey, ALL_FIELDS};

/// How [`SlowPath::unwildcard`] finds one field's megaflow bits.
#[derive(Debug, Clone)]
enum Unwildcard {
    /// Per-value analysis: the field has a trie enabled and every rule
    /// constrains it with a CIDR prefix.
    Trie(PrefixTrie),
    /// No trie for this field (or non-prefix constraints): the union of
    /// rule bits — sound, broadest *safe* choice without per-value
    /// analysis.
    Bits(u64),
}

/// A compiled slow path for one virtual port: the ACL table plus the
/// metadata classification and megaflow generation need.
#[derive(Debug, Clone)]
pub struct SlowPath {
    table: FlowTable,
    index: RuleIndex,
    /// One step per field some rule constrains, in canonical order.
    plan: Vec<(Field, Unwildcard)>,
    /// Action when no rule matches (OpenFlow table-miss: drop).
    default_action: Action,
}

impl SlowPath {
    /// Compiles a slow path from an ACL table. `trie_fields` lists the
    /// fields with prefix tries enabled (from
    /// [`crate::DpConfig::trie_fields`]).
    pub fn new(table: FlowTable, trie_fields: &[Field], default_action: Action) -> Self {
        let active = table.active_mask();
        let plan = ALL_FIELDS
            .into_iter()
            .filter(|&field| active.field(field) != 0)
            .map(|field| {
                let trie = trie_fields
                    .contains(&field)
                    .then(|| table.build_trie(field));
                let step = match trie {
                    Some(ft) if !ft.has_non_prefix && !ft.trie.is_empty() => {
                        Unwildcard::Trie(ft.trie)
                    }
                    _ => Unwildcard::Bits(active.field(field)),
                };
                (field, step)
            })
            .collect();
        SlowPath {
            index: RuleIndex::compile(&table),
            table,
            plan,
            default_action,
        }
    }

    /// An always-`default_action` slow path (ports without ACLs): the
    /// value [`SlowPath::new`] compiles from an empty table, built
    /// without compiling anything (a fleet attaches one per routed pod).
    pub fn permissive(default_action: Action) -> Self {
        SlowPath {
            table: FlowTable::new(),
            index: RuleIndex::default(),
            plan: Vec::new(),
            default_action,
        }
    }

    /// The underlying flow table.
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// The table-miss action.
    pub fn default_action(&self) -> Action {
        self.default_action
    }

    /// Full classification: the verdict plus the number of rules the
    /// modelled linear scan examines — always the whole table, however
    /// few the index touched (the cost the fast path exists to avoid).
    pub fn classify(&self, packet: &FlowKey) -> (Action, usize) {
        let action = self
            .index
            .classify(packet)
            .map_or(self.default_action, |w| w.action);
        (action, self.table.len())
    }

    /// Generates the megaflow mask for `packet` over this table's fields
    /// (the caller adds switch metadata such as the ingress port).
    // audit: hotpath
    pub fn unwildcard(&self, packet: &FlowKey) -> FlowMask {
        let mut mask = FlowMask::WILDCARD;
        for (field, step) in &self.plan {
            let bits = match step {
                Unwildcard::Trie(trie) => {
                    field.prefix_mask(trie.unwildcard_bits(packet.field(*field)))
                }
                Unwildcard::Bits(bits) => *bits,
            };
            mask.unwildcard(*field, bits);
        }
        mask
    }

    /// The full slow-path service of one upcall: classify and produce
    /// the megaflow to cache.
    // audit: hotpath
    pub fn process_upcall(&self, packet: &FlowKey) -> UpcallResult {
        let (action, rules_examined) = self.classify(packet);
        let mask = self.unwildcard(packet);
        UpcallResult {
            action,
            megaflow: MaskedKey::new(*packet, mask),
            rules_examined,
        }
    }
}

/// What the slow path hands back to the datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpcallResult {
    /// The verdict for this packet (and the whole megaflow).
    pub action: Action,
    /// The generated cache entry: `packet & mask` with the minimal mask.
    pub megaflow: MaskedKey,
    /// Rules the modelled linear scan examined — the table's size; what
    /// [`crate::CostModel::per_rule`] is charged for. The host executes
    /// an indexed lookup instead and touches far fewer.
    pub rules_examined: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_classifier::table::whitelist_with_default_deny;

    /// The paper's Fig. 2 ACL on the real 32-bit field: allow
    /// 10.0.0.0/8, deny everything else.
    fn fig2_slowpath() -> SlowPath {
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        );
        SlowPath::new(
            whitelist_with_default_deny(&[allow]),
            &[Field::IpSrc],
            Action::Deny,
        )
    }

    #[test]
    fn classify_whitelist() {
        let sp = fig2_slowpath();
        let (a, n) = sp.classify(&FlowKey::tcp([10, 1, 2, 3], [0, 0, 0, 0], 5, 6));
        assert_eq!(a, Action::Allow);
        assert_eq!(n, 2);
        let (a, _) = sp.classify(&FlowKey::tcp([77, 1, 2, 3], [0, 0, 0, 0], 5, 6));
        assert_eq!(a, Action::Deny);
    }

    #[test]
    fn fig2b_in_prefix_megaflow_is_slash8() {
        let sp = fig2_slowpath();
        let up = sp.process_upcall(&FlowKey::tcp([10, 7, 7, 7], [9, 9, 9, 9], 5, 6));
        assert_eq!(up.action, Action::Allow);
        assert_eq!(
            up.megaflow.mask().field(Field::IpSrc),
            Field::IpSrc.prefix_mask(8)
        );
        assert_eq!(up.megaflow.key().ip_src, 0x0a00_0000);
        // Nothing else constrained.
        for f in ALL_FIELDS {
            if f != Field::IpSrc {
                assert_eq!(up.megaflow.mask().field(f), 0, "{f} should be wildcard");
            }
        }
    }

    #[test]
    fn fig2b_complement_masks_are_minimal() {
        let sp = fig2_slowpath();
        // First octet 128 = 1….: differs from 10 (0000 1010) at bit 0.
        let up = sp.process_upcall(&FlowKey::tcp([128, 0, 0, 1], [9, 9, 9, 9], 5, 6));
        assert_eq!(up.action, Action::Deny);
        assert_eq!(
            up.megaflow.mask().field(Field::IpSrc),
            Field::IpSrc.prefix_mask(1)
        );
        // First octet 11 = 0000 1011: differs at bit 7 → 8 bits.
        let up = sp.process_upcall(&FlowKey::tcp([11, 0, 0, 1], [9, 9, 9, 9], 5, 6));
        assert_eq!(
            up.megaflow.mask().field(Field::IpSrc),
            Field::IpSrc.prefix_mask(8)
        );
    }

    #[test]
    fn megaflow_covers_only_same_verdict_packets() {
        let sp = fig2_slowpath();
        let pkt = FlowKey::tcp([12, 34, 56, 78], [9, 9, 9, 9], 1000, 80);
        let up = sp.process_upcall(&pkt);
        // 12 = 0000 1100: diverges from 10 = 0000 1010 at bit 5 → 6 bits.
        assert_eq!(
            up.megaflow.mask().field(Field::IpSrc),
            Field::IpSrc.prefix_mask(6)
        );
        // Every witness with the same 6 leading bits is denied too.
        for first_octet in [12u8, 13, 14, 15] {
            let p = FlowKey::tcp([first_octet, 0, 0, 0], [1, 1, 1, 1], 2, 3);
            assert!(up.megaflow.matches(&p));
            assert_eq!(sp.classify(&p).0, Action::Deny);
        }
        // 10.x must not be covered.
        assert!(!up
            .megaflow
            .matches(&FlowKey::tcp([10, 0, 0, 0], [1, 1, 1, 1], 2, 3)));
    }

    #[test]
    fn two_field_acl_multiplies_unwildcarded_fields() {
        // allow ip_src=10.0.0.1/32 AND tp_dst=80 — the paper's 512-mask
        // building block.
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 80),
            FlowMask::default()
                .with_exact(Field::IpSrc)
                .with_exact(Field::TpDst),
        );
        let sp = SlowPath::new(
            whitelist_with_default_deny(&[allow]),
            &[Field::IpSrc, Field::TpDst],
            Action::Deny,
        );
        // Packet matching the allow rule: both fields fully exact.
        let up = sp.process_upcall(&FlowKey::tcp([10, 0, 0, 1], [5, 5, 5, 5], 999, 80));
        assert_eq!(up.action, Action::Allow);
        assert_eq!(up.megaflow.mask().field(Field::IpSrc), 0xffff_ffff);
        assert_eq!(up.megaflow.mask().field(Field::TpDst), 0xffff);
        // Deny packet diverging early in IP and late in port: masks are
        // per-field independent — the cross-product mechanism.
        // ip 128.0.0.1 → 1 bit; port 81 (vs 80) → 16 bits.
        let up = sp.process_upcall(&FlowKey::tcp([128, 0, 0, 1], [5, 5, 5, 5], 999, 81));
        assert_eq!(up.action, Action::Deny);
        assert_eq!(
            up.megaflow.mask().field(Field::IpSrc),
            Field::IpSrc.prefix_mask(1)
        );
        assert_eq!(
            up.megaflow.mask().field(Field::TpDst),
            Field::TpDst.prefix_mask(16)
        );
    }

    #[test]
    fn trie_disabled_falls_back_to_rule_union() {
        let allow = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        );
        // No tries at all: every deny packet gets the /8 union mask.
        let sp = SlowPath::new(whitelist_with_default_deny(&[allow]), &[], Action::Deny);
        let up = sp.process_upcall(&FlowKey::tcp([200, 0, 0, 1], [9, 9, 9, 9], 5, 6));
        assert_eq!(
            up.megaflow.mask().field(Field::IpSrc),
            Field::IpSrc.prefix_mask(8),
            "fallback uses union of rule bits"
        );
    }

    #[test]
    fn non_prefix_rule_disables_trie_for_that_field() {
        // A rule matching tp_dst & 0x00ff (low byte) is not CIDR-shaped.
        let odd = MaskedKey::new(
            FlowKey::tcp([0, 0, 0, 0], [0, 0, 0, 0], 0, 0x0050),
            FlowMask::default().with(Field::TpDst, 0x00ff),
        );
        let sp = SlowPath::new(
            whitelist_with_default_deny(&[odd]),
            &[Field::TpDst],
            Action::Deny,
        );
        let up = sp.process_upcall(&FlowKey::tcp([1, 1, 1, 1], [2, 2, 2, 2], 5, 0x1150));
        // Fallback: union of rule bits = 0x00ff.
        assert_eq!(up.megaflow.mask().field(Field::TpDst), 0x00ff);
        assert_eq!(up.action, Action::Allow); // low byte 0x50 matches
    }

    #[test]
    fn permissive_slowpath_generates_wildcard_megaflow() {
        let sp = SlowPath::permissive(Action::Allow);
        let up = sp.process_upcall(&FlowKey::tcp([1, 2, 3, 4], [5, 6, 7, 8], 9, 10));
        assert_eq!(up.action, Action::Allow);
        assert!(up.megaflow.mask().is_wildcard_all());
        assert_eq!(up.rules_examined, 0);
    }

    #[test]
    fn permissive_is_what_new_compiles_from_an_empty_table() {
        for action in [Action::Allow, Action::Deny] {
            let compiled = SlowPath::new(FlowTable::new(), &[Field::IpSrc, Field::TpDst], action);
            assert_eq!(
                format!("{:?}", SlowPath::permissive(action)),
                format!("{compiled:?}")
            );
        }
    }

    #[test]
    fn empty_table_uses_default_action() {
        let sp = SlowPath::permissive(Action::Deny);
        assert_eq!(sp.classify(&FlowKey::default()).0, Action::Deny);
        assert_eq!(sp.default_action(), Action::Deny);
    }
}
