//! The reference slow-path classifier: scan every rule.
//!
//! Linear search is what the paper's §2 calls "full flow-table
//! processing on the slow path". It is trivially correct under the
//! priority/insertion-order semantics and serves as ground truth for
//! every other engine (a proptest pins TSS against it).

use pi_core::FlowKey;

use crate::rule::Rule;
use crate::table::FlowTable;

/// A linear-scan classifier borrowing a [`FlowTable`].
#[derive(Debug, Clone, Copy)]
pub struct LinearClassifier<'a> {
    table: &'a FlowTable,
}

impl<'a> LinearClassifier<'a> {
    /// Wraps a table.
    pub fn new(table: &'a FlowTable) -> Self {
        LinearClassifier { table }
    }

    /// Finds the winning rule for `packet`: the matching rule with the
    /// highest priority, ties broken by earliest insertion.
    pub fn classify(&self, packet: &FlowKey) -> Option<&'a Rule> {
        self.table
            .iter()
            .filter(|r| r.matches(packet))
            .max_by_key(|r| r.precedence())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::table::whitelist_with_default_deny;
    use pi_core::{Field, FlowMask, MaskedKey};

    fn acl() -> FlowTable {
        whitelist_with_default_deny(&[MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, 8),
        )])
    }

    #[test]
    fn whitelist_hit_and_default_deny() {
        let table = acl();
        let c = LinearClassifier::new(&table);
        let inside = FlowKey::tcp([10, 1, 2, 3], [10, 0, 0, 9], 1000, 80);
        let outside = FlowKey::tcp([192, 168, 0, 1], [10, 0, 0, 9], 1000, 80);
        assert_eq!(c.classify(&inside).unwrap().action, Action::Allow);
        assert_eq!(c.classify(&outside).unwrap().action, Action::Deny);
    }

    #[test]
    fn empty_table_matches_nothing() {
        let table = FlowTable::new();
        let c = LinearClassifier::new(&table);
        assert!(c.classify(&FlowKey::default()).is_none());
    }

    #[test]
    fn priority_beats_insertion_order() {
        let mut table = FlowTable::new();
        table.insert(MaskedKey::wildcard(), 1, Action::Deny);
        table.insert(MaskedKey::wildcard(), 5, Action::Allow); // later but higher
        let c = LinearClassifier::new(&table);
        assert_eq!(
            c.classify(&FlowKey::default()).unwrap().action,
            Action::Allow
        );
    }

    #[test]
    fn first_added_wins_ties() {
        // Paper §2: "if multiple rules in the flow table match, the one
        // added first will be applied".
        let mut table = FlowTable::new();
        table.insert(MaskedKey::wildcard(), 3, Action::Allow);
        table.insert(MaskedKey::wildcard(), 3, Action::Deny);
        let c = LinearClassifier::new(&table);
        assert_eq!(
            c.classify(&FlowKey::default()).unwrap().action,
            Action::Allow
        );
    }
}
