//! The compiled slow-path rule index.
//!
//! [`RuleIndex`] is an immutable snapshot of a [`FlowTable`] laid out
//! the way OVS's own classifier is: rules grouped by mask, each group a
//! hash-sorted slice probed with one [`KeyWords::masked_hash`] and a
//! binary search, groups visited in descending order of the best
//! precedence they hold so the walk stops as soon as no later group can
//! beat the current winner. Rules with identical matchers are resolved
//! when the index is compiled — only the one with the best
//! [`Rule::precedence`] can ever win — so a probe finds at most one
//! rule per group.
//!
//! The index answers exactly what [`crate::LinearClassifier`] answers
//! (pinned by `tests/rule_index_differential.rs`); it only takes less
//! host time doing so. What the *simulated* slow path costs is a
//! separate matter, charged per rule of the table by
//! `pi_datapath::CostModel::per_rule`, and the index plays no part in
//! it.
//!
//! Two flat `Vec`s, both empty — nothing allocated — for an empty
//! table.

use std::cmp::Reverse;

use pi_core::{FlowKey, FlowMask, KeyWords, MaskWords};

use crate::action::Action;
use crate::rule::{Rule, RuleId};
use crate::table::FlowTable;

/// [`Rule::precedence`]: larger wins.
type Precedence = (u32, Reverse<u64>);

/// The winning rule of a [`RuleIndex::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Winner {
    /// The rule's id in the table the index was compiled from.
    pub id: RuleId,
    /// Its action.
    pub action: Action,
}

/// One rule, keyed by the full hash of its canonical (pre-masked) key —
/// which is the masked hash, under the group's mask, of every packet
/// the rule matches.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u64,
    key: FlowKey,
    precedence: Precedence,
    action: Action,
}

/// The rules sharing one mask: `entries[start..end]`, sorted by hash,
/// matchers distinct.
#[derive(Debug, Clone)]
struct Group {
    mask: FlowMask,
    words: MaskWords,
    /// The best precedence among the group's rules.
    best: Precedence,
    start: usize,
    end: usize,
}

/// A compiled, immutable classifier over a [`FlowTable`] snapshot.
#[derive(Debug, Clone, Default)]
pub struct RuleIndex {
    /// In descending `best` order.
    groups: Vec<Group>,
    entries: Vec<Entry>,
}

impl RuleIndex {
    /// Compiles `table` as it is now; later changes to the table are
    /// not seen.
    pub fn compile(table: &FlowTable) -> Self {
        let mut rules: Vec<&Rule> = table.iter().collect();
        rules.sort_unstable_by(|a, b| a.matcher.mask().cmp(b.matcher.mask()));
        let mut groups = Vec::new();
        let mut entries: Vec<Entry> = Vec::with_capacity(rules.len());
        for run in rules.chunk_by(|a, b| a.matcher.mask() == b.matcher.mask()) {
            let mask = *run[0].matcher.mask();
            let mut best = run[0].precedence();
            let start = entries.len();
            entries.extend(run.iter().map(|r| Entry {
                hash: KeyWords::of(r.matcher.key()).full_hash(),
                key: *r.matcher.key(),
                precedence: r.precedence(),
                action: r.action,
            }));
            // Best precedence first among equal hashes, so of several
            // rules with one matcher the survivor is the one that wins.
            entries[start..].sort_unstable_by_key(|e| (e.hash, Reverse(e.precedence)));
            let mut end = start;
            for i in start..entries.len() {
                let e = entries[i];
                best = best.max(e.precedence);
                let shadowed = entries[start..end]
                    .iter()
                    .rev()
                    .take_while(|kept| kept.hash == e.hash)
                    .any(|kept| kept.key == e.key);
                if !shadowed {
                    entries[end] = e;
                    end += 1;
                }
            }
            entries.truncate(end);
            groups.push(Group {
                mask,
                words: MaskWords::of(&mask),
                best,
                start,
                end,
            });
        }
        groups.sort_unstable_by_key(|g| Reverse(g.best));
        RuleIndex { groups, entries }
    }

    /// The matching rule with the highest priority, ties broken by
    /// earliest insertion — [`crate::LinearClassifier::classify`]'s
    /// answer.
    // audit: hotpath
    pub fn classify(&self, packet: &FlowKey) -> Option<Winner> {
        let words = KeyWords::of(packet);
        let mut winner: Option<&Entry> = None;
        for group in &self.groups {
            if winner.is_some_and(|w| w.precedence > group.best) {
                break;
            }
            let hash = words.masked_hash(&group.words);
            let rules = &self.entries[group.start..group.end];
            let hit = rules[rules.partition_point(|e| e.hash < hash)..]
                .iter()
                .take_while(|e| e.hash == hash)
                .find(|e| group.mask.key_eq(&e.key, packet));
            if let Some(e) = hit {
                if winner.is_none_or(|w| e.precedence > w.precedence) {
                    winner = Some(e);
                }
            }
        }
        winner.map(|e| Winner {
            id: RuleId(e.precedence.1 .0),
            action: e.action,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::whitelist_with_default_deny;
    use pi_core::{Field, MaskedKey};

    fn slash(ip: [u8; 4], len: u8) -> MaskedKey {
        MaskedKey::new(
            FlowKey::tcp(ip, [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, len),
        )
    }

    fn from(ip: [u8; 4]) -> FlowKey {
        FlowKey::tcp(ip, [10, 0, 0, 9], 1000, 80)
    }

    #[test]
    fn empty_table_allocates_nothing_and_matches_nothing() {
        let index = RuleIndex::compile(&FlowTable::new());
        assert_eq!(index.groups.capacity(), 0);
        assert_eq!(index.entries.capacity(), 0);
        assert_eq!(index.classify(&FlowKey::default()), None);
    }

    #[test]
    fn groups_are_visited_best_first() {
        let table =
            whitelist_with_default_deny(&[slash([10, 0, 0, 0], 8), slash([11, 0, 0, 0], 8)]);
        let index = RuleIndex::compile(&table);
        assert_eq!(index.groups.len(), 2);
        assert_eq!(index.entries.len(), 3);
        assert!(index.groups[0].best > index.groups[1].best);
        assert_eq!(
            index.classify(&from([11, 2, 3, 4])),
            Some(Winner {
                id: RuleId(1),
                action: Action::Allow
            })
        );
        assert_eq!(
            index.classify(&from([12, 0, 0, 1])).map(|w| w.action),
            Some(Action::Deny)
        );
    }

    #[test]
    fn duplicate_matchers_keep_only_the_winner() {
        let mut table = FlowTable::new();
        table.insert(slash([10, 0, 0, 0], 8), 1, Action::Deny);
        let high = table.insert(slash([10, 0, 0, 0], 8), 7, Action::Allow);
        table.insert(slash([10, 0, 0, 0], 8), 7, Action::Controller);
        let index = RuleIndex::compile(&table);
        assert_eq!(index.entries.len(), 1);
        assert_eq!(
            index.classify(&from([10, 9, 9, 9])),
            Some(Winner {
                id: high,
                action: Action::Allow
            })
        );
    }

    #[test]
    fn a_lower_group_can_still_win_when_the_best_group_misses_its_best_rule() {
        // /8 group: best precedence 9 (11/8) but 10/8 is only priority 1;
        // the /16 rule at priority 5 must beat it for 10.1.x.x.
        let mut table = FlowTable::new();
        table.insert(slash([11, 0, 0, 0], 8), 9, Action::Deny);
        table.insert(slash([10, 0, 0, 0], 8), 1, Action::Deny);
        let mid = table.insert(slash([10, 1, 0, 0], 16), 5, Action::Allow);
        let index = RuleIndex::compile(&table);
        assert_eq!(
            index.classify(&from([10, 1, 2, 3])).map(|w| w.id),
            Some(mid)
        );
    }
}
