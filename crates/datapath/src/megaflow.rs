//! The megaflow cache: wildcard entries over Tuple Space Search.

use pi_classifier::{Action, LookupOutcome, SubtableOrder, TupleSpaceSearch};
use pi_core::{FlowKey, KeyWords, MaskedKey, SimTime};

/// One cached megaflow: a verdict plus usage bookkeeping for the
/// revalidator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MegaflowEntry {
    /// The cached verdict.
    pub action: Action,
    /// Installation time.
    pub created: SimTime,
    /// Last lookup that hit this entry.
    pub last_used: SimTime,
    /// Number of hits since installation.
    pub hits: u64,
}

/// Result of trying to install a generated megaflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstallOutcome {
    /// A new entry (and possibly a new subtable/mask) was created.
    Installed,
    /// An identical masked key was already cached (its verdict is
    /// refreshed — policy changes rebuild the cache wholesale).
    AlreadyPresent,
    /// The flow limit was reached; the datapath keeps running but this
    /// flow stays uncached (every packet re-upcalls — OVS behaviour
    /// under flow-table pressure).
    TableFull,
}

/// Counters for megaflow cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MfcStats {
    /// Entries installed.
    pub installs: u64,
    /// Installs refused by the flow limit.
    pub install_drops: u64,
    /// Entries evicted as idle by the revalidator.
    pub idle_evictions: u64,
}

/// The megaflow cache proper.
#[derive(Debug, Clone)]
pub struct MegaflowCache {
    tss: TupleSpaceSearch<MegaflowEntry>,
    flow_limit: usize,
    stats: MfcStats,
}

impl MegaflowCache {
    /// Creates a cache with the given entry limit and subtable ordering.
    pub fn new(flow_limit: usize, order: SubtableOrder, staged: bool) -> Self {
        let tss = if staged {
            TupleSpaceSearch::new(order).with_staged_lookup()
        } else {
            TupleSpaceSearch::new(order)
        };
        MegaflowCache {
            tss,
            flow_limit,
            stats: MfcStats::default(),
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.tss.len()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.tss.is_empty()
    }

    /// Number of distinct masks — the attack's observable (Fig. 3's
    /// right axis).
    pub fn mask_count(&self) -> usize {
        self.tss.subtable_count()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MfcStats {
        self.stats
    }

    /// TSS-level lookup statistics (probe totals).
    pub fn tss_stats(&self) -> pi_classifier::TssStats {
        self.tss.stats()
    }

    /// Looks up `key`, updating the hit entry's usage stamps.
    /// The outcome's probe counts feed the cost model.
    pub fn lookup(&mut self, key: &FlowKey, now: SimTime) -> LookupOutcome<Action> {
        self.lookup_with(key, &KeyWords::of(key), now)
    }

    /// [`MegaflowCache::lookup`] with the packet's words already
    /// extracted, so the subtable walk re-uses the datapath's one-pass
    /// hash work.
    pub fn lookup_with(
        &mut self,
        key: &FlowKey,
        words: &KeyWords,
        now: SimTime,
    ) -> LookupOutcome<Action> {
        let out = self.tss.lookup_mut_with(key, words);
        let value = out.value.map(|e| {
            e.hits += 1;
            e.last_used = now;
            e.action
        });
        LookupOutcome {
            value,
            probes: out.probes,
            stage_checks: out.stage_checks,
        }
    }

    /// Installs a generated megaflow.
    pub fn install(&mut self, mk: MaskedKey, action: Action, now: SimTime) -> InstallOutcome {
        // One index lookup either way: at the flow limit only a refresh
        // is possible, below it the find doubles as the insert.
        let full = self.tss.len() >= self.flow_limit;
        let existing = if full {
            self.tss.get_mut(&mk)
        } else {
            let fresh = MegaflowEntry {
                action,
                created: now,
                last_used: now,
                hits: 0,
            };
            self.tss.find_or_insert(mk, fresh)
        };
        match existing {
            Some(existing) => {
                existing.action = action;
                existing.last_used = now;
                InstallOutcome::AlreadyPresent
            }
            None if full => {
                self.stats.install_drops += 1;
                InstallOutcome::TableFull
            }
            None => {
                self.stats.installs += 1;
                InstallOutcome::Installed
            }
        }
    }

    /// Toggles staged subtable lookup at runtime (retrofitting or
    /// dropping the per-subtable stage indexes) — the adaptive defense
    /// controller's actuator for the staged-lookup mitigation.
    pub fn set_staged_lookup(&mut self, enabled: bool) {
        self.tss.set_staged_lookup(enabled);
    }

    /// Evicts every megaflow whose mask pins `ip_dst` exactly to `ip` —
    /// the offender-quarantine actuator: because this pipeline's
    /// megaflows always pin the destination, this removes precisely the
    /// entries (and, once empty, the masks) one pod's ACL generated.
    /// Returns how many entries were removed.
    pub fn evict_destination(&mut self, ip: u32) -> usize {
        let full = pi_core::Field::IpDst.full_mask();
        let mut evicted = 0;
        self.tss.retain(|mk, _| {
            let doomed = mk.mask().field(pi_core::Field::IpDst) == full && mk.key().ip_dst == ip;
            if doomed {
                evicted += 1;
            }
            !doomed
        });
        evicted
    }

    /// Evicts entries idle for longer than `idle_timeout`; returns how
    /// many were removed. Empty subtables (masks) disappear with their
    /// last entry, which is what lets a victim recover after an attack
    /// stops (Fig. 3 would decay after the covert stream ends).
    pub fn evict_idle(&mut self, now: SimTime, idle_timeout: SimTime) -> usize {
        let mut evicted = 0;
        self.tss.retain(|_, e| {
            let keep = now.saturating_sub(e.last_used) <= idle_timeout;
            if !keep {
                evicted += 1;
            }
            keep
        });
        self.stats.idle_evictions += evicted as u64;
        evicted
    }

    /// Iterates `(masked key, entry)` for diagnostics and tests.
    pub fn iter(&self) -> impl Iterator<Item = (MaskedKey, &MegaflowEntry)> {
        self.tss.iter()
    }

    /// Drops everything (policy change).
    pub fn clear(&mut self) {
        self.tss.clear();
    }

    /// Direct entry access by masked key.
    pub fn get(&self, mk: &MaskedKey) -> Option<&MegaflowEntry> {
        self.tss.get(mk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::{Field, FlowMask};

    fn mk(ip: [u8; 4], len: u8) -> MaskedKey {
        MaskedKey::new(
            FlowKey::tcp(ip, [0, 0, 0, 0], 0, 0),
            FlowMask::default().with_prefix(Field::IpSrc, len),
        )
    }

    fn cache() -> MegaflowCache {
        MegaflowCache::new(100, SubtableOrder::Insertion, false)
    }

    #[test]
    fn install_then_hit_updates_usage() {
        let mut c = cache();
        let t0 = SimTime::from_secs(1);
        assert_eq!(
            c.install(mk([10, 0, 0, 0], 8), Action::Allow, t0),
            InstallOutcome::Installed
        );
        let t1 = SimTime::from_secs(2);
        let out = c.lookup(&FlowKey::tcp([10, 9, 9, 9], [0, 0, 0, 0], 0, 0), t1);
        assert_eq!(out.value, Some(Action::Allow));
        let e = c.get(&mk([10, 0, 0, 0], 8)).unwrap();
        assert_eq!(e.hits, 1);
        assert_eq!(e.last_used, t1);
        assert_eq!(e.created, t0);
    }

    #[test]
    fn reinstall_is_already_present() {
        let mut c = cache();
        let t = SimTime::ZERO;
        c.install(mk([10, 0, 0, 0], 8), Action::Allow, t);
        assert_eq!(
            c.install(mk([10, 0, 0, 0], 8), Action::Deny, t),
            InstallOutcome::AlreadyPresent
        );
        assert_eq!(c.len(), 1);
        // Verdict refreshed.
        let out = c.lookup(&FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 0), t);
        assert_eq!(out.value, Some(Action::Deny));
    }

    #[test]
    fn flow_limit_refuses_installs() {
        let mut c = MegaflowCache::new(3, SubtableOrder::Insertion, false);
        let t = SimTime::ZERO;
        for i in 0..3u8 {
            assert_eq!(
                c.install(mk([10 + i, 0, 0, 0], 8), Action::Allow, t),
                InstallOutcome::Installed
            );
        }
        assert_eq!(
            c.install(mk([99, 0, 0, 0], 8), Action::Allow, t),
            InstallOutcome::TableFull
        );
        assert_eq!(c.len(), 3);
        assert_eq!(c.stats().install_drops, 1);
        // Existing entries can still be refreshed at the limit.
        assert_eq!(
            c.install(mk([10, 0, 0, 0], 8), Action::Allow, t),
            InstallOutcome::AlreadyPresent
        );
    }

    #[test]
    fn idle_eviction_removes_only_stale() {
        let mut c = cache();
        c.install(mk([10, 0, 0, 0], 8), Action::Allow, SimTime::ZERO);
        c.install(mk([11, 0, 0, 0], 16), Action::Allow, SimTime::ZERO);
        // Keep 11/16 warm.
        c.lookup(
            &FlowKey::tcp([11, 0, 1, 1], [0, 0, 0, 0], 0, 0),
            SimTime::from_secs(9),
        );
        let evicted = c.evict_idle(SimTime::from_secs(12), SimTime::from_secs(10));
        assert_eq!(evicted, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.mask_count(), 1, "empty subtable must disappear");
        assert_eq!(c.stats().idle_evictions, 1);
    }

    #[test]
    fn mask_count_tracks_distinct_masks() {
        let mut c = cache();
        let t = SimTime::ZERO;
        c.install(mk([10, 0, 0, 0], 8), Action::Allow, t);
        c.install(mk([11, 0, 0, 0], 8), Action::Allow, t); // same mask
        c.install(mk([12, 0, 0, 0], 16), Action::Allow, t);
        assert_eq!(c.len(), 3);
        assert_eq!(c.mask_count(), 2);
    }

    #[test]
    fn miss_walks_all_subtables() {
        let mut c = cache();
        let t = SimTime::ZERO;
        for len in 1..=16u8 {
            c.install(mk([10, 0, 0, 0], len), Action::Deny, t);
        }
        let out = c.lookup(&FlowKey::tcp([200, 0, 0, 1], [0, 0, 0, 0], 0, 0), t);
        assert_eq!(out.value, None);
        assert_eq!(out.probes, 16);
    }

    #[test]
    fn evict_destination_removes_only_the_pinned_dst() {
        let mut c = cache();
        let t = SimTime::ZERO;
        let pinned = |dst: [u8; 4], len: u8| {
            MaskedKey::new(
                FlowKey::tcp([10, 0, 0, 0], dst, 0, 0),
                FlowMask::default()
                    .with_prefix(Field::IpSrc, len)
                    .with_exact(Field::IpDst),
            )
        };
        c.install(pinned([10, 0, 0, 9], 8), Action::Deny, t);
        c.install(pinned([10, 0, 0, 9], 16), Action::Deny, t);
        c.install(pinned([10, 0, 0, 7], 8), Action::Allow, t);
        // A dst-wildcarded megaflow (not produced by this pipeline, but
        // legal in the cache) must never be evicted by dst.
        c.install(mk([12, 0, 0, 0], 8), Action::Allow, t);
        assert_eq!(c.evict_destination(u32::from_be_bytes([10, 0, 0, 9])), 2);
        assert_eq!(c.len(), 2);
        assert!(c.get(&pinned([10, 0, 0, 7], 8)).is_some());
        assert!(c.get(&mk([12, 0, 0, 0], 8)).is_some());
        assert_eq!(c.evict_destination(u32::from_be_bytes([9, 9, 9, 9])), 0);
        // The quarantined destination's masks disappeared with it: only
        // the /8+dst mask (shared with .7) and the wildcard-dst mask
        // remain.
        assert_eq!(c.mask_count(), 2);
    }

    #[test]
    fn staged_lookup_toggles_at_runtime() {
        let mut c = cache();
        c.install(mk([10, 0, 0, 0], 8), Action::Allow, SimTime::ZERO);
        c.set_staged_lookup(true);
        // Still finds its entries after the retrofit.
        let out = c.lookup(
            &FlowKey::tcp([10, 1, 1, 1], [0, 0, 0, 0], 0, 0),
            SimTime::ZERO,
        );
        assert_eq!(out.value, Some(Action::Allow));
        c.set_staged_lookup(false);
        let out = c.lookup(
            &FlowKey::tcp([10, 1, 1, 1], [0, 0, 0, 0], 0, 0),
            SimTime::ZERO,
        );
        assert_eq!(out.value, Some(Action::Allow));
    }

    #[test]
    fn clear_and_iter() {
        let mut c = cache();
        c.install(mk([10, 0, 0, 0], 8), Action::Allow, SimTime::ZERO);
        c.install(mk([11, 0, 0, 0], 16), Action::Deny, SimTime::ZERO);
        assert_eq!(c.iter().count(), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.mask_count(), 0);
    }
}
