//! The microflow cache (OVS's EMC / exact-match cache).
//!
//! A bounded, set-associative, hash-indexed store from the *full* flow
//! key to a verdict. Hits bypass the megaflow walk entirely, so whether a
//! victim's packets stay in here decides whether the attack reaches them:
//! the covert stream's endless supply of unique keys collides with and
//! evicts victim entries (§2: the attack "trash\[es\] the MF with excess
//! entries and masks" — and the exact-match layer above it).
//!
//! Entries carry a generation stamp; bumping the switch generation after
//! policy changes or megaflow evictions invalidates the whole cache in
//! O(1), a conservative model of OVS's EMC revalidation.
//!
//! Set indexing uses the deterministic one-pass flow hash
//! ([`pi_core::flow_hash`]); the `*_hashed` entry points accept the hash
//! precomputed by the caller, so a batch of packets is hashed exactly
//! once for both the EMC probe and any later promotion.

use pi_classifier::Action;
use pi_core::{flow_hash, FlowKey, SimTime, SplitMix64};

#[derive(Debug, Clone, Copy)]
struct EmcEntry {
    key: FlowKey,
    action: Action,
    generation: u64,
    last_used: SimTime,
}

/// Counters for microflow cache behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmcStats {
    /// Successful lookups.
    pub hits: u64,
    /// Failed lookups.
    pub misses: u64,
    /// Insertions that evicted a live (same-generation) entry — the
    /// pollution signal.
    pub collision_evictions: u64,
    /// Insertions performed.
    pub inserts: u64,
    /// Insertions skipped by the probabilistic filter.
    pub skipped_inserts: u64,
}

/// A fixed-size, 2-way set-associative exact-match cache (as in OVS).
#[derive(Debug, Clone)]
pub struct MicroflowCache {
    slots: Vec<Option<EmcEntry>>,
    sets: usize,
    insert_prob: f64,
    rng: SplitMix64,
    stats: EmcStats,
}

impl MicroflowCache {
    /// Set associativity.
    const WAYS: usize = 2;

    /// Creates a cache with `entries` total slots. `entries` is rounded
    /// up so the set count is a power of two (index = hash & (sets-1),
    /// as in OVS), and there is at least one set, whatever was asked
    /// for. The slots are allocated by the first insertion: a switch
    /// that never sees a packet, or never promotes one, holds none.
    pub fn new(entries: usize, insert_prob: f64, seed: u64) -> Self {
        let sets = entries.div_ceil(Self::WAYS).next_power_of_two();
        MicroflowCache {
            slots: Vec::new(),
            sets,
            insert_prob,
            rng: SplitMix64::new(seed),
            stats: EmcStats::default(),
        }
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.sets * Self::WAYS
    }

    /// Live entries under `generation`.
    pub fn occupancy(&self, generation: u64) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|e| e.generation == generation)
            .count()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> EmcStats {
        self.stats
    }

    /// The EMC reads its set index from a *different segment* of the
    /// 64-bit flow hash than the flat megaflow tables (which consume the
    /// low bits for their slot index), mirroring OVS's
    /// `EM_FLOW_HASH_SEGS` design of indexing the EMC by distinct
    /// segments of the RSS hash — so clustering in one structure does
    /// not automatically imply clustering in the other.
    const SET_SEGMENT_SHIFT: u32 = 8;

    #[inline]
    fn set_index(&self, hash: u64) -> usize {
        ((hash >> Self::SET_SEGMENT_SHIFT) as usize) & (self.sets - 1)
    }

    /// Looks up `key`; entries from older generations are treated as
    /// absent. Hits refresh the entry's LRU stamp.
    pub fn lookup(&mut self, key: &FlowKey, generation: u64, now: SimTime) -> Option<Action> {
        self.lookup_hashed(flow_hash(key), key, generation, now)
    }

    /// [`MicroflowCache::lookup`] with the key's flow hash already
    /// computed (the datapath hashes each packet once for all levels).
    // audit: hotpath
    pub fn lookup_hashed(
        &mut self,
        hash: u64,
        key: &FlowKey,
        generation: u64,
        now: SimTime,
    ) -> Option<Action> {
        let base = self.set_index(hash) * Self::WAYS;
        // No set at all before the first insertion.
        let Some(set) = self.slots.get_mut(base..base + Self::WAYS) else {
            self.stats.misses += 1;
            return None;
        };
        for e in set.iter_mut().flatten() {
            if e.generation == generation && e.key == *key {
                e.last_used = now;
                self.stats.hits += 1;
                return Some(e.action);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Inserts (subject to the probabilistic filter), evicting the LRU
    /// way on a full set. Returns whether an insertion happened.
    pub fn insert(&mut self, key: &FlowKey, action: Action, generation: u64, now: SimTime) -> bool {
        self.insert_hashed(flow_hash(key), key, action, generation, now)
    }

    /// [`MicroflowCache::insert`] with the key's flow hash already
    /// computed.
    pub fn insert_hashed(
        &mut self,
        hash: u64,
        key: &FlowKey,
        action: Action,
        generation: u64,
        now: SimTime,
    ) -> bool {
        if self.insert_prob < 1.0 && !self.rng.gen_bool(self.insert_prob) {
            self.stats.skipped_inserts += 1;
            return false;
        }
        if self.slots.is_empty() {
            self.allocate();
        }
        let base = self.set_index(hash) * Self::WAYS;
        let set = &mut self.slots[base..base + Self::WAYS];

        // Same key (refresh) or dead/free slot first.
        let mut victim: Option<usize> = None;
        for (i, slot) in set.iter().enumerate() {
            match slot {
                Some(e) if e.key == *key => {
                    victim = Some(i);
                    break;
                }
                Some(e) if e.generation != generation => {
                    victim.get_or_insert(i);
                }
                None => {
                    victim.get_or_insert(i);
                }
                _ => {}
            }
        }
        let idx = match victim {
            Some(i) => i,
            None => {
                // Evict the least recently used live way.
                self.stats.collision_evictions += 1;
                set.iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.map(|e| e.last_used).unwrap_or(SimTime::ZERO))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
        };
        set[idx] = Some(EmcEntry {
            key: *key,
            action,
            generation,
            last_used: now,
        });
        self.stats.inserts += 1;
        true
    }

    /// The one-time allocation of the slots, out of the insert path.
    #[cold]
    fn allocate(&mut self) {
        self.slots = vec![None; self.capacity()];
    }

    /// Evicts every entry whose flow is addressed **to** `ip` (host
    /// byte order), returning the number of slots freed. This is the
    /// destination-scoped invalidation path: EMC entries are exact
    /// matches, so the destination of each cached verdict is known and
    /// a policy change at one pod need not touch any other tenant's
    /// entries. Stale-generation entries for `ip` are swept too — they
    /// are already unreachable, and dropping them keeps the slot free
    /// for live flows.
    pub fn evict_destination(&mut self, ip: u32) -> usize {
        let mut evicted = 0;
        for slot in &mut self.slots {
            if slot.as_ref().is_some_and(|e| e.key.ip_dst == ip) {
                *slot = None;
                evicted += 1;
            }
        }
        evicted
    }

    /// Drops every entry (tests / explicit cache flush).
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u32) -> FlowKey {
        FlowKey::tcp(
            std::net::Ipv4Addr::from(0x0a00_0000 + n),
            [10, 0, 0, 1],
            (n % 60_000) as u16 + 1,
            80,
        )
    }

    fn cache() -> MicroflowCache {
        MicroflowCache::new(64, 1.0, 7)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = cache();
        let t = SimTime::from_millis(1);
        assert!(c.insert(&key(1), Action::Allow, 0, t));
        assert_eq!(c.lookup(&key(1), 0, t), Some(Action::Allow));
        assert_eq!(c.lookup(&key(2), 0, t), None);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn evict_destination_removes_only_that_dst() {
        let mut c = cache();
        let t = SimTime::from_millis(1);
        // Two flows to 10.0.0.1 (the `key` helper's dst) and one to
        // another pod.
        assert!(c.insert(&key(1), Action::Allow, 0, t));
        assert!(c.insert(&key(2), Action::Allow, 0, t));
        let other = FlowKey::tcp([10, 9, 9, 9], [10, 0, 0, 2], 7, 80);
        assert!(c.insert(&other, Action::Allow, 0, t));
        assert_eq!(c.evict_destination(u32::from_be_bytes([10, 0, 0, 1])), 2);
        assert_eq!(c.lookup(&key(1), 0, t), None);
        assert_eq!(c.lookup(&key(2), 0, t), None);
        assert_eq!(
            c.lookup(&other, 0, t),
            Some(Action::Allow),
            "bystander entry survives the scoped eviction"
        );
        assert_eq!(c.evict_destination(u32::from_be_bytes([1, 2, 3, 4])), 0);
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let mut c = cache();
        let t = SimTime::ZERO;
        c.insert(&key(1), Action::Allow, 0, t);
        c.insert(&key(2), Action::Deny, 0, t);
        assert_eq!(c.occupancy(0), 2);
        assert_eq!(c.lookup(&key(1), 1, t), None);
        assert_eq!(c.occupancy(1), 0);
        // Dead slots are reusable.
        c.insert(&key(3), Action::Allow, 1, t);
        assert_eq!(c.lookup(&key(3), 1, t), Some(Action::Allow));
    }

    #[test]
    fn same_key_insert_refreshes_not_duplicates() {
        let mut c = cache();
        let t = SimTime::ZERO;
        c.insert(&key(1), Action::Allow, 0, t);
        c.insert(&key(1), Action::Deny, 0, t);
        assert_eq!(c.occupancy(0), 1);
        assert_eq!(c.lookup(&key(1), 0, t), Some(Action::Deny));
    }

    #[test]
    fn pollution_evicts_under_collision_pressure() {
        // Fill far beyond capacity with unique keys: the victim entry
        // must eventually fall out — the attack's EMC-thrash mechanism.
        let mut c = MicroflowCache::new(64, 1.0, 7);
        let t = SimTime::ZERO;
        let victim = key(999_000);
        c.insert(&victim, Action::Allow, 0, t);
        for n in 0..10_000 {
            c.insert(&key(n), Action::Deny, 0, SimTime::from_nanos(n as u64 + 1));
        }
        assert_eq!(c.lookup(&victim, 0, SimTime::from_secs(1)), None);
        assert!(c.stats().collision_evictions > 0);
    }

    #[test]
    fn lru_way_is_the_one_evicted() {
        // One set (two ways = capacity) makes LRU order fully observable.
        let mut c = MicroflowCache::new(2, 1.0, 7);
        c.insert(&key(1), Action::Allow, 0, SimTime::from_nanos(1));
        c.insert(&key(2), Action::Allow, 0, SimTime::from_nanos(2));
        // Touch key 1 so key 2 becomes LRU.
        assert!(c.lookup(&key(1), 0, SimTime::from_nanos(3)).is_some());
        c.insert(&key(3), Action::Allow, 0, SimTime::from_nanos(4));
        assert!(c.lookup(&key(1), 0, SimTime::from_nanos(5)).is_some());
        assert!(c.lookup(&key(2), 0, SimTime::from_nanos(6)).is_none());
        assert!(c.lookup(&key(3), 0, SimTime::from_nanos(7)).is_some());
    }

    #[test]
    fn probabilistic_insertion_skips_most() {
        let mut c = MicroflowCache::new(4096, 0.01, 42);
        let t = SimTime::ZERO;
        let mut inserted = 0;
        for n in 0..10_000 {
            if c.insert(&key(n), Action::Allow, 0, t) {
                inserted += 1;
            }
        }
        assert!(
            (50..200).contains(&inserted),
            "~1% expected, got {inserted}"
        );
        assert_eq!(c.stats().skipped_inserts + c.stats().inserts, 10_000);
    }

    #[test]
    fn clear_empties() {
        let mut c = cache();
        c.insert(&key(1), Action::Allow, 0, SimTime::ZERO);
        c.clear();
        assert_eq!(c.lookup(&key(1), 0, SimTime::ZERO), None);
        assert_eq!(c.occupancy(0), 0);
    }

    #[test]
    fn capacity_rounds_to_power_of_two_sets() {
        let c = MicroflowCache::new(100, 1.0, 0);
        assert_eq!(c.capacity() % 2, 0);
        assert!(c.capacity() >= 100);
        assert!((c.capacity() / 2).is_power_of_two());
        // A remainder rounds the set count up, never down.
        assert_eq!(MicroflowCache::new(3, 1.0, 0).capacity(), 4);
        assert_eq!(MicroflowCache::new(5, 1.0, 0).capacity(), 8);
    }

    #[test]
    fn any_geometry_builds_a_working_cache() {
        // `emc_entries` is a `pub` config field: no value may panic.
        for entries in [0, 1, 3] {
            let mut c = MicroflowCache::new(entries, 1.0, 0);
            assert!(c.capacity() >= 2, "{entries}");
            let t = SimTime::ZERO;
            assert_eq!(c.lookup(&key(1), 0, t), None, "empty cache misses");
            assert!(c.insert(&key(1), Action::Allow, 0, t));
            assert_eq!(c.lookup(&key(1), 0, t), Some(Action::Allow));
            assert_eq!(c.stats().misses, 1);
        }
    }

    #[test]
    fn slots_are_allocated_by_the_first_insert() {
        let mut c = MicroflowCache::new(8192, 0.0, 0);
        assert_eq!(c.capacity(), 8192);
        assert_eq!(c.lookup(&key(1), 0, SimTime::ZERO), None);
        assert!(!c.insert(&key(1), Action::Allow, 0, SimTime::ZERO));
        assert_eq!(c.evict_destination(u32::from_be_bytes([10, 0, 0, 1])), 0);
        c.clear();
        assert_eq!(c.occupancy(0), 0);
        assert!(c.slots.is_empty(), "nothing was ever promoted");
        c.insert_prob = 1.0;
        assert!(c.insert(&key(1), Action::Allow, 0, SimTime::ZERO));
        assert_eq!(c.slots.len(), 8192);
    }
}
