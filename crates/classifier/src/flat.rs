//! Flat open-addressing hash tables keyed by precomputed flow hashes.
//!
//! Every Tuple Space Search subtable, every staged-lookup stage set and
//! the exact-match backends' flow tables are hash tables from a
//! canonical masked [`FlowKey`] to a payload. The hash is **already
//! computed** by the caller (one pass per packet via
//! [`pi_core::KeyWords`]); the table itself never hashes, and behaviour
//! is bit-reproducible.
//!
//! **Layout: tags beside payloads.** A table is two parallel slices of
//! one power-of-two capacity: `tags: [u64]` and `slots: [Option<(FlowKey,
//! V)>]`. A tag is `0` for an empty slot and the entry's hash with the
//! top bit set for an occupied one; an entry's probe run starts at
//! `hash & (capacity - 1)` and advances linearly. A probe reads tags
//! only — eight to a cache line — and touches a payload solely on a tag
//! match, so a miss costs one tag. Removal is **tombstone-free**: the
//! probe run behind the hole is shifted back (backward-shift deletion),
//! so tables never accumulate deleted markers.
//!
//! The probing, placement and backshift logic exists once, as the
//! slice-level functions below (`probe`, `place`, `take_at`, `rehash`,
//! `retain_in_place`). [`FlatTable`] runs them over two
//! `Vec`s it owns; [`crate::TupleSpaceSearch`] runs the same functions
//! over per-subtable regions of its one tag arena, which is why the two
//! place entries identically.

use pi_core::FlowKey;

/// Smallest capacity of a table (or arena region) that holds entries.
pub(crate) const MIN_CAPACITY: usize = 8;

/// Set in every occupied slot's tag, so that no entry's tag is 0.
const OCCUPIED: u64 = 1 << 63;

/// One payload slot; `Some` exactly where the parallel tag is non-zero.
pub(crate) type Slot<V> = Option<(FlowKey, V)>;

/// The tag an entry with `hash` is stored under (idempotent: a tag's
/// tag is itself).
#[inline(always)]
pub(crate) fn tag_of(hash: u64) -> u64 {
    hash | OCCUPIED
}

/// True when a table of `capacity` slots may not hold `len` entries
/// (load above 7/8): the caller doubles before inserting.
#[inline]
pub(crate) fn overloaded(len: usize, capacity: usize) -> bool {
    len * 8 > capacity * 7
}

/// Walks `hash`'s probe run over the tags alone: `Ok(i)` is the first
/// slot with `hash`'s tag for which `is_match(i)` holds, `Err(i)` the
/// empty slot that ends the run (where an absent key would be placed).
/// Payloads are the caller's to read, and only on a tag match — see
/// [`key_at`]. `tags` must be a non-empty power of two long and hold at
/// least one empty slot.
#[inline]
// audit: hotpath
pub(crate) fn probe(
    tags: &[u64],
    hash: u64,
    mut is_match: impl FnMut(usize) -> bool,
) -> Result<usize, usize> {
    debug_assert!(tags.len().is_power_of_two());
    let mask = tags.len() - 1;
    let tag = tag_of(hash);
    let mut i = (hash as usize) & mask;
    loop {
        let t = tags[i];
        if t == 0 {
            return Err(i);
        }
        if t == tag && is_match(i) {
            return Ok(i);
        }
        i = (i + 1) & mask;
    }
}

/// The canonical key stored in slot `i`, for [`probe`]'s `is_match`:
/// equality when the key is canonical too, a mask-aware comparison when
/// the TSS walk probes with a *raw* packet (so no masked key is ever
/// materialised).
#[inline(always)]
pub(crate) fn key_at<V>(slots: &[Slot<V>], i: usize) -> Option<&FlowKey> {
    slots[i].as_ref().map(|(k, _)| k)
}

/// Writes an entry the caller knows to be absent into the first free
/// slot of its probe run (`hash` may be the entry's hash or its tag);
/// returns the slot.
pub(crate) fn place<V>(
    tags: &mut [u64],
    slots: &mut [Slot<V>],
    hash: u64,
    entry: (FlowKey, V),
) -> usize {
    let mask = tags.len() - 1;
    let tag = tag_of(hash);
    let mut i = (tag as usize) & mask;
    while tags[i] != 0 {
        i = (i + 1) & mask;
    }
    tags[i] = tag;
    slots[i] = Some(entry);
    i
}

/// Empties slot `i` and rebuilds the probe run behind it (backward-shift
/// deletion — no tombstones). `None` when the slot was already empty.
#[inline]
// audit: hotpath
pub(crate) fn take_at<V>(
    tags: &mut [u64],
    slots: &mut [Slot<V>],
    i: usize,
) -> Option<(FlowKey, V)> {
    let mask = tags.len() - 1;
    let removed = slots[i].take();
    tags[i] = 0;
    // Close the hole: walk the cluster after `i`; any entry whose ideal
    // position does not lie strictly inside (hole, j] slides back into
    // the hole (its probe path passed through it).
    let mut hole = i;
    let mut j = i;
    loop {
        j = (j + 1) & mask;
        let t = tags[j];
        if t == 0 {
            break;
        }
        let ideal = (t as usize) & mask;
        if ((j.wrapping_sub(ideal)) & mask) >= ((j.wrapping_sub(hole)) & mask) {
            tags[hole] = t;
            tags[j] = 0;
            slots[hole] = slots[j].take();
            hole = j;
        }
    }
    removed
}

/// Moves every entry of one table into another (empty, large enough) in
/// slot order, leaving the source empty — how a table doubles.
pub(crate) fn rehash<V>(
    from_tags: &mut [u64],
    from_slots: &mut [Slot<V>],
    to_tags: &mut [u64],
    to_slots: &mut [Slot<V>],
) {
    for (tag, slot) in from_tags.iter_mut().zip(from_slots.iter_mut()) {
        if let Some(entry) = slot.take() {
            place(to_tags, to_slots, *tag, entry);
        }
        *tag = 0;
    }
}

/// Keeps only the entries for which `keep` returns true, rebuilding the
/// table from the survivors in slot order (one rebuild instead of
/// per-entry hole repairs); returns how many survive. `scratch` is
/// drained before returning — callers sweeping many tables reuse it.
pub(crate) fn retain_in_place<V>(
    tags: &mut [u64],
    slots: &mut [Slot<V>],
    scratch: &mut Vec<(u64, (FlowKey, V))>,
    mut keep: impl FnMut(&FlowKey, &mut V) -> bool,
) -> usize {
    for (tag, slot) in tags.iter_mut().zip(slots.iter_mut()) {
        if let Some(entry) = slot.take() {
            scratch.push((*tag, entry));
        }
        *tag = 0;
    }
    let mut kept = 0;
    for (tag, mut entry) in scratch.drain(..) {
        if keep(&entry.0, &mut entry.1) {
            place(tags, slots, tag, entry);
            kept += 1;
        }
    }
    kept
}

/// A flat open-addressing map from (precomputed hash, canonical key) to
/// `V`.
#[derive(Debug, Clone)]
pub struct FlatTable<V> {
    tags: Vec<u64>,
    slots: Vec<Slot<V>>,
    len: usize,
}

impl<V> Default for FlatTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FlatTable<V> {
    /// An empty table (no allocation until the first insert).
    pub fn new() -> Self {
        FlatTable {
            tags: Vec::new(),
            slots: Vec::new(),
            len: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot capacity (a power of two, or 0 before first insert).
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// Replaces the storage with an empty one of `capacity` slots and
    /// rehashes the entries into it.
    fn grow(&mut self, capacity: usize) {
        let mut tags = vec![0; capacity];
        let mut slots = Vec::new();
        slots.resize_with(capacity, || None);
        rehash(&mut self.tags, &mut self.slots, &mut tags, &mut slots);
        self.tags = tags;
        self.slots = slots;
    }

    /// The slot holding the entry with `hash` whose stored canonical key
    /// satisfies `eq`.
    #[inline]
    fn find(&self, hash: u64, mut eq: impl FnMut(&FlowKey) -> bool) -> Option<usize> {
        if self.tags.is_empty() {
            return None;
        }
        probe(&self.tags, hash, |i| {
            key_at(&self.slots, i).is_some_and(&mut eq)
        })
        .ok()
    }

    /// Inserts `value` under `(hash, key)`; returns the previous value
    /// when the exact key was already present. `key` must be canonical
    /// (pre-masked) and `hash` must be its flow hash.
    // audit: hotpath -- growth is amortised in `grow`, outside this region by design
    pub fn insert(&mut self, hash: u64, key: FlowKey, value: V) -> Option<V> {
        let free = if self.tags.is_empty() {
            None
        } else {
            match probe(&self.tags, hash, |i| key_at(&self.slots, i) == Some(&key)) {
                Ok(i) => {
                    let (_, stored) = self.slots[i].as_mut()?;
                    return Some(std::mem::replace(stored, value));
                }
                Err(i) => Some(i),
            }
        };
        match free {
            // The presence scan already found the probe run's free slot;
            // it stands unless this insert crosses the load threshold.
            Some(i) if !overloaded(self.len + 1, self.tags.len()) => {
                self.tags[i] = tag_of(hash);
                self.slots[i] = Some((key, value));
            }
            _ => {
                self.grow((self.tags.len() * 2).max(MIN_CAPACITY));
                place(&mut self.tags, &mut self.slots, hash, (key, value));
            }
        }
        self.len += 1;
        None
    }

    /// Looks up by precomputed hash plus an equality predicate on the
    /// stored canonical key — how a *raw* packet probes: the predicate
    /// is a mask-aware comparison, so no masked key is materialised.
    #[inline]
    // audit: hotpath
    pub fn get_by_hash(&self, hash: u64, eq: impl FnMut(&FlowKey) -> bool) -> Option<&V> {
        let i = self.find(hash, eq)?;
        self.slots[i].as_ref().map(|(_, v)| v)
    }

    /// Mutable variant of [`FlatTable::get_by_hash`].
    #[inline]
    // audit: hotpath
    pub(crate) fn get_mut_by_hash(
        &mut self,
        hash: u64,
        eq: impl FnMut(&FlowKey) -> bool,
    ) -> Option<&mut V> {
        let i = self.find(hash, eq)?;
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// Exact-key lookup (key already canonical).
    pub fn get(&self, hash: u64, key: &FlowKey) -> Option<&V> {
        self.get_by_hash(hash, |k| k == key)
    }

    /// Exact-key mutable lookup.
    pub fn get_mut(&mut self, hash: u64, key: &FlowKey) -> Option<&mut V> {
        self.get_mut_by_hash(hash, |k| k == key)
    }

    /// Removes the entry for `(hash, key)` and rebuilds the probe run
    /// behind it (backward-shift deletion — no tombstones).
    // audit: hotpath
    pub fn remove(&mut self, hash: u64, key: &FlowKey) -> Option<V> {
        let i = self.find(hash, |k| k == key)?;
        let (_, value) = take_at(&mut self.tags, &mut self.slots, i)?;
        self.len -= 1;
        Some(value)
    }

    /// Keeps only the entries for which `keep` returns true, rebuilding
    /// the table from the survivors in slot order (the revalidator's
    /// sweep — one rebuild instead of per-entry hole repairs).
    pub fn retain(&mut self, keep: impl FnMut(&FlowKey, &mut V) -> bool) {
        if self.len == 0 {
            return;
        }
        let mut scratch = Vec::with_capacity(self.len);
        self.len = retain_in_place(&mut self.tags, &mut self.slots, &mut scratch, keep);
    }

    /// Iterates `(canonical key, value)` in slot order — deterministic
    /// for a given operation sequence (no random hash state).
    pub fn iter(&self) -> impl Iterator<Item = (&FlowKey, &V)> {
        self.slots.iter().flatten().map(|(k, v)| (k, v))
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.tags.fill(0);
        self.slots.iter_mut().for_each(|s| *s = None);
        self.len = 0;
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "a test may hash with `RandomState`"
)]
mod tests {
    use super::*;
    use pi_core::{flow_hash, for_cases, FlowKey};
    use std::collections::HashMap;

    fn key(n: u32) -> FlowKey {
        FlowKey::tcp(
            std::net::Ipv4Addr::from(0x0a00_0000 + n),
            [10, 0, 0, 1],
            (n % 60_000) as u16,
            443,
        )
    }

    #[test]
    fn insert_get_replace() {
        let mut t = FlatTable::new();
        let k = key(1);
        let h = flow_hash(&k);
        assert_eq!(t.insert(h, k, 10), None);
        assert_eq!(t.get(h, &k), Some(&10));
        assert_eq!(t.insert(h, k, 20), Some(10));
        assert_eq!(t.len(), 1);
        *t.get_mut(h, &k).unwrap() += 1;
        assert_eq!(t.get(h, &k), Some(&21));
        assert_eq!(t.get(flow_hash(&key(2)), &key(2)), None);
    }

    #[test]
    fn remove_backshift_preserves_probe_runs() {
        // Force a cluster by inserting colliding hashes: same low bits.
        let mut t: FlatTable<u32> = FlatTable::new();
        let keys: Vec<FlowKey> = (0..5).map(key).collect();
        // Synthetic hashes landing on the same initial index (mask will
        // be 7 or 15 at this size).
        for (n, k) in keys.iter().enumerate() {
            t.insert(0x100 + ((n as u64) << 32), *k, n as u32);
        }
        // Remove the middle of the cluster; the rest must stay findable.
        assert_eq!(t.remove(0x100 + (2u64 << 32), &keys[2]), Some(2));
        for (n, k) in keys.iter().enumerate() {
            if n == 2 {
                continue;
            }
            assert_eq!(
                t.get(0x100 + ((n as u64) << 32), k),
                Some(&(n as u32)),
                "entry {n} lost after backshift"
            );
        }
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn growth_keeps_all_entries() {
        let mut t = FlatTable::new();
        for n in 0..1000u32 {
            let k = key(n);
            t.insert(flow_hash(&k), k, n);
        }
        assert_eq!(t.len(), 1000);
        assert!(t.capacity().is_power_of_two());
        // Load stays at or below 7/8.
        assert!(t.len() * 8 <= t.capacity() * 7);
        for n in 0..1000u32 {
            let k = key(n);
            assert_eq!(t.get(flow_hash(&k), &k), Some(&n));
        }
    }

    #[test]
    fn get_by_hash_uses_caller_equality() {
        let mut t = FlatTable::new();
        let k = key(7);
        let h = flow_hash(&k);
        t.insert(h, k, "x");
        // Predicate sees the stored canonical key.
        assert_eq!(t.get_by_hash(h, |stored| stored.tp_dst == 443), Some(&"x"));
        assert_eq!(t.get_by_hash(h, |_| false), None);
    }

    #[test]
    fn retain_rebuilds_without_losses() {
        let mut t = FlatTable::new();
        for n in 0..100u32 {
            let k = key(n);
            t.insert(flow_hash(&k), k, n);
        }
        t.retain(|_, v| *v % 3 == 0);
        assert_eq!(t.len(), 34);
        for n in 0..100u32 {
            let k = key(n);
            let expect = (n % 3 == 0).then_some(n);
            assert_eq!(t.get(flow_hash(&k), &k).copied(), expect);
        }
    }

    #[test]
    fn clear_empties_but_keeps_capacity() {
        let mut t = FlatTable::new();
        for n in 0..50u32 {
            let k = key(n);
            t.insert(flow_hash(&k), k, n);
        }
        let cap = t.capacity();
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.capacity(), cap);
        assert_eq!(t.get(flow_hash(&key(1)), &key(1)), None);
    }

    #[test]
    fn iteration_is_deterministic_across_identical_histories() {
        let build = || {
            let mut t = FlatTable::new();
            for n in (0..64u32).rev() {
                let k = key(n);
                t.insert(flow_hash(&k), k, n);
            }
            t.remove(flow_hash(&key(13)), &key(13));
            t.iter().map(|(_, v)| *v).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    /// Randomised differential test against a std HashMap reference.
    #[test]
    fn random_ops_match_hashmap_reference() {
        for_cases(128, 0xf1a7, |rng| {
            let mut t: FlatTable<u64> = FlatTable::new();
            let mut reference: HashMap<FlowKey, u64> = HashMap::new();
            for op in 0..200 {
                let k = key(rng.gen_range(40) as u32);
                let h = flow_hash(&k);
                match rng.gen_range(3) {
                    0 => {
                        assert_eq!(t.insert(h, k, op), reference.insert(k, op));
                    }
                    1 => {
                        assert_eq!(t.remove(h, &k), reference.remove(&k));
                    }
                    _ => {
                        assert_eq!(t.get(h, &k), reference.get(&k));
                    }
                }
                assert_eq!(t.len(), reference.len());
            }
            let mut ours: Vec<(FlowKey, u64)> = t.iter().map(|(k, v)| (*k, *v)).collect();
            let mut theirs: Vec<(FlowKey, u64)> = reference.into_iter().collect();
            let sort_key = |e: &(FlowKey, u64)| (e.0.ip_src, e.0.tp_src, e.1);
            ours.sort_by_key(sort_key);
            theirs.sort_by_key(sort_key);
            assert_eq!(ours, theirs);
        });
    }
}
