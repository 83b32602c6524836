//! Tuple Space Search — the classifier under attack.
//!
//! TSS keeps one hash table ("subtable") per distinct wildcard mask.
//! Lookup masks the packet key with each subtable's mask in turn and
//! probes that subtable's hash; with non-overlapping entries (the
//! megaflow invariant) the first hit is the answer. Hash lookup is O(1),
//! but the subtable walk is **linear in the number of distinct masks** —
//! the algorithmic deficiency the paper exploits (§2: "the TSS algorithm
//! still has to iterate through all hashes assigned to different masks,
//! rendering TSS a costly linear search when there are lots of masks").
//!
//! The implementation is generic over the entry payload `V` so the same
//! engine serves as the megaflow cache store (`V = MegaflowEntry`) and as
//! a general classifier in tests.
//!
//! **Hot-path design: modelled linear walk, streamed execution.** The
//! model is untouched — every lookup still visits the subtables one by
//! one in probe order and reports one probe (and its stage units) per
//! visit. What changed is what a visit costs the *host*: the walk reads
//! two sequential streams instead of chasing a pointer per subtable.
//!
//! * **Probe-order rows.** `rows` holds one 40-byte `ProbeRow` per
//!   subtable, *in probe order*: the two L4 mask words, the head-class
//!   id, the tag region (base, log2 capacity), the stage cost, the
//!   staged flag and — while the subtable holds exactly one entry —
//!   that entry's tag. A probe of such a *singleton* (every subtable the
//!   attack creates: one megaflow per injected mask) is answered from
//!   the row: the packet's tag differs ⇒ miss, and the tag arena is
//!   never read, so a miss walk over attack masks reads one stream, not
//!   two. That is exact, not a filter: a lone entry sits at its ideal
//!   slot (`hash & (cap − 1)`) and its probe run ends at the next,
//!   empty, slot, so "the tags differ" is precisely [`flat::probe`]
//!   returning `Err`; on equality the probe goes on to `matches` at
//!   that slot as any tag match does. Rows of subtables with 0 or ≥ 2
//!   entries keep tag 0 (no entry's tag: `tag_of` sets the top bit) and
//!   probe the arena. Rejected: shrinking the minimum region 8 → 2
//!   slots reads the same bytes per probe but half the probes land on
//!   the occupied slot and the tag compare mispredicts — `colo_walk`
//!   0.74 s against 0.53 s before and 0.35 s with the row tag.
//! * **One tag arena.** Every subtable's hash tags live in one arena
//!   (`arena.rs`), each subtable owning a power-of-two region (min 8
//!   tags — one cache line's worth) managed by the same slice functions
//!   as [`crate::FlatTable`] ([`crate::flat`]: linear probing from `hash
//!   & (cap − 1)`, ×2 at 7/8 load, backshift delete). `(FlowKey, V)`
//!   payloads sit in a parallel arena touched only on a tag match.
//!   Regions are handed out append-only, so an attack's subtables —
//!   created in probe order — are laid out in probe order and the walk
//!   streams. A region left behind by growth or by a dropped subtable is
//!   dead space; once dead exceeds live the arena is compacted (verbatim
//!   region copies, probe order).
//! * **Shared head state.** A mask's words split at the L3/L4 boundary
//!   ([`MaskWords::split`]). The nine head words are interned into a
//!   refcounted class table; the packet's fold over them
//!   ([`KeyWords::head_state`]) is computed at most once per class per
//!   lookup (memoised in scratch the TSS owns, validated by a per-lookup
//!   stamp), and each probe finishes it with its row's two L4 words
//!   ([`KeyWords::finish_hash`]). The attack's masks differ mostly in
//!   their port prefixes, so a probe costs 2 mixes, not 11. The hash
//!   value is bit-identical to [`KeyWords::masked_hash`].
//!
//! The cold half of a subtable (`Subtable`: the `FlowMask`, hit count,
//! optional [`StagedIndex`], length) is read only on a tag match, a
//! staged probe or a write. One private walk serves `lookup_mut_with`,
//! `peek_with` and `lookup_best_by`. Callers that already hold the
//! packet's words (the datapath's batch path) use the `*_with` variants
//! to skip re-extraction; nothing allocates per lookup.

use std::cell::RefCell;
use std::collections::HashMap;

use pi_core::{FlowKey, FlowMask, KeyWords, MaskWords, MaskedKey, HEAD_WORDS, TAIL_WORDS};

use crate::arena::Arena;
use crate::flat::{self, MIN_CAPACITY};
use crate::staged::StagedIndex;

/// How the subtable list is ordered for the sequential walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubtableOrder {
    /// Masks are probed in the order they first appeared (OVS default
    /// behaviour absent the priority sorter). This is the configuration
    /// the paper attacks.
    Insertion,
    /// Subtables are periodically re-sorted by descending hit count, the
    /// countermeasure OVS ships as "subtable priority sorting". Victims
    /// with hot flows float toward the front of the walk.
    HitCountDescending {
        /// Re-sort after this many lookups.
        resort_every: u64,
    },
}

/// The hot half of a subtable: what one probe of the walk reads. Rows
/// are stored in probe order.
#[derive(Debug, Clone, Copy)]
struct ProbeRow {
    /// The mask's L4 words ([`MaskWords::split`]).
    tail: [u64; TAIL_WORDS],
    /// The tag of the subtable's only entry while it holds exactly one,
    /// else 0: the walk answers a singleton's probe from the row.
    lone_tag: u64,
    /// Base of the subtable's region in the arena.
    base: u32,
    /// Head-class id: index into `classes` and into the per-lookup memo.
    class: u32,
    /// Index of the cold half in `subtables`.
    sub: u32,
    /// log2 of the region's capacity.
    cap_log2: u8,
    /// Hash work of one full (non-staged) probe, in stage units: the
    /// number of protocol stages with mask bits (≥ 1). A staged probe
    /// that aborts at stage `k` costs `k` of these units.
    cost: u8,
    /// Whether the cold half carries a [`StagedIndex`] to consult first.
    staged: bool,
}

const _: () = assert!(std::mem::size_of::<ProbeRow>() == 40);

/// `ProbeRow::sub` of a row whose subtable was dropped, until the sweep
/// removes the row.
const DROPPED: u32 = u32::MAX;

/// The cold half of a subtable, in storage order (`swap_remove` on drop).
#[derive(Debug, Clone)]
struct Subtable {
    mask: FlowMask,
    /// Hits since creation (drives `HitCountDescending`).
    hits: u64,
    /// Optional staged membership index.
    staged: Option<StagedIndex>,
    /// Live entries in the region.
    len: usize,
    /// Position of the hot half in `rows`.
    row: u32,
}

/// One interned set of head mask words.
#[derive(Debug, Clone)]
struct HeadClass {
    head: [u64; HEAD_WORDS],
    /// Subtables whose mask has this head; the id is recycled at 0.
    refs: u32,
}

/// Per-lookup memo of [`KeyWords::head_state`] by class id. An entry is
/// valid only while its stamp equals the current lookup's, so nothing
/// computed for one packet can be served to the next.
#[derive(Debug, Clone, Default)]
struct HeadMemo {
    stamp: u32,
    states: Vec<(u32, u64)>,
}

impl HeadMemo {
    /// Starts a lookup over `classes` class ids; returns its stamp.
    fn begin(&mut self, classes: usize) -> u32 {
        if self.states.len() < classes {
            self.states.resize(classes, (0, 0));
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Wrapped: states stamped 2^32 lookups ago would read as
            // current again. 0 is never a live stamp.
            self.states.iter_mut().for_each(|s| s.0 = 0);
            self.stamp = 1;
        }
        self.stamp
    }
}

/// A canonical entry key's hash: the masked key is pre-masked, so its
/// full hash equals its masked hash under its subtable's mask — the
/// invariant that lets raw packets probe with the masked hash.
#[inline]
fn entry_hash(key: &FlowKey) -> u64 {
    KeyWords::of(key).full_hash()
}

/// [`ProbeRow::lone_tag`] of a region left with `len` entries by a
/// removal: the survivor's tag when it is alone, else 0.
fn lone_tag_of(len: usize, tags: &[u64]) -> u64 {
    match len {
        1 => tags.iter().copied().find(|&t| t != 0).unwrap_or(0),
        _ => 0,
    }
}

/// Counters accumulated across lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TssStats {
    /// Total lookups performed (hit or miss).
    pub lookups: u64,
    /// Total subtables probed across all lookups.
    pub subtables_probed: u64,
    /// Total stage checks performed (≥ probes when staged lookup is on;
    /// equals probes otherwise).
    pub stage_checks: u64,
    /// Lookups that found an entry.
    pub hits: u64,
}

impl TssStats {
    /// Mean subtables probed per lookup.
    pub fn avg_probes(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.subtables_probed as f64 / self.lookups as f64
        }
    }
}

/// Storage figures of a [`TupleSpaceSearch`] (capacity monitoring and
/// tests; none of it is modelled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TssStorage {
    /// Slots the tag arena spans, dead regions included.
    pub arena_slots: usize,
    /// Slots of regions left behind by growth or dropped subtables.
    pub dead_slots: usize,
    /// Slots the arena has allocated.
    pub arena_capacity: usize,
    /// Head-class ids in the class table, recycled ones included.
    pub head_classes: usize,
    /// Arena compactions since construction.
    pub compactions: u64,
    /// Probe rows carrying their subtable's only entry's tag — must
    /// equal the number of one-entry subtables.
    pub inline_rows: usize,
}

/// The outcome of a single lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupOutcome<T> {
    /// The first matching entry's payload, if any.
    pub value: Option<T>,
    /// How many subtables were visited (each visit costs a hash of the
    /// packet key under that subtable's mask).
    pub probes: usize,
    /// Stage checks performed (= probes without staged lookup).
    pub stage_checks: usize,
}

/// A Tuple Space Search classifier / cache store.
#[derive(Debug, Clone)]
pub struct TupleSpaceSearch<V> {
    /// Cold halves, storage order.
    subtables: Vec<Subtable>,
    /// Hot halves, probe order.
    rows: Vec<ProbeRow>,
    /// mask → index into `subtables`.
    index: HashMap<FlowMask, usize>,
    /// Every subtable's tags and, parallel to them, payloads.
    arena: Arena<V>,
    compactions: u64,
    /// Interned head mask words; `class_index` finds an id by words and
    /// `free_classes` holds ids whose refcount fell to 0.
    classes: Vec<HeadClass>,
    class_index: HashMap<[u64; HEAD_WORDS], u32>,
    free_classes: Vec<u32>,
    /// Scratch of the walk; a `RefCell` because `peek_with` walks `&self`.
    memo: RefCell<HeadMemo>,
    entry_count: usize,
    ordering: SubtableOrder,
    staged_enabled: bool,
    stats: TssStats,
    lookups_since_resort: u64,
}

impl<V> Default for TupleSpaceSearch<V> {
    fn default() -> Self {
        Self::new(SubtableOrder::Insertion)
    }
}

impl<V> TupleSpaceSearch<V> {
    /// An empty classifier with the given subtable ordering strategy.
    pub fn new(ordering: SubtableOrder) -> Self {
        TupleSpaceSearch {
            subtables: Vec::new(),
            rows: Vec::new(),
            index: HashMap::new(),
            arena: Arena::new(),
            compactions: 0,
            classes: Vec::new(),
            class_index: HashMap::new(),
            free_classes: Vec::new(),
            memo: RefCell::default(),
            entry_count: 0,
            ordering,
            staged_enabled: false,
            stats: TssStats::default(),
            lookups_since_resort: 0,
        }
    }

    /// Enables staged lookup for subtables created *after* this call
    /// (intended to be set at construction time).
    pub fn with_staged_lookup(mut self) -> Self {
        self.staged_enabled = true;
        self
    }

    /// Whether staged lookup is currently enabled.
    pub fn staged_lookup(&self) -> bool {
        self.staged_enabled
    }

    /// Toggles staged lookup at runtime. Enabling retrofits a
    /// [`StagedIndex`] onto every existing subtable (one pass over its
    /// entries), so lookups behave exactly as if the classifier had been
    /// built staged from the start; disabling drops the indexes. A
    /// no-op when the flag already matches.
    pub fn set_staged_lookup(&mut self, enabled: bool) {
        if self.staged_enabled == enabled {
            return;
        }
        self.staged_enabled = enabled;
        for st in &mut self.subtables {
            let row = &mut self.rows[st.row as usize];
            row.staged = enabled;
            st.staged = enabled.then(|| {
                let mut staged = StagedIndex::new(&st.mask);
                let slots = self.arena.slots(row.base, row.cap_log2);
                for (key, _) in slots.iter().flatten() {
                    staged.insert(key);
                }
                staged
            });
        }
    }

    /// Total entries across all subtables.
    pub fn len(&self) -> usize {
        self.entry_count
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Number of subtables — the paper's "#masks", the attack's target.
    pub fn subtable_count(&self) -> usize {
        self.subtables.len()
    }

    /// The distinct masks currently present, in probe order.
    pub fn masks(&self) -> Vec<FlowMask> {
        self.rows
            .iter()
            .map(|row| self.subtables[row.sub as usize].mask)
            .collect()
    }

    /// Accumulated lookup statistics.
    pub fn stats(&self) -> TssStats {
        self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = TssStats::default();
    }

    /// Arena and class-table occupancy.
    pub fn storage(&self) -> TssStorage {
        TssStorage {
            arena_slots: self.arena.allocated(),
            dead_slots: self.arena.dead(),
            arena_capacity: self.arena.capacity(),
            head_classes: self.classes.len(),
            compactions: self.compactions,
            inline_rows: self.rows.iter().filter(|row| row.lone_tag != 0).count(),
        }
    }

    /// Inserts an entry; returns the previous payload if the masked key
    /// was already present. Creates the subtable on first use of a mask.
    pub fn insert(&mut self, mk: MaskedKey, value: V) -> Option<V> {
        let (row, slot, spare) = self.find_or_place(&mk, value);
        let value = spare?;
        let stored = self.payload_mut(&row, slot)?;
        Some(std::mem::replace(stored, value))
    }

    /// Entry-style find-or-insert, one index lookup: the payload already
    /// stored under `mk` (untouched; `value` is dropped), or `None` once
    /// `value` has been inserted.
    pub fn find_or_insert(&mut self, mk: MaskedKey, value: V) -> Option<&mut V> {
        let (row, slot, spare) = self.find_or_place(&mk, value);
        spare.and_then(|_| self.payload_mut(&row, slot))
    }

    /// Finds `mk` or places `(mk, value)`; returns where the entry is
    /// (its row and the slot within the row's region) and, when the key
    /// was already present, `value` back.
    #[inline]
    fn find_or_place(&mut self, mk: &MaskedKey, value: V) -> (ProbeRow, usize, Option<V>) {
        let sub = match self.index.get(mk.mask()) {
            Some(&sub) => sub,
            None => self.add_subtable(*mk.mask()),
        };
        let hash = entry_hash(mk.key());
        let st = &mut self.subtables[sub];
        let row = self.rows[st.row as usize];
        let (tags, slots) = self.arena.region_mut(row.base, row.cap_log2);
        let free = match flat::probe(tags, hash, |i| flat::key_at(slots, i) == Some(mk.key())) {
            Ok(slot) => return (row, slot, Some(value)),
            Err(free) => free,
        };
        st.len += 1;
        // Set by the first entry, cleared by the second.
        let lone_tag = if st.len == 1 { flat::tag_of(hash) } else { 0 };
        self.rows[st.row as usize].lone_tag = lone_tag;
        if let Some(staged) = &mut st.staged {
            staged.insert(mk.key());
        }
        self.entry_count += 1;
        let entry = (*mk.key(), value);
        if !flat::overloaded(st.len, tags.len()) {
            // The presence scan already found the probe run's free slot.
            tags[free] = flat::tag_of(hash);
            slots[free] = Some(entry);
            return (row, free, None);
        }
        let grown = &mut self.rows[st.row as usize];
        grown.base = self.arena.grow(row.base, row.cap_log2);
        grown.cap_log2 += 1;
        self.maybe_compact();
        let row = self.rows[self.subtables[sub].row as usize];
        let (tags, slots) = self.arena.region_mut(row.base, row.cap_log2);
        (row, flat::place(tags, slots, hash, entry), None)
    }

    /// Appends a subtable for `mask` (empty, minimum-size region) to the
    /// storage and to the end of the probe order; returns its index.
    fn add_subtable(&mut self, mask: FlowMask) -> usize {
        let staged = StagedIndex::new(&mask);
        let cost = staged.stage_count().max(1) as u8;
        let (head, tail) = MaskWords::of(&mask).split();
        let class = self.intern_class(head);
        let base = self.arena.alloc(MIN_CAPACITY);
        let sub = self.subtables.len();
        // Rows address subtables (and classes: at most one each) with
        // u32, and keep `DROPPED` for the sweep.
        assert!(sub < DROPPED as usize, "too many subtables");
        self.subtables.push(Subtable {
            mask,
            hits: 0,
            staged: self.staged_enabled.then_some(staged),
            len: 0,
            row: self.rows.len() as u32,
        });
        self.rows.push(ProbeRow {
            tail,
            lone_tag: 0,
            base,
            class,
            sub: sub as u32,
            cap_log2: MIN_CAPACITY.trailing_zeros() as u8,
            cost,
            staged: self.staged_enabled,
        });
        self.index.insert(mask, sub);
        sub
    }

    /// The class id of `head`, interning it on first use.
    fn intern_class(&mut self, head: [u64; HEAD_WORDS]) -> u32 {
        if let Some(&id) = self.class_index.get(&head) {
            self.classes[id as usize].refs += 1;
            return id;
        }
        let class = HeadClass { head, refs: 1 };
        let id = match self.free_classes.pop() {
            Some(id) => {
                self.classes[id as usize] = class;
                id
            }
            None => {
                self.classes.push(class);
                (self.classes.len() - 1) as u32
            }
        };
        self.class_index.insert(head, id);
        id
    }

    /// Reclaims dead regions once they outweigh the live ones: every
    /// region moves verbatim into a fresh arena, in probe order.
    fn maybe_compact(&mut self) {
        if !self.arena.wants_compaction() {
            return;
        }
        let mut fresh = Arena::new();
        for row in &mut self.rows {
            row.base = fresh.adopt(&mut self.arena, row.base, row.cap_log2);
        }
        self.arena = fresh;
        self.compactions += 1;
    }

    /// Where `mk` is stored: its subtable's row and the slot within the
    /// row's region.
    fn find(&self, mk: &MaskedKey) -> Option<(ProbeRow, usize)> {
        let &sub = self.index.get(mk.mask())?;
        let row = self.rows[self.subtables[sub].row as usize];
        let tags = self.arena.tags(row.base, row.cap_log2);
        let slots = self.arena.slots(row.base, row.cap_log2);
        let is_match = |i| flat::key_at(slots, i) == Some(mk.key());
        let slot = flat::probe(tags, entry_hash(mk.key()), is_match).ok()?;
        Some((row, slot))
    }

    /// The payload in `slot` of `row`'s region.
    #[inline]
    fn payload(&self, row: &ProbeRow, slot: usize) -> Option<&V> {
        let slots = self.arena.slots(row.base, row.cap_log2);
        slots[slot].as_ref().map(|(_, v)| v)
    }

    /// Mutable [`TupleSpaceSearch::payload`].
    #[inline]
    fn payload_mut(&mut self, row: &ProbeRow, slot: usize) -> Option<&mut V> {
        let (_, slots) = self.arena.region_mut(row.base, row.cap_log2);
        slots[slot].as_mut().map(|(_, v)| v)
    }

    /// Fetches an entry by exact masked key.
    pub fn get(&self, mk: &MaskedKey) -> Option<&V> {
        let (row, slot) = self.find(mk)?;
        self.payload(&row, slot)
    }

    /// Mutable fetch by exact masked key.
    pub fn get_mut(&mut self, mk: &MaskedKey) -> Option<&mut V> {
        let (row, slot) = self.find(mk)?;
        self.payload_mut(&row, slot)
    }

    /// Removes an entry by masked key; drops the subtable if it empties.
    pub fn remove(&mut self, mk: &MaskedKey) -> Option<V> {
        let &sub = self.index.get(mk.mask())?;
        let st = &mut self.subtables[sub];
        let row = &mut self.rows[st.row as usize];
        let (tags, slots) = self.arena.region_mut(row.base, row.cap_log2);
        let is_match = |i| flat::key_at(slots, i) == Some(mk.key());
        let slot = flat::probe(tags, entry_hash(mk.key()), is_match).ok()?;
        let (_, removed) = flat::take_at(tags, slots, slot)?;
        self.entry_count -= 1;
        st.len -= 1;
        row.lone_tag = lone_tag_of(st.len, tags);
        if let Some(staged) = &mut st.staged {
            staged.remove(mk.key());
        }
        if st.len == 0 {
            self.drop_subtables(&[sub]);
        }
        Some(removed)
    }

    /// Drops the (empty) subtables at the storage indices `doomed`,
    /// which must be in descending order, in one sweep: storage shrinks
    /// by `swap_remove` in that order, the survivors keep their relative
    /// probe order, and the regions become dead space.
    fn drop_subtables(&mut self, doomed: &[usize]) {
        if doomed.is_empty() {
            return;
        }
        for &sub in doomed {
            let st = self.subtables.swap_remove(sub);
            self.index.remove(&st.mask);
            let row = &mut self.rows[st.row as usize];
            row.sub = DROPPED;
            self.arena.release(row.cap_log2);
            let class = row.class as usize;
            self.classes[class].refs -= 1;
            if self.classes[class].refs == 0 {
                self.class_index.remove(&self.classes[class].head);
                self.free_classes.push(class as u32);
            }
            if let Some(moved) = self.subtables.get(sub) {
                // The subtable formerly last now lives at `sub`.
                self.rows[moved.row as usize].sub = sub as u32;
                self.index.insert(moved.mask, sub);
            }
        }
        self.rows.retain(|row| row.sub != DROPPED);
        self.renumber_rows();
        self.maybe_compact();
    }

    /// Re-points every subtable at its row after rows moved.
    fn renumber_rows(&mut self) {
        for (i, row) in self.rows.iter().enumerate() {
            self.subtables[row.sub as usize].row = i as u32;
        }
    }

    /// The one subtable walk behind every lookup flavour: visits the
    /// rows in probe order and calls `on_hit(row, slot in its region)`
    /// for each subtable holding a match, stopping when it returns `true`.
    /// Returns `(probes, stage_checks)`.
    #[inline]
    // audit: hotpath
    fn walk(
        &self,
        packet: &FlowKey,
        words: &KeyWords,
        mut on_hit: impl FnMut(&ProbeRow, usize) -> bool,
    ) -> (usize, usize) {
        // Taken, not borrowed, for the walk's duration: `on_hit` runs
        // caller code (`lookup_best_by`'s rank), and a nested walk then
        // finds an empty memo to size, never a locked one.
        let mut memo = self.memo.take();
        let stamp = memo.begin(self.classes.len());
        // The previous row's class and state: runs of masks that differ
        // only in their ports skip even the memo.
        let (mut class, mut state) = (u32::MAX, 0);
        let mut probes = 0;
        let mut stage_checks = 0;
        for (visited, row) in self.rows.iter().enumerate() {
            probes = visited + 1;
            if row.staged {
                let (may, stages) = self.staged_probe(row, packet, words);
                stage_checks += stages;
                if !may {
                    continue;
                }
            } else {
                stage_checks += row.cost as usize;
            }
            if row.class != class {
                class = row.class;
                state = self.head_state(&mut memo, stamp, class, words);
            }
            let hash = words.finish_hash(state, &row.tail);
            let slot = if row.lone_tag != 0 {
                // A singleton: its entry sits at its ideal slot with an
                // empty slot behind it, so the row's tag decides the
                // probe exactly and a miss never reads the arena.
                let slot = hash as usize & ((1 << row.cap_log2) - 1);
                if row.lone_tag != flat::tag_of(hash) || !self.matches(row, slot, packet) {
                    continue;
                }
                slot
            } else {
                let tags = self.arena.tags(row.base, row.cap_log2);
                match flat::probe(tags, hash, |slot| self.matches(row, slot, packet)) {
                    Ok(slot) => slot,
                    Err(_) => continue,
                }
            };
            if on_hit(row, slot) {
                break;
            }
        }
        self.memo.replace(memo);
        (probes, stage_checks)
    }

    // The walk's rare steps, kept out of line so the common one — a
    // non-staged miss in the class of the row before — stays in registers.

    /// Consults `row`'s staged index: `(may_match, stages_examined)`.
    #[inline(never)]
    fn staged_probe(&self, row: &ProbeRow, packet: &FlowKey, words: &KeyWords) -> (bool, usize) {
        match &self.subtables[row.sub as usize].staged {
            Some(staged) => staged.probe_with(packet, words),
            None => (true, row.cost as usize),
        }
    }

    /// The packet's head state under `class`, folded at most once per
    /// lookup (`stamp`).
    #[inline(never)]
    fn head_state(&self, memo: &mut HeadMemo, stamp: u32, class: u32, words: &KeyWords) -> u64 {
        let memoised = &mut memo.states[class as usize];
        if memoised.0 != stamp {
            *memoised = (stamp, words.head_state(&self.classes[class as usize].head));
        }
        memoised.1
    }

    /// A tag matched in `slot` of `row`'s region: only now are the
    /// payload and the cold half's mask read.
    #[inline(never)]
    fn matches(&self, row: &ProbeRow, slot: usize, packet: &FlowKey) -> bool {
        let slots = self.arena.slots(row.base, row.cap_log2);
        let mask = &self.subtables[row.sub as usize].mask;
        flat::key_at(slots, slot).is_some_and(|k| mask.key_eq(k, packet))
    }

    /// Sequential-walk lookup **without** touching hit counters or stats
    /// — the pure variant used by tests and diagnostics.
    pub fn peek(&self, packet: &FlowKey) -> LookupOutcome<&V> {
        self.peek_with(packet, &KeyWords::of(packet))
    }

    /// [`TupleSpaceSearch::peek`] with the packet's words already
    /// extracted (batch callers hash once per packet, not per level).
    pub fn peek_with(&self, packet: &FlowKey, words: &KeyWords) -> LookupOutcome<&V> {
        let mut found = None;
        let (probes, stage_checks) = self.walk(packet, words, |row, slot| {
            found = Some((*row, slot));
            true
        });
        LookupOutcome {
            value: found.and_then(|(row, slot)| self.payload(&row, slot)),
            probes,
            stage_checks,
        }
    }

    /// Sequential-walk lookup, updating hit counters and statistics and
    /// periodically re-sorting subtables when hit-count ordering is
    /// enabled. Returns a *clone-free* outcome by index; use
    /// [`TupleSpaceSearch::lookup`] for the common case.
    pub(crate) fn lookup_mut(&mut self, packet: &FlowKey) -> LookupOutcome<&mut V> {
        self.lookup_mut_with(packet, &KeyWords::of(packet))
    }

    /// [`TupleSpaceSearch::lookup_mut`] with the packet's words already
    /// extracted — the datapath's hot path.
    // audit: hotpath
    pub fn lookup_mut_with(&mut self, packet: &FlowKey, words: &KeyWords) -> LookupOutcome<&mut V> {
        self.maybe_resort();
        self.stats.lookups += 1;
        self.lookups_since_resort += 1;

        let mut found = None;
        let (probes, stage_checks) = self.walk(packet, words, |row, slot| {
            found = Some((*row, slot));
            true
        });
        self.stats.subtables_probed += probes as u64;
        self.stats.stage_checks += stage_checks as u64;
        let value = match found {
            Some((row, slot)) => {
                self.stats.hits += 1;
                self.subtables[row.sub as usize].hits += 1;
                self.payload_mut(&row, slot)
            }
            None => None,
        };
        LookupOutcome {
            value,
            probes,
            stage_checks,
        }
    }

    /// Like [`TupleSpaceSearch::lookup_mut`] but returning a shared
    /// reference.
    pub fn lookup(&mut self, packet: &FlowKey) -> LookupOutcome<&V> {
        let out = self.lookup_mut(packet);
        LookupOutcome {
            value: out.value.map(|v| &*v),
            probes: out.probes,
            stage_checks: out.stage_checks,
        }
    }

    fn maybe_resort(&mut self) {
        if let SubtableOrder::HitCountDescending { resort_every } = self.ordering {
            if self.lookups_since_resort >= resort_every {
                self.lookups_since_resort = 0;
                let subtables = &self.subtables;
                self.rows
                    .sort_by_key(|row| std::cmp::Reverse(subtables[row.sub as usize].hits));
                self.renumber_rows();
            }
        }
    }

    /// Scans **all** subtables and returns the best match according to
    /// `rank` (highest wins) — the priority-aware classifier mode used
    /// when entries may overlap. Every probe is charged one stage unit.
    pub fn lookup_best_by<K: Ord>(
        &self,
        packet: &FlowKey,
        mut rank: impl FnMut(&V) -> K,
    ) -> LookupOutcome<&V> {
        let mut best: Option<(&V, K)> = None;
        let (probes, _) = self.walk(packet, &KeyWords::of(packet), |row, slot| {
            if let Some(v) = self.payload(row, slot) {
                let k = rank(v);
                if best.as_ref().map(|(_, bk)| k > *bk).unwrap_or(true) {
                    best = Some((v, k));
                }
            }
            false
        });
        LookupOutcome {
            value: best.map(|(v, _)| v),
            probes,
            stage_checks: probes,
        }
    }

    /// Keeps only the entries for which `keep` returns true (revalidator
    /// sweeps); empty subtables are dropped, all in one sweep.
    pub fn retain(&mut self, mut keep: impl FnMut(&MaskedKey, &mut V) -> bool) {
        let mut scratch = Vec::new();
        let mut doomed = Vec::new();
        for (sub, st) in self.subtables.iter_mut().enumerate() {
            let row = &mut self.rows[st.row as usize];
            let (tags, slots) = self.arena.region_mut(row.base, row.cap_log2);
            let mask = st.mask;
            let staged = &mut st.staged;
            let kept = flat::retain_in_place(tags, slots, &mut scratch, |k, v| {
                let kept = keep(&MaskedKey::new(*k, mask), v);
                if !kept {
                    if let Some(s) = staged {
                        s.remove(k);
                    }
                }
                kept
            });
            self.entry_count -= st.len - kept;
            st.len = kept;
            row.lone_tag = lone_tag_of(kept, tags);
            if kept == 0 {
                doomed.push(sub);
            }
        }
        // Drop from the back so earlier storage indices stay valid.
        doomed.reverse();
        self.drop_subtables(&doomed);
    }

    /// Iterates `(masked key, payload)` over every entry (subtable order,
    /// then arbitrary hash order within a subtable).
    pub fn iter(&self) -> impl Iterator<Item = (MaskedKey, &V)> {
        self.subtables.iter().flat_map(move |st| {
            let mask = st.mask;
            let row = &self.rows[st.row as usize];
            let slots = self.arena.slots(row.base, row.cap_log2);
            slots
                .iter()
                .flatten()
                .map(move |(k, v)| (MaskedKey::new(*k, mask), v))
        })
    }

    /// Removes everything, keeping the allocations.
    pub fn clear(&mut self) {
        self.subtables.clear();
        self.rows.clear();
        self.index.clear();
        self.arena.clear();
        self.classes.clear();
        self.class_index.clear();
        self.free_classes.clear();
        self.entry_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_core::Field;

    fn prefix_mk(ip: [u8; 4], len: u8) -> MaskedKey {
        MaskedKey::new(
            FlowKey::tcp(ip, [0, 0, 0, 0], 0, 0),
            pi_core::FlowMask::default().with_prefix(Field::IpSrc, len),
        )
    }

    #[test]
    fn insert_lookup_hit() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), "ten");
        tss.insert(prefix_mk([11, 0, 0, 0], 16), "eleven");
        let out = tss.lookup(&FlowKey::tcp([10, 5, 5, 5], [1, 1, 1, 1], 3, 4));
        assert_eq!(out.value, Some(&"ten"));
        assert_eq!(tss.subtable_count(), 2);
        assert_eq!(tss.len(), 2);
    }

    #[test]
    fn same_mask_shares_subtable() {
        let mut tss = TupleSpaceSearch::default();
        for b in 0u8..50 {
            tss.insert(prefix_mk([b, 0, 0, 0], 8), b);
        }
        assert_eq!(tss.subtable_count(), 1);
        assert_eq!(tss.len(), 50);
        // One subtable ⇒ one probe regardless of entry count.
        let out = tss.lookup(&FlowKey::tcp([30, 1, 1, 1], [0, 0, 0, 0], 0, 0));
        assert_eq!(out.value, Some(&30));
        assert_eq!(out.probes, 1);
    }

    #[test]
    fn probe_count_grows_with_masks_on_miss() {
        // The attack's mechanism in miniature: distinct masks force a
        // linear walk.
        let mut tss = TupleSpaceSearch::default();
        for len in 1..=32u8 {
            tss.insert(prefix_mk([10, 0, 0, 0], len), len);
        }
        assert_eq!(tss.subtable_count(), 32);
        let miss = tss.lookup(&FlowKey::tcp([128, 0, 0, 1], [0, 0, 0, 0], 0, 0));
        assert_eq!(miss.value, None);
        assert_eq!(miss.probes, 32, "a miss visits every subtable");
    }

    #[test]
    fn first_match_in_order_wins() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), "eight");
        tss.insert(prefix_mk([10, 0, 0, 0], 16), "sixteen");
        // Both match 10.0.x.x; insertion order probes /8 first.
        let out = tss.lookup(&FlowKey::tcp([10, 0, 7, 7], [0, 0, 0, 0], 0, 0));
        assert_eq!(out.value, Some(&"eight"));
        assert_eq!(out.probes, 1);
    }

    #[test]
    fn replace_returns_previous() {
        let mut tss = TupleSpaceSearch::default();
        assert_eq!(tss.insert(prefix_mk([10, 0, 0, 0], 8), 1), None);
        assert_eq!(tss.insert(prefix_mk([10, 0, 0, 0], 8), 2), Some(1));
        assert_eq!(tss.len(), 1);
    }

    #[test]
    fn remove_drops_empty_subtable_and_reindexes() {
        let mut tss = TupleSpaceSearch::default();
        let a = prefix_mk([10, 0, 0, 0], 8);
        let b = prefix_mk([10, 1, 0, 0], 16);
        let c = prefix_mk([10, 1, 1, 0], 24);
        tss.insert(a, 'a');
        tss.insert(b, 'b');
        tss.insert(c, 'c');
        assert_eq!(tss.subtable_count(), 3);
        assert_eq!(tss.remove(&a), Some('a'));
        assert_eq!(tss.subtable_count(), 2);
        // The swap_remove moved subtable c; lookups must still work.
        let out = tss.lookup(&FlowKey::tcp([10, 1, 1, 5], [0, 0, 0, 0], 0, 0));
        assert_eq!(out.value, Some(&'b')); // /16 matches 10.1.x.x
        let out = tss.peek(&FlowKey::tcp([10, 2, 0, 1], [0, 0, 0, 0], 0, 0));
        assert_eq!(out.value, None);
        assert_eq!(tss.remove(&b), Some('b'));
        assert_eq!(tss.remove(&c), Some('c'));
        assert_eq!(tss.subtable_count(), 0);
        assert!(tss.is_empty());
        assert_eq!(tss.remove(&a), None);
    }

    #[test]
    fn find_or_insert_reports_presence() {
        let mut tss = TupleSpaceSearch::default();
        let mk = prefix_mk([10, 0, 0, 0], 8);
        assert_eq!(tss.find_or_insert(mk, 1), None, "absent: inserted");
        assert_eq!(tss.len(), 1);
        // Present: the stored payload comes back untouched, and mutable.
        *tss.find_or_insert(mk, 2).unwrap() += 10;
        assert_eq!(tss.get(&mk), Some(&11));
        assert_eq!(tss.len(), 1);
        // Across a region growth the new entry is still the one stored.
        for b in 0..20u8 {
            assert_eq!(tss.find_or_insert(prefix_mk([b + 11, 0, 0, 0], 8), b), None);
        }
        assert_eq!(tss.subtable_count(), 1);
        assert_eq!(tss.get(&prefix_mk([30, 0, 0, 0], 8)), Some(&19));
    }

    #[test]
    fn head_memo_survives_stamp_wraparound() {
        // Two masks sharing one head class, so the second probe of a
        // lookup reads the memo the first one filled.
        let mask = |dst_len| {
            FlowMask::default()
                .with_prefix(Field::IpSrc, 8)
                .with_prefix(Field::TpDst, dst_len)
        };
        let mut tss = TupleSpaceSearch::default();
        let b = FlowKey::tcp([11, 0, 0, 1], [0, 0, 0, 0], 0, 443);
        tss.insert(MaskedKey::new(b, mask(4)), "coarse");
        tss.insert(MaskedKey::new(b, mask(16)), "b");
        assert_eq!(tss.storage().head_classes, 1);
        // Packet A leaves its head state in the memo under stamp 1.
        let a = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 80);
        assert_eq!(tss.lookup(&a).value, None);
        assert_eq!(tss.memo.borrow().stamp, 1);
        // 2^32 − 2 lookups later the counter wraps back onto stamp 1. A's
        // state must not be taken for B's.
        tss.memo.borrow_mut().stamp = u32::MAX;
        let b_other_port = FlowKey::tcp([11, 0, 0, 1], [0, 0, 0, 0], 0, 0x0fff);
        assert_eq!(tss.lookup(&b_other_port).value, Some(&"coarse"));
        assert_eq!(tss.memo.borrow().stamp, 1, "0 is skipped");
        assert_eq!(tss.lookup(&b).value, Some(&"coarse"));
        assert_eq!(tss.peek(&a).value, None);
    }

    #[test]
    fn storage_stays_bounded_over_many_populate_evict_cycles() {
        // 10 000 attack-and-recover cycles: 32 masks whose head classes
        // change from cycle to cycle, a subtable that grows, then either
        // the revalidator's idle sweep (`retain`, what
        // `MegaflowCache::evict_idle` runs) or a flush (`clear`).
        let mut tss = TupleSpaceSearch::default();
        for cycle in 0..10_000u32 {
            for i in 0..32u32 {
                let len = 1 + ((cycle + i) % 32) as u8;
                tss.insert(prefix_mk([10, 0, 0, 0], len), cycle);
            }
            for host in 0..40u8 {
                tss.insert(prefix_mk([10, 0, 0, host], 32), cycle);
            }
            let hit = tss.lookup(&FlowKey::tcp([10, 0, 0, 7], [0, 0, 0, 0], 0, 0));
            assert_eq!(hit.value, Some(&cycle));
            // Populated: 31 minimum regions, one grown to 64 slots, and
            // the 8 + 16 + 32 slots it grew out of — never more than
            // twice the live slots, in at most two segments.
            let full = tss.storage();
            assert!(full.arena_slots <= 2 * (31 * 8 + 64), "{full:?}");
            assert!(full.arena_capacity <= 2 * 512, "{full:?}");
            assert!(full.head_classes <= 32, "{full:?}");
            if cycle % 2 == 0 {
                tss.retain(|_, _| false);
            } else {
                tss.clear();
            }
            assert!(tss.is_empty());
            let empty = tss.storage();
            assert_eq!((empty.arena_slots, empty.dead_slots), (0, 0));
            assert!(empty.arena_capacity <= 512, "{empty:?}");
        }
        assert!(tss.memo.borrow().states.len() <= 32);
    }

    #[test]
    fn get_and_get_mut() {
        let mut tss = TupleSpaceSearch::default();
        let mk = prefix_mk([10, 0, 0, 0], 8);
        tss.insert(mk, 5);
        assert_eq!(tss.get(&mk), Some(&5));
        *tss.get_mut(&mk).unwrap() += 1;
        assert_eq!(tss.get(&mk), Some(&6));
        assert_eq!(tss.get(&prefix_mk([11, 0, 0, 0], 8)), None);
    }

    #[test]
    fn stats_accumulate() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), ());
        tss.insert(prefix_mk([11, 0, 0, 0], 16), ());
        let hit_key = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 0);
        let miss_key = FlowKey::tcp([200, 0, 0, 1], [0, 0, 0, 0], 0, 0);
        tss.lookup(&hit_key);
        tss.lookup(&miss_key);
        let s = tss.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.subtables_probed, 1 + 2);
        assert!(s.avg_probes() > 1.0);
        tss.reset_stats();
        assert_eq!(tss.stats(), TssStats::default());
    }

    #[test]
    fn peek_does_not_touch_stats() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), ());
        tss.peek(&FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 0));
        assert_eq!(tss.stats().lookups, 0);
    }

    #[test]
    fn hit_count_ordering_floats_hot_subtable_forward() {
        let mut tss = TupleSpaceSearch::new(SubtableOrder::HitCountDescending { resort_every: 10 });
        // 20 cold masks inserted first…
        for len in 1..=20u8 {
            tss.insert(prefix_mk([10, 0, 0, 0], len), len);
        }
        // …then a hot /32 entry probed last in insertion order.
        let hot_key = FlowKey::tcp([200, 9, 9, 9], [0, 0, 0, 0], 0, 0);
        tss.insert(prefix_mk([200, 9, 9, 9], 32), 99);
        let cold_probes = tss.lookup(&hot_key).probes;
        assert_eq!(cold_probes, 21);
        // Hammer the hot entry past the resort threshold.
        for _ in 0..30 {
            tss.lookup(&hot_key);
        }
        let warm_probes = tss.lookup(&hot_key).probes;
        assert_eq!(warm_probes, 1, "hot subtable must be probed first");
    }

    #[test]
    fn insertion_order_never_resorts() {
        let mut tss = TupleSpaceSearch::default();
        for len in 1..=5u8 {
            tss.insert(prefix_mk([10, 0, 0, 0], len), len);
        }
        let key = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 0);
        for _ in 0..100 {
            tss.lookup(&key);
        }
        // /1 still probed first (10.0.0.1 matches it: first bit 0).
        assert_eq!(tss.lookup(&key).probes, 1);
        assert_eq!(tss.lookup(&key).value, Some(&1));
    }

    #[test]
    fn lookup_best_by_scans_everything() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), 1u32); // low rank
        tss.insert(prefix_mk([10, 0, 0, 0], 16), 7u32); // high rank
        let key = FlowKey::tcp([10, 0, 3, 3], [0, 0, 0, 0], 0, 0);
        let out = tss.lookup_best_by(&key, |v| *v);
        assert_eq!(out.value, Some(&7));
        assert_eq!(out.probes, 2, "best-match mode cannot early-exit");
    }

    #[test]
    fn retain_sweeps_and_drops_subtables() {
        let mut tss = TupleSpaceSearch::default();
        for len in 1..=8u8 {
            tss.insert(prefix_mk([10, 0, 0, 0], len), len);
        }
        tss.retain(|_, v| *v % 2 == 0);
        assert_eq!(tss.len(), 4);
        assert_eq!(tss.subtable_count(), 4);
        let masks = tss.masks();
        assert!(masks
            .iter()
            .all(|m| m.field(Field::IpSrc).count_ones() % 2 == 0));
    }

    #[test]
    fn iter_visits_all_entries() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), 1);
        tss.insert(prefix_mk([11, 0, 0, 0], 8), 2);
        tss.insert(prefix_mk([12, 0, 0, 0], 16), 3);
        let mut values: Vec<i32> = tss.iter().map(|(_, v)| *v).collect();
        values.sort_unstable();
        assert_eq!(values, vec![1, 2, 3]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut tss = TupleSpaceSearch::default();
        tss.insert(prefix_mk([10, 0, 0, 0], 8), ());
        tss.clear();
        assert!(tss.is_empty());
        assert_eq!(tss.subtable_count(), 0);
        assert_eq!(tss.peek(&FlowKey::default()).probes, 0);
    }

    #[test]
    fn staged_lookup_reduces_stage_checks_on_metadata_mismatch() {
        let mut tss = TupleSpaceSearch::default().with_staged_lookup();
        // Entries pinned to in_port 1, matching ip+port too.
        for len in 1..=16u8 {
            let mk = MaskedKey::new(
                FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 80).with(Field::InPort, 1),
                pi_core::FlowMask::default()
                    .with_exact(Field::InPort)
                    .with_prefix(Field::IpSrc, len)
                    .with_exact(Field::TpDst),
            );
            tss.insert(mk, len);
        }
        // A packet from a different port fails every subtable at stage 1
        // of 3 — probes stay 16, but stage checks are 16, not 48.
        let mut foreign = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 80);
        foreign.in_port = 2;
        let out = tss.lookup(&foreign);
        assert_eq!(out.value, None);
        assert_eq!(out.probes, 16);
        assert_eq!(out.stage_checks, 16, "1 stage unit per aborted probe");
        // Without staged lookup the same walk hashes each subtable's full
        // 3-stage mask: 3 units per probe.
        let mut plain = TupleSpaceSearch::default();
        for len in 1..=16u8 {
            let mk = MaskedKey::new(
                FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 80).with(Field::InPort, 1),
                pi_core::FlowMask::default()
                    .with_exact(Field::InPort)
                    .with_prefix(Field::IpSrc, len)
                    .with_exact(Field::TpDst),
            );
            plain.insert(mk, len);
        }
        let out_plain = plain.lookup(&foreign);
        assert_eq!(out_plain.probes, 16);
        assert_eq!(out_plain.stage_checks, 48, "full hash work per probe");
        // When the mismatch is only at the last stage, staged lookup
        // saves nothing: same-port wrong-dst-port packet.
        let same_port_wrong_dst =
            FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 81).with(Field::InPort, 1);
        let staged_out = tss.lookup(&same_port_wrong_dst);
        let plain_out = plain.lookup(&same_port_wrong_dst);
        assert_eq!(staged_out.value, None);
        assert_eq!(plain_out.value, None);
        assert_eq!(staged_out.stage_checks, 48);
        assert_eq!(plain_out.stage_checks, 48);
    }

    #[test]
    fn set_staged_lookup_retrofits_existing_subtables() {
        // Same population as the mismatch test, but staged lookup is
        // flipped on *after* the entries exist: the retrofit must make
        // the classifier behave exactly like a natively staged one.
        let build = || {
            let mut tss = TupleSpaceSearch::default();
            for len in 1..=16u8 {
                let mk = MaskedKey::new(
                    FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 80).with(Field::InPort, 1),
                    pi_core::FlowMask::default()
                        .with_exact(Field::InPort)
                        .with_prefix(Field::IpSrc, len)
                        .with_exact(Field::TpDst),
                );
                tss.insert(mk, len);
            }
            tss
        };
        let mut retrofitted = build();
        assert!(!retrofitted.staged_lookup());
        retrofitted.set_staged_lookup(true);
        assert!(retrofitted.staged_lookup());
        let native = build();
        // Rebuild natively staged for comparison.
        let mut staged_native = TupleSpaceSearch::default().with_staged_lookup();
        for (mk, v) in native.iter() {
            staged_native.insert(mk, *v);
        }
        let mut foreign = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 80);
        foreign.in_port = 2;
        let a = retrofitted.lookup(&foreign);
        let b = staged_native.lookup(&foreign);
        assert_eq!(a.value, b.value);
        assert_eq!(a.probes, b.probes);
        assert_eq!(a.stage_checks, b.stage_checks);
        assert_eq!(a.stage_checks, 16, "staged abort at stage 1");
        // Hits are still found, and toggling back off restores full
        // hash work.
        let member = FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 0, 80).with(Field::InPort, 1);
        assert!(retrofitted.lookup(&member).value.is_some());
        retrofitted.set_staged_lookup(false);
        let off = retrofitted.lookup(&foreign);
        assert_eq!(off.stage_checks, 48, "full hash work once disabled");
    }

    #[test]
    fn staged_lookup_hits_still_found() {
        let mut tss = TupleSpaceSearch::default().with_staged_lookup();
        let mk = MaskedKey::new(
            FlowKey::tcp([10, 0, 0, 1], [0, 0, 0, 0], 5, 80).with(Field::InPort, 1),
            pi_core::FlowMask::default()
                .with_exact(Field::InPort)
                .with_exact(Field::IpSrc)
                .with_exact(Field::TpDst),
        );
        tss.insert(mk, "hit");
        let pkt = FlowKey::tcp([10, 0, 0, 1], [9, 9, 9, 9], 1234, 80).with(Field::InPort, 1);
        assert_eq!(tss.lookup(&pkt).value, Some(&"hit"));
        tss.remove(&mk);
        assert_eq!(tss.lookup(&pkt).value, None);
    }
}
