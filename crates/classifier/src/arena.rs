//! The Tuple Space Search's tag and payload arenas.
//!
//! Every subtable owns one *region*: a power-of-two run of slots in a
//! tag array and, parallel to it, a payload array — a [`crate::flat`]
//! table laid out inside shared storage. Regions are handed out
//! append-only, so subtables created one after another (an attack's
//! masks) sit one after another and a walk over them streams.
//!
//! The storage is a list of small fixed-size segments rather than one
//! growing `Vec`: a `Vec` that doubles leaves its old buffers behind as
//! heap holes (measured on the benchmark's 8192-mask workload: +22 %
//! peak RSS with one `Vec`, +0 % with 4096-slot segments, −5 % with
//! these), while a full segment is never reallocated. A region never
//! straddles segments; one larger than a segment gets a segment of its
//! own, sized exactly.
//!
//! A region is named by its *base* (`segment << SEG_BITS | offset`) and
//! the log2 of its capacity. Growth ([`Arena::grow`]) and dropped
//! subtables ([`Arena::release`]) leave dead regions behind; once they
//! outweigh the live ones the owner compacts by [`Arena::adopt`]ing
//! every live region into a fresh arena.

use crate::flat::{self, Slot};

/// log2 of the slots in a regular segment.
const SEG_BITS: u32 = 9;
/// Slots in a regular segment: 64 minimum-size regions, one page of tags.
const SEG_SLOTS: usize = 1 << SEG_BITS;

#[derive(Debug, Clone)]
struct Segment<V> {
    tags: Vec<u64>,
    slots: Vec<Slot<V>>,
}

/// Segmented tag + payload storage; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Arena<V> {
    segs: Vec<Segment<V>>,
    /// Slots handed out so far, dead regions and skipped segment tails
    /// included.
    allocated: usize,
    /// The part of `allocated` no live region covers.
    dead: usize,
}

impl<V> Arena<V> {
    pub(crate) fn new() -> Self {
        Arena {
            segs: Vec::new(),
            allocated: 0,
            dead: 0,
        }
    }

    /// Slots handed out (dead ones included).
    pub(crate) fn allocated(&self) -> usize {
        self.allocated
    }

    /// Slots of dead regions.
    pub(crate) fn dead(&self) -> usize {
        self.dead
    }

    /// Slots the segments have reserved from the allocator.
    pub(crate) fn capacity(&self) -> usize {
        self.segs.iter().map(|seg| seg.tags.capacity()).sum()
    }

    /// True once dead regions outweigh live ones.
    pub(crate) fn wants_compaction(&self) -> bool {
        self.dead > self.allocated - self.dead
    }

    #[inline(always)]
    fn locate(base: u32, cap_log2: u8) -> (usize, std::ops::Range<usize>) {
        let off = base as usize & (SEG_SLOTS - 1);
        ((base >> SEG_BITS) as usize, off..off + (1usize << cap_log2))
    }

    /// Appends an empty region of `capacity` (a power of two) slots;
    /// returns its base.
    pub(crate) fn alloc(&mut self, capacity: usize) -> u32 {
        let room = match self.segs.last() {
            Some(seg) => SEG_SLOTS.saturating_sub(seg.tags.len()),
            None => 0,
        };
        if capacity > room {
            // The skipped tail is reclaimed with the dead regions.
            self.allocated += room;
            self.dead += room;
            // The first segment starts small and doubles like any `Vec`;
            // an arena that outgrows it is big, and gets whole segments.
            let reserve = match self.segs.len() {
                0 if capacity <= SEG_SLOTS => 0,
                _ => capacity.max(SEG_SLOTS),
            };
            self.segs.push(Segment {
                tags: Vec::with_capacity(reserve),
                slots: Vec::with_capacity(reserve),
            });
        }
        let seg = self.segs.len() - 1;
        assert!(seg >> (32 - SEG_BITS) == 0, "tag arena exceeds u32 bases");
        let tail = &mut self.segs[seg];
        let off = tail.tags.len();
        tail.tags.resize(off + capacity, 0);
        tail.slots.resize_with(off + capacity, || None);
        self.allocated += capacity;
        (seg << SEG_BITS | off) as u32
    }

    /// The tags of a region — all a missing probe reads.
    #[inline(always)]
    pub(crate) fn tags(&self, base: u32, cap_log2: u8) -> &[u64] {
        let (seg, range) = Self::locate(base, cap_log2);
        &self.segs[seg].tags[range]
    }

    /// The payload slots of a region, parallel to [`Arena::tags`].
    #[inline(always)]
    pub(crate) fn slots(&self, base: u32, cap_log2: u8) -> &[Slot<V>] {
        let (seg, range) = Self::locate(base, cap_log2);
        &self.segs[seg].slots[range]
    }

    /// A region's tags and payload slots, mutably.
    #[inline]
    pub(crate) fn region_mut(&mut self, base: u32, cap_log2: u8) -> (&mut [u64], &mut [Slot<V>]) {
        let (seg, range) = Self::locate(base, cap_log2);
        let seg = &mut self.segs[seg];
        (&mut seg.tags[range.clone()], &mut seg.slots[range])
    }

    /// Doubles a region: a new region at the arena's end, the entries
    /// rehashed into it in slot order, the old one dead. Returns the new
    /// base.
    pub(crate) fn grow(&mut self, base: u32, cap_log2: u8) -> u32 {
        let new_base = self.alloc(2 << cap_log2);
        let (old_seg, old) = Self::locate(base, cap_log2);
        let (new_seg, new) = Self::locate(new_base, cap_log2 + 1);
        let (old_tags, old_slots, new_tags, new_slots);
        if old_seg == new_seg {
            let seg = &mut self.segs[new_seg];
            let (lo, hi) = seg.tags.split_at_mut(new.start);
            (old_tags, new_tags) = (&mut lo[old.clone()], hi);
            let (lo, hi) = seg.slots.split_at_mut(new.start);
            (old_slots, new_slots) = (&mut lo[old], hi);
        } else {
            let (lo, hi) = self.segs.split_at_mut(new_seg);
            let (from, to) = (&mut lo[old_seg], &mut hi[0]);
            (old_tags, old_slots) = (&mut from.tags[old.clone()], &mut from.slots[old]);
            (new_tags, new_slots) = (&mut to.tags[new.clone()], &mut to.slots[new]);
        }
        flat::rehash(old_tags, old_slots, new_tags, new_slots);
        self.release(cap_log2);
        new_base
    }

    /// Marks a region dead (its subtable was dropped, or it was grown
    /// out of).
    pub(crate) fn release(&mut self, cap_log2: u8) {
        self.dead += 1 << cap_log2;
    }

    /// Moves a region of `from` verbatim — slot for slot, so no entry
    /// moves within its table — to the end of this arena; returns its
    /// base here.
    pub(crate) fn adopt(&mut self, from: &mut Arena<V>, base: u32, cap_log2: u8) -> u32 {
        let new_base = self.alloc(1 << cap_log2);
        let (tags, slots) = self.region_mut(new_base, cap_log2);
        let (from_tags, from_slots) = from.region_mut(base, cap_log2);
        tags.copy_from_slice(from_tags);
        for (slot, from_slot) in slots.iter_mut().zip(from_slots) {
            *slot = from_slot.take();
        }
        new_base
    }

    /// Drops every region, keeping the first segment's allocation (all a
    /// small table ever uses, so a flush storm costs no allocator
    /// traffic).
    pub(crate) fn clear(&mut self) {
        self.segs.truncate(1);
        if let Some(seg) = self.segs.first_mut() {
            seg.tags.clear();
            seg.slots.clear();
        }
        self.allocated = 0;
        self.dead = 0;
    }
}
