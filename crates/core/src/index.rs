//! The workspace's one ip → `u32` index: destination pod IP → pod slot
//! in a switch's pod table, and → hosting shard in the fleet's routing
//! view.
//!
//! Both readers consult it once per packet per hop, so the lookup is on
//! the per-packet path. [`IpIndex`] is a flat open-addressed table — one
//! multiply, one contiguous probe run, no per-instance random state (so
//! nothing is SipHashed and iteration-free lookups repeat bit for bit) —
//! and cloning it is a `memcpy`. Keys are the pod IPs the builder or the
//! CMS registered (inputs of the simulation, never adversarial to the
//! hash), and entries are only ever added or re-pointed: an insert on
//! a present key overwrites it and returns the old value (the fleet
//! builder's duplicate-pod check), a pod re-attach keeps its entry, and
//! pods do not leave a switch or the fleet. So there is no removal and
//! no tombstone.

/// One slot; `value == FREE` marks it unoccupied.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ip: u32,
    value: u32,
}

const FREE: u32 = u32::MAX;
const MIN_CAPACITY: usize = 8;

/// A deterministic ip → `u32` map: power-of-two capacity, Fibonacci
/// hashing, linear probing, load kept at or below one half.
#[derive(Debug, Clone)]
pub struct IpIndex {
    slots: Vec<Slot>,
    len: usize,
    /// `32 − log2(capacity)`: the hash keeps the product's top bits.
    shift: u32,
}

impl Default for IpIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl IpIndex {
    /// An empty table.
    pub fn new() -> Self {
        IpIndex {
            slots: vec![Slot { ip: 0, value: FREE }; MIN_CAPACITY],
            len: 0,
            shift: 32 - MIN_CAPACITY.trailing_zeros(),
        }
    }

    /// Indexed IPs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no IP is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, ip: u32) -> usize {
        (ip.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    /// The slot holding `ip`, or the free slot its probe run ends at.
    /// Terminates because the load factor keeps free slots in every run.
    // audit: hotpath
    #[inline]
    fn probe(&self, ip: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(ip);
        loop {
            let slot = self.slots[i];
            if slot.value == FREE || slot.ip == ip {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The value `ip` maps to, if any.
    #[inline]
    pub fn get(&self, ip: u32) -> Option<u32> {
        let slot = self.slots[self.probe(ip)];
        (slot.value != FREE).then_some(slot.value)
    }

    /// Maps `ip` to `value`; returns the value it pointed at before.
    /// `u32::MAX` is the free-slot marker and not a storable value.
    pub fn insert(&mut self, ip: u32, value: u32) -> Option<u32> {
        assert!(value != FREE, "u32::MAX marks a free slot");
        let mut at = self.probe(ip);
        let previous = self.slots[at].value;
        if previous == FREE {
            if (self.len + 1) * 2 > self.slots.len() {
                self.grow();
                at = self.probe(ip);
            }
            self.len += 1;
        }
        self.slots[at] = Slot { ip, value };
        (previous != FREE).then_some(previous)
    }

    fn grow(&mut self) {
        let doubled = vec![Slot { ip: 0, value: FREE }; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for slot in old.into_iter().filter(|s| s.value != FREE) {
            let at = self.probe(slot.ip);
            self.slots[at] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_overwrite_and_miss() {
        let mut t = IpIndex::new();
        assert!(t.is_empty());
        assert_eq!(t.get(0), None, "ip 0 is a key like any other");
        assert_eq!(t.insert(0, 3), None);
        assert_eq!(t.insert(0x0a00_0001, 0), None);
        assert_eq!(t.get(0), Some(3));
        assert_eq!(t.get(0x0a00_0001), Some(0));
        assert_eq!(t.insert(0, 5), Some(3), "an insert re-points a present key");
        assert_eq!(t.get(0), Some(5));
        assert_eq!(t.get(0x0a00_0002), None);
        assert_eq!(t.len(), 2);
    }
}
