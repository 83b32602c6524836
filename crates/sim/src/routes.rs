//! The fleet's routing view: destination pod IP → hosting shard.
//!
//! Every shard holds its own copy and consults it once per uplink
//! packet, so the lookup is on the per-packet path. [`RouteTable`] is a
//! flat open-addressed table — one multiply, one contiguous probe run,
//! no per-instance random state — and cloning it for a shard is a
//! `memcpy`. Keys are the pod IPs the builder registered (inputs of the
//! simulation, never adversarial to the hash), entries are only ever
//! added or re-pointed (a migration overwrites; pods do not leave the
//! fleet), so there is no removal and no tombstone.

/// One slot; `shard == FREE` marks it unoccupied.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ip: u32,
    shard: u32,
}

const FREE: u32 = u32::MAX;
const MIN_CAPACITY: usize = 8;

/// A deterministic ip → shard map: power-of-two capacity, Fibonacci
/// hashing, linear probing, load kept at or below one half.
#[derive(Debug, Clone)]
pub struct RouteTable {
    slots: Vec<Slot>,
    len: usize,
    /// `32 − log2(capacity)`: the hash keeps the product's top bits.
    shift: u32,
}

impl Default for RouteTable {
    fn default() -> Self {
        Self::new()
    }
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        RouteTable {
            slots: vec![Slot { ip: 0, shard: FREE }; MIN_CAPACITY],
            len: 0,
            shift: 32 - MIN_CAPACITY.trailing_zeros(),
        }
    }

    /// Routed IPs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no IP is routed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, ip: u32) -> usize {
        (ip.wrapping_mul(0x9E37_79B9) >> self.shift) as usize
    }

    /// The slot holding `ip`, or the free slot its probe run ends at.
    /// Terminates because the load factor keeps free slots in every run.
    #[inline]
    fn probe(&self, ip: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(ip);
        loop {
            let slot = self.slots[i];
            if slot.shard == FREE || slot.ip == ip {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The shard hosting `ip`, if any.
    #[inline]
    pub fn get(&self, ip: u32) -> Option<usize> {
        let slot = self.slots[self.probe(ip)];
        (slot.shard != FREE).then_some(slot.shard as usize)
    }

    /// Routes `ip` to `shard`; returns the shard it pointed at before.
    pub fn insert(&mut self, ip: u32, shard: usize) -> Option<usize> {
        assert!(shard < FREE as usize, "shard id out of range");
        let mut at = self.probe(ip);
        let previous = self.slots[at].shard;
        if previous == FREE {
            if (self.len + 1) * 2 > self.slots.len() {
                self.grow();
                at = self.probe(ip);
            }
            self.len += 1;
        }
        self.slots[at] = Slot {
            ip,
            shard: shard as u32,
        };
        (previous != FREE).then_some(previous as usize)
    }

    fn grow(&mut self) {
        let doubled = vec![Slot { ip: 0, shard: FREE }; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        for slot in old.into_iter().filter(|s| s.shard != FREE) {
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
        let mut t = RouteTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(0), None, "ip 0 is a key like any other");
        assert_eq!(t.insert(0, 3), None);
        assert_eq!(t.insert(0x0a00_0001, 0), None);
        assert_eq!(t.get(0), Some(3));
        assert_eq!(t.get(0x0a00_0001), Some(0));
        assert_eq!(t.insert(0, 5), Some(3), "a migration overwrites");
        assert_eq!(t.get(0), Some(5));
        assert_eq!(t.get(0x0a00_0002), None);
        assert_eq!(t.len(), 2);
    }
}
