//! [`IpIndex`] — the flat ip → `u32` table on the per-packet path of
//! every switch (pod lookup) and every shard (routing) — against the
//! `HashMap<u32, u32>` it replaced, under random operations.

#![allow(
    clippy::disallowed_methods,
    reason = "a test may hash with `RandomState`"
)]

use std::collections::HashMap;

use pi_core::{IpIndex, SplitMix64};

#[test]
fn ip_index_agrees_with_a_hash_map_under_random_operations() {
    for seed in [2018u64, 7, 0xDEAD_BEEF] {
        let mut rng = SplitMix64::new(seed);
        let mut index = IpIndex::new();
        let mut model: HashMap<u32, u32> = HashMap::new();
        // Pod-like addresses (dense /24 blocks, so home slots collide
        // and probe runs form) mixed with arbitrary ones; 6 000 distinct
        // keys at most, so the table grows from 8 slots many times.
        let key = |rng: &mut SplitMix64| -> u32 {
            let r = rng.next_u64();
            if r & 1 == 0 {
                0x0a00_0000 | ((r >> 8) as u32 % 4_096)
            } else {
                ((r >> 16) as u32 % 2_048).wrapping_mul(0x0101_0101)
            }
        };
        for step in 0..40_000 {
            let ip = key(&mut rng);
            match rng.gen_range(4) {
                // Insert, or re-point a present key.
                0 | 1 => {
                    let value = rng.gen_range(128) as u32;
                    assert_eq!(
                        index.insert(ip, value),
                        model.insert(ip, value),
                        "seed {seed} step {step}: insert {ip:#x}"
                    );
                }
                // Lookup: a hit or a miss, whichever the model says.
                _ => assert_eq!(
                    index.get(ip),
                    model.get(&ip).copied(),
                    "seed {seed} step {step}: get {ip:#x}"
                ),
            }
            assert_eq!(index.len(), model.len());
        }
        assert!(model.len() > 3_000, "the table grew: {}", model.len());
        for (ip, value) in &model {
            assert_eq!(index.get(*ip), Some(*value));
        }
        assert_eq!(index.is_empty(), model.is_empty());
    }
}
