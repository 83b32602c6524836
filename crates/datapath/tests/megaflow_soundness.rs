//! Randomised property tests for megaflow generation: the two
//! invariants below, which `tests/cache_semantics.rs` then checks end to
//! end through a live switch.
//!
//! Soundness: for every generated megaflow `(k, m, a)` and
//! every packet `p` with `p & m == k`, slow-path classification of `p`
//! yields `a`. The cache may be coarse or fine, but it must never change
//! what the flow table would have said.
//!
//! Non-overlap: megaflows generated from the same table
//! never disagree on a shared packet.
//!
//! Cases come from the deterministic in-house [`SplitMix64`] generator
//! (no external dependencies).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test helpers: fail loudly

use pi_classifier::table::whitelist_with_default_deny;
use pi_classifier::Action;
use pi_core::{Field, FlowKey, FlowMask, MaskedKey, SplitMix64};
use pi_datapath::SlowPath;

const CASES: u64 = 192;

/// Whitelists over ip_src prefixes and optional exact ports — the shape
/// every CMS dialect compiles to.
fn rand_whitelist(rng: &mut SplitMix64) -> Vec<MaskedKey> {
    let n = 1 + rng.gen_range(5);
    (0..n)
        .map(|_| {
            let ip = rng.next_u32();
            let len = 1 + rng.gen_range(32) as u8;
            let dst = rng.gen_bool(0.5).then(|| 1 + rng.gen_range(1023) as u16);
            let src = rng.gen_bool(0.5).then(|| 1 + rng.gen_range(1023) as u16);
            let mut key = FlowKey::tcp(std::net::Ipv4Addr::from(ip), [0, 0, 0, 0], 0, 0);
            let mut mask = FlowMask::default().with_prefix(Field::IpSrc, len);
            if let Some(d) = dst {
                key.tp_dst = d;
                mask = mask.with_exact(Field::TpDst);
            }
            if let Some(s) = src {
                key.tp_src = s;
                mask = mask.with_exact(Field::TpSrc);
            }
            MaskedKey::new(key, mask)
        })
        .collect()
}

fn rand_packet(rng: &mut SplitMix64) -> FlowKey {
    FlowKey::tcp(
        std::net::Ipv4Addr::from(rng.next_u32()),
        [10, 0, 0, 9],
        rng.next_u32() as u16,
        rng.next_u32() as u16,
    )
}

const TRIE_FIELDS: [Field; 3] = [Field::IpSrc, Field::TpSrc, Field::TpDst];

/// Randomised matching packets for a masked key: wildcarded bits filled
/// from a seeded RNG.
fn random_matching_packets(mk: &MaskedKey, seed: u64, n: usize) -> Vec<FlowKey> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            let mut p = *mk.key();
            for f in pi_core::ALL_FIELDS {
                let mask = mk.mask().field(f);
                let free = f.full_mask() & !mask;
                let v = (p.field(f) & mask) | (rng.next_u64() & free);
                p.set_field(f, v).unwrap();
            }
            p
        })
        .collect()
}

/// Invariant 3: every packet covered by a generated megaflow gets
/// the same verdict the slow path gives.
#[test]
fn megaflow_soundness() {
    pi_core::for_cases(CASES, 0x31, |rng| {
        let whitelist = rand_whitelist(rng);
        let trigger = rand_packet(rng);
        let seed = rng.next_u64();
        let sp = SlowPath::new(
            whitelist_with_default_deny(&whitelist),
            &TRIE_FIELDS,
            Action::Deny,
        );
        let up = sp.process_upcall(&trigger);
        // The triggering packet itself must be covered and agree.
        assert!(up.megaflow.matches(&trigger));
        assert_eq!(sp.classify(&trigger).0, up.action);
        // And so must arbitrary packets in the megaflow's cover.
        for p in random_matching_packets(&up.megaflow, seed, 16) {
            assert!(up.megaflow.matches(&p));
            assert_eq!(
                sp.classify(&p).0,
                up.action,
                "megaflow {} overgeneralises: packet {} differs from trigger {}",
                up.megaflow,
                p,
                trigger
            );
        }
    });
}

/// Invariant 4: megaflows generated for different packets either
/// don't overlap, or carry the same verdict (overlap with equal
/// verdicts is harmless; OVS guarantees full disjointness only per
/// identical mask, where hash replacement applies).
#[test]
fn megaflows_never_conflict() {
    pi_core::for_cases(CASES, 0x32, |rng| {
        let whitelist = rand_whitelist(rng);
        let a = rand_packet(rng);
        let b = rand_packet(rng);
        let sp = SlowPath::new(
            whitelist_with_default_deny(&whitelist),
            &TRIE_FIELDS,
            Action::Deny,
        );
        let ua = sp.process_upcall(&a);
        let ub = sp.process_upcall(&b);
        if ua.megaflow.overlaps(&ub.megaflow) {
            assert_eq!(
                ua.action, ub.action,
                "overlapping megaflows {} / {} with different verdicts",
                ua.megaflow, ub.megaflow
            );
        }
        // Same packet twice is deterministic.
        let ua2 = sp.process_upcall(&a);
        assert_eq!(ua.megaflow, ua2.megaflow);
        assert_eq!(ua.action, ua2.action);
    });
}

/// The megaflow always covers its triggering packet and is maximal
/// in the weak sense that it never exceeds the table's active bits.
#[test]
fn megaflow_mask_bounded_by_active_bits() {
    pi_core::for_cases(CASES, 0x33, |rng| {
        let whitelist = rand_whitelist(rng);
        let p = rand_packet(rng);
        let table = whitelist_with_default_deny(&whitelist);
        let active = table.active_mask();
        let sp = SlowPath::new(table, &TRIE_FIELDS, Action::Deny);
        let up = sp.process_upcall(&p);
        assert!(
            up.megaflow.mask().is_subset_of(&active),
            "unwildcarded bits outside any rule's mask"
        );
    });
}
