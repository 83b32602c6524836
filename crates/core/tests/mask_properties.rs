//! Randomised property tests of the mask algebra: masking is idempotent,
//! union is monotone.
//!
//! These invariants underpin everything above: if masking were not
//! idempotent or union not monotone, the megaflow cache could silently
//! change classification semantics.
//!
//! The workspace builds without external dependencies, so instead of
//! `proptest` these run a fixed number of cases from the in-house
//! deterministic [`SplitMix64`] generator — same coverage intent,
//! perfectly reproducible failures (the case index pinpoints the seed).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test helpers: fail loudly

use pi_core::{FlowKey, FlowMask, MaskedKey, SplitMix64, ALL_FIELDS};

const CASES: u64 = 512;

fn rand_key(rng: &mut SplitMix64) -> FlowKey {
    let mut k = FlowKey::default();
    for f in ALL_FIELDS {
        k.set_field(f, rng.next_u64() & f.full_mask()).unwrap();
    }
    k
}

fn rand_mask(rng: &mut SplitMix64) -> FlowMask {
    let mut m = FlowMask::default();
    for f in ALL_FIELDS {
        m.set_field(f, rng.next_u64() & f.full_mask()).unwrap();
    }
    m
}

/// Runs `body` for `CASES` deterministic cases, each with its own RNG
/// stream so failures are reproducible from the reported case index.
#[test]
fn apply_is_idempotent() {
    pi_core::for_cases(CASES, 0x01, |rng| {
        let key = rand_key(rng);
        let mask = rand_mask(rng);
        let once = mask.apply(&key);
        assert_eq!(mask.apply(&once), once);
    });
}

#[test]
fn union_is_commutative_associative() {
    pi_core::for_cases(CASES, 0x02, |rng| {
        let (a, b, c) = (rand_mask(rng), rand_mask(rng), rand_mask(rng));
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
    });
}

#[test]
fn union_upper_bounds_inputs() {
    pi_core::for_cases(CASES, 0x03, |rng| {
        let (a, b) = (rand_mask(rng), rand_mask(rng));
        let u = a.union(&b);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
    });
}

#[test]
fn subset_iff_bitwise_implication() {
    pi_core::for_cases(CASES, 0x04, |rng| {
        let (a, b) = (rand_mask(rng), rand_mask(rng));
        let expected = ALL_FIELDS
            .iter()
            .all(|f| a.field(*f) & b.field(*f) == a.field(*f));
        assert_eq!(a.is_subset_of(&b), expected);
    });
}

#[test]
fn wider_mask_matches_fewer_packets() {
    pi_core::for_cases(CASES, 0x05, |rng| {
        let key = rand_key(rng);
        let pkt = rand_key(rng);
        let a = rand_mask(rng);
        let extra = rand_mask(rng);
        // Construct b ⊇ a, so matching under b implies matching under a.
        let b = a.union(&extra);
        assert!(a.is_subset_of(&b));
        let mk_a = MaskedKey::new(key, a);
        let mk_b = MaskedKey::new(key, b);
        if mk_b.matches(&pkt) {
            assert!(mk_a.matches(&pkt));
        }
    });
}

#[test]
fn masked_key_matches_its_witness() {
    pi_core::for_cases(CASES, 0x06, |rng| {
        let key = rand_key(rng);
        let mask = rand_mask(rng);
        let mk = MaskedKey::new(key, mask);
        assert!(mk.matches(&mk.witness()));
        // And the original key matches too (canonicalisation is sound).
        assert!(mk.matches(&key));
    });
}

#[test]
fn overlap_is_symmetric_and_reflexive() {
    pi_core::for_cases(CASES, 0x07, |rng| {
        let a = MaskedKey::new(rand_key(rng), rand_mask(rng));
        let b = MaskedKey::new(rand_key(rng), rand_mask(rng));
        assert_eq!(a.overlaps(&b), b.overlaps(&a));
        assert!(a.overlaps(&a));
    });
}

#[test]
fn subset_implies_overlap() {
    pi_core::for_cases(CASES, 0x08, |rng| {
        let a = MaskedKey::new(rand_key(rng), rand_mask(rng));
        let b = MaskedKey::new(rand_key(rng), rand_mask(rng));
        if a.is_subset_of(&b) {
            assert!(a.overlaps(&b));
        }
    });
}

#[test]
fn shared_match_implies_overlap() {
    pi_core::for_cases(CASES, 0x09, |rng| {
        let pkt = rand_key(rng);
        let a = MaskedKey::new(rand_key(rng), rand_mask(rng));
        let b = MaskedKey::new(rand_key(rng), rand_mask(rng));
        if a.matches(&pkt) && b.matches(&pkt) {
            assert!(a.overlaps(&b), "packet in both ⇒ masked keys overlap");
        }
    });
}

#[test]
fn key_field_round_trip() {
    pi_core::for_cases(CASES, 0x0a, |rng| {
        let key = rand_key(rng);
        let mut rebuilt = FlowKey::default();
        for f in ALL_FIELDS {
            rebuilt.set_field(f, key.field(f)).unwrap();
        }
        assert_eq!(rebuilt, key);
    });
}

#[test]
fn significant_bits_additive_under_disjoint_union() {
    pi_core::for_cases(CASES, 0x0b, |rng| {
        let (a, b) = (rand_mask(rng), rand_mask(rng));
        // counting |a| + |b| − |a∩b| = |a∪b| for per-bit sets
        let inter: u32 = ALL_FIELDS
            .iter()
            .map(|f| (a.field(*f) & b.field(*f)).count_ones())
            .sum();
        assert_eq!(
            a.union(&b).significant_bits(),
            a.significant_bits() + b.significant_bits() - inter
        );
    });
}
