//! Deterministic random numbers without external dependencies.
//!
//! Core algorithms (hash seeding, witness generation, property helpers)
//! need reproducible randomness. Higher crates that want distributions use
//! the `rand` crate; down here a tiny, well-known generator keeps the
//! dependency graph clean and the behaviour identical on every platform.

/// SplitMix64: a tiny, fast, high-quality 64-bit PRNG.
///
/// This is the generator Vigna recommends for seeding xoshiro; its state
/// transition is a simple Weyl sequence, so it is trivially reproducible
/// and has no alignment or padding pitfalls.
///
/// ```
/// use pi_core::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Distinct seeds give independent
    /// streams for all practical purposes.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next 32 uniformly random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)` via Lemire's multiply-shift reduction
    /// (bias negligible for the bounds used in this workspace).
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(slice.len() as u64) as usize])
        }
    }

    /// Derives an independent child generator (for per-component streams).
    pub fn fork(&mut self) -> SplitMix64 {
        SplitMix64::new(self.next_u64())
    }
}

/// The deterministic generator for case `case` of the randomized-test
/// stream `tag`: every case gets its own seed, so a failure is
/// reproducible from the `(tag, case)` pair alone.
pub fn case_rng(tag: u64, case: u64) -> SplitMix64 {
    SplitMix64::new(tag ^ case.wrapping_mul(0x9e37_79b9))
}

/// Runs `body` for `cases` deterministic randomized cases — the
/// workspace's stand-in for property tests (external test frameworks
/// are unavailable offline). Each case receives the [`case_rng`] stream
/// for `(tag, case)`.
pub fn for_cases(cases: u64, tag: u64, mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..cases {
        body(&mut case_rng(tag, case));
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "a test may hash with `RandomState`"
)]
mod tests {
    use super::*;

    #[test]
    fn reference_values() {
        // First outputs for seed 0, cross-checked against the canonical
        // SplitMix64 reference implementation.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(rng.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn determinism_and_divergence() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let av: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let bv: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let cv: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(av, bv);
        assert_ne!(av, cv);
    }

    #[test]
    fn gen_range_within_bounds() {
        let mut rng = SplitMix64::new(1);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..100 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gen_range_zero_panics() {
        SplitMix64::new(1).gen_range(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SplitMix64::new(5);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_roughly_calibrated() {
        let mut rng = SplitMix64::new(123);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SplitMix64::new(77);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "shuffle left input sorted");
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = SplitMix64::new(3);
        let items = [1u8, 2, 3, 4];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(*rng.choose(&items).unwrap());
        }
        assert_eq!(seen.len(), 4);
        assert!(rng.choose::<u8>(&[]).is_none());
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SplitMix64::new(2024);
        let mut child1 = parent.fork();
        let mut child2 = parent.fork();
        assert_ne!(child1.next_u64(), child2.next_u64());
    }

    #[test]
    fn distribution_sanity_mean() {
        let mut rng = SplitMix64::new(55);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((0.48..0.52).contains(&mean), "mean={mean}");
    }
}
