//! Randomised property test: Tuple Space Search agrees with the linear
//! reference classifier — the invariant PAPER.md's table cites as "the
//! walk is the cost: TSS lookup agrees with linear classification".
//!
//! Two regimes are pinned:
//! * **Non-overlapping entries** (the megaflow invariant): first-match
//!   TSS lookup must equal linear classification.
//! * **Arbitrary overlapping rules**: priority-aware TSS
//!   (`lookup_best_by`) must equal linear classification under OVS
//!   precedence.
//!
//! Cases are drawn from the deterministic in-house [`SplitMix64`]
//! generator (no external dependencies) — each case index is its own
//! reproducible seed.

#![allow(
    clippy::disallowed_methods,
    reason = "a test may hash with `RandomState`"
)]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test helpers: fail loudly

use pi_classifier::{
    Action, FlatTable, FlowTable, LinearClassifier, StagedIndex, SubtableOrder, TupleSpaceSearch,
};
use pi_core::{flow_hash, Field, FlowKey, FlowMask, MaskedKey, SplitMix64, Stage, ALL_FIELDS};
use std::collections::HashMap;

const CASES: u64 = 256;

/// A restricted rule universe that makes accidental matches likely
/// enough to be interesting: ip_src prefixes over four /8 roots plus
/// optional exact tp_dst from a small port set.
fn rand_masked_key(rng: &mut SplitMix64) -> MaskedKey {
    let root = rng.gen_range(4) as u32;
    let len = rng.gen_range(33) as u8;
    let port_sel = rng.gen_range(3) as usize;
    let host = rng.next_u32();
    let ip = ((10 + root) << 24) | (host & 0x00ff_ffff);
    let mut mask = FlowMask::default();
    if len > 0 {
        mask = mask.with_prefix(Field::IpSrc, len);
    }
    let mut key = FlowKey::tcp(std::net::Ipv4Addr::from(ip), [192, 168, 0, 1], 0, 0);
    if port_sel > 0 {
        mask = mask.with_exact(Field::TpDst);
        key.tp_dst = [80u16, 443][port_sel - 1];
    }
    MaskedKey::new(key, mask)
}

fn rand_packet(rng: &mut SplitMix64) -> FlowKey {
    let root = rng.gen_range(6) as u32;
    let host = rng.next_u32();
    let port = [80u16, 443, 8080][rng.gen_range(3) as usize];
    let ip = ((9 + root) << 24) | (host & 0x00ff_ffff);
    FlowKey::tcp(std::net::Ipv4Addr::from(ip), [192, 168, 0, 1], 1234, port)
}

fn rand_vec<T>(
    rng: &mut SplitMix64,
    lo: u64,
    hi: u64,
    mut gen: impl FnMut(&mut SplitMix64) -> T,
) -> Vec<T> {
    let n = lo + rng.gen_range(hi - lo);
    (0..n).map(|_| gen(rng)).collect()
}

/// Non-overlapping regime: build disjoint exact-ish entries, compare
/// first-match TSS against a table of the same rules.
#[test]
fn tss_equals_linear_on_non_overlapping() {
    pi_core::for_cases(CASES, 0x11, |rng| {
        let seeds = rand_vec(rng, 1, 40, rand_masked_key);
        let packets = rand_vec(rng, 1, 40, rand_packet);
        // Keep only mutually non-overlapping masked keys (greedy filter).
        let mut chosen: Vec<MaskedKey> = Vec::new();
        for mk in seeds {
            if chosen.iter().all(|c| !c.overlaps(&mk)) {
                chosen.push(mk);
            }
        }
        let mut tss = TupleSpaceSearch::default();
        let mut table = FlowTable::new();
        for (i, mk) in chosen.iter().enumerate() {
            tss.insert(*mk, i);
            table.insert(
                *mk,
                0,
                if i % 2 == 0 {
                    Action::Allow
                } else {
                    Action::Deny
                },
            );
        }
        let linear = LinearClassifier::new(&table);
        for pkt in &packets {
            let tss_hit = tss.peek(pkt).value.copied();
            let lin_hit = linear.classify(pkt).map(|r| r.id.0 as usize);
            // Rule ids equal insertion sequence = our payload indices.
            assert_eq!(tss_hit, lin_hit, "packet {}", pkt);
        }
    });
}

/// Overlapping regime: same rules in both engines; priority-aware
/// TSS must reproduce linear's precedence choice exactly.
#[test]
fn priority_tss_equals_linear_on_overlapping() {
    pi_core::for_cases(CASES, 0x12, |rng| {
        let entries = rand_vec(rng, 1, 40, |rng| {
            (rand_masked_key(rng), rng.gen_range(4) as u32)
        });
        let packets = rand_vec(rng, 1, 40, rand_packet);
        let mut tss: TupleSpaceSearch<(u32, u64)> = TupleSpaceSearch::default();
        let mut table = FlowTable::new();
        for (mk, prio) in &entries {
            let id = table.insert(*mk, *prio, Action::Allow);
            // TSS with identical (mask,key) collides; keep the winner the
            // same way OVS would: higher (priority, earlier id) stays.
            match tss.get_mut(mk) {
                Some(existing) => {
                    let candidate = (*prio, u64::MAX - id.0);
                    if candidate > *existing {
                        *existing = candidate;
                    }
                }
                None => {
                    tss.insert(*mk, (*prio, u64::MAX - id.0));
                }
            }
        }
        let linear = LinearClassifier::new(&table);
        for pkt in &packets {
            let tss_best = tss.lookup_best_by(pkt, |v| *v).value.copied();
            let lin_best = linear
                .classify(pkt)
                .map(|r| (r.priority, u64::MAX - r.id.0));
            assert_eq!(tss_best, lin_best, "packet {}", pkt);
        }
    });
}

/// Mask-count law for the classifier: the number of subtables equals
/// the number of distinct masks inserted.
#[test]
fn subtable_count_equals_distinct_masks() {
    pi_core::for_cases(CASES, 0x13, |rng| {
        let entries = rand_vec(rng, 1, 60, rand_masked_key);
        let mut tss = TupleSpaceSearch::default();
        let mut distinct: Vec<FlowMask> = Vec::new();
        for mk in &entries {
            tss.insert(*mk, ());
            if !distinct.contains(mk.mask()) {
                distinct.push(*mk.mask());
            }
        }
        assert_eq!(tss.subtable_count(), distinct.len());
    });
}

/// One subtable of the reference model.
struct RefSubtable {
    mask: FlowMask,
    /// Full probe cost = active stage count of the mask (≥ 1), the same
    /// rule the engine derives via `StagedIndex`.
    cost: usize,
    entries: HashMap<FlowKey, u64>,
    /// The same entries in a standalone [`FlatTable`] fed the same
    /// per-subtable operations: the slot order an arena region must
    /// reproduce (both run the `flat` slice functions).
    layout: FlatTable<u64>,
    hits: u64,
}

/// A straight-line reference model of `TupleSpaceSearch` built on std
/// `HashMap` subtables: one subtable per distinct mask, kept in probe
/// order and walked sequentially, with the same stats accounting, staged
/// stage counting, hit-count resorting, and — separately — the
/// `swap_remove` storage order `iter()` exposes. The real engine's
/// probe-order rows, tag arena, interned head classes and one-pass
/// hashing must be observationally indistinguishable from this — values,
/// probe counts, stage units, counters and iteration order.
struct ReferenceTss {
    /// Probe order.
    subtables: Vec<RefSubtable>,
    /// Storage order: masks, appended on creation, `swap_remove`d on drop.
    storage: Vec<FlowMask>,
    staged: bool,
    resort_every: Option<u64>,
    lookups_since_resort: u64,
    lookups: u64,
    subtables_probed: u64,
    stage_checks: u64,
    hits: u64,
    /// Distinct head-word sets that appeared since the last `clear`, and
    /// the most that were ever present at once since then.
    head_births: usize,
    heads_peak: usize,
}

/// A mask's words before the L4 stage: what the engine interns.
fn head_of(mask: &FlowMask) -> Vec<u64> {
    ALL_FIELDS
        .iter()
        .filter(|f| f.stage() != Stage::L4)
        .map(|f| mask.field(*f))
        .collect()
}

/// Staged probe by definition: for each stage with mask bits, in order,
/// is there an entry agreeing with the packet on every bit up to and
/// including that stage? Returns `(may_match, stages_examined)`.
fn staged_probe(st: &RefSubtable, packet: &FlowKey) -> (bool, usize) {
    let mut cumulative = FlowMask::WILDCARD;
    let mut stages = 0;
    for stage in Stage::ALL {
        let before = cumulative;
        for f in ALL_FIELDS.iter().filter(|f| f.stage() == stage) {
            cumulative.unwildcard(*f, st.mask.field(*f));
        }
        if cumulative == before {
            continue;
        }
        stages += 1;
        if !st.entries.keys().any(|k| cumulative.key_eq(k, packet)) {
            return (false, stages);
        }
    }
    (true, stages.max(1))
}

impl ReferenceTss {
    fn new(resort_every: Option<u64>) -> Self {
        ReferenceTss {
            subtables: Vec::new(),
            storage: Vec::new(),
            staged: false,
            resort_every,
            lookups_since_resort: 0,
            lookups: 0,
            subtables_probed: 0,
            stage_checks: 0,
            hits: 0,
            head_births: 0,
            heads_peak: 0,
        }
    }

    /// The heads present, sorted, one per subtable (repeats kept).
    fn heads(&self) -> Vec<Vec<u64>> {
        let mut heads: Vec<Vec<u64>> = self.subtables.iter().map(|s| head_of(&s.mask)).collect();
        heads.sort();
        heads
    }

    fn distinct_heads(&self) -> usize {
        let mut heads = self.heads();
        heads.dedup();
        heads.len()
    }

    /// Heads held by ≥ 2 subtables: the classes the engine gates.
    fn shared_heads(&self) -> usize {
        let heads = self.heads();
        let mut shared = heads
            .windows(2)
            .filter(|w| w[0] == w[1])
            .map(|w| &w[0])
            .collect::<Vec<_>>();
        shared.dedup();
        shared.len()
    }

    fn insert(&mut self, mk: &MaskedKey, v: u64) -> Option<u64> {
        let pos = self.subtables.iter().position(|s| s.mask == *mk.mask());
        let idx = match pos {
            Some(i) => i,
            None => {
                let head = head_of(mk.mask());
                if self.subtables.iter().all(|s| head_of(&s.mask) != head) {
                    self.head_births += 1;
                }
                self.subtables.push(RefSubtable {
                    mask: *mk.mask(),
                    cost: StagedIndex::new(mk.mask()).stage_count().max(1),
                    entries: HashMap::new(),
                    layout: FlatTable::new(),
                    hits: 0,
                });
                self.storage.push(*mk.mask());
                self.heads_peak = self.heads_peak.max(self.distinct_heads());
                self.subtables.len() - 1
            }
        };
        let st = &mut self.subtables[idx];
        st.layout.insert(flow_hash(mk.key()), *mk.key(), v);
        st.entries.insert(*mk.key(), v)
    }

    fn remove(&mut self, mk: &MaskedKey) -> Option<u64> {
        let idx = self.subtables.iter().position(|s| s.mask == *mk.mask())?;
        let st = &mut self.subtables[idx];
        let removed = st.entries.remove(mk.key());
        st.layout.remove(flow_hash(mk.key()), mk.key());
        if removed.is_some() && st.entries.is_empty() {
            // Survivors keep their relative probe order; storage closes
            // the gap with its last element.
            self.subtables.remove(idx);
            let at = self.storage.iter().position(|m| m == mk.mask()).unwrap();
            self.storage.swap_remove(at);
        }
        removed
    }

    fn retain(&mut self, mut keep: impl FnMut(u64) -> bool) {
        for st in &mut self.subtables {
            st.entries.retain(|_, v| keep(*v));
            st.layout.retain(|_, v| keep(*v));
        }
        self.subtables.retain(|s| !s.entries.is_empty());
        // Emptied subtables leave storage from the back.
        for at in (0..self.storage.len()).rev() {
            if self.subtables.iter().all(|s| s.mask != self.storage[at]) {
                self.storage.swap_remove(at);
            }
        }
    }

    fn clear(&mut self) {
        self.subtables.clear();
        self.storage.clear();
        self.head_births = 0;
        self.heads_peak = 0;
    }

    /// The sequential walk: `(hit subtable and value, probes, stages)`.
    fn walk(&self, packet: &FlowKey) -> (Option<(usize, u64)>, usize, usize) {
        let mut probes = 0;
        let mut stage_checks = 0;
        for (i, st) in self.subtables.iter().enumerate() {
            probes += 1;
            if self.staged {
                let (may, stages) = staged_probe(st, packet);
                stage_checks += stages;
                if !may {
                    continue;
                }
            } else {
                stage_checks += st.cost;
            }
            if let Some(v) = st.entries.get(&st.mask.apply(packet)) {
                return (Some((i, *v)), probes, stage_checks);
            }
        }
        (None, probes, stage_checks)
    }

    /// The walk with stats, hit counts and resorting, mirroring `lookup`.
    fn lookup(&mut self, packet: &FlowKey) -> (Option<u64>, usize, usize) {
        if let Some(every) = self.resort_every {
            if self.lookups_since_resort >= every {
                self.lookups_since_resort = 0;
                self.subtables.sort_by_key(|s| std::cmp::Reverse(s.hits));
            }
        }
        self.lookups += 1;
        self.lookups_since_resort += 1;
        let (hit, probes, stage_checks) = self.walk(packet);
        if let Some((i, _)) = hit {
            self.hits += 1;
            self.subtables[i].hits += 1;
        }
        self.subtables_probed += probes as u64;
        self.stage_checks += stage_checks as u64;
        (hit.map(|(_, v)| v), probes, stage_checks)
    }

    /// The walk without side effects, mirroring `peek`.
    fn peek(&self, packet: &FlowKey) -> (Option<u64>, usize, usize) {
        let (hit, probes, stage_checks) = self.walk(packet);
        (hit.map(|(_, v)| v), probes, stage_checks)
    }

    fn len(&self) -> usize {
        self.subtables.iter().map(|s| s.entries.len()).sum()
    }

    /// What `iter()` must yield, in order: subtables in storage order,
    /// each in its flat table's slot order.
    fn iter_sequence(&self) -> Vec<(MaskedKey, u64)> {
        self.storage
            .iter()
            .flat_map(|mask| {
                let st = self.subtables.iter().find(|s| s.mask == *mask).unwrap();
                st.layout
                    .iter()
                    .map(|(k, v)| (MaskedKey::new(*k, *mask), *v))
            })
            .collect()
    }
}

/// Masks that share one head (ip_src/8, ip_dst exact) and differ only in
/// their tp_src / tp_dst prefix lengths — the shape the injected ACLs
/// produce, and the case the shared head state exists for.
fn rand_shared_head_key(rng: &mut SplitMix64) -> MaskedKey {
    let mask = FlowMask::default()
        .with_prefix(Field::IpSrc, 8)
        .with_exact(Field::IpDst)
        .with_prefix(Field::TpSrc, rng.gen_range(5) as u8 * 4)
        .with_prefix(Field::TpDst, rng.gen_range(5) as u8 * 4);
    let ports = [80u16, 443, 0x8000, 0xffff];
    let key = FlowKey::tcp(
        [10, rng.gen_range(2) as u8, 0, 1],
        [192, 168, 0, 1],
        ports[rng.gen_range(4) as usize],
        ports[rng.gen_range(4) as usize],
    );
    MaskedKey::new(key, mask)
}

/// The converse: one tail (tp_dst exact) under heads that differ in the
/// ip_src prefix length, the ingress port or the protocol.
fn rand_shared_tail_key(rng: &mut SplitMix64) -> MaskedKey {
    let mut mask = FlowMask::default()
        .with_prefix(Field::IpSrc, 4 + rng.gen_range(6) as u8 * 4)
        .with_exact(Field::TpDst);
    if rng.gen_bool(0.3) {
        mask = mask.with_exact(Field::InPort);
    }
    if rng.gen_bool(0.3) {
        mask = mask.with_exact(Field::IpProto);
    }
    let key = FlowKey::tcp([10, 0, rng.gen_range(2) as u8, 1], [192, 168, 0, 1], 7, 443)
        .with(Field::InPort, rng.gen_range(2));
    MaskedKey::new(key, mask)
}

/// Three heads (ip_src /8, /16, /24) × 16 tails (tp_src and tp_dst
/// prefixes of 4–16 bits), 1–3 entries per mask: the attack's geometry in
/// miniature, where classes hold many subtables and so are gated.
fn rand_gated_pool(rng: &mut SplitMix64) -> Vec<MaskedKey> {
    let mut pool = Vec::new();
    for _ in 0..4 + rng.gen_range(12) {
        let mask = FlowMask::default()
            .with_prefix(Field::IpSrc, 8 * (1 + rng.gen_range(3) as u8))
            .with_prefix(Field::TpSrc, 4 * (1 + rng.gen_range(4) as u8))
            .with_prefix(Field::TpDst, 4 * (1 + rng.gen_range(4) as u8));
        for _ in 0..1 + rng.gen_range(3) {
            pool.push(MaskedKey::new(rand_gated_packet(rng), mask));
        }
    }
    pool
}

/// Packets over a handful of sources: under a gated class a packet
/// shares its head with no entry, one or several.
fn rand_gated_packet(rng: &mut SplitMix64) -> FlowKey {
    let sources = [
        [10, 0, 0, 1],
        [10, 0, 1, 1],
        [10, 1, 0, 1],
        [10, 2, 0, 1],
        [11, 0, 0, 1],
    ];
    let ports = [80u16, 443, 0x8000, 0xffff];
    FlowKey::tcp(
        *rng.choose(&sources).unwrap(),
        [192, 168, 0, 1],
        *rng.choose(&ports).unwrap(),
        *rng.choose(&ports).unwrap(),
    )
}

/// Every observable of the engine against the reference.
fn assert_same_state(tss: &TupleSpaceSearch<u64>, reference: &ReferenceTss) {
    assert_eq!(tss.len(), reference.len());
    assert_eq!(tss.subtable_count(), reference.subtables.len());
    assert_eq!(
        tss.masks(),
        reference
            .subtables
            .iter()
            .map(|s| s.mask)
            .collect::<Vec<_>>(),
        "probe order must match the reference"
    );
    let s = tss.stats();
    assert_eq!(s.lookups, reference.lookups);
    assert_eq!(s.subtables_probed, reference.subtables_probed);
    assert_eq!(s.stage_checks, reference.stage_checks);
    assert_eq!(s.hits, reference.hits);
    // Exact iteration sequence — in particular identical before and
    // after any arena compaction the last operation triggered.
    let ours: Vec<(MaskedKey, u64)> = tss.iter().map(|(mk, v)| (mk, *v)).collect();
    assert_eq!(ours, reference.iter_sequence(), "iter() sequence");
    // One class id per head present at once, recycled, never leaked.
    let storage = tss.storage();
    assert_eq!(storage.head_classes, reference.heads_peak);
    assert!(storage.dead_slots * 2 <= storage.arena_slots);
    // A row carries its subtable's tag exactly while the subtable holds
    // one entry. No lookup can tell: a row that lost its tag still
    // answers correctly, just from the arena.
    let singletons = reference.subtables.iter().filter(|s| s.entries.len() == 1);
    assert_eq!(storage.inline_rows, singletons.count(), "rows with a tag");
    // A class keeps a gate exactly while it holds ≥ 2 subtables.
    assert_eq!(
        storage.gated_classes,
        reference.shared_heads(),
        "gated classes"
    );
}

/// Differential test: a randomized interleaving of inserts, removes,
/// lookups, peeks, `retain` sweeps, growth bursts, staged-lookup toggles
/// and `clear`s drives the engine and the HashMap reference in
/// lock-step, under both subtable orderings; every observable — returned
/// values, probe and stage counts, subtable count, entry count, masks in
/// probe order, the accumulated [`pi_classifier::TssStats`] and the
/// exact `iter()` sequence — must match after every operation.
#[test]
fn flat_subtables_match_hashmap_reference_model() {
    pi_core::for_cases(CASES, 0x15, |rng| {
        let resort_every = rng.gen_bool(0.5).then(|| 1 + rng.gen_range(12));
        let mut tss: TupleSpaceSearch<u64> = TupleSpaceSearch::new(match resort_every {
            Some(resort_every) => SubtableOrder::HitCountDescending { resort_every },
            None => SubtableOrder::Insertion,
        });
        let mut reference = ReferenceTss::new(resort_every);
        // Draw keys from a small pool so removes and re-inserts of the
        // same masked key actually happen.
        let mut pool = rand_vec(rng, 8, 24, rand_masked_key);
        pool.extend(rand_vec(rng, 4, 12, rand_shared_head_key));
        pool.extend(rand_vec(rng, 4, 12, rand_shared_tail_key));
        pool.extend(rand_gated_pool(rng));
        let mut reused_class_ids = false;
        for op in 0..400u64 {
            match rng.gen_range(16) {
                0..=5 => {
                    let mk = *rng.choose(&pool).unwrap();
                    assert_eq!(tss.insert(mk, op), reference.insert(&mk, op));
                }
                6..=8 => {
                    let mk = rng.choose(&pool).unwrap();
                    assert_eq!(tss.remove(mk), reference.remove(mk));
                }
                9..=12 => {
                    let pkt = match rng.gen_range(4) {
                        // Probe a witness of a pool entry: likely hit.
                        0 | 1 => rng.choose(&pool).unwrap().witness(),
                        2 => rand_packet(rng),
                        _ => rand_gated_packet(rng),
                    };
                    let out = tss.lookup(&pkt);
                    let got = (out.value.copied(), out.probes, out.stage_checks);
                    assert_eq!(got, reference.lookup(&pkt), "lookup of {pkt}");
                    // The pure walk sees what the counted one just saw.
                    let out = tss.peek(&pkt);
                    let got = (out.value.copied(), out.probes, out.stage_checks);
                    assert_eq!(got, reference.peek(&pkt), "peek of {pkt}");
                }
                13 => {
                    // Revalidator-style sweep: drops about a third of
                    // the entries and whichever subtables that empties.
                    let doomed = rng.gen_range(3);
                    tss.retain(|_, v| *v % 3 != doomed);
                    reference.retain(|v| v % 3 != doomed);
                }
                14 => {
                    // Grow one subtable past 8 → 16 → 64 slots, then
                    // shrink it back to a few entries.
                    let base = *rng.choose(&pool).unwrap();
                    let burst: Vec<MaskedKey> = (0..70u32)
                        .map(|j| {
                            let key = base
                                .key()
                                .with(Field::IpSrc, u64::from(base.key().ip_src ^ j))
                                .with(Field::IpDst, u64::from(j));
                            MaskedKey::new(key, *base.mask())
                        })
                        .collect();
                    for (j, mk) in burst.iter().enumerate() {
                        let v = op * 1000 + j as u64;
                        assert_eq!(tss.insert(*mk, v), reference.insert(mk, v));
                    }
                    assert_same_state(&tss, &reference);
                    let lookups = |tss: &mut TupleSpaceSearch<u64>,
                                   reference: &mut ReferenceTss| {
                        // A sample of the burst, some of whose inserts grew
                        // the region: their heads must pass the gate.
                        for mk in burst.iter().step_by(7) {
                            let out = tss.lookup(&mk.witness());
                            let got = (out.value.copied(), out.probes, out.stage_checks);
                            assert_eq!(got, reference.lookup(&mk.witness()), "burst {mk:?}");
                        }
                    };
                    lookups(&mut tss, &mut reference);
                    for mk in burst.iter().skip(rng.gen_range(4) as usize) {
                        assert_eq!(tss.remove(mk), reference.remove(mk));
                    }
                    lookups(&mut tss, &mut reference);
                }
                _ => {
                    if rng.gen_bool(0.8) {
                        reference.staged = !reference.staged;
                        tss.set_staged_lookup(reference.staged);
                    } else {
                        tss.clear();
                        reference.clear();
                    }
                }
            }
            assert_same_state(&tss, &reference);
            reused_class_ids |= reference.head_births > reference.heads_peak;
        }
        // The churn is enough to exercise both reclaim paths every time.
        assert!(tss.storage().compactions >= 2);
        assert!(reused_class_ids);
    });
}

/// Removal restores the exact pre-insertion observable state.
#[test]
fn insert_remove_is_identity() {
    pi_core::for_cases(CASES, 0x14, |rng| {
        let base = rand_vec(rng, 0, 20, rand_masked_key);
        let extra = rand_masked_key(rng);
        let probes = rand_vec(rng, 1, 20, rand_packet);
        let mut tss = TupleSpaceSearch::default();
        for (i, mk) in base.iter().enumerate() {
            tss.insert(*mk, i as u64);
        }
        let before: Vec<Option<u64>> = probes.iter().map(|p| tss.peek(p).value.copied()).collect();
        let had = tss.get(&extra).copied();
        tss.insert(extra, 999_999);
        match had {
            Some(v) => {
                tss.insert(extra, v);
            }
            None => {
                tss.remove(&extra);
            }
        }
        let after: Vec<Option<u64>> = probes.iter().map(|p| tss.peek(p).value.copied()).collect();
        assert_eq!(before, after);
    });
}

/// One subtable stepped 0 → 1 → 2 → 1 → 0 entries by `insert` /
/// `remove` and N → 1 by `retain`, behind a two-entry bystander and a
/// one-entry one: after every step the rows carrying a tag are exactly
/// the one-entry subtables, every resident entry's witness hits, and a
/// packet no entry covers misses after probing every subtable.
#[test]
fn row_tag_follows_a_subtable_through_one_entry() {
    let at = |ip: [u8; 4], mask: FlowMask| {
        MaskedKey::new(FlowKey::tcp(ip, [192, 168, 0, 1], 0, 0), mask)
    };
    let slash16 = FlowMask::default().with_prefix(Field::IpSrc, 16);
    let slash24 = FlowMask::default().with_prefix(Field::IpSrc, 24);
    let subject = |n: u8| at([20, 0, n, 0], slash24);
    let stranger = FlowKey::tcp([172, 16, 0, 1], [192, 168, 0, 1], 1, 2);

    let mut tss: TupleSpaceSearch<u64> = TupleSpaceSearch::default();
    let mut reference = ReferenceTss::new(None);
    let check = |tss: &mut TupleSpaceSearch<u64>, reference: &mut ReferenceTss, tagged| {
        assert_same_state(tss, reference);
        assert_eq!(tss.storage().inline_rows, tagged);
        for (resident, v) in reference.iter_sequence() {
            assert_eq!(
                tss.peek(&resident.witness()).value,
                Some(&v),
                "{resident:?}"
            );
        }
        let miss = tss.lookup(&stranger);
        let got = (miss.value.copied(), miss.probes, miss.stage_checks);
        assert_eq!(got, reference.lookup(&stranger));
        assert_eq!((got.0, got.1), (None, reference.subtables.len()));
    };
    let put = |tss: &mut TupleSpaceSearch<u64>, reference: &mut ReferenceTss, mk, v| {
        assert_eq!(tss.insert(mk, v), reference.insert(&mk, v));
    };
    let take = |tss: &mut TupleSpaceSearch<u64>, reference: &mut ReferenceTss, mk| {
        assert_eq!(tss.remove(&mk), reference.remove(&mk));
    };

    put(&mut tss, &mut reference, at([10, 0, 0, 0], slash16), 1);
    put(&mut tss, &mut reference, at([10, 1, 0, 0], slash16), 2);
    let lone = at([30, 0, 9, 0], slash24.with_exact(Field::TpDst));
    put(&mut tss, &mut reference, lone, 3);
    check(&mut tss, &mut reference, 1);

    put(&mut tss, &mut reference, subject(1), 5);
    check(&mut tss, &mut reference, 2);
    put(&mut tss, &mut reference, subject(2), 6);
    check(&mut tss, &mut reference, 1);
    take(&mut tss, &mut reference, subject(1));
    check(&mut tss, &mut reference, 2);
    take(&mut tss, &mut reference, subject(2));
    check(&mut tss, &mut reference, 1);

    // N → 1 by `retain`, out of a region that grew to 32 slots.
    for n in 0..20 {
        put(&mut tss, &mut reference, subject(n), 100 + u64::from(n));
    }
    check(&mut tss, &mut reference, 1);
    tss.retain(|_, v| *v < 100 || *v == 107);
    reference.retain(|v| v < 100 || v == 107);
    check(&mut tss, &mut reference, 2);
    assert_eq!(tss.get(&subject(7)), Some(&107));
}
