//! `VSwitch::process_batch` must be observationally identical to N
//! sequential `VSwitch::process` calls on the same packet sequence —
//! verdicts, routing, per-packet paths and cycles, and every stats
//! counter (`SwitchStats`, `EmcStats`, `MfcStats`, `TssStats`). The
//! batch path only amortises hash work; any divergence means it changed
//! semantics (e.g. probing the EMC before an earlier packet of the same
//! batch could promote its flow). That includes packet *trains*: a key
//! equal to its predecessor reuses the run head's words and hash, so
//! runs of equal keys — across the 32-packet sub-batch boundary, through
//! every cache configuration and the bounded pipeline — get the same
//! treatment.

use pi_classifier::table::whitelist_with_default_deny;

use pi_core::{Field, FlowKey, FlowMask, MaskedKey, SimTime, SplitMix64};
use pi_datapath::{DpConfig, PathTaken, PipelineMode, UpcallPipelineConfig, VSwitch};

const POD_A: [u8; 4] = [10, 0, 0, 99];
const POD_B: [u8; 4] = [10, 0, 0, 100];

/// Two pods; A whitelists 10/8 (so off-net sources are denied and mint
/// new masks), B allows everything.
fn build_switch(staged: bool) -> VSwitch {
    build_switch_with(DpConfig {
        staged_lookup: staged,
        ..DpConfig::default()
    })
}

/// The same two pods under any cache / pipeline configuration.
fn build_switch_with(config: DpConfig) -> VSwitch {
    let mut sw = VSwitch::new(DpConfig {
        trie_fields: vec![Field::IpSrc],
        // Small EMC so collisions/evictions happen at test scale.
        emc_entries: 64,
        ..config
    });
    sw.attach_pod(u32::from_be_bytes(POD_A), 1);
    sw.attach_pod(u32::from_be_bytes(POD_B), 2);
    let allow = MaskedKey::new(
        FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
        FlowMask::default().with_prefix(Field::IpSrc, 8),
    );
    sw.install_acl(
        u32::from_be_bytes(POD_A),
        whitelist_with_default_deny(&[allow]),
    );
    sw
}

/// A deterministic mix of repeated flows (EMC hits), fresh allowed and
/// denied sources (megaflow hits + upcalls), and unroutable
/// destinations; repeats are frequent enough that packets regularly hit
/// EMC entries promoted earlier **in the same batch**.
fn packet_sequence(n: usize, seed: u64) -> Vec<FlowKey> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let dst = if rng.gen_bool(0.8) { POD_A } else { POD_B };
        let key = match rng.gen_range(4) {
            // Hot flows: a handful of repeated 5-tuples.
            0 | 1 => FlowKey::tcp(
                [10, 0, 1, (rng.gen_range(4) + 1) as u8],
                dst,
                40_000 + rng.gen_range(4) as u16,
                5201,
            ),
            // Fresh on-net source (allowed at A, megaflow /8).
            2 => FlowKey::tcp(
                [10, rng.gen_range(250) as u8 + 1, rng.next_u32() as u8, 7],
                dst,
                rng.gen_range(60_000) as u16 + 1,
                5201,
            ),
            // Off-net source (denied at A) or unroutable destination.
            _ => {
                if rng.gen_bool(0.3) {
                    FlowKey::tcp([10, 1, 1, 1], [172, 16, 0, 9], 555, 80)
                } else {
                    FlowKey::tcp([(rng.gen_range(100) + 100) as u8, 0, 0, 1], dst, 1000, 5201)
                }
            }
        };
        out.push(key);
    }
    out
}

fn assert_same_state(seq: &VSwitch, bat: &VSwitch) {
    assert_eq!(seq.stats(), bat.stats(), "SwitchStats diverged");
    assert_eq!(seq.emc_stats(), bat.emc_stats(), "EmcStats diverged");
    assert_eq!(seq.mfc_stats(), bat.mfc_stats(), "MfcStats diverged");
    assert_eq!(
        seq.megaflows().tss_stats(),
        bat.megaflows().tss_stats(),
        "TssStats diverged"
    );
    assert_eq!(seq.mask_count(), bat.mask_count());
    assert_eq!(seq.megaflow_count(), bat.megaflow_count());
    assert_eq!(seq.upcall_stats(), bat.upcall_stats(), "UpcallStats");
}

/// Packet trains: runs of 1..=70 equal keys (an iperf burst is one such
/// run), so run boundaries land on every offset of the 32-packet
/// sub-batch and the longer runs span two or three of them. Run heads
/// cycle through a hot flow, a fresh allowed source, a denied source
/// and an unroutable destination; between runs sit 0–2 single packets
/// of the random mix, one of which may *equal* the run head.
fn train_sequence(seed: u64) -> Vec<FlowKey> {
    let mut rng = SplitMix64::new(seed);
    let singles = packet_sequence(140, seed ^ 0x7ea1);
    let mut singles = singles.iter();
    let mut lens: Vec<usize> = (1..=70).collect();
    rng.shuffle(&mut lens);
    let mut out = Vec::new();
    for (run, len) in lens.into_iter().enumerate() {
        let dst = if run % 3 == 0 { POD_B } else { POD_A };
        let head = match run % 4 {
            0 => FlowKey::tcp([10, 0, 1, 1], dst, 40_000, 5201),
            1 => FlowKey::tcp([10, 7, run as u8, 7], dst, 9_000 + run as u16, 5201),
            2 => FlowKey::tcp([150, 0, run as u8, 1], POD_A, 1000, 5201),
            _ => FlowKey::tcp([10, 1, 1, 1], [172, 16, 0, 9], 555, 80),
        };
        out.extend(std::iter::repeat_n(head, len));
        for _ in 0..rng.gen_range(3) {
            out.extend(singles.next());
        }
    }
    out
}

/// `keys` through one `process_batch` call ≡ through sequential
/// `process`, on two switches built by `build`. Returns the batched
/// switch's outcomes and both switches for further checks.
fn assert_batch_equals_sequential(
    build: impl Fn() -> VSwitch,
    keys: &[FlowKey],
) -> (Vec<pi_datapath::ProcessOutcome>, VSwitch, VSwitch) {
    let now = SimTime::from_millis(5);
    let mut sequential = build();
    let expected: Vec<_> = keys.iter().map(|k| sequential.process(k, now)).collect();
    let mut batched = build();
    let mut got = Vec::with_capacity(keys.len());
    let n = batched.process_batch(keys, now, |i, out| {
        assert_eq!(i, got.len(), "sink must see packets in order");
        got.push(out);
        true
    });
    assert_eq!(n, keys.len());
    assert_eq!(expected, got, "per-packet outcomes diverged");
    assert_same_state(&sequential, &batched);
    (got, sequential, batched)
}

fn run_equivalence(staged: bool) {
    let keys = packet_sequence(500, 0xba7c ^ staged as u64);
    let mut sequential = build_switch(staged);
    let mut batched = build_switch(staged);

    let mut expected = Vec::with_capacity(keys.len());
    let mut t = SimTime::from_millis(1);
    for k in &keys {
        expected.push(sequential.process(k, t));
        t += SimTime::from_micros(3);
    }

    // The batch API sees the keys in arbitrary-size runs (exercising
    // sub-batch boundaries at BATCH_SIZE) — but each packet must get
    // the same per-packet timestamp the sequential run used.
    let mut got = Vec::with_capacity(keys.len());
    let mut t = SimTime::from_millis(1);
    for chunk in keys.chunks(97) {
        // One process_batch call per constant-time window is the real
        // usage; replicate per-packet times by calling per run of equal
        // timestamps — here timestamps advance per packet, so feed the
        // batch one packet-timestamp pair at a time via chunk loops.
        let mut idx = 0;
        while idx < chunk.len() {
            let n = batched.process_batch(&chunk[idx..idx + 1], t, |_, out| {
                got.push(out);
                true
            });
            assert_eq!(n, 1);
            t += SimTime::from_micros(3);
            idx += 1;
        }
    }
    assert_eq!(expected, got, "per-packet outcomes diverged");
    assert_same_state(&sequential, &batched);
}

/// Same timestamps, one packet per batch call: pure API equivalence.
#[test]
fn single_packet_batches_equal_sequential() {
    run_equivalence(false);
    run_equivalence(true);
}

/// Whole-sequence batches at a fixed timestamp: verdicts, paths and all
/// counters must equal sequential processing at that same timestamp —
/// including packets that EMC-hit entries promoted by earlier packets
/// of the *same* `process_batch` call.
#[test]
fn large_batches_equal_sequential_at_fixed_time() {
    for staged in [false, true] {
        // 800 packets in one call = 25 internal sub-batches of 32.
        let keys = packet_sequence(800, 0x5e9 ^ staged as u64);
        let (got, ..) = assert_batch_equals_sequential(|| build_switch(staged), &keys);

        // Microflow hits must actually occur within batches for the
        // equivalence to mean anything.
        let emc_hits = got
            .iter()
            .filter(|o| o.path == PathTaken::MicroflowHit)
            .count();
        assert!(
            emc_hits > 100,
            "want intra-batch EMC traffic, got {emc_hits}"
        );
    }
}

/// A sink returning `false` after `stop_after` packets: exactly that
/// prefix is charged, later packets leave no trace.
fn assert_stop_charges_exact_prefix(keys: &[FlowKey], stop_after: usize) {
    let now = SimTime::from_millis(9);
    let mut sequential = build_switch(false);
    for k in keys.iter().take(stop_after) {
        sequential.process(k, now);
    }
    let mut batched = build_switch(false);
    let mut seen = 0usize;
    let n = batched.process_batch(keys, now, |_, _| {
        seen += 1;
        seen < stop_after
    });
    assert_eq!((n, seen), (stop_after, stop_after));
    assert_same_state(&sequential, &batched);
}

/// A sink returning `false` stops the batch mid-run.
#[test]
fn early_stop_processes_exact_prefix() {
    assert_stop_charges_exact_prefix(&packet_sequence(100, 0x57), 37);
}

/// Trains through the default pipeline (plain and staged lookup): the
/// run head upcalls or megaflow-hits, the rest of the run EMC-hits the
/// entry the head promoted — every one of them individually probed,
/// counted and priced.
#[test]
fn packet_trains_equal_sequential() {
    for staged in [false, true] {
        let keys = train_sequence(0x7a1 ^ staged as u64);
        assert!(keys.len() > 2_485);
        let (got, ..) = assert_batch_equals_sequential(|| build_switch(staged), &keys);
        let emc_hits = got
            .iter()
            .filter(|o| o.path == PathTaken::MicroflowHit)
            .count();
        assert!(emc_hits > 2_000, "trains ride the EMC, got {emc_hits}");
    }
}

/// No EMC: every packet of a train walks the megaflow cache with the
/// run head's words. Probabilistic EMC insertion: the insertion draws
/// must come in packet order, one per megaflow hit, train or not.
#[test]
fn packet_trains_equal_sequential_without_or_with_a_lossy_emc() {
    let keys = train_sequence(0x7a2);
    let (got, ..) = assert_batch_equals_sequential(|| build_switch_with(DpConfig::no_emc()), &keys);
    assert!(got.iter().all(|o| o.path != PathTaken::MicroflowHit));

    let lossy = || {
        build_switch_with(DpConfig {
            emc_insert_prob: 0.3,
            ..DpConfig::default()
        })
    };
    let (got, ..) = assert_batch_equals_sequential(lossy, &keys);
    let promoted_late = got
        .iter()
        .filter(|o| o.path == PathTaken::MegaflowHit)
        .count();
    assert!(
        promoted_late > 100,
        "want trains whose head was not promoted, got {promoted_late}"
    );
}

/// The bounded pipeline: with no drain in between, *every* packet of a
/// train misses and queues (or tail-drops once the port's queue is
/// full) — equal keys, equal hashes, distinct tokens. The drain then
/// resolves the same upcalls in the same order on both switches.
#[test]
fn packet_trains_equal_sequential_in_the_bounded_pipeline() {
    let keys = train_sequence(0x7a3);
    let bounded = || {
        build_switch_with(DpConfig {
            pipeline: PipelineMode::Bounded(UpcallPipelineConfig {
                queue_capacity: 48,
                ..UpcallPipelineConfig::default()
            }),
            ..DpConfig::default()
        })
    };
    let (got, mut sequential, mut batched) = assert_batch_equals_sequential(bounded, &keys);
    let queued = got.iter().filter(|o| o.path.is_queued()).count();
    let dropped = got.iter().filter(|o| o.path.is_upcall_dropped()).count();
    assert_eq!(queued + dropped, keys.len(), "nothing resolves undrained");
    assert!(
        queued > 48 && dropped > 1_000,
        "{queued} queued, {dropped} dropped"
    );

    let now = SimTime::from_millis(6);
    for step in 0..4 {
        let (mut seq, mut bat) = (Vec::new(), Vec::new());
        sequential.drain_upcalls(now, |r| seq.push(r));
        batched.drain_upcalls(now, |r| bat.push(r));
        assert!(!seq.is_empty(), "step {step} resolved something");
        assert_eq!(seq, bat, "step {step}");
    }
    // The handler promoted each resolved flow into the EMC under the
    // hash its queued packet carried: a second pass must find them.
    let now = SimTime::from_millis(7);
    for key in &keys {
        assert_eq!(sequential.process(key, now), batched.process(key, now));
    }
    assert_same_state(&sequential, &batched);
}

/// A sink stop *inside* a train — before and after the sub-batch
/// boundary the run spans — charges exactly the processed prefix.
#[test]
fn early_stop_inside_a_train_processes_exact_prefix() {
    let train = FlowKey::tcp([10, 0, 1, 1], POD_A, 40_000, 5201);
    let mut keys = packet_sequence(5, 0x58);
    keys.extend(std::iter::repeat_n(train, 60));
    keys.extend(packet_sequence(5, 0x59));
    for stop_after in [6, 20, 32, 33, 50] {
        assert_stop_charges_exact_prefix(&keys, stop_after);
    }
}
