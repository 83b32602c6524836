//! Microbenchmarks of the mechanisms underlying the attack.
//!
//! `tss_lookup_vs_masks` is the paper's algorithmic core measured in
//! isolation: lookup latency against the number of subtables. The rest
//! pin the costs the cycle model abstracts (EMC probe, trie walk, slow
//! path, megaflow generation, compiled-ACL classification) so the cost
//! model's relative prices can be sanity-checked against real hardware.
//!
//! Runs harness-free on [`pi_bench::stopwatch`] (the workspace builds
//! offline, without criterion): `cargo bench -p pi_bench`.

use std::hint::black_box;

use pi_attack::{AttackSpec, CovertSequence};
use pi_bench::stopwatch::bench;
use pi_classifier::{Action, PrefixTrie, SubtableOrder, TupleSpaceSearch};
use pi_cms::PolicyDialect;
use pi_core::{Field, FlowKey, FlowMask, MaskedKey, SimTime};
use pi_datapath::{DpConfig, SlowPath, VSwitch};

fn attack_table() -> pi_classifier::FlowTable {
    AttackSpec::masks_512(PolicyDialect::Kubernetes).compile()
}

/// TSS lookup latency as a function of the number of distinct masks —
/// the linear walk, measured.
fn tss_lookup_vs_masks() {
    for &masks in &[1usize, 16, 128, 512, 2048, 8192] {
        let mut tss: TupleSpaceSearch<u32> = TupleSpaceSearch::new(SubtableOrder::Insertion);
        // Distinct masks via distinct (ip_len, port-bit) combinations.
        let mut inserted = 0usize;
        'outer: for ip_len in 1..=32u8 {
            for port_len in 1..=16u8 {
                if inserted >= masks {
                    break 'outer;
                }
                let mk = MaskedKey::new(
                    FlowKey::tcp([10, 0, 0, 1], [10, 1, 0, 66], 0, 443),
                    FlowMask::default()
                        .with_prefix(Field::IpSrc, ip_len)
                        .with_prefix(Field::TpDst, port_len),
                );
                tss.insert(mk, inserted as u32);
                inserted += 1;
            }
        }
        // 8192 needs a third dimension.
        if inserted < masks {
            'outer2: for ip_len in 1..=32u8 {
                for dport_len in 1..=16u8 {
                    for sport_len in 1..=16u8 {
                        if inserted >= masks {
                            break 'outer2;
                        }
                        let mk = MaskedKey::new(
                            FlowKey::tcp([10, 0, 0, 1], [10, 1, 0, 66], 4444, 443),
                            FlowMask::default()
                                .with_prefix(Field::IpSrc, ip_len)
                                .with_prefix(Field::TpDst, dport_len)
                                .with_prefix(Field::TpSrc, sport_len),
                        );
                        tss.insert(mk, inserted as u32);
                        inserted += 1;
                    }
                }
            }
        }
        assert_eq!(tss.subtable_count(), masks);
        // A miss walks everything — the victim's worst case.
        let miss = FlowKey::tcp([192, 168, 0, 1], [172, 16, 0, 1], 1, 1);
        bench(&format!("tss_lookup_vs_masks/{masks}"), || {
            black_box(tss.peek(black_box(&miss)).probes)
        });
    }
}

/// One EMC-equivalent exact-match lookup (hit).
fn emc_lookup() {
    let mut sw = VSwitch::new(DpConfig::default());
    let pod = u32::from_be_bytes([10, 1, 0, 66]);
    sw.attach_pod(pod, 1);
    let key = FlowKey::tcp([10, 0, 0, 1], [10, 1, 0, 66], 1000, 443);
    sw.process(&key, SimTime::from_millis(1)); // warm: installs EMC entry
    bench("switch_process_emc_hit", || {
        black_box(sw.process(black_box(&key), SimTime::from_millis(2)).cycles)
    });
}

/// Prefix-trie un-wildcarding lookups.
fn trie_unwildcard() {
    let mut trie = PrefixTrie::new(Field::IpSrc);
    trie.insert(0xcb00_7107, 32);
    let mut v = 0u64;
    bench("trie_unwildcard_bits", || {
        v = v.wrapping_add(0x9e37_79b9);
        black_box(trie.unwildcard_bits(black_box(v & 0xffff_ffff)))
    });
}

/// Slow-path upcall service: classify + generate the megaflow.
fn slowpath_upcall() {
    let sp = SlowPath::new(attack_table(), &[Field::IpSrc, Field::TpDst], Action::Deny);
    let pkt = FlowKey::tcp([11, 22, 33, 44], [10, 1, 0, 66], 999, 443);
    bench("slowpath_process_upcall", || {
        black_box(sp.process_upcall(black_box(&pkt)))
    });
}

/// Full covert populate pass against a live switch (installs 512 masks).
fn covert_populate() {
    let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
    let pod = u32::from_be_bytes([10, 1, 0, 66]);
    let seq = CovertSequence::new(spec.build_target(pod));
    let packets: Vec<FlowKey> = seq.populate_packets().collect();
    bench("covert_populate_512/populate_pass", || {
        let mut sw = VSwitch::new(DpConfig::default());
        sw.attach_pod(pod, 1);
        let table = spec.compile();
        sw.install_acl(pod, table);
        for p in &packets {
            sw.process(black_box(p), SimTime::from_millis(1));
        }
        black_box(sw.mask_count())
    });
}

/// Covert sequence generation rate.
fn covert_generation() {
    let spec = AttackSpec::masks_8192();
    let seq = CovertSequence::new(spec.build_target(0x0a01_0042));
    let mut n = 0u64;
    bench("covert_populate_packet_gen", || {
        n = (n + 1) % seq.packet_count();
        black_box(seq.populate_packet(n))
    });
    let mut m = 0u64;
    bench("covert_scan_packet_gen", || {
        m += 1;
        black_box(seq.scan_packet(m))
    });
}

fn main() {
    tss_lookup_vs_masks();
    emc_lookup();
    trie_unwildcard();
    slowpath_upcall();
    covert_populate();
    covert_generation();
}
