//! Full-stack semantic equivalence: whatever path a packet takes
//! through the switch — microflow hit, megaflow hit, upcall — the
//! verdict must equal ground-truth linear classification of the
//! destination pod's ACL. The caches accelerate; they never decide.
//!
//! This is the strongest property the reproduction rests on: the attack
//! works *because* the cache must stay semantically transparent while
//! being fed adversarial state.
//!
//! Cases come from the deterministic in-house [`SplitMix64`] generator
//! (no external dependencies).

use pi_core::SplitMix64;
use policy_injection::prelude::*;

const CASES: u64 = 64;

/// A small universe of pods with randomly shaped whitelist policies.
#[derive(Debug, Clone)]
struct Universe {
    pods: Vec<(u32, FlowTable)>,
}

fn rand_universe(rng: &mut SplitMix64) -> Universe {
    let n_pods = 1 + rng.gen_range(3);
    let pods = (0..n_pods)
        .enumerate()
        .map(|(i, _)| {
            let suffix = 1 + rng.gen_range(4) as u8;
            let ip = u32::from_be_bytes([10, 1, i as u8, suffix]);
            let n_allows = rng.gen_range(4);
            let whitelist: Vec<MaskedKey> = (0..n_allows)
                .map(|_| {
                    let src = rng.next_u32();
                    let len = 1 + rng.gen_range(32) as u8;
                    let port = rng.gen_bool(0.5).then(|| 1 + rng.gen_range(1023) as u16);
                    let mut key = FlowKey::tcp(
                        std::net::Ipv4Addr::from(src),
                        [0, 0, 0, 0],
                        0,
                        port.unwrap_or(0),
                    );
                    let mut mask = FlowMask::default().with_prefix(Field::IpSrc, len);
                    if port.is_some() {
                        mask = mask.with_exact(Field::TpDst);
                    } else {
                        key.tp_dst = 0;
                    }
                    MaskedKey::new(key, mask)
                })
                .collect();
            (
                ip,
                pi_classifier::table::whitelist_with_default_deny(&whitelist),
            )
        })
        .collect();
    Universe { pods }
}

fn rand_packets(rng: &mut SplitMix64, universe: &Universe) -> Vec<FlowKey> {
    let dst_ips: Vec<u32> = universe.pods.iter().map(|(ip, _)| *ip).collect();
    let n = 1 + rng.gen_range(199);
    (0..n)
        .map(|_| {
            let src = rng.next_u32();
            let dst = dst_ips[rng.gen_range(dst_ips.len() as u64) as usize];
            let sport = rng.next_u32() as u16;
            let dport = [80u16, 443, 999, 5201][rng.gen_range(4) as usize];
            FlowKey::tcp(
                std::net::Ipv4Addr::from(src),
                std::net::Ipv4Addr::from(dst),
                sport,
                dport,
            )
        })
        .collect()
}

/// Random pods, random ACLs, random packet mix — replayed so most
/// packets traverse every cache level — always the linear verdict.
#[test]
fn switch_verdicts_equal_linear_classification() {
    pi_core::for_cases(CASES, 0x41, |rng| {
        let universe = rand_universe(rng);
        let packets = rand_packets(rng, &universe);
        let mut sw = VSwitch::new(DpConfig::default());
        for (i, (ip, table)) in universe.pods.iter().enumerate() {
            sw.attach_pod(*ip, i as u32 + 1);
            sw.install_acl(*ip, table.clone());
        }
        let ground_truth = |key: &FlowKey| -> Action {
            match universe.pods.iter().find(|(ip, _)| *ip == key.ip_dst) {
                Some((_, table)) => LinearClassifier::new(table)
                    .classify(key)
                    .map(|r| r.action)
                    .unwrap_or(Action::Deny),
                None => Action::Deny,
            }
        };
        let mut t = SimTime::from_millis(1);
        for round in 0..3u8 {
            for key in &packets {
                let out = sw.process(key, t);
                t += SimTime::from_micros(10);
                let expected = ground_truth(key);
                assert_eq!(
                    out.verdict, expected,
                    "round {} path {:?} packet {}",
                    round, out.path, key
                );
            }
        }
        // By the third replay, identical packets must be cache hits.
        let mut hits = 0usize;
        for key in &packets {
            let out = sw.process(key, t);
            if matches!(out.path, PathTaken::MicroflowHit | PathTaken::MegaflowHit) {
                hits += 1;
            }
            assert_eq!(out.verdict, ground_truth(key));
        }
        assert_eq!(hits, packets.len(), "everything cached by now");
    });
}

/// Cache eviction (revalidation) never changes verdicts either.
#[test]
fn verdicts_stable_across_revalidation() {
    pi_core::for_cases(CASES, 0x42, |rng| {
        let universe = rand_universe(rng);
        let packets = rand_packets(rng, &universe);
        let mut sw = VSwitch::new(DpConfig::default());
        for (i, (ip, table)) in universe.pods.iter().enumerate() {
            sw.attach_pod(*ip, i as u32 + 1);
            sw.install_acl(*ip, table.clone());
        }
        let mut verdicts_before = Vec::new();
        for key in &packets {
            verdicts_before.push(sw.process(key, SimTime::from_millis(1)).verdict);
        }
        // Idle everything out.
        sw.revalidate(SimTime::from_secs(30));
        assert_eq!(sw.megaflow_count(), 0);
        for (key, before) in packets.iter().zip(verdicts_before) {
            let after = sw.process(key, SimTime::from_secs(31)).verdict;
            assert_eq!(after, before);
        }
    });
}
