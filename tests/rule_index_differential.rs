//! The slow path executes a compiled [`RuleIndex`]; the simulation
//! charges a linear scan. Two pins keep those apart:
//!
//! * the index names the same winner — id and action — as the
//!   [`LinearClassifier`] reference on every table shape the priority /
//!   insertion-order semantics distinguish;
//! * `rules_examined` stays the table's size and the modelled cycles of
//!   an upcall stay what the linear scan cost, so no host-side speed-up
//!   leaks into the model.
//!
//! Cases come from the deterministic in-house [`SplitMix64`] generator.

use pi_classifier::index::Winner;
use pi_classifier::RuleIndex;
use pi_cms::{IngressRule, Protocol};
use pi_core::SplitMix64;
use pi_datapath::SlowPath;
use policy_injection::prelude::*;

/// Keys and masks from a universe small enough that rules overlap,
/// repeat and tie all the time.
const IPS: [[u8; 4]; 6] = [
    [10, 0, 0, 1],
    [10, 0, 0, 2],
    [10, 0, 1, 1],
    [10, 9, 0, 1],
    [11, 0, 0, 1],
    [192, 168, 0, 1],
];
const PORTS: [u16; 4] = [80, 443, 0x1150, 5201];
/// CIDR lengths and two non-prefix shapes.
const IP_MASKS: [u64; 7] = [
    0,
    0xff00_0000,
    0xffff_ff00,
    0xffff_fffc,
    0xffff_ffff,
    0x0000_00ff,
    0x00ff_00ff,
];
const PORT_MASKS: [u64; 4] = [0, 0xffff, 0x00ff, 0xff0f];
const ACTIONS: [Action; 4] = [
    Action::Allow,
    Action::Deny,
    Action::Output(7),
    Action::Controller,
];

fn pick<T: Copy>(rng: &mut SplitMix64, from: &[T]) -> T {
    from[rng.gen_range(from.len() as u64) as usize]
}

fn rand_packet(rng: &mut SplitMix64) -> FlowKey {
    FlowKey::tcp(
        pick(rng, &IPS),
        [10, 1, 0, 10],
        rng.next_u32() as u16,
        pick(rng, &PORTS),
    )
}

fn rand_matcher(rng: &mut SplitMix64) -> MaskedKey {
    let mask = FlowMask::default()
        .with(Field::IpSrc, pick(rng, &IP_MASKS))
        .with(Field::TpDst, pick(rng, &PORT_MASKS));
    MaskedKey::new(rand_packet(rng), mask)
}

fn rand_table(rng: &mut SplitMix64) -> FlowTable {
    let mut table = FlowTable::new();
    let mut ids = Vec::new();
    let mut matchers: Vec<MaskedKey> = Vec::new();
    for _ in 0..rng.gen_range(24) {
        // A third of the rules repeat an earlier matcher under another
        // priority or action; a few are the wildcard-all rule.
        let matcher = match rng.gen_range(8) {
            0..=2 if !matchers.is_empty() => pick(rng, &matchers),
            3 => MaskedKey::wildcard(),
            _ => rand_matcher(rng),
        };
        matchers.push(matcher);
        let priority = rng.gen_range(4) as u32; // ties are the norm
        ids.push(table.insert(matcher, priority, pick(rng, &ACTIONS)));
    }
    for id in ids {
        if rng.gen_bool(0.2) {
            table.remove(id);
        }
    }
    table
}

fn linear(table: &FlowTable, packet: &FlowKey) -> Option<Winner> {
    LinearClassifier::new(table)
        .classify(packet)
        .map(|r| Winner {
            id: r.id,
            action: r.action,
        })
}

#[test]
fn index_names_the_linear_winner_on_random_tables() {
    let mut non_empty = 0;
    let mut misses = 0;
    pi_core::for_cases(512, 0x1d8, |rng| {
        let table = rand_table(rng);
        let index = RuleIndex::compile(&table);
        let slow = SlowPath::new(table.clone(), &[Field::IpSrc, Field::TpDst], Action::Deny);
        non_empty += usize::from(!table.is_empty());
        for _ in 0..32 {
            let packet = rand_packet(rng);
            let expected = linear(&table, &packet);
            assert_eq!(index.classify(&packet), expected, "{packet} in {table:?}");
            misses += usize::from(expected.is_none());
            let (action, examined) = slow.classify(&packet);
            assert_eq!(action, expected.map_or(Action::Deny, |w| w.action));
            assert_eq!(examined, table.len());
        }
    });
    // The generator reaches both ends: the empty table and real misses.
    assert!((400..512).contains(&non_empty), "{non_empty} non-empty");
    assert!(misses > 100, "{misses} misses");
}

#[test]
fn equal_priority_ties_go_to_the_earliest_insertion() {
    let mut table = FlowTable::new();
    let any_80 = MaskedKey::new(
        FlowKey::tcp([0, 0, 0, 0], [0, 0, 0, 0], 0, 80),
        FlowMask::default().with_exact(Field::TpDst),
    );
    let ten_slash_8 = MaskedKey::new(
        FlowKey::tcp([10, 0, 0, 0], [0, 0, 0, 0], 0, 0),
        FlowMask::default().with_prefix(Field::IpSrc, 8),
    );
    // Same priority, different masks (so different groups), both match.
    let first = table.insert(any_80, 3, Action::Deny);
    table.insert(ten_slash_8, 3, Action::Allow);
    let packet = FlowKey::tcp([10, 0, 0, 1], [10, 1, 0, 10], 999, 80);
    let expected = Some(Winner {
        id: first,
        action: Action::Deny,
    });
    assert_eq!(linear(&table, &packet), expected);
    assert_eq!(RuleIndex::compile(&table).classify(&packet), expected);
    // Removing the winner before compiling hands the packet to the other.
    table.remove(first);
    assert_eq!(
        RuleIndex::compile(&table).classify(&packet),
        linear(&table, &packet)
    );
    assert_eq!(
        RuleIndex::compile(&FlowTable::new()).classify(&packet),
        None
    );
}

/// The `flap_rebuild` workload's ACL: 512 whitelisted /32 peers on one
/// port plus the default deny — 513 rules, two masks.
fn whitelist_513() -> (FlowTable, Vec<FlowKey>) {
    let client_ip = |i: usize| [10, 2, (i >> 8) as u8, (i & 0xff) as u8];
    let policy = NetworkPolicy {
        name: "victim-peers".into(),
        ingress: vec![IngressRule {
            from: (0..512).map(|i| Cidr::host(client_ip(i))).collect(),
            ports: vec![(Protocol::Tcp, Some(5201))],
        }],
    };
    let clients = (0..512)
        .map(|i| FlowKey::tcp(client_ip(i), [10, 1, 0, 10], 40_000 + i as u16, 5201))
        .collect();
    (PolicyCompiler.compile_k8s(&policy), clients)
}

#[test]
fn whitelist_of_513_rules_classifies_like_the_scan() {
    let (table, clients) = whitelist_513();
    assert_eq!(table.len(), 513);
    let index = RuleIndex::compile(&table);
    let stranger = FlowKey::tcp([10, 3, 0, 1], [10, 1, 0, 10], 40_000, 5201);
    let wrong_port = FlowKey {
        tp_dst: 80,
        ..clients[7]
    };
    for packet in clients.iter().chain([&stranger, &wrong_port]) {
        assert_eq!(index.classify(packet), linear(&table, packet), "{packet}");
    }
    assert_eq!(
        index.classify(&clients[0]).map(|w| w.action),
        Some(Action::Allow)
    );
    assert_eq!(
        index.classify(&stranger).map(|w| w.action),
        Some(Action::Deny)
    );
}

#[test]
fn modelled_cost_is_still_the_linear_scan() {
    let (table, clients) = whitelist_513();
    let slow = SlowPath::new(
        table.clone(),
        &DpConfig::default().trie_fields,
        Action::Deny,
    );
    let stranger = FlowKey::tcp([10, 3, 0, 1], [10, 1, 0, 10], 40_000, 5201);
    // A whitelist hit stops the index after one group; the default deny
    // needs both; a bare table-miss finds nothing. The model sees 513
    // rules examined every time.
    assert_eq!(slow.process_upcall(&clients[0]).rules_examined, 513);
    assert_eq!(slow.process_upcall(&stranger).rules_examined, 513);
    let mut no_default = table.clone();
    let deny_all = table.iter().last().expect("default deny").id;
    no_default.remove(deny_all);
    let bare = SlowPath::new(no_default, &[], Action::Deny);
    assert_eq!(bare.classify(&stranger), (Action::Deny, 512));

    // End to end: one fresh flow through a default switch is charged
    // parse + EMC probe + upcall + 513 × per_rule + install + EMC insert,
    // as it was when the host really scanned.
    let victim = u32::from_be_bytes([10, 1, 0, 10]);
    let mut sw = VSwitch::new(DpConfig::default());
    sw.attach_pod(victim, 1);
    assert!(sw.install_acl(victim, table));
    let outcome = sw.process(&clients[0], SimTime::from_millis(1));
    assert!(matches!(
        outcome.path,
        PathTaken::Upcall {
            rules_examined: 513,
            ..
        }
    ));
    assert_eq!(CostModel::default().packet_cycles(&outcome.path), 186_120);
    assert_eq!(outcome.cycles, 186_120);
}

/// `n` /32 rules under one mask — one group of `n` rules — whose
/// sources satisfy `keep`, plus the default deny.
fn one_group(n: usize, keep: impl Fn(&FlowKey) -> bool) -> (FlowTable, Vec<FlowKey>) {
    let mask = FlowMask::default().with_exact(Field::IpSrc);
    let packets: Vec<FlowKey> = (0u32..)
        .map(|i| FlowKey::tcp((0x0a00_0000 + i).to_be_bytes(), [10, 1, 0, 10], 7, 80))
        .filter(|p| keep(&mask.apply(p)))
        .take(2 * n)
        .collect();
    let mut table = FlowTable::new();
    for (i, p) in packets[..n].iter().enumerate() {
        table.insert(
            MaskedKey::new(*p, mask),
            1 + (i % 3) as u32,
            ACTIONS[i % ACTIONS.len()],
        );
    }
    table.insert(MaskedKey::wildcard(), 0, Action::Deny);
    (table, packets)
}

#[test]
fn groups_at_every_size_boundary_classify_like_the_scan() {
    // 1, 2, 3 rules and every 2^k and 2^k + 1 up to 257 (512 is the
    // whitelist above): the sizes around which a group's region doubles.
    let sizes = [1, 2, 3]
        .into_iter()
        .chain((2..=8).flat_map(|k| [1 << k, (1 << k) + 1]));
    for n in sizes {
        let (table, packets) = one_group(n, |_| true);
        assert_eq!(table.len(), n + 1);
        let index = RuleIndex::compile(&table);
        // The group's rules, then as many strangers under its mask.
        for packet in &packets {
            assert_eq!(
                index.classify(packet),
                linear(&table, packet),
                "{n}: {packet}"
            );
        }
    }
}

#[test]
fn probe_runs_that_wrap_the_region_end_classify_like_the_scan() {
    // Every key's hash ends in 0b111: the last slot of any region of up
    // to 8 slots, so the second and later rules of the group — and the
    // misses under its mask — probe past the end and wrap to slot 0.
    for n in 2..=6 {
        let (table, packets) = one_group(n, |k| pi_core::flow_hash(k) & 7 == 7);
        let index = RuleIndex::compile(&table);
        for packet in &packets {
            assert_eq!(
                index.classify(packet),
                linear(&table, packet),
                "{n}: {packet}"
            );
        }
        assert_eq!(
            index.classify(&packets[n]).map(|w| w.action),
            Some(Action::Deny)
        );
    }
}
