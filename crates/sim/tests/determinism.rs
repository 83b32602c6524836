//! The fleet's load-bearing guarantee: for a fixed seed and topology,
//! results are **byte-for-byte identical** for any worker count.
//! Parallelism is an execution detail; it must never leak into the
//! physics.
//!
//! The comparison is on the full debug rendering of every report
//! component (series points, totals, switch statistics), which is as
//! byte-for-byte as the report gets.

use pi_core::SimTime;
use pi_sim::{fleet_colocation, ColocationParams, FleetReport};

/// Renders everything except the worker count (which legitimately
/// differs between the compared runs).
fn fingerprint(r: &FleetReport) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{:?}\nhosts={}",
        r.source_totals,
        r.throughput_bps,
        r.offered_bps,
        r.masks,
        r.megaflows,
        r.cpu_util,
        r.switch_stats,
        r.policy_updates,
        r.hosts,
    )
}

fn colocation_params(workers: usize) -> ColocationParams {
    ColocationParams {
        hosts: 4,
        victims: 4,
        attackers: 2,
        duration: SimTime::from_secs(3),
        attack_start: SimTime::from_secs(1),
        stagger: SimTime::from_secs(1),
        workers,
        ..Default::default()
    }
}

#[test]
fn colocation_run_is_identical_for_1_and_4_workers() {
    let serial = fleet_colocation(&colocation_params(1)).0.run();
    let parallel = fleet_colocation(&colocation_params(4)).0.run();
    assert_eq!(serial.workers, 1);
    assert_eq!(parallel.workers, 4);
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "worker count changed simulation results"
    );
    // Sanity: the run actually exercised the attack (masks exploded on
    // the attacked hosts) — a trivially idle fleet would make this test
    // vacuous.
    let max_masks = serial.masks.iter().map(|m| m.max()).fold(0.0, f64::max);
    assert!(max_masks > 4_000.0, "masks = {max_masks}");
}

#[test]
fn colocation_is_identical_for_odd_worker_counts() {
    // 3 workers over 4 shards: unbalanced ownership, same bytes.
    let a = fleet_colocation(&colocation_params(3)).0.run();
    let b = fleet_colocation(&colocation_params(4)).0.run();
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn policy_flap_fleet_is_identical_for_1_and_3_workers() {
    use pi_attack::AttackSchedule;
    use pi_cms::{Cidr, IngressRule, NetworkPolicy, PolicyCompiler, Protocol};
    use pi_core::FlowKey;
    use pi_datapath::DpConfig;
    use pi_sim::{FleetBuilder, SimConfig};
    use pi_traffic::FanSource;

    // Three hosts; host 0 hosts a whitelisted victim service and the
    // flapping attacker pod, hosts 1–2 run bystander traffic. The
    // control plane is shard-local state: any worker count must yield
    // byte-identical results, including the policy-update timeline.
    let run = |workers: usize| {
        let mut b = FleetBuilder::new(SimConfig {
            duration: SimTime::from_secs(4),
            workers,
            ..SimConfig::default()
        });
        let clients = 512usize;
        let victim_ip = u32::from_be_bytes([10, 0, 0, 10]);
        let attacker_ip = u32::from_be_bytes([10, 0, 0, 66]);
        for _ in 0..3 {
            b.add_host(DpConfig::default());
        }
        b.add_pod(0, victim_ip);
        b.add_pod(0, attacker_ip);
        b.add_pod(1, u32::from_be_bytes([10, 1, 0, 10]));
        let client_ip = |i: usize| [10, 2, (i >> 8) as u8, (i & 0xff) as u8];
        let policy = NetworkPolicy {
            name: "victim-peers".into(),
            ingress: vec![IngressRule {
                from: (0..clients).map(|i| Cidr::host(client_ip(i))).collect(),
                ports: vec![(Protocol::Tcp, Some(5201))],
            }],
        };
        b.install_acl(victim_ip, PolicyCompiler.compile_k8s(&policy));
        let attacker_table = PolicyCompiler.compile_k8s(&NetworkPolicy {
            name: "attacker".into(),
            ingress: vec![IngressRule {
                from: vec![Cidr::new(u32::from_be_bytes([10, 0, 0, 0]), 8).unwrap()],
                ports: vec![(Protocol::Tcp, Some(8080))],
            }],
        });
        b.install_acl(attacker_ip, attacker_table.clone());
        b.attach_control_plane(
            0,
            AttackSchedule::policy_flap(
                attacker_ip,
                &attacker_table,
                SimTime::from_secs(2),
                SimTime::from_secs(4),
                SimTime::from_millis(20),
            ),
        );
        // Victim fan injected over the fabric from host 1.
        let keys: Vec<FlowKey> = (0..clients)
            .map(|i| {
                FlowKey::tcp(
                    client_ip(i),
                    [10, 0, 0, 10],
                    41_000 + (i % 16_000) as u16,
                    5201,
                )
            })
            .collect();
        b.add_source(
            1,
            Box::new(FanSource::new(keys, 400, 40_000.0).named("victim")),
        );
        // Bystander on host 2 → host 1.
        let key = FlowKey::tcp([10, 2, 9, 9], [10, 1, 0, 10], 1000, 80);
        b.add_source(2, Box::new(pi_traffic::CbrSource::new(key, 800, 500.0)));
        b.build().unwrap().run()
    };
    let serial = run(1);
    let parallel = run(3);
    assert_eq!(
        fingerprint(&serial),
        fingerprint(&parallel),
        "worker count changed policy-churn results"
    );
    // Sanity: the flap actually ran — host 0's update timeline ramps
    // past the build-time setup count, and the blast radius names it.
    let updates = serial.policy_updates[0].last().unwrap().1;
    assert!(updates > 100.0, "flap train landed: {updates}");
    let blast = serial.blast_radius(SimTime::from_secs(2), &[0], 0.5, 1e9);
    assert_eq!(blast.policy_churn.len(), 1, "only host 0 churns");
    assert_eq!(blast.policy_churn[0].0, 0);
    // And the flap really degraded the victim over the benign phase.
    assert!(
        blast.degraded_sources.contains(&0),
        "victim degraded: {:?}",
        blast.ratios
    );
}
