//! Robustness and configuration-variant integration tests: the attack
//! and datapath under flow-limit pressure, probabilistic EMC insertion
//! (OVS-DPDK flavour), and cache-thrash dynamics.

use policy_injection::prelude::*;

/// Under a tight flow limit the datapath refuses installs but keeps
/// classifying correctly — and every uncached covert packet now pays a
/// full upcall, which is *worse* for the switch, not better.
#[test]
fn flow_limit_pressure_keeps_semantics_and_costs() {
    let pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
    let mut sw = VSwitch::new(DpConfig {
        flow_limit: 100, // far below the 561 covert entries
        emc_enabled: false,
        ..DpConfig::default()
    });
    sw.attach_pod(pod_ip, 1);
    sw.install_acl(pod_ip, spec.compile());

    let seq = CovertSequence::new(spec.build_target(pod_ip));
    let mut t = SimTime::from_millis(1);
    for p in seq.populate_packets() {
        sw.process(&p, t);
        t += SimTime::from_micros(100);
    }
    assert_eq!(sw.megaflow_count(), 100, "hard cap respected");
    assert!(sw.mask_count() <= 100);
    assert!(sw.mfc_stats().install_drops > 0);

    // Re-sending an uncached covert packet upcalls again (no install
    // last time) — but verdicts stay correct.
    let uncached = seq.populate_packet(seq.packet_count() - 1); // in-prefix allow
    let o1 = sw.process(&uncached, t);
    assert_eq!(o1.verdict, Action::Allow);
    // Deny packets keep denying.
    let denied = FlowKey::tcp([99, 99, 99, 99], [10, 1, 0, 66], 1, 1);
    assert_eq!(sw.process(&denied, t).verdict, Action::Deny);
}

/// OVS-DPDK-style probabilistic EMC insertion (1%) does not blunt the
/// attack: the covert stream's unique keys rarely enter the EMC, so the
/// megaflow walk still dominates.
#[test]
fn dpdk_like_emc_still_vulnerable() {
    let pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
    let mut sw = VSwitch::new(DpConfig::dpdk_like());
    sw.attach_pod(pod_ip, 1);
    sw.install_acl(pod_ip, spec.compile());
    let seq = CovertSequence::new(spec.build_target(pod_ip));
    let mut t = SimTime::from_millis(1);
    for p in seq.populate_packets() {
        sw.process(&p, t);
        t += SimTime::from_micros(100);
    }
    assert_eq!(sw.mask_count(), 512);
    // Scan packets: unique keys, EMC-missing with ≥99% probability, so
    // the mean probe count stays near the full walk.
    let mut total_probes = 0usize;
    let n = 500;
    for i in 0..n {
        let o = sw.process(&seq.scan_packet(10_000 + i), t);
        total_probes += o.work.subtables as usize;
    }
    let avg = total_probes as f64 / n as f64;
    assert!(avg > 450.0, "mean probes {avg} must stay near 512");
}

/// The covert stream evicts a victim's EMC entry through sheer
/// collision pressure: before the attack the victim's repeat packets
/// are microflow hits; after sustained scanning, a significant share
/// fall through to the megaflow walk.
///
/// The assertions are *behavioral* — warm residency is high, and the
/// attack knocks out a large fraction of it — rather than exact counts:
/// where each key lands is a function of the flow hash, so exact-count
/// assertions turn any hash change into a collision lottery (this test
/// used to pin the EMC set-index segment shift for that reason).
#[test]
fn emc_thrash_pushes_victim_to_megaflow_path() {
    let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
    let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let spec = AttackSpec::masks_8192();
    // Small EMC so the effect is visible at test scale.
    let mut sw = VSwitch::new(DpConfig {
        emc_entries: 256,
        ..DpConfig::default()
    });
    sw.attach_pod(victim_ip, 1);
    sw.attach_pod(attacker_ip, 2);
    sw.install_acl(attacker_ip, spec.compile());

    let victim_keys: Vec<FlowKey> = (0..32u16)
        .map(|i| FlowKey::tcp([10, 0, 0, 10], [10, 1, 0, 10], 40_000 + i, 5201))
        .collect();
    let mut t = SimTime::from_millis(1);
    // Warm the victim's flows: all become EMC residents.
    for _ in 0..3 {
        for k in &victim_keys {
            sw.process(k, t);
            t += SimTime::from_micros(10);
        }
    }
    let mut warm_hits = 0;
    for k in &victim_keys {
        if sw.process(k, t).path == PathTaken::MicroflowHit {
            warm_hits += 1;
        }
        t += SimTime::from_micros(10);
    }
    // Behavioral: warm flows are overwhelmingly EMC-resident. (Not
    // exactly all 32 — a 3-way set collision among the victim's own
    // keys is legal under any hash and thrashes one slot under LRU.)
    assert!(
        warm_hits * 4 >= victim_keys.len() * 3,
        "pre-attack: ≥¾ EMC residency expected, got {warm_hits}/{}",
        victim_keys.len()
    );

    // Attack: thousands of unique covert keys through the same EMC.
    let seq = CovertSequence::new(spec.build_target(attacker_ip));
    for p in seq.populate_packets().take(2_000) {
        sw.process(&p, t);
        t += SimTime::from_micros(10);
    }
    for i in 0..4_000u64 {
        sw.process(&seq.scan_packet(i), t);
        t += SimTime::from_micros(10);
    }
    let mut post_hits = 0;
    for k in &victim_keys {
        if sw.process(k, t).path == PathTaken::MicroflowHit {
            post_hits += 1;
        }
        t += SimTime::from_micros(10);
    }
    // Behavioral: the thrash is observed *relative to* the warm
    // baseline — most of the victim's residency is gone.
    assert!(
        post_hits * 2 < warm_hits,
        "attack must evict most victim EMC entries: \
         {post_hits}/{warm_hits} warm hits survive"
    );
}

/// Disabling tries on the datapath (the blunt configuration fix) caps
/// the attack at one mask — at the price of coarse megaflows for
/// everyone (megaflows match whole fields, so distinct sources share
/// entries less often… the trade-off is cache granularity, not
/// correctness).
#[test]
fn trie_free_datapath_is_immune_but_coarse() {
    let pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let spec = AttackSpec::masks_8192();
    let mut sw = VSwitch::new(DpConfig {
        trie_fields: vec![],
        ..DpConfig::default()
    });
    sw.attach_pod(pod_ip, 1);
    sw.install_acl(pod_ip, spec.compile());
    let seq = CovertSequence::new(spec.build_target(pod_ip));
    let mut t = SimTime::from_millis(1);
    for p in seq.populate_packets() {
        sw.process(&p, t);
        t += SimTime::from_micros(50);
    }
    // All megaflows share the single union mask.
    assert_eq!(sw.mask_count(), 1, "no tries ⇒ no mask explosion");
    // Semantics unchanged: allow flow allowed, deny flow denied.
    let allowed = seq.populate_packet(seq.packet_count() - 1);
    assert_eq!(sw.process(&allowed, t).verdict, Action::Allow);
    let denied = FlowKey::tcp([9, 9, 9, 9], [10, 1, 0, 66], 1, 1);
    assert_eq!(sw.process(&denied, t).verdict, Action::Deny);
}

/// Determinism across identically-seeded switches under the full attack
/// (paths, stats and cache shapes all equal).
#[test]
fn attacked_switch_is_deterministic() {
    let run = || {
        let pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
        let spec = AttackSpec::masks_512(PolicyDialect::OpenStack);
        let mut sw = VSwitch::new(DpConfig::default());
        sw.attach_pod(pod_ip, 1);
        sw.install_acl(pod_ip, spec.compile());
        let seq = CovertSequence::new(spec.build_target(pod_ip));
        let mut t = SimTime::from_millis(1);
        for p in seq.populate_packets() {
            sw.process(&p, t);
            t += SimTime::from_micros(100);
        }
        for i in 0..1_000 {
            sw.process(&seq.scan_packet(i), t);
            t += SimTime::from_micros(100);
        }
        (sw.stats(), sw.mask_count(), sw.megaflow_count())
    };
    assert_eq!(run(), run());
}

/// Everything a run simulated, rendered for comparison (the per-worker
/// harness profile describes the run, not the simulation).
fn simulated(r: &SimReport) -> String {
    format!(
        "{:?}",
        (
            (&r.source_totals, &r.switch_stats, &r.upcall_stats),
            (&r.faults, &r.defense, &r.attribution, &r.engine),
            (&r.throughput_bps, &r.offered_bps, &r.masks, &r.megaflows),
            (&r.cpu_util, &r.handler_cps, &r.control_cps),
            (&r.policy_updates, &r.trace),
        )
    )
}

/// An attack window that starts at or after the end of the run is the
/// attack switched off — the convention `upcall_saturation_scenario`
/// and the benchmark's `sparse_idle` already rely on. The policy flap
/// used to die on an assert instead (its default start is 2 s).
#[test]
fn a_flap_that_starts_at_the_end_of_the_run_is_the_benign_run() {
    let run = |flap: bool| {
        let params = PolicyChurnParams {
            duration: SimTime::from_secs(2),
            flap,
            ..Default::default()
        };
        assert!(params.attack_start >= params.duration);
        policy_churn_scenario(&params).0.run()
    };
    assert_eq!(simulated(&run(true)), simulated(&run(false)));
}

/// The same for the flap riding a crash that never comes: `crash_at`
/// past the end under `PolicyFlap` is the attack-free run of that
/// length.
#[test]
fn a_crash_past_the_end_of_the_run_leaves_the_flap_off() {
    let run = |attack: CrashRecoveryAttack| {
        let params = CrashRecoveryParams {
            duration: SimTime::from_secs(2),
            attack,
            ..Default::default()
        };
        assert!(params.crash_at >= params.duration);
        crash_recovery_scenario(&params).0.run()
    };
    let flap = run(CrashRecoveryAttack::PolicyFlap);
    assert_eq!(simulated(&flap), simulated(&run(CrashRecoveryAttack::None)));
    // The run is not vacuous: the victim and the denied prober both ran.
    assert!(flap.source_totals.iter().all(|s| s.generated > 0));
}
