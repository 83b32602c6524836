//! End-to-end integration: CMS policy → compiled ACL → switch →
//! covert stream → the paper's mask counts and throughput collapse.

use policy_injection::prelude::*;

fn populate(sw: &mut VSwitch, spec: &AttackSpec, pod_ip: u32) {
    let seq = CovertSequence::new(spec.build_target(pod_ip));
    let mut t = SimTime::from_millis(1);
    for p in seq.populate_packets() {
        sw.process(&p, t);
        t += SimTime::from_micros(256);
    }
}

/// The paper's three headline mask counts, measured through the entire
/// stack (policy dialect → CMS compile → slow path → TSS).
#[test]
fn paper_mask_counts_all_dialects() {
    let cases: Vec<(AttackSpec, u64)> = vec![
        (
            AttackSpec {
                dialect: PolicyDialect::Kubernetes,
                allow_src: "10.0.0.0/8".parse().unwrap(),
                dst_port: None,
                src_port: None,
            },
            8, // Fig. 2
        ),
        (AttackSpec::masks_512(PolicyDialect::Kubernetes), 512),
        (AttackSpec::masks_512(PolicyDialect::OpenStack), 512),
        (AttackSpec::masks_8192(), 8192),
    ];
    for (spec, expected) in cases {
        let pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
        let mut sw = VSwitch::new(DpConfig::default());
        sw.attach_pod(pod_ip, 1);
        assert!(sw.install_acl(pod_ip, spec.compile()));
        populate(&mut sw, &spec, pod_ip);
        assert_eq!(
            sw.mask_count() as u64,
            expected,
            "dialect {:?}: measured masks ≠ paper count",
            spec.dialect
        );
        assert_eq!(spec.predicted_masks(), expected, "analytical model");
        assert_eq!(
            predicted_mask_count(&spec.compile(), &sw.config().trie_fields),
            expected,
            "table-level prediction"
        );
    }
}

/// The CMS accepts the malicious policies through the same API as any
/// tenant policy — the attack needs no privileged capability.
#[test]
fn cms_accepts_the_attack_policies() {
    let mut cloud = Cloud::new();
    let tenant = cloud.add_tenant();
    let node = cloud.add_node();
    let pod = cloud.add_pod(tenant, node).unwrap();
    for spec in [
        AttackSpec::masks_512(PolicyDialect::Kubernetes),
        AttackSpec::masks_512(PolicyDialect::OpenStack),
        AttackSpec::masks_8192(),
    ] {
        let compiled = spec
            .build_policy()
            .apply(&cloud, tenant, pod)
            .expect("CMS must accept the innocuous-looking policy");
        assert_eq!(compiled.table.len(), 2, "allow + default deny");
    }
}

/// The covert stream stays within the paper's 1–2 Mb/s budget while
/// sustaining the mask population across revalidator sweeps.
///
/// The sustain assertion is behavioral (≥95% of the 512 masks alive at
/// every point past warm-up) rather than an exact count: a covert
/// keepalive that happens to stay EMC-resident for a whole idle window
/// starves its megaflow's refresh (EMC hits don't touch megaflow
/// `last_used`), so a handful of masks may blink across sweeps — a
/// function of where keys hash, not of the attack's economics. The
/// exact-count version of this test pinned the EMC set-index hash.
#[test]
fn covert_stream_sustains_masks_within_budget() {
    let pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
    let mut sw = VSwitch::new(DpConfig::default());
    sw.attach_pod(pod_ip, 1);
    sw.install_acl(pod_ip, spec.compile());

    let mut schedule = AttackSchedule::new(
        CovertSequence::new(spec.build_target(pod_ip)),
        2e6,
        SimTime::ZERO,
    );
    let mut out = Vec::new();
    let mut bytes_sent = 0usize;
    let mut sustained_min = usize::MAX;
    // 30 simulated seconds with 1 ms ticks and 1 s revalidator sweeps.
    for ms in 0..30_000u64 {
        let now = SimTime::from_millis(ms);
        out.clear();
        pi_traffic::TrafficSource::generate(
            &mut schedule,
            now,
            SimTime::from_millis(ms + 1),
            &mut out,
        );
        for p in &out {
            bytes_sent += p.bytes;
            sw.process(&p.key, now);
        }
        sw.revalidate(now);
        // Past populate + the first idle window, the mask population
        // must never meaningfully dip.
        if ms >= 12_000 {
            sustained_min = sustained_min.min(sw.mask_count());
        }
    }
    let avg_bps = bytes_sent as f64 * 8.0 / 30.0;
    assert!(avg_bps <= 2.05e6, "budget exceeded: {avg_bps}");
    assert!(
        sustained_min * 100 >= 512 * 95,
        "≥95% of the 512 masks must stay alive through every sweep, \
         worst point was {sustained_min}"
    );
    // Stop the stream: the revalidator reclaims everything.
    for s in 31..=45u64 {
        sw.revalidate(SimTime::from_secs(s));
    }
    assert_eq!(sw.mask_count(), 0, "masks must decay once the stream stops");
}

/// Short Fig. 3: the victim collapses after attack start and not
/// before; determinism across runs.
#[test]
fn victim_collapse_is_attack_gated_and_deterministic() {
    let params = Fig3Params {
        duration: SimTime::from_secs(24),
        attack_start: SimTime::from_secs(12),
        background: false,
        ..Fig3Params::default()
    };
    let run = || {
        let (sim, handles) = fig3_scenario(&params);
        let report = sim.run();
        let victim = &report.throughput_bps[handles.source("victim")];
        (
            victim.mean_between(SimTime::from_secs(2), params.attack_start) / 1e9,
            victim.mean_between(SimTime::from_secs(18), params.duration) / 1e9,
            report.masks[handles.attacker_hosts[0]].last().unwrap().1,
            report.source_totals[handles.source("victim")].clone(),
        )
    };
    let (before, after, masks, totals) = run();
    assert!(before > 0.9, "pre-attack victim ≈ line rate, got {before}");
    assert!(
        after < 0.15 * before,
        "post-attack victim must collapse: {after} vs {before}"
    );
    assert!(masks > 3_000.0, "mask explosion visible: {masks}");
    // Determinism.
    let (b2, a2, m2, t2) = run();
    assert_eq!(before, b2);
    assert_eq!(after, a2);
    assert_eq!(masks, m2);
    assert_eq!(totals, t2);
}

/// The attacked switch's shared caches are the cross-tenant channel:
/// masks injected via the attacker's ACL are walked by packets addressed
/// to *other* pods.
#[test]
fn cross_tenant_probe_amplification() {
    let victim_ip = u32::from_be_bytes([10, 1, 0, 10]);
    let attacker_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
    let mut sw = VSwitch::new(DpConfig {
        emc_enabled: false,
        ..DpConfig::default()
    });
    sw.attach_pod(victim_ip, 1);
    sw.attach_pod(attacker_ip, 2);
    sw.install_acl(attacker_ip, spec.compile());
    populate(&mut sw, &spec, attacker_ip);

    // A brand-new flow towards the *victim* pod (no ACL there) must
    // walk all the attacker's subtables before its upcall.
    let fresh = FlowKey::tcp([172, 16, 0, 9], [10, 1, 0, 10], 999, 80);
    let o = sw.process(&fresh, SimTime::from_secs(30));
    assert!(o.path.is_upcall(), "expected upcall, got {:?}", o.path);
    let probes = o.work.subtables;
    assert!(probes >= 512, "cross-tenant walk: {probes} probes");
    assert_eq!(o.verdict, Action::Allow, "victim traffic is still legal");
}
