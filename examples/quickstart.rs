//! Quickstart: inject the paper's ACL, feed it the covert sequence, and
//! watch the megaflow cache degenerate — on a single switch, no
//! simulator.
//!
//! ```sh
//! cargo run --example quickstart
//! cargo run --example quickstart -- exact_hash    # any pi_backend name
//! ```
//!
//! The optional argument selects the dataplane backend
//! (`ovs_cache` | `exact_hash` | `lpm_tier` | `nic_offload`); the
//! default is the paper's OVS pipeline. Running the same injection
//! against `exact_hash` shows a backend with no mask space to inflate.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // example: fail loudly

use policy_injection::prelude::*;

fn main() {
    let backend = std::env::args()
        .nth(1)
        .map(|s| BackendKind::parse(&s).unwrap_or_else(|| panic!("unknown backend {s:?}")))
        .unwrap_or(BackendKind::OvsCache);

    // ── The cloud, as the CMS sees it ────────────────────────────────
    let mut cloud = Cloud::new();
    let attacker = cloud.add_tenant();
    let node = cloud.add_node();
    let pod = cloud
        .add_pod(attacker, node)
        .expect("the node was just registered");
    let pod_ip = cloud.pod(pod).unwrap().ip;

    // ── Step 1: the "seemingly harmless" policy (paper §2) ───────────
    // Allow one backup host to reach one service port. Any reviewer
    // would approve it.
    let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
    let acl = spec.build_policy();
    let compiled = acl.apply(&cloud, attacker, pod).expect("CMS accepts it");
    println!("policy accepted by the CMS: {} rules", compiled.table.len());
    println!(
        "predicted megaflow masks: {} (32 ip-prefix lengths × 16 port-prefix lengths)",
        spec.predicted_masks()
    );

    // ── Step 2: install at the hypervisor dataplane ──────────────────
    let dp = DpConfig {
        backend,
        ..DpConfig::default()
    };
    let mut switch = build_backend(dp, CostModel::default());
    println!("dataplane backend: {backend}");
    switch.attach_pod(pod_ip, compiled.vport);
    switch.install_acl(pod_ip, compiled.table);

    // ── Step 3: the adversarial packet sequence ──────────────────────
    let seq = CovertSequence::new(spec.build_target(pod_ip));
    println!(
        "covert populate pass: {} packets (~{:.1} s at 2 Mb/s of 64-byte frames)",
        seq.packet_count(),
        seq.packet_count() as f64 / 3906.0
    );
    let mut now = SimTime::from_millis(1);
    for pkt in seq.populate_packets() {
        process_one(&mut *switch, &pkt, now);
        now += SimTime::from_micros(256); // ≈ 3 906 pps
    }
    let cache = switch.snapshot();
    println!(
        "flow cache after the pass: {} masks, {} entries",
        cache.masks, cache.megaflows
    );

    // ── Step 4: what the cache walk now costs ────────────────────────
    let victim_like = process_one(&mut *switch, &seq.scan_packet(1), now);
    println!(
        "one fast-path lookup now probes {} subtables ({} cycles vs ~120 before)",
        victim_like.work.subtables as usize, victim_like.cycles
    );

    // ── Step 5: would the defender have caught it? ───────────────────
    for o in switch.attribution().iter().filter(|o| o.masks >= 256) {
        println!(
            "attribution: pod {} carries {} masks over {} entries — evict its ACL",
            std::net::Ipv4Addr::from(o.ip_dst),
            o.masks,
            o.entries
        );
    }
    if backend == BackendKind::OvsCache {
        assert_eq!(cache.masks as u64, spec.predicted_masks());
        println!("analytical model confirmed: {} masks", cache.masks);
    } else {
        println!(
            "{} masks on {backend}: this architecture has no tuple space to inflate",
            cache.masks
        );
    }
}
