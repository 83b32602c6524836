//! Policy explorer: print the exact megaflow decomposition (the paper's
//! Fig. 2b) for an ACL given on the command line.
//!
//! ```sh
//! cargo run --example policy_explorer -- 10.0.0.0/8
//! cargo run --example policy_explorer -- 203.0.113.7/32 443
//! cargo run --example policy_explorer -- 203.0.113.7/32 443 4444
//! cargo run --example policy_explorer -- --backend=lpm_tier 10.0.0.0/8 443
//! ```
//!
//! Arguments: `[--backend=<name>] <allow-cidr> [dst-port [src-port]]` —
//! the three-port form is the Calico shape that reaches 8192 masks.
//! `--backend` selects the dataplane (`ovs_cache` | `exact_hash` |
//! `lpm_tier` | `nic_offload`); the Fig. 2b mask decomposition only
//! exists on `ovs_cache`, the others show what the same injection does
//! to an architecture without a tuple space.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // example: fail loudly

use policy_injection::prelude::*;

fn main() {
    let mut backend = BackendKind::OvsCache;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| {
            if let Some(name) = a.strip_prefix("--backend=") {
                backend =
                    BackendKind::parse(name).unwrap_or_else(|| panic!("unknown backend {name:?}"));
                false
            } else {
                true
            }
        })
        .collect();
    let cidr: Cidr = args
        .first()
        .map(|s| s.parse().expect("bad CIDR"))
        .unwrap_or_else(|| "10.0.0.0/8".parse().unwrap());
    let dst_port: Option<u16> = args.get(1).map(|s| s.parse().expect("bad dst port"));
    let src_port: Option<u16> = args.get(2).map(|s| s.parse().expect("bad src port"));

    let spec = AttackSpec {
        dialect: if src_port.is_some() {
            PolicyDialect::Calico
        } else {
            PolicyDialect::Kubernetes
        },
        allow_src: cidr,
        dst_port,
        src_port,
    };
    println!(
        "ACL: allow from {cidr}{}{} + default deny ({})",
        dst_port.map(|p| format!(" to :{p}")).unwrap_or_default(),
        src_port.map(|p| format!(" from :{p}")).unwrap_or_default(),
        spec.dialect
    );
    println!("backend: {backend}");
    println!("predicted megaflow masks: {}\n", spec.predicted_masks());

    // Install on a switch and feed the covert sequence.
    let pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let dp = DpConfig {
        backend,
        ..DpConfig::default()
    };
    let inject = |sw: &mut dyn DataplaneBackend| {
        sw.attach_pod(pod_ip, 1);
        sw.install_acl(pod_ip, spec.compile());
        let seq = CovertSequence::new(spec.build_target(pod_ip));
        let mut t = SimTime::from_millis(1);
        for p in seq.populate_packets() {
            process_one(sw, &p, t);
            t += SimTime::from_micros(100);
        }
        let cache = sw.snapshot();
        println!(
            "measured: {} masks / {} entries\n",
            cache.masks, cache.megaflows
        );
    };

    // Print the decomposition, Fig. 2b style (up to a screenful). Only
    // the OVS pipeline has a mask space to decompose — that one is
    // built as a `VSwitch`, whose megaflow table is readable; for the
    // others the numbers above are the whole story.
    if backend != BackendKind::OvsCache {
        inject(&mut *build_backend(dp, CostModel::default()));
        println!("({backend} has no megaflow mask decomposition to print)");
        return;
    }
    let mut sw = VSwitch::new(dp);
    inject(&mut sw);
    let mut rows: Vec<(String, String, String)> = sw
        .megaflows()
        .iter()
        .map(|(mk, entry)| {
            (
                format!("{:>15}", std::net::Ipv4Addr::from(mk.key().ip_src)),
                format!("{}", mk.mask()),
                entry.action.to_string(),
            )
        })
        .collect();
    rows.sort();
    println!("{:>15}  {:<60} action", "key(ip_src)", "mask");
    let shown = rows.len().min(40);
    for (k, m, a) in rows.iter().take(shown) {
        println!("{k}  {m:<60} {a}");
    }
    if rows.len() > shown {
        println!("… and {} more rows", rows.len() - shown);
    }
}
