//! E1/E2 — Fig. 2 reproduction.
//!
//! Part 1 prints the paper's exact table: the binary ACL
//! (allow `00001010` = first octet of 10.0.0.0/8, deny `********`) and
//! the resulting non-overlapping megaflow entries — 9 entries over
//! 8 masks, byte-identical to Fig. 2b.
//!
//! Part 2 demonstrates the in-text claim "this technique creates 8 masks
//! and so 8 iterations for executing the TSS" by counting actual
//! subtable probes.

use pi_attack::{AttackSpec, CovertSequence};
use pi_bench::results_dir;
use pi_cms::PolicyDialect;
use pi_core::{Field, FlowKey, SimTime};
use pi_datapath::{DpConfig, VSwitch};
use pi_metrics::CsvTable;

fn main() {
    // The paper's policy: allow 10.0.0.0/8 (first octet 00001010).
    let spec = AttackSpec {
        dialect: PolicyDialect::Kubernetes,
        allow_src: "10.0.0.0/8".parse().unwrap(),
        dst_port: None,
        src_port: None,
    };
    println!("Fig. 2a — binary ACL representation (first octet of ip_src):\n");
    println!("  ip_src     action");
    println!("  00001010   allow");
    println!("  ********   deny\n");

    let pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let mut sw = VSwitch::new(DpConfig::default());
    sw.attach_pod(pod_ip, 1);
    sw.install_acl(pod_ip, spec.compile());

    // Feed the adversarial sequence (8 divergent packets + 1 in-prefix).
    let seq = CovertSequence::new(spec.build_target(pod_ip));
    let mut t = SimTime::from_millis(1);
    for p in seq.populate_packets() {
        sw.process(&p, t);
        t += SimTime::from_micros(100);
    }

    println!("Fig. 2b — resulting non-overlapping megaflow entries:\n");
    let mut rows: Vec<(u8, String, String, String)> = sw
        .megaflows()
        .iter()
        .map(|(mk, e)| {
            let key_octet = (mk.key().ip_src >> 24) as u8;
            let mask_bits = mk.mask().field(Field::IpSrc) >> 24;
            let len = mask_bits.count_ones() as u8;
            (
                len,
                Field::IpProto.to_binary_string(key_octet as u64),
                Field::IpProto.to_binary_string(mask_bits),
                e.action.to_string(),
            )
        })
        .collect();
    // Paper order: allow first, then deny rows by ascending mask length.
    rows.sort_by_key(|(len, _, _, action)| (action != "allow", *len));
    let mut csv = CsvTable::new(&["key", "mask", "action"]);
    println!("  Key        Mask       Action");
    for (_, key, mask, action) in &rows {
        println!("  {key}   {mask}   {action}");
        csv.push_row(&[key.clone(), mask.clone(), action.clone()]);
    }
    let masks = sw.mask_count();
    let entries = sw.megaflow_count();
    println!("\n  ⇒ {entries} entries over {masks} masks (paper: 9 entries, 8 masks)");
    assert_eq!(entries, 9);
    assert_eq!(masks, 8);

    // Part 2: "8 masks and so 8 iterations for executing the TSS".
    // A packet matching no megaflow (fresh destination prefix pattern
    // exhausted — use a brand-new covert-style miss) probes every
    // subtable.
    let probe = FlowKey::tcp([11, 0, 0, 99], [10, 1, 0, 66], 7_777, 7_778);
    // ^ 11.0.0.99 hits the 8-bit deny subtable *last* in insertion
    //   order; measure with a fresh unique key to defeat the EMC.
    let out = sw.process(&probe, SimTime::from_secs(5));
    println!(
        "\nTSS iterations for a worst-case lookup: {} (paper: 8)",
        out.path.probes()
    );

    let path = results_dir()
        .expect("results dir")
        .join("fig2_decomposition.csv");
    csv.write_csv(&path).expect("write csv");
    println!("\nCSV written to {}", path.display());
}
