//! `fig2` (E1/E2) — Fig. 2 reproduction.
//!
//! Part 1 prints the paper's exact table: the binary ACL
//! (allow `00001010` = first octet of 10.0.0.0/8, deny `********`) and
//! the resulting non-overlapping megaflow entries — 9 entries over
//! 8 masks, byte-identical to Fig. 2b.
//!
//! Part 2 demonstrates the in-text claim "this technique creates 8 masks
//! and so 8 iterations for executing the TSS" by counting actual
//! subtable probes.
//!
//! Output: `fig2_decomposition.csv`.

use pi_attack::{AttackSpec, CovertSequence};
use pi_cms::PolicyDialect;
use pi_core::{Field, FlowKey, SimTime};
use pi_datapath::{DpConfig, VSwitch};
use pi_metrics::CsvTable;

use crate::{Claim, Output};

/// Builds the Fig. 2 table from a live switch.
pub(crate) fn run() -> pi_core::Result<Output> {
    let mut table = String::new();
    // The paper's policy: allow 10.0.0.0/8 (first octet 00001010).
    let spec = AttackSpec {
        dialect: PolicyDialect::Kubernetes,
        allow_src: "10.0.0.0/8".parse()?,
        dst_port: None,
        src_port: None,
    };
    say!(
        table,
        "Fig. 2a — binary ACL representation (first octet of ip_src):\n"
    );
    say!(table, "  ip_src     action");
    say!(table, "  00001010   allow");
    say!(table, "  ********   deny\n");

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

    say!(
        table,
        "Fig. 2b — resulting non-overlapping megaflow entries:\n"
    );
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
    say!(table, "  Key        Mask       Action");
    for (_, key, mask, action) in &rows {
        say!(table, "  {key}   {mask}   {action}");
        csv.push_row(&[key.clone(), mask.clone(), action.clone()]);
    }
    let masks = sw.mask_count();
    let entries = sw.megaflow_count();
    say!(
        table,
        "\n  ⇒ {entries} entries over {masks} masks (paper: 9 entries, 8 masks)"
    );

    // Part 2: "8 masks and so 8 iterations for executing the TSS".
    // A packet matching no megaflow (fresh destination prefix pattern
    // exhausted — use a brand-new covert-style miss) probes every
    // subtable.
    let probe = FlowKey::tcp([11, 0, 0, 99], [10, 1, 0, 66], 7_777, 7_778);
    // ^ 11.0.0.99 hits the 8-bit deny subtable *last* in insertion
    //   order; measure with a fresh unique key to defeat the EMC.
    let out = sw.process(&probe, SimTime::from_secs(5));
    let probes = out.work.subtables as usize;
    say!(
        table,
        "\nTSS iterations for a worst-case lookup: {probes} (paper: 8)"
    );

    let claims = vec![
        Claim::new(
            "one 10.0.0.0/8 allow rule decomposes into 9 megaflow entries over 8 masks (Fig. 2b)",
            format_args!("{entries} / {masks}"),
            entries == 9 && masks == 8,
        ),
        Claim::new(
            "a worst-case lookup then takes 8 TSS iterations",
            probes,
            probes == 8,
        ),
    ];
    Ok(Output {
        files: vec![("fig2_decomposition.csv", csv.to_csv())],
        table,
        claims,
    })
}
