//! `field_scaling` (E8) — the per-field mask multiplication law.
//!
//! §2: "our technique can be applied to an arbitrary number of protocol
//! fields, each resulting in a significant increase in the number of MF
//! entries and masks". Prediction: masks = ∏ per-field prefix widths.
//! This sweep validates the law across 1–3 fields and assorted prefix
//! lengths by comparing the analytical count, the table-level
//! prediction, and the masks actually materialised in a live datapath.
//!
//! Output: `field_scaling.csv`.

use pi_attack::{predicted_mask_count, AttackSpec, CovertSequence};
use pi_cms::{Cidr, PolicyDialect};
use pi_core::SimTime;
use pi_datapath::{DpConfig, VSwitch};
use pi_metrics::CsvTable;

use crate::{Claim, Output};

fn measured_masks(spec: &AttackSpec) -> usize {
    let pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let mut sw = VSwitch::new(DpConfig::default());
    sw.attach_pod(pod_ip, 1);
    sw.install_acl(pod_ip, spec.compile());
    let seq = CovertSequence::new(spec.build_target(pod_ip));
    let mut t = SimTime::from_millis(1);
    for p in seq.populate_packets() {
        sw.process(&p, t);
        t += SimTime::from_micros(50);
    }
    sw.mask_count()
}

/// Runs the ten field/prefix combinations.
pub(crate) fn run() -> pi_core::Result<Output> {
    let mut table = String::new();
    say!(
        table,
        "mask multiplication across fields: masks = ∏ per-field widths\n"
    );
    let mut csv = CsvTable::new(&[
        "fields",
        "ip_len",
        "dst_port",
        "src_port",
        "analytic",
        "table_prediction",
        "measured",
    ]);
    say!(
        table,
        "{:>22} {:>7} {:>9} {:>9} {:>9} {:>11} {:>9}",
        "fields",
        "ip_len",
        "dst_port",
        "src_port",
        "analytic",
        "prediction",
        "measured"
    );

    let mut cases: Vec<(String, AttackSpec)> = Vec::new();
    for len in [4u8, 8, 16, 24, 32] {
        cases.push((
            format!("ip/{len}"),
            AttackSpec {
                dialect: PolicyDialect::Kubernetes,
                allow_src: Cidr::new(0xcb00_7107, len)?,
                dst_port: None,
                src_port: None,
            },
        ));
    }
    for len in [8u8, 16, 32] {
        cases.push((
            format!("ip/{len} × dport"),
            AttackSpec {
                dialect: PolicyDialect::OpenStack,
                allow_src: Cidr::new(0xcb00_7107, len)?,
                dst_port: Some(443),
                src_port: None,
            },
        ));
    }
    for len in [8u8, 32] {
        cases.push((
            format!("ip/{len} × dport × sport"),
            AttackSpec {
                dialect: PolicyDialect::Calico,
                allow_src: Cidr::new(0xcb00_7107, len)?,
                dst_port: Some(443),
                src_port: Some(4444),
            },
        ));
    }

    let trie_fields = DpConfig::default().trie_fields;
    let mut agreeing = 0;
    for (label, spec) in &cases {
        let analytic = spec.predicted_masks();
        let prediction = predicted_mask_count(&spec.compile(), &trie_fields);
        let measured = measured_masks(spec);
        say!(
            table,
            "{:>22} {:>7} {:>9} {:>9} {:>9} {:>11} {:>9}",
            label,
            spec.allow_src.len,
            spec.dst_port.map(|p| p.to_string()).unwrap_or("—".into()),
            spec.src_port.map(|p| p.to_string()).unwrap_or("—".into()),
            analytic,
            prediction,
            measured
        );
        if analytic == prediction && measured as u64 == analytic {
            agreeing += 1;
        }
        csv.push_row(&[
            label.clone(),
            spec.allow_src.len.to_string(),
            spec.dst_port.map(|p| p.to_string()).unwrap_or_default(),
            spec.src_port.map(|p| p.to_string()).unwrap_or_default(),
            analytic.to_string(),
            prediction.to_string(),
            measured.to_string(),
        ]);
    }

    let claims = vec![Claim::new(
        "analytic ∏-width count = table-level prediction = masks measured in a live datapath, on every row",
        format_args!("{agreeing}/{} rows", cases.len()),
        agreeing == cases.len(),
    )];
    Ok(Output {
        files: vec![("field_scaling.csv", csv.to_csv())],
        table,
        claims,
    })
}
