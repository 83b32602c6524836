//! `mask_sweep` (E3/E4) — fast-path capacity vs injected mask count.
//!
//! The abstract's headline: the attack "reduce[s] its effective peak
//! performance by 80-90%", and §2's "512 MF masks/entries … slowing it
//! down to 10% of the peak performance". This sweep measures sustainable
//! fast-path packets/second for mask counts from 2 to 8192, using the
//! same EMC-defeating probe workload throughout (the traffic shape the
//! covert stream imposes).
//!
//! Absolute ratios depend on per-probe vs per-packet cost constants
//! (testbed-specific); the reproduced *shape* is capacity ∝ 1/masks,
//! with 512 masks already deep in collapse.
//!
//! Output: `mask_sweep.csv`.

use pi_attack::AttackSpec;
use pi_cms::{Cidr, PolicyDialect};
use pi_datapath::DpConfig;
use pi_metrics::CsvTable;
use pi_sim::measure_capacity;

use crate::{Claim, Output};

const CPU: u64 = 1_200_000_000;

/// Runs the six field sets.
pub(crate) fn run() -> pi_core::Result<Output> {
    let mut table = String::new();
    say!(
        table,
        "fast-path capacity vs megaflow masks (probe workload: unique covert scans)\n"
    );
    let mut csv = CsvTable::new(&[
        "masks",
        "fields",
        "avg_cycles_per_pkt",
        "capacity_pps",
        "capacity_rel",
        "capacity_gbps_64B",
        "capacity_gbps_1500B",
    ]);

    // Field sets of increasing aggression, as §2 describes.
    let specs: Vec<(&str, AttackSpec)> = vec![
        (
            "ip/1",
            AttackSpec {
                dialect: PolicyDialect::Kubernetes,
                allow_src: Cidr::new(0x8000_0000, 1)?,
                dst_port: None,
                src_port: None,
            },
        ),
        (
            "ip/8",
            AttackSpec {
                dialect: PolicyDialect::Kubernetes,
                allow_src: "10.0.0.0/8".parse()?,
                dst_port: None,
                src_port: None,
            },
        ),
        (
            "ip/32",
            AttackSpec {
                dialect: PolicyDialect::Kubernetes,
                allow_src: Cidr::host([203, 0, 113, 7]),
                dst_port: None,
                src_port: None,
            },
        ),
        (
            "ip/8+dport",
            AttackSpec {
                dialect: PolicyDialect::Kubernetes,
                allow_src: "10.0.0.0/8".parse()?,
                dst_port: Some(443),
                src_port: None,
            },
        ),
        (
            "ip/32+dport (paper 512)",
            AttackSpec::masks_512(PolicyDialect::Kubernetes),
        ),
        ("ip/32+dport+sport (paper 8192)", AttackSpec::masks_8192()),
    ];

    // Every row is relative to the first row's pre-attack capacity
    // (same probe workload, no masks injected yet).
    let mut baseline_pps: Option<f64> = None;
    let mut rel_512 = f64::NAN;
    say!(
        table,
        "{:>8} {:>28} {:>14} {:>14} {:>9} {:>10} {:>10}",
        "masks",
        "fields",
        "cycles/pkt",
        "pps",
        "relative",
        "Gb/s@64B",
        "Gb/s@1500B"
    );
    for (label, spec) in &specs {
        let (base, attacked) = measure_capacity(DpConfig::default(), CPU, spec, 2_000);
        let baseline = *baseline_pps.get_or_insert(base.capacity_pps);
        let rel = attacked.capacity_pps / baseline;
        if attacked.masks == 512 {
            rel_512 = rel;
        }
        say!(
            table,
            "{:>8} {:>28} {:>14.0} {:>14.0} {:>9.4} {:>10.4} {:>10.4}",
            attacked.masks,
            label,
            attacked.avg_cycles,
            attacked.capacity_pps,
            rel,
            attacked.capacity_gbps(64),
            attacked.capacity_gbps(1500),
        );
        csv.push_row(&[
            attacked.masks.to_string(),
            label.to_string(),
            format!("{:.0}", attacked.avg_cycles),
            format!("{:.0}", attacked.capacity_pps),
            format!("{rel:.6}"),
            format!("{:.4}", attacked.capacity_gbps(64)),
            format!("{:.4}", attacked.capacity_gbps(1500)),
        ]);
    }
    let baseline = baseline_pps.unwrap_or(f64::NAN);
    say!(
        table,
        "\nbaseline (pre-attack, same workload): {baseline:.0} pps \
         ({:.2} Gb/s at 1500 B)",
        baseline * 1500.0 * 8.0 / 1e9
    );
    say!(
        table,
        "paper claims: 512 masks ⇒ ~10% of peak; 8192 ⇒ DoS. The shape is \
         reproduced; the constant factor is the CostModel's per-probe : per-packet ratio."
    );

    let claims = vec![Claim::new(
        "512 injected masks leave ≤ 10 % of the unattacked fast-path capacity (paper §2)",
        format_args!("{rel_512:.4}"),
        rel_512 <= 0.10,
    )];
    Ok(Output {
        files: vec![("mask_sweep.csv", csv.to_csv())],
        table,
        claims,
    })
}
