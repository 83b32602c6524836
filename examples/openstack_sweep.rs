//! OpenStack flavour: sweep the whitelist prefix length and watch the
//! mask count and fast-path capacity degrade — the "arbitrary number of
//! protocol fields, each resulting in a significant increase" claim of
//! §2, quantified per field width.
//!
//! ```sh
//! cargo run --release --example openstack_sweep
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // example: fail loudly

use policy_injection::prelude::*;

fn main() {
    println!("OpenStack security-group injection: ip_src /L × exact dst port\n");
    let mut table = CsvTable::new(&[
        "prefix_len",
        "predicted_masks",
        "measured_masks",
        "capacity_pps",
        "relative_capacity",
    ]);

    let mut baseline_pps = None;
    for len in [1u8, 2, 4, 8, 12, 16, 20, 24, 28, 32] {
        let spec = AttackSpec {
            dialect: PolicyDialect::OpenStack,
            allow_src: Cidr::new(0xcb00_7107, len).unwrap(),
            dst_port: Some(443),
            src_port: None,
        };
        let (base, attacked) = measure_capacity(DpConfig::default(), 1_200_000_000, &spec, 500);
        let baseline = *baseline_pps.get_or_insert(base.capacity_pps);
        table.push_numeric_row(&[
            len as f64,
            spec.predicted_masks() as f64,
            attacked.masks as f64,
            attacked.capacity_pps.round(),
            attacked.capacity_pps / baseline,
        ]);
    }
    println!("{}", table.to_aligned_text());
    println!(
        "every row's measured masks == predicted (the ∏ per-field-width law);\n\
         capacity falls as 1/masks — the linear TSS walk made visible."
    );
}
