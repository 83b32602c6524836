//! # pi-bench — experiment harness
//!
//! One binary per paper artefact (see DESIGN.md §4 and EXPERIMENTS.md):
//!
//! | binary | artefact |
//! |---|---|
//! | `fig2_decomposition` | Fig. 2a/2b — the ACL and its megaflow table |
//! | `mask_sweep` | §2 claims E3/E4 — capacity vs mask count, 512/8192 rows |
//! | `fig3_timeseries` | Fig. 3 — victim throughput + masks over 150 s |
//! | `covert_bandwidth` | E6 — how little bandwidth sustains the attack |
//! | `mitigation_ablation` | E7 — the demo-discussion defenses, quantified |
//! | `field_scaling` | E8 — the ∏ field-width mask law |
//! | `upcall_saturation` | the bounded slow path under a paced flood (BENCH_upcall.json) |
//!
//! Run with `--release`; each prints an aligned table / ASCII figure and
//! writes a CSV under `results/`.
//!
//! `cargo bench -p pi-bench` runs the criterion microbenchmarks of the
//! underlying mechanisms (TSS walk, EMC, tries, slow path, compiled
//! ACLs).

use std::path::PathBuf;

pub mod report;
pub mod rows;
pub mod stopwatch;

/// Resolves the shared results directory (`<workspace>/results`),
/// creating it if needed. The error carries the offending path so the
/// bench binaries' `.expect` calls stay informative.
pub fn results_dir() -> std::io::Result<PathBuf> {
    let dir = std::env::var("PI_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("results")
        });
    std::fs::create_dir_all(&dir)
        .map_err(|e| std::io::Error::new(e.kind(), format!("create {}: {e}", dir.display())))?;
    Ok(dir)
}

/// The canonical `fleet_colocation` macro-bench cell shared by the
/// `fleet_scaling` and `hotpath` binaries: every host under active
/// 512-mask policy injection starting at t = 1 s. One definition so the
/// two benches' `switch_packets` stay comparable cell-for-cell.
pub fn colocation_cell(
    hosts: usize,
    workers: usize,
    duration_secs: u64,
) -> pi_fleet::ColocationParams {
    pi_fleet::ColocationParams {
        hosts,
        victims: hosts,
        attackers: hosts / 2,
        spec: pi_attack::AttackSpec::masks_512(pi_cms::PolicyDialect::Kubernetes),
        attack_start: pi_core::SimTime::from_secs(1),
        stagger: pi_core::SimTime::ZERO,
        duration: pi_core::SimTime::from_secs(duration_secs),
        workers,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn results_dir_is_creatable() {
        let d = super::results_dir().expect("results dir");
        assert!(d.exists());
    }
}
