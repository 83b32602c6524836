//! `covert` (E6) — attack economics: the covert bandwidth needed to sustain the
//! mask population (§2: "low-bandwidth (1–2 Mbps) covert packet
//! stream").
//!
//! Sweeps the covert budget, runs the populate+refresh schedule (scan
//! disabled, to isolate sustenance from amplification) against a live
//! switch with a 1 s revalidator and 10 s idle timeout, and reports how
//! many of the 512 masks stay alive. The analytic minimum
//! (`entries / idle_timeout` packets/s) is printed alongside.
//!
//! Output: `covert_bandwidth.csv`.

use pi_attack::{min_refresh_bandwidth_bps, AttackSchedule, AttackSpec, CovertSequence};
use pi_cms::PolicyDialect;
use pi_core::SimTime;
use pi_datapath::{DpConfig, VSwitch};
use pi_metrics::CsvTable;
use pi_traffic::TrafficSource;

use crate::{Claim, Output};

fn steady_state_masks(bandwidth_bps: f64, seconds: u64) -> (usize, f64) {
    let pod_ip = u32::from_be_bytes([10, 1, 0, 66]);
    let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
    let mut sw = VSwitch::new(DpConfig::default());
    sw.attach_pod(pod_ip, 1);
    sw.install_acl(pod_ip, spec.compile());
    let mut schedule = AttackSchedule::new(
        CovertSequence::new(spec.build_target(pod_ip)),
        bandwidth_bps,
        SimTime::ZERO,
    )
    .without_scan();
    let mut out = Vec::new();
    let mut bytes = 0usize;
    for ms in 0..seconds * 1000 {
        let now = SimTime::from_millis(ms);
        out.clear();
        schedule.generate(now, SimTime::from_millis(ms + 1), &mut out);
        for p in &out {
            bytes += p.bytes;
            sw.process(&p.key, now);
        }
        sw.revalidate(now);
    }
    (sw.mask_count(), bytes as f64 * 8.0 / seconds as f64)
}

/// Sweeps the covert budget.
pub(crate) fn run() -> pi_core::Result<Output> {
    let mut table = String::new();
    let spec = AttackSpec::masks_512(PolicyDialect::Kubernetes);
    let seq = CovertSequence::new(spec.build_target(1));
    let analytic = min_refresh_bandwidth_bps(seq.packet_count(), SimTime::from_secs(10), 64);
    say!(
        table,
        "target: keep all 512 masks ({} entries) alive; idle timeout 10 s, 64-B frames",
        seq.packet_count()
    );
    say!(
        table,
        "analytic refresh minimum: {:.0} b/s ({:.3} Mb/s)\n",
        analytic,
        analytic / 1e6
    );

    let mut csv = CsvTable::new(&["budget_mbps", "offered_mbps", "masks_alive", "sustained"]);
    say!(
        table,
        "{:>12} {:>13} {:>12} {:>10}",
        "budget Mb/s",
        "offered Mb/s",
        "masks alive",
        "sustained"
    );
    // The schedule refreshes each entry every 5 s (half the idle
    // window): 561 × 512 bits / 5 s ≈ 57 kb/s of steady demand. Sweep
    // across that threshold.
    let mut cheapest_sustaining = f64::NAN;
    for budget in [
        0.01e6, 0.02e6, 0.03e6, 0.04e6, 0.05e6, 0.06e6, 0.1e6, 0.5e6, 2.0e6,
    ] {
        let (masks, offered) = steady_state_masks(budget, 40);
        let sustained = masks == 512;
        if sustained && cheapest_sustaining.is_nan() {
            cheapest_sustaining = budget;
        }
        say!(
            table,
            "{:>12.2} {:>13.3} {:>12} {:>10}",
            budget / 1e6,
            offered / 1e6,
            masks,
            if sustained { "yes" } else { "no" }
        );
        csv.push_row(&[
            format!("{:.2}", budget / 1e6),
            format!("{:.3}", offered / 1e6),
            masks.to_string(),
            sustained.to_string(),
        ]);
    }
    say!(
        table,
        "\nreading: a few hundred kb/s sustains the full 512-mask population — \
         comfortably inside the paper's 1–2 Mb/s budget (which also funds the scan stream)."
    );

    let claims = vec![Claim::new(
        "the full 512-mask population is sustained well inside the paper's 1–2 Mb/s covert budget (≤ 0.1 Mb/s)",
        format_args!("{:.2} Mb/s", cheapest_sustaining / 1e6),
        cheapest_sustaining <= 0.1e6,
    )];
    Ok(Output {
        files: vec![("covert_bandwidth.csv", csv.to_csv())],
        table,
        claims,
    })
}
