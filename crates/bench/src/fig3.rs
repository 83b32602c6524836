//! `fig3` (E5) — the full Fig. 3 reproduction.
//!
//! "OVS degradation in Kubernetes: Attacker feeds her ACL with
//! low-bandwidth packets at 60th sec." 150 simulated seconds, victim
//! iperf at ~1 Gb/s, Calico 8192-mask policy, 2 Mb/s covert stream from
//! t = 60 s. Prints the dual-axis ASCII figure (victim throughput *,
//! megaflow count o) and returns the CSV.
//!
//! Output: `fig3_timeseries.csv`. The run processes ~12 M packets
//! (≈ 8 s release).

use pi_core::SimTime;
use pi_metrics::{ascii_plot, CsvTable, TimeSeries};
use pi_sim::scenario::COVERT_BANDWIDTH_BPS;
use pi_sim::{fig3_scenario, Fig3Params};

use crate::{Claim, Output};

/// Runs the 150-second scenario.
pub(crate) fn run() -> pi_core::Result<Output> {
    let params = Fig3Params::default();
    let mut table = String::new();
    say!(
        table,
        "Fig. 3: {} total, attack at {}, covert budget {:.1} Mb/s, 8192-mask Calico policy",
        params.duration,
        params.attack_start,
        COVERT_BANDWIDTH_BPS / 1e6
    );
    let (sim, handles) = fig3_scenario(&params);
    let report = sim.run();

    let victim = &report.throughput_bps[handles.source("victim")];
    let server = handles.attacker_hosts[0];
    let masks = &report.masks[server];
    let megaflows = &report.megaflows[server];
    let cpu = &report.cpu_util[server];

    let mut victim_gbps = TimeSeries::new("victim_gbps");
    for (t, v) in victim.iter() {
        victim_gbps.push(t, v / 1e9);
    }

    say!(
        table,
        "\nFig. 3 — victim throughput (*) and #megaflow masks (o):\n"
    );
    say!(table, "{}", ascii_plot(&[&victim_gbps, masks], 100, 20));

    let before = victim.mean_between(SimTime::from_secs(5), params.attack_start) / 1e9;
    let during = victim.mean_between(SimTime::from_secs(75), params.duration) / 1e9;
    let final_masks = masks.last().map_or(f64::NAN, |(_, v)| v);
    say!(
        table,
        "victim mean 5–60 s   : {before:.3} Gb/s   (paper: ≈0.85–1.0)"
    );
    say!(
        table,
        "victim mean 75–150 s : {during:.3} Gb/s   (paper: collapse toward 0)"
    );
    say!(
        table,
        "degradation          : {:.1}%",
        (1.0 - during / before) * 100.0
    );
    say!(
        table,
        "masks at t=150 s     : {final_masks:.0}   (paper: 8192 + victim's own)"
    );
    say!(
        table,
        "megaflow entries     : {:.0}   (paper figure shows ≈10⁴)",
        megaflows.last().map_or(f64::NAN, |(_, v)| v)
    );
    say!(
        table,
        "server CPU during attack: {:.0}%",
        cpu.mean_between(SimTime::from_secs(75), params.duration) * 100.0
    );
    let attack_offered = report.offered_bps[handles.source("attack")]
        .mean_between(params.attack_start, params.duration);
    say!(
        table,
        "covert stream        : {:.2} Mb/s",
        attack_offered / 1e6
    );

    // The bars are PAPER.md's "capacity collapse (Fig. 3)" row.
    let claims = vec![
        Claim::new(
            "the victim runs near line rate before the attack and keeps < 15 % of that after it",
            format_args!("{before:.3} → {during:.3} Gb/s"),
            before > 0.85 && during < 0.15 * before,
        ),
        Claim::new(
            "a ≤ 2 Mb/s covert stream holds > 3 000 masks resident at t = 150 s",
            format_args!("{final_masks:.0} masks at {:.2} Mb/s", attack_offered / 1e6),
            final_masks > 3_000.0 && attack_offered <= 2.0e6,
        ),
    ];
    // CSV with the figure's series.
    let csv = CsvTable::from_series(&[&victim_gbps, masks, megaflows, cpu]);
    Ok(Output {
        files: vec![("fig3_timeseries.csv", csv.to_csv())],
        table,
        claims,
    })
}
