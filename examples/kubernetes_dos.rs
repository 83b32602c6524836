//! The paper's Fig. 3 scenario, compressed for interactive use: a
//! Kubernetes cluster with a Calico-capable CNI, a victim iperf at
//! ~1 Gb/s, and an 8192-mask policy injection whose covert stream starts
//! mid-run. Prints the victim-throughput and mask time series.
//!
//! ```sh
//! cargo run --release --example kubernetes_dos
//! ```
//! (The full 150 s reproduction lives in
//! `cargo run --release -p pi_bench --bin results -- fig3`.)

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // example: fail loudly

use policy_injection::prelude::*;

fn main() {
    let params = Fig3Params {
        duration: SimTime::from_secs(45),
        attack_start: SimTime::from_secs(15),
        ..Fig3Params::default()
    };
    println!(
        "running {}s Kubernetes scenario; Calico policy injected, covert stream starts at {}...",
        params.duration, params.attack_start
    );
    let (sim, handles) = fig3_scenario(&params);
    let report = sim.run();

    let victim = &report.throughput_bps[handles.source("victim")];
    let server = handles.attacker_hosts[0];
    let masks = &report.masks[server];
    let cpu = &report.cpu_util[server];

    println!("\n— victim throughput (Gb/s) and megaflow masks —");
    let mut victim_gbps = TimeSeries::new("victim_gbps");
    for (t, v) in victim.iter() {
        victim_gbps.push(t, v / 1e9);
    }
    println!("{}", ascii_plot(&[&victim_gbps, masks], 72, 16));

    let before = victim.mean_between(SimTime::ZERO, params.attack_start) / 1e9;
    let after = victim.mean_between(
        params.attack_start + SimTime::from_secs(10),
        params.duration,
    ) / 1e9;
    println!("victim mean before attack : {before:.3} Gb/s");
    println!("victim mean during attack : {after:.3} Gb/s");
    println!(
        "degradation               : {:.1}% of baseline wiped out",
        (1.0 - after / before) * 100.0
    );
    println!(
        "masks on the server switch: {} (paper: 8192 + the victim's own)",
        masks.last().unwrap().1
    );
    println!(
        "server datapath CPU       : {:.0}% during attack",
        cpu.mean_between(params.attack_start + SimTime::from_secs(5), params.duration) * 100.0
    );
    let attack = &report.offered_bps[handles.source("attack")];
    println!(
        "covert stream offered     : {:.2} Mb/s (the paper's 'low-bandwidth' budget)",
        attack.mean_between(params.attack_start, params.duration) / 1e6
    );
}
