//! Fleet-scale blast radius: how many co-located tenants and hosts does
//! one tenant's injected policy degrade?
//!
//! Builds a 4-host cluster, places 4 victim iperf services round-robin
//! and 2 attacker pods by adversarial co-location, injects the paper's
//! 8192-mask Calico policy through real CMS admission, and runs the
//! covert streams — then reports per-victim throughput retention and
//! the per-host mask/CPU footprint.
//!
//! Run with: `cargo run --release --example fleet_blast_radius`

use pi_core::SimTime;
use pi_metrics::ascii_plot;
use pi_sim::{fleet_colocation, ColocationParams};

fn main() {
    let params = ColocationParams {
        hosts: 4,
        victims: 4,
        attackers: 2,
        attack_start: SimTime::from_secs(10),
        duration: SimTime::from_secs(30),
        workers: std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(1),
        ..Default::default()
    };
    println!(
        "fleet_colocation: {} hosts, {} victims, {} attackers, attack at {} s, {} workers\n",
        params.hosts,
        params.victims,
        params.attackers,
        params.attack_start.as_secs_f64(),
        params.workers,
    );

    let (sim, handles) = fleet_colocation(&params);
    let victims = handles.sources("victim");
    let report = sim.run();

    println!(
        "victim pods on hosts {:?}; attacker pods on hosts {:?}\n",
        handles.victim_hosts, handles.attacker_hosts
    );

    let blast = report.blast_radius(params.attack_start, &victims, 0.5, 100.0);
    println!("per-victim throughput retained across the attack start:");
    for (i, (src, ratio)) in blast.ratios.iter().enumerate() {
        let host = handles.victim_hosts[i];
        match ratio {
            Some(r) => println!(
                "  victim{i} (host {host}): {:6.1} %{}",
                r * 100.0,
                if *r < 0.5 { "   << degraded" } else { "" }
            ),
            None => println!("  victim{i} (host {host}): no pre-attack baseline (source {src})"),
        }
    }
    println!(
        "\nblast radius: {}/{} victims degraded (> 50 % loss), hosts with injected masks: {:?}",
        blast.degraded_sources.len(),
        victims.len(),
        blast.affected_hosts,
    );

    println!("\nper-host state at the end of the run:");
    for h in 0..report.hosts {
        println!(
            "  host {h}: masks = {:5.0}  megaflows = {:6.0}  mean CPU = {:4.0} %",
            report.masks[h].last().map(|(_, v)| v).unwrap_or(0.0),
            report.megaflows[h].last().map(|(_, v)| v).unwrap_or(0.0),
            report.cpu_util[h].mean() * 100.0,
        );
    }

    let total = report.aggregate_throughput(&victims, "victims_total_bps");
    println!("\naggregate victim throughput (bits/s):");
    println!("{}", ascii_plot(&[&total], 72, 14));
}
